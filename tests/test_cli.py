import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from paraortho import cli, theorems, zeros
from paraortho.cli import (_VERIFY_CHECKS, _json_default, build_parser, parse_alpha_spec, parse_angle, parse_range,
                           run)

TWO_PI = 2.0 * math.pi


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# arguments that make each verify check apply to const 0.5 at lambda = pi:
# an arc plus an atom at angle 0, whose flipped side is the arc alone
VERIFY_POINTS = {
    "theorem1": ["--z0-theta", "0.5"],  # in the gap, off the atom
    "gap": ["--gap", "0.1:0.9"],
    "main_lemma": ["--z0-theta", "0"],
    "theorem3": ["--z0-theta", "0"],
    "bounds": ["--z0-theta", "0"],
}


def verify_fixture(tmp_path):
    """Coefficients, base point and support files that VERIFY_POINTS fit."""
    support = tmp_path / "support.json"
    support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]], "points": [0.0]}))
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
    return ["--alpha", "const:0.5", "--lambda-theta", "pi", "--support", str(support), "--nu-support", str(nu)]


def spy_zero_sets(monkeypatch):
    """Record (kind, degrees) of every zero-set search a run makes."""
    calls = []
    search = zeros._zero_sets

    def spy(polys):
        calls.append((next(iter(polys.values())).kind, list(polys)))
        return search(polys)

    monkeypatch.setattr(zeros, "_zero_sets", spy)
    monkeypatch.setattr(theorems, "_zero_sets", spy)
    return calls


class TestParsers:
    def test_angles(self):
        assert parse_angle("0.5pi") == 0.5 * math.pi
        assert parse_angle("pi") == math.pi
        assert parse_angle("-pi") == -math.pi
        assert parse_angle("1.25") == 1.25
        with pytest.raises(ValueError):
            parse_angle("half a turn")
        for text in ("nan", "inf", "-inf", "nanpi", "infpi"):
            with pytest.raises(ValueError, match="is not finite"):
                parse_angle(text)

    def test_ranges(self):
        assert parse_range("7") == [7]
        assert parse_range("2..5") == [2, 3, 4, 5]
        with pytest.raises(ValueError):
            parse_range("5..2")

    def test_alpha_specs(self):
        assert parse_alpha_spec("const:0.5").alpha(3) == 0.5
        assert parse_alpha_spec("const:-0.2+0.1j").alpha(0) == -0.2 + 0.1j
        seq = parse_alpha_spec("random:0.7:seed=42")
        assert abs(seq.alpha(0)) <= 0.7
        assert parse_alpha_spec("decay:0.9:1.0").alpha(1) == 0.45
        assert parse_alpha_spec("list:0.1,0.2j").alpha(1) == 0.2j
        with pytest.raises(ValueError):
            parse_alpha_spec("magic:1")

    def test_argument_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_runs_sharing_the_parser_write_what_each_writes_alone(self, tmp_path):
        support = tmp_path / "arc.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
        runs = [
            ["zeros", "--alpha", "const:0.5", "--n", "6", "--kind", "second"],
            ["verify", "theorem1", "--alpha", "const:-0.5", "--lambda-theta", "pi", "--z0-theta", "0",
             "--support", str(support), "--n", "2..4"],
            ["zeros", "--alpha", "const:0.5", "--n", "6"],  # --kind back at its default
        ]

        def report(k):
            out = tmp_path / f"{k}.json"
            assert run(runs[k] + ["--out", str(out)]) == 0
            doc = read_json(out)
            doc.pop("generated_at")
            return doc

        alone = []
        for k in range(len(runs)):
            build_parser.cache_clear()
            alone.append(report(k))
        assert [report(k) for k in range(len(runs))] == alone
        assert alone[0]["zeros"]["kind"] == "second" and alone[2]["zeros"]["kind"] == "first"


class TestZerosCommand:
    def test_free_case(self, tmp_path):
        out = tmp_path / "z.json"
        code = run([
            "zeros", "--alpha", "const:0", "--lambda-theta", "0",
            "--n", "4", "--kind", "first", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out)
        want = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        assert np.max(np.abs(np.array(doc["zeros"]["angles"]) - want)) <= 1e-12
        assert doc["schema"] == 1
        assert doc["config"]["alpha_spec"] == "const:0"

    def test_csv_and_svg(self, tmp_path):
        out = tmp_path / "z.json"
        csv_path = tmp_path / "z.csv"
        svg_path = tmp_path / "z.svg"
        code = run([
            "zeros", "--alpha", "const:0.5", "--n", "6",
            "--out", str(out), "--csv", str(csv_path), "--svg", str(svg_path),
        ])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "index,theta,theta_abs,residual"
        assert len(lines) == 7
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_pi_shorthand_lambda(self, tmp_path):
        out = tmp_path / "z.json"
        assert run([
            "zeros", "--alpha", "const:0", "--lambda-theta", "0.5pi",
            "--n", "2", "--out", str(out),
        ]) == 0
        assert read_json(out)["zeros"]["lambda_theta"] == pytest.approx(math.pi / 2)

    def test_measure_mode(self, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({
            "weight": {"kind": "bernstein_szego", "alpha": [[0.5, 0.0]]},
            "panels": 1024,
        }))
        out = tmp_path / "z.json"
        assert run(["zeros", "--measure", str(spec), "--n", "3", "--out", str(out)]) == 0
        assert len(read_json(out)["zeros"]["angles"]) == 3


class TestCoeffsCommand:
    def test_text_output(self, tmp_path):
        out = tmp_path / "alphas.txt"
        assert run(["coeffs", "--alpha", "const:0.25", "--n", "3", "--out", str(out)]) == 0
        rows = [line.split() for line in out.read_text().strip().splitlines()]
        assert [float(r[0]) for r in rows] == [0.25, 0.25, 0.25]

    def test_json_output(self, tmp_path):
        out = tmp_path / "alphas.json"
        assert run(["coeffs", "--alpha", "decay:0.8:1.0", "--n", "2", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["alphas"] == [[0.8, 0.0], [0.4, 0.0]]

    def test_measure_panels_come_from_the_document(self, tmp_path):
        # 8 panels leave alpha_0 off by 5.9e-7, 1024 resolve it
        errors = {}
        for panels in (8, 1024):
            spec = tmp_path / f"m{panels}.json"
            spec.write_text(json.dumps({
                "weight": {"kind": "bernstein_szego", "alpha": [[0.8, 0]]},
                "panels": panels,
            }))
            out = tmp_path / f"a{panels}.json"
            assert run(["coeffs", "--measure", str(spec), "--n", "1", "--out", str(out)]) == 0
            errors[panels] = abs(complex(*read_json(out)["alphas"][0]) - 0.8)
        assert errors[8] > 1e-7
        assert errors[1024] < 1e-12


class TestInterlaceCommand:
    def test_same_degree_pass(self, tmp_path):
        out = tmp_path / "i.json"
        svg = tmp_path / "i.svg"
        code = run([
            "interlace", "--alpha", "const:0", "--n", "4",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        doc = read_json(out)
        assert doc["all_pass"] is True
        assert doc["results"][0]["theorem_id"] == "theorem2"
        assert svg.read_text().startswith("<svg")

    def test_consecutive(self, tmp_path):
        out = tmp_path / "i.json"
        code = run([
            "interlace", "--alpha", "const:0.5", "--n", "7",
            "--consecutive", "--out", str(out),
        ])
        assert code == 0
        assert read_json(out)["results"][0]["theorem_id"] == "consecutive"

    def test_runs_every_degree(self, tmp_path):
        out = tmp_path / "i.json"
        assert run(["interlace", "--alpha", "const:0.5", "--n", "5..7", "--out", str(out)]) == 0
        assert [r["n"] for r in read_json(out)["results"]] == [5, 6, 7]

    def test_unresolved_degree_becomes_an_error_verdict(self, tmp_path):
        # the alternating list of test_unresolved_degrees_become_error_verdicts
        spec = "list:" + ",".join(str(0.5 * (-1) ** (k + 1)) for k in range(72))
        out = tmp_path / "i.json"
        code = run(["interlace", "--consecutive", "--alpha", spec, "--n", "69", "--out", str(out)])
        assert code == 1
        (row,) = read_json(out)["results"]
        assert row["verdict"] == "error"
        assert "isolated 67 of 69 zeros" in row["error"]


class TestVerifyCommand:
    def test_theorem2_range(self, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        code = run([
            "verify", "theorem2", "--alpha", "random:0.7:seed=42",
            "--lambda-theta", "0", "--n", "1..20",
            "--out", str(out), "--csv", str(csv_path),
        ])
        assert code == 0
        doc = read_json(out)
        assert doc["all_pass"] is True
        assert len(doc["results"]) == 20
        assert len(csv_path.read_text().strip().splitlines()) == 21

    def test_theorem1_with_support_file(self, tmp_path):
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
        out = tmp_path / "r.json"
        code = run([
            "verify", "theorem1", "--alpha", "const:-0.5",
            "--lambda-theta", "pi", "--z0-theta", "0",
            "--support", str(support), "--n", "2..12", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out)
        assert all(r["verdict"] == "pass" for r in doc["results"])
        assert doc["results"][0]["radii"]["rho"] == pytest.approx(1.0 / 9.0)

    def test_gap_failure_exit_code(self, tmp_path):
        # a wrong support model makes the gap claim fail: exit 1
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"points": [math.pi]}))
        out = tmp_path / "r.json"
        code = run([
            "verify", "gap", "--alpha", "const:0", "--lambda-theta", "0",
            "--support", str(support), "--gap", f"{math.pi + 0.01}:{math.pi - 0.01}",
            "--n", "6", "--out", str(out),
        ])
        assert code == 1
        assert read_json(out)["all_pass"] is False

    def test_unresolved_degrees_become_error_verdicts(self, tmp_path, monkeypatch):
        # const 0.5 at lambda = -1, rotated to lambda = 1 by alternating the
        # signs of its coefficients: at degrees 69 and 71 the first-kind
        # zeros next to the atom lie closer than double angles resolve;
        # the run still writes a verdict for every requested degree, and
        # reports a degree's failure again rather than searching it again
        calls = spy_zero_sets(monkeypatch)
        spec = "list:" + ",".join(str(0.5 * (-1) ** (k + 1)) for k in range(72))
        out = tmp_path / "r.json"
        code = run(["verify", "consecutive", "--alpha", spec, "--n", "64..70", "--out", str(out)])
        assert code == 1
        assert calls == [("first", list(range(64, 72)))]
        doc = read_json(out)
        assert doc["all_pass"] is False
        assert [r["n"] for r in doc["results"]] == list(range(64, 71))
        verdicts = [r["verdict"] for r in doc["results"]]
        assert verdicts == ["pass", "inconclusive", "pass", "inconclusive"] + ["error"] * 3
        why = "first-kind degree {0}: isolated {1} of {0} zeros, the rest closer than double angles resolve"
        assert [r.get("error") for r in doc["results"][-3:]] == [
            why.format(69, 67) + " (lambda = (1+0j))"] * 2 + [why.format(71, 69) + " (lambda = (1+0j))"]

    def test_phase_counts_decide_degrees_whose_zeros_cannot_be_isolated(self, tmp_path, monkeypatch):
        # the alternating list above, whose support is the arc [4pi/3, 8pi/3]
        # plus the atom at pi: h_69 and h_71 stay unresolved next to the
        # atom, but the phase counts the ball around e^{2.6i} without them
        calls = spy_zero_sets(monkeypatch)
        spec = "list:" + ",".join(str(0.5 * (-1) ** (k + 1)) for k in range(72))
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"arcs": [[4 * math.pi / 3, 8 * math.pi / 3]], "points": [math.pi]}))
        out = tmp_path / "r.json"
        argv = ["verify", "theorem1", "--alpha", spec, "--z0-theta", "2.6", "--support", str(support)]
        assert run(argv + ["--n", "68..70", "--out", str(out)]) == 0
        assert calls == []
        assert [(r["verdict"], r["counts"]) for r in read_json(out)["results"]] == [
            ("pass", {"h_n@rho": 0, "h_n1@rho": 0})] * 3

    def test_failed_precondition_exits_1(self, tmp_path, capsys):
        # a gap over the modeled support is a check that could not be
        # established, not a usage error
        support = tmp_path / "arc.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
        assert run([
            "verify", "gap", "--alpha", "const:-0.5", "--lambda-theta", "pi",
            "--support", str(support), "--gap", "0:2pi", "--n", "5",
        ]) == 1
        assert "check could not be established" in capsys.readouterr().err

    def test_bounds(self, tmp_path):
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
        nu = tmp_path / "nu.json"
        nu.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]], "points": [0.0]}))
        out = tmp_path / "r.json"
        code = run([
            "verify", "bounds", "--alpha", "const:-0.5", "--lambda-theta", "pi",
            "--z0-theta", "0", "--support", str(support), "--nu-support", str(nu),
            "--n", "3..5", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out)
        assert all(r["verdict"] == "pass" for r in doc["results"])

    def test_bounds_sweeps_each_kind_once(self, tmp_path, monkeypatch):
        # the audit reads h_n and s_n: one search per kind over the run's
        # degrees, none per degree
        calls = spy_zero_sets(monkeypatch)
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
        nu = tmp_path / "nu.json"
        nu.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]], "points": [0.0]}))
        assert run([
            "verify", "bounds", "--alpha", "const:-0.5", "--lambda-theta", "pi",
            "--z0-theta", "0", "--support", str(support), "--nu-support", str(nu),
            "--n", "2..10", "--out", str(tmp_path / "r.json"),
        ]) == 0
        assert calls == [("first", list(range(2, 12))), ("second", list(range(2, 12)))]

    def test_bounds_with_too_small_nu_estimate_degree_exits_2(self, tmp_path, capsys):
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
        out = tmp_path / "r.json"
        assert run([
            "verify", "bounds", "--alpha", "const:-0.5", "--lambda-theta", "pi",
            "--z0-theta", "0", "--support", str(support), "--nu-estimate-n", "10",
            "--n", "3", "--out", str(out),
        ]) == 2
        assert "error: support estimation needs degree >= 50, got 10" in capsys.readouterr().err
        assert not out.exists()


class TestSupportCommand:
    def test_geronimus_arc(self, tmp_path):
        out = tmp_path / "s.json"
        code = run([
            "support", "--alpha", "const:-0.5", "--lambda-theta", "pi",
            "--n-estimate", "120", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out)["support"]
        assert doc["provenance"] == "estimated"
        (start, end), = doc["arcs"]
        assert abs(start - math.pi / 3) < 0.06
        assert abs(end - 5 * math.pi / 3) < 0.06


class TestIdentitiesCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "i.json"
        code = run([
            "identities", "--count", "2", "--max-n", "40", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out)
        assert doc["all_pass"] is True
        assert set(doc["residuals"]) >= {"relformula", "cd_closed_level_n", "mixed_closed"}


class TestExitCodes:
    def test_bad_coefficient_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5\nnot numbers\n")
        assert run(["zeros", "--alpha", f"file:{bad}", "--n", "2", "--out", "/dev/null"]) == 2

    def test_bad_measure_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["zeros", "--measure", str(bad), "--n", "2", "--out", "/dev/null"]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"weight": {"kind": "lebesgue"}, "panels": 2.7}, "panel count must be an integer, got 2.7"),
        (
            {"weight": {"kind": "arc", "theta_start": 5.0, "theta_end": 1.0}, "panels": 1},
            "panel count must be >= 2, one per support interval, got 1",
        ),
    ])
    def test_bad_measure_panels(self, tmp_path, capsys, doc, message):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(doc))
        assert run(["coeffs", "--measure", str(spec), "--n", "1", "--out", "/dev/null"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("option, doc", [
        ("--support", [[1.0, 5.0]]),
        ("--measure", {"weight": {"kind": "lebesgue"}, "masses": 5}),
        ("--measure", {"weight": 5}),
    ], ids=["support-list", "masses-int", "weight-int"])
    def test_malformed_documents_are_usage_errors(self, tmp_path, capsys, option, doc):
        # a document of the wrong JSON shape is reported against its path,
        # with no traceback and no report
        spec, out = tmp_path / "doc.json", tmp_path / "report.json"
        spec.write_text(json.dumps(doc))
        if option == "--support":
            argv = ["verify", "theorem1", "--alpha", "const:-0.5", "--lambda-theta", "pi", "--z0-theta", "0",
                    "--support", str(spec), "--n", "2"]
        else:
            argv = ["coeffs", "--measure", str(spec), "--n", "1"]
        assert run(argv + ["--out", str(out)]) == 2
        assert f"error: {spec}: " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_source(self):
        assert run(["zeros", "--n", "2", "--out", "/dev/null"]) == 2

    def test_bad_angle(self):
        assert run([
            "zeros", "--alpha", "const:0", "--lambda-theta", "sideways", "--n", "2",
        ]) == 2

    @pytest.mark.parametrize("spec, message", [
        ("const:nan", "coefficient 0 has modulus nan >= 1"),
        ("list:0.1,nan", "coefficient 1 has modulus nan >= 1"),
        ("decay:0.5:nan", "decay exponent must be >= 0, got nan"),
    ])
    def test_nan_coefficients_are_usage_errors(self, spec, message, capsys):
        assert run(["zeros", "--alpha", spec, "--n", "4", "--out", "/dev/null"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_nan_coefficient_file_line(self, tmp_path, capsys):
        path = tmp_path / "alphas.txt"
        path.write_text("0.1\nnan 0\n")
        assert run(["zeros", "--alpha", f"file:{path}", "--n", "2", "--out", "/dev/null"]) == 2
        assert "modulus nan >= 1" in capsys.readouterr().err

    def test_nan_mass_angle_in_measure_document(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"weight": {"kind": "lebesgue"}, "masses": [{"theta": NaN, "w": 0.5}]}')
        assert run(["zeros", "--measure", str(path), "--n", "2", "--out", "/dev/null"]) == 2
        assert "non-finite angle" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--lambda-theta", "pi", "--z0-theta", "nan"],
        ["--lambda-theta", "nan", "--z0-theta", "0"],
        ["--lambda-theta", "pi", "--z0-theta", "infpi"],
    ])
    def test_non_finite_angles_are_usage_errors(self, tmp_path, capsys, args):
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
        out = tmp_path / "r.json"
        assert run([
            "verify", "theorem1", "--alpha", "const:-0.5", *args,
            "--support", str(support), "--n", "5", "--out", str(out),
        ]) == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_gap_is_a_usage_error(self, tmp_path, capsys):
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
        out = tmp_path / "r.json"
        assert run([
            "verify", "gap", "--alpha", "const:-0.5", "--lambda-theta", "pi",
            "--support", str(support), "--gap", "nan:1", "--n", "5", "--out", str(out),
        ]) == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_support_arc_is_a_usage_error(self, tmp_path, capsys):
        # json.load admits NaN; the support model must not
        support = tmp_path / "support.json"
        support.write_text('{"arcs": [[NaN, 5.236]]}')
        out = tmp_path / "r.json"
        assert run([
            "verify", "theorem1", "--alpha", "const:-0.5", "--lambda-theta", "pi",
            "--z0-theta", "0", "--support", str(support), "--n", "2..3", "--out", str(out),
        ]) == 2
        assert "non-finite arc end or point" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["identities", "--alpha", "const:0.5"],
        ["identities", "--measure", "m.json"],
        ["identities", "--theta-tol", "1e-9"],
        ["coeffs", "--alpha", "const:0.5", "--n", "3", "--theta-tol", "1e-9"],
        # the zero tolerance is fixed (zeros.THETA_TOL): no command takes it
        ["zeros", "--alpha", "const:0.5", "--n", "6", "--theta-tol", "1e-9"],
        ["verify", "theorem2", "--alpha", "const:0.5", "--n", "6", "--theta-tol", "1e-9"],
    ])
    def test_options_a_command_does_not_read_are_rejected(self, capsys, args):
        assert run(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["zeros", "coeffs"])
    def test_degree_range_where_one_integer_is_read(self, tmp_path, capsys, command):
        out = tmp_path / "r.json"
        assert run([command, "--alpha", "const:0.5", "--n", "2..5", "--out", str(out)]) == 2
        assert "error: invalid literal for int() with base 10: '2..5'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["identities", "--count", "0"], "--count must be at least 1, got 0"),
        (["identities", "--points", "0"], "--points must be at least 1, got 0"),
        (["identities", "--max-n", "1"], "--max-n must be at least 2, got 1"),
        (["coeffs", "--alpha", "const:0.5", "--n", "-3"], "--n must be at least 0, got -3"),
    ])
    def test_sizes_below_their_least_value_are_usage_errors(self, tmp_path, capsys, args, message):
        out = tmp_path / "r.json"
        assert run(args + ["--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_argparse_usage_error(self, capsys):
        assert run(["zeros"]) == 2  # --n is required
        capsys.readouterr()

    @pytest.mark.parametrize("theorem, field", [(t, f) for t, (_, f, *_) in _VERIFY_CHECKS.items() if f])
    def test_verify_without_point_argument(self, tmp_path, capsys, theorem, field):
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]], "points": [0.0]}))
        assert run([
            "verify", theorem, "--alpha", "const:0.5", "--lambda-theta", "pi",
            "--support", str(support), "--n", "3", "--out", str(tmp_path / "r.json"),
        ]) == 2
        flag = {"z0_theta": "--z0-theta", "gap": "--gap"}[field]
        assert f"verify {theorem} needs {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", VERIFY_POINTS)
    def test_verify_without_support(self, tmp_path, capsys, theorem):
        # the checks that take a point argument are the ones that read --support
        out = tmp_path / "r.json"
        assert run([
            "verify", theorem, "--alpha", "const:0.5", "--lambda-theta", "pi",
            *VERIFY_POINTS[theorem], "--n", "3", "--out", str(out),
        ]) == 2
        assert f"error: <args>: verify {theorem} needs --support" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_spec", ["0", "0..3"])
    @pytest.mark.parametrize("theorem", [*_VERIFY_CHECKS, None])
    def test_degree_below_1_is_a_usage_error(self, tmp_path, capsys, theorem, n_spec):
        # theorem None runs interlace, which reads no support
        args = (["interlace", "--alpha", "const:0.5"] if theorem is None else
                ["verify", theorem, *verify_fixture(tmp_path), *VERIFY_POINTS.get(theorem, [])])
        out = tmp_path / "r.json"
        assert run(args + ["--n", n_spec, "--out", str(out)]) == 2
        assert "error: --n must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["coeffs", "--alpha", "list:0.5,0.2", "--n", "5"], "2 coefficients, index 2"),
        (["zeros", "--alpha", "list:0.5", "--n", "4"], "1 coefficients, index 1"),
        (["verify", "theorem2", "--alpha", "list:0.5,0.2,0.1", "--n", "2..6"], "3 coefficients, index 3"),
    ])
    def test_too_few_coefficients_is_a_usage_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "r.json"
        assert run(args + ["--out", str(out)]) == 2
        assert f"error: explicit sequence has {message} requested" in capsys.readouterr().err
        assert not out.exists()


def test_verify_rows_share_one_key_set(tmp_path):
    # pass, fail, bounds and error rows are all one serialized TheoremReport
    arc = tmp_path / "arc.json"
    arc.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
    arc_atom = tmp_path / "arc_atom.json"
    arc_atom.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]], "points": [0.0]}))
    atom = tmp_path / "atom.json"
    atom.write_text(json.dumps({"points": [math.pi]}))
    geronimus = ["--alpha", "const:-0.5", "--lambda-theta", "pi", "--z0-theta", "0", "--support", str(arc)]
    alternating = "list:" + ",".join(str(0.5 * (-1) ** (k + 1)) for k in range(72))
    runs = {
        "theorem1": (0, ["verify", "theorem1", *geronimus, "--n", "2..4"]),
        # the wrong support model of test_gap_failure_exit_code
        "gap": (1, ["verify", "gap", "--alpha", "const:0", "--support", str(atom),
                    "--gap", f"{math.pi + 0.01}:{math.pi - 0.01}", "--n", "6"]),
        "bounds": (0, ["verify", "bounds", *geronimus, "--nu-support", str(arc_atom), "--n", "3..5",
                       "--csv", str(tmp_path / "bounds.csv")]),
        # the unresolvable degree of test_unresolved_degrees_become_error_verdicts
        "consecutive": (1, ["verify", "consecutive", "--alpha", alternating, "--n", "69"]),
    }
    rows = {}
    for theorem, (code, argv) in runs.items():
        out = tmp_path / f"{theorem}.json"
        assert run(argv + ["--out", str(out)]) == code
        rows[theorem] = read_json(out)["results"]
        assert {r["theorem_id"] for r in rows[theorem]} == {theorem}
    everything = [r for theorem_rows in rows.values() for r in theorem_rows]
    assert len({frozenset(r) for r in everything}) == 1
    assert {r["verdict"] for r in everything} == {"pass", "fail", "error"}
    for r in everything:
        assert (r["error"] is None) == (r["verdict"] != "error")
        assert bool(r["checks"]) == (r["theorem_id"] == "bounds")
    for r in rows["bounds"]:
        assert r["z0_theta"] == 0.0
        assert r["delta"] == pytest.approx(1.0)  # chord to the arc's end at pi/3
        assert r["delta_nu"] == 0.0  # z0 is the flipped side's atom
    with open(tmp_path / "bounds.csv", encoding="utf-8") as handle:
        table = list(csv.DictReader(handle))
    assert [(float(c["delta"]), float(c["delta_nu"])) for c in table] == [
        (r["delta"], r["delta_nu"]) for r in rows["bounds"]]


def test_report_fields_serialize_as_asdict(tmp_path, monkeypatch):
    # the reports of every check, an error row and a witness dict write
    # the JSON bytes of dataclasses.asdict
    reports, convert = [], cli._report_fields

    def spy(rep):
        reports.append(rep)
        return convert(rep)

    monkeypatch.setattr(cli, "_report_fields", spy)
    out = ["--out", str(tmp_path / "r.json")]
    for theorem in _VERIFY_CHECKS:
        argv = ["verify", theorem, *verify_fixture(tmp_path), *VERIFY_POINTS.get(theorem, []), "--n", "2..4"]
        assert run(argv + out) == 0
    # the unresolvable degree of test_unresolved_degrees_become_error_verdicts
    alternating = "list:" + ",".join(str(0.5 * (-1) ** (k + 1)) for k in range(72))
    assert run(["verify", "consecutive", "--alpha", alternating, "--n", "69"] + out) == 1
    assert {r.theorem_id for r in reports} == set(_VERIFY_CHECKS)
    assert "error" in {r.verdict for r in reports}
    assert any(r.checks for r in reports) and any(r.gap for r in reports)
    reports.append(theorems.TheoremReport("theorem2", 5, "fail", witnesses=[{"arc": (0.25, 0.5), "count": 2}]))
    for rep in reports:
        want = json.dumps(dataclasses.asdict(rep), indent=2, sort_keys=True, default=_json_default)
        assert json.dumps(convert(rep), indent=2, sort_keys=True, default=_json_default) == want


def test_verify_looks_its_check_up_when_it_runs(tmp_path, monkeypatch):
    from paraortho import theorems

    seen = []
    check = theorems.check_theorem1

    def spy(ctx, z0, n):
        seen.append(n)
        return check(ctx, z0, n)

    monkeypatch.setattr(theorems, "check_theorem1", spy)
    support = tmp_path / "support.json"
    support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
    assert run([
        "verify", "theorem1", "--alpha", "const:-0.5", "--lambda-theta", "pi",
        "--z0-theta", "0", "--support", str(support), "--n", "2..4",
        "--out", str(tmp_path / "r.json"),
    ]) == 0
    assert seen == [2, 3, 4]


def test_reports_deterministic_modulo_timestamp(tmp_path):
    # reruns must write the same bytes apart from the timestamp value
    out = tmp_path / "r.json"
    support = tmp_path / "support.json"
    support.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]], "points": [0.0]}))
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"arcs": [[math.pi / 3, 5 * math.pi / 3]]}))
    fixture = ["--alpha", "const:0.5", "--lambda-theta", "pi", "--n", "2..8",
               "--support", str(support), "--nu-support", str(nu)]
    runs = [
        ["zeros", "--alpha", "random:0.6:seed=9", "--n", "8"],
        ["verify", "theorem2", "--alpha", "const:-0.5", "--lambda-theta", "pi", "--n", "2..12"],
    ]
    runs += [["verify", t, *fixture, *VERIFY_POINTS.get(t, [])] for t in _VERIFY_CHECKS]
    for argv in runs:
        reports = []
        for _ in range(2):
            assert run(argv + ["--out", str(out)]) == 0
            text, stamps = re.subn(rb'"generated_at": "[^"]*"', b'"generated_at": ""', out.read_bytes())
            assert stamps == 1
            reports.append(text)
        assert reports[0] == reports[1], argv[:2]
