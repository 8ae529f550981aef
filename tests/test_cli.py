import json
import math
import re

import numpy as np
import pytest

from paraortho.cli import parse_alpha_spec, parse_angle, parse_range, run

TWO_PI = 2.0 * math.pi


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestParsers:
    def test_angles(self):
        assert parse_angle("0.5pi") == 0.5 * math.pi
        assert parse_angle("pi") == math.pi
        assert parse_angle("-pi") == -math.pi
        assert parse_angle("1.25") == 1.25
        with pytest.raises(ValueError):
            parse_angle("half a turn")

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

    def test_unresolved_degrees_become_error_verdicts(self, tmp_path):
        # at this theta_tol the zeros of degrees 18..20 cannot be isolated;
        # the run still writes a verdict for every requested degree
        out = tmp_path / "r.json"
        code = run([
            "verify", "consecutive", "--alpha", "const:0.5", "--n", "18..24",
            "--theta-tol", "1e-4", "--out", str(out),
        ])
        assert code == 1
        doc = read_json(out)
        assert doc["all_pass"] is False
        assert [r["n"] for r in doc["results"]] == list(range(18, 25))
        assert [r["verdict"] for r in doc["results"]] == ["error"] * 3 + ["pass"] * 4

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

    def test_missing_source(self):
        assert run(["zeros", "--n", "2", "--out", "/dev/null"]) == 2

    def test_bad_angle(self):
        assert run([
            "zeros", "--alpha", "const:0", "--lambda-theta", "sideways", "--n", "2",
        ]) == 2

    def test_argparse_usage_error(self, capsys):
        assert run(["zeros"]) == 2  # --n is required
        capsys.readouterr()


def test_reports_deterministic_modulo_timestamp(tmp_path):
    # reruns must write the same bytes apart from the timestamp value
    out = tmp_path / "r.json"
    runs = (
        ["zeros", "--alpha", "random:0.6:seed=9", "--n", "8"],
        ["verify", "theorem2", "--alpha", "const:-0.5", "--lambda-theta", "pi", "--n", "2..12"],
    )
    for argv in runs:
        reports = []
        for _ in range(2):
            assert run(argv + ["--out", str(out)]) == 0
            text, stamps = re.subn(rb'"generated_at": "[^"]*"', b'"generated_at": ""', out.read_bytes())
            assert stamps == 1
            reports.append(text)
        assert reports[0] == reports[1], argv[0]
