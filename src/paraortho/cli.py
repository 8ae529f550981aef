"""Batch front-end: coefficient generation, zeros, interlacing, theorem
verification, support estimation, and identity residual suites.

Every run is a pure function of its resolved configuration, which is
embedded in each report next to the tool version, so reports are
reproducible byte for byte apart from the timestamp field.

Angles on the command line are radians, either plain decimals or
pi-multiples like "0.5pi".  Exit status: 0 all checks passed, 1 at least
one check failed (or could not be established), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .coeffs import (
    ConstantSequence,
    DecayingSequence,
    ExplicitSequence,
    RandomSequence,
    measure_from_dict,
    read_coefficient_file,
    sequence_from_measure,
    write_coefficient_file,
)
from .errors import (
    MeasureIngestionError,
    ParaorthoError,
    PreconditionError,
    ProviderRangeError,
    ResolutionError,
    SpecFileError,
    SupportModelError,
)
from .para import ParaPolynomial, para_eval
from . import theorems
from .szego import cd_kernel, eval_pair, eval_second_kind, mixed_form, mixed_kernel
from .theorems import SupportModel, TheoremContext, TheoremReport, estimate_support, support_model
from .zeros import CSV_COLUMNS, find_zeros

TWO_PI = 2.0 * math.pi

# verify's theorem id -> (name of the check in `theorems`, looked up when
# verify runs; the RunConfig field of its argument before n (z0 or the
# gap) or None, given exactly for the checks that read --support; whether
# it estimates the flipped-side support without --nu-support, which sets
# how many coefficients a measure must yield)
_VERIFY_CHECKS = {
    "theorem1": ("check_theorem1", "z0_theta", False),
    "theorem2": ("check_interlacing_first_second", None, False),
    "consecutive": ("check_consecutive_interlacing", None, False),
    "gap": ("check_gap_theorem", "gap", False),
    "main_lemma": ("check_second_kind_exclusion", "z0_theta", True),
    "theorem3": ("check_theorem3", "z0_theta", True),
    "bounds": ("audit_lemma_bounds", "z0_theta", True),
}
# interlace's checks -> the (kind, degree offset) zero sets its --svg draws
_FIGURES = {
    "theorem2": (("first", 0), ("second", 0)),
    "consecutive": (("first", 0), ("first", 1)),
}


def parse_angle(text: str) -> float:
    """Radians as a finite decimal literal, or a pi multiple like "0.5pi"."""
    text = text.strip().lower()
    if text.endswith("pi"):
        head = text[:-2].strip()
        factor = 1.0 if head in ("", "+") else (-1.0 if head == "-" else float(head))
        value = factor * math.pi
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


def parse_range(text: str) -> list[int]:
    """Either "7" or an inclusive "2..100"."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def parse_alpha_spec(text: str):
    """const:C | random:R:seed=S | decay:C:P | list:v1,v2,... | file:PATH."""
    kind, _, rest = text.partition(":")
    if kind == "const":
        return ConstantSequence(complex(rest))
    if kind == "random":
        radius, _, seedpart = rest.partition(":")
        if not seedpart.startswith("seed="):
            raise ValueError(f"random spec needs ':seed=N', got {text!r}")
        return RandomSequence(float(radius), int(seedpart[5:]))
    if kind == "decay":
        c, _, p = rest.partition(":")
        return DecayingSequence(complex(c), float(p))
    if kind == "list":
        return ExplicitSequence([complex(v) for v in rest.split(",") if v])
    if kind == "file":
        return read_coefficient_file(rest)
    raise ValueError(f"unknown coefficient spec {text!r}")


def support_model_from_dict(doc: dict, path="<support>") -> SupportModel:
    if not isinstance(doc, dict):
        raise SpecFileError(path, None, "support document must be a JSON object")
    try:
        return support_model(
            [(float(a), float(b)) for a, b in doc.get("arcs", [])],
            [float(p) for p in doc.get("points", [])],
            doc.get("provenance", "analytic"),
        )
    except (TypeError, ValueError, SupportModelError) as exc:
        raise SpecFileError(path, None, f"bad support model: {exc}") from None


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SpecFileError(path, None, str(exc)) from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None


@dataclasses.dataclass
class RunConfig:
    command: str
    alpha_spec: str | None = None
    measure_path: str | None = None
    lambda_theta: float = 0.0
    n_spec: str | None = None
    kind: str = "first"
    z0_theta: float | None = None
    gap: str | None = None
    support_path: str | None = None
    nu_support_path: str | None = None
    nu_estimate_n: int = 400
    seed: int = 0
    count: int = 10
    max_n: int = 100
    points: int = 32
    tol: float = 1e-9
    out: str | None = None
    csv: str | None = None
    svg: str | None = None


def _sequence(cfg: RunConfig, needed: int):
    """The coefficient source for a run, from either presentation mode."""
    if cfg.measure_path:
        doc = _load_json(cfg.measure_path)
        measure = measure_from_dict(doc, cfg.measure_path)
        return sequence_from_measure(measure, needed), measure
    if not cfg.alpha_spec:
        raise SpecFileError("<args>", None, "one of --alpha or --measure is required")
    return parse_alpha_spec(cfg.alpha_spec), None


def _report_skeleton(cfg: RunConfig) -> dict:
    return {
        "schema": 1,
        "tool": {"name": "paraortho", "version": __version__},
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": dataclasses.asdict(cfg),
    }


def _emit_json(cfg: RunConfig, doc: dict):
    text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _json_default(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit_csv(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _svg_circle_figure(zero_sets, lam_theta: float) -> str:
    colors = ("#1f77b4", "#d62728")
    size, r = 400, 160
    cx = cy = size // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    lx, ly = cx + r * math.cos(lam_theta), cy - r * math.sin(lam_theta)
    parts.append(f'<circle cx="{lx:.2f}" cy="{ly:.2f}" r="5" fill="none" stroke="#2ca02c" stroke-width="2"/>')
    for idx, zs in enumerate(zero_sets):
        color = colors[idx % len(colors)]
        inner = r - 8 if idx else r - 14
        for theta in zs.absolute_angles():
            x1 = cx + inner * math.cos(theta)
            y1 = cy - inner * math.sin(theta)
            x2 = cx + (r + 6) * math.cos(theta)
            y2 = cy - (r + 6) * math.sin(theta)
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_coeffs(cfg: RunConfig) -> int:
    count = int(cfg.n_spec)  # one integer: a range is a usage error
    if count < 0:
        raise ValueError(f"--n must be at least 0, got {count}")
    seq, _ = _sequence(cfg, count)
    alphas = [seq.alpha(j) for j in range(count)]
    if cfg.out and cfg.out.endswith(".txt"):
        write_coefficient_file(cfg.out, alphas)
    else:
        doc = _report_skeleton(cfg)
        doc["alphas"] = [[a.real, a.imag] for a in alphas]
        _emit_json(cfg, doc)
    return 0


def _cmd_zeros(cfg: RunConfig) -> int:
    n = int(cfg.n_spec)
    seq, _ = _sequence(cfg, n + 1)
    lam = np.exp(1j * cfg.lambda_theta)
    zs = find_zeros(ParaPolynomial(cfg.kind, n, lam, seq))
    doc = _report_skeleton(cfg)
    doc["zeros"] = zs.to_json_dict()
    _emit_json(cfg, doc)
    if cfg.csv:
        _emit_csv(cfg.csv, CSV_COLUMNS, zs.to_csv_rows())
    if cfg.svg:
        with open(cfg.svg, "w", encoding="utf-8") as handle:
            handle.write(_svg_circle_figure([zs], cfg.lambda_theta))
    return 0


VERIFY_CSV_COLUMNS = [
    "theorem", "n", "verdict", "degenerate", "delta", "delta_nu",
    "radii", "counts", "witnesses",
]


def _point_argument(cfg: RunConfig, theorem: str, name: str):
    """The check's argument before n from its option: z0 as a circle point,
    or the gap arc.  Every check that takes one also needs --support."""
    for field, flag in ((name, name.replace("_", "-")), ("support_path", "support")):
        if getattr(cfg, field) is None:
            raise SpecFileError("<args>", None, f"verify {theorem} needs --{flag}")
    value = getattr(cfg, name)
    if name == "gap":
        lo, _, hi = value.partition(":")
        return parse_angle(lo), parse_angle(hi)
    return np.exp(1j * value)


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _report_fields(rep: TheoremReport) -> dict:
    """The report as dataclasses.asdict writes it, bound-audit rows
    included, without its deep copy of every value: json serializes the
    gap tuple and the witness dicts as they are."""
    return {**_fields(rep), "checks": [_fields(c) for c in rep.checks]}


def _cmd_verify(cfg: RunConfig, theorem: str) -> int:
    """Run the theorem's check at each --n degree; with --svg (interlace),
    draw the zero sets the check compares at the last degree."""
    check_name, arg_name, estimates_nu = _VERIFY_CHECKS[theorem]
    check = getattr(theorems, check_name)
    args = () if arg_name is None else (_point_argument(cfg, theorem, arg_name),)
    n_values = parse_range(cfg.n_spec or "2..20")
    if min(n_values) < 1:
        raise ValueError(f"--n must be at least 1, got {min(n_values)}")
    needed = max(n_values) + 2
    if estimates_nu and not cfg.nu_support_path:
        needed = max(needed, cfg.nu_estimate_n + 2)
    seq, measure = _sequence(cfg, needed)
    lam = np.exp(1j * cfg.lambda_theta)
    support = nu_support = None
    if cfg.support_path:
        support = support_model_from_dict(_load_json(cfg.support_path), cfg.support_path)
    if cfg.nu_support_path:
        nu_support = support_model_from_dict(_load_json(cfg.nu_support_path), cfg.nu_support_path)
    ctx = TheoremContext(
        seq=seq, lam=lam, support=support, nu_support=nu_support, measure=measure,
        nu_estimate_n=cfg.nu_estimate_n, degrees=range(min(n_values), max(n_values) + 2),
    )

    reports = []
    for n in n_values:
        try:
            reports.append(check(ctx, *args, n))
        except ResolutionError as exc:
            reports.append(TheoremReport(theorem, n, "error", error=str(exc)))
    results = [_report_fields(rep) for rep in reports]
    failures = sum(not rep.passed for rep in reports)

    doc = _report_skeleton(cfg)
    doc["results"] = results
    doc["all_pass"] = failures == 0
    _emit_json(cfg, doc)
    if cfg.csv:
        rows = [
            [r["theorem_id"], r["n"], r["verdict"], r["degenerate"], r["delta"], r["delta_nu"],
             json.dumps(r["radii"], sort_keys=True), json.dumps(r["counts"], sort_keys=True),
             json.dumps(r["witnesses"], default=_json_default)]
            for r in results
        ]
        _emit_csv(cfg.csv, VERIFY_CSV_COLUMNS, rows)
    print(f"verify {theorem}: {len(results) - failures}/{len(results)} pass")
    if cfg.svg:
        sets = [ctx.zero_set(kind, n_values[-1] + step) for kind, step in _FIGURES[theorem]]
        with open(cfg.svg, "w", encoding="utf-8") as handle:
            handle.write(_svg_circle_figure(sets, cfg.lambda_theta))
    return 0 if failures == 0 else 1


def _cmd_support(cfg: RunConfig) -> int:
    n_est = cfg.nu_estimate_n
    seq, _ = _sequence(cfg, n_est + 2)
    lam = np.exp(1j * cfg.lambda_theta)
    model = estimate_support(seq, lam, n_est)
    doc = _report_skeleton(cfg)
    doc["support"] = {
        "arcs": [[a, b] for a, b in model.arcs],
        "points": list(model.points),
        "provenance": model.provenance,
    }
    _emit_json(cfg, doc)
    return 0


def _cmd_identities(cfg: RunConfig) -> int:
    """Residual suite for the evaluation identities on a seeded corpus.

    Residuals are relative to max(1, |largest term|); exit 1 if any
    exceeds --tol.
    """
    for option, value, least in (("--count", cfg.count, 1), ("--max-n", cfg.max_n, 2), ("--points", cfg.points, 1)):
        if value < least:
            raise ValueError(f"{option} must be at least {least}, got {value}")
    rng = np.random.default_rng(cfg.seed)
    worst: dict[str, float] = {}

    def note(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    for i in range(cfg.count):
        seq = RandomSequence(0.9, cfg.seed + 1000 * i)
        n = int(rng.integers(2, cfg.max_n + 1))
        th = rng.uniform(0.0, TWO_PI, cfg.points)
        z = np.exp(1j * th)
        pv = eval_pair(seq, n, z)
        qv = eval_second_kind(seq, n, z)
        scale = np.maximum(1.0, np.abs(pv.phi) * np.abs(qv.phi))
        note("relformula", np.max(np.abs(np.conj(qv.phi) * pv.phi + np.conj(pv.phi) * qv.phi - 2.0) / scale))
        note("modulus_equality", np.max(np.abs(np.abs(pv.phi) - np.abs(pv.phi_star)) / np.abs(pv.phi_star)))
        # kernel pairs keep a separation so the closed quotients are defined
        phi_y = rng.uniform(0.1, TWO_PI - 0.1, cfg.points)
        y = np.exp(1j * (th + phi_y))
        k_sum = cd_kernel(seq, n, z, y, "sum")
        for mode in ("closed_level_n", "closed_level_nm1"):
            k = cd_kernel(seq, n, z, y, mode)
            note(f"cd_{mode}", np.max(np.abs(k - k_sum) / np.maximum(1.0, np.abs(k_sum))))
        m_sum = mixed_kernel(seq, n, z, y, "sum")
        m_closed = mixed_kernel(seq, n, z, y, "closed")
        note("mixed_closed", np.max(np.abs(m_closed - m_sum) / np.maximum(1.0, np.abs(m_sum))))
        f_n = mixed_form(seq, n, z, y, "n")
        f_nm1 = mixed_form(seq, n, z, y, "nm1")
        note("mixed_levels", np.max(np.abs(f_n - f_nm1) / np.maximum(1.0, np.abs(f_n))))
        lam = np.exp(1j * rng.uniform(0.0, TWO_PI))
        for kind in ("first", "second"):
            p = ParaPolynomial(kind, n, lam, seq)
            vals = {d: para_eval(p, z, d) for d in ("kernel", "level_n", "level_nm1")}
            ref = np.maximum(1.0, np.abs(vals["level_n"]))
            note(
                f"{kind}_definitions",
                max(
                    np.max(np.abs(vals[a] - vals[b]) / ref)
                    for a, b in (("kernel", "level_n"), ("level_n", "level_nm1"))
                ),
            )
    doc = _report_skeleton(cfg)
    doc["residuals"] = worst
    doc["tolerance"] = cfg.tol
    doc["all_pass"] = all(v <= cfg.tol for v in worst.values())
    _emit_json(cfg, doc)
    for name in sorted(worst):
        status = "pass" if worst[name] <= cfg.tol else "FAIL"
        print(f"{status}  {name}: {worst[name]:.3e}")
    return 0 if doc["all_pass"] else 1


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every run shares it."""
    parser = argparse.ArgumentParser(
        prog="paraortho",
        description="Paraorthogonal polynomials on the unit circle: zeros and theorem checks",
    )
    parser.add_argument("--version", action="version", version=f"paraortho {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, zeros=True):
        p.add_argument("--alpha", dest="alpha_spec", help="coefficient spec, e.g. const:0.5 or random:0.7:seed=42")
        p.add_argument("--measure", dest="measure_path", help="measure JSON document")
        if zeros:
            p.add_argument("--lambda-theta", dest="lambda_theta", default="0", help="base point angle (radians or '0.5pi')")
        p.add_argument("--out", help="JSON output path (default stdout)")

    p = sub.add_parser("coeffs", help="emit a coefficient list")
    common(p, zeros=False)
    p.add_argument("--n", dest="n_spec", required=True, help="how many coefficients")

    p = sub.add_parser("zeros", help="locate all zeros of one polynomial")
    common(p)
    p.add_argument("--n", dest="n_spec", required=True, help="degree")
    p.add_argument("--kind", choices=("first", "second"), default="first")
    p.add_argument("--csv", help="CSV output path")
    p.add_argument("--svg", help="SVG figure path")

    p = sub.add_parser("interlace", help="same-degree or consecutive-degree interlacing")
    common(p)
    p.add_argument("--n", dest="n_spec", required=True)
    p.add_argument("--consecutive", action="store_true")
    p.add_argument("--svg", help="SVG figure path")

    p = sub.add_parser("verify", help="run a theorem check over a degree range")
    p.add_argument("theorem", choices=tuple(_VERIFY_CHECKS))
    common(p)
    p.add_argument("--n", dest="n_spec", required=True, help="degree or inclusive range like 2..100")
    p.add_argument("--z0-theta", dest="z0_theta", help="observation angle")
    p.add_argument("--gap", help="gap arc 'start:end' (angles)")
    p.add_argument("--support", dest="support_path", help="support model JSON")
    p.add_argument("--nu-support", dest="nu_support_path", help="flipped-side support model JSON")
    p.add_argument("--nu-estimate-n", dest="nu_estimate_n", type=int, default=400)
    p.add_argument("--csv", help="CSV output path")

    p = sub.add_parser("support", help="estimate the support from zero coincidence")
    common(p)
    p.add_argument("--n-estimate", dest="nu_estimate_n", type=int, default=400)

    p = sub.add_parser("identities", help="residual suite for the evaluation identities")
    p.add_argument("--out", help="JSON output path (default stdout)")  # its own corpus
    p.add_argument("--count", type=int, default=10, help="number of seeded sequences")
    p.add_argument("--max-n", dest="max_n", type=int, default=100)
    p.add_argument("--points", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    for key in ("lambda_theta", "z0_theta"):
        if isinstance(values.get(key), str):
            try:
                values[key] = parse_angle(values[key])
            except ValueError as exc:
                print(f"error: bad angle for --{key.replace('_', '-')}: {exc}", file=sys.stderr)
                return 2
    cfg = RunConfig(**values)
    try:
        if cfg.command == "coeffs":
            return _cmd_coeffs(cfg)
        if cfg.command == "zeros":
            return _cmd_zeros(cfg)
        if cfg.command == "interlace":
            return _cmd_verify(cfg, "consecutive" if args.consecutive else "theorem2")
        if cfg.command == "verify":
            return _cmd_verify(cfg, args.theorem)
        if cfg.command == "support":
            return _cmd_support(cfg)
        if cfg.command == "identities":
            return _cmd_identities(cfg)
        raise AssertionError(f"unhandled command {cfg.command!r}")
    except PreconditionError as exc:  # a ValueError, but no usage error
        print(f"check could not be established: {exc}", file=sys.stderr)
        return 1
    except (SpecFileError, MeasureIngestionError, SupportModelError, ProviderRangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParaorthoError as exc:
        print(f"check could not be established: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
