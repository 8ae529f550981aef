"""The three benchmark workloads: `sweep`, `verify` and `ingest`.

Each workload has the same shape:

* `setup()` builds fixtures and warms the code paths (timed as set-up);
* `inputs(index)` gives the inputs of pass `index`, drawn from the
  run's seed where the workload draws any;
* `run(inputs)` is the timed pass and only calls the program;
* `account(inputs, output)` runs after the pass's timer stopped: it
  counts attempted and failed operations and certified results, and
  returns correctness-gate errors;
* `final_gate()` runs the slower cross-checks once per run.

Why each workload exists and which layers it stresses is written in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import paraortho as pa
from paraortho import cli, coeffs, zeros
from paraortho.errors import AmbiguousMinimaError, ResolutionError

TWO_PI = 2.0 * math.pi
ARC = (math.pi / 3, 5 * math.pi / 3)  # support arc of const:-0.5 at lambda = pi
ORACLE_TOL = 1e-8  # acceptance criterion 3
LEADING_TOL = 1e-8  # hp coefficients against the float64 Levinson
COEFF_TOL = 1e-7  # acceptance criteria 7 and 9


@dataclass
class Outcome:
    """Accounting of one pass, made outside its timed region."""

    attempted: int = 0
    failed: int = 0
    results: int = 0
    kinds: dict = field(default_factory=dict)  # outcome label -> count
    errors: list = field(default_factory=list)  # correctness-gate failures
    report_bytes: int = 0

    def note(self, label: str, count: int = 1):
        self.kinds[label] = self.kinds.get(label, 0) + count

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.results += other.results
        self.report_bytes += other.report_bytes
        self.errors += other.errors
        for label, count in other.kinds.items():
            self.note(label, count)


def _circular_gap(a, b) -> float:
    """Largest distance on the circle from a point of either set to the other set.

    A zero just below 2 pi in one set may be just above 0 in the other,
    so the sets are compared as points on the circle, not index by index.
    """
    d = np.abs((np.asarray(a)[:, None] - np.asarray(b)[None, :] + math.pi) % TWO_PI - math.pi)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def zero_set_errors(zs, where: str) -> list[str]:
    """Gate: n strictly increasing angles and a true simplicity certificate."""
    angles = np.asarray(zs.angles)
    if angles.size != zs.n:
        return [f"{where}: {angles.size} angles for degree {zs.n}"]
    if np.any(np.diff(angles) <= 0.0):
        return [f"{where}: angles not strictly increasing"]
    if not zs.simplicity:
        return [f"{where}: simplicity certificate is false"]
    return []


ORACLE_SPARE_DRAWS = 12  # further draws per pool for cases the oracle cannot check


def oracle_gate(rng, pool, want: int, lam) -> tuple[list[str], dict]:
    """Check `want` seed-drawn cases of `pool` against the modulus oracle.

    A case is (label, kind, n, seq, zs); with zs None, find_zeros runs
    here.  Cases are drawn without replacement.  A case whose degree
    find_zeros cannot resolve (a failed operation in the accounting
    already), or whose minima the oracle cannot separate (it raises
    AmbiguousMinimaError), is replaced by the next draw: on the paper
    fixtures that is every even second-kind degree 14..68 of const -0.5
    and every odd first-kind degree 17..59 of the arc + atom fixture, on
    256 n- to 4096 n-point grids alike, so a denser grid is no remedy.
    The gate fails when fewer than `want` cases could be checked.
    """
    errors = []
    stats = {"oracle_checked": 0, "oracle_ambiguous": 0, "oracle_unresolved": 0}
    for i in rng.permutation(len(pool))[: want + ORACLE_SPARE_DRAWS]:
        if stats["oracle_checked"] == want:
            break
        label, kind, n, seq, zs = pool[i]
        p = pa.ParaPolynomial(kind, n, lam, seq)
        where = f"{label} {kind} n={n}"
        if zs is None:
            try:
                zs = pa.find_zeros(p)
            except ResolutionError:
                stats["oracle_unresolved"] += 1
                continue
            errors += zero_set_errors(zs, where)
        try:
            oracle = pa.oracle_zeros(p, grid_points=256 * n)
        except AmbiguousMinimaError:
            stats["oracle_ambiguous"] += 1
            continue
        stats["oracle_checked"] += 1
        gap = _circular_gap(zs.angles, oracle.angles)
        if gap > ORACLE_TOL:
            errors.append(f"{where}: differs from oracle_zeros by {gap:.3e}")
    if stats["oracle_checked"] < want:
        errors.append(f"oracle: {stats['oracle_checked']} of {want} drawn cases could be checked")
    return errors, stats


# The program is always called through its module attributes (never a
# name imported into this file), so that the tracer's wrappers see it.


# ---------------------------------------------------------------------------
# sweep: a seed-drawn slice of the criterion-4 corpus


CORPUS = [("random", seed) for seed in range(1, 21)] + [("const", 0)]
# Member k sweeps degree stratum k of 1..150 in every pass, so a pass
# covers the whole degree range and spreads it over every member, and
# each find_zeros_sweep call batches the bisection of a whole stratum.
STRATA = np.linspace(1, 151, len(CORPUS) + 1).astype(int)
SWEEP_LAMBDA = 1.0


def _corpus_sequence(member):
    label, seed = member
    return pa.RandomSequence(0.7, seed) if label == "random" else pa.ConstantSequence(0.5)


def _stripped(zs):
    """The first-kind set without its pinned base-point zero."""
    return pa.ZeroSet(
        zs.kind, zs.n, zs.lambda_theta, zs.interior_angles(),
        zs.residuals[1:], zs.scale, zs.simplicity,
    )


class Sweep:
    """Every corpus member over its own degree stratum [lo, hi).

    Per member and pass: one `find_zeros_sweep` for the first kind at
    lo..hi and one for the second kind at lo..hi - 1, then same-degree
    and consecutive-degree `interlace` at every n of the stratum.  The
    passes are identical; the seed draws the zero sets the oracle checks.
    """

    name = "sweep"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first_output = None

    def setup(self):
        seq = pa.ConstantSequence(0.5)
        h = zeros.find_zeros_sweep("first", SWEEP_LAMBDA, seq, range(1, 22))
        s = zeros.find_zeros_sweep("second", SWEEP_LAMBDA, seq, range(1, 21))
        pa.interlace(h[20], s[20])
        pa.interlace(_stripped(h[20]), _stripped(h[21]))

    def inputs(self, index: int):
        return [(member, int(STRATA[k]), int(STRATA[k + 1])) for k, member in enumerate(CORPUS)]

    def run(self, inputs):
        out = []
        for member, lo, hi in inputs:
            seq = _corpus_sequence(member)
            lam = SWEEP_LAMBDA
            h = zeros.find_zeros_sweep("first", lam, seq, range(lo, hi + 1), skip_unresolved=True)
            s = zeros.find_zeros_sweep("second", lam, seq, range(lo, hi), skip_unresolved=True)
            verdicts = []
            for n in range(lo, hi):
                verdicts.append(pa.interlace(h[n], s[n]).verdict if n in h and n in s
                                else "unresolved")
                verdicts.append(pa.interlace(_stripped(h[n]), _stripped(h[n + 1])).verdict
                                if n in h and n + 1 in h else "unresolved")
            out.append((member, lo, hi, h, s, verdicts))
        return out

    def account(self, inputs, output) -> Outcome:
        if self.first_output is None:
            self.first_output = output
        res = Outcome()
        for member, lo, hi, h, s, verdicts in output:
            for kind, wanted, sets in (("first", hi + 1 - lo, h), ("second", hi - lo, s)):
                res.attempted += wanted
                res.failed += wanted - len(sets)
                res.note("unresolved_degree", wanted - len(sets))
                for m, zs in sets.items():
                    res.errors += zero_set_errors(zs, f"{member} {kind} n={m}")
            for verdict in verdicts:
                res.attempted += 1
                res.note(verdict)
                if verdict == "pass":
                    res.results += 1
                else:
                    res.failed += 1
        return res

    def final_gate(self) -> tuple[list[str], dict]:
        """Four seed-drawn zero sets of the first pass against the modulus oracle."""
        pool = []
        for member, _, _, h, s, _ in self.first_output:
            seq = _corpus_sequence(member)
            for kind, sets in (("first", h), ("second", s)):
                pool += [(member, kind, n, seq, zs) for n, zs in sorted(sets.items())]
        return oracle_gate(np.random.default_rng((self.seed, 1)), pool, 4, SWEEP_LAMBDA)


# ---------------------------------------------------------------------------
# verify: the in-process CLI on the paper fixtures


CONST_SPEC = ["--alpha", "const:-0.5", "--lambda-theta", "pi"]
CONST_DEGREES = "2..100"
ATOM = (0.0, 0.35)  # the isolated mass of the arc + atom fixture
HP_COUNT, HP_DPS = 401, 260


class Verify:
    """`paraortho.cli.run` calls on the const -0.5 and arc + atom fixtures."""

    name = "verify"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.arc = os.path.join(workdir, "arc.json")
        self.arc_atom = os.path.join(workdir, "arc_atom.json")
        self.coeff_file = os.path.join(workdir, "arc_atom_coeffs.txt")

    def setup(self):
        with open(self.arc, "w", encoding="utf-8") as handle:
            json.dump({"arcs": [list(ARC)]}, handle)
        with open(self.arc_atom, "w", encoding="utf-8") as handle:
            json.dump({"arcs": [list(ARC)], "points": [ATOM[0]]}, handle)
        moments = coeffs.exact_arc_mass_moments(
            ARC[0], ARC[1], 1.0 - ATOM[1], [ATOM], HP_COUNT, dps=HP_DPS
        )
        alphas = coeffs.verblunsky_from_moments_hp(moments, HP_COUNT, dps=HP_DPS)
        coeffs.write_coefficient_file(self.coeff_file, alphas)
        warm = os.path.join(self.dir, "warm.json")
        self._cli(["verify", "theorem1", *CONST_SPEC, "--z0-theta", "0",
                   "--support", self.arc, "--n", "2..3", "--out", warm])
        os.remove(warm)

    def inputs(self, index: int):
        rng = np.random.default_rng((self.seed, 0, index))
        # one degree per arc + atom check: each re-estimates the flipped support
        degrees = [int(rng.integers(2, 61)) for _ in range(3)]
        gap = f"{ARC[1]!r}:{ARC[0] + TWO_PI!r}"
        atom = ["--alpha", f"file:{self.coeff_file}", "--lambda-theta", "pi",
                "--z0-theta", repr(ATOM[0]), "--support", self.arc_atom]
        calls = [
            ["verify", "theorem1", *CONST_SPEC, "--z0-theta", "0", "--support", self.arc],
            ["verify", "gap", *CONST_SPEC, "--gap", gap, "--support", self.arc],
            ["verify", "consecutive", *CONST_SPEC],
            ["verify", "theorem2", *CONST_SPEC],
        ]
        calls = [c + ["--n", CONST_DEGREES] for c in calls]
        calls.append(["support", *CONST_SPEC, "--n-estimate", "400"])
        for theorem, n in zip(("theorem3", "main_lemma", "bounds"), degrees):
            calls.append(["verify", theorem, *atom, "--n", str(n)])
        return [
            c + ["--out", os.path.join(self.dir, f"report-{k}.json")]
            for k, c in enumerate(calls)
        ]

    @staticmethod
    def _cli(args) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.run(args)

    def run(self, inputs):
        for args in inputs:
            # a stale report must never be read as this call's output
            if os.path.exists(args[-1]):
                os.remove(args[-1])
        return [self._cli(args) for args in inputs]

    def account(self, inputs, output) -> Outcome:
        res = Outcome()
        for args, code in zip(inputs, output):
            path = args[-1]
            label = args[1] if args[0] == "verify" else args[0]
            degrees = cli.parse_range(args[args.index("--n") + 1]) if "--n" in args else [None]
            res.attempted += len(degrees)
            if not os.path.exists(path):
                res.failed += len(degrees)
                res.note(f"{label}:no_report", len(degrees))
                continue
            res.report_bytes += os.path.getsize(path)
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            os.remove(path)
            if args[0] == "support":
                errors = _support_errors(doc)
                res.errors += errors
                res.results += not errors
                res.note("support:pass")
                continue
            listed = sorted(r["n"] for r in doc["results"])
            if listed != degrees:
                res.errors.append(f"{label}: report lists degrees {listed}, requested {degrees}")
            for r in doc["results"]:
                res.note(f"{label}:{r['verdict']}")
                if r["verdict"] == "pass":
                    res.results += 1
                else:
                    res.failed += 1
            if (code == 0) != doc["all_pass"]:
                res.errors.append(f"{label}: exit code {code} disagrees with all_pass")
        return res

    def final_gate(self) -> tuple[list[str], dict]:
        """One seed-drawn degree per fixture and kind against the modulus oracle."""
        rng = np.random.default_rng((self.seed, 1))
        const = pa.ConstantSequence(-0.5)
        atom = coeffs.read_coefficient_file(self.coeff_file)
        errors, stats = [], {}
        for label, seq, kind, degrees in (
            ("const", const, "first", range(2, 102)),
            ("const", const, "second", range(2, 101)),
            ("atom", atom, "first", range(2, 61)),
        ):
            pool = [(label, kind, n, seq, None) for n in degrees]
            errs, counts = oracle_gate(rng, pool, 1, -1.0)
            errors += errs
            for key, count in counts.items():
                stats[key] = stats.get(key, 0) + count
        return errors, stats


def _support_errors(doc) -> list[str]:
    """The estimated support must be the analytic arc within 2 pi / 400."""
    arcs, points = doc["support"]["arcs"], doc["support"]["points"]
    if len(arcs) != 1 or points:
        return [f"support: estimated {len(arcs)} arcs and {len(points)} points"]
    err = max(abs(arcs[0][0] - ARC[0]), abs(arcs[0][1] - ARC[1]))
    if err > TWO_PI / 400:
        return [f"support: arc endpoints off by {err:.3e}"]
    return []


# ---------------------------------------------------------------------------
# ingest: measure -> moments -> coefficients


BS_LISTS = 8  # Bernstein-Szego measures per pass, of lengths 1..8 in seed order
BS_PANELS = 65536
# The density 1/|phi_N|^2 has a spike of width about d where a zero of
# phi_N lies d inside the circle; quadrature panels of width 2 pi /
# BS_PANELS cannot resolve a narrower one (at d = 0.04 panel widths the
# recovered coefficients are off by 6e-2, from d = 1 panel width on by
# at most 1e-11).  A list whose zeros come closer is redrawn.
BS_MIN_DEPTH = TWO_PI / BS_PANELS
LEADING = 16  # hp coefficients cross-checked against the float64 Levinson
ORTHO_LEVELS = 48  # levels whose orthonormality float64 quadrature can still check
MOMENT_TOL = 1e-12  # moments rebuilt from the hp coefficients vs the exact ones


class Ingest:
    """hp ingestion of an arc + atom measure and float64 Bernstein-Szego ingestion.

    The arc + atom measure is drawn once per run (atom angle inside the
    gap, atom weight); the Bernstein-Szego coefficient lists are drawn
    per pass, as in acceptance criterion 9, among the lists whose density
    BS_PANELS panels resolve (see BS_MIN_DEPTH).
    """

    name = "ingest"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng((self.seed, 2))
        self.atom = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.25, 0.45)))
        self.hp_reference = None

    def setup(self):
        c = coeffs.exact_arc_mass_moments(ARC[0], ARC[1], 0.65, [(0.0, 0.35)], 40, dps=HP_DPS)
        coeffs.verblunsky_from_moments_hp(c, 40, dps=HP_DPS)
        table = coeffs.moments_table(pa.bernstein_szego_measure([0.5, 0.3j], panels=BS_PANELS), 5)
        coeffs.verblunsky_from_moments(table, 5)

    def inputs(self, index: int):
        rng = np.random.default_rng((self.seed, 0, index))
        lists = []
        for length in rng.permutation(np.arange(1, BS_LISTS + 1)):
            while True:
                raw = [
                    0.9 * math.sqrt(rng.random()) * complex(np.exp(2j * np.pi * rng.random()))
                    for _ in range(int(length))
                ]
                if _zero_depth(raw) >= BS_MIN_DEPTH:
                    break
            lists.append(raw)
        return self.atom, lists

    def run(self, inputs):
        (theta, w), lists = inputs
        moments = coeffs.exact_arc_mass_moments(
            ARC[0], ARC[1], 1.0 - w, [(theta, w)], HP_COUNT, dps=HP_DPS
        )
        hp = coeffs.verblunsky_from_moments_hp(moments, HP_COUNT, dps=HP_DPS)
        recovered = []
        for raw in lists:
            measure = pa.bernstein_szego_measure(raw, panels=BS_PANELS)
            table = coeffs.moments_table(measure, len(raw) + 3)
            recovered.append(coeffs.verblunsky_from_moments(table, len(raw) + 3))
        return hp, recovered

    def account(self, inputs, output) -> Outcome:
        hp, recovered = output
        res = Outcome()
        if self.hp_reference is None:
            self.hp_reference = hp  # cross-checked once, by final_gate
        res.attempted += len(hp)
        if hp == self.hp_reference:
            res.results += len(hp)
            res.note("hp:certified", len(hp))
        else:
            res.failed += len(hp)
            res.errors.append("hp coefficients differ between passes on the same moments")
        # a recovered Bernstein-Szego coefficient is certified when it is
        # within COEFF_TOL of the coefficient the measure was built from
        for raw, rec in zip(inputs[1], recovered):
            want = np.concatenate([np.array(raw), np.zeros(3)])
            good = int(np.sum(np.abs(np.array(rec) - want) <= COEFF_TOL))
            res.attempted += want.size
            res.results += good
            res.failed += want.size - good
            res.note("bs:certified", good)
            res.note("bs:off_tolerance", want.size - good)
        return res

    def final_gate(self) -> tuple[list[str], dict]:
        theta, w = self.atom
        errors = _hp_errors(theta, w, np.array(self.hp_reference))
        return errors, {"atom_theta": theta, "atom_weight": w}


def _zero_depth(alphas) -> float:
    """Distance from the unit circle to the outermost zero of phi_N.

    The monic polynomials follow Phi_{m+1} = z Phi_m - conj(alpha_m) Phi_m^*;
    their zeros come from numpy, not from the package.
    """
    phi = np.array([1.0 + 0j])  # coefficients, constant term first
    for a in alphas:
        star = np.conj(phi[::-1])
        phi = np.concatenate([[0.0], phi]) - np.conj(a) * np.concatenate([star, [0.0]])
    return 1.0 - float(np.abs(np.roots(phi[::-1])).max())


def _hp_errors(theta: float, w: float, hp: np.ndarray) -> list[str]:
    """Cross-check hp coefficients by three routes that share no recursion
    with the hp Levinson: the float64 Levinson on the leading ones,
    quadrature orthonormality of the low levels, and, for all of them,
    the moments rebuilt from the coefficients."""
    errors = []
    masses = [(theta, w)]
    leading = coeffs.verblunsky_from_moments(
        coeffs.exact_arc_mass_moments(ARC[0], ARC[1], 1.0 - w, masses, LEADING), LEADING
    )
    err = float(np.max(np.abs(np.array(leading) - hp[:LEADING])))
    if err > LEADING_TOL:
        errors.append(f"hp: leading {LEADING} differ from float64 Levinson by {err:.2e}")
    # quadrature orthonormality of each level, as in acceptance criterion 7
    measure = pa.arc_measure(ARC[0], ARC[1], masses=masses, ac_mass=1.0 - w, panels=2048)
    nodes, weights = measure._nodes(2048)
    z = np.exp(1j * np.concatenate([nodes, [theta]]))
    weights = np.concatenate([weights, [w]]) / measure.normalization(2048)
    phi = np.ones_like(z)
    phi_star = np.ones_like(z)
    worst = 0.0
    for a in hp[:ORTHO_LEVELS]:
        rho = math.sqrt(1.0 - abs(a) ** 2)
        prev = phi
        t = z * phi
        phi = (t - np.conj(a) * phi_star) / rho
        phi_star = (phi_star - a * t) / rho
        norm = float(np.sum(weights * np.abs(phi) ** 2))
        overlap = abs(complex(np.sum(weights * phi * np.conj(prev))))
        worst = max(worst, abs(norm - 1.0), overlap)
    if worst > COEFF_TOL:
        errors.append(f"hp: orthonormality of levels 1..{ORTHO_LEVELS} off by {worst:.2e}")
    # every moment, rebuilt from the coefficients by the forward recursion
    exact = coeffs.exact_arc_mass_moments(
        ARC[0], ARC[1], 1.0 - w, masses, HP_COUNT, dps=HP_DPS
    )
    rebuilt = _moments_from_coefficients(hp, HP_DPS)
    err = float(np.max(np.abs(rebuilt - np.array([complex(c) for c in exact]))))
    if err > MOMENT_TOL:
        errors.append(f"hp: moments rebuilt from the coefficients differ by {err:.2e}")
    return errors


def _moments_from_coefficients(alphas, dps: int) -> np.ndarray:
    """Moments c_0..c_len(alphas) of the measure with these coefficients.

    The inverse of the Levinson recursion: the monic polynomials follow
    Phi_{m+1} = z Phi_m - conj(alpha_m) Phi_m^*, and orthogonality of
    Phi_{m+1} to 1 fixes c_{m+1}.  Their coefficients grow exponentially
    for a measure with a gap, so the sums need mpmath precision.
    """
    from mpmath import mp, mpc

    with mp.workdps(dps):
        phi = [mpc(1)]
        c = [mpc(1)]
        for a in alphas:
            ca = mp.conj(mpc(a))
            star = [mp.conj(v) for v in reversed(phi)]
            phi = [mpc(0)] + phi
            for j, v in enumerate(star):
                phi[j] -= ca * v
            c.append(-mp.conj(mp.fsum(phi[j] * mp.conj(c[j]) for j in range(len(phi) - 1))))
        return np.array([complex(v) for v in c])


WORKLOADS = {w.name: w for w in (Sweep, Verify, Ingest)}
