"""Support models, explicit exclusion radii, and pass/fail theorem checks.

A SupportModel is an analytic (or estimated) description of where the
measure lives: closed counterclockwise arcs plus isolated angles.  The
checks count polynomial zeros inside open chordal disks B(z0, r) whose
radii come from the explicit formulas

    rho       = delta^3 / (8 + delta^2)
    rho_prime = delta^2 L / (8 + delta L)
    rho_tilde = delta_nu^2 |z0 - lambda| / (8 + |z0 - lambda| delta_nu)

with delta / L / delta_nu chordal distances to the relevant support.
Verdicts are literal: a check passes only when the counted zeros satisfy
the claimed disjunction, zeros grazing a ball's boundary are warned
about and not counted (at a gap's end, warned about and counted), and
vacuous configurations (zero radius, empty gap) are flagged degenerate
rather than silently passing.

The ball and gap counts are the whole turns of the lifted Blaschke phase
between the ends of the ball's or gap's arc (_arc_counts).  A zero set
is read only where such a count is undecided or fails the check; it
gives the same counts, and every witness and warning (see _ball_counts).

Theorem 2 (h_n and s_n interlace) passes on a sign certificate that
needs h_n's zeros alone: s_n's sign at each of them, from one float64
pass over windows around them and one collision-ladder call for the
windows it leaves, for every degree of the context at once
(_certified_interlacing).  The two zero sets are compared (interlace)
only where the certificate does not decide, and they give every
verdict other than a pass, with its witness.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coeffs import MeasureSpec, VerblunskySequence, _arc_span, unit_circle_point
from .errors import (
    DomainError,
    PreconditionError,
    ResolutionError,
    SupportModelError,
)
from .para import ParaPolynomial, _phase_at_levels, para_eval
from . import precision
from .szego import cd_kernel, eval_pair
from .zeros import (COLLISION_TOL, ON_ZERO, THETA_TOL, ZeroSet, _at_levels, _circular_gap, _phase_brackets,
                    _phase_origin, _refined_zeros, _zero_sets, interlace)

TWO_PI = 2.0 * math.pi

# zeros within this of a ball boundary are reported, not counted
BOUNDARY_TOL = 1e-12
# a count from the phase decides an arc end only with no zero within
# this many radians of it
GUARD = 4 * THETA_TOL
# half-width of the windows of the theorem 2 certificate; an s_n zero
# within it of h_n's leaves its window to the collision ladder, as
# interlace leaves a pair closer than COLLISION_TOL
WINDOW = COLLISION_TOL / 2
# estimate_support merges marked angles closer than this many 2pi/n
GAP_FACTOR = 4.0


@dataclass(frozen=True)
class SupportModel:
    """Arcs (start, end counterclockwise, closed) plus isolated angles."""

    arcs: tuple[tuple[float, float], ...]
    points: tuple[float, ...]
    provenance: str = "analytic"

    def __post_init__(self):
        if not self.arcs and not self.points:
            raise SupportModelError("support model is empty")
        if self.provenance not in ("analytic", "estimated"):
            raise SupportModelError(f"unknown provenance {self.provenance!r}")
        if not (np.isfinite(self.arcs).all() and np.isfinite(self.points).all()):
            raise SupportModelError("support model has a non-finite arc end or point")
        for start, end in self.arcs:
            if end == start:
                raise SupportModelError(f"arc ({start}, {end}) has no extent")
        spans = [(start % TWO_PI, _arc_span(start, end)) for start, end in self.arcs]
        for i, (s1, w1) in enumerate(spans):
            for s2, w2 in spans[i + 1 :]:
                d = (s2 - s1) % TWO_PI
                if d < w1 or (TWO_PI - d) % TWO_PI < w2:
                    raise SupportModelError("support arcs overlap")
        for p in self.points:
            for s, w in spans:
                if (p - s) % TWO_PI <= w:
                    raise SupportModelError(f"isolated point {p} lies inside an arc")

    def contains_angle(self, theta: float) -> bool:
        theta = theta % TWO_PI
        if any((theta - start) % TWO_PI <= _arc_span(start, end) for start, end in self.arcs):
            return True
        return any(_circular_gap(theta, p) == 0.0 for p in self.points)


def support_model(arcs, points=(), provenance: str = "analytic") -> SupportModel:
    return SupportModel(
        tuple((float(a), float(b)) for a, b in arcs),
        tuple(float(p) % TWO_PI for p in points),
        provenance,
    )


def _chord(angular: float) -> float:
    return 2.0 * math.sin(min(angular, math.pi) / 2.0)


def dist_to_support(model: SupportModel, z0: complex) -> float:
    """Exact chordal distance from a circle point to the modeled support."""
    theta = float(np.angle(unit_circle_point(z0))) % TWO_PI
    if model.contains_angle(theta):
        return 0.0
    ends = [((theta - start) % TWO_PI, _arc_span(start, end)) for start, end in model.arcs]
    angular = [min(rel - span, TWO_PI - rel) for rel, span in ends]
    return min(_chord(a) for a in angular + [_circular_gap(theta, p) for p in model.points])


# ---------------------------------------------------------------------------
# exclusion radii


def rho_radius(delta: float) -> float:
    """delta^3 / (8 + delta^2)."""
    if delta <= 0.0:
        raise DomainError(f"distance must be positive, got {delta}")
    return delta**3 / (8.0 + delta**2)


def rho_prime_radius(delta: float, lam_dist: float) -> float:
    """delta^2 L / (8 + delta L)."""
    if delta <= 0.0 or lam_dist <= 0.0:
        raise DomainError(f"distances must be positive, got {delta}, {lam_dist}")
    return delta**2 * lam_dist / (8.0 + delta * lam_dist)


def rho_tilde_radius(delta_nu: float, z0_lam_dist: float) -> float:
    """delta_nu^2 |z0 - lambda| / (8 + |z0 - lambda| delta_nu)."""
    if delta_nu <= 0.0 or z0_lam_dist < 0.0:
        raise DomainError(f"distances must be positive, got {delta_nu}, {z0_lam_dist}")
    return delta_nu**2 * z0_lam_dist / (8.0 + z0_lam_dist * delta_nu)


# ---------------------------------------------------------------------------
# contexts and reports


@dataclass
class TheoremContext:
    seq: VerblunskySequence
    lam: complex
    support: SupportModel | None = None
    nu_support: SupportModel | None = None
    measure: MeasureSpec | None = None  # same measure the seq came from, if any
    nu_estimate_n: int = 400
    # the degrees a run's checks read, swept together per kind by zero_set,
    # per (kind, arc) by arc_count and by second_kind_interlaces
    degrees: Collection[int] = ()

    def __post_init__(self):
        self.lam = unit_circle_point(self.lam)
        self._zero_cache: dict[tuple[str, int], ZeroSet | ResolutionError] = {}
        self._count_cache: dict[tuple[str, float, float, int], int | None] = {}
        self._certificate_cache: dict[tuple[str, int], bool] = {}

    def _swept(self, cache: dict, key: tuple, n: int, find):
        """cache[(*key, n)], where key starts with a kind.  The first miss
        at a degree in `degrees` fills every uncached degree of `degrees`
        from one find({degree: polynomial of that kind}) call; a degree
        outside them is found alone."""
        if (*key, n) not in cache:
            swept = self.degrees if n in self.degrees else [n]
            wanted = sorted(m for m in set(swept) if (*key, m) not in cache)
            found = find({m: ParaPolynomial(key[0], m, self.lam, self.seq) for m in wanted})
            cache.update(((*key, m), v) for m, v in found.items())
        return cache[(*key, n)]

    def zero_set(self, kind: str, n: int) -> ZeroSet:
        """The zeros of `kind` at degree n, found once per context.

        The first miss of a kind at a degree in `degrees` finds that kind
        at every uncached degree of `degrees` in one sweep; a degree
        outside them is found alone.  A degree whose zeros cannot be
        isolated raises its ResolutionError each time it is asked for.
        """
        zs = self._swept(self._zero_cache, (kind,), n, _zero_sets)
        if isinstance(zs, ResolutionError):
            raise zs
        return zs

    def arc_count(self, kind: str, arc: tuple[float, float], n: int) -> int | None:
        """The zeros of `kind` at degree n in the open arc (lo, hi) of
        angles from lambda, from the phase at its ends (_arc_counts), or
        None where that count is undecided.  An arc that does not keep
        GUARD clear of lambda on both sides is undecided.  Counts are kept
        per (kind, arc) and filled as zero_set fills its sets."""
        lo, hi = arc
        if not GUARD < lo < hi < TWO_PI - GUARD:
            return None
        return self._swept(self._count_cache, (kind, lo, hi), n, lambda polys: _arc_counts(polys, lo, hi))

    def second_kind_interlaces(self, n: int) -> bool:
        """Whether the sign certificate (_certified_interlacing) proves that
        h_n and s_n interlace; False where it does not decide, which is no
        verdict.  Kept per degree and filled as zero_set fills its sets."""
        return self._swept(self._certificate_cache, ("first",), n, lambda polys: _certified_interlacing(self, polys))

    def nu_model(self) -> SupportModel:
        """The nu support model; its provenance says where it came from.

        Without a given model it is estimated once per context, at degree
        nu_estimate_n.
        """
        if self.nu_support is not None:
            return self.nu_support
        return self._nu_estimate

    @cached_property
    def _nu_estimate(self) -> SupportModel:
        return estimate_support(self.seq.flipped(), self.lam, self.nu_estimate_n)


@dataclass
class TheoremReport:
    theorem_id: str
    n: int
    verdict: str  # "pass" | "fail" | "inconclusive" | "error"
    degenerate: bool = False
    z0_theta: float | None = None
    gap: tuple[float, float] | None = None
    delta: float | None = None
    delta_nu: float | None = None
    radii: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    checks: list[BoundCheck] = field(default_factory=list)  # the bound audit's rows
    error: str | None = None  # why an "error" verdict's zeros could not be isolated

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def count_zeros_in_ball(zs: ZeroSet, z0: complex, radius: float) -> tuple[int, list[float], list[str]]:
    """Zeros strictly inside the chordal ball B(z0, radius).

    Returns (count, offending absolute angles, warnings); zeros within
    BOUNDARY_TOL of the boundary are warned about and not counted.
    """
    absolute = zs.absolute_angles()
    d = np.abs(np.exp(1j * absolute) - z0)
    near = np.abs(d - radius) <= BOUNDARY_TOL
    inside = (d < radius) & ~near
    warnings = [
        f"zero at angle {float(a):.15g} grazes the ball boundary (|d - r| <= {BOUNDARY_TOL})"
        for a in absolute[near]
    ]
    return int(np.sum(inside)), [float(a) for a in absolute[inside]], warnings


def _arc_counts(polys: dict[int, ParaPolynomial], lo: float, hi: float) -> dict[int, int | None]:
    """The zeros of each degree of polys in the open arc (lo, hi) of
    angles from lambda, with GUARD < lo < hi < 2pi - GUARD, or None
    where the phase leaves the count undecided.

    polys maps degrees to polynomials of one family.  Shifted by
    zeros._phase_origin, the lifted phase v of each degree rises
    strictly and its zeros lie at whole turns, so the count is
    floor(v(hi)) - floor(v(lo)).  v is taken at lo +- GUARD and hi +-
    GUARD, in one deepest-first pass of the highest degree's recursion
    (zeros._at_levels), and the count is decided when all four values
    lie farther than ON_ZERO from a whole turn and the two at each end
    have the same integer part: no zero then lies within GUARD of an
    end.
    """
    top = polys[max(polys)]
    points = np.array([0.0, lo - GUARD, lo + GUARD, hi - GUARD, hi + GUARD])
    out = {}
    for n, u in _at_levels(_phase_at_levels, top, {n: points for n in polys}).items():
        v = u[1:] + _phase_origin(top, n, u[0])
        whole = np.floor(v)
        decided = np.all(np.abs(v - np.rint(v)) > ON_ZERO) and whole[0] == whole[1] and whole[2] == whole[3]
        out[n] = int(whole[2] - whole[0]) if decided else None
    return out


def _arc_from_lambda(ctx: TheoremContext, theta: float, span: float) -> tuple[float, float]:
    """The arc of the given span from the absolute angle theta, in angles from lambda."""
    lo = (theta - float(np.angle(ctx.lam))) % TWO_PI
    return lo, lo + span


def _ball_counts(ctx: TheoremContext, kind: str, z0: complex, n: int,
                 balls: dict[tuple[str, str], float], allowed: int) -> dict:
    """Zeros of kind at degrees n and n + 1, apart from the base point,
    inside each ball B(z0, r) of balls, which maps the two degrees'
    count keys to r.  The verdict fails at a ball where both counts
    exceed `allowed`, whose counted zeros become witnesses.  Returns the
    verdict, counts, witnesses and warnings as TheoremReport fields.

    The counts come from the phase at the ends of each ball's arc
    (ctx.arc_count).  Where one is undecided or the verdict fails, every
    count comes from the zero sets instead, which name the witnesses and
    warn of zeros within BOUNDARY_TOL of a ball's edge.  A decided end
    has no zero within GUARD of it, and a computed zero lies within
    THETA_TOL / 2 of its true place, while the chordal distance to z0
    changes by at least sqrt(1 - r^2 / 4) >= 0.94 per radian at the edge
    of a ball of radius r <= 2/3, the largest rho, rho_prime or rho_tilde
    can be; so both routes give the same counts and the phase route has
    no warning to give.
    """
    counts = {}
    for keys, radius in balls.items():
        half = 2.0 * math.asin(radius / 2.0)
        arc = _arc_from_lambda(ctx, float(np.angle(z0)) - half, 2.0 * half)
        counts.update((key, ctx.arc_count(kind, arc, m)) for key, m in zip(keys, (n, n + 1)))
    if None not in counts.values() and all(min(counts[k] for k in keys) <= allowed for keys in balls):
        return {"verdict": "pass", "counts": counts, "witnesses": [], "warnings": []}
    sets = [ctx.zero_set(kind, m).without_base_point() for m in (n, n + 1)]
    out = {"verdict": "pass", "counts": {}, "witnesses": [], "warnings": []}
    for keys, radius in balls.items():
        found = [count_zeros_in_ball(zs, z0, radius) for zs in sets]
        for key, (count, _, warnings) in zip(keys, found):
            out["counts"][key] = count
            out["warnings"] += warnings
        if min(count for count, _, _ in found) > allowed:
            out["verdict"] = "fail"
            out["witnesses"] += [a for _, inside, _ in found for a in inside]
    return out


def check_theorem1(ctx: TheoremContext, z0: complex, n: int) -> TheoremReport:
    """Around z0 off the support: h_n or h_{n+1} has no zero inside
    B(z0, rho), apart from the base point; with the base point also off
    the support, the larger radius rho_prime applies as well."""
    if ctx.support is None:
        raise PreconditionError("theorem 1 needs a support model")
    z0 = unit_circle_point(z0)
    if abs(z0 - ctx.lam) <= 1e-12:
        raise PreconditionError("z0 must be distinct from the base point")
    delta = dist_to_support(ctx.support, z0)
    if delta <= 0.0:
        raise PreconditionError("z0 lies in the modeled support (delta = 0)")
    radii = {"rho": rho_radius(delta)}
    lam_dist = dist_to_support(ctx.support, ctx.lam)
    if lam_dist > 0.0:
        radii["rho_prime"] = rho_prime_radius(delta, lam_dist)
    balls = {(f"h_n@{name}", f"h_n1@{name}"): r for name, r in radii.items()}
    return TheoremReport(
        "theorem1",
        n,
        z0_theta=float(np.angle(z0)) % TWO_PI,
        delta=delta,
        radii=radii,
        notes={"lam_dist": repr(lam_dist), "support": ctx.support.provenance},
        **_ball_counts(ctx, "first", z0, n, balls, 0),
    )


def _beyond(x: float, y: float) -> bool:
    """x exceeds y by more than the gap check's tolerance."""
    return x > y and not math.isclose(x, y, rel_tol=0.0, abs_tol=1e-12)


def check_gap_theorem(ctx: TheoremContext, gap: tuple[float, float], n: int) -> TheoremReport:
    """h_n has at most one zero in the closed gap arc, which runs
    counterclockwise from gap[0] to gap[1] (coeffs._arc_span): a full turn
    when they differ by a nonzero multiple of 2pi, degenerate (a vacuous
    pass, no zero counted) when equal.  The count comes from the phase
    at the gap's ends (ctx.arc_count), as in _ball_counts; where that is
    undecided or exceeds one, it comes from the zero set, which names
    the witnesses, and a zero within BOUNDARY_TOL of either end is
    counted and warned about."""
    if ctx.support is None:
        raise PreconditionError("gap theorem needs a support model")
    start, end = float(gap[0]), float(gap[1])
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"gap ({start}, {end}) has a non-finite end")
    span, recorded = _arc_span(start, end), (start % TWO_PI, end % TWO_PI)
    if span == 0.0:
        return TheoremReport("gap", n, "pass", degenerate=True, gap=recorded,
                             warnings=["the gap is empty (its ends coincide): vacuous"])
    # measured from start, an arc [t0, t1] meets the open gap (0, span) when
    # it starts inside it or runs on past 2pi; shared endpoints are fine
    for a0, a1 in ctx.support.arcs:
        t0 = (a0 - start) % TWO_PI
        t1 = t0 + _arc_span(a0, a1)
        if (_beyond(span, t0) and _beyond(t1, 0.0)) or (_beyond(span, 0.0) and _beyond(t1 - TWO_PI, 0.0)):
            raise PreconditionError(f"gap ({start}, {end}) overlaps a modeled support arc")
    for p in ctx.support.points:
        rel = (p - start) % TWO_PI
        if 1e-12 < rel < span - 1e-12:
            raise PreconditionError(
                f"gap ({start}, {end}) contains the modeled support point {p}"
            )
    count = ctx.arc_count("first", _arc_from_lambda(ctx, start, span), n)
    if count is not None and count <= 1:
        return TheoremReport("gap", n, "pass", gap=recorded, counts={"h_n": count})
    absolute = ctx.zero_set("first", n).absolute_angles()
    rel = (absolute - start) % TWO_PI
    near = np.minimum(_circular_gap(rel, 0.0), _circular_gap(rel, span)) <= BOUNDARY_TOL
    inside = (rel <= span) | near
    count = int(np.sum(inside))
    verdict = "pass" if count <= 1 else "fail"
    return TheoremReport(
        "gap",
        n,
        verdict,
        gap=recorded,
        counts={"h_n": count},
        witnesses=[float(a) for a in absolute[inside]] if verdict == "fail" else [],
        warnings=[f"zero at angle {float(a):.15g} is within {BOUNDARY_TOL} of a gap end and counted"
                  for a in absolute[near]],
    )


def _interlacing(ctx: TheoremContext, n: int, theorem: str, kind: str, step: int) -> TheoremReport:
    """Interlacing of h_n with the zeros of `kind` at degree n + step; for
    consecutive degrees (step 1) without their shared base-point zero."""
    a, b = ctx.zero_set("first", n), ctx.zero_set(kind, n + step)
    if step:
        a, b = a.without_base_point(), b.without_base_point()
    res = interlace(a, b)
    return TheoremReport(theorem, n, res.verdict, witnesses=[res.witness] if res.witness else [])


def _certified_interlacing(ctx: TheoremContext, polys: dict[int, ParaPolynomial]) -> dict[int, bool]:
    """Whether a sign certificate proves that h_n and s_n interlace, for
    every degree n of polys (first-kind polynomials); False where it
    does not decide.

    Degree n has a site at each of h_n's n - 1 interior zeros: a window
    theta +- WINDOW around its zero-set angle theta, or the zero itself.
    A window counts when it keeps 2 WINDOW clear of the next zeros and
    of lambda, h_n changes sign across it, and s_n has the pattern sign
    at both its ends: (-1)^k at the k-th site from lambda.
    s_n's trace is +2 at lambda, tends to 2(-1)^n as theta -> 2pi and
    has n zeros, so with the pattern at every site an odd number of
    them, hence exactly one, lies in each of the n arcs between
    consecutive sites, and none in a window, which holds the one zero
    of h_n its sign change shows: the two interlace.  Two sites at one
    zero of h_n would have equal signs, against the pattern.

    One float64 pass per kind (precision.trace_signs) takes both
    polynomials at every window of every degree.  The windows they do
    not close (an s_n zero within WINDOW of h_n's, say) go to one
    precision.order call for the whole degree range, which gives s_n's
    sign at h_n's zero.  A degree where the passes leave most windows
    undecided is not certified: its bound is then loose throughout (a
    base point at an atom, where phi_{n-1}(lambda) decays below the
    rounding of lambda's row), and the ladder would take every site to
    its fixed-point stages.  On the radius-0.7 corpus a degree leaves at
    most 2% of its windows undecided, each at a collision.
    """
    angles = {}
    for m in polys:
        try:
            angles[m] = ctx.zero_set("first", m).interior_angles()
        except ResolutionError:
            pass
    second = {m: ParaPolynomial("second", m, ctx.lam, ctx.seq) for m in angles}
    groups = [(p, np.concatenate([t - WINDOW, t + WINDOW])) for m, t in angles.items() if t.size
              for p in (polys[m], second[m])]
    values = iter(precision.trace_signs(groups))
    out, ladder = dict.fromkeys(polys, False), []
    for m, t in angles.items():
        if not t.size:
            out[m] = True
            continue
        (hs, hd), (ss, sd) = next(values), next(values)
        k = t.size
        pattern = (-1.0) ** np.arange(1, k + 1)
        gaps = np.diff(np.concatenate([[0.0], t, [TWO_PI]]))
        apart, decided = (gaps[:-1] > 2 * WINDOW) & (gaps[1:] > 2 * WINDOW), hd[:k] & hd[k:] & sd[:k] & sd[k:]
        if 2 * np.sum(~decided) > k:
            continue
        closed = apart & decided & (hs[:k] != hs[k:]) & (ss[:k] == pattern) & (ss[k:] == pattern)
        out[m] = bool(closed.all())
        if not out[m]:
            ladder.append((m, t[~closed], pattern[~closed]))
    if ladder:
        results = precision.order([(polys[m], second[m], sites) for m, sites, _ in ladder])
        for (m, _, want), (sign, _) in zip(ladder, results):
            out[m] = bool(np.all(sign == want))  # a site left open has sign 0
    return out


def check_interlacing_first_second(ctx: TheoremContext, n: int) -> TheoremReport:
    """Same-degree strict interlacing of the two kinds: passes on the
    sign certificate of ctx.second_kind_interlaces, and otherwise
    compares the two zero sets (interlace), which gives every verdict
    other than a pass and its witness."""
    if ctx.second_kind_interlaces(n):
        return TheoremReport("theorem2", n, "pass")
    return _interlacing(ctx, n, "theorem2", "second", 0)


def check_consecutive_interlacing(ctx: TheoremContext, n: int) -> TheoremReport:
    """First-kind degrees n and n+1 interlace once the shared base-point
    zero is removed from both."""
    return _interlacing(ctx, n, "consecutive", "first", 1)


def _isolated_point_count(ctx: TheoremContext, z0: complex, n: int, theorem: str, kind: str,
                          labels: tuple[str, str], allowed: int) -> TheoremReport:
    """Pass when the zeros of kind at degree n or n + 1 in B(z0, rho_tilde),
    apart from the base point, number at most `allowed`, counted under
    `labels`.  The base point lies outside the ball, as rho_tilde <
    |z0 - lambda| (delta_nu^2 <= 4 < 8 + |z0 - lambda| delta_nu), so
    stripping it changes no count."""
    if ctx.support is None:
        raise PreconditionError("isolated-point checks need a support model")
    z0 = unit_circle_point(z0)
    theta0 = float(np.angle(z0)) % TWO_PI
    if not any(_circular_gap(theta0, p) <= 1e-9 for p in ctx.support.points):
        raise PreconditionError(
            f"z0 (angle {theta0}) is not a declared isolated point of the support model"
        )
    nu_model = ctx.nu_model()
    delta_nu = dist_to_support(nu_model, z0)
    if delta_nu <= 0.0:
        raise PreconditionError("z0 lies in the modeled flipped-side support (delta_nu = 0)")
    d_lam = abs(z0 - ctx.lam)
    if d_lam <= 1e-12:
        return TheoremReport(
            theorem, n, "pass", degenerate=True, z0_theta=theta0,
            delta_nu=delta_nu, radii={"rho_tilde": 0.0},
            warnings=["z0 coincides with the base point: zero radius, vacuous"],
            notes={"nu_support": nu_model.provenance},
        )
    radius = rho_tilde_radius(delta_nu, d_lam)
    return TheoremReport(
        theorem,
        n,
        z0_theta=theta0,
        delta_nu=delta_nu,
        radii={"rho_tilde": radius},
        notes={"nu_support": nu_model.provenance, "z0_lam_dist": repr(d_lam)},
        **_ball_counts(ctx, kind, z0, n, {labels: radius}, allowed),
    )


def check_second_kind_exclusion(ctx: TheoremContext, z0: complex, n: int) -> TheoremReport:
    """Around an isolated support point: s_n or s_{n+1} has no zero in
    B(z0, rho_tilde)."""
    return _isolated_point_count(ctx, z0, n, "main_lemma", "second", ("s_n", "s_n1"), 0)


def check_theorem3(ctx: TheoremContext, z0: complex, n: int) -> TheoremReport:
    """Around an isolated support point: h_n or h_{n+1} has at most one
    zero in B(z0, rho_tilde)."""
    return _isolated_point_count(ctx, z0, n, "theorem3", "first", ("h_n", "h_n1"), 1)


# ---------------------------------------------------------------------------
# quantitative bound audit


@dataclass
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    applicable: bool = True
    notes: str = ""

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def ok(self) -> bool:
        return (not self.applicable) or self.margin >= 0.0


def _l2_norm(measure: MeasureSpec, p: ParaPolynomial) -> float:
    def f(thetas):
        v = para_eval(p, np.exp(1j * np.asarray(thetas)), "level_n")
        return np.abs(v) ** 2

    return math.sqrt(abs(measure.integrate(f)))


def _bound_side(ctx: TheoremContext, z0: complex, n: int, side: str, kind: str, *,
                seq: VerblunskySequence, model: SupportModel, delta: float,
                kernel_bound: tuple[float, bool], norm: float, norm_note: str) -> list[BoundCheck]:
    """One side's kernel-normalized and distance lower bounds.

    The polynomials of `kind` at degrees n and n + 1 are normalized by
    the kernel K_{n-1}(z0, z0) of seq, which is at least |phi_0|^2 = 1.
    kernel_bound is the (right-hand side, applicable) pair of the kernel
    row.  The distance row runs over the degree-n zeros distinct from
    the base point, whose distances to `model` enter with `norm`; both
    need z0 off the model (delta > 0).
    """
    v_n, v_n1 = (abs(para_eval(ParaPolynomial(kind, m, ctx.lam, ctx.seq), z0, "level_n"))
                 for m in (n, n + 1))
    sqrt_k = math.sqrt(float(np.real(cd_kernel(seq, n, z0, z0, "sum"))))
    i_is_n = v_n1 <= v_n
    rhs, applicable = kernel_bound
    checks = [
        BoundCheck(
            f"{side}_kernel_lower",
            (v_n if i_is_n else v_n1) / sqrt_k,
            rhs,
            applicable=applicable,
            notes=f"i = {'n' if i_is_n else 'n+1'}",
        )
    ]
    worst = math.inf
    for theta in ctx.zero_set(kind, n).without_base_point().absolute_angles():
        tau = np.exp(1j * theta)
        bound = v_n * dist_to_support(model, tau) / (sqrt_k * norm) if norm > 0 else 0.0
        worst = min(worst, abs(z0 - tau) - bound)
    if math.isfinite(worst):
        checks.append(BoundCheck(f"{side}_distance_lower", worst, 0.0,
                                 applicable=bool(delta > 0.0), notes=norm_note))
    return checks


def audit_lemma_bounds(ctx: TheoremContext, z0: complex, n: int) -> TheoremReport:
    """Two-sided evaluation of the quantitative lower and upper bounds.

    Kernel-normalized lower bounds need only coefficients; the
    distance bounds need the polynomial L2 norm, which comes from
    measure quadrature when a measure is available and otherwise from
    the 2|phi_n(lambda)| upper bound (yielding a weaker but still valid
    inequality; the source is recorded).  The second-kind side is the
    first-kind side of nu, the measure of the flipped coefficients.
    The report's `checks` hold one BoundCheck per inequality; it passes
    when every applicable one holds.
    """
    z0 = unit_circle_point(z0)
    theta0 = float(np.angle(z0)) % TWO_PI
    if ctx.support is None:
        raise PreconditionError("bound audit needs a support model")
    delta = dist_to_support(ctx.support, z0)
    d_lam = abs(z0 - ctx.lam)
    if delta <= 0.0 and not ctx.support.contains_angle(theta0):
        raise PreconditionError("z0 distance to support is zero")

    phi_n_lam = abs(eval_pair(ctx.seq, n, ctx.lam).phi)
    norm_bound = 2.0 * phi_n_lam
    notes: dict = {}
    if ctx.measure is not None:
        h_norm = _l2_norm(ctx.measure, ParaPolynomial("first", n, ctx.lam, ctx.seq))
        notes["h_norm_source"] = "quadrature"
    else:
        h_norm = norm_bound
        notes["h_norm_source"] = "norm_bound"
    # the h-side kernel bound is stated under |z0 - lam| >= delta
    checks = _bound_side(
        ctx, z0, n, "h", "first", seq=ctx.seq, model=ctx.support, delta=delta,
        kernel_bound=(0.25 * phi_n_lam * delta**2, bool(delta > 0.0 and d_lam >= delta)),
        norm=h_norm, norm_note=f"min margin over {n - 1} zeros, norm={notes['h_norm_source']}",
    )
    if ctx.measure is not None:
        checks.append(BoundCheck("h_norm_upper", norm_bound, h_norm))

    delta_nu = None
    try:
        nu_model = ctx.nu_model()
    except (SupportModelError, ResolutionError):
        # no flipped-side support available (e.g. its zeros collapse onto
        # an atom beyond float resolution): report the one-sided audit
        notes["nu_support"] = "unavailable"
    else:
        notes["nu_support"] = nu_model.provenance
        delta_nu = dist_to_support(nu_model, z0)
        checks += _bound_side(
            ctx, z0, n, "s", "second", seq=ctx.seq.flipped(), model=nu_model, delta=delta_nu,
            kernel_bound=(0.25 * phi_n_lam * d_lam * delta_nu, bool(delta_nu > 0.0)),
            # nu is not available as quadrature, so its norm is always the bound
            norm=norm_bound, norm_note="norm=norm_bound",
        )
    verdict = "pass" if all(c.ok for c in checks) else "fail"
    return TheoremReport("bounds", n, verdict, z0_theta=theta0, delta=delta, delta_nu=delta_nu,
                         checks=checks, notes=notes)


# ---------------------------------------------------------------------------
# support estimation


def estimate_support(seq: VerblunskySequence, lam: complex, n_estimate: int) -> SupportModel:
    """Advisory support estimate from coincident zeros of two consecutive
    degrees.

    Zeros of degree n_estimate that have a degree-(n_estimate + 1) zero
    within 2pi/n_estimate mark support; marked angles
    closer than GAP_FACTOR * 2pi/n_estimate merge into arcs, loners
    become isolated points.  Output is labelled "estimated".

    Both degrees' zeros come from one phase count (zeros._phase_brackets),
    which certifies one zero in each cell, and a zero is refined only where
    the estimate needs its angle.  Marking and merging are decided on
    whole cells: a zero is marked when a zero of the other degree lies
    within 2pi/n_estimate of it wherever in their cells both lie, and two
    marked zeros merge when the farthest points of their cells do.  The
    zeros these cells leave undecided are refined, and so are the reported
    arc ends and isolated points, each held to find_zeros' residual check.
    Those are a handful of zeros (2 to 4 of 799 on the paper's fixtures
    at n_estimate = 400), so each batch is polished with PHASE_SPLIT + 1
    points per bracket per pass (zeros._refined_zeros): five passes where
    one point takes nine or ten, each costing about a one-point pass.
    An unresolvable degree raises its ResolutionError, the lower first.
    """
    if n_estimate < 50:
        raise ValueError(f"support estimation needs degree >= 50, got {n_estimate}")
    lam = unit_circle_point(lam)
    n, m = n_estimate, n_estimate + 1
    polys = {k: ParaPolynomial("first", k, lam, seq) for k in (n, m)}
    cells = _phase_brackets(polys)
    for c in cells.values():
        if isinstance(c, ResolutionError):
            raise c
    # each zero's enclosure in angles from lambda: its cell, then its refined angle (lo == hi)
    lo, hi = ({k: c[i].copy() for k, c in cells.items()} for i in (0, 1))
    reach, threshold = TWO_PI / n, GAP_FACTOR * TWO_PI / n
    while True:
        ring_lo, ring_hi = (np.concatenate([v[m] - TWO_PI, v[m], v[m] + TWO_PI]) for v in (lo, hi))
        # a zero of degree m lies within reach of each zero of degree n for sure, or may
        near = np.searchsorted(ring_hi, lo[n] - reach), np.searchsorted(ring_lo, hi[n] + reach, side="right")
        sure = np.searchsorted(ring_hi, lo[n] + reach, side="right") > np.searchsorted(ring_lo, hi[n] - reach)
        open_mark = (near[1] > near[0]) & ~sure
        # refine an open zero and the zeros of degree m that may lie within its reach
        cover = np.zeros(ring_lo.size + 1, dtype=int)
        np.add.at(cover, near[0][open_mark], 1)
        np.add.at(cover, near[1][open_mark], -1)
        want = {n: open_mark, m: np.cumsum(cover)[:-1].reshape(3, -1).any(axis=0)}
        marked = np.nonzero(sure)[0]
        if not open_mark.any() and marked.size:
            # the gap after each marked zero is at most wide; where that
            # exceeds threshold it may end a cluster, so both sides of it
            # are refined, which makes it exact
            wide = np.append(hi[n][marked[1:]], hi[n][marked[0]] + TWO_PI) - lo[n][marked]
            split = wide > threshold
            want[n][marked[split]] = want[n][np.roll(marked, -1)[split]] = True
        picks = {k: np.nonzero(w & (lo[k] < hi[k]))[0] for k, w in want.items()}
        if not any(p.size for p in picks.values()):
            break
        for k, r in _refined_zeros(polys, cells, picks).items():
            lo[k][picks[k]] = hi[k][picks[k]] = r
    if not marked.size:
        raise SupportModelError("no coincident zeros: estimate has nothing to report")
    if not split.any():
        return support_model([(0.0, TWO_PI)], provenance="estimated")
    # the marked zeros from after the widest gap; each cluster's ends are refined
    start = int(np.argmax(wide)) + 1
    angles = (np.roll(lo[n][marked], -start) + float(np.angle(lam) % TWO_PI)) % TWO_PI
    clusters = np.split(angles, np.nonzero(np.roll(split, -start)[:-1])[0] + 1)
    arcs = [(c[0], c[-1]) for c in clusters if c.size > 1]
    points = [c[0] for c in clusters if c.size == 1]
    return support_model(arcs, points, provenance="estimated")
