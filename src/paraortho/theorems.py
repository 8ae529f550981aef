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
the claimed disjunction, boundary-grazing zeros are warned about and not
counted, and vacuous configurations (zero radius) are flagged degenerate
rather than silently passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import MeasureSpec, VerblunskySequence, unit_circle_point
from .errors import (
    AmbiguousMinimaError,
    DomainError,
    PreconditionError,
    ResolutionError,
    SupportModelError,
)
from .para import ParaPolynomial, para_eval
from .szego import cd_kernel, eval_pair
from .zeros import ZeroFindConfig, ZeroSet, find_zeros, find_zeros_sweep, interlace

TWO_PI = 2.0 * math.pi

# zeros within this of a ball boundary are reported, not counted
BOUNDARY_TOL = 1e-12


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
        spans = []
        for start, end in self.arcs:
            span = (end - start) % TWO_PI
            if span == 0.0:
                span = TWO_PI if end != start else 0.0
            if span <= 0.0:
                raise SupportModelError(f"arc ({start}, {end}) has no extent")
            spans.append((start % TWO_PI, span))
        for i, (s1, w1) in enumerate(spans):
            for s2, w2 in spans[i + 1 :]:
                d = (s2 - s1) % TWO_PI
                if d < w1 or (TWO_PI - d) % TWO_PI < w2:
                    raise SupportModelError("support arcs overlap")
        for p in self.points:
            for s, w in spans:
                if (p - s) % TWO_PI <= w:
                    raise SupportModelError(f"isolated point {p} lies inside an arc")

    def contains_angle(self, theta: float, pad: float = 0.0) -> bool:
        theta = theta % TWO_PI
        for start, end in self.arcs:
            span = (end - start) % TWO_PI or TWO_PI
            if (theta - start) % TWO_PI <= span + pad:
                return True
        return any(abs((theta - p + math.pi) % TWO_PI - math.pi) <= pad for p in self.points)


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
    z0 = unit_circle_point(z0)
    theta = float(np.angle(z0)) % TWO_PI
    best = math.inf
    for start, end in model.arcs:
        span = (end - start) % TWO_PI or TWO_PI
        rel = (theta - start) % TWO_PI
        if rel <= span:
            return 0.0
        angular = min(rel - span, TWO_PI - rel)
        best = min(best, _chord(angular))
    for p in model.points:
        angular = abs((theta - p + math.pi) % TWO_PI - math.pi)
        best = min(best, _chord(angular))
    return best


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


def exclusion_radius(variant: str, params: dict) -> float:
    """Dispatch on {"rho", "rho_prime", "rho_tilde"} with named distances."""
    if variant == "rho":
        return rho_radius(params["delta"])
    if variant == "rho_prime":
        return rho_prime_radius(params["delta"], params["lam_dist"])
    if variant == "rho_tilde":
        return rho_tilde_radius(params["delta_nu"], params["z0_lam_dist"])
    raise ValueError(f"unknown radius variant {variant!r}")


# ---------------------------------------------------------------------------
# contexts and reports


@dataclass
class TheoremContext:
    seq: VerblunskySequence
    lam: complex
    support: SupportModel | None = None
    nu_support: SupportModel | None = None
    measure: MeasureSpec | None = None  # same measure the seq came from, if any
    zero_cfg: ZeroFindConfig = field(default_factory=ZeroFindConfig)
    nu_estimate_n: int = 400
    nu_estimate_eps: float | None = None

    def __post_init__(self):
        self.lam = unit_circle_point(self.lam)
        self._zero_cache: dict[tuple[str, int], ZeroSet] = {}

    def zero_set(self, kind: str, n: int) -> ZeroSet:
        key = (kind, n)
        if key not in self._zero_cache:
            self._zero_cache[key] = find_zeros(
                ParaPolynomial(kind, n, self.lam, self.seq), self.zero_cfg
            )
        return self._zero_cache[key]

    def nu_model(self) -> tuple[SupportModel, str]:
        """The nu support model and where it came from."""
        if self.nu_support is not None:
            return self.nu_support, self.nu_support.provenance
        eps = self.nu_estimate_eps
        model = estimate_support(
            self.seq.flipped(), self.lam, self.nu_estimate_n, eps
        )
        return model, "estimated"


@dataclass
class TheoremReport:
    theorem_id: str
    n: int
    verdict: str  # "pass" | "fail" | "inconclusive"
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

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def count_zeros_in_ball(
    zs: ZeroSet, z0: complex, radius: float, exclude_lambda: bool = False
) -> tuple[int, list[float], list[str]]:
    """Zeros strictly inside the chordal ball B(z0, radius).

    Returns (count, offending absolute angles, warnings); zeros within
    BOUNDARY_TOL of the boundary are warned about and not counted.  With
    exclude_lambda, the pinned base-point zero of a first-kind set is
    dropped before counting.
    """
    angles = zs.angles
    if exclude_lambda and zs.kind == "first":
        angles = angles[angles > 0.0]
    if angles.size == 0:
        return 0, [], []
    absolute = (angles + zs.lambda_theta) % TWO_PI
    d = np.abs(np.exp(1j * absolute) - z0)
    near = np.abs(d - radius) <= BOUNDARY_TOL
    inside = (d < radius) & ~near
    warnings = [
        f"zero at angle {float(a):.15g} grazes the ball boundary (|d - r| <= {BOUNDARY_TOL})"
        for a in absolute[near]
    ]
    return int(np.sum(inside)), [float(a) for a in absolute[inside]], warnings


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
    za = ctx.zero_set("first", n)
    zb = ctx.zero_set("first", n + 1)
    counts: dict = {}
    witnesses: list = []
    warnings: list = []
    verdict = "pass"
    for name, r in radii.items():
        ca, wa, warn_a = count_zeros_in_ball(za, z0, r, exclude_lambda=True)
        cb, wb, warn_b = count_zeros_in_ball(zb, z0, r, exclude_lambda=True)
        counts[f"h_n@{name}"] = ca
        counts[f"h_n1@{name}"] = cb
        warnings.extend(warn_a + warn_b)
        if min(ca, cb) != 0:
            verdict = "fail"
            witnesses.extend(wa + wb)
    return TheoremReport(
        "theorem1",
        n,
        verdict,
        z0_theta=float(np.angle(z0)) % TWO_PI,
        delta=delta,
        radii=radii,
        counts=counts,
        witnesses=witnesses,
        warnings=warnings,
        notes={"lam_dist": repr(lam_dist), "support": ctx.support.provenance},
    )


def check_gap_theorem(ctx: TheoremContext, gap: tuple[float, float], n: int) -> TheoremReport:
    """h_n has at most one zero in the closed gap arc."""
    if ctx.support is None:
        raise PreconditionError("gap theorem needs a support model")
    start, end = float(gap[0]), float(gap[1])
    span = (end - start) % TWO_PI
    degenerate = span == 0.0 and math.isclose(start % TWO_PI, end % TWO_PI)
    if not degenerate:
        # the open gap must avoid the support; shared endpoints are fine
        for a0, a1 in ctx.support.arcs:
            arc_span = (a1 - a0) % TWO_PI or TWO_PI
            t0 = (a0 - start) % TWO_PI
            pieces = [(t0, min(t0 + arc_span, TWO_PI))]
            if t0 + arc_span > TWO_PI:
                pieces.append((0.0, t0 + arc_span - TWO_PI))
            for u, v in pieces:
                if u < span and v > 0.0 and not (
                    math.isclose(u, span, abs_tol=1e-12) or math.isclose(v, 0.0, abs_tol=1e-12)
                ):
                    raise PreconditionError(
                        f"gap ({start}, {end}) overlaps a modeled support arc"
                    )
        for p in ctx.support.points:
            rel = (p - start) % TWO_PI
            if 1e-12 < rel < span - 1e-12:
                raise PreconditionError(
                    f"gap ({start}, {end}) contains the modeled support point {p}"
                )
    zs = ctx.zero_set("first", n)
    absolute = zs.absolute_angles()
    rel = (absolute - start) % TWO_PI
    inside = (rel <= span + BOUNDARY_TOL) if span else (rel <= BOUNDARY_TOL)
    count = int(np.sum(inside))
    verdict = "pass" if count <= 1 else "fail"
    return TheoremReport(
        "gap",
        n,
        verdict,
        degenerate=degenerate,
        gap=(start % TWO_PI, end % TWO_PI),
        counts={"h_n": count},
        witnesses=[float(a) for a in absolute[inside]] if verdict == "fail" else [],
    )


def check_interlacing_first_second(ctx: TheoremContext, n: int) -> TheoremReport:
    """Same-degree strict interlacing of the two kinds."""
    if n < 1:
        raise PreconditionError("interlacing needs degree >= 1")
    za = ctx.zero_set("first", n)
    zb = ctx.zero_set("second", n)
    res = interlace(za, zb)
    return TheoremReport(
        "theorem2",
        n,
        res.verdict,
        witnesses=[res.witness] if res.witness else [],
    )


def check_consecutive_interlacing(ctx: TheoremContext, n: int) -> TheoremReport:
    """First-kind degrees n and n+1 interlace once the shared base-point
    zero is removed from both."""
    res = interlace(
        ctx.zero_set("first", n).without_base_point(),
        ctx.zero_set("first", n + 1).without_base_point(),
    )
    return TheoremReport(
        "consecutive",
        n,
        res.verdict,
        witnesses=[res.witness] if res.witness else [],
    )


def _isolated_point_radius(ctx: TheoremContext, z0: complex):
    if ctx.support is None:
        raise PreconditionError("isolated-point checks need a support model")
    z0 = unit_circle_point(z0)
    theta0 = float(np.angle(z0)) % TWO_PI
    if not any(abs((theta0 - p + math.pi) % TWO_PI - math.pi) <= 1e-9 for p in ctx.support.points):
        raise PreconditionError(
            f"z0 (angle {theta0}) is not a declared isolated point of the support model"
        )
    nu_model, nu_prov = ctx.nu_model()
    delta_nu = dist_to_support(nu_model, z0)
    if delta_nu <= 0.0:
        raise PreconditionError("z0 lies in the modeled flipped-side support (delta_nu = 0)")
    d_lam = abs(z0 - ctx.lam)
    degenerate = d_lam <= 1e-12
    radius = 0.0 if degenerate else rho_tilde_radius(delta_nu, d_lam)
    return z0, theta0, delta_nu, d_lam, radius, degenerate, nu_prov


def check_second_kind_exclusion(ctx: TheoremContext, z0: complex, n: int) -> TheoremReport:
    """Around an isolated support point: s_n or s_{n+1} has no zero in
    B(z0, rho_tilde)."""
    z0, theta0, delta_nu, d_lam, radius, degenerate, nu_prov = _isolated_point_radius(ctx, z0)
    if degenerate:
        return TheoremReport(
            "main_lemma", n, "pass", degenerate=True, z0_theta=theta0,
            delta_nu=delta_nu, radii={"rho_tilde": 0.0},
            warnings=["z0 coincides with the base point: zero radius, vacuous"],
            notes={"nu_support": nu_prov},
        )
    za = ctx.zero_set("second", n)
    zb = ctx.zero_set("second", n + 1)
    ca, wa, warn_a = count_zeros_in_ball(za, z0, radius)
    cb, wb, warn_b = count_zeros_in_ball(zb, z0, radius)
    verdict = "pass" if min(ca, cb) == 0 else "fail"
    return TheoremReport(
        "main_lemma",
        n,
        verdict,
        z0_theta=theta0,
        delta_nu=delta_nu,
        radii={"rho_tilde": radius},
        counts={"s_n": ca, "s_n1": cb},
        witnesses=(wa + wb) if verdict == "fail" else [],
        warnings=warn_a + warn_b,
        notes={"nu_support": nu_prov, "z0_lam_dist": repr(d_lam)},
    )


def check_theorem3(ctx: TheoremContext, z0: complex, n: int) -> TheoremReport:
    """Around an isolated support point: h_n or h_{n+1} has at most one
    zero in B(z0, rho_tilde)."""
    z0, theta0, delta_nu, d_lam, radius, degenerate, nu_prov = _isolated_point_radius(ctx, z0)
    if degenerate:
        return TheoremReport(
            "theorem3", n, "pass", degenerate=True, z0_theta=theta0,
            delta_nu=delta_nu, radii={"rho_tilde": 0.0},
            warnings=["z0 coincides with the base point: zero radius, vacuous"],
            notes={"nu_support": nu_prov},
        )
    za = ctx.zero_set("first", n)
    zb = ctx.zero_set("first", n + 1)
    ca, wa, warn_a = count_zeros_in_ball(za, z0, radius)
    cb, wb, warn_b = count_zeros_in_ball(zb, z0, radius)
    verdict = "pass" if min(ca, cb) <= 1 else "fail"
    return TheoremReport(
        "theorem3",
        n,
        verdict,
        z0_theta=theta0,
        delta_nu=delta_nu,
        radii={"rho_tilde": radius},
        counts={"h_n": ca, "h_n1": cb},
        witnesses=(wa + wb) if verdict == "fail" else [],
        warnings=warn_a + warn_b,
        notes={"nu_support": nu_prov, "z0_lam_dist": repr(d_lam)},
    )


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


@dataclass
class BoundAuditReport:
    n: int
    z0_theta: float
    checks: list[BoundCheck]
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _l2_norm(measure: MeasureSpec, p: ParaPolynomial) -> float:
    def f(thetas):
        v = para_eval(p, np.exp(1j * np.asarray(thetas)), "level_n")
        return np.abs(v) ** 2

    return math.sqrt(abs(measure.integrate(f)))


def audit_lemma_bounds(ctx: TheoremContext, z0: complex, n: int) -> BoundAuditReport:
    """Two-sided evaluation of the quantitative lower and upper bounds.

    Kernel-normalized lower bounds need only coefficients; the
    distance bounds need the polynomial L2 norm, which comes from
    measure quadrature when a measure is available and otherwise from
    the 2|phi_n(lambda)| upper bound (yielding a weaker but still valid
    inequality; the source is recorded).
    """
    z0 = unit_circle_point(z0)
    theta0 = float(np.angle(z0)) % TWO_PI
    if ctx.support is None:
        raise PreconditionError("bound audit needs a support model")
    delta = dist_to_support(ctx.support, z0)
    d_lam = abs(z0 - ctx.lam)
    if delta <= 0.0 and not ctx.support.contains_angle(theta0, pad=0.0):
        raise PreconditionError("z0 distance to support is zero")

    phi_n_lam = abs(eval_pair(ctx.seq, n, ctx.lam).phi)
    checks: list[BoundCheck] = []
    notes: dict = {}

    h_n = ParaPolynomial("first", n, ctx.lam, ctx.seq)
    h_n1 = ParaPolynomial("first", n + 1, ctx.lam, ctx.seq)
    hv_n = abs(para_eval(h_n, z0, "level_n"))
    hv_n1 = abs(para_eval(h_n1, z0, "level_n"))
    k_diag = float(np.real(cd_kernel(ctx.seq, n, z0, z0, "sum").value))
    sqrt_k = math.sqrt(max(k_diag, 0.0))

    # kernel-normalized lower bound, h side; stated under |z0 - lam| >= delta
    i_is_n = hv_n1 <= hv_n
    lhs = (hv_n if i_is_n else hv_n1) / sqrt_k
    checks.append(
        BoundCheck(
            "h_kernel_lower",
            lhs,
            0.25 * phi_n_lam * delta**2,
            applicable=bool(delta > 0.0 and d_lam >= delta),
            notes=f"i = {'n' if i_is_n else 'n+1'}",
        )
    )

    # distance lower bound, h side, over every zero distinct from the base point
    if ctx.measure is not None:
        h_norm = _l2_norm(ctx.measure, h_n)
        notes["h_norm_source"] = "quadrature"
    else:
        h_norm = 2.0 * phi_n_lam
        notes["h_norm_source"] = "norm_bound"
    zh = ctx.zero_set("first", n)
    worst = math.inf
    for theta in zh.interior_angles():
        tau = np.exp(1j * ((theta + zh.lambda_theta) % TWO_PI))
        t_dist = dist_to_support(ctx.support, tau)
        rhs = hv_n * t_dist / (sqrt_k * h_norm) if sqrt_k > 0 and h_norm > 0 else 0.0
        worst = min(worst, abs(z0 - tau) - rhs)
    if math.isfinite(worst):
        checks.append(
            BoundCheck(
                "h_distance_lower", worst, 0.0,
                applicable=delta > 0.0,
                notes=f"min margin over {zh.n - 1} zeros, norm={notes['h_norm_source']}",
            )
        )

    # upper bound on the h norm (measure mode only)
    if ctx.measure is not None:
        checks.append(BoundCheck("h_norm_upper", 2.0 * phi_n_lam, h_norm))

    # flipped-side analogues
    nu_model = None
    try:
        nu_model, nu_prov = ctx.nu_model()
        notes["nu_support"] = nu_prov
    except (PreconditionError, ValueError, SupportModelError, ResolutionError, AmbiguousMinimaError):
        # no flipped-side support available (e.g. its zeros collapse onto
        # an atom beyond float resolution): report the one-sided audit
        notes["nu_support"] = "unavailable"
    if nu_model is not None:
        delta_nu = dist_to_support(nu_model, z0)
        s_n = ParaPolynomial("second", n, ctx.lam, ctx.seq)
        s_n1 = ParaPolynomial("second", n + 1, ctx.lam, ctx.seq)
        sv_n = abs(para_eval(s_n, z0, "level_n"))
        sv_n1 = abs(para_eval(s_n1, z0, "level_n"))
        kt_diag = float(np.real(cd_kernel(ctx.seq.flipped(), n, z0, z0, "sum").value))
        sqrt_kt = math.sqrt(max(kt_diag, 0.0))
        i_is_n = sv_n1 <= sv_n
        lhs = (sv_n if i_is_n else sv_n1) / sqrt_kt if sqrt_kt > 0 else 0.0
        checks.append(
            BoundCheck(
                "s_kernel_lower",
                lhs,
                0.25 * phi_n_lam * d_lam * delta_nu,
                applicable=bool(delta_nu > 0.0),
                notes=f"i = {'n' if i_is_n else 'n+1'}",
            )
        )
        s_norm = 2.0 * phi_n_lam  # flipped-side measure is not available as quadrature
        zs = ctx.zero_set("second", n)
        worst = math.inf
        for theta in zs.angles:
            tau = np.exp(1j * ((theta + zs.lambda_theta) % TWO_PI))
            t_dist = dist_to_support(nu_model, tau)
            rhs = sv_n * t_dist / (sqrt_kt * s_norm) if sqrt_kt > 0 and s_norm > 0 else 0.0
            worst = min(worst, abs(z0 - tau) - rhs)
        checks.append(
            BoundCheck(
                "s_distance_lower", worst, 0.0,
                applicable=bool(delta_nu > 0.0),
                notes="norm=norm_bound",
            )
        )
    return BoundAuditReport(n, theta0, checks, notes)


# ---------------------------------------------------------------------------
# support estimation


def estimate_support(
    seq: VerblunskySequence,
    lam: complex,
    n_estimate: int,
    eps: float | None = None,
    gap_factor: float = 4.0,
    zero_cfg: ZeroFindConfig | None = None,
) -> SupportModel:
    """Advisory support estimate from coincident zeros of two consecutive
    degrees.

    Zeros of degree n_estimate that have a degree-(n_estimate + 1) zero
    within eps (default 2pi/n_estimate) mark support; marked angles
    closer than gap_factor * 2pi/n_estimate merge into arcs, loners
    become isolated points.  Output is labelled "estimated".
    """
    if n_estimate < 50:
        raise ValueError(f"support estimation needs degree >= 50, got {n_estimate}")
    lam = unit_circle_point(lam)
    eps = TWO_PI / n_estimate if eps is None else float(eps)
    za, zb = find_zeros_sweep("first", lam, seq, [n_estimate, n_estimate + 1], zero_cfg).values()
    a = np.sort((za.interior_angles() + za.lambda_theta) % TWO_PI)
    b = np.sort((zb.interior_angles() + zb.lambda_theta) % TWO_PI)
    marked = []
    for u in a:
        if np.min(np.abs((u - b + math.pi) % TWO_PI - math.pi)) <= eps:
            marked.append(float(u))
    if not marked:
        raise SupportModelError("no coincident zeros: estimate has nothing to report")
    marked = np.array(sorted(marked))
    gaps = np.diff(np.concatenate([marked, [marked[0] + TWO_PI]]))
    threshold = gap_factor * TWO_PI / n_estimate
    if np.all(gaps <= threshold):
        return support_model([(0.0, TWO_PI)], provenance="estimated")
    # rotate so a genuine gap sits at the end, then split into clusters
    cut = int(np.argmax(gaps))
    order = np.roll(marked, -(cut + 1))
    order = np.where(order < order[0], order + TWO_PI, order)
    arcs, points = [], []
    cluster = [order[0]]
    for v in order[1:]:
        if v - cluster[-1] <= threshold:
            cluster.append(v)
        else:
            if len(cluster) == 1:
                points.append(cluster[0] % TWO_PI)
            else:
                arcs.append((cluster[0] % TWO_PI, cluster[-1] % TWO_PI))
            cluster = [v]
    if len(cluster) == 1:
        points.append(cluster[0] % TWO_PI)
    else:
        arcs.append((cluster[0] % TWO_PI, cluster[-1] % TWO_PI))
    return support_model(arcs, points, provenance="estimated")
