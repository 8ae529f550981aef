"""Locate the circle zeros of paraorthogonal polynomials and check interlacing.

Zero location works on the rotated real-valued trace (see para.real_form_grid):
its zeros on [0, 2pi) are exactly the polynomial's zeros relative to the
base point, they are simple, and the sign alternates between consecutive
zeros, so sign-change bracketing plus refinement is a complete detector.
The brackets come from a phase count: the lifted argument of the
Blaschke product z phi_{n-1} / phi*_{n-1} rises strictly by n turns per
turn of z, and the zeros are exactly where it passes a fixed value
modulo one turn, so one O(n) pass at a point counts the zeros before it,
as a Sturm sequence does on the line, and a few points per zero split
the circle into cells of one zero each.  Degree n's first points are the
2^ceil(log2(PHASE_GRID n)) equally spaced angles from the base point;
these grids nest, so one pass over the top degree's grid samples every
degree of a sweep, each reading its prefix off its own level, and a
degree gets the same cells alone or swept.  Every later pass evaluates
the samples of all degrees at once, laid out deepest first, through the
top degree's recursion.
Each cell is then narrowed by a safeguarded regula falsi on the trace,
whose signs alone decide which part holds the zero.  The base point
itself is handled out of band: for the first kind it is a known zero
pinned at theta = 0; for the second kind the trace equals +2 at theta =
0 and 2(-1)^n as theta -> 2pi, and those exact values are used as
endpoint signs (the evaluated trace loses all precision there once magnitudes
are large, while the true values are fixed).

Interlacing compares two zero sets.  Zeros of the two sets closer than
COLLISION_TOL cannot be ordered from their float64 angles; interlace
orders them at raised precision from the sets' source polynomials (see
the precision module).

An independent verification path locates local minima of the polynomial
modulus (kernel-sum definition) on a dense grid and refines them by
golden-section search; it shares nothing with the sign-change route
except the polynomial itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import precision
from .errors import AmbiguousMinimaError, ResolutionError
from .para import (ParaPolynomial, _nested_levels, _phase_at_levels, _trace_at_levels, para_eval,
                   real_form_grid)

TWO_PI = 2.0 * math.pi

# collision threshold between distinct zero sets, below which float64
# angles cannot order two zeros and interlace raises the precision
COLLISION_TOL = 1e-10
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the least phase samples per zero of the first phase pass (degree n
# takes the next power of two at or above PHASE_GRID n), and the points
# each further pass puts into a cell that holds more than one zero
PHASE_GRID = 4
PHASE_SPLIT = 7
# a phase within this many turns of a whole turn marks a sample on a
# zero, where the trace sign decides the count.  Against the same b_k
# recursion in 60 digits at the same points, para._phase_levels was off
# by at most 4.4e-12 turns on const -0.5 at lambda = pi (n = 401, 0.0085
# inside the support arc's end), 9.1e-13 on the arc + atom fixture and
# 6e-14 on random 0.7 seeds 1, 5 and 9, both kinds: 200 times below
# this.  On const 0.99 at lambda = 1, n = 400, at 2048 points across its
# short support arc, it was off by 3.5e-10 within 0.01 turn of a whole
# turn (first kind), and by 2.5e-9 (both kinds) where it climbs half a turn between samples
ON_ZERO = 1e-9
# residual allowance of a refined zero, relative to the largest trace
# sampled
RESIDUAL_FLOOR = 1e-6
# width to which each zero's bracket is narrowed
THETA_TOL = 1e-12


@dataclass
class ZeroSet:
    """All n zeros of one polynomial, as angles relative to the base point."""

    kind: str
    n: int
    lambda_theta: float
    angles: np.ndarray
    residuals: np.ndarray
    scale: float
    simplicity: bool
    # the polynomial the zeros belong to; interlace needs it to decide
    # colliding zeros at raised precision (never serialized)
    source: ParaPolynomial | None = field(default=None, repr=False, compare=False)

    def interior_angles(self) -> np.ndarray:
        """Angles with the pinned base-point zero (first kind) removed."""
        return self.without_base_point().angles

    def without_base_point(self) -> "ZeroSet":
        """The set with the pinned base-point zero (first kind) removed."""
        keep = self.angles > 0.0 if self.kind == "first" else slice(None)
        return replace(self, angles=self.angles[keep], residuals=self.residuals[keep])

    def absolute_angles(self) -> np.ndarray:
        return (self.angles + self.lambda_theta) % TWO_PI

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "lambda_theta": self.lambda_theta,
            "angles": [float(a) for a in self.angles],
            "residuals": [float(r) for r in self.residuals],
            "scale": self.scale,
            "simplicity": self.simplicity,
        }

    def to_csv_rows(self) -> list[list]:
        rows = []
        for i, (a, t, r) in enumerate(zip(self.angles, self.absolute_angles(), self.residuals)):
            rows.append([i, float(a), float(t), float(r)])
        return rows


CSV_COLUMNS = ["index", "theta", "theta_abs", "residual"]


def _polish(fun, lo, hi, side, flo, fhi, tol, points=1):
    """Vectorized safeguarded regula falsi on sign changes; returns bracket midpoints.

    side is the sign of the trace just above lo, flo and fhi are its
    values at the bracket ends, and fun(thetas, sel) evaluates it at
    thetas, sel[i] the bracket of thetas[i]: `points` points in each open
    bracket, next to each other in the brackets' order.  As in bisection,
    the signs at the new points against side alone decide which part
    keeps the zero.
    The values only place the point: where the chord through (lo, |flo|)
    and (hi, -|fhi|) crosses zero, but at least tol/2 inside the bracket,
    so that a point on the zero closes the bracket one pass later.  An
    end kept by a pass that also kept it at the last chord step has its
    value scaled by 1 - |f(x)| / |f(moved end)|, or halved where that
    factor is not in (0, 1) (Anderson and Bjorck, BIT 13, 1973), so both
    ends close in on a simple zero.  Where the chord point is clipped to
    tol/2 inside the same end on two passes running, the zero lies close
    to that end while the other end's value dwarfs it; the point then
    steps sqrt(tol/2 w) in from that end instead, the geometric mean of
    the clipped step and the width w.  The point is the midpoint
    instead where an end value is zero or not finite (t below is then 0,
    1 or nan), or where the bracket is not half as wide as two passes
    before.  Every three passes therefore at least halve a bracket: one
    of width w is at most tol wide after at most 3 ceil(log2(w / tol))
    passes, three times bisection's count.

    With points > 1, each pass also evaluates the bracket's midpoint and
    steps from the chord point towards both ends (see _around), and the
    bracket shrinks to the two neighbouring samples whose signs differ;
    where those are both new, both ends move and neither is scaled.  The
    new bracket lies inside the one a single point keeps, so the bound
    holds, while a chord point near the zero closes most brackets in a
    few passes of many points each.  The count is the caller's, never
    the batch's, so a bracket does not depend on those polished with it;
    points = 1 is the plain method.
    """
    lo, hi, side = (np.array(v, dtype=float) for v in (lo, hi, side))
    flo, fhi = np.abs(flo), np.abs(fhi)
    if lo.size == 0:
        return lo
    last = np.zeros(lo.size)  # -1 where the last pass moved hi, +1 where it moved lo
    clipped = np.zeros(lo.size)  # -1 where the last chord point was clipped at lo, +1 at hi
    w1, w2 = np.full(lo.size, np.inf), np.full(lo.size, np.inf)  # widths one and two passes before
    for _ in range(3 * max(0, math.ceil(math.log2(np.max(hi - lo) / tol)))):
        sel = np.nonzero(hi - lo > tol)[0]
        if sel.size == 0:
            break
        l, h, a, b = lo[sel], hi[sel], flo[sel], fhi[sel]
        w = h - l
        with np.errstate(all="ignore"):
            t = a / (a + b)
            regular = (t > 0.0) & (t < 1.0) & (w <= 0.5 * w2[sel])
            x = l + w * t
            clip = np.where(x < l + 0.5 * tol, -1.0, np.where(x > h - 0.5 * tol, 1.0, 0.0))
            step = np.sqrt(0.5 * tol * w)
            x = np.where((clip != 0.0) & (clip == clipped[sel]), np.where(clip < 0.0, l + step, h - step), x)
            x = np.where(regular, np.clip(x, l + 0.5 * tol, h - 0.5 * tol), 0.5 * (l + h))
        xs = x[:, None] if points == 1 else _around(x, l, h, points)
        fx = fun(xs.ravel(), np.repeat(sel, points)).reshape(xs.shape)
        # j: the first sample at or past the zero, whose sign is not
        # side's, or points where none is (the zero lies past the last);
        # the new ends are the samples at columns j - 1 and j, clipped to
        # the row, which for one point are column 0, a plain index
        past = side[sel, None] * np.sign(fx) <= 0.0
        if points == 1:
            left = past[:, 0]
            right = ~left
            below = above = (slice(None), 0)
        else:
            j = np.where(past.any(axis=1), np.argmax(past, axis=1), points)
            left, right = j == 0, j == points  # only hi moves, only lo moves
            rows = np.arange(sel.size)
            below, above = (rows, np.maximum(j - 1, 0)), (rows, np.minimum(j, points - 1))
        f_below, f_above = np.abs(fx[below]), np.abs(fx[above])
        moved = np.where(left, -1.0, np.where(right, 1.0, 0.0))
        with np.errstate(all="ignore"):
            factor = 1.0 - np.where(left, f_above / b, f_below / a)
        kept = np.where(moved != last[sel], 1.0, np.where((factor > 0.0) & (factor < 1.0), factor, 0.5))
        lo[sel], flo[sel] = np.where(left, l, xs[below]), np.where(left, kept * a, f_below)
        hi[sel], fhi[sel] = np.where(right, h, xs[above]), np.where(right, kept * b, f_above)
        side[sel] = np.where(left, side[sel], np.sign(fx[below]))
        last[sel] = np.where(regular, moved, last[sel])
        clipped[sel] = np.where(regular & (clip != clipped[sel]), clip, 0.0)
        w2[sel], w1[sel] = w1[sel], w
    return 0.5 * (lo + hi)


def _around(x, lo, hi, points):
    """points sorted samples in each bracket (lo, hi): the chord point x,
    the midpoint, then x - (x - lo) / 8^i and x + (hi - x) / 8^i for i =
    1, 2, ... in turn, which close in on a zero near x from either side."""
    steps = 8.0 ** -np.arange(1, (points + 1) // 2)
    near = np.stack([x[:, None] - (x - lo)[:, None] * steps, x[:, None] + (hi - x)[:, None] * steps], axis=2)
    xs = np.concatenate([x[:, None], 0.5 * (lo + hi)[:, None], near.reshape(x.size, -1)], axis=1)
    return np.sort(xs[:, :points], axis=1)


def _at_levels(level_fun, top: ParaPolynomial, parts: dict) -> dict:
    """level_fun(top, thetas, degrees) at per-degree point lists, in one
    multi-level pass laid out deepest first, returned split the same way."""
    if not parts:
        return {}
    degrees = sorted(parts, reverse=True)
    sizes = [parts[n].size for n in degrees]
    flat = level_fun(top, np.concatenate([parts[n] for n in degrees]), np.repeat(degrees, sizes))
    return dict(zip(degrees, np.split(flat, np.cumsum(sizes)[:-1])))


def _bit_reversed(size: int) -> np.ndarray:
    """0..size-1 (a power of two) in bit-reversed order: its leading m
    entries, for each power of two m, are the multiples of size / m."""
    order = np.zeros(1, dtype=int)
    while order.size < size:
        order = np.concatenate([2 * order, 2 * order + 1])
    return order


def _phase_origin(top: ParaPolynomial, n: int, u0: float) -> float:
    """The shift, in turns, that puts the zeros of top's family at degree
    n on whole turns of its lifted phase (para._phase_at_levels), given
    u0, that phase at lambda.

    The first kind vanishes where b_n takes its value at lambda, so the
    shift is -u0 and lambda, its pinned zero, sits at 0.  The second kind
    vanishes where b_n (built from psi) takes -lam phi_{n-1}(lam) /
    phi*_{n-1}(lam), read off top's rows at lambda; the shift puts lambda
    at [1/2, 3/2) turns.  Differences of integer parts of the shifted
    phase count the zeros between two points.
    """
    origin = -u0
    if top.kind == "second":
        lam_phi, lam_star = top._lambda_values
        origin += (u0 - np.angle(-top.lam * lam_phi[n - 1] / lam_star[n - 1]) / TWO_PI - 0.5) % 1.0 + 0.5
    return origin


def _phase_brackets(polys: dict[int, ParaPolynomial]) -> dict:
    """One bracket per zero from the phase count, for every degree of polys.

    polys maps increasing degrees to polynomials of one family; the
    highest one's recursion rows at lambda serve every degree, and the
    others are not written.  The first pass samples degree n
    at 2^ceil(log2(PHASE_GRID n)) equally spaced angles from 0, all of
    them points of the highest degree's grid.  That grid goes in
    bit-reversed order, which makes each degree's points a prefix of
    it.  One pass of the phase and one
    of the trace walk the whole grid to the highest degree, and each
    degree reads its prefix off the rows of its level (see
    para._nested_levels): the sweep costs one pass over the largest
    grid, and a degree's first samples, hence its brackets, do not
    depend on the degrees swept with it.  Each further pass evaluates
    the points of every degree, deepest first, through the highest
    one's recursion (see _at_levels).  In turns of the lifted
    phase (para._phase_at_levels) shifted by _phase_origin, the zeros lie
    at whole turns, and the count of zeros in (0, t) is the phase's
    integer part less h: 0 for the first kind, while for the second,
    which puts lambda at [1/2, 3/2) turns, h = 1 drops the first whole
    turn as lying before lambda.  h is the choice
    the trace signs at the first samples back more often, which puts a
    zero within rounding of lambda on its true side; on a whole turn (to
    ON_ZERO; the phase is flat across a gap in the support) the trace
    sign picks the count.  The first pass takes at least PHASE_GRID
    samples per zero; each further one cuts every cell of several zeros
    into PHASE_SPLIT + 1 parts while they are distinct doubles, and one left
    makes the degree a ResolutionError.  The trace at a cell's low end
    has the sign of the count: s0 (-1 first kind, +1 second) before the
    first zero, flipping at each.  Returns {n: (lo, hi, side, f_lo, f_hi,
    scale)}: side that sign, f_lo and f_hi the trace sampled at the cell
    ends (at the base point its exact value: 0 for the first kind, 2 and
    2(-1)^n at theta = 0 and 2pi for the second), and scale the largest
    |trace| sampled.
    """
    top = polys[max(polys)]
    frac = np.arange(1, PHASE_SPLIT + 1) / (PHASE_SPLIT + 1)
    sizes = {n: 1 << (PHASE_GRID * n - 1).bit_length() for n in polys}
    grid = _bit_reversed(sizes[top.n]) * (TWO_PI / sizes[top.n])
    first = _nested_levels(top, grid, sizes)
    grids = {n: grid[1:m] for n, m in sizes.items()}
    fresh_u = {n: u[1:] for n, (u, _) in first.items()}
    fresh_f = {n: f[1:] for n, (_, f) in first.items()}
    count, samples, scale = {}, {}, {}
    for n, (u, _) in first.items():
        origin, s0, h, total = _phase_origin(top, n, u[0]), -1.0, 0, n - 1
        if top.kind == "second":
            s0, total, w = 1.0, n, u[1:] + origin
            clear = np.abs(w - np.rint(w)) >= ON_ZERO
            h = int(np.sum((np.sign(fresh_f[n]) * (-1.0) ** np.floor(w))[clear]) < 0)
        count[n] = origin, s0, h, total
        ends = np.array([2.0, 2.0 * (-1.0) ** n]) if s0 > 0 else np.zeros(2)
        samples[n] = np.array([0.0, TWO_PI]), np.array([0.0, total]), ends
        scale[n] = 2.0 if s0 > 0 else 0.0
    while grids:
        for n, t in grids.items():
            (origin, s0, h, total), f = count[n], fresh_f[n]
            v = fresh_u[n] + origin
            near = np.rint(v)
            on = (np.abs(v - near) < ON_ZERO) & (f != 0.0)
            c = np.where(on, near - h - (np.sign(f) == s0 * (-1.0) ** (near - h - 1)), np.floor(v) - h)
            x, c, y = (np.append(old, new) for old, new in zip(samples[n], (t, np.clip(c, 0, total), f)))
            order = np.argsort(x, kind="stable")
            x, c, y = samples[n] = x[order], np.maximum.accumulate(c[order]), y[order]
            scale[n] = max(scale[n], float(np.max(np.abs(f))))
            split = np.nonzero((np.diff(c) > 1) & (np.diff(x) > (PHASE_SPLIT + 1) * np.spacing(x[1:])))[0]
            grids[n] = (x[split, None] + (x[split + 1] - x[split])[:, None] * frac).ravel()
        grids = {n: t for n, t in grids.items() if t.size}
        fresh_u, fresh_f = _at_levels(_phase_at_levels, top, grids), _at_levels(_trace_at_levels, top, grids)
    out = {}
    for n, (x, c, y) in samples.items():
        cell = np.nonzero(np.diff(c))[0]
        found = int(np.sum(np.diff(c) == 1)) + (polys[n].kind == "first")
        if found == n:
            side = count[n][1] * (-1.0) ** c[cell]
            out[n] = (x[cell], x[cell + 1], side, y[cell], y[cell + 1], scale[n])
        else:
            why = f"isolated {found} of {n} zeros, the rest closer than double angles resolve"
            out[n] = ResolutionError(n, found, f"{polys[n].kind}-kind degree {n}: {why} (lambda = {polys[n].lam})")
    return out


def find_zeros(p: ParaPolynomial) -> ZeroSet:
    """All n zeros of the polynomial, bracketed by sign changes of the trace.

    The brackets come from the phase count: one O(n) pass of the
    unimodular phase recursion (para._phase_at_levels) counts the zeros
    before a point exactly, so PHASE_GRID to twice as many points per
    zero, and a few more inside the cells that hold several, bracket
    every zero on its own (see _phase_brackets).  Brackets are then
    narrowed to THETA_TOL by a safeguarded regula falsi on the trace
    (see _polish).  A degree whose zeros cannot be isolated is a
    ResolutionError reporting the found count; a short list is never
    returned silently.  This is find_zeros_sweep on the one degree of p.
    """
    zs = _zero_sets({p.n: p})[p.n]
    if isinstance(zs, ResolutionError):
        raise zs
    return zs


def _all_roots(p: ParaPolynomial, roots: np.ndarray) -> np.ndarray:
    """The refined interior zeros plus the pinned one (first kind), sorted."""
    if p.kind == "first":
        roots = np.concatenate([[0.0], roots])
    return np.sort(roots)


def _midpoints(roots: np.ndarray) -> np.ndarray:
    return 0.5 * (roots[:-1] + roots[1:])


def _residual_error(n: int, residuals: np.ndarray, scale: float) -> ResolutionError | None:
    """The ResolutionError of degree n's refined zeros if a residual
    exceeds RESIDUAL_FLOOR * scale or is not a number (the trace
    overflowed there, so its signs placed nothing), else None."""
    bad = ~(residuals <= RESIDUAL_FLOOR * scale)
    if not np.any(bad):
        return None
    return ResolutionError(
        n, n - int(np.sum(bad)), f"{int(np.sum(bad))} refined zeros have residual above {RESIDUAL_FLOOR:.3g} * scale"
    )


def _assemble(p: ParaPolynomial, roots: np.ndarray, values: np.ndarray,
              scale: float) -> ZeroSet | ResolutionError:
    """Check and package the refined zeros, or the ResolutionError of the
    check they fail; values holds the trace at the roots followed by the
    trace at the midpoints between them."""
    residuals = np.abs(values[: roots.size])
    error = _residual_error(p.n, residuals, scale)
    if error is not None:
        return error
    if np.any(np.diff(roots) <= 0.0):
        return ResolutionError(p.n, len(roots), "refined zeros are not strictly increasing")
    msign = np.sign(values[roots.size :])
    simplicity = bool(np.all(msign[:-1] * msign[1:] < 0.0)) and bool(np.all(msign != 0.0))
    lam_theta = float(np.angle(p.lam) % TWO_PI)
    return ZeroSet(p.kind, p.n, lam_theta, roots, residuals, scale, simplicity, source=p)


def find_zeros_sweep(
    kind: str,
    lam: complex,
    seq,
    n_values,
    skip_unresolved: bool = False,
) -> dict[int, ZeroSet]:
    """find_zeros for a whole range of degrees of one family at once.

    The phase count, all bracket refinements and the final checks are
    batched through one multi-level evaluation per step, which is what
    makes long degree sweeps affordable; the first phase pass walks the
    top degree's grid alone, whose nested prefixes are every other
    degree's grid.  A degree gets the same brackets as from find_zeros,
    and results agree with it within THETA_TOL; their last bits depend
    on the degrees swept together.

    If the zeros of some degree cannot be isolated, the ResolutionError
    of the lowest such degree is raised.  With skip_unresolved, such
    degrees are left out of the result instead; callers must treat
    missing keys as explicit resolution failures.
    """
    polys = {n: ParaPolynomial(kind, n, lam, seq) for n in sorted(set(int(n) for n in n_values))}
    out = _zero_sets(polys)
    failed = [zs for zs in out.values() if isinstance(zs, ResolutionError)]
    if failed and not skip_unresolved:
        raise failed[0]
    return {n: zs for n, zs in out.items() if not isinstance(zs, ResolutionError)}


def _zero_sets(polys: dict[int, ParaPolynomial]) -> dict[int, ZeroSet | ResolutionError]:
    """The zero path of find_zeros, find_zeros_sweep and TheoremContext.

    polys maps increasing degrees to polynomials of one family (kind,
    base point and coefficients).  The highest one evaluates the trace of
    every degree, and its base-point values, one recursion pass, serve
    every degree: level j does not depend on the degree.  Each degree
    maps to its zero set, or to the ResolutionError that says why its
    zeros could not be isolated.
    """
    if not polys:
        return {}
    out = _phase_brackets(polys)
    found = {n: b for n, b in out.items() if not isinstance(b, ResolutionError)}
    if not found:
        return out
    top = polys[max(polys)]
    roots = {n: _all_roots(polys[n], r) for n, r in _refine(top, found).items()}
    checks = _at_levels(_trace_at_levels, top, {n: np.concatenate([r, _midpoints(r)]) for n, r in roots.items()})
    for n, r in roots.items():
        out[n] = _assemble(polys[n], r, checks[n], found[n][-1])
    return out


def _refine(top: ParaPolynomial, cells: dict, points: int = 1) -> dict[int, np.ndarray]:
    """The zeros in cells {n: (lo, hi, side, f_lo, f_hi, ...)} of degrees
    up to top's, narrowed to THETA_TOL in one _polish batch of `points`
    points per bracket through top's recursion, laid out deepest first as
    _trace_at_levels takes it."""
    cells = dict(sorted(cells.items(), reverse=True))
    lo, hi, side, flo, fhi = (np.concatenate([c[i] for c in cells.values()]) for i in range(5))
    nn = np.concatenate([np.full(c[0].size, n) for n, c in cells.items()])
    roots = _polish(lambda th, sel: _trace_at_levels(top, th, nn[sel]), lo, hi, side, flo, fhi, THETA_TOL,
                    points)
    return {n: roots[nn == n] for n in cells}


def _refined_zeros(polys: dict[int, ParaPolynomial], cells: dict, picks: dict) -> dict[int, np.ndarray]:
    """The zeros in the cells picks[n] (indices) of each degree's
    _phase_brackets cells, refined in one batch (see _refine) and held to
    _assemble's residual check; raises the ResolutionError of the lowest
    degree that fails it.

    The picks are a handful of zeros (estimate_support's), where a pass
    costs its walk through the levels, nearly whatever its points: each
    pass takes PHASE_SPLIT + 1 points per bracket, which closes most
    brackets in five passes instead of nine or ten."""
    top = polys[max(polys)]
    roots = _refine(top, {n: tuple(v[k] for v in cells[n][:5]) for n, k in picks.items() if k.size},
                    PHASE_SPLIT + 1)
    values = _at_levels(_trace_at_levels, top, roots)
    for n in sorted(roots):
        error = _residual_error(n, np.abs(values[n]), cells[n][-1])
        if error is not None:
            raise error
    return roots


def oracle_zeros(p: ParaPolynomial, grid_points: int | None = None) -> ZeroSet:
    """Slow cross-check: modulus minima on a dense grid, golden-section refined.

    Uses |p(z)| through the kernel-sum definition and never consults the
    real trace for locations, so it is structurally independent of
    find_zeros.  Minima count mismatches raise AmbiguousMinimaError with
    the candidate list.
    """
    n = p.n
    m = 64 * n if grid_points is None else int(grid_points)
    if m < 64 * n:
        raise ValueError(f"oracle grid needs at least 64*n = {64 * n} points, got {m}")

    def g(thetas):
        return np.abs(para_eval(p, p.lam * np.exp(1j * np.asarray(thetas)), "kernel"))

    th = np.arange(m) * (TWO_PI / m)
    gv = g(th)
    left = np.roll(gv, 1)
    right = np.roll(gv, -1)
    is_min = (gv <= left) & (gv <= right) & ((gv < left) | (gv < right))
    cand = np.nonzero(is_min)[0]
    if cand.size == 0:
        raise AmbiguousMinimaError([], f"no modulus minima on a {m}-point grid")

    a = th[cand] - TWO_PI / m
    b = th[cand] + TWO_PI / m
    local_scale = np.maximum(g(a), g(b))
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    while float(np.max(b - a)) > 1e-11:
        take_left = fc < fd
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = g(c), g(d)
    mins = 0.5 * (a + b)
    vals = g(mins)
    keep = vals <= 1e-7 * np.maximum(local_scale, 1e-300)
    zeros = np.mod(mins[keep], TWO_PI)
    if p.kind == "first":
        # the pinned zero may be localized on either side of the wrap
        zeros = np.where(zeros > TWO_PI - 1e-9, 0.0, zeros)
        zeros[np.abs(zeros) < 1e-12] = 0.0
    zeros = np.sort(zeros)
    dup = np.nonzero(np.diff(zeros) < 1e-12)[0]
    if dup.size:
        zeros = np.delete(zeros, dup + 1)
    if zeros.size != n:
        raise AmbiguousMinimaError(
            list(zip(np.mod(mins, TWO_PI), vals)),
            f"{p.kind}-kind degree {n}: modulus oracle found {int(zeros.size)} "
            f"zeros on a {m}-point grid",
        )
    values, _, _ = real_form_grid(p, zeros)
    grid_scale = float(np.max(gv))
    lam_theta = float(np.angle(p.lam) % TWO_PI)
    simplicity = True
    if len(zeros) > 1:
        mids = 0.5 * (zeros[:-1] + zeros[1:])
        msign = np.sign(real_form_grid(p, mids)[0])
        simplicity = bool(np.all(msign[:-1] * msign[1:] < 0.0))
    return ZeroSet(p.kind, n, lam_theta, zeros, np.abs(values), grid_scale, simplicity, source=p)


# ---------------------------------------------------------------------------
# interlacing


@dataclass
class InterlaceVerdict:
    verdict: str  # "pass" | "fail" | "inconclusive"
    witness: dict = field(default_factory=dict)
    # colliding zero pairs ordered at raised precision, counted by the
    # precision.LADDER label of the precision that decided them
    decided: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _circular_gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distance between angles around the circle, in [0, pi]."""
    return np.abs((x - y + math.pi) % TWO_PI - math.pi)


def _close_pairs(xa: np.ndarray, xb: np.ndarray):
    """The least circular gap between an angle of xa and one of xb, and
    the pairs (i, j) with xa[i] and xb[j] closer than COLLISION_TOL, in
    row-major order (None if there are none).

    These are the minimum and the np.argwhere of the |xa| x |xb| gap
    matrix, read off xb sorted modulo 2pi and copied a turn down and up:
    an angle's nearest zero of b is one of its two neighbours there, and
    its pairs lie within 2 COLLISION_TOL of it, a margin far above the
    rounding of the copies.
    """
    yb = xb % TWO_PI
    sort = np.argsort(yb)
    ring = np.concatenate([yb[sort] - TWO_PI, yb[sort], yb[sort] + TWO_PI])
    ya = xa % TWO_PI
    at = np.searchsorted(ring, ya)
    dmin = float(np.min(_circular_gap(xa, xb[sort[np.stack([at - 1, at]) % xb.size]])))
    if dmin >= COLLISION_TOL:
        return dmin, None
    lo = np.searchsorted(ring, ya - 2.0 * COLLISION_TOL)
    count = np.searchsorted(ring, ya + 2.0 * COLLISION_TOL, side="right") - lo
    i = np.repeat(np.arange(xa.size), count)
    j = sort[(np.arange(i.size) - np.repeat(np.cumsum(count) - count - lo, count)) % xb.size]
    close = _circular_gap(xa[i], xb[j]) < COLLISION_TOL
    i, j = i[close], j[close]
    order = np.lexsort((j, i))
    return dmin, np.stack([i[order], j[order]], axis=1)


def _order_collisions(a: ZeroSet, b: ZeroSet, xa, xb, pairs):
    """The angles of a and b with each colliding pair moved into its true order.

    pairs lists (i, j) with xa[i] and xb[j] closer than COLLISION_TOL.
    For each, b's zero is decided to lie just after (+1) or just before
    (-1) a's zero, counterclockwise, at the first precision of
    precision.LADDER that clears its rounding bound.  A pinned
    first-kind zero at theta = 0 is exact; its partner is placed by the
    side of lambda it lies on.  Every other pair is ordered by the sign
    of b's trace at a's refined zero, against the sign b's trace has
    just below its own zero: right after lambda it is +1 (second kind,
    value 2 at lambda) or -1 (first kind), and it flips at each zero.
    The moved zero goes to 1e-3 COLLISION_TOL from its partner, so no
    other order changes.

    A zero of a may collide with two zeros of b, which are then
    neighbours in b.  The sign at a's zero gives only the parity of the
    number of b's zeros below it, so it decides the one odd case: a's
    zero lies between the two (as at a symmetric gap in the support).

    Returns (xa, xb, decided), or None if a pair stays open, a set has
    no source polynomial, the sources differ in base point, in the
    coefficients they use (compared by value) or in both kind and degree
    (no identity gives one's sign at the other's zeros from one
    recursion, see the precision module, and no paper statement compares
    them), a non-pinned zero lies within COLLISION_TOL of lambda, a zero
    of b takes part in two pairs, or a zero of a in more than two or lies
    outside its two partners.
    """
    fa, fb = a.source, b.source
    i, j = pairs[:, 0], pairs[:, 1]
    first, repeats = np.unique(i, return_counts=True)
    if (fa is None or fb is None or fa.lam != fb.lam or repeats.max() > 2
            or (fa.kind != fb.kind and fa.n != fb.n)
            or not (a.simplicity and b.simplicity) or np.unique(j).size < j.size
            or not np.array_equal(*(f.seq.alphas(max(fa.n, fb.n)) for f in (fa, fb)))):
        return None
    pinned_a = (a.kind == "first") & (xa[i] == 0.0)
    pinned_b = (b.kind == "first") & (xb[j] == 0.0)
    ordinary = ~pinned_a & ~pinned_b
    near_base = np.minimum(np.minimum(xa[i], TWO_PI - xa[i]), np.minimum(xb[j], TWO_PI - xb[j]))
    doubled = np.isin(i, first[repeats == 2])
    if np.any(ordinary & (near_base < COLLISION_TOL)) or np.any(doubled & ~ordinary):
        return None
    below = (-1.0 if b.kind == "first" else 1.0) * (-1.0) ** np.searchsorted(b.interior_angles(), xb[j])

    # b's zero after a's pinned one lies after lambda; a's zero after b's
    # pinned one puts b's zero before it
    one = np.ones(len(pairs))
    cases = [c for c in ((ordinary, fa, fb, xa[i], below), (pinned_a, fb, None, xb[j], one),
                         (pinned_b, fa, None, xa[i], -one)) if c[0].any()]
    relation = np.zeros(len(pairs))
    label = np.full(len(pairs), "", dtype=object)
    results = precision.order([(f, g, theta[m]) for m, f, g, theta, _ in cases])
    for (m, *_, ref), (sign, stage) in zip(cases, results):
        relation[m] = sign * ref[m]
        label[m] = stage
    if np.any(label == ""):
        return None
    for k in np.nonzero(repeats == 2)[0]:
        lower, upper = sorted(np.nonzero(i == first[k])[0], key=lambda m: xb[j[m]])
        if relation[lower] > 0 or relation[upper] < 0:
            return None

    xa, xb = xa.copy(), xb.copy()
    gap = 1e-3 * COLLISION_TOL
    xb[j[ordinary]] = xa[i[ordinary]] + relation[ordinary] * gap
    xb[j[pinned_a]] = np.where(relation[pinned_a] > 0, gap, TWO_PI - gap)
    xa[i[pinned_b]] = np.where(relation[pinned_b] < 0, gap, TWO_PI - gap)
    stages, counts = np.unique(label.astype(str), return_counts=True)
    return xa, xb, dict(zip(stages.tolist(), counts.tolist()))


def interlace(a: ZeroSet, b: ZeroSet) -> InterlaceVerdict:
    """Strict circular interlacing of two zero sets.

    Same-degree sets: every open arc between consecutive zeros of `a`
    must contain exactly one zero of `b` (arcs wrap at 2pi).  If `b` has
    one zero more than `a`, the variant for consecutive degrees applies:
    on the interval cut at the base point, the zeros must alternate
    b, a, b, ..., a, b (callers strip the shared base-point zero first).

    Float64 angles cannot order two zeros closer than COLLISION_TOL.
    Such pairs are ordered at raised precision from the source
    polynomials of the two sets (see _order_collisions and the precision
    module), one recursion per colliding zero: the other set's sign at
    that zero follows from it for a set of the same kind (consecutive
    degrees) or of the other kind and the same degree; the verdict
    records how many pairs each precision decided.  It is "inconclusive", with the closest pair
    as witness, if a set has no source, a pair stays open at the highest
    precision, or the collisions take a shape _order_collisions does not
    decide (among them two kinds of two degrees).  The one
    exception is two identical angle lists - a degenerate
    self-comparison, which fails outright with an empty-arc witness.
    """
    if abs(a.lambda_theta - b.lambda_theta) > 1e-12:
        raise ValueError("zero sets have different base points")
    xa = np.asarray(a.angles, dtype=float)
    xb = np.asarray(b.angles, dtype=float)
    if xb.size != xa.size and xb.size != xa.size + 1:
        raise ValueError(
            f"interlacing needs |b| = |a| or |a|+1, got |a|={xa.size}, |b|={xb.size}"
        )
    if xa.size == xb.size == 0:
        raise ValueError("cannot interlace empty zero sets")
    identical = xa.size == xb.size and bool(np.array_equal(xa, xb))
    decided = {}
    if xa.size and xb.size and not identical:
        dmin, pairs = _close_pairs(xa, xb)
        if dmin < COLLISION_TOL:
            ordered = _order_collisions(a, b, xa, xb, pairs)
            if ordered is None:
                return InterlaceVerdict(
                    "inconclusive",
                    {"min_pair_distance": dmin, "collision_tol": COLLISION_TOL},
                )
            xa, xb, decided = ordered
    # b's zeros in each open arc (lo, hi), counted off b sorted: those
    # below the arc's end less those at or below its start, plus all of
    # them where the arc wraps past 2pi (and none in an empty arc)
    if xb.size == xa.size + 1:
        # consecutive-degree variant: zeros alternate b, a, b, ..., a, b on
        # the interval cut at the shared (already removed) base-point zero
        lo, hi = np.concatenate([[0.0], xa]), np.concatenate([xa, [TWO_PI]])
        yb, end, wrap = np.sort(xb), hi, False
    else:
        # arcs from each zero of a to the next, wrapping at 2pi; with one
        # zero, the whole circle but that zero
        span = np.full(1, TWO_PI) if xa.size == 1 else (np.roll(xa, -1) - xa) % TWO_PI
        lo, hi = xa % TWO_PI, (xa + span) % TWO_PI
        yb, end = np.sort(xb % TWO_PI), np.roll(lo, -1)
        wrap = (lo > end) | (xa.size == 1)
    below = np.searchsorted(yb, end) - np.searchsorted(yb, lo, side="right")
    counts = np.maximum(below + wrap * yb.size, 0)
    if np.all(counts == 1):
        return InterlaceVerdict("pass", {}, decided)
    k = int(np.argmax(counts != 1))
    return InterlaceVerdict("fail", {"arc": (float(lo[k]), float(hi[k])), "count": int(counts[k])}, decided)
