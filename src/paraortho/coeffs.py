"""Coefficient providers and measure ingestion.

Two ways of presenting the same object: either a sequence of complex
coefficients inside the unit disk is given directly (constant, explicit
list, seeded random, decaying), or a probability measure on the unit
circle is given as a density against dtheta/2pi plus finitely many point
masses, in which case trigonometric moments are computed by composite
Gauss-Legendre quadrature (point masses summed exactly) and the
coefficients are recovered by a Levinson-style recursion on the Toeplitz
moment matrix.

All providers are immutable after construction and deterministic:
querying the same index twice returns bit-identical values.

Memory stays linear in the node count with small constants.  A panel
grid keeps 32 bytes per node (angles t, raw weights w, z = e^{i t}) and
is shared by the measures of equal support and panel count; a measure
keeps 8 bytes per node, its quadrature weights.  No other array spans
the grid: z, a Bernstein-Szego density and the moments are computed
CHUNK or BLOCK nodes at a time, so ingestion holds at most the density
(8 bytes per node, while the weights are formed) and a few buffers of
CHUNK nodes beyond what it keeps.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from operator import add, mul, rshift, sub
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConditioningError,
    MeasureIngestionError,
    ProviderRangeError,
    SpecFileError,
)
from .szego import BLOCK

TWO_PI = 2.0 * math.pi

# guard on 1 - |alpha|^2; fail loudly rather than clamp
EPS_PD = 1e-10

# admission tolerance for points that must sit on the unit circle
CIRCLE_TOL = 1e-12


def unit_circle_point(z: complex) -> complex:
    """Validate ||z| - 1| <= 1e-12 and renormalize z onto the circle."""
    z = complex(z)
    r = abs(z)
    if not abs(r - 1.0) <= CIRCLE_TOL:
        raise ValueError(f"point {z!r} is off the unit circle by {r - 1.0:.3e}")
    return z / r


def _arc_span(start, end, turn=TWO_PI):
    """Counterclockwise extent of the arc from start to end, in [0, turn]: a
    full turn when end - start is a nonzero multiple of it, 0 only when
    end == start.  mpmath arguments with turn 2 mp.pi wrap at their precision."""
    span = (end - start) % turn
    return turn if span == 0 and end != start else span


# ---------------------------------------------------------------------------
# coefficient providers


class VerblunskySequence:
    """Base provider for coefficient sequences alpha_n with |alpha_n| < 1.

    Subclasses implement `alpha(n)`; `alphas(count)` returns a cached
    prefix as an ndarray and is what the evaluators use internally.
    """

    def __init__(self):
        self._prefix: tuple[complex, ...] = ()

    def alpha(self, n: int) -> complex:
        raise NotImplementedError

    def alphas(self, count: int) -> np.ndarray:
        """First `count` coefficients as a complex array (memoized).

        The cache is replaced atomically; concurrent readers at worst
        recompute identical values, never see a torn prefix.
        """
        cached = self._prefix
        if len(cached) < count:
            cached = cached + tuple(self.alpha(j) for j in range(len(cached), count))
            self._prefix = cached
        return np.array(cached[:count], dtype=complex)

    def flipped(self) -> "VerblunskySequence":
        """The sequence with every coefficient negated."""
        return _FlippedSequence(self)

    @staticmethod
    def _admit(n: int, value: complex) -> complex:
        value = complex(value)
        if not abs(value) < 1.0:
            raise ValueError(f"coefficient {n} has modulus {abs(value):.6g} >= 1")
        return value

    @staticmethod
    def _check_index(n: int) -> int:
        n = int(n)
        if n < 0:
            raise ValueError(f"coefficient index must be >= 0, got {n}")
        return n


class _FlippedSequence(VerblunskySequence):
    def __init__(self, base: VerblunskySequence):
        super().__init__()
        self._base = base

    def alpha(self, n: int) -> complex:
        return -self._base.alpha(n)

    def flipped(self) -> VerblunskySequence:
        return self._base

    def __repr__(self):
        return f"flipped({self._base!r})"


class ConstantSequence(VerblunskySequence):
    """alpha_n = a for all n."""

    def __init__(self, value: complex):
        super().__init__()
        self.value = self._admit(0, value)

    def alpha(self, n: int) -> complex:
        self._check_index(n)
        return self.value

    def __repr__(self):
        return f"ConstantSequence({self.value})"


class ExplicitSequence(VerblunskySequence):
    """A finite coefficient list, optionally continued by a constant tail.

    Without a tail, indexing past the end raises ProviderRangeError.
    """

    def __init__(self, values: Iterable[complex], tail: complex | None = None):
        super().__init__()
        self.values = tuple(self._admit(j, v) for j, v in enumerate(values))
        self.tail = None if tail is None else self._admit(len(self.values), tail)

    def alpha(self, n: int) -> complex:
        n = self._check_index(n)
        if n < len(self.values):
            return self.values[n]
        if self.tail is not None:
            return self.tail
        raise ProviderRangeError(
            f"explicit sequence has {len(self.values)} coefficients, index {n} requested"
        )

    def __repr__(self):
        return f"ExplicitSequence({list(self.values)!r}, tail={self.tail!r})"


class RandomSequence(VerblunskySequence):
    """Uniform draws from the closed disk of the given radius.

    Coefficient n is drawn from its own PCG64 stream seeded with
    SeedSequence((seed, n)), so lookups are order-independent and
    bit-reproducible across platforms for a fixed 64-bit seed.
    """

    def __init__(self, radius: float, seed: int):
        super().__init__()
        if not 0.0 <= radius < 1.0:
            raise ValueError(f"radius must lie in [0, 1), got {radius}")
        self.radius = float(radius)
        self.seed = int(seed)

    def alpha(self, n: int) -> complex:
        n = self._check_index(n)
        rng = np.random.default_rng((self.seed, n))
        r = self.radius * math.sqrt(rng.random())
        phase = TWO_PI * rng.random()
        return complex(r * math.cos(phase), r * math.sin(phase))

    def __repr__(self):
        return f"RandomSequence(radius={self.radius}, seed={self.seed})"


class DecayingSequence(VerblunskySequence):
    """alpha_n = c / (n + 1)**p with |c| < 1 and p >= 0."""

    def __init__(self, c: complex, p: float):
        super().__init__()
        self.c = self._admit(0, c)
        if not p >= 0:
            raise ValueError(f"decay exponent must be >= 0, got {p}")
        self.p = float(p)

    def alpha(self, n: int) -> complex:
        n = self._check_index(n)
        return self.c / (n + 1) ** self.p

    def __repr__(self):
        return f"DecayingSequence(c={self.c}, p={self.p})"


# ---------------------------------------------------------------------------
# measures and moments

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# the most panel grids _panel_grid keeps
GRID_CAP = 4

# nodes that a pass over a whole panel grid (z = e^{i t}, a Bernstein-Szego
# weight) takes at once; a multiple of BLOCK, so a chunk splits into the
# same Szego blocks as one pass over every node would
CHUNK = 16 * BLOCK


class _PanelGrid(NamedTuple):
    """Composite Gauss-Legendre nodes of one support and panel count: node
    angles t, raw weights w with sum w_i f(t_i) ~ int f dtheta over the
    support, and z = e^{i t}.  The arrays are read-only."""

    t: np.ndarray
    w: np.ndarray
    z: np.ndarray


# the grid of a purely atomic measure
_NO_GRID = _PanelGrid(np.empty(0), np.empty(0), np.empty(0, dtype=complex))

# the support of a weight on the whole circle
_CIRCLE = ((0.0, TWO_PI),)


@functools.lru_cache(maxsize=GRID_CAP)
def _panel_grid(support: tuple[tuple[float, float], ...], panels: int) -> _PanelGrid:
    """The grid of `support` at `panels`, shared while it stays among the
    GRID_CAP most recently used: panels shared out over the intervals in
    proportion to their length, at least one each, 8 Gauss-Legendre
    nodes per panel.

    It keeps 32 bytes per node (t, w and z) and builds them in place:
    t and w one support interval at a time, with about 3 bytes per node
    of panel edges, midpoints and half widths besides, and z = e^{i t}
    CHUNK nodes at a time."""
    total_len = sum(b - a for a, b in support)
    size = _GL_NODES.size * panels
    t, w = np.empty(size), np.empty(size)
    at, remaining = 0, panels
    for idx, (a, b) in enumerate(support):
        if idx == len(support) - 1:
            count = remaining
        else:
            count = max(1, round(panels * (b - a) / total_len))
            count = min(count, remaining - (len(support) - 1 - idx))
        remaining -= count
        end = at + _GL_NODES.size * count
        _fill_panels(a, b, count, t[at:end].reshape(count, -1), w[at:end].reshape(count, -1))
        at = end
    z = np.empty(size, dtype=complex)
    for b0 in range(0, size, CHUNK):
        np.exp(1j * t[b0 : b0 + CHUNK], out=z[b0 : b0 + CHUNK])
    grid = _PanelGrid(t, w, z)
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _fill_panels(a: float, b: float, count: int, t: np.ndarray, w: np.ndarray) -> None:
    """Nodes and weights of `count` equal panels on [a, b] into the
    (count, 8) arrays t and w: t = mid + half * node, w = half * weight."""
    edges = np.linspace(a, b, count + 1)
    half = np.diff(edges)
    half /= 2.0
    mid = edges[:-1] + edges[1:]
    mid /= 2.0
    np.multiply(half[:, None], _GL_NODES, out=t)
    t += mid[:, None]
    np.multiply(half[:, None], _GL_WEIGHTS, out=w)


class MeasureSpec:
    """Probability measure on the unit circle.

    `weight` is a density against dtheta/2pi evaluated vectorized on
    theta arrays (None for a purely atomic measure); `masses` is a list
    of (theta, w) atoms with w > 0 at pairwise distinct angles.  The
    measure is normalized to total mass one; the normalization constant
    is computed with the same panel scheme used for the moments.

    `support` optionally lists the theta intervals where the weight is
    nonzero, so quadrature panels align with e.g. arc endpoints; each
    interval takes at least one of the `panels`.  Measures with the same
    support and panel count share one read-only grid of nodes.
    """

    def __init__(
        self,
        weight: Callable[[np.ndarray], np.ndarray] | None = None,
        masses: Sequence[tuple[float, float]] = (),
        support: Sequence[tuple[float, float]] | None = None,
        panels: int = 1024,
    ):
        if weight is None and not masses:
            raise MeasureIngestionError("measure needs a weight or at least one mass")
        self.weight = weight
        self.masses = tuple(
            (float(theta) % TWO_PI, float(w)) for theta, w in masses
        )
        for theta, w in self.masses:
            if not math.isfinite(theta):
                raise MeasureIngestionError(f"point mass of weight {w} has a non-finite angle")
            if not (w > 0.0) or not math.isfinite(w):
                raise MeasureIngestionError(f"point mass at {theta} has weight {w} <= 0")
        angles = sorted(t for t, _ in self.masses)
        for u, v in zip(angles, angles[1:]):
            if v - u < 1e-12:
                raise MeasureIngestionError(f"point masses collide at angle {u}")
        if weight is None:
            self.support = ()
        elif support is None:
            self.support = _CIRCLE
        else:
            self.support = tuple((float(a), float(b)) for a, b in support)
            for a, b in self.support:
                if not b > a:
                    raise MeasureIngestionError(f"bad support interval ({a}, {b})")
        if isinstance(panels, bool) or not isinstance(panels, (int, np.integer)):
            raise MeasureIngestionError(f"panel count must be an integer, got {panels!r}")
        least = max(1, len(self.support))
        if panels < least:
            raise MeasureIngestionError(
                f"panel count must be >= {least}, one per support interval, got {panels}"
            )
        self.panels = int(panels)

    # -- quadrature machinery ------------------------------------------------

    @functools.cached_property
    def _quadrature(self) -> tuple[_PanelGrid, np.ndarray]:
        """The panel grid and its weights W_i with sum W_i f(t_i) ~ int f w dtheta/2pi.

        The weights are 8 bytes per node, formed with one array beside
        the density the weight returns, which is only read."""
        if self.weight is None:
            return _NO_GRID, _NO_GRID.w
        grid = _panel_grid(self.support, self.panels)
        dens = np.asarray(self.weight(grid.t), dtype=float)
        if dens.shape != grid.t.shape:
            raise MeasureIngestionError("weight function must return one value per angle")
        if np.any(dens < 0) or not np.all(np.isfinite(dens)):
            raise MeasureIngestionError("weight function produced negative or non-finite values")
        w = grid.w * dens
        w /= TWO_PI
        return grid, w

    @functools.cached_property
    def _raw_mass(self) -> float:
        total = float(self._quadrature[1].sum()) + sum(m for _, m in self.masses)
        if not math.isfinite(total) or total <= 1e-300:
            raise MeasureIngestionError(f"measure is not normalizable (raw total mass {total})")
        return total

    def _own_panels(self, panels) -> None:
        if panels != self.panels:
            raise MeasureIngestionError(
                f"the measure's quadrature has {self.panels} panels, {panels!r} requested"
            )

    def _nodes(self, panels: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes and raw weights W_i with sum W_i f(t_i) ~ int f w dtheta/2pi;
        `panels` must be the measure's own count."""
        self._own_panels(panels)
        grid, w = self._quadrature
        return grid.t, w

    def normalization(self, panels: int | None = None) -> float:
        """Total raw mass (weight integral plus atoms) before normalization;
        `panels`, if given, must be the measure's own count."""
        if panels is not None:
            self._own_panels(panels)
        return self._raw_mass

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> complex:
        """Integral of f(theta) against the normalized measure."""
        norm = self.normalization()
        t, w = self._nodes(self.panels)
        acc = complex(np.sum(w * f(t))) if t.size else 0.0
        for theta, m in self.masses:
            acc += m * complex(f(np.asarray([theta]))[0])
        return acc / norm


def lebesgue_measure(panels: int = 1024) -> MeasureSpec:
    """The normalized arc-length measure dtheta/2pi."""
    return MeasureSpec(weight=lambda t: np.ones_like(t), panels=panels)


def arc_measure(
    theta_start: float,
    theta_end: float,
    masses: Sequence[tuple[float, float]] = (),
    ac_mass: float = 1.0,
    panels: int = 1024,
) -> MeasureSpec:
    """Uniform weight on the counterclockwise arc [theta_start, theta_end].

    The absolutely continuous part carries raw mass `ac_mass`; atoms keep
    the raw weights given (everything is renormalized jointly).
    """
    start = float(theta_start) % TWO_PI
    span = _arc_span(float(theta_start), float(theta_end))
    if span == 0.0:
        raise MeasureIngestionError("arc has zero length")
    height = ac_mass * TWO_PI / span

    def weight(t):
        rel = (np.asarray(t) - start) % TWO_PI
        return np.where(rel <= span, height, 0.0)

    if start + span <= TWO_PI:
        support = [(start, start + span)]
    else:
        support = [(start, TWO_PI), (0.0, start + span - TWO_PI)]
    return MeasureSpec(weight=weight, masses=masses, support=support, panels=panels)


def bernstein_szego_measure(alphas: Sequence[complex], panels: int = 2048) -> MeasureSpec:
    """Measure with density 1/|phi_N|^2, whose coefficients are `alphas` then zeros.

    The density runs the Szego pair over CHUNK nodes at a time (on its
    grid, reading z off it) and writes 1/|phi_N|^2 into one array of 8
    bytes per node, so no pair of full-grid complex rows is held."""
    avec = [complex(a) for a in alphas]
    seq = ExplicitSequence(avec, tail=0.0)
    order = len(avec)

    def weight(t):
        from .szego import eval_pair

        # nodes of another size are not its grid's: build no grid for them
        grid = _panel_grid(_CIRCLE, panels) if np.size(t) == _GL_NODES.size * panels else _NO_GRID
        on_grid, t = t is grid.t, np.asarray(t)
        dens = np.empty(t.shape)
        flat_t, flat = t.reshape(-1), dens.reshape(-1)
        for b0 in range(0, flat.size, CHUNK):
            part = slice(b0, b0 + CHUNK)
            z = grid.z[part] if on_grid else np.exp(1j * flat_t[part])
            out = np.abs(eval_pair(seq, order, z).phi, out=flat[part])
            np.square(out, out=out)
            np.divide(1.0, out, out=out)
        return dens

    return MeasureSpec(weight=weight, panels=panels)


class MomentTable:
    """Moments c_0..c_K of a probability measure (c_{-k} = conj(c_k))."""

    def __init__(self, c: Sequence[complex]):
        self.c = np.asarray(c, dtype=complex)
        if self.c.ndim != 1 or self.c.size == 0:
            raise ValueError("moment table must be a nonempty vector")
        if not np.all(np.isfinite(self.c)):
            bad = int(np.flatnonzero(~np.isfinite(self.c))[0])
            raise MeasureIngestionError(f"moment c_{bad} is not finite: {self.c[bad]}")
        if abs(self.c[0] - 1.0) > 1e-8:
            raise MeasureIngestionError(
                f"zeroth moment must be 1 for a probability measure, got {self.c[0]}"
            )

    @property
    def order(self) -> int:
        return self.c.size - 1

    def full_line(self) -> np.ndarray:
        """c_{-K}..c_K as one array (index K + k)."""
        return np.concatenate([np.conj(self.c[:0:-1]), self.c])

    def toeplitz(self, size: int | None = None) -> np.ndarray:
        """The (size x size) matrix [c_{j-k}], for positive-definiteness oracles."""
        size = self.c.size if size is None else int(size)
        if size > self.c.size:
            raise ValueError(f"table holds {self.c.size} moments, {size} requested")
        jk = np.arange(size)
        idx = jk[:, None] - jk[None, :]
        line = self.full_line()
        return line[self.c.size - 1 + idx]


def moments_table(measure: MeasureSpec, order: int) -> MomentTable:
    """Moments c_0..c_order computed against the normalized measure.

    The quadrature nodes are taken BLOCK at a time, so the running powers
    of e^{-i theta} stay in cache while all order + 1 moments of a block
    are summed; the result differs from one pass over all nodes only in
    the order of summation.  e^{-i theta} is the conjugate of the panel
    grid's e^{i theta}, which np.exp gives bit for bit.  Beyond the
    measure's grid and weights (32 + 8 bytes per node) it holds two
    complex arrays of BLOCK nodes.
    """
    norm = measure.normalization()
    grid, w = measure._quadrature
    c = np.zeros(order + 1, dtype=complex)
    for b0 in range(0, w.size, BLOCK):
        step = np.conj(grid.z[b0 : b0 + BLOCK])
        cur = w[b0 : b0 + BLOCK].astype(complex)
        for k in range(order + 1):
            c[k] += cur.sum()
            cur *= step
    for theta, m in measure.masses:
        c += m * np.exp(-1j * np.arange(order + 1) * theta)
    return MomentTable(c / norm)


def verblunsky_from_moments(moments: MomentTable, count: int) -> list[complex]:
    """Recover alpha_0..alpha_{count-1} from moments c_0..c_count.

    Levinson-style recursion on the Toeplitz moment matrix: the monic
    polynomial coefficients are carried along and each new coefficient is
    fixed by orthogonality to 1.  Loses of positive definiteness
    (predicted |alpha_j|^2 >= 1 - EPS_PD) raise ConditioningError naming
    the failing index.
    """
    if moments.order < count:
        raise ValueError(f"need moments up to c_{count}, table holds c_0..c_{moments.order}")
    line = moments.full_line()
    origin = moments.order  # index of c_0 in `line`

    def ip(poly: np.ndarray, k: int) -> complex:
        # <poly(z), z^k> = sum_j poly_j c_{k-j}
        j = np.arange(poly.size)
        return complex(np.sum(poly * line[origin + k - j]))

    phi = np.array([1.0 + 0.0j])
    alphas: list[complex] = []
    for m in range(count):
        phistar = np.conj(phi[::-1])
        zphi = np.concatenate([[0.0 + 0.0j], phi])
        num = ip(zphi, 0)
        den = ip(phistar, 0)  # equals ||Phi_m||^2, so real and positive
        if not math.isfinite(den.real) or den.real <= 0.0:
            raise ConditioningError(
                m, f"moment matrix is not positive definite at size {m + 1}"
            )
        ca = num / den
        if 1.0 - abs(ca) ** 2 < EPS_PD:
            raise ConditioningError(
                m,
                f"predicted coefficient {m} has modulus {abs(ca):.12g}; "
                f"moment matrix is numerically singular",
            )
        alphas.append(complex(np.conj(ca)))
        phi = zphi.copy()
        phi[: phistar.size] -= ca * phistar
    return alphas


def sequence_from_measure(measure: MeasureSpec, count: int) -> ExplicitSequence:
    """Ingest a measure: moments by quadrature, then the Toeplitz recursion."""
    table = moments_table(measure, count)
    return ExplicitSequence(verblunsky_from_moments(table, count))


# bits carried above mpmath's binary precision at `dps` by the running
# powers of exact_arc_mass_moments
MOMENT_GUARD_BITS = 32

# digits of exact_arc_mass_moments without `dps`, before it rounds to complex
EXACT_MOMENT_DPS = 20


def exact_arc_mass_moments(
    theta_start: float,
    theta_end: float,
    ac_mass: float,
    masses: Sequence[tuple[float, float]],
    order: int,
    dps: int | None = None,
):
    """Closed-form moments of a uniform arc weight plus atoms.

    The integral of exp(-ik theta) over the arc is elementary, so these
    moments carry no quadrature error.  With `dps` set the result is a
    list of mpmath complex numbers at that precision (for ingestion of
    gap-supported measures, whose moment matrices are exponentially
    ill-conditioned); otherwise a MomentTable of the moments computed at
    EXACT_MOMENT_DPS digits and rounded once to complex.

    With p mpmath's binary precision at those digits, one exponential
    e^{-i theta} is taken per angle (arc start, arc end, each atom) and
    its powers are running products at p + MOMENT_GUARD_BITS bits.  The
    k-th power is then off by about k 2^-(p+31): each factor and each
    product rounds by about 2^-(p+32).  The atoms' weights sum to at most
    the total mass and the arc term divides its two powers by k times
    the span, so each moment is within about k 2^-(p+31) of its exact
    value before it is rounded once to p bits.
    """
    if float(theta_end) == float(theta_start):  # the one empty arc (_arc_span)
        raise MeasureIngestionError("arc has zero length")
    from mpmath import mp, mpc

    digits = EXACT_MOMENT_DPS if dps is None else dps
    with mp.workdps(digits):
        prec = mp.prec
    with mp.workprec(prec + MOMENT_GUARD_BITS):
        start = mp.mpf(theta_start)
        span = _arc_span(start, mp.mpf(theta_end), 2 * mp.pi)
        acm = mp.mpf(ac_mass)
        weights = [mp.mpf(w) for _, w in masses]
        total = acm + mp.fsum(weights)
        # e^{-i theta} at the arc's ends and at each atom; powers[j] holds
        # its k-th power
        angles = [start, start + span] + [mp.mpf(t) for t, _ in masses]
        steps = [mp.expj(-theta) for theta in angles]
        powers = [mpc(1)] * len(steps)
        raws = [mpc(total)]
        for k in range(1, order + 1):
            powers = list(map(mul, powers, steps))
            ea, eb = powers[:2]
            raw = acm * (ea - eb) / (mpc(0, 1) * k * span)
            raws.append(raw + mp.fsum(map(mul, weights, powers[2:])))
    with mp.workdps(digits):
        c = [raw / total for raw in raws]
    return c if dps is not None else MomentTable([complex(v) for v in c])


# bits kept below mpmath's binary precision at `dps` by the hp recursion
HP_GUARD_BITS = 64


def verblunsky_from_moments_hp(c, count: int, dps: int = 120) -> list[complex]:
    """High-precision variant of verblunsky_from_moments.

    Measures whose support leaves a gap have Toeplitz moment matrices
    with exponentially growing condition number, so double precision
    loses positive definiteness after a few dozen coefficients.  This
    runs the same recursion in Python-integer fixed point: each moment
    (`c` as produced by exact_arc_mass_moments with matching dps) is
    rounded once to mpmath's binary precision at dps and scaled to
    integers by 2^B, B being that precision plus HP_GUARD_BITS.  Per
    level the inner product <z Phi_m, 1> is summed exactly at scale
    2^(2B) and divided once by ||Phi_m||^2, which comes from the norm
    recurrence ||Phi_{m+1}||^2 = ||Phi_m||^2 (1 - |alpha_m|^2); the
    monic update shifts each product back to scale 2^B.  Only those
    divisions and shifts round, each by less than 2^-B.  The recovered
    coefficients are rounded to complex floats.  A non-finite moment,
    which fixed point would read as 0, raises MeasureIngestionError.

    Complex products use Gauss's three real multiplications (Knuth, TAOCP
    Vol. 2, 4.6.4) in place of four, in the inner product and in the
    update alike.  Integer arithmetic is exact, so these are the same
    integers the four-product form gives, shifted and divided the same
    way: six big products per coefficient per level instead of eight.
    """
    from mpmath import mp, mpc
    from mpmath.libmp import to_fixed

    with mp.workdps(dps):
        bits = mp.prec + HP_GUARD_BITS
        cc = [mpc(v) for v in c]
        bad = next((k for k, v in enumerate(cc) if not mp.isfinite(v)), None)
        if bad is not None:
            raise MeasureIngestionError(f"moment c_{bad} is not finite: {cc[bad]}")
        cc = [v._mpc_ for v in cc]
    if len(cc) < count + 1:
        raise ValueError(f"need moments up to c_{count}, got {len(cc) - 1}")
    # moments c_k = (cr[k] + i ci[k]) / 2^bits, with cr + ci and cr - ci
    cr = [to_fixed(v[0], bits) for v in cc]
    ci = [to_fixed(v[1], bits) for v in cc]
    c_sum = list(map(add, cr, ci))
    c_diff = list(map(sub, cr, ci))
    one = 1 << bits

    # monic Phi_m = sum_j (pr[j] + i pi[j]) z^j / 2^bits, ||Phi_m||^2 = den / 2^bits
    pr, pi = [one], [0]
    den = cr[0]
    alphas: list[complex] = []
    for m in range(count):
        if den <= 0:
            raise ConditioningError(
                m, f"moment matrix not positive definite at size {m + 1} (hp)"
            )
        # <z Phi_m, 1> = sum_j phi_j conj(c_{j+1}) at scale 2^(2 bits), from
        # three dot products: with k = sum (pr + pi) cr, the real part is
        # k - sum pi (cr - ci) and the imaginary part k - sum pr (cr + ci)
        p_sum = list(map(add, pr, pi))
        k = sum(map(mul, p_sum, cr[1 : m + 2]))
        num_r = k - sum(map(mul, pi, c_diff[1 : m + 2]))
        num_i = k - sum(map(mul, pr, c_sum[1 : m + 2]))
        # ca = num / ||Phi_m||^2 at scale 2^bits
        ar, ai = num_r // den, num_i // den
        mod = math.hypot(ar / one, ai / one)
        if 1.0 - mod * mod < EPS_PD:
            raise ConditioningError(
                m, f"predicted coefficient {m} has modulus {mod:.12g} (hp)"
            )
        alphas.append(complex(ar / one, -ai / one))
        den = (den * (one * one - ar * ar - ai * ai)) >> (2 * bits)
        # Phi_{m+1} = z Phi_m - ca Phi_m^*, with Phi_m^*_j = u_j - i v_j =
        # conj(phi_{m-j}); ca Phi_m^*_j from three products: with
        # g = (ar + ai) u, it is g - ai (u - v) + i (g - ar (u + v))
        u = pr[::-1]
        g = list(map((ar + ai).__mul__, u))
        re = map(sub, g, map(ai.__mul__, map(sub, u, pi[::-1])))
        im = map(sub, g, map(ar.__mul__, p_sum[::-1]))
        pr = list(map(sub, [0] + pr, map(rshift, re, repeat(bits)))) + [one]
        pi = list(map(sub, [0] + pi, map(rshift, im, repeat(bits)))) + [0]
    return alphas


# ---------------------------------------------------------------------------
# file formats


def read_coefficient_file(path) -> ExplicitSequence:
    """Read "re" or "re im" lines; blank lines and '#' comments are skipped."""
    values: list[complex] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) == 1:
                    value = complex(float(parts[0]), 0.0)
                elif len(parts) == 2:
                    value = complex(float(parts[0]), float(parts[1]))
                else:
                    raise ValueError("expected 1 or 2 numeric fields")
                if not abs(value) < 1.0:
                    raise ValueError(f"modulus {abs(value):.6g} >= 1")
            except ValueError as exc:
                raise SpecFileError(path, lineno, f"bad coefficient line {line!r}: {exc}") from None
            values.append(value)
    return ExplicitSequence(values)


def write_coefficient_file(path, values: Iterable[complex]) -> None:
    """Write one "re im" line per coefficient."""
    with open(path, "w", encoding="utf-8") as handle:
        for v in values:
            v = complex(v)
            handle.write(f"{v.real!r} {v.imag!r}\n")


_WEIGHT_KINDS = ("lebesgue", "arc", "bernstein_szego", "none")


def measure_from_dict(doc: dict, path="<measure>") -> MeasureSpec:
    """Build a MeasureSpec from its JSON document form.

    Schema: {"weight": {"kind": ..., ...params} | null,
             "masses": [{"theta": float, "w": float}, ...],
             "panels": int}
    """
    if not (isinstance(doc, dict) and isinstance(doc.get("masses", []), list)
            and isinstance(doc.get("weight"), (dict, type(None)))):
        raise SpecFileError(path, None, 'measure document must be {"weight": object | null, "masses": list, ...}')
    panels = doc.get("panels", 1024)
    masses = []
    for entry in doc.get("masses", []):
        try:
            masses.append((float(entry["theta"]), float(entry["w"])))
        except (KeyError, TypeError, ValueError):
            raise SpecFileError(path, None, f"bad mass entry {entry!r}") from None
    wdoc = doc.get("weight")
    try:
        if wdoc is None or wdoc.get("kind") == "none":
            return MeasureSpec(weight=None, masses=masses, panels=panels)
        kind = wdoc.get("kind")
        if kind == "lebesgue":
            return MeasureSpec(
                weight=lambda t: np.ones_like(t), masses=masses, panels=panels
            )
        if kind == "arc":
            return arc_measure(
                wdoc["theta_start"],
                wdoc["theta_end"],
                masses=masses,
                ac_mass=wdoc.get("ac_mass", 1.0),
                panels=panels,
            )
        if kind == "bernstein_szego":
            alphas = [complex(re, im) for re, im in wdoc["alpha"]]
            base = bernstein_szego_measure(alphas, panels=panels)
            if masses:
                return MeasureSpec(
                    weight=base.weight, masses=masses, panels=panels
                )
            return base
    except SpecFileError:
        raise
    except (KeyError, TypeError, ValueError, MeasureIngestionError) as exc:
        raise SpecFileError(path, None, f"bad measure document: {exc}") from None
    raise SpecFileError(
        path, None, f"unknown weight kind {wdoc.get('kind')!r}; expected one of {_WEIGHT_KINDS}"
    )
