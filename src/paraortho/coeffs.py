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
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConditioningError,
    MeasureIngestionError,
    ProviderRangeError,
    SpecFileError,
)

TWO_PI = 2.0 * math.pi

# guard on 1 - |alpha|^2; fail loudly rather than clamp
EPS_PD = 1e-10

# admission tolerance for points that must sit on the unit circle
CIRCLE_TOL = 1e-12


def unit_circle_point(z: complex) -> complex:
    """Validate ||z| - 1| <= 1e-12 and renormalize z onto the circle."""
    z = complex(z)
    r = abs(z)
    if abs(r - 1.0) > CIRCLE_TOL:
        raise ValueError(f"point {z!r} is off the unit circle by {r - 1.0:.3e}")
    return z / r


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
        if abs(value) >= 1.0:
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

    def flipped(self) -> VerblunskySequence:
        return ConstantSequence(-self.value)

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

    def flipped(self) -> VerblunskySequence:
        return ExplicitSequence(
            [-v for v in self.values], None if self.tail is None else -self.tail
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
        if p < 0:
            raise ValueError(f"decay exponent must be >= 0, got {p}")
        self.p = float(p)

    def alpha(self, n: int) -> complex:
        n = self._check_index(n)
        return self.c / (n + 1) ** self.p

    def flipped(self) -> VerblunskySequence:
        return DecayingSequence(-self.c, self.p)

    def __repr__(self):
        return f"DecayingSequence(c={self.c}, p={self.p})"


def alpha_at(seq: VerblunskySequence, n: int) -> complex:
    """Coefficient alpha_n of the provider."""
    return seq.alpha(n)


def flipped(seq: VerblunskySequence) -> VerblunskySequence:
    """Provider with alpha_n replaced by -alpha_n (an involution)."""
    return seq.flipped()


# ---------------------------------------------------------------------------
# measures and moments

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


class MeasureSpec:
    """Probability measure on the unit circle.

    `weight` is a density against dtheta/2pi evaluated vectorized on
    theta arrays (None for a purely atomic measure); `masses` is a list
    of (theta, w) atoms with w > 0 at pairwise distinct angles.  The
    measure is normalized to total mass one; the normalization constant
    is computed with the same panel scheme used for the moments.

    `support` optionally lists the theta intervals where the weight is
    nonzero, so quadrature panels align with e.g. arc endpoints.
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
            if not (w > 0.0) or not math.isfinite(w):
                raise MeasureIngestionError(f"point mass at {theta} has weight {w} <= 0")
        angles = sorted(t for t, _ in self.masses)
        for u, v in zip(angles, angles[1:]):
            if v - u < 1e-12:
                raise MeasureIngestionError(f"point masses collide at angle {u}")
        if weight is None:
            self.support = ()
        elif support is None:
            self.support = ((0.0, TWO_PI),)
        else:
            self.support = tuple((float(a), float(b)) for a, b in support)
            for a, b in self.support:
                if not b > a:
                    raise MeasureIngestionError(f"bad support interval ({a}, {b})")
        if int(panels) < 1:
            raise MeasureIngestionError(f"panel count must be >= 1, got {panels}")
        self.panels = int(panels)
        self._node_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._norm_cache: dict[int, float] = {}

    # -- quadrature machinery ------------------------------------------------

    def _nodes(self, panels: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes and raw weights W_i with sum W_i f(t_i) ~ int f w dtheta/2pi."""
        if panels in self._node_cache:
            return self._node_cache[panels]
        if self.weight is None:
            out = (np.empty(0), np.empty(0))
            self._node_cache[panels] = out
            return out
        total_len = sum(b - a for a, b in self.support)
        thetas, weights = [], []
        remaining = panels
        for idx, (a, b) in enumerate(self.support):
            if idx == len(self.support) - 1:
                count = remaining
            else:
                count = max(1, round(panels * (b - a) / total_len))
                count = min(count, remaining - (len(self.support) - 1 - idx))
            remaining -= count
            edges = np.linspace(a, b, count + 1)
            half = np.diff(edges) / 2.0
            mid = (edges[:-1] + edges[1:]) / 2.0
            t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
            w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
            thetas.append(t)
            weights.append(w)
        t = np.concatenate(thetas)
        w = np.concatenate(weights)
        dens = np.asarray(self.weight(t), dtype=float)
        if dens.shape != t.shape:
            raise MeasureIngestionError("weight function must return one value per angle")
        if np.any(dens < 0) or not np.all(np.isfinite(dens)):
            raise MeasureIngestionError("weight function produced negative or non-finite values")
        out = (t, w * dens / TWO_PI)
        self._node_cache[panels] = out
        return out

    def normalization(self, panels: int | None = None) -> float:
        """Total raw mass (weight integral plus atoms) before normalization."""
        panels = self.panels if panels is None else int(panels)
        if panels not in self._norm_cache:
            _, w = self._nodes(panels)
            total = float(w.sum()) + sum(m for _, m in self.masses)
            if not math.isfinite(total) or total <= 1e-300:
                raise MeasureIngestionError(
                    f"measure is not normalizable (raw total mass {total})"
                )
            self._norm_cache[panels] = total
        return self._norm_cache[panels]

    def integrate(self, f: Callable[[np.ndarray], np.ndarray], panels: int | None = None) -> complex:
        """Integral of f(theta) against the normalized measure."""
        panels = self.panels if panels is None else int(panels)
        norm = self.normalization(panels)
        t, w = self._nodes(panels)
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
    span = (float(theta_end) - float(theta_start)) % TWO_PI
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
    """Measure with density 1/|phi_N|^2, whose coefficients are `alphas` then zeros."""
    avec = [complex(a) for a in alphas]
    seq = ExplicitSequence(avec, tail=0.0)
    order = len(avec)

    def weight(t):
        from .szego import eval_pair

        pv = eval_pair(seq, order, np.exp(1j * np.asarray(t)))
        return 1.0 / np.abs(pv.phi) ** 2

    return MeasureSpec(weight=weight, panels=panels)


def moment(measure: MeasureSpec, k: int, panels: int | None = None) -> complex:
    """Trigonometric moment c_k = integral of exp(-ik theta) dmu."""
    if k < 0:
        raise ValueError("moment index must be >= 0 (negative moments are conjugates)")
    return measure.integrate(lambda t: np.exp(-1j * k * t), panels=panels)


class MomentTable:
    """Moments c_0..c_K of a probability measure (c_{-k} = conj(c_k))."""

    def __init__(self, c: Sequence[complex]):
        self.c = np.asarray(c, dtype=complex)
        if self.c.ndim != 1 or self.c.size == 0:
            raise ValueError("moment table must be a nonempty vector")
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


def moments_table(measure: MeasureSpec, order: int, panels: int | None = None) -> MomentTable:
    """Moments c_0..c_order computed against the normalized measure."""
    panels = measure.panels if panels is None else int(panels)
    norm = measure.normalization(panels)
    t, w = measure._nodes(panels)
    c = np.empty(order + 1, dtype=complex)
    if t.size:
        step = np.exp(-1j * t)
        cur = w.astype(complex)
        for k in range(order + 1):
            c[k] = cur.sum()
            cur *= step
    else:
        c[:] = 0.0
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


def sequence_from_measure(
    measure: MeasureSpec, count: int, panels: int | None = None
) -> ExplicitSequence:
    """Ingest a measure: moments by quadrature, then the Toeplitz recursion."""
    table = moments_table(measure, count, panels=panels)
    return ExplicitSequence(verblunsky_from_moments(table, count))


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
    ill-conditioned); otherwise complex floats.
    """
    if dps is None:
        span = (float(theta_end) - float(theta_start)) % TWO_PI
        total = ac_mass + sum(w for _, w in masses)
        c = []
        for k in range(order + 1):
            if k == 0:
                raw = complex(ac_mass)
            else:
                ea = np.exp(-1j * k * theta_start)
                eb = np.exp(-1j * k * (theta_start + span))
                raw = ac_mass * (ea - eb) / (1j * k * span)
            raw += sum(w * np.exp(-1j * k * t) for t, w in masses)
            c.append(raw / total)
        return MomentTable(c)
    from mpmath import mp, mpc

    with mp.workdps(dps):
        start = mp.mpf(theta_start)
        span = mp.mpf(theta_end) - mp.mpf(theta_start)
        if span <= 0:
            span += 2 * mp.pi
        acm = mp.mpf(ac_mass)
        total = acm + mp.fsum(mp.mpf(w) for _, w in masses)
        out = []
        for k in range(order + 1):
            if k == 0:
                raw = mpc(acm)
            else:
                ea = mp.expjpi(-k * start / mp.pi)
                eb = mp.expjpi(-k * (start + span) / mp.pi)
                raw = acm * (ea - eb) / (mpc(0, 1) * k * span)
            for t, w in masses:
                raw += mp.mpf(w) * mp.expjpi(-k * mp.mpf(t) / mp.pi)
            out.append(raw / total)
        return out


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
    coefficients are rounded to complex floats.
    """
    from mpmath import mp, mpc
    from mpmath.libmp import to_fixed

    with mp.workdps(dps):
        bits = mp.prec + HP_GUARD_BITS
        cc = [mpc(v)._mpc_ for v in c]
    if len(cc) < count + 1:
        raise ValueError(f"need moments up to c_{count}, got {len(cc) - 1}")
    # moments c_k = (cr[k] + i ci[k]) / 2^bits
    cr = [to_fixed(v[0], bits) for v in cc]
    ci = [to_fixed(v[1], bits) for v in cc]
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
        # <z Phi_m, 1> = sum_j phi_j conj(c_{j+1}), at scale 2^(2 bits)
        sr, si = cr[1 : m + 2], ci[1 : m + 2]
        num_r = sum(map(mul, pr, sr)) + sum(map(mul, pi, si))
        num_i = sum(map(mul, pi, sr)) - sum(map(mul, pr, si))
        # ca = num / ||Phi_m||^2 at scale 2^bits
        ar, ai = num_r // den, num_i // den
        mod = math.hypot(ar / one, ai / one)
        if 1.0 - mod * mod < EPS_PD:
            raise ConditioningError(
                m, f"predicted coefficient {m} has modulus {mod:.12g} (hp)"
            )
        alphas.append(complex(ar / one, -ai / one))
        den = (den * (one * one - ar * ar - ai * ai)) >> (2 * bits)
        # Phi_{m+1} = z Phi_m - ca Phi_m^*, with Phi_m^*_j = conj(phi_{m-j})
        rr, ri = pr[::-1], pi[::-1]
        pr = [x - ((ar * u + ai * v) >> bits) for x, u, v in zip([0] + pr, rr, ri)] + [one]
        pi = [y - ((ai * u - ar * v) >> bits) for y, u, v in zip([0] + pi, rr, ri)] + [0]
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
                if abs(value) >= 1.0:
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
    if not isinstance(doc, dict):
        raise SpecFileError(path, None, "measure document must be a JSON object")
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
