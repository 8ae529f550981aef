"""First- and second-kind paraorthogonal polynomials pinned at a circle point.

A polynomial is the tuple (kind, degree n, base point lambda, coefficient
source) and is evaluated on demand; no monomial coefficients are ever
extracted.  Three equivalent evaluation routes exist per kind:

    kind "first", vanishing at lambda:
        kernel:    conj(lam) (lam - z) * sum_{j<n} conj(phi_j(lam)) phi_j(z)
        level_n:   conj(phi_n*(lam)) phi_n*(z) - conj(phi_n(lam)) phi_n(z)
        level_nm1: conj(phi*_{n-1}(lam)) phi*_{n-1}(z)
                   - z conj(lam) conj(phi_{n-1}(lam)) phi_{n-1}(z)

    kind "second", equal to 2 at lambda (psi_j from the flipped coefficients):
        kernel:    2 - conj(lam) (lam - z) * sum_{j<n} conj(phi_j(lam)) psi_j(z)
        level_n:   conj(phi_n*(lam)) psi_n*(z) + conj(phi_n(lam)) psi_n(z)
        level_nm1: conj(phi*_{n-1}(lam)) psi*_{n-1}(z)
                   + z conj(lam) conj(phi_{n-1}(lam)) psi_{n-1}(z)

The pinned-point prefactor is written conj(lam)(lam - z) rather than
(1 - conj(lam) z) so that it vanishes bit-exactly at z = lam; the two
agree up to the admission tolerance of lambda.

Values at the base point are cached on the polynomial, so sweeps over z
(grids, bracket refinement) cost one recursion pass each.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .coeffs import VerblunskySequence, unit_circle_point
from .szego import _as_points, _level_form, _maybe_scalar, _pair, _szego_levels

DEFINITIONS = ("kernel", "level_n", "level_nm1")
# a group of phase levels (see _phase_levels) closes before the level
# that would bring its sum of asin|alpha_k| to this; below pi, so the
# argument of a group's product of q_k never wraps
PHASE_GROUP = 0.9 * np.pi


class ParaPolynomial:
    """Degree-n paraorthogonal polynomial of the first or second kind."""

    def __init__(self, kind: str, n: int, lam: complex, seq: VerblunskySequence):
        if kind not in ("first", "second"):
            raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
        if n < 1:
            raise ValueError(f"degree must be >= 1, got {n}")
        self.kind = kind
        self.n = int(n)
        self.lam = unit_circle_point(lam)
        self.seq = seq

    def __repr__(self):
        return f"ParaPolynomial({self.kind!r}, n={self.n}, lam={self.lam})"

    @cached_property
    def _lambda_values(self):
        """phi_j(lam) and phi_j*(lam), j = 0..n, from one recursion pass."""
        rows = _szego_levels(self.seq.alphas(self.n), self.lam, range(self.n + 1))
        return rows[:, 0], rows[:, 1]

    def _z_alphas(self, count: int) -> np.ndarray:
        """Coefficients of the z-side pair: phi (first kind) or psi (second, negated)."""
        a = self.seq.alphas(count)
        return -a if self.kind == "second" else a


def _eval_with_scale(p: ParaPolynomial, z: np.ndarray, definition: str):
    """Value and a per-point magnitude scale (largest term entering it)."""
    lam_phi, lam_star = p._lambda_values
    if definition == "kernel":
        weights = np.conj(lam_phi[: p.n])
        _, acc, scale = _szego_levels(p._z_alphas(p.n - 1), z, (), weights=weights)
        factor = np.conj(p.lam) * (p.lam - z)
        if p.kind == "first":
            return factor * acc, np.abs(factor) * scale
        return 2.0 - factor * acc, np.maximum(np.abs(factor) * scale, 2.0)
    if definition in ("level_n", "level_nm1"):
        m = p.n if definition == "level_n" else p.n - 1
        zy = 1 if m == p.n else z * np.conj(p.lam)
        return _level_form((lam_phi[m], lam_star[m]), _pair(p._z_alphas(m), z), zy,
                           -1 if p.kind == "first" else 1)
    raise ValueError(f"definition must be one of {DEFINITIONS}, got {definition!r}")


def para_eval(p: ParaPolynomial, z, definition: str = "level_nm1"):
    """Evaluate the polynomial at z by the chosen definition."""
    zz, scalar = _as_points(z)
    value, _ = _eval_with_scale(p, zz, definition)
    return _maybe_scalar(value, scalar)


def para_scale(p: ParaPolynomial, z, definition: str = "level_nm1"):
    """Magnitude of the largest term entering the evaluation at z.

    Residual statements like "vanishes at lambda" are relative to this.
    """
    zz, scalar = _as_points(z)
    _, scale = _eval_with_scale(p, zz, definition)
    return float(scale[()]) if scalar else scale


def beta_coefficient(p: ParaPolynomial) -> complex:
    """The unimodular recursion coefficient that pins the zero at lambda.

    First kind: conj(lam) phi*_{n-1}(lam) / phi_{n-1}(lam); second kind
    is its negation.
    """
    lam_phi, lam_star = p._lambda_values
    beta = np.conj(p.lam) * lam_star[p.n - 1] / lam_phi[p.n - 1]
    return complex(-beta) if p.kind == "second" else complex(beta)


def kernel_to_monic_factor(p: ParaPolynomial) -> complex:
    """Scalar C with p(z) = C * (z P_{n-1}(z) - conj(beta) P*_{n-1}(z)).

    P denotes the monic polynomials of the relevant coefficient sequence
    (plain for kind "first", flipped for kind "second"); dividing an
    evaluation by C recovers the monic-normalized combination, so inner
    product identities stated for that normalization can be tested.
    """
    from .szego import monic_norm

    lam_phi, _ = p._lambda_values
    c = np.conj(p.lam * lam_phi[p.n - 1]) / monic_norm(p.seq, p.n - 1)
    return complex(-c) if p.kind == "first" else complex(c)


def real_form_grid(p: ParaPolynomial, thetas):
    """Vectorized real trace along z = lambda e^{i theta}.

    Returns (values, imag_residuals, scales).  The branch factor is
    e^{-i n theta / 2} with theta taken in [0, 2pi); for odd n the trace
    flips sign across theta = 0, which is exactly where the pinned zero
    (kind "first") or the value 2 (kind "second") sits, so the cut never
    lands inside a search bracket.
    """
    th = np.asarray(thetas, dtype=float)
    z = p.lam * np.exp(1j * th)
    value, scale = _eval_with_scale(p, z, "level_nm1")
    t = value * np.exp(-0.5j * p.n * th)
    if p.kind == "first":
        t = t * -1j
    return t.real, np.abs(t.imag), scale


def _trace_from(p: ParaPolynomial, pair, z, th, n, lam=None):
    """Real trace at z = lambda e^{i th} of degree n (one for all points
    or one each) and its value, from the z-side pair at level n - 1 and
    lambda's pairs lam to level n - 1 or more (p's _lambda_values if None)."""
    lam_phi, lam_star = p._lambda_values if lam is None else lam
    val, _ = _level_form((lam_phi[n - 1], lam_star[n - 1]), pair, z * np.conj(p.lam),
                         -1 if p.kind == "first" else 1)
    tr = val * np.exp(-0.5j * n * th)
    if p.kind == "first":
        tr = tr * -1j
    return tr.real, val


def _trace_at_levels(p: ParaPolynomial, thetas, n_for_each) -> np.ndarray:
    """Real trace where each sample carries its own degree, up to p's.

    The samples share p's kind, base point and coefficients, and come
    deepest first: their degrees do not increase, so each step of one
    recursion pass to the first sample's degree updates a prefix of
    them (the active mode of szego._szego_levels).  Values come back in
    the samples' order.  Degree sweeps batch their bracket refinements
    this way (see zeros._at_levels).
    """
    if np.size(thetas) == 0:
        return np.empty(0)
    th, nn = np.asarray(thetas, dtype=float), np.asarray(n_for_each, dtype=int)
    z = p.lam * np.exp(1j * th)
    active = np.searchsorted(1 - nn, -np.arange(1, nn[0]), side="right")
    top = int(nn[0]) - 1  # z-side values are taken at level n-1
    return _trace_from(p, _szego_levels(p._z_alphas(top), z, (top,), active)[0], z, th, nn)[0]


def _phase_groups(alphas) -> list:
    """The levels at which _phase_levels closes a group: greedy from
    level 0, a group takes levels while their asin|alpha_k| add up to
    less than PHASE_GROUP.  Each end depends only on the coefficients
    before it, so a prefix of alphas gets the leading ends."""
    ends, total = [], 0.0
    for k, width in enumerate(np.arcsin(np.abs(alphas)).tolist()):
        if total + width >= PHASE_GROUP:
            ends.append(k)
            total = 0.0
        total += width
    return ends


def _phase_levels(alphas, z, levels, active=None) -> list:
    """sum_{k < L} arg q_k of the b_k recursion (see _phase_at_levels) at
    each level L of levels, from one pass over the m coefficients of
    alphas; levels within 0..m, active as in szego._szego_levels, and
    one array per level.

    The sum takes one arctan2 per group of levels (_phase_groups), of
    the product P of its q_k: |arg q_k| <= asin|alpha_k|, so a group's
    args add up to less than PHASE_GROUP < pi, and arg P is their sum
    with no wrap (|P| stays below e^PHASE_GROUP).  The recursion runs
    through P itself: from a group's first level g, b_k = w_k conj(P_k) /
    P_k with w_k = b_g z^(k-g), so P_{k+1} = q_k P_k = P_k - alpha_k w_k
    conj(P_k) takes no division, and one division per group gives b at
    its end.  A point's open group is also closed where its row is read
    or it leaves the active prefix; the group ends come from the
    coefficients alone, so a point gets the same value in a batch, in a
    nested pass or alone.
    """
    row_of = {level: i for i, level in enumerate(levels)}
    ends = set(_phase_groups(alphas))
    w, acc, rows = z.copy(), np.zeros(z.size), [None] * len(levels)
    prod, live = np.ones(z.size, dtype=complex), z.size
    for k in range(len(alphas) + 1):
        c = 0 if k == len(alphas) else z.size if active is None else active[k]
        if k in ends:
            acc[:live] += np.angle(prod[:live])
            w[:c] *= np.conj(prod[:c]) / prod[:c]
            prod[:c] = 1.0
        elif c < live:
            acc[c:live] += np.angle(prod[c:live])
        live = c
        if k in row_of:
            rows[row_of[k]] = acc.copy()
            if k not in ends:
                rows[row_of[k]][:c] += np.angle(prod[:c])
        if k == len(alphas):
            break
        prod[:c] -= alphas[k] * (w[:c] * np.conj(prod[:c]))
        w[:c] *= z[:c]
    return rows


def _lift(p: ParaPolynomial, acc, th, n) -> np.ndarray:
    """The lifted phase in turns of degree n from its sum of arg q_k."""
    return (n * (np.angle(p.lam) + th) - 2.0 * acc) / (2.0 * np.pi)


def _phase_at_levels(p: ParaPolynomial, thetas, n_for_each) -> np.ndarray:
    """Lifted argument, in turns, of b(z) = z phi_{n-1}(z) / phi*_{n-1}(z)
    at z = lambda e^{i theta}, each sample at its own degree n up to p's.

    The pair is the z-side one of the trace (psi for the second kind).
    b is a Blaschke product of degree n, so its argument rises strictly,
    by n turns per turn of z (Simon, OPUC, AMS 2005), and the trace
    vanishes exactly where b takes one unimodular value.  With b_0 = z
    and q_k = 1 - alpha_k b_k, b_{k+1} = z b_k conj(q_k) / q_k; since Re
    q_k >= 1 - |alpha_k| > 0, each arg q_k lies in (-pi/2, pi/2) and the
    lift is arg b = n arg z - 2 sum_{k < n-1} arg q_k with no unwrapping,
    where arg z = arg lambda + theta.  Every factor is unimodular, so
    nothing overflows whatever the degree.  The samples come deepest
    first and the values back in their order, as in _trace_at_levels.
    """
    if np.size(thetas) == 0:
        return np.empty(0)
    th, nn = np.asarray(thetas, dtype=float), np.asarray(n_for_each, dtype=int)
    z = p.lam * np.exp(1j * th)
    active = np.searchsorted(1 - nn, -np.arange(1, nn[0]), side="right")
    top = int(nn[0]) - 1
    return _lift(p, _phase_levels(p._z_alphas(top), z, (top,), active)[0], th, nn)


def _nested_levels(p: ParaPolynomial, thetas, widths: dict) -> dict:
    """Phase and trace of each degree n of widths at the widths[n] leading
    samples, from one pass of each recursion to the highest degree.

    The samples share p's kind, base point and coefficients, as in
    _phase_at_levels and _trace_at_levels, whose values these are.  Each
    degree's points are a prefix of thetas: every sample walks to the
    highest degree, and degree n reads its prefix off the row at level
    n - 1, so a sweep's nested grids cost one pass over the largest.
    Returns {n: (phase, trace)}.
    """
    th = np.asarray(thetas, dtype=float)
    z = p.lam * np.exp(1j * th)
    degrees = sorted(widths)
    levels, kept = [n - 1 for n in degrees], [widths[n] for n in degrees]
    alphas = p._z_alphas(levels[-1])
    acc, pairs = _phase_levels(alphas, z, levels), _szego_levels(alphas, z, levels)
    return {n: (_lift(p, a[:w], th[:w], n), _trace_from(p, pair[:, :w], z[:w], th[:w], n)[0])
            for n, w, a, pair in zip(degrees, kept, acc, pairs)}
