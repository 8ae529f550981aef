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
(grids, bisection) cost one recursion pass each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import VerblunskySequence, unit_circle_point
from .szego import _as_points, _maybe_scalar, _pair, _szego_levels

DEFINITIONS = ("kernel", "level_n", "level_nm1")


@dataclass
class RealFormValue:
    """One sample of the rotated real-valued trace on the circle.

    theta is the offset from the base point (z = lambda e^{i theta});
    imag_residual is the leftover imaginary part, which should vanish.
    """

    value: float
    imag_residual: float
    theta: float


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
        self._lam_phi = None  # phi_j(lam), j = 0..n
        self._lam_star = None  # phi_j*(lam), j = 0..n

    def __repr__(self):
        return f"ParaPolynomial({self.kind!r}, n={self.n}, lam={self.lam})"

    # values of the base-point polynomials, all levels at once
    def _lambda_values(self):
        if self._lam_phi is None:
            rows = _szego_levels(self.seq.alphas(self.n), self.lam, range(self.n + 1))
            self._lam_phi, self._lam_star = rows[:, 0], rows[:, 1]
        return self._lam_phi, self._lam_star

    def _z_alphas(self, count: int) -> np.ndarray:
        """Coefficients of the z-side pair: phi (first kind) or psi (second, negated)."""
        a = self.seq.alphas(count)
        return -a if self.kind == "second" else a


def _eval_with_scale(p: ParaPolynomial, z: np.ndarray, definition: str):
    """Value and a per-point magnitude scale (largest term entering it)."""
    lam_phi, lam_star = p._lambda_values()
    sign = -1.0 if p.kind == "first" else 1.0
    if definition == "kernel":
        weights = np.conj(lam_phi[: p.n])
        _, acc, scale = _szego_levels(p._z_alphas(p.n - 1), z, (), weights=weights)
        factor = np.conj(p.lam) * (p.lam - z)
        if p.kind == "first":
            return factor * acc, np.abs(factor) * scale
        return 2.0 - factor * acc, np.maximum(np.abs(factor) * scale, 2.0)
    if definition == "level_n":
        phi, ps = _pair(p._z_alphas(p.n), z)
        t1 = np.conj(lam_star[p.n]) * ps
        t2 = np.conj(lam_phi[p.n]) * phi
        return t1 + sign * t2, np.maximum(np.abs(t1), np.abs(t2))
    if definition == "level_nm1":
        phi, ps = _pair(p._z_alphas(p.n - 1), z)
        t1 = np.conj(lam_star[p.n - 1]) * ps
        t2 = z * np.conj(p.lam) * np.conj(lam_phi[p.n - 1]) * phi
        return t1 + sign * t2, np.maximum(np.abs(t1), np.abs(t2))
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
    lam_phi, lam_star = p._lambda_values()
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

    lam_phi, _ = p._lambda_values()
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


def real_form(p: ParaPolynomial, theta: float) -> RealFormValue:
    """The rotated real-valued trace at a single angle offset from lambda."""
    values, residuals, _ = real_form_grid(p, [float(theta)])
    return RealFormValue(float(values[0]), float(residuals[0]), float(theta))


def _trace_at_levels(p: ParaPolynomial, thetas, n_for_each) -> np.ndarray:
    """Real trace where each sample carries its own degree, up to p's.

    The samples share p's kind, base point and coefficients.  One
    recursion pass to the maximum degree serves every sample; this is
    what lets degree sweeps batch their bracket refinements.  Samples
    are sorted by degree, deepest first, so each level updates a prefix.
    """
    th = np.asarray(thetas, dtype=float)
    nn = np.asarray(n_for_each, dtype=int)
    if th.size == 0:
        return np.empty(0)
    order = np.argsort(-nn, kind="stable")
    th, nn = th[order], nn[order]
    z = p.lam * np.exp(1j * th)
    lam_phi, lam_star = p._lambda_values()
    want = nn - 1  # z-side values are taken at level n-1
    top = int(want[0])
    active = np.searchsorted(-want, -np.arange(1, top + 1), side="right")
    phi, ps = _szego_levels(p._z_alphas(top), z, (top,), active)[0]
    t1 = np.conj(lam_star[want]) * ps
    t2 = z * np.conj(p.lam) * np.conj(lam_phi[want]) * phi
    val = t1 - t2 if p.kind == "first" else t1 + t2
    tr = val * np.exp(-0.5j * nn * th)
    if p.kind == "first":
        tr = tr * -1j
    out = np.empty(th.size)
    out[order] = tr.real
    return out
