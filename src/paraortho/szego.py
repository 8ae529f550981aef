"""Orthonormal polynomial evaluation and Christoffel-Darboux kernels.

Everything here is pointwise: the coupled recursion

    phi_n  = (z phi_{n-1} - conj(a_{n-1}) phi*_{n-1}) / rho_{n-1}
    phi*_n = (phi*_{n-1} - a_{n-1} z phi_{n-1}) / rho_{n-1}

with rho_j = (1 - |a_j|^2)^{1/2} produces orthonormal values directly.
`eval_pair` also reports log ||Phi_n||, the sum of the log rho_j, but no
pass carries a norm or rescales: the values grow with the degree where
the coefficients do not decay, and can leave double range (the trace of
const 0.95 at lambda = pi overflows near z = 1 at n = 400).  `z` may be
a scalar or any ndarray; results broadcast.

Every float64 pass of the recursion, here and in the para and precision
modules (the second kind on the negated coefficients), runs through
`_szego_levels`: per level one product z phi and the fixed 2 x 2 step
(phi, phi*) <- K_j (z phi, phi*),
K_j = (1 / rho_j) [[1, -conj(a_j)], [-a_j, 1]], both into preallocated
buffers, over blocks of BLOCK points at a time.  Every closed form at
one level, here and in the para module, is `_level_form`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularKernelError

if TYPE_CHECKING:
    from .coeffs import VerblunskySequence

# below this, the closed-form kernel quotients have lost too much
# precision to be meaningful; callers are pointed at the summed form
DIAGONAL_GUARD = 1e-8

KERNEL_MODES = ("sum", "closed_level_n", "closed_level_nm1")


@dataclass
class PolyPairValue:
    """Orthonormal values phi_n(z), phi_n*(z) and log ||Phi_n||."""

    phi: complex | np.ndarray
    phi_star: complex | np.ndarray
    log_norm: float


def _as_points(z):
    arr = np.asarray(z, dtype=complex)
    return arr, (arr.ndim == 0)


def _maybe_scalar(value, scalar: bool):
    return complex(value[()]) if scalar else value


def _rho(alphas: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 - np.abs(alphas) ** 2)


# points the recursion kernel carries at once: its two (2, BLOCK) complex
# buffers stay in cache, and its working set does not grow with the
# number of points
BLOCK = 4096


def _szego_levels(alphas, z, levels, active=None, weights=None, peak=False):
    """The pairs (phi_j(z), phi_j*(z)) at the given levels, from one pass.

    alphas holds the m coefficients to run (negated for the second
    kind), z is a complex array of any shape, and levels increase within
    0..m.  Returns rows of shape (len(levels), 2) + z.shape.  Every
    point walks every level, so a caller whose point sets nest, each a
    prefix of z, reads each set off its own level's row.

    Three modes change that.  active, for a flat z ordered deepest point
    first: active[j] leading points take step j (level j to j + 1) and
    the others keep their last values, so the row at level L holds each
    point at min(L, its depth).  weights, one per level 0..m (a scalar
    each, or an array of z's shape), without active: the kernel then
    returns (rows, sum, largest), the sum over j of weights[j] phi_j(z)
    and the largest such term in modulus.  peak, with or without active:
    the kernel then returns (rows, peak), each point's running magnitude
    max |phi_j(z)| over the levels it walks, 0 to min(m, its depth).
    """
    a = np.asarray(alphas, dtype=complex)
    shape = np.shape(z)
    zf = np.asarray(z, dtype=complex).reshape(-1)
    size = zf.size
    r = 1.0 / _rho(a)
    k = list(np.stack([r, -np.conj(a) * r, -a * r, r], axis=-1).reshape(-1, 2, 2))
    rows, peaks = np.empty((len(levels), 2, size), dtype=complex), np.ones(size)
    row_of = {level: i for i, level in enumerate(levels)}
    if weights is not None:
        w = np.asarray(weights, dtype=complex)
        w = w.reshape(w.shape[0], -1)
        total, largest = np.zeros(size, dtype=complex), np.zeros(size)
    buf = np.empty((2, 2, min(size, BLOCK)), dtype=complex)
    for b0 in range(0, size, BLOCK):
        zb = zf[b0 : b0 + BLOCK]
        width = zb.size
        if active is None:
            counts = [width] * a.size
        else:
            counts = np.clip(np.asarray(active)[: a.size] - b0, 0, width).tolist()
        steps = sum(c > 0 for c in counts)
        if weights is not None:
            wb = w if w.shape[1] == 1 else w[:, b0 : b0 + width]
            acc, big = total[b0 : b0 + width], largest[b0 : b0 + width]
            term, mag = np.empty(width, dtype=complex), np.empty(width)
        # the pair alternates between the two buffers, level j in full[j % 2];
        # a point holds the same values in both once it has left the
        # prefix, and views are cut again only when the prefix shrinks
        full = buf[0, :, :width], buf[1, :, :width]
        cur, nxt = full
        cur.fill(1.0)
        live, zc, head, head_nxt = width, zb, cur[0], nxt[0]
        for j in range(steps + 1):
            if j in row_of:
                rows[row_of[j], :, b0 : b0 + width] = full[j % 2]
            if weights is not None:
                np.multiply(wb[j], full[j % 2][0], out=term)
                np.add(acc, term, out=acc)
                np.maximum(big, np.abs(term, out=mag), out=big)
            if j == steps:
                break
            c = counts[j]
            if c < live:
                nxt[:, c:live] = cur[:, c:live]
                live = c
                zc, cur, nxt = zb[:c], cur[:, :c], nxt[:, :c]
                head, head_nxt = cur[0], nxt[0]
            np.multiply(zc, head, out=head)
            np.matmul(k[j], cur, out=nxt)
            cur, nxt, head, head_nxt = nxt, cur, head_nxt, head
            if peak:
                np.maximum(peaks[b0 : b0 + c], np.abs(head), out=peaks[b0 : b0 + c])
        for level in levels:
            if level > steps:
                rows[row_of[level], :, b0 : b0 + width] = full[steps % 2]
    rows = rows.reshape((len(levels), 2) + shape)
    if peak:
        return rows, peaks.reshape(shape)
    if weights is None:
        return rows
    return rows, total.reshape(shape), largest.reshape(shape)


def _pair(alphas, z):
    """(phi, phi*) at level len(alphas)."""
    return _szego_levels(alphas, z, (len(alphas),))[0]


def _kernel_sum(a_z, z, a_y, y):
    """sum_{j <= m} conj(p_j(y)) q_j(z) over broadcast z and y.

    p runs on the coefficients a_y and q on a_z, m of each.  Every level
    of p at y is held (m + 1 values per point when y is an array); z goes
    through the kernel's weighted sum.
    """
    shape = np.broadcast_shapes(z.shape, y.shape)
    w = np.conj(_szego_levels(a_y, y, range(a_y.size + 1))[:, 0])
    if y.ndim:
        w = np.broadcast_to(w, w.shape[:1] + shape)
    return _szego_levels(a_z, np.broadcast_to(z, shape), (), weights=w)[1]


def eval_pair(seq: "VerblunskySequence", n: int, z) -> PolyPairValue:
    """Evaluate the orthonormal pair at level n (phi_0 = phi_0* = 1)."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    zz, scalar = _as_points(z)
    a = seq.alphas(n)
    phi, ps = _pair(a, zz)
    log_norm = float(np.log(_rho(a)).sum()) if n else 0.0
    return PolyPairValue(_maybe_scalar(phi, scalar), _maybe_scalar(ps, scalar), log_norm)


def eval_second_kind(seq: "VerblunskySequence", n: int, z) -> PolyPairValue:
    """Same contract as eval_pair, applied to the sign-flipped coefficients."""
    return eval_pair(seq.flipped(), n, z)


def monic_norm(seq: "VerblunskySequence", n: int) -> float:
    """||Phi_n|| = prod_{j<n} (1 - |alpha_j|^2)^{1/2}."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    return float(np.prod(_rho(seq.alphas(n)))) if n else 1.0


def _guard_diagonal(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    denom = 1.0 - np.conj(y) * z
    if np.min(np.abs(denom)) <= DIAGONAL_GUARD:
        raise SingularKernelError(
            "closed-form kernel requested with |1 - conj(y) z| <= 1e-8; use mode='sum'"
        )
    return denom


def _kernel_points(n: int, z, y):
    """z and y as complex arrays and whether both are scalars, for level n >= 1."""
    if n < 1:
        raise ValueError(f"kernel level must be >= 1, got {n}")
    zz, scalar_z = _as_points(z)
    yy, scalar_y = _as_points(y)
    return zz, yy, scalar_z and scalar_y


def _level_form(vy, vz, zy, sign):
    """The closed combine of a kernel at one level, and its scale.

    From the pairs vy = (P(y), P*(y)) and vz = (Q(z), Q*(z)) of one level:
    (t1 + sign t2, max(|t1|, |t2|)), t1 = conj(P*(y)) Q*(z), t2 = zy conj(P(y))
    Q(z), sign +-1, zy 1 at the kernel's degree and z conj(y) one level down.
    """
    t1 = np.conj(vy[1]) * vz[1]
    t2 = zy * np.conj(vy[0]) * vz[0]
    return (t1 + t2 if sign > 0 else t1 - t2), np.maximum(np.abs(t1), np.abs(t2))


def cd_kernel(seq: "VerblunskySequence", n: int, z, y, mode: str = "sum"):
    """Reproducing kernel K_{n-1}(z, y) = sum_{j<n} phi_j(z) conj(phi_j(y)).

    Three routes to the same number: the plain sum, and the two closed
    quotient forms (levels n and n-1 over 1 - conj(y) z).  The closed
    forms refuse to evaluate near the diagonal.
    """
    if mode not in KERNEL_MODES:
        raise ValueError(f"mode must be one of {KERNEL_MODES}, got {mode!r}")
    zz, yy, scalar = _kernel_points(n, z, y)
    if mode == "sum":
        a = seq.alphas(n - 1)
        return _maybe_scalar(_kernel_sum(a, zz, a, yy), scalar)
    denom = _guard_diagonal(yy, zz)
    at_n = mode == "closed_level_n"
    a = seq.alphas(n if at_n else n - 1)
    num, _ = _level_form(_pair(a, yy), _pair(a, zz), 1 if at_n else np.conj(yy) * zz, -1)
    return _maybe_scalar(num / denom, scalar)


def mixed_kernel(seq: "VerblunskySequence", n: int, z, y, mode: str = "sum"):
    """Mixed kernel sum_{j<n} conj(phi_j(y)) psi_j(z) and its closed form.

    The closed form is (2 - mixed_form at level n) / (1 - conj(y) z) and
    needs y != z.
    """
    if mode not in ("sum", "closed"):
        raise ValueError(f"mode must be 'sum' or 'closed', got {mode!r}")
    zz, yy, scalar = _kernel_points(n, z, y)
    if mode == "sum":
        a = seq.alphas(n - 1)
        return _maybe_scalar(_kernel_sum(-a, zz, a, yy), scalar)
    denom = _guard_diagonal(yy, zz)
    return _maybe_scalar((2.0 - mixed_form(seq, n, zz, yy, "n")) / denom, scalar)


def mixed_form(seq: "VerblunskySequence", n: int, z, y, level: str = "n"):
    """The two sides of the level identity for the mixed combination.

    level="n":   conj(phi_n*(y)) psi_n*(z) + conj(phi_n(y)) psi_n(z)
    level="nm1": conj(phi_{n-1}*(y)) psi_{n-1}*(z)
                 + z conj(y) conj(phi_{n-1}(y)) psi_{n-1}(z)

    Both equal the same degree-n combination; tests compare them.
    """
    if level not in ("n", "nm1"):
        raise ValueError(f"level must be 'n' or 'nm1', got {level!r}")
    zz, yy, scalar = _kernel_points(n, z, y)
    at_n = level == "n"
    a = seq.alphas(n if at_n else n - 1)
    out, _ = _level_form(_pair(a, yy), _pair(-a, zz), 1 if at_n else zz * np.conj(yy), 1)
    return _maybe_scalar(out, scalar)
