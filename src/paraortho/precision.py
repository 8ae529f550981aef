"""Order zeros of two families that collide in double precision.

`interlace` hands over the zero pairs of two sets that lie closer than
its collision tolerance.  For each pair, the zero x of one polynomial F
is refined by Newton steps and the other polynomial G is evaluated at
the refined zero; the sign of G's real trace there, set against the
sign pattern G has between its own zeros, says on which side of G's
colliding zero x lies.  A zero paired with the pinned base-point zero is
placed instead by the side of lambda its refined position lies on.  A
sign is accepted only where the value exceeds the stated bound on
everything that could have moved it; the points still open go on to the
next precision of LADDER.  Each precision is one pass over every open
point of an `order` call, with lambda as one more row.

All evaluations use the monic Szego recursion

    Phi_{j+1} = z Phi_j - conj(a_j) Phi*_j,    Phi*_{j+1} = Phi*_j - a_j z Phi_j,

which needs no square root and no division, so with double coefficients
every step is a product or a sum that double-double carries to 2^-104.
The flipped (second-kind) polynomials come from the same recursion
started at (1, -1): psi_j = Phi_j and psi*_j = -Phi*_j.  Monic values
differ from the orthonormal ones by positive factors, which changes no
sign, and the polynomial of either kind reads

    sigma (conj(L*) Q(z) - z conj(lam) conj(L) P(z)),

with (P, Q) the z-side pair at level n - 1, (L, L*) the plain pair at
lambda, and sigma = +1 (first kind) or -1 (second kind).

Passes: long double carries [value, d/dz, d2/dz2] of the pairs as (3,
rows) stacks (z P has the derivatives [z P, P + z P', 2 P' + z P'']),
decides at z0 = lambda e^{i x} from F, F', F'', G, G', G'' there, and
its second-order Newton step d0 = -F/F' - F'' F^2 / (2 F'^3) gives z1 =
z0 + d0.  Double-double, then Python-integer fixed point at the binary
precision p of 40 and 80 mpmath digits, evaluate values only, at z1 (the
fixed-point stages first continue the Newton steps in mpmath until they
fall below 2^-p).  With the derivatives at z0 carried to z1, the last
offset is d1 = -F(z1)/F'(z1) and G at the zero is G(z1) + G'(z1) d1.

Rounding bound: an n-level pass at unit roundoff u is trusted to
ROUNDING_FACTOR * n * u * S, where S >= 1 combines the running
magnitudes of the pass (the largest pair magnitude reached, not the
final one: near colliding zeros the recursion follows a decaying
solution, and the errors made at its peak dominate).  The factor is
empirical, with a wide margin: on zeros of the radius-0.7 corpus (seeds
1 to 15, degrees 60 to 150, both kinds) the float64 error stayed below
7 n u S (320 zeros) and the double-double pairs below 12 n u S (240
zeros).  Fixed point holds every number as an integer at scale 2^B, B =
p + FIXED_GUARD_BITS: sums are exact and each product, shifted back to
2^B, rounds by at most 2^-B <= u S, so the bound covers it too; the
pairs are then combined in mpmath, and the value bounds are the long
double ones rescaled by u / U_LONG.  Every decided sign agreed with
mpmath at 80 digits on 10,646 colliding pairs and pinned-zero sides
(seeds 1 to 15, same and consecutive degrees 60, 70, ..., 150).
"""

from __future__ import annotations

import math

import numpy as np

ROUNDING_FACTOR = 1024.0
# precisions in the order they are tried: (label, value pass), where the
# value pass is "long", "dd" or the mpmath decimal digits
LADDER = (("long double", "long"), ("double-double", "dd"), ("mpmath-40", 40), ("mpmath-80", 80))

LONG = np.longdouble
U_LONG = float(np.finfo(LONG).eps) / 2  # 2^-64 where long double is x87 extended
U_DOUBLE = 2.0**-53
U_DD = 2.0**-104
FIXED_GUARD_BITS = 16  # bits of the fixed-point scale below the working precision
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_CHUNK = 16  # levels whose product factors are prepared at once
_CONJ = np.array([[1.0], [-1.0]])
_DERIVATIVE = np.array([[1.0], [2.0]])


# ---------------------------------------------------------------------------
# double-double arithmetic on arrays (Dekker 1971; Hida, Li and Bailey 2001)
#
# A complex double-double vector of N entries is a pair (hi, lo) of real
# arrays of shape (2, N): row 0 the real parts, row 1 the imaginary parts.


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_diff(a, b):
    s = a - b
    bb = s - a
    return s, (a - (s - bb)) - (b + bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _times_dd(ahi, alo, bhi, blo):
    """Entrywise complex double-double product (broadcasting), normalized.

    With a stacked as [ar, ai, ar, ai] against b's factors [br, -bi, bi,
    br], the pairwise sums of the exact products are the real and
    imaginary parts of the product.
    """
    ahi, alo, bhi, blo = np.broadcast_arrays(ahi, alo, bhi, blo)
    f = np.stack([bhi[0], -bhi[1], bhi[1], bhi[0]])
    flo = np.stack([blo[0], -blo[1], blo[1], blo[0]])
    x = np.concatenate([ahi, ahi])
    p = x * f
    xh, xl = _split(x)
    fh, fl = _split(f)
    e = (((xh * fh - p) + xh * fl + xl * fh) + xl * fl) + (x * flo + np.concatenate([alo, alo]) * f)
    s, t = _two_sum(p[0::2], p[1::2])
    return _quick_two_sum(s, t + (e[0::2] + e[1::2]))


def _dd_point(z):
    """Long double complex points as double-double (hi, lo) of shape (2, N)."""
    hi = z.astype(complex)
    lo = (z - hi).astype(complex)
    return np.stack([hi.real, hi.imag]), np.stack([lo.real, lo.imag])


def _dd_pairs(alphas: np.ndarray, z: np.ndarray, star0, levels: set[int]):
    """Monic pairs (Phi_l, Phi*_l) at the long double points z, in double-double.

    Each level is one stacked product [z Phi | conj(a) Phi* | (a z) Phi]
    against factors prepared _CHUNK levels at a time, a z among them as
    an exact double-double product.  Returns {level: (hi, lo, mag)}: hi
    and lo have shape (2, 2k), the first k columns Phi and the last k
    Phi*; mag is the running magnitude of each point.
    """
    k = z.size
    top = max(levels)
    (zr, zi), (zr_lo, zi_lo) = _dd_point(z)
    a = alphas[:top, None]
    ar, ai = a.real, a.imag

    def two_prod(x, y):
        p = x * y
        (xh, xl), (yh, yl) = _split(x), _split(y)
        return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl

    (p1, e1), (p2, e2), (p3, e3), (p4, e4) = (two_prod(ar, zr), two_prod(ai, zi),
                                              two_prod(ar, zi), two_prod(ai, zr))
    az_r, ez_r = _two_diff(p1, p2)
    az_i, ez_i = _two_sum(p3, p4)
    az_rl = ez_r + (e1 - e2) + (ar * zr_lo - ai * zi_lo)
    az_il = ez_i + (e3 + e4) + (ar * zi_lo + ai * zr_lo)
    hi = np.zeros((2, 2 * k))
    hi[0, :k] = 1.0
    hi[0, k:] = star0
    lo = np.zeros_like(hi)
    mag = np.ones(k)
    out = {}
    for j in range(top + 1):
        if j in levels:
            out[j] = (hi, lo, mag)
        if j == top:
            return out
        if j % _CHUNK == 0:
            # factors [cr, -ci, ci, cr] of every column for the next levels: (chunk, 4, 3k)
            c = slice(j, min(j + _CHUNK, top))
            size = c.stop - c.start
            f = np.empty((size, 4, 3 * k))
            flo = np.zeros_like(f)
            for dest, col, re, im in ((f, 0, zr, zi), (f, 1, ar[c], -ai[c]), (f, 2, az_r[c], az_i[c]),
                                      (flo, 0, zr_lo, zi_lo), (flo, 2, az_rl[c], az_il[c])):
                dest[:, :, col * k : (col + 1) * k] = np.stack(
                    [np.broadcast_to(v, (size, k)) for v in (re, -im, im, re)], axis=1)
            fh, fl = _split(f)
        q = j % _CHUNK
        xhi = np.concatenate([hi, hi[:, :k]], axis=1)
        x = np.concatenate([xhi, xhi])
        xlo = np.concatenate([lo, lo[:, :k]], axis=1)
        p = x * f[q]
        xh, xl = _split(x)
        e = (((xh * fh[q] - p) + xh * fl[q] + xl * fh[q]) + xl * fl[q]) + (
            np.concatenate([xlo, xlo]) * f[q] + x * flo[q])
        s, t = _two_sum(p[0::2], p[1::2])  # [z Phi | conj(a) Phi* | a z Phi], unnormalized
        t += e[0::2] + e[1::2]
        # Phi <- z Phi - conj(a) Phi*,  Phi* <- Phi* - a z Phi
        d, e = _two_diff(np.concatenate([s[:, :k], hi[:, k:]], axis=1), s[:, k:])
        e += np.concatenate([t[:, :k], lo[:, k:]], axis=1) - t[:, k:]
        hi, lo = _quick_two_sum(d, e)
        mag = np.maximum(mag, np.abs(hi[:, :k]).sum(axis=0))


def _rows(groups, z):
    """Rows of one pass: the points z[i] of group (f, g, ...) once per kind
    among f and g, then lambda.  Returns the points, the start of Phi* per
    row (1 first kind, -1 second) and per group the (polynomial, columns)
    of f and, if not None, g, and the levels they need."""
    blocks, star0, requests = [], [], []
    start = 0
    for (f, g, *_), zk in zip(groups, z):
        cols = {}
        for p in (f, g):
            if p is not None and p.kind not in cols:
                cols[p.kind] = slice(start, start + zk.size)
                start += zk.size
                blocks.append(zk)
                star0.append(np.full(zk.size, 1.0 if p.kind == "first" else -1.0))
        requests.append([(p, cols[p.kind]) for p in (f, g) if p is not None])
    blocks.append(np.array([groups[0][0].lam], dtype=z[0].dtype))
    levels = {p.n - 1 for r in requests for p, _ in r}
    return np.concatenate(blocks), np.concatenate(star0 + [[1.0]]), requests, levels


def _fused_values(groups, z):
    """F, F', F'' and their bounds at the long double points z, in one long
    double pass: per group one (F, F', F'', bound, bound, bound) per
    polynomial, values in long double, bounds in float64."""
    pts, star0, requests, levels = _rows(groups, z)
    top = max(levels)
    alphas = groups[0][0].seq.alphas(top).astype(np.clongdouble)
    phi = np.zeros((3, pts.size), dtype=np.clongdouble)
    star = phi.copy()
    phi[0], star[0] = 1.0, star0
    mag = np.ones(phi.shape, dtype=LONG)
    saved = {}
    for j in range(top + 1):
        t = pts * phi  # z Phi with its derivatives
        t[1:] += _DERIVATIVE * phi[:2]
        if j in levels:
            saved[j] = phi, star, t, mag
        if j < top:
            phi, star = t - np.conj(alphas[j]) * star, star - alphas[j] * t
            mag = np.maximum(mag, np.abs(phi))
    cl = np.conj(groups[0][0].lam)

    def values(p, c):
        phi, star, t, mag = saved[p.n - 1]
        lp, ls = np.conj(phi[0, -1]), np.conj(star[0, -1])
        sigma = 1.0 if p.kind == "first" else -1.0
        f = sigma * (ls * star[:, c] - cl * lp * t[:, c])
        size = (abs(lp) * mag[:, c] + mag[0, -1] * np.abs(phi[:, c])).astype(float)
        scale = ROUNDING_FACTOR * p.n * U_LONG
        return (*f, scale * size[0], scale * (size[0] + size[1]), scale * (size[1] + size[2]))

    return [[values(p, c) for p, c in r] for r in requests]


def _dd_values(groups, z):
    """Values at the long double points z in one double-double pass: per
    group one (value, bound) per polynomial, values rounded to long double
    (the bound covers that)."""
    pts, star0, requests, levels = _rows(groups, z)
    m = pts.size
    f = groups[0][0]
    pairs = _dd_pairs(f.seq.alphas(max(levels)), pts, star0, levels)
    cl = np.conj(f.lam)
    zhi, zlo = _dd_point(pts)
    w = _times_dd(zhi, zlo, np.array([[cl.real], [cl.imag]]), np.zeros((2, 1)))  # z conj(lam)

    def value(p, c):
        hi, lo, mag = pairs[p.n - 1]
        cs = slice(m + c.start, m + c.stop)
        lam_phi = (hi[:, m - 1 : m] * _CONJ, lo[:, m - 1 : m] * _CONJ)
        lam_star = (hi[:, 2 * m - 1 :] * _CONJ, lo[:, 2 * m - 1 :] * _CONJ)
        t1 = _times_dd(*lam_star, hi[:, cs], lo[:, cs])
        t2 = _times_dd(*_times_dd(w[0][:, c], w[1][:, c], *lam_phi), hi[:, c], lo[:, c])
        s, e = _two_diff(t1[0], t2[0])
        vh, vl = _quick_two_sum(s, e + (t1[1] - t2[1]))
        sigma = 1.0 if p.kind == "first" else -1.0
        value = sigma * ((vh[0].astype(LONG) + vl[0]) + 1j * (vh[1].astype(LONG) + vl[1]))
        size = np.hypot(*hi[:, m - 1]) * mag[c] + mag[m - 1] * np.hypot(*hi[:, c])
        return value, ROUNDING_FACTOR * p.n * U_DD * size + U_LONG * abs(value)

    return [[value(p, c) for p, c in r] for r in requests]


# ---------------------------------------------------------------------------
# integer fixed point: a complex number is a pair of ints at scale 2^bits


def _fixed_pairs(alphas, x, star0: int, levels: set[int], bits: int):
    """Monic pairs {level: (Phi_l, Phi*_l)} at the fixed-point point x."""
    (xr, xi), top = x, max(levels)
    pr, pi, sr, si = 1 << bits, 0, star0 << bits, 0
    out = {}
    for j in range(top + 1):
        if j in levels:
            out[j] = (pr, pi), (sr, si)
        if j < top:
            ar, ai = alphas[j]
            tr, ti = (xr * pr - xi * pi) >> bits, (xr * pi + xi * pr) >> bits
            # Phi <- z Phi - conj(a) Phi*,  Phi* <- Phi* - a z Phi
            pr, pi, sr, si = (tr - ((ar * sr + ai * si) >> bits), ti - ((ar * si - ai * sr) >> bits),
                              sr - ((ar * tr - ai * ti) >> bits), si - ((ar * ti + ai * tr) >> bits))
    return out


def _fixed_evaluator(f, levels: set[int]):
    """value(p, z): at the working mpmath precision, p (sharing f's
    coefficients and lambda, p.n - 1 among levels) at the mpc point z, from
    a fixed-point pass; the lambda-side pairs are computed once, here."""
    import mpmath
    from mpmath.libmp import to_fixed

    bits = mpmath.mp.prec + FIXED_GUARD_BITS

    def from_double(z):
        return int(math.ldexp(z.real, bits)), int(math.ldexp(z.imag, bits))

    def to_mp(v):
        return mpmath.mpc(mpmath.mpf((v[0], -bits)), mpmath.mpf((v[1], -bits)))

    alphas = [from_double(a) for a in f.seq.alphas(max(levels))]
    lam_pairs = _fixed_pairs(alphas, from_double(f.lam), 1, levels, bits)
    lam_pairs = {j: tuple(map(to_mp, v)) for j, v in lam_pairs.items()}
    cl = mpmath.mpc(f.lam).conjugate()

    def value(p, z):
        x = to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits)
        pairs = _fixed_pairs(alphas, x, 1 if p.kind == "first" else -1, {p.n - 1}, bits)
        phi, star = map(to_mp, pairs[p.n - 1])
        lp, ls = lam_pairs[p.n - 1]
        v = ls.conjugate() * star - z * cl * lp.conjugate() * phi
        return v if p.kind == "first" else -v

    return value


# ---------------------------------------------------------------------------
# decisions


def _newton(f0, f1, f2):
    """Second-order Newton offset from a point to the zero of F near it."""
    q = f0 / f1
    return -q - f2 * q * q / (2 * f1)


def _at_zero(d0, fz, ef, f1, f2, e1, e2, g=None):
    """Offset d1 from z1 = z0 + d0 to the zero of F and its error bound; with
    g = (G(z1), bound, G'(z0), G''(z0), bounds), G at that zero and its bound.

    The derivatives at z0 are carried to z1 to first order; the dropped
    terms are bounded through the curvatures |F''/F'| and |G''/G'|.
    """
    k_f = abs(f2 / f1)
    f1z = f1 + f2 * d0
    e1z = e1 + e2 * abs(d0) + abs(f1) * (k_f * abs(d0)) ** 2
    d1 = -fz / f1z
    err = (ef + abs(d1) * e1z) / abs(f1z) + k_f * abs(d1) ** 2
    if g is None:
        return d1, err
    gz, eg, g1, g2, h1, h2 = g
    k_g = abs(g2 / g1)
    g1z = g1 + g2 * d0
    h1z = h1 + h2 * abs(d0) + abs(g1) * (k_g * abs(d0)) ** 2
    return gz + g1z * d1, eg + abs(d1) * h1z + abs(g1z) * (err + k_g * abs(d1) ** 2)


def _judge(f, g, theta, z0, z1, values, derivs, u):
    """Sign and decision at one precision, for arrays or mpmath scalars.

    values holds (F(z1), bound) and, unless g is None (a side-of-lambda
    decision), (G(z1), bound); derivs the matching (value, first and
    second derivative, their bounds) at z0 from the long double pass; u
    is the unit roundoff of the arithmetic that combines them.
    """
    (fz, ef), *gv = values
    (_, f1, f2, _, e1, e2), *gd = derivs
    d0 = z1 - z0
    if g is None:
        d1, err = _at_zero(d0, fz, ef, f1, f2, e1, e2)
        offset = ((z1 + d1) * complex(f.lam).conjugate()).imag
        return (offset > 0) * 2.0 - 1.0, abs(offset) > err + 8 * u
    (gz, eg), (_, g1, g2, _, h1, h2) = gv[0], gd[0]
    value, bound = _at_zero(d0, fz, ef, f1, f2, e1, e2, (gz, eg, g1, g2, h1, h2))
    factor = np.exp(-0.5j * g.n * np.asarray(theta, dtype=float))  # makes g real on the circle
    trace = (value * (-1j * factor if g.kind == "first" else factor)).real
    return (trace > 0) * 2.0 - 1.0, abs(trace) > bound + 8 * u * abs(value)


def _ld_to_mp(z):
    import mpmath

    re, im = float(z.real), float(z.imag)
    return mpmath.mpc(mpmath.mpf(re) + float(z.real - re), mpmath.mpf(im) + float(z.imag - im))


def _fixed_decide(groups, z0, z1, derivs):
    """_judge at the working mpmath precision, point by point, after Newton
    steps in mpmath from z1 (long double derivatives) have fallen below
    it; every value comes from one fixed-point evaluator."""
    import mpmath

    u = mpmath.mpf(2) ** (-mpmath.mp.prec)
    ratio = float(u) / U_LONG  # value bounds scale with the unit roundoff
    value = _fixed_evaluator(groups[0][0], {p.n - 1 for f, g, _ in groups for p in (f, g) if p is not None})
    out = []
    for (f, g, theta), zs0, zs1, d in zip(groups, z0, z1, derivs):
        result = []
        for i in range(theta.size):
            dv = [(*(_ld_to_mp(v[i]) for v in t[:3]), *(float(v[i]) for v in t[3:])) for t in d]
            zs, z = mpmath.mpc(complex(zs0[i])), _ld_to_mp(zs1[i])
            for _ in range(mpmath.mp.dps // 6):
                fz = value(f, z)
                step = -fz / (dv[0][1] + dv[0][2] * (z - zs))
                if abs(step) < 8 * u:
                    break
                z += step
            else:
                fz = value(f, z)
            values = [(fz, dv[0][3] * ratio)] + ([] if g is None else [(value(g, z), dv[1][3] * ratio)])
            result.append(_judge(f, g, theta[i], zs, z, values, dv, u))
        sign, ok = np.array(result, dtype=float).reshape(-1, 2).T
        out.append((sign, ok > 0))
    return out


def order(groups):
    """Order zeros near given angles against another family or lambda.

    groups lists (f, g, theta), all polynomials sharing one coefficient
    sequence and base point.  With g a polynomial, the sign of g's real
    trace at the zeros of f near the angles theta; with g None, the side
    of lambda (+1 counterclockwise, -1 clockwise) those zeros lie on.
    Each point is decided at the first precision of LADDER whose value
    clears its rounding bound.  Returns one (signs, labels) per group:
    labels name that precision, "" where none did.
    """
    groups = [(f, g, np.atleast_1d(np.asarray(t, dtype=float))) for f, g, t in groups]
    z0 = [(f.lam * np.exp(1j * t)).astype(np.clongdouble) for f, _, t in groups]
    derivs = _fused_values(groups, z0)
    z1 = [z + _newton(*d[0][:3]) for z, d in zip(z0, derivs)]
    signs = [np.zeros(t.size) for *_, t in groups]
    labels = [np.full(t.size, "", dtype=object) for *_, t in groups]
    for label, prec in LADDER:
        live = [(i, k) for i, lab in enumerate(labels) if (k := np.nonzero(lab == "")[0]).size]
        if not live:
            break
        sub = [(groups[i][0], groups[i][1], groups[i][2][k]) for i, k in live]
        z0k, z1k = [z0[i][k] for i, k in live], [z1[i][k] for i, k in live]
        dk = [[tuple(v[k] for v in d) for d in derivs[i]] for i, k in live]
        if prec == "long":  # decided at z0 itself
            results = [_judge(*grp, z, z, [(v[0], v[3]) for v in d], d, U_LONG)
                       for grp, z, d in zip(sub, z0k, dk)]
        elif prec == "dd":
            results = [_judge(*grp, za, zb, v, d, U_LONG)
                       for grp, za, zb, v, d in zip(sub, z0k, z1k, _dd_values(sub, z1k), dk)]
        else:
            import mpmath

            with mpmath.workdps(prec):
                results = _fixed_decide(sub, z0k, z1k, dk)
        for (i, k), (sign, ok) in zip(live, results):
            signs[i][k[ok]] = sign[ok]
            labels[i][k[ok]] = label
    return list(zip(signs, labels))
