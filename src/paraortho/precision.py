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
every step is a product or a sum.
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
z0 + d0.  The stages above long double evaluate values only, in
Python-integer fixed point at a binary precision p: p = 104 at z1 itself,
each value rounded once to long double, then the p of 40 and 80 mpmath
digits at points that Newton steps in mpmath continue from z1 until they
fall below 2^-p.  With the derivatives at z0 carried to z1, the last
offset is d1 = -F(z1)/F'(z1) and G at the zero is G(z1) + G'(z1) d1.

Rounding bound: an n-level pass at unit roundoff u is trusted to
ROUNDING_FACTOR * n * u * S, where S >= 1 combines the running
magnitudes of the pass (the largest pair magnitude reached, not the
final one: near colliding zeros the recursion follows a decaying
solution, and the errors made at its peak dominate).  The factor is
empirical, with a wide margin: on zeros of the radius-0.7 corpus (seeds
1 to 15, degrees 60 to 150, both kinds) the float64 error stayed below
7 n u S (320 zeros).  One argument covers every stage above long
double, u = 2^-p: fixed point holds each number as an integer at scale
2^B, B = p + FIXED_GUARD_BITS, so sums are exact and each product,
shifted back to 2^B, rounds by at most 2^-B <= u S.  The pairs and the
combine that forms a value from them are the long double pass's
products and sums rounded more finely, so its value bound, rescaled by
u / U_LONG, covers them; the 2^-104 stage adds U_LONG |v| for its
rounding to long double.  Every decided sign agreed with mpmath at 80
digits on 10,644 colliding pairs and pinned-zero sides (seeds 1 to 15,
same and consecutive degrees 60, 70, ..., 150).
"""

from __future__ import annotations

import math

import numpy as np

ROUNDING_FACTOR = 1024.0
# precisions in the order they are tried: (label, value pass), where the
# value pass is "long", "fixed" (fixed point at U_FIXED) or the mpmath
# decimal digits
LADDER = (("long double", "long"), ("fixed-104", "fixed"), ("mpmath-40", 40), ("mpmath-80", 80))

LONG = np.longdouble
U_LONG = float(np.finfo(LONG).eps) / 2  # 2^-64 where long double is x87 extended
U_DOUBLE = 2.0**-53
U_FIXED = 2.0**-104
FIXED_GUARD_BITS = 16  # bits of the fixed-point scale below the working precision
_FIXED_BITS = 104 + FIXED_GUARD_BITS  # scale of the "fixed" stage, at U_FIXED
_DERIVATIVE = np.array([[1.0], [2.0]])


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


# ---------------------------------------------------------------------------
# integer fixed point: a complex number is a pair of ints at scale 2^bits


def _to_fixed(z, bits: int):
    """A double or long double complex number as a fixed-point pair, exact
    down to 2^-bits (the long double by its hi/lo double split)."""
    hi = complex(z)
    lo = complex(z - hi)
    return (int(math.ldexp(hi.real, bits)) + int(math.ldexp(lo.real, bits)),
            int(math.ldexp(hi.imag, bits)) + int(math.ldexp(lo.imag, bits)))


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


def _fixed_value(p, x, pair, lam_pair, cl, bits: int):
    """p at the fixed-point point x from its pair (P, Q) there, the pair
    (L, L*) at lambda and cl = conj(lambda): sigma (conj(L*) Q - x cl
    conj(L) P), the products summed exactly and shifted back once."""
    (xr, xi), ((pr, pi), (qr, qi)), ((lr, li), (mr, mi)), (cr, ci) = x, pair, lam_pair, cl
    wr, wi = (xr * cr - xi * ci) >> bits, (xr * ci + xi * cr) >> bits
    wr, wi = (wr * lr + wi * li) >> bits, (wi * lr - wr * li) >> bits  # x cl conj(L)
    vr = (mr * qr + mi * qi - wr * pr + wi * pi) >> bits
    vi = (mr * qi - mi * qr - wr * pi - wi * pr) >> bits
    return (vr, vi) if p.kind == "first" else (-vr, -vi)


def _fixed_values(groups, z):
    """Values at the long double points z in one fixed-point pass at unit
    roundoff U_FIXED, one _fixed_pairs walk per row: per group one value
    per polynomial, rounded once to long double."""
    pts, star0, requests, levels = _rows(groups, z)
    f = groups[0][0]
    alphas = [_to_fixed(a, _FIXED_BITS) for a in f.seq.alphas(max(levels))]
    xs = [_to_fixed(x, _FIXED_BITS) for x in pts]
    pairs = [_fixed_pairs(alphas, x, int(s), levels, _FIXED_BITS) for x, s in zip(xs, star0)]
    cl = _to_fixed(np.conj(f.lam), _FIXED_BITS)

    def value(p, c):
        j = p.n - 1
        v = [n for i in range(c.start, c.stop)
             for n in _fixed_value(p, xs[i], pairs[i][j], pairs[-1][j], cl, _FIXED_BITS)]
        hi = [float(n) for n in v]
        lo = [float(n - int(h)) for n, h in zip(v, hi)]
        x = (np.array(hi, dtype=LONG) + np.array(lo)).reshape(-1, 2) * 2.0**-_FIXED_BITS
        return x[:, 0] + 1j * x[:, 1]

    return [[value(p, c) for p, c in r] for r in requests]


def _fixed_evaluator(f, levels: set[int]):
    """value(p, z): at the working mpmath precision, p (sharing f's
    coefficients and lambda, p.n - 1 among levels) at the mpc point z, from
    a fixed-point pass; the lambda-side pairs are computed once, here."""
    import mpmath
    from mpmath.libmp import to_fixed

    bits = mpmath.mp.prec + FIXED_GUARD_BITS
    alphas = [_to_fixed(a, bits) for a in f.seq.alphas(max(levels))]
    lam_pairs = _fixed_pairs(alphas, _to_fixed(f.lam, bits), 1, levels, bits)
    cl = _to_fixed(np.conj(f.lam), bits)

    def value(p, z):
        x = to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits)
        pairs = _fixed_pairs(alphas, x, 1 if p.kind == "first" else -1, {p.n - 1}, bits)
        vr, vi = _fixed_value(p, x, pairs[p.n - 1], lam_pairs[p.n - 1], cl, bits)
        return mpmath.mpc(mpmath.mpf((vr, -bits)), mpmath.mpf((vi, -bits)))

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
        elif prec == "fixed":  # value bounds: long double's rescaled, plus the rounding to long double
            ratio = U_FIXED / U_LONG
            results = [_judge(*grp, za, zb, [(v, t[3] * ratio + U_LONG * abs(v)) for v, t in zip(vs, d)], d, U_LONG)
                       for grp, za, zb, vs, d in zip(sub, z0k, z1k, _fixed_values(sub, z1k), dk)]
        else:
            import mpmath

            with mpmath.workdps(prec):
                results = _fixed_decide(sub, z0k, z1k, dk)
        for (i, k), (sign, ok) in zip(live, results):
            signs[i][k[ok]] = sign[ok]
            labels[i][k[ok]] = label
    return list(zip(signs, labels))
