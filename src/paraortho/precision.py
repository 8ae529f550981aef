"""Order zeros of two families that collide in double precision.

`interlace` hands over the zero pairs of two sets that lie closer than
its collision tolerance.  For each pair, the zero x of one polynomial F
is refined by Newton steps and the sign of the other polynomial G's
real trace at the refined zero, set against the sign pattern G has
between its own zeros, says on which side of G's colliding zero x lies.
A zero paired with the pinned base-point zero is placed instead by the
side of lambda its refined position lies on.  A sign is accepted only
where the value exceeds the stated bound on everything that could have
moved it; the points still open go on to the next precision of LADDER.
Each evaluation is one pass over every open point of an `order` call,
one row per point, on F's recursion, with lambda as one more row.

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

G of F's kind (consecutive degrees) is read from F's own row, one more
level.  G of the other kind and F's degree needs no row of its own: the
Wronskian Phi Psi* - Phi* Psi of the two starts is -2 at level 0 and
gains z (1 - |a_j|^2) per level, so

    s_n Phi_{n-1} + h_n Psi_{n-1} = 2 conj(L*) z^(n-1) prod_{j<n-1} (1 - |a_j|^2)

(Simon, OPUC Part 1, AMS 2005, 3.2), and at a zero zeta of F, G(zeta) is
conj(L* P_F(zeta)) zeta^(n-1) times the positive 2 prod / |P_F(zeta)|^2,
with P_F F's own Phi_{n-1}.  Its sign then needs L* P_F(zeta) only to a
relative error below 1, with no cancellation.  The bound on that product
sums the pass's bound on L* P_F and its derivative, the Newton error err
of zeta times |(L* P_F)'| and n (the power's move), and the long double
rounding.  The long double pass decides nearly every such point; it
leaves to the fixed-point stages those where P_F(zeta) has decayed far
below its recursion's running magnitude (localized zeros at n ~ 300).

Stages: long double carries [value, d/dz, d2/dz2] of the pairs as (3,
rows) stacks (z P has the derivatives [z P, P + z P', 2 P' + z P'']) and
decides at z0 = lambda e^{i x} from F, F', F'' and G or L* P_F with their
derivatives there.  Every stage above it is the same code at a binary
precision p: values only, in Python-integer fixed point at scale 2^B,
B = p + FIXED_GUARD_BITS, at points held exactly as z0 plus an offset.
The offset starts at the second-order Newton step d0 = -F/F' - F'' F^2 /
(2 F'^3) and moves by d1 = -F / (F'(z0) + F''(z0) d0), added exactly,
until every open point's |d1| < 8 2^-p or for at most NEWTON_STEPS
evaluations; points still open carry it, shifted, to the next stage.  G
(or L* P_F) at the zero is its value plus its derivative times d1, with
the derivatives at z0 carried to the point to first order.  One judge, in
long double, decides every stage: each fixed-point value is rounded
once to long double from its top bits, and the side of lambda is
Im(x conj(lambda)), exact in integers, plus Im(d1 conj(lambda)).

`trace_signs` is the float64 pass of theorem 2's sign certificate
(theorems._certified_interlacing): the real traces of polynomials of
either kind at many points, from one orthonormal pass of
szego._szego_levels per kind (the second kind on the negated
coefficients).  On the support the monic values decay like
prod rho_j, far below the start magnitude 1 that their running
magnitude keeps, while the orthonormal ones keep their size, so the
bound below follows the values.  Every sign it and the ladder decided
for the certificate agreed with mpmath at 80 digits on 1,474 points
(seed 5 at lambda = 1, n = 60 and 150; const -0.5 at n = 100 and const
0.5 at n = 45, both at lambda = pi).

Rounding bound: an n-level pass at unit roundoff u is trusted to
ROUNDING_FACTOR * n * u * S, where S >= 1 combines the running
magnitudes of the pass (the largest pair magnitude reached, not the
final one: near colliding zeros the recursion follows a decaying
solution, and the errors made at its peak dominate).  The factor is
empirical, with a wide margin: on zeros of the radius-0.7 corpus (seeds
1 to 15, degrees 60 to 150, both kinds) the float64 error stayed below
7 n u S (320 zeros).  One argument covers every fixed-point stage, u =
2^-p: sums are exact and each product, shifted back to 2^B, rounds by
at most 2^-B <= u S.  The pairs and the combine that forms a value from
them are the long double pass's products and sums rounded more finely,
so its value bound, rescaled by u / U_LONG, covers them; U_LONG |v| more
covers the rounding of the value v to long double, and the judge bounds
its own long double arithmetic by multiples of U_LONG.  Every decided
sign agreed with mpmath at 80 digits on 10,644 colliding pairs and
pinned-zero sides (seeds 1 to 15, same and consecutive degrees 60, 70,
..., 150) when G had a row of its own, and on 10,120 with the identity
(the same seeds, same degrees 60, 70, ..., 150, both argument orders).
"""

from __future__ import annotations

import numpy as np

from .para import _trace_from
from .szego import _szego_levels

ROUNDING_FACTOR = 1024.0
# precisions in the order they are tried: (label, p), p the binary
# precision of a fixed-point stage, None for long double; 136 and 269
# bits are the precisions of 40 and 80 decimal digits
LADDER = (("long double", None), ("fixed-104", 104), ("fixed-136", 136), ("fixed-269", 269))

LONG = np.longdouble
CLONG = np.result_type(LONG, np.complex64).type  # complex with LONG parts
U_LONG = float(np.finfo(LONG).eps) / 2  # 2^-64 where long double is x87 extended
U_DOUBLE = 2.0**-53
FIXED_GUARD_BITS = 16  # bits of the fixed-point scale below the working precision
NEWTON_STEPS = 8  # most evaluations per open point at one fixed-point stage
_DERIVATIVE = np.array([[1.0], [2.0]])


def _rows(groups, sizes):
    """Rows of one pass: the sizes[i] points of group (f, g, ...), on f's
    row, then lambda.  Returns the start of Phi* per row (1 first kind,
    -1 second), the columns of each group and the levels they need."""
    star0, cols, start = [], [], 0
    for (f, *_), size in zip(groups, sizes):
        star0 += [1 if f.kind == "first" else -1] * size
        cols.append(slice(start, start + size))
        start += size
    levels = {n - 1 for f, g, *_ in groups for _, n in _entries(f, g)}
    return star0 + [1], cols, levels


def _entries(f, g):
    """What a pass evaluates for the group (f, g), as (polynomial, degree)
    on f's row: f, then g of f's kind or, for g of the other kind and
    f's degree, "pair": the product L* P_F."""
    if g is None:
        return [(f, f.n)]
    return [(f, f.n), (g, g.n) if g.kind == f.kind else ("pair", f.n)]


def _fused_values(groups, z):
    """F, F', F'' and their bounds at the long double points z, in one long
    double pass: per group one (F, F', F'', bound, bound, bound) for f and,
    unless g is None, the same for g (same kind) or for L* P_F (g of the
    other kind); values in long double, bounds in float64."""
    star0, cols, levels = _rows(groups, [zk.size for zk in z])
    pts = np.concatenate(z + [np.array([groups[0][0].lam], dtype=z[0].dtype)])
    top = max(levels)
    alphas = groups[0][0].seq.alphas(top).astype(CLONG)
    phi = np.zeros((3, pts.size), dtype=CLONG)
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

    def values(p, n, c):
        phi, star, t, mag = saved[n - 1]
        lp, ls = np.conj(phi[0, -1]), np.conj(star[0, -1])
        if p == "pair":
            v = np.conj(ls) * phi[:, c]
        else:
            v = (1.0 if p.kind == "first" else -1.0) * (ls * star[:, c] - cl * lp * t[:, c])
        size = (abs(lp) * mag[:, c] + mag[0, -1] * np.abs(phi[:, c])).astype(float)
        scale = ROUNDING_FACTOR * n * U_LONG
        return (*v, scale * size[0], scale * (size[0] + size[1]), scale * (size[1] + size[2]))

    return [[values(p, n, c) for p, n in _entries(f, g)] for (f, g, *_), c in zip(groups, cols)]


def trace_signs(groups):
    """The signs of real traces at given angles from lambda, from one
    float64 pass per kind, and which of them are decided.

    groups lists (p, theta), polynomials of either kind and any degree
    sharing one coefficient sequence and base point.  A kind's points are
    the rows of one active szego._szego_levels pass on p._z_alphas (the
    negated coefficients for the second kind), laid out deepest first, so
    that step j runs only the leading rows whose degree reads a level
    above j; the pass keeps each row's running magnitude.  lambda's pairs
    and their running magnitude come from the deepest polynomial's
    _lambda_values, for both kinds, and each value v from
    para._trace_from.  v is trusted to ROUNDING_FACTOR n U_DOUBLE S, S
    combining the running magnitudes of the point's row and of lambda's
    as the long double pass does, and its trace's sign is decided where
    the trace clears that bound plus 8 U_DOUBLE |v| (the rounding of the
    trace factor).  Returns one (signs, decided) per group.
    """
    out = [None] * len(groups)
    deep = sorted(range(len(groups)), key=lambda i: -groups[i][0].n)
    for kind in {q.kind for q, _ in groups}:
        rows = [i for i in deep if groups[i][0].kind == kind]
        lam = groups[deep[0]][0]._lambda_values
        p = groups[rows[0]][0]
        thetas = [np.atleast_1d(np.asarray(groups[i][1], dtype=float)) for i in rows]
        sizes = [t.size for t in thetas]
        th = np.concatenate(thetas)
        z = p.lam * np.exp(1j * th)
        n = np.repeat([groups[i][0].n for i in rows], sizes)
        top = p.n - 1
        active = np.searchsorted(1 - n, -np.arange(1, top + 1), side="right")
        (pair,), mag = _szego_levels(p._z_alphas(top), z, (top,), active, peak=True)
        trace, v = _trace_from(p, pair, z, th, n, lam)
        lp, lm = lam[0][n - 1], np.maximum.accumulate(np.abs(lam[0]))[n - 1]
        bound = ROUNDING_FACTOR * n * U_DOUBLE * (np.abs(lp) * mag + lm * np.abs(pair[0]))
        decided = np.abs(trace) > bound + 8 * U_DOUBLE * np.abs(v)
        cuts = np.cumsum(sizes)[:-1]
        for i, signs, known in zip(rows, np.split(np.sign(trace), cuts), np.split(decided, cuts)):
            out[i] = signs, known
    return out


# ---------------------------------------------------------------------------
# integer fixed point: a complex number is a pair of ints at scale 2^bits


def _to_fixed(z, bits: int):
    """Double or long double complex numbers as fixed point: the object
    arrays of their real and imaginary parts as ints at scale 2^bits, each
    trunc(x 2^bits) exactly, whatever the long double's format: ldexp
    scales without rounding, and int() of a long double is exact."""
    z = np.atleast_1d(np.asarray(z, dtype=CLONG))
    return tuple(np.array([int(v) for v in np.ldexp(part, bits).tolist()], dtype=object) for part in (z.real, z.imag))


def _to_long(n, bits: int):
    """Ints at scale 2^bits rounded to long double, each from its top bits
    so that no conversion to float overflows."""
    shift = [max(m.bit_length() - 120, 0) for m in n]
    top = [m >> s for m, s in zip(n, shift)]
    hi = [float(m) for m in top]
    lo = [float(m - int(h)) for m, h in zip(top, hi)]
    return np.ldexp(np.array(hi, dtype=LONG) + np.array(lo), np.array(shift, dtype=int) - bits)


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
    conj(L) P), the products summed exactly and shifted back once; with p
    "pair", L* P."""
    (xr, xi), ((pr, pi), (qr, qi)), ((lr, li), (mr, mi)), (cr, ci) = x, pair, lam_pair, cl
    if p == "pair":
        return (mr * pr - mi * pi) >> bits, (mr * pi + mi * pr) >> bits
    wr, wi = (xr * cr - xi * ci) >> bits, (xr * ci + xi * cr) >> bits
    wr, wi = (wr * lr + wi * li) >> bits, (wi * lr - wr * li) >> bits  # x cl conj(L)
    vr = (mr * qr + mi * qi - wr * pr + wi * pi) >> bits
    vi = (mr * qi - mi * qr - wr * pi - wi * pr) >> bits
    return (vr, vi) if p.kind == "first" else (-vr, -vi)


def _fixed_values(groups, points, bits: int):
    """Values at fixed-point points in one pass at scale 2^bits, one
    _fixed_pairs walk per row.  points holds per group the (real, imag)
    object arrays of its points.  Returns per group the values of
    _fused_values (F and, unless g is None, g or L* P_F) and Im(x
    conj(lambda)) per point x, this exact in integers, each rounded once
    to long double."""
    star0, cols, levels = _rows(groups, [xr.size for xr, _ in points])
    f = groups[0][0]
    alphas = list(zip(*(a.tolist() for a in _to_fixed(f.seq.alphas(max(levels)), bits))))
    (lr,), (li,) = _to_fixed(f.lam, bits)
    xs = [x for xr, xi in points for x in zip(xr, xi)] + [(lr, li)]
    pairs = [_fixed_pairs(alphas, x, s, levels, bits) for x, s in zip(xs, star0)]

    def value(p, n, c):
        vr, vi = zip(*(_fixed_value(p, xs[r], pairs[r][n - 1], pairs[-1][n - 1], (lr, -li), bits)
                       for r in range(c.start, c.stop)))
        return _to_long(vr, bits) + 1j * _to_long(vi, bits)

    return ([[value(p, n, c) for p, n in _entries(f, g)] for (f, g, *_), c in zip(groups, cols)],
            [_to_long(xi * lr - xr * li, 2 * bits) for xr, xi in points])


# ---------------------------------------------------------------------------
# decisions


def _newton(f0, f1, f2):
    """Second-order Newton offset from a point to the zero of F near it."""
    q = f0 / f1
    return -q - f2 * q * q / (2 * f1)


def _step(fv, fd, d0):
    """Newton step d1 from the point, d0 from z0, to the zero of F, and a
    bound on its error: fv holds (F, bound) at the point, fd (value, first
    and second derivative, their bounds) at z0 from the long double pass.
    The derivatives are carried to the point to first order; the dropped
    terms are bounded through the curvature |F''/F'|."""
    (fz, ef), (_, f1, f2, _, e1, e2) = fv, fd
    k_f = abs(f2 / f1)
    f1z = f1 + f2 * d0
    e1z = e1 + e2 * abs(d0) + abs(f1) * (k_f * abs(d0)) ** 2
    d1 = -fz / f1z
    return d1, (ef + abs(d1) * e1z) / abs(f1z) + k_f * abs(d1) ** 2


def _carry(gv, gd, d0, d1, err):
    """G at the zero of F, d0 + d1 from z0 to within err, and its bound:
    gv holds (G, bound) at the point d0 from z0, gd G's derivatives and
    bounds at z0, carried as in _step."""
    (gz, eg), (_, g1, g2, _, h1, h2) = gv, gd
    k_g = abs(g2 / g1)
    g1z = g1 + g2 * d0
    h1z = h1 + h2 * abs(d0) + abs(g1) * (k_g * abs(d0)) ** 2
    return gz + g1z * d1, eg + abs(d1) * h1z + abs(g1z) * (err + k_g * abs(d1) ** 2)


def _judge(f, g, theta, d0, values, derivs, im, u):
    """Sign, decision and Newton step d1 to the zero of F at one precision,
    in long double arrays.

    The point lies d0 from z0 = lambda e^{i theta}; values holds (F,
    bound) there and, unless g is None (a side-of-lambda decision), (G,
    bound) for g of f's kind or (L* P_F, bound) for g of the other kind;
    derivs the matching (value, first and second derivative, their
    bounds) at z0 from the long double pass; im is Im(z conj(lambda)) at
    the point, and u the unit roundoff of the pass that gave the values.
    """
    d1, err = _step(values[0], derivs[0], d0)
    if g is None:
        offset = im + (d1 * np.conj(f.lam)).imag
        bound = err + 8 * (U_LONG * abs(im) + u) + 8 * U_LONG * abs(d1)
        return (offset > 0) * 2.0 - 1.0, abs(offset) > bound, d1
    value, bound = _carry(values[1], derivs[1], d0, d1, err)
    if g.kind != f.kind:
        # at the zero, g is 2 prod(1 - |a_j|^2) / |P_F|^2 times
        # conj(L* P_F) z^(n-1); the power moves by n err / |z| with the zero
        power = (f.lam * np.exp(1j * theta) + d0 + d1) ** (f.n - 1)
        bound = abs(power) * (bound + abs(value) * f.n * (err + 8 * U_LONG))
        value = np.conj(value) * power
    factor = np.exp(-0.5j * g.n * theta)  # makes g real on the circle
    trace = (value * (-1j * factor if g.kind == "first" else factor)).real
    return (trace > 0) * 2.0 - 1.0, abs(trace) > bound + 8 * U_LONG * abs(value), d1


def order(groups):
    """Order zeros near given angles against another family or lambda.

    groups lists (f, g, theta), all polynomials sharing one coefficient
    sequence and base point, g of f's kind or of the other kind and f's
    degree (a ValueError otherwise).  With g a polynomial, the sign of
    g's real trace at the zeros of f near the angles theta; with g None,
    the side of lambda (+1 counterclockwise, -1 clockwise) those zeros
    lie on.
    Each point is decided at the first precision of LADDER whose value
    clears its rounding bound; one whose Newton step is a unit or more,
    or not a number, lies near no zero and stays open.  Returns one
    (signs, labels) per group: labels name that precision, "" where
    none did.
    """
    if any(g is not None and g.kind != f.kind and g.n != f.n for f, g, _ in groups):
        raise ValueError("a polynomial of the other kind must share f's degree")
    groups = [(f, g, np.atleast_1d(np.asarray(t, dtype=float))) for f, g, t in groups]
    z0 = [(f.lam * np.exp(1j * t)).astype(CLONG) for f, _, t in groups]
    derivs = _fused_values(groups, z0)
    signs = [np.zeros(t.size) for *_, t in groups]
    labels = [np.full(t.size, "", dtype=object) for *_, t in groups]

    def decide(i, k, label, d0, values, im, u):
        """_judge on the points k of group i: records the decided ones and
        returns which go on, open with a step d1 below one (a longer one,
        or none, says the point is not near a zero: it stays open), and
        their steps."""
        f, g, t = groups[i]
        sign, ok, d1 = _judge(f, g, t[k], d0, values, [tuple(v[k] for v in d) for d in derivs[i]], im, u)
        signs[i][k[ok]], labels[i][k[ok]] = sign[ok], label
        go = ~ok & (abs(d1) < 1.0)
        return go, d1[go]

    # long double, at z0 itself; the open points go on from its Newton step
    bits = LADDER[1][1] + FIXED_GUARD_BITS
    live = []
    for i, (d, z) in enumerate(zip(derivs, z0)):
        k, d0 = np.arange(z.size), _newton(*d[0][:3])
        left = decide(i, k, LADDER[0][0], 0.0, [(v[0], v[3]) for v in d],
                      (z * np.conj(groups[i][0].lam)).imag, U_LONG)[0] & (abs(d0) < 1.0)
        if left.any():
            live.append((i, k[left], _to_fixed(d0[left], bits)))
    for label, p in LADDER[1:]:
        shift, bits = p + FIXED_GUARD_BITS - bits, p + FIXED_GUARD_BITS
        live = [(i, k, (r << shift, m << shift)) for i, k, (r, m) in live]
        for _ in range(NEWTON_STEPS):
            if not live:
                break
            points = [tuple(a + b for a, b in zip(_to_fixed(z0[i][k], bits), off)) for i, k, off in live]
            values, ims = _fixed_values([groups[i] for i, _, _ in live], points, bits)
            step, moved = 0.0, []
            for (i, k, (r, m)), vs, im in zip(live, values, ims):
                bounds = [(v, e[3][k] * 2.0**-p / U_LONG + U_LONG * abs(v)) for v, e in zip(vs, derivs[i])]
                left, d1 = decide(i, k, label, _to_long(r, bits) + 1j * _to_long(m, bits), bounds, im, 2.0**-p)
                if left.any():
                    dr, dm = _to_fixed(d1, bits)
                    moved.append((i, k[left], (r[left] + dr, m[left] + dm)))
                    step = max(step, float(np.max(abs(d1))))
            live = moved
            if step < 8 * 2.0**-p:
                break
    return list(zip(signs, labels))
