"""The raised-precision passes of paraortho.precision against mpmath.

The references are the scalar mpmath recursion that the integer
fixed-point pass replaced (mp_pairs) and mpmath's own differentiation of
the value it gives.  Each pass must agree within the bound it states.
"""

import functools

import mpmath
import numpy as np
import pytest

import paraortho as pa
from paraortho import precision
from paraortho.precision import U_LONG
from paraortho.zeros import _circular_gap


def mp_pairs(alphas, x, star0):
    """Reference for the fixed-point pass: the monic pair at level
    len(alphas) at one point, in mpmath complex arithmetic."""
    phi, star = mpmath.mpc(1), mpmath.mpc(star0)
    for a in alphas:
        t = x * phi
        phi, star = t - a.conjugate() * star, star - a * t
    return phi, star


def mp_evaluator(p):
    """z -> p at the mpc point z, at the working mpmath precision."""
    alphas = [mpmath.mpc(a) for a in p.seq.alphas(p.n - 1)]
    lam = mpmath.mpc(p.lam)
    lp, ls = mp_pairs(alphas, lam, 1)

    def value(z):
        phi, star = mp_pairs(alphas, z, 1 if p.kind == "first" else -1)
        v = ls.conjugate() * star - z * lam.conjugate() * lp.conjugate() * phi
        return v if p.kind == "first" else -v

    return value


def mp_value(p, z):
    return mp_evaluator(p)(z)


@pytest.fixture(scope="module")
def colliding():
    """h and s of seed 1 at degrees 100 and 101, and the angles of the zeros
    of h_100 that lie within 1e-10 of a zero of s_100 (24 of them)."""
    seq = pa.RandomSequence(0.7, 1)
    polys = {(kind, n): pa.ParaPolynomial(kind, n, 1.0, seq)
             for kind in ("first", "second") for n in (100, 101)}
    h = pa.find_zeros(polys["first", 100])
    s = pa.find_zeros(polys["second", 100])
    theta = h.angles[np.any(_circular_gap(h.angles[:, None], s.angles[None, :]) < 1e-10, axis=1)]
    assert theta.size == 24
    return polys, theta


def ld_to_mp(z):
    """A long double complex number as an mpc, exactly at 60 digits or more."""
    re, im = float(z.real), float(z.imag)
    return mpmath.mpc(mpmath.mpf(re) + float(z.real - re), mpmath.mpf(im) + float(z.imag - im))


# rows of two kinds (h_100, s_100), of one kind at two levels (h_101,
# h_100), and a group without g (s_101)
SHAPES = ((("first", 100), ("second", 100)), (("first", 101), ("first", 100)), (("second", 101), None))


def shaped_groups(polys):
    return [tuple(None if key is None else polys[key] for key in shape) for shape in SHAPES]


def test_long_double_pass_matches_mpmath(colliding):
    polys, theta = colliding
    groups = shaped_groups(polys)
    z = (1.0 * np.exp(1j * theta[::4])).astype(np.clongdouble)
    values = precision._fused_values(groups, [z] * len(groups))
    with mpmath.workdps(60):
        for (f, g), per_poly in zip(groups, values):
            for p, (f0, f1, f2, e0, e1, e2) in zip((f, g), per_poly):
                for i in range(z.size):
                    x = ld_to_mp(z[i])
                    # F, F' and F'' by mpmath's differentiation of the reference
                    ref = [mpmath.diff(lambda w: mp_value(p, w), x, k) for k in range(3)]
                    for got, want, bound in zip((f0[i], f1[i], f2[i]), ref, (e0[i], e1[i], e2[i])):
                        assert abs(ld_to_mp(got) - want) <= bound


@pytest.mark.parametrize("p", [p for _, p in precision.LADDER[1:]], ids=[label for label, _ in precision.LADDER[1:]])
def test_fixed_point_stages_match_mpmath(colliding, p):
    polys, theta = colliding
    groups = shaped_groups(polys)
    bits = p + precision.FIXED_GUARD_BITS
    # points off the long double grid by 2^-p, so that every bit of the
    # scale takes part
    z = (1.0 * np.exp(1j * theta[::4])).astype(np.clongdouble)
    xr, xi = precision._to_fixed(z, bits)
    points = (xr + (1 << precision.FIXED_GUARD_BITS), xi - (3 << precision.FIXED_GUARD_BITS))
    # and a base point off the real axis, for both parts of lambda
    rotated = [(pa.ParaPolynomial("second", 101, np.exp(0.9j), polys["first", 100].seq), None)]
    with mpmath.workdps(2 * p // 3):  # well above p bits
        xs = [mpmath.mpc(mpmath.mpf((int(r), -bits)), mpmath.mpf((int(m), -bits))) for r, m in zip(*points)]
        for groups in (groups, rotated):
            values = precision._fused_values(groups, [z] * len(groups))
            fixed, ims = precision._fixed_values(groups, [points] * len(groups), bits)
            lam = mpmath.mpc(groups[0][0].lam)
            for (f, g), per_poly, fixed_per_poly, im in zip(groups, values, fixed, ims):
                for i, x in enumerate(xs):
                    # Im(x conj(lambda)) is exact before its rounding to long double
                    assert abs(ld_to_mp(im[i]) - (x * lam.conjugate()).imag) <= U_LONG * float(abs(im[i]))
                for q, (_, _, _, e0, _, _), v in zip((f, g), per_poly, fixed_per_poly):
                    for i, x in enumerate(xs):
                        # the stated bound of a fixed-point stage: the long double value
                        # bound rescaled to 2^-p, plus the rounding to long double
                        bound = e0[i] * 2.0**-p / U_LONG + U_LONG * float(abs(v[i]))
                        assert abs(ld_to_mp(v[i]) - mp_value(q, x)) <= bound


def test_values_past_the_double_range_round_from_their_top_bits():
    # at the 269-bit scale a value above 2^739 has no float conversion
    bits = 269 + precision.FIXED_GUARD_BITS
    got = precision._to_long([(1 << 2000) + 12345, -(3 << 1500), (1 << 100) + (1 << 40)], bits)
    want = [np.ldexp(precision.LONG(1), 2000 - bits), -np.ldexp(precision.LONG(3), 1500 - bits),
            np.ldexp(precision.LONG(2.0**60) + 1, 40 - bits)]
    assert got.tolist() == want


def test_newton_steps_recover_a_start_off_the_zero(monkeypatch):
    # seed 5's interior zeros of h_150 against h_151 (one pair 9.4e-32
    # apart), with every angle moved 1e-5 off its zero: with one
    # evaluation per stage, 39 of the 83 signs go to 40 or 80 digits and
    # one stays open; the Newton steps of the fixed-point stages decide
    # all of them at 2^-104 but one, at 40 digits
    order, calls = precision.order, []

    def recording(groups):
        calls.append(groups)
        return order(groups)

    monkeypatch.setattr(precision, "order", recording)
    seq = pa.RandomSequence(0.7, 5)
    a, b = (pa.find_zeros(pa.ParaPolynomial("first", n, 1.0, seq)).without_base_point() for n in (150, 151))
    assert pa.interlace(a, b).verdict == "pass"
    groups, = calls
    moved = order([(f, g, np.asarray(theta) + 1e-5) for f, g, theta in groups])
    for (signs, labels), (want, _) in zip(moved, order(groups)):
        assert np.array_equal(signs, want)
        assert set(labels) <= {"fixed-104", "mpmath-40"}


def mp_decision(f, g, theta, evaluator=mp_evaluator):
    """The sign precision.order should give for the zero of f near the
    angle theta: found by Newton steps in the mpmath reference (derivatives
    by a difference quotient), then g's real trace there, or with g None
    the side of lambda it lies on."""
    lam = mpmath.mpc(f.lam)
    value, h = evaluator(f), mpmath.sqrt(mpmath.eps)
    z = lam * mpmath.expj(theta)
    for _ in range(12):
        fz = value(z)
        step = -fz * h / (value(z + h) - fz)
        z += step
        if abs(step) < mpmath.eps ** 0.4:  # z is then within about eps^0.8 of the zero
            break
    else:
        raise AssertionError(f"no convergence at theta = {theta!r}")
    if g is None:
        return mpmath.sign(mpmath.im(z / lam))
    angle = theta + mpmath.arg(z / (lam * mpmath.expj(theta)))
    rotate = mpmath.expj(-0.5 * g.n * angle) * (-1j if g.kind == "first" else 1)
    trace = (evaluator(g)(z) * rotate).real
    assert abs(trace) > mpmath.eps ** 0.6
    return mpmath.sign(trace)


def test_decided_signs_agree_with_mpmath_80(monkeypatch):
    # every sign that interlace's collision ladder decides, on seed 1's
    # h_100 against s_100, seed 5's interior zeros of h_179 against h_180
    # and seed 16's h_140 against s_140, recomputed in the 80-digit
    # reference: 66 long double and 127 fixed-104 (one pinned-zero side
    # in each), 7 mpmath-40 and 1 mpmath-80 decisions; seed 16's pair
    # at 4.38 is one of the two that the criterion-4 corpus leaves to 80
    # digits
    order, calls = precision.order, []

    def recording(groups):
        result = order(groups)
        calls.append((groups, result))
        return result

    monkeypatch.setattr(precision, "order", recording)
    verdicts = []
    for seed, kinds, n, m in ((1, ("first", "second"), 100, 100), (5, ("first", "first"), 179, 180),
                              (16, ("first", "second"), 140, 140)):
        seq = pa.RandomSequence(0.7, seed)
        a, b = (pa.find_zeros(pa.ParaPolynomial(k, d, 1.0, seq)) for k, d in zip(kinds, (n, m)))
        if m > n:
            a, b = a.without_base_point(), b.without_base_point()
        verdicts.append(pa.interlace(a, b).verdict)
    stages, sides, evaluator = set(), 0, functools.cache(mp_evaluator)
    with mpmath.workdps(80):
        for groups, result in calls:
            for (f, g, theta), (signs, labels) in zip(groups, result):
                for t, sign, label in zip(np.atleast_1d(theta), signs, labels):
                    stages.add(label)
                    sides += g is None
                    assert mp_decision(f, g, mpmath.mpf(float(t)), evaluator) == sign, (label, f.kind, f.n, t)
    assert stages == {"long double", "fixed-104", "mpmath-40", "mpmath-80"} and sides > 0
    assert verdicts == ["pass", "pass", "pass"]
