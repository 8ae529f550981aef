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
from paraortho.precision import U_FIXED, U_LONG
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


def test_long_double_and_fixed_104_passes_match_mpmath(colliding):
    polys, theta = colliding
    # rows of two kinds (h_100, s_100), of one kind at two levels
    # (h_101, h_100), and a group without g (s_101)
    groups = [(polys["first", 100], polys["second", 100]),
              (polys["first", 101], polys["first", 100]),
              (polys["second", 101], None)]
    z = (1.0 * np.exp(1j * theta[::4])).astype(np.clongdouble)
    values = precision._fused_values(groups, [z] * len(groups))
    fixed = precision._fixed_values(groups, [z] * len(groups))
    with mpmath.workdps(60):
        for (f, g), per_poly, fixed_per_poly in zip(groups, values, fixed):
            for p, (f0, f1, f2, e0, e1, e2), v in zip((f, g), per_poly, fixed_per_poly):
                for i in range(z.size):
                    x = precision._ld_to_mp(z[i])
                    # F, F' and F'' by mpmath's differentiation of the reference
                    ref = [mpmath.diff(lambda w: mp_value(p, w), x, k) for k in range(3)]
                    for got, want, bound in zip((f0[i], f1[i], f2[i]), ref, (e0[i], e1[i], e2[i])):
                        assert abs(precision._ld_to_mp(got) - want) <= bound
                    # the stated bound of the fixed-104 stage: the long double
                    # value bound rescaled, plus the rounding to long double
                    bound = e0[i] * U_FIXED / U_LONG + U_LONG * float(abs(v[i]))
                    assert abs(precision._ld_to_mp(v[i]) - ref[0]) <= bound


@pytest.mark.parametrize("dps", [40, 80])
def test_fixed_point_pass_matches_mpmath(colliding, dps):
    polys, theta = colliding
    z = (1.0 * np.exp(1j * theta)).astype(np.clongdouble)
    with mpmath.workdps(dps):
        u = mpmath.mpf(2) ** -mpmath.mp.prec
        value = precision._fixed_evaluator(polys["first", 100], {99, 100})
        for p in polys.values():
            # the stated bound ROUNDING_FACTOR n u S: the long double
            # pass's value bound rescaled to the working precision
            ((_, _, _, e0, _, _),), = precision._fused_values([(p, None)], [z])
            for i in range(theta.size):
                x = precision._ld_to_mp(z[i])
                assert abs(value(p, x) - mp_value(p, x)) <= e0[i] * float(u) / U_LONG


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
    # h_100 against s_100 and seed 5's interior zeros of h_179 against
    # h_180, recomputed in the 80-digit reference: 39 long double (one of
    # them a pinned-zero side), 87 fixed-104 and 6 mpmath-40 decisions
    order, calls = precision.order, []

    def recording(groups):
        result = order(groups)
        calls.append((groups, result))
        return result

    monkeypatch.setattr(precision, "order", recording)
    verdicts = []
    for seed, kinds, n, m in ((1, ("first", "second"), 100, 100), (5, ("first", "first"), 179, 180)):
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
    assert stages == {"long double", "fixed-104", "mpmath-40"} and sides > 0
    assert verdicts == ["pass", "pass"]
