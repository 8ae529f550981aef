"""The raised-precision passes of paraortho.precision against mpmath.

The references are the scalar mpmath recursion that the integer
fixed-point pass replaced (mp_pairs) and mpmath's own differentiation of
the value it gives.  Each pass must agree within the bound it states.
"""

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


def mp_value(p, z):
    """p at the mpc point z, at the working mpmath precision."""
    alphas = [mpmath.mpc(a) for a in p.seq.alphas(p.n - 1)]
    lam = mpmath.mpc(p.lam)
    lp, ls = mp_pairs(alphas, lam, 1)
    phi, star = mp_pairs(alphas, z, 1 if p.kind == "first" else -1)
    value = ls.conjugate() * star - z * lam.conjugate() * lp.conjugate() * phi
    return value if p.kind == "first" else -value


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


def test_long_double_and_double_double_passes_match_mpmath(colliding):
    polys, theta = colliding
    # rows of two kinds (h_100, s_100), of one kind at two levels
    # (h_101, h_100), and a group without g (s_101)
    groups = [(polys["first", 100], polys["second", 100]),
              (polys["first", 101], polys["first", 100]),
              (polys["second", 101], None)]
    z = (1.0 * np.exp(1j * theta[::4])).astype(np.clongdouble)
    values = precision._fused_values(groups, [z] * len(groups))
    dd = precision._dd_values(groups, [z] * len(groups))
    with mpmath.workdps(60):
        for (f, g), per_poly, dd_per_poly in zip(groups, values, dd):
            for p, (f0, f1, f2, e0, e1, e2), (v, ev) in zip((f, g), per_poly, dd_per_poly):
                for i in range(z.size):
                    x = precision._ld_to_mp(z[i])
                    # F, F' and F'' by mpmath's differentiation of the reference
                    ref = [mpmath.diff(lambda w: mp_value(p, w), x, k) for k in range(3)]
                    for got, want, bound in zip((f0[i], f1[i], f2[i]), ref, (e0[i], e1[i], e2[i])):
                        assert abs(precision._ld_to_mp(got) - want) <= bound
                    assert abs(precision._ld_to_mp(v[i]) - ref[0]) <= float(ev[i])


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
