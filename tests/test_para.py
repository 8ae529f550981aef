import math

import mpmath
import numpy as np
import pytest

import paraortho as pa
from paraortho.coeffs import exact_arc_mass_moments, verblunsky_from_moments_hp
from paraortho.para import (PHASE_GROUP, _nested_levels, _phase_at_levels, _phase_groups, _phase_levels,
                            _trace_at_levels, kernel_to_monic_factor, para_scale, real_form_grid)
from paraortho.szego import eval_pair, mixed_form, monic_norm
from paraortho.zeros import ON_ZERO

TWO_PI = 2.0 * math.pi

DEFINITIONS = ("kernel", "level_n", "level_nm1")


class TestEvaluation:
    def test_free_first_kind_vanishes_at_roots_of_unity(self):
        # h_3(z) = 1 - z^3 for the free case pinned at 1
        p = pa.ParaPolynomial("first", 3, 1.0, pa.ConstantSequence(0.0))
        z = np.exp(2j * np.pi / 3)
        for definition in DEFINITIONS:
            assert abs(pa.para_eval(p, z, definition)) < 1e-14
        assert abs(pa.para_eval(p, 2.0, "level_n") - (1 - 8)) < 1e-12

    def test_second_kind_equals_two_at_base_point(self):
        for seed in (1, 5):
            seq = pa.RandomSequence(0.8, seed)
            p = pa.ParaPolynomial("second", 40, np.exp(0.4j), seq)
            assert pa.para_eval(p, p.lam, "kernel") == 2.0

    def test_first_kind_vanishes_at_base_point(self):
        seq = pa.RandomSequence(0.85, 17)
        p = pa.ParaPolynomial("first", 60, np.exp(1.2j), seq)
        assert pa.para_eval(p, p.lam, "kernel") == 0.0
        scale = para_scale(p, p.lam, "level_n")
        assert abs(pa.para_eval(p, p.lam, "level_n")) <= 1e-9 * scale

    def test_three_definitions_agree(self):
        rng = np.random.default_rng(12)
        for seed in (100, 101, 102, 103):
            seq = pa.RandomSequence(0.85, seed)
            lam = np.exp(1j * rng.uniform(0.0, TWO_PI))
            for kind in ("first", "second"):
                p = pa.ParaPolynomial(kind, 80, lam, seq)
                z = np.exp(1j * rng.uniform(0.0, TWO_PI, 32))
                vals = {d: pa.para_eval(p, z, d) for d in DEFINITIONS}
                ref = np.maximum(para_scale(p, z, "level_n"), 1.0)
                for d1, d2 in (("kernel", "level_n"), ("level_n", "level_nm1")):
                    assert np.max(np.abs(vals[d1] - vals[d2]) / ref) <= 1e-9

    def test_degree_and_kind_validation(self):
        with pytest.raises(ValueError):
            pa.ParaPolynomial("third", 3, 1.0, pa.ConstantSequence(0.0))
        with pytest.raises(ValueError):
            pa.ParaPolynomial("first", 0, 1.0, pa.ConstantSequence(0.0))
        with pytest.raises(ValueError):
            pa.ParaPolynomial("first", 3, 1.1, pa.ConstantSequence(0.0))
        p = pa.ParaPolynomial("first", 3, 1.0, pa.ConstantSequence(0.0))
        with pytest.raises(ValueError):
            pa.para_eval(p, 1.0, "bogus")


class TestBeta:
    def test_free_case(self):
        p = pa.ParaPolynomial("first", 5, 1.0, pa.ConstantSequence(0.0))
        assert pa.beta_coefficient(p) == 1.0
        q = pa.ParaPolynomial("second", 5, 1.0, pa.ConstantSequence(0.0))
        assert pa.beta_coefficient(q) == -1.0

    def test_direct_formula(self):
        seq = pa.ConstantSequence(0.5)
        p = pa.ParaPolynomial("first", 2, 1.0, seq)
        pv = eval_pair(seq, 1, 1.0)
        expected = np.conj(1.0) * pv.phi_star / pv.phi
        assert abs(pa.beta_coefficient(p) - expected) < 1e-14

    def test_unimodular(self):
        rng = np.random.default_rng(2)
        for seed in (7, 8, 9):
            seq = pa.RandomSequence(0.9, seed)
            lam = np.exp(1j * rng.uniform(0.0, TWO_PI))
            for kind in ("first", "second"):
                b = pa.beta_coefficient(pa.ParaPolynomial(kind, 35, lam, seq))
                assert abs(abs(b) - 1.0) <= 1e-10
        b1 = pa.beta_coefficient(pa.ParaPolynomial("first", 35, lam, seq))
        b2 = pa.beta_coefficient(pa.ParaPolynomial("second", 35, lam, seq))
        assert b2 == -b1


class TestRealForm:
    def test_free_case_closed_form(self):
        # eta_2 at theta = pi/2 equals -2 when pinned at 1
        p = pa.ParaPolynomial("first", 2, 1.0, pa.ConstantSequence(0.0))
        vals, resid, _ = real_form_grid(p, [math.pi / 2])
        assert vals[0] == -2.0
        assert resid[0] == 0.0

    def test_second_kind_at_origin(self):
        p = pa.ParaPolynomial("second", 7, np.exp(0.3j), pa.RandomSequence(0.6, 1))
        vals, _, _ = real_form_grid(p, [0.0])
        # level form loses the exact 2 at huge scales; here scale is tame
        assert abs(vals[0] - 2.0) < 1e-9

    def test_free_trace_is_sine(self):
        p = pa.ParaPolynomial("first", 6, 1.0, pa.ConstantSequence(0.0))
        th = np.linspace(0.1, TWO_PI - 0.1, 37)
        vals, resid, _ = real_form_grid(p, th)
        assert np.max(np.abs(vals - (-2.0 * np.sin(3.0 * th)))) < 1e-12
        assert np.max(resid) < 1e-12

    def test_realness_bulk(self):
        rng = np.random.default_rng(77)
        for seed in (11, 12, 13):
            seq = pa.RandomSequence(0.8, seed)
            lam = np.exp(1j * rng.uniform(0.0, TWO_PI))
            n = int(rng.integers(2, 201))
            th = rng.uniform(0.0, TWO_PI, 256)
            for kind in ("first", "second"):
                p = pa.ParaPolynomial(kind, n, lam, seq)
                vals, resid, _ = real_form_grid(p, th)
                assert np.max(resid) <= 1e-9 * max(np.max(np.abs(vals)), 1.0)

    def test_branch_wrap_sign_flip_odd_degree(self):
        # for odd n the branch factor flips sign across theta = 0
        seq = pa.RandomSequence(0.5, 21)
        p = pa.ParaPolynomial("second", 7, np.exp(1.0j), seq)
        eps = 1e-8
        lo = real_form_grid(p, [eps])[0][0]
        hi = real_form_grid(p, [TWO_PI - eps])[0][0]
        assert abs(hi + lo) <= 1e-6 * max(abs(lo), 1.0)
        # even n: continuous across the cut
        q = pa.ParaPolynomial("second", 8, np.exp(1.0j), seq)
        lo = real_form_grid(q, [eps])[0][0]
        hi = real_form_grid(q, [TWO_PI - eps])[0][0]
        assert abs(hi - lo) <= 1e-6 * max(abs(lo), 1.0)


class TestOneCombine:
    """The level forms of every route come from one combine, bit for bit."""

    CASES = [(seed, n) for seed in (1, 2, 3) for n in (1, 40, 150)]

    @pytest.mark.parametrize("seed, n", CASES)
    def test_second_kind_is_the_mixed_form(self, seed, n):
        seq = pa.RandomSequence(0.8, seed)
        rng = np.random.default_rng(seed)
        lam = np.exp(1j * rng.uniform(0.0, TWO_PI))
        z = np.exp(1j * rng.uniform(0.0, TWO_PI, 16))
        p = pa.ParaPolynomial("second", n, lam, seq)
        for definition, level in (("level_n", "n"), ("level_nm1", "nm1")):
            want = mixed_form(seq, n, z, lam, level)
            assert pa.para_eval(p, z, definition).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed, n", CASES)
    def test_grid_trace_is_the_trace_at_levels(self, seed, n):
        seq = pa.RandomSequence(0.8, seed)
        rng = np.random.default_rng(seed)
        lam = np.exp(1j * rng.uniform(0.0, TWO_PI))
        th = rng.uniform(0.0, TWO_PI, 64)
        for kind in ("first", "second"):
            p = pa.ParaPolynomial(kind, n, lam, seq)
            got = _trace_at_levels(p, th, np.full(th.size, n))
            assert real_form_grid(p, th)[0].tobytes() == got.tobytes()


class TestLevelPasses:
    # one recursion pass serves several degrees, deepest sample first
    # (_trace_at_levels, _phase_at_levels) or over nested prefixes
    # (_nested_levels); each degree gets its values alone

    @pytest.mark.parametrize("seq, lam", [
        (pa.ConstantSequence(-0.5), np.exp(1j * np.pi)),
        (pa.RandomSequence(0.7, 1), np.exp(0.3j)),
        (pa.RandomSequence(0.9, 2), 1.0),
        (pa.DecayingSequence(0.5, 1.0), np.exp(2.0j)),
        (pa.RandomSequence(0.99, 4), np.exp(-1.0j)),
    ], ids=["const-0.5", "random0.7-seed1", "random0.9-seed2", "decaying0.5", "random0.99-seed4"])
    @pytest.mark.parametrize("kind", ["first", "second"])
    def test_batched_degrees_match_each_degree_alone(self, seq, lam, kind):
        # a deepest-first batch of 4,604 samples, past one kernel block,
        # and nested prefixes of one grid.  The phase groups run five
        # levels on const -0.5, all 100 levels on the decaying sequence
        # (every row is read inside an open group), mostly two to four on
        # random 0.99
        rng = np.random.default_rng(11)
        sizes = {101: 2500, 100: 1700, 65: 300, 64: 64, 33: 33, 5: 7}
        polys = {n: pa.ParaPolynomial(kind, n, lam, seq) for n in sizes}
        parts = {n: rng.uniform(0.0, TWO_PI, m) for n, m in sizes.items()}
        th, nn = np.concatenate(list(parts.values())), np.repeat(list(sizes), list(sizes.values()))
        grid = rng.uniform(0.0, TWO_PI, 2048)
        widths = {101: 2048, 100: 1024, 65: 1024, 64: 256, 33: 256, 5: 32}
        nested = _nested_levels(polys[101], grid, widths)
        phase, trace = _phase_at_levels(polys[101], th, nn), _trace_at_levels(polys[101], th, nn)
        start = np.cumsum([0] + list(sizes.values()))
        for k, (n, p) in enumerate(polys.items()):
            for t, got_phase, got_trace in ((parts[n], phase[start[k]:start[k + 1]], trace[start[k]:start[k + 1]]),
                                            (grid[: widths[n]], *nested[n])):
                alone = np.full(t.size, n)
                assert got_phase.tobytes() == _phase_at_levels(p, t, alone).tobytes()
                want = _trace_at_levels(p, t, alone)
                assert np.max(np.abs(got_trace - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("seq", [
        pa.ConstantSequence(-0.5), pa.ConstantSequence(0.95), pa.ConstantSequence(0.99),
        pa.RandomSequence(0.7, 1), pa.RandomSequence(0.99, 4), pa.DecayingSequence(0.5, 1.0),
    ], ids=["const-0.5", "const0.95", "const0.99", "random0.7-seed1", "random0.99-seed4", "decaying0.5"])
    def test_phase_groups_stay_below_a_wrap(self, seq):
        # greedy from level 0: no group's asin|alpha_k| reach 0.9 pi, each
        # but the last would reach PHASE_GROUP with one more level, and a
        # prefix of the coefficients gets the leading ends; const 0.99 has
        # groups of one level
        alphas = seq.alphas(400)
        width = np.arcsin(np.abs(alphas))
        ends = _phase_groups(alphas)
        for start, end in zip([0, *ends], [*ends, alphas.size]):
            assert math.fsum(width[start:end]) < 0.9 * math.pi
            if end < alphas.size:
                assert math.fsum(width[start:end + 1]) >= PHASE_GROUP
        for m in (1, 57, 200, 399):
            assert _phase_groups(alphas[:m]) == [e for e in ends if e < m]

    @staticmethod
    def per_level_phase(alphas, z, levels):
        """_phase_levels as the b_k recursion itself, one arctan2 per
        level and no groups."""
        b, acc, rows = z.copy(), np.zeros(z.size), []
        for k in range(max(levels) + 1):
            if k in levels:
                rows.append(acc.copy())
            if k < max(levels):
                q = 1.0 - alphas[k] * b
                acc += np.arctan2(q.imag, q.real)
                b *= z * np.conj(q) / q
        return rows

    @pytest.mark.parametrize("seq", [
        pa.ConstantSequence(-0.5), pa.ConstantSequence(0.95), pa.RandomSequence(0.7, 1),
        pa.RandomSequence(0.99, 4), pa.DecayingSequence(0.5, 1.0),
    ], ids=["const-0.5", "const0.95", "random0.7-seed1", "random0.99-seed4", "decaying0.5"])
    def test_grouped_phase_matches_the_per_level_sum(self, seq):
        # the same recursion rounded another way: a phase, which moves by
        # a sum's change over pi, within a tenth of ON_ZERO.  Measured at
        # most 6e-11 turns apart (const 0.95, level 199); at level 400
        # the per-level sum lies up to 7e-11 turns from the recursion in
        # 60 digits, and the grouped one 3.4e-11
        alphas, levels = seq.alphas(400), (1, 50, 199, 400)
        z = np.exp(1j * np.random.default_rng(3).uniform(0.0, TWO_PI, 2048))
        got, want = _phase_levels(alphas, z, levels), self.per_level_phase(alphas, z, levels)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) / np.pi <= ON_ZERO / 10

    @staticmethod
    def mp_phase(p, thetas, dps=60):
        """_phase_at_levels at p's degree from the same b_k recursion in
        dps digits, at the same double points z = lambda e^{i theta}."""
        n = p.n
        with mpmath.workdps(dps):
            a = [mpmath.mpc(complex(x)) for x in p._z_alphas(n - 1)]
            arg_lam, out = mpmath.arg(mpmath.mpc(complex(p.lam))), []
            for t, zt in zip(thetas, p.lam * np.exp(1j * np.asarray(thetas))):
                z = mpmath.mpc(complex(zt))
                b, acc = z, mpmath.mpf(0)
                for ak in a:
                    q = 1 - ak * b
                    acc += mpmath.arg(q)
                    b = z * b * mpmath.conj(q) / q
                out.append(float((n * (arg_lam + mpmath.mpf(float(t))) - 2 * acc) / (2 * mpmath.pi)))
        return np.array(out)

    @pytest.fixture(scope="class")
    def arc_atom(self):
        # the arc + atom measure of the acceptance suite, 401 coefficients
        c = exact_arc_mass_moments(np.pi / 3, 5 * np.pi / 3, 0.65, [(0.0, 0.35)], 401, dps=260)
        return pa.ExplicitSequence(verblunsky_from_moments_hp(c, 401, dps=260))

    @pytest.mark.parametrize("fixture", ["const-0.5", "arc+atom"])
    @pytest.mark.parametrize("kind", ["first", "second"])
    def test_phase_rounding_is_far_below_on_zero(self, fixture, kind, request):
        # at lambda = pi the support arc [pi/3, 5pi/3] runs from 4pi/3 to
        # 2pi/3 through 0 in angles from lambda; the phase of h_401 on
        # const -0.5 is off by 4.4e-12 turns at the first point, 0.0085
        # inside the arc's end
        seq = pa.ConstantSequence(-0.5) if fixture == "const-0.5" else request.getfixturevalue("arc_atom")
        p = pa.ParaPolynomial(kind, 401, np.exp(1j * np.pi), seq)
        inside = np.geomspace(1e-1, 1e-6, 10)
        th = np.concatenate([[2.0858660456261124], 2 * np.pi / 3 - inside, 4 * np.pi / 3 + inside,
                             np.random.default_rng(7).uniform(0.0, TWO_PI, 20)])
        got = _phase_at_levels(p, th, np.full(th.size, p.n))
        assert np.max(np.abs(got - self.mp_phase(p, th))) < ON_ZERO / 10


class TestDifferenceIdentities:
    def test_first_kind_difference(self):
        # h_{n+1} - h_n = (1 - conj(lam) z) conj(phi_n(lam)) phi_n(z)
        rng = np.random.default_rng(31)
        seq = pa.RandomSequence(0.8, 55)
        lam = np.exp(0.8j)
        for n in (3, 40, 200):
            p0 = pa.ParaPolynomial("first", n, lam, seq)
            p1 = pa.ParaPolynomial("first", n + 1, lam, seq)
            z = np.exp(1j * rng.uniform(0.0, TWO_PI, 16))
            lhs = pa.para_eval(p1, z, "level_n") - pa.para_eval(p0, z, "level_n")
            pv = eval_pair(seq, n, z)
            pv_lam = eval_pair(seq, n, lam)
            rhs = (1.0 - np.conj(lam) * z) * np.conj(pv_lam.phi) * pv.phi
            scale = np.maximum(1.0, np.abs(rhs))
            assert np.max(np.abs(lhs - rhs) / scale) <= 1e-9

    def test_second_kind_difference(self):
        # s_{n+1} - s_n = -(1 - conj(lam) z) conj(phi_n(lam)) psi_n(z)
        rng = np.random.default_rng(32)
        seq = pa.RandomSequence(0.8, 56)
        lam = np.exp(2.1j)
        for n in (2, 60, 200):
            p0 = pa.ParaPolynomial("second", n, lam, seq)
            p1 = pa.ParaPolynomial("second", n + 1, lam, seq)
            z = np.exp(1j * rng.uniform(0.0, TWO_PI, 16))
            lhs = pa.para_eval(p1, z, "level_n") - pa.para_eval(p0, z, "level_n")
            qv = pa.eval_second_kind(seq, n, z)
            pv_lam = eval_pair(seq, n, lam)
            rhs = -(1.0 - np.conj(lam) * z) * np.conj(pv_lam.phi) * qv.phi
            scale = np.maximum(1.0, np.abs(rhs))
            assert np.max(np.abs(lhs - rhs) / scale) <= 1e-9


@pytest.fixture(scope="module")
def bs_setup():
    alphas = [0.5, -0.2 + 0.1j, 0.15j]
    measure = pa.bernstein_szego_measure(alphas, panels=2048)
    seq = pa.ExplicitSequence(alphas, tail=0.0)
    return measure, seq


class TestMeasureSideIdentities:

    def test_low_order_orthogonality(self, bs_setup):
        # <h_n, z^k> = 0 for k = 1..n-1 under the generating measure
        measure, seq = bs_setup
        n = 5
        p = pa.ParaPolynomial("first", n, np.exp(0.6j), seq)
        for k in range(1, n):
            def f(thetas, k=k):
                z = np.exp(1j * thetas)
                return pa.para_eval(p, z, "level_n") * np.conj(z**k)

            assert abs(measure.integrate(f)) < 1e-7

    def test_endpoint_inner_products(self, bs_setup):
        # after scaling out the kernel factor, <H_n, 1> and <H_n, z^n>
        # match the closed expressions in the recursion data
        measure, seq = bs_setup
        n = 4
        lam = np.exp(0.6j)
        p = pa.ParaPolynomial("first", n, lam, seq)
        factor = kernel_to_monic_factor(p)
        alpha = seq.alpha(n - 1)
        beta = pa.beta_coefficient(p)
        norm2 = monic_norm(seq, n - 1) ** 2

        def inner(g):
            def f(thetas):
                z = np.exp(1j * thetas)
                return (pa.para_eval(p, z, "level_n") / factor) * np.conj(g(z))

            return measure.integrate(f)

        got_one = inner(lambda z: np.ones_like(z))
        want_one = (np.conj(alpha) - np.conj(beta)) * norm2
        assert abs(got_one - want_one) < 1e-7
        got_top = inner(lambda z: z**n)
        want_top = (1.0 - np.conj(beta) * alpha) * norm2
        assert abs(got_top - want_top) < 1e-7

    def test_norm_upper_bound(self, bs_setup):
        measure, seq = bs_setup
        lam = np.exp(2.2j)
        for n in (2, 5, 9):
            p = pa.ParaPolynomial("first", n, lam, seq)

            def f(thetas):
                return np.abs(pa.para_eval(p, np.exp(1j * thetas), "level_n")) ** 2

            norm = math.sqrt(abs(measure.integrate(f)))
            bound = 2.0 * abs(eval_pair(seq, n, lam).phi)
            assert norm <= bound + 1e-7
