import dataclasses
import json
import math

import numpy as np
import pytest

import paraortho as pa
from paraortho import precision, zeros
from paraortho.errors import ResolutionError
from paraortho.para import _trace_at_levels, real_form_grid
from paraortho.zeros import ZeroSet, find_zeros_sweep

TWO_PI = 2.0 * math.pi


def free_poly(kind, n, lam=1.0):
    return pa.ParaPolynomial(kind, n, lam, pa.ConstantSequence(0.0))


def circ_dist(a, b):
    return np.abs((np.asarray(a) - np.asarray(b) + math.pi) % TWO_PI - math.pi)


def reference_bisect(fun, lo, hi, flo, tol):
    """Plain vectorized bisection on sign changes; returns bracket midpoints.

    Each bracket is halved until it is narrower than tol; fun(thetas,
    sel) evaluates the trace at the midpoints of the brackets `sel`.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(flo, dtype=float).copy()
    if lo.size == 0:
        return lo
    steps = np.maximum(1, np.ceil(np.log2(np.maximum(hi - lo, tol) / tol))).astype(int)
    for step in range(int(steps.max())):
        sel = np.nonzero(steps > step)[0]
        mid = 0.5 * (lo[sel] + hi[sel])
        fm = fun(mid, sel)
        left = np.sign(flo[sel]) * np.sign(fm) <= 0.0  # the product of two large traces overflows
        hi[sel] = np.where(left, mid, hi[sel])
        lo[sel] = np.where(left, lo[sel], mid)
        flo[sel] = np.where(left, flo[sel], fm)
    return 0.5 * (lo + hi)


class TestFindZeros:
    def test_free_first_kind_quarters(self):
        zs = pa.find_zeros(free_poly("first", 4))
        want = np.array([0.0, 0.5, 1.0, 1.5]) * math.pi
        assert zs.angles.size == 4
        assert np.max(np.abs(zs.angles - want)) <= 1e-12
        assert zs.simplicity
        assert zs.angles[0] == 0.0 and zs.residuals[0] == 0.0

    def test_free_second_kind_eighths(self):
        zs = pa.find_zeros(free_poly("second", 4))
        want = np.array([0.25, 0.75, 1.25, 1.75]) * math.pi
        assert np.max(np.abs(zs.angles - want)) <= 1e-12

    def test_degree_one(self):
        zh = pa.find_zeros(free_poly("first", 1))
        assert list(zh.angles) == [0.0]
        zsnd = pa.find_zeros(free_poly("second", 1))
        assert abs(zsnd.angles[0] - math.pi) <= 1e-12

    def test_count_exactness_and_base_membership(self):
        rng = np.random.default_rng(10)
        for seed, n in [(1, 4), (2, 9), (3, 16), (4, 33), (5, 70)]:
            seq = pa.RandomSequence(0.5, seed)
            lam = np.exp(1j * rng.uniform(0.0, TWO_PI))
            for kind in ("first", "second"):
                zs = pa.find_zeros(pa.ParaPolynomial(kind, n, lam, seq))
                assert zs.angles.size == n
                assert np.all(np.diff(zs.angles) > 0.0)
                assert zs.simplicity
                if kind == "first":
                    assert zs.angles[0] == 0.0

    def test_geronimus_matches_oracle(self):
        p = pa.ParaPolynomial("first", 10, 1.0, pa.ConstantSequence(0.5))
        a = pa.find_zeros(p)
        b = pa.oracle_zeros(p)
        assert np.max(circ_dist(a.angles, b.angles)) <= 1e-9

    def test_seeded_matches_oracle(self):
        seq = pa.RandomSequence(0.5, 77)
        for kind in ("first", "second"):
            p = pa.ParaPolynomial(kind, 25, np.exp(0.9j), seq)
            a = pa.find_zeros(p)
            b = pa.oracle_zeros(p)
            assert a.angles.size == b.angles.size == 25
            assert np.max(circ_dist(a.angles, b.angles)) <= 1e-8

    def test_resolution_error_reports_found_count(self):
        # at lambda = -1 exactly, h_69's two zeros next to the atom of
        # const 0.5 are closer than double angles resolve
        p = pa.ParaPolynomial("first", 69, -1.0, pa.ConstantSequence(0.5))
        with pytest.raises(ResolutionError) as info:
            pa.find_zeros(p)
        assert (info.value.expected, info.value.found) == (69, 67)

    def test_zero_where_the_trace_overflows_is_unresolved(self):
        # const 0.95 at lambda = pi: past 1e308 next to the atom at z = 1
        # h_400's trace is nan, so no sign placed the zero there, and the
        # estimate that would report it as an isolated point raises too
        seq, lam = pa.ConstantSequence(0.95), np.exp(1j * np.pi)
        with np.errstate(all="ignore"), pytest.raises(ResolutionError) as info:
            pa.find_zeros(pa.ParaPolynomial("first", 400, lam, seq))
        assert "residual" in str(info.value)
        with np.errstate(all="ignore"), pytest.raises(ResolutionError):
            pa.estimate_support(seq, lam, 400)

    @pytest.mark.parametrize("seed, kind, n", [(17, "second", 65), (5, "first", 140)])
    def test_isolates_close_pairs(self, seed, kind, n):
        # two zeros 1.5e-4 and 5.5e-6 apart share a cell of the first
        # phase pass; the further passes bracket them apart
        zs = pa.find_zeros(pa.ParaPolynomial(kind, n, 1.0, pa.RandomSequence(0.7, seed)))
        assert zs.angles.size == n
        assert np.all(np.diff(zs.angles) > 0.0)
        assert zs.simplicity

    def test_empty_degree_list(self):
        assert find_zeros_sweep("first", 1.0, pa.ConstantSequence(0.5), []) == {}

    def test_sweep_matches_single(self):
        # each midpoint lies within theta_tol / 2 of its zero, so a degree
        # found alone and within a sweep agree to theta_tol; their last
        # bits depend on the degrees swept together
        seq = pa.RandomSequence(0.7, 1)
        for kind in ("first", "second"):
            swept = find_zeros_sweep(kind, 1.0, seq, range(1, 152))
            for n in range(1, 152, 3):
                single = pa.find_zeros(pa.ParaPolynomial(kind, n, 1.0, seq))
                assert np.max(np.abs(swept[n].angles - single.angles)) <= zeros.THETA_TOL


class TestPhaseRoute:
    # brackets from the phase count where zeros crowd, meet grid points
    # or sit within rounding of lambda

    @pytest.mark.parametrize("alpha, lam, kind, n", [
        (("const", 0.5), np.exp(1j * np.pi), "first", 401),
        (("const", -0.5), np.exp(1j * np.pi), "second", 400),
        (("random", 0.9), 1.0, "first", 401),
        (("random", 0.9), 1.0, "second", 401),
        (("random", 0.9), 1.0, "first", 600),
        (("random", 0.9), 1.0, "second", 600),
        (("random", 0.9), -1.0, "first", 401),
        (("random", 0.9), -1.0, "second", 401),
    ])
    def test_clustered_zeros(self, alpha, lam, kind, n):
        # zeros next to an atom and traces past 1e154 (random radius 0.9,
        # seed 2), where the phase count splits cells down to single ulps
        seq = pa.ConstantSequence(alpha[1]) if alpha[0] == "const" else pa.RandomSequence(alpha[1], 2)
        zs = pa.find_zeros(pa.ParaPolynomial(kind, n, lam, seq))
        assert zs.angles.size == n
        assert np.all(np.diff(zs.angles) > 0.0)
        assert zs.simplicity

    def test_pair_across_a_flat_phase(self):
        # const -0.5 at lambda = pi: s_n has two zeros about 1e-14 apart
        # in the support gap, where the phase stays within 1e-13 turns of
        # a whole turn; the trace signs at the samples count them
        seq = pa.ConstantSequence(-0.5)
        for n, zs in find_zeros_sweep("second", np.exp(1j * np.pi), seq, [62, 86, 92]).items():
            assert zs.angles.size == n and zs.simplicity

    def test_unresolvable_pair_reports_found_count(self):
        # at lambda = -1 exactly h_401's two zeros next to the atom of
        # const 0.5 are 3e-95 apart: no double angle lies between them
        p = pa.ParaPolynomial("first", 401, -1.0, pa.ConstantSequence(0.5))
        with pytest.raises(ResolutionError) as info:
            pa.find_zeros(p)
        assert (info.value.expected, info.value.found) == (401, 399)

    @pytest.mark.parametrize("kind, offset", [("first", 0.0), ("second", 0.5)])
    def test_zeros_on_grid_points(self, kind, offset):
        # the free case's zeros sit on points of the first phase pass
        n = 256
        zs = pa.find_zeros(free_poly(kind, n))
        assert np.max(np.abs(zs.angles - TWO_PI * (np.arange(n) + offset) / n)) <= 1e-12
        assert zs.simplicity

    def test_zero_at_antipode(self):
        # const -0.5 at lambda = pi: h_400 vanishes at t = pi, a point of
        # the first phase pass, inside the support gap
        seq = pa.ConstantSequence(-0.5)
        zs = pa.find_zeros(pa.ParaPolynomial("first", 400, -1.0, seq))
        assert zs.angles.size == 400 and zs.simplicity
        assert np.min(np.abs(zs.angles - math.pi)) <= 1e-12

    def test_second_kind_zero_within_rounding_of_lambda(self):
        # one zero of s_n lies 4.9e-13 after lambda, where the phase alone
        # cannot tell its side (it comes out just above or below a whole
        # turn); the trace is +2 at lambda and must be negative after it
        for seed in (18, 19, 20):
            seq = pa.RandomSequence(0.7, seed)
            for n, zs in find_zeros_sweep("second", 1.0, seq, range(122, 143, 5)).items():
                assert zs.angles[0] < 1e-12 and zs.simplicity
                mid = 0.5 * (zs.angles[0] + zs.angles[1])
                assert real_form_grid(zs.source, [mid])[0][0] < 0.0

    def test_sweep_above_eigen_max_n_matches_single(self):
        seq = pa.RandomSequence(0.9, 2)
        swept = find_zeros_sweep("second", 1.0, seq, [300, 401])
        single = pa.find_zeros(pa.ParaPolynomial("second", 401, 1.0, seq))
        assert np.array_equal(swept[401].angles, single.angles)

    def test_one_first_pass_per_sweep(self, monkeypatch):
        # degree n samples 2^ceil(log2(4 n)) points, every one of them a
        # point of the top degree's 512 (4 * 101 = 404 rounded up), where
        # one grid per degree of 4 n points would sample 20,400
        calls, first_pass = [], zeros._nested_levels

        def spy(p, thetas, widths):
            calls.append((p.n, np.size(thetas)))
            assert widths == {n: 1 << (4 * n - 1).bit_length() for n in range(2, 102)}
            return first_pass(p, thetas, widths)

        monkeypatch.setattr(zeros, "_nested_levels", spy)
        seq = pa.RandomSequence(0.7, 1)
        out = zeros._zero_sets({n: pa.ParaPolynomial("first", n, 1.0, seq) for n in range(2, 102)})
        assert calls == [(101, 512)]
        assert all(zs.angles.size == n for n, zs in out.items())

    @pytest.mark.parametrize("kind", ["first", "second"])
    def test_sweep_writes_nothing_into_the_lower_degrees(self, kind):
        # the top degree's base-point rows serve every degree of a sweep
        seq = pa.ConstantSequence(-0.5)
        polys = {n: pa.ParaPolynomial(kind, n, np.exp(1j * np.pi), seq) for n in range(2, 41)}
        before = {n: dict(vars(p)) for n, p in polys.items()}
        out = zeros._zero_sets(polys)
        assert all(out[n].angles.size == n for n in polys)
        for n in range(2, 40):
            assert vars(polys[n]).keys() == before[n].keys()
            assert all(vars(polys[n])[k] is v for k, v in before[n].items())

    @pytest.mark.parametrize("seq, lam", [
        (pa.ConstantSequence(-0.5), np.exp(1j * np.pi)),
        (pa.RandomSequence(0.7, 1), 1.0),
    ], ids=["const-0.5", "random0.7-seed1"])
    @pytest.mark.parametrize("kind", ["first", "second"])
    def test_brackets_do_not_depend_on_the_sweep(self, seq, lam, kind):
        # a degree's first samples are points of every larger degree's
        # grid, so it gets the same cells alone or swept with others
        def brackets(degrees):
            return zeros._phase_brackets({m: pa.ParaPolynomial(kind, m, lam, seq) for m in degrees})

        sweep = brackets(range(2, 102))
        for n in (2, 5, 33, 64, 65, 100, 101):
            alone = brackets([n])[n]
            for swept in (sweep[n], brackets(range(n, 2 * n + 2))[n]):
                for got, want in zip(swept[:3], alone[:3]):
                    assert np.array_equal(got, want), n


class TestPolish:
    # one point per bracket per pass, as zero sets polish, and
    # PHASE_SPLIT + 1, as the support estimate's few zeros do; on finite
    # end values the latter takes at most a third of bisection's passes
    def test_matches_bisection(self):
        self.check_matches_bisection(1)

    def test_matches_bisection_at_eight_points(self):
        self.check_matches_bisection(zeros.PHASE_SPLIT + 1)

    def test_worst_case_on_a_steep_trace(self):
        self.check_worst_case_on_a_steep_trace(1)

    def test_worst_case_on_a_steep_trace_at_eight_points(self):
        self.check_worst_case_on_a_steep_trace(zeros.PHASE_SPLIT + 1)

    @staticmethod
    def check_matches_bisection(points):
        # phase brackets of both kinds, traces past 1e123 at radius 0.9,
        # and first-kind cells whose low end is the pinned zero (value 0)
        tol, pinned = zeros.THETA_TOL, 0
        cases = [(kind, 1.0, pa.RandomSequence(radius, seed), n)
                 for radius, seed, n in [(0.7, 3, 30), (0.7, 3, 80), (0.7, 3, 140), (0.7, 5, 30),
                                         (0.7, 5, 80), (0.7, 5, 140), (0.9, 2, 401)]
                 for kind in ("first", "second")]
        # a zero next to the gap's centre, 7.4e-11 from a cell end where the
        # trace is 6.4e-11 against 7.0e6 at the other end (n = 44): chord
        # points land tol/2 inside that end pass after pass
        cases += [("second", np.exp(1j * np.pi), pa.ConstantSequence(-0.5), n) for n in (30, 44)]
        for kind, lam, seq, n in cases:
            p = pa.ParaPolynomial(kind, n, lam, seq)

            lo, hi, side, flo, fhi, _ = zeros._phase_brackets({n: p})[n]
            pinned += kind == "first" and lo[0] == 0.0 and flo[0] == 0.0

            def trace(thetas, sel):
                passes.append(thetas.size)
                return _trace_at_levels(p, thetas, np.full(thetas.size, n))

            passes = []
            want = reference_bisect(trace, lo, hi, side, tol)
            bisection = len(passes)
            worst = 3 * math.ceil(math.log2(np.max(hi - lo) / tol))
            case = f"{kind} {seq!r} lambda {lam} n {n}"
            # the low ends once more as if the trace had overflowed there
            for ends in (flo, np.where(flo == 0.0, 0.0, np.inf)):
                passes = []
                roots = zeros._polish(trace, lo, hi, side, ends, fhi, tol, points)
                assert np.max(np.abs(roots - want)) <= tol, case
                assert len(passes) <= worst, case
                if ends is flo and points == 1:
                    assert len(passes) < bisection, case
                elif ends is flo:
                    assert len(passes) <= bisection // 3, case
        assert pinned == 2

    @staticmethod
    def check_worst_case_on_a_steep_trace(points):
        # a zero between values 1 and 1e262 in size, as at the edge of a
        # support gap: chord steps alone would creep from the low end
        tol, zero = 1e-12, 0.1234

        def steep(thetas, sel=None):
            passes.append(thetas.size)
            return np.expm1(690.0 * (thetas - zero))

        passes, lo, hi = [], np.array([0.0]), np.array([1.0])
        flo, fhi = steep(lo), steep(hi)
        passes.clear()
        root = zeros._polish(steep, lo, hi, [-1.0], flo, fhi, tol, points)
        assert abs(root[0] - zero) <= tol
        assert len(passes) <= 3 * math.ceil(math.log2(1.0 / tol))
        if points > 1:
            assert len(passes) <= math.ceil(math.log2(1.0 / tol)) // 3


class TestOracle:
    def test_free_cases(self):
        a = pa.oracle_zeros(free_poly("first", 3))
        assert np.max(circ_dist(a.angles, [0.0, TWO_PI / 3, 2 * TWO_PI / 3])) <= 1e-9
        b = pa.oracle_zeros(free_poly("second", 3))
        assert np.max(circ_dist(b.angles, [math.pi / 3, math.pi, 5 * math.pi / 3])) <= 1e-9

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            pa.oracle_zeros(free_poly("first", 4), grid_points=100)

    def test_dense_grid_is_evaluated_once(self, monkeypatch):
        sizes, evaluate = [], zeros.para_eval

        def spy(p, z, definition="level_nm1"):
            sizes.append(np.size(z))
            return evaluate(p, z, definition)

        monkeypatch.setattr(zeros, "para_eval", spy)
        p = pa.ParaPolynomial("first", 20, np.exp(1j * np.pi), pa.ConstantSequence(-0.5))
        zs = pa.oracle_zeros(p, grid_points=256 * 20)
        assert zs.angles.size == 20
        assert sizes.count(256 * 20) == 1


class TestInterlace:
    def test_free_pass(self):
        a = pa.find_zeros(free_poly("first", 4))
        b = pa.find_zeros(free_poly("second", 4))
        assert pa.interlace(a, b).verdict == "pass"

    def test_self_comparison_fails_with_empty_arc(self):
        a = pa.find_zeros(free_poly("first", 4))
        res = pa.interlace(a, a)
        assert res.verdict == "fail"
        assert res.witness["count"] == 0

    def test_collision_is_inconclusive(self):
        a = pa.find_zeros(free_poly("first", 4))
        shifted = ZeroSet(
            "second", 4, a.lambda_theta, (a.angles + 5e-11) % TWO_PI,
            a.residuals, a.scale, a.simplicity,
        )
        res = pa.interlace(a, shifted)
        assert res.verdict == "inconclusive"
        assert res.witness["min_pair_distance"] < 1e-10

    @pytest.mark.parametrize("n, decided", [(100, {"long double": 24}),
                                            (140, {"fixed-104": 1, "long double": 63})])
    def test_same_degree_collisions_decided_from_one_row(self, n, decided):
        # seed 1 at n = 100: 24 zero pairs closer than 1e-10, the closest
        # 3.8e-18 apart, far below float64 and long double resolution, yet
        # s_n's sign at h_n's refined zero follows from h_n's own row in
        # long double; at n = 140 a second-kind zero also lies 4.9e-13 from
        # the pinned one, a side of lambda decided at 2^-104
        seq = pa.RandomSequence(0.7, 1)
        h = pa.find_zeros(pa.ParaPolynomial("first", n, 1.0, seq))
        s = pa.find_zeros(pa.ParaPolynomial("second", n, 1.0, seq))
        for res in (pa.interlace(h, s), pa.interlace(s, h)):
            assert (res.verdict, res.decided) == ("pass", decided)

    @pytest.mark.parametrize("n, decided", [(80, {"long double": 5}),
                                            (100, {"long double": 24})])
    def test_sources_compared_by_coefficients(self, n, decided):
        # equal coefficients from two sequence objects decide collisions as
        # one object does; a source with other coefficients leaves them open
        h, s = (pa.find_zeros(pa.ParaPolynomial(kind, n, 1.0, pa.RandomSequence(0.7, 1)))
                for kind in ("first", "second"))
        res = pa.interlace(h, s)
        assert (res.verdict, res.decided) == ("pass", decided)
        other = dataclasses.replace(s, source=pa.ParaPolynomial("second", n, 1.0, pa.RandomSequence(0.7, 2)))
        assert pa.interlace(h, other).verdict == "inconclusive"

    def test_other_kind_and_degree_is_inconclusive(self):
        # h_141 without its base point against s_140: six pairs closer than
        # 1e-10 between two kinds of two degrees, a shape no identity
        # relates and no paper statement compares
        seq = pa.RandomSequence(0.7, 1)
        h = pa.find_zeros(pa.ParaPolynomial("first", 141, 1.0, seq)).without_base_point()
        s = pa.find_zeros(pa.ParaPolynomial("second", 140, 1.0, seq))
        res = pa.interlace(h, s)
        assert res.verdict == "inconclusive"
        assert res.witness["min_pair_distance"] < zeros.COLLISION_TOL
        with pytest.raises(ValueError, match="share f's degree"):
            precision.order([(h.source, s.source, h.angles[:1])])

    @pytest.mark.parametrize("seed", range(12))
    def test_close_pairs_match_the_gap_matrix(self, seed):
        # random sets with colliding pairs planted at and near the
        # threshold, one across the wrap at 2pi, and one zero of a within
        # COLLISION_TOL of two zeros of b
        rng, tol = np.random.default_rng(seed), zeros.COLLISION_TOL
        na = int(rng.integers(3, 60))
        xa = np.sort(rng.uniform(0.0, TWO_PI, na))
        xb = np.sort(rng.uniform(0.0, TWO_PI, na + int(rng.integers(0, 2))))
        if seed % 3:
            picks = rng.choice(xb.size - 2, size=min(5, xb.size - 2), replace=False)
            xb[picks] = (xa[picks] + tol * rng.choice([-1.5, -1.0, -0.999999, 0.5, 0.999999, 1.000001],
                                                      size=picks.size)) % TWO_PI
            xa[0], xb[-1] = 3e-11, TWO_PI - 4e-11
            xb[-3], xb[-2] = xa[-1] - 0.4 * tol, xa[-1] + 0.5 * tol
        xa, xb = np.sort(xa), np.sort(xb)
        gaps = zeros._circular_gap(xa[:, None], xb[None, :])
        dmin, pairs = zeros._close_pairs(xa, xb)
        assert dmin == float(np.min(gaps))
        want = np.argwhere(gaps < tol)
        if want.size:
            assert np.array_equal(pairs, want)
            assert seed % 3 == 0 or want.shape[0] >= 3
        else:
            assert pairs is None

    @pytest.mark.parametrize("seed", range(16))
    def test_arc_counts_match_the_inside_matrix(self, seed):
        # verdicts and witnesses of the |a| x |b| arc-membership matrix,
        # the reference, on interlacing sets of both variants (same-degree
        # ones turned by a random angle), the same with one zero of b
        # moved at random or into the arc that wraps at 2pi, and random
        # sets; |a| = 1, 2 and more
        def matrix_verdict(xa, xb):
            if xb.size == xa.size + 1:
                lo, hi = np.concatenate([[0.0], xa]), np.concatenate([xa, [TWO_PI]])
                inside = (xb > lo[:, None]) & (xb < hi[:, None])
            else:
                span = np.full(1, TWO_PI) if xa.size == 1 else (np.roll(xa, -1) - xa) % TWO_PI
                rel = (xb - xa[:, None]) % TWO_PI
                inside = (rel > 0.0) & (rel < span[:, None])
                lo, hi = xa % TWO_PI, (xa + span) % TWO_PI
            counts = np.sum(inside, axis=1)
            if np.all(counts == 1):
                return "pass", {}
            k = int(np.argmax(counts != 1))
            return "fail", {"arc": (float(lo[k]), float(hi[k])), "count": int(counts[k])}

        rng = np.random.default_rng(seed)
        for na in (1, 2, int(rng.integers(3, 60))):
            for consecutive in (False, True):
                points = np.sort(rng.uniform(0.0, TWO_PI, 2 * na + consecutive))
                if consecutive:
                    xa, xb = points[1::2], points[0::2]
                else:
                    turn = rng.uniform(0.0, TWO_PI)
                    xa, xb = (np.sort((x + turn) % TWO_PI) for x in (points[0::2], points[1::2]))
                moved = xb.copy()
                moved[rng.integers(xb.size)] = rng.uniform(0.0, TWO_PI)
                wrapped = np.append(xb[1:], rng.uniform(xa[-1], xa[0] + TWO_PI) % TWO_PI)
                for b in (xb, moved, wrapped, rng.uniform(0.0, TWO_PI, xb.size)):
                    b = np.sort(b)
                    sets = [ZeroSet("second", x.size, 0.0, x, np.zeros(x.size), 1.0, True) for x in (xa, b)]
                    res = pa.interlace(*sets)
                    assert (res.verdict, res.witness) == matrix_verdict(xa, b)

    def test_zero_between_two_colliding_zeros(self):
        # const -0.5 at lambda = pi, n = 76: h_n's zero in the support gap
        # lies 2.4e-22 above one s_n zero and 1.2e-14 below the next
        seq = pa.ConstantSequence(-0.5)
        lam = np.exp(1j * math.pi)
        h = pa.find_zeros(pa.ParaPolynomial("first", 76, lam, seq))
        s = pa.find_zeros(pa.ParaPolynomial("second", 76, lam, seq))
        assert pa.interlace(h, s).verdict == "pass"

    def test_consecutive_collisions_need_mpmath(self):
        # seed 5, h_150 against h_151: one pair is 9.4e-32 apart, within
        # reach at 2^-104 once the derivatives are long double ones;
        # seed 2, h_179 against h_180: decided below 40 digits; seed 5,
        # h_179 against h_180: 6 pairs that only the 40-digit stage decides
        for seed, n, stage in ((5, 150, "fixed-104"), (2, 179, None), (5, 179, "fixed-136")):
            seq = pa.RandomSequence(0.7, seed)
            a = pa.find_zeros(pa.ParaPolynomial("first", n, 1.0, seq))
            b = pa.find_zeros(pa.ParaPolynomial("first", n + 1, 1.0, seq))
            res = pa.interlace(*(
                dataclasses.replace(zs, angles=zs.interior_angles(), residuals=zs.residuals[1:])
                for zs in (a, b)
            ))
            assert res.verdict == "pass"
            assert stage is None or res.decided.get(stage, 0) > 0

    def test_consecutive_variant(self):
        # interior zeros of degrees n and n+1, base-point zero stripped
        a = pa.find_zeros(free_poly("first", 4))
        b = pa.find_zeros(free_poly("first", 5))
        sa = ZeroSet("first", 4, 0.0, a.interior_angles(), a.residuals[1:], a.scale, True)
        sb = ZeroSet("first", 5, 0.0, b.interior_angles(), b.residuals[1:], b.scale, True)
        assert pa.interlace(sa, sb).verdict == "pass"

    def test_consecutive_degree_one(self):
        sa = ZeroSet("first", 1, 0.0, np.empty(0), np.empty(0), 1.0, True)
        sb = ZeroSet("first", 2, 0.0, np.array([math.pi]), np.array([0.0]), 1.0, True)
        assert pa.interlace(sa, sb).verdict == "pass"

    @pytest.mark.parametrize("a, b, arc, count", [
        ([1.0, 2.0, 4.0], [1.5, 1.7, 5.0], (1.0, 2.0), 2),
        ([1.0, 2.0], [0.5, 3.0, 4.0], (1.0, 2.0), 0),
        ([1.0, 5.0], [0.5, 3.0, 3.5], (1.0, 5.0), 2),
    ])
    def test_failure_witness_is_first_bad_arc(self, a, b, arc, count):
        sets = [
            ZeroSet("first", len(x) + 1, 0.0, np.array(x), np.zeros(len(x)), 1.0, True)
            for x in (a, b)
        ]
        res = pa.interlace(*sets)
        assert res.verdict == "fail"
        assert res.witness == {"arc": arc, "count": count}

    def test_size_mismatch(self):
        a = pa.find_zeros(free_poly("first", 4))
        b = pa.find_zeros(free_poly("first", 6))
        with pytest.raises(ValueError):
            pa.interlace(a, b)

    def test_base_point_mismatch(self):
        a = pa.find_zeros(free_poly("first", 4))
        b = pa.find_zeros(free_poly("second", 4, lam=np.exp(0.5j)))
        with pytest.raises(ValueError):
            pa.interlace(a, b)


class TestSerialization:
    def test_json_dict(self):
        zs = pa.find_zeros(free_poly("first", 4))
        doc = zs.to_json_dict()
        json.dumps(doc)
        assert doc["kind"] == "first" and doc["n"] == 4
        assert len(doc["angles"]) == 4 and len(doc["residuals"]) == 4
        assert doc["lambda_theta"] == 0.0
        assert "source" not in doc  # the source polynomial is never serialized

    def test_csv_rows(self):
        zs = pa.find_zeros(free_poly("first", 3, lam=np.exp(1j * math.pi / 2)))
        rows = zs.to_csv_rows()
        assert len(rows) == 3
        assert rows[0][0] == 0
        assert abs(rows[0][2] - math.pi / 2) < 1e-12  # absolute angle of the pinned zero
