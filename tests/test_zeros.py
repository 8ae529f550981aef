import dataclasses
import json
import math

import numpy as np
import pytest

import paraortho as pa
from paraortho.errors import ResolutionError
from paraortho.zeros import ZeroSet, find_zeros_sweep

TWO_PI = 2.0 * math.pi


def free_poly(kind, n, lam=1.0):
    return pa.ParaPolynomial(kind, n, lam, pa.ConstantSequence(0.0))


def circ_dist(a, b):
    return np.abs((np.asarray(a) - np.asarray(b) + math.pi) % TWO_PI - math.pi)


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
        # starve the search: one grid point per zero, no refinement, and a
        # theta tolerance so coarse the cluster zoom gives up immediately
        cfg = pa.ZeroFindConfig(
            initial_grid_multiplier=1, max_refinements=0, theta_tol=0.5
        )
        p = pa.ParaPolynomial("second", 9, 1.0, pa.ConstantSequence(0.5))
        with pytest.raises(ResolutionError) as info:
            pa.find_zeros(p, cfg)
        assert info.value.expected == 9
        assert info.value.found < 9

    @pytest.mark.parametrize("seed, kind, n", [(17, "second", 65), (5, "first", 140)])
    def test_isolates_close_pairs(self, seed, kind, n):
        # two zeros 1.5e-4 and 5.5e-6 apart share one cell of the densest
        # grid; the CMV eigenvalues bracket them apart
        zs = pa.find_zeros(pa.ParaPolynomial(kind, n, 1.0, pa.RandomSequence(0.7, seed)))
        assert zs.angles.size == n
        assert np.all(np.diff(zs.angles) > 0.0)
        assert zs.simplicity

    def test_sweep_matches_single(self):
        seq = pa.RandomSequence(0.6, 5)
        lam = np.exp(0.4j)
        for kind in ("first", "second"):
            swept = find_zeros_sweep(kind, lam, seq, range(2, 31))
            for n in (2, 7, 19, 30):
                single = pa.find_zeros(pa.ParaPolynomial(kind, n, lam, seq))
                assert np.max(np.abs(swept[n].angles - single.angles)) <= 1e-9


class TestOracle:
    def test_free_cases(self):
        a = pa.oracle_zeros(free_poly("first", 3))
        assert np.max(circ_dist(a.angles, [0.0, TWO_PI / 3, 2 * TWO_PI / 3])) <= 1e-9
        b = pa.oracle_zeros(free_poly("second", 3))
        assert np.max(circ_dist(b.angles, [math.pi / 3, math.pi, 5 * math.pi / 3])) <= 1e-9

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            pa.oracle_zeros(free_poly("first", 4), grid_points=100)


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

    @pytest.mark.parametrize("n", [100, 140])
    def test_same_degree_collisions_need_double_double(self, n):
        # seed 1 at n = 100: 24 zero pairs closer than 1e-10, the closest
        # 3.8e-18 apart, far below float64 and long double resolution; at
        # n = 140 a second-kind zero also lies 4.9e-13 from the pinned one
        seq = pa.RandomSequence(0.7, 1)
        h = pa.find_zeros(pa.ParaPolynomial("first", n, 1.0, seq))
        s = pa.find_zeros(pa.ParaPolynomial("second", n, 1.0, seq))
        res = pa.interlace(h, s)
        assert res.verdict == "pass"
        assert res.decided.get("double-double", 0) > 0

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
        # double-double reach once the derivatives are long double ones;
        # seed 2, h_179 against h_180: pairs that only the 40-digit
        # fixed-point stage decides
        for seed, n, stage in ((5, 150, "double-double"), (2, 179, "mpmath-40")):
            seq = pa.RandomSequence(0.7, seed)
            a = pa.find_zeros(pa.ParaPolynomial("first", n, 1.0, seq))
            b = pa.find_zeros(pa.ParaPolynomial("first", n + 1, 1.0, seq))
            res = pa.interlace(*(
                dataclasses.replace(zs, angles=zs.interior_angles(), residuals=zs.residuals[1:])
                for zs in (a, b)
            ))
            assert res.verdict == "pass"
            assert res.decided.get(stage, 0) > 0

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
