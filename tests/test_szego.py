import math

import numpy as np
import pytest

import paraortho as pa
from paraortho.errors import SingularKernelError
from paraortho.precision import ROUNDING_FACTOR, U_DOUBLE
from paraortho.szego import BLOCK, _szego_levels, mixed_form

TWO_PI = 2.0 * math.pi
# kernel against the reference loop: both are float64 passes, each
# trusted to ROUNDING_FACTOR * level * u * (running magnitude), the
# package's stated rounding bound for an n-level pass
KERNEL_TOL = 2.0 * ROUNDING_FACTOR * U_DOUBLE


def circle_points(rng, count):
    return np.exp(1j * rng.uniform(0.0, TWO_PI, count))


def reference_levels(alphas, z, levels):
    """The per-level loop the recursion kernel replaced, kept as a reference.

    Returns {level: (phi, phi*, running magnitude)}, the running
    magnitude being the largest pair modulus reached up to that level.
    """
    rho = np.sqrt(1.0 - np.abs(alphas) ** 2)
    phi = np.ones_like(z)
    ps = np.ones_like(z)
    mag = np.ones(z.shape)
    out = {0: (phi, ps, mag)}
    for j in range(alphas.size):
        t = z * phi
        phi = (t - np.conj(alphas[j]) * ps) / rho[j]
        ps = (ps - alphas[j] * t) / rho[j]
        mag = np.maximum(mag, np.maximum(np.abs(phi), np.abs(ps)))
        out[j + 1] = (phi, ps, mag)
    return {level: out[level] for level in levels}


def assert_matches_reference(pair, ref, level):
    phi, ps, mag = ref
    tol = KERNEL_TOL * max(level, 1) * mag
    assert np.all(np.abs(pair[0] - phi) <= tol)
    assert np.all(np.abs(pair[1] - ps) <= tol)


def mixed_points(rng, count):
    """Points on the circle and inside the disk, alternating."""
    z = circle_points(rng, count)
    z[1::2] *= 0.98 * np.sqrt(rng.uniform(0.0, 1.0, z[1::2].size))
    return z


class TestRecursionKernel:
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plain", "flipped"])
    def test_levels_match_reference(self, sign):
        # more points than one block, so a block boundary is crossed
        rng = np.random.default_rng(41)
        a = sign * pa.RandomSequence(0.7, 31).alphas(90)
        z = mixed_points(rng, BLOCK + 100)
        levels = (0, 1, 89, 90)
        rows = _szego_levels(a, z, levels)
        ref = reference_levels(a, z, levels)
        assert rows.shape == (4, 2, z.size)
        for row, level in zip(rows, levels):
            assert_matches_reference(row, ref[level], level)

    def test_prefix_counts_match_reference(self):
        # each point stops at its own depth (some never step), so the row
        # at level L holds every point at min(L, depth); every level is
        # checked, on both sides of a block boundary
        rng = np.random.default_rng(42)
        n = 60
        a = pa.RandomSequence(0.7, 32).alphas(n)
        depth = np.sort(rng.integers(0, n + 1, BLOCK + 700))[::-1]
        z = mixed_points(rng, depth.size)
        active = np.searchsorted(-depth, -np.arange(1, n + 1), side="right")
        rows = _szego_levels(a, z, range(n + 1), active)
        ref = reference_levels(a, z, range(n + 1))
        table = [np.array([ref[level][i] for level in range(n + 1)]) for i in range(3)]
        points = np.arange(depth.size)
        for level in range(n + 1):
            at = np.minimum(depth, level)
            want = tuple(t[at, points] for t in table)
            assert_matches_reference(rows[level], want, level)

    def test_scalar_and_2d_points(self):
        rng = np.random.default_rng(43)
        a = pa.RandomSequence(0.7, 33).alphas(40)
        z = mixed_points(rng, 15).reshape(3, 5)
        rows = _szego_levels(a, z, (39, 40))
        assert rows.shape == (2, 2, 3, 5)
        ref = reference_levels(a, z, (39, 40))
        assert_matches_reference(rows[0], ref[39], 39)
        assert_matches_reference(rows[1], ref[40], 40)
        one = _szego_levels(a, complex(z[1, 2]), (40,))
        assert one.shape == (1, 2)
        assert_matches_reference(one[0], tuple(v[1, 2] for v in ref[40]), 40)

    def test_weighted_sum_matches_reference(self):
        rng = np.random.default_rng(44)
        n = 50
        a = -pa.RandomSequence(0.7, 34).alphas(n)
        z = mixed_points(rng, BLOCK + 64)
        w = circle_points(rng, (n + 1) * z.size).reshape(n + 1, z.size)
        rows, total, largest = _szego_levels(a, z, (), weights=w)
        assert rows.shape == (0, 2, z.size)
        ref = reference_levels(a, z, range(n + 1))
        terms = np.array([w[j] * ref[j][0] for j in range(n + 1)])
        tol = KERNEL_TOL * n * ref[n][2] * (n + 1)
        assert np.all(np.abs(total - terms.sum(axis=0)) <= tol)
        assert np.all(np.abs(largest - np.abs(terms).max(axis=0)) <= tol)


class TestPairEvaluation:
    def test_free_case(self):
        pv = pa.eval_pair(pa.ConstantSequence(0.0), 5, 2.0)
        assert pv.phi == 32.0
        assert pv.phi_star == 1.0
        assert pv.log_norm == 0.0

    def test_one_step_by_hand(self):
        pv = pa.eval_pair(pa.ExplicitSequence([0.5]), 1, 1.0)
        scale = math.exp(pv.log_norm)
        assert abs(pv.phi * scale - 0.5) < 1e-15
        assert abs(pv.phi_star * scale - 0.5) < 1e-15
        assert abs(pv.phi - 0.5 / math.sqrt(0.75)) < 1e-15

    def test_circle_modulus_equality_at_depth(self):
        pv = pa.eval_pair(pa.RandomSequence(0.8, 9), 50, np.exp(0.3j))
        assert abs(abs(pv.phi) - abs(pv.phi_star)) <= 1e-10 * abs(pv.phi_star)

    def test_circle_modulus_equality_bulk(self):
        # 200 random (sequence, level, angle) triples
        rng = np.random.default_rng(2024)
        for trial in range(10):
            seq = pa.RandomSequence(0.85, 300 + trial)
            n = int(rng.integers(1, 257))
            z = circle_points(rng, 20)
            pv = pa.eval_pair(seq, n, z)
            assert np.all(np.abs(np.abs(pv.phi) - np.abs(pv.phi_star)) <= 1e-9 * np.abs(pv.phi_star))

    def test_interior_strict_inequality(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            seq = pa.RandomSequence(0.9, 40 + trial)
            n = int(rng.integers(1, 120))
            z = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, 16)) * circle_points(rng, 16)
            pv = pa.eval_pair(seq, n, z)
            assert np.all(np.abs(pv.phi) < np.abs(pv.phi_star))

    def test_vectorized_matches_scalar(self):
        # the SIMD and scalar complex-multiply paths differ in the last
        # bit, so agreement is close, not exact
        seq = pa.RandomSequence(0.6, 77)
        zs = np.exp(1j * np.linspace(0.1, 5.0, 7))
        pv = pa.eval_pair(seq, 33, zs)
        for i, z in enumerate(zs):
            single = pa.eval_pair(seq, 33, complex(z))
            assert abs(single.phi - pv.phi[i]) <= 1e-12 * abs(single.phi)
            assert abs(single.phi_star - pv.phi_star[i]) <= 1e-12 * abs(single.phi_star)


class TestNorms:
    def test_free_norm(self):
        assert pa.monic_norm(pa.ConstantSequence(0.0), 10) == 1.0

    def test_constant_norm(self):
        assert abs(pa.monic_norm(pa.ConstantSequence(0.5), 2) - 0.75) < 1e-15

    def test_norm_against_extended_precision_product(self):
        seq = pa.RandomSequence(0.9, 314)
        direct = np.prod(np.sqrt(np.longdouble(1.0) - np.abs(seq.alphas(100).astype(np.clongdouble)) ** 2))
        got = pa.monic_norm(seq, 100)
        assert abs(got - float(direct)) <= 1e-13 * float(direct)

    def test_log_norm_consistency(self):
        for seed in (1, 2, 3):
            seq = pa.RandomSequence(0.85, seed)
            for n in (5, 40, 160):
                pv = pa.eval_pair(seq, n, 1.0)
                assert abs(math.exp(pv.log_norm) - pa.monic_norm(seq, n)) <= 1e-12 * pa.monic_norm(seq, n)


class TestSecondKind:
    def test_free_self_dual(self):
        pv = pa.eval_second_kind(pa.ConstantSequence(0.0), 4, 1j)
        assert pv.phi == 1.0  # (i)^4
        assert pv.phi_star == 1.0

    def test_one_step_flipped(self):
        pv = pa.eval_second_kind(pa.ExplicitSequence([0.5]), 1, 1.0)
        assert abs(pv.phi * math.exp(pv.log_norm) - 1.5) < 1e-15

    def test_circle_identity(self):
        # conj(psi) phi + conj(phi) psi = 2 on the circle, relative to term size
        rng = np.random.default_rng(11)
        for seed in (21, 22, 23, 24):
            seq = pa.RandomSequence(0.85, seed)
            n = int(rng.integers(1, 201))
            z = circle_points(rng, 16)
            p = pa.eval_pair(seq, n, z)
            q = pa.eval_second_kind(seq, n, z)
            resid = np.abs(np.conj(q.phi) * p.phi + np.conj(p.phi) * q.phi - 2.0)
            scale = np.maximum(1.0, np.abs(p.phi) * np.abs(q.phi))
            assert np.max(resid / scale) <= 1e-9

    def test_real_part_form(self):
        seq = pa.RandomSequence(0.7, 5)
        z = circle_points(np.random.default_rng(0), 8)
        p = pa.eval_pair(seq, 30, z)
        q = pa.eval_second_kind(seq, 30, z)
        scale = np.maximum(1.0, np.abs(p.phi) * np.abs(q.phi))
        assert np.max(np.abs(np.real(np.conj(q.phi) * p.phi) - 1.0) / scale) <= 1e-9


class TestKernels:
    def test_free_diagonal(self):
        kv = pa.cd_kernel(pa.ConstantSequence(0.0), 3, 1.0, 1.0, "sum")
        assert kv.value == 3.0

    def test_free_geometric(self):
        kv = pa.cd_kernel(pa.ConstantSequence(0.0), 2, 2.0, 1.0, "sum")
        assert kv.value == 3.0  # 1 + 2

    def test_three_modes_agree(self):
        rng = np.random.default_rng(8)
        seq = pa.RandomSequence(0.8, 512)
        z = circle_points(rng, 12)
        y = circle_points(rng, 12) * np.exp(0.35j)  # keep away from the diagonal
        base = pa.cd_kernel(seq, 120, z, y, "sum").value
        for mode in ("closed_level_n", "closed_level_nm1"):
            val = pa.cd_kernel(seq, 120, z, y, mode).value
            assert np.max(np.abs(val - base) / np.abs(base)) <= 1e-9

    def test_diagonal_is_positive(self):
        seq = pa.RandomSequence(0.8, 99)
        z = circle_points(np.random.default_rng(1), 6)
        kv = pa.cd_kernel(seq, 40, z, z, "sum").value
        assert np.max(np.abs(kv.imag)) <= 1e-9 * np.max(kv.real)
        assert np.all(kv.real > 0.0)

    def test_closed_mode_guard(self):
        seq = pa.RandomSequence(0.5, 4)
        z = np.exp(0.25j)
        with pytest.raises(SingularKernelError):
            pa.cd_kernel(seq, 10, z, z, "closed_level_n")
        assert pa.cd_kernel(seq, 10, z, z, "sum").value.real > 0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            pa.cd_kernel(pa.ConstantSequence(0.0), 3, 1.0, 1.0, "nope")


class TestMixed:
    def test_free_case_sum(self):
        got = pa.mixed_kernel(pa.ConstantSequence(0.0), 2, 1j, 1.0, "sum")
        assert got == 1.0 + 1j  # 1 + conj(y) z

    def test_closed_vs_sum(self):
        rng = np.random.default_rng(3)
        seq = pa.RandomSequence(0.8, 77)
        z = circle_points(rng, 10)
        y = z * np.exp(0.45j)
        s = pa.mixed_kernel(seq, 90, z, y, "sum")
        c = pa.mixed_kernel(seq, 90, z, y, "closed")
        assert np.max(np.abs(c - s) / np.maximum(1.0, np.abs(s))) <= 1e-9

    def test_level_identity(self):
        # both level forms of the degree combination agree
        rng = np.random.default_rng(6)
        for seed in (400, 401, 402):
            seq = pa.RandomSequence(0.8, seed)
            n = int(rng.integers(1, 151))
            z = circle_points(rng, 8)
            y = circle_points(rng, 8)
            f_n = mixed_form(seq, n, z, y, "n")
            f_nm1 = mixed_form(seq, n, z, y, "nm1")
            assert np.max(np.abs(f_n - f_nm1) / np.maximum(1.0, np.abs(f_n))) <= 1e-9

    def test_mixed_guard(self):
        seq = pa.RandomSequence(0.5, 4)
        z = np.exp(0.25j)
        with pytest.raises(SingularKernelError):
            pa.mixed_kernel(seq, 10, z, z, "closed")


class TestReproducing:
    def test_kernel_reproduces_monomials_under_bs_measure(self):
        alphas = [0.5, -0.2 + 0.1j]
        measure = pa.bernstein_szego_measure(alphas, panels=2048)
        seq = pa.ExplicitSequence(alphas, tail=0.0)
        n = 6
        z0 = np.exp(0.9j)

        for k in range(n):
            def f(thetas, k=k):
                y = np.exp(1j * thetas)
                return pa.cd_kernel(seq, n, z0, y, "sum").value * y**k

            got = measure.integrate(f, panels=2048)
            assert abs(got - z0**k) < 1e-7
