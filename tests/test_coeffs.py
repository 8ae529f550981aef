import math

import numpy as np
import pytest

import paraortho as pa
from paraortho.coeffs import (
    EPS_PD,
    MomentTable,
    exact_arc_mass_moments,
    measure_from_dict,
    moments_table,
    read_coefficient_file,
    verblunsky_from_moments,
    verblunsky_from_moments_hp,
    write_coefficient_file,
)
from paraortho.errors import (
    ConditioningError,
    MeasureIngestionError,
    ProviderRangeError,
    SpecFileError,
)

TWO_PI = 2.0 * math.pi
ARC = (np.pi / 3, 5 * np.pi / 3)


def mpmath_levinson(c, count, dps):
    """Reference for verblunsky_from_moments_hp: the same recursion in
    mpmath complex arithmetic, both inner products summed per level."""
    from mpmath import mp, mpc

    with mp.workdps(dps):
        cc = [mpc(v) for v in c]
        line = [mp.conj(v) for v in cc[:0:-1]] + cc
        origin = len(cc) - 1
        phi = [mpc(1)]
        alphas = []
        for m in range(count):
            phistar = [mp.conj(v) for v in reversed(phi)]
            num = mp.fsum(phi[j] * line[origin - (j + 1)] for j in range(len(phi)))
            den = mp.fsum(phistar[j] * line[origin - j] for j in range(len(phistar)))
            if mp.re(den) <= 0:
                raise ConditioningError(m, f"not positive definite at size {m + 1}")
            ca = num / den
            if 1.0 - float(abs(ca)) ** 2 < EPS_PD:
                raise ConditioningError(m, f"coefficient {m} has modulus {float(abs(ca))}")
            alphas.append(complex(mp.conj(ca)))
            new = [mpc(0)] + phi
            for j in range(len(phistar)):
                new[j] -= ca * phistar[j]
            phi = new
        return alphas


class TestProviders:
    def test_constant(self):
        seq = pa.ConstantSequence(0.5)
        assert pa.alpha_at(seq, 7) == 0.5
        assert pa.alpha_at(pa.ConstantSequence(0.0), 3) == 0.0

    def test_explicit_echo(self):
        seq = pa.ExplicitSequence([0.1, -0.2j])
        assert pa.alpha_at(seq, 1) == -0.2j

    def test_explicit_exhaustion(self):
        seq = pa.ExplicitSequence([0.1, -0.2j])
        with pytest.raises(ProviderRangeError):
            seq.alpha(2)

    def test_explicit_tail(self):
        seq = pa.ExplicitSequence([0.5], tail=0.0)
        assert seq.alpha(100) == 0.0

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            pa.ConstantSequence(1.0)
        with pytest.raises(ValueError):
            pa.ExplicitSequence([0.5, 1.2])

    def test_negative_index(self):
        with pytest.raises(ValueError):
            pa.ConstantSequence(0.3).alpha(-1)

    def test_flip_constant(self):
        assert pa.flipped(pa.ConstantSequence(0.5)).alpha(4) == -0.5
        assert pa.flipped(pa.ConstantSequence(0.0)).alpha(4) == 0.0

    def test_flip_involution_pointwise(self):
        seq = pa.RandomSequence(0.8, 123)
        twice = pa.flipped(pa.flipped(seq))
        idx = range(0, 513, 7)
        assert all(twice.alpha(n) == seq.alpha(n) for n in idx)
        once = pa.flipped(seq)
        assert all(once.alpha(n) == -seq.alpha(n) for n in idx)

    def test_random_deterministic_and_bounded(self):
        seq = pa.RandomSequence(0.7, 42)
        again = pa.RandomSequence(0.7, 42)
        vals = seq.alphas(64)
        assert np.all(vals == again.alphas(64))
        # order independence
        assert seq.alpha(63) == vals[63]
        assert np.abs(vals).max() <= 0.7

    def test_decaying(self):
        seq = pa.DecayingSequence(0.9, 1.5)
        assert seq.alpha(0) == 0.9
        assert abs(seq.alpha(3) - 0.9 / 4**1.5) < 1e-15


class TestMoments:
    def test_lebesgue_normalization(self):
        leb = pa.lebesgue_measure()
        assert abs(pa.moment(leb, 0) - 1.0) < 1e-14
        assert abs(pa.moment(leb, 1)) < 1e-14

    def test_pure_atom(self):
        atom = pa.MeasureSpec(weight=None, masses=[(0.0, 0.4)])
        for k in (0, 1, 5):
            assert abs(pa.moment(atom, k) - 1.0) < 1e-15

    def test_atom_off_origin(self):
        atom = pa.MeasureSpec(weight=None, masses=[(1.0, 2.0)])
        assert abs(pa.moment(atom, 3) - np.exp(-3j)) < 1e-15

    def test_symmetric_weight_gives_real_moments(self):
        # even density in theta: moments must be real up to quadrature noise
        m = pa.MeasureSpec(weight=lambda t: 1.0 + 0.5 * np.cos(t))
        for k in range(5):
            assert abs(pa.moment(m, k).imag) < 1e-13

    def test_bad_weight_rejected(self):
        m = pa.MeasureSpec(weight=lambda t: -np.ones_like(t))
        with pytest.raises(MeasureIngestionError):
            pa.moment(m, 0)

    def test_empty_measure_rejected(self):
        with pytest.raises(MeasureIngestionError):
            pa.MeasureSpec(weight=None, masses=[])

    def test_colliding_masses_rejected(self):
        with pytest.raises(MeasureIngestionError):
            pa.MeasureSpec(weight=None, masses=[(0.5, 1.0), (0.5 + 1e-15, 1.0)])

    def test_moment_table_validation(self):
        with pytest.raises(MeasureIngestionError):
            MomentTable([0.9, 0.1])
        table = MomentTable([1.0, 0.5, 0.25])
        T = table.toeplitz()
        assert T.shape == (3, 3)
        assert T[1, 0] == 0.5 and T[0, 1] == np.conj(0.5)


class TestLevinson:
    def test_free_moments_give_zero_coefficients(self):
        table = MomentTable([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert verblunsky_from_moments(table, 5) == [0.0] * 5

    def test_single_coefficient_roundtrip(self):
        # density 0.75 / |e^{i t} - 0.5|^2 has moments 0.5^k and
        # coefficients (0.5, 0, 0, ...)
        measure = pa.MeasureSpec(
            weight=lambda t: 0.75 / (1.25 - np.cos(t)), panels=2048
        )
        table = moments_table(measure, 6)
        assert np.abs(table.c - 0.5 ** np.arange(7)).max() < 1e-12
        rec = verblunsky_from_moments(table, 5)
        assert abs(rec[0] - 0.5) < 1e-8
        assert max(abs(a) for a in rec[1:]) < 1e-8

    def test_bernstein_szego_matches_direct_density(self):
        bs = pa.bernstein_szego_measure([0.5], panels=2048)
        table = moments_table(bs, 4)
        assert np.abs(table.c - 0.5 ** np.arange(5)).max() < 1e-10

    def test_roundtrip_random_list(self):
        rng = np.random.default_rng(7)
        raw = [0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(6)]
        table = moments_table(pa.bernstein_szego_measure(raw, panels=2048), 9)
        rec = verblunsky_from_moments(table, 9)
        assert np.abs(np.array(rec[:6]) - np.array(raw)).max() < 1e-7
        assert max(abs(a) for a in rec[6:]) < 1e-7

    def test_arc_mass_positive_definite(self):
        measure = pa.arc_measure(np.pi / 3, 5 * np.pi / 3, masses=[(0.0, 0.35)], ac_mass=0.65)
        table = moments_table(measure, 12)
        np.linalg.cholesky(table.toeplitz())  # PD oracle: must not raise
        alphas = verblunsky_from_moments(table, 12)
        assert max(abs(a) for a in alphas) < 1.0 - EPS_PD

    def test_gap_measure_conditioning_error_names_index(self):
        measure = pa.arc_measure(np.pi / 3, 5 * np.pi / 3, masses=[(0.0, 0.35)], ac_mass=0.65)
        table = moments_table(measure, 61, panels=2048)
        with pytest.raises(ConditioningError) as info:
            verblunsky_from_moments(table, 61)
        assert 30 < info.value.index < 61

    def test_exact_arc_moments_match_quadrature(self):
        measure = pa.arc_measure(
            np.pi / 3, 5 * np.pi / 3, masses=[(0.0, 0.35)], ac_mass=0.65, panels=2048
        )
        tq = moments_table(measure, 24)
        tc = exact_arc_mass_moments(np.pi / 3, 5 * np.pi / 3, 0.65, [(0.0, 0.35)], 24)
        assert np.abs(tq.c - tc.c).max() < 1e-13

    def test_high_precision_extends_float_prefix(self):
        # the Toeplitz conditioning decays geometrically, so the double
        # precision recursion loses about 0.36 digits per index; its
        # first ~20 outputs are still good and must match the hp path
        c = exact_arc_mass_moments(np.pi / 3, 5 * np.pi / 3, 0.65, [(0.0, 0.35)], 80, dps=80)
        hp = verblunsky_from_moments_hp(c, 80, dps=80)
        c64 = exact_arc_mass_moments(np.pi / 3, 5 * np.pi / 3, 0.65, [(0.0, 0.35)], 40)
        f64 = verblunsky_from_moments(c64, 20)
        assert np.abs(np.array(f64) - np.array(hp[:20])).max() < 1e-8
        assert max(abs(a) for a in hp) < 1.0

    @pytest.mark.parametrize("atom", [(0.0, 0.35), (0.2, 0.3)])
    def test_high_precision_matches_mpmath_reference(self, atom):
        c = exact_arc_mass_moments(ARC[0], ARC[1], 1.0 - atom[1], [atom], 120, dps=100)
        assert verblunsky_from_moments_hp(c, 120, dps=100) == mpmath_levinson(c, 120, 100)

    def test_high_precision_stable_under_raised_precision(self):
        # the acceptance fixture's dps 260 loses no float digit against dps 300
        c260, c300 = (
            exact_arc_mass_moments(ARC[0], ARC[1], 0.65, [(0.0, 0.35)], 401, dps=dps)
            for dps in (260, 300)
        )
        hp260 = verblunsky_from_moments_hp(c260, 401, dps=260)
        assert len(hp260) == 401
        assert hp260 == verblunsky_from_moments_hp(c300, 401, dps=300)

    def test_high_precision_conditioning_error_names_index(self):
        from mpmath import mp

        c = exact_arc_mass_moments(ARC[0], ARC[1], 0.65, [(0.0, 0.35)], 30, dps=100)
        with mp.workdps(100):
            c[12] += mp.mpf("0.2")  # the Toeplitz matrix of size 13 is indefinite
        for recursion in (verblunsky_from_moments_hp, mpmath_levinson):
            with pytest.raises(ConditioningError) as info:
                recursion(c, 30, 100)
            assert info.value.index == 11

    def test_high_precision_rejects_nonpositive_mass(self):
        with pytest.raises(ConditioningError) as info:
            verblunsky_from_moments_hp([-1.0, 0.2, 0.1], 2, dps=50)
        assert info.value.index == 0
        assert "not positive definite" in str(info.value)

    def test_sequence_from_measure(self):
        seq = pa.sequence_from_measure(pa.bernstein_szego_measure([0.3 + 0.2j]), 4)
        assert abs(seq.alpha(0) - (0.3 + 0.2j)) < 1e-8


class TestFilesAndDicts:
    def test_coefficient_file_roundtrip(self, tmp_path):
        path = tmp_path / "alphas.txt"
        values = [0.1 + 0.2j, -0.3, 0.05j]
        write_coefficient_file(path, values)
        seq = read_coefficient_file(path)
        assert list(seq.values) == values

    def test_coefficient_file_comments(self, tmp_path):
        path = tmp_path / "alphas.txt"
        path.write_text("# header\n\n0.5\n0.1 -0.2\n")
        seq = read_coefficient_file(path)
        assert seq.values == (0.5 + 0j, 0.1 - 0.2j)

    def test_coefficient_file_bad_line(self, tmp_path):
        path = tmp_path / "alphas.txt"
        path.write_text("0.5\noops\n")
        with pytest.raises(SpecFileError) as info:
            read_coefficient_file(path)
        assert info.value.lineno == 2

    def test_measure_from_dict_kinds(self):
        leb = measure_from_dict({"weight": {"kind": "lebesgue"}, "panels": 512})
        assert abs(pa.moment(leb, 0) - 1.0) < 1e-13
        arc = measure_from_dict(
            {
                "weight": {"kind": "arc", "theta_start": 1.0, "theta_end": 5.0},
                "masses": [{"theta": 0.0, "w": 0.2}],
            }
        )
        assert abs(pa.moment(arc, 0) - 1.0) < 1e-13
        bs = measure_from_dict({"weight": {"kind": "bernstein_szego", "alpha": [[0.5, 0.0]]}})
        assert abs(pa.moment(bs, 1) - 0.5) < 1e-10
        atoms = measure_from_dict({"weight": None, "masses": [{"theta": 0.0, "w": 1.0}]})
        assert abs(pa.moment(atoms, 2) - 1.0) < 1e-15

    def test_measure_from_dict_bad(self):
        with pytest.raises(SpecFileError):
            measure_from_dict({"weight": {"kind": "unknown"}})
        with pytest.raises(SpecFileError):
            measure_from_dict({"weight": {"kind": "arc"}})
        with pytest.raises(SpecFileError):
            measure_from_dict({"weight": None, "masses": [{"theta": 0.0}]})


def test_unit_circle_point_validation():
    assert pa.unit_circle_point(np.exp(0.3j)) == pytest.approx(np.exp(0.3j))
    with pytest.raises(ValueError):
        pa.unit_circle_point(1.0 + 1e-9)
    z = pa.unit_circle_point(np.exp(1.1j) * (1 + 5e-13))
    assert abs(abs(z) - 1.0) < 1e-15
