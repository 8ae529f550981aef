import json
import math
import sys
import threading
import tracemalloc
from functools import partial
from operator import mul

import numpy as np
import pytest

import paraortho as pa
from paraortho import coeffs
from paraortho.coeffs import (
    EPS_PD,
    GRID_CAP,
    HP_GUARD_BITS,
    MOMENT_GUARD_BITS,
    MomentTable,
    _arc_span,
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
from paraortho.szego import BLOCK, eval_pair

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


def reference_hp(c, count, dps):
    """Reference for verblunsky_from_moments_hp: the same integer recursion
    with every complex product formed from four real products."""
    from mpmath import mp, mpc
    from mpmath.libmp import to_fixed

    with mp.workdps(dps):
        bits = mp.prec + HP_GUARD_BITS
        cc = [mpc(v)._mpc_ for v in c]
    cr = [to_fixed(v[0], bits) for v in cc]
    ci = [to_fixed(v[1], bits) for v in cc]
    one = 1 << bits
    pr, pi = [one], [0]
    den = cr[0]
    alphas = []
    for m in range(count):
        if den <= 0:
            raise ConditioningError(
                m, f"moment matrix not positive definite at size {m + 1} (hp)"
            )
        sr, si = cr[1 : m + 2], ci[1 : m + 2]
        num_r = sum(map(mul, pr, sr)) + sum(map(mul, pi, si))
        num_i = sum(map(mul, pi, sr)) - sum(map(mul, pr, si))
        ar, ai = num_r // den, num_i // den
        mod = math.hypot(ar / one, ai / one)
        if 1.0 - mod * mod < EPS_PD:
            raise ConditioningError(
                m, f"predicted coefficient {m} has modulus {mod:.12g} (hp)"
            )
        alphas.append(complex(ar / one, -ai / one))
        den = (den * (one * one - ar * ar - ai * ai)) >> (2 * bits)
        rr, ri = pr[::-1], pi[::-1]
        pr = [x - ((ar * u + ai * v) >> bits) for x, u, v in zip([0] + pr, rr, ri)] + [one]
        pi = [y - ((ai * u - ar * v) >> bits) for y, u, v in zip([0] + pi, rr, ri)] + [0]
    return alphas


def reference_arc_moments(theta_start, theta_end, ac_mass, masses, order, dps):
    """Reference for exact_arc_mass_moments at dps: every power taken
    directly from its angle k theta."""
    from mpmath import mp, mpc

    with mp.workdps(dps):
        start = mp.mpf(theta_start)
        span = _arc_span(start, mp.mpf(theta_end), 2 * mp.pi)
        acm = mp.mpf(ac_mass)
        total = acm + mp.fsum(mp.mpf(w) for _, w in masses)
        out = []
        for k in range(order + 1):
            if k == 0:
                raw = mpc(acm)
            else:
                ea = mp.expjpi(-k * start / mp.pi)
                eb = mp.expjpi(-k * (start + span) / mp.pi)
                raw = acm * (ea - eb) / (mpc(0, 1) * k * span)
            for t, w in masses:
                raw += mp.mpf(w) * mp.expjpi(-k * mp.mpf(t) / mp.pi)
            out.append(raw / total)
        return out


def reference_moments_table(measure, order):
    """Reference for moments_table: one pass over all nodes per moment."""
    norm = measure.normalization()
    t, w = measure._nodes(measure.panels)
    c = np.zeros(order + 1, dtype=complex)
    step = np.exp(-1j * t)
    cur = w.astype(complex)
    for k in range(order + 1):
        c[k] = cur.sum()
        cur *= step
    for theta, m in measure.masses:
        c += m * np.exp(-1j * np.arange(order + 1) * theta)
    return c / norm


def fresh_moments_table(measure, order):
    """Reference for moments_table with nothing shared between measures:
    nodes built afresh, the weight evaluated on them (so a Bernstein-Szego
    weight takes its own np.exp(1j t)), and np.exp(-1j t) per block."""
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(8)
    panels, support = measure.panels, measure.support
    total_len = sum(b - a for a, b in support)
    thetas, weights = [], []
    remaining = panels
    for idx, (a, b) in enumerate(support):
        if idx == len(support) - 1:
            count = remaining
        else:
            count = max(1, round(panels * (b - a) / total_len))
            count = min(count, remaining - (len(support) - 1 - idx))
        remaining -= count
        edges = np.linspace(a, b, count + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        thetas.append((mid[:, None] + half[:, None] * gl_nodes[None, :]).ravel())
        weights.append((half[:, None] * gl_weights[None, :]).ravel())
    t = np.concatenate(thetas)
    w = np.concatenate(weights) * np.asarray(measure.weight(t), dtype=float) / TWO_PI
    norm = float(w.sum()) + sum(m for _, m in measure.masses)
    c = np.zeros(order + 1, dtype=complex)
    for b0 in range(0, t.size, BLOCK):
        step = np.exp(-1j * t[b0 : b0 + BLOCK])
        cur = w[b0 : b0 + BLOCK].astype(complex)
        for k in range(order + 1):
            c[k] += cur.sum()
            cur *= step
    for theta, m in measure.masses:
        c += m * np.exp(-1j * np.arange(order + 1) * theta)
    return MomentTable(c / norm)


def bs_lists():
    """Bernstein-Szego coefficient lists of lengths 1..8, moduli below 0.7."""
    rng = np.random.default_rng(12)
    return [
        [0.7 * math.sqrt(rng.random()) * complex(np.exp(2j * np.pi * rng.random())) for _ in range(n)]
        for n in range(1, 9)
    ]


def traced_peak(work) -> int:
    """The most bytes tracemalloc sees allocated during work(), above
    what was held when it started."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()


class TestProviders:
    def test_constant(self):
        seq = pa.ConstantSequence(0.5)
        assert seq.alpha(7) == 0.5
        assert pa.ConstantSequence(0.0).alpha(3) == 0.0

    def test_explicit_echo(self):
        seq = pa.ExplicitSequence([0.1, -0.2j])
        assert seq.alpha(1) == -0.2j

    def test_explicit_exhaustion(self):
        seq = pa.ExplicitSequence([0.1, -0.2j])
        with pytest.raises(ProviderRangeError):
            seq.alpha(2)
        with pytest.raises(ProviderRangeError):
            seq.flipped().alpha(2)

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
        assert pa.ConstantSequence(0.5).flipped().alpha(4) == -0.5
        assert pa.ConstantSequence(0.0).flipped().alpha(4) == 0.0

    @pytest.mark.parametrize(
        "seq, count",
        [
            (pa.ConstantSequence(0.5), 40),
            (pa.ConstantSequence(0.0), 40),
            (pa.ExplicitSequence([0.1, -0.2j, 0.3 + 0.4j], tail=-0.25j), 40),
            (pa.ExplicitSequence([0.1, -0.2j, 0.3 + 0.4j]), 3),
            (pa.RandomSequence(0.7, 5), 40),
            (pa.DecayingSequence(0.9 + 0.1j, 1.5), 40),
        ],
        ids=["const", "const_zero", "explicit_tail", "explicit", "random", "decaying"],
    )
    def test_flip_negates_every_coefficient_exactly(self, seq, count):
        assert seq.flipped().alphas(count).tobytes() == (-seq.alphas(count)).tobytes()

    def test_flip_involution_pointwise(self):
        seq = pa.RandomSequence(0.8, 123)
        twice = seq.flipped().flipped()
        idx = range(0, 513, 7)
        assert all(twice.alpha(n) == seq.alpha(n) for n in idx)
        once = seq.flipped()
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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: pa.ConstantSequence(complex("nan")),
            lambda: pa.ExplicitSequence([0.1, float("nan")]),
            lambda: pa.ExplicitSequence([0.1], tail=complex(0.0, float("nan"))),
            lambda: pa.DecayingSequence(float("nan"), 1.0),
        ],
    )
    def test_nan_coefficient_rejected(self, make):
        # a NaN modulus is no modulus below 1: same message as for 1.5
        with pytest.raises(ValueError, match="has modulus nan >= 1"):
            make()

    def test_nan_decay_exponent_rejected(self):
        with pytest.raises(ValueError, match="decay exponent must be >= 0"):
            pa.DecayingSequence(0.5, float("nan"))


class TestMoments:
    def test_lebesgue_normalization(self):
        leb = pa.lebesgue_measure()
        assert abs(moments_table(leb, 0).c[0] - 1.0) < 1e-14
        assert abs(moments_table(leb, 1).c[1]) < 1e-14

    def test_pure_atom(self):
        atom = pa.MeasureSpec(weight=None, masses=[(0.0, 0.4)])
        for k in (0, 1, 5):
            assert abs(moments_table(atom, k).c[k] - 1.0) < 1e-15

    def test_atom_off_origin(self):
        atom = pa.MeasureSpec(weight=None, masses=[(1.0, 2.0)])
        assert abs(moments_table(atom, 3).c[3] - np.exp(-3j)) < 1e-15

    def test_symmetric_weight_gives_real_moments(self):
        # even density in theta: moments must be real up to quadrature noise
        m = pa.MeasureSpec(weight=lambda t: 1.0 + 0.5 * np.cos(t))
        for k in range(5):
            assert abs(moments_table(m, k).c[k].imag) < 1e-13

    def test_bad_weight_rejected(self):
        m = pa.MeasureSpec(weight=lambda t: -np.ones_like(t))
        with pytest.raises(MeasureIngestionError):
            moments_table(m, 0)

    def test_empty_measure_rejected(self):
        with pytest.raises(MeasureIngestionError):
            pa.MeasureSpec(weight=None, masses=[])

    def test_colliding_masses_rejected(self):
        with pytest.raises(MeasureIngestionError):
            pa.MeasureSpec(weight=None, masses=[(0.5, 1.0), (0.5 + 1e-15, 1.0)])

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    def test_non_finite_mass_angle_rejected(self, theta):
        with pytest.raises(MeasureIngestionError, match="non-finite angle"):
            pa.MeasureSpec(weight=lambda t: np.ones_like(t), masses=[(theta, 0.5)])

    def test_moment_table_validation(self):
        with pytest.raises(MeasureIngestionError):
            MomentTable([0.9, 0.1])
        # NaN passes the c_0 = 1 test, so finiteness is checked first
        with pytest.raises(MeasureIngestionError, match="moment c_0 is not finite"):
            MomentTable([complex("nan"), 0.1])
        with pytest.raises(MeasureIngestionError, match="moment c_2 is not finite"):
            MomentTable([1.0, 0.1, complex(0.0, float("inf"))])
        table = MomentTable([1.0, 0.5, 0.25])
        T = table.toeplitz()
        assert T.shape == (3, 3)
        assert T[1, 0] == 0.5 and T[0, 1] == np.conj(0.5)

    def test_wrapped_arc_needs_a_panel_per_interval(self):
        # [5, 1] wraps through 0, so its support is two intervals; one
        # panel used to drop the second and integrate over [0, 1] only
        with pytest.raises(MeasureIngestionError, match="panel count must be >= 2"):
            pa.arc_measure(5.0, 1.0, panels=1)
        measure = pa.arc_measure(5.0, 1.0, panels=2)
        assert abs(moments_table(measure, 1).c[0] - 1.0) < 1e-14


    def test_panel_count_must_be_an_integer(self):
        for panels in (2.7, True, "12"):
            with pytest.raises(MeasureIngestionError, match=f"panel count must be an integer, got {panels!r}"):
                pa.MeasureSpec(weight=lambda t: np.ones_like(t), panels=panels)
        with pytest.raises(MeasureIngestionError, match="got 2.7"):
            pa.lebesgue_measure(panels=2.7)
        with pytest.raises(MeasureIngestionError, match="got True"):
            pa.arc_measure(0.5, 2.0, panels=True)
        measure = pa.lebesgue_measure(panels=np.int64(64))
        assert measure.panels == 64
        assert abs(moments_table(measure, 1).c[0] - 1.0) < 1e-14


class TestPanelGrid:
    @pytest.mark.parametrize(
        "make",
        [partial(pa.bernstein_szego_measure, alphas, panels=65536) for alphas in bs_lists()]
        + [
            lambda: pa.arc_measure(ARC[0], ARC[1], masses=[(0.0, 0.35)], ac_mass=0.65, panels=2048),
            lambda: pa.arc_measure(5.0, 1.0, masses=[(3.0, 0.35)], ac_mass=0.65, panels=2048),
        ],
        ids=[f"bs{n}" for n in range(1, 9)] + ["arc_atom", "wrapped_arc_atom"],
    )
    def test_shared_grid_is_bit_identical_to_fresh_nodes(self, make):
        measure = make()
        order = 11
        shared = moments_table(measure, order)
        fresh = fresh_moments_table(measure, order)
        assert shared.c.tobytes() == fresh.c.tobytes()
        count = 8
        assert verblunsky_from_moments(shared, count) == verblunsky_from_moments(fresh, count)

    @pytest.mark.parametrize("support", [coeffs._CIRCLE, ((0.3, 2.0), (2.5, 6.0))], ids=["circle", "two_arcs"])
    def test_cold_grid_build_peaks_near_the_bytes_it_keeps(self, support):
        # t, w and z are 32 bytes per node; panel edges, midpoints and half
        # widths and one chunk of 1j t are all the build holds besides
        panels = 65536
        grid = []
        peak = traced_peak(lambda: grid.append(coeffs._panel_grid.__wrapped__(support, panels)))
        kept = sum(arr.nbytes for arr in grid[0])
        assert kept == 32 * 8 * panels
        assert peak < 1.15 * kept

    def test_bernstein_szego_ingestion_peaks_near_its_weights(self):
        # on a cached grid a measure keeps its weights, 8 bytes per node, and
        # at the peak holds its density too; the Szego pair runs CHUNK nodes
        # at a time
        panels = 65536
        coeffs._panel_grid(coeffs._CIRCLE, panels)

        def ingest():
            measure = pa.bernstein_szego_measure(bs_lists()[7], panels=panels)
            measure._quadrature
            moments_table(measure, 11)

        assert traced_peak(ingest) < 2.5 * 8 * (8 * panels)

    @pytest.mark.parametrize("panels", [65536, 10001])
    def test_bernstein_szego_weights_match_one_full_grid_pass(self, panels):
        # 10001 panels end in a part chunk
        for alphas in bs_lists()[::3]:
            grid, w = pa.bernstein_szego_measure(alphas, panels=panels)._quadrature
            phi = eval_pair(pa.ExplicitSequence(alphas, tail=0.0), len(alphas), grid.z).phi
            assert w.tobytes() == (grid.w * (1 / np.abs(phi) ** 2) / TWO_PI).tobytes()

    @pytest.mark.parametrize("kind", ["read_only", "kept"])
    def test_a_density_the_weight_owns_is_left_unwritten(self, kind):
        panels = 64
        kept = np.full(8 * panels, 2.0)
        weight = (lambda t: np.broadcast_to(2.0, t.shape)) if kind == "read_only" else (lambda t: kept)
        measure = pa.MeasureSpec(weight=weight, panels=panels)
        # twice the Lebesgue density: every sum doubles exactly, so the
        # normalized moments are Lebesgue's bit for bit
        got = moments_table(measure, 4).c
        assert got.tobytes() == moments_table(pa.lebesgue_measure(panels), 4).c.tobytes()
        assert not np.shares_memory(measure._quadrature[1], kept)
        assert np.all(kept == 2.0)

    def test_equal_support_and_panels_share_read_only_nodes(self):
        a = pa.bernstein_szego_measure([0.5, 0.3j], panels=4096)
        b = pa.bernstein_szego_measure([-0.2, 0.1, 0.4j], panels=4096)
        (ta, wa), (tb, wb) = a._nodes(4096), b._nodes(4096)
        assert ta is tb
        assert a._quadrature[0].z is b._quadrature[0].z
        assert not np.array_equal(wa, wb)
        for arr in a._quadrature[0]:
            assert not arr.flags.writeable
        other = pa.arc_measure(ARC[0], ARC[1], panels=4096)
        assert other._nodes(4096)[0] is not ta

    def test_nodes_returns_angles_and_weights(self):
        measure = pa.arc_measure(5.0, 1.0, masses=[(3.0, 0.2)], panels=64)
        t, w = measure._nodes(64)
        assert t.shape == w.shape == (64 * 8,)
        assert abs(w.sum() - 1.0) < 1e-12
        atoms = pa.MeasureSpec(weight=None, masses=[(0.0, 1.0)])
        t, w = atoms._nodes(atoms.panels)
        assert t.size == w.size == 0

    def test_quadrature_and_mass_are_kept_at_the_measures_own_panel_count(self):
        measure = pa.arc_measure(5.0, 1.0, masses=[(3.0, 0.2)], panels=64)
        t, w = measure._nodes(measure.panels)
        again = measure._nodes(64)
        assert again[0] is t and again[1] is w
        assert measure.normalization(64) == measure.normalization()
        for panels in (32, 65):
            with pytest.raises(MeasureIngestionError, match=f"64 panels, {panels} requested"):
                measure._nodes(panels)
            with pytest.raises(MeasureIngestionError, match=f"64 panels, {panels} requested"):
                measure.normalization(panels)
        # a bad weight raises when first used, not when the measure is built,
        # and again on every later use
        bad = pa.MeasureSpec(weight=lambda t: -np.ones_like(t), panels=64)
        for _ in range(2):
            with pytest.raises(MeasureIngestionError, match="negative or non-finite"):
                moments_table(bad, 1)

    def test_borrowed_bernstein_szego_weight_builds_no_grid_of_its_own(self):
        # on another measure's nodes the weight computes e^{it} itself
        base = pa.bernstein_szego_measure([0.5, 0.3j], panels=65536)
        coeffs._panel_grid.cache_clear()
        measure = pa.MeasureSpec(weight=base.weight, masses=[(1.0, 0.2)], panels=64)
        shared = moments_table(measure, 6)
        assert coeffs._panel_grid.cache_info().misses == 1
        assert shared.c.tobytes() == fresh_moments_table(measure, 6).c.tobytes()

    def test_cache_keeps_at_most_its_cap(self):
        assert coeffs._panel_grid.cache_info().maxsize == GRID_CAP
        coeffs._panel_grid.cache_clear()
        counts = range(40, 40 + GRID_CAP + 3)
        nodes = {}
        for panels in counts:
            nodes[panels] = pa.lebesgue_measure(panels)._nodes(panels)[0]
            assert coeffs._panel_grid.cache_info().currsize <= GRID_CAP
        circle = ((0.0, TWO_PI),)
        # the newest grid is still held, the oldest was evicted and is built anew
        hits = coeffs._panel_grid.cache_info().hits
        assert coeffs._panel_grid(circle, counts[-1]).t is nodes[counts[-1]]
        assert coeffs._panel_grid.cache_info().hits == hits + 1
        misses = coeffs._panel_grid.cache_info().misses
        assert coeffs._panel_grid(circle, counts[0]).t is not nodes[counts[0]]
        assert coeffs._panel_grid.cache_info().misses == misses + 1

    def test_threads_share_the_cache_safely(self):
        # more threads than cores and more panel counts than the cap, so
        # grids are built, reused and evicted while others read them
        counts = list(range(24, 24 + GRID_CAP + 2))
        expected = {p: moments_table(pa.arc_measure(5.0, 1.0, panels=p), 4).c for p in counts}
        errors = []

        def work(offset):
            for i in range(30):
                panels = counts[(offset + i) % len(counts)]
                got = moments_table(pa.arc_measure(5.0, 1.0, panels=panels), 4).c
                if got.tobytes() != expected[panels].tobytes():
                    errors.append(panels)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert coeffs._panel_grid.cache_info().currsize <= GRID_CAP


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
        measure = pa.arc_measure(
            np.pi / 3, 5 * np.pi / 3, masses=[(0.0, 0.35)], ac_mass=0.65, panels=2048
        )
        table = moments_table(measure, 61)
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

    @pytest.mark.parametrize("arc", [(0.0, TWO_PI), (1.0, 7.5)])
    def test_exact_arc_moments_branches_agree_on_wrapped_arcs(self, arc):
        # a full turn, and an arc given past a full turn (it wraps to 7.5 - 1 - 2pi)
        c64 = exact_arc_mass_moments(*arc, 0.65, [(0.0, 0.35)], 24).c
        chp = exact_arc_mass_moments(*arc, 0.65, [(0.0, 0.35)], 24, dps=50)
        assert np.all(np.isfinite(c64))
        assert np.abs(c64 - np.array([complex(v) for v in chp])).max() < 1e-15

    @pytest.mark.parametrize("dps", [None, 30])
    def test_exact_arc_moments_reject_an_empty_arc(self, dps):
        with pytest.raises(MeasureIngestionError, match="arc has zero length"):
            exact_arc_mass_moments(1.0, 1.0, 0.65, [(0.0, 0.35)], 2, dps=dps)

    def test_full_turn_arc_measure_is_lebesgue(self):
        full = moments_table(pa.arc_measure(0.0, TWO_PI), 24).c
        assert np.abs(full - moments_table(pa.lebesgue_measure(), 24).c).max() < 1e-13

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

    @pytest.mark.parametrize("atom", [(0.0, 0.35), (0.23, 0.35)])
    def test_high_precision_matches_four_product_reference(self, atom):
        c = exact_arc_mass_moments(ARC[0], ARC[1], 1.0 - atom[1], [atom], 120, dps=100)
        assert verblunsky_from_moments_hp(c, 120, dps=100) == reference_hp(c, 120, 100)

    def test_high_precision_matches_four_product_reference_at_401(self):
        atom = (0.23, 0.35)
        c = exact_arc_mass_moments(ARC[0], ARC[1], 1.0 - atom[1], [atom], 401, dps=260)
        hp = verblunsky_from_moments_hp(c, 401, dps=260)
        assert len(hp) == 401
        assert hp == reference_hp(c, 401, 260)

    def test_high_precision_errors_match_four_product_reference(self):
        from mpmath import mp

        c = exact_arc_mass_moments(ARC[0], ARC[1], 0.65, [(0.0, 0.35)], 30, dps=100)
        with mp.workdps(100):
            c[12] += mp.mpf("0.2")  # the Toeplitz matrix of size 13 is indefinite
        for moments in (c, [-1.0, 0.2, 0.1]):
            raised = []
            for recursion in (verblunsky_from_moments_hp, reference_hp):
                with pytest.raises(ConditioningError) as info:
                    recursion(moments, len(moments) - 1, 100)
                raised.append((info.value.index, str(info.value)))
            assert raised[0] == raised[1]

    @pytest.mark.parametrize("masses", [[(0.0, 0.35)], [(0.23, 0.35)], [(-0.5, 0.2), (6.0, 0.15)]])
    def test_hp_moments_within_stated_bound(self, masses):
        # at most about k 2^-(p+31) from the running powers, then one
        # rounding to p bits, within 2^-p |c| in each part
        from mpmath import mp

        ac_mass = 1.0 - sum(w for _, w in masses)
        c = exact_arc_mass_moments(ARC[0], ARC[1], ac_mass, masses, 401, dps=260)
        ref = reference_arc_moments(ARC[0], ARC[1], ac_mass, masses, 401, 300)
        with mp.workdps(260):
            p = mp.prec
        with mp.workdps(300):
            for k, (v, r) in enumerate(zip(c, ref)):
                bound = abs(r) * mp.ldexp(1, -p) + k * mp.ldexp(1, 1 - p - MOMENT_GUARD_BITS)
                assert abs(v - r) <= bound, k

    @pytest.mark.parametrize(
        "make",
        [
            lambda: pa.bernstein_szego_measure([0.5, 0.3j, -0.4 + 0.2j], panels=65536),
            lambda: pa.bernstein_szego_measure([0.8j, -0.3, 0.1, 0.6 - 0.2j, 0.05], panels=4100),
            lambda: pa.arc_measure(ARC[0], ARC[1], masses=[(0.0, 0.35)], ac_mass=0.65, panels=2048),
        ],
    )
    def test_blocked_moments_match_one_pass(self, make):
        measure = make()
        _, w = measure._nodes(measure.panels)
        blocked = moments_table(measure, 11).c
        reference = reference_moments_table(measure, 11)
        assert np.abs(blocked - reference).max() <= 1e-14 * w.sum() / measure.normalization()

    def test_high_precision_rejects_non_finite_moments(self):
        # a NaN atom angle gives NaN moments, which fixed point would read as 0
        c = exact_arc_mass_moments(ARC[0], ARC[1], 0.7, [(float("nan"), 0.3)], 5, dps=50)
        with pytest.raises(MeasureIngestionError, match="moment c_1 is not finite"):
            verblunsky_from_moments_hp(c, 5, dps=50)

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

    def test_coefficient_file_nan_line(self, tmp_path):
        path = tmp_path / "alphas.txt"
        path.write_text("0.5\nnan 0\n")
        with pytest.raises(SpecFileError, match="modulus nan >= 1") as info:
            read_coefficient_file(path)
        assert info.value.lineno == 2

    def test_measure_from_dict_nan_angle(self):
        # json.load admits NaN; the measure must not
        doc = json.loads('{"weight": {"kind": "lebesgue"}, "masses": [{"theta": NaN, "w": 0.5}]}')
        with pytest.raises(SpecFileError, match="non-finite angle"):
            measure_from_dict(doc)

    def test_measure_from_dict_kinds(self):
        leb = measure_from_dict({"weight": {"kind": "lebesgue"}, "panels": 512})
        assert abs(moments_table(leb, 0).c[0] - 1.0) < 1e-13
        arc = measure_from_dict(
            {
                "weight": {"kind": "arc", "theta_start": 1.0, "theta_end": 5.0},
                "masses": [{"theta": 0.0, "w": 0.2}],
            }
        )
        assert abs(moments_table(arc, 0).c[0] - 1.0) < 1e-13
        bs = measure_from_dict({"weight": {"kind": "bernstein_szego", "alpha": [[0.5, 0.0]]}})
        assert abs(moments_table(bs, 1).c[1] - 0.5) < 1e-10
        atoms = measure_from_dict({"weight": None, "masses": [{"theta": 0.0, "w": 1.0}]})
        assert abs(moments_table(atoms, 2).c[2] - 1.0) < 1e-15

    def test_measure_from_dict_bad(self):
        with pytest.raises(SpecFileError):
            measure_from_dict({"weight": {"kind": "unknown"}})
        with pytest.raises(SpecFileError):
            measure_from_dict({"weight": {"kind": "arc"}})
        with pytest.raises(SpecFileError):
            measure_from_dict({"weight": None, "masses": [{"theta": 0.0}]})
        # a panel count is a JSON integer, not a float, bool or string
        for panels in (2.7, True, "12"):
            with pytest.raises(SpecFileError, match=f"got {panels!r}"):
                measure_from_dict({"weight": {"kind": "lebesgue"}, "panels": panels})
        # a wrapped arc has two intervals, so one panel is too few
        wrapped = {"weight": {"kind": "arc", "theta_start": 5.0, "theta_end": 1.0}, "panels": 1}
        with pytest.raises(SpecFileError, match="panel count must be >= 2"):
            measure_from_dict(wrapped)


def test_arc_span():
    assert _arc_span(0.0, TWO_PI) == TWO_PI
    assert _arc_span(0.5, 0.5) == 0.0
    assert _arc_span(5.0, 1.0) == pytest.approx(TWO_PI - 4.0)
    assert _arc_span(1.0, 7.5) == pytest.approx(6.5 - TWO_PI)


def test_unit_circle_point_validation():
    assert pa.unit_circle_point(np.exp(0.3j)) == pytest.approx(np.exp(0.3j))
    with pytest.raises(ValueError):
        pa.unit_circle_point(1.0 + 1e-9)
    z = pa.unit_circle_point(np.exp(1.1j) * (1 + 5e-13))
    assert abs(abs(z) - 1.0) < 1e-15
