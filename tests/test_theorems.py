import dataclasses
import math

import numpy as np
import pytest

import paraortho as pa
from paraortho import precision, theorems, zeros
from paraortho.coeffs import exact_arc_mass_moments, verblunsky_from_moments_hp
from paraortho.errors import DomainError, PreconditionError, ResolutionError, SupportModelError
from paraortho.theorems import (
    count_zeros_in_ball,
    estimate_support,
    rho_prime_radius,
    rho_radius,
    rho_tilde_radius,
)
from paraortho.zeros import THETA_TOL, _circular_gap, find_zeros_sweep

TWO_PI = 2.0 * math.pi
ARC = (np.pi / 3, 5 * np.pi / 3)  # essential support of constant |alpha| = 0.5


@pytest.fixture(scope="module")
def geronimus_ctx():
    # arc-only constant case: the gap is centered at z = 1
    seq = pa.ConstantSequence(-0.5)
    model = pa.support_model([ARC])
    return pa.TheoremContext(seq=seq, lam=np.exp(1j * np.pi), support=model)


@pytest.fixture(scope="module")
def mass_fixture():
    # arc weight plus one atom in the gap; coefficients via the
    # high-precision moment recursion (the gap makes the Toeplitz matrix
    # exponentially ill-conditioned)
    masses = [(0.0, 0.35)]
    c = exact_arc_mass_moments(ARC[0], ARC[1], 0.65, masses, 80, dps=80)
    alphas = verblunsky_from_moments_hp(c, 80, dps=80)
    seq = pa.ExplicitSequence(alphas)
    measure = pa.arc_measure(ARC[0], ARC[1], masses=masses, ac_mass=0.65, panels=2048)
    model = pa.support_model([ARC], points=[0.0])
    nu_model = pa.estimate_support(seq.flipped(), np.exp(1j * np.pi), 60)
    return pa.TheoremContext(
        seq=seq, lam=np.exp(1j * np.pi), support=model, nu_support=nu_model, measure=measure
    )


@pytest.fixture(scope="module")
def arc_atom_401():
    # the arc + atom measure of the acceptance suite, 401 coefficients
    c = exact_arc_mass_moments(ARC[0], ARC[1], 0.65, [(0.0, 0.35)], 401, dps=260)
    return pa.ExplicitSequence(verblunsky_from_moments_hp(c, 401, dps=260))


class TestSupportModel:
    def test_dist_full_circle(self):
        model = pa.support_model([(0.0, TWO_PI)])
        assert pa.dist_to_support(model, np.exp(0.7j)) == 0.0

    def test_dist_to_point(self):
        model = pa.support_model([], points=[np.pi])
        assert abs(pa.dist_to_support(model, 1.0) - 2.0) < 1e-15

    def test_dist_to_arc_endpoint(self):
        model = pa.support_model([(np.pi / 2, 3 * np.pi / 2)])
        assert abs(pa.dist_to_support(model, 1.0) - math.sqrt(2.0)) < 1e-15

    def test_empty_model(self):
        with pytest.raises(SupportModelError):
            pa.support_model([])

    def test_overlapping_arcs(self):
        with pytest.raises(SupportModelError):
            pa.support_model([(0.0, 2.0), (1.0, 3.0)])

    def test_point_inside_arc(self):
        with pytest.raises(SupportModelError):
            pa.support_model([(0.0, 2.0)], points=[1.0])

    @pytest.mark.parametrize("arcs, points", [
        ([(float("nan"), 5.236)], []),
        ([(1.0, float("inf"))], []),
        ([ARC], [float("nan")]),
    ])
    def test_non_finite_ends_and_points(self, arcs, points):
        with pytest.raises(SupportModelError, match="non-finite"):
            pa.support_model(arcs, points)

    def test_wrapping_arc(self):
        model = pa.support_model([(5.0, 1.0)])  # wraps through 0
        assert pa.dist_to_support(model, np.exp(0.5j)) == 0.0
        assert pa.dist_to_support(model, np.exp(3.0j)) > 0.0


class TestRadii:
    def test_values(self):
        assert abs(rho_radius(1.0) - 1.0 / 9.0) < 1e-15
        assert abs(rho_prime_radius(1.0, 1.0) - 1.0 / 9.0) < 1e-15
        assert abs(rho_tilde_radius(1.0, 2.0) - 0.2) < 1e-15

    def test_domain_errors(self):
        for bad in (0.0, -0.5):
            with pytest.raises(DomainError):
                rho_radius(bad)
            with pytest.raises(DomainError):
                rho_prime_radius(bad, 1.0)
            with pytest.raises(DomainError):
                rho_tilde_radius(bad, 1.0)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            d1, d2 = sorted(rng.uniform(0.01, 2.0, 2))
            L1, L2 = sorted(rng.uniform(0.01, 2.0, 2))
            if d1 == d2 or L1 == L2:
                continue
            assert rho_radius(d1) < rho_radius(d2)
            assert rho_prime_radius(d1, L1) < rho_prime_radius(d2, L1)
            assert rho_prime_radius(d1, L1) < rho_prime_radius(d1, L2)
            assert rho_tilde_radius(d1, L1) < rho_tilde_radius(d2, L1)
            assert rho_tilde_radius(d1, L1) < rho_tilde_radius(d1, L2)

    def test_prime_improves_when_lam_farther(self):
        grid = np.linspace(0.05, 1.95, 15)
        for delta in grid:
            for L in grid:
                if L >= delta:
                    assert rho_prime_radius(delta, L) >= rho_radius(delta) - 1e-15


class TestTheorem1:
    def test_free_case_has_no_admissible_point(self):
        ctx = pa.TheoremContext(
            seq=pa.ConstantSequence(0.0), lam=1.0,
            support=pa.support_model([(0.0, TWO_PI)]),
        )
        with pytest.raises(PreconditionError):
            pa.check_theorem1(ctx, np.exp(0.5j), 5)

    def test_geronimus_gap_midpoint(self, geronimus_ctx):
        for n in range(2, 31):
            rep = pa.check_theorem1(geronimus_ctx, 1.0, n)
            assert rep.passed
            assert abs(rep.delta - 1.0) < 1e-12
            assert abs(rep.radii["rho"] - 1.0 / 9.0) < 1e-12
            assert "rho_prime" not in rep.radii  # base point sits in the support

    def test_rho_prime_reported_when_base_point_off_support(self):
        seq = pa.ConstantSequence(-0.5)
        model = pa.support_model([ARC])
        lam = np.exp(1j * np.pi / 6)  # inside the gap
        ctx = pa.TheoremContext(seq=seq, lam=lam, support=model)
        rep = pa.check_theorem1(ctx, np.exp(-1j * np.pi / 6), 8)
        assert "rho_prime" in rep.radii
        assert rep.radii["rho_prime"] >= rep.radii["rho"] - 1e-15
        assert rep.passed

    @pytest.mark.parametrize("z0", [float("nan"), complex(float("nan"), 0.0), complex(1.0, float("inf"))])
    def test_non_finite_z0_rejected(self, geronimus_ctx, z0):
        # NaN used to pass the circle check and give a pass with delta NaN
        with pytest.raises(ValueError, match="off the unit circle"):
            pa.check_theorem1(geronimus_ctx, z0, 5)

    def test_z0_equal_lambda_rejected(self, geronimus_ctx):
        with pytest.raises(PreconditionError):
            pa.check_theorem1(geronimus_ctx, geronimus_ctx.lam, 5)

    def test_inflated_radius_control_finds_violations(self):
        # replacing rho by the whole gap half-width must break the
        # disjunction for some degree (asymmetric base point)
        seq = pa.ConstantSequence(-0.5)
        ctx = pa.TheoremContext(seq=seq, lam=np.exp(2.0j))
        violations = []
        for n in range(2, 61):
            za = ctx.zero_set("first", n).without_base_point()
            zb = ctx.zero_set("first", n + 1).without_base_point()
            ca, _, _ = count_zeros_in_ball(za, 1.0 + 0j, 1.0)
            cb, _, _ = count_zeros_in_ball(zb, 1.0 + 0j, 1.0)
            if min(ca, cb) > 0:
                violations.append(n)
        assert violations, "inflated radius should defeat the disjunction somewhere"
        # while the honest radius never does
        model = pa.support_model([ARC])
        ctx2 = pa.TheoremContext(seq=seq, lam=np.exp(2.0j), support=model)
        assert all(pa.check_theorem1(ctx2, 1.0, n).passed for n in violations)

    def test_base_point_inside_the_balls(self):
        # lambda in the gap, 0.01 from z0: inside B(z0, rho) and B(z0,
        # rho_prime), both about 0.1098; the pinned zero is left out
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=np.exp(-0.005j),
                                support=pa.support_model([ARC]), degrees=range(2, 32))
        for n in range(2, 31):
            rep = pa.check_theorem1(ctx, np.exp(0.005j), n)
            assert rep.radii["rho_prime"] == pytest.approx(0.1098, abs=1e-4)
            assert (rep.verdict, rep.witnesses, rep.warnings) == ("pass", [], [])
            assert rep.counts == {"h_n@rho": 0, "h_n1@rho": 0, "h_n@rho_prime": 0, "h_n1@rho_prime": 0}

    def test_failing_phase_counts_name_their_witnesses(self):
        # free case with a false one-point model at pi: B(1, 2/3) and
        # B(1, rho_prime) hold two zeros of h_10 and of h_11
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(0.0), lam=1j, support=pa.support_model([], points=[np.pi]))
        rep = pa.check_theorem1(ctx, 1.0, 10)
        assert rep.verdict == "fail"
        half = 2.0 * math.asin(rep.radii["rho"] / 2.0)
        arc = theorems._arc_from_lambda(ctx, -half, 2.0 * half)
        assert [ctx.arc_count("first", arc, n) for n in (10, 11)] == [rep.counts["h_n@rho"], rep.counts["h_n1@rho"]]
        assert min(rep.counts.values()) == 2
        assert len(rep.witnesses) == sum(rep.counts.values())


class TestGapTheorem:
    def test_geronimus_gap(self, geronimus_ctx):
        for n in range(2, 31):
            rep = pa.check_gap_theorem(geronimus_ctx, (ARC[1], ARC[0] + TWO_PI), n)
            assert rep.passed
            assert rep.counts["h_n"] <= 1

    def test_degenerate_gap(self, geronimus_ctx):
        rep = pa.check_gap_theorem(geronimus_ctx, (0.5, 0.5), 5)
        assert rep.passed and rep.degenerate

    def test_empty_gap_is_vacuous_and_counts_nothing(self):
        # an injected h_3 with two zeros within 4e-13 of the empty gap's
        # point: no zero is counted there, so they cannot fail it
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=1.0, support=pa.support_model([ARC]))
        angles = np.array([0.0, 0.5 - 4e-13, 0.5 + 4e-13])
        ctx._zero_cache[("first", 3)] = pa.ZeroSet("first", 3, 0.0, angles, np.zeros(3), 1.0, True)
        rep = pa.check_gap_theorem(ctx, (0.5, 0.5), 3)
        assert (rep.verdict, rep.degenerate, rep.counts, rep.witnesses) == ("pass", True, {}, [])
        assert rep.warnings == ["the gap is empty (its ends coincide): vacuous"]

    @pytest.mark.parametrize("gap", [(float("nan"), 1.0), (1.0, float("inf"))])
    def test_non_finite_gap_rejected(self, geronimus_ctx, gap):
        with pytest.raises(ValueError, match="non-finite end"):
            pa.check_gap_theorem(geronimus_ctx, gap, 5)

    def test_gap_overlapping_support_rejected(self, geronimus_ctx):
        # a full turn is not an empty gap: it holds the whole support
        for gap in ((0.0, 2.0), (0.0, TWO_PI), (np.pi, 3 * np.pi)):
            with pytest.raises(PreconditionError):
                pa.check_gap_theorem(geronimus_ctx, gap, 5)

    @pytest.mark.parametrize("overlap, rejected", [(1e-10, True), (1e-13, False)])
    @pytest.mark.parametrize("end", ["start", "end"])
    def test_overlap_with_an_arc_end_is_tested_to_1e12(self, geronimus_ctx, end, overlap, rejected):
        # the gap's start runs back into the arc's end, or its end on into
        # the arc's start; near 2pi a relative tolerance would let 2e-9 pass
        gap = (ARC[1] - overlap, ARC[0] + TWO_PI) if end == "start" else (ARC[1], ARC[0] + TWO_PI + overlap)
        if rejected:
            with pytest.raises(PreconditionError, match="overlaps a modeled support arc"):
                pa.check_gap_theorem(geronimus_ctx, gap, 5)
        else:
            assert pa.check_gap_theorem(geronimus_ctx, gap, 5).passed

    @pytest.mark.parametrize("edge", [np.pi / 3 + 5e-13, 5 * np.pi / 3 - 5e-13])
    def test_zero_within_1e12_of_either_end_counts_and_warns(self, edge):
        # an injected h_3: the pinned zero inside the gap, one zero at pi
        # and one 5e-13 past the gap's end or before its start
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=1.0, support=pa.support_model([ARC]))
        angles = np.sort([0.0, np.pi, edge])
        ctx._zero_cache[("first", 3)] = pa.ZeroSet("first", 3, 0.0, angles, np.zeros(3), 1.0, True)
        rep = pa.check_gap_theorem(ctx, (ARC[1], ARC[0] + TWO_PI), 3)
        assert (rep.verdict, rep.counts, rep.witnesses) == ("fail", {"h_n": 2}, [0.0, edge])
        assert rep.warnings == [f"zero at angle {edge:.15g} is within 1e-12 of a gap end and counted"]

    def test_wrong_model_shows_failure(self):
        # free case with a (false) one-point support model: the "gap" is
        # almost the whole circle and holds n-1 zeros
        seq = pa.ConstantSequence(0.0)
        model = pa.support_model([], points=[np.pi])
        ctx = pa.TheoremContext(seq=seq, lam=1.0, support=model)
        rep = pa.check_gap_theorem(ctx, (np.pi + 0.01, np.pi - 0.01), 6)
        assert not rep.passed
        assert rep.counts["h_n"] == 5

    def test_failing_phase_count_names_its_witnesses(self):
        # the free case's h_6 has five zeros in (0.1, 5.9), a gap clear of
        # lambda = 1 under a false one-point model at 6
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(0.0), lam=1.0, support=pa.support_model([], points=[6.0]))
        assert ctx.arc_count("first", (0.1, 5.9), 6) == 5
        rep = pa.check_gap_theorem(ctx, (0.1, 5.9), 6)
        assert (rep.verdict, rep.counts) == ("fail", {"h_n": 5})
        assert rep.witnesses == pytest.approx([k * TWO_PI / 6 for k in range(1, 6)], abs=1e-12)


class TestInterlacingChecks:
    def test_free_case(self):
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(0.0), lam=1.0)
        assert pa.check_interlacing_first_second(ctx, 4).passed
        assert pa.check_consecutive_interlacing(ctx, 4).passed

    def test_geronimus_run(self):
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(0.5), lam=1.0)
        for n in range(1, 26):
            assert pa.check_interlacing_first_second(ctx, n).passed
            assert pa.check_consecutive_interlacing(ctx, n).passed


class TestIsolatedPoint:
    def test_constant_mass_point_fixture(self):
        # constant +0.5 carries an atom at z = 1; its flipped-side
        # support is exactly the arc, so every distance is analytic
        seq = pa.ConstantSequence(0.5)
        mu_model = pa.support_model([ARC], points=[0.0])
        nu_model = pa.support_model([ARC])
        ctx = pa.TheoremContext(
            seq=seq, lam=np.exp(1j * np.pi), support=mu_model, nu_support=nu_model
        )
        for n in range(2, 26):
            lem = pa.check_second_kind_exclusion(ctx, 1.0, n)
            assert lem.passed and not lem.degenerate
            assert abs(lem.radii["rho_tilde"] - 0.2) < 1e-12
            assert lem.notes["nu_support"] == "analytic"
            th3 = pa.check_theorem3(ctx, 1.0, n)
            assert th3.passed
            assert max(th3.counts.values()) <= 1 or min(th3.counts.values()) <= 1

    def test_undeclared_point_rejected(self, geronimus_ctx):
        with pytest.raises(PreconditionError):
            pa.check_second_kind_exclusion(geronimus_ctx, 1.0, 5)

    def test_z0_at_base_point_is_degenerate(self):
        seq = pa.ConstantSequence(0.5)
        mu_model = pa.support_model([ARC], points=[0.0])
        nu_model = pa.support_model([ARC])
        ctx = pa.TheoremContext(seq=seq, lam=1.0, support=mu_model, nu_support=nu_model)
        rep = pa.check_second_kind_exclusion(ctx, 1.0, 5)
        assert rep.passed and rep.degenerate
        assert rep.radii["rho_tilde"] == 0.0

    def test_inflated_radius_control(self):
        seq = pa.ConstantSequence(0.5)
        ctx = pa.TheoremContext(
            seq=seq, lam=np.exp(1j * np.pi),
            support=pa.support_model([ARC], points=[0.0]),
            nu_support=pa.support_model([ARC]),
        )
        fails = 0
        for n in range(2, 26):
            za = ctx.zero_set("second", n)
            zb = ctx.zero_set("second", n + 1)
            ca, _, _ = count_zeros_in_ball(za, 1.0 + 0j, 2.0)
            cb, _, _ = count_zeros_in_ball(zb, 1.0 + 0j, 2.0)
            if min(ca, cb) > 0:
                fails += 1
        assert fails > 0

    def test_estimated_fixture(self, mass_fixture):
        for n in (2, 7, 15, 25):
            lem = pa.check_second_kind_exclusion(mass_fixture, 1.0, n)
            assert lem.passed
            assert lem.notes["nu_support"] == "estimated"
            assert pa.check_theorem3(mass_fixture, 1.0, n).passed


class TestBoundAudit:
    def test_geronimus_margins(self):
        # the flipped side of constant -0.5 is constant +0.5, whose
        # support is the arc plus an atom of mass 2/3 at angle 0: z0 = 1
        # sits in it, so the flipped-side bounds are vacuous here and
        # the first-kind bounds carry the content
        ctx = pa.TheoremContext(
            seq=pa.ConstantSequence(-0.5),
            lam=np.exp(1j * np.pi),
            support=pa.support_model([ARC]),
            nu_support=pa.support_model([ARC], points=[0.0]),
        )
        for n in (2, 10, 25):
            rep = pa.audit_lemma_bounds(ctx, 1.0, n)
            assert rep.passed
            by_name = {c.name: c for c in rep.checks}
            assert by_name["h_kernel_lower"].applicable
            assert by_name["h_kernel_lower"].margin >= 0.0
            assert by_name["h_distance_lower"].margin >= 0.0
            assert not by_name["s_kernel_lower"].applicable  # delta_nu = 0

    def test_without_nu_support_the_audit_is_one_sided(self):
        # at lambda = -1 the flipped side's h_401 has two zeros no double
        # angle separates: no nu model can be estimated
        ctx = pa.TheoremContext(pa.ConstantSequence(-0.5), -1, support=pa.support_model([ARC]))
        rep = pa.audit_lemma_bounds(ctx, 1.0, 5)
        assert rep.notes["nu_support"] == "unavailable"
        assert rep.delta_nu is None
        assert [c.name for c in rep.checks] == ["h_kernel_lower", "h_distance_lower"]

    def test_bad_nu_estimate_degree_is_raised(self):
        # a degree below the estimator's least one is an input error, not
        # a missing model
        ctx = pa.TheoremContext(
            pa.ConstantSequence(-0.5), -1, support=pa.support_model([ARC]), nu_estimate_n=10
        )
        with pytest.raises(ValueError, match="needs degree >= 50, got 10"):
            pa.audit_lemma_bounds(ctx, 1.0, 5)

    def test_measure_mode_row_order(self, mass_fixture):
        rep = pa.audit_lemma_bounds(mass_fixture, 1.0, 6)
        assert [c.name for c in rep.checks] == [
            "h_kernel_lower", "h_distance_lower", "h_norm_upper", "s_kernel_lower", "s_distance_lower",
        ]

    def test_mass_fixture_margins(self, mass_fixture):
        for n in (3, 12, 20):
            rep = pa.audit_lemma_bounds(mass_fixture, 1.0, n)
            assert rep.passed
            by_name = {c.name: c for c in rep.checks}
            assert by_name["s_kernel_lower"].applicable
            assert by_name["h_norm_upper"].margin >= 0.0
            assert rep.notes["h_norm_source"] == "quadrature"

    def test_free_case_with_artificial_model(self):
        # machinery check on closed-form values: a one-point model at -1
        # with the free sequence; distances against an artificial model
        # say nothing about the distance bounds (those need the true
        # support), but both kernel-normalized sides are computed and,
        # for this geometry, nonnegative
        seq = pa.ConstantSequence(0.0)
        model = pa.support_model([], points=[np.pi])
        ctx = pa.TheoremContext(seq=seq, lam=1.0, support=model, nu_support=model)
        rep = pa.audit_lemma_bounds(ctx, 1j, 6)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["h_kernel_lower"].applicable
        assert abs(by_name["h_kernel_lower"].lhs - 2.0 / math.sqrt(6.0)) < 1e-12
        assert by_name["h_kernel_lower"].margin >= 0.0
        assert by_name["s_kernel_lower"].margin >= 0.0


class TestEstimateSupport:
    def test_free_case_full_circle(self):
        model = pa.estimate_support(pa.ConstantSequence(0.0), 1.0, 100)
        assert model.provenance == "estimated"
        assert model.arcs == ((0.0, TWO_PI),)
        assert not model.points

    def test_geronimus_endpoints_stable(self):
        seq = pa.ConstantSequence(-0.5)
        lam = np.exp(1j * np.pi)
        ends = {}
        for n_est in (200, 400):
            model = pa.estimate_support(seq, lam, n_est)
            assert len(model.arcs) == 1 and not model.points
            ends[n_est] = model.arcs[0]
        for n_est in (200, 400):
            assert abs(ends[n_est][0] - ARC[0]) <= TWO_PI / n_est
            assert abs(ends[n_est][1] - ARC[1]) <= TWO_PI / n_est
        assert abs(ends[200][0] - ends[400][0]) <= TWO_PI / 200
        assert abs(ends[200][1] - ends[400][1]) <= TWO_PI / 200

    def test_mass_point_becomes_isolated_cluster(self):
        seq = pa.ConstantSequence(0.5)  # atom of mass 2/3 at z = 1
        model = pa.estimate_support(seq, np.exp(1j * np.pi), 120)
        assert any(
            min(p, TWO_PI - p) < 0.05 for p in model.points
        ), f"expected an isolated cluster near angle 0, got {model!r}"

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            pa.estimate_support(pa.ConstantSequence(0.0), 1.0, 20)

    def test_flipped_estimate_of_geronimus_case(self):
        # the flipped side of constant -0.5 is constant +0.5: the arc plus
        # an atom at angle 0, next to which h_401 has two zeros 6e-14 apart
        # (at lambda = -1 exactly they are 3e-95 apart, which no double
        # angle resolves)
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=np.exp(1j * np.pi))
        model = ctx.nu_model()
        assert model.provenance == "estimated"
        assert len(model.arcs) == 1 and len(model.points) == 1
        assert abs(model.arcs[0][0] - ARC[0]) <= TWO_PI / 400
        assert abs(model.arcs[0][1] - ARC[1]) <= TWO_PI / 400
        assert min(model.points[0], TWO_PI - model.points[0]) < 0.05

    def test_nu_model_estimated_once_with_context_config(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2])
            return estimate_support(*args)

        monkeypatch.setattr(theorems, "estimate_support", counting)
        ctx = pa.TheoremContext(
            seq=pa.ConstantSequence(0.5), lam=np.exp(1j * np.pi),
            support=pa.support_model([ARC], points=[0.0]), nu_estimate_n=60,
        )
        for n in (5, 6):
            assert pa.check_theorem3(ctx, 1.0, n).notes["nu_support"] == "estimated"
        assert calls == [60]

    @staticmethod
    def every_zero_estimate(seq, lam, n):
        """The estimate from every zero of both degrees, refined: each zero
        of degree n against all of degree n + 1 in a gap matrix, then the
        marked angles merged from after the widest gap."""
        za, zb = find_zeros_sweep("first", lam, seq, [n, n + 1]).values()
        a, b = (np.sort(zs.without_base_point().absolute_angles()) for zs in (za, zb))
        marked = a[np.min(_circular_gap(a[:, None], b[None, :]), axis=1) <= TWO_PI / n]
        gaps = np.diff(np.concatenate([marked, [marked[0] + TWO_PI]]))
        threshold = theorems.GAP_FACTOR * TWO_PI / n
        if np.all(gaps <= threshold):
            return [(0.0, TWO_PI)], []
        order = np.roll(marked, -(int(np.argmax(gaps)) + 1))
        order = np.where(order < order[0], order + TWO_PI, order)
        clusters = np.split(order, np.nonzero(np.diff(order) > threshold)[0] + 1)
        arcs = [(c[0] % TWO_PI, c[-1] % TWO_PI) for c in clusters if c.size > 1]
        return arcs, [c[0] % TWO_PI for c in clusters if c.size == 1]

    def test_matches_the_estimate_from_every_zero(self, arc_atom_401, monkeypatch):
        # the estimate refines only the zeros it reports or cannot decide
        # from their cells; the random cases leave zeros' marking undecided
        # by the cells, which seed 5 decides only once zeros of degree
        # n + 1 are refined as well.  Each pass takes PHASE_SPLIT + 1
        # points per bracket
        brackets, passes, polish = [], [], zeros._polish

        def counting(fun, lo, *args):
            def evaluate(thetas, sel):
                passes[-1] += 1
                return fun(thetas, sel)

            brackets.append(len(lo))
            passes.append(0)
            return polish(evaluate, lo, *args)

        monkeypatch.setattr(zeros, "_polish", counting)
        lam = np.exp(1j * np.pi)
        cases = [(pa.ConstantSequence(-0.5), lam, 200), (pa.ConstantSequence(-0.5), lam, 400),
                 (pa.ConstantSequence(0.5), lam, 400), (arc_atom_401.flipped(), lam, 400),
                 (pa.RandomSequence(0.9, 3), 1.0, 120), (pa.RandomSequence(0.7, 5), 1.0, 120)]
        for seq, lam, n in cases:
            arcs, points = self.every_zero_estimate(seq, lam, n)
            brackets.clear()
            passes.clear()
            model = estimate_support(seq, lam, n)
            case = f"{seq!r} lambda {lam} n {n}"
            assert len(model.arcs) == len(arcs) and len(model.points) == len(points), case
            got = np.array([*np.ravel(model.arcs), *model.points])
            want = np.array([*np.ravel(arcs), *points])
            assert np.all(_circular_gap(got, want) <= THETA_TOL), case
            if n == 400:
                assert sum(brackets) <= 32, case
                assert sum(passes) <= 6, case

    def test_sweep_of_both_degrees_matches_single_degrees(self):
        # estimate_support takes both degrees' cells from one phase count;
        # swept together, their zeros must be those of one find_zeros call
        # per degree
        seq = pa.ConstantSequence(-0.5)
        lam = np.exp(1j * np.pi)
        swept = find_zeros_sweep("first", lam, seq, [400, 401])
        for n in (400, 401):
            single = pa.find_zeros(pa.ParaPolynomial("first", n, lam, seq))
            assert np.array_equal(swept[n].angles, single.angles)
            assert swept[n].scale == single.scale


class TestPhaseCounts:
    def test_agree_with_the_zero_sets_on_random_balls(self, record_property):
        # four sequences, four base points, both kinds, degrees 2..60 and
        # 12 balls of radius up to 2/3, the most rho, rho_prime or rho_tilde
        # can be; arcs within GUARD of lambda are left to the zero sets
        rng = np.random.default_rng(0)
        balls = [(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, 2.0 / 3.0)) for _ in range(12)]
        seqs = [pa.ConstantSequence(0.5), pa.ConstantSequence(-0.5), pa.RandomSequence(0.7, 3), pa.RandomSequence(0.9, 5)]
        cases = decided = 0
        for seq in seqs:
            for lam_theta in (0.0, 1.0, np.pi, 4.0):
                ctx = pa.TheoremContext(seq=seq, lam=np.exp(1j * lam_theta), degrees=range(2, 61))
                for kind in ("first", "second"):
                    for theta, r in balls:
                        half = 2.0 * math.asin(r / 2.0)
                        arc = theorems._arc_from_lambda(ctx, theta - half, 2.0 * half)
                        if not theorems.GUARD < arc[0] < arc[1] < TWO_PI - theorems.GUARD:
                            continue
                        for n in range(2, 61):
                            zs = ctx.zero_set(kind, n).without_base_point()
                            count, _, warnings = count_zeros_in_ball(zs, np.exp(1j * theta), r)
                            assert warnings == []
                            phase = ctx.arc_count(kind, arc, n)
                            assert phase in (None, count), (seq, lam_theta, kind, theta, r, n)
                            cases += 1
                            decided += phase is not None
        record_property("decided_share", decided / cases)
        assert cases > 20000
        assert decided / cases > 0.99, f"{decided} of {cases} counts decided"

    @pytest.mark.parametrize("fixture, offset", [
        ("const", 5e-13),  # on a gentle phase, ON_ZERO and GUARD each catch it
        ("atom", 5e-13),  # next to the atom the phase rises ~1e7 turns per radian: GUARD catches it
        ("const", theorems.GUARD + 5e-13),  # next to a guard point: ON_ZERO catches it
    ])
    def test_end_next_to_a_zero_is_undecided(self, fixture, offset, mass_fixture):
        # a gap that starts `offset` after a computed zero of h_20 and holds
        # no other; its warning and count come from the zero set
        seq = mass_fixture.seq if fixture == "atom" else pa.ConstantSequence(-0.5)
        zs = pa.TheoremContext(seq=seq, lam=-1.0).zero_set("first", 20)
        k = int(np.argmin(np.abs(zs.angles - (np.pi if fixture == "atom" else 2.0))))
        width = 0.3 if fixture == "atom" else 0.5 * (zs.angles[k + 1] - zs.angles[k])
        zero = float(zs.absolute_angles()[k])
        start = zero + offset
        ctx = pa.TheoremContext(seq=seq, lam=-1.0, support=pa.support_model([(start + width, start + TWO_PI)]))
        assert ctx.arc_count("first", theorems._arc_from_lambda(ctx, start, width), 20) is None
        rep = pa.check_gap_theorem(ctx, (start, start + width), 20)
        grazes = offset <= theorems.BOUNDARY_TOL
        assert (rep.verdict, rep.counts) == ("pass", {"h_n": int(grazes)})
        assert rep.warnings == [f"zero at angle {zero:.15g} is within 1e-12 of a gap end and counted"] * grazes

    def test_const_fixture_reads_no_zero_set(self, monkeypatch):
        # verify's theorem1 and gap runs over 2..100
        def search(polys):
            raise AssertionError(f"zero sets searched at {list(polys)}")

        monkeypatch.setattr(zeros, "_zero_sets", search)
        monkeypatch.setattr(theorems, "_zero_sets", search)
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=-1.0, support=pa.support_model([ARC]),
                                degrees=range(2, 102))
        for n in range(2, 101):
            assert pa.check_theorem1(ctx, 1.0, n).passed
            assert pa.check_gap_theorem(ctx, (ARC[1], ARC[0] + TWO_PI), n).passed


def test_context_sweeps_its_degrees_once_per_kind(monkeypatch):
    calls = []
    search = theorems._zero_sets

    def spy(polys):
        calls.append(list(polys))
        return search(polys)

    monkeypatch.setattr(theorems, "_zero_sets", spy)
    ctx = pa.TheoremContext(seq=pa.ConstantSequence(0.5), lam=1.0, degrees=range(2, 6))
    ctx.zero_set("first", 9)  # outside the degrees: found alone
    ctx.zero_set("first", 3)
    ctx.zero_set("first", 5)
    ctx.zero_set("second", 4)
    assert calls == [[9], [2, 3, 4, 5], [2, 3, 4, 5]]


def test_reports_are_reproducible(geronimus_ctx):
    seq = pa.ConstantSequence(-0.5)
    model = pa.support_model([ARC])
    a = pa.check_theorem1(
        pa.TheoremContext(seq=seq, lam=np.exp(1j * np.pi), support=model), 1.0, 9
    )
    b = pa.check_theorem1(
        pa.TheoremContext(seq=seq, lam=np.exp(1j * np.pi), support=model), 1.0, 9
    )
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


# (sequence, lambda) of the certificate's comparison with the zero-set route
CERTIFICATE_CASES = {
    "const-0.5@pi": (pa.ConstantSequence(-0.5), np.pi),
    "const+0.5@pi": (pa.ConstantSequence(0.5), np.pi),
    "const-0.5@1": (pa.ConstantSequence(-0.5), 0.0),
    "const+0.5@1": (pa.ConstantSequence(0.5), 0.0),
    "seed1@1": (pa.RandomSequence(0.7, 1), 0.0),
    "seed5@1": (pa.RandomSequence(0.7, 5), 0.0),
    "seed9@1": (pa.RandomSequence(0.7, 9), 0.0),
}
# the degrees the certificate decides where the zero-set route stays
# inconclusive, on shapes its collision ordering does not take: const 0.5's
# atom at z = 1 holds two zeros of h_n within 1e-10 around one of s_n (odd
# n from 45), and at lambda = 1, in const -0.5's gap, s_n has a zero within
# 1e-10 on either side of lambda (n from 44)
NEWLY_DECIDED = {"const+0.5@pi": set(range(45, 151, 2)), "const-0.5@1": set(range(44, 151))}


def _zero_set_verdict(ctx, n):
    """theorem 2's verdict from the two zero sets (interlace), as the
    check gives it without the certificate."""
    try:
        return theorems._interlacing(ctx, n, "theorem2", "second", 0).verdict
    except ResolutionError:
        return "error"


class TestSecondKindCertificate:
    @pytest.mark.parametrize("case", list(CERTIFICATE_CASES))
    def test_verdicts_equal_the_zero_set_route(self, case, monkeypatch, record_property):
        seq, theta = CERTIFICATE_CASES[case]
        laddered, order = set(), precision.order

        def spy(groups):
            laddered.update(f.n for f, _, _ in groups)
            return order(groups)

        monkeypatch.setattr(precision, "order", spy)
        ctx = pa.TheoremContext(seq=seq, lam=np.exp(1j * theta), degrees=range(1, 151))
        certified = {n for n in range(1, 151) if ctx.second_kind_interlaces(n)}
        new = {n: pa.check_interlacing_first_second(ctx, n).verdict for n in range(1, 151)}
        old = {n: _zero_set_verdict(ctx, n) for n in range(1, 151)}
        changed = {n for n in new if new[n] != old[n]}
        assert changed == NEWLY_DECIDED.get(case, set())
        assert all(old[n] == "inconclusive" and new[n] == "pass" for n in changed)
        record_property("certified", len(certified))
        record_property("windows_alone_share", len(certified - laddered) / 150)

    def test_newly_decided_at_lambda_in_the_gap_interlace_by_angles(self):
        # the zero-set route refuses s_n's zeros within 1e-10 of lambda, but
        # they lie on either side of it, and every other pair is apart
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=1.0, degrees=range(44, 151))
        for n in NEWLY_DECIDED["const-0.5@1"]:
            h, s = ctx.zero_set("first", n).angles, ctx.zero_set("second", n).angles
            arcs = np.append(h, TWO_PI)
            assert np.array_equal(np.searchsorted(s, arcs[1:]) - np.searchsorted(s, arcs[:-1], side="right"),
                                  np.ones(n, dtype=int))
            assert min(s[0], TWO_PI - s[-1]) < zeros.COLLISION_TOL
            assert np.min(_circular_gap(h[1:, None], s[None, :])) > zeros.COLLISION_TOL

    def test_bench_fixture_reads_no_second_kind_zero_set(self, monkeypatch):
        search = theorems._zero_sets

        def first_only(polys):
            if any(p.kind == "second" for p in polys.values()):
                raise AssertionError(f"second-kind zero sets searched at {list(polys)}")
            return search(polys)

        monkeypatch.setattr(theorems, "_zero_sets", first_only)
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=np.exp(1j * np.pi), degrees=range(2, 102))
        assert all(pa.check_interlacing_first_second(ctx, n).passed for n in range(2, 101))

    def test_a_sign_against_the_pattern_falls_back(self, monkeypatch):
        # const 0.5 at lambda = pi, n = 45: the certificate passes where the
        # zero sets leave the verdict inconclusive.  s_n's sign flipped at
        # one window goes to the ladder, which restores it; flipped in the
        # ladder as well, the degree falls back to the zero sets and gives
        # their verdict and witness
        seq, lam, n, site = pa.ConstantSequence(0.5), np.exp(1j * np.pi), 45, 3
        today = theorems._interlacing(pa.TheoremContext(seq=seq, lam=lam), n, "theorem2", "second", 0)
        assert today.verdict == "inconclusive" and today.witnesses
        theta = pa.TheoremContext(seq=seq, lam=lam).zero_set("first", n).interior_angles()[site]
        trace_signs, order = precision.trace_signs, precision.order

        def flip_window(groups):
            out = trace_signs(groups)
            for (p, points), (signs, _) in zip(groups, out):
                if p.kind == "second" and p.n == n:
                    signs[points == theta - theorems.WINDOW] *= -1
                    signs[points == theta + theorems.WINDOW] *= -1
            return out

        def flip_site(groups):
            out = order(groups)
            for (f, g, points), (signs, _) in zip(groups, out):
                if f.n == n and g is not None and g.kind == "second":
                    signs[np.atleast_1d(points) == theta] *= -1
            return out

        ladder = []

        def spy(groups):
            ladder.extend(np.atleast_1d(t) for f, _, t in groups if f.n == n)
            return order(groups)

        monkeypatch.setattr(precision, "trace_signs", flip_window)
        monkeypatch.setattr(precision, "order", spy)
        rep = pa.check_interlacing_first_second(pa.TheoremContext(seq=seq, lam=lam), n)
        assert rep.passed and theta in np.concatenate(ladder)
        monkeypatch.setattr(precision, "order", flip_site)
        rep = pa.check_interlacing_first_second(pa.TheoremContext(seq=seq, lam=lam), n)
        assert dataclasses.asdict(rep) == dataclasses.asdict(today)

    def test_errors_at_lambda_minus_one_become_passes(self):
        # at lambda = -1 exactly no double separates s_n's two zeros at
        # z = 1 for even n from 70, so the zero-set route errs; the
        # certificate needs only h_n's zeros, and the ladder decides s_n's
        # sign at h_n's zero z = 1 (checked against mpmath in
        # test_precision)
        ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=-1.0, degrees=range(60, 102))
        reports = [pa.check_interlacing_first_second(ctx, n) for n in range(60, 101)]
        assert all(rep.passed for rep in reports)
        errors = [n for n in range(60, 101) if _zero_set_verdict(ctx, n) == "error"]
        assert errors == list(range(70, 101, 2))
