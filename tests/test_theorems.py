import dataclasses
import math

import numpy as np
import pytest

import paraortho as pa
from paraortho.coeffs import exact_arc_mass_moments, verblunsky_from_moments_hp
from paraortho.errors import DomainError, PreconditionError, SupportModelError
from paraortho.theorems import (
    count_zeros_in_ball,
    rho_prime_radius,
    rho_radius,
    rho_tilde_radius,
)
from paraortho.zeros import find_zeros_sweep

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

    def test_wrapping_arc(self):
        model = pa.support_model([(5.0, 1.0)])  # wraps through 0
        assert pa.dist_to_support(model, np.exp(0.5j)) == 0.0
        assert pa.dist_to_support(model, np.exp(3.0j)) > 0.0


class TestRadii:
    def test_values(self):
        assert abs(rho_radius(1.0) - 1.0 / 9.0) < 1e-15
        assert abs(rho_prime_radius(1.0, 1.0) - 1.0 / 9.0) < 1e-15
        assert abs(rho_tilde_radius(1.0, 2.0) - 0.2) < 1e-15
        assert pa.exclusion_radius("rho", {"delta": 1.0}) == rho_radius(1.0)

    def test_domain_errors(self):
        for bad in (0.0, -0.5):
            with pytest.raises(DomainError):
                rho_radius(bad)
            with pytest.raises(DomainError):
                rho_prime_radius(bad, 1.0)
            with pytest.raises(DomainError):
                rho_tilde_radius(bad, 1.0)
        with pytest.raises(ValueError):
            pa.exclusion_radius("nope", {})

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
            za = ctx.zero_set("first", n)
            zb = ctx.zero_set("first", n + 1)
            ca, _, _ = count_zeros_in_ball(za, 1.0 + 0j, 1.0, exclude_lambda=True)
            cb, _, _ = count_zeros_in_ball(zb, 1.0 + 0j, 1.0, exclude_lambda=True)
            if min(ca, cb) > 0:
                violations.append(n)
        assert violations, "inflated radius should defeat the disjunction somewhere"
        # while the honest radius never does
        model = pa.support_model([ARC])
        ctx2 = pa.TheoremContext(seq=seq, lam=np.exp(2.0j), support=model)
        assert all(pa.check_theorem1(ctx2, 1.0, n).passed for n in violations)


class TestGapTheorem:
    def test_geronimus_gap(self, geronimus_ctx):
        for n in range(2, 31):
            rep = pa.check_gap_theorem(geronimus_ctx, (ARC[1], ARC[0] + TWO_PI), n)
            assert rep.passed
            assert rep.counts["h_n"] <= 1

    def test_degenerate_gap(self, geronimus_ctx):
        rep = pa.check_gap_theorem(geronimus_ctx, (0.5, 0.5), 5)
        assert rep.passed and rep.degenerate

    def test_gap_overlapping_support_rejected(self, geronimus_ctx):
        with pytest.raises(PreconditionError):
            pa.check_gap_theorem(geronimus_ctx, (0.0, 2.0), 5)

    def test_wrong_model_shows_failure(self):
        # free case with a (false) one-point support model: the "gap" is
        # almost the whole circle and holds n-1 zeros
        seq = pa.ConstantSequence(0.0)
        model = pa.support_model([], points=[np.pi])
        ctx = pa.TheoremContext(seq=seq, lam=1.0, support=model)
        rep = pa.check_gap_theorem(ctx, (np.pi + 0.01, np.pi - 0.01), 6)
        assert not rep.passed
        assert rep.counts["h_n"] == 5


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

    def test_sweep_of_both_degrees_matches_single_degrees(self):
        # estimate_support finds both degrees' zeros in one sweep; the
        # zeros must be those of one find_zeros call per degree
        seq = pa.ConstantSequence(-0.5)
        lam = np.exp(1j * np.pi)
        swept = find_zeros_sweep("first", lam, seq, [400, 401])
        for n in (400, 401):
            single = pa.find_zeros(pa.ParaPolynomial("first", n, lam, seq))
            assert np.array_equal(swept[n].angles, single.angles)
            assert swept[n].scale == single.scale


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
