import math

import pytest

from hopial import eigen
from hopial import funcspace as fs
from hopial.errors import (
    NoEigenvalueInBracket,
    NonDifferentiableWeight,
    PreconditionFailed,
    SingularCoefficient,
)

# regular coefficient/density grid used for the route-agreement checks
COEFFS = [
    fs.Constant(1.0),
    fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 1.0)]),
    fs.Exponential(1.0, 1.0),
    fs.Sum([fs.Constant(2.0), fs.ShiftedPowerLaw(-1.0, 1.0)]),
    fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 2.0)]),
]
DENSITIES = [fs.Constant(1.0), fs.Exponential(1.0, 0.5)]


class TestLinearSanity:
    def test_dirichlet_laplacian_is_pi_squared(self, unit, one):
        res = eigen.solve_smallest(eigen.EigenProblem(one, one, 1.0, unit))
        assert abs(res.value - math.pi**2) <= 1e-6

    def test_routes_agree_on_grid(self, unit):
        worst = 0.0
        for R in COEFFS:
            for m in DENSITIES:
                cmp_ = eigen.compare_routes(
                    eigen.EigenProblem(R, m, 1.0, unit, "both")
                )
                worst = max(worst, cmp_["rel_gap"])
        assert worst <= 1e-6

    def test_density_scaling(self, unit, one):
        base = eigen.solve_smallest(eigen.EigenProblem(one, one, 1.0, unit))
        scaled = eigen.solve_smallest(
            eigen.EigenProblem(one, fs.Constant(3.0), 1.0, unit)
        )
        assert base.value / scaled.value == pytest.approx(3.0, rel=1e-8)

    def test_positive(self, unit):
        for R in COEFFS[:3]:
            res = eigen.solve_smallest(eigen.EigenProblem(R, fs.Constant(1.0),
                                                          1.0, unit))
            assert res.value > 0

    def test_domain_monotonicity(self, one):
        lam_small = eigen.smallest_eigenvalue(
            eigen.EigenProblem(one, one, 1.0, fs.Interval(0.2, 0.8))
        )
        lam_large = eigen.smallest_eigenvalue(
            eigen.EigenProblem(one, one, 1.0, fs.Interval(0.0, 1.0))
        )
        assert lam_small >= lam_large

    def test_mixed_boundaries(self, unit, one):
        left = eigen.solve_smallest(
            eigen.EigenProblem(one, one, 1.0, unit, "left_zero")
        )
        right = eigen.solve_smallest(
            eigen.EigenProblem(one, one, 1.0, unit, "right_zero")
        )
        assert left.value == pytest.approx((math.pi / 2) ** 2, rel=1e-8)
        assert right.value == pytest.approx((math.pi / 2) ** 2, rel=1e-8)
        # an asymmetric coefficient separates the two mixed problems
        asym = fs.Sum([fs.Constant(1.0), fs.PowerLaw(3.0, 1.0)])
        lam_l = eigen.smallest_eigenvalue(eigen.EigenProblem(asym, one, 1.0, unit, "left_zero"))
        lam_r = eigen.smallest_eigenvalue(eigen.EigenProblem(asym, one, 1.0, unit, "right_zero"))
        assert abs(lam_l - lam_r) > 1.0

    @pytest.mark.parametrize("a", [0.0, 2.5])
    @pytest.mark.parametrize("boundary,target", [
        ("both", math.pi**2),
        ("left_zero", (math.pi / 2) ** 2),
        ("right_zero", (math.pi / 2) ** 2),
    ])
    def test_compare_routes_boundaries(self, one, a, boundary, target):
        cmp_ = eigen.compare_routes(
            eigen.EigenProblem(one, one, 1.0, fs.Interval(a, a + 1.0), boundary)
        )
        assert cmp_["fem"] == pytest.approx(target, rel=1e-8)
        assert cmp_["shooting"] == pytest.approx(target, rel=1e-8)
        assert cmp_["rel_gap"] <= 1e-8

    def test_compare_routes_right_zero_matches_solve(self, unit, one):
        asym = fs.Sum([fs.Constant(1.0), fs.PowerLaw(3.0, 1.0)])
        prob = eigen.EigenProblem(asym, one, 1.0, unit, "right_zero")
        cmp_ = eigen.compare_routes(prob)
        assert cmp_["fem"] == pytest.approx(eigen.smallest_eigenvalue(prob), rel=1e-8)
        assert cmp_["rel_gap"] <= 1e-6


class TestSingularCoefficient:
    def test_vanishing_tail_coefficient_truncated(self, unit, one):
        res = eigen.solve_smallest(
            eigen.EigenProblem(fs.ShiftedPowerLaw(1.0, 1.0), one, 1.0, unit)
        )
        assert res.method == "truncated+aitken"
        assert res.value > 0
        # truncation converges logarithmically; the estimate must admit it
        assert res.error_estimate > 1e-3

    def test_truncated_routes_agree_tightly(self, unit):
        # both routes on the same truncated domain (graded/stretched)
        R_fn = fs.compile_program(fs.ShiftedPowerLaw(1.0, 1.0), unit)
        m_fn = fs.compile_program(fs.Constant(1.0), unit)
        hi = 1.0 - 1e-3
        lam_fem, _ = eigen._fem_richardson(R_fn, m_fn, 0.0, hi, None, 1.0)
        lam_sh = eigen._shoot_smallest(R_fn, m_fn, 0.0, hi, 1.0, 1e-9,
                                       wall_right=1.0,
                                       seed=lam_fem, half_width=0.5)
        assert abs(lam_fem - lam_sh) <= 1e-6 * lam_fem

    def test_interior_zero_rejected(self, unit, one):
        dip = fs.PiecewiseLinear([(0.0, 1.0), (0.5, 0.0), (1.0, 1.0)])
        with pytest.raises(SingularCoefficient):
            eigen.solve_smallest(eigen.EigenProblem(dip, one, 1.0, unit))

    def test_huge_p_floor_overflow_is_no_eigenvalue(self, unit, one):
        # (pi_q / length) ** (p + 1) overflows a float once p exceeds ~1023
        with pytest.raises(NoEigenvalueInBracket):
            eigen.solve_smallest(eigen.EigenProblem(one, one, 1100.0, unit))

    def test_no_eigenvalue_in_bracket(self, unit, one):
        # a huge coefficient pushes the eigenvalue beyond the bracket cap
        giant = fs.Constant(1e12)
        with pytest.raises(NoEigenvalueInBracket):
            eigen._shoot_smallest(
                fs.compile_program(giant, unit),
                fs.compile_program(fs.Constant(1e-12), unit),
                0.0, 1.0, 1.0, 1e-9,
            )


class TestQuasilinear:
    def test_p2_scaling(self, unit, one):
        base = eigen.solve_smallest(eigen.EigenProblem(one, one, 2.0, unit))
        scaled = eigen.solve_smallest(
            eigen.EigenProblem(one, fs.Constant(4.0), 2.0, unit)
        )
        assert base.value / scaled.value == pytest.approx(4.0, rel=1e-7)
        assert base.error_estimate < 1e-4 * base.value

    def test_p2_reduces_to_p1_form_for_linear_problem(self, unit, one):
        # scaling invariance only; p = 2 and p = 1 spectra differ
        lam1 = eigen.smallest_eigenvalue(eigen.EigenProblem(one, one, 1.0, unit))
        lam2 = eigen.smallest_eigenvalue(eigen.EigenProblem(one, one, 2.0, unit))
        assert lam1 != pytest.approx(lam2, rel=0.01)

    def test_p2_closed_form_on_shifted_intervals(self):
        # lambda = (c_R / c_m) (q - 1) (pi_q / L)^q with q = p + 1 and
        # pi_q = 2 pi / (q sin(pi / q)); legs of length L != 1 divide R by
        # g'^p, so this pins the quasilinear leg scaling away from (0, 1)
        q = 3.0
        pi_q = 2.0 * math.pi / (q * math.sin(math.pi / q))
        for (a, b), expected in (((1.0, 3.0), 14.1444), ((-3.0, -2.5), 905.240)):
            res = eigen.solve_smallest(eigen.EigenProblem(
                fs.Constant(2.0), fs.Constant(0.5), 2.0, fs.Interval(a, b)
            ))
            exact = (2.0 / 0.5) * (q - 1.0) * (pi_q / (b - a)) ** q
            assert exact == pytest.approx(expected, rel=1e-5)
            assert res.value == pytest.approx(exact, rel=1e-6)

    def test_p2_monotone_in_coefficient_with_wall(self, unit, one):
        # R = x vanishes at a (stretched wall leg); raising R raises lambda
        wall = eigen.solve_smallest(
            eigen.EigenProblem(fs.PowerLaw(1.0, 1.0), one, 2.0, unit)
        )
        lifted = eigen.solve_smallest(eigen.EigenProblem(
            fs.Sum([fs.Constant(0.01), fs.PowerLaw(1.0, 1.0)]), one, 2.0, unit
        ))
        assert wall.method == "truncated+aitken"
        assert wall.value < lifted.value


def _fns(R, m, interval):
    return eigen._as_fn(R, interval), eigen._as_fn(m, interval)


def _crosses(R_fn, m_fn, p, boundary, lam, n_steps=2048):
    legs = eigen._prepare_legs(R_fn, m_fn, 0.0, 1.0, p, None, None, n_steps)
    return eigen._Probe(legs, p, boundary)(lam)[0]


@pytest.fixture
def spied(monkeypatch) -> list:
    """(steps, lam, crossed) of each shooting march a `both` solve makes."""
    seen = []
    real = eigen._march

    def spy(legs_data, lam, p):
        u, w, hit, t, R = out = real(legs_data, lam, p)
        steps = sum((len(R_vals) - 1) // 2 for R_vals, _, _ in legs_data)
        seen.append((steps, lam, hit or u <= 0.0))
        return out

    monkeypatch.setattr(eigen, "_march", spy)
    return seen


class TestCoarseSearch:
    """At p > 1 the ladder runs once, on a coarse march; one 2048-step
    march at its root predicts the 2048-step root, two more certify it,
    and one 1024-step march at the value gives the 1024-step root."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("boundary", ["both", "left_zero"])
    def test_bracketed_agrees_with_ladder(self, unit, marches, p, boundary):
        R = fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 2.0)])
        R_fn = eigen._as_fn(R, unit)
        m_fn = eigen._as_fn(fs.Exponential(1.0, 0.5), unit)
        fine = eigen._shoot_smallest(R_fn, m_fn, 0.0, 1.0, p, 1e-9, boundary=boundary)
        del marches[:]
        ladder = eigen._shoot_smallest(R_fn, m_fn, 0.0, 1.0, p, 1e-9, n_steps=1024,
                                       boundary=boundary)
        ladder_marches = len(marches)
        del marches[:]
        bracketed = eigen._shoot_smallest(R_fn, m_fn, 0.0, 1.0, p, 1e-9, n_steps=1024,
                                          seed=fine, boundary=boundary)
        assert bracketed == pytest.approx(ladder, rel=2e-9)
        assert len(marches) <= 6 < ladder_marches

    def test_solve_predicts_and_certifies(self, unit, one, spied):
        m = fs.Exponential(1.0, 0.5)
        res = eigen.solve_smallest(eigen.EigenProblem(one, m, 2.0, unit))
        steps = [n for n, _, _ in spied]
        n_coarse = steps.count(256)
        assert steps == [256] * n_coarse + [2048, 2048, 2048, 1024]
        (_, lam_c, _), (_, lo, lo_crossed), (_, hi, hi_crossed), (_, at, _) = spied[n_coarse:]
        R_fn, m_fn = _fns(one, m, unit)
        # the prediction march runs at the root of the 256-step search
        assert lam_c == eigen._shoot_smallest(R_fn, m_fn, 0.0, 1.0, 2.0, 1e-9, n_steps=256)
        # a certified bracket of the bisection's stop width, and its midpoint
        assert not lo_crossed and hi_crossed
        assert 0.0 < hi - lo <= 1e-9 * hi
        assert res.value == 0.5 * (lo + hi) == at
        lam, lam_half = eigen._shoot_predicted(R_fn, m_fn, 0.0, 1.0, 2.0, 1e-9)
        assert lam == res.value
        assert res.error_estimate == abs(lam - lam_half) + 1e-8 * lam

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("boundary", ["both", "left_zero"])
    def test_few_fine_marches_and_the_ladder_value(self, unit, marches, p, boundary):
        # the 2048-step root comes from one prediction march and two that
        # certify it, where the ladder on 2048 steps takes 8 or more, and
        # it is the ladder's root.  At p = 3 seven `both` predictions miss
        # the root by 3.9e-10 to 3.8e-9 (relative), more than the rtol/4
        # that certifies, and two more marches (Illinois steps, or a chord
        # step certified) close the bracket
        for R in COEFFS:
            for m in DENSITIES:
                del marches[:]
                prob = eigen.EigenProblem(R, m, p, unit, boundary)
                value = eigen.solve_smallest(prob).value
                assert marches.count(2048) <= (5 if p == 3.0 else 3), (R, m)
                assert marches.count(1024) <= 1, (R, m)
                ladder = eigen._shoot_smallest(eigen._as_fn(R, unit), eigen._as_fn(m, unit),
                                               0.0, 1.0, p, 1e-9, boundary=boundary)
                assert value == pytest.approx(ladder, rel=2e-9), (R, m)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("boundary", ["both", "left_zero"])
    def test_error_estimate_is_honest(self, unit, p, boundary):
        # the 1024-step root linearised from one march is the root a
        # certified search finds, and the value is the 2048-step root
        for R in COEFFS:
            for m in DENSITIES:
                R_fn, m_fn = _fns(R, m, unit)
                lam, lam_half = eigen._shoot_predicted(R_fn, m_fn, 0.0, 1.0, p, 1e-9,
                                                       boundary=boundary)
                searched = eigen._shoot_smallest(R_fn, m_fn, 0.0, 1.0, p, 1e-9,
                                                 n_steps=1024, seed=lam, boundary=boundary)
                assert abs(lam_half - searched) <= 1e-9 * lam, (R, m)
                assert not _crosses(R_fn, m_fn, p, boundary, lam * (1.0 - 1e-9)), (R, m)
                assert _crosses(R_fn, m_fn, p, boundary, lam * (1.0 + 1e-9)), (R, m)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("boundary", ["both", "left_zero"])
    def test_a_miss_never_restarts(self, unit, one, monkeypatch, p, boundary):
        # every 2048-step march after the prediction sees the root moved
        # 1e-7 away from the coarse root lam_c, so the prediction misses:
        # the solve refines next to the ends it holds and never climbs a
        # ladder or a bracket 1e-4 around lam_c again
        fine = []
        real = eigen._march

        def shifted(legs_data, lam, p_):
            if len(legs_data[0][0]) != 2 * 2048 + 1:
                return real(legs_data, lam, p_)
            if fine:
                lam_c, above = fine[0]
                lam *= 1.0 + 1e-7 if above else 1.0 - 1e-7
            u, w, hit, t, R = out = real(legs_data, lam, p_)
            fine.append((lam, hit or (u if boundary == "both" else w) <= 0.0))
            return out

        monkeypatch.setattr(eigen, "_march", shifted)
        m = fs.Exponential(1.0, 0.5)
        value = eigen.solve_smallest(eigen.EigenProblem(one, m, p, unit, boundary)).value
        lam_c = fine[0][0]
        assert 3 < len(fine) <= 5
        assert all(abs(lam - lam_c) <= 1e-4 * lam_c for lam, _ in fine)
        R_fn, m_fn = _fns(one, m, unit)
        assert not _crosses(R_fn, m_fn, p, boundary, value * (1.0 - 1e-9))
        assert _crosses(R_fn, m_fn, p, boundary, value * (1.0 + 1e-9))

    def test_no_slope_falls_back_to_searches(self, unit, monkeypatch):
        # without a slope there is nothing to predict or linearise: the
        # 2048-step root comes from the ladder, the 1024-step one from a
        # search around it
        R_fn, m_fn = _fns(COEFFS[1], DENSITIES[1], unit)
        lam, lam_half = eigen._shoot_predicted(R_fn, m_fn, 0.0, 1.0, 2.0, 1e-9)
        monkeypatch.setattr(eigen._Probe, "slope", lambda self: math.nan)
        lam_f, lam_half_f = eigen._shoot_predicted(R_fn, m_fn, 0.0, 1.0, 2.0, 1e-9)
        assert lam_f == eigen._shoot_smallest(R_fn, m_fn, 0.0, 1.0, 2.0, 1e-9)
        assert lam_half_f == eigen._shoot_smallest(R_fn, m_fn, 0.0, 1.0, 2.0, 1e-9,
                                                   n_steps=1024, seed=lam_f)
        assert lam_f == pytest.approx(lam, rel=1e-9)
        assert lam_half_f == pytest.approx(lam_half, rel=1e-9)

    def test_wall_solve_steps(self, unit, one, marches):
        # R = x vanishes at 0: three truncated solves, whose ladders climb
        # from a low Rayleigh floor on coarse marches (101,376 steps when
        # they ran on 2048 steps)
        res = eigen.solve_smallest(eigen.EigenProblem(fs.PowerLaw(1.0, 1.0), one,
                                                      2.0, unit))
        assert sum(marches) <= 64_000
        assert abs(res.value - 6.906458975721357) <= res.error_estimate


class TestP1Marches:
    """At p = 1 the shooting cross-check starts from a bracket around the
    finite-element value and refines it by Illinois steps: a few marches
    per solve, where a sign bisection from (0.5, 1.5) x fem takes 32."""

    @pytest.mark.parametrize("m", DENSITIES)
    @pytest.mark.parametrize("R", COEFFS)
    def test_grid_solve(self, unit, marches, R, m):
        eigen.solve_smallest(eigen.EigenProblem(R, m, 1.0, unit))
        assert len(marches) <= 8

    def test_wall_solve(self, unit, one, marches):
        # R = x vanishes at 0: three truncated solves
        eigen.solve_smallest(eigen.EigenProblem(fs.PowerLaw(1.0, 1.0), one, 1.0, unit))
        assert len(marches) <= 24


class TestT213Constant:
    def test_example_value_positive_and_stable(self, unit, one):
        c1, rel1 = eigen.t2_13_constant_result(one, fs.Exponential(1.0, 2.0), 1, unit)
        c2, _ = eigen.t2_13_constant_result(one, fs.Exponential(1.0, 2.0), 1, unit)
        assert c1 == c2  # deterministic
        assert c1 > 0 and rel1 < 1.0

    def test_linear_s_matches_literal_problem(self, unit, one):
        # s(x) = x has density s' = 1: the eigenproblem is the vanishing
        # tail coefficient with unit density
        c, _ = eigen.t2_13_constant_result(one, fs.PowerLaw(1.0, 1.0), 1, unit)
        res = eigen.solve_smallest(
            eigen.EigenProblem(fs.ShiftedPowerLaw(1.0, 1.0), fs.Constant(1.0),
                               1.0, unit)
        )
        assert c == pytest.approx(1.0 / res.value, rel=1e-9)

    def test_constant_s_rejected(self, unit, one):
        with pytest.raises(PreconditionFailed, match="degenerate|vanishes"):
            eigen.t2_13_constant(one, fs.Constant(2.0), 1, unit)

    def test_kinked_piecewise_linear_rejected(self, unit, one):
        kinked = fs.PiecewiseLinear([(0, 0.1), (0.5, 1.0), (1, 0.2)])
        with pytest.raises(NonDifferentiableWeight):
            eigen.t2_13_constant(one, kinked, 1, unit)

    def test_affine_piecewise_linear_accepted(self, unit, one):
        # two knots mean no interior kink; s' is a positive constant
        affine = fs.PiecewiseLinear([(0, 0.5), (1, 1.5)])
        assert eigen.t2_13_constant(one, affine, 1, unit) > 0

    def test_decreasing_s_rejected(self, unit, one):
        with pytest.raises(PreconditionFailed, match="nondecreasing"):
            eigen.t2_13_constant(one, fs.ShiftedPowerLaw(1.0, 1.0), 1, unit)

    def test_scaling_under_s(self, unit, one):
        # with s' as the density (the printed reading), scaling s by c
        # divides lambda0 by c and multiplies 1/lambda0 by c
        c1, _ = eigen.t2_13_constant_result(one, fs.Exponential(1.0, 2.0), 1, unit)
        c2, _ = eigen.t2_13_constant_result(one, fs.Exponential(5.0, 2.0), 1, unit)
        assert c2 / c1 == pytest.approx(5.0, rel=1e-5)

    def test_non_integer_p_rejected(self, unit, one):
        with pytest.raises(PreconditionFailed):
            eigen.t2_13_constant(one, fs.PowerLaw(1.0, 1.0), 1.5, unit)
