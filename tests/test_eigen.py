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


class TestCoarseSearch:
    """At p > 1 the ladder runs once, on a coarse march; the 1024- and
    2048-step searches start from a bracket around the root one level
    coarser."""

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

    def test_solve_searches_coarse_to_fine(self, unit, one, monkeypatch):
        calls = []
        real = eigen._shoot_smallest

        def spy(*args):
            lam = real(*args)
            calls.append((args[8:11], lam))
            return lam

        monkeypatch.setattr(eigen, "_shoot_smallest", spy)
        res = eigen.solve_smallest(eigen.EigenProblem(one, fs.Exponential(1.0, 0.5),
                                                      2.0, unit))
        (coarse_args, coarse), (half_args, half), (fine_args, fine) = calls
        assert coarse_args == (256, None, eigen._REFINE_BRACKET)
        assert half_args == (1024, coarse, eigen._REFINE_BRACKET)
        assert fine_args == (2048, half, eigen._REFINE_BRACKET)
        assert res.value == fine
        assert res.error_estimate == abs(fine - half) + 1e-8 * fine

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("boundary", ["both", "left_zero"])
    def test_few_fine_marches_and_the_ladder_value(self, unit, marches, p, boundary):
        # the 2048-step root comes from a bracket around the 1024-step one:
        # two certified ends and a few Illinois steps, where the ladder
        # on 2048 steps takes 8 or more, and the same root.  At p = 3 five
        # `both` solves miss the 1e-6 bracket at 1024 steps; the widening
        # keeps the end that missed and probes one new end (6-7 marches of
        # 1024 steps when it probed both)
        for R in COEFFS:
            for m in DENSITIES:
                del marches[:]
                prob = eigen.EigenProblem(R, m, p, unit, boundary)
                value = eigen.solve_smallest(prob).value
                assert marches.count(2048) <= 5, (R, m)
                assert marches.count(1024) <= 5, (R, m)
                ladder = eigen._shoot_smallest(eigen._as_fn(R, unit), eigen._as_fn(m, unit),
                                               0.0, 1.0, p, 1e-9, boundary=boundary)
                assert value == pytest.approx(ladder, rel=2e-9), (R, m)

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
