"""The benchmark's independent checks: each accepts the right value and
rejects a planted wrong one.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, special

import checks as ck


# -- closed forms -------------------------------------------------------------


@pytest.mark.parametrize("alpha,p", [(-0.49, 2.0), (-0.2, 2.0), (0.5, 3.0), (-0.1, 1.5)])
def test_hardy_power_ratio_matches_its_integrals(alpha, p):
    # (F/x)^p = x^(alpha p) / (alpha+1)^p and f^p = x^(alpha p): QAWS weights
    lhs, _ = integrate.quad(lambda x: (alpha + 1) ** -p, 0, 1,
                            weight="alg", wvar=(alpha * p, 0.0), epsrel=1e-12)
    rhs, _ = integrate.quad(lambda x: 1.0, 0, 1, weight="alg", wvar=(alpha * p, 0.0),
                            epsrel=1e-12)
    ratio = lhs / (ck.hardy_constant(p) * rhs)
    assert ck.hardy_power_ratio(alpha, p) == pytest.approx(ratio, rel=1e-9)


def test_hardy_power_ratio_at_p2_is_quarter_over_square():
    assert ck.hardy_power_ratio(-0.49, 2.0) == pytest.approx(1 / (4 * 0.51**2), rel=1e-15)


def test_hardy_power_ratio_rejects_non_integrable():
    with pytest.raises(ValueError):
        ck.hardy_power_ratio(-0.6, 2.0)


def test_constant_coefficient_eigenvalue_linear_case_is_pi_squared():
    assert ck.constant_coefficient_eigenvalue(1, 1, 1, 1) == pytest.approx(math.pi**2)
    assert ck.constant_coefficient_eigenvalue(2, 0.5, 1, 2) == pytest.approx(math.pi**2)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_constant_coefficient_eigenvalue_scales_as_length_power(p):
    one = ck.constant_coefficient_eigenvalue(1.0, 1.0, p, 1.0)
    for length in (0.5, 2.0, 3.0):
        got = ck.constant_coefficient_eigenvalue(1.0, 1.0, p, length)
        assert got == pytest.approx(one * length ** -(p + 1), rel=1e-13)


def test_constant_coefficient_eigenvalue_p2_is_a_rayleigh_stationary_value():
    # the p = 2 eigenvalue is the minimum of int |u'|^3 / int |u|^3; sin is
    # not the minimiser, so its quotient pi^3 lies above
    exact = ck.constant_coefficient_eigenvalue(1.0, 1.0, 2.0, 1.0)
    sine = ck.rayleigh_quotient(lambda x: 1.0, lambda x: 1.0, 0.0, 1.0, 2.0)
    assert sine == pytest.approx(math.pi**3, rel=1e-10)
    assert exact < sine < 1.15 * exact


def test_linear_wall_eigenvalue_is_a_bessel_zero():
    c, c_m, length = 1.7, 0.6, 2.5
    lam = ck.linear_wall_eigenvalue(c, c_m, length)
    mu = lam * c_m * length / c
    assert abs(special.j0(2.0 * math.sqrt(mu))) < 1e-12


# -- the oracle ---------------------------------------------------------------


def test_pwl_running_integral_matches_quadrature():
    knots = ((1.0, 0.2), (1.3, 0.9), (1.7, 0.1), (2.0, 0.5))
    head = ck.pwl_running_integral(knots, 1.0, 2.0, "left")
    tail = ck.pwl_running_integral(knots, 1.0, 2.0, "right")
    for x in (1.0, 1.15, 1.5, 1.99, 2.0):
        want, _ = integrate.quad(lambda t: np.interp(t, *zip(*knots)), 1.0, x,
                                 points=[1.3, 1.7], epsrel=1e-13)
        assert float(head(x)) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert float(head(x) + tail(x)) == pytest.approx(float(head(2.0)), rel=1e-13)


def test_oracle_constant_f_hardy():
    f = ("pwl", ((3.0, 0.7), (4.0, 0.7)))
    (lhs, _), (rhs, _) = ck.oracle_sides("hardy", f, None, 3.0, 4.0, "left", 2.0, 2.0)
    assert lhs == pytest.approx(0.49, rel=1e-12)
    assert rhs == pytest.approx(0.49, rel=1e-12)


def test_oracle_power_f_hardy_matches_closed_form():
    alpha, p = -0.3, 2.0
    (lhs, _), (rhs, _) = ck.oracle_sides("hardy", ("pow", 1.0, alpha), None,
                                         0.0, 1.0, "left", p, p)
    ratio = lhs / (ck.hardy_constant(p) * rhs)
    assert ratio == pytest.approx(ck.hardy_power_ratio(alpha, p), rel=1e-10)


def test_oracle_weighted_right_side():
    # r = 1, f = 1 on (0, 1): F = 1 - x, int F^2 = 1/3, int f^2 = 1
    f = ("pwl", ((0.0, 1.0), (1.0, 1.0)))
    (lhs, _), (rhs, _) = ck.oracle_sides("weighted", f, ("const", 1.0),
                                         0.0, 1.0, "right", 2.0, 2.0)
    assert lhs == pytest.approx(1 / 3, rel=1e-12)
    assert rhs == pytest.approx(1.0, rel=1e-12)


def test_check_against_oracle_accepts_within_budget_and_rejects_outside():
    ck.check_against_oracle("ok", 1.0 + 5e-9, (1.0, 1e-15), 1e-8)
    with pytest.raises(ck.CheckFailed):
        ck.check_against_oracle("planted", 1.0 + 2e-8, (1.0, 1e-15), 1e-8)


# -- properties ---------------------------------------------------------------


def test_sound_status_rejects_violated_and_missing_ratio():
    ck.check_sound_status("ok", "Holds", 0.9)
    ck.check_sound_status("ok", "Inconclusive", 1.0 + 1e-9)
    with pytest.raises(ck.CheckFailed):
        ck.check_sound_status("planted", "Violated", 1.2)
    with pytest.raises(ck.CheckFailed):
        ck.check_sound_status("planted", "Inconclusive", math.nan)


def test_translated_ratios():
    ck.check_translated("ok", 0.5, 1e-8, 0.5 + 5e-9, 1e-8)
    with pytest.raises(ck.CheckFailed):
        ck.check_translated("planted", 0.5, 1e-8, 0.5 + 3e-8, 1e-8)


def test_witness():
    ck.check_witness("ok", 1.0 - 1e-12)
    with pytest.raises(ck.CheckFailed):
        ck.check_witness("planted", 1.0 + 1e-6)


def test_between_and_close():
    ck.check_between("ok", 2.0, 1.0, 3.0)
    ck.check_between("ok", 3.05, 1.0, 3.0, abs_err=0.1)
    with pytest.raises(ck.CheckFailed):
        ck.check_between("planted", 0.9, 1.0, 3.0)
    with pytest.raises(ck.CheckFailed):
        ck.check_between("planted", 3.2, 1.0, 3.0, abs_err=0.1)
    ck.check_close("ok", 1.0 + 1e-10, 1.0, 1e-9)
    with pytest.raises(ck.CheckFailed):
        ck.check_close("planted", 1.0 + 1e-8, 1.0, 1e-9)


def test_rayleigh_quotient_is_exact_for_constant_coefficients():
    got = ck.rayleigh_quotient(lambda x: 2.0, lambda x: 0.5, 1.0, 3.0, 1.0)
    assert got == pytest.approx(ck.constant_coefficient_eigenvalue(2.0, 0.5, 1.0, 2.0),
                                rel=1e-10)


def test_comparison_bounds_bracket_the_rayleigh_bound():
    R = ("sum", (("const", 1.0), ("pow", 1.0, 1.0)))
    m = ("exp", 1.0, 0.5)
    lo, hi = ck.comparison_bounds(R, m, 0.0, 1.0, 1.0)
    assert lo == pytest.approx(math.pi**2 / math.exp(0.5))
    assert hi == pytest.approx(2.0 * math.pi**2)
    rq = ck.rayleigh_quotient(lambda x: 1.0 + x, lambda x: math.exp(0.5 * x),
                              0.0, 1.0, 1.0)
    assert lo < rq < hi


# -- checks as the workloads wire them ----------------------------------------


def _failures(op, result):
    try:
        return op.check(result, {})
    except ck.CheckFailed as exc:
        return [str(exc)]


def test_eigen_closed_form_op_rejects_planted_value():
    import workloads

    op = workloads.EigenSolve._constant_coefficients(1.3, 0.7, 1.0, 100.0, 1.5)
    res = op.call()
    assert _failures(op, res) == []
    planted = dataclasses.replace(res, value=res.value * (1 + 1e-5))
    assert _failures(op, planted)


def test_eigen_bound_checks_reject_planted_values():
    import workloads
    from hopial import eigen

    bench = workloads.EigenSolve(seed=4, out_dir=None)
    wall = bench._wall(1.2, 0.8, 1.0, 2.0)
    exact = ck.linear_wall_eigenvalue(1.2, 0.8, 2.0)
    assert _failures(wall, eigen.EigenResult(1.2 * exact, 1e-6, "planted")) == []
    assert _failures(wall, eigen.EigenResult(0.9 * exact, 1e-6, "planted"))
    assert _failures(wall, eigen.EigenResult(10.0 * exact, 1e-6, "planted"))

    name, R, R_desc = workloads.GRID_R[1]
    _, m, m_desc = workloads.GRID_M[0]
    grid = bench._grid("planted", 1.0, R, R_desc, 1.0, m, m_desc, 1.0, workloads.UNIT)
    rayleigh = ck.rayleigh_quotient(lambda x: 1.0 + x, lambda x: 1.0, 0.0, 1.0, 1.0)
    assert _failures(grid, eigen.EigenResult(0.95 * rayleigh, 1e-6, "planted")) == []
    assert _failures(grid, eigen.EigenResult(1.01 * rayleigh, 1e-6, "planted"))
    assert _failures(grid, eigen.EigenResult(0.9 * math.pi**2, 1e-6, "planted"))

    t2_13 = bench._t2_13(0)
    assert _failures(t2_13, 1e-6)  # lambda = 1e6, far above the Rayleigh bound
    assert _failures(t2_13, 1e6)  # lambda = 1e-6, below the comparison bound


def test_sweep_check_counts_each_planted_violation():
    import workloads

    op = workloads.CatalogueSweep._op("T2.3", workloads.round_seed(3, 0))
    sweep = op.call()
    assert _failures(op, sweep) == []
    reports = list(sweep.reports)
    reports[4] = dataclasses.replace(reports[4], status="Violated", ratio=1.5)
    reports[7] = dataclasses.replace(reports[7], ratio=math.nan)
    assert len(_failures(op, dataclasses.replace(sweep, reports=tuple(reports)))) == 2


def test_oneshot_singular_hardy_check_rejects_planted_ratio(tmp_path):
    import workloads

    bench = workloads.OneshotCli(seed=5, out_dir=str(tmp_path))
    op = next(o for o in bench.round(0) if o.label.startswith("verify HARDY pow:"))
    code, doc = op.call()
    assert _failures(op, (code, doc)) == []
    doc["instances"][0]["ratio"] *= 1 + 1e-6
    assert _failures(op, (code, doc))
