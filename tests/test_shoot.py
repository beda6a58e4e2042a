"""The shooting march and the bisection ladder.

At p = 1 the numpy kernel marches by a prefix product of RK4 step matrices;
the step-by-step loop is its reference.  At p > 1 the ladder starts just
below a Rayleigh lower bound; the full ladder from _BRACKET_LO is its
reference.
"""

import math

import numpy as np
import pytest

from hopial import eigen
from hopial import funcspace as fs
from hopial._kernel import fallback
from hopial.errors import DomainError

UNIT = fs.Interval(0.0, 1.0)
N = eigen._SHOOT_STEPS

# the coefficient x density grid of acceptance criterion 6
GRID_R = [
    fs.Constant(1.0),
    fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 1.0)]),
    fs.Exponential(1.0, 1.0),
    fs.Sum([fs.Constant(2.0), fs.ShiftedPowerLaw(-1.0, 1.0)]),
    fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 2.0)]),
]
GRID_M = [fs.Constant(1.0), fs.Exponential(1.0, 0.5)]


def _fns(R, m):
    return fs.compile_program(R, UNIT), fs.compile_program(m, UNIT)


def _straight_leg():
    R_fn, m_fn = _fns(GRID_R[1], GRID_M[1])
    (leg,) = eigen._prepare_legs(R_fn, m_fn, 0.0, 1.0, 1.0, None, None, N)
    return leg


def _wall_legs():
    """R = x (1 - x) vanishes at both ends: a from-left-wall leg and a
    toward-right-wall leg in the stretched coordinate."""
    legs = eigen._prepare_legs(lambda x: x * (1.0 - x), lambda x: 1.0 + x,
                               1e-3, 1.0 - 1e-3, 1.0, 0.0, 1.0, N)
    assert len(legs) == 2
    return legs


def _loop_kernel(r_half, m_half, lam, h, p, u0=0.0, w0=None):
    return fallback._shoot_loop(r_half, m_half, lam, h, p, u0, w0)


def _assert_same_march(R_vals, m_vals, lam, h, u0=0.0, w0=None):
    u_s, w_s, cross_s = fallback._shoot_linear(R_vals, m_vals, lam, h, u0, w0)
    u_l, w_l, cross_l = fallback._shoot_loop(R_vals, m_vals, lam, h, 1.0, u0, w0)
    assert cross_s == cross_l
    # u is near zero at a crossing, so the tolerance is relative to the size
    # of the state (u, w), not of u alone
    scale = math.hypot(u_l, w_l)
    assert abs(u_s - u_l) <= 1e-12 * scale
    assert abs(w_s - w_l) <= 1e-12 * scale
    return cross_l


def _loop_eigenvalue(monkeypatch, R_fn, m_fn, lo, hi, wall_left=None, wall_right=None):
    with monkeypatch.context() as mp:
        mp.setattr(eigen._kernel, "shoot_quasilinear", _loop_kernel)
        return eigen._shoot_smallest(R_fn, m_fn, lo, hi, 1.0, 1e-12,
                                     wall_left, wall_right)


class TestLinearScan:
    @pytest.mark.parametrize("lam", [1.0, 9.0, 40.0, 1e3, 1e8])
    def test_straight_leg(self, lam):
        R_vals, m_vals, h = _straight_leg()
        _assert_same_march(R_vals, m_vals, lam, h)

    @pytest.mark.parametrize("lam", [1.0, 30.0, 1e8])
    def test_wall_legs(self, lam):
        for R_vals, m_vals, h in _wall_legs():
            _assert_same_march(R_vals, m_vals, lam, h)

    def test_second_leg_start(self):
        # the second leg starts from the first leg's end: u0 > 0, explicit w0
        (R1, m1, h1), (R2, m2, h2) = _wall_legs()
        u0, w0, cross = fallback._shoot_loop(R1, m1, 0.1, h1, 1.0)
        assert cross < 0 and u0 > 0.0
        assert _assert_same_march(R2, m2, 0.1, h2, u0, w0) == -1
        assert _assert_same_march(R2, m2, 50.0, h2, u0, w0) > 0
        # a start with u0 > 0 can cross at step 0
        assert _assert_same_march(R2, m2, 1.0, h2, 1e-9, -1.0) == 0

    def test_either_side_of_an_eigenvalue(self, monkeypatch):
        R_fn, m_fn = _fns(GRID_R[1], GRID_M[1])
        lam0 = _loop_eigenvalue(monkeypatch, R_fn, m_fn, 0.0, 1.0)
        R_vals, m_vals, h = _straight_leg()
        assert _assert_same_march(R_vals, m_vals, lam0 * (1 - 1e-7), h) == -1
        assert _assert_same_march(R_vals, m_vals, lam0 * (1 + 1e-7), h) == N - 1

    def test_either_side_of_a_wall_eigenvalue(self, monkeypatch):
        lam0 = _loop_eigenvalue(monkeypatch, lambda x: x * (1.0 - x),
                                lambda x: 1.0 + x, 1e-3, 1.0 - 1e-3, 0.0, 1.0)
        (R1, m1, h1), (R2, m2, h2) = _wall_legs()
        for lam, crossed in ((lam0 * (1 - 1e-7), False), (lam0 * (1 + 1e-7), True)):
            u0, w0, cross = fallback._shoot_loop(R1, m1, lam, h1, 1.0)
            assert _assert_same_march(R1, m1, lam, h1) == cross
            assert cross < 0
            assert (_assert_same_march(R2, m2, lam, h2, u0, w0) >= 0) == crossed

    def test_dispatch(self):
        R_vals, m_vals, h = _straight_leg()
        assert (fallback.shoot_quasilinear(R_vals, m_vals, 9.0, h, 1.0)
                == fallback._shoot_linear(R_vals, m_vals, 9.0, h))
        assert (fallback.shoot_quasilinear(R_vals, m_vals, 9.0, h, 2.0)
                == fallback._shoot_loop(R_vals, m_vals, 9.0, h, 2.0))

    def test_shooting_eigenvalue_matches_loop_on_grid(self, monkeypatch):
        # the p = 1 route of solve_smallest: bisection bracketed around the
        # finite-element value
        for R in GRID_R:
            for m in GRID_M:
                R_fn, m_fn = _fns(R, m)
                lam_fd, _ = eigen._fem_richardson(R_fn, m_fn, 0.0, 1.0, None, None)
                bracket = (0.5 * lam_fd, 1.5 * lam_fd)
                found = []
                for kernel in (fallback.shoot_quasilinear, _loop_kernel):
                    with monkeypatch.context() as mp:
                        mp.setattr(eigen._kernel, "shoot_quasilinear", kernel)
                        found.append(eigen._shoot_smallest(
                            R_fn, m_fn, 0.0, 1.0, 1.0, 1e-9, bracket=bracket))
                assert found[0] == found[1]


def _problem(boundary, walls):
    """(R_fn, m_fn, lo, hi, wall_left, wall_right, boundary) as
    solve_smallest hands them to _shoot_smallest; right_zero is reflected
    onto left_zero."""
    R_fn = lambda x: 1.0 + x * x  # noqa: E731
    m_fn = lambda x: np.exp(0.5 * x)  # noqa: E731
    if walls:
        R_fn = lambda x: x * (1.0 - x)  # noqa: E731
    if boundary == "right_zero":
        R0, m0 = R_fn, m_fn
        R_fn = lambda x: R0(1.0 - np.asarray(x))  # noqa: E731
        m_fn = lambda x: m0(1.0 - np.asarray(x))  # noqa: E731
        boundary = "left_zero"
    if walls:
        return R_fn, m_fn, 1e-3, 1.0 - 1e-3, 0.0, 1.0, boundary
    return R_fn, m_fn, 0.0, 1.0, None, None, boundary


def _shoot(prob, p):
    R_fn, m_fn, lo, hi, wl, wr, boundary = prob
    return eigen._shoot_smallest(R_fn, m_fn, lo, hi, p, 1e-9, wl, wr,
                                 n_steps=512, boundary=boundary)


class TestBoundedLadder:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("boundary,walls", [
        ("both", False), ("left_zero", False), ("right_zero", False), ("both", True),
    ])
    def test_same_float_as_full_ladder(self, monkeypatch, p, boundary, walls):
        prob = _problem(boundary, walls)
        bounded = _shoot(prob, p)
        R_fn, m_fn, lo, hi, wl, wr, bnd = prob
        legs = eigen._prepare_legs(R_fn, m_fn, lo, hi, p, wl, wr, 512)
        floor = eigen._rayleigh_floor(legs, p, bnd)
        assert 0.0 < floor <= bounded
        assert eigen._ladder_start(floor) > eigen._BRACKET_LO  # the bound is used
        with monkeypatch.context() as mp:
            mp.setattr(eigen, "_rayleigh_floor", lambda *args: 0.0)
            full = _shoot(prob, p)
        assert bounded == full

    @pytest.mark.parametrize("boundary", ["both", "left_zero"])
    def test_floor_above_eigenvalue_falls_back(self, monkeypatch, boundary):
        prob = _problem(boundary, False)
        lam0 = _shoot(prob, 2.0)
        with monkeypatch.context() as mp:
            mp.setattr(eigen, "_rayleigh_floor", lambda *args: 100.0 * lam0)
            assert eigen._ladder_start(100.0 * lam0) > lam0
            forced = _shoot(prob, 2.0)
        assert forced == lam0

    def test_ladder_start_rungs(self):
        assert eigen._ladder_start(0.0) == eigen._BRACKET_LO
        assert eigen._ladder_start(math.nan) == eigen._BRACKET_LO
        top = eigen._ladder_start(math.inf)
        assert top < eigen._BRACKET_HI <= 4.0 * top
        rung = eigen._ladder_start(1.0)
        assert rung <= 0.25 < 4.0 * rung
        assert rung == eigen._BRACKET_LO * 4.0 ** round(math.log(rung / 1e-8, 4))

    def test_no_density_keeps_full_ladder(self):
        legs = [(np.ones(5), np.zeros(5), 0.5)]
        assert eigen._rayleigh_floor(legs, 2.0, "both") == 0.0


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_non_finite_p_rejected(p):
    with pytest.raises(DomainError):
        eigen.EigenProblem(fs.Constant(1.0), fs.Constant(1.0), p, UNIT)
