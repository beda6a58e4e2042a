"""The shooting march, the bracket ladder and the refinement.

At p = 1 the numpy kernel marches by a prefix product of RK4 step matrices;
the step-by-step loop is its reference, and that loop must reproduce the
marches recorded from its numpy-scalar predecessor bit for bit.  At p > 1
the ladder starts just below a Rayleigh lower bound; the full ladder from
_BRACKET_LO is its reference.  The refinement (Illinois regula falsi, at
every p) is checked against a sign bisection.
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
        # the p = 1 route of solve_smallest: the search bracketed around the
        # finite-element value.  Its Illinois steps read (u, w), on which the
        # scan and the loop agree to about 1e-14, so the two searches agree
        # to the search tolerance, not bit for bit
        for R in GRID_R:
            for m in GRID_M:
                R_fn, m_fn = _fns(R, m)
                lam_fd, _ = eigen._fem_richardson(R_fn, m_fn, 0.0, 1.0, None, None)
                found = []
                for kernel in (fallback.shoot_quasilinear, _loop_kernel):
                    with monkeypatch.context() as mp:
                        mp.setattr(eigen._kernel, "shoot_quasilinear", kernel)
                        found.append(eigen._shoot_smallest(
                            R_fn, m_fn, 0.0, 1.0, 1.0, 1e-9, seed=lam_fd))
                assert found[0] == pytest.approx(found[1], rel=1e-9, abs=0.0)


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


# (u, w, first_cross) of the step loop, as repr strings, recorded when it
# still ran on numpy float64 scalars; the Python-float loop must match them
# bit for bit.  Legs of 512 steps: "straight" is R = 1 + x, m = e^(x/2) on
# (0, 1); "wall1"/"wall2" are the two stretched legs of R = x (1 - x),
# m = 1 + x on (1e-3, 1 - 1e-3), the second started from the end of the
# first.  Straight-leg lambda sits 1e-7 relative below/above the p-problem's
# eigenvalue (STRAIGHT_SIDES), wall lambda at half and twice the wall
# eigenvalue (WALL_EIG).  The coefficients are numpy expressions, not spec
# programs, so the legs do not depend on the kernel backend; the march
# itself calls the C library's pow, as the recorded loop did.
GOLDEN_N = 512
STRAIGHT_SIDES = {1.0: (11.29916945, 11.29917171), 1.5: (19.49677073, 19.49677462),
                  2.0: (32.39478411, 32.39479059), 3.0: (83.68443913, 83.68445587)}
WALL_EIG = {1.0: 0.2628, 1.5: 0.7239, 2.0: 1.498, 3.0: 4.744}
GOLDEN = {
    1.0: {
        "below": ("3.45300483460282e-08", "-1.3471678096686786", -1),
        "above": ("-3.480040038149161e-08", "-1.3471677750626867", 511),
        "1e8": ("-1428.728795878897", "32973680.65853926", 1),
        "wall1": ("0.22710375915300526", "-0.47995555796961253", -1),
        "wall2 below": ("0.9687227164963839", "-0.03585569436547572", -1),
        "wall2 above": ("-0.0013520303644664776", "-0.33451595331329675", 200),
        "extreme down": ("-1.951170533336506e+197", "-9.999237069949946e+199", 0),
        "extreme up": ("-8.058452427322968e+196", "-1.1849585446395587e+200", 266),
    },
    1.5: {
        "below": ("2.999495342490173e-08", "-1.2590653518898598", -1),
        "above": ("-2.999724627028577e-08", "-1.259065332982288", 511),
        "1e8": ("-0.00018667220189767255", "-4.050101393515382", 1),
        "wall1": ("2.0539773013412725", "-1.8687885399488653", -1),
        "wall2 below": ("2.490848278204064", "-1.170465476107547", -1),
        "wall2 above": ("-0.0058330646167221185", "-3.16453348177447", 150),
        "extreme down": ("-4.205141490040822e+130", "-9.999972866270825e+199", 0),
        "extreme up": ("-2.408463574011332e+130", "-1.1949377807658094e+200", 381),
    },
    2.0: {
        "below": ("2.6420953563215457e-08", "-1.2063196988928475", -1),
        "above": ("-2.637243592452411e-08", "-1.2063196923470068", 511),
        "1e8": ("-0.001215951753357271", "-0.9693593603488061", 3),
        "wall1": ("6.19060323920343", "-4.148600396109343", -1),
        "wall2 below": ("3.9840469810565633", "-21.36555314095173", -1),
        "wall2 above": ("-0.012946079414769107", "-34.90653559506564", 138),
        "extreme down": ("-1.9521722316354544e+97", "-9.999999006588858e+199", 0),
        "extreme up": ("-6.57732968750239e+96", "-1.1924528281006836e+200", 476),
    },
    3.0: {
        "below": ("2.10704644645638e-08", "-1.1469023138321315", -1),
        "above": ("-2.107328155227274e-08", "-1.1469023301763912", 511),
        "1e8": ("-0.0019173616212637455", "-0.9917626132834972", 15),
        "wall1": ("15.815170434433242", "2410.582198884868", -1),
        "wall2 below": ("5.971803146901743", "-4321.239457186589", -1),
        "wall2 above": ("-0.0394659229915546", "-5013.741335388681", 139),
        "extreme down": ("-9.062654706625737e+63", "-9.999999998544807e+199", 0),
        "extreme up": ("7.855336801059193e+65", "-1.1593669319273065e+200", -1),
    },
}


def _golden_marches(p):
    (R, m, h), = eigen._prepare_legs(lambda x: 1.0 + x, lambda x: np.exp(0.5 * x),
                                     0.0, 1.0, p, None, None, GOLDEN_N)
    (R1, m1, h1), (R2, m2, h2) = eigen._prepare_legs(
        lambda x: x * (1.0 - x), lambda x: 1.0 + x, 1e-3, 1.0 - 1e-3, p, 0.0, 1.0,
        GOLDEN_N)
    loop = fallback._shoot_loop
    below, above = STRAIGHT_SIDES[p]
    found = {
        "below": loop(R, m, below, h, p),
        "above": loop(R, m, above, h, p),
        "1e8": loop(R, m, 1e8, h, p),
        "wall1": loop(R1, m1, 2.0, h1, p),
        "extreme down": loop(R, m, 40.0, h, p, 1e10, -1e200),
        "extreme up": loop(R, m, 40.0, h, p, 1e10, 1e200),
    }
    for side, lam in (("below", 0.5 * WALL_EIG[p]), ("above", 2.0 * WALL_EIG[p])):
        u0, w0, cross = loop(R1, m1, lam, h1, p)
        assert cross < 0
        found[f"wall2 {side}"] = loop(R2, m2, lam, h2, p, u0, w0)
    return found


class TestFloatLoop:
    @pytest.mark.parametrize("p", sorted(GOLDEN))
    def test_matches_recorded_marches(self, p):
        found = {name: (repr(u), repr(w), cross)
                 for name, (u, w, cross) in _golden_marches(p).items()}
        assert found == GOLDEN[p]

    def test_division_by_zero_gives_numpy_result(self):
        # a zero coefficient makes w / R raise on Python floats; the march
        # reruns on numpy scalars and returns their nan (as recorded)
        r_half = np.linspace(1.0, 2.0, 129)
        r_half[7] = 0.0
        u, w, cross = fallback._shoot_loop(r_half, np.ones(129), 5.0, 1.0 / 64, 2.0)
        assert (repr(u), repr(w), cross) == ("nan", "nan", -1)

    def test_overflowing_power_gives_numpy_result(self):
        # |u|^(p-1) overflows at the first step; numpy scalars give inf
        # where a Python float power raises OverflowError
        (R, m, h), = eigen._prepare_legs(lambda x: 1.0 + x, lambda x: 1.0 + x,
                                         0.0, 1.0, 200.0, None, None, 64)
        u, w, cross = fallback._shoot_loop(R, m, 40.0, h, 200.0, 1e10, 1e200)
        assert (repr(u), repr(w), cross) == ("nan", "nan", -1)


def _crossed(prob, p, lam, n_steps=512):
    """The sign test the search runs on: u reaches 0 before the end
    (both) or the end slope is <= 0 (left_zero)."""
    R_fn, m_fn, lo, hi, wl, wr, boundary = prob
    legs = eigen._prepare_legs(R_fn, m_fn, lo, hi, p, wl, wr, n_steps)
    u, w, hit, _, _ = eigen._march(legs, lam, p)
    return hit or (u if boundary == "both" else w) <= 0.0


def _bisection(prob, p, rtol=1e-13):
    """The reference: the full ladder, then sign bisection to rtol."""
    lo, hi = eigen._BRACKET_LO, eigen._BRACKET_LO
    while not _crossed(prob, p, hi):
        lo, hi = hi, 4.0 * hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if _crossed(prob, p, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _counting_marches(mp):
    calls = []
    march = eigen._march

    def counting(legs_data, lam, p):
        calls.append(lam)
        return march(legs_data, lam, p)

    mp.setattr(eigen, "_march", counting)
    return calls


class TestRefinement:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("boundary,walls", [
        ("both", False), ("left_zero", False), ("right_zero", False), ("both", True),
    ])
    def test_against_sign_bisection(self, monkeypatch, p, boundary, walls):
        prob = _problem(boundary, walls)
        with monkeypatch.context() as mp:
            calls = _counting_marches(mp)
            lam = _shoot(prob, p)
        rtol = 1e-9
        assert not _crossed(prob, p, lam * (1.0 - rtol))
        assert _crossed(prob, p, lam * (1.0 + rtol))
        assert lam == pytest.approx(_bisection(prob, p), rel=1e-9, abs=0.0)
        # the ladder plus the refinement; a sign bisection alone takes 30
        # marches to reach 1e-9 from a factor-4 bracket
        assert len(calls) <= (22 if walls else 14)

    @pytest.mark.parametrize("shape", ["linear", "kinked", "step", "no value", "rising"])
    def test_safeguards(self, monkeypatch, shape):
        # linear: interpolation hits the root at once, and the next point,
        # kept rtol/4 inside the bracket, closes it.  Values that defeat
        # interpolation: a kink that makes regula falsi creep from one side,
        # a jump, no usable value (a zero slope at the stop leaves the
        # tangent without a zero), or a value whose sign contradicts the
        # crossing (u still rising at the end puts the tangent's zero
        # before it), which must not be interpolated
        target = 7.3

        def fake_march(legs_data, lam, p):
            below = lam < target
            if shape == "linear":
                return 1.0, target - lam, False, 1.0, 1.0
            if shape == "kinked":
                w = 1.0 + (target - lam) if below else -1e-9 * (lam - target)
                return 1.0, w, False, 1.0, 1.0
            if shape == "step":
                return 1.0, 1.0 if below else -1.0, False, 1.0, 1.0
            if shape == "no value":
                return 1.0 if below else -1.0, 0.0, False, 1.0, 1.0
            return (0.5, 1.0, False, 1.0, 1.0) if below else (-1e-3, -1.0, True, 0.5, 1.0)

        boundary = "both" if shape in ("no value", "rising") else "left_zero"
        with monkeypatch.context() as mp:
            mp.setattr(eigen, "_march", fake_march)
            calls = _counting_marches(mp)
            lam = _shoot(_problem(boundary, False), 2.0)
        assert lam == pytest.approx(target, rel=1e-9, abs=0.0)
        # at most 4 ladder rungs, then at worst three slow steps and a
        # bisection per halving of the factor-4 bracket down to 1e-9 (32
        # halvings)
        assert len(calls) <= (4 + 2 if shape == "linear" else 4 + 4 * 32)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_non_finite_p_rejected(p):
    with pytest.raises(DomainError):
        eigen.EigenProblem(fs.Constant(1.0), fs.Constant(1.0), p, UNIT)
