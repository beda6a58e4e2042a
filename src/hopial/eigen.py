"""Smallest eigenvalue of -(R(x) |u'|^(p-1) u')' = lambda m(x) |u|^(p-1) u.

This is the boundary value problem behind the Boyd-Wong style constants:
the inequality constant is 1/lambda0 (up to the (p+1) factor of the lemma
form).  The sign convention keeps the leading coefficient positive and the
density m nonnegative, so lambda0 > 0.

Two independent routes are used for p = 1:

* P1 finite elements on the mesh (symmetric tridiagonal generalized
  problem, h^2-Richardson over two mesh levels), and
* RK4 shooting on the first interior zero of u.

They must agree to the requested tolerance; the disagreement feeds the
error estimate.  For p > 1 only the shooting route exists (the problem is
quasilinear).

At p = 1 each RK4 step is linear in (u, w), and the numpy kernel marches
a whole leg as one prefix-product scan of the step matrices instead of a
Python loop over steps.  Without a bracket, the ladder 1e-8 * 4^k starts
at the highest rung at or below a quarter of a Rayleigh lower bound (the
problem with min R and max m in the leg variable has a closed-form
eigenvalue); one march checks that the start rung does not cross, else the
full ladder runs.  The rungs are exact powers of 4 times 1e-8, so the
bracket is the one the full ladder would reach.

For every p the bracket is refined by Illinois regula falsi (Dowell &
Jarratt, BIT 11, 1971) on a signed value that is <= 0 exactly when the
march crosses: for Dirichlet ends, 1 - (T / t_zero)^(p+1), with t_zero
where the tangent at the stop (the first crossing, or the end) meets
u = 0 and T the leg length; for a free right end, the end flux w.
Interpolation in u_end instead stalls, since after a crossing u at the
stop is a sawtooth of size h |u'|.  The refinement keeps the ladder's
values and the bisection's stop rule and midpoint, so the accuracy
contract is that of a sign bisection; it takes a fraction of the marches.
A search with a reference value at hand starts from a bracket around it
and climbs its own ladder only when that bracket misses.  At p = 1 the
reference is the finite-element value and the bracket 1e-4 (relative).
At p > 1 the search runs coarse to fine: the ladder and Illinois run once,
on a march of 256 steps; its root seeds the 1024-step search, and that
root the 2048-step one, whose root is the value.  These brackets start at
1e-6 and widen x100 up to 1e-4 on a miss, keeping the end that missed.
The two finer roots differ by the discretization part of the error
estimate.

A leading coefficient that vanishes at an endpoint -- the tail integral
R(x, b) always does at b -- is handled by truncating to b - delta for
delta in {1e-3, 5e-4, 2.5e-4} of the width and Aitken extrapolation of
the three eigenvalues.  The eigenfunction then has a logarithmic layer at
the wall, so the truncated solves run on geometrically graded meshes
(finite elements) and in an exponentially stretched coordinate
(shooting); in the stretched variable the coefficient is regular and the
two routes agree again.

The literal statement of the underlying problem asks for u(a) = 0 and
u(b) = 0 "with u' > 0", which no nontrivial function satisfies; the
standard reading (u > 0 in the interior, Dirichlet at both ends) is what
is solved here, and reports carry that reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import _kernel
from . import funcspace as fs
from . import quad
from .errors import (
    DomainError,
    HopialError,
    NoEigenvalueInBracket,
    NonDifferentiableWeight,
    PreconditionFailed,
    SingularCoefficient,
)

__all__ = [
    "EigenProblem",
    "EigenResult",
    "solve_smallest",
    "smallest_eigenvalue",
    "t2_13_constant",
    "t2_13_constant_result",
]

_TRUNCATION_FRACTIONS = (1e-3, 5e-4, 2.5e-4)
_BRACKET_LO = 1e-8
_BRACKET_HI = 1e8
_FD_NODES = 2048
_SHOOT_STEPS = 2048
# half-width (relative) of the bracket around a reference value that a
# shooting search tries last before the full ladder: the only one around
# the finite-element value at p = 1; at p > 1 a level's bracket around the
# root one level coarser starts at _REFINE_BRACKET and widens x100 to it
_SEED_BRACKET = 1e-4
_REFINE_BRACKET = 1e-6


@dataclass(frozen=True)
class EigenProblem:
    """The problem of the module docstring on ``interval``, with R =
    ``weight_R`` and m = ``weight_m``.  Each coefficient is a function
    spec, compiled on the interval, or a vectorized callable: an array of
    x in, an array of the same shape out (a compiled ``fs.Program``, or
    the finite-difference density of ``_derivative_fn``)."""

    weight_R: Union["fs.FunctionSpec", Callable]
    weight_m: Union["fs.FunctionSpec", Callable]
    p: float
    interval: fs.Interval
    boundary: str = "both"  # {"both", "left_zero", "right_zero"}

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1):
            raise DomainError(f"p must be finite and >= 1, got {self.p}")
        if self.boundary not in ("both", "left_zero", "right_zero"):
            raise DomainError(f"unknown boundary {self.boundary!r}")


@dataclass(frozen=True)
class EigenResult:
    value: float
    error_estimate: float  # absolute
    method: str

    @property
    def rel_error(self) -> float:
        return self.error_estimate / abs(self.value) if self.value else math.inf


def _as_fn(w, interval):
    return w if callable(w) else fs.compile_program(w, interval)


# -- meshes and coordinate maps ---------------------------------------------


def _graded_mesh(lo, hi, n, wall_left, wall_right):
    """n+2 nodes from lo to hi, geometrically refined toward walls just
    outside the domain (truncated singular endpoints)."""
    if wall_left is None and wall_right is None:
        return np.linspace(lo, hi, n + 2)
    if wall_right is not None and wall_left is None:
        d_max, d_min = wall_right - lo, wall_right - hi
        rho = (d_min / d_max) ** (1.0 / (n + 1))
        return wall_right - d_max * rho ** np.arange(n + 2)
    if wall_left is not None and wall_right is None:
        d_max, d_min = hi - wall_left, lo - wall_left
        rho = (d_min / d_max) ** (1.0 / (n + 1))
        return (wall_left + d_max * rho ** np.arange(n + 2))[::-1].copy()
    mid = 0.5 * (lo + hi)
    k = (n + 2) // 2
    left = _graded_mesh(lo, mid, k - 1, wall_left, None)
    right = _graded_mesh(mid, hi, n - k, None, wall_right)
    return np.concatenate([left, right[1:]])


def _legs(lo, hi, wall_left, wall_right, n_steps):
    """Shooting legs: (t-grid half-step x values, g' values, h) per leg.

    Singular walls use x(t) = wall -+ d0 * exp(-+sigma t), in which the
    vanishing coefficient becomes regular.
    """
    def straight(l, h_):
        ts = 0.5 * np.arange(2 * n_steps + 1) / n_steps
        xs = l + (h_ - l) * ts
        return xs, np.full_like(xs, h_ - l), 1.0 / n_steps

    def toward_right_wall(l, h_, wall):
        sigma = math.log((wall - l) / (wall - h_))
        ts = 0.5 * np.arange(2 * n_steps + 1) / n_steps
        xs = wall - (wall - l) * np.exp(-sigma * ts)
        return xs, sigma * (wall - xs), 1.0 / n_steps

    def from_left_wall(l, h_, wall):
        sigma = math.log((h_ - wall) / (l - wall))
        ts = 0.5 * np.arange(2 * n_steps + 1) / n_steps
        xs = wall + (l - wall) * np.exp(sigma * ts)
        return xs, sigma * (xs - wall), 1.0 / n_steps

    if wall_left is None and wall_right is None:
        return [straight(lo, hi)]
    if wall_right is not None and wall_left is None:
        return [toward_right_wall(lo, hi, wall_right)]
    if wall_left is not None and wall_right is None:
        return [from_left_wall(lo, hi, wall_left)]
    mid = 0.5 * (lo + hi)
    return [from_left_wall(lo, mid, wall_left), toward_right_wall(mid, hi, wall_right)]


# -- finite element route (p = 1) -------------------------------------------


def _fem_smallest(R_fn, m_fn, mesh, neumann_right=False):
    x = mesh
    h = np.diff(x)
    R_mid = np.asarray(R_fn(0.5 * (x[:-1] + x[1:])), dtype=float)
    if np.any(R_mid <= 0) or np.any(~np.isfinite(R_mid)):
        raise SingularCoefficient("leading coefficient vanishes inside the interval")
    k_edge = R_mid / h
    if neumann_right:
        xi = x[1:]
        diag = np.concatenate([k_edge[:-1] + k_edge[1:], [k_edge[-1]]])
        weights = np.concatenate([0.5 * (h[:-1] + h[1:]), [0.5 * h[-1]]])
    else:
        xi = x[1:-1]
        diag = k_edge[:-1] + k_edge[1:]
        weights = 0.5 * (h[:-1] + h[1:])
    off = -k_edge[1:] if neumann_right else -k_edge[1:-1]
    m = np.asarray(m_fn(xi), dtype=float)
    if np.any(m < 0):
        raise PreconditionFailed("density must be nonnegative at interior nodes")
    mass = np.maximum(m * weights, 1e-300)
    s = 1.0 / np.sqrt(mass)
    dd = diag * s * s
    ee = off * s[:-1] * s[1:]
    vals = eigh_tridiagonal(dd, ee, eigvals_only=True, select="i", select_range=(0, 0))
    return float(vals[0])


def _fem_richardson(R_fn, m_fn, lo, hi, wall_left, wall_right, neumann_right=False):
    mesh_h = _graded_mesh(lo, hi, _FD_NODES, wall_left, wall_right)
    mesh_2h = _graded_mesh(lo, hi, _FD_NODES // 2, wall_left, wall_right)
    lam_h = _fem_smallest(R_fn, m_fn, mesh_h, neumann_right)
    lam_2h = _fem_smallest(R_fn, m_fn, mesh_2h, neumann_right)
    lam = lam_h + (lam_h - lam_2h) / 3.0
    return lam, abs(lam_h - lam_2h) / 3.0


# -- shooting route ----------------------------------------------------------


def _march(legs_data, lam, p):
    """March all legs; returns (u, w, crossed, t, R) at the stop: the first
    crossing of u <= 0, or the end of the last leg.  t is the leg variable
    at the stop, counted from the start of the first leg, and R the leading
    coefficient there."""
    u, w = 0.0, None
    t = 0.0
    for R_vals, m_vals, h in legs_data:
        if w is None:
            w = float(R_vals[0])
        u, w, first_cross = _kernel.shoot_quasilinear(R_vals, m_vals, lam, h, p, u, w)
        if first_cross >= 0:
            stop = first_cross + 1
            return u, w, True, t + stop * h, float(R_vals[2 * stop])
        t += _leg_length(R_vals, h)
    return u, w, False, t, float(R_vals[-1])


def _leg_length(R_vals, h):
    return h * ((len(R_vals) - 1) // 2)


def _prepare_legs(R_fn, m_fn, lo, hi, p, wall_left, wall_right, n_steps):
    """Coefficients in the leg variable t of x = g(t): the flux R |u_x|^(p-1)
    u_x becomes (R / g'^p) |u_t|^(p-1) u_t and the density m becomes m g'."""
    data = []
    for xs, gprime, h in _legs(lo, hi, wall_left, wall_right, n_steps):
        R_vals = np.asarray(R_fn(xs), dtype=float) / gprime**p
        m_vals = np.maximum(np.asarray(m_fn(xs), dtype=float), 0.0) * gprime
        if np.any(R_vals <= 0) or np.any(~np.isfinite(R_vals)):
            raise SingularCoefficient("leading coefficient must stay positive")
        data.append((R_vals, m_vals, h))
    return data


def _rayleigh_floor(legs_data, p, boundary):
    """Lower bound on lambda0 from the Rayleigh quotient in the leg variable
    t: with min R_t and max m_t in place of R_t and m_t the problem has
    constant coefficients, whose eigenvalue is (q - 1) (pi_q / T)^q with
    q = p + 1 and T the total leg length (doubled for a free right end)."""
    m_max = max(float(np.max(m_vals)) for _, m_vals, _ in legs_data)
    if not m_max > 0.0:
        return 0.0
    R_min = min(float(np.min(R_vals)) for R_vals, _, _ in legs_data)
    length = sum(_leg_length(R_vals, h) for R_vals, _, h in legs_data)
    if boundary != "both":
        length *= 2.0
    q = p + 1.0
    pi_q = 2.0 * math.pi / (q * math.sin(math.pi / q))
    try:
        scale = (pi_q / length) ** q
    except OverflowError:  # large p: the ladder start is then capped
        return math.inf
    return R_min / m_max * (q - 1.0) * scale


def _ladder_start(floor):
    """The highest rung _BRACKET_LO * 4^k at or below floor / 4 that stays
    below _BRACKET_HI.  Each rung is the previous one times 4 (exact), so it
    is bit-identical to the rung the full ladder reaches."""
    rung = _BRACKET_LO
    while 4.0 * rung <= 0.25 * floor and 4.0 * rung < _BRACKET_HI:
        rung *= 4.0
    return rung


def _shoot_smallest(R_fn, m_fn, lo, hi, p, tol, wall_left=None, wall_right=None,
                    n_steps=_SHOOT_STEPS, seed=None, half_width=_SEED_BRACKET,
                    boundary="both"):
    legs_data = _prepare_legs(R_fn, m_fn, lo, hi, p, wall_left, wall_right,
                              n_steps)
    length = sum(_leg_length(R_vals, h) for R_vals, _, h in legs_data)

    def probe(lam):
        """(crossed, value): value changes sign with crossed (value <= 0
        exactly when crossed) and varies smoothly with lam; nan where no
        such value is at hand."""
        u, w, hit, t, R = _march(legs_data, lam, p)
        crossed = hit or (u if boundary == "both" else w) <= 0.0
        if boundary == "both":
            # t_zero: where the tangent at the stop meets u = 0.  The zero
            # moves like lam^(-1/(p+1)) (exactly so for constant
            # coefficients), so value is close to linear in lam; the cap
            # at t_zero = length/2 keeps the power finite.
            slope = math.copysign(abs(w / R) ** (1.0 / p), w)
            t_zero = t - u / slope if slope else math.nan
            if t_zero > 0.0:
                value = 1.0 - min(length / t_zero, 2.0) ** (p + 1.0)
            else:
                value = math.nan
        else:  # left_zero: the free-end slope changes sign at the eigenvalue
            value = w
        if (value <= 0.0) != crossed:
            value = math.nan
        return crossed, value

    f_lo = f_hi = math.nan
    if seed is None:
        # the ladder starts a factor 4 below the Rayleigh floor; a start that
        # already crosses falls back to the full ladder from _BRACKET_LO
        lo_l, hi_l = _BRACKET_LO, _BRACKET_LO
        start = _ladder_start(_rayleigh_floor(legs_data, p, boundary))
        if start > _BRACKET_LO:
            crossed, f = probe(start)
            if not crossed:
                lo_l, hi_l, f_lo = start, 4.0 * start, f
        while hi_l < _BRACKET_HI:
            crossed, f_hi = probe(hi_l)
            if crossed:
                break
            lo_l, f_lo = hi_l, f_hi
            hi_l *= 4.0
        else:
            raise NoEigenvalueInBracket(
                f"no sign change for lambda in [{_BRACKET_LO}, {_BRACKET_HI}]"
            )
    else:
        # a bracket half_width (relative) around the seed, widened x100 on a
        # miss; one that still misses at _SEED_BRACKET takes the full ladder.
        # The end that missed is certified on the root's side, so a widening
        # keeps it as the other end and probes only the new far end
        lo_l, hi_l = seed * (1.0 - half_width), seed * (1.0 + half_width)
        (crossed_lo, f_lo), (crossed_hi, f_hi) = probe(lo_l), probe(hi_l)
        while crossed_lo or not crossed_hi:
            if half_width >= _SEED_BRACKET:
                return _shoot_smallest(R_fn, m_fn, lo, hi, p, tol, wall_left,
                                       wall_right, n_steps, boundary=boundary)
            half_width = min(100.0 * half_width, _SEED_BRACKET)
            if crossed_lo:  # the root lies below lo_l
                hi_l, f_hi, crossed_hi = lo_l, f_lo, True
                lo_l = seed * (1.0 - half_width)
                crossed_lo, f_lo = probe(lo_l)
            else:  # above hi_l
                lo_l, f_lo = hi_l, f_hi
                hi_l = seed * (1.0 + half_width)
                crossed_hi, f_hi = probe(hi_l)

    return _illinois(probe, lo_l, f_lo, hi_l, f_hi, max(tol, 1e-12))


def _illinois(probe, lo, f_lo, hi, f_hi, rtol):
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on the probe
    values of a bracket [lo, hi] whose lo does not cross and whose hi does.
    An end kept by two steps in a row has its value halved.  Each new point
    stays rtol/4 * hi inside the bracket; a bisection replaces a step whose
    end values are not both known, and follows three steps that each failed
    to halve the bracket.  Stops and returns as the bisection does: the
    midpoint once the width is <= rtol * hi."""
    kept = None  # the end the last step left in place
    slow = 0
    while hi - lo > rtol * hi:
        width = hi - lo
        if slow < 3 and math.isfinite(f_lo) and math.isfinite(f_hi):
            gap = 0.25 * rtol * hi
            lam = min(max(lo + width * (f_lo / (f_lo - f_hi)), lo + gap), hi - gap)
        else:
            lam = 0.5 * (lo + hi)
        crossed, f = probe(lam)
        if crossed:
            hi, f_hi = lam, f
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo = lam, f
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        slow = slow + 1 if hi - lo > 0.5 * width else 0
    return 0.5 * (lo + hi)


def _fem_and_shooting(R_fn, m_fn, lo, hi, wall_left, wall_right, boundary, tol):
    """The two p = 1 routes: (fem value, fem error, shooting value).  The
    shooting search starts from a bracket _SEED_BRACKET around the
    finite-element value."""
    lam_fd, err_fd = _fem_richardson(R_fn, m_fn, lo, hi, wall_left, wall_right,
                                     boundary == "left_zero")
    lam_sh = _shoot_smallest(R_fn, m_fn, lo, hi, 1.0, tol, wall_left, wall_right,
                             seed=lam_fd, boundary=boundary)
    return lam_fd, err_fd, lam_sh


def _aitken(seq):
    l0, l1, l2 = seq
    d1, d2 = l1 - l0, l2 - l1
    denom = d2 - d1
    if abs(denom) < 1e-300:
        return l2, abs(d2)
    extrap = l2 - d2 * d2 / denom
    return extrap, abs(extrap - l2)


def _reflected(prob):
    """A right_zero problem reflected about the midpoint of its interval:
    the Dirichlet end moves to the left, as left_zero."""
    mid2 = prob.interval.a + prob.interval.b

    def refl(w):
        fn = _as_fn(w, prob.interval)
        return lambda xs: fn(mid2 - np.asarray(xs, dtype=float))

    return EigenProblem(refl(prob.weight_R), refl(prob.weight_m), prob.p,
                        prob.interval, "left_zero")


# -- public API --------------------------------------------------------------


def solve_smallest(prob: EigenProblem, tol: float = 1e-8) -> EigenResult:
    """Smallest eigenvalue with route cross-check and wall truncation."""
    if prob.boundary == "right_zero":
        return solve_smallest(_reflected(prob), tol)
    a, b = prob.interval.a, prob.interval.b
    width = prob.interval.width
    R_fn = _as_fn(prob.weight_R, prob.interval)
    m_fn = _as_fn(prob.weight_m, prob.interval)

    probe = np.linspace(a, b, 1025)[1:-1]
    R_probe = np.asarray(R_fn(probe), dtype=float)
    if np.any(~np.isfinite(R_probe)) or np.any(R_probe <= 0):
        raise SingularCoefficient("leading coefficient vanishes in the interior")
    edge = 1e-9 * width
    r_at_a = float(np.asarray(R_fn(np.array([a + edge])))[0])
    r_at_b = float(np.asarray(R_fn(np.array([b - edge])))[0])
    coeff_scale = float(np.max(R_probe))
    sing_left = r_at_a < 1e-6 * coeff_scale
    sing_right = r_at_b < 1e-6 * coeff_scale

    def solve_on(lo, hi, wall_left, wall_right):
        if prob.p == 1:
            lam_fd, err_fd, lam_sh = _fem_and_shooting(
                R_fn, m_fn, lo, hi, wall_left, wall_right, prob.boundary,
                min(tol, 1e-9),
            )
            gap = abs(lam_fd - lam_sh)
            if gap > max(tol, 1e-6) * abs(lam_fd):
                raise HopialError(
                    f"eigenvalue routes disagree: fem={lam_fd!r} shooting={lam_sh!r}"
                )
            return lam_fd, err_fd + gap
        lam_half = lam = None
        for n_steps in (_SHOOT_STEPS // 8, _SHOOT_STEPS // 2, _SHOOT_STEPS):
            lam_half, lam = lam, _shoot_smallest(
                R_fn, m_fn, lo, hi, prob.p, min(tol, 1e-9), wall_left, wall_right,
                n_steps, lam, _REFINE_BRACKET, prob.boundary)
        return lam, abs(lam - lam_half) + tol * abs(lam)

    if not (sing_left or sing_right):
        lam, err = solve_on(a, b, None, None)
        return EigenResult(lam, err, "fem+shooting" if prob.p == 1 else "shooting")

    lams, errs = [], []
    for frac in _TRUNCATION_FRACTIONS:
        lo = a + frac * width if sing_left else a
        hi = b - frac * width if sing_right else b
        lam, err = solve_on(lo, hi, a if sing_left else None, b if sing_right else None)
        lams.append(lam)
        errs.append(err)
    extrap, aitken_err = _aitken(lams)
    if not (extrap > 0 and math.isfinite(extrap)):
        extrap, aitken_err = lams[-1], abs(lams[-1] - lams[-2])
    return EigenResult(extrap, aitken_err + max(errs), "truncated+aitken")


def smallest_eigenvalue(prob: EigenProblem, tol: float = 1e-8) -> float:
    return solve_smallest(prob, tol).value


def compare_routes(prob: EigenProblem, tol: float = 1e-9) -> dict:
    """Independent finite-element and shooting eigenvalues (p = 1 only).

    Intended for regular (non-vanishing) coefficients; returns both
    values and their gap so callers can assert the agreement directly.
    """
    if prob.p != 1:
        raise DomainError("route comparison is defined for the linear case p = 1")
    if prob.boundary == "right_zero":
        prob = _reflected(prob)
    lam_fem, _, lam_shoot = _fem_and_shooting(
        _as_fn(prob.weight_R, prob.interval), _as_fn(prob.weight_m, prob.interval),
        prob.interval.a, prob.interval.b, None, None, prob.boundary, tol,
    )
    return {
        "fem": lam_fem,
        "shooting": lam_shoot,
        "gap": abs(lam_fem - lam_shoot),
        "rel_gap": abs(lam_fem - lam_shoot) / abs(lam_fem),
    }


def _derivative_fn(s, interval):
    """The derivative of s as a vectorized function: the program of its exact
    derivative spec when the catalog provides it, else central differences;
    piecewise-linear weights with interior kinks are rejected."""
    if isinstance(s, fs.PiecewiseLinear) and len(s.knots) > 2:
        raise NonDifferentiableWeight(
            "piecewise-linear weight has interior kinks; its derivative is "
            "discontinuous and the eigenproblem density is undefined there"
        )
    if isinstance(s, fs.Step):
        raise NonDifferentiableWeight("step weights are not differentiable")
    ds = fs.derivative(s, interval)
    if ds is not None:
        return fs.compile_program(ds, interval)
    fn = fs.compile_program(s, interval)
    h = 1e-6 * interval.width

    def diff(xs):
        xs = np.asarray(xs, dtype=float)
        xp = np.minimum(xs + h, interval.b)
        xm = np.maximum(xs - h, interval.a)
        return (np.asarray(fn(xp), float) - np.asarray(fn(xm), float)) / (xp - xm)

    return diff


def t2_13_constant_result(r, s, p, interval: fs.Interval, tol: float = 1e-8):
    """1/lambda0 for the tail-coefficient problem with density s'.

    The multiplicative constant of the eigenvalue-based Hardy bound.
    Requires s differentiable with s' >= 0 and not identically zero.
    """
    if not (p >= 1 and float(p).is_integer()):
        raise PreconditionFailed(f"p must be a positive integer, got {p}")
    m_fn = _derivative_fn(s, interval)
    probe = np.linspace(interval.a, interval.b, 513)[1:-1]
    m_vals = np.asarray(m_fn(probe), dtype=float)
    s_fn = _as_fn(s, interval)
    s_scale = max(float(np.max(np.abs(np.asarray(s_fn(probe), dtype=float)))), 1e-300)
    m_scale = s_scale / interval.width
    if float(np.max(np.abs(m_vals))) <= 1e-12 * m_scale:
        raise PreconditionFailed("s' vanishes identically (degenerate density)")
    if float(np.min(m_vals)) < -1e-10 * m_scale:
        if float(np.max(m_vals)) > 1e-10 * m_scale:
            raise PreconditionFailed("s' changes sign on the interval")
        raise PreconditionFailed(
            "s must be nondecreasing: the printed eigenproblem has positive "
            "spectrum only for s' >= 0"
        )

    weight_R = quad.RunningIntegral(r, interval, "tail").spec
    prob = EigenProblem(weight_R, m_fn, float(p), interval, "both")
    res = solve_smallest(prob, tol)
    return 1.0 / res.value, res.rel_error


def t2_13_constant(r, s, p, interval: fs.Interval, tol: float = 1e-8) -> float:
    return t2_13_constant_result(r, s, p, interval, tol)[0]
