"""Checks made apart from the program.

Every check here recomputes what it compares against from plain numpy,
scipy and closed forms; none of them calls into hopial. Inputs arrive as
small descriptors (tuples) that the workloads build alongside the specs
they hand to the program:

    ("const", c)            c
    ("pow", c, alpha)       c * (x - a)^alpha, anchored at the left end
    ("exp", c, beta)        c * exp(beta * x)
    ("pwl", knots)          linear interpolant of (x, value) knots
    ("sum", (d1, d2, ...))  sum of descriptors

A failed check raises CheckFailed with a message naming the numbers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# first zero of the Bessel function J0
J0_FIRST_ZERO = float(special.jn_zeros(0, 1)[0])


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def _fail(text):
    raise CheckFailed(text)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def evaluate(desc, x, a):
    """Value of a descriptor at x (scalar or array) on an interval starting at a."""
    kind = desc[0]
    x = np.asarray(x, dtype=float)
    if kind == "const":
        return np.full_like(x, desc[1])
    if kind == "pow":
        return desc[1] * (x - a) ** desc[2]
    if kind == "exp":
        return desc[1] * np.exp(desc[2] * x)
    if kind == "pwl":
        xs, vs = zip(*desc[1])
        return np.interp(x, xs, vs)
    if kind == "sum":
        return sum(evaluate(term, x, a) for term in desc[1])
    raise ValueError(f"unknown descriptor {kind!r}")


def bounds_on(desc, a, b):
    """(min, max) of a descriptor over [a, b], for monotone pieces and sums."""
    kind = desc[0]
    if kind == "pwl":
        vs = [v for _, v in desc[1]]
        return min(vs), max(vs)
    if kind == "sum":
        parts = [bounds_on(term, a, b) for term in desc[1]]
        return sum(lo for lo, _ in parts), sum(hi for _, hi in parts)
    ends = evaluate(desc, np.array([a, b]), a)
    return float(min(ends)), float(max(ends))


def pwl_running_integral(knots, a, b, side):
    """Exact F(x) = int_a^x f (side "left") or int_x^b f (side "right")."""
    xs = np.array([k[0] for k in knots], dtype=float)
    vs = np.array([k[1] for k in knots], dtype=float)
    cell = 0.5 * (vs[1:] + vs[:-1]) * np.diff(xs)
    head_at_knots = np.concatenate([[0.0], np.cumsum(cell)])
    total = float(head_at_knots[-1])

    def head(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        dx = x - xs[i]
        slope = (vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i])
        return head_at_knots[i] + vs[i] * dx + 0.5 * slope * dx * dx

    if side == "left":
        return head
    return lambda x: total - head(x)


def power_running_integral(c, alpha, a, b, side):
    """Exact running integral of c (x - a)^alpha."""
    total = c * (b - a) ** (alpha + 1.0) / (alpha + 1.0)

    def head(x):
        return c * (np.asarray(x, dtype=float) - a) ** (alpha + 1.0) / (alpha + 1.0)

    if side == "left":
        return head
    return lambda x: total - head(x)


def _quad(fn, a, b, points=None, alg=None):
    """scipy QUADPACK integral with its error; alg=(alpha, beta) selects the
    algebraic-weight rule (QAWS) for (x-a)^alpha (b-x)^beta singular ends."""
    if alg is not None:
        value, err = integrate.quad(fn, a, b, weight="alg", wvar=alg,
                                    epsabs=0.0, epsrel=1e-13, limit=200)
    else:
        pts = None
        if points:
            pts = [p for p in points if a < p < b] or None
        value, err = integrate.quad(fn, a, b, points=pts, epsabs=0.0,
                                    epsrel=1e-13, limit=200)
    return value, err


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def hardy_power_ratio(alpha, p):
    """Ratio of the classical Hardy inequality at f = (x - a)^alpha.

    LHS = int (F/(x-a))^p = 1/((p alpha + 1)(alpha + 1)^p), RHS carries the
    constant (p/(p-1))^p, so the ratio is ((p-1)/(p (alpha+1)))^p; at p = 2
    that is 1/(4 (alpha+1)^2).
    """
    if not p * alpha > -1.0:
        raise ValueError("f^p must be integrable: p * alpha > -1")
    return ((p - 1.0) / (p * (alpha + 1.0))) ** p


def hardy_constant(p):
    return (p / (p - 1.0)) ** p


def constant_coefficient_eigenvalue(c_R, c_m, p, length):
    """Smallest eigenvalue of -(c_R |u'|^(p-1) u')' = lam c_m |u|^(p-1) u with
    Dirichlet ends: (c_R/c_m)(q-1)(pi_q/L)^q, q = p+1,
    pi_q = 2 pi / (q sin(pi/q))."""
    q = p + 1.0
    pi_q = 2.0 * math.pi / (q * math.sin(math.pi / q))
    return (c_R / c_m) * (q - 1.0) * (pi_q / length) ** q


def linear_wall_eigenvalue(c, c_m, length):
    """p = 1, R = c (x - a) vanishing at a, m = c_m on (a, a+L): the limit of
    the Dirichlet problems truncated at a + delta is c j0^2 / (4 c_m L)
    (the eigenfunction is J0(2 sqrt(mu t)))."""
    return c * J0_FIRST_ZERO**2 / (4.0 * c_m * length)


# ---------------------------------------------------------------------------
# scipy oracle for the running-integral inequalities
# ---------------------------------------------------------------------------


def oracle_sides(shape, f_desc, r_desc, a, b, side, lhs_power, rhs_power):
    """Independent LHS and RHS cores of a running-integral inequality.

    shape "hardy":   LHS = int (F / (x - a))^P,     RHS = int f^Q
    shape "weighted": LHS = int r F^P,              RHS = int f^Q
    F runs from a (side "left") or to b (side "right"). Returns
    ((lhs, lhs_err), (rhs, rhs_err)) with absolute errors.
    """
    if f_desc[0] == "pwl":
        F = pwl_running_integral(f_desc[1], a, b, side)
        points = [k[0] for k in f_desc[1]]
        alpha = 0.0
    elif f_desc[0] == "pow":
        F = power_running_integral(f_desc[1], f_desc[2], a, b, side)
        points = None
        alpha = f_desc[2]
    else:
        raise ValueError("oracle supports pwl and pow test functions")

    if shape == "hardy":
        if f_desc[0] == "pow":
            c = f_desc[1] / (alpha + 1.0)
            lhs = _quad(lambda x: c**lhs_power, a, b,
                        alg=(alpha * lhs_power, 0.0))
        else:
            def lhs_fn(x):
                return (F(x) / (x - a)) ** lhs_power if x > a else \
                    float(evaluate(f_desc, a, a)) ** lhs_power
            lhs = _quad(lhs_fn, a, b, points=points)
    else:
        def lhs_fn(x):
            return float(evaluate(r_desc, x, a)) * float(F(x)) ** lhs_power
        lhs = _quad(lhs_fn, a, b, points=points)

    if f_desc[0] == "pow" and alpha < 0.0:
        c = f_desc[1]
        rhs = _quad(lambda x: c**rhs_power, a, b, alg=(alpha * rhs_power, 0.0))
    else:
        rhs = _quad(lambda x: float(evaluate(f_desc, x, a)) ** rhs_power, a, b,
                    points=points)
    return lhs, rhs


def check_against_oracle(label, got, expected, budget):
    """got within the instance budget (relative) of the oracle value, plus
    the oracle's own error estimate."""
    value, err = expected
    slack = budget * abs(value) + err
    if not abs(got - value) <= slack:
        _fail(f"{label}: program {got!r} vs oracle {value!r} "
              f"(allowed {slack:.3g})")


# ---------------------------------------------------------------------------
# stated properties
# ---------------------------------------------------------------------------


def check_sound_status(label, status, ratio):
    """A sound reading never reports Violated, and every status has a number."""
    if status == "Violated":
        _fail(f"{label}: Violated with ratio {ratio!r} on a sound reading")
    if not (isinstance(ratio, float) and math.isfinite(ratio)):
        _fail(f"{label}: no finite ratio ({ratio!r}, status {status})")


def check_close(label, got, expected, rel_tol):
    if not abs(got - expected) <= rel_tol * abs(expected):
        _fail(f"{label}: {got!r} vs {expected!r} (rel tol {rel_tol:.3g})")


def check_translated(label, ratio0, budget0, ratio1, budget1):
    """Equal ratios for translated inputs, within both budgets."""
    allowed = (budget0 + budget1) * max(abs(ratio0), abs(ratio1)) + 1e-14
    if not abs(ratio0 - ratio1) <= allowed:
        _fail(f"{label}: ratio {ratio1!r} on the shifted interval vs "
              f"{ratio0!r} on the unit interval (allowed {allowed:.3g})")


def check_witness(label, ratio):
    """Opial equality witnesses sit at ratio 1."""
    if not abs(ratio - 1.0) <= 1e-8:
        _fail(f"{label}: equality witness at ratio {ratio!r}, expected 1 +- 1e-8")


def check_between(label, value, lower, upper, abs_err=0.0):
    """lower <= value <= upper, each end widened by the value's error estimate."""
    lo = lower - abs_err - 1e-9 * abs(lower)
    hi = upper + abs_err + 1e-9 * abs(upper)
    if not lo <= value <= hi:
        _fail(f"{label}: {value!r} outside [{lower!r}, {upper!r}] "
              f"(error {abs_err:.3g})")


def rayleigh_quotient(R, m, a, b, p):
    """int R |u'|^q / int m |u|^q for u = sin(pi (x-a)/L), q = p+1: an upper
    bound on the smallest Dirichlet eigenvalue (its variational form)."""
    L = b - a
    q = p + 1.0
    k = math.pi / L

    def num(x):
        return float(R(x)) * abs(k * math.cos(k * (x - a))) ** q

    def den(x):
        return float(m(x)) * abs(math.sin(k * (x - a))) ** q

    top, _ = integrate.quad(num, a, b, epsrel=1e-12, limit=200)
    bottom, _ = integrate.quad(den, a, b, epsrel=1e-12, limit=200)
    return top / bottom


def comparison_bounds(R_desc, m_desc, a, b, p):
    """Monotonicity of lambda in R and m: the eigenvalue lies between the
    constant-coefficient closed forms at (min R, max m) and (max R, min m)."""
    r_lo, r_hi = bounds_on(R_desc, a, b)
    m_lo, m_hi = bounds_on(m_desc, a, b)
    L = b - a
    return (constant_coefficient_eigenvalue(r_lo, m_hi, p, L),
            constant_coefficient_eigenvalue(r_hi, m_lo, p, L))
