"""Adaptive quadrature with endpoint-singularity handling.

The engine is a batched global-adaptive Gauss-Kronrod (7, 15) scheme:

* structural breakpoints of a spec seed the initial panels, so piecewise
  polynomials integrate exactly in one pass per piece;
* declared endpoint exponents kappa in (-1, 0) are removed by the
  substitution x = a + u^m with m = 2/(1 + kappa), after which the
  transformed integrand vanishes linearly at the endpoint;
* exponents <= -1 are rejected as divergent before any evaluation;
* raw callables (no structure) are integrated with the open Kronrod rule
  only and their error estimate is inflated by a factor of 10.

Default relative tolerances: 1e-10 for smooth integrands, 1e-7 when an
endpoint substitution is in play.  Constants downstream multiply up to
four such factors, which keeps the end-to-end budget near 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import funcspace as fs
from .errors import BudgetExceeded, DomainError, NonIntegrable

__all__ = [
    "QuadResult",
    "CumulativeTable",
    "RunningIntegral",
    "SupResult",
    "integrate",
    "product_integral",
    "cumulative",
    "sup_on_interval",
    "SMOOTH_TOL",
    "SINGULAR_TOL",
    "DEFAULT_PANEL_BUDGET",
]

SMOOTH_TOL = 1e-10
SINGULAR_TOL = 1e-7
DEFAULT_PANEL_BUDGET = 10_000
_RAW_CALLABLE_INFLATION = 10.0

# Kronrod-15 abscissae (ascending) with embedded Gauss-7 weights.
_NODES = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_WK = np.array(
    [
        0.02293532201052922,
        0.06309209262997855,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
        0.2044329400752989,
        0.1903505780647854,
        0.1690047266392679,
        0.1406532597155259,
        0.1047900103222502,
        0.06309209262997855,
        0.02293532201052922,
    ]
)
_WG = np.zeros(15)
_WG[1::2] = [
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
    0.3818300505051189,
    0.2797053914892767,
    0.1294849661688697,
]


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an error estimate in the same units."""

    value: float
    abs_error_estimate: float
    subdivisions: int

    @property
    def rel_error(self) -> float:
        scale = abs(self.value)
        if scale == 0.0:
            return 0.0 if self.abs_error_estimate == 0.0 else math.inf
        return self.abs_error_estimate / scale


@dataclass(frozen=True)
class SupResult:
    """Location and value of a supremum over the interval."""

    arg: float
    value: float


Integrand = Union["fs.FunctionSpec", Callable[[np.ndarray], np.ndarray]]


def _as_array_fn(f) -> Callable[[np.ndarray], np.ndarray]:
    def wrapped(xs: np.ndarray) -> np.ndarray:
        try:
            out = f(xs)
            out = np.asarray(out, dtype=float)
            if out.shape != xs.shape:
                raise ValueError
            return out
        except (TypeError, ValueError):
            return np.array([float(f(float(x))) for x in xs])

    return wrapped


def _gk_panels(eval_fn, los, his):
    half = 0.5 * (his - los)
    centers = 0.5 * (his + los)
    xs = centers[:, None] + half[:, None] * _NODES[None, :]
    ys = eval_fn(xs.ravel()).reshape(len(los), 15)
    if not np.all(np.isfinite(ys)):
        bad = xs.ravel()[~np.isfinite(ys.ravel())][:1]
        raise DomainError(f"integrand evaluated non-finite near x={bad}")
    vals = half * (ys @ _WK)
    errs = np.abs(vals - half * (ys @ _WG))
    return vals, errs


def _adapt(eval_fn, lo, hi, rel_tol, abs_floor, budget):
    """Globally adaptive bisection on one smooth piece.

    Returns (value, abs_error, panels_used).
    """
    los = np.array([lo], dtype=float)
    his = np.array([hi], dtype=float)
    vals, errs = _gk_panels(eval_fn, los, his)
    used = 1
    while True:
        total = float(vals.sum())
        total_err = float(errs.sum())
        target = max(rel_tol * abs(total), abs_floor)
        if total_err <= target:
            return total, total_err, used
        if used >= budget:
            raise BudgetExceeded(
                f"needed more than {budget} panels for tolerance {rel_tol:g}"
            )
        n = len(los)
        split = errs > target / (2.0 * n)
        if not split.any():
            split[int(np.argmax(errs))] = True
        keep = ~split
        mids = 0.5 * (los[split] + his[split])
        new_los = np.concatenate([los[keep], los[split], mids])
        new_his = np.concatenate([his[keep], mids, his[split]])
        new_vals, new_errs = _gk_panels(eval_fn, np.concatenate([los[split], mids]),
                                        np.concatenate([mids, his[split]]))
        used += 2 * int(split.sum())
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        los, his = new_los, new_his


def _left_substitution(eval_fn, a, c, kappa):
    """Map (a, c) singular piece to a regular piece via x = a + u^m."""
    m = 2.0 / (1.0 + kappa)
    u_hi = (c - a) ** (1.0 / m)

    def transformed(us):
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            xs = a + us**m
            return eval_fn(xs) * m * us ** (m - 1.0)

    return transformed, 0.0, u_hi


def _right_substitution(eval_fn, c, b, kappa):
    m = 2.0 / (1.0 + kappa)
    u_hi = (b - c) ** (1.0 / m)

    def transformed(us):
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            xs = b - us**m
            return eval_fn(xs) * m * us ** (m - 1.0)

    return transformed, 0.0, u_hi


def integrate(
    f: Integrand,
    interval: fs.Interval,
    tol: Optional[float] = None,
    *,
    home: Optional[fs.Interval] = None,
    breakpoints: Optional[Sequence[float]] = None,
    endpoint_exponents: Optional[tuple] = None,
    max_panels: int = DEFAULT_PANEL_BUDGET,
) -> QuadResult:
    """Integrate ``f`` over ``interval`` to a relative tolerance.

    ``f`` is either a function spec (structure drives breakpoint splits and
    singular substitutions) or a vectorized callable.  ``home`` is the
    interval the spec's anchored variants refer to when integrating over a
    sub-range.  ``endpoint_exponents`` overrides the structural (left,
    right) exponent detection; pass it when the caller knows the behaviour
    of a cancelling sum.  Exponents <= -1 raise NonIntegrable.
    """
    a, b = interval.a, interval.b
    home = home or interval

    if isinstance(f, fs.Program):
        eval_fn = f
        structural_breaks: list = []
        kappa_l, kappa_r = 0.0, 0.0
        raw = False
    elif callable(f):
        eval_fn = _as_array_fn(f)
        structural_breaks = []
        kappa_l, kappa_r = 0.0, 0.0
        raw = True
    else:
        eval_fn = fs.compile_program(f, home)
        structural_breaks = fs.breakpoints(f, home)
        kappa_l = fs.endpoint_exponent(f, home, "left")
        kappa_r = fs.endpoint_exponent(f, home, "right")
        raw = False

    if endpoint_exponents is not None:
        kappa_l, kappa_r = endpoint_exponents
    # exponents describe the home endpoints; a strict sub-range is regular
    if a > home.a + 1e-15 * home.width:
        kappa_l = 0.0
    if b < home.b - 1e-15 * home.width:
        kappa_r = 0.0

    if kappa_l <= -1.0:
        raise NonIntegrable(f"left endpoint exponent {kappa_l} <= -1")
    if kappa_r <= -1.0:
        raise NonIntegrable(f"right endpoint exponent {kappa_r} <= -1")
    singular = kappa_l < 0.0 or kappa_r < 0.0

    if tol is None:
        tol = SINGULAR_TOL if singular else SMOOTH_TOL
    if not (1e-14 < tol < 1e-2):
        raise DomainError(f"tolerance {tol} outside accepted range (1e-14, 1e-2)")

    cuts = sorted(
        {float(x) for x in (breakpoints or [])}
        | {float(x) for x in structural_breaks}
    )
    eps = 1e-12 * (b - a)
    cuts = [x for x in cuts if a + eps < x < b - eps]
    edges = [a] + cuts + [b]

    pieces = []  # (eval_fn, lo, hi)
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        left_sing = i == 0 and kappa_l < 0.0
        right_sing = i == len(edges) - 2 and kappa_r < 0.0
        if left_sing and right_sing:
            mid = 0.5 * (lo + hi)
            pieces.append(_left_substitution(eval_fn, lo, mid, kappa_l))
            pieces.append(_right_substitution(eval_fn, mid, hi, kappa_r))
        elif left_sing:
            pieces.append(_left_substitution(eval_fn, lo, hi, kappa_l))
        elif right_sing:
            pieces.append(_right_substitution(eval_fn, lo, hi, kappa_r))
        else:
            pieces.append((eval_fn, lo, hi))

    # rough pass to scale the absolute floor, then refine each piece
    rough = 0.0
    for fn, lo, hi in pieces:
        v, _ = _gk_panels(fn, np.array([lo]), np.array([hi]))
        rough += abs(float(v[0]))
    abs_floor = max(tol * rough, 1e-300) / (2 * len(pieces))

    total = 0.0
    total_err = 0.0
    used_total = 0
    for fn, lo, hi in pieces:
        v, e, used = _adapt(fn, lo, hi, 0.5 * tol, abs_floor, max_panels - used_total)
        total += v
        total_err += e
        used_total += used

    if raw:
        total_err *= _RAW_CALLABLE_INFLATION
    return QuadResult(total, total_err, used_total)


def product_integral(parts, interval: fs.Interval,
                     tol: Optional[float] = None) -> QuadResult:
    """Integral over ``interval`` of the product of w^ex for (w, ex) parts.

    ``w`` is a spec or a callable; None weights and zero exponents are
    skipped.  Spec factors keep their structure: same-anchor power laws
    are merged, endpoint exponents add up and breakpoints carry over to
    the callable factors.
    """
    specs, fns = [], []
    kappa_l = kappa_r = 0.0
    breaks: set = set()
    for w, ex in parts:
        if w is None or ex == 0:
            continue
        if callable(w):
            fns.append((w, ex))
        else:
            sp = fs.power_of(w, ex)
            specs.append(sp)
            kappa_l += fs.endpoint_exponent(sp, interval, "left")
            kappa_r += fs.endpoint_exponent(sp, interval, "right")
            breaks.update(fs.breakpoints(sp, interval))
    specs = fs.merge_product(specs)
    if not fns:
        target = specs[0] if len(specs) == 1 else fs.Product(specs)
        return integrate(target, interval, tol=tol,
                         endpoint_exponents=(kappa_l, kappa_r))
    progs = [fs.compile_program(sp, interval) for sp in specs]

    def fn(xs):
        out = np.ones_like(xs)
        for prog in progs:
            out = out * prog(xs)
        for w, ex in fns:
            vals = np.asarray(w(xs), dtype=float)
            out = out * (vals if ex == 1 else vals**ex)
        return out

    return integrate(fn, interval, tol=tol,
                     endpoint_exponents=(kappa_l, kappa_r),
                     breakpoints=sorted(breaks))


@dataclass(frozen=True)
class CumulativeTable:
    """F(x) = integral of f from a to x, tabulated on a grid.

    When the integrand has a closed antiderivative the table is exact at
    every query point (interpolation_order == -1); otherwise queries
    between knots use a cubic Hermite interpolant with exact slopes f(x).
    """

    grid: np.ndarray
    values: np.ndarray
    interpolation_order: int
    _eval: Callable[[np.ndarray], np.ndarray]
    query_error: float = 0.0

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        return self._eval(xs)

    def value_at(self, x: float) -> float:
        return float(np.asarray(self._eval(np.array([float(x)])))[0])


def cumulative(
    f: Integrand,
    interval: fs.Interval,
    n: int = 64,
    tol: Optional[float] = None,
) -> CumulativeTable:
    """Cumulative integral table of ``f`` with F(a) = 0 exactly."""
    if n < 16:
        raise DomainError("cumulative grid size must be >= 16")
    a, b = interval.a, interval.b
    grid = np.linspace(a, b, n + 1)

    if not callable(f):
        anti = fs.closed_antiderivative(f, interval)
        if anti is not None:
            prog = fs.compile_program(anti, interval)
            values = prog(grid)
            values[0] = 0.0
            return CumulativeTable(grid, values, -1, prog)

    cells = []
    subs = 0
    for lo, hi in zip(grid, grid[1:]):
        res = integrate(
            f,
            fs.Interval(float(lo), float(hi)),
            tol=tol,
            home=interval,
        )
        subs += res.subdivisions
        cells.append(res.value)
    values = np.concatenate([[0.0], np.cumsum(cells)])

    if callable(f):
        slopes_src = _as_array_fn(f)
    else:
        slopes_src = fs.compile_program(f, interval)
    slopes = slopes_src(grid)
    # singular endpoint slopes: replace by one-sided finite differences
    bad = ~np.isfinite(slopes)
    if bad.any():
        approx = np.gradient(values, grid)
        slopes = np.where(bad, approx, slopes)

    from scipy.interpolate import CubicHermiteSpline

    spline = CubicHermiteSpline(grid, values, slopes)

    def eval_fn(xs):
        return spline(np.clip(xs, a, b))

    # audit interpolation error at a few cell midpoints against direct panels
    probe = grid[:-1][:: max(1, n // 8)] + 0.5 * (b - a) / n
    worst = 0.0
    for x in probe:
        direct = integrate(f, fs.Interval(a, float(x)), tol=tol, home=interval)
        worst = max(worst, abs(direct.value - float(spline(x))) + direct.abs_error_estimate)
    return CumulativeTable(grid, values, 3, eval_fn, worst)


class RunningIntegral:
    """F(a, x) (side="head") or F(x, b) (side="tail") of ``f``.

    A closed antiderivative gives an exact spec (rel_error 0); otherwise an
    n-cell cumulative table stands in and its query error is tracked.
    ``integrand`` is what a downstream quadrature should see: the spec
    when there is one (keeping its structure), else this callable.
    """

    def __init__(self, f: Integrand, interval: fs.Interval, side: str,
                 tol: Optional[float] = None, n: int = 128):
        if side not in ("tail", "head"):
            raise DomainError(f"side must be tail|head, got {side}")
        self.side = side
        self.spec = None
        if not callable(f):
            self.spec = (fs.closed_antiderivative(f, interval) if side == "head"
                         else fs.tail_integral_spec(f, interval))
        if self.spec is not None:
            self._fn = fs.compile_program(self.spec, interval)
            self.rel_error = 0.0
            return
        table = cumulative(f, interval, n, tol)
        total = table.value_at(interval.b)
        self._fn = table if side == "head" else (lambda xs: total - table(xs))
        self.rel_error = table.query_error / max(abs(total), 1e-300)

    @property
    def integrand(self):
        return self.spec if self.spec is not None else self

    def __call__(self, xs):
        return self._fn(np.asarray(xs, dtype=float))

    def value_at(self, x: float) -> float:
        return float(np.asarray(self._fn(np.array([float(x)])))[0])


def sup_on_interval(
    g: Integrand,
    interval: fs.Interval,
    *,
    home: Optional[fs.Interval] = None,
    audit_points: int = 1024,
    xtol_factor: float = 1e-10,
) -> SupResult:
    """Supremum of ``g`` over the (open) interval.

    A uniform audit grid lower-bounds the result; the best cell is refined
    by golden-section search to 1e-10 of the interval width.  Specs that
    blow up at an endpoint are evaluated on an inset of 1e-12 * width,
    matching a supremum over the open interval.
    """
    a, b = interval.a, interval.b
    home = home or interval
    if not callable(g):
        kappa_l = fs.endpoint_exponent(g, home, "left")
        kappa_r = fs.endpoint_exponent(g, home, "right")
        eval_fn = fs.compile_program(g, home)
    elif isinstance(g, fs.Program):
        kappa_l = kappa_r = 0.0
        eval_fn = g
    else:
        kappa_l = kappa_r = 0.0
        eval_fn = _as_array_fn(g)

    eps = 1e-12 * (b - a)
    lo = a + eps if kappa_l < 0 else a
    hi = b - eps if kappa_r < 0 else b

    xs = np.linspace(lo, hi, audit_points)
    ys = eval_fn(xs)
    if not np.all(np.isfinite(ys)):
        raise DomainError("supremum target evaluated non-finite on the audit grid")
    i = int(np.argmax(ys))
    best_x, best_y = float(xs[i]), float(ys[i])

    left = float(xs[max(i - 1, 0)])
    right = float(xs[min(i + 1, len(xs) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = right - invphi * (right - left)
    x2 = left + invphi * (right - left)
    f1 = float(np.asarray(eval_fn(np.array([x1])))[0])
    f2 = float(np.asarray(eval_fn(np.array([x2])))[0])
    xtol = xtol_factor * (b - a)
    while right - left > xtol:
        if f1 < f2:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = float(np.asarray(eval_fn(np.array([x2])))[0])
        else:
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = float(np.asarray(eval_fn(np.array([x1])))[0])
    xm = 0.5 * (left + right)
    fm = float(np.asarray(eval_fn(np.array([xm])))[0])
    if fm > best_y:
        best_x, best_y = xm, fm
    return SupResult(best_x, best_y)
