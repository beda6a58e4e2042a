"""Adaptive quadrature with endpoint-singularity handling.

The engine is a global-adaptive Gauss-Kronrod (7, 15) scheme that runs many
integrals at once.  ``integrate_many`` takes a list of jobs, a job being
one integral with the arguments of ``integrate`` (which is the one-job
case of the same loop).  Per job:

* structural breakpoints of a spec seed the initial panels, so piecewise
  polynomials integrate exactly in one pass per piece;
* an endpoint that is not smooth is graded by the substitution
  x = a + u^m (x = b - u^m at the right end).  Where the spec behaves like
  dist^kappa with kappa in (-1, 0), m = 2/(1 + kappa), after which the
  transformed integrand vanishes linearly.  Where it is finite but its
  expansion has a non-integer exponent rho (1 + c x^0.3, say), m is the
  least integer >= 2 with m (1 + rho) - 1 >= 6, so the transformed term
  has six derivatives; an integer m keeps the smooth terms smooth.  Both
  come from the (kappa, rho) the job was planned with: each factor of a
  product is a ``funcspace.Part``, whose program code, structure and
  breakpoints come from one walk of its spec, and ``product_job`` joins
  the parts' code lists by the Product rule.  A sweep makes the parts its
  integrals share once, and ``_prepare`` walks no spec;
* ``endpoint_exponents`` replaces the planned kappa where the structure
  cannot see it: a raw callable (``product_job`` declares its spec
  factors'), and a sum that cancels at the endpoint, whose min rule gives
  the least exponent of its terms (HARDY's (F / (x - a))^p, Boyd's I at
  eta = 0);
* a spec's program evaluates a substituted point at its exact distance
  u^m from the endpoint: x = a + u^m rounds onto a once u^m is below the
  spacing of a, and x - a would then cancel to 0 (a raw callable sees
  only x);
* exponents <= -1 are rejected as divergent before any evaluation;
* raw callables (no structure) are integrated with the open Kronrod rule
  only and their error estimate is inflated by a factor of 10.

``cumulative`` reads a running integral F off one such integration: the
panels keep their node values, and F is the running sum of the panels
plus the exact integral of each panel's degree-14 interpolant, a spec in
the graded form of ``funcspace.PiecewisePolynomial``.

Each piece of a job keeps its own panel tree, stop rule and share of the
job's panel budget, exactly as when the job runs alone.  The loop refines
the pieces of all jobs in rounds, and in each round the new panels of all
pieces that share an integrand are evaluated in one kernel call.  Jobs
whose code has the same opcode skeleton share one batched program, built
once per group with one parameter row per job (``funcspace.stacked``).
A job gets the same bits in any batch: the kernel gives a row the bits of
its one-row program, and the panel rule reduces every panel on its own (a
BLAS gemv would not: its result for a row changes with the number of
rows).

Default relative tolerances: 1e-7 when an endpoint exponent is negative,
else 1e-10 (a graded finite endpoint keeps 1e-10).  Constants downstream
multiply up to four such factors, which keeps the end-to-end budget near
1e-6.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.polynomial import chebyshev

from . import funcspace as fs
from .errors import BudgetExceeded, DomainError, HopialError, NonIntegrable

__all__ = [
    "QuadResult",
    "Job",
    "integrate_many",
    "integrate_job",
    "product_job",
    "RunningIntegral",
    "running_integrals",
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
_ROUNDING = 16.0 * np.finfo(float).eps

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


def _interpolant_integrals(nodes):
    """Chebyshev series, one column per node, of the integrals from -1 of
    the Lagrange polynomials of ``nodes`` on [-1, 1]."""
    n = len(nodes)
    return chebyshev.chebint(np.linalg.solve(chebyshev.chebvander(nodes, n - 1), np.eye(n)),
                             lbnd=-1)


# the integral from -1 of a panel's degree-14 interpolant is t R(xi), with
# t = (xi + 1) / 2 and R = h _SEGMENT y in Chebyshev polynomials (half width
# h, node values y); monomials would lose about two digits to cancellation
_INTEGRALS = _interpolant_integrals(_NODES)
_SEGMENT = np.array([chebyshev.chebdiv(col, [0.5, 0.5])[0] for col in _INTEGRALS.T]).T
_SEGMENT_NORM = np.abs(_SEGMENT).sum()
# the gap between the integrals from -1 of the degree-14 (Kronrod) and
# degree-6 (Gauss) interpolants, on 33 Chebyshev points of a panel
_GRID = np.cos(np.pi * np.arange(33) / 32)
_GAP = chebyshev.chebval(_GRID, _INTEGRALS).T
_GAP[:, 1::2] -= chebyshev.chebval(_GRID, _interpolant_integrals(_NODES[1::2])).T


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

    def raised(self, outer: float, f_power: float = 0.0,
               f_rel: float = 0.0) -> "QuadResult":
        """The displayed side (this integral)^outer.  Where the integrand
        carries a running integral F with relative error f_rel, and F
        enters the side to the power f_power, the side's relative error is
        outer * rel + f_power * f_rel (first order)."""
        if self.value < 0 and outer != 1.0:
            raise HopialError("negative core under an outer power")
        value = self.value**outer
        rel = outer * self.rel_error + f_power * f_rel
        return QuadResult(value, rel * abs(value), self.subdivisions)


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


_REGULAR = ((0.0, math.inf), (0.0, math.inf))  # (kappa, rho) at each end


@dataclass(frozen=True)
class Job:
    """One integral for ``integrate_many``: the arguments of ``integrate``,
    planned.  A spec ``f`` is planned where the job is made (unless
    ``product_job`` planned it from its factors' parts): the job carries
    its program ``code`` (the lists of a ``funcspace.Part``), its (kappa,
    rho) at the left and right ends of ``home`` (``ends``) and its
    breakpoints, merged with any given.  A raw callable has no code,
    regular ends and the given breakpoints."""

    f: Integrand
    interval: fs.Interval
    tol: Optional[float] = None
    home: Optional[fs.Interval] = None
    breakpoints: Sequence[float] = ()
    endpoint_exponents: Optional[tuple] = None
    max_panels: int = DEFAULT_PANEL_BUDGET
    code: Optional[tuple] = None
    ends: tuple = _REGULAR

    def __post_init__(self):
        if self.code is not None:  # planned by product_job
            return
        breaks = {float(x) for x in self.breakpoints or ()}
        if not callable(self.f):
            part = fs.Part(self.f, self.home or self.interval)
            object.__setattr__(self, "code", part.code)
            object.__setattr__(self, "ends", part.ends)
            breaks.update(part.breaks)
        object.__setattr__(self, "breakpoints", sorted(breaks))


class _Run:
    """A validated job: its integrand, stop rule, pieces and the (kappa,
    rho) it found at each end."""

    __slots__ = ("target", "tol", "raw", "max_panels", "abs_floor", "pieces", "ends")

    def __init__(self, target, tol, raw, max_panels, ends):
        self.target = target
        self.tol = tol
        self.raw = raw
        self.max_panels = max_panels
        self.abs_floor = 0.0
        self.pieces = []
        self.ends = ends


class _Piece:
    """One smooth piece of a run with its own panel tree.

    ``span`` is the piece's (lo, hi) in x.  ``sub`` is None, or
    (sign, anchor, m) for the substitution x = anchor + sign * u^m that
    removes an endpoint singularity; the panels are in the piece's own
    variable.  They are Python lists, kept in the order a bisection keeps
    them: the unsplit panels, then the left halves, then the right halves.
    A running integral's pieces keep each panel's 15 node values in
    ``nodes``.  ``last_split`` is the panel count at the last split
    decision, which the budget check looks at.
    """

    __slots__ = ("span", "sub", "group", "row", "los", "his", "vals", "errs", "nodes",
                 "keep", "used", "last_split", "total", "total_err", "error")

    def __init__(self, span, sub, lo, hi):
        self.span, self.sub = span, sub
        self.group = self.row = None
        self.los, self.his = [lo], [hi]
        self.vals = self.errs = self.nodes = self.keep = self.total = self.total_err = None
        self.used = 1
        self.last_split = -1
        self.error = None


def _panel_rule(ys, half):
    """Kronrod-15 values and |K15 - G7| errors, one row per panel.  A
    panel's error is at least 16 eps half sum |w_k y_k|, the rounding of
    its weighted sum, which |K15 - G7| misses where the two rules round
    alike.  The weighted sums reduce each row on its own (BLAS gemv does
    not: a row's result changes with the number of rows), so a panel gets
    the same bits alone as in a batch."""
    terms = ys * _WK
    vals = half * terms.sum(axis=1)
    gaps = np.abs(vals - half * (ys * _WG).sum(axis=1))
    return vals, np.maximum(gaps, _ROUNDING * half * np.abs(terms).sum(axis=1))


def _running_rule(ys, half):
    """``_panel_rule`` for a running integral: a panel's error is the
    largest gap between the integrals of its degree-14 and degree-6
    interpolants from its left end (|K15 - G7| at its right end)."""
    vals, errs = _panel_rule(ys, half)
    gaps = np.abs((ys[:, None, :] * _GAP).sum(axis=2)).max(axis=1) * half
    return vals, np.maximum(errs, gaps)


def _sum(xs, lo=0, n=None):
    """sum(xs[lo:lo + n]) in the order of ndarray.sum, bit for bit: numpy's
    pairwise summation (left to right below 8 terms, 8 running sums up to
    128, halves above)."""
    if n is None:
        n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs[lo : lo + n]:
            total += x
        return total
    if n <= 128:
        r = xs[lo : lo + 8]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += xs[lo + i + j]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[lo + i : lo + n]:
            total += x
        return total
    half = n // 2 - (n // 2) % 8
    return _sum(xs, lo, half) + _sum(xs, lo + half, n - half)


def _grading(kappa, rho):
    """The power m of the endpoint substitution x = a + u^m for an endpoint
    of exponents (kappa, rho), or None for a smooth endpoint (the rule is
    in the module docstring)."""
    if -1.0 < kappa < 0.0:
        return 2.0 / (1.0 + kappa)
    if not (0.0 <= kappa < math.inf and rho < math.inf):
        return None
    # a caller's kappa above the structural one (a cancelling sum) can
    # leave rho below kappa, even <= -1; no term lies below kappa
    rho = max(rho, kappa)
    m = 2
    while m * (1.0 + rho) - 1.0 < 6.0:
        m += 1
    return float(m)


def _graded(lo, hi, sign, m):
    """The piece (lo, hi) in u, with x = lo + u^m (sign 1) or hi - u^m."""
    return _Piece((lo, hi), (sign, lo if sign > 0 else hi, m), 0.0, (hi - lo) ** (1.0 / m))


def _prepare(job: Job) -> _Run:
    """Validate a planned job and cut it into pieces (endpoint
    substitutions and breakpoint splits).  It walks no spec: the code,
    breakpoints and (kappa, rho) come with the job."""
    a, b = job.interval.a, job.interval.b
    home = job.home or job.interval
    raw = job.code is None
    target = job.f if raw else job.code

    # the endpoint structure describes the home endpoints, so it is only
    # looked at where the job touches one; a strict sub-range is regular
    slack = 1e-15 * home.width
    ends = []
    for k, (side, touches) in enumerate((("left", a <= home.a + slack),
                                         ("right", b >= home.b - slack))):
        kappa, rho = job.ends[k] if touches else (0.0, math.inf)
        if touches and job.endpoint_exponents is not None:
            kappa = job.endpoint_exponents[k]
        if kappa <= -1.0:
            raise NonIntegrable(f"{side} endpoint exponent {kappa} <= -1")
        ends.append((kappa, rho))

    tol = job.tol
    if tol is None:
        tol = SINGULAR_TOL if ends[0][0] < 0.0 or ends[1][0] < 0.0 else SMOOTH_TOL
    if not (1e-14 < tol < 1e-2):
        raise DomainError(f"tolerance {tol} outside accepted range (1e-14, 1e-2)")

    eps = 1e-12 * (b - a)
    edges = [a] + [x for x in job.breakpoints if a + eps < x < b - eps] + [b]
    run = _Run(target, tol, raw, job.max_panels, ends)
    m_l, m_r = _grading(*ends[0]), _grading(*ends[1])
    last = len(edges) - 2
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        m_lo = m_l if i == 0 else None
        m_hi = m_r if i == last else None
        if m_lo is not None and m_hi is not None:
            mid = 0.5 * (lo + hi)
            run.pieces += [_graded(lo, mid, 1, m_lo), _graded(mid, hi, -1, m_hi)]
        elif m_lo is not None:
            run.pieces.append(_graded(lo, hi, 1, m_lo))
        elif m_hi is not None:
            run.pieces.append(_graded(lo, hi, -1, m_hi))
        else:
            run.pieces.append(_Piece((lo, hi), None, lo, hi))
    return run


def _assign_groups(runs) -> list:
    """Give every piece its group and parameter row; returns the groups'
    integrands as (fn, batched) pairs.

    The codes that share a skeleton make one program, built once per
    group with a parameter row per code (``funcspace.stacked``), whose
    ``fn(xs, rows, offsets)`` takes a parameter row and an exact endpoint
    offset per point; a raw callable is a group of its own and sees only
    xs.
    """
    fns: list = []
    of: dict = {}
    by_skeleton: dict = {}
    for run in runs:
        f = run.target
        if not run.raw:
            by_skeleton.setdefault(fs.skeleton(f), {})[id(f)] = f
        elif id(f) not in of:
            fn = _as_array_fn(f)
            of[id(f)] = (len(fns), None)
            fns.append((lambda xs, rows, offsets, fn=fn: fn(xs), False))
    for codes in by_skeleton.values():
        for row, key in enumerate(codes):
            of[key] = (len(fns), row)
        fns.append((fs.stacked(list(codes.values())), len(codes) > 1))
    for run in runs:
        group, row = of[id(run.target)]
        for pc in run.pieces:
            pc.group, pc.row = group, row
    return fns


def _group_values(fn, batched, pieces, counts, us):
    """The integrand of one group at nodes ``us`` (one row of 15 per panel;
    ``counts[i]`` rows belong to ``pieces[i]``), with each piece's
    substitution and its Jacobian applied."""
    subs = list(dict.fromkeys(pc.sub for pc in pieces))
    if subs == [None]:
        masks = []
    elif len(subs) == 1:
        masks = [(subs[0], slice(None))]
    else:
        which = np.repeat([subs.index(pc.sub) for pc in pieces], counts)
        masks = [(sub, which == k) for k, sub in enumerate(subs) if sub is not None]
    xs, offsets = us, None
    if masks:
        # x = anchor + d exactly; the kernel reads d where x - anchor
        # would round
        xs = us.copy()
        anchors = np.full(us.shape, np.nan)
        ds = np.zeros(us.shape)
        for (sign, anchor, m), mask in masks:
            d = sign * us[mask] ** m
            xs[mask] = anchor + d
            ds[mask] = d
            anchors[mask] = anchor
        offsets = (anchors.ravel(), ds.ravel())
    rows = None
    if batched:
        rows = np.repeat([pc.row for pc in pieces], np.multiply(counts, 15))
    ys = fn(xs.ravel(), rows, offsets).reshape(us.shape)
    for (sign, anchor, m), mask in masks:
        ys[mask] = ys[mask] * m * us[mask] ** (m - 1.0)
    return ys


def _evaluate(fns, requests, rule=None):
    """Evaluate (piece, los, his) panel requests, one kernel call per group.

    Returns per request the lists of panel values and errors of ``rule``
    (default ``_panel_rule``) and the node values, a row per panel; or the
    DomainError of a request whose integrand is non-finite at a node.
    """
    counts = [len(req[1]) for req in requests]
    lo = np.array([x for req in requests for x in req[1]])
    hi = np.array([x for req in requests for x in req[2]])
    half = 0.5 * (hi - lo)
    us = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES[None, :]
    by_group: dict = {}
    for i, req in enumerate(requests):
        by_group.setdefault(req[0].group, []).append(i)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        if len(by_group) == 1:
            ys = _group_values(*fns[requests[0][0].group],
                               [req[0] for req in requests], counts, us)
        else:
            ys = np.empty(us.shape)
            slot = {g: k for k, g in enumerate(by_group)}
            owner = np.repeat([slot[req[0].group] for req in requests], counts)
            for k, (g, idx) in enumerate(by_group.items()):
                sel = np.flatnonzero(owner == k)
                ys[sel] = _group_values(*fns[g], [requests[i][0] for i in idx],
                                        [counts[i] for i in idx], us[sel])
        vals, errs = (rule or _panel_rule)(ys, half)
    vals, errs = vals.tolist(), errs.tolist()
    finite = np.isfinite(ys)
    ok = [True] * len(lo) if finite.all() else finite.all(axis=1).tolist()
    out = []
    stop = 0
    for n in counts:
        start, stop = stop, stop + n
        if all(ok[start:stop]):
            out.append((vals[start:stop], errs[start:stop], ys[start:stop]))
            continue
        bad = us[start:stop].ravel()[~finite[start:stop].ravel()][:1]
        sub = requests[len(out)][0].sub
        if sub is not None:  # the node is u, at x = anchor + sign u^m
            bad = sub[1] + sub[0] * bad ** sub[2]
        out.append(DomainError(f"integrand evaluated non-finite near x={bad}"))
    return out


def _step(run, pc, before):
    """One round of piece ``pc`` of ``run``, whose earlier pieces hold
    ``before`` panels: stop, or split its worst panels and return the
    request for the new halves."""
    rel_tol = 0.5 * run.tol
    total = _sum(pc.vals)
    total_err = _sum(pc.errs)
    target = max(rel_tol * abs(total), run.abs_floor)
    if total_err <= target:
        pc.total, pc.total_err = total, total_err
        return None
    pc.last_split = pc.used
    if pc.used >= run.max_panels - before:
        # at the budget a lone run would give it: the run fails here or at
        # an earlier piece, so the piece stops (_result words the error)
        pc.error = BudgetExceeded()
        return None
    errs = pc.errs
    share = target / (2.0 * len(errs))
    split = [e > share for e in errs]
    if not any(split):
        split[errs.index(max(errs))] = True
    los = [lo for lo, s in zip(pc.los, split) if s]
    his = [hi for hi, s in zip(pc.his, split) if s]
    mids = [0.5 * (lo + hi) for lo, hi in zip(los, his)]
    pc.keep = [not s for s in split]
    pc.los = [lo for lo, k in zip(pc.los, pc.keep) if k] + los + mids
    pc.his = [hi for hi, k in zip(pc.his, pc.keep) if k] + mids + his
    pc.used += 2 * len(los)
    return pc, los + mids, mids + his


def _result(run):
    """The run's QuadResult, or the error it raises alone: its pieces in
    order, each with the budget the earlier pieces left."""
    total = total_err = 0.0
    used = 0
    for pc in run.pieces:
        budget = run.max_panels - used
        if pc.last_split >= budget:
            return BudgetExceeded(f"needed more than {budget} panels "
                                  f"for tolerance {0.5 * run.tol:g}")
        if pc.error is not None:
            return pc.error
        total += pc.total
        total_err += pc.total_err
        used += pc.used
    if run.raw:
        total_err *= _RAW_CALLABLE_INFLATION
    return QuadResult(total, total_err, used)


def integrate_many(jobs: Sequence[Job]) -> list:
    """Integrate every job; returns one QuadResult or HopialError per job.

    One adaptive loop runs all jobs at once, and a job gets the same
    result, bit for bit, as alone (see the module docstring).  A job that
    fails does not stop the others.
    """
    return _integrate(jobs)[0]


def _integrate(jobs, rule=None):
    """``integrate_many``'s results and runs; with a ``rule`` the panels are
    judged by it and every piece keeps its panels' node values."""
    results: list = [None] * len(jobs)
    runs = {}
    for i, job in enumerate(jobs):
        try:
            runs[i] = _prepare(job)
        except HopialError as exc:
            results[i] = exc
    fns = _assign_groups(runs.values())

    # round 0: the first panel of every piece, which also scales the
    # absolute floor of its run; a failure there ends the run
    pieces = [pc for run in runs.values() for pc in run.pieces]
    for pc, res in zip(pieces, _evaluate(fns, [(pc, pc.los, pc.his) for pc in pieces], rule)
                       if pieces else ()):
        if isinstance(res, HopialError):
            pc.error = res
        else:
            pc.vals, pc.errs, pc.nodes = res
    live = []
    for i, run in runs.items():
        failed = [pc.error for pc in run.pieces if pc.error is not None]
        if failed:
            results[i] = failed[0]
            continue
        rough = 0.0
        for pc in run.pieces:
            rough += abs(pc.vals[0])
        run.abs_floor = max(run.tol * rough, 1e-300) / (2 * len(run.pieces))
        live.append(run)

    while live:
        requests = []
        still = []
        for run in live:
            before = 0
            for pc in run.pieces:
                if pc.error is not None:
                    break  # later pieces cannot change the run's result
                if pc.total is None:
                    req = _step(run, pc, before)
                    if req is not None:
                        requests.append(req)
                        if not still or still[-1] is not run:
                            still.append(run)
                    elif pc.error is not None:
                        break
                before += pc.used
        live = still
        if requests:
            for (pc, _, _), res in zip(requests, _evaluate(fns, requests, rule)):
                if isinstance(res, HopialError):
                    pc.error = res
                else:
                    keep = pc.keep
                    pc.vals = [v for v, k in zip(pc.vals, keep) if k] + res[0]
                    pc.errs = [e for e, k in zip(pc.errs, keep) if k] + res[1]
                    if rule is not None:
                        pc.nodes = np.concatenate([pc.nodes[keep], res[2]])

    for i, run in runs.items():
        if results[i] is None:
            results[i] = _result(run)
    return results, runs


def integrate_job(job: Job) -> QuadResult:
    """``integrate_many`` of one job; its error is raised."""
    res = integrate_many([job])[0]
    if isinstance(res, HopialError):
        raise res
    return res


def integrate(
    f: Integrand,
    interval: fs.Interval,
    tol: Optional[float] = None,
    *,
    home: Optional[fs.Interval] = None,
    endpoint_exponents: Optional[tuple] = None,
    max_panels: int = DEFAULT_PANEL_BUDGET,
) -> QuadResult:
    """Integrate ``f`` over ``interval`` to a relative tolerance.

    ``f`` is either a function spec (structure drives breakpoint splits and
    singular substitutions) or a vectorized callable.  ``home`` is the
    interval the spec's anchored variants refer to when integrating over a
    sub-range.  ``endpoint_exponents`` replaces the (left, right) kappa of
    the structural walk, for a caller that knows what the walk cannot see:
    the exponents of a raw callable, or of a cancelling sum, whose min rule
    gives the smallest exponent of its terms where the sum vanishes to a
    higher order.  The non-integer exponents that grade a finite endpoint
    still come from the spec's structure.  Exponents <= -1 raise
    NonIntegrable.
    """
    return integrate_job(Job(f, interval, tol, home, None, endpoint_exponents, max_panels))


def product_job(factors, interval: fs.Interval, tol: Optional[float] = None) -> Job:
    """The job of ``product_integral``, planned from factor parts.

    A factor is an ``fs.Part`` (planned once by a caller that shares it
    between jobs) or a (w, ex) pair.  Same-anchor power laws and
    exponentials fold (``fs.merge_product``); a part whose factor survives
    the fold keeps its code, structure and breakpoints, and every other
    factor is walked here, straight into the job's code (``fs.product``).
    Where a factor is a raw callable the job is a callable, with the spec
    factors' breakpoints and kappas declared."""
    specs, fns, parts = [], [], {}
    for factor in factors:
        if isinstance(factor, fs.Part):
            specs.append(factor.spec)
            parts[id(factor.spec)] = factor
            continue
        w, ex = factor
        if w is None or ex == 0:
            continue
        if callable(w):
            fns.append((w, ex))
        else:
            specs.append(fs.power_of(w, ex))
    specs = fs.merge_product(specs)
    code, ends, breaks = fs.product([parts.get(id(sp), sp) for sp in specs], interval)
    if not fns:
        return Job(specs[0] if len(specs) == 1 else fs.Product(specs), interval, tol,
                   breakpoints=breaks, code=code, ends=ends)
    prog = fs.Program(*code)

    def fn(xs):
        out = prog(xs)
        for w, ex in fns:
            vals = np.asarray(w(xs), dtype=float)
            out = out * (vals if ex == 1 else vals**ex)
        return out

    # the callable hides the spec factors' structure from _prepare
    return Job(fn, interval, tol, breakpoints=breaks,
               endpoint_exponents=tuple(kappa for kappa, _ in ends))


def product_integral(parts, interval: fs.Interval,
                     tol: Optional[float] = None) -> QuadResult:
    """Integral over ``interval`` of the product of w^ex for (w, ex) parts.

    ``w`` is a spec or a callable; None weights and zero exponents are
    skipped.  Spec factors keep their structure: same-anchor power laws
    are merged, endpoint exponents add up and breakpoints carry over to
    the callable factors.
    """
    return integrate_job(product_job(parts, interval, tol))


def cumulative(f: Integrand, interval: fs.Interval, side: str = "head",
               tol: Optional[float] = None) -> tuple:
    """(F, total): F the graded ``PiecewisePolynomial`` of the integral of f
    over (a, x) (side="head") or (x, b) ("tail"), total the QuadResult of
    F(a, b), whose error bounds |F(x) - exact| at every x.

    One adaptive integration, whose panels are judged by ``_running_rule``
    and keep their node values.  On a panel, F is the sum of the whole
    panels nearer F's anchor plus the exact integral of the panel's
    degree-14 interpolant (Greengard, SIAM J. Numer. Anal. 28, 1991;
    Chebfun's cumsum).  Every segment starts at its end nearer the anchor,
    so F is 0 there exactly.  The error adds the panel errors and the
    rounding of the running sum, the coefficients and Clenshaw's rule.
    """
    results, runs = _integrate([Job(f, interval, tol)], _running_rule)
    if isinstance(results[0], HopialError):
        raise results[0]
    head = side == "head"
    pieces = []
    for pc in runs[0].pieces:
        k = np.argsort(pc.los)
        los, his, nodes = np.array(pc.los)[k], np.array(pc.his)[k], pc.nodes[k]
        vals, half = np.array(pc.vals)[k], 0.5 * (his - los)
        sign, anchor, m = pc.sub or ((1.0, pc.span[0], 1.0) if head else (-1.0, pc.span[1], 1.0))
        if pc.sub is None:  # v = sign (x - anchor), against the panels' x in a tail
            los, his = sign * (los - anchor), sign * (his - anchor)
            if sign < 0:
                los, his, nodes, vals, half = (his[::-1], los[::-1], nodes[::-1, ::-1],
                                               vals[::-1], half[::-1])
        start = int((sign > 0) != head)
        pieces.append(((anchor, sign, m, start, [*los, his[-1]]),
                       nodes[:, ::-1] if start else nodes, vals, half))
    # F at the panel edges in x order, 0 at the anchored end
    in_x = [v for (_, sign, *_), _, vals, _ in pieces for v in vals[:: int(sign)]]
    edges = list(itertools.accumulate([0.0] + (in_x if head else in_x[::-1])))
    edges = edges if head else edges[::-1]
    rows, worst, i = [], 0.0, 0 if head else 1
    for (anchor, sign, m, _, vb), nodes, vals, half in pieces:
        near = [edges[i + (j if sign > 0 else len(vals) - 1 - j)] for j in range(len(vals))]
        i += len(vals)
        coef = half[:, None] * (nodes[:, None, :] * _SEGMENT).sum(axis=2)
        rows += [[c0, *row] for c0, row in zip(near, coef.tolist())]
        # Clenshaw in |s| <= 1, the coefficients and v = (sign (x - anchor))^(1/m)
        reach = 16.0 * _SEGMENT_NORM * half + 4.0 * (vb[-1] + (abs(anchor) if m == 1 else 0.0))
        worst = max(worst, float(np.max(512.0 * (np.abs(near) + np.abs(coef).sum(axis=1))
                                        + np.abs(nodes).max(axis=1) * reach)))
    rounding = np.finfo(float).eps * (worst + len(in_x) * float(np.abs(in_x).sum()))
    # one order more than f at each end; the total at the far end
    ends = [(kappa + 1.0, rho + 1.0) for kappa, rho in runs[0].ends]
    total = edges[-1] if head else edges[0]
    if total:
        ends[head] = (0.0, ends[head][1])
    spec = fs.PiecewisePolynomial([pc.span[0] for pc in runs[0].pieces] + [interval.b],
                                  rows, [frame for frame, *_ in pieces], ends)
    return spec, QuadResult(total, results[0].abs_error_estimate + rounding, len(in_x))


def running_integrals(fns: Sequence[Integrand], interval: fs.Interval, side: str,
                      tol: Optional[float] = None) -> list:
    """The (spec, rel_error) of ``RunningIntegral`` for every f, or the
    HopialError it raises alone.  The totals of the closed-form tails come
    from one stacked kernel call (``fs.tail_integral_specs``)."""
    if side not in ("tail", "head"):
        raise DomainError(f"side must be tail|head, got {side}")
    out: list = [None] * len(fns)
    antis: list = [None] * len(fns)
    for i, f in enumerate(fns):
        if not callable(f):
            try:
                antis[i] = fs.closed_antiderivative(f, interval)
            except HopialError as exc:
                out[i] = exc
    if side == "tail":
        antis = fs.tail_integral_specs(antis, interval)
    for i, f in enumerate(fns):
        if out[i] is not None:
            continue
        if antis[i] is not None:
            out[i] = (antis[i], 0.0)
            continue
        try:
            spec, total = cumulative(f, interval, side, tol)
            out[i] = (spec, total.rel_error)
        except HopialError as exc:
            out[i] = exc
    return out


class RunningIntegral:
    """F(a, x) (side="head") or F(x, b) (side="tail") of ``f``, as ``spec``:
    a closed antiderivative (rel_error 0), else ``cumulative``'s panel tree,
    with rel_error bounding its error at every x relative to F(a, b).  The
    one-f case of ``running_integrals``."""

    def __init__(self, f: Integrand, interval: fs.Interval, side: str,
                 tol: Optional[float] = None):
        (res,) = running_integrals([f], interval, side, tol)
        if isinstance(res, HopialError):
            raise res
        self.interval = interval
        self.spec, self.rel_error = res

    def __call__(self, xs):
        # compiled on first use: a sweep only integrates the spec
        return fs.compile_program(self.spec, self.interval)(np.asarray(xs, dtype=float))

    def value_at(self, x: float) -> float:
        return float(self(np.array([float(x)]))[0])


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
        kappa_l = fs.endpoint_structure(g, home, "left")[0]
        kappa_r = fs.endpoint_structure(g, home, "right")[0]
        eval_fn = fs.compile_program(g, home)
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
