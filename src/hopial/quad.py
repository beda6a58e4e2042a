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
  product is a ``funcspace.Part`` (one walk of its spec), and
  ``product_job`` joins the parts' code by the Product rule.  A job can
  be a template plan for a group of integrals of one structure, its code
  holding a parameter row per member; ``_prepare`` walks no spec;
* ``endpoint_exponents`` replaces the planned kappa where the structure
  cannot see it: a sum that cancels at the endpoint, whose min rule gives
  the least exponent of its terms (HARDY's (F / (x - a))^p, Boyd's I at
  eta = 0);
* a spec's program evaluates a substituted point at its exact distance
  u^m from the endpoint: x = a + u^m rounds onto a once u^m is below the
  spacing of a, and x - a would then cancel to 0;
* exponents <= -1 are rejected as divergent before any evaluation.

Every integrand is a ``funcspace`` spec; anything else raises
InvalidSpec where its job is made.

``cumulative`` reads a running integral F off one such integration: the
panels keep their node values, and F is the running sum of the panels
plus the exact integral of each panel's degree-14 interpolant, a spec in
the graded form of ``funcspace.PiecewisePolynomial``.

Each piece of a job keeps its own panels, stop rule and share of the
job's panel budget, exactly as when the job runs alone.  The loop refines
the pieces of all jobs in rounds (after Shampine, "Vectorized adaptive
quadrature in MATLAB", J. Comput. Appl. Math. 211, 2008): the pieces and
their panels are rows of two flat arrays, each piece's panels consecutive
in the order a bisection keeps them, and the stop rule, the split choice,
the budget and the new halves are array operations over all pieces of
all jobs (a round over a few live pieces takes them in Python, where
numpy's fixed cost per call would outweigh the work).  A piece's total
is ``np.sum`` of its panels, whatever the batch: the pieces with one
panel count are summed as the rows of one C-contiguous block.  In each
round the new panels of all pieces of a job are evaluated in one kernel
call, on the job's program, built once from its rows.  An integral gets
the same bits in any batch and in any group: the kernel gives a row the
bits of its one-row program, and the panel rule reduces every panel on
its own (a BLAS gemv would not: its result for a row changes with the
number of rows).

Default relative tolerances: 1e-7 when an endpoint exponent is negative,
else 1e-10 (a graded finite endpoint keeps 1e-10).  Constants downstream
multiply up to four such factors, which keeps the end-to-end budget near
1e-6.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
        value = fs.float_power(self.value, outer)
        rel = outer * self.rel_error + f_power * f_rel
        return QuadResult(value, rel * abs(value), self.subdivisions)


@dataclass(frozen=True)
class SupResult:
    """Location and value of a supremum over the interval."""

    arg: float
    value: float


@dataclass(frozen=True)
class Job:
    """One integral for ``integrate_many``: the arguments of ``integrate``,
    planned.  The spec ``f`` is planned where the job is made (unless
    ``product_job`` planned it from its factors' parts): the job carries
    its program ``code`` (the lists of a ``funcspace.Part``), its (kappa,
    rho) at the left and right ends of ``home`` (``ends``) and its
    breakpoints, merged with any given.  A template plan (the job of a
    group's part) is the integrals of the group's members: f, code and
    breakpoints are its first member's, but fargs and data hold a row per
    member and ``rows`` holds each one's breakpoints; they share the
    rest."""

    f: fs.FunctionSpec
    interval: fs.Interval
    tol: Optional[float] = None
    home: Optional[fs.Interval] = None
    breakpoints: Sequence[float] = ()
    endpoint_exponents: Optional[tuple] = None
    max_panels: int = DEFAULT_PANEL_BUDGET
    code: Optional[tuple] = None
    ends: Optional[tuple] = None
    rows: Optional[Sequence] = None

    def __post_init__(self):
        if self.code is not None:  # planned by product_job
            return
        part = fs.Part(self.f, self.home or self.interval)
        object.__setattr__(self, "code", part.code)
        object.__setattr__(self, "ends", part.ends)
        breaks = {float(x) for x in self.breakpoints or ()}
        object.__setattr__(self, "breakpoints", sorted(breaks.union(part.breaks)))


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


def _piece_sums(xs, count):
    """Per piece, the sum of its ``count`` consecutive entries of ``xs``
    (along the last axis) with the bits of ``np.sum`` (pairwise
    summation).  The pieces with the same count are gathered into one
    C-contiguous block and summed along its rows, which runs numpy's
    pairwise loop on each row; ``np.add.reduceat``, or the rows of a
    strided block, add in other orders."""
    counts = [xs.shape[-1]] if len(count) == 1 else np.flatnonzero(np.bincount(count)).tolist()
    if len(counts) == 1:  # the pieces' entries tile xs
        return np.ascontiguousarray(xs.reshape(xs.shape[:-1] + (-1, counts[0]))).sum(axis=-1)
    start = count.cumsum() - count
    out = np.empty(xs.shape[:-1] + count.shape)
    for n in counts:
        at = np.flatnonzero(count == n)
        out[..., at] = np.ascontiguousarray(xs[..., start[at, None] + np.arange(n)]).sum(axis=-1)
    return out


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


_CUT = 10  # a cut of _prepare: a panel row's first eight columns, then the span


def _prepare(job: Job, cuts: list) -> tuple:
    """Validate a planned job and cut each of its members into pieces
    (endpoint substitutions and breakpoint splits).  It walks no spec: the
    code, breakpoints and (kappa, rho) come with the job, and a group's
    members differ only in their breakpoints.

    Appends a row per piece to the flat list ``cuts``: the first eight
    columns of the row of its first panel in ``_integrate`` (its ends in
    the piece's own variable, the piece's index in ``cuts`` and its
    substitution x = anchor + sign u^m; sign 0, anchor nan and m 1 for
    none), then the piece's span (lo, hi) in x.  Returns the job's plan:
    (code, tol, max_panels, the (kappa, rho) at each end, each member's
    number of pieces)."""
    a, b = job.interval.a, job.interval.b
    home = job.home or job.interval

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
    m_l, m_r = _grading(*ends[0]), _grading(*ends[1])
    counts = []
    for breaks in job.rows or (job.breakpoints,):
        edges = [a] + [x for x in breaks if a + eps < x < b - eps] + [b]
        before = len(cuts)
        last = len(edges) - 2
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            m_lo = m_l if i == 0 else None
            m_hi = m_r if i == last else None
            p = len(cuts) // _CUT
            if m_lo is not None and m_hi is not None:
                mid = 0.5 * (lo + hi)
                cuts += (0.0, (mid - lo) ** (1.0 / m_lo), 0.0, 0.0, p, 1.0, lo, m_lo, lo, mid,
                         0.0, (hi - mid) ** (1.0 / m_hi), 0.0, 0.0, p + 1, -1.0, hi, m_hi, mid,
                         hi)
            elif m_lo is not None:
                cuts += (0.0, (hi - lo) ** (1.0 / m_lo), 0.0, 0.0, p, 1.0, lo, m_lo, lo, hi)
            elif m_hi is not None:
                cuts += (0.0, (hi - lo) ** (1.0 / m_hi), 0.0, 0.0, p, -1.0, hi, m_hi, lo, hi)
            else:
                cuts += (lo, hi, 0.0, 0.0, p, 0.0, math.nan, 1.0, lo, hi)
        counts.append((len(cuts) - before) // _CUT)
    return job.code, tol, job.max_panels, ends, counts


def _group_values(prog, m_values, panels, us):
    """The integrand of one group, its job's program ``prog`` (a parameter
    row per member), at nodes ``us`` (one row of 15 per row of
    ``panels``), with each panel's substitution and its Jacobian
    applied."""
    sign = panels[:, _SIGN]
    graded = sign != 0.0
    subs = np.count_nonzero(graded)
    xs, offsets = us, None
    if subs:
        # x = anchor + d exactly; the kernel reads d where x - anchor
        # would round.  numpy's x ** m takes fast paths for some scalar m
        # (2.0 squares) that an array of exponents does not: the powers
        # are taken per distinct m
        ms = [m for m in m_values if m != 1.0]
        if len(ms) == 1:
            power, jacobian = us ** ms[0], us ** (ms[0] - 1.0)
        else:
            code = panels[:, _M_CODE]
            power, jacobian = np.zeros(us.shape), np.ones(us.shape)
            for c, m in enumerate(m_values):
                k = code == c
                if m != 1.0 and np.count_nonzero(k):
                    power[k] = us[k] ** m
                    jacobian[k] = us[k] ** (m - 1.0)
        d = sign[:, None] * power
        anchors = panels[:, _ANCHOR].repeat(15)
        xs = anchors.reshape(us.shape) + d
        if subs < len(sign):  # a panel without a substitution keeps x = u
            xs = np.where(graded[:, None], xs, us)
        offsets = (anchors, d.ravel())
    rows = panels[:, _ROW].astype(np.intp).repeat(15) if len(prog.fargs) > 1 else None
    ys = prog(xs.ravel(), rows, offsets).reshape(us.shape)
    if subs:
        scaled = ys * panels[:, _M, None] * jacobian
        ys = scaled if subs == len(sign) else np.where(graded[:, None], scaled, ys)
    return ys


def _evaluate(progs, m_values, panels, rule):
    """Evaluate ``panels`` (rows in the layout of ``_integrate``; a
    piece's panels consecutive), one kernel call per group, under
    ``_integrate``'s errstate.

    Returns their values and errors by ``rule``, their node values (a row
    per panel) and a dict of the DomainError of each piece whose integrand
    is non-finite at a node, naming the first such node in panel order.
    """
    lo, hi = panels[:, _LO], panels[:, _HI]
    half = 0.5 * (hi - lo)
    us = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES[None, :]
    if len(progs) == 1:
        ys = _group_values(progs[0], m_values, panels, us)
    else:
        group = panels[:, _GROUP].astype(np.intp)
        ys = np.empty(us.shape)
        for g in np.flatnonzero(np.bincount(group)).tolist():
            sel = np.flatnonzero(group == g)
            ys[sel] = _group_values(progs[g], m_values, panels[sel], us[sel])
    vals, errs = rule(ys, half)
    finite = np.isfinite(ys)
    errors = {}
    if np.count_nonzero(finite) < finite.size:
        for j in np.flatnonzero(~finite.all(axis=1)).tolist():
            p = int(panels[j, _PIECE])
            if p in errors:
                continue
            bad = us[j][~finite[j]][:1]
            sign, anchor, m = panels[j, _SIGN:_M + 1].tolist()
            if sign != 0.0:  # the node is u, at x = anchor + sign u^m
                bad = anchor + sign * bad ** m
            errors[p] = DomainError(f"integrand evaluated non-finite near x={bad}")
    return vals, errs, ys, errors


def integrate_many(jobs: Sequence[Job]) -> list:
    """Integrate every job; returns one QuadResult or HopialError per
    integral: per job, or per member of a group's job, in order.

    One adaptive loop runs all jobs at once, and an integral gets the
    same result, bit for bit, as alone (see the module docstring).  One
    that fails does not stop the others.
    """
    return _integrate(jobs)[0]


# A panel row of _integrate: its ends in its piece's own variable, its
# value and error by the rule, its piece, and the piece's substitution
# x = anchor + sign u^m (sign 0, anchor nan and m 1 for none; m_code
# indexes the batch's sorted m values), kernel group and parameter row.
_LO, _HI, _VAL, _ERR, _PIECE, _SIGN, _ANCHOR, _M, _M_CODE, _GROUP, _ROW = range(11)
# A piece row: its id and run, half its run's tolerance, its run's
# absolute floor, its value and error, the panels it used and their
# number at its last split decision.
_ID, _RUN, _HALF_TOL, _FLOOR, _TOTAL, _TOTAL_ERR, _USED, _LAST = range(8)


def _integrate(jobs, rule=None):
    """``integrate_many``'s results, the runs' ends, the pieces' cuts (see
    ``_prepare``) and, with a ``rule``, every final panel's piece, lo, hi,
    value and node values, judged by that rule.

    Each round refines the live pieces of all runs together, one row per
    piece in ``piece`` and one per panel in ``panel``.  A piece's panels
    are consecutive, in the order a bisection keeps them: the unsplit
    panels, then the left halves, then the right halves.  A piece stops
    when its error is within its share of the tolerance.  A piece over
    what the earlier pieces of its run left of the panel budget (after
    their splits in the same round), or whose integrand is non-finite at
    a node, stops its run there: the pieces after it cannot change the
    run's result.
    """
    results: list = []
    plans, cuts, index = [], [], []  # index: each run's slot in results
    for job in jobs:
        members = len(job.rows) if job.rows else 1
        try:
            plans.append(_prepare(job, cuts))
        except HopialError as exc:
            results += [exc] * members
            continue
        index += range(len(results), len(results) + members)
        results += [None] * members
    if not plans:
        return results, [], None, None
    # a run per member: its job's kernel group and its parameter row
    runs = [(g, row, tol, max_panels, ends, n)
            for g, (_, tol, max_panels, ends, counts) in enumerate(plans)
            for row, n in enumerate(counts)]
    group, row, tol, max_panels, ends, count = zip(*runs)
    cut = np.array(cuts, dtype=float).reshape(-1, _CUT)
    pieces = len(cut)
    first = list(itertools.accumulate(count, initial=0))  # and the end of the last run
    run = np.arange(len(runs)).repeat(count)
    progs = [fs.Program(*code) for code, *_ in plans]  # a kernel group per job
    m_values = sorted(set(cut[:, _M].tolist()))
    keep_nodes = rule is not None
    rule = rule or _panel_rule
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        # round 0: the first panel of every piece, which also scales the
        # absolute floor of its run; a failure there ends the run
        panel = np.zeros((pieces, 11))
        panel[:, :_M + 1] = cut[:, :_M + 1]
        if sum(m != 1.0 for m in m_values) > 1:  # _group_values tells them apart
            panel[:, _M_CODE] = np.searchsorted(m_values, cut[:, _M])
        if len(progs) > 1:
            panel[:, _GROUP] = np.array(group)[run]
        if len(runs) > len(progs):
            panel[:, _ROW] = np.array(row)[run]
        panel[:, _VAL], panel[:, _ERR], nodes, failed = _evaluate(progs, m_values, panel, rule)
        stop = np.array(first[1:])  # a run's pieces from stop[r] on no longer step
        for p in sorted(failed):
            if stop[run[p]] > first[run[p]]:
                stop[run[p]] = first[run[p]]
                results[index[run[p]]] = failed[p]
        scale = []  # per run half its tolerance and its absolute floor
        size = np.abs(panel[:, _VAL]).tolist()
        for t, start, n in zip(tol, first, count):
            rough = 0.0
            for x in size[start:start + n]:
                rough += x
            scale.append((0.5 * t, max(t * rough, 1e-300) / (2 * n)))
        piece = np.empty((pieces, 8))
        piece[:, _ID], piece[:, _RUN] = panel[:, _PIECE], run
        piece[:, _HALF_TOL:_FLOOR + 1] = np.array(scale)[run]
        piece[:, _USED:] = 1.0, -1.0
        owner = np.arange(pieces)
        if not keep_nodes:
            nodes = None  # only a running integral keeps its node values
        errors: dict = {}
        retired: list = []  # the rows of the pieces that stopped
        kept: list = []
        # no piece can be over its budget while the batch holds fewer panels
        halved, least_budget = 0, min(max_panels)

        while True:
            if failed:  # retire each stopped piece of a run and those after it
                alive = piece[:, _ID] < stop[piece[:, _RUN].astype(np.intp)]
                retired.append(piece[~alive])
                keep = alive[owner]
                owner, piece, panel = (alive.cumsum() - 1)[owner[keep]], piece[alive], panel[keep]
                nodes = None if nodes is None else nodes[keep]
                if not len(piece):
                    break
            if len(owner) == len(piece):  # one panel each: np.sum of a term is 0.0 + it
                n = [1] * len(piece)
                piece[:, _TOTAL:_TOTAL_ERR + 1] = panel[:, _VAL:_ERR + 1] + 0.0
            else:
                n = np.bincount(owner)
                piece[:, _TOTAL:_TOTAL_ERR + 1] = _piece_sums(panel[:, _VAL:_ERR + 1].T, n).T
            if len(piece) <= _FEW and pieces + 2 * (halved + len(owner)) < least_budget:
                rows, piece, owner, fresh, src, gone = _few_round(piece, panel, n)
                if gone:
                    retired.append(np.array(gone))
                    if nodes is not None:
                        stops = np.ones(len(panel), dtype=bool)
                        stops[src] = False
                        kept.append((panel[stops], nodes[stops]))
                if not piece:
                    break
                halved += fresh.count(True) // 2
                piece, owner, fresh = np.array(piece), np.array(owner), np.array(fresh)
                panel = np.array(rows)
                if nodes is not None:
                    nodes = nodes[src]
            else:
                n = np.asarray(n)
                target = np.maximum(piece[:, _HALF_TOL] * np.abs(piece[:, _TOTAL]),
                                    piece[:, _FLOOR])
                done = piece[:, _TOTAL_ERR] <= target
                stopping = np.count_nonzero(done)
                if stopping == len(piece):
                    retired.append(piece)
                    if nodes is not None:
                        kept.append((panel, nodes))
                    break
                share = target / (2.0 * n)
                share[done] = np.inf
                split = panel[:, _ERR] > share[owner]
                splits = np.bincount(owner[split], minlength=len(piece))
                if np.count_nonzero(splits) + stopping < len(piece):
                    start = n.cumsum() - n
                    for j in np.flatnonzero(~done & (splits == 0)).tolist():
                        # no panel above its share: split the worst
                        errs = panel[start[j]:start[j] + n[j], _ERR].tolist()
                        split[start[j] + errs.index(max(errs))] = True
                        splits[j] = 1
                step = ~done
                np.copyto(piece[:, _LAST], piece[:, _USED], where=step)
                piece[:, _USED] += 2 * splits
                halved += np.count_nonzero(split)
                if pieces + 2 * halved >= least_budget:
                    # the budget check sees the earlier pieces' splits of
                    # this round; the pieces after one over its budget stop
                    # with it, so what they record no longer counts
                    step = _within_budget(piece, step, retired, max_panels, first, stop)
                    split &= step[owner]
                    stopping = len(piece) - np.count_nonzero(step)
                if stopping:
                    retired.append(piece[~step])
                    if nodes is not None:
                        gone = ~step[owner]
                        kept.append((panel[gone], nodes[gone]))

                # the stepping pieces' new layout: per piece its unsplit
                # panels, then the left halves, then the right halves
                whole = step[owner] & ~split
                left = panel[split]
                right = left.copy()
                left[:, _HI] = right[:, _LO] = 0.5 * (left[:, _LO] + left[:, _HI])
                halves = owner[split]
                by = np.concatenate((owner[whole], halves, halves))
                order = by.argsort(kind="stable")
                fresh = order >= len(by) - 2 * len(left)
                owner = by[order]
                panel = np.concatenate((panel[whole], left, right))[order]
                if nodes is not None:
                    nodes = np.concatenate((nodes[whole], nodes[split], nodes[split]))[order]
                if stopping:
                    owner, piece = (step.cumsum() - 1)[owner], piece[step]
                    if not len(piece):
                        break
            panel[fresh, _VAL], panel[fresh, _ERR], ys, failed = _evaluate(
                progs, m_values, panel[fresh], rule)
            if nodes is not None:
                nodes[fresh] = ys
            for p, exc in failed.items():
                errors[p] = exc
                stop[run[p]] = min(stop[run[p]], p)

    state = np.empty((pieces, 8))
    rows = np.concatenate(retired)
    state[rows[:, _ID].astype(np.intp)] = rows
    _results(results, index, runs, first, state, errors)
    panels = None
    if kept:
        rows, values = map(np.concatenate, zip(*kept))
        panels = (rows[:, _PIECE].astype(np.intp), rows[:, _LO], rows[:, _HI], rows[:, _VAL],
                  values)
    return results, ends, cut, panels


_FEW = 8  # live pieces up to which a round runs in Python (numpy costs about 1 us a call)


def _few_round(piece, panel, n):
    """A round of ``_integrate`` over a few live pieces in Python, where
    numpy's fixed cost per call would outweigh their work, for a batch
    too small for any piece to be over its budget: the array round's stop
    rule, split choice and new layout.  Returns the new panel rows, the
    rows of the pieces that go on, each new panel's piece, whether it is
    a new half and its source row, and the rows of the pieces that stop."""
    rows = panel.tolist()
    new, live, owner, src, fresh, gone = [], [], [], [], [], []
    start = 0
    for row, k in zip(piece.tolist(), np.asarray(n).tolist()):
        target = max(row[_HALF_TOL] * abs(row[_TOTAL]), row[_FLOOR])
        if row[_TOTAL_ERR] <= target:
            gone.append(row)
            start += k
            continue
        share = target / (2.0 * k)
        errs = [r[_ERR] for r in rows[start:start + k]]
        split = [e > share for e in errs]
        if not any(split):  # no panel above its share: split the worst
            split[errs.index(max(errs))] = True
        whole = [start + i for i in range(k) if not split[i]]
        halves = [start + i for i in range(k) if split[i]]
        lefts, rights = [], []
        for i in halves:
            left, right = rows[i][:], rows[i][:]
            left[_HI] = right[_LO] = 0.5 * (rows[i][_LO] + rows[i][_HI])
            lefts.append(left)
            rights.append(right)
        new += [rows[i] for i in whole] + lefts + rights
        owner += [len(live)] * (len(whole) + 2 * len(halves))
        src += whole + halves + halves
        fresh += [False] * len(whole) + [True] * (2 * len(halves))
        row[_LAST] = row[_USED]
        row[_USED] += 2 * len(halves)
        live.append(row)
        start += k
    return new, live, owner, fresh, src, gone


def _within_budget(piece, step, retired, max_panels, first, stop):
    """Which live pieces step on: a stepping piece stops its run where it
    is over what the earlier pieces of its run (after their splits in
    this round) left of the panel budget."""
    rows = np.concatenate(retired + [piece])  # every piece once
    used = np.empty(len(rows))
    used[rows[:, _ID].astype(np.intp)] = rows[:, _USED]
    spent = used.cumsum() - used
    ids, run = piece[:, _ID].astype(np.intp), piece[:, _RUN].astype(np.intp)
    over = step & (piece[:, _LAST] >= np.array(max_panels, dtype=float)[run] - (
        spent[ids] - spent[np.array(first)[run]]))
    np.minimum.at(stop, run[over], ids[over])
    return step & (ids < stop[run])


def _results(results, index, runs, first, state, errors):
    """Fill in each run's QuadResult, or the error it raises alone: its
    pieces in order, each with the budget the earlier pieces left."""
    total, total_err, used, last_split = state[:, _TOTAL:].T.tolist()
    for r, (i, (_, _, tol, max_panels, _, count)) in enumerate(zip(index, runs)):
        if results[i] is not None:
            continue
        value = error = 0.0
        spent = 0
        for p in range(first[r], first[r] + count):
            budget = max_panels - spent
            if last_split[p] >= budget:
                results[i] = BudgetExceeded(f"needed more than {budget} panels "
                                            f"for tolerance {0.5 * tol:g}")
                break
            if p in errors:
                results[i] = errors[p]
                break
            value += total[p]
            error += total_err[p]
            spent += int(used[p])
        else:
            results[i] = QuadResult(value, error, spent)


def integrate_job(job: Job) -> QuadResult:
    """``integrate_many`` of one job; its error is raised."""
    res = integrate_many([job])[0]
    if isinstance(res, HopialError):
        raise res
    return res


def integrate(
    f: fs.FunctionSpec,
    interval: fs.Interval,
    tol: Optional[float] = None,
    *,
    home: Optional[fs.Interval] = None,
    endpoint_exponents: Optional[tuple] = None,
    max_panels: int = DEFAULT_PANEL_BUDGET,
) -> QuadResult:
    """Integrate ``f`` over ``interval`` to a relative tolerance.

    ``f`` is a function spec, whose structure drives breakpoint splits and
    singular substitutions.  ``home`` is the interval the spec's anchored
    variants refer to when integrating over a sub-range.
    ``endpoint_exponents`` replaces the (left, right) kappa of the
    structural walk, for a caller that knows what the walk cannot see: the
    exponents of a cancelling sum, whose min rule gives the smallest
    exponent of its terms where the sum vanishes to a higher order.  The
    non-integer exponents that grade a finite endpoint still come from the
    spec's structure.  Exponents <= -1 raise NonIntegrable.
    """
    return integrate_job(Job(f, interval, tol, home, None, endpoint_exponents, max_panels))


def product_job(factors, interval: fs.Interval, tol: Optional[float] = None) -> Job:
    """The job of ``product_integral``, planned from factor parts.

    A factor is an ``fs.Part`` (planned once by a caller that shares it
    between jobs) or a (w, ex) pair.  Same-anchor power laws and
    exponentials fold (``fs.merge_product``); a part whose factor survives
    the fold keeps its code, structure and breakpoints, and every other
    factor is walked here, straight into the job's code (``fs.product``).
    Where w is a group's part (``fs.plan_groups``), the job is the group's
    template plan: one walk, with a parameter row per member."""
    specs, parts = [], {}
    for factor in factors:
        if isinstance(factor, fs.Part):
            specs.append(factor.spec)
            parts[id(factor.spec)] = factor
            continue
        w, ex = factor
        if w is None or ex == 0:
            continue
        specs.append(fs.power_of(w, ex))
    specs = fs.merge_product(specs)
    code, ends, breaks, rows = fs.product([parts.get(id(sp), sp) for sp in specs], interval)
    return Job(specs[0] if len(specs) == 1 else fs.Product(specs), interval, tol,
               breakpoints=breaks, code=code, ends=ends, rows=rows)


def product_integral(parts, interval: fs.Interval,
                     tol: Optional[float] = None) -> QuadResult:
    """Integral over ``interval`` of the product of w^ex for (w, ex) parts.

    ``w`` is a spec; None weights and zero exponents are skipped.  The
    factors keep their structure: same-anchor power laws are merged,
    endpoint exponents add up and breakpoints carry over.
    """
    return integrate_job(product_job(parts, interval, tol))


def cumulative(f: fs.FunctionSpec, interval: fs.Interval, side: str = "head",
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
    results, ends, cut, panels = _integrate([Job(f, interval, tol)], _running_rule)
    if isinstance(results[0], HopialError):
        raise results[0]
    head = side == "head"
    piece, p_lo, p_hi, p_val, p_nodes = panels
    pieces = []
    for p, (sign, anchor, m, x0, x1) in enumerate(cut[:, _SIGN:].tolist()):
        at = np.flatnonzero(piece == p)
        k = at[np.argsort(p_lo[at])]
        los, his, nodes, vals = p_lo[k], p_hi[k], p_nodes[k], p_val[k]
        half = 0.5 * (his - los)
        if sign == 0.0:  # v = sign (x - anchor), against the panels' x in a tail
            sign, anchor = (1.0, x0) if head else (-1.0, x1)
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
    ends = [(kappa + 1.0, rho + 1.0) for kappa, rho in ends[0]]
    total = edges[-1] if head else edges[0]
    if total:
        ends[head] = (0.0, ends[head][1])
    spec = fs.PiecewisePolynomial(cut[:, _M + 1].tolist() + [interval.b],
                                  rows, [frame for frame, *_ in pieces], ends)
    return spec, QuadResult(total, results[0].abs_error_estimate + rounding, len(in_x))


def running_integrals(fns: Sequence[fs.FunctionSpec], interval: fs.Interval, side: str,
                      tol: Optional[float] = None) -> list:
    """The running integrals of every f, planned by group
    (``fs.plan_groups``): a list of (members, f, F), F the (spec or
    group's part, rel_error) of ``RunningIntegral`` for the group's
    members, or the HopialError it raises for each alone.  A group without
    a closed form is one f, whose F is read off ``cumulative``."""
    if side not in ("tail", "head"):
        raise DomainError(f"side must be tail|head, got {side}")
    out = []
    for members, f, F in fs.plan_groups(fns, interval, side):
        if F is None:
            try:
                spec, total = cumulative(f, interval, side, tol)
                F = (spec, total.rel_error)
            except HopialError as exc:
                F = exc
        elif not isinstance(F, HopialError):
            F = (F, 0.0)
        out.append((members, f, F))
    return out


class RunningIntegral:
    """F(a, x) (side="head") or F(x, b) (side="tail") of ``f``, as ``spec``:
    a closed antiderivative (rel_error 0), else ``cumulative``'s panel tree,
    with rel_error bounding its error at every x relative to F(a, b).  The
    one-f case of ``running_integrals``."""

    def __init__(self, f: fs.FunctionSpec, interval: fs.Interval, side: str,
                 tol: Optional[float] = None):
        ((_, _, res),) = running_integrals([f], interval, side, tol)
        if isinstance(res, HopialError):
            raise res
        self.interval = interval
        spec, self.rel_error = res
        self.spec = spec.spec if isinstance(spec, fs.Part) else spec

    def __call__(self, xs):
        # compiled on first use: a sweep only integrates the spec
        return fs.compile_program(self.spec, self.interval)(np.asarray(xs, dtype=float))

    def value_at(self, x: float) -> float:
        return float(self(np.array([float(x)]))[0])


def sup_on_interval(
    g: fs.FunctionSpec,
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
    kappa_l = fs.endpoint_structure(g, home, "left")[0]
    kappa_r = fs.endpoint_structure(g, home, "right")[0]
    eval_fn = fs.compile_program(g, home)

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
    f1 = float(eval_fn(np.array([x1]))[0])
    f2 = float(eval_fn(np.array([x2]))[0])
    xtol = xtol_factor * (b - a)
    while right - left > xtol:
        if f1 < f2:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = float(eval_fn(np.array([x2]))[0])
        else:
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = float(eval_fn(np.array([x1]))[0])
    xm = 0.5 * (left + right)
    fm = float(eval_fn(np.array([xm]))[0])
    if fm > best_y:
        best_x, best_y = xm, fm
    return SupResult(best_x, best_y)
