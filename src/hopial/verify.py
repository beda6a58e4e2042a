"""End-to-end verification of the catalog: theorems and lemmas.

An instance binds a row id, weights, exponents, an interval and a test
function f -- or, for a lemma, a path y with its derivative and the
boundary where it vanishes.  The verifier assembles both sides exactly as
the bound is displayed -- outer powers included -- so ratio <= 1 is
literally the inequality.  The error budget is the first-order sum of the
relative quadrature errors of the left side, the constant and the right
side; statuses are Holds (ratio <= 1 + budget), Violated (> 1 +
10*budget) and Inconclusive between.

One pass, ``_passes``, checks instances that share all but f: it builds
the constant and plans the weight factors the sides share once
(``funcspace.Part``), groups the instances by the structure of f
(``funcspace.plan_groups``) and plans each side of a group once, as a
template plan with a parameter row per member.  The sides of all
instances are integrated in one ``integrate_many`` call.  A lemma is the
same row with F = |y| and f = |y'| given: each path is a group of one.
``verify_many`` validates every f first and re-runs any Violated
instance at 10x tighter quadrature tolerance and in the alternate
constant mode before reporting it, which separates typo-level constant
issues from numerical noise.  ``verify`` is its one-instance case, and
``sweep``, the CLI's sharpness curve and ``sharpness_search`` run through
the same pass; ``opial.verify_variant`` is one pass of a lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import constants as ct
from . import funcspace as fs
from . import quad
from .errors import HopialError, PreconditionFailed

__all__ = [
    "TheoremInstance",
    "VerificationReport",
    "classify_status",
    "judge",
    "report",
    "SweepReport",
    "SharpnessResult",
    "assemble_lhs",
    "assemble_rhs",
    "verify",
    "verify_many",
    "sweep",
    "sharpness_search",
]


@dataclass(frozen=True)
class TheoremInstance:
    """A theorem on a test function f, or a lemma on a path f (an
    ``opial.TestPath``: y and y' given) at its boundary ``side``."""

    ident: str
    r: Optional[object]
    s: Optional[object]
    f: object
    exponents: ct.ExponentSet
    interval: fs.Interval
    mode: str = "default"
    side: Optional[str] = None

    def resolved(self):
        return ct.resolve(self.ident, self.r, self.s, self.exponents, self.mode,
                          self.side)


@dataclass(frozen=True)
class SweepReport:
    ident: str
    mode: str
    reports: tuple
    max_ratio: float
    argmax: int
    n_holds: int
    n_violated: int
    n_inconclusive: int
    seed: int

    @property
    def violated(self):
        return [rep for rep in self.reports if rep.status == "Violated"]


@dataclass(frozen=True)
class SharpnessResult:
    ident: str
    best_ratio: float
    best_params: tuple
    evaluations: int
    best_report: VerificationReport


# ---------------------------------------------------------------------------
# reports and the ratio rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """One check of lhs <= constant * rhs_core: a theorem on a test function,
    or a lemma on a path.  ``error_budget`` is relative; ``breakdown`` is
    the constant's factor table."""

    ident: str
    mode: str
    lhs: float
    rhs_core: float
    constant: float
    ratio: float
    status: str
    error_budget: float
    breakdown: Optional[ct.ConstantBreakdown] = None
    detail: str = ""


def classify_status(ratio: float, budget: float) -> str:
    if not math.isfinite(ratio):
        return "Violated" if ratio > 0 else "Inconclusive"
    if ratio <= 1.0 + budget:
        return "Holds"
    if ratio > 1.0 + 10.0 * budget:
        return "Violated"
    return "Inconclusive"


def judge(lhs, rhs_core, constant, budget):
    """(ratio, status, budget) for lhs <= constant * rhs_core: ratio 0 when
    lhs = 0, inf when constant * rhs_core <= 0, budget floored at 1e-12."""
    denom = constant * rhs_core
    if lhs == 0.0:
        ratio = 0.0
    elif denom <= 0.0:
        ratio = math.inf
    else:
        ratio = lhs / denom
    budget = max(budget, 1e-12)
    return ratio, classify_status(ratio, budget), budget


def report(ident, mode, lhs: quad.QuadResult, rhs: quad.QuadResult, constant,
           constant_rel, breakdown=None, detail="") -> VerificationReport:
    """The report of lhs <= constant * rhs from the two sides and the
    constant's relative error; the budget sums the three relative errors."""
    ratio, status, budget = judge(lhs.value, rhs.value, constant,
                                  lhs.rel_error + rhs.rel_error + constant_rel)
    return VerificationReport(ident, mode, lhs.value, rhs.value, constant, ratio,
                              status, budget, breakdown, detail)


# ---------------------------------------------------------------------------
# side assembly
# ---------------------------------------------------------------------------


def _powers(side, exps) -> tuple:
    """A row's side powers at the resolved exponents; a non-finite one
    (p = inf gives q = nan) breaks the theorem's hypotheses."""
    powers = side(exps)
    if not all(v is None or math.isfinite(v) for v in powers):
        raise PreconditionFailed(f"non-finite exponent in {powers}")
    return powers


def _lhs_weight(inst: TheoremInstance, resolved):
    """The weight factor of the left side, r, HARDY's (x - a)^-p or None;
    it depends on the weights only, so a sweep plans it once."""
    ident, info, mode, exps = resolved
    if info.lhs_weight == "r":
        return fs.Part(inst.r, inst.interval)
    if info.lhs_weight == "x-a":
        power, _ = _powers(info.lhs, exps)
        return fs.Part(fs.power_of(fs.PowerLaw(1.0, 1.0), -power), inst.interval)
    return None


def _path_group(i, inst):
    """A lemma's path as a group of one: f = |y'| and F = |y| (exact), or
    the error of the path's audit (``opial.TestPath.check``) as F."""
    try:
        inst.f.check(inst.side)
    except HopialError as exc:
        return [i], fs.AbsVal(inst.f.dy), exc
    return [i], fs.AbsVal(inst.f.dy), (fs.AbsVal(inst.f.y), 0.0)


def _groups(insts, resolved, tol) -> list:
    """The instances grouped by the structure of f, with F from the side's
    end built to the pass's tolerance: ``quad.running_integrals``'
    (members, f, F) per group.  Each lemma path is a group of its own."""
    if insts[0].side is not None:
        return [_path_group(i, inst) for i, inst in enumerate(insts)]
    side = "head" if resolved[1].side == "left" else "tail"
    return quad.running_integrals([inst.f for inst in insts], insts[0].interval, side, tol)


def _lhs_plan(inst: TheoremInstance, resolved, tol, f, running, weight):
    """(job, powers) for the displayed left side (int w F^P f^Q)^(d/P) of a
    group: the side is a member's QuadResult ``raised(*powers)`` (outer
    power d/P, the power d of F in the side, F's relative error), or the
    integral itself where powers is None (a lemma's).  ``f`` and
    ``running`` are the group's f and F (``_groups``) and ``weight`` the
    ``_lhs_weight`` factor (or the error they raised)."""
    ident, info, mode, exps = resolved
    if isinstance(running, HopialError):
        raise running
    F, F_rel = running
    power, degree = _powers(info.lhs, exps)
    if isinstance(weight, HopialError):
        raise weight
    factors = [weight] if weight is not None else []
    job = quad.product_job(factors + [(F, power), (f, info.Q(exps))], inst.interval, tol)
    if info.lhs_weight == "x-a":  # HARDY's weight (x - a)^-p
        # F / (x - a) tends to f(a) even where F is a cancelling sum, so the
        # left exponent is p kappa_f(a); F(b) > 0, so the right end is regular
        kappa_f = (f if isinstance(f, fs.Part) else fs.Part(f, inst.interval)).ends[0][0]
        job = replace(job, endpoint_exponents=(power * kappa_f, 0.0))
    return job, None if degree is None else (degree / power, degree, F_rel)


def _rhs_weights(inst, resolved, tol):
    """The weight factors of the right side, and the relative error of the
    running integral R among them (0 without R); they depend on the
    weights only, so a sweep plans them once.  R is built to the pass's
    tolerance."""
    ident, info, mode, exps = resolved
    parts, rel = [], 0.0
    for letter in info.rhs_weight.replace("*", ""):
        if letter == "R":
            R = quad.RunningIntegral(inst.r, inst.interval,
                                     "tail" if info.side == "left" else "head", tol)
            parts.append(fs.Part(R.spec, inst.interval))
            rel = R.rel_error
        else:
            parts.append(fs.Part(inst.s if letter == "s" else inst.r, inst.interval))
    return parts, rel


def _rhs_plan(inst: TheoremInstance, resolved, tol, f, weights):
    """(job, powers) for the displayed right-hand side core
    (int [weights] f^E)^outer of a group whose f (``_groups``) is ``f``;
    powers is None where the core is the job's integral itself.  R's
    relative error enters as F's does on the left."""
    ident, info, mode, exps = resolved
    if isinstance(weights, HopialError):
        raise weights
    parts, weight_rel = weights
    power, outer = _powers(info.rhs, exps)
    job = quad.product_job(parts + [(f, power)], inst.interval, tol)
    if outer is None and not weight_rel:
        return job, None
    outer = 1.0 if outer is None else outer
    return job, (outer, outer, weight_rel)


def _finished(plan, res) -> quad.QuadResult:
    """The side from a plan and its integral; an error is raised."""
    if isinstance(res, HopialError):
        raise res
    return res if plan[1] is None else res.raised(*plan[1])


def _shared(inst, resolved, *plans) -> list:
    """The factors that every instance's sides share, planned once from
    ``inst`` (``_lhs_weight``, ``_rhs_weights``), or the error planning one
    raised: an instance meets it where it first needs the factor."""
    out = []
    for plan in plans:
        try:
            out.append(plan(inst, resolved))
        except HopialError as exc:
            out.append(exc)
    return out


def _checked(inst: TheoremInstance):
    """The instance's resolved theorem, once its weights pass
    ``ct.check_weights``."""
    resolved = inst.resolved()
    ct.check_weights(resolved[1], inst.r, inst.s, inst.interval)
    return resolved


def assemble_lhs(inst: TheoremInstance, tol: Optional[float] = None) -> quad.QuadResult:
    """The displayed left-hand side, outer powers applied."""
    resolved = _checked(inst)
    (weight,) = _shared(inst, resolved, _lhs_weight)
    ((_, f, running),) = _groups([inst], resolved, tol)
    plan = _lhs_plan(inst, resolved, tol, f, running, weight)
    return _finished(plan, quad.integrate_job(plan[0]))


def assemble_rhs(inst: TheoremInstance, tol: Optional[float] = None) -> quad.QuadResult:
    """The displayed right-hand side core (the constant excluded)."""
    resolved = _checked(inst)
    ((_, f, _),) = _groups([inst], resolved, tol)
    plan = _rhs_plan(inst, resolved, tol, f,
                     *_shared(inst, resolved, partial(_rhs_weights, tol=tol)))
    return _finished(plan, quad.integrate_job(plan[0]))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _passes(insts, tol, breakdown=None):
    """One pass (both sides and the ratio) of every instance, which share
    all but f.  The theorem is resolved, the weights checked once, the
    constant built (unless given) and the shared factors planned once;
    the instances are grouped by the structure of f, each side of a group
    is planned once with a parameter row per member, and all sides are
    integrated in one ``integrate_many`` call.  Returns a report, or the
    HopialError that ends the instance's pass alone, per instance; an
    error of the shared steps is raised."""
    first = insts[0]
    if breakdown is None:  # hardy_constant checks the weights
        resolved = first.resolved()
        breakdown = ct.hardy_constant(first.ident, first.r, first.s, first.exponents,
                                      first.interval, mode=resolved[2], tol=tol,
                                      side=first.side)
    else:
        resolved = _checked(first)
    ident, info, mode, exps = resolved
    lhs_weight, rhs_weights = _shared(first, resolved, _lhs_weight,
                                      partial(_rhs_weights, tol=tol))
    # per group: its members, the lhs plan, and the rhs plan or the error
    # that ends the pass once the lhs is done
    out: list = [None] * len(insts)
    plans, jobs = [], []
    for members, f, running in _groups(insts, resolved, tol):
        try:
            lhs = _lhs_plan(first, resolved, tol, f, running, lhs_weight)
        except HopialError as exc:
            for i in members:
                out[i] = exc
            continue
        try:
            rhs = _rhs_plan(first, resolved, tol, f, rhs_weights)
        except HopialError as exc:
            rhs = exc
        plans.append((members, lhs, rhs))
        jobs += [lhs[0]] if isinstance(rhs, HopialError) else [lhs[0], rhs[0]]
    results = iter(quad.integrate_many(jobs))
    for members, lhs, rhs in plans:
        lhs_res = [next(results) for _ in members]
        rhs_res = ([rhs] * len(members) if isinstance(rhs, HopialError)
                   else [next(results) for _ in members])
        for i, lhs_i, rhs_i in zip(members, lhs_res, rhs_res):
            try:
                lhs_side = _finished(lhs, lhs_i)
                out[i] = report(ident, mode, lhs_side, _finished(rhs, rhs_i),
                                breakdown.value, breakdown.error_estimate, breakdown)
            except HopialError as exc:
                out[i] = exc
    return out


def single_pass(inst: TheoremInstance, tol: Optional[float] = None,
                breakdown: Optional[ct.ConstantBreakdown] = None) -> VerificationReport:
    """One pass of one instance, whose Violated report is not re-examined
    (``verify`` re-examines it); an error is raised."""
    rep = _passes([inst], tol, breakdown)[0]
    if isinstance(rep, HopialError):
        raise rep
    return rep


def _tighter(tol):
    """The tolerance of a re-run: 10x tighter, but not below 2e-14."""
    return max((tol or quad.SMOOTH_TOL) / 10.0, 2e-14)


def _retest(inst, tol):
    """A Violated pass re-run at 10x tighter tolerance and, for catalog
    entries with divergent printed/derived readings, in the other mode."""
    ident, info, mode, exps = inst.resolved()
    tight = _tighter(tol)
    confirmed = single_pass(inst, tight)
    detail = f"retested at tol={tight:g}: ratio={confirmed.ratio:.9g}"
    if info.modes_differ:
        other = "as_derived" if mode == "as_printed" else "as_printed"
        try:
            alt = single_pass(replace(inst, mode=other), tol)
            detail += f"; {other} ratio={alt.ratio:.9g} ({alt.status})"
        except HopialError as exc:
            detail += f"; {other} unavailable ({type(exc).__name__})"
    return replace(confirmed, detail=detail)


def verify_many(
    insts: Sequence[TheoremInstance],
    tol: Optional[float] = None,
    breakdown: Optional[ct.ConstantBreakdown] = None,
) -> list:
    """``verify`` of every instance (they share all but f): a report, or
    the HopialError that ``verify`` of it alone raises, per instance.

    Every f is validated first: its sign is decided by its structure
    where it can be, and the rest are probed.  Then the theorem is
    resolved, the weights checked and the constant built (unless given)
    once.  The instances are grouped by the structure of f: each side of
    a group is a template plan, the walk of its first member with every
    other member's values (knots, F's coefficients and tail total,
    breakpoints) as parameter rows, so planning does not grow with the
    group.  The sides of all instances are integrated together, and every
    Violated report is re-examined.
    """
    out = ([None] * len(insts) if insts[0].side else  # a path is audited in the pass
           fs.nonnegativity_errors([inst.f for inst in insts], insts[0].interval))
    todo = [i for i, res in enumerate(out) if res is None]
    if not todo:
        return out
    try:
        passes = _passes([insts[i] for i in todo], tol, breakdown)
    except HopialError as exc:
        passes = [exc] * len(todo)
    for i, rep in zip(todo, passes):
        if not isinstance(rep, HopialError) and rep.status == "Violated":
            try:
                rep = _retest(insts[i], tol)
            except HopialError as exc:
                rep = exc
        out[i] = rep
    return out


def verify(
    inst: TheoremInstance,
    tol: Optional[float] = None,
    breakdown: Optional[ct.ConstantBreakdown] = None,
) -> VerificationReport:
    """Verify one instance; Violated results are re-examined first.

    The re-examination runs at 10x tighter tolerance and, for catalog
    entries with divergent printed/derived readings, also in the other
    mode; the outcome is attached to the report detail.
    """
    rep = verify_many([inst], tol, breakdown)[0]
    if isinstance(rep, HopialError):
        raise rep
    return rep


def _inconclusive(ident, mode, exc):
    return VerificationReport(
        ident, mode, math.nan, math.nan, math.nan, math.nan,
        "Inconclusive", math.inf, None, f"{type(exc).__name__}: {exc}",
    )


def sweep(
    ident: str,
    family: fs.FamilySpec,
    r,
    s,
    exponents: ct.ExponentSet,
    interval: fs.Interval,
    count: int,
    mode: str = "default",
    tol: Optional[float] = None,
) -> SweepReport:
    """Verify `count` family members against fixed weights.

    The constant depends only on the weights, so it is computed once and
    shared; the members of one structure (a piecewise-linear family is
    one) are planned as one template plan (``verify_many``), and the
    sides of all members are integrated together.  Each report equals
    ``verify`` of its member alone with that constant.
    Per-instance failures are recorded as Inconclusive reports with the
    reason, never aborting the sweep.  Deterministic for a fixed family
    seed.
    """
    ident = ct.canonical_id(ident)
    resolved_mode = ct.resolve_mode(ident, mode)
    breakdown = ct.hardy_constant(ident, r, s, exponents, interval,
                                  mode=resolved_mode, tol=tol)
    insts = [TheoremInstance(ident, r, s, f, exponents, interval, resolved_mode)
             for f in fs.sample_family(family, count)]
    reports = [_inconclusive(ident, resolved_mode, rep) if isinstance(rep, HopialError)
               else rep for rep in verify_many(insts, tol, breakdown)]
    finite = [
        (i, rep.ratio) for i, rep in enumerate(reports) if math.isfinite(rep.ratio)
    ]
    if finite:
        argmax, max_ratio = max(finite, key=lambda t: t[1])
    else:
        argmax, max_ratio = -1, math.nan
    seed = getattr(family, "seed", 0)
    return SweepReport(
        ident,
        resolved_mode,
        tuple(reports),
        max_ratio,
        argmax,
        sum(r_.status == "Holds" for r_ in reports),
        sum(r_.status == "Violated" for r_ in reports),
        sum(r_.status == "Inconclusive" for r_ in reports),
        seed,
    )


# ---------------------------------------------------------------------------
# sharpness search
# ---------------------------------------------------------------------------


def _nelder_mead_max(fn, bounds, budget):
    """Derivative-free ascent of fn over a box; returns (best_x, best_val,
    evaluations).  Standard simplex moves, deterministic start."""
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    dim = len(bounds)

    def clip(x):
        return np.array(
            [min(max(v, lo), hi) for v, (lo, hi) in zip(x, bounds)]
        )

    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        try:
            val = fn(clip(x))
        except HopialError:
            return -math.inf
        if val is None or not math.isfinite(val):
            return -math.inf
        return val

    x0 = np.array([0.5 * (lo + hi) for lo, hi in bounds])
    simplex = [x0]
    for i in range(dim):
        step = 0.35 * (bounds[i][1] - bounds[i][0])
        xi = x0.copy()
        xi[i] = min(xi[i] + step, bounds[i][1])
        simplex.append(xi)
    values = [call(x) for x in simplex]

    while evals < budget:
        order = np.argsort(values)[::-1]  # descending: best first
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = clip(centroid + (centroid - worst))
        fr = call(reflected)
        if fr > values[0]:
            expanded = clip(centroid + 2.0 * (centroid - worst))
            fe = call(expanded)
            if fe > fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr > values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = clip(centroid + 0.5 * (worst - centroid))
            fc = call(contracted)
            if fc > values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                best = simplex[0]
                simplex = [best] + [
                    clip(best + 0.5 * (x - best)) for x in simplex[1:]
                ]
                values = [values[0]] + [call(x) for x in simplex[1:]]
        spread = max(
            float(np.max(np.abs(np.asarray(x) - np.asarray(simplex[0]))))
            for x in simplex[1:]
        ) if dim else 0.0
        if spread < 1e-10:
            break

    i_best = int(np.argmax(values))
    return np.asarray(simplex[i_best]), values[i_best], evals


def sharpness_search(
    ident: str,
    builder: Callable,
    bounds: Sequence,
    r,
    s,
    exponents: ct.ExponentSet,
    interval: fs.Interval,
    budget: int = 200,
    mode: str = "default",
    tol: Optional[float] = None,
) -> SharpnessResult:
    """Probe how close the constant is to sharp over a parametric family.

    builder maps a parameter vector (at most 3 entries) to a test
    function, or, for a lemma id, to a path (``opial.TestPath``) checked
    at the lemma's first boundary.  The search is a simplex-style ascent
    on the ratio; a best ratio above 1 + budget is never reported as found
    without a re-run at 10x tighter quadrature tolerance.
    """
    if len(bounds) > 3:
        raise PreconditionFailed("parametric families are limited to 3 parameters")
    if budget < 50:
        raise PreconditionFailed("search budget must be at least 50 evaluations")
    side = ct.LEMMAS[ident].side if ident in ct.LEMMAS else None
    ident = ident if side else ct.canonical_id(ident)
    resolved_mode = ct.resolve_mode(ident, mode)
    breakdown = ct.hardy_constant(ident, r, s, exponents, interval,
                                  mode=resolved_mode, tol=tol, side=side)

    def instance(params):
        return TheoremInstance(ident, r, s, builder(params), exponents, interval,
                               resolved_mode, side)

    if not bounds:  # degenerate: constant family
        rep = verify(instance(()), tol=tol, breakdown=breakdown)
        return SharpnessResult(ident, rep.ratio, (), 1, rep)

    best_x, best_val, evals = _nelder_mead_max(
        lambda params: single_pass(instance(params), tol, breakdown).ratio, bounds, budget)
    inst = instance(best_x)
    rep = single_pass(inst, tol, breakdown)
    if rep.ratio > 1.0 + rep.error_budget:
        rep = single_pass(inst, _tighter(tol))
    return SharpnessResult(ident, rep.ratio, tuple(float(v) for v in best_x),
                           evals, rep)
