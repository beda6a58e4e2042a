"""The catalog's inequalities as rows, and their multiplicative constants
with factor-level breakdowns.

Each Hardy-type bound and each Opial-type lemma has the shape

    LHS  <=  constant(r, s, exponents, interval) * RHS,

and this module computes the constant as a product of named factors.  Odd
theorem numbers integrate f from the left endpoint and use the tail
integral R(x,b); their even partners mirror everything through R(a,x).

Every inequality is one ``Row``: its two sides and their weights, its
boundaries, exponent check, constant builder and default mode, as data.
The 32 theorems are ``THEOREMS`` and the 16 lemmas ``LEMMAS``; a theorem
is a lemma applied to y = F, so ``verify`` checks both in one pass.

Two evaluation modes exist for the handful of catalog entries whose
typeset constant differs from the one their derivation supports
("as_printed" vs "as_derived"); everywhere else the modes coincide.  The
default mode is as_printed, the L-based constants included (their typeset
L is the sound reading), except where the printed form is vacuous (the
Beesack k = q substitution); see DEFAULT_MODES.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import eigen
from . import funcspace as fs
from . import quad
from . import special
from .errors import (
    DomainError,
    NoCrossing,
    NonIntegrable,
    PreconditionFailed,
)

__all__ = [
    "ExponentSet",
    "ConstantBreakdown",
    "Row",
    "THEOREM_IDS",
    "LEMMAS",
    "DEFAULT_MODES",
    "theorem_info",
    "lemma_row",
    "canonical_id",
    "r_tail",
    "r_head",
    "hardy_constant",
    "check_weights",
    "beesack_das_K1",
    "beesack_das_K2",
    "beesack_das_balance",
    "beesack_K",
]


@dataclass(frozen=True)
class ExponentSet:
    """Exponent parameters (p, q, k) of a theorem instance.

    q defaults to the Hoelder conjugate of p where a theorem requires
    1/p + 1/q = 1.  k is the extra integrability exponent of the Boyd- and
    Beesack-based entries (the theorem's free "s" resp. "k").
    """

    p: Optional[float] = None
    q: Optional[float] = None
    k: Optional[float] = None
    conjugate_check: bool = True


def _conjugate_pair(e: ExponentSet):
    _require(e.p is not None, "p > 1 with 1/p + 1/q = 1 required")
    p = float(e.p)
    _require(p > 1, f"p > 1 required, got p={p}")
    q = float(e.q) if e.q is not None else p / (p - 1.0)
    _require(math.isfinite(p) and math.isfinite(q), f"finite p and q required (p={p}, q={q})")
    _require(not (e.conjugate_check and abs(1.0 / p + 1.0 / q - 1.0) > 1e-12),
             f"1/p + 1/q = 1 violated (p={p}, q={q})")
    return p, q


@dataclass(frozen=True)
class ConstantBreakdown:
    """A constant as the product of named factors.

    value == prod(factor values) to 1e-12 relative.  error_estimate is
    relative.  rhs_weight names a weight the verifier must fold into the
    right-hand-side integrand (the catalog entries whose bound carries
    R inside the RHS integral).
    """

    value: float
    factors: tuple
    mode: str
    error_estimate: float
    rhs_weight: Optional[str] = None

    def __post_init__(self):
        prod = 1.0
        for _, v in self.factors:
            prod *= v
        if isinstance(self.value, complex) or not (self.value > 0
                                                   and math.isfinite(self.value)):
            raise DomainError(f"constant must be positive finite, got {self.value}")
        if abs(prod - self.value) > 1e-12 * abs(self.value):
            raise DomainError("factor product does not reproduce the constant")


# ---------------------------------------------------------------------------
# weight tail/head integrals
# ---------------------------------------------------------------------------


def r_tail(r, x: float, interval: fs.Interval) -> float:
    """R(x, b) = integral of r from x to b."""
    if not interval.contains(x):
        raise DomainError(f"x={x} outside the interval")
    return quad.RunningIntegral(r, interval, "tail").value_at(x)


def r_head(r, x: float, interval: fs.Interval) -> float:
    """R(a, x) = integral of r from a to x."""
    if not interval.contains(x):
        raise DomainError(f"x={x} outside the interval")
    return quad.RunningIntegral(r, interval, "head").value_at(x)


# ---------------------------------------------------------------------------
# Beesack-Das constants K1, K2 and the balancing constant
# ---------------------------------------------------------------------------


def _beesack_integral(r, s, er, es, e_in, gamma, side, sub, full, tol, lead, power):
    """lead * J^power and its relative error, where J is the integral over
    sub of r^er s^es I^e_in and I the running integral of s^gamma over
    full from its left (side="head") or right ("tail") end.  A
    nonpositive J gives (0, 0).
    """
    target = fs.power_of(s, gamma)
    kappa = fs.endpoint_structure(target, full, "left" if side == "head" else "right")[0]
    if kappa <= -1.0:
        raise NonIntegrable(f"inner weight integral diverges (exponent {kappa:.3g})")
    inner = quad.RunningIntegral(target, full, side, tol)
    job = quad.product_job([(r, er), (s, es), (inner.spec, e_in)], full, tol)
    outer = quad.integrate_job(replace(job, interval=sub, home=full))
    if outer.value <= 0.0:
        return 0.0, 0.0
    return (lead * outer.value**power,
            power * (outer.rel_error + e_in * inner.rel_error))


def _sub_bounds(sub):
    """K1/K2 accept an Interval or a possibly-degenerate (lo, hi) pair."""
    if isinstance(sub, fs.Interval):
        return sub.a, sub.b
    lo, hi = sub
    return float(lo), float(hi)


def _beesack_das_core(e, r, s, sub, full: fs.Interval, side: str, tol):
    """Shared K1/K2 evaluation; side="head" gives K1, "tail" gives K2."""
    if e.p is None or e.q is None:
        raise PreconditionFailed("K1/K2 need explicit positive p and q")
    p, q = float(e.p), float(e.q)
    if p <= 0 or q <= 0 or p + q <= 1:
        raise PreconditionFailed(f"p, q > 0 with p + q > 1 required (p={p}, q={q})")
    lo, hi = _sub_bounds(sub)
    if lo < full.a - 1e-12 or hi > full.b + 1e-12:
        raise DomainError("sub-interval must lie inside the full interval")
    sub = fs.Interval(lo, hi)
    tol = tol or quad.SMOOTH_TOL

    return _beesack_integral(r, s, (p + q) / p, -q / p, p + q - 1.0,
                             -1.0 / (p + q - 1.0), side, sub, full, tol,
                             (q / (p + q)) ** (q / (p + q)), p / (p + q))


def beesack_das_K1(e: ExponentSet, r, s, sub, full: fs.Interval,
                   tol=None) -> float:
    """K1(a, X, p, q): head-side Beesack-Das constant on sub = (a, X)."""
    lo, hi = _sub_bounds(sub)
    if hi - lo <= 0:
        return 0.0
    return _beesack_das_core(e, r, s, sub, full, "head", tol)[0]


def beesack_das_K2(e: ExponentSet, r, s, sub, full: fs.Interval,
                   tol=None) -> float:
    """K2(X, b, p, q): tail-side mirror on sub = (X, b)."""
    lo, hi = _sub_bounds(sub)
    if hi - lo <= 0:
        return 0.0
    return _beesack_das_core(e, r, s, sub, full, "tail", tol)[0]


def beesack_das_balance(e: ExponentSet, r, s, interval: fs.Interval,
                        tol: float = 1e-9):
    """The h with K1(a, h) = K2(h, b) and the common value K.

    K1 grows from 0 and K2 decays to 0, so a bisection on h finds the
    unique crossing; a 9-point monotonicity audit guards the hypothesis.
    """
    a, b = interval.a, interval.b

    def k1(h):
        return beesack_das_K1(e, r, s, fs.Interval(a, h), interval, tol=1e-10)

    def k2(h):
        return beesack_das_K2(e, r, s, fs.Interval(h, b), interval, tol=1e-10)

    probes = np.linspace(a, b, 11)[1:-1]
    k1_vals = [k1(float(h)) for h in probes]
    k2_vals = [k2(float(h)) for h in probes]
    if any(x1 < x0 - 1e-12 for x0, x1 in zip(k1_vals, k1_vals[1:])):
        raise NoCrossing("K1 is not nondecreasing in h")
    if any(x1 > x0 + 1e-12 for x0, x1 in zip(k2_vals, k2_vals[1:])):
        raise NoCrossing("K2 is not nonincreasing in h")
    g_lo = k1_vals[0] - k2_vals[0]
    g_hi = k1_vals[-1] - k2_vals[-1]
    if not (g_lo < 0 < g_hi):
        raise NoCrossing("K1 - K2 does not change sign inside the interval")

    lo, hi = float(probes[0]), float(probes[-1])
    while True:
        h = 0.5 * (lo + hi)
        v1, v2 = k1(h), k2(h)
        if abs(v1 - v2) <= tol * max(v1, v2):
            return h, 0.5 * (v1 + v2)
        if v1 < v2:
            lo = h
        else:
            hi = h
        if hi - lo < 1e-15 * interval.width:
            return h, 0.5 * (v1 + v2)


def beesack_K(e: ExponentSet, r, s, interval: fs.Interval, side: str = "left",
              substituted: bool = True, tol=None):
    """K1/K2(p, q, k) of the three-exponent Beesack bound.

    substituted=True evaluates the (pq, q, k) form used by the Hardy
    catalog (identical to the raw form with p replaced by pq); side
    selects the y(a)=0 ("left") or y(b)=0 ("right") variant.
    """
    if e.p is None or e.q is None or e.k is None:
        raise PreconditionFailed("beesack_K needs p, q and k")
    p, q, k = float(e.p), float(e.q), float(e.k)
    if not (k > 1 and p > 0 and 0 < q < k):
        raise PreconditionFailed(
            f"k > 1, p > 0 and 0 < q < k required (p={p}, q={q}, k={k})"
        )
    tol = tol or quad.SMOOTH_TOL
    p_eff = p * q if substituted else p

    return _beesack_integral(
        r, s, k / (k - q), -q / (k - q), p_eff * (k - 1.0) / (k - q),
        -1.0 / (k - 1.0), "head" if side == "left" else "tail", interval,
        interval, tol, (q / (q + p_eff)) ** (q / k), (k - q) / k,
    )


# ---------------------------------------------------------------------------
# theorem registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One inequality of the catalog: an Opial-type lemma, or a theorem,
    which is a lemma applied to y = F.  The lemma reads, on a path y that
    vanishes at its side, int [w] |y|^P |y'|^Q <= C (int [weights]
    |y'|^E)^outer; a theorem reads (int w F^P)^(d/P) <= C (int [weights]
    f^E)^outer with F the running integral of f from its side's end, so
    Q = 0.  ``check`` gives the exponents x, and lhs(x) = (P, d), d None
    for a lemma's integral itself, rhs(x) = (E, outer), outer None for the
    integral itself.  ``lhs_weight`` w is "r", "" or HARDY's "x-a";
    ``rhs_weight`` is read letter by letter, in factor order: s, r, and R
    the running integral of r from the other end ("R*s", "sr").
    ``sides`` are the lemma's boundaries ("left", "right", "both"; a
    theorem has one side), and a ``monotone`` lemma's r must not grow away
    from the vanishing end."""

    ident: str
    sides: tuple
    build: Callable  # (ctx) -> ConstantBreakdown
    check: Callable  # (ExponentSet) -> dict of resolved exponents
    lhs: Callable
    rhs: Callable
    Q: Callable = lambda x: 0.0
    lhs_weight: str = "r"
    rhs_weight: str = ""
    modes_differ: bool = False
    default_mode: str = "as_printed"
    monotone: bool = False

    @property
    def side(self) -> str:
        return self.sides[0]

    @property
    def needs_r(self) -> bool:
        return self.lhs_weight == "r" or "r" in self.rhs_weight

    @property
    def needs_s(self) -> bool:
        return "s" in self.rhs_weight


@dataclass
class _Ctx:
    r: object
    s: object
    e: ExponentSet
    interval: fs.Interval
    mode: str
    tol: float
    side: str
    exps: dict = field(default_factory=dict)
    rhs_weight: str = ""

    _R: Optional[quad.RunningIntegral] = None

    @property
    def R(self) -> quad.RunningIntegral:
        if self._R is None:
            side = "tail" if self.side == "left" else "head"
            self._R = quad.RunningIntegral(self.r, self.interval, side, self.tol)
        return self._R

    @property
    def R_name(self) -> str:
        return "R_tail" if self.side == "left" else "R_head"

    def sup_R(self) -> tuple:
        """The (name, value) factor sup R.  r >= 0 makes R_tail
        nonincreasing and R_head nondecreasing, so the supremum is R at the
        end where the running integral is widest."""
        iv = self.interval
        if min(fs.endpoint_structure(self.r, iv, end)[0] for end in ("left", "right")) <= -1.0:
            raise NonIntegrable("the weight integral R(a, b) diverges")
        return (f"sup {self.R_name}",
                self.R.value_at(iv.a if self.side == "left" else iv.b))

    def integral(self, *parts) -> quad.QuadResult:
        return quad.product_integral(parts, self.interval, self.tol)

    def width(self) -> float:
        return self.interval.width


def _breakdown(ctx, factors, rel_err):
    """The constant from its factors; a right-side weight that carries R is
    named for the report."""
    value = 1.0
    for _, v in factors:
        value *= v
    weight = ctx.rhs_weight.replace("R", ctx.R_name) if "R" in ctx.rhs_weight else None
    return ConstantBreakdown(value, tuple(factors), ctx.mode, rel_err, weight)


# -- individual builders -----------------------------------------------------


def _build_t2_1(ctx: _Ctx):
    res = ctx.integral((ctx.R.spec, 2.0), (ctx.s, -1.0))
    return _breakdown(ctx, [(f"int {ctx.R_name}^2/s", res.value)],
                      res.rel_error + 2 * ctx.R.rel_error)


def _build_t2_3(ctx: _Ctx):
    return _breakdown(ctx, [("b-a", ctx.width()), ctx.sup_R()],
                      1e-10 + ctx.R.rel_error)


def _build_t2_5(ctx: _Ctx):
    sup = ctx.sup_R()
    inv = ctx.integral((ctx.s, -1.0))
    return _breakdown(ctx, [sup, ("int 1/s", inv.value)],
                      inv.rel_error + 1e-10 + ctx.R.rel_error)


def _build_t2_7(ctx: _Ctx):
    p = ctx.exps["p"]
    sup = ctx.sup_R()
    base = ctx.integral((ctx.s, -(p - 1.0)))
    return _breakdown(
        ctx,
        [sup, ("(int (1/s)^(p-1))^(2/p)", base.value ** (2.0 / p))],
        (2.0 / p) * base.rel_error + 1e-10 + ctx.R.rel_error,
    )


def _build_t2_9(ctx: _Ctx):
    inv = ctx.integral((ctx.s, -1.0))
    return _breakdown(ctx, [("int 1/s", inv.value)], inv.rel_error)


def _build_t2_11(ctx: _Ctx):
    p = ctx.exps["p"]
    return _breakdown(
        ctx,
        [("(b-a)^p", ctx.width() ** p), ctx.sup_R()],
        1e-10 + ctx.R.rel_error,
    )


def _build_t2_13(ctx: _Ctx):
    p = ctx.exps["p"]
    value, rel = eigen.t2_13_constant_result(ctx.r, ctx.s, int(p), ctx.interval,
                                             tol=1e-8)
    return _breakdown(ctx, [("1/lambda0", value)], rel)


def _build_t2_14(ctx: _Ctx):
    p = ctx.exps["p"]
    sup = ctx.sup_R()
    base = ctx.integral((ctx.s, -1.0 / p))
    return _breakdown(
        ctx,
        [sup, ("(int s^(-1/p))^p", base.value**p)],
        p * base.rel_error + 1e-10 + ctx.R.rel_error,
    )


def _build_t2_16(ctx: _Ctx):
    p, q = ctx.exps["p"], ctx.exps["q"]
    Rp = ctx.integral((ctx.R.spec, p))
    if ctx.mode == "as_printed":
        lead_name, lead = "(p+1)^(1/p)", (p + 1.0) ** (1.0 / p)
    else:
        lead_name, lead = "(1/(p+1))^(1/q)", (1.0 / (p + 1.0)) ** (1.0 / q)
    return _breakdown(
        ctx,
        [(lead_name, lead), ("(b-a)^p", ctx.width() ** p),
         (f"(int {ctx.R_name}^p)^(1/p)", Rp.value ** (1.0 / p))],
        (1.0 / p) * (Rp.rel_error + p * ctx.R.rel_error),
    )


def _build_c2_1(ctx: _Ctx):
    p = ctx.exps["p"]
    Rp = ctx.integral((ctx.R.spec, p))
    pp1 = p * (p + 1.0)
    return _breakdown(
        ctx,
        [
            ("(p+1)^(1/(p(p+1)))", (p + 1.0) ** (1.0 / pp1)),
            ("(b-a)^(p/(p+1))", ctx.width() ** (p / (p + 1.0))),
            (f"(int {ctx.R_name}^p)^(1/(p(p+1)))", Rp.value ** (1.0 / pp1)),
        ],
        (1.0 / pp1) * (Rp.rel_error + p * ctx.R.rel_error),
    )


def _build_t2_18(ctx: _Ctx):
    p = ctx.exps["p"]
    return _breakdown(ctx, [("(b-a)^p", ctx.width() ** p)], 0.0)


def _build_t2_20(ctx: _Ctx):
    p, q, s_exp = ctx.exps["p"], ctx.exps["q"], ctx.exps["k"]
    params = special.BoydParams(p * q, q, s_exp)
    n_val, n_rel = special.boyd_N_result(params, tol=1e-10)
    Rp = ctx.integral((ctx.R.spec, p))
    return _breakdown(
        ctx,
        [
            ("p+1", p + 1.0),
            ("N^(1/q)(pq,q,s)", n_val ** (1.0 / q)),
            ("(b-a)^p", ctx.width() ** p),
            (f"(int {ctx.R_name}^p)^(1/p)", Rp.value ** (1.0 / p)),
        ],
        n_rel / q + (1.0 / p) * Rp.rel_error + ctx.R.rel_error,
    )


def _build_t2_22(ctx: _Ctx):
    p, q = ctx.exps["p"], ctx.exps["q"]
    l_val = special.boyd_L(p * q, q, mode=ctx.mode)
    Rp = ctx.integral((ctx.R.spec, p))
    return _breakdown(
        ctx,
        [
            ("p+1", p + 1.0),
            ("L^(1/q)(pq,q)", l_val ** (1.0 / q)),
            ("(b-a)^p", ctx.width() ** p),
            (f"(int {ctx.R_name}^p)^(1/p)", Rp.value ** (1.0 / p)),
        ],
        (1.0 / p) * Rp.rel_error + ctx.R.rel_error + 1e-12,
    )


def _k1_with_mode(ctx: _Ctx):
    """K1/K2(a,b,pq,q) with the printed or substitution-consistent
    r-exponent; printed uses (pq+q)/p, derived (pq+q)/(pq)."""
    p, q = ctx.exps["p"], ctx.exps["q"]
    pq = p * q
    er = (pq + q) / p if ctx.mode == "as_printed" else (pq + q) / pq
    return _beesack_integral(
        ctx.r, ctx.s, er, -q / pq, pq + q - 1.0, -1.0 / (pq + q - 1.0),
        "head" if ctx.side == "left" else "tail", ctx.interval, ctx.interval,
        ctx.tol, (q / (pq + q)) ** (q / (pq + q)), pq / (pq + q),
    )


def _beesack_factors(ctx: _Ctx, k_name, kv, k_rel):
    """(p+1) K^(1/q) (int R^p r^(-1/q))^(1/p), shared by T2.27 and T2.30."""
    p, q = ctx.exps["p"], ctx.exps["q"]
    mix = ctx.integral((ctx.R.spec, p), (ctx.r, -1.0 / q))
    k_name = ("K1" if ctx.side == "left" else "K2") + k_name
    return _breakdown(
        ctx,
        [
            ("p+1", p + 1.0),
            (k_name, kv ** (1.0 / q)),
            (f"(int {ctx.R_name}^p/r^(1/q))^(1/p)", mix.value ** (1.0 / p)),
        ],
        k_rel / q + (1.0 / p) * (mix.rel_error + p * ctx.R.rel_error),
    )


def _build_t2_27(ctx: _Ctx):
    k1, k1_rel = _k1_with_mode(ctx)
    return _beesack_factors(ctx, "^(1/q)(a,b,pq,q)", k1, k1_rel)


def _build_t2_30(ctx: _Ctx):
    if ctx.mode == "as_printed":
        raise PreconditionFailed(
            "as printed this constant sets k = q, which violates 0 < q < k; "
            "the k-free as_derived form is the supported reading"
        )
    p, q, k = ctx.exps["p"], ctx.exps["q"], ctx.exps["k"]
    kv, k_rel = beesack_K(
        ExponentSet(p=p, q=q, k=k, conjugate_check=False),
        ctx.r,
        ctx.s,
        ctx.interval,
        side=ctx.side,
        substituted=True,
        tol=ctx.tol,
    )
    return _beesack_factors(ctx, "^(1/q)(pq,q,k)", kv, k_rel)


def _build_hardy(ctx: _Ctx):
    p = ctx.exps["p"]
    return _breakdown(ctx, [("(p/(p-1))^p", (p / (p - 1.0)) ** p)], 0.0)


# -- lemma builders (ctx.side is the lemma's boundary) -------------------------


def _build_opial(ctx: _Ctx):
    return _breakdown(ctx, [("(b-a)/4", ctx.width() / 4.0)], 0.0)


def _build_b1(ctx: _Ctx):
    name, value = (("b/2", ctx.interval.b / 2.0) if ctx.mode == "as_printed"
                   else ("(b-a)/2", ctx.width() / 2.0))
    _require(value > 0, "printed constant b/2 is nonpositive on this interval; "
                        "use as_derived")
    return _breakdown(ctx, [(name, value)], 0.0)


def _build_inv(name, e, power, divisor):
    """The builder of (int s^e)^power / divisor, where e, power and divisor
    are functions of p (B2, Y, M1 and AG)."""
    def build(ctx: _Ctx):
        p = ctx.exps.get("p")
        inv, k = ctx.integral((ctx.s, e(p))), power(p)
        return _breakdown(ctx, [(name, inv.value**k / divisor(p))], k * inv.rel_error)

    return build


_build_half_inv = _build_inv("(int 1/s)/2", lambda p: -1.0, lambda p: 1.0, lambda p: 2.0)
_build_m1 = _build_inv("(int (1/s)^(p-1))^(2/p)/2", lambda p: -(p - 1.0), lambda p: 2.0 / p,
                       lambda p: 2.0)
_build_ag = _build_inv("(int s^(-1/p))^p/(p+1)", lambda p: -1.0 / p, lambda p: p,
                       lambda p: p + 1.0)


def _build_h1(ctx: _Ctx):
    p = ctx.exps["p"]
    return _breakdown(ctx, [("(b-a)^p/(p+1)", ctx.width()**p / (p + 1.0))], 0.0)


def _build_bw1(ctx: _Ctx):
    p = ctx.exps["p"]
    res = eigen.solve_smallest(eigen.EigenProblem(
        ctx.s, eigen._derivative_fn(ctx.r, ctx.interval), p, ctx.interval, "both"),
        tol=1e-8)
    return _breakdown(ctx, [("1/((p+1) lambda0)", 1.0 / (res.value * (p + 1.0)))],
                      res.rel_error)


def _build_y1(ctx: _Ctx):
    p, q = ctx.exps["p"], ctx.exps["q"]
    return _breakdown(ctx, [("q/(p+q)", q / (p + q)), ("(b-a)^p", ctx.width()**p)], 0.0)


def _build_boyd(ctx: _Ctx):
    p = ctx.exps["p"]
    n_val, n_rel = special.boyd_N_result(special.BoydParams(p, ctx.exps["q"],
                                                            ctx.exps["k"]))
    return _breakdown(ctx, [("N(nu,eta,s)", n_val), ("(b-a)^nu", ctx.width()**p)], n_rel)


def _build_l0(ctx: _Ctx):
    p = ctx.exps["p"]
    return _breakdown(ctx, [("L(nu,eta)", special.boyd_L(p, ctx.exps["q"], mode=ctx.mode)),
                            ("(b-a)^nu", ctx.width()**p)], 0.0)


def _build_z(ctx: _Ctx):
    e = ExponentSet(p=ctx.exps["p"], q=ctx.exps["q"], conjugate_check=False)
    side = "head" if ctx.side == "left" else "tail"
    value, rel = _beesack_das_core(e, ctx.r, ctx.s, ctx.interval, ctx.interval, side,
                                   ctx.tol)
    return _breakdown(ctx, [("K1(a,b,p,q)" if side == "head" else "K2(a,b,p,q)", value)],
                      rel)


def _build_bs(ctx: _Ctx):
    e = ExponentSet(**ctx.exps, conjugate_check=False)
    value, rel = beesack_K(e, ctx.r, ctx.s, ctx.interval, side=ctx.side,
                           substituted=False, tol=ctx.tol)
    return _breakdown(ctx, [("K1(p,q,k)" if ctx.side == "left" else "K2(p,q,k)", value)],
                      rel)


# -- parameter checks --------------------------------------------------------


def _require(holds, message):
    if not holds:
        raise PreconditionFailed(message)


def _reads(*names, require=None):
    """The check of a row that reads the exponents p, q, k, in that order,
    as many as it names (``names`` are their names in messages); each one
    it reads is required, and ``require(x)`` checks the rest of its
    hypotheses."""
    def check(e: ExponentSet):
        x = {}
        for attr, name in zip("pqk", names):
            value = getattr(e, attr)
            _require(value is not None, f"{name} required")
            x[attr] = float(value)
        if require is not None:
            require(x)
        return x

    return check


def _check_pint(minimum):
    """p an integer >= minimum."""
    return _reads("p", require=lambda x: _require(
        x["p"] >= minimum and x["p"].is_integer(),
        f"p must be an integer >= {minimum}, got {x['p']}"))


_check_p_above_1 = _reads("p", require=lambda x: _require(
    x["p"] > 1, f"p > 1 required, got {x['p']}"))


def _check_conjugate(e: ExponentSet):
    p, q = _conjugate_pair(e)
    return {"p": p, "q": q}


def _check_conj_int(e: ExponentSet):
    p, q = _conjugate_pair(e)
    _require(float(p).is_integer(), f"p must be an integer > 1, got {p}")
    return {"p": p, "q": q}


def _check_boyd(e: ExponentSet):
    p, q = _conjugate_pair(e)
    _require(e.k is not None, "the Boyd integrability exponent (k) is required")
    s_exp = float(e.k)
    _require(s_exp > 1 and 0 <= q < s_exp, f"s > 1 and 0 <= q < s required (q={q}, s={s_exp})")
    return {"p": p, "q": q, "k": s_exp}


def _check_beesack_k(e: ExponentSet):
    x = _check_pq_gt1(e)
    _require(e.k is not None, "the integrability exponent k is required")
    k, q = float(e.k), x["q"]
    _require(k > 1 and 0 < q < k, f"k > 1 and 0 < q < k required (q={q}, k={k})")
    return {**x, "k": k}


def _check_pq_gt1(e: ExponentSet):
    p, q = _conjugate_pair(e)
    _require(p > 1 and q > 1, "p, q > 1 required")
    return {"p": p, "q": q}


# -- registry ----------------------------------------------------------------


def _pair(left, right, build, check, lhs, rhs, **fields):
    """The rows of a theorem and its mirror (None: no mirror)."""
    return {ident: Row(ident, (side,), build, check, lhs, rhs, **fields)
            for ident, side in ((left, "left"), (right, "right")) if ident}


# the sides as functions of the resolved exponents x: lhs (P, d), rhs (E, outer)
_F2 = lambda x: (2.0, 2.0)  # int r F^2
_FP1 = lambda x: (x["p"] + 1.0, x["p"] + 1.0)  # int r F^(p+1)
_ROOT_FP1 = lambda x: (x["p"] + 1.0, 1.0)  # (int r F^(p+1))^(1/(p+1))
_f2 = lambda x: (2.0, None)  # int [w] f^2
_fp1 = lambda x: (x["p"] + 1.0, None)  # int [w] f^(p+1)
_fk = lambda x: (x["k"], (x["p"] + 1.0) / x["k"])  # (int [s] f^k)^((p+1)/k)


def _f_pp1(outer):
    """(int f^(p(p+1)/(p-1)))^outer(p)."""
    return lambda x: (x["p"] * (x["p"] + 1.0) / (x["p"] - 1.0), outer(x["p"]))


THEOREMS: dict = {
    **_pair("T2.1", "T2.2", _build_t2_1, _reads(), lambda x: (1.0, 2.0), _f2,
            rhs_weight="s"),
    **_pair("T2.3", "T2.4", _build_t2_3, _reads(), _F2, _f2),
    **_pair("T2.5", "T2.6", _build_t2_5, _reads(), _F2, _f2, rhs_weight="s"),
    **_pair("T2.7", "T2.8", _build_t2_7, _check_conjugate, _F2,
            lambda x: (x["q"], 2.0 / x["q"]), rhs_weight="s"),
    **_pair("T2.9", "T2.10", _build_t2_9, _reads(), _F2, _f2, rhs_weight="R*s"),
    **_pair("T2.11", "T2.12", _build_t2_11, _check_pint(1), _FP1, _fp1),
    **_pair("T2.13", None, _build_t2_13, _check_pint(1), _FP1, _fp1,
            rhs_weight="s"),
    **_pair("T2.14", "T2.15", _build_t2_14, _check_pint(1), _FP1, _fp1,
            rhs_weight="s"),
    **_pair("T2.16", "T2.17", _build_t2_16, _check_conj_int, _FP1,
            _f_pp1(lambda p: (p - 1.0) / p), modes_differ=True),
    **_pair("T2.18", "T2.19", _build_t2_18, _check_pint(0), _FP1, _fp1,
            rhs_weight="R"),
    **_pair("T2.20", "T2.21", _build_t2_20, _check_boyd, _FP1, _fk),
    # the typeset right side of the L-based pair carries outer power p+1 on
    # int f^q, which is not f-homogeneous; the chain supports (p+1)/q.  The
    # constant defaults to the typeset L: restoring the dropped Gamma-ratio
    # power makes it smaller than the sharp one (e.g. 0.0159 < 0.213 at
    # (nu, eta) = (4, 2)) and the bound numerically false, while the typeset
    # value stays above the Boyd limit on the conjugate (pq, q) range.  Both
    # readings remain available per instance.
    **_pair("T2.22", "T2.23", _build_t2_22, _check_pq_gt1, _FP1,
            lambda x: (x["q"], (x["p"] + 1.0) / x["q"]), modes_differ=True),
    **_pair("T2.27", "T2.28", _build_t2_27, _check_pq_gt1, _FP1,
            lambda x: (x["p"] * x["q"] + x["q"], 1.0 / x["q"]),
            rhs_weight="s", modes_differ=True),
    # printed k = q is vacuous there, so the k-free derived reading is default
    **_pair("T2.30", "T2.31", _build_t2_30, _check_beesack_k, _FP1, _fk,
            rhs_weight="s", modes_differ=True, default_mode="as_derived"),
    **_pair("C2.1a", "C2.1b", _build_c2_1, _check_conj_int, _ROOT_FP1,
            _f_pp1(lambda p: (p - 1.0) / (p * (p + 1.0)))),
    **_pair("C2.2a", "C2.2b", _build_c2_1, _check_conj_int, _ROOT_FP1,
            _f_pp1(lambda p: (p - 1.0) / (p * (p + 1.0)))),
    **_pair("HARDY", None, _build_hardy, _check_p_above_1, lambda x: (x["p"], x["p"]),
            lambda x: (x["p"], None), lhs_weight="x-a"),
}


def _lemma(ident, sides, build, check=_reads(), P=lambda x: 1.0, E=lambda x: 2.0,
           outer=None, Q=lambda x: 1.0, lhs_weight="", **fields):
    """A lemma's row: int [r] |y|^P |y'|^Q <= C (int [weights] |y'|^E)^outer."""
    return Row(ident, sides, build, check, lambda x: (P(x), None),
               lambda x: (E(x), None if outer is None else outer(x)), Q=Q,
               lhs_weight=lhs_weight, **fields)


_ONE_END = ("left", "right")
_BOYD_NAMES = ("nu (pass as p)", "eta (pass as q)", "s (pass as k)")
_P, _Q = (lambda x: x["p"]), (lambda x: x["q"])


def _y(ident, **fields):
    """Y1, and Y2 with the weight r."""
    return _lemma(ident, _ONE_END, _build_y1,
                  _reads("p", "q", require=lambda x: _require(
                      x["p"] >= 0 and x["q"] >= 1,
                      f"p >= 0 and q >= 1 required (p={x['p']}, q={x['q']})")),
                  P=_P, Q=_Q, E=lambda x: x["p"] + x["q"], **fields)


def _z(ident, side):
    return _lemma(ident, (side,), _build_z, _reads("p", "q"), P=_P, Q=_Q,
                  E=lambda x: x["p"] + x["q"], lhs_weight="r", rhs_weight="s")


def _bs(ident, side):
    return _lemma(ident, (side,), _build_bs, _reads("p", "q", "k"), P=_P, Q=_Q,
                  E=lambda x: x["k"], outer=lambda x: (x["p"] + x["q"]) / x["k"],
                  lhs_weight="r", rhs_weight="s")


LEMMAS: dict = {row.ident: row for row in (
    _lemma("OPIAL", ("both",), _build_opial),
    _lemma("B1", _ONE_END, _build_b1),
    _lemma("B2", _ONE_END, _build_half_inv, rhs_weight="s"),
    _lemma("M1", _ONE_END, _build_m1, _check_p_above_1, E=lambda x: x["p"] / (x["p"] - 1.0),
           outer=lambda x: 2.0 / (x["p"] / (x["p"] - 1.0)), rhs_weight="s"),
    _lemma("Y", _ONE_END, _build_half_inv, lhs_weight="r", rhs_weight="sr",
           monotone=True),
    _lemma("H1", _ONE_END, _build_h1, _check_pint(1), P=_P, E=lambda x: x["p"] + 1.0),
    _lemma("BW1", _ONE_END + ("both",), _build_bw1, _check_pint(1), P=_P,
           E=lambda x: x["p"] + 1.0, lhs_weight="r", rhs_weight="s"),
    _lemma("AG", _ONE_END, _build_ag, _check_pint(1), P=_P, E=lambda x: x["p"] + 1.0,
           rhs_weight="s"),
    _y("Y1"),
    _y("Y2", lhs_weight="r", rhs_weight="r", monotone=True),
    _lemma("BOYD", _ONE_END, _build_boyd, _reads(*_BOYD_NAMES), P=_P, Q=_Q,
           E=lambda x: x["k"], outer=lambda x: (x["p"] + x["q"]) / x["k"]),
    _lemma("L0", _ONE_END, _build_l0, _reads(*_BOYD_NAMES[:2]), P=_P, Q=_Q, E=_Q,
           outer=lambda x: (x["p"] + x["q"]) / x["q"]),
    _z("Z1", "left"),
    _z("Z4", "right"),
    _bs("BS1", "left"),
    _bs("BS2", "right"),
)}

THEOREM_IDS = tuple(sorted(THEOREMS))

# every lemma reads as printed: L0's typeset L is the sound reading, as for
# the L-based theorems
DEFAULT_MODES = {ident: row.default_mode for ident, row in {**THEOREMS, **LEMMAS}.items()}

_ALIASES = {"HARDY_CLASSICAL": "HARDY"}


# every accepted spelling of each theorem id, upper case: its dot (an id
# has one at most) may be an underscore
_SPELLED = {spelling: known for known in THEOREMS
            for spelling in (known.upper(), known.upper().replace(".", "_"))}


def canonical_id(ident: str) -> str:
    ident = ident.strip()
    ident = _ALIASES.get(ident.upper(), ident)
    known = _SPELLED.get(ident.upper())
    if known is None:
        raise DomainError(f"unknown theorem id {ident!r}")
    return known


def theorem_info(ident: str) -> Row:
    return THEOREMS[canonical_id(ident)]


@functools.cache
def lemma_row(ident: str, side: str) -> Row:
    """The row of lemma ``ident`` at the boundary ``side``: a row with that
    one side, made once per (ident, side)."""
    row = LEMMAS.get(ident)
    if row is None:
        raise DomainError(f"unknown variant {ident!r}")
    if side not in row.sides:
        raise PreconditionFailed(f"{ident} requires boundary in {row.sides}, got {side!r}")
    return replace(row, sides=(side,))


def resolve_mode(ident: str, mode: str) -> str:
    """The mode of a theorem id or a lemma id, "default" resolved."""
    if mode in (None, "default"):
        return DEFAULT_MODES[ident if ident in LEMMAS else canonical_id(ident)]
    if mode not in ("as_printed", "as_derived"):
        raise DomainError(f"unknown mode {mode!r}")
    return mode


def resolve(ident: str, r, s, e: Optional[ExponentSet], mode: str,
            side: Optional[str] = None):
    """(ident, row, mode, exponents) of one instance: the canonical id, its
    row, the resolved mode and the checked exponents.  A lemma instance
    names its boundary ``side`` and gets the lemma's row at that side; a
    theorem instance (side None) gets its theorem's row.  Raises
    PreconditionFailed where a weight the row takes is missing or the
    exponents violate its hypotheses."""
    if side is None:
        ident = canonical_id(ident)
        info = THEOREMS[ident]
    else:
        info = lemma_row(ident, side)
    mode = resolve_mode(ident, mode)
    for name, needed, weight in (("s", info.needs_s, s), ("r", info.needs_r, r)):
        if needed and weight is None:
            raise PreconditionFailed(f"{ident} needs the weight {name}")
    return ident, info, mode, info.check(e if e is not None else ExponentSet())


def check_weights(info: Row, r, s, interval: fs.Interval) -> None:
    """Raise the InvalidSpec of a weight spec that is invalid or negative
    inside the interval: r wherever given, s where the row takes it.  A
    monotone lemma's r must not grow away from its vanishing end."""
    weights = [w for w, read in ((r, True), (s, info.needs_s)) if read and w is not None]
    for error in fs.nonnegativity_errors(weights, interval):
        if error is not None:
            raise error
    if info.monotone:
        xs = np.linspace(interval.a, interval.b, 257)
        vals = fs.evaluate_array(r, xs, interval)
        slack = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
        growth = np.diff(vals) if info.side == "left" else -np.diff(vals)
        direction = "nonincreasing" if info.side == "left" else "nondecreasing"
        _require(not np.any(growth > slack),
                 f"the left-side weight must be {direction} for this boundary")


def hardy_constant(
    ident: str,
    r,
    s,
    e: ExponentSet,
    interval: fs.Interval,
    mode: str = "default",
    tol: Optional[float] = None,
    side: Optional[str] = None,
) -> ConstantBreakdown:
    """The multiplicative constant of one catalog inequality.

    r and s are weight specs; rows that take no second weight ignore s.
    A lemma's constant takes the lemma id and its boundary ``side``.
    Raises PreconditionFailed when a weight is missing or the exponents
    violate the stated hypotheses and NonIntegrable when a weight integral
    in the constant diverges.
    """
    ident, info, mode, exps = resolve(ident, r, s, e, mode, side)
    check_weights(info, r, s, interval)
    ctx = _Ctx(
        r=r,
        s=s if info.needs_s else None,
        e=e,
        interval=interval,
        mode=mode,
        tol=tol or quad.SMOOTH_TOL,
        side=info.side,
        exps=exps,
        rhs_weight=info.rhs_weight,
    )
    return info.build(ctx)
