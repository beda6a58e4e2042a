"""Direct verification of the Opial-type lemmas on explicit test paths.

Every Hardy bound in the catalog is an application of one of these
inequalities to the cumulative F of f, so checking the lemmas on
absolutely continuous paths y (with exact structural derivatives) is the
ground layer of the whole verifier.

A path is a pair (y, y'): the derivative is carried symbolically
(piecewise-linear paths differentiate to steps, power paths to power
laws), which removes numerical differentiation from the error budget
entirely.  Weights are passed as {"r": ..., "s": ...} where r multiplies
the left-hand side and s the right-hand side; single-weight variants use
"s" (Y2 carries r on both sides).

Each lemma is one row of a table: the left side [r] |y|^P |y'|^Q, the
right side ([weights] |y'|^E)^outer, and the constant -- a closed form,
(int s^e)^k over a divisor, the eigenvalue solve, Boyd's N or L, or a
Beesack constant.  A check integrates both sides, and the integral in the
constant where it has one, in one ``quad.integrate_many`` call.

The report type and the ratio rule are shared with the theorem verifier:
Holds when ratio <= 1 + budget, Violated above 1 + 10*budget,
Inconclusive between, where budget sums the relative errors of the left
side, the right side and the constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import constants as ct
from . import eigen
from . import funcspace as fs
from . import quad
from . import special
from .errors import DomainError, HopialError, PreconditionFailed

__all__ = [
    "OpialVariant",
    "TestPath",
    "VerificationReport",
    "VARIANT_IDS",
    "variant",
    "linear_path",
    "hat_path",
    "power_path",
    "path_from_spec",
    "random_paths",
    "reflect_spec",
    "opial_lhs",
    "verify_variant",
    "classify_status",
    "judge",
    "report",
]

# ---------------------------------------------------------------------------
# the lemmas as data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Lemma:
    """A lemma: lhs = [r] |y|^P |y'|^Q and rhs = ([weights] |y'|^E)^outer,
    both integrated on the path, and ``constant(c)`` = (value, relative
    error).  Exponents, checks and the constant are functions of the
    check's inputs c (see ``_inputs``).  ``needs`` names the exponents p,
    q, k the lemma reads, in that order.  With ``inv`` set, the constant
    reads c.inv, the integral of s^inv(c)."""

    boundaries: tuple
    constant: Callable
    needs: tuple = ()
    check: Optional[Callable] = None
    left_weight: bool = False
    P: Callable = lambda c: 1.0
    Q: Callable = lambda c: 1.0
    right_weights: str = ""
    E: Callable = lambda c: 2.0
    outer: Optional[Callable] = None
    inv: Optional[Callable] = None
    monotone: bool = False  # r must not grow away from the vanishing end


def _require(holds, message):
    if not holds:
        raise PreconditionFailed(message)


def _integer_p(c):
    _require(c.p >= 1 and float(c.p).is_integer(),
             f"p must be a positive integer, got {c.p}")


def _b1_constant(c):
    constant = (c.iv.b / 2.0) if c.mode == "as_printed" else (c.iv.width / 2.0)
    _require(constant > 0, "printed constant b/2 is nonpositive on this interval; "
                           "use as_derived")
    return constant, 0.0


def _half_inv(c):
    """(int 1/s) / 2."""
    return c.inv.value / 2.0, c.inv.rel_error


def _bw1_constant(c):
    m_fn, _ = eigen._derivative_fn(c.r, c.iv)
    res = eigen.solve_smallest(eigen.EigenProblem(c.s, m_fn, c.p, c.iv, "both"),
                               tol=1e-8)
    return 1.0 / (res.value * (c.p + 1.0)), res.rel_error


def _boyd_constant(c):
    n_val, n_rel = special.boyd_N_result(special.BoydParams(c.p, c.q, c.k))
    return n_val * c.iv.width**c.p, n_rel


def _beesack_das_constant(c):
    e = ct.ExponentSet(p=c.p, q=c.q, conjugate_check=False)
    return ct._beesack_das_core(e, c.r, c.s, c.iv, c.iv,
                                "head" if c.boundary == "left" else "tail", None)


def _beesack_constant(c):
    e = ct.ExponentSet(p=c.p, q=c.q, k=c.k, conjugate_check=False)
    return ct.beesack_K(e, c.r, c.s, c.iv, side=c.boundary, substituted=False)


_ONE_END = ("left", "right")
_BOYD_NAMES = ("nu (pass as p)", "eta (pass as q)", "s (pass as k)")


def _y(**fields):
    """Y1, and Y2 with the weight r."""
    return _Lemma(
        _ONE_END, lambda c: ((c.q / (c.p + c.q)) * c.iv.width**c.p, 0.0), ("p", "q"),
        lambda c: _require(c.p >= 0 and c.q >= 1,
                           f"p >= 0 and q >= 1 required (p={c.p}, q={c.q})"),
        P=lambda c: c.p, Q=lambda c: c.q, E=lambda c: c.p + c.q, **fields)


def _z(boundary):
    return _Lemma((boundary,), _beesack_das_constant, ("p", "q"), left_weight=True,
                  P=lambda c: c.p, Q=lambda c: c.q, right_weights="s",
                  E=lambda c: c.p + c.q)


def _bs(boundary):
    return _Lemma((boundary,), _beesack_constant, ("p", "q", "k"), left_weight=True,
                  P=lambda c: c.p, Q=lambda c: c.q, right_weights="s",
                  E=lambda c: c.k, outer=lambda c: (c.p + c.q) / c.k)


_LEMMAS = {
    "OPIAL": _Lemma(("both",), lambda c: (c.iv.width / 4.0, 0.0)),
    "B1": _Lemma(_ONE_END, _b1_constant),
    "B2": _Lemma(_ONE_END, _half_inv, right_weights="s", inv=lambda c: -1.0),
    "M1": _Lemma(
        _ONE_END,
        lambda c: (c.inv.value ** (2.0 / c.p) / 2.0, (2.0 / c.p) * c.inv.rel_error),
        ("p",), lambda c: _require(c.p > 1, f"p > 1 required, got {c.p}"),
        right_weights="s", E=lambda c: c.p / (c.p - 1.0),
        outer=lambda c: 2.0 / (c.p / (c.p - 1.0)), inv=lambda c: -(c.p - 1.0),
    ),
    "Y": _Lemma(_ONE_END, _half_inv, left_weight=True, right_weights="sr",
                inv=lambda c: -1.0, monotone=True),
    "H1": _Lemma(_ONE_END, lambda c: (c.iv.width**c.p / (c.p + 1.0), 0.0), ("p",),
                 _integer_p, P=lambda c: c.p, E=lambda c: c.p + 1.0),
    "BW1": _Lemma(_ONE_END + ("both",), _bw1_constant, ("p",), _integer_p,
                  left_weight=True, P=lambda c: c.p, right_weights="s",
                  E=lambda c: c.p + 1.0),
    "AG": _Lemma(_ONE_END, lambda c: (c.inv.value**c.p / (c.p + 1.0),
                                      c.p * c.inv.rel_error),
                 ("p",), _integer_p, P=lambda c: c.p, right_weights="s",
                 E=lambda c: c.p + 1.0, inv=lambda c: -1.0 / c.p),
    "Y1": _y(),
    "Y2": _y(left_weight=True, right_weights="r", monotone=True),
    "BOYD": _Lemma(_ONE_END, _boyd_constant, _BOYD_NAMES, P=lambda c: c.p,
                   Q=lambda c: c.q, E=lambda c: c.k, outer=lambda c: (c.p + c.q) / c.k),
    "L0": _Lemma(_ONE_END, lambda c: (special.boyd_L(c.p, c.q, mode=c.mode)
                                      * c.iv.width**c.p, 0.0),
                 _BOYD_NAMES[:2], P=lambda c: c.p, Q=lambda c: c.q, E=lambda c: c.q,
                 outer=lambda c: (c.p + c.q) / c.q),
    "Z1": _z("left"),
    "Z4": _z("right"),
    "BS1": _bs("left"),
    "BS2": _bs("right"),
}

VARIANT_IDS = tuple(_LEMMAS)

# L0 included: the typeset L (no Gamma-ratio power) is the sound reading,
# see the constants module
DEFAULT_VARIANT_MODES = {ident: "as_printed" for ident in VARIANT_IDS}


@dataclass(frozen=True)
class OpialVariant:
    identifier: str
    boundary: str

    def __post_init__(self):
        if self.identifier not in VARIANT_IDS:
            raise DomainError(f"unknown variant {self.identifier!r}")
        allowed = _LEMMAS[self.identifier].boundaries
        if self.boundary not in allowed:
            raise PreconditionFailed(
                f"{self.identifier} requires boundary in {allowed}, "
                f"got {self.boundary!r}"
            )


def variant(identifier: str, boundary: Optional[str] = None) -> OpialVariant:
    identifier = identifier.upper()
    if boundary is None:
        lemma = _LEMMAS.get(identifier)
        boundary = lemma.boundaries[0] if lemma is not None else "left"
    return OpialVariant(identifier, boundary)


# ---------------------------------------------------------------------------
# test paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestPath:
    """Absolutely continuous path with its exact a.e. derivative."""

    y: fs.FunctionSpec
    dy: fs.FunctionSpec
    interval: fs.Interval

    def scaled(self, c: float) -> "TestPath":
        return TestPath(fs.scale(self.y, c), fs.scale(self.dy, c), self.interval)

    def reflected(self) -> "TestPath":
        iv = self.interval
        return TestPath(
            reflect_spec(self.y, iv),
            fs.scale(reflect_spec(self.dy, iv), -1.0),
            iv,
        )


def check_path(path: TestPath, boundary: str, tol_end: float = 1e-12) -> None:
    """Boundary values and derivative consistency audit."""
    iv = path.interval
    y_prog = fs.compile_program(path.y, iv)
    ya = float(np.asarray(y_prog(np.array([iv.a])))[0])
    yb = float(np.asarray(y_prog(np.array([iv.b])))[0])
    scale_ref = max(float(np.max(np.abs(y_prog(np.linspace(iv.a, iv.b, 64))))), 1e-30)
    if boundary in ("left", "both") and abs(ya) > tol_end * scale_ref:
        raise PreconditionFailed(f"path must vanish at a (y(a)={ya:g})")
    if boundary in ("right", "both") and abs(yb) > tol_end * scale_ref:
        raise PreconditionFailed(f"path must vanish at b (y(b)={yb:g})")
    anti = fs.closed_antiderivative(path.dy, iv)
    xs = np.linspace(iv.a, iv.b, 17)
    if anti is not None:
        recon = fs.compile_program(anti, iv)(xs) + ya
    else:
        recon = np.array(
            [ya]
            + [
                ya + quad.integrate(path.dy, fs.Interval(iv.a, float(x)),
                                    tol=1e-10, home=iv).value
                for x in xs[1:]
            ]
        )
    if float(np.max(np.abs(recon - y_prog(xs)))) > 1e-9 * scale_ref:
        raise PreconditionFailed("derivative is inconsistent with the path")


def linear_path(interval: fs.Interval, boundary: str = "left") -> TestPath:
    if boundary == "left":
        return TestPath(fs.PowerLaw(1.0, 1.0), fs.Constant(1.0), interval)
    return TestPath(fs.ShiftedPowerLaw(1.0, 1.0), fs.Constant(-1.0), interval)


def hat_path(interval: fs.Interval, peak_frac: float = 0.5) -> TestPath:
    """Tent path vanishing at both endpoints; symmetric hats have |y'| = 1."""
    if not 0.0 < peak_frac < 1.0:
        raise DomainError("peak_frac must lie strictly inside (0, 1)")
    a, b = interval.a, interval.b
    peak = a + peak_frac * (b - a)
    height = 2.0 * (peak - a) * (b - peak) / (b - a)
    y = fs.PiecewiseLinear([(a, 0.0), (peak, height), (b, 0.0)])
    return TestPath(y, fs.derivative(y, interval), interval)


def power_path(interval: fs.Interval, alpha: float, boundary: str = "left") -> TestPath:
    if alpha <= 0:
        raise DomainError("power paths need alpha > 0 for absolute continuity")
    if boundary == "left":
        return TestPath(
            fs.PowerLaw(1.0, alpha), fs.PowerLaw(alpha, alpha - 1.0), interval
        )
    return TestPath(
        fs.ShiftedPowerLaw(1.0, alpha),
        fs.ShiftedPowerLaw(-alpha, alpha - 1.0),
        interval,
    )


def path_from_spec(y: fs.FunctionSpec, interval: fs.Interval) -> TestPath:
    dy = fs.derivative(y, interval)
    if dy is None:
        raise DomainError(f"no exact derivative for {type(y).__name__}")
    return TestPath(y, dy, interval)


def random_paths(interval: fs.Interval, boundary: str, count: int, seed: int,
                 n_knots: int = 5) -> list:
    vanish = {"left": "left", "right": "right", "both": "both"}[boundary]
    fam = fs.RandomPiecewiseLinear(
        n_knots=n_knots, value_range=(0.0, 1.0), seed=seed,
        interval=interval, vanish_at=vanish,
    )
    return [path_from_spec(y, interval) for y in fs.sample_family(fam, count)]


def reflect_spec(spec: fs.FunctionSpec, interval: fs.Interval) -> fs.FunctionSpec:
    """The spec x -> spec(a + b - x) on the same interval."""
    m = interval.a + interval.b
    if isinstance(spec, fs.Constant):
        return spec
    if isinstance(spec, fs.PowerLaw):
        return fs.ShiftedPowerLaw(spec.c, spec.alpha)
    if isinstance(spec, fs.ShiftedPowerLaw):
        return fs.PowerLaw(spec.c, spec.alpha)
    if isinstance(spec, fs.Exponential):
        return fs.Exponential(spec.c * math.exp(spec.beta * m), -spec.beta)
    if isinstance(spec, fs.PiecewiseLinear):
        return fs.PiecewiseLinear([(m - x, v) for x, v in reversed(spec.knots)])
    if isinstance(spec, fs.Step):
        return fs.Step(
            [m - x for x in reversed(spec.breaks)], list(reversed(spec.values))
        )
    if isinstance(spec, fs.PiecewisePolynomial) and spec.frames is None:
        new_breaks = [m - x for x in reversed(spec.breaks)]
        rows = []
        for i, row in enumerate(reversed(spec.coeffs)):
            # piece originally on [x0, x1]: value at t' in the mirrored
            # local variable is p((x1 - x0) - t'), expanded binomially
            j = len(spec.coeffs) - 1 - i
            w = spec.breaks[j + 1] - spec.breaks[j]
            deg = len(row) - 1
            new_row = [0.0] * (deg + 1)
            for k_id, c in enumerate(row):
                for j2 in range(k_id + 1):
                    new_row[j2] += (
                        c * math.comb(k_id, j2) * w ** (k_id - j2) * (-1.0) ** j2
                    )
            rows.append(new_row)
        return fs.PiecewisePolynomial(new_breaks, rows)
    if isinstance(spec, fs.Sum):
        return fs.Sum([reflect_spec(t, interval) for t in spec.terms])
    if isinstance(spec, fs.Product):
        return fs.Product([reflect_spec(t, interval) for t in spec.terms])
    if isinstance(spec, fs.Power):
        return fs.Power(reflect_spec(spec.base, interval), spec.exponent)
    if isinstance(spec, fs.AbsVal):
        return fs.AbsVal(reflect_spec(spec.term, interval))
    raise DomainError(f"cannot reflect {type(spec).__name__}")


# ---------------------------------------------------------------------------
# reports and the ratio rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """One check of lhs <= constant * rhs_core: a lemma on a path, or a
    catalog theorem on a test function.  ``error_budget`` is relative;
    ``breakdown`` is a theorem constant's factor table (None for lemmas)."""

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
# checks
# ---------------------------------------------------------------------------


_WEIGHT_NAMES = {"r": "r (the left-side weight)", "s": "s (the right-side weight)"}


def _inputs(lemma, boundary, iv, weights, exponents, mode):
    """The check's inputs c: the exponents p, q, k (None where the lemma
    reads none; each one it reads is required), the interval iv, the
    weights r and s, the mode and the boundary.  c.inv is set once the
    constant's integral is done."""
    values = dict.fromkeys("pqk")
    for attr, name in zip("pqk", lemma.needs):
        value = getattr(exponents, attr, None)
        if value is None:
            raise PreconditionFailed(f"{name} required")
        values[attr] = float(value)
    weights = weights or {}
    return SimpleNamespace(**values, iv=iv, r=weights.get("r"), s=weights.get("s"),
                           mode=mode, boundary=boundary, inv=None)


def _weight(c, key):
    w = getattr(c, key)
    if w is None:
        raise PreconditionFailed(f"variant needs weight {_WEIGHT_NAMES[key]!r}")
    return w


def _abs_pow(spec, exponent):
    if exponent == 0:
        return fs.Constant(1.0)
    return fs.power_of(fs.AbsVal(spec), exponent)


def _lhs_spec(lemma, path, c):
    weight = [_weight(c, "r")] if lemma.left_weight else []
    return fs.Product(weight + [_abs_pow(path.y, lemma.P(c)),
                                _abs_pow(path.dy, lemma.Q(c))])


def _rhs_spec(lemma, path, c):
    terms = [_weight(c, key) for key in lemma.right_weights]
    terms.append(_abs_pow(path.dy, lemma.E(c)))
    return terms[0] if len(terms) == 1 else fs.Product(terms)


def opial_lhs(v: OpialVariant, path: TestPath, weights=None, exponents=None,
              tol: Optional[float] = None) -> quad.QuadResult:
    """Quadrature of the variant's left-hand side on the path."""
    check_path(path, v.boundary)
    lemma = _LEMMAS[v.identifier]
    c = _inputs(lemma, v.boundary, path.interval, weights, exponents, "default")
    return quad.integrate(_lhs_spec(lemma, path, c), path.interval, tol=tol)


def _monotone_audit(w, interval, boundary):
    """The left-side weight must not grow away from the vanishing end."""
    xs = np.linspace(interval.a, interval.b, 257)
    vals = fs.evaluate_array(w, xs, interval)
    slack = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    growth = np.diff(vals) if boundary == "left" else -np.diff(vals)
    if np.any(growth > slack):
        direction = "nonincreasing" if boundary == "left" else "nondecreasing"
        raise PreconditionFailed(
            f"the left-side weight must be {direction} for this boundary")


def verify_variant(
    v: OpialVariant,
    path: TestPath,
    weights=None,
    exponents=None,
    mode: str = "default",
    tol: Optional[float] = None,
) -> VerificationReport:
    """Check the variant's inequality on one path.

    The hypotheses are checked first.  Then the left side, the right side
    and the integral in the constant, where it has one, are integrated in
    one ``integrate_many`` call.
    """
    if mode in (None, "default"):
        mode = DEFAULT_VARIANT_MODES[v.identifier]
    lemma = _LEMMAS[v.identifier]
    iv = path.interval
    check_path(path, v.boundary)
    c = _inputs(lemma, v.boundary, iv, weights, exponents, mode)
    jobs = [quad.Job(_lhs_spec(lemma, path, c), iv, tol)]
    if lemma.check is not None:
        lemma.check(c)
    jobs.append(quad.Job(_rhs_spec(lemma, path, c), iv, tol))
    if lemma.monotone:
        _monotone_audit(c.r, iv, v.boundary)
    if lemma.inv is not None:
        jobs.append(quad.Job(fs.power_of(c.s, lemma.inv(c)), iv, tol))
    lhs, rhs, *inv = quad.integrate_many(jobs)
    # errors surface in the order the sides and the constant are read
    for res in [lhs] + inv:
        if isinstance(res, HopialError):
            raise res
    c.inv = inv[0] if inv else None
    constant, constant_rel = lemma.constant(c)
    if isinstance(rhs, HopialError):
        raise rhs
    if lemma.outer is not None:
        rhs = rhs.raised(lemma.outer(c))
    return report(v.identifier, mode, lhs, rhs, constant, constant_rel,
                  detail=f"boundary={v.boundary}")
