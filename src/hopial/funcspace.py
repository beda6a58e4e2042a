"""Closed catalog of nonnegative functions on an interval.

Weights and test functions are represented structurally (power laws,
exponentials, piecewise linear interpolants, sums/products) instead of as
raw callables, so that downstream code can

* pick quadrature rules from declared endpoint exponents,
* use closed-form antiderivatives and derivatives where they exist,
* compile the tree to a flat program evaluated by the array kernel.

Piecewise-constant steps and piecewise polynomials are internal variants:
they arise as exact derivatives/antiderivatives of the public catalog and
round-trip through JSON like everything else.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import _kernel
from ._kernel.fallback import (OP_ABS, OP_ADD, OP_CONST, OP_EXP, OP_MUL,
                               OP_POW_LEFT, OP_POW_RIGHT, OP_POWER, OP_PPOLY,
                               OP_PWL, OP_STEP)
from .errors import DomainError, HopialError, InvalidSpec

__all__ = [
    "Interval",
    "Constant",
    "PowerLaw",
    "ShiftedPowerLaw",
    "Exponential",
    "PiecewiseLinear",
    "Step",
    "PiecewisePolynomial",
    "Sum",
    "Product",
    "Power",
    "AbsVal",
    "FunctionSpec",
    "FamilySpec",
    "RandomPiecewiseLinear",
    "RandomPowerLaw",
    "GridPowerLaw",
    "validate",
    "evaluate",
    "evaluate_array",
    "derivative",
    "closed_antiderivative",
    "breakpoints",
    "endpoint_structure",
    "scale",
    "power_of",
    "spec_to_json",
    "spec_from_json",
    "sample_family",
    "compile_program",
    "Part",
    "product",
    "plan_groups",
]


@dataclass(frozen=True)
class Interval:
    """Finite open interval (a, b) with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidSpec("interval endpoints must be finite")
        if not self.a < self.b:
            raise InvalidSpec(f"interval requires a < b, got ({self.a}, {self.b})")

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.a - slack <= x <= self.b + slack


# ---------------------------------------------------------------------------
# spec variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    c: float


@dataclass(frozen=True)
class PowerLaw:
    """c * (x - a)^alpha, anchored at the interval's left endpoint."""

    c: float
    alpha: float


@dataclass(frozen=True)
class ShiftedPowerLaw:
    """c * (b - x)^alpha, anchored at the interval's right endpoint."""

    c: float
    alpha: float


@dataclass(frozen=True)
class Exponential:
    """c * exp(beta * x)."""

    c: float
    beta: float


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolant of (x, value) knots; knots strictly increasing."""

    knots: tuple

    def __init__(self, knots):
        object.__setattr__(self, "knots", tuple((float(x), float(v)) for x, v in knots))


@dataclass(frozen=True)
class Step:
    """Right-continuous step: values[i] on [breaks[i], breaks[i+1])."""

    breaks: tuple
    values: tuple

    def __init__(self, breaks, values):
        object.__setattr__(self, "breaks", tuple(map(float, breaks)))
        object.__setattr__(self, "values", tuple(map(float, values)))


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Per-piece polynomials in the local variable (x - breaks[i]).

    The graded form (``frames`` given) holds a running integral.  Piece i,
    from breaks[i] to breaks[i + 1], has the frame (anchor, sign, m, start,
    vbreaks): its variable is v = (sign (x - anchor))^(1/m), and vbreaks
    cut it into segments.  Segment j starts at o = vbreaks[j + start]; with
    t = |v - o| / (vbreaks[j + 1] - vbreaks[j]) in [0, 1], its value is
    c[0] + t * sum_k c[k + 1] T_k(2t - 1) (Chebyshev polynomials T_k) for
    the segment's row c of ``coeffs`` (rows in piece order, then segment
    order).  Monomials in 2t - 1 would lose about two digits at degree 15;
    the factor t makes the value c[0] exactly at the start of the segment.
    ``ends`` declares the (kappa, rho) of ``endpoint_structure`` at the
    left and right ends.
    """

    breaks: tuple
    coeffs: tuple  # coeffs[i][j] multiplies (x - breaks[i])^j
    frames: Optional[tuple] = None
    ends: Optional[tuple] = None

    def __init__(self, breaks, coeffs, frames=None, ends=None):
        object.__setattr__(self, "breaks", tuple(map(float, breaks)))
        object.__setattr__(self, "coeffs", tuple(tuple(map(float, row)) for row in coeffs))
        if frames is not None:
            frames = tuple((float(anchor), float(sign), float(m), int(start),
                            tuple(float(v) for v in vb))
                           for anchor, sign, m, start, vb in frames)
            ends = tuple((float(kappa), float(rho)) for kappa, rho in ends)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "ends", ends)


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))


@dataclass(frozen=True)
class Product:
    terms: tuple

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))


@dataclass(frozen=True)
class Power:
    """base^exponent for a real exponent; base should be sign-definite."""

    base: "FunctionSpec"
    exponent: float


@dataclass(frozen=True)
class AbsVal:
    term: "FunctionSpec"


FunctionSpec = Union[
    Constant,
    PowerLaw,
    ShiftedPowerLaw,
    Exponential,
    PiecewiseLinear,
    Step,
    PiecewisePolynomial,
    Sum,
    Product,
    Power,
    AbsVal,
]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


# validate's checks of a piecewise-linear spec's knots, in their order
_PWL_CHECKS = ("piecewise linear knots must be strictly increasing",
               "piecewise linear knots must cover the interval")


def validate(spec: FunctionSpec, interval: Interval) -> None:
    """Check structural invariants of ``spec`` on ``interval``.

    Raises InvalidSpec on violations.  Signs are not checked here: a sum
    may have negative terms.  ``nonnegativity_errors`` checks the sign
    where the structure decides it (coefficients, knot and step values)
    and probes the rest on a sample grid.
    """
    if isinstance(spec, (Constant, PowerLaw, ShiftedPowerLaw, Exponential)):
        if not math.isfinite(spec.c):
            raise InvalidSpec("coefficient must be finite")
        if isinstance(spec, (PowerLaw, ShiftedPowerLaw)):
            if not math.isfinite(spec.alpha):
                raise InvalidSpec("power-law exponent must be finite")
        if isinstance(spec, Exponential) and not math.isfinite(spec.beta):
            raise InvalidSpec("exponential rate must be finite")
        return
    if isinstance(spec, PiecewiseLinear):
        xs = [x for x, _ in spec.knots]
        if len(xs) < 2:
            raise InvalidSpec("piecewise linear needs at least two knots")
        if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
            raise InvalidSpec(_PWL_CHECKS[0])
        tol = 1e-9 * max(interval.width, 1.0)
        if xs[0] > interval.a + tol or xs[-1] < interval.b - tol:
            raise InvalidSpec(_PWL_CHECKS[1])
        return
    if isinstance(spec, Step):
        if not spec.values:
            raise InvalidSpec("step needs at least one value")
        if len(spec.breaks) != len(spec.values) + 1:
            raise InvalidSpec("step needs len(breaks) == len(values) + 1")
        if any(x1 <= x0 for x0, x1 in zip(spec.breaks, spec.breaks[1:])):
            raise InvalidSpec("step breaks must be strictly increasing")
        return
    if isinstance(spec, PiecewisePolynomial) and not (spec.coeffs and all(spec.coeffs)):
        raise InvalidSpec("piecewise polynomial needs a nonempty coefficient row per piece")
    if isinstance(spec, PiecewisePolynomial) and spec.frames is None:
        if len(spec.breaks) != len(spec.coeffs) + 1:
            raise InvalidSpec("piecewise polynomial needs one coeff row per piece")
        if any(x1 <= x0 for x0, x1 in zip(spec.breaks, spec.breaks[1:])):
            raise InvalidSpec("piecewise polynomial breaks must be strictly increasing")
        return
    if isinstance(spec, PiecewisePolynomial):
        vbs = [vb for *_, vb in spec.frames]
        if (len(spec.breaks) != len(vbs) + 1 or len(spec.ends) != 2
                or sum(len(vb) - 1 for vb in vbs) != len(spec.coeffs)):
            raise InvalidSpec("graded polynomial needs a frame per piece and a row "
                              "per segment")
        if any(x1 <= x0 for x0, x1 in zip(spec.breaks, spec.breaks[1:])) or any(
                v1 <= v0 for vb in vbs for v0, v1 in zip(vb, vb[1:])):
            raise InvalidSpec("graded polynomial breaks must be strictly increasing")
        return
    if isinstance(spec, (Sum, Product)):
        if not spec.terms:
            raise InvalidSpec(f"{type(spec).__name__} must be nonempty")
        for term in spec.terms:
            validate(term, interval)
        return
    if isinstance(spec, Power):
        if not math.isfinite(spec.exponent):
            raise InvalidSpec("power exponent must be finite")
        validate(spec.base, interval)
        return
    if isinstance(spec, AbsVal):
        validate(spec.term, interval)
        return
    raise _not_a_spec(spec)


def _not_a_spec(obj) -> InvalidSpec:
    """The one error for an integrand or weight that is no spec."""
    return InvalidSpec(
        f"{type(obj).__name__} is not a function spec: an integrand or weight is one of "
        f"{', '.join(kind.__name__ for kind in _VARIANT_NAMES)} (in JSON, an object that "
        'spec_from_json reads, such as {"variant": "PowerLaw", "c": 1, "alpha": 0.5})')


def validate_nonnegative(spec: FunctionSpec, interval: Interval, samples: int = 64) -> None:
    """Validate plus the nonnegativity check of ``nonnegativity_errors``."""
    error = nonnegativity_errors([spec], interval, samples)[0]
    if error is not None:
        raise error


def _negative(values) -> bool:
    """Whether a value lies below -1e-12 max(1, max |v|), the probe's
    tolerance."""
    return min(values) < -1e-12 * max(1.0, max(abs(v) for v in values))


def _sign_values(spec: FunctionSpec, interval: Interval):
    """The values that decide the sign of a leaf on the interval, or None
    where its structure does not decide it: the coefficient of a constant,
    power law or exponential, the knot values inside the interval and the
    interpolated values at its ends for a piecewise-linear spec, the values
    of the steps that meet it for a step."""
    a, b = interval.a, interval.b
    if isinstance(spec, (Constant, PowerLaw, ShiftedPowerLaw, Exponential)):
        return (spec.c,)
    if isinstance(spec, PiecewiseLinear):
        xs, vs = zip(*spec.knots)
        values = [v for x, v in spec.knots if a <= x <= b]
        between = [end for end in (a, b) if end not in xs]
        if between:
            values += np.interp(between, xs, vs).tolist()
    elif isinstance(spec, Step):
        last = len(spec.values) - 1
        lo = min(max(bisect.bisect_right(spec.breaks, a) - 1, 0), last)
        hi = min(max(bisect.bisect_left(spec.breaks, b) - 1, 0), last)
        values = spec.values[lo : hi + 1]
    else:
        return None
    return values if values and all(math.isfinite(v) for v in values) else None


def _structural_sign(spec: FunctionSpec, interval: Interval) -> Optional[bool]:
    """True where the structure proves spec >= 0 on the interval, False
    where it proves a negative value, None where it does not decide: a
    sum or product is proven nonnegative when all of its terms are."""
    values = _sign_values(spec, interval)
    if values is not None:
        return not _negative(values)
    if isinstance(spec, (Sum, Product)) and all(
            _structural_sign(term, interval) for term in spec.terms):
        return True
    return None


_NEGATIVE = "spec is negative inside the interval"


def nonnegativity_errors(specs: Sequence[FunctionSpec], interval: Interval,
                         samples: int = 64) -> list:
    """``validate_nonnegative`` of every spec: None, or the InvalidSpec it
    raises, per spec.  The sign is decided by the structure where it can
    be: piecewise-linear specs with as many knots as one array
    (``_pwl_signs``), any other spec by ``_structural_sign``.  The rest
    are evaluated at both ends and on both sides of each interior
    breakpoint, and probed at ``samples`` interior points."""
    errors: list = [None] * len(specs)
    probed = []
    for i in _pwl_signs(specs, interval, errors):
        try:
            validate(specs[i], interval)
            sign = _structural_sign(specs[i], interval)
            if sign is None:
                probed.append(i)
            elif not sign:
                errors[i] = InvalidSpec(_NEGATIVE)
        except InvalidSpec as exc:
            errors[i] = exc
    grid = np.linspace(interval.a, interval.b, samples + 2)[1:-1] if probed else None
    for i in probed:
        part = Part(specs[i], interval)
        sides = np.nextafter(np.repeat(part.breaks, 2),
                             np.tile([-math.inf, math.inf], len(part.breaks)))
        inside = np.concatenate([grid, sides])
        row = Program(*part.code)(np.concatenate([inside, [interval.a, interval.b]]))
        values = row[np.isfinite(row)].tolist()  # an end may be singular
        if np.any(np.isnan(row[:len(inside)])):
            errors[i] = InvalidSpec("spec evaluates to NaN inside the interval")
        elif values and _negative(values):
            errors[i] = InvalidSpec(_NEGATIVE)
    return errors


def _pwl_signs(specs: Sequence[FunctionSpec], interval: Interval, errors: list) -> list:
    """The checks of ``nonnegativity_errors`` on the piecewise-linear specs
    with as many knots as another, as one array per knot count: validate's
    order and cover checks, then ``_sign_values``' values (the knot values
    inside the interval and, at an end that is no knot, ``np.interp``'s
    value) against ``_negative``'s tolerance.  Fills in ``errors`` and
    returns the indices of the other specs, and of any whose knots or end
    values are not finite."""
    groups, rest = _knot_groups(specs)
    a, b = interval.a, interval.b
    tol = 1e-9 * max(interval.width, 1.0)
    for at in groups:
        knots = _knot_array([specs[i] for i in at])
        xs, vs = knots[..., 0], knots[..., 1]
        inside = (xs >= a) & (xs <= b)
        least = np.where(inside, vs, math.inf).min(axis=1)
        largest = np.where(inside, np.abs(vs), 0.0).max(axis=1)
        finite = np.isfinite(knots).all(axis=(1, 2))
        for end in (a, b):
            off = ~(xs == end).any(axis=1)  # an end that is no knot
            if off.any():
                with np.errstate(all="ignore"):
                    value = np.where(off, _interp_rows(end, xs, vs), math.inf)
                least = np.minimum(least, value)
                largest = np.maximum(largest, np.where(off, np.abs(value), 0.0))
                finite &= np.isfinite(value) | ~off
        unordered = (xs[:, 1:] <= xs[:, :-1]).any(axis=1)
        uncovered = (xs[:, 0] > a + tol) | (xs[:, -1] < b - tol)
        negative = least < -1e-12 * np.maximum(largest, 1.0)
        for r in np.flatnonzero(unordered | uncovered | ~finite | negative).tolist():
            if unordered[r] or uncovered[r]:
                errors[at[r]] = InvalidSpec(_PWL_CHECKS[0 if unordered[r] else 1])
            elif finite[r]:
                errors[at[r]] = InvalidSpec(_NEGATIVE)
            else:
                rest.append(at[r])
    return rest


def _interp_rows(x: float, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """``np.interp(x, xs[r], vs[r])`` of every row r of increasing knots
    where x is no knot, in its arithmetic: slope (v1 - v0) / (x1 - x0)
    times (x - x0) plus v0 on the segment holding x, the first or last
    value outside the knots."""
    k, n = xs.shape
    at = np.count_nonzero(xs <= x, axis=1) - 1
    seg = np.arange(k) * n + np.clip(at, 0, n - 2)
    x0, v0, x1, v1 = xs.flat[seg], vs.flat[seg], xs.flat[seg + 1], vs.flat[seg + 1]
    out = (v1 - v0) / (x1 - x0) * (x - x0) + v0
    return np.where(at < 0, vs[:, 0], np.where(at >= n - 1, vs[:, -1], out))


def _knot_groups(specs: Sequence[FunctionSpec]) -> tuple:
    """(groups, rest): the indices of the piecewise-linear specs with as
    many knots (at least two) as another, a list per knot count, and the
    indices of the other specs."""
    counts: dict = {}
    rest = []
    for i, spec in enumerate(specs):
        if type(spec) is PiecewiseLinear and len(spec.knots) > 1:
            counts.setdefault(len(spec.knots), []).append(i)
        else:
            rest.append(i)
    return ([at for at in counts.values() if len(at) > 1],
            rest + [at[0] for at in counts.values() if len(at) == 1])


def _knot_array(specs: Sequence[PiecewiseLinear]) -> np.ndarray:
    """The knots of piecewise-linear specs with as many knots, k x n x 2."""
    n = len(specs[0].knots)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(
        spec.knots for spec in specs))
    return np.fromiter(flat, dtype=float, count=2 * n * len(specs)).reshape(len(specs), n, 2)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(spec: FunctionSpec, x: float, interval: Interval) -> float:
    """Evaluate ``spec`` at a single point of [a, b].

    Endpoint power singularities return +inf (never a silent NaN).
    """
    if not interval.contains(x):
        raise DomainError(f"x={x} outside interval [{interval.a}, {interval.b}]")
    out = evaluate_array(spec, np.array([x], dtype=float), interval)
    return float(out[0])


def evaluate_array(spec: FunctionSpec, xs: np.ndarray, interval: Interval) -> np.ndarray:
    """Vectorized evaluation through the spec-program kernel."""
    return compile_program(spec, interval)(np.asarray(xs, dtype=float))


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def scale(spec: FunctionSpec, c: float) -> FunctionSpec:
    """c * spec, folded into coefficients so closed forms survive."""
    if c == 1.0:
        return spec
    if isinstance(spec, Constant):
        return Constant(c * spec.c)
    if isinstance(spec, PowerLaw):
        return PowerLaw(c * spec.c, spec.alpha)
    if isinstance(spec, ShiftedPowerLaw):
        return ShiftedPowerLaw(c * spec.c, spec.alpha)
    if isinstance(spec, Exponential):
        return Exponential(c * spec.c, spec.beta)
    if isinstance(spec, PiecewiseLinear):
        return PiecewiseLinear([(x, c * v) for x, v in spec.knots])
    if isinstance(spec, Step):
        return Step(spec.breaks, [c * v for v in spec.values])
    if isinstance(spec, PiecewisePolynomial):
        return PiecewisePolynomial(
            spec.breaks, [[c * a for a in row] for row in spec.coeffs],
            spec.frames, spec.ends,
        )
    if isinstance(spec, Sum):
        return Sum([scale(t, c) for t in spec.terms])
    return Product([Constant(c), spec])


def merge_product(specs: Sequence[FunctionSpec]) -> list:
    """Combine same-anchor power-law/exponential factors of a product.

    Folding c1 (x-a)^a1 * c2 (x-a)^a2 into one factor keeps intermediate
    magnitudes representable near a singular endpoint where the unmerged
    factors would overflow before cancelling.
    """
    power = None
    shifted = None
    expo = None
    const = 1.0
    rest = []
    for sp in specs:
        if isinstance(sp, Constant):
            const *= sp.c
        elif isinstance(sp, PowerLaw):
            power = sp if power is None else PowerLaw(power.c * sp.c,
                                                      power.alpha + sp.alpha)
        elif isinstance(sp, ShiftedPowerLaw):
            shifted = sp if shifted is None else ShiftedPowerLaw(
                shifted.c * sp.c, shifted.alpha + sp.alpha
            )
        elif isinstance(sp, Exponential):
            expo = sp if expo is None else Exponential(expo.c * sp.c,
                                                       expo.beta + sp.beta)
        else:
            rest.append(sp)
    merged = [sp for sp in (power, shifted, expo) if sp is not None]
    if not merged and not rest:
        return [Constant(const)]
    if const != 1.0:
        if merged:
            merged[0] = scale(merged[0], const)
        else:
            rest[0] = scale(rest[0], const)
    return merged + rest


def float_power(c: Optional[float], exponent: float) -> float:
    """c**exponent, or e**exponent (math.exp) where c is None; an overflow,
    or 0 to a negative power, raises DomainError."""
    try:
        return math.exp(exponent) if c is None else c**exponent
    except (OverflowError, ZeroDivisionError):
        base = "e" if c is None else f"{c:g}"
        raise DomainError(f"{base} to the power {exponent:g} overflows")


def power_of(spec: FunctionSpec, exponent: float) -> FunctionSpec:
    """spec^exponent, folding pure power laws so antiderivatives survive.
    A folded coefficient that overflows raises DomainError."""
    if exponent == 1.0:
        return spec
    if isinstance(spec, Constant):
        return Constant(float_power(spec.c, exponent))
    if isinstance(spec, PowerLaw) and spec.c >= 0:
        return PowerLaw(float_power(spec.c, exponent), spec.alpha * exponent)
    if isinstance(spec, ShiftedPowerLaw) and spec.c >= 0:
        return ShiftedPowerLaw(float_power(spec.c, exponent), spec.alpha * exponent)
    if isinstance(spec, Exponential) and spec.c >= 0:
        return Exponential(float_power(spec.c, exponent), spec.beta * exponent)
    if isinstance(spec, Power):
        return Power(spec.base, spec.exponent * exponent)
    return Power(spec, exponent)


# ---------------------------------------------------------------------------
# calculus on the catalog
# ---------------------------------------------------------------------------


def derivative(spec: FunctionSpec, interval: Interval) -> Optional[FunctionSpec]:
    """Exact derivative where the catalog is closed under it, else None.

    Piecewise linear specs differentiate to steps (a.e. derivative); steps
    and absolute values return None.
    """
    if isinstance(spec, Constant):
        return Constant(0.0)
    if isinstance(spec, PowerLaw):
        if spec.alpha == 0.0:
            return Constant(0.0)
        return PowerLaw(spec.c * spec.alpha, spec.alpha - 1.0)
    if isinstance(spec, ShiftedPowerLaw):
        if spec.alpha == 0.0:
            return Constant(0.0)
        return ShiftedPowerLaw(-spec.c * spec.alpha, spec.alpha - 1.0)
    if isinstance(spec, Exponential):
        return Exponential(spec.c * spec.beta, spec.beta)
    if isinstance(spec, PiecewiseLinear):
        xs = [x for x, _ in spec.knots]
        vs = [v for _, v in spec.knots]
        slopes = [
            (v1 - v0) / (x1 - x0)
            for (x0, v0), (x1, v1) in zip(spec.knots, spec.knots[1:])
        ]
        return Step(xs, slopes)
    if isinstance(spec, PiecewisePolynomial) and spec.frames is None:
        rows = []
        for row in spec.coeffs:
            if len(row) <= 1:
                rows.append((0.0,))
            else:
                rows.append(tuple(j * row[j] for j in range(1, len(row))))
        return PiecewisePolynomial(spec.breaks, rows)
    if isinstance(spec, Sum):
        parts = [derivative(t, interval) for t in spec.terms]
        if any(p is None for p in parts):
            return None
        return Sum(parts)
    if isinstance(spec, Product):
        parts = [derivative(t, interval) for t in spec.terms]
        if any(p is None for p in parts):
            return None
        addends = []
        for i, dterm in enumerate(parts):
            factors = list(spec.terms)
            factors[i] = dterm
            addends.append(Product(factors))
        return Sum(addends)
    if isinstance(spec, Power):
        dbase = derivative(spec.base, interval)
        if dbase is None:
            return None
        return Product(
            [Constant(spec.exponent), power_of(spec.base, spec.exponent - 1.0), dbase]
        )
    return None


def closed_antiderivative(spec: FunctionSpec, interval: Interval) -> Optional[FunctionSpec]:
    """Antiderivative G with G(a) = 0, or None when no closed form exists.

    Products, powers of composites, absolute values and graded piecewise
    polynomials are declared unsupported; callers fall back to
    ``quad.cumulative``, the running integral read off a panel tree.
    """
    a, b = interval.a, interval.b
    if isinstance(spec, Constant):
        return PowerLaw(spec.c, 1.0)
    if isinstance(spec, PowerLaw):
        if spec.alpha == -1.0:
            return None
        return PowerLaw(spec.c / (spec.alpha + 1.0), spec.alpha + 1.0)
    if isinstance(spec, ShiftedPowerLaw):
        if spec.alpha == -1.0:
            return None
        k = spec.c / (spec.alpha + 1.0)
        return Sum(
            [
                Constant(k * float_power(b - a, spec.alpha + 1.0)),
                ShiftedPowerLaw(-k, spec.alpha + 1.0),
            ]
        )
    if isinstance(spec, Exponential):
        if spec.beta == 0.0:
            return PowerLaw(spec.c, 1.0)
        k = spec.c / spec.beta
        return Sum([Exponential(k, spec.beta),
                    Constant(-k * float_power(None, spec.beta * a))])
    if isinstance(spec, PiecewiseLinear):  # _pwl_antiderivative's arithmetic, for one spec
        rows, acc = [], 0.0
        for (x0, v0), (x1, v1) in zip(spec.knots, spec.knots[1:]):
            rows.append((acc, v0, (v1 - v0) / (x1 - x0) / 2.0))
            acc += (v0 + v1) / 2.0 * (x1 - x0)
        return _zero_at_left_end(PiecewisePolynomial([x for x, _ in spec.knots], rows),
                                 interval)
    if isinstance(spec, Step):
        xs = list(spec.breaks)
        vals = [0.0]
        for (x0, x1), v in zip(zip(xs, xs[1:]), spec.values):
            vals.append(vals[-1] + v * (x1 - x0))
        return _zero_at_left_end(PiecewiseLinear(list(zip(xs, vals))), interval)
    if isinstance(spec, PiecewisePolynomial) and spec.frames is None:
        rows = []
        acc = 0.0
        for (x0, x1), row in zip(zip(spec.breaks, spec.breaks[1:]), spec.coeffs):
            integ = [acc] + [row[j] / (j + 1.0) for j in range(len(row))]
            rows.append(tuple(integ))
            w = x1 - x0
            acc = sum(coef * w**j for j, coef in enumerate(integ))
        return _zero_at_left_end(PiecewisePolynomial(spec.breaks, rows), interval)
    if isinstance(spec, Sum):
        parts = [closed_antiderivative(t, interval) for t in spec.terms]
        if any(p is None for p in parts):
            return None
        return Sum(parts)
    return None


def _zero_at_left_end(anti, interval: Interval):
    """Piecewise antiderivatives vanish at their first break; when that
    break lies left of a, shift them so that G(a) = 0."""
    first = anti.knots[0][0] if isinstance(anti, PiecewiseLinear) else anti.breaks[0]
    if first >= interval.a:
        return anti
    shift = evaluate(anti, interval.a, interval)
    if isinstance(anti, PiecewiseLinear):
        return PiecewiseLinear([(x, v - shift) for x, v in anti.knots])
    return PiecewisePolynomial(
        anti.breaks, [(row[0] - shift,) + row[1:] for row in anti.coeffs]
    )


def tail_integral_spec(spec: FunctionSpec, interval: Interval) -> Optional[FunctionSpec]:
    """Integral from x to the right endpoint, G(b) - G(x) for the closed
    antiderivative G, as a spec (or None)."""
    anti = closed_antiderivative(spec, interval)
    if anti is None:
        return None
    return Sum([Constant(evaluate(anti, interval.b, interval)), scale(anti, -1.0)])


# ---------------------------------------------------------------------------
# structural analysis
# ---------------------------------------------------------------------------


def breakpoints(spec: FunctionSpec, interval: Interval) -> list:
    """Interior x values where the spec is only piecewise smooth: the
    breakpoints of its ``Part``."""
    return Part(spec, interval).breaks


def _fractional(e: float) -> float:
    """e where it is a non-integer exponent, else inf."""
    return math.inf if not math.isfinite(e) or float(e).is_integer() else e


def endpoint_structure(spec: FunctionSpec, interval: Interval, side: str) -> tuple:
    """(kappa, rho) of the spec near one endpoint, read off its ``Part``.

    kappa is the power-law exponent: spec(x) ~ C * dist^kappa with C != 0;
    0.0 for a regular nonzero endpoint value, math.inf where the spec
    vanishes identically near the endpoint.  rho is the smallest
    non-integer exponent of the spec's expansion in powers of the endpoint
    distance, math.inf where the expansion has integer exponents only (a
    smooth spec, or a power law such as (x - a)^-2).  A spec with finite
    rho is finite or singular at the endpoint but not smooth there: its
    derivatives of order above rho blow up.

    Signed sums use the min rule, which is exact for nonnegative terms.  A
    cancelling sum can vanish to a higher order than any of its terms; a
    caller that knows its kappa passes it to the quadrature as
    ``endpoint_exponents``.
    """
    return Part(spec, interval).ends[side != "left"]


_REGULAR_END = (0.0, math.inf)
_VANISHING_END = (math.inf, math.inf)


def _pieces_at_ends(breaks, interval: Interval) -> tuple:
    """The pieces of a piecewise spec with ``breaks`` that hold a (from the
    right) and b (from the left); the breaks may reach past the interval."""
    last = len(breaks) - 2
    return (min(max(bisect.bisect_right(breaks, interval.a) - 1, 0), last),
            min(max(bisect.bisect_left(breaks, interval.b) - 1, 0), last))


def _pwl_ends(xs, vs, interval: Interval) -> tuple:
    """(left, right) (kappa, rho) of the interpolant of knots (xs, vs): the
    order of the zero of its segments at a and at b."""
    i, j = _pieces_at_ends(xs, interval)
    at_a, at_b = vs[i], vs[j + 1]
    if xs[i] < interval.a:
        at_a += (vs[i + 1] - vs[i]) * (interval.a - xs[i]) / (xs[i + 1] - xs[i])
    if xs[j + 1] > interval.b:
        at_b += (vs[j] - vs[j + 1]) * (xs[j + 1] - interval.b) / (xs[j + 1] - xs[j])
    return _value_end((at_a, vs[i + 1])), _value_end((at_b, vs[j]))


def _ppoly_ends(breaks, coeffs, interval: Interval) -> tuple:
    """(left, right) (kappa, rho) of a plain piecewise polynomial: the order
    of its zero at a and at b."""
    left_piece, right_piece = _pieces_at_ends(breaks, interval)
    first, d = coeffs[left_piece], interval.a - breaks[left_piece]
    if d:
        first = _shifted_row(first, d)
    tiny = 1e-14 * max(max(map(abs, first), default=0.0), 1.0)
    left = _VANISHING_END
    for j, c in enumerate(first):
        if abs(c) > tiny:
            left = float(j), math.inf
            break
    # the derivatives at b, from the left (w > 0), the value first
    last, w = coeffs[right_piece], interval.b - breaks[right_piece]
    powers = [w ** j for j in range(len(last))]
    terms = [c * wj for c, wj in zip(last, powers)]
    tiny = 1e-10 * max(max(map(abs, terms), default=0.0), 1e-300)
    for j in range(len(last)):
        val = sum(terms) if j == 0 else sum([last[k] * math.comb(k, j) * math.factorial(j)
                                             * powers[k - j] for k in range(j, len(last))])
        if abs(val) > tiny:
            return left, (float(j), math.inf)
    return left, _VANISHING_END


def _shifted_row(row, d: float) -> list:
    """A polynomial row in powers of (x - x0), rewritten in powers of
    (x - x0 - d)."""
    return [sum([row[k] * math.comb(k, j) * d ** (k - j) for k in range(j, len(row))])
            for j in range(len(row))]


def _sum_end(ends: list) -> tuple:
    """The Sum rule: (kappa, rho) of a sum from its terms', the min rule."""
    kappas, rhos = zip(*ends)
    return min(kappas), min(rhos)


def _product_end(ends: list) -> tuple:
    """The Product rule: (kappa, rho) of a product from its factors'."""
    kappa, gap = 0, math.inf
    for k, r in ends:
        kappa += k
        # each factor is t^kappa_i (1 + O(t^(rho_i - kappa_i)))
        gap = min(gap, r - k)
    if not math.isfinite(kappa):
        return kappa, math.inf
    return kappa, gap + kappa


def _power_end(end: tuple, exponent: float) -> tuple:
    """The Power rule: (kappa, rho) of base^exponent from the base's."""
    kappa, rho = end
    if math.isinf(kappa):
        return (-math.inf if exponent < 0 else kappa * exponent), math.inf
    lead = kappa * exponent
    # (t^kappa (1 + O(t^(rho - kappa))))^e = t^(e kappa) (1 + O(t^(rho - kappa)))
    return lead, (lead if _fractional(lead) == lead else lead + rho - kappa)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_VARIANT_NAMES = {
    Constant: "Constant",
    PowerLaw: "PowerLaw",
    ShiftedPowerLaw: "ShiftedPowerLaw",
    Exponential: "Exponential",
    PiecewiseLinear: "PiecewiseLinear",
    Step: "Step",
    PiecewisePolynomial: "PiecewisePolynomial",
    Sum: "Sum",
    Product: "Product",
    Power: "Power",
    AbsVal: "Abs",
}


def spec_to_json(spec: FunctionSpec) -> dict:
    name = _VARIANT_NAMES[type(spec)]
    if isinstance(spec, Constant):
        return {"variant": name, "c": spec.c}
    if isinstance(spec, (PowerLaw, ShiftedPowerLaw)):
        return {"variant": name, "c": spec.c, "alpha": spec.alpha}
    if isinstance(spec, Exponential):
        return {"variant": name, "c": spec.c, "beta": spec.beta}
    if isinstance(spec, PiecewiseLinear):
        return {"variant": name, "knots": [[x, v] for x, v in spec.knots]}
    if isinstance(spec, Step):
        return {"variant": name, "breaks": list(spec.breaks), "values": list(spec.values)}
    if isinstance(spec, PiecewisePolynomial):
        out = {
            "variant": name,
            "breaks": list(spec.breaks),
            "coeffs": [list(row) for row in spec.coeffs],
        }
        if spec.frames is not None:
            out["frames"] = [[*frame[:4], list(frame[4])] for frame in spec.frames]
            out["ends"] = [list(end) for end in spec.ends]
        return out
    if isinstance(spec, (Sum, Product)):
        return {"variant": name, "terms": [spec_to_json(t) for t in spec.terms]}
    if isinstance(spec, Power):
        return {"variant": name, "base": spec_to_json(spec.base), "exponent": spec.exponent}
    if isinstance(spec, AbsVal):
        return {"variant": name, "term": spec_to_json(spec.term)}
    raise InvalidSpec(f"cannot serialize {type(spec).__name__}")


def spec_from_json(obj: dict) -> FunctionSpec:
    """The spec of a JSON object; a malformed object raises InvalidSpec."""
    try:
        variant = obj["variant"]
    except (TypeError, KeyError):
        raise InvalidSpec("function spec JSON needs a 'variant' field")
    try:
        if variant == "Constant":
            return Constant(float(obj["c"]))
        if variant == "PowerLaw":
            return PowerLaw(float(obj["c"]), float(obj["alpha"]))
        if variant == "ShiftedPowerLaw":
            return ShiftedPowerLaw(float(obj["c"]), float(obj["alpha"]))
        if variant == "Exponential":
            return Exponential(float(obj["c"]), float(obj["beta"]))
        if variant == "PiecewiseLinear":
            return PiecewiseLinear(obj["knots"])
        if variant == "Step":
            return Step(obj["breaks"], obj["values"])
        if variant == "PiecewisePolynomial":
            return PiecewisePolynomial(obj["breaks"], obj["coeffs"], obj.get("frames"),
                                       obj.get("ends"))
        if variant == "Sum":
            return Sum([spec_from_json(t) for t in obj["terms"]])
        if variant == "Product":
            return Product([spec_from_json(t) for t in obj["terms"]])
        if variant == "Power":
            return Power(spec_from_json(obj["base"]), float(obj["exponent"]))
        if variant == "Abs":
            return AbsVal(spec_from_json(obj["term"]))
    except KeyError as exc:
        raise InvalidSpec(f"{variant} spec JSON needs the field {exc}")
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed {variant} spec JSON: {exc}")
    raise InvalidSpec(f"unknown spec variant {variant!r}")


# ---------------------------------------------------------------------------
# random families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomPiecewiseLinear:
    """Random nonnegative piecewise-linear functions on the interval.

    Values are uniform in value_range; endpoints are kept away from zero
    unless vanish_at requests otherwise ("left", "right", "both").
    """

    n_knots: int
    value_range: tuple
    seed: int
    interval: Interval = field(default_factory=lambda: Interval(0.0, 1.0))
    vanish_at: str = "none"


@dataclass(frozen=True)
class RandomPowerLaw:
    alpha_range: tuple
    c_range: tuple
    seed: int
    interval: Interval = field(default_factory=lambda: Interval(0.0, 1.0))


@dataclass(frozen=True)
class GridPowerLaw:
    alpha_list: tuple
    seed: int = 0

    def __init__(self, alpha_list, seed: int = 0):
        object.__setattr__(self, "alpha_list", tuple(float(a) for a in alpha_list))
        object.__setattr__(self, "seed", seed)


FamilySpec = Union[RandomPiecewiseLinear, RandomPowerLaw, GridPowerLaw]


def _member_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0x7FFFFFFF, index])


def _random_pwls(fam: RandomPiecewiseLinear, count: int) -> list:
    """Members 0 to count - 1 of the family, one row of arrays each: member
    i's uniforms are one draw of its own generator, its knots' then its
    values', with the arithmetic of a loop over its knots."""
    a, b = fam.interval.a, fam.interval.b
    lo, hi = fam.value_range
    if not (hi > lo >= 0.0):
        raise InvalidSpec("value_range must satisfy 0 <= lo < hi")
    n = fam.n_knots
    if n < 2:
        raise InvalidSpec("need at least 2 knots")
    draws = np.array([_member_rng(fam.seed, i).random(2 * n - 2) for i in range(count)])
    # rng.uniform(lo, hi) draws lo + (hi - lo) u
    xs = np.empty((count, n))
    xs[:, 0], xs[:, -1] = a, b
    if n > 2:
        inner = np.sort(a + (b - a) * draws[:, :n - 2], axis=1)
        # keep knots separated so slopes stay bounded
        min_gap = 1e-3 * (b - a) / n
        for i in range(1, n - 2):
            inner[:, i] = np.where(inner[:, i] - inner[:, i - 1] < min_gap,
                                   inner[:, i - 1] + min_gap, inner[:, i])
        xs[:, 1:-1] = np.minimum(np.maximum(inner, a + min_gap), b - min_gap)
        # knots clipped together near an end (rounding aside): space them
        # down from b - min_gap, then up from a + min_gap
        close = (np.diff(xs, axis=1) < (1.0 - 1e-9) * min_gap).any(axis=1)
        rows = xs[close]
        for i in range(n - 2, 0, -1):
            rows[:, i] = np.minimum(rows[:, i], rows[:, i + 1] - min_gap)
        for i in range(1, n - 1):
            rows[:, i] = np.maximum(rows[:, i], rows[:, i - 1] + min_gap)
        xs[close] = rows
    vals = lo + (hi - lo) * draws[:, n - 2:]
    floor = lo + 0.1 * (hi - lo)
    vals[:, 0] = 0.0 if fam.vanish_at in ("left", "both") else np.maximum(vals[:, 0], floor)
    vals[:, -1] = 0.0 if fam.vanish_at in ("right", "both") else np.maximum(vals[:, -1], floor)
    return [PiecewiseLinear(zip(x, v)) for x, v in zip(xs.tolist(), vals.tolist())]


def sample_family(family: FamilySpec, count: int) -> list:
    """Deterministic family members; member i depends only on (seed, i).

    sample_family(fam, n) is therefore always a prefix of
    sample_family(fam, n + k).
    """
    if count < 1:
        raise InvalidSpec("count must be >= 1")
    if isinstance(family, GridPowerLaw):
        if count > len(family.alpha_list):
            raise InvalidSpec(
                f"grid family has {len(family.alpha_list)} members, requested {count}"
            )
        return [PowerLaw(1.0, alpha) for alpha in family.alpha_list[:count]]
    if isinstance(family, RandomPowerLaw):
        lo_a, hi_a = family.alpha_range
        lo_c, hi_c = family.c_range
        if not (hi_a >= lo_a and hi_c >= lo_c and lo_c > 0):
            raise InvalidSpec("empty or nonpositive parameter ranges")
        out = []
        for i in range(count):
            rng = _member_rng(family.seed, i)
            out.append(PowerLaw(float(rng.uniform(lo_c, hi_c)), float(rng.uniform(lo_a, hi_a))))
        return out
    if isinstance(family, RandomPiecewiseLinear):
        return _random_pwls(family, count)
    raise InvalidSpec(f"unknown family {type(family).__name__}")


# ---------------------------------------------------------------------------
# program compilation (array evaluation kernel)
# ---------------------------------------------------------------------------

class Program:
    """Flat postfix program evaluating a spec on float64 arrays.

    ``fargs`` (rows x ops x 3) and ``data`` (rows x n) hold one parameter
    row per member; ``compile_program`` makes one-row programs, and a
    group's plan (``product``) one with a row per member.
    """

    __slots__ = ("ops", "fargs", "iargs", "data")

    def __init__(self, ops, fargs, iargs, data):
        self.ops = np.asarray(ops, dtype=np.int32)
        self.fargs = np.asarray(fargs, dtype=np.float64).reshape(-1, len(ops), 3)
        self.iargs = np.asarray(iargs, dtype=np.int32).reshape(len(ops), 2)
        self.data = np.asarray(data, dtype=np.float64).reshape(len(self.fargs), -1)

    def __call__(self, xs: np.ndarray, rows: Optional[np.ndarray] = None,
                 offsets: Optional[tuple] = None) -> np.ndarray:
        """Values at ``xs``; point i uses parameter row ``rows[i]`` (row 0
        for every point when ``rows`` is None).  ``offsets`` is None or
        (anchors, ds), flat arrays with x = anchors[i] + ds[i] exactly
        (anchor nan where there is none); see ``_kernel.eval_program``."""
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        shape = xs.shape
        points = None
        if rows is not None or offsets is not None:
            points = _kernel.Points(rows, *(offsets or (None, None)))
        out = _kernel.eval_program(
            self.ops, self.fargs, self.iargs, self.data, xs.ravel(), points
        )
        return out.reshape(shape)


_TABLE_OPS = (OP_PWL, OP_STEP, OP_PPOLY)  # the opcodes whose iargs[0] is a data offset


def _value_end(values) -> tuple:
    """(kappa, rho) at the end of a piecewise-linear spec or step whose
    values run inward from that end: the order of the zero of the first
    segment."""
    if values[0] != 0.0:
        return _REGULAR_END
    return (1.0, math.inf) if len(values) > 1 and values[1] != 0.0 else _VANISHING_END


def _walk(spec, interval, code, breaks, joined) -> tuple:
    """The one structural walk of a spec: append its postfix program to
    ``code`` (the lists ops, fargs, iargs and data), add its knots and
    breaks to ``breaks`` and return its (left, right) (kappa, rho).  A
    ``Part`` in the spec is joined with the results of its own walk; a
    group's part is also recorded in ``joined`` with its op, data and
    break offsets.  The variants have no subclasses, so the walk
    dispatches on the exact type."""
    ops, fargs, iargs, data = code
    kind = type(spec)
    if kind is Constant or kind is Exponential:
        constant = kind is Constant
        ops.append(OP_CONST if constant else OP_EXP)
        fargs.append((spec.c, 0.0 if constant else spec.beta, 0.0))
        iargs.append((0, 0))
        end = _REGULAR_END if spec.c != 0.0 else _VANISHING_END
        return end, end
    if kind is PowerLaw or kind is ShiftedPowerLaw:
        left = kind is PowerLaw
        ops.append(OP_POW_LEFT if left else OP_POW_RIGHT)
        fargs.append((spec.c, spec.alpha, interval.a if left else interval.b))
        iargs.append((0, 0))
        if spec.c == 0.0:
            return _VANISHING_END, _VANISHING_END
        anchored = spec.alpha, _fractional(spec.alpha)
        return (anchored, _REGULAR_END) if left else (_REGULAR_END, anchored)
    if kind is PiecewiseLinear:
        xs = [x for x, _ in spec.knots]
        vs = [v for _, v in spec.knots]
        ops.append(OP_PWL)
        fargs.append((0.0, 0.0, 0.0))
        iargs.append((len(data), len(xs)))
        data.extend(xs)
        data.extend(vs)
        breaks.extend(xs)
        return _pwl_ends(xs, vs, interval)
    if kind is Step:
        ops.append(OP_STEP)
        fargs.append((0.0, 0.0, 0.0))
        iargs.append((len(data), len(spec.values)))
        data.extend(spec.breaks)
        data.extend(spec.values)
        breaks.extend(spec.breaks)
        # a step is constant next to each end
        i, j = _pieces_at_ends(spec.breaks, interval)
        return _value_end(spec.values[i:i + 1]), _value_end(spec.values[j:j + 1])
    if kind is PiecewisePolynomial:
        deg = max(map(len, spec.coeffs)) - 1
        ops.append(OP_PPOLY)
        fargs.append((float(deg), float(len(spec.frames or ())), 0.0))
        iargs.append((len(data), len(spec.coeffs)))
        data.extend(spec.breaks)
        if spec.frames is not None:  # the layout _kernel reads for the graded form
            anchors, signs, ms, starts, vbs = zip(*spec.frames)
            data.extend(anchors + signs + tuple(1.0 / m for m in ms))
            data.extend(np.cumsum([0] + [len(vb) - 1 for vb in vbs]).tolist())
            # per segment: lower v-break, origin and +-1/width, as three columns
            segments = [(vb[j], vb[j + start], (1 - 2 * start) / (vb[j + 1] - vb[j]))
                        for start, vb in zip(starts, vbs) for j in range(len(vb) - 1)]
            data.extend(x for column in zip(*segments) for x in column)
        for row in spec.coeffs:
            data.extend(row)
            if len(row) <= deg:
                data.extend([0.0] * (deg + 1 - len(row)))
        breaks.extend(spec.breaks)
        if spec.frames is not None:
            return spec.ends
        return _ppoly_ends(spec.breaks, spec.coeffs, interval)
    if kind is Sum or kind is Product:
        opcode = OP_ADD if kind is Sum else OP_MUL
        lefts, rights = [], []
        for i, term in enumerate(spec.terms):
            left, right = _walk(term, interval, code, breaks, joined)
            lefts.append(left)
            rights.append(right)
            if i:  # postfix: the node's opcode after each term from the second on
                ops.append(opcode)
                fargs.append((0.0, 0.0, 0.0))
                iargs.append((0, 0))
        rule = _sum_end if kind is Sum else _product_end
        return rule(lefts), rule(rights)
    if kind is Power:
        left, right = _walk(spec.base, interval, code, breaks, joined)
        ops.append(OP_POWER)
        fargs.append((spec.exponent, 0.0, 0.0))
        iargs.append((0, 0))
        return _power_end(left, spec.exponent), _power_end(right, spec.exponent)
    if kind is AbsVal:
        ends = _walk(spec.term, interval, code, breaks, joined)
        ops.append(OP_ABS)
        fargs.append((0.0, 0.0, 0.0))
        iargs.append((0, 0))
        return ends
    if kind is Part:  # planned already: its code, moved past the data so far
        p_ops, p_fargs, p_iargs, p_data = spec.code
        size = len(data)
        if spec.rows is not None:
            joined.append((spec, len(ops), size, len(breaks)))
        ops.extend(p_ops)
        fargs.extend(p_fargs)
        iargs.extend([(off + size, n) if op in _TABLE_OPS else (off, n)
                      for op, (off, n) in zip(p_ops, p_iargs)] if size else p_iargs)
        data.extend(p_data)
        breaks.extend(spec.breaks)
        return spec.ends
    raise _not_a_spec(spec)


def compile_program(spec: FunctionSpec, interval: Interval) -> Program:
    """The one-row program of ``spec``: the code of its ``Part``."""
    return Program(*Part(spec, interval).code)


# ---------------------------------------------------------------------------
# factor parts: a product integrand planned one factor at a time
# ---------------------------------------------------------------------------

class Part:
    """A spec planned on ``interval`` by one walk (``_walk``): its program
    code (the lists ops, fargs, iargs and data), its (kappa, rho) at the
    left and right ends and its interior breakpoints.  ``compile_program``,
    ``endpoint_structure`` and ``breakpoints`` read a part.  A factor that
    many integrals share is made a part once, and ``product`` joins its
    code without walking its spec again.

    The part of a group (``plan_groups``) stands for specs of one
    structure, its spec the first of them: ``rows`` holds every member's
    parameter rows (fargs k x ops x 3, None where they are the first's,
    and data k x n arrays) and breakpoints (a row each, ``_break_rows``),
    and the members share its ends.  It is None for one spec."""

    __slots__ = ("spec", "code", "ends", "breaks", "rows")

    def __init__(self, spec: FunctionSpec, interval: Interval):
        self.spec = spec
        self.code, self.ends, self.breaks, _ = product([spec], interval)
        self.rows = None


def product(factors: Sequence, interval: Interval) -> tuple:
    """(code, (left, right) (kappa, rho), breakpoints, rows) of the product
    of the factors, from one walk: what the ``Part`` of ``Product([...])``
    of their specs holds, or of the one factor's spec.  A factor is a
    spec, walked here, or a ``Part``, whose code the walk joins as it is.

    Where one factor is a group's part, the product is the group's: the
    walk joins the first member's code, and fargs and data become arrays
    with a parameter row per member, the part's rows in its place; rows
    holds each member's breakpoints, a row per member (``_break_rows``).
    Otherwise rows is None."""
    code, pts, joined = ([], [], [], []), [], []
    ends = _walk(factors[0] if len(factors) == 1 else Product(factors), interval, code,
                 pts, joined)
    eps = 1e-12 * interval.width
    lo, hi = interval.a + eps, interval.b - eps
    breaks = sorted([x for x in set(pts) if lo < x < hi])
    if not joined:
        return code, ends, breaks, None
    (part, op_at, data_at, pts_at), = joined
    p_fargs, p_data, p_breaks = part.rows
    ops, first_fargs, iargs, first_data = code
    fargs, data = np.empty((len(p_data), len(ops), 3)), np.empty((len(p_data), len(first_data)))
    fargs[:], data[:] = first_fargs, first_data
    if p_fargs is not None:  # else the members share the first one's
        fargs[:, op_at:op_at + p_fargs.shape[1]] = p_fargs
    data[:, data_at:data_at + p_data.shape[1]] = p_data
    # the other factors' breakpoints join each member's
    shared = pts[:pts_at] + pts[pts_at + len(part.breaks):]
    rows = p_breaks if not shared else _break_rows(
        np.concatenate([np.broadcast_to(shared, (len(p_breaks), len(shared))), p_breaks], axis=1),
        lo, hi)
    return (ops, fargs, iargs, data), ends, breaks, rows


# ---------------------------------------------------------------------------
# template plans: the specs of one structure planned as the rows of a group
# ---------------------------------------------------------------------------

def _pwl_antiderivative(xs, vs) -> np.ndarray:
    """The coefficient rows (G at the piece's left knot, v0, slope / 2) of
    the antiderivatives G, zero at the first knot, of piecewise-linear
    specs with knots ``xs`` and values ``vs`` (k x n, a spec per row):
    k x (n - 1) x 3, in the arithmetic of a loop over the pieces."""
    out = np.empty(vs.shape + (3,))[:, 1:]
    dx = xs[:, 1:] - xs[:, :-1]
    areas = (vs[:, :-1] + vs[:, 1:]) / 2.0 * dx
    areas[:, 0] += 0.0  # the loop's 0.0 + area: -0.0 becomes 0.0
    out[:, 0, 0] = 0.0
    np.add.accumulate(areas[:, :-1], axis=1, out=out[:, 1:, 0])
    out[..., 1] = vs[:, :-1]
    out[..., 2] = (vs[:, 1:] - vs[:, :-1]) / dx / 2.0
    return out


def _break_rows(xs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The breakpoints of a group's members, a row per row of ``xs``: its
    distinct values inside (lo, hi) in increasing order, then nan."""
    rows = np.where((xs > lo) & (xs < hi), xs, math.nan)
    rows.sort(axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = math.nan
    rows.sort(axis=1)
    return rows


def _rows_part(spec, interval: Interval, data, breaks, totals=None) -> Part:
    """The part of a group whose first member is ``spec``, with every
    member's data row and breakpoints; ``totals`` (a tail's) is the first
    argument of the first op, and the members share the other arguments."""
    part = Part(spec, interval)
    fargs = None
    if totals is not None:
        fargs = np.repeat(np.array(part.code[1], dtype=float)[None], len(data), axis=0)
        fargs[:, 0, 0] = totals
    part.rows = (fargs, data, breaks)
    return part


# a group key's codes: _value_end's (kappa, rho) of a piecewise-linear end
# as 0, 1 or 2, and _ppoly_ends' of a degree-2 row as the order 0, 1 or 2 of
# its zero, or 3: the first of its three values above the row's tiny, read
# off their flags as bits 4, 2 and 1
_END_CODES, _ROW_CODES = 3, 4
_FIRST_OF_THREE = np.array([3, 2, 1, 1, 0, 0, 0, 0])
_BITS = np.array([4, 2, 1])
_F_KEY = np.array([_END_CODES, 1]) * _ROW_CODES ** 2  # f's codes at a and b in a key
# per end (a, b): the direction into the interval, and the knot of its
# piece nearer to it and farther from it
_INWARD, _NEAR, _FAR = np.array([1.0, -1.0]), np.array([0, 1]), np.array([1, 0])


def _pwl_keys(knots, coeffs, totals, interval: Interval) -> np.ndarray:
    """The group key of every member, as one integer: the (kappa, rho) of f
    at a and at b (``_pwl_ends``), of its antiderivative G (coefficient
    rows ``coeffs``, ``_ppoly_ends``) and, in a tail, whether G(b) is 0.
    Both ends are read at once, with the scalar rules' arithmetic on the
    pieces holding a and b.  A member whose knots do not increase, or
    whose arrays do not sum to a finite value, has a key of its own."""
    k, n, _ = knots.shape
    xs = knots[..., 0]
    a, b = interval.a, interval.b
    # the pieces holding a and b (_pieces_at_ends): x <= a, and x < b as
    # x <= the float below b
    piece = (xs[:, :, None] <= np.array([a, np.nextafter(b, -math.inf)])).sum(axis=1) - 1
    piece = np.minimum(np.maximum(piece, 0), n - 2) + np.arange(0, k * n, n)[:, None]
    # f at each end from the knot of its piece nearer the end, toward the
    # far one
    pairs = knots.reshape(-1, 2)
    xn, vn = pairs[piece + _NEAR].transpose(2, 0, 1)
    xf, vf = pairs[piece + _FAR].transpose(2, 0, 1)
    reach = (np.array([a, b]) - xn) * _INWARD  # a - x0, or y1 - b (exactly -(b - y1))
    value = np.where(reach > 0.0, vn + (vf - vn) * reach / ((xf - xn) * _INWARD), vn)
    G = coeffs.reshape(-1, 3)[piece - np.arange(k)[:, None]]
    key = (np.where(value != 0.0, 0, np.where(vf != 0.0, 1, 2)) @ _F_KEY)
    # G at a in powers of (x - a) where a lies inside its piece, and G and
    # its derivatives at b from the left, the value first (_ppoly_ends)
    first = G[:, 0]
    for m in np.flatnonzero(xn[:, 0] != a).tolist():
        first[m] = _shifted_row(first[m].tolist(), float(a - xn[m, 0]))
    c0, c1, c2 = G[:, 1].T
    w = b - xf[:, 1]
    w2 = np.array([x ** 2 for x in w.tolist()])  # Python's power, as _ppoly_ends
    tiny = 1e-10 * np.maximum(np.abs([c0, c1 * w, c2 * w2]).max(axis=0), 1e-300)
    at_b = np.abs([0.0 + c0 + c1 * w + c2 * w2, 0.0 + c1 + c2 * 2.0 * w, 0.0 + c2 * 2.0]) > tiny
    at_a = np.abs(first) > 1e-14 * np.maximum(np.abs(first).max(axis=1), 1.0)[:, None]
    key += _FIRST_OF_THREE[at_a @ _BITS] * _ROW_CODES + _FIRST_OF_THREE[_BITS @ at_b]
    valid = np.isfinite(knots.sum(axis=(1, 2)) + coeffs.sum(axis=(1, 2))) & (
        xs[:, 1:] > xs[:, :-1]).all(axis=1)
    if totals is not None:
        key = 2 * key + (totals == 0.0)
        valid &= np.isfinite(totals)
    return np.where(valid, key, -1 - np.arange(k))


def _pwl_groups(specs: Sequence[PiecewiseLinear], interval: Interval, side: str) -> list:
    """``plan_groups`` of piecewise-linear specs with as many knots, with
    indices into ``specs``.  The data rows take the walk's layouts: knots
    then values, and G's breaks then its coefficient rows."""
    k = len(specs)
    knots = _knot_array(specs)
    xs, vs = knots[..., 0], knots[..., 1]
    coeffs = _pwl_antiderivative(xs, vs)
    for i in np.flatnonzero(xs[:, 0] < interval.a).tolist():  # a knot left of a
        coeffs[i] = _zero_at_left_end(PiecewisePolynomial(xs[i].tolist(), coeffs[i].tolist()),
                                      interval).coeffs
    eps = 1e-12 * interval.width
    breaks = _break_rows(xs, interval.a + eps, interval.b - eps)
    F_data, totals = np.concatenate([xs, coeffs.reshape(k, -1)], axis=1), None
    if side == "tail":  # F = G(b) - G, G(b) from one kernel call on G's rows
        G = Program([OP_PPOLY], np.tile([2.0, 0.0, 0.0], k), [(0, len(coeffs[0]))], F_data)
        totals = G(np.full(k, interval.b), np.arange(k))
    # a group shares the ends of f and of G and, in a tail, whether G(b) is 0
    with np.errstate(all="ignore"):
        keys = _pwl_keys(knots, coeffs, totals, interval)
    groups: dict = {}
    for i, key in enumerate(keys.tolist()):
        groups.setdefault(key, []).append(i)
    if totals is not None:
        coeffs = -1.0 * coeffs
        F_data[:, xs.shape[1]:] *= -1.0
    f_data, out = np.concatenate([xs, vs], axis=1), []
    for at in groups.values():
        i, rows = at[0], slice(None) if len(at) == k else at
        F = PiecewisePolynomial(xs[i].tolist(), coeffs[i].tolist())
        if totals is not None:
            F = Sum([Constant(float(totals[i])), F])
        out.append((at, _rows_part(specs[i], interval, f_data[rows], breaks[rows]),
                    _rows_part(F, interval, F_data[rows], breaks[rows],
                               None if totals is None else totals[rows])))
    return out


def plan_groups(specs: Sequence, interval: Interval, side: str) -> list:
    """The specs grouped by structure, each group planned once: a list of
    (members, f, F), members the indices of its specs.  Piecewise-linear
    specs with as many knots, the same ends and running integrals with the
    same ends form a group: f and F are group parts (``Part.rows``) of the
    specs and of their closed running integrals from ``side`` ("head":
    F(a, x), "tail": F(x, b)), computed for all as row arrays, and only
    the first member is walked.  Any other spec, and a piecewise-linear
    spec without another of as many knots, is a group of one, f the spec
    and F its closed running integral, None where it has none, or the
    HopialError computing it raised."""
    groups, alone = _knot_groups(specs)
    out = []
    for i in sorted(alone):
        try:
            F = (tail_integral_spec if side == "tail" else closed_antiderivative)(
                specs[i], interval)
        except HopialError as exc:
            F = exc
        out.append(([i], specs[i], F))
    for members in groups:
        out += [([members[j] for j in at], f, F)
                for at, f, F in _pwl_groups([specs[i] for i in members], interval, side)]
    return out
