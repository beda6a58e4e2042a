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
"s".

Status semantics match the theorem verifier: Holds when
ratio <= 1 + budget, Violated above 1 + 10*budget, Inconclusive between,
where budget sums the relative quadrature errors of the three factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import eigen
from . import funcspace as fs
from . import quad
from . import special
from .errors import DomainError, PreconditionFailed

__all__ = [
    "OpialVariant",
    "TestPath",
    "VerificationRecord",
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
]

VARIANT_IDS = (
    "OPIAL", "B1", "B2", "M1", "Y", "H1", "BW1", "AG",
    "Y1", "Y2", "BOYD", "L0", "Z1", "Z4", "BS1", "BS2",
)

_ALLOWED_BOUNDARIES = {
    "OPIAL": ("both",),
    "B1": ("left", "right"),
    "B2": ("left", "right"),
    "M1": ("left", "right"),
    "Y": ("left", "right"),
    "H1": ("left", "right"),
    "BW1": ("left", "right", "both"),
    "AG": ("left", "right"),
    "Y1": ("left", "right"),
    "Y2": ("left", "right"),
    "BOYD": ("left", "right"),
    "L0": ("left", "right"),
    "Z1": ("left",),
    "Z4": ("right",),
    "BS1": ("left",),
    "BS2": ("right",),
}

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
        allowed = _ALLOWED_BOUNDARIES[self.identifier]
        if self.boundary not in allowed:
            raise PreconditionFailed(
                f"{self.identifier} requires boundary in {allowed}, "
                f"got {self.boundary!r}"
            )


def variant(identifier: str, boundary: Optional[str] = None) -> OpialVariant:
    identifier = identifier.upper()
    if boundary is None:
        boundary = _ALLOWED_BOUNDARIES.get(identifier, ("left",))[0]
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
    if isinstance(spec, fs.PiecewisePolynomial):
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
# verification records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRecord:
    identifier: str
    mode: str
    lhs: float
    rhs_core: float
    constant: float
    ratio: float
    status: str
    budget: float
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


# ---------------------------------------------------------------------------
# variant shapes
# ---------------------------------------------------------------------------


def _weight(weights, key, name):
    if weights is None or weights.get(key) is None:
        raise PreconditionFailed(f"variant needs weight {name!r}")
    return weights[key]


def _need(exponents, attr, cond):
    val = getattr(exponents, attr, None) if exponents is not None else None
    if val is None:
        raise PreconditionFailed(cond)
    return float(val)


def _abs_pow(spec, exponent):
    if exponent == 0:
        return fs.Constant(1.0)
    return fs.power_of(fs.AbsVal(spec), exponent)


def _lhs_parts(v: OpialVariant, path: TestPath, weights, exps):
    """Integrand of the variant's left-hand side, as a spec."""
    ident = v.identifier
    y, dy = path.y, path.dy
    if ident in ("OPIAL", "B1", "B2", "M1"):
        return fs.Product([fs.AbsVal(y), fs.AbsVal(dy)])
    if ident == "Y":
        q_w = _weight(weights, "r", "r (the monotone left-side weight)")
        return fs.Product([q_w, fs.AbsVal(y), fs.AbsVal(dy)])
    if ident in ("H1", "AG"):
        p = _need(exps, "p", "p required")
        return fs.Product([_abs_pow(y, p), fs.AbsVal(dy)])
    if ident == "BW1":
        p = _need(exps, "p", "p required")
        s_w = _weight(weights, "r", "r (the left-side weight)")
        return fs.Product([s_w, _abs_pow(y, p), fs.AbsVal(dy)])
    if ident == "Y1":
        p = _need(exps, "p", "p required")
        q = _need(exps, "q", "q required")
        return fs.Product([_abs_pow(y, p), _abs_pow(dy, q)])
    if ident in ("Y2", "Z1", "Z4", "BS1", "BS2"):
        p = _need(exps, "p", "p required")
        q = _need(exps, "q", "q required")
        w = _weight(weights, "r", "r (the left-side weight)")
        return fs.Product([w, _abs_pow(y, p), _abs_pow(dy, q)])
    if ident in ("BOYD", "L0"):
        nu = _need(exps, "p", "nu (pass as p) required")
        eta = _need(exps, "q", "eta (pass as q) required")
        return fs.Product([_abs_pow(y, nu), _abs_pow(dy, eta)])
    raise DomainError(ident)


def opial_lhs(v: OpialVariant, path: TestPath, weights=None, exponents=None,
              tol: Optional[float] = None) -> quad.QuadResult:
    """Quadrature of the variant's left-hand side on the path."""
    check_path(path, v.boundary)
    integrand = _lhs_parts(v, path, weights, exponents)
    return quad.integrate(integrand, path.interval, tol=tol)


def _monotone_audit(w, interval, direction: str, name: str):
    xs = np.linspace(interval.a, interval.b, 257)
    vals = np.asarray(fs.evaluate_array(w, xs, interval) if not callable(w)
                      else w(xs), dtype=float)
    slack = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    diffs = np.diff(vals)
    if direction == "nonincreasing" and np.any(diffs > slack):
        raise PreconditionFailed(f"{name} must be nonincreasing for this boundary")
    if direction == "nondecreasing" and np.any(diffs < -slack):
        raise PreconditionFailed(f"{name} must be nondecreasing for this boundary")


def verify_variant(
    v: OpialVariant,
    path: TestPath,
    weights=None,
    exponents=None,
    mode: str = "default",
    tol: Optional[float] = None,
) -> VerificationRecord:
    """Check the variant's inequality on one path."""
    if mode in (None, "default"):
        mode = DEFAULT_VARIANT_MODES[v.identifier]
    ident = v.identifier
    iv = path.interval
    a, b = iv.a, iv.b
    width = iv.width
    dy = path.dy

    lhs = opial_lhs(v, path, weights, exponents, tol=tol)
    extra_rel = 0.0

    if ident == "OPIAL":
        constant = width / 4.0
        rhs = quad.integrate(_abs_pow(dy, 2.0), iv, tol=tol)
    elif ident == "B1":
        constant = (b / 2.0) if mode == "as_printed" else (width / 2.0)
        if constant <= 0:
            raise PreconditionFailed(
                "printed constant b/2 is nonpositive on this interval; "
                "use as_derived"
            )
        rhs = quad.integrate(_abs_pow(dy, 2.0), iv, tol=tol)
    elif ident == "B2":
        w = _weight(weights, "s", "s (the weight)")
        inv = quad.integrate(fs.power_of(w, -1.0), iv, tol=tol)
        constant = 0.5 * inv.value
        extra_rel = inv.rel_error
        rhs = quad.integrate(fs.Product([w, _abs_pow(dy, 2.0)]), iv, tol=tol)
    elif ident == "M1":
        w = _weight(weights, "s", "s (the weight)")
        p = _need(exponents, "p", "p > 1 required")
        if p <= 1:
            raise PreconditionFailed(f"p > 1 required, got {p}")
        q = p / (p - 1.0)
        base = quad.integrate(fs.power_of(w, -(p - 1.0)), iv, tol=tol)
        constant = 0.5 * base.value ** (2.0 / p)
        extra_rel = (2.0 / p) * base.rel_error
        core = quad.integrate(fs.Product([w, _abs_pow(dy, q)]), iv, tol=tol)
        rhs = quad.QuadResult(core.value ** (2.0 / q),
                              (2.0 / q) * core.abs_error_estimate
                              * max(core.value, 1e-300) ** (2.0 / q - 1.0),
                              core.subdivisions)
    elif ident == "Y":
        q_w = _weight(weights, "r", "r (the monotone left-side weight)")
        w = _weight(weights, "s", "s (the weight)")
        _monotone_audit(
            q_w, iv,
            "nonincreasing" if v.boundary == "left" else "nondecreasing",
            "the left-side weight",
        )
        inv = quad.integrate(fs.power_of(w, -1.0), iv, tol=tol)
        constant = 0.5 * inv.value
        extra_rel = inv.rel_error
        rhs = quad.integrate(fs.Product([w, q_w, _abs_pow(dy, 2.0)]), iv, tol=tol)
    elif ident == "H1":
        p = _need(exponents, "p", "positive integer p required")
        if not (p >= 1 and float(p).is_integer()):
            raise PreconditionFailed(f"p must be a positive integer, got {p}")
        constant = width**p / (p + 1.0)
        rhs = quad.integrate(_abs_pow(dy, p + 1.0), iv, tol=tol)
    elif ident == "BW1":
        p = _need(exponents, "p", "positive integer p required")
        if not (p >= 1 and float(p).is_integer()):
            raise PreconditionFailed(f"p must be a positive integer, got {p}")
        s_w = _weight(weights, "r", "r (the left-side weight)")
        r_w = _weight(weights, "s", "s (the right-side weight)")
        m_fn, _ = eigen._derivative_fn(s_w, iv)
        res = eigen.solve_smallest(
            eigen.EigenProblem(r_w, m_fn, float(p), iv, "both"), tol=1e-8
        )
        constant = 1.0 / (res.value * (p + 1.0))
        extra_rel = res.rel_error
        rhs = quad.integrate(fs.Product([r_w, _abs_pow(dy, p + 1.0)]), iv, tol=tol)
    elif ident == "AG":
        p = _need(exponents, "p", "positive integer p required")
        if not (p >= 1 and float(p).is_integer()):
            raise PreconditionFailed(f"p must be a positive integer, got {p}")
        w = _weight(weights, "s", "s (the weight)")
        base = quad.integrate(fs.power_of(w, -1.0 / p), iv, tol=tol)
        constant = base.value**p / (p + 1.0)
        extra_rel = p * base.rel_error
        rhs = quad.integrate(fs.Product([w, _abs_pow(dy, p + 1.0)]), iv, tol=tol)
    elif ident in ("Y1", "Y2"):
        p = _need(exponents, "p", "p >= 0 required")
        q = _need(exponents, "q", "q >= 1 required")
        if p < 0 or q < 1:
            raise PreconditionFailed(f"p >= 0 and q >= 1 required (p={p}, q={q})")
        constant = (q / (p + q)) * width**p
        if ident == "Y2":
            w = _weight(weights, "r", "r (the weight)")
            _monotone_audit(
                w, iv,
                "nonincreasing" if v.boundary == "left" else "nondecreasing",
                "the weight",
            )
            rhs = quad.integrate(fs.Product([w, _abs_pow(dy, p + q)]), iv, tol=tol)
        else:
            rhs = quad.integrate(_abs_pow(dy, p + q), iv, tol=tol)
    elif ident in ("BOYD", "L0"):
        nu = _need(exponents, "p", "nu (pass as p) required")
        eta = _need(exponents, "q", "eta (pass as q) required")
        if ident == "BOYD":
            s_exp = _need(exponents, "k", "s (pass as k) required")
            n_val, n_rel = special.boyd_N_result(special.BoydParams(nu, eta, s_exp))
            constant = n_val * width**nu
            extra_rel = n_rel
        else:
            s_exp = eta
            constant = special.boyd_L(nu, eta, mode=mode) * width**nu
        core = quad.integrate(_abs_pow(dy, s_exp), iv, tol=tol)
        outer = (nu + eta) / s_exp
        rhs = quad.QuadResult(core.value**outer,
                              outer * core.rel_error
                              * max(core.value, 1e-300) ** outer,
                              core.subdivisions)
    elif ident in ("Z1", "Z4"):
        from . import constants as _constants

        p = _need(exponents, "p", "p > 0 required")
        q = _need(exponents, "q", "q > 0 required")
        r_w = _weight(weights, "r", "r (the left-side weight)")
        s_w = _weight(weights, "s", "s (the right-side weight)")
        e = _constants.ExponentSet(p=p, q=q, conjugate_check=False)
        if ident == "Z1":
            constant = _constants.beesack_das_K1(e, r_w, s_w, iv, iv)
        else:
            constant = _constants.beesack_das_K2(e, r_w, s_w, iv, iv)
        extra_rel = 1e-8
        rhs = quad.integrate(fs.Product([s_w, _abs_pow(dy, p + q)]), iv, tol=tol)
    elif ident in ("BS1", "BS2"):
        from . import constants as _constants

        p = _need(exponents, "p", "p > 0 required")
        q = _need(exponents, "q", "q > 0 required")
        k = _need(exponents, "k", "k > 1 required")
        r_w = _weight(weights, "r", "r (the left-side weight)")
        s_w = _weight(weights, "s", "s (the right-side weight)")
        e = _constants.ExponentSet(p=p, q=q, k=k, conjugate_check=False)
        side = "left" if ident == "BS1" else "right"
        constant, k_rel = _constants.beesack_K(
            e, r_w, s_w, iv, side=side, substituted=False
        )
        extra_rel = k_rel
        core = quad.integrate(fs.Product([s_w, _abs_pow(dy, k)]), iv, tol=tol)
        outer = (p + q) / k
        rhs = quad.QuadResult(core.value**outer,
                              outer * core.rel_error
                              * max(core.value, 1e-300) ** outer,
                              core.subdivisions)
    else:
        raise DomainError(ident)

    ratio, status, budget = judge(lhs.value, rhs.value, constant,
                                  lhs.rel_error + rhs.rel_error + extra_rel)
    return VerificationRecord(ident, mode, lhs.value, rhs.value, constant, ratio,
                              status, budget, f"boundary={v.boundary}")
