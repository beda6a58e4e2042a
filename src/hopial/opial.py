"""The Opial-type lemmas on explicit test paths.

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

The lemmas are rows of the one catalog table, ``constants.LEMMAS``, of
the row type the theorems use: a theorem is a lemma with y = F, y' = f
and no power of y'.  So a lemma check is one pass of ``verify`` on a
path, with F = |y| and f = |y'|: the same side planner, the same
``integrate_many`` call, the same constant builders and the same ratio
rule.  This module holds the paths, their audit (``TestPath.check``),
the reflection of specs and ``verify_variant``, the lemma front end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import constants as ct
from . import funcspace as fs
from . import quad
from . import verify as vf
from .errors import DomainError, PreconditionFailed
from .verify import VerificationReport, classify_status, judge

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
    "verify_variant",
    "classify_status",
    "judge",
]

VARIANT_IDS = tuple(ct.LEMMAS)


@dataclass(frozen=True)
class OpialVariant:
    identifier: str
    boundary: str

    def __post_init__(self):
        ct.lemma_row(self.identifier, self.boundary)


def variant(identifier: str, boundary: Optional[str] = None) -> OpialVariant:
    identifier = identifier.upper()
    if boundary is None:  # an unknown id keeps "left", for OpialVariant to reject
        boundary = ct.LEMMAS[identifier].side if identifier in ct.LEMMAS else "left"
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

    def check(self, boundary: str, tol_end: float = 1e-12) -> None:
        """Boundary values and derivative consistency audit, which a lemma
        pass runs on its path."""
        iv = self.interval
        y_prog = fs.compile_program(self.y, iv)
        ya = float(np.asarray(y_prog(np.array([iv.a])))[0])
        yb = float(np.asarray(y_prog(np.array([iv.b])))[0])
        scale_ref = max(float(np.max(np.abs(y_prog(np.linspace(iv.a, iv.b, 64))))), 1e-30)
        if boundary in ("left", "both") and abs(ya) > tol_end * scale_ref:
            raise PreconditionFailed(f"path must vanish at a (y(a)={ya:g})")
        if boundary in ("right", "both") and abs(yb) > tol_end * scale_ref:
            raise PreconditionFailed(f"path must vanish at b (y(b)={yb:g})")
        anti = fs.closed_antiderivative(self.dy, iv)
        xs = np.linspace(iv.a, iv.b, 17)
        if anti is not None:
            recon = fs.compile_program(anti, iv)(xs) + ya
        else:
            recon = np.array(
                [ya]
                + [
                    ya + quad.integrate(self.dy, fs.Interval(iv.a, float(x)),
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
    fam = fs.RandomPiecewiseLinear(
        n_knots=n_knots, value_range=(0.0, 1.0), seed=seed,
        interval=interval, vanish_at=boundary,
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
# checks
# ---------------------------------------------------------------------------


def verify_variant(
    v: OpialVariant,
    path: TestPath,
    weights=None,
    exponents=None,
    mode: str = "default",
    tol: Optional[float] = None,
) -> VerificationReport:
    """Check the variant's inequality on one path: one pass of ``verify``,
    with the path audited (``TestPath.check``), the weights checked
    (``constants.check_weights``) and the constant built first."""
    weights = weights or {}
    inst = vf.TheoremInstance(v.identifier, weights.get("r"), weights.get("s"), path,
                              exponents, path.interval, mode, v.boundary)
    return replace(vf.single_pass(inst, tol), detail=f"boundary={v.boundary}")
