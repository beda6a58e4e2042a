"""Special-function kernels: Gamma and the Boyd inequality constants.

The Boyd inequality bounds int |y|^nu |y'|^eta by
N(nu, eta, s) (b-a)^nu (int |y'|^s)^((nu+eta)/s); its eta = s limit uses
the Gamma-expressed constant L(nu, eta).  Both are evaluated here, with
the auxiliary sigma factor and the I integral.

L as commonly typeset for the (pq, q) substitution omits the outer
exponent nu on the Gamma ratio that the general definition carries; both
readings are exposed ("as_printed" drops it, "as_derived" keeps nu = pq)
and as_derived is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import funcspace as fs
from . import quad
from .errors import DomainError

__all__ = [
    "BoydParams",
    "gamma",
    "boyd_sigma",
    "boyd_I",
    "boyd_I_result",
    "boyd_N",
    "boyd_N_result",
    "boyd_L",
]


def gamma(x: float) -> float:
    """Gamma function for real x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise DomainError(f"gamma requires finite x > 0, got {x!r}")
    return math.gamma(float(x))


@dataclass(frozen=True)
class BoydParams:
    """Exponent triple (nu, eta, s) of the Boyd inequality."""

    nu: float
    eta: float
    s: float

    def __post_init__(self):
        if not self.nu > 0:
            raise DomainError(f"nu must be > 0, got {self.nu}")
        if not self.s > 1:
            raise DomainError(f"s must be > 1, got {self.s}")
        if not 0 <= self.eta:
            raise DomainError(f"eta must be >= 0, got {self.eta}")


def _require_eta_below_s(p: BoydParams):
    if not p.eta < p.s:
        raise DomainError(f"eta < s required (eta={p.eta}, s={p.s})")


def boyd_sigma(p: BoydParams) -> float:
    """sigma = {(nu(s-1) + (s-eta)) / ((s-1)(nu+eta))}^(1/s)."""
    _require_eta_below_s(p)
    nu, eta, s = p.nu, p.eta, p.s
    return ((nu * (s - 1.0) + (s - eta)) / ((s - 1.0) * (nu + eta))) ** (1.0 / s)


def boyd_I_result(p: BoydParams, tol: float = 1e-10) -> quad.QuadResult:
    """I(nu, eta, s) on (0, 1) with its quadrature error estimate.

    Integrand: {1 + s(eta-1)/(s-eta) t}^(-(nu+eta+s nu)/(s nu))
               [1 + (eta-1) t] t^(1/nu - 1).

    t^(1/nu - 1) is endpoint-singular for nu > 1.  For eta = 0 both
    brackets vanish linearly at t = 1 and the product behaves like
    (1-t)^(-1/s): an integrable singularity, declared to the quadrature
    because the min rule of a sum cannot see the cancellation.  For
    eta > 0 the right end is regular.
    """
    _require_eta_below_s(p)
    nu, eta, s = p.nu, p.eta, p.s
    iv = fs.Interval(0.0, 1.0)
    coef1 = s * (eta - 1.0) / (s - eta)
    e1 = (nu + eta + s * nu) / (s * nu)
    integrand = fs.Product(
        [
            fs.Power(fs.Sum([fs.Constant(1.0), fs.PowerLaw(coef1, 1.0)]), -e1),
            fs.Sum([fs.Constant(1.0), fs.PowerLaw(eta - 1.0, 1.0)]),
            fs.PowerLaw(1.0, 1.0 / nu - 1.0),
        ]
    )
    declared = (1.0 / nu - 1.0, -1.0 / s) if eta == 0.0 else None
    return quad.integrate(integrand, iv, tol=tol, endpoint_exponents=declared)


def boyd_I(p: BoydParams, tol: float = 1e-10) -> float:
    return boyd_I_result(p, tol).value


def boyd_N_result(p: BoydParams, tol: float = 1e-10):
    """N(nu, eta, s) and its relative error (propagated from I)."""
    _require_eta_below_s(p)
    nu, eta, s = p.nu, p.eta, p.s
    sigma = boyd_sigma(p)
    i_res = boyd_I_result(p, tol)
    value = ((s - eta) * nu**nu * sigma ** (nu + eta - s)) / (
        (s - 1.0) * (nu + eta) * i_res.value**nu
    )
    rel_err = abs(nu) * i_res.rel_error
    return value, rel_err


def boyd_N(p: BoydParams, tol: float = 1e-10) -> float:
    return boyd_N_result(p, tol)[0]


def boyd_L(nu: float, eta: float, mode: str = "as_derived") -> float:
    """L(nu, eta) = eta nu^eta/(nu+eta) (nu/(nu+eta))^(nu/eta) G^e.

    G is the Gamma ratio Gamma((eta+1)/eta + 1/nu) /
    (Gamma((eta+1)/eta) Gamma(1/nu)); e = nu in as_derived mode (the
    general definition), e = 1 in as_printed mode (the substituted form as
    typeset).
    """
    if not nu > 0:
        raise DomainError(f"nu must be > 0, got {nu}")
    if not eta >= 1:
        raise DomainError(f"eta must be >= 1, got {eta}")
    if mode not in ("as_derived", "as_printed"):
        raise DomainError(f"unknown mode {mode!r}")
    ratio = gamma((eta + 1.0) / eta + 1.0 / nu) / (
        gamma((eta + 1.0) / eta) * gamma(1.0 / nu)
    )
    exponent = nu if mode == "as_derived" else 1.0
    return (
        eta
        * nu**eta
        / (nu + eta)
        * (nu / (nu + eta)) ** (nu / eta)
        * ratio**exponent
    )
