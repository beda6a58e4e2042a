import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopial import _kernel
from hopial import constants as ct
from hopial import funcspace as fs
from hopial import opial
from hopial import quad
from hopial import verify as vf
from hopial import cli
from hopial.cli import SUITE_EXPONENTS, suite_weights
from hopial.errors import DomainError, HopialError, InvalidSpec, PreconditionFailed

E = ct.ExponentSet
ONE = fs.Constant(1.0)
# negative on (0.5, 0.506), between two samples of the 64-point probe
DIP = fs.PiecewiseLinear([(0, 1), (0.5, 1), (0.503, -50), (0.506, 1), (1, 1)])


def inst(ident, r, s, f, e, iv, mode="default"):
    return vf.TheoremInstance(ident, r, s, f, e, iv, mode)


class TestAssembly:
    def test_lhs_examples(self, unit, one):
        # squared-integral shape: (int x dx)^2
        assert vf.assemble_lhs(inst("T2.1", one, one, one, E(), unit)).value == (
            pytest.approx(0.25, rel=1e-10)
        )
        # quadratic shape: int x^2
        assert vf.assemble_lhs(inst("T2.3", one, None, one, E(), unit)).value == (
            pytest.approx(1.0 / 3.0, rel=1e-10)
        )
        # cubic shape: int x^3
        assert vf.assemble_lhs(
            inst("T2.11", one, None, one, E(p=2.0), unit)
        ).value == pytest.approx(0.25, rel=1e-10)

    def test_rhs_examples(self, unit, one):
        assert vf.assemble_rhs(inst("T2.1", one, one, one, E(), unit)).value == (
            pytest.approx(1.0, rel=1e-12)
        )
        # the tail weight folded into the right side: int (1-x) dx
        assert vf.assemble_rhs(
            inst("T2.18", one, None, one, E(p=1.0), unit)
        ).value == pytest.approx(0.5, rel=1e-10)
        assert vf.assemble_rhs(
            inst("T2.22", one, None, one, E(p=2.0), unit)
        ).value == pytest.approx(1.0, rel=1e-12)


class TestRhsWeight:
    """The weight of the right side is data of the theorem's row."""

    @pytest.mark.parametrize("ident,e", [("T2.9", E()), ("T2.18", E(p=1.0))])
    def test_assemble_rhs_builds_no_constant(self, unit, one, monkeypatch, ident, e):
        calls = []
        real = ct.hardy_constant

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(ct, "hardy_constant", counting)
        vf.assemble_rhs(inst(ident, one, one, one, e, unit))
        assert calls == []

    @pytest.mark.parametrize("ident,alpha,e", [
        ("T2.9", 0.5, E()), ("T2.10", 0.5, E()),
        ("T2.18", -0.5, E(p=1.0)), ("T2.19", -0.5, E(p=1.0)),
    ])
    def test_budget_counts_the_error_of_R(self, unit, ident, alpha, e):
        # R has no closed form here: the budget covers the error of the R the
        # right side integrates against
        r = fs.Product([fs.PowerLaw(1.0, alpha), fs.Exponential(1.0, 1.0)])
        s = fs.Sum([ONE, fs.PowerLaw(1.0, 0.3)])
        f = fs.PiecewiseLinear([(0.0, 0.3), (0.4, 1.0), (1.0, 0.2)])
        side = "tail" if ct.theorem_info(ident).side == "left" else "head"
        R = quad.RunningIntegral(r, unit, side)
        assert R.rel_error > 0.0
        rep = vf.verify(inst(ident, r, s, f, e, unit))
        assert rep.status == "Holds"
        assert rep.error_budget >= R.rel_error

    def test_tolerance_reaches_R(self, unit, one):
        # R of this r has no closed form; a tighter tolerance builds a
        # tighter R, and the budget, which counts R's error, shrinks with it
        r = fs.Product([fs.PiecewiseLinear([(0.0, 1.0), (0.4, 2.0), (1.0, 1.5)]),
                        fs.Exponential(1.0, 1.3)])
        case = inst("T2.18", r, one, one, E(p=1.0), unit)
        resolved = case.resolved()
        loose = vf._rhs_weights(case, resolved, None)[1]
        tight = vf._rhs_weights(case, resolved, 1e-12)[1]
        assert 0.0 < tight < loose
        assert loose == quad.RunningIntegral(r, unit, "tail").rel_error
        budgets = [vf.verify(case, tol=tol).error_budget for tol in (None, 1e-12)]
        assert budgets[1] < budgets[0]

    def test_tolerance_reaches_F(self, unit):
        # F of this f has no closed form either: it is built to the pass's
        # tolerance too
        f = fs.Product([fs.PiecewiseLinear([(0.0, 0.5), (0.4, 1.2), (1.0, 0.9)]),
                        fs.Exponential(1.0, 2.0)])
        case = inst("T2.3", fs.PowerLaw(1.0, 0.5), None, f, E(), unit)
        resolved = case.resolved()
        ((_, _, (_, loose)),) = vf._groups(case, [case.f], resolved, None)
        ((_, _, (_, tight)),) = vf._groups(case, [case.f], resolved, 1e-12)
        assert 0.0 < tight < loose


class TestVerify:
    def test_non_finite_exponent_rejected(self, unit):
        # f = x^inf used to verify as Holds with lhs = rhs = 0
        with pytest.raises(InvalidSpec):
            vf.verify(inst("HARDY", None, None, fs.PowerLaw(1.0, math.inf),
                           E(p=2.0), unit))

    def test_t2_1_hand_case(self, unit, one):
        rep = vf.verify(inst("T2.1", one, one, one, E(), unit))
        assert rep.lhs == pytest.approx(0.25, rel=1e-10)
        assert rep.constant == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert rep.rhs_core == pytest.approx(1.0, rel=1e-12)
        assert rep.ratio == pytest.approx(0.75, rel=1e-9)
        assert rep.status == "Holds"

    def test_t2_3_hand_case(self, unit, one):
        rep = vf.verify(inst("T2.3", one, None, one, E(), unit))
        assert rep.ratio == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_hardy_near_extremal(self, unit):
        rep = vf.verify(
            inst("HARDY", None, None, fs.PowerLaw(1.0, -0.49), E(p=2.0), unit)
        )
        assert rep.ratio == pytest.approx(1.0 / (4.0 * 0.51**2), abs=2e-4)
        assert rep.status == "Holds"

    def test_zero_function(self, unit, one):
        zero = fs.PiecewiseLinear([(0, 0), (1, 0)])
        rep = vf.verify(inst("T2.1", one, one, zero, E(), unit))
        assert rep.ratio == 0.0
        assert rep.status == "Holds"

    def test_negative_f_rejected(self, unit, one):
        with pytest.raises(Exception):
            vf.verify(inst("T2.1", one, one, fs.Constant(-1.0), E(), unit))

    @pytest.mark.parametrize("ident,e", [("HARDY", E(p=2.0)), ("T2.1", E()),
                                         ("T2.7", E(p=2.0))])
    def test_negative_dip_rejected(self, unit, one, ident, e):
        # f < 0 on (0.503, 0.5032), between two samples of the probe: the
        # knot values decide it (these checks used to Hold)
        f = fs.PiecewiseLinear([(0, 1), (0.503, 1), (0.5031, -5), (0.5032, 1), (1, 1)])
        with pytest.raises(InvalidSpec, match="negative"):
            vf.verify(inst(ident, one, one, f, e, unit))

    @pytest.mark.parametrize("ident,r,f,e", [
        ("HARDY", None, fs.Sum([DIP, fs.Constant(0.0)]), E(p=2.0)),
        ("HARDY", None, fs.Product([DIP, fs.Constant(1.0)]), E(p=2.0)),
        ("T2.3", fs.Sum([DIP]), ONE, E()),
    ], ids=["sum-f", "product-f", "sum-weight"])
    def test_negative_dip_inside_a_composite_rejected(self, unit, ident, r, f, e):
        # a sum or product whose term dips below 0 between two samples of
        # the probe: its values on both sides of each breakpoint decide it
        # (each of these Held, ratio 0.0345, 0.0345 and 0.348)
        with pytest.raises(InvalidSpec, match="negative"):
            vf.verify(inst(ident, r, None, f, e, unit))

    @pytest.mark.parametrize("r,message", [
        (fs.PowerLaw(-1.0, 0.5), "spec is negative inside the interval"),
        (fs.PiecewiseLinear([(0.0, 1.0), (0.6, 2.0), (0.5, 1.0), (1.0, 1.0)]),
         "piecewise linear knots must be strictly increasing"),
    ])
    def test_weights_checked_once_per_verify(self, unit, one, monkeypatch, r, message):
        calls = []
        real = ct.check_weights
        monkeypatch.setattr(ct, "check_weights",
                            lambda *args: calls.append(args) or real(*args))
        vf.verify(inst("T2.9", fs.PowerLaw(1.0, 0.5), one, one, E(), unit))
        assert len(calls) == 1
        # an invalid or negative weight raises the error it raised before
        calls.clear()
        with pytest.raises(InvalidSpec) as err:
            vf.verify(inst("T2.9", r, one, one, E(), unit))
        assert str(err.value) == message
        assert len(calls) == 1

    @pytest.mark.parametrize("assemble", [vf.assemble_lhs, vf.assemble_rhs])
    def test_sides_check_the_weights(self, unit, one, assemble):
        # assemble_rhs of T2.10 used to give -0.1667 for this r
        with pytest.raises(InvalidSpec, match="negative"):
            assemble(inst("T2.10", fs.PowerLaw(-1.0, 1.0), one, one, E(), unit))

    def test_f_scaling_invariance_across_catalog(self, unit):
        # both sides are homogeneous of equal degree in f for every entry
        fam = fs.RandomPiecewiseLinear(4, (0.1, 1.0), seed=3, interval=unit)
        f = fs.sample_family(fam, 1)[0]
        f_scaled = fs.scale(f, 7.3)
        for ident in ct.THEOREM_IDS:
            r, s = suite_weights(ident, seed=0)
            e = SUITE_EXPONENTS.get(ident, E())
            r1 = vf.verify(inst(ident, r, s, f, e, unit)).ratio
            r2 = vf.verify(inst(ident, r, s, f_scaled, e, unit)).ratio
            assert r1 == pytest.approx(r2, rel=1e-9), ident

    def test_interval_affine_invariance_with_constant_weights(self, one):
        # mapping (0,1) to (0,L) rescales both sides consistently for the
        # sup-based entries with constant r
        for ident, e in (("T2.3", E()), ("T2.11", E(p=2.0))):
            small = vf.verify(
                inst(ident, one, None, one, e, fs.Interval(0.0, 1.0))
            ).ratio
            big = vf.verify(
                inst(ident, one, None, one, e, fs.Interval(0.0, 2.5))
            ).ratio
            assert small == pytest.approx(big, rel=1e-9), ident

    def test_hoelder_consistency_of_intermediate_bound(self, unit, one):
        # the split behind the squared-integral entry: int r F <= sqrt of
        # the product of the two factors, on a sweep of random f
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=17, interval=unit)
        s_weight = fs.Sum([ONE, fs.PowerLaw(1.0, 1.0)])
        c_factor = ct.hardy_constant("T2.1", one, s_weight, E(), unit).value
        for f in fs.sample_family(fam, 50):
            lhs = vf.assemble_lhs(inst("T2.1", one, s_weight, f, E(), unit))
            rhs = vf.assemble_rhs(inst("T2.1", one, s_weight, f, E(), unit))
            assert math.sqrt(lhs.value) <= math.sqrt(c_factor * rhs.value) * (
                1.0 + 1e-9
            )

    def test_violation_triage_detail(self, unit, one):
        # the derived L reading is numerically refuted even by f = 1; the
        # report must carry the retest and the alternate-mode outcome
        rep = vf.verify(
            inst("T2.22", one, None, one, E(p=2.0), unit, mode="as_derived")
        )
        assert rep.status == "Violated"
        assert "retested" in rep.detail
        assert "as_printed" in rep.detail


def _identity(xs):
    return xs


UNIT = fs.Interval(0.0, 1.0)
LINEAR = opial.linear_path(UNIT)


class TestNotASpec:
    """Every integrand and weight is a spec: a callable gets the one
    InvalidSpec message at each public entry point."""

    @pytest.mark.parametrize("call", [
        lambda g: quad.integrate(g, UNIT),
        lambda g: quad.Job(g, UNIT),
        lambda g: quad.product_integral([(ONE, 1.0), (g, 2.0)], UNIT),
        lambda g: quad.cumulative(g, UNIT),
        lambda g: quad.RunningIntegral(g, UNIT, "tail"),
        lambda g: quad.sup_on_interval(g, UNIT),
        lambda g: ct.hardy_constant("T2.1", g, ONE, E(), UNIT),
        lambda g: ct.hardy_constant("T2.1", ONE, g, E(), UNIT),
        lambda g: vf.verify(inst("T2.1", g, ONE, ONE, E(), UNIT)),
        lambda g: vf.verify(inst("T2.1", ONE, g, ONE, E(), UNIT)),
        lambda g: vf.verify(inst("T2.1", ONE, ONE, g, E(), UNIT)),
        lambda g: opial.verify_variant(opial.variant("Y"), LINEAR, weights={"r": g, "s": ONE}),
        lambda g: opial.verify_variant(opial.variant("Y"), LINEAR,
                                       weights={"r": fs.ShiftedPowerLaw(1.0, 1.0), "s": g}),
    ], ids=["integrate", "Job", "product_integral", "cumulative", "RunningIntegral",
            "sup_on_interval", "hardy_constant-r", "hardy_constant-s", "verify-r", "verify-s",
            "verify-f", "verify_variant-r", "verify_variant-s"])
    def test_callable_rejected(self, call):
        with pytest.raises(InvalidSpec) as exc:
            call(_identity)
        assert str(exc.value) == str(fs._not_a_spec(_identity))
        assert str(exc.value).startswith("function is not a function spec")


class TestOverflowIsDomainError:
    """A float overflow, or 0 to a negative power, in a constant, a closed
    running integral or a side's outer power ends in DomainError, not in a
    Python exception outside HopialError."""

    @pytest.mark.parametrize("call", [
        lambda: ct.hardy_constant("T2.5", ONE, fs.Constant(0.0), E(), UNIT),
        lambda: fs.closed_antiderivative(fs.ShiftedPowerLaw(1.0, 400.0),
                                         fs.Interval(0.0, 1000.0)),
        lambda: vf.verify(inst("T2.3", ONE, None, fs.Exponential(1.0, 2.0), E(),
                               fs.Interval(500.0, 501.0))),
        lambda: vf.verify(inst("T2.2", ONE, ONE, fs.Constant(1e300), E(), UNIT)),
        lambda: ct.ConstantBreakdown(1j, (("c", 1j),), "as_printed", 0.0),
    ], ids=["zero-to-negative-power", "shifted-power-antiderivative",
            "exponential-antiderivative", "outer-power", "complex-constant"])
    def test_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestSweep:
    def test_deterministic_and_prefix(self, unit, one):
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=5, interval=unit)
        s1 = vf.sweep("T2.1", fam, one, one, E(), unit, 20)
        s2 = vf.sweep("T2.1", fam, one, one, E(), unit, 20)
        assert s1 == s2
        single = vf.sweep("T2.1", fam, one, one, E(), unit, 1)
        direct = vf.verify(
            inst("T2.1", one, one, fs.sample_family(fam, 1)[0], E(), unit)
        )
        assert single.reports[0].ratio == pytest.approx(direct.ratio, rel=1e-12)

    def test_errors_become_inconclusive_without_aborting(self, unit, one):
        # the second member's cube is structurally non-integrable
        fam = fs.GridPowerLaw([1.0, -0.95])
        sw = vf.sweep("T2.11", fam, one, None, E(p=2.0), unit, 2)
        assert sw.reports[0].status == "Holds"
        assert sw.reports[1].status == "Inconclusive"
        assert "NonIntegrable" in sw.reports[1].detail

    def test_unit_weight_soundness_200(self, unit, one):
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=11, interval=unit)
        sw = vf.sweep("T2.1", fam, one, one, E(), unit, 200)
        assert sw.n_violated == 0
        assert sw.max_ratio <= 1.0 + 1e-6

    def test_counts_and_argmax(self, unit, one):
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=5, interval=unit)
        sw = vf.sweep("T2.3", fam, one, None, E(), unit, 30)
        assert sw.n_holds == 30
        assert sw.max_ratio == max(r.ratio for r in sw.reports)
        assert sw.reports[sw.argmax].ratio == sw.max_ratio


class TestBatchedSweep:
    """A sweep integrates all members together; each report must equal
    verify of its member alone with the sweep's constant."""

    @staticmethod
    def alone(ident, family, r, s, exps, iv, count, mode="default"):
        ident = ct.canonical_id(ident)
        mode = ct.resolve_mode(ident, mode)
        bd = ct.hardy_constant(ident, r, s, exps, iv, mode=mode)
        out = []
        for f in fs.sample_family(family, count):
            try:
                out.append(vf.verify(inst(ident, r, s, f, exps, iv, mode), breakdown=bd))
            except HopialError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    @pytest.mark.parametrize("ident,seed,mode", [
        ("T2.1", 3, "default"), ("T2.5", 4, "default"), ("T2.11", 1, "default"),
        ("T2.13", 2, "default"), ("T2.18", 6, "default"), ("T2.22", 0, "default"),
        ("T2.27", 7, "default"), ("T2.16", 5, "as_derived"),
    ])
    def test_reports_equal_verify_alone(self, ident, seed, mode):
        iv = fs.Interval(0.0, 1.0)
        count = 50 if ident == "T2.16" else 12
        r, s = suite_weights(ident, seed)
        family = fs.RandomPiecewiseLinear(
            n_knots=4, value_range=(0.0, 1.0),
            seed=seed ^ (ct.THEOREM_IDS.index(ident) * 7919 + 13), interval=iv)
        exps = SUITE_EXPONENTS.get(ident, E())
        sw = vf.sweep(ident, family, r, s, exps, iv, count, mode=mode)
        alone = self.alone(ident, family, r, s, exps, iv, count, mode)
        assert [repr(rep) for rep in sw.reports] == [repr(rep) for rep in alone]
        if ident == "T2.16":
            assert sw.n_violated >= 1
            assert all("retested" in rep.detail for rep in sw.violated)

    def assert_alone(self, ident, family, r, s, exps, iv, count, mode="default"):
        sw = vf.sweep(ident, family, r, s, exps, iv, count, mode=mode)
        alone = self.alone(ident, family, r, s, exps, iv, count, mode)
        assert [repr(rep) if isinstance(ref, vf.VerificationReport) else rep.detail
                for rep, ref in zip(sw.reports, alone)] == [
            repr(ref) if isinstance(ref, vf.VerificationReport) else ref for ref in alone]
        return sw

    @pytest.mark.parametrize("ident", ["T2.1", "T2.4", "T2.9", "T2.18", "T2.27", "HARDY"])
    @pytest.mark.parametrize("a", [100.0, -3.0])
    def test_shifted_intervals_equal_verify_alone(self, ident, a):
        iv = fs.Interval(a, a + 1.0)
        family = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=17, interval=iv)
        exps = E(p=2.0) if ident == "HARDY" else SUITE_EXPONENTS.get(ident, E())
        sw = self.assert_alone(ident, family, fs.PowerLaw(1.3, 0.4),
                               fs.Sum([ONE, fs.PowerLaw(0.5, 1.5)]), exps, iv, 10)
        assert sw.n_holds == 10

    @pytest.mark.parametrize("ident", ["T2.3", "T2.4", "T2.22", "HARDY"])
    @pytest.mark.parametrize("family", [
        fs.RandomPiecewiseLinear(4, (0.0, 1.0), 3, vanish_at="left"),
        fs.RandomPiecewiseLinear(4, (0.0, 1.0), 4, vanish_at="right"),
        fs.RandomPiecewiseLinear(4, (0.0, 1.0), 5, vanish_at="both"),
        fs.RandomPiecewiseLinear(2, (0.0, 1.0), 6),
        fs.RandomPiecewiseLinear(6, (0.5, 2.0), 7),
        fs.RandomPowerLaw((-0.1, 2.0), (0.5, 2.0), 8),
        fs.GridPowerLaw([0.1, 0.5, 1.0, 2.5, 3.0, -0.05, 1.5, 0.75]),
    ], ids=["vanish-left", "vanish-right", "vanish-both", "knots-2", "knots-6",
            "power-law", "grid"])
    def test_families_equal_verify_alone(self, unit, ident, family):
        exps = E(p=2.0) if ident == "HARDY" else SUITE_EXPONENTS.get(ident, E())
        self.assert_alone(ident, family, fs.PowerLaw(1.2, 0.5), None, exps, unit, 8)

    @pytest.mark.parametrize("ident", ["T2.3", "T2.4", "T2.9", "T2.27", "HARDY"])
    def test_mixed_members_equal_verify_alone(self, unit, monkeypatch, ident):
        # members of several structures in one sweep: knot counts, vanishing
        # ends, a running integral with a double zero at a (f(a) = 1e-17), a
        # first knot left of a, f = 0, power laws and a sum
        members = [
            fs.PiecewiseLinear([(0.0, 0.3), (0.5, 1.0), (1.0, 0.5)]),
            fs.PiecewiseLinear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.5)]),
            fs.PiecewiseLinear([(0.0, 1e-17), (0.5, 1.0), (1.0, 0.5)]),
            fs.PowerLaw(1.0, 0.5),
            fs.PiecewiseLinear([(0.0, 0.7), (0.2, 0.1), (0.6, 0.9), (1.0, 0.0)]),
            fs.PiecewiseLinear([(-0.5, 0.4), (0.5, 1.0), (1.0, 0.6)]),
            fs.PiecewiseLinear([(0.0, 0.6), (0.25, 0.2), (1.0, 0.9)]),
            fs.PiecewiseLinear([(0.0, 0.0), (1.0, 0.0)]),
            fs.Sum([ONE, fs.Exponential(0.5, 1.0)]),
            fs.PiecewiseLinear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.25)]),
        ]
        monkeypatch.setattr(fs, "sample_family", lambda family, count: members)
        exps = E(p=2.0) if ident == "HARDY" else SUITE_EXPONENTS.get(ident, E())
        r, s = suite_weights(ident, 3)
        if ident == "HARDY":
            r = s = None
        self.assert_alone(ident, None, r, s, exps, unit, len(members))

    def test_member_errors_match_alone(self, monkeypatch):
        # member 1 is singular at a shifted endpoint (m = 100 substitution,
        # exact offsets), member 3 has a non-integrable endpoint and member 5
        # overflows (f^2 = e^(800 x) on (1, 2)); the others are unaffected
        iv = fs.Interval(1.0, 2.0)
        members = [fs.PowerLaw(1.0, a) for a in (0.5, -0.49, 1.0, -1.2, 0.25)]
        members.append(fs.Exponential(1.0, 400.0))
        monkeypatch.setattr(fs, "sample_family", lambda family, count: members)
        sw = vf.sweep("HARDY", None, None, None, E(p=2.0), iv, len(members))
        alone = self.alone("HARDY", None, None, None, E(p=2.0), iv, len(members))
        statuses = [rep.status for rep in sw.reports]
        assert statuses == ["Holds", "Holds", "Holds", "Inconclusive", "Holds",
                            "Inconclusive"]
        # ratio ((p - 1) / (p (alpha + 1)))^p at f = (x - a)^alpha
        exact = 1.0 / (2.0 * 0.51) ** 2
        assert abs(sw.reports[1].ratio - exact) <= sw.reports[1].error_budget
        assert "exponent" in sw.reports[3].detail
        assert sw.reports[5].detail.startswith("DomainError: ")
        for rep, ref in zip(sw.reports, alone):
            if isinstance(ref, str):
                assert rep.detail == ref
            else:
                assert repr(rep) == repr(ref)


    def test_failed_rhs_plan_fails_each_member_alone(self, unit, monkeypatch):
        # the rhs plan of every group fails after its lhs is planned: a
        # group's members get the error each gets alone
        def failing(*args):
            raise PreconditionFailed("no right side")

        monkeypatch.setattr(vf, "_rhs_plan", failing)
        family = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=9, interval=unit)
        sw = self.assert_alone("T2.3", family, fs.PowerLaw(1.2, 0.5), None, E(), unit, 6)
        assert {rep.detail for rep in sw.reports} == {"PreconditionFailed: no right side"}

    def test_overflowing_member_fails_alone(self, unit, monkeypatch):
        members = [fs.PowerLaw(1.0, 0.5), fs.PowerLaw(1e200, 0.5), fs.PowerLaw(2.0, 0.25)]
        monkeypatch.setattr(fs, "sample_family", lambda family, count: members)
        sw = vf.sweep("HARDY", None, None, None, E(p=2.0), unit, len(members))
        assert [rep.status for rep in sw.reports] == ["Holds", "Inconclusive", "Holds"]
        assert sw.reports[1].detail.startswith("DomainError: ")
        assert "overflows" in sw.reports[1].detail

    def test_invalid_members_match_alone(self, unit, one, monkeypatch):
        # the nonnegativity probes of a sweep run batched; a negative member
        # keeps the detail verify of it alone raises (no family draws one,
        # so the members are given)
        members = [fs.PiecewiseLinear([(0.0, v), (0.5, 0.3), (1.0, 1.0)])
                   for v in (0.2, -0.1, 0.6, -0.5)] + [fs.PowerLaw(-1.0, 1.0)]
        monkeypatch.setattr(fs, "sample_family", lambda family, count: members)
        sw = vf.sweep("T2.3", None, one, None, E(), unit, len(members))
        alone = self.alone("T2.3", None, one, None, E(), unit, len(members))
        negative = "InvalidSpec: spec is negative inside the interval"
        assert alone[1] == alone[3] == alone[4] == negative
        assert [rep.status for rep in sw.reports] == [
            "Holds", "Inconclusive", "Holds", "Inconclusive", "Inconclusive"]
        for rep, ref in zip(sw.reports, alone):
            if isinstance(ref, str):
                assert rep.detail == ref
            else:
                assert repr(rep) == repr(ref)

    def test_verify_many_groups_probes_by_skeleton(self, unit, one):
        fs_list = [
            fs.PowerLaw(1.0, 0.5), fs.PowerLaw(-1.0, 0.5),
            fs.PiecewiseLinear([(0.0, 0.5), (0.5, -0.1), (1.0, 1.0)]),
            fs.Power(fs.Sum([fs.Constant(-0.5), fs.PowerLaw(1.0, 1.0)]), 0.5),
            fs.PiecewiseLinear([(0.0, 0.5), (0.5, 0.1), (1.0, 1.0)]),
            fs.PiecewiseLinear([(0.2, 0.5), (1.0, 1.0)]),
            fs.Exponential(2.0, -1.0), fs.PowerLaw(2.0, 1.5),
        ]
        insts = [inst("T2.3", one, None, f, E(), unit) for f in fs_list]
        got = vf.verify_many(insts)
        for case, res in zip(insts, got):
            try:
                ref = vf.verify(case)
            except HopialError as exc:
                assert type(res) is type(exc) and str(res) == str(exc)
            else:
                assert repr(res) == repr(ref)
        assert [type(res).__name__ for res in got] == [
            "VerificationReport", "InvalidSpec", "InvalidSpec", "InvalidSpec",
            "VerificationReport", "InvalidSpec", "VerificationReport",
            "VerificationReport",
        ]
        assert "NaN" in str(got[3])


def _batches(monkeypatch, run):
    """Every (jobs, integrals) batch that ``run`` integrates, and its
    result."""
    seen = []
    real = quad.integrate_arrays

    def recording(jobs):
        out = real(jobs)
        seen.append((list(jobs), out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(quad, "integrate_arrays", recording)
        return seen, run()


def _outcome(res):
    return repr(res) if not isinstance(res, HopialError) else (type(res).__name__, str(res))


def _member_row(part, row, iv):
    """The code, ends and breakpoints of member ``row`` of a group's part
    (of a spec alone: of its walk)."""
    if not isinstance(part, fs.Part):
        part = fs.Part(part, iv)
        return part.code, part.ends, part.breaks
    fargs, data, breaks = part.rows
    ops, first, iargs, _ = part.code
    fargs = [tuple(args) for args in (first if fargs is None else fargs[row].tolist())]
    return ((ops, fargs, iargs, data[row].tolist()), part.ends,
            [x for x in breaks[row].tolist() if not math.isnan(x)])


def _cut_rows_of(job):
    """``_prepare``'s cuts of a job, a list of rows per member, the piece
    index (a position in its batch) left out."""
    cuts = []
    counts = quad._prepare(job, cuts)[4]
    rows = np.asarray(cuts[0], dtype=float).reshape(-1, quad._CUT)
    rows[:, quad._PIECE] = 0.0
    rows = rows.tolist()
    return [rows[sum(counts[:m]):sum(counts[:m + 1])] for m in range(len(counts))]


class TestMembersAsArrays:
    """The members of a sweep are signed, grouped, cut, integrated and
    judged as arrays; every step gives each member the bits of the same
    step for it alone (``verify_many`` of one instance): the sign check's
    message, its group's parameter row, its cuts, the ``repr`` of each
    side's QuadResult and its report."""

    @staticmethod
    def draw_members(draw, iv):
        n = draw(st.integers(2, 4))
        members = []
        for _ in range(draw(st.integers(2, 7))):
            kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "repeat", "invalid"]))
            if kind == "repeat" and members:
                members.append(draw(st.sampled_from(members)))
                continue
            # knots left of a and past b
            lo, hi = (end + draw(st.sampled_from([0.0, 0.0, 0.5])) * out
                      for end, out in ((iv.a, -1.0), (iv.b, 1.0)))
            ts = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=n - 2, max_size=n - 2,
                                      unique=True)))
            xs = [lo] + [iv.a + t * iv.width for t in ts] + [hi]
            vs = [draw(st.sampled_from([0.0, 1e-17])) if draw(st.booleans())
                  else draw(st.floats(0.1, 2.0)) for _ in xs]
            if kind == "invalid":
                bad = draw(st.sampled_from(["decreasing", "negative", "nan"]))
                if bad == "decreasing":
                    xs[0], xs[1] = xs[1], xs[0]
                else:
                    vs[draw(st.integers(0, n - 1))] = -0.25 if bad == "negative" else math.nan
            members.append(fs.PiecewiseLinear(zip(xs, vs)))
        return members

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_each_member_gets_its_bits_alone(self, data):
        draw = data.draw
        a = draw(st.sampled_from([-3.0, 0.0, 100.0]))
        iv = fs.Interval(a, a + draw(st.sampled_from([0.5, 1.0, 2.5])))
        ident = draw(st.sampled_from(["T2.3", "T2.4", "T2.22", "HARDY"]))
        r, s = (None, None) if ident == "HARDY" else (fs.PowerLaw(1.3, 0.4), fs.Sum(
            [ONE, fs.PowerLaw(0.5, 1.5)]))
        exps = E(p=2.0) if ident == "HARDY" else SUITE_EXPONENTS.get(ident, E())
        fns = self.draw_members(draw, iv)
        base = inst(ident, r, s, None, exps, iv)
        bd = ct.hardy_constant(ident, r, s, exps, iv)
        # the sign checks
        errors = fs.nonnegativity_errors(fns, iv)
        assert [_outcome(e) for e in errors] == [
            _outcome(fs.nonnegativity_errors([f], iv)[0]) for f in fns]
        valid = [f for f, e in zip(fns, errors) if e is None]
        # the reports, and the batches they integrate
        with pytest.MonkeyPatch.context() as patch:
            alone = [_batches(patch, lambda f=f: vf.verify_many(
                [vf.replace(base, f=f)], breakdown=bd)) for f in fns]
            patch.setattr(quad, "_FEW_RUNS", 0)  # the run table as arrays, as in a sweep
            together, reports = _batches(patch, lambda: vf.verify_many(
                [vf.replace(base, f=f) for f in fns], breakdown=bd))
        assert [_outcome(rep) for rep in reports] == [_outcome(rep[0]) for _, rep in alone]
        if not valid:
            return
        # the pass's groups: each member's parameter rows, side jobs, cuts
        # and integrals
        resolved = base.resolved()
        groups = vf._groups(base, valid, resolved, None)
        for members, f, (F, _) in groups:
            for row, m in enumerate(members):
                ((_, f_alone, (F_alone, _)),) = vf._groups(base, [valid[m]], resolved, None)
                for part, spec in ((f, f_alone), (F, F_alone)):
                    ref = fs.Part(spec, iv)
                    assert repr(_member_row(part, row, iv)) == repr(
                        (ref.code, ref.ends, ref.breaks))
        jobs, integrals = together[0]
        assert len(jobs) == 2 * len(groups)
        batches = [seen[0] for (seen, _), e in zip(alone, errors) if e is None]
        slot = 0
        for g, (members, _, _) in enumerate(groups):
            for side in range(2):
                job = jobs[2 * g + side]
                cuts = _cut_rows_of(job)
                for row, m in enumerate(members):
                    alone_jobs, alone_integrals = batches[m]
                    assert repr(cuts[row]) == repr(_cut_rows_of(alone_jobs[side])[0])
                    assert repr(integrals[slot + row]) == repr(alone_integrals[side])
                slot += len(members)


class TestStructureWalks:
    """An integral is planned by one walk (``funcspace.product``), which
    gives its program code, its (kappa, rho) at both ends and its
    breakpoints.  A sweep groups its members by the structure of f and
    plans each side of a group once, by a walk of its first member that
    joins the part of the shared weights; the other members are parameter
    rows of that plan.  The weights are walked once per sweep, and a sweep
    builds one kernel program per group's side, not one per member."""

    @staticmethod
    def sweep(ident, count, weights=None):
        iv = fs.Interval(0.0, 1.0)
        r, s = weights or suite_weights(ident, 0)
        family = fs.RandomPiecewiseLinear(n_knots=4, value_range=(0.0, 1.0),
                                          seed=11, interval=iv)
        sw = vf.sweep(ident, family, r, s, SUITE_EXPONENTS.get(ident, E()), iv, count)
        assert sw.n_holds == count

    def walks(self, monkeypatch, ident, count):
        """Walks of a whole spec (calls of ``_walk`` from outside it)."""
        calls = [0]
        depth = [0]
        real = fs._walk

        def wrapper(*args):
            calls[0] += depth[0] == 0
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1

        with monkeypatch.context() as patch:
            patch.setattr(fs, "_walk", wrapper)
            self.sweep(ident, count)
        return calls[0]

    @pytest.mark.parametrize("ident", ["T2.1", "T2.4", "T2.27", "HARDY"])
    def test_work_per_sweep_does_not_grow_with_members(self, monkeypatch, ident):
        # a family of one structure is one group: the first member is walked
        # and every other one is a parameter row
        counts = [(self.walks(monkeypatch, ident, count),
                   self.programs(monkeypatch, ident, count)) for count in (10, 50)]
        assert counts[0] == counts[1]

    def shared_walks(self, monkeypatch, ident, count):
        """Calls of ``_walk``, at any depth, on the sweep's weight objects r
        and s."""
        r, s = suite_weights(ident, 0)
        calls = [0]
        real = fs._walk

        def wrapper(spec, *args):
            calls[0] += spec is r or spec is s
            return real(spec, *args)

        with monkeypatch.context() as patch:
            patch.setattr(fs, "_walk", wrapper)
            self.sweep(ident, count, (r, s))
        return calls[0]

    @pytest.mark.parametrize("ident", ["T2.1", "T2.4", "T2.27", "HARDY"])
    def test_member_helpers_run_once_per_group(self, monkeypatch, ident):
        """While a 50-member sweep signs and plans its members, the scalar
        end, validity and sign rules run at most once per group (the walk
        of its first member): the members are read as arrays."""
        counts = dict.fromkeys(("_pwl_ends", "_ppoly_ends", "validate", "_sign_values"), 0)
        inside, groups = [False], []

        def counting(name, real):
            def wrapper(*args):
                counts[name] += inside[0]
                return real(*args)
            return wrapper

        def members(name, real):
            def wrapper(specs, *args):
                inside[0] = len(specs) == 50
                try:
                    out = real(specs, *args)
                finally:
                    inside[0] = False
                if name == "plan_groups" and len(specs) == 50:
                    groups.append(len(out))
                return out
            return wrapper

        with monkeypatch.context() as patch:
            for name in counts:
                patch.setattr(fs, name, counting(name, getattr(fs, name)))
            for name in ("nonnegativity_errors", "plan_groups"):
                patch.setattr(fs, name, members(name, getattr(fs, name)))
            self.sweep(ident, 50)
        assert groups == [1]
        assert all(n <= groups[0] for n in counts.values()), counts

    @pytest.mark.parametrize("ident", ["T2.1", "T2.4", "T2.9", "T2.27"])
    def test_shared_weights_walked_once_per_sweep(self, monkeypatch, ident):
        small = self.shared_walks(monkeypatch, ident, 10)
        assert small > 0
        assert self.shared_walks(monkeypatch, ident, 20) == small

    def programs(self, monkeypatch, ident, count):
        """``Program``s built in a sweep."""
        built = [0]
        real = fs.Program.__init__

        def counting(prog, *args):
            built[0] += 1
            real(prog, *args)

        with monkeypatch.context() as patch:
            patch.setattr(fs.Program, "__init__", counting)
            self.sweep(ident, count)
        return built[0]

    @pytest.mark.parametrize("ident", ["T2.1", "T2.4", "T2.27", "HARDY"])
    def test_programs_built_once_per_group(self, monkeypatch, ident):
        small = self.programs(monkeypatch, ident, 10)
        assert small > 0
        assert self.programs(monkeypatch, ident, 20) == small

    @pytest.mark.parametrize("ident, calls, points", [
        ("T2.1", 10, 1876), ("T2.9", 9, 1996), ("T2.27", 16, 2056), ("HARDY", 6, 1320)])
    def test_kernel_rounds(self, monkeypatch, ident, calls, points):
        """A 10-member sweep makes exactly these kernel calls, on these
        points: each round evaluates the new panels of all pieces of one
        skeleton group in one call, so the loop's bookkeeping adds none."""
        seen = [0, 0]
        real = _kernel.eval_program

        def counting(*args):
            seen[0] += 1
            seen[1] += len(args[4])
            return real(*args)

        monkeypatch.setattr(_kernel, "eval_program", counting)
        self.sweep(ident, 10)
        assert seen == [calls, points]

    @staticmethod
    def jobs(monkeypatch, run):
        """The jobs ``run`` integrates, and its result."""
        jobs = []
        real = quad.integrate_arrays  # integrate_many's batch call too

        def recording(batch):
            jobs.extend(batch)
            return real(batch)

        with monkeypatch.context() as patch:
            patch.setattr(quad, "integrate_arrays", recording)
            return jobs, run()

    def test_prepare_walks_nothing(self, monkeypatch):
        jobs, _ = self.jobs(monkeypatch, lambda: self.sweep("T2.9", 5))

        def walk(*args):
            raise AssertionError("_prepare walked a spec")

        with monkeypatch.context() as patch:
            for name in ("endpoint_structure", "breakpoints", "compile_program", "_walk"):
                patch.setattr(fs, name, walk)
            cuts = []
            for job in jobs:
                quad._prepare(job, cuts)
            assert len(cuts) >= len(jobs)

    @staticmethod
    def assert_assembled(job):
        """The job's code, ends and breakpoints are what a walk of its merged
        product spec gives; a group's job (a template plan, whose spec holds
        the group's part) in every parameter row."""
        code, ends, breaks, rows = fs.product([job.f], job.home or job.interval)

        def rows_of(code):
            ops, fargs, iargs, data = code
            fargs = np.asarray(fargs, dtype=float).reshape(-1, len(ops), 3)
            return ops, iargs, fargs.tolist(), np.asarray(data, dtype=float).reshape(
                len(fargs), -1).tolist()

        assert rows_of(job.code) == rows_of(code)
        assert (job.ends, job.breakpoints, job.rows is None) == (ends, breaks, rows is None)
        if rows is not None:  # a row of breakpoints per member
            assert np.array_equal(job.rows, rows, equal_nan=True)

    @pytest.mark.parametrize("ident", ct.THEOREM_IDS)
    def test_assembled_jobs_match_the_walks(self, monkeypatch, ident):
        jobs, _ = self.jobs(monkeypatch, lambda: cli._sweep_case(ident, 0, 5))
        assert jobs
        for job in jobs:
            if job.code is not None:
                self.assert_assembled(job)

    @pytest.mark.parametrize("ident,r,e,alpha", [
        ("T2.3", fs.PowerLaw(1.5, 0.7), E(), 3.7),  # r F^2
        ("HARDY", None, E(p=2.0), 1.0),  # F^2 (x - a)^-2
    ])
    def test_folded_factors_are_planned_afresh(self, monkeypatch, unit, ident, r, e,
                                               alpha):
        # F = x^1.5 / 1.5 of f = x^0.5 folds into the power-law weight
        f = fs.PowerLaw(1.0, 0.5)
        jobs, rep = self.jobs(monkeypatch,
                              lambda: vf.verify(inst(ident, r, None, f, e, unit)))
        assert rep.status == "Holds"
        assert any(isinstance(job.f, fs.PowerLaw) and job.f.alpha == pytest.approx(alpha)
                   for job in jobs)
        for job in jobs:
            self.assert_assembled(job)


class TestHardyCancellingAntiderivative:
    """F of these f is a cancelling Sum; F / (x - a) still tends to f(a)."""

    @pytest.mark.parametrize("a", [0.0, 2.0])
    @pytest.mark.parametrize("which", ["exp", "sum"])
    def test_lhs_matches_scipy(self, a, which):
        from scipy import integrate

        b = a + 1.0
        if which == "exp":
            f = fs.Exponential(1.0, 1.0)

            def F_over_t(x):  # (e^x - e^a) / (x - a)
                t = x - a
                return math.exp(a) * math.expm1(t) / t
        else:
            f = fs.Sum([fs.Constant(0.2), fs.ShiftedPowerLaw(1.0, -0.4)])

            def F_over_t(x):  # 0.2 + ((b-a)^0.6 - (b-x)^0.6) / (0.6 (x - a))
                t = x - a
                drop = -math.expm1(0.6 * math.log1p(-t / (b - a)))
                return 0.2 + (b - a) ** 0.6 * drop / (0.6 * t)

        case = inst("HARDY", None, None, f, E(p=2.0), fs.Interval(a, b))
        ref, _ = integrate.quad(lambda x: F_over_t(x) ** 2, a, b,
                                epsabs=0.0, epsrel=1e-13, limit=200)
        assert vf.assemble_lhs(case).value == pytest.approx(ref, rel=1e-9)
        rep = vf.verify(case)
        assert rep.lhs == pytest.approx(ref, rel=1e-9)
        assert rep.status == "Holds"


class TestSharpness:
    def test_hardy_family_climbs_toward_singular(self, unit):
        res = vf.sharpness_search(
            "HARDY", lambda prm: fs.PowerLaw(1.0, float(prm[0])),
            [(-0.5, -0.05)], None, None, E(p=2.0), unit, budget=100,
        )
        assert res.best_ratio >= 0.96
        assert res.best_params[0] < -0.45
        assert res.best_ratio <= 1.0 + res.best_report.error_budget

    def test_degenerate_constant_family(self, unit, one):
        res = vf.sharpness_search(
            "T2.3", lambda prm: ONE, [], one, None, E(), unit, budget=50,
        )
        assert res.evaluations == 1
        assert res.best_ratio == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_budget_and_arity_guards(self, unit, one):
        with pytest.raises(PreconditionFailed):
            vf.sharpness_search("T2.3", lambda prm: ONE, [], one, None, E(),
                                unit, budget=10)
        with pytest.raises(PreconditionFailed):
            vf.sharpness_search(
                "T2.3", lambda prm: ONE, [(0, 1)] * 4, one, None, E(), unit,
            )

    def test_lemma_hat_search_finds_symmetric_peak(self, unit):
        from hopial import opial

        res = vf.sharpness_search(
            "OPIAL", lambda prm: opial.hat_path(unit, float(prm[0])), [(0.2, 0.8)],
            None, None, E(), unit, budget=80,
        )
        assert res.best_ratio == pytest.approx(1.0, abs=1e-6)
        assert res.best_params[0] == pytest.approx(0.5, abs=1e-3)

    def test_negative_f_is_never_reported(self, unit, one):
        # every f of the family is negative at 0.5: none is evaluated, and
        # the search raises verify's InvalidSpec (it reported Holds, ratio
        # 0.0708, at t = -0.5)
        def hat(prm):
            return fs.PiecewiseLinear([(0, 1), (0.5, float(prm[0])), (1, 1)])

        with pytest.raises(InvalidSpec, match="negative"):
            vf.sharpness_search("T2.3", hat, [(-1.0, -0.5)], one, None, E(), unit,
                                budget=60)
        # where part of the family is valid, the best f is one of those
        res = vf.sharpness_search("T2.3", hat, [(-1.0, 1.0)], one, None, E(), unit,
                                  budget=60)
        assert res.best_params[0] >= 0.0
        assert res.best_report.status == "Holds"

    def test_non_finite_ratios_skipped(self, unit, one):
        # family members outside the integrable range are skipped, not fatal
        def builder(prm):
            return fs.PowerLaw(1.0, float(prm[0]))

        res = vf.sharpness_search(
            "T2.11", builder, [(-0.5, 0.5)], one, None, E(p=2.0), unit,
            budget=60,
        )
        assert math.isfinite(res.best_ratio)


class TestSharpnessCurve:
    def test_curve_builds_the_constant_once(self, tmp_path, monkeypatch):
        from hopial import cli, reportio

        built, curves = [], []
        real_constant = ct.hardy_constant
        real_plot = reportio.ratio_plot_svg

        def counting(*args, **kwargs):
            built.append(args[0])
            return real_constant(*args, **kwargs)

        def capture(ratios, **kwargs):
            curves.append(list(ratios))
            return real_plot(ratios, **kwargs)

        monkeypatch.setattr(ct, "hardy_constant", counting)
        monkeypatch.setattr(reportio, "ratio_plot_svg", capture)
        config = cli.RunConfig(
            command="sharpness", theorem="T2.3",
            r=fs.spec_to_json(fs.Sum([ONE, fs.PowerLaw(1.0, 1.0)])),
            bounds=((-0.45, -0.05),), budget=50, out_svg=str(tmp_path / "c.svg"),
        )
        cli.run(config)
        assert built == ["T2.3"]
        monkeypatch.undo()
        # the 33 points are verify of each member alone
        r = fs.Sum([ONE, fs.PowerLaw(1.0, 1.0)])
        alone = [vf.verify(inst("T2.3", r, None, fs.PowerLaw(1.0, float(x)), E(),
                                fs.Interval(0.0, 1.0))).ratio
                 for x in np.linspace(-0.45, -0.05, 33)]
        assert [repr(v) for v in curves[0]] == [repr(v) for v in alone]


class TestStatusClassification:
    def test_bands(self):
        from hopial.opial import classify_status

        assert classify_status(0.5, 1e-9) == "Holds"
        assert classify_status(1.0 + 5e-10, 1e-9) == "Holds"
        assert classify_status(1.0 + 5e-9, 1e-9) == "Inconclusive"
        assert classify_status(1.0 + 2e-8, 1e-9) == "Violated"
        assert classify_status(math.inf, 1e-9) == "Violated"

    def test_judge_ratio_rule(self):
        from hopial.opial import judge

        assert judge(0.0, 0.0, 0.0, 0.0) == (0.0, "Holds", 1e-12)
        assert judge(1.0, 2.0, 0.0, 1e-9) == (math.inf, "Violated", 1e-9)
        assert judge(1.0, -1.0, 1.0, 1e-9) == (math.inf, "Violated", 1e-9)
        assert judge(1.0, 4.0, 0.5, 1e-3) == (0.5, "Holds", 1e-3)
        assert judge(1.0 + 5e-12, 1.0, 1.0, 0.0) == (1.0 + 5e-12, "Inconclusive", 1e-12)


# each left-anchored id and its reflection (F integrates f from the right)
MIRROR_PAIRS = [("T2.1", "T2.2"), ("T2.3", "T2.4"), ("T2.5", "T2.6"), ("T2.7", "T2.8"),
                ("T2.9", "T2.10"), ("T2.11", "T2.12"), ("T2.14", "T2.15"),
                ("T2.16", "T2.17"), ("T2.18", "T2.19"), ("T2.20", "T2.21"),
                ("T2.22", "T2.23"), ("T2.27", "T2.28"), ("T2.30", "T2.31"),
                ("C2.1a", "C2.1b"), ("C2.2a", "C2.2b")]


class TestReflectionDuality:
    @pytest.mark.parametrize("iv", [fs.Interval(0.0, 1.0), fs.Interval(1.0, 3.0)])
    @pytest.mark.parametrize("left,right", MIRROR_PAIRS)
    def test_reflected_instance_has_the_same_ratio(self, left, right, iv):
        # x -> a + b - x maps an instance of the left id to one of its mirror
        # (T2.27/T2.28 and T2.30/T2.31 read a head and a tail panel tree);
        # the seed-0 suite weights, f = x^0.7
        r, s = suite_weights(left, 0)
        e = SUITE_EXPONENTS.get(left, E())

        def mirror(w):
            return None if w is None else opial.reflect_spec(w, iv)

        f = fs.PowerLaw(1.0, 0.7)
        rep = vf.verify(inst(left, r, s, f, e, iv))
        ref = vf.verify(inst(right, mirror(r), mirror(s), mirror(f), e, iv))
        assert (rep.status, ref.status) == ("Holds", "Holds")
        assert ref.ratio == pytest.approx(rep.ratio, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# a golden grid of theorem checks: every id in its default mode, and in both
# modes where they differ; a 4-knot piecewise-linear f and the singular
# f = x^-0.15, on (0, 1) and on a shifted interval; the seed-0 suite weights
# and exponents.  tests/data/theorem_golden.json holds the reprs the grid
# gave when it was recorded, or the error a case raised;
# `python tests/test_verify.py OUT.json` records it afresh.
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("data") / "theorem_golden.json"

GRID_INTERVALS = ((0.0, 1.0), (1.25, 2.0))


def _grid_functions(iv):
    a, w = iv.a, iv.width
    pwl = fs.PiecewiseLinear([(a, 0.2), (a + 0.3 * w, 1.0), (a + 0.7 * w, 0.4),
                              (iv.b, 0.8)])
    return (("pwl", pwl), ("pow:-0.15", fs.PowerLaw(1.0, -0.15)))


def grid_cases(ident):
    """(label, thunk) per grid case of the theorem; the thunk runs it."""
    modes = (("as_printed", "as_derived") if ct.theorem_info(ident).modes_differ
             else ("default",))
    r, s = suite_weights(ident, 0)
    e = SUITE_EXPONENTS.get(ident, E())
    out = []
    for mode in modes:
        for a, b in GRID_INTERVALS:
            iv = fs.Interval(a, b)
            for name, f in _grid_functions(iv):
                out.append((f"{ident} {mode} {name} ({a:g}, {b:g})",
                            lambda f=f, iv=iv, mode=mode:
                            vf.verify(inst(ident, r, s, f, e, iv, mode))))
    return out


def grid_record(run):
    try:
        rep = run()
    except HopialError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"lhs": repr(rep.lhs), "rhs_core": repr(rep.rhs_core),
            "constant": repr(rep.constant), "ratio": repr(rep.ratio),
            "status": rep.status, "budget": repr(rep.error_budget)}


class TestGoldenGrid:
    @pytest.mark.parametrize("ident", ct.THEOREM_IDS)
    def test_theorem_matches_recording(self, ident):
        golden = json.loads(GOLDEN.read_text())
        cases = grid_cases(ident)
        assert {label for label, _ in cases} == {
            label for label in golden if label.split()[0] == ident}
        for label, run in cases:
            assert grid_record(run) == golden[label], label


if __name__ == "__main__":
    recorded = {label: grid_record(run)
                for ident in ct.THEOREM_IDS for label, run in grid_cases(ident)}
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
