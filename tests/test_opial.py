import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hopial import constants as ct
from hopial import funcspace as fs
from hopial import opial
from hopial.constants import ExponentSet as E
from hopial.errors import DomainError, InvalidSpec, PreconditionFailed

ONE = fs.Constant(1.0)


class TestPaths:
    def test_hat_lhs_piecewise_exact(self, unit):
        # symmetric hat with |y'| = 1: the integrand is the hat itself and
        # the two triangle halves contribute 1/8 each
        hat = opial.hat_path(unit)
        rec = opial.verify_variant(opial.variant("OPIAL"), hat)
        assert rec.lhs == pytest.approx(0.25, abs=1e-14)

    def test_linear_path_lhs(self, unit):
        rec = opial.verify_variant(opial.variant("B1"), opial.linear_path(unit))
        assert rec.lhs == pytest.approx(0.5, abs=1e-13)

    def test_zero_path(self, unit):
        zero = opial.path_from_spec(fs.PiecewiseLinear([(0, 0), (1, 0)]), unit)
        rec = opial.verify_variant(opial.variant("OPIAL"), zero)
        assert rec.lhs == 0.0
        assert rec.ratio == 0.0
        assert rec.status == "Holds"

    def test_boundary_enforced(self, unit):
        not_vanishing = opial.path_from_spec(
            fs.PiecewiseLinear([(0, 0.5), (1, 1.0)]), unit
        )
        with pytest.raises(PreconditionFailed, match="vanish"):
            opial.verify_variant(opial.variant("OPIAL"), not_vanishing)

    def test_derivative_consistency_enforced(self, unit):
        bad = opial.TestPath(fs.PowerLaw(1.0, 1.0), fs.Constant(2.0), unit)
        with pytest.raises(PreconditionFailed, match="derivative"):
            opial.verify_variant(opial.variant("B1"), bad)

    def test_power_path_singular_derivative(self, unit):
        path = opial.power_path(unit, 0.6)
        rec = opial.verify_variant(opial.variant("B1"), path)
        assert rec.status == "Holds"

    def test_variant_boundary_validation(self):
        with pytest.raises(PreconditionFailed):
            opial.OpialVariant("OPIAL", "left")
        with pytest.raises(PreconditionFailed):
            opial.OpialVariant("Z1", "right")
        with pytest.raises(DomainError):
            opial.variant("NOPE")


class TestEqualityWitnesses:
    def test_opial_hat(self, unit):
        rec = opial.verify_variant(opial.variant("OPIAL"), opial.hat_path(unit))
        assert rec.ratio == pytest.approx(1.0, abs=1e-9)
        assert rec.status == "Holds"

    def test_b1_linear(self, unit):
        rec = opial.verify_variant(opial.variant("B1"), opial.linear_path(unit))
        assert rec.ratio == pytest.approx(1.0, abs=1e-9)

    def test_h1_linear(self, unit):
        rec = opial.verify_variant(opial.variant("H1"), opial.linear_path(unit),
                                   exponents=E(p=2.0))
        assert rec.ratio == pytest.approx(1.0, abs=1e-9)


class TestVariants:
    def test_b2_with_optimizing_constant_weight_matches_b1(self, unit):
        # the family is consistent: for constant weight the B2 bound equals
        # the derived one-endpoint bound
        path = opial.linear_path(unit)
        b2 = opial.verify_variant(opial.variant("B2"), path, weights={"s": ONE})
        b1 = opial.verify_variant(opial.variant("B1"), path, mode="as_derived")
        assert b2.constant * b2.rhs_core == pytest.approx(
            b1.constant * b1.rhs_core, rel=1e-10
        )

    def test_b1_modes_on_shifted_interval(self):
        iv = fs.Interval(1.0, 2.0)
        path = opial.path_from_spec(fs.PiecewiseLinear([(1, 0), (2, 1)]), iv)
        printed = opial.verify_variant(opial.variant("B1"), path,
                                       mode="as_printed")
        derived = opial.verify_variant(opial.variant("B1"), path,
                                       mode="as_derived")
        # printed constant is b/2 = 1, derived is (b-a)/2 = 1/2
        assert printed.constant == pytest.approx(1.0)
        assert derived.constant == pytest.approx(0.5)

    def test_m1_both_boundaries(self, unit):
        for boundary in ("left", "right"):
            path = opial.linear_path(unit, boundary)
            rec = opial.verify_variant(
                opial.variant("M1", boundary), path,
                weights={"s": ONE}, exponents=E(p=2.0),
            )
            assert rec.status == "Holds"

    def test_y_requires_monotone_weight(self, unit):
        path = opial.linear_path(unit)
        grow = fs.PowerLaw(1.0, 1.0)
        decay = fs.ShiftedPowerLaw(1.0, 1.0)
        ok = opial.verify_variant(opial.variant("Y"), path,
                                  weights={"r": decay, "s": ONE})
        assert ok.status == "Holds"
        with pytest.raises(PreconditionFailed, match="nonincreasing"):
            opial.verify_variant(opial.variant("Y"), path,
                                 weights={"r": grow, "s": ONE})
        # mirrored boundary flips the required direction
        with pytest.raises(PreconditionFailed, match="nondecreasing"):
            opial.verify_variant(opial.variant("Y", "right"),
                                 path.reflected(),
                                 weights={"r": decay, "s": ONE})

    def test_y2_monotonicity_guard_blocks_counterexample(self, unit):
        # an increasing weight with mass near b defeats the bound, so the
        # hypothesis tightening is load-bearing
        path = opial.linear_path(unit)
        grow = fs.PiecewiseLinear([(0.0, 0.01), (0.5, 0.01), (0.55, 1.0), (1.0, 1.0)])
        with pytest.raises(PreconditionFailed):
            opial.verify_variant(opial.variant("Y2"), path, weights={"r": grow},
                                 exponents=E(p=1.0, q=1.0, conjugate_check=False))

    def test_ag_equality_case(self, unit):
        rec = opial.verify_variant(opial.variant("AG"), opial.linear_path(unit),
                                   weights={"s": ONE}, exponents=E(p=1.0))
        assert rec.ratio == pytest.approx(1.0, abs=1e-10)

    def test_y1_sweep_holds(self, unit):
        # 200 random piecewise-linear paths with a fixed seed
        paths = opial.random_paths(unit, "left", 200, seed=71)
        for path in paths:
            rec = opial.verify_variant(
                opial.variant("Y1"), path,
                exponents=E(p=2.0, q=1.5, conjugate_check=False),
            )
            assert rec.status == "Holds"

    def test_boyd_and_l0_consistency_at_unit_exponents(self, unit):
        path = opial.linear_path(unit)
        boyd = opial.verify_variant(
            opial.variant("BOYD"), path,
            exponents=E(p=1.0, q=1.0, k=2.0, conjugate_check=False),
        )
        assert boyd.constant == pytest.approx(0.5, rel=1e-9)
        l0 = opial.verify_variant(
            opial.variant("L0"), path,
            exponents=E(p=1.0, q=1.0, conjugate_check=False),
        )
        assert l0.constant == pytest.approx(0.5, rel=1e-12)
        assert l0.ratio == pytest.approx(1.0, abs=1e-9)

    def test_z1_bs1_hand_constants(self, unit):
        path = opial.linear_path(unit)
        z1 = opial.verify_variant(
            opial.variant("Z1"), path, weights={"r": ONE, "s": ONE},
            exponents=E(p=1.0, q=1.0, conjugate_check=False),
        )
        assert z1.constant == pytest.approx(0.5, rel=1e-9)
        assert z1.status == "Holds"
        bs1 = opial.verify_variant(
            opial.variant("BS1"), path, weights={"r": ONE, "s": ONE},
            exponents=E(p=1.0, q=1.0, k=2.0, conjugate_check=False),
        )
        assert bs1.constant == pytest.approx(0.5, rel=1e-9)

    def test_z4_bs2_mirror(self, unit):
        path = opial.linear_path(unit, "right")
        z4 = opial.verify_variant(
            opial.variant("Z4"), path, weights={"r": ONE, "s": ONE},
            exponents=E(p=1.0, q=1.0, conjugate_check=False),
        )
        assert z4.status == "Holds"
        bs2 = opial.verify_variant(
            opial.variant("BS2"), path, weights={"r": ONE, "s": ONE},
            exponents=E(p=1.0, q=1.0, k=2.0, conjugate_check=False),
        )
        assert bs2.status == "Holds"

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.25, 2.0)])
    @pytest.mark.parametrize("ident,boundary", [("Z1", "left"), ("Z4", "right")])
    def test_z1_z4_constant_carries_its_integral_error(self, ident, boundary, a, b):
        # r = s = 1, p = q = 1: K = 2^(-1/2) (w^2 / 2)^(1/2) = w / 2, and the
        # budget is the constant's own quadrature error, not a fixed 1e-8
        iv = fs.Interval(a, b)
        rec = opial.verify_variant(
            opial.variant(ident), opial.linear_path(iv, boundary),
            weights={"r": ONE, "s": ONE},
            exponents=E(p=1.0, q=1.0, conjugate_check=False),
        )
        assert rec.constant == pytest.approx(iv.width / 2.0, rel=1e-12)
        assert rec.status == "Holds"
        assert rec.error_budget < 1e-9

    def test_bw1_delegates_to_eigen(self, unit):
        steep = opial.path_from_spec(
            fs.PiecewiseLinear([(0, 0), (0.05, 1), (1, 1.0)]), unit
        )
        rec = opial.verify_variant(
            opial.variant("BW1"), steep,
            weights={"r": fs.PowerLaw(1.0, 1.0), "s": ONE},
            exponents=E(p=1.0),
        )
        assert rec.status == "Holds"
        assert rec.constant > 0


DIP = fs.PiecewiseLinear([(0, 1), (0.5, -0.5), (1, 1)])  # negative on (1/3, 2/3)


class TestWeightSigns:
    """Lemma weights pass the theorems' weight check: a weight that is
    negative inside the interval is InvalidSpec, never a status."""

    @pytest.mark.parametrize("ident,path,weights,exps", [
        ("Z1", "hat", {"r": DIP, "s": ONE}, E(p=1.0, q=1.0, conjugate_check=False)),
        ("Y2", "linear", {"r": fs.Constant(-1.0)}, E(p=1.0, q=2.0, conjugate_check=False)),
        ("B2", "hat", {"s": DIP}, None),
    ])
    def test_negative_weight_is_invalid(self, unit, ident, path, weights, exps):
        # they used to Hold (ratio 0.0453), be Violated and exhaust the
        # panel budget, in that order
        path = opial.hat_path(unit, 0.6) if path == "hat" else opial.linear_path(unit)
        with pytest.raises(InvalidSpec, match="negative"):
            opial.verify_variant(opial.variant(ident), path, weights, exps)


class TestInvariants:
    @pytest.mark.parametrize(
        "ident,weights,exps",
        [
            ("OPIAL", None, None),
            ("B1", None, None),
            ("B2", {"s": fs.Sum([ONE, fs.PowerLaw(1.0, 1.0)])}, None),
            ("H1", None, E(p=2.0)),
            ("AG", {"s": fs.Sum([ONE, fs.PowerLaw(1.0, 1.0)])}, E(p=2.0)),
            ("Y1", None, E(p=1.0, q=2.0, conjugate_check=False)),
            ("BOYD", None, E(p=1.5, q=1.0, k=2.5, conjugate_check=False)),
            ("Z1", {"r": ONE, "s": ONE}, E(p=1.0, q=1.0, conjugate_check=False)),
        ],
    )
    def test_homogeneity(self, unit, ident, weights, exps):
        # scaling the path leaves the ratio invariant
        boundary = "both" if ident == "OPIAL" else "left"
        base = opial.hat_path(unit) if ident == "OPIAL" else opial.path_from_spec(
            fs.PiecewiseLinear([(0, 0), (0.4, 0.8), (1, 0.5)]), unit
        )
        r1 = opial.verify_variant(opial.variant(ident, boundary), base, weights, exps)
        r2 = opial.verify_variant(opial.variant(ident, boundary), base.scaled(3.7),
                                  weights, exps)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-10)

    def test_reflection_duality(self, unit):
        # a left-boundary variant on reflected data equals its right twin
        path = opial.path_from_spec(
            fs.PiecewiseLinear([(0, 0), (0.3, 1.0), (0.8, 0.4), (1, 0.7)]), unit
        )
        w = fs.Sum([ONE, fs.PowerLaw(1.0, 1.0)])
        w_ref = opial.reflect_spec(w, unit)
        for ident, weights, weights_ref, exps in [
            ("B1", None, None, None),
            ("H1", None, None, E(p=2.0)),
            ("B2", {"s": w}, {"s": w_ref}, None),
            ("Y1", None, None, E(p=1.0, q=2.0, conjugate_check=False)),
        ]:
            left = opial.verify_variant(opial.variant(ident, "left"), path,
                                        weights, exps, mode="as_derived")
            right = opial.verify_variant(opial.variant(ident, "right"),
                                         path.reflected(), weights_ref, exps,
                                         mode="as_derived")
            assert left.ratio == pytest.approx(right.ratio, rel=1e-9), ident

    def test_reflect_spec_pointwise(self, unit):
        # continuous pieces: reflection is exact everywhere (a jump would
        # flip the right-continuity convention at the break itself)
        spec = fs.Sum([
            fs.PowerLaw(1.0, 2.0),
            fs.Exponential(0.5, 1.3),
            fs.PiecewisePolynomial([0.0, 0.5, 1.0], [(0.1, 1.0), (0.6, -0.3, 2.0)]),
        ])
        refl = opial.reflect_spec(spec, unit)
        xs = np.linspace(0, 1, 41)
        direct = fs.evaluate_array(spec, 1.0 - xs, unit)
        mirrored = fs.evaluate_array(refl, xs, unit)
        assert np.allclose(direct, mirrored, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# a golden grid of lemma checks: every variant, each boundary it allows,
# hat, linear and power paths, on (0, 1) and on a shifted interval.
# tests/data/lemma_golden.json holds the reprs the grid gave when it was
# recorded; `python tests/test_opial.py OUT.json` records it afresh.
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("data") / "lemma_golden.json"

GRID_INTERVALS = ((0.0, 1.0), (1.25, 2.0))

GRID_EXPONENTS = {
    "OPIAL": None,
    "B1": None,
    "B2": None,
    "M1": E(p=3.0),
    "Y": None,
    "H1": E(p=2.0),
    "BW1": E(p=1.0),
    "AG": E(p=2.0),
    "Y1": E(p=1.0, q=2.0, conjugate_check=False),
    "Y2": E(p=0.5, q=1.5, conjugate_check=False),
    "BOYD": E(p=1.5, q=1.0, k=2.5, conjugate_check=False),
    "L0": E(p=2.0, q=1.0, conjugate_check=False),
    "Z1": E(p=1.5, q=1.0, conjugate_check=False),
    "Z4": E(p=1.5, q=1.0, conjugate_check=False),
    "BS1": E(p=1.0, q=1.0, k=3.0, conjugate_check=False),
    "BS2": E(p=1.0, q=1.0, k=3.0, conjugate_check=False),
}


def _grid_weights(ident, boundary):
    s = fs.Sum([ONE, fs.PowerLaw(0.8, 1.2)])
    if ident in ("Y", "Y2"):
        # the left-side weight must decrease away from the vanishing end
        r = fs.Sum([ONE, fs.ShiftedPowerLaw(0.7, 1.3) if boundary == "left"
                    else fs.PowerLaw(0.7, 1.3)])
    else:
        r = fs.Sum([ONE, fs.PowerLaw(0.6, 1.4)])  # BW1 needs r' >= 0
    return {"r": r, "s": s}


def _grid_paths(iv, boundary):
    if boundary == "both":
        return (("hat:0.35", opial.hat_path(iv, 0.35)),
                ("hat:0.5", opial.hat_path(iv, 0.5)))
    return (("hat:0.6", opial.hat_path(iv, 0.6)),
            ("linear", opial.linear_path(iv, boundary)),
            ("power:1.5", opial.power_path(iv, 1.5, boundary)))


def grid_cases(ident):
    """(label, thunk) per grid case of the variant; the thunk runs it."""
    out = []
    for boundary in ct.LEMMAS[ident].sides:
        v = opial.variant(ident, boundary)
        weights = _grid_weights(ident, boundary)
        for a, b in GRID_INTERVALS:
            iv = fs.Interval(a, b)
            for name, path in _grid_paths(iv, boundary):
                out.append((f"{ident} {boundary} {name} ({a:g}, {b:g})",
                            lambda v=v, path=path, weights=weights:
                            opial.verify_variant(v, path, weights,
                                                 GRID_EXPONENTS[ident])))
    return out


def grid_record(rep):
    return {"lhs": repr(rep.lhs), "rhs_core": repr(rep.rhs_core),
            "constant": repr(rep.constant), "ratio": repr(rep.ratio),
            "status": rep.status, "budget": repr(rep.error_budget)}


class TestGoldenGrid:
    @pytest.mark.parametrize("ident", opial.VARIANT_IDS)
    def test_variant_matches_recording(self, ident):
        golden = json.loads(GOLDEN.read_text())
        cases = grid_cases(ident)
        assert {label for label, _ in cases} == {
            label for label in golden if label.split()[0] == ident}
        for label, run in cases:
            assert grid_record(run()) == golden[label], label


class TestOneIntegrateCall:
    @pytest.mark.parametrize("ident,weights,exps", [
        ("OPIAL", None, None),
        ("B2", {"s": fs.Sum([ONE, fs.PowerLaw(1.0, 1.0)])}, None),
        ("M1", {"s": fs.Sum([ONE, fs.PowerLaw(1.0, 1.0)])}, E(p=3.0)),
        ("AG", {"s": fs.Exponential(1.0, 1.0)}, E(p=2.0)),
        ("Y", {"r": fs.ShiftedPowerLaw(1.0, 1.0), "s": ONE}, None),
        ("H1", None, E(p=2.0)),
        ("L0", None, E(p=2.0, q=1.0, conjugate_check=False)),
        ("Y1", None, E(p=1.0, q=2.0, conjugate_check=False)),
    ])
    def test_sides_and_constant_integral_in_one_call(self, unit, monkeypatch,
                                                     ident, weights, exps):
        calls = []
        real = opial.quad.integrate_many

        def counting(jobs):
            calls.append(len(jobs))
            return real(jobs)

        monkeypatch.setattr(opial.quad, "integrate_many", counting)
        rec = opial.verify_variant(opial.variant(ident, "left" if ident != "OPIAL"
                                                 else "both"),
                                   opial.hat_path(unit, 0.4), weights, exps)
        assert rec.status == "Holds"
        # lhs and rhs in one call; the integral of s^e, where the constant
        # has one, is the constant builder's own call before them
        assert calls == ([1, 2] if ident in ("B2", "M1", "AG", "Y") else [2])


if __name__ == "__main__":
    recorded = {label: grid_record(run())
                for ident in opial.VARIANT_IDS for label, run in grid_cases(ident)}
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
