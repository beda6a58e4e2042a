import math

import numpy as np
import pytest

from hopial import constants as ct
from hopial import funcspace as fs
from hopial import quad
from hopial import special as sp
from hopial.cli import SUITE_EXPONENTS
from hopial.errors import InvalidSpec, NonIntegrable, PreconditionFailed

E = ct.ExponentSet


class TestTailHead:
    def test_unit_weight(self, unit, one):
        assert ct.r_tail(one, 0.0, unit) == pytest.approx(1.0)
        assert ct.r_tail(one, 1.0, unit) == pytest.approx(0.0, abs=1e-14)
        assert ct.r_head(one, 1.0, unit) == pytest.approx(1.0)
        assert ct.r_head(one, 0.0, unit) == pytest.approx(0.0, abs=1e-14)

    def test_linear_weight_analytic(self, unit):
        # r = 2t: tail is 1 - x^2, head is x^2
        r = fs.PowerLaw(2.0, 1.0)
        assert ct.r_tail(r, 0.5, unit) == pytest.approx(0.75, rel=1e-12)
        assert ct.r_head(r, 0.5, unit) == pytest.approx(0.25, rel=1e-12)

    def test_tail_nonincreasing(self, unit):
        R = quad.RunningIntegral(fs.Exponential(1.0, 1.0), unit, "tail")
        xs = np.linspace(0, 1, 64)
        assert np.all(np.diff(R(xs)) <= 1e-14)

    def test_table_fallback_for_products(self, unit):
        r = fs.Product([fs.PowerLaw(1.0, 1.0), fs.Exponential(1.0, 1.0)])
        R = quad.RunningIntegral(r, unit, "tail")
        exact = lambda x: (1.0 * math.exp(1.0) - (x - 1.0) * math.exp(x)) - math.exp(1.0)
        # integral of t e^t from x to 1 = [ (t-1)e^t ]_x^1 = 0 - (x-1)e^x
        assert R.value_at(0.3) == pytest.approx(-(0.3 - 1.0) * math.exp(0.3), abs=1e-7)
        assert R.rel_error < 1e-6


class TestHardyConstants:
    def test_t2_1_breakdown(self, unit, one):
        b = ct.hardy_constant("T2.1", one, one, E(), unit)
        assert b.value == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert b.factors[0][0].startswith("int R_tail")
        prod = math.prod(v for _, v in b.factors)
        assert prod == pytest.approx(b.value, rel=1e-12)

    def test_t2_3_hand_value(self, unit, one):
        b = ct.hardy_constant("T2.3", one, None, E(), unit)
        assert b.value == pytest.approx(1.0, rel=1e-9)

    def test_classical_hardy_p2(self, unit):
        b = ct.hardy_constant("HARDY", None, None, E(p=2.0), unit)
        assert b.value == pytest.approx(4.0, rel=1e-14)

    def test_t2_22_composes_special_and_tail(self, unit, one):
        # as_derived reading: L from the substituted Gamma form
        b = ct.hardy_constant("T2.22", one, None, E(p=2.0, q=2.0), unit,
                              mode="as_derived")
        expected = 3.0 * math.sqrt(sp.boyd_L(4.0, 2.0)) * math.sqrt(1.0 / 3.0)
        assert b.value == pytest.approx(expected, rel=1e-9)

    def test_factor_product_identity_across_catalog(self, unit, one):
        s_val = fs.Sum([fs.Constant(1.0), fs.PowerLaw(0.5, 2.0)])
        exps = {
            "T2.1": E(), "T2.5": E(), "T2.7": E(p=2.0), "T2.9": E(),
            "T2.11": E(p=2.0), "T2.14": E(p=2.0), "T2.16": E(p=2.0),
            "T2.18": E(p=1.0), "T2.20": E(p=2.0, k=3.0), "T2.22": E(p=2.0),
            "T2.27": E(p=2.0), "T2.30": E(p=2.0, k=3.0), "C2.1a": E(p=2.0),
        }
        for ident, e in exps.items():
            b = ct.hardy_constant(ident, one, s_val, e, unit)
            prod = math.prod(v for _, v in b.factors)
            assert prod == pytest.approx(b.value, rel=1e-12), ident

    def test_scaling_laws(self, unit, one):
        # c r multiplies the quadratic-tail constant by c^2 and the
        # sup-based constants by c
        r2 = fs.Constant(2.0)
        base = ct.hardy_constant("T2.1", one, one, E(), unit).value
        assert ct.hardy_constant("T2.1", r2, one, E(), unit).value == pytest.approx(
            4.0 * base, rel=1e-9
        )
        for ident, e in (("T2.3", E()), ("T2.5", E()), ("T2.11", E(p=2.0))):
            b1 = ct.hardy_constant(ident, one, one, e, unit).value
            b2 = ct.hardy_constant(ident, r2, one, e, unit).value
            assert b2 == pytest.approx(2.0 * b1, rel=1e-8), ident

    def test_sup_constants_monotone_in_interval(self, one):
        small = ct.hardy_constant("T2.3", one, None, E(), fs.Interval(0.0, 0.7))
        large = ct.hardy_constant("T2.3", one, None, E(), fs.Interval(0.0, 1.0))
        assert large.value >= small.value

    def test_modes_coincide_off_ledger(self, unit, one):
        s_val = fs.Sum([fs.Constant(1.0), fs.PowerLaw(0.5, 1.0)])
        for ident, e in (
            ("T2.1", E()), ("T2.3", E()), ("T2.5", E()), ("T2.7", E(p=2.0)),
            ("T2.9", E()), ("T2.11", E(p=2.0)), ("T2.14", E(p=2.0)),
            ("T2.18", E(p=1.0)), ("T2.20", E(p=2.0, k=3.0)),
            ("C2.1a", E(p=2.0)), ("HARDY", E(p=2.0)),
        ):
            printed = ct.hardy_constant(ident, one, s_val, e, unit,
                                        mode="as_printed").value
            derived = ct.hardy_constant(ident, one, s_val, e, unit,
                                        mode="as_derived").value
            assert printed == pytest.approx(derived, rel=1e-12), ident

    def test_mode_gaps_on_ledgered_entries(self, unit, one):
        s_val = fs.Sum([fs.Constant(1.0), fs.PowerLaw(0.5, 1.0)])
        printed = ct.hardy_constant("T2.16", one, None, E(p=2.0), unit,
                                    mode="as_printed").value
        derived = ct.hardy_constant("T2.16", one, None, E(p=2.0), unit,
                                    mode="as_derived").value
        # they differ by the factor p + 1
        assert printed == pytest.approx(3.0 * derived, rel=1e-10)
        # the K1 readings differ in the r exponent, so a non-constant r
        # separates the modes
        r_var = fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 1.0)])
        p27 = ct.hardy_constant("T2.27", r_var, s_val, E(p=2.0), unit,
                                mode="as_printed").value
        d27 = ct.hardy_constant("T2.27", r_var, s_val, E(p=2.0), unit,
                                mode="as_derived").value
        assert abs(p27 - d27) > 1e-3 * p27

    def test_rhs_weight_marking(self, unit, one):
        assert ct.hardy_constant("T2.9", one, one, E(), unit).rhs_weight == "R_tail*s"
        assert ct.hardy_constant("T2.10", one, one, E(), unit).rhs_weight == "R_head*s"
        assert ct.hardy_constant("T2.18", one, None, E(p=1.0), unit).rhs_weight == "R_tail"
        assert ct.hardy_constant("T2.1", one, one, E(), unit).rhs_weight is None

    def test_t2_13_against_eigen_example(self, unit, one):
        b = ct.hardy_constant("T2.13", one, fs.Exponential(1.0, 2.0), E(p=1.0), unit)
        assert b.factors[0][0] == "1/lambda0"
        assert b.value > 0

    def test_divergent_weight_integral_rejected(self, unit, one):
        with pytest.raises(NonIntegrable):
            ct.hardy_constant("T2.5", one, fs.PowerLaw(1.0, 1.5), E(), unit)

    def test_preconditions_named(self, unit, one):
        with pytest.raises(PreconditionFailed, match="integer"):
            ct.hardy_constant("T2.11", one, None, E(p=1.5), unit)
        with pytest.raises(PreconditionFailed, match="1/p"):
            ct.hardy_constant("T2.7", one, one, E(p=2.0, q=3.0), unit)
        with pytest.raises(PreconditionFailed, match="k"):
            ct.hardy_constant("T2.20", one, None, E(p=2.0), unit)
        with pytest.raises(PreconditionFailed, match="k = q|q < k"):
            ct.hardy_constant("T2.30", one, one, E(p=2.0, k=3.0), unit,
                              mode="as_printed")

    @pytest.mark.parametrize("ident", ["T2.7", "T2.8"])
    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, unit, one, ident, p):
        # p = inf used to give the constant 1.0 (q = nan passed the check)
        with pytest.raises(PreconditionFailed, match="finite|p > 1"):
            ct.hardy_constant(ident, one, one, E(p=p), unit)

    def test_negative_weight_rejected(self, unit, one):
        with pytest.raises(InvalidSpec, match="negative"):
            ct.hardy_constant("T2.10", fs.PowerLaw(-1.0, 1.0), one, E(), unit)

    def test_missing_weight_named(self, unit, one):
        # the constant of T2.9 reads only s, but the theorem takes r
        with pytest.raises(PreconditionFailed, match="needs the weight r"):
            ct.hardy_constant("T2.9", None, one, E(), unit)
        with pytest.raises(PreconditionFailed, match="needs the weight s"):
            ct.hardy_constant("T2.1", one, None, E(), unit)

    @pytest.mark.parametrize("ident", ct.THEOREM_IDS)
    def test_sides_have_one_degree(self, ident):
        # both sides of a row are homogeneous in f of the degree d
        info = ct.theorem_info(ident)
        exps = info.check(SUITE_EXPONENTS.get(ident, E()))
        _, degree = info.lhs(exps)
        power, outer = info.rhs(exps)
        assert power * (1.0 if outer is None else outer) == pytest.approx(degree,
                                                                          rel=1e-14)

    def test_default_modes_from_rows(self):
        assert {i for i, m in ct.DEFAULT_MODES.items() if m != "as_printed"} == {
            "T2.30", "T2.31"}

    def test_canonical_ids(self):
        assert ct.canonical_id("t2_1") == "T2.1"
        assert ct.canonical_id("HARDY_CLASSICAL") == "HARDY"
        assert ct.canonical_id("C2.1a") == "C2.1a"
        assert len(ct.THEOREM_IDS) == 32


class TestSupFactor:
    # r >= 0: sup R_tail = R(a) and sup R_head = R(b), both the total
    @pytest.mark.parametrize("iv", [fs.Interval(0.0, 1.0), fs.Interval(1.0, 2.0)])
    @pytest.mark.parametrize("r", [
        fs.PowerLaw(2.0, 0.5),
        fs.Exponential(1.0, -1.0),
        fs.PiecewiseLinear([(0.0, 0.3), (0.6, 0.0), (1.4, 2.0), (2.0, 0.5)]),
        fs.Product([fs.PowerLaw(1.0, 1.0), fs.Exponential(1.0, -1.0)]),  # panel tree
    ])
    def test_sup_is_R_at_the_endpoint(self, iv, r):
        total = quad.integrate(r, iv)
        for ident, side, end in (("T2.3", "tail", iv.a), ("T2.4", "head", iv.b)):
            b = ct.hardy_constant(ident, r, None, E(), iv)
            name, sup = b.factors[1]
            assert name == f"sup R_{side}"
            assert sup == quad.RunningIntegral(r, iv, side).value_at(end)
            slack = total.abs_error_estimate + b.error_estimate * abs(sup)
            assert abs(sup - total.value) <= slack

    @pytest.mark.parametrize("ident", ["T2.3", "T2.4", "T2.11", "T2.12"])
    def test_divergent_weight_rejected(self, unit, ident):
        for r in (fs.PowerLaw(1.0, -1.5), fs.ShiftedPowerLaw(1.0, -1.0)):
            with pytest.raises(NonIntegrable):
                ct.hardy_constant(ident, r, None, E(p=2.0), unit)


class TestBeesackIntegral:
    def test_k1_with_mode_as_derived_is_k1_at_pq(self, unit):
        # the derived r-exponent (pq+q)/(pq) is the Beesack-Das K1/K2
        # with p replaced by pq
        r = fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.5, 0.7)])
        s = fs.Sum([fs.Constant(1.0), fs.PowerLaw(0.8, 1.2)])
        p, q = 3.0, 1.5
        for side, k_fn in (("left", ct.beesack_das_K1), ("right", ct.beesack_das_K2)):
            ctx = ct._Ctx(r, s, E(p=p), unit, "as_derived", quad.SMOOTH_TOL, side,
                          {"p": p, "q": q})
            value, _ = ct._k1_with_mode(ctx)
            assert value == k_fn(E(p=p * q, q=q), r, s, unit, unit)


class TestBoydLimitDocumentation:
    def test_typeset_L_dominates_the_boyd_limit_on_conjugate_range(self):
        # the reason the L-based constants default to the typeset L: the
        # general constant N(nu, eta, s) approaches a finite limit as
        # s -> eta+ that sits between the power-family sharp value and the
        # typeset L, while the substituted form with the restored Gamma
        # power falls below sharp
        nu, eta = 4.0, 2.0
        n_limit = sp.boyd_N(sp.BoydParams(nu, eta, eta + 1e-3))
        power_family_sup = max(
            (beta**eta / (nu * beta + eta * beta - eta + 1))
            / (beta**eta / (eta * beta - eta + 1)) ** ((nu + eta) / eta)
            for beta in np.linspace(0.55, 3.0, 400)
        )
        printed = sp.boyd_L(nu, eta, mode="as_printed")
        derived = sp.boyd_L(nu, eta)
        assert derived < power_family_sup       # refuted reading
        assert power_family_sup <= n_limit * 1.05
        assert n_limit < printed                # typeset value is safe here


class TestMirrorSymmetry:
    def test_constants_match_on_symmetric_weights(self, unit):
        rng = np.random.default_rng(14)
        for _ in range(8):
            c = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.0, 2.0))
            r_sym = fs.Sum([fs.PowerLaw(c, alpha), fs.ShiftedPowerLaw(c, alpha)])
            s_sym = fs.Sum([fs.PowerLaw(1.0, 0.4), fs.ShiftedPowerLaw(1.0, 0.4)])
            pairs = [("T2.1", "T2.2", E()), ("T2.3", "T2.4", E()),
                     ("T2.11", "T2.12", E(p=2.0))]
            for left, right, e in pairs:
                b_l = ct.hardy_constant(left, r_sym, s_sym, e, unit)
                b_r = ct.hardy_constant(right, r_sym, s_sym, e, unit)
                assert b_l.value == pytest.approx(b_r.value, rel=1e-8), left


class TestBeesackDas:
    def test_k1_hand_values(self, unit, one):
        e = E(p=1.0, q=1.0, conjugate_check=False)
        k1 = ct.beesack_das_K1(e, one, one, unit, unit)
        assert k1 == pytest.approx(0.5, rel=1e-10)
        big = fs.Interval(0.0, 2.0)
        assert ct.beesack_das_K1(e, one, one, big, big) == pytest.approx(1.0, rel=1e-10)

    def test_k2_mirror_and_symmetry(self, unit, one):
        e = E(p=1.0, q=1.0, conjugate_check=False)
        k1 = ct.beesack_das_K1(e, one, one, fs.Interval(0.0, 0.5), unit)
        k2 = ct.beesack_das_K2(e, one, one, fs.Interval(0.5, 1.0), unit)
        assert k1 == pytest.approx(k2, rel=1e-9)
        # reflection: asymmetric weights mirrored about the midpoint
        r = fs.PowerLaw(1.0, 1.0)
        r_ref = fs.ShiftedPowerLaw(1.0, 1.0)
        k1a = ct.beesack_das_K1(e, r, one, unit, unit)
        k2a = ct.beesack_das_K2(e, r_ref, one, unit, unit)
        assert k1a == pytest.approx(k2a, rel=1e-8)

    def test_degenerate_subinterval_is_zero(self, unit, one):
        e = E(p=1.0, q=1.0, conjugate_check=False)
        assert ct.beesack_das_K1(e, one, one, (0.3, 0.3), unit) == 0.0
        assert ct.beesack_das_K2(e, one, one, (0.7, 0.7), unit) == 0.0

    def test_balance_symmetric(self, unit, one):
        e = E(p=1.0, q=1.0, conjugate_check=False)
        h, K = ct.beesack_das_balance(e, one, one, unit)
        assert h == pytest.approx(0.5, abs=1e-8)
        assert K == pytest.approx(0.25, abs=1e-6)

    def test_balance_wide_interval(self, one):
        e = E(p=1.0, q=1.0, conjugate_check=False)
        h, K = ct.beesack_das_balance(e, one, one, fs.Interval(0.0, 2.0))
        assert h == pytest.approx(1.0, abs=1e-7)

    def test_balance_asymmetric_self_audit(self, unit, one):
        e = E(p=1.0, q=1.0, conjugate_check=False)
        s_val = fs.Sum([fs.Constant(1.0), fs.PowerLaw(2.0, 1.0)])
        h, K = ct.beesack_das_balance(e, one, s_val, unit, tol=1e-9)
        k1 = ct.beesack_das_K1(e, one, s_val, fs.Interval(0.0, h), unit)
        k2 = ct.beesack_das_K2(e, one, s_val, fs.Interval(h, 1.0), unit)
        assert abs(k1 - k2) / max(k1, k2) <= 1e-8
        assert h != pytest.approx(0.5, abs=1e-3)

    def test_precondition(self, unit, one):
        with pytest.raises(PreconditionFailed):
            ct.beesack_das_K1(E(p=0.5, q=0.4, conjugate_check=False), one, one,
                              unit, unit)


class TestBeesackK:
    def test_raw_hand_value(self, unit, one):
        e = E(p=1.0, q=1.0, k=2.0, conjugate_check=False)
        v, _ = ct.beesack_K(e, one, one, unit, side="left", substituted=False)
        assert v == pytest.approx(0.5, rel=1e-10)

    def test_boundary_rejection_at_q_equals_k(self, unit, one):
        with pytest.raises(PreconditionFailed):
            ct.beesack_K(E(p=1.0, q=2.0, k=2.0, conjugate_check=False), one, one,
                         unit, side="left")

    def test_substituted_equals_raw_at_pq(self, unit, one):
        sub, _ = ct.beesack_K(E(p=2.0, q=2.0, k=3.0, conjugate_check=False),
                              one, one, unit, substituted=True)
        raw, _ = ct.beesack_K(E(p=4.0, q=2.0, k=3.0, conjugate_check=False),
                              one, one, unit, substituted=False)
        assert sub == pytest.approx(raw, rel=1e-11)

    def test_two_resolution_on_random_weights(self, unit):
        rng = np.random.default_rng(9)
        for _ in range(5):
            r = fs.Sum([fs.Constant(1.0), fs.PowerLaw(float(rng.uniform(0.5, 2)), float(rng.uniform(0, 2)))])
            s_val = fs.Sum([fs.Constant(1.0), fs.PowerLaw(float(rng.uniform(0.5, 2)), float(rng.uniform(0, 2)))])
            e = E(p=2.0, q=2.0, k=3.0, conjugate_check=False)
            v1, err1 = ct.beesack_K(e, r, s_val, unit, tol=1e-8)
            v2, err2 = ct.beesack_K(e, r, s_val, unit, tol=1e-10)
            assert abs(v1 - v2) <= max((err1 + err2) * abs(v1), 1e-9 * abs(v1))
