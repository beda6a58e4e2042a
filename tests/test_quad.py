import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import special

from hopial import _kernel
from hopial import funcspace as fs
from hopial import quad
from hopial.errors import BudgetExceeded, DomainError, HopialError, NonIntegrable


class TestIntegrate:
    def test_linear(self, unit):
        res = quad.integrate(fs.PowerLaw(1.0, 1.0), unit)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.subdivisions >= 1

    def test_inverse_sqrt_vs_antiderivative_oracle(self, unit):
        # oracle: the antiderivative of t^(-1/2) is 2 sqrt(t)
        res = quad.integrate(fs.PowerLaw(1.0, -0.5), unit)
        assert res.value == pytest.approx(2.0 * math.sqrt(1.0), abs=1e-8)

    def test_non_finite_node_reported_in_x(self):
        # (sqrt(x - 1) - 0.5)^0.5 is nan below x = 1.25; the graded left
        # piece's nodes are in u, and the message maps them back to x
        iv = fs.Interval(1.0, 2.0)
        spec = fs.Power(fs.Sum([fs.Constant(-0.5), fs.PowerLaw(1.0, 0.5)]), 0.5)
        with pytest.raises(DomainError, match="non-finite") as info:
            quad.integrate(spec, iv)
        x = float(re.search(r"x=\[([^\]]+)\]", str(info.value)).group(1))
        assert 1.0 <= x <= 1.25

    def test_divergent_detected_structurally(self, unit):
        with pytest.raises(NonIntegrable):
            quad.integrate(fs.PowerLaw(1.0, -1.0), unit)
        with pytest.raises(NonIntegrable):
            quad.integrate(fs.Power(fs.PowerLaw(1.0, 2.0), -0.75), unit)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.1, 0.5, 3.0])
    def test_singular_rule_consistency(self, unit, alpha):
        res = quad.integrate(fs.PowerLaw(1.0, alpha), unit)
        exact = 1.0 / (alpha + 1.0)
        assert abs(res.value - exact) <= 1e-7 * exact

    def test_right_endpoint_singularity(self, unit):
        res = quad.integrate(fs.ShiftedPowerLaw(1.0, -0.5), unit)
        assert res.value == pytest.approx(2.0, rel=1e-8)

    def test_both_endpoints_singular(self, unit):
        spec = fs.Product([fs.PowerLaw(1.0, -0.5), fs.ShiftedPowerLaw(1.0, -0.5)])
        res = quad.integrate(spec, unit)
        assert res.value == pytest.approx(math.pi, rel=1e-7)

    def test_additivity_over_random_specs(self, unit):
        # integral over (a,c) + (c,b) matches (a,b) within summed errors
        rng = np.random.default_rng(12)
        fam = fs.RandomPiecewiseLinear(4, (0.1, 2.0), seed=21, interval=unit)
        specs = fs.sample_family(fam, 50) + [
            fs.Sum([fs.Constant(0.3), fs.PowerLaw(float(c), float(a))])
            for c, a in rng.uniform([0.2, 0.0], [2.0, 2.0], size=(50, 2))
        ]
        for spec in specs:
            c = float(rng.uniform(0.2, 0.8))
            whole = quad.integrate(spec, unit)
            left = quad.integrate(spec, fs.Interval(0.0, c), home=unit)
            right = quad.integrate(spec, fs.Interval(c, 1.0), home=unit)
            tol = (
                whole.abs_error_estimate
                + left.abs_error_estimate
                + right.abs_error_estimate
                + 1e-12 * abs(whole.value)
            )
            assert abs(left.value + right.value - whole.value) <= max(tol, 1e-13)

    def test_monotone_in_interval_for_nonnegative(self, unit):
        spec = fs.Sum([fs.Constant(0.1), fs.PowerLaw(1.0, 0.7)])
        small = quad.integrate(spec, fs.Interval(0.0, 0.6), home=unit)
        large = quad.integrate(spec, unit)
        assert large.value >= small.value - 1e-12

    def test_budget_exceeded(self, unit):
        with pytest.raises(BudgetExceeded):
            quad.integrate(fs.Exponential(1.0, 300.0), unit, tol=1e-12, max_panels=3)

    def test_tolerance_domain(self, unit):
        with pytest.raises(DomainError):
            quad.integrate(fs.Constant(1.0), unit, tol=0.5)
        with pytest.raises(DomainError):
            quad.integrate(fs.Constant(1.0), unit, tol=1e-15)

    def test_rel_error_property(self, unit):
        res = quad.integrate(fs.Exponential(1.0, 1.0), unit)
        assert res.rel_error <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 5.0), min_size=2, max_size=8),
        st.floats(1e-3, 1.0),
    )
    def test_piecewise_linear_matches_trapezoid_oracle(self, values, width):
        # independent oracle: the exact integral of a linear interpolant is
        # the trapezoid sum of its knots
        xs = np.linspace(0.0, width, len(values))
        spec = fs.PiecewiseLinear(list(zip(xs, values)))
        interval = fs.Interval(0.0, width)
        exact = float(np.trapezoid(values, xs))
        res = quad.integrate(spec, interval)
        assert res.value == pytest.approx(exact, rel=1e-12, abs=1e-13)


class TestCumulative:
    def test_identity_exact_at_knots(self, unit):
        F, total = quad.cumulative(fs.Constant(1.0), unit)
        xs = np.linspace(0.0, 1.0, 65)
        assert np.allclose(fs.evaluate_array(F, xs, unit), xs, rtol=0.0, atol=1e-15)
        assert fs.evaluate(F, 0.0, unit) == 0.0
        assert total.value == pytest.approx(1.0, abs=1e-15)

    def test_linear_integrand_analytic(self, unit):
        # analytic oracle: integral of 2t is t^2
        F, _ = quad.cumulative(fs.PowerLaw(2.0, 1.0), unit)
        assert fs.evaluate(F, 0.5, unit) == pytest.approx(0.25, abs=1e-14)

    def test_hat_total_is_triangle_area(self, unit):
        # triangle area oracle: base 1, height 0.5
        hat = fs.PiecewiseLinear([(0, 0), (0.5, 0.5), (1, 0)])
        F, _ = quad.cumulative(hat, unit)
        assert fs.evaluate(F, 1.0, unit) == pytest.approx(0.25, abs=1e-15)

    def test_values_nondecreasing_for_nonnegative(self, unit):
        F, _ = quad.cumulative(fs.PowerLaw(1.0, 0.5), unit)
        xs = np.concatenate([np.geomspace(1e-12, 1e-3, 40), np.linspace(1e-3, 1.0, 400)])
        assert np.all(np.diff(fs.evaluate_array(F, xs, unit)) >= -1e-15)

    def test_table_path_interpolation(self, unit):
        # Product has no closed antiderivative: F is read off the panel tree,
        # as the graded form of a piecewise polynomial
        spec = fs.Product([fs.PowerLaw(1.0, 1.0), fs.Exponential(1.0, 1.0)])
        F, total = quad.cumulative(spec, unit)
        assert isinstance(F, fs.PiecewisePolynomial) and F.frames is not None
        exact = lambda x: (x - 1.0) * math.exp(x) + 1.0
        for x in (0.13, 0.5, 0.86):
            assert fs.evaluate(F, x, unit) == pytest.approx(
                exact(x), abs=min(5e-9, total.abs_error_estimate))
        assert total.abs_error_estimate < 1e-10

    def test_tolerance_outside_range_rejected(self, unit):
        with pytest.raises(DomainError):
            quad.cumulative(fs.Constant(1.0), unit, tol=1e-16)


class TestSup:
    def test_tail_integral_sup_at_left(self, unit):
        # g(x) = 1 - x: monotone tail integral of r = 1
        tail = fs.tail_integral_spec(fs.Constant(1.0), unit)
        res = quad.sup_on_interval(tail, unit)
        assert res.arg == pytest.approx(0.0, abs=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_constant(self, unit):
        res = quad.sup_on_interval(fs.Constant(3.0), unit)
        assert res.value == pytest.approx(3.0)

    def test_parabola_calculus_oracle(self, unit):
        spec = fs.Product([fs.PowerLaw(1.0, 1.0), fs.ShiftedPowerLaw(1.0, 1.0)])
        res = quad.sup_on_interval(spec, unit)
        assert res.arg == pytest.approx(0.5, abs=1e-8)
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_audit_invariant(self, unit):
        spec = fs.PiecewiseLinear([(0, 0.1), (0.311, 2.3), (0.7, 0.4), (1, 1.1)])
        res = quad.sup_on_interval(spec, unit)
        xs = np.linspace(0.0, 1.0, 1024)
        assert res.value >= float(np.max(fs.evaluate_array(spec, xs, unit))) - 1e-12

    def test_open_interval_inset_for_singular(self, unit):
        res = quad.sup_on_interval(fs.PowerLaw(1.0, -0.25), unit)
        assert math.isfinite(res.value)
        assert res.arg > 0.0

    def test_evaluation_failure_raises(self, unit):
        # e^(1000 x) overflows past x = 0.71
        with pytest.raises(DomainError):
            quad.sup_on_interval(fs.Exponential(1.0, 1000.0), unit)


SHIFTED = [fs.Interval(0.0, 1.0), fs.Interval(1.0, 2.0)]


class TestRunningIntegral:
    @pytest.mark.parametrize("iv", SHIFTED)
    @pytest.mark.parametrize("f", [
        fs.PowerLaw(2.0, 0.5),
        fs.Exponential(1.0, -1.5),
        fs.Product([fs.PowerLaw(1.0, 1.0), fs.Exponential(1.0, 1.0)]),  # panel tree
    ])
    def test_head_plus_tail_is_total(self, iv, f):
        head = quad.RunningIntegral(f, iv, "head")
        tail = quad.RunningIntegral(f, iv, "tail")
        total = quad.integrate(f, iv)
        xs = np.linspace(iv.a, iv.b, 37)
        slack = (head.rel_error + 1e-13) * abs(total.value) + total.abs_error_estimate
        assert np.max(np.abs(head(xs) + tail(xs) - total.value)) <= slack
        assert head.value_at(iv.a) == 0.0
        assert abs(tail.value_at(iv.b)) <= 1e-13 * abs(total.value)

    @pytest.mark.parametrize("iv", SHIFTED)
    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_table_agrees_with_closed_form(self, iv, side):
        # cumulative builds the panel tree's spec whether or not F is closed
        closed = quad.RunningIntegral(fs.Exponential(1.0, 1.0), iv, side)
        spec, total = quad.cumulative(fs.Exponential(1.0, 1.0), iv, side)
        assert closed.rel_error == 0.0
        assert isinstance(spec, fs.PiecewisePolynomial) and spec.frames
        assert 0.0 < total.rel_error < 1e-10
        knots = np.linspace(iv.a, iv.b, 129)
        table = fs.evaluate_array(spec, knots, iv)
        assert np.max(np.abs(table - closed(knots))) <= total.abs_error_estimate

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_table_error_estimate_covers_every_cell(self, unit, side):
        closed = quad.RunningIntegral(fs.Exponential(1.0, 1.0), unit, side)
        spec, total = quad.cumulative(fs.Exponential(1.0, 1.0), unit, side)
        xs = np.linspace(0.0, 1.0, 128 * 8 + 1)
        table = fs.evaluate_array(spec, xs, unit)
        assert np.max(np.abs(table - closed(xs))) <= total.rel_error * (math.e - 1.0)

    def test_unknown_side_rejected(self, unit):
        with pytest.raises(DomainError):
            quad.RunningIntegral(fs.Constant(1.0), unit, "middle")


# s^gamma with s = 1 + c d^alpha in the distance d from the left end, times
# d^kappa: (c, alpha, gamma, kappa)
RUNNING_CASES = [(0.63, 0.47, -0.5, 0.0), (1.2, 1.87, -0.5, 0.0), (2.0, 0.3, 1.5, 0.0),
                 (0.63, 0.47, -0.5, -0.6)]


class TestRunningIntegralBound:
    """The running integral's error bound covers its error at every x, head
    and tail, on shifted intervals: against QUADPACK in the distance from the
    left end (QAWS, ``weight='alg'``, from the singular end)."""

    @staticmethod
    def _oracle(g, kappa, lo, hi):
        """The integral of g(d) d^kappa over (lo, hi) and its error."""
        if hi <= lo:
            return 0.0, 0.0
        return sp_integrate.quad(g, lo, hi, weight="alg", wvar=(kappa, 0.0),
                                 epsabs=0.0, epsrel=1e-13, limit=200)

    def _check(self, f, g, kappa, iv, side):
        R = quad.RunningIntegral(f, iv, side)
        w = iv.b - iv.a
        ds = np.concatenate([np.linspace(0.0, w, 1001), w * np.geomspace(1e-12, 1e-2, 40),
                             w * (1.0 - np.geomspace(1e-12, 1e-2, 40))])
        xs = iv.a + ds
        ds = xs - iv.a  # the distance of the point evaluated, exactly
        got = R(xs)
        total, total_err = self._oracle(g, kappa, 0.0, w)
        bound = R.rel_error * abs(total)
        for x, d, value in zip(xs, ds, got):
            want, err = self._oracle(g, kappa, 0.0, d)
            if side == "tail":  # QAGS misses the singular end when d is tiny
                want, err = total - want, total_err + err
            assert abs(value - want) <= bound + err + 4e-16 * abs(total), (x, value, want)
        assert R.value_at(iv.a if side == "head" else iv.b) == 0.0
        return R.rel_error

    @pytest.mark.parametrize("iv", [fs.Interval(0.0, 1.0), fs.Interval(1.0, 2.0),
                                    fs.Interval(100.3, 101.3)])
    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("case", RUNNING_CASES)
    def test_bound_covers_the_error(self, iv, side, case):
        c, alpha, gamma, kappa = case
        f = fs.Power(fs.Sum([fs.Constant(1.0), fs.PowerLaw(c, alpha)]), gamma)
        if kappa:
            f = fs.Product([fs.PowerLaw(1.0, kappa), f])
        rel_error = self._check(f, lambda d: (1.0 + c * d**alpha) ** gamma, kappa, iv, side)
        assert rel_error < (quad.SINGULAR_TOL if kappa else quad.SMOOTH_TOL)


def _same(a, b):
    """Equal QuadResults, or errors of one type with one message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (a.value, a.abs_error_estimate, a.subdivisions) == (
        b.value, b.abs_error_estimate, b.subdivisions)


def _alone(job):
    return quad.integrate_many([job])[0]


class TestIntegrateMany:
    def test_jobs_in_a_mixed_batch_match_each_alone(self, unit):
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=3, interval=unit)
        r = fs.PowerLaw(1.4, 0.3)
        jobs = [quad.product_job([(r, 1.0), (fs.closed_antiderivative(f, unit), 2.0)],
                                 unit) for f in fs.sample_family(fam, 6)]
        jobs += [quad.Job(fs.PowerLaw(1.0, a), unit) for a in (2.0, 0.5, -0.5, 1.3)]
        jobs += [
            quad.Job(fs.Product([fs.PowerLaw(1.0, -0.5), fs.ShiftedPowerLaw(1.0, -0.3)]),
                     unit),
            quad.Job(fs.Exponential(2.0, -1.0), fs.Interval(0.2, 0.7), home=unit),
            quad.Job(fs.Power(fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 1.0)]), 0.5), unit,
                     breakpoints=[0.4]),
            quad.Job(fs.PowerLaw(1.0, -1.5), unit),
        ]
        batch = quad.integrate_many(jobs)
        assert isinstance(batch[-1], NonIntegrable)
        for job, res in zip(jobs, batch):
            assert _same(res, _alone(job))
        # two skeletons whose panel requests alternate (A, B, A, B) over
        # several refinement rounds
        jobs = [quad.Job(fs.PowerLaw(1.0, 0.5), unit),
                quad.Job(fs.Exponential(2.0, -40.0), unit),
                quad.Job(fs.PowerLaw(1.3, 1.5), unit),
                quad.Job(fs.Exponential(1.0, 25.0), unit)]
        for job, res in zip(jobs, quad.integrate_many(jobs)):
            assert _same(res, _alone(job))

    def test_a_failing_job_leaves_the_others_unchanged(self, unit):
        wiggly = fs.Exponential(1.0, 300.0)
        # e^(beta x) overflows past 709.78 / beta: at a first-round node for
        # beta = 1000, and only once refinement gets near 0.9989 for 711
        early, late = fs.Exponential(1.0, 1000.0), fs.Exponential(1.0, 711.0)
        good = [quad.Job(fs.Exponential(1.0, b), unit) for b in (-1.0, 0.5)]
        jobs = [good[0], quad.Job(wiggly, unit, 1e-12, max_panels=3),
                quad.Job(early, unit, breakpoints=[0.25, 0.5]),
                quad.Job(late, unit), good[1]]
        batch = quad.integrate_many(jobs)
        assert isinstance(batch[1], BudgetExceeded)
        assert isinstance(batch[2], DomainError)
        assert isinstance(batch[3], DomainError)
        for job, res in zip(jobs, batch):
            assert _same(res, _alone(job))
        with pytest.raises(BudgetExceeded, match=str(batch[1])):
            quad.integrate(wiggly, unit, tol=1e-12, max_panels=3)

    @staticmethod
    def sequential(spec, interval, breaks, max_panels):
        """The reference: the pieces of a regular integrand refined one
        after another, each with what the earlier ones left of the budget."""
        prog = fs.compile_program(spec, interval)
        edges = [interval.a] + breaks + [interval.b]

        def panels(los, his):
            half = 0.5 * (his - los)
            xs = 0.5 * (his + los)[:, None] + half[:, None] * quad._NODES[None, :]
            return quad._panel_rule(prog(xs), half)

        tol = quad.SMOOTH_TOL
        rough = sum(abs(float(panels(np.array([lo]), np.array([hi]))[0][0]))
                    for lo, hi in zip(edges, edges[1:]))
        floor = max(tol * rough, 1e-300) / (2 * (len(edges) - 1))
        total = total_err = 0.0
        used_total = 0
        for lo, hi in zip(edges, edges[1:]):
            los, his = np.array([lo]), np.array([hi])
            vals, errs = panels(los, his)
            used, budget = 1, max_panels - used_total
            while True:
                value, err = float(vals.sum()), float(errs.sum())
                target = max(0.5 * tol * abs(value), floor)
                if err <= target:
                    break
                if used >= budget:
                    raise BudgetExceeded(f"needed more than {budget} panels "
                                         f"for tolerance {0.5 * tol:g}")
                split = errs > target / (2.0 * len(los))
                if not split.any():
                    split[int(np.argmax(errs))] = True
                mids = 0.5 * (los[split] + his[split])
                new_vals, new_errs = panels(np.concatenate([los[split], mids]),
                                            np.concatenate([mids, his[split]]))
                los, his = (np.concatenate([los[~split], los[split], mids]),
                            np.concatenate([his[~split], mids, his[split]]))
                vals = np.concatenate([vals[~split], new_vals])
                errs = np.concatenate([errs[~split], new_errs])
                used += 2 * int(split.sum())
            total += value
            total_err += err
            used_total += used
        return quad.QuadResult(total, total_err, used_total)

    def test_pieces_run_as_one_after_another(self, unit):
        # several pieces that need splitting share the job's panel budget
        spec = fs.Product([fs.PiecewiseLinear([(0, 1), (0.3, 2), (0.6, 0.5), (1, 1)]),
                           fs.Exponential(1.0, 30.0)])
        breaks = [0.3, 0.6]
        used = quad.integrate(spec, unit).subdivisions
        for max_panels in range(1, used + 2):
            job = quad.Job(spec, unit, max_panels=max_panels)
            try:
                ref = self.sequential(spec, unit, breaks, max_panels)
            except BudgetExceeded as exc:
                ref = exc
            assert _same(_alone(job), ref), max_panels

    def test_cumulative_cells_match_one_by_one(self, unit):
        spec = fs.Product([fs.PowerLaw(1.0, -0.4), fs.Exponential(1.0, 1.0)])
        grid = np.linspace(0.0, 1.0, 33)
        for f in (spec, fs.Power(fs.Sum([fs.Constant(2.0), fs.PowerLaw(1.0, 1.5)]), 0.7)):
            jobs = [quad.Job(f, fs.Interval(float(lo), float(hi)), home=unit)
                    for lo, hi in zip(grid, grid[1:])]
            for job, res in zip(jobs, quad.integrate_many(jobs)):
                assert _same(res, quad.integrate(job.f, job.interval, home=unit))

    def test_empty(self):
        assert quad.integrate_many([]) == []

    @settings(max_examples=60, deadline=None)
    @given(jobs=st.lists(st.deferred(lambda: _parity_jobs()), min_size=1, max_size=12))
    def test_batch_parity(self, jobs):
        """Every job of a mixed batch gets the bits, or the error type and
        message, of ``integrate_job`` of that job alone.  A batch of more
        than a few pieces refines them with array rounds, a job alone with
        rounds in Python."""
        for job, res in zip(jobs, quad.integrate_many(jobs)):
            try:
                alone = quad.integrate_job(job)
            except HopialError as exc:
                alone = exc
            assert _same(res, alone), job


class TestPieceSums:
    """A piece's total is np.sum of its panels in bisection order."""

    @staticmethod
    def mixed(rng, size):
        return rng.standard_normal(size) * 10.0 ** rng.integers(-20, 21, size)

    def test_grouped_rows_match_np_sum(self):
        rng = np.random.default_rng(17)
        counts = np.concatenate([np.arange(1, 301), rng.integers(1, 301, 200)])
        rng.shuffle(counts)
        start = np.cumsum(counts) - counts
        xs = self.mixed(rng, (2, int(counts.sum())))
        # the loop passes (value, error) as a strided view of its panel rows
        panel = np.empty((xs.shape[1], 4))
        panel[:, 2:] = xs.T
        got = quad._piece_sums(panel[:, 2:].T, counts)
        for row in range(2):
            want = [np.sum(xs[row, s:s + n]) for s, n in zip(start, counts)]
            assert got[row].tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 127, 128, 129, 300])
    def test_equal_counts_match_np_sum(self, n):
        rng = np.random.default_rng(n)
        xs = self.mixed(rng, 5 * n)
        got = quad._piece_sums(xs, np.full(5, n))
        assert got.tolist() == [np.sum(xs[i * n:(i + 1) * n]) for i in range(5)]


@st.composite
def _parity_jobs(draw):
    """One job of a parity batch: graded ends, breakpoints, a shifted
    interval or a sub-range of one, a mixed tolerance and at times a panel
    budget small enough to run out; or (d e / w)^711 in the distance d from
    a, which overflows past d = 0.99828 w: only once refinement gets there,
    or at a first-round node where a breakpoint leaves a short last piece."""
    a = draw(st.floats(-3.0, 100.0))
    iv = fs.Interval(a, a + draw(WIDTHS))
    w = iv.b - iv.a
    c, alpha, beta = draw(COEFS), draw(EXPONENTS), draw(EXPONENTS)
    kind = draw(st.sampled_from(["left", "right", "both", "sum", "pwl", "late", "divergent"]))
    ts = sorted(set(draw(st.lists(st.floats(0.05, 0.95), max_size=3))))
    breaks = [a + t * w for t in ts]
    tol = draw(st.sampled_from([None, 1e-6, 1e-9, 1e-12]))
    max_panels = draw(st.sampled_from([quad.DEFAULT_PANEL_BUDGET, 1, 2, 5, 12, 30]))
    home = None
    if kind == "left":
        spec = fs.PowerLaw(c, alpha)
    elif kind == "right":
        spec = fs.ShiftedPowerLaw(c, alpha)
    elif kind == "both":
        spec = fs.Product([fs.PowerLaw(c, alpha), fs.ShiftedPowerLaw(1.0, beta)])
    elif kind == "sum":
        spec = fs.Sum([fs.Constant(1.0), fs.PowerLaw(c, alpha),
                       fs.Exponential(1.0, draw(st.floats(-20.0, 20.0)) / w)])
    elif kind == "pwl":
        knots = [(iv.a, 1.0)] + [(x, draw(COEFS)) for x in breaks] + [(iv.b, 0.5)]
        spec = fs.Product([fs.PiecewiseLinear(knots),
                           fs.Exponential(1.0, draw(st.floats(-30.0, 30.0)) / w)])
    elif kind == "late":
        spec = fs.Power(fs.PowerLaw(math.e / w, 1.0), 711.0)
    else:
        spec = fs.PowerLaw(1.0, -1.5)
    if draw(st.booleans()):  # a sub-range of the home interval
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                                      unique=True)))
        if hi - lo > 0.05:
            home, iv = iv, fs.Interval(a + lo * w, a + hi * w)
    return quad.Job(spec, iv, tol, home, breaks, None, max_panels)


# ---------------------------------------------------------------------------
# graded endpoint substitutions on shifted intervals, against closed forms
# and QUADPACK's algebraic-weight rule (QAWS)
# ---------------------------------------------------------------------------

SHIFTS = st.sampled_from([-3.0, 0.0, 1.0, 100.0])
WIDTHS = st.floats(0.25, 3.0)
COEFS = st.floats(0.2, 2.0)
# kappa in (-1, 0), and non-integer kappa in (0, 3)
EXPONENTS = st.one_of(st.floats(-0.98, -0.02),
                      st.floats(0.02, 2.98).filter(lambda e: abs(e - round(e)) > 1e-3))


def _qaws(g, w, alpha, beta):
    """QUADPACK's integral of g(t) t^alpha (w - t)^beta over (0, w) and its
    error, in the distance t from the anchored end: on (a, a + w) at a large
    shift a, x - a would round."""
    return sp_integrate.quad(g, 0.0, w, weight="alg", wvar=(alpha, beta),
                             epsabs=0.0, epsrel=1e-13, limit=200)


def _check(res, exact, oracle):
    """The actual error is inside the estimate, which also covers the QAWS
    value; 4 ulp of the value allow for the rounding of the closed form and
    of the panel sums."""
    ulps = 4.0 * np.finfo(float).eps * abs(exact)
    assert abs(res.value - exact) <= res.abs_error_estimate + ulps
    value, err = oracle
    assert abs(res.value - value) <= res.abs_error_estimate + err + ulps


class TestGradedEndpoints:
    @settings(max_examples=60, deadline=None)
    @given(a=SHIFTS, w=WIDTHS, alpha=EXPONENTS, c=COEFS,
           kind=st.sampled_from(["power", "sum", "poly"]),
           side=st.sampled_from(["left", "right"]))
    def test_one_end(self, a, w, alpha, c, kind, side):
        iv = fs.Interval(a, a + w)
        w = iv.b - iv.a  # the width a + w rounds to, exactly
        law = fs.PowerLaw if side == "left" else fs.ShiftedPowerLaw
        power = c * w ** (alpha + 1.0) / (alpha + 1.0)
        if kind == "power":
            spec, exact = law(c, alpha), power
            oracle = _qaws(lambda t: c, w, alpha, 0.0)
        elif kind == "sum":
            spec, exact = fs.Sum([fs.Constant(1.0), law(c, alpha)]), w + power
            value, err = _qaws(lambda t: c, w, alpha, 0.0)
            oracle = (w + value, err)
        else:  # times the polynomial 0.7 + 1.9 t in the distance t
            spec = fs.Product([law(c, alpha), fs.Sum([fs.Constant(0.7), law(1.9, 1.0)])])
            exact = 0.7 * power + 1.9 * c * w ** (alpha + 2.0) / (alpha + 2.0)
            oracle = _qaws(lambda t: c * (0.7 + 1.9 * t), w, alpha, 0.0)
        _check(quad.integrate(spec, iv), exact, oracle)

    @settings(max_examples=40, deadline=None)
    @given(a=SHIFTS, w=WIDTHS, alpha=EXPONENTS, beta=EXPONENTS, c=COEFS,
           kind=st.sampled_from(["product", "sum"]))
    def test_both_ends(self, a, w, alpha, beta, c, kind):
        iv = fs.Interval(a, a + w)
        w = iv.b - iv.a
        if kind == "product":
            spec = fs.Product([fs.PowerLaw(c, alpha), fs.ShiftedPowerLaw(1.0, beta)])
            exact = c * w ** (alpha + beta + 1.0) * special.beta(alpha + 1.0, beta + 1.0)
            oracle = _qaws(lambda t: c, w, alpha, beta)
        else:
            spec = fs.Sum([fs.Constant(1.0), fs.PowerLaw(c, alpha),
                           fs.ShiftedPowerLaw(1.0, beta)])
            exact = (w + c * w ** (alpha + 1.0) / (alpha + 1.0)
                     + w ** (beta + 1.0) / (beta + 1.0))
            left, e1 = _qaws(lambda t: c, w, alpha, 0.0)
            right, e2 = _qaws(lambda t: 1.0, w, 0.0, beta)
            oracle = (w + left + right, e1 + e2)
        _check(quad.integrate(spec, iv), exact, oracle)


class TestGradedRounds:
    """A finite power-law endpoint is graded by x = a + u^m with an integer
    m: a few kernel rounds, where Gauss-Kronrod bisection toward the
    endpoint took 8 to 19."""

    @pytest.mark.parametrize("a", [0.0, 100.0])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.3, 1.5])
    def test_sum_with_power_law(self, monkeypatch, a, alpha):
        calls = []
        real = _kernel.eval_program

        def counting(*args):
            calls.append(len(args[4]))
            return real(*args)

        monkeypatch.setattr(_kernel, "eval_program", counting)
        iv = fs.Interval(a, a + 1.0)
        res = quad.integrate(fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.3, alpha)]), iv)
        assert len(calls) <= 4
        assert abs(res.value - (1.0 + 1.3 / (alpha + 1.0))) <= res.abs_error_estimate + 1e-15
