import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopial import _kernel
from hopial import cli
from hopial import funcspace as fs
from hopial import quad
from hopial.errors import DomainError, InvalidSpec


def lerp_oracle(knots, x):
    for (x0, v0), (x1, v1) in zip(knots, knots[1:]):
        if x0 <= x <= x1:
            return v0 + (v1 - v0) * (x - x0) / (x1 - x0)
    raise AssertionError("x outside knots")


class TestEvaluate:
    def test_constant(self, unit):
        assert fs.evaluate(fs.Constant(1.0), 0.5, unit) == 1.0

    def test_power_law(self, unit):
        assert fs.evaluate(fs.PowerLaw(1.0, 2.0), 0.5, unit) == 0.25

    def test_pwl_matches_interpolation_oracle(self, unit):
        knots = [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]
        spec = fs.PiecewiseLinear(knots)
        assert fs.evaluate(spec, 0.25, unit) == pytest.approx(
            lerp_oracle(knots, 0.25)
        )
        assert fs.evaluate(spec, 0.25, unit) == pytest.approx(0.5)
        for x in np.linspace(0, 1, 23):
            assert fs.evaluate(spec, float(x), unit) == pytest.approx(
                lerp_oracle(knots, float(x))
            )

    def test_singular_endpoint_is_inf_not_nan(self, unit):
        val = fs.evaluate(fs.PowerLaw(1.0, -0.5), 0.0, unit)
        assert math.isinf(val) and val > 0

    def test_kernel_singular_endpoint_marker(self, unit):
        prog = fs.compile_program(fs.PowerLaw(1.0, -0.5), unit)
        out = _kernel.eval_program(prog.ops, prog.fargs, prog.iargs, prog.data,
                                   np.array([0.0, 0.25, 1.0]))
        assert out.tolist() == [math.inf, 2.0, 1.0]

    def test_kernel_reads_exact_offsets(self):
        # x = anchor + d rounds onto the anchor; the distance opcodes read d
        # at the points anchored at their own anchor, and every other point
        # gets its bits without offsets
        iv = fs.Interval(1.0, 2.0)
        xs = np.array([1.0 + 1e-20, 1.25, 2.0 - 1e-20, 1.75])
        anchors = np.array([1.0, np.nan, 2.0, np.nan])
        ds = np.array([1e-20, 0.0, -1e-20, 0.0])
        ppoly = fs.PiecewisePolynomial([1.0, 1.5, 2.0], [[0.0, 1.0], [0.5, 1.0]])
        for spec, want in [(fs.PowerLaw(1.0, -0.5), [1e10, 1.0]),
                           (fs.ShiftedPowerLaw(1.0, -0.5), [1.0, 1e10]),
                           (ppoly, [1e-20, 1.0])]:
            prog = fs.compile_program(spec, iv)
            plain = prog(xs)
            exact = prog(xs, offsets=(anchors, ds))
            assert [exact[0], exact[2]] == want
            assert exact[1::2].tolist() == plain[1::2].tolist()
        # the same with a parameter row per point
        stacked = fs.stacked([fs.Part(fs.PowerLaw(c, -0.5), iv).code for c in (1.0, 3.0)])
        out = stacked(xs, np.array([1, 0, 1, 0]), (anchors, ds))
        assert out[0] == 3e10 and out[1] == 2.0

    @pytest.mark.parametrize("row,want", [
        ([0.5], [0.5, 0.5, 0.5]),
        ([0.5, 2.0], [0.5, 1.0, 2.5]),
        ([0.5, 2.0, 3.0], [0.5, 0.625, 5.5]),
    ])
    def test_graded_short_rows(self, row, want):
        # c[0] + t sum_k c[k + 1] T_k(2t - 1), t = (x - 1) / 2 on (1, 3)
        iv = fs.Interval(1.0, 3.0)
        spec = fs.PiecewisePolynomial([1.0, 3.0], [row], [(1.0, 1.0, 1.0, 0, [0.0, 2.0])],
                                      ((0.0, math.inf), (0.0, math.inf)))
        got = fs.evaluate_array(spec, np.array([1.0, 1.5, 3.0]), iv)
        assert got.tolist() == want

    def test_outside_interval_rejected(self, unit):
        with pytest.raises(DomainError):
            fs.evaluate(fs.Constant(1.0), 1.5, unit)

    def test_shifted_exponential_product(self, unit):
        spec = fs.Product([fs.ShiftedPowerLaw(2.0, 1.0), fs.Exponential(1.0, -1.0)])
        xs = np.linspace(0.05, 0.95, 9)
        expected = 2.0 * (1.0 - xs) * np.exp(-xs)
        assert np.allclose(fs.evaluate_array(spec, xs, unit), expected, rtol=1e-14)


# hypothesis strategies for stacked programs: a shape fixes the opcodes and
# the data layout, and every member drawn for it has its own parameters
_shape = st.recursive(
    st.one_of(
        st.sampled_from([("const",), ("left",), ("right",), ("exp",)]),
        st.tuples(st.just("pwl"), st.integers(2, 5)),
        st.tuples(st.just("step"), st.integers(1, 4)),
        st.tuples(st.just("ppoly"), st.integers(1, 3), st.integers(0, 3)),
        st.tuples(st.just("graded"), st.integers(1, 3), st.integers(0, 3)),
    ),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["sum", "product"]), st.lists(kids, min_size=2, max_size=3)),
        st.tuples(st.sampled_from(["power", "abs"]), kids),
    ),
    max_leaves=4,
)
# -1, 0.5 and 2 take np.power's scalar shortcuts (0 and 1 too)
_exponent = st.sampled_from([-1.0, 0.5, 2.0, 0.0, 1.0, 1.3, -0.4])
_coef = st.floats(-2.0, 2.0)


def _knots(draw, lo, hi, n):
    """n strictly increasing points from lo to hi."""
    gaps = np.cumsum(draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1)))
    return [lo] + (lo + (hi - lo) * gaps[:-1] / gaps[-1]).tolist() + [hi]


def _member(draw, shape, iv):
    """A spec of ``shape`` on ``iv`` with freshly drawn parameters."""
    kind, a, b = shape[0], iv.a, iv.b
    if kind == "const":
        return fs.Constant(draw(_coef))
    if kind in ("left", "right"):
        law = fs.PowerLaw if kind == "left" else fs.ShiftedPowerLaw
        return law(draw(_coef), draw(_exponent))
    if kind == "exp":
        return fs.Exponential(draw(_coef), draw(st.floats(-1.5, 1.5)))
    if kind == "pwl":
        return fs.PiecewiseLinear([(x, draw(_coef)) for x in _knots(draw, a, b, shape[1])])
    if kind == "step":
        return fs.Step(_knots(draw, a, b, shape[1] + 1), [draw(_coef) for _ in range(shape[1])])
    if kind == "ppoly":
        return fs.PiecewisePolynomial(_knots(draw, a, b, shape[1] + 1),
                                      [[draw(_coef) for _ in range(shape[2] + 1)]
                                       for _ in range(shape[1])])
    if kind == "graded":
        # two pieces, anchored at a and at b, with shape[1] segments each
        m = draw(st.sampled_from([1.0, 2.0, 3.0]))
        mid = a + (b - a) * draw(st.floats(0.2, 0.8))
        frames = [(anchor, sign, m, start, _knots(draw, 0.0, span ** (1.0 / m), shape[1] + 1))
                  for anchor, sign, start, span in ((a, 1.0, 0, mid - a), (b, -1.0, 1, b - mid))]
        coeffs = [[draw(_coef) for _ in range(shape[2] + 1)] for _ in range(2 * shape[1])]
        return fs.PiecewisePolynomial([a, mid, b], coeffs, frames,
                                      ((0.0, math.inf), (0.0, math.inf)))
    terms = [_member(draw, kid, iv) for kid in shape[1]] if kind in ("sum", "product") else [
        _member(draw, shape[1], iv)]
    if kind == "sum":
        return fs.Sum(terms)
    if kind == "product":
        return fs.Product(terms)
    if kind == "power":
        return fs.Power(terms[0], draw(_exponent))
    return fs.AbsVal(terms[0])


class TestStackedPrograms:
    """Rows of a stacked program give the bits of their one-row programs."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_one_row_programs(self, data):
        draw = data.draw
        a = draw(st.floats(-3.0, 3.0))
        iv = fs.Interval(a, a + draw(st.floats(0.25, 4.0)))
        shape = draw(_shape)
        specs = [_member(draw, shape, iv) for _ in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):  # a parameter the rows share stays a scalar
            specs.append(specs[0])
        codes = [fs.Part(spec, iv).code for spec in specs]
        assert len({fs.skeleton(code) for code in codes}) == 1
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        xs = np.concatenate([rng.uniform(iv.a, iv.b, 64), [iv.a, iv.b],
                             fs.Part(specs[0], iv).breaks])
        rows = rng.integers(0, len(codes), len(xs))
        # exact offsets from either end for some points, none for the rest
        anchors = np.array([np.nan, iv.a, iv.b])[rng.integers(0, 3, len(xs))]
        ds = np.where(np.isnan(anchors), 0.0, xs - anchors)
        prog = fs.stacked(codes)
        plain, exact = prog(xs, rows), prog(xs, rows, (anchors, ds))
        for i, code in enumerate(codes):
            at = rows == i
            alone = fs.Program(*code)
            np.testing.assert_array_equal(plain[at], alone(xs[at]))
            np.testing.assert_array_equal(exact[at], alone(xs[at], None, (anchors[at], ds[at])))


class TestValidation:
    def test_interval_requires_order(self):
        with pytest.raises(InvalidSpec):
            fs.Interval(1.0, 1.0)
        with pytest.raises(InvalidSpec):
            fs.Interval(0.0, math.inf)

    def test_pwl_monotone_knots(self, unit):
        with pytest.raises(InvalidSpec):
            fs.validate(fs.PiecewiseLinear([(0, 0), (0, 1), (1, 0)]), unit)

    def test_pwl_must_cover_interval(self, unit):
        with pytest.raises(InvalidSpec):
            fs.validate(fs.PiecewiseLinear([(0.2, 0), (1, 1)]), unit)

    def test_empty_product(self, unit):
        with pytest.raises(InvalidSpec):
            fs.validate(fs.Product([]), unit)

    @pytest.mark.parametrize("spec", [
        fs.Step([0.5], []),
        fs.PiecewisePolynomial([0.0], []),
        fs.PiecewisePolynomial([0.0, 1.0], [[]]),
        fs.PiecewisePolynomial([0.0], [], [], ((0.0, 0.0), (0.0, 0.0))),
    ], ids=["step-no-values", "ppoly-no-pieces", "ppoly-empty-row", "graded-no-pieces"])
    def test_empty_tables_rejected(self, unit, spec):
        with pytest.raises(InvalidSpec):
            fs.validate(spec, unit)

    def test_negative_spec_flagged(self, unit):
        with pytest.raises(InvalidSpec):
            fs.validate_nonnegative(fs.Constant(-1.0), unit)

    def test_batched_probe_matches_one_by_one(self, unit):
        # the check spec by spec, kept as the reference: a leaf's sign is
        # decided by its coefficient or its knot values (the interval's
        # ends are knots here), anything else by the sampled probe
        def alone(spec):
            try:
                fs.validate(spec, unit)
            except InvalidSpec as exc:
                return str(exc)
            if isinstance(spec, fs.PiecewiseLinear):
                vals = np.array([v for _, v in spec.knots])
            elif isinstance(spec, (fs.Constant, fs.PowerLaw)):
                vals = np.array([spec.c])
            else:
                vals = fs.evaluate_array(spec, np.linspace(0.0, 1.0, 66)[1:-1], unit)
            if np.any(np.isnan(vals)):
                return "spec evaluates to NaN inside the interval"
            if np.any(vals < -1e-12 * max(1.0, float(np.nanmax(np.abs(vals))))):
                return "spec is negative inside the interval"
            return None

        rng = np.random.default_rng(4)
        knots = (0.0, 0.3, 0.7, 1.0)
        specs = [fs.PiecewiseLinear(list(zip(knots, rng.uniform(-0.2, 1.0, 4).tolist())))
                 for _ in range(40)]
        specs += [fs.PowerLaw(1.0, 0.5), fs.PowerLaw(-2.0, 1.5), fs.Constant(-1e-14),
                  fs.Power(fs.Sum([fs.Constant(-0.5), fs.PowerLaw(1.0, 1.0)]), 0.5),
                  fs.PiecewiseLinear([(0.1, 1.0), (1.0, 1.0)]),
                  fs.Sum([fs.Exponential(1.0, 1.0), fs.Constant(-1.5)])]
        got = [None if err is None else str(err)
               for err in fs.nonnegativity_errors(specs, unit)]
        assert got == [alone(spec) for spec in specs]
        assert 0 < got.count("spec is negative inside the interval") < len(specs)

    @pytest.mark.parametrize("spec,negative", [
        # a dip between two samples of the probe
        (fs.PiecewiseLinear([(0, 1), (0.503, 1), (0.5031, -5), (0.5032, 1), (1, 1)]), True),
        # the probe's tolerance
        (fs.Constant(-1e-14), False),
        (fs.Exponential(-1e-3, 1.0), True),
        # knots outside the interval count by their interpolated values
        (fs.PiecewiseLinear([(-1.0, -1.0), (0.5, 1.0), (2.0, 1.0)]), False),
        (fs.PiecewiseLinear([(-1.0, 1.0), (1.5, -1.5)]), True),
        (fs.Step([0.0, 0.5, 0.7, 1.0], [1.0, -2e-3, 1.0]), True),
        (fs.Step([-1.0, 0.0, 1.0, 2.0], [-1.0, 1.0, -1.0]), False),
        (fs.Product([fs.PowerLaw(2.0, 0.5), fs.Sum([fs.Constant(1.0),
                                                    fs.ShiftedPowerLaw(1.0, 2.0)])]), False),
    ])
    def test_structural_sign(self, unit, spec, negative):
        message = "spec is negative inside the interval"
        (error,) = fs.nonnegativity_errors([spec], unit)
        assert (error is not None and str(error) == message) == negative

    def test_structure_decides_without_a_probe(self, unit, monkeypatch):
        # only a spec whose structure does not decide its sign is walked
        compiled = []
        real = fs.Part.__init__
        monkeypatch.setattr(fs.Part, "__init__",
                            lambda part, spec, iv: compiled.append(spec) or real(part, spec, iv))
        undecided = fs.Sum([fs.Exponential(1.0, 1.0), fs.Constant(-0.5)])
        specs = [fs.PiecewiseLinear([(0.0, 1.0), (1.0, 2.0)]), fs.PowerLaw(-1.0, 1.0),
                 fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 2.0)]), undecided]
        errors = fs.nonnegativity_errors(specs, unit)
        assert [error is None for error in errors] == [True, False, True, True]
        assert compiled == [undecided]

    @pytest.mark.parametrize("spec", [
        fs.PowerLaw(1.0, math.inf),
        fs.PowerLaw(1.0, math.nan),
        fs.ShiftedPowerLaw(1.0, -math.inf),
        fs.Exponential(1.0, math.inf),
        fs.Sum([fs.Constant(1.0), fs.Exponential(1.0, math.nan)]),
    ])
    def test_non_finite_exponent_rejected(self, unit, spec):
        with pytest.raises(InvalidSpec):
            fs.validate(spec, unit)


class TestAntiderivative:
    def test_constant_is_linear(self, unit):
        anti = fs.closed_antiderivative(fs.Constant(3.0), unit)
        assert fs.evaluate(anti, 0.0, unit) == 0.0
        assert fs.evaluate(anti, 1.0, unit) == pytest.approx(3.0)

    def test_power_rule(self, unit):
        anti = fs.closed_antiderivative(fs.PowerLaw(1.0, 2.0), unit)
        assert fs.evaluate(anti, 0.5, unit) == pytest.approx(0.5**3 / 3.0)

    def test_product_of_power_laws_absent(self, unit):
        spec = fs.Product([fs.PowerLaw(1.0, 1.0), fs.PowerLaw(1.0, 2.0)])
        assert fs.closed_antiderivative(spec, unit) is None

    @pytest.mark.parametrize(
        "spec",
        [
            fs.Sum([fs.Constant(0.5), fs.PowerLaw(2.0, 1.5)]),
            fs.Exponential(1.3, -0.7),
            fs.ShiftedPowerLaw(1.0, 0.5),
            fs.PiecewiseLinear([(0, 0.2), (0.3, 1.0), (0.8, 0.1), (1, 0.6)]),
            fs.Step([0.0, 0.25, 0.7, 1.0], [1.0, -0.5, 2.0]),
        ],
    )
    def test_matches_quadrature_on_random_pairs(self, unit, spec):
        # the antiderivative contract: G(x2) - G(x1) equals the integral,
        # checked on 100 random pairs
        anti = fs.closed_antiderivative(spec, unit)
        prog = fs.compile_program(anti, unit)
        rng = np.random.default_rng(42)
        pairs = np.sort(rng.uniform(0.0, 1.0, size=(100, 2)), axis=1)
        pairs = pairs[pairs[:, 1] - pairs[:, 0] > 1e-4]
        for x1, x2 in pairs:
            direct = quad.integrate(
                spec, fs.Interval(float(x1), float(x2)), home=unit, tol=1e-12
            )
            gap = float((prog(np.array([x2])) - prog(np.array([x1])))[0])
            assert gap == pytest.approx(direct.value, rel=1e-10, abs=1e-13)

    def test_antiderivative_at_left_end_is_zero(self, unit):
        for spec in (
            fs.Exponential(2.0, 1.0),
            fs.ShiftedPowerLaw(1.0, 2.0),
            fs.Sum([fs.Constant(1.0), fs.Exponential(1.0, -2.0)]),
        ):
            anti = fs.closed_antiderivative(spec, unit)
            assert fs.evaluate(anti, 0.0, unit) == pytest.approx(0.0, abs=1e-15)

    def test_piecewise_knots_left_of_the_interval(self):
        # knots may extend past a; the antiderivative still starts at a
        iv = fs.Interval(1.0, 2.0)
        pwl = fs.PiecewiseLinear([(0.0, 0.3), (0.6, 0.0), (1.4, 2.0), (2.0, 0.5)])
        for spec in (pwl, fs.derivative(pwl, iv), fs.closed_antiderivative(pwl, iv)):
            anti = fs.closed_antiderivative(spec, iv)
            assert fs.evaluate(anti, 1.0, iv) == pytest.approx(0.0, abs=1e-15)
            expected = quad.integrate(spec, iv).value
            assert fs.evaluate(anti, 2.0, iv) == pytest.approx(expected, rel=1e-12)


class TestDerivative:
    def test_pwl_derivative_is_step(self, unit):
        spec = fs.PiecewiseLinear([(0, 0), (0.5, 1), (1, 0)])
        d = fs.derivative(spec, unit)
        assert isinstance(d, fs.Step)
        assert fs.evaluate(d, 0.2, unit) == pytest.approx(2.0)
        assert fs.evaluate(d, 0.8, unit) == pytest.approx(-2.0)

    def test_derivative_antiderivative_roundtrip(self, unit):
        spec = fs.Sum([fs.PowerLaw(1.0, 3.0), fs.Exponential(0.5, 1.0)])
        d = fs.derivative(spec, unit)
        anti = fs.closed_antiderivative(d, unit)
        xs = np.linspace(0, 1, 11)
        base = fs.evaluate_array(spec, xs, unit)
        recon = fs.evaluate_array(anti, xs, unit) + base[0]
        assert np.allclose(recon, base, rtol=1e-12, atol=1e-12)


class TestFamilies:
    def test_pwl_family_deterministic_and_prefix(self, unit):
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=7, interval=unit)
        first = fs.sample_family(fam, 3)
        again = fs.sample_family(fam, 3)
        longer = fs.sample_family(fam, 10)
        assert first == again
        assert longer[:3] == first
        assert len({str(s) for s in first}) == 3

    def test_pwl_family_nonnegative_everywhere(self, unit):
        fam = fs.RandomPiecewiseLinear(5, (0.0, 1.0), seed=3, interval=unit)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.0, 1.0, 1000)
        for spec in fs.sample_family(fam, 10):
            assert np.all(fs.evaluate_array(spec, xs, unit) >= 0.0)

    def test_pwl_family_endpoints_do_not_vanish_by_default(self, unit):
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=5, interval=unit)
        for spec in fs.sample_family(fam, 20):
            assert spec.knots[0][1] > 0
            assert spec.knots[-1][1] > 0

    def test_pwl_family_vanish_on_request(self, unit):
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=5, interval=unit,
                                       vanish_at="both")
        for spec in fs.sample_family(fam, 5):
            assert spec.knots[0][1] == 0.0
            assert spec.knots[-1][1] == 0.0

    def test_pwl_knots_clipped_together_are_spaced(self, unit):
        # two inner knots above b - min_gap used to clip onto one x and
        # make an invalid member (the sweep reported it Inconclusive)
        fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=121659850, interval=unit)
        knots = [x for x, _ in fs.sample_family(fam, 30)[29].knots]
        assert knots == pytest.approx([0.0, 1.0 - 2.0 * 2.5e-4, 1.0 - 2.5e-4, 1.0],
                                      rel=0.0, abs=1e-15)
        rep = cli._sweep_case("T2.30", 121800639, 50).reports[29]
        assert rep.status == "Holds"

    @pytest.mark.parametrize("n_knots", [3, 4, 7])
    def test_pwl_knots_keep_min_gap(self, n_knots):
        # 5,000 members over several seeds and intervals; rounding aside,
        # consecutive knots are min_gap = 1e-3 (b - a) / n apart
        for seed, iv in enumerate([fs.Interval(0.0, 1.0), fs.Interval(100.0, 100.3),
                                   fs.Interval(-3.0, -1.0), fs.Interval(1.0, 1.0 + 1e-3),
                                   fs.Interval(0.0, 25.0)]):
            fam = fs.RandomPiecewiseLinear(n_knots, (0.0, 1.0), seed=seed, interval=iv)
            min_gap = 1e-3 * iv.width / n_knots
            for member in fs.sample_family(fam, 1000):
                xs = np.array([x for x, _ in member.knots])
                assert xs[0] == iv.a and xs[-1] == iv.b
                assert np.all(np.diff(xs) >= (1.0 - 1e-9) * min_gap)

    def test_grid_power_law_enumerates(self):
        fam = fs.GridPowerLaw([0.0, 1.0, 2.0])
        members = fs.sample_family(fam, 3)
        assert members == [fs.PowerLaw(1.0, 0.0), fs.PowerLaw(1.0, 1.0),
                           fs.PowerLaw(1.0, 2.0)]
        with pytest.raises(InvalidSpec):
            fs.sample_family(fam, 4)

    def test_empty_range_rejected(self, unit):
        fam = fs.RandomPiecewiseLinear(4, (1.0, 1.0), seed=0, interval=unit)
        with pytest.raises(InvalidSpec):
            fs.sample_family(fam, 1)


# hypothesis strategy for spec trees over the unit interval
_leaf = st.one_of(
    st.builds(fs.Constant, st.floats(0.1, 3.0)),
    st.builds(fs.PowerLaw, st.floats(0.1, 2.0), st.floats(0.0, 2.5)),
    st.builds(fs.ShiftedPowerLaw, st.floats(0.1, 2.0), st.floats(0.0, 2.5)),
    st.builds(fs.Exponential, st.floats(0.1, 2.0), st.floats(-1.5, 1.5)),
    st.builds(
        lambda vals: fs.PiecewiseLinear(
            list(zip(np.linspace(0.0, 1.0, len(vals)), vals))
        ),
        st.lists(st.floats(0.0, 2.0), min_size=2, max_size=5),
    ),
)
_tree = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.builds(lambda ts: fs.Sum(ts), st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda ts: fs.Product(ts), st.lists(children, min_size=1, max_size=2)),
        st.builds(fs.Power, children, st.floats(0.5, 2.0)),
        st.builds(fs.AbsVal, children),
    ),
    max_leaves=6,
)


class TestJsonRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_tree)
    def test_round_trip_identity(self, spec):
        assert fs.spec_from_json(fs.spec_to_json(spec)) == spec

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_graded_running_integral(self, side):
        # the graded form that quad.cumulative emits: frames, ends and all
        unit = fs.Interval(0.0, 1.0)
        f = fs.Power(fs.Sum([fs.Constant(1.0), fs.PowerLaw(0.63, 0.47)]), -0.5)
        F, _ = quad.cumulative(f, unit, side)
        fs.validate(F, unit)
        back = fs.spec_from_json(fs.spec_to_json(F))
        assert back == F
        xs = np.linspace(0.0, 1.0, 33)
        np.testing.assert_array_equal(fs.evaluate_array(back, xs, unit),
                                      fs.evaluate_array(F, xs, unit))

    @settings(max_examples=40, deadline=None)
    @given(_tree)
    def test_round_trip_evaluates_identically(self, spec):
        unit = fs.Interval(0.0, 1.0)
        back = fs.spec_from_json(fs.spec_to_json(spec))
        xs = np.linspace(0.01, 0.99, 17)
        a = fs.evaluate_array(spec, xs, unit)
        b = fs.evaluate_array(back, xs, unit)
        np.testing.assert_array_equal(a, b)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidSpec):
            fs.spec_from_json({"variant": "Mystery", "c": 1})


class TestStructure:
    def test_endpoint_exponents(self, unit):
        inf = math.inf

        def both(spec, side="left"):
            return fs.endpoint_structure(spec, unit, side)

        # the leading exponent kappa, with the first fractional exponent rho
        assert both(fs.PowerLaw(1.0, -0.5)) == (-0.5, -0.5)
        assert both(fs.PowerLaw(1.0, -0.5), "right") == (0.0, inf)
        spec = fs.Product([fs.PowerLaw(1.0, -0.5), fs.ShiftedPowerLaw(1.0, 2.0)])
        assert both(spec, "right") == (2.0, inf)
        assert both(fs.Power(fs.PowerLaw(2.0, 1.0), -0.5)) == (-0.5, -0.5)
        hat = fs.PiecewiseLinear([(0, 0), (0.5, 1), (1, 0)])
        assert both(hat) == (1.0, inf)

    def test_endpoint_structure(self, unit):
        inf = math.inf

        def both(spec, side="left"):
            return fs.endpoint_structure(spec, unit, side)

        # smooth, and integer power laws of either sign: no fractional term
        assert both(fs.Exponential(1.0, 2.0)) == (0.0, inf)
        assert both(fs.PowerLaw(1.0, -2.0)) == (-2.0, inf)
        assert both(fs.PowerLaw(1.0, 0.3), "right") == (0.0, inf)
        assert both(fs.PowerLaw(1.3, 0.3)) == (0.3, 0.3)
        assert both(fs.ShiftedPowerLaw(1.0, -0.4), "right") == (-0.4, -0.4)
        # a sum takes the least exponent of each kind
        law = fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.3, 0.7)])
        assert both(law) == (0.0, 0.7)
        # t^0.5 (1 + t^0.7) t^2: the fractional terms sit at 2.5 and above
        assert both(fs.Product([fs.PowerLaw(1.0, 0.5), law, fs.PowerLaw(1.0, 2.0)])) == (
            2.5, 2.5)
        assert both(fs.Product([law, fs.PowerLaw(1.0, 2.0)])) == (2.0, 2.7)
        # (t^2 (1 + t^0.5))^0.5 = t (1 + ...): the fraction enters at 1.5
        base = fs.Product([fs.PowerLaw(1.0, 2.0), fs.Sum([fs.Constant(1.0),
                                                           fs.PowerLaw(1.0, 0.5)])])
        assert both(fs.Power(base, 0.5)) == (1.0, 1.5)
        assert both(fs.Power(fs.PowerLaw(2.0, 1.0), -0.5)) == (-0.5, -0.5)
        assert both(fs.Power(fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 1.0)]), 0.5)) == (
            0.0, inf)

    def test_breakpoints_collects_knots(self, unit):
        spec = fs.Product(
            [
                fs.PiecewiseLinear([(0, 1), (0.3, 2), (1, 1)]),
                fs.Step([0.0, 0.6, 1.0], [1.0, 2.0]),
            ]
        )
        assert fs.breakpoints(spec, unit) == [0.3, 0.6]

    def test_scale_preserves_antiderivatives(self, unit):
        spec = fs.scale(fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 1.0)]), 2.5)
        anti = fs.closed_antiderivative(spec, unit)
        assert anti is not None
        assert fs.evaluate(anti, 1.0, unit) == pytest.approx(2.5 * 1.5)

    def test_power_of_folds_power_laws(self):
        folded = fs.power_of(fs.PowerLaw(2.0, 1.0), 2.0)
        assert folded == fs.PowerLaw(4.0, 2.0)

    def test_merge_product_combines_anchored_factors(self, unit):
        parts = fs.merge_product(
            [fs.PowerLaw(2.0, 1.5), fs.PowerLaw(3.0, -0.5), fs.Constant(0.5)]
        )
        assert parts == [fs.PowerLaw(3.0, 1.0)]

    def test_tail_integral_spec(self, unit):
        tail = fs.tail_integral_spec(fs.PowerLaw(2.0, 1.0), unit)
        # integral of 2t from x to 1 is 1 - x^2
        assert fs.evaluate(tail, 0.5, unit) == pytest.approx(0.75)
        assert fs.evaluate(tail, 1.0, unit) == pytest.approx(0.0, abs=1e-15)
