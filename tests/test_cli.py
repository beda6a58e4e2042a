import json
import os

import pytest

from hopial import cli
from hopial import constants as ct
from hopial import funcspace as fs
from hopial import reportio
from hopial.errors import HopialError


class TestSpecArgs:
    def test_mini_syntax(self):
        assert cli.parse_spec_arg("const:2.5") == fs.Constant(2.5)
        assert cli.parse_spec_arg("pow:-0.49") == fs.PowerLaw(1.0, -0.49)
        assert cli.parse_spec_arg("pow:2,0.5") == fs.PowerLaw(2.0, 0.5)
        assert cli.parse_spec_arg("rpow:1") == fs.ShiftedPowerLaw(1.0, 1.0)
        assert cli.parse_spec_arg("exp:2") == fs.Exponential(1.0, 2.0)
        assert cli.parse_spec_arg("pwl:0,0;0.5,1;1,0") == fs.PiecewiseLinear(
            [(0, 0), (0.5, 1), (1, 0)]
        )

    def test_inline_json(self):
        spec = cli.parse_spec_arg('{"variant": "Constant", "c": 3.0}')
        assert spec == fs.Constant(3.0)

    def test_file_reference(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(fs.spec_to_json(fs.PowerLaw(1.0, 2.0))))
        assert cli.parse_spec_arg(f"@{path}") == fs.PowerLaw(1.0, 2.0)

    def test_errors(self):
        with pytest.raises(HopialError):
            cli.parse_spec_arg("nosuch:1")
        with pytest.raises(HopialError):
            cli.parse_interval_arg("zero-one")


class TestRunConfig:
    def test_round_trip_identity(self):
        config = cli.RunConfig(
            command="sweep",
            theorem="T2.1",
            r=fs.spec_to_json(fs.Constant(1.0)),
            s=fs.spec_to_json(fs.PowerLaw(1.0, 0.5)),
            p=2.0,
            interval=(0.0, 1.0),
            count=50,
            seed=3,
            family={"kind": "RandomPiecewiseLinear", "n_knots": 4},
            bounds=((0.0, 1.0),),
            out_json="out.json",
        )
        assert cli.RunConfig.from_json(config.to_json()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(HopialError, match="unknown config"):
            cli.RunConfig.from_json({"command": "verify", "bogus": 1})

    def test_command_required(self):
        with pytest.raises(HopialError, match="command"):
            cli.RunConfig.from_json({"theorem": "T2.1"})


class TestCommands:
    def test_constant_exit_zero(self, capsys):
        code = cli.main(
            ["constant", "--theorem", "T2.1", "--r", "const:1", "--s", "const:1",
             "--interval", "0,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.333333" in out

    def test_verify_holds(self, capsys):
        code = cli.main(
            ["verify", "--theorem", "HARDY", "--p", "2", "--f", "pow:-0.49",
             "--interval", "0,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Holds" in out
        assert "0.961" in out

    def test_verify_violated_exit_two(self, capsys):
        code = cli.main(
            ["verify", "--theorem", "T2.22", "--p", "2", "--f", "const:1",
             "--r", "const:1", "--mode", "as_derived"]
        )
        assert code == 2

    def test_malformed_theorem_exit_one(self, capsys):
        code = cli.main(["verify", "--theorem", "T9.99", "--f", "const:1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "theorem" in err

    def test_overflowing_coefficient_exit_one(self, capsys):
        # F^2 = (c x^1.5 / 1.5)^2 overflows at c = 1e200: an error line, no
        # traceback
        code = cli.main(["verify", "--theorem", "HARDY", "--p", "2",
                         "--f", "pow:1e200,0.5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "overflows" in err

    def test_negative_dip_exit_one(self, capsys):
        # the dip lies between two samples of the nonnegativity probe; the
        # knot values show it
        code = cli.main(["verify", "--theorem", "HARDY", "--p", "2", "--f",
                         "pwl:0,1;0.503,1;0.5031,-5;0.5032,1;1,1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: spec is negative inside the interval\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "HARDY", "--p", "2", "--f", "const:abc"],
        ["verify", "--theorem", "HARDY", "--p", "2", "--f", "pow:1,2,3"],
        ["verify", "--theorem", "HARDY", "--p", "2", "--f",
         '{"variant":"PowerLaw","c":1}'],
        "config",
        ["lemma", "--variant", "OPIAL", "--path", "hat:x"],
        ["verify", "--theorem", "HARDY", "--p", "2", "--f",
         '{"variant":"Step","breaks":[0.5],"values":[]}'],
        ["verify", "--theorem", "HARDY", "--p", "2", "--f",
         '{"variant":"PiecewisePolynomial","breaks":[0],"coeffs":[]}'],
        ["verify", "--theorem", "HARDY", "--p", "2", "--f",
         '{"variant":"PiecewisePolynomial","breaks":[0,1],"coeffs":[[]]}'],
    ], ids=["const-abc", "pow-three-args", "json-no-alpha", "config-c-x", "path-hat-x",
            "step-no-values", "ppoly-no-pieces", "ppoly-empty-row"])
    def test_malformed_function_exit_one(self, argv, tmp_path, capsys):
        if argv == "config":
            config = cli.RunConfig(command="verify", theorem="HARDY", p=2.0,
                                   f={"variant": "Constant", "c": "x"})
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config.to_json()))
            argv = ["--config", str(path)]
        code = cli.main(argv)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_inconclusive_exit_three(self, capsys):
        # the second grid member's cube diverges: recorded, not fatal
        code = cli.main(
            ["sweep", "--theorem", "T2.11", "--r", "const:1", "--p", "2",
             "--count", "2",
             "--family", '{"kind": "GridPowerLaw", "alpha_list": [1.0, -0.95]}']
        )
        assert code == 3

    def test_lemma(self, capsys):
        code = cli.main(["lemma", "--variant", "OPIAL", "--path", "hat"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ratio=1" in out

    def test_sweep_with_artifacts(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        out_csv = tmp_path / "sweep.csv"
        out_svg = tmp_path / "sweep.svg"
        code = cli.main(
            ["sweep", "--theorem", "T2.3", "--r", "const:1", "--count", "10",
             "--seed", "5", "--json", str(out_json), "--csv", str(out_csv),
             "--svg", str(out_svg)]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        for key in ("schema_version", "command", "theorem", "mode", "constant",
                    "instances", "max_ratio", "seed"):
            assert key in doc
        assert doc["schema_version"] == 1
        assert len(doc["instances"]) == 10
        assert set(doc["instances"][0]) == {"lhs", "rhs", "ratio", "status",
                                            "budget"}
        assert doc["constant"]["factors"]
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "theorem,mode,lhs,rhs,constant,ratio,status,budget"
        assert len(lines) == 11
        svg = out_svg.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "max" in svg
        assert "script" not in svg
        # no temp files left behind by the atomic writer
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".hopial-tmp")]

    def test_config_file_round(self, tmp_path, capsys):
        config = cli.RunConfig(
            command="verify", theorem="T2.1",
            r=fs.spec_to_json(fs.Constant(1.0)),
            s=fs.spec_to_json(fs.Constant(1.0)),
            f=fs.spec_to_json(fs.Constant(1.0)),
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_json()))
        code = cli.main(["--config", str(path)])
        assert code == 0
        assert "0.75" in capsys.readouterr().out

    def test_sharpness_cli(self, tmp_path, capsys):
        out_svg = tmp_path / "sharp.svg"
        code = cli.main(
            ["sharpness", "--theorem", "HARDY", "--p", "2",
             "--bounds", "[[-0.5,-0.05]]", "--budget", "80",
             "--svg", str(out_svg)]
        )
        assert code == 0
        assert "best_ratio" in capsys.readouterr().out
        assert out_svg.exists()


class TestDeterministicEmitters:
    def test_svg_byte_identical(self):
        ratios = [0.2, 0.5, 0.99, 0.7]
        a = reportio.ratio_plot_svg(ratios, title="t")
        b = reportio.ratio_plot_svg(ratios, title="t")
        assert a == b

    def test_svg_single_point(self):
        svg = reportio.ratio_plot_svg([0.4])
        assert "circle" in svg

    def test_json_sorted_and_clean(self):
        doc = {"b": float("nan"), "a": float("inf"), "c": [1.0, 2.0]}
        text = reportio.dump_json(doc)
        assert text.index('"a"') < text.index('"b"')
        assert '"nan"' in text and '"inf"' in text

    def test_csv_float_repr_stable(self):
        from hopial.verify import VerificationReport

        rep = VerificationReport("T2.1", "as_printed", 0.1, 1.0, 1 / 3, 0.3,
                                 "Holds", 1e-12)
        assert reportio.dump_csv([rep]) == reportio.dump_csv([rep])

    def test_emit_plot_from_report_doc(self, tmp_path):
        doc = {
            "command": "sweep",
            "theorem": "T2.3",
            "instances": [
                {"lhs": 0.1, "rhs": 1.0, "ratio": 0.3, "status": "Holds",
                 "budget": 1e-10},
                {"lhs": 0.2, "rhs": 1.0, "ratio": 0.6, "status": "Holds",
                 "budget": 1e-10},
            ],
        }
        path = tmp_path / "plot.svg"
        reportio.emit_plot(doc, str(path))
        assert path.read_text().startswith("<svg")
        with pytest.raises(HopialError):
            reportio.emit_plot({"instances": []}, str(path))


class TestShiftedSingularInputs:
    """Endpoint-singular inputs whose substitution x = a + u^m leaves x on
    the endpoint in floating point; the kernel reads the exact distance
    u^m, so each verifies (these are the seven inputs perfbench/README.md
    lists under F1)."""

    CASES = [
        ("HARDY", None, None, fs.PowerLaw(1.0, -0.49), (1.0, 2.0)),
        ("T2.3", fs.PowerLaw(1.0, 0.5), None,
         fs.Sum([fs.Constant(0.2), fs.ShiftedPowerLaw(1.0, -0.4)]), (0.0, 1.0)),
        ("T2.3", fs.ShiftedPowerLaw(1.0, -0.9), None, fs.Constant(1.0), (0.0, 1.0)),
    ] + [(ident, *cli.suite_weights(ident, 0), fs.Constant(1.0), (1.0, 2.0))
         for ident in ("T2.7", "T2.8", "T2.9", "T2.10")]

    @pytest.mark.parametrize("ident,r,s,f,iv", CASES)
    def test_exit_zero(self, capsys, ident, r, s, f, iv):
        e = cli.SUITE_EXPONENTS.get(ident, ct.ExponentSet())
        config = cli.RunConfig(
            command="verify", theorem=ident,
            r=None if r is None else fs.spec_to_json(r),
            s=None if s is None else fs.spec_to_json(s),
            f=fs.spec_to_json(f), interval=iv, p=e.p, q=e.q, k=e.k)
        code, doc = cli.run(config)
        assert code == 0
        assert [inst["status"] for inst in doc["instances"]] == ["Holds"]
        if ident == "HARDY":
            # ratio ((p - 1) / (p (alpha + 1)))^p at f = (x - a)^alpha, p = 2
            inst = doc["instances"][0]
            assert abs(inst["ratio"] - 1.0 / (2.0 * 0.51) ** 2) <= inst["budget"]
