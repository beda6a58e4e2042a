"""The benchmark's tracer wraps library functions by name; a refactor that
renames one, or changes the kernel's call, must fail here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

from hopial import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_sees_verify_and_lemma_runs():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module_name, attr, _ in tracing.TARGETS:
            wrapped = getattr(importlib.import_module(module_name), attr)
            assert hasattr(wrapped, "__wrapped__"), (module_name, attr)
        with tracer.request("verify"):
            cli.run(cli.RunConfig(command="verify", theorem="T2.3",
                                  r={"variant": "Constant", "c": 1.0},
                                  f={"variant": "PowerLaw", "c": 1.0, "alpha": 0.5}))
        with tracer.request("lemma"):
            cli.run(cli.RunConfig(command="lemma", variant="B2", path="hat:0.4",
                                  s={"variant": "Exponential", "c": 1.0, "beta": 1.0}))
    finally:
        tracer.uninstall()
    assert len(tracer._saved) == 0
    for name in ("opial.verify_variant", "cli.run", "kernel.eval", "verify.verify"):
        assert tracer.calls.get(name, 0) > 0, name
    assert tracer.counts["kernel.eval.points"] > 0
    for module_name, attr, _ in tracing.TARGETS:
        assert not hasattr(getattr(importlib.import_module(module_name), attr),
                           "__wrapped__")


def test_traced_names_exist():
    # every (module, attribute) the tracer wraps is still a hopial name
    for module_name, attr, _ in _load_tracing().TARGETS:
        assert module_name.startswith("hopial."), module_name
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            module_name, attr)
