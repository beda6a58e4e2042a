"""Outside-in tracing: spans around calls into hopial's public functions.

The wrappers are installed from the benchmark by replacing module
attributes; every caller inside hopial looks these functions up through
the module (``quad.integrate``, ``_kernel.eval_program``, ...), so nested
calls are seen too. Only the traced run installs them; the end-to-end run
never imports this module's wrappers.

A span records its name, start, end, parent span and the request (the
timed workload call) it belongs to. Self time is a span's duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, span name); the order only fixes the report layout
TARGETS = (
    ("hopial._kernel", "eval_program", "kernel.eval"),
    ("hopial._kernel", "shoot_quasilinear", "kernel.shoot"),
    ("hopial.funcspace", "compile_program", "funcspace.compile"),
    ("hopial.quad", "integrate", "quad.integrate"),
    ("hopial.quad", "cumulative", "quad.cumulative"),
    ("hopial.quad", "sup_on_interval", "quad.sup"),
    ("hopial.constants", "hardy_constant", "constants.hardy_constant"),
    ("hopial.eigen", "solve_smallest", "eigen.solve"),
    ("hopial.verify", "verify", "verify.verify"),
    ("hopial.opial", "verify_variant", "opial.verify_variant"),
    ("hopial.cli", "run", "cli.run"),
    ("hopial.reportio", "atomic_write", "reportio.write"),
)

# spans kept individually for the trace file; beyond this only totals grow
SPAN_RECORD_LIMIT = 100_000


@dataclass
class _Open:
    name: str
    index: int
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans and per-name totals for one traced pass."""

    calls: dict = field(default_factory=dict)
    total_s: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    spans_dropped: int = 0
    _stack: list = field(default_factory=list)
    _open: dict = field(default_factory=dict)
    _request: int = -1
    _saved: list = field(default_factory=list)

    # -- span bookkeeping --------------------------------------------------

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name):
        return self._open.get(name, 0) > 0

    def _enter(self, name):
        parent = self._stack[-1].index if self._stack else -1
        index = -1
        if len(self.spans) < SPAN_RECORD_LIMIT:
            index = len(self.spans)
            self.spans.append([name, parent, self._request, 0.0, 0.0])
        else:
            self.spans_dropped += 1
        frame = _Open(name, index, time.perf_counter())
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        self._open[frame.name] -= 1
        duration = end - frame.start
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.index >= 0:
            self.spans[frame.index][3] = frame.start
            self.spans[frame.index][4] = end

    def request(self, label):
        """Context for one timed workload call: the root span of a request."""
        tracer = self

        class _Request:
            def __enter__(self_inner):
                tracer._request += 1
                self_inner.frame = tracer._enter(f"request:{label}")
                return self_inner

            def __exit__(self_inner, *exc):
                tracer._exit(self_inner.frame)
                return False

        return _Request()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        if name == "kernel.eval":
            def wrapper(ops, fargs, iargs, data, xs, stack_depth):
                frame = tracer._enter(name)
                try:
                    return fn(ops, fargs, iargs, data, xs, stack_depth)
                finally:
                    tracer._exit(frame)
                    n = len(xs)
                    tracer.add("kernel.eval.points", n)
                    if tracer.inside("quad.integrate"):
                        tracer.add("quad.integrate.points", n)
        elif name == "kernel.shoot":
            def wrapper(r_half, *args, **kwargs):
                frame = tracer._enter(name)
                try:
                    return fn(r_half, *args, **kwargs)
                finally:
                    tracer._exit(frame)
                    tracer.add("kernel.shoot.steps", (len(r_half) - 1) // 2)
                    if tracer.inside("eigen.solve"):
                        tracer.add("eigen.shoot_calls", 1)
        elif name == "verify.verify":
            def wrapper(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if report.detail.startswith("retested"):
                    tracer.add("verify.retests", 1)
                return report
        elif name == "reportio.write":
            def wrapper(path, data):
                frame = tracer._enter(name)
                try:
                    return fn(path, data)
                finally:
                    tracer._exit(frame)
                    tracer.add("reportio.write.bytes", len(data.encode("utf-8")))
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rounds):
        """The per-layer metrics, each per round of the workload."""
        def calls(name):
            return self.calls.get(name, 0) / rounds

        def self_time(name):
            return self.self_s.get(name, 0.0) / rounds

        def count(key):
            return self.counts.get(key, 0) / rounds

        points = self.counts.get("kernel.eval.points", 0)
        solves = self.calls.get("eigen.solve", 0)
        return {
            "kernel.eval.calls": (calls("kernel.eval"), "count"),
            "kernel.eval.points": (count("kernel.eval.points"), "count"),
            "kernel.eval.self_s": (self_time("kernel.eval"), "s"),
            "kernel.eval.ns_per_point": (
                1e9 * self.self_s.get("kernel.eval", 0.0) / points if points else 0.0,
                "ns"),
            "kernel.shoot.calls": (calls("kernel.shoot"), "count"),
            "kernel.shoot.steps": (count("kernel.shoot.steps"), "count"),
            "kernel.shoot.self_s": (self_time("kernel.shoot"), "s"),
            "funcspace.compile.calls": (calls("funcspace.compile"), "count"),
            "funcspace.compile.self_s": (self_time("funcspace.compile"), "s"),
            "quad.integrate.calls": (calls("quad.integrate"), "count"),
            "quad.integrate.points": (count("quad.integrate.points"), "count"),
            "quad.integrate.self_s": (self_time("quad.integrate"), "s"),
            "quad.cumulative.calls": (calls("quad.cumulative"), "count"),
            "quad.cumulative.self_s": (self_time("quad.cumulative"), "s"),
            "quad.sup.calls": (calls("quad.sup"), "count"),
            "quad.sup.self_s": (self_time("quad.sup"), "s"),
            "constants.hardy_constant.calls": (calls("constants.hardy_constant"), "count"),
            "constants.hardy_constant.self_s": (self_time("constants.hardy_constant"), "s"),
            "eigen.solve.calls": (calls("eigen.solve"), "count"),
            "eigen.solve.self_s": (self_time("eigen.solve"), "s"),
            "eigen.shoot_calls_per_solve": (
                self.counts.get("eigen.shoot_calls", 0) / solves if solves else 0.0,
                "count"),
            "verify.verify.calls": (calls("verify.verify"), "count"),
            "verify.verify.self_s": (self_time("verify.verify"), "s"),
            "verify.retests": (count("verify.retests"), "count"),
            "opial.verify_variant.calls": (calls("opial.verify_variant"), "count"),
            "opial.verify_variant.self_s": (self_time("opial.verify_variant"), "s"),
            "cli.run.self_s": (self_time("cli.run"), "s"),
            "reportio.write.calls": (calls("reportio.write"), "count"),
            "reportio.write.bytes": (count("reportio.write.bytes"), "B"),
            "reportio.write.self_s": (self_time("reportio.write"), "s"),
        }

    def dump(self):
        """JSON-ready spans and totals for the trace file."""
        return {
            "span_fields": ["name", "parent", "request", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counts": self.counts,
        }
