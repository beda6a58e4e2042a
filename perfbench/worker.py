"""One workload in its own process.

Sets up (imports hopial from the checkout's src, builds the first round's
inputs, warms up), then runs whole rounds of timed calls until the next
round would end after --seconds, checks every output, and prints one JSON
line with its figures. With --setup-only it stops before the first timed
call and reports only the set-up time. With --trace 1 it runs half the
time untraced, installs the span wrappers and runs as many rounds again,
and reports the per-layer figures and the tracing overhead.

Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Stats:
    """Outcome of the timed calls of one pass."""

    def __init__(self):
        self.rounds = 0
        self.round_rates = []
        self.timed_s = 0.0
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.passed = 0
        self.fault_failures = {}
        self.unexpected = []

    def record(self, op, seconds, failures):
        n_failed = min(len(failures), op.items)
        self.timed_s += seconds
        self.attempted += op.items
        self.failed += n_failed
        self.passed += op.items - n_failed
        # a failed call never meets any latency target
        self.latencies.append(math.inf if n_failed else seconds)
        if not n_failed:
            return
        if op.fault is not None:
            self.fault_failures[op.fault] = self.fault_failures.get(op.fault, 0) + n_failed
        elif len(self.unexpected) < 20:
            self.unexpected.append({"op": op.label, "failures": failures[:3]})


def run_round(ops, stats, tracer=None):
    earlier = {}
    passed, timed_s = stats.passed, stats.timed_s
    for op in ops:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.request(op.label):
                    result = op.call()
        except Exception as exc:  # a raising call is a failed operation
            seconds = time.perf_counter() - start
            stats.record(op, seconds, [f"{type(exc).__name__}: {exc}"] * op.items)
            continue
        seconds = time.perf_counter() - start
        try:
            failures = op.check(result, earlier)
        except Exception as exc:  # CheckFailed, or a result of the wrong shape
            failures = [f"{type(exc).__name__}: {exc}"] * op.items
        if op.key is not None:
            earlier[op.key] = result
        stats.record(op, seconds, failures)
    stats.rounds += 1
    stats.round_rates.append((stats.passed - passed) / (stats.timed_s - timed_s))


def run_rounds(workload, first_ops, first_index, stats, seconds=None, rounds=None,
               tracer=None):
    """Whole rounds: a fixed count, or until the next would end after `seconds`."""
    start = time.perf_counter()
    index = first_index
    ops = first_ops
    while True:
        round_start = time.perf_counter()
        if ops is None:
            ops = workload.round(index)
        run_round(ops, stats, tracer)
        ops = None
        index += 1
        done = index - first_index
        now = time.perf_counter()
        if rounds is not None:
            if done >= rounds:
                return done
        elif now - start + (now - round_start) > seconds:
            return done


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def environment():
    import numpy
    import scipy
    import hopial

    return {
        "kernel_backend": hopial.kernel_backend,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "hopial_threads": os.environ.get("HOPIAL_THREADS"),
    }


def _import_program():
    sys.path.insert(0, SRC)
    import hopial

    if not os.path.abspath(hopial.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hopial imported from {hopial.__file__}, not from {SRC}")


def main(argv=None):
    args = _parse(argv)
    _import_program()
    import workloads

    os.makedirs(args.out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        try:
            result, setup_s = _run(workload, args)
        finally:
            workload.close()
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


def _run(workload, args):
    # set-up: inputs of the first round, then a warm-up on other inputs
    first_ops = workload.round(0)
    workload.warmup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {}, setup_s
    if not args.trace:
        stats = Stats()
        run_rounds(workload, first_ops, 0, stats, seconds=args.seconds)
        return _summary(stats), setup_s
    result = _traced(workload, first_ops, args.seconds)
    trace_path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(result.pop("trace"), handle)
    result["trace_file"] = trace_path
    return result, setup_s


def _summary(stats):
    return {
        "rounds": stats.rounds,
        "calls": len(stats.latencies),
        "attempted": stats.attempted,
        "failed": stats.failed,
        "passed": stats.passed,
        "timed_s": stats.timed_s,
        "round_rates": stats.round_rates,
        "items_per_s": stats.passed / stats.timed_s,
        "call_p50_ms": 1000.0 * statistics.median(stats.latencies),
        "fault_failures": stats.fault_failures,
        "unexpected": stats.unexpected,
    }


def _traced(workload, first_ops, seconds):
    import tracing

    plain = Stats()
    rounds = run_rounds(workload, first_ops, 0, plain, seconds=seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    traced = Stats()
    try:
        run_rounds(workload, None, rounds, traced, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(rounds)
    layers["trace.overhead_s"] = ((traced.timed_s - plain.timed_s) / rounds, "s")
    result = _summary(traced)
    result["attempted"] += plain.attempted
    result["failed"] += plain.failed
    result["unexpected"] = plain.unexpected + traced.unexpected
    for fault, n in plain.fault_failures.items():
        result["fault_failures"][fault] = result["fault_failures"].get(fault, 0) + n
    result["layers"] = layers
    result["trace"] = tracer.dump()
    return result


if __name__ == "__main__":
    sys.exit(main())
