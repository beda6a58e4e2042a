"""hopial benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload catalogue_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; hopial is imported from its src/, nothing
needs installing. Every workload process is single-threaded on the
pure-numpy kernel (HOPIAL_BACKEND=pure, HOPIAL_THREADS=1, one BLAS thread).

--trace 0 measures the end-to-end metrics. Set-up time is measured in
SETUP_SAMPLES processes (the timed one and set-up-only ones before it) and
the median is reported. --trace 1 reports the per-layer metrics of a run
with span wrappers installed (see tracing.py) and writes the spans to
perfbench/out/. The last line of standard output is the result object;
the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("catalogue_sweep", "oneshot_cli", "eigen_solve")
SETUP_SAMPLES = 5
# four set-up processes and the timed one stay within 180 s even if each hangs
SETUP_TIMEOUT_S = 15
RUN_TIMEOUT_S = 100

ENVIRONMENT = {
    "HOPIAL_BACKEND": "pure",
    "HOPIAL_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description="hopial benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _worker(args, setup_only):
    """Run one workload process and return its JSON result."""
    env = dict(os.environ, **ENVIRONMENT)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=timeout, check=False,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hopial", "__init__.py")):
        print(f"error: no hopial sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.trace:
        run = _worker(args, setup_only=False)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["layers"].items()}
    else:
        setups = [_worker(args, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        run = _worker(args, setup_only=False)
        setups.append(run["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": run["items_per_s"],
            "call_p50_ms": run["call_p50_ms"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    record = {key: value for key, value in run.items() if key != "layers"}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("# environment " + json.dumps(run["environment"]))
    correct = not run["unexpected"] and run["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
