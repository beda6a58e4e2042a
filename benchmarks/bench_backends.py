#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-numpy fallback.

Two layers:

* micro: spec-program evaluation throughput on representative integrands,
  one 2048-step RK4 shooting march at p = 1 and at p = 2, and one p = 2
  eigenvalue solve with its number of leg marches (both backends
  in-process, same inputs);
* end-to-end: a soundness sweep run in a subprocess per backend, selected
  via HOPIAL_BACKEND, since the kernel is bound at import time.

Usage: python benchmarks/bench_backends.py [--count 100]
"""

import argparse
import os
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hopial import _kernel, eigen  # noqa: E402
from hopial import funcspace as fs  # noqa: E402
from hopial._kernel import backends  # noqa: E402


def _programs():
    iv = fs.Interval(0.0, 1.0)
    pwl = fs.PiecewiseLinear([(0, 0.2), (0.3, 1.0), (0.7, 0.4), (1, 0.9)])
    specs = {
        "piecewise-linear f": pwl,
        "hardy integrand": fs.Product(
            [fs.PowerLaw(1.0, -0.98), fs.Exponential(1.0, 0.5)]
        ),
        "lemma integrand": fs.Product(
            [fs.AbsVal(pwl), fs.Power(fs.AbsVal(fs.derivative(pwl, iv)), 2.0)]
        ),
        "weight kernel": fs.Product(
            [
                fs.Power(fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.5, 1.3)]), 2.5),
                fs.Power(fs.Sum([fs.Constant(1.0), fs.PowerLaw(0.5, 2.0)]), -0.5),
            ]
        ),
    }
    return {name: fs.compile_program(sp, iv) for name, sp in specs.items()}


def micro(repeats=400, n_points=960):
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.001, 0.999, n_points)
    impls = backends()
    print(f"-- micro: eval_program, {n_points} points x {repeats} calls --")
    for name, prog in _programs().items():
        row = {}
        for bname, impl in impls.items():
            impl.eval_program(prog.ops, prog.fargs, prog.iargs, prog.data,
                              xs, prog.stack_depth)  # warm up
            t0 = time.perf_counter()
            for _ in range(repeats):
                impl.eval_program(prog.ops, prog.fargs, prog.iargs, prog.data,
                                  xs, prog.stack_depth)
            row[bname] = time.perf_counter() - t0
        line = f"{name:<22}"
        for bname, dt in sorted(row.items()):
            line += f"  {bname}: {dt * 1e3 / repeats:8.3f} ms/call"
        if "pure" in row and "compiled" in row:
            line += f"  speedup: {row['pure'] / row['compiled']:5.2f}x"
        print(line)


def shoot_micro(repeats=20, n_steps=2048):
    grid = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    r_half = 1.0 + 0.5 * np.sin(3.0 * grid) ** 2
    m_half = 1.0 + grid
    lam = 0.5  # below the first eigenvalue: every march runs all steps
    print(f"-- micro: shoot_quasilinear, {n_steps} steps x {repeats} calls --")
    for p in (1.0, 2.0):
        row = {}
        for bname, impl in backends().items():
            impl.shoot_quasilinear(r_half, m_half, lam, 1.0 / n_steps, p)  # warm up
            t0 = time.perf_counter()
            for _ in range(repeats):
                impl.shoot_quasilinear(r_half, m_half, lam, 1.0 / n_steps, p)
            row[bname] = (time.perf_counter() - t0) / repeats
        line = f"{f'march p = {p:g}':<22}"
        for bname, dt in sorted(row.items()):
            line += f"  {bname}: {dt * 1e3:8.3f} ms/call"
        if "pure" in row and "compiled" in row:
            line += f"  speedup: {row['pure'] / row['compiled']:5.2f}x"
        print(line)


def solve_micro(repeats=3):
    """One p = 2 solve_smallest (two shooting searches, 2048 and 1024
    steps) per backend, with the kernel swapped in for the solve."""
    iv = fs.Interval(0.0, 1.0)
    prob = eigen.EigenProblem(fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 2.0)]),
                              fs.Exponential(1.0, 0.5), 2.0, iv)
    print(f"-- micro: p = 2 solve_smallest x {repeats} calls --")
    row = {}
    for bname, impl in backends().items():
        marches = []

        def counting(*args):
            marches.append(1)
            return impl.shoot_quasilinear(*args)

        saved = _kernel.shoot_quasilinear
        _kernel.shoot_quasilinear = counting
        try:
            t0 = time.perf_counter()
            for _ in range(repeats):
                eigen.solve_smallest(prob)
            row[bname] = ((time.perf_counter() - t0) / repeats,
                          len(marches) // repeats)
        finally:
            _kernel.shoot_quasilinear = saved
    line = f"{'solve p = 2':<22}"
    for bname, (dt, n) in sorted(row.items()):
        line += f"  {bname}: {dt * 1e3:8.3f} ms/call, {n} marches"
    if "pure" in row and "compiled" in row:
        line += f"  speedup: {row['pure'][0] / row['compiled'][0]:5.2f}x"
    print(line)


def end_to_end(count):
    if "compiled" not in backends():
        print("-- end-to-end: compiled kernel not built, skipping --")
        return
    print(f"-- end-to-end: sweep of {count} instances per backend --")
    code = (
        "import time, hopial\n"
        "from hopial import funcspace as fs, verify as vf\n"
        "from hopial.constants import ExponentSet\n"
        "iv = fs.Interval(0.0, 1.0)\n"
        "fam = fs.RandomPiecewiseLinear(4, (0.0, 1.0), seed=7, interval=iv)\n"
        "t0 = time.perf_counter()\n"
        f"sw = vf.sweep('T2.27', fam, fs.Sum([fs.Constant(1.0), fs.PowerLaw(1.0, 1.0)]),\n"
        f"              fs.Sum([fs.Constant(1.0), fs.PowerLaw(0.5, 2.0)]),\n"
        f"              ExponentSet(p=2.0), iv, {count})\n"
        "dt = time.perf_counter() - t0\n"
        "print(f'{hopial.kernel_backend}: {dt:.3f}s  "
        "(max_ratio={sw.max_ratio:.6f}, holds={sw.n_holds})')\n"
    )
    for backend in ("pure", "compiled"):
        env = dict(os.environ, HOPIAL_BACKEND=backend)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")]
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()
    print(f"available backends: {sorted(backends())}")
    micro()
    shoot_micro()
    solve_micro()
    end_to_end(args.count)


if __name__ == "__main__":
    main()
