#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Usage:
    python benchmarks/bench_kernels.py [--steps N] [--repeat R]

The same functions run twice: once through the numba dispatcher and once
through the uncompiled implementation, on identical inputs. When numba is
not installed (or fails to import), or is disabled with
VRGRID_DISABLE_NUMBA, both columns are the fallback, and the first line of
output says which of the two applies. The fallback integrator is run on a
reduced step count and scaled, otherwise a single row would dominate the
wall clock.

A second table times the integrator that runs without numba,
``specialized_rk4_loop`` (an RK4 loop generated per bank), in us/step for
each bundled bank, next to the generic uncompiled ``rk4_loop``; each row
asserts that the two trajectories are bitwise equal.
"""

import argparse
import time

import numpy as np

from vrgrid import _kernels
from vrgrid._kernels import jacobi_sweep, python_impl, rk4_loop, specialized_rk4_loop
from vrgrid.bank import flatten_bank
from vrgrid.plant import nominal_params
from vrgrid import default_banks


def _time(fn, repeat, *args):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_rk4(steps, repeat):
    p = nominal_params()
    bank = default_banks()["multi_branch"]
    arrays = flatten_bank(bank)
    rg = np.full(steps + 1, p.r_g)
    dist_d = np.full(steps + 1, 50.0)
    dist_q = np.zeros(steps + 1)

    args = (0.0, 0.0, 1e-6, steps, p.l_g, p.omega_g, rg, dist_d, dist_q, *arrays)
    t_jit, (out_jit, _) = _time(rk4_loop, repeat, *args)

    py_steps = max(1, steps // 200)
    py_args = (0.0, 0.0, 1e-6, py_steps, p.l_g, p.omega_g, rg, dist_d, dist_q, *arrays)
    t_py_small, (out_py, _) = _time(python_impl(rk4_loop), 1, *py_args)
    t_py = t_py_small * steps / py_steps

    np.testing.assert_array_equal(out_jit[:py_steps + 1], out_py)
    return t_jit, t_py


def bench_specialized(steps, repeat):
    """us/step of (generic uncompiled, specialized) rk4_loop per bundled bank."""
    p = nominal_params()
    rows = {}
    for name, bank in default_banks().items():
        arrays = flatten_bank(bank)
        rg = np.full(steps + 1, p.r_g)
        dist_d = np.zeros(steps + 1)
        dist_d[steps // 10:steps // 5] = 0.4 * p.v_g_ref[0]
        dist_q = np.zeros(steps + 1)
        args = (0.0, 0.0, 1e-6, steps, p.l_g, p.omega_g, rg, dist_d, dist_q, *arrays)
        t_spec, (out_spec, bad_spec) = _time(specialized_rk4_loop, repeat, *args)
        t_ref, (out_ref, bad_ref) = _time(python_impl(rk4_loop), 1, *args)
        assert bad_spec == bad_ref == -1
        np.testing.assert_array_equal(out_spec, out_ref)
        rows[name] = (1e6 * t_ref / steps, 1e6 * t_spec / steps)
    return rows


def bench_jacobi(repeat):
    rng = np.random.default_rng(0)
    s = rng.normal(size=(20, 20))
    s = 0.5 * (s + s.T)

    def run(fn):
        a = s.copy()
        v = np.eye(20)
        fn(a, v, 1e-12)
        return np.diag(a)

    t_jit, w_jit = _time(lambda: run(jacobi_sweep), repeat)
    t_py, w_py = _time(lambda: run(python_impl(jacobi_sweep)), repeat)
    np.testing.assert_array_equal(np.sort(w_jit), np.sort(w_py))
    return t_jit, t_py


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=1_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if _kernels.NUMBA_ENABLED:
        label = "numba"
    elif _kernels.NUMBA_DISABLED:
        label = "fallback (numba disabled by VRGRID_DISABLE_NUMBA)"
    else:
        label = "fallback (numba not installed or not importable)"
    print(f"compiled path: {label}")
    print(f"{'kernel':<28}{'compiled [s]':>14}{'python [s]':>14}{'speedup':>10}")

    t_jit, t_py = bench_rk4(args.steps, args.repeat)
    print(f"{'rk4_loop (%d steps)' % args.steps:<28}{t_jit:>14.4f}{t_py:>14.4f}{t_py / t_jit:>10.1f}")

    t_jit, t_py = bench_jacobi(args.repeat)
    print(f"{'jacobi_sweep (20x20)':<28}{t_jit:>14.6f}{t_py:>14.6f}{t_py / t_jit:>10.1f}")

    spec_steps = max(1, args.steps // 50)
    print()
    print(f"fallback rk4_loop, {spec_steps} steps, bitwise equal to the generic kernel")
    print(f"{'bank':<28}{'generic [us/step]':>18}{'specialized [us/step]':>23}{'speedup':>10}")
    for name, (us_ref, us_spec) in bench_specialized(spec_steps, args.repeat).items():
        print(f"{name:<28}{us_ref:>18.2f}{us_spec:>23.2f}{us_ref / us_spec:>10.1f}")


if __name__ == "__main__":
    main()
