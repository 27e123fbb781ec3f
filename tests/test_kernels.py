"""The numba path and the pure-Python fallback must compute the same values."""

import importlib.util
import subprocess
import sys

import numpy as np
import pytest

from vrgrid import _kernels, sim
from vrgrid._kernels import (
    element_value,
    jacobi_sweep,
    python_impl,
    rk4_loop,
    series_sum,
)

KINDS = [
    (_kernels.LINEAR, 2.0, 0.0),
    (_kernels.CUBIC, 0.5, 0.0),
    (_kernels.SINH, 0.8, 1.2),
    (_kernels.TANH, 3.0, 0.4),
    (_kernels.SATURATION, 2.0, 1.5),
]


def test_element_kernels_match_python_fallback(rng):
    py_value = python_impl(element_value)
    for code, p1, p2 in KINDS:
        for x in rng.uniform(-30.0, 30.0, 200):
            assert element_value(code, p1, p2, x) == py_value(code, p1, p2, x)


def test_series_sum_matches_python_fallback(rng):
    codes = np.array([k for k, _, _ in KINDS], dtype=np.int64)
    p1 = np.array([p for _, p, _ in KINDS])
    p2 = np.array([q for _, _, q in KINDS])
    py_sum = python_impl(series_sum)
    for x in rng.uniform(-10.0, 10.0, 100):
        assert series_sum(codes, p1, p2, x) == py_sum(codes, p1, p2, x)


def _rk4_args(bank_d, bank_q, *, n=200, dt=1e-6, y0=(2.0, -1.0), dist=40.0, rg=None):
    def pack(bank):
        return (np.array([k for k, _, _ in bank], dtype=np.int64),
                np.array([p for _, p, _ in bank], dtype=float),
                np.array([q for _, _, q in bank], dtype=float))

    rg_seq = np.full(n + 1, 0.0276) if rg is None else rg
    dist_d = np.full(n + 1, dist)  # dist: a scalar or n + 1 values
    dist_q = -0.5 * dist_d
    return (y0[0], y0[1], dt, n, 3.67e-4, 377.0, rg_seq, dist_d, dist_q,
            *pack(bank_d), *pack(bank_q))


def _random_bank(rng):
    return [(int(rng.integers(0, 5)), float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 2.0)))
            for _ in range(int(rng.integers(0, 9)))]


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n = 300
    rg = 0.0276 * rng.uniform(0.1, 1.9, n + 1)
    return _rk4_args(_random_bank(rng), _random_bank(rng), n=n, dt=2e-6, rg=rg,
                     y0=tuple(rng.uniform(-3.0, 3.0, 2)))


SATURATION = [(_kernels.SATURATION, 2.0, 1.5)]
LINEAR_CUBIC = [(_kernels.LINEAR, 1.0, 0.0), (_kernels.CUBIC, 0.25, 0.0)]
# runs of bit-identical inputs; the last run (3.0) ends on the last step
PIECEWISE = np.array([0.0, 0.0, 0.0, 5.0, 6.0, 6.0, 7.0, 0.0, 0.0, 0.0, 3.0, 3.0, 3.0])
RG_RUNS = 0.0276 * np.array([1.0, 1.0, 0.5, 0.7, 0.7, 0.7, 0.2, 1.3, 1.3, 1.0, 1.0, 0.4, 0.4])


def _pulse(n, on, value):
    return np.where(np.arange(n + 1) < on, 0.0, value)


RK4_CASES = {
    "linear_cubic": _rk4_args(LINEAR_CUBIC, LINEAR_CUBIC),
    **{f"kind{code}": _rk4_args([(code, p1, p2)], [(code, p1, p2)], n=400, dt=1e-5)
       for code, p1, p2 in KINDS},
    "all_kinds_d_empty_q": _rk4_args(KINDS, [], n=300, dt=1e-5),
    **{f"random{seed}": _random_case(seed) for seed in range(8)},
    # the state starts exactly on the clip points +x_sat (d) and -x_sat (q)
    "saturation_at_x_sat": _rk4_args(SATURATION, SATURATION, n=1, y0=(1.5, -1.5), dist=0.0),
    # the run-wise loop: the zero state holds through a zero-input prefix,
    # and a state the first step of a run leaves unchanged fills that run
    "zero_prefix_then_pulse": _rk4_args(LINEAR_CUBIC, LINEAR_CUBIC, n=300, y0=(0.0, 0.0),
                                        dist=_pulse(300, 120, 40.0)),
    "piecewise_runs": _rk4_args(LINEAR_CUBIC, [(_kernels.SINH, 0.8, 1.2)], n=12, y0=(0.0, 0.0),
                                dist=PIECEWISE, rg=RG_RUNS),
    # every run is stationary at zero, most of length 1
    "piecewise_rg_at_zero": _rk4_args(LINEAR_CUBIC, [], n=12, y0=(0.0, 0.0), dist=0.0, rg=RG_RUNS),
    "quiescent": _rk4_args(KINDS, KINDS, n=200, y0=(0.0, 0.0), dist=0.0),
    # -0.0 in the state and the inputs (dist_q is -0.5 * dist_d): the first
    # step turns -0.0 into 0.0, which == would take for no change
    **{f"signed_zero{i}": _rk4_args(LINEAR_CUBIC, KINDS, n=20, y0=y0, dist=dist, rg=rg)
       for i, (y0, dist, rg) in enumerate([
           ((-0.0, 0.0), 0.0, None),
           ((-0.0, -0.0), -0.0, None),
           ((0.0, -0.0), _pulse(20, 10, -0.0), None),
           ((-0.0, -0.0), 0.0, np.full(21, -0.0)),
           ((-0.0, 0.0), -0.0, _pulse(20, 5, 0.0276)),
       ])},
    # the state leaves a skipped zero run and overflows to inf, or meets a nan
    "abort_inf_after_skip": _rk4_args([(_kernels.LINEAR, 1.0, 0.0)], [], n=100, y0=(0.0, 0.0),
                                      dist=_pulse(100, 50, 1e308)),
    "abort_nan_after_skip": _rk4_args([(_kernels.LINEAR, 1.0, 0.0)], [], n=100, y0=(0.0, 0.0),
                                      dist=_pulse(100, 50, np.nan)),
    # a diverging cubic overflows to inf, a huge linear state to nan
    "abort_inf": _rk4_args([(_kernels.CUBIC, 0.5, 0.0)], [], n=400, dt=1e-4, y0=(50.0, 0.0)),
    "abort_nan": _rk4_args([(_kernels.LINEAR, 1.0, 0.0)], [(_kernels.LINEAR, 1.0, 0.0)],
                           n=10, dt=1e-4, y0=(1e307, -1e307)),
}


@pytest.mark.parametrize("case", sorted(RK4_CASES))
def test_rk4_loop_matches_python_fallback(case):
    # the integrator vrgrid.sim runs (numba, or the loop built per bank)
    # against the uncompiled generic kernel, bit for bit
    args = RK4_CASES[case]
    out, bad = sim.rk4_loop(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        ref_out, ref_bad = python_impl(rk4_loop)(*args)
    assert bad == ref_bad
    if case.startswith("abort"):
        assert bad > 0
        out, ref_out = out[:bad + 1], ref_out[:bad + 1]
    else:
        assert bad == -1
    # on the bits, so that -0.0 and 0.0 stay apart
    np.testing.assert_array_equal(out.view(np.uint64), ref_out.view(np.uint64))


def test_sinh_overflow_aborts_at_its_step():
    # math.sinh raises OverflowError where numba's sinh returns inf; either
    # way the run stops at the step whose sinh overflowed
    bank = [(_kernels.SINH, 1.0, 1.0)]
    args = _rk4_args(bank, bank, n=2000, dt=1e-4, y0=(20.0, 0.0))
    out, bad = sim.rk4_loop(*args)
    assert bad > 0
    assert not np.all(np.isfinite(out[bad]))
    ref_out, ref_bad = python_impl(rk4_loop)(*args[:3], bad - 1, *args[4:])
    assert ref_bad == -1
    np.testing.assert_array_equal(out[:bad], ref_out)


@pytest.mark.parametrize("code", [-1, _kernels.SATURATION + 1, 7])
def test_element_value_rejects_unknown_code(code):
    # a code past SATURATION used to clip like a saturation element
    with pytest.raises(ValueError, match="unknown element code"):
        python_impl(element_value)(code, 2.0, 1.5, 3.0)


def test_build_rk4_loop_rejects_unknown_code():
    codes = np.array([_kernels.SATURATION + 1], dtype=np.int64)
    with pytest.raises(ValueError, match="unknown element code"):
        _kernels.build_rk4_loop(codes, np.ones(1), np.ones(1), codes, np.ones(1), np.ones(1))


def test_jacobi_matches_python_fallback(rng):
    s = rng.normal(size=(8, 8))
    s = 0.5 * (s + s.T)
    a1, v1 = s.copy(), np.eye(8)
    a2, v2 = s.copy(), np.eye(8)
    jacobi_sweep(a1, v1, 1e-12)
    python_impl(jacobi_sweep)(a2, v2, 1e-12)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(v1, v2)


def test_env_flag_selects_fallback():
    code = (
        "import vrgrid._kernels as k; import vrgrid as vg; import numpy as np;"
        "from vrgrid.sim import ConstantOffset, integrate;"
        "assert not k.NUMBA_ENABLED;"
        "p = vg.nominal_params();"
        "t = integrate(p, vg.default_banks()['multi_branch'],"
        "              ConstantOffset(t_end=1e-4, dt=1e-5, v_g_const=(10.0, 0.0)));"
        "assert np.all(np.isfinite(t.i_err));"
        "print('fallback ok')"
    )
    import os

    env = dict(os.environ, VRGRID_DISABLE_NUMBA="1")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert "fallback ok" in res.stdout


def test_numba_enabled_by_default():
    # the compiled path is on exactly when numba is installed and not disabled
    # by VRGRID_DISABLE_NUMBA; anything else is a silent fallback, and
    # the numba_enabled field of every manifest.json would misreport the backend
    expected = importlib.util.find_spec("numba") is not None and not _kernels.NUMBA_DISABLED
    assert _kernels.NUMBA_ENABLED == expected
    assert hasattr(_kernels.rk4_loop, "py_func") == _kernels.NUMBA_ENABLED
