"""The numba path and the pure-Python fallback must compute the same values."""

import importlib.util
import math
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import CONFIG_DIR, EXAMPLE_ELEMENTS, python_impl
from vrgrid import _kernels, sim
from vrgrid._kernels import ELEMENT_KINDS, element_value, rk4_loop, series_sum

# (code, p1, p2) of each example element, as the kernels take them
KINDS = [(e.code, e.p1, e.p2) for e in EXAMPLE_ELEMENTS]


def test_kinds_cover_the_table():
    # every kernel code in ELEMENT_KINDS must be exercised by the tests here
    assert sorted(code for code, _, _ in KINDS) == sorted(row.code for row in ELEMENT_KINDS.values())

def test_element_expr_matches_element_value(rng):
    """Each row's ``expr``, the form build_rk4_loop inlines, gives element_value's bits."""
    kernel = python_impl(element_value)
    for e in EXAMPLE_ELEMENTS:
        row = ELEMENT_KINDS[e.kind]
        expr = eval(f"lambda p1, p2, x: {row.expr.format(p1='p1', p2='p2', x='x')}",
                    {"sinh": math.sinh, "tanh": math.tanh})
        # the example's parameters, then drawn ones (an example p1 such as 0.5
        # scales exactly, which hides a reordered product)
        drawn = (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)) if len(row.params) == 2 else 0.0)
        for p1, p2 in [(e.p1, e.p2), drawn]:
            # saturation clips at x = +-p2 (x_sat): the edges and their neighbours
            edges = [s * math.nextafter(p2, t) for s in (1.0, -1.0) for t in (0.0, p2, math.inf)]
            for x in [*rng.uniform(-30.0, 30.0, 200).tolist(), 0.0, -0.0, *edges]:
                got, want = expr(p1, p2, x), kernel(row.code, p1, p2, x)
                assert struct.pack("<d", got) == struct.pack("<d", want), (e.kind, p1, p2, x, got, want)


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


def _rk4_args(bank_d, bank_q, *, n=200, dt=1e-6, y0=(2.0, -1.0), dist=40.0, rg=None, lg=3.67e-4, wg=377.0):
    def pack(bank):
        return (np.array([k for k, _, _ in bank], dtype=np.int64),
                np.array([p for _, p, _ in bank], dtype=float),
                np.array([q for _, _, q in bank], dtype=float))

    rg_seq = np.full(n + 1, 0.0276) if rg is None else rg
    dist_d = np.full(n + 1, dist)  # dist: a scalar or n + 1 values
    dist_q = -0.5 * dist_d
    return (y0[0], y0[1], dt, n, lg, wg, rg_seq, dist_d, dist_q,
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
SINH = [(_kernels.SINH, 1.0, 1.0)]
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
    # vrgrid.bank.MAX_ELEMENTS_PER_AXIS on both axes, in one inlined sum each
    "element_limit": _rk4_args(KINDS * 51 + KINDS[:1], KINDS[::-1] * 51 + KINDS[:1], n=20, dt=1e-7),
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
    # every term of the q sum is -0.0 (p1 * -0.0 and dist_q = -0.5 * 0.0),
    # and l_g < 0 carries the sign of that zero into the state: an element
    # sum without its 0.0 head must not see the -0.0 disturbance as is
    "signed_zero_sum": _rk4_args([(_kernels.LINEAR, 1.0, 0.0)], [(_kernels.LINEAR, 1.0, 0.0)],
                                 n=20, y0=(0.0, -0.0), dist=0.0, lg=-3.67e-4),
    # its mirror on the d axis: swapping d and q turns w_g into -w_g
    "signed_zero_sum_d": _rk4_args([(_kernels.LINEAR, 1.0, 0.0)], [(_kernels.LINEAR, 1.0, 0.0)],
                                   n=20, y0=(-0.0, 0.0), dist=-0.0, lg=-3.67e-4, wg=-377.0),
    # the state leaves a skipped zero run and overflows to inf, or meets a nan
    "abort_inf_after_skip": _rk4_args([(_kernels.LINEAR, 1.0, 0.0)], [], n=100, y0=(0.0, 0.0),
                                      dist=_pulse(100, 50, 1e308)),
    "abort_nan_after_skip": _rk4_args([(_kernels.LINEAR, 1.0, 0.0)], [], n=100, y0=(0.0, 0.0),
                                      dist=_pulse(100, 50, np.nan)),
    # a diverging cubic overflows to inf, a huge linear state to nan
    "abort_inf": _rk4_args([(_kernels.CUBIC, 0.5, 0.0)], [], n=400, dt=1e-4, y0=(50.0, 0.0)),
    # the q sum of k1q .. k4q overflows to -inf while the d state stays
    # finite, so the abort has to test both axes
    "abort_inf_q": _rk4_args([], [(_kernels.LINEAR, 1.0, 0.0)], n=10, y0=(0.0, 1.1e304)),
    "abort_nan": _rk4_args([(_kernels.LINEAR, 1.0, 0.0)], [(_kernels.LINEAR, 1.0, 0.0)],
                           n=10, dt=1e-4, y0=(1e307, -1e307)),
    # math.sinh overflows: on the first step of a run after a stationary
    # zero prefix, on the third step of such a run, and on the first step
    # from a state far from zero
    "sinh_overflow_first_step": _rk4_args(SINH, SINH, n=100, y0=(0.0, 0.0), dist=_pulse(100, 50, 1e6)),
    "sinh_overflow_in_run": _rk4_args(SINH, SINH, n=200, dt=2e-5, y0=(0.0, 0.0), dist=_pulse(200, 50, 100.0)),
    "sinh_overflow_single_run": _rk4_args(SINH, SINH, n=2000, dt=1e-4, y0=(20.0, 0.0)),
    # runs of length 1 that are not stationary, in the middle and at the end
    "runs_of_one": _rk4_args(LINEAR_CUBIC, KINDS, n=6, dist=np.array([1.0, 1.0, 7.0, 1.0, 1.0, 3.0, 3.0])),
}


@pytest.mark.parametrize("case", sorted(RK4_CASES))
def test_rk4_loop_matches_python_fallback(case):
    # the integrator vrgrid.sim runs (numba, or the loop built per bank)
    # against the uncompiled generic kernel, bit for bit
    args = RK4_CASES[case]
    out, bad = sim.rk4_loop(*args)
    reference = python_impl(rk4_loop)
    with np.errstate(over="ignore", invalid="ignore"):
        if case.startswith("sinh_overflow"):
            # math.sinh raises where numba's sinh returns inf: the reference
            # raises on the step that aborts, and the steps before it match
            assert bad > 0 and not np.all(np.isfinite(out[bad]))
            with pytest.raises(OverflowError):
                reference(*args[:3], bad, *args[4:])
            args, out, bad = (*args[:3], bad - 1, *args[4:]), out[:bad], -1
        ref_out, ref_bad = reference(*args)
    assert bad == ref_bad
    if case.startswith("abort"):
        assert bad > 0
        out, ref_out = out[:bad + 1], ref_out[:bad + 1]
    else:
        assert bad == -1
    # on the bits, so that -0.0 and 0.0 stay apart
    np.testing.assert_array_equal(out.view(np.uint64), ref_out.view(np.uint64))


@pytest.mark.parametrize("code", [-1, _kernels.SATURATION + 1, 7])
def test_element_value_rejects_unknown_code(code):
    # a code past SATURATION used to clip like a saturation element
    with pytest.raises(ValueError, match="unknown element code"):
        python_impl(element_value)(code, 2.0, 1.5, 3.0)


def test_build_rk4_loop_rejects_unknown_code():
    codes = np.array([_kernels.SATURATION + 1], dtype=np.int64)
    with pytest.raises(ValueError, match="unknown element code"):
        _kernels.build_rk4_loop(codes, np.ones(1), np.ones(1), codes, np.ones(1), np.ones(1))


def test_env_flag_selects_fallback():
    code = (
        "import sys; import vrgrid._kernels as k; import numpy as np;"
        "from vrgrid.cli import load_config;"
        "from vrgrid.sim import ConstantOffset, integrate;"
        "assert not k.NUMBA_ENABLED;"
        "cfg = load_config(sys.argv[1]);"
        "t = integrate(cfg.grid, cfg.bank,"
        "              ConstantOffset(t_end=1e-4, dt=1e-5, v_g_const=(10.0, 0.0)));"
        "assert np.all(np.isfinite(t.i_err));"
        "print('fallback ok')"
    )
    import os

    env = dict(os.environ, VRGRID_DISABLE_NUMBA="1")
    config = CONFIG_DIR / "scenario1" / "multi_branch.json"
    res = subprocess.run([sys.executable, "-c", code, str(config)], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert "fallback ok" in res.stdout


def test_numba_enabled_by_default():
    # the compiled path is on exactly when numba is installed and not disabled
    # by VRGRID_DISABLE_NUMBA; anything else is a silent fallback, and
    # the numba_enabled field of every manifest.json would misreport the backend
    expected = importlib.util.find_spec("numba") is not None and not _kernels.NUMBA_DISABLED
    assert _kernels.NUMBA_ENABLED == expected
    assert hasattr(_kernels.rk4_loop, "py_func") == _kernels.NUMBA_ENABLED
