import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    both_axes,
    coupling_matrix,
    error_derivatives,
    feedforward_v0,
    nominal_params,
    open_loop_derivative,
)
from vrgrid.bank import VrBank, VrElement, bank_values
from vrgrid.plant import GridParams, system_matrix

OMEGA_60HZ = 2.0 * math.pi * 60.0


def test_grid_params_validation():
    # a frequency of 1e308 Hz is finite, but its omega_g is not
    for bad in ({"r_g": -1.0}, {"r_g": 0.0}, {"l_g": -1e-4}, {"frequency_hz": 0.0}, {"frequency_hz": 1e308}):
        kwargs = dict(r_g=0.0276, l_g=3.67e-4, frequency_hz=60.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            GridParams(**kwargs)
    with pytest.raises(ValueError):
        GridParams(r_g=0.0276, l_g=3.67e-4, frequency_hz=60.0, v_g_ref=(np.inf, 0.0))


def test_nominal_params_values():
    p = nominal_params()
    assert p.l_g == 3.67e-4
    assert p.r_g == 2.76e-2
    assert p.omega_g == OMEGA_60HZ
    np.testing.assert_array_equal(p.v_g_ref, [392.0, 0.0])


def test_coupling_matrix():
    # degenerate frequency handled by the function itself
    assert np.array_equal(coupling_matrix(SimpleNamespace(omega_g=0.0)), np.zeros((2, 2)))
    w = coupling_matrix(nominal_params())
    np.testing.assert_allclose(w, [[0.0, 376.99111843], [-376.99111843, 0.0]], rtol=1e-9)
    assert np.array_equal(w + w.T, np.zeros((2, 2)))


def test_system_matrix():
    stub = SimpleNamespace(r_g=0.0, l_g=1.0, omega_g=0.0)
    assert np.array_equal(system_matrix(stub), np.zeros((2, 2)))
    a = system_matrix(nominal_params())
    np.testing.assert_allclose(
        a, [[-75.204, 376.991], [-376.991, -75.204]], rtol=1e-3
    )
    sym = 0.5 * (a + a.T)
    np.testing.assert_allclose(sym, -(2.76e-2 / 3.67e-4) * np.eye(2), rtol=1e-12)


def test_system_matrix_eigen_structure():
    # eigenvalues -r/l +- j*w checked through characteristic polynomial coefficients
    p = nominal_params()
    a = system_matrix(p)
    trace = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    rl = p.r_g / p.l_g
    assert trace == pytest.approx(-2.0 * rl, rel=1e-12)
    assert det == pytest.approx(rl ** 2 + p.omega_g ** 2, rel=1e-12)


def test_feedforward_v0():
    p0 = nominal_params(i_ref=(0.0, 0.0))
    np.testing.assert_array_equal(feedforward_v0(p0), p0.v_g_ref)

    p1 = nominal_params(i_ref=(1.0, 0.0))
    np.testing.assert_allclose(feedforward_v0(p1), [392.0276, 0.13836], atol=1e-4)

    p2 = nominal_params(i_ref=(2.0, 0.0))
    drop1 = feedforward_v0(p1) - p1.v_g_ref
    drop2 = feedforward_v0(p2) - p2.v_g_ref
    np.testing.assert_allclose(drop2, 2.0 * drop1, rtol=1e-12)


def test_open_loop_derivative():
    p = nominal_params()
    np.testing.assert_array_equal(
        open_loop_derivative(p, (0.0, 0.0), (10.0, -3.0), (10.0, -3.0)), [0.0, 0.0]
    )
    # feedforward at the reference current is an equilibrium
    deriv = open_loop_derivative(p, p.i_ref, feedforward_v0(p), p.v_g_ref)
    np.testing.assert_allclose(deriv, [0.0, 0.0], atol=1e-9)
    # linearity in (i, v, v_g)
    i, v, vg = (3.0, -2.0), (50.0, 10.0), (40.0, 5.0)
    base = open_loop_derivative(p, i, v, vg)
    scaled = open_loop_derivative(p, np.multiply(i, 2.5), np.multiply(v, 2.5), np.multiply(vg, 2.5))
    np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


def test_error_derivative_fixed_point_and_empty_bank(banks):
    p = nominal_params()
    for bank in banks.values():
        np.testing.assert_array_equal(
            error_derivatives(p, [(0.0, 0.0)], bank, [(0.0, 0.0)]), [[0.0, 0.0]]
        )
    x = np.array([4.0, -7.0])
    d = np.array([30.0, -10.0])
    expected = system_matrix(p) @ x - d / p.l_g
    np.testing.assert_allclose(error_derivatives(p, [x], VrBank(()), [d])[0], expected, rtol=1e-14)


def test_closed_loop_and_error_paths_agree_pointwise(rng, banks):
    # Same physics through two code paths: raw plant + control law vs error dynamics.
    p = nominal_params()
    bank = banks["multi_branch"]
    v0 = feedforward_v0(p)
    xs = rng.uniform(-100.0, 100.0, (10_000, 2))
    ds = rng.uniform(-500.0, 500.0, (10_000, 2))
    via_error = error_derivatives(p, xs, bank, ds)
    control = bank_values(bank, xs)
    for i in range(0, 10_000, 50):
        via_plant = open_loop_derivative(p, p.i_ref + xs[i], v0 - control[i], p.v_g_ref + ds[i])
        np.testing.assert_allclose(via_plant, via_error[i], atol=1e-8)


def test_closed_loop_integration_matches_error_integration():
    """Integrate the raw plant under the control law and compare against the
    error-dynamics integrator, pointwise to 1e-8."""
    p = nominal_params()
    bank = VrBank((both_axes((VrElement("linear", 1.0), VrElement("cubic", 0.25))),))
    from vrgrid.sim import ConstantOffset, integrate

    dt = 1e-6
    n = 2000
    d = np.array([80.0, -30.0])
    v0 = feedforward_v0(p)
    vg = p.v_g_ref + d

    i = p.i_ref.copy()
    path = [i - p.i_ref]
    for _ in range(n):
        def f(state):
            return open_loop_derivative(p, state, v0 - bank_values(bank, [state - p.i_ref])[0], vg)

        k1 = f(i)
        k2 = f(i + 0.5 * dt * k1)
        k3 = f(i + 0.5 * dt * k2)
        k4 = f(i + dt * k3)
        i = i + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path.append(i - p.i_ref)
    reference = np.array(path)

    sc = ConstantOffset(t_end=n * dt, dt=dt, v_g_const=d)
    traj = integrate(p, bank, sc)
    assert np.abs(traj.i_err - reference).max() <= 1e-8
