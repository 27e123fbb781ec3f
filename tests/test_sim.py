import math
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from conftest import both_axes, error_derivatives, nominal_params, passivity_ball, unchecked_element
from vrgrid.bank import VrBank, VrElement
from vrgrid.certify import search_certificate
from vrgrid.plant import system_matrix
from vrgrid.sim import (
    SCENARIO_KINDS,
    ConstantOffset,
    RandomResistance,
    SimulationAbort,
    Trajectory,
    VoltagePulse,
    check_dissipation,
    compute_metrics,
    disturbance_profile,
    integrate,
    splitmix64_uniform,
)

SMOOTH_BANK = VrBank((
    both_axes((VrElement("linear", 1.0), VrElement("cubic", 0.25))),
    both_axes((VrElement("sinh", 0.5, 0.5),)),
))


def test_scenario_validation():
    with pytest.raises(ValueError):
        VoltagePulse(t_end=0.2, dt=1e-3)                              # dt too large
    with pytest.raises(ValueError):
        VoltagePulse(t_end=0.2, dt=1e-6, t_on=0.2, t_off=0.1)
    with pytest.raises(ValueError, match="amplitude_fraction"):
        VoltagePulse(t_end=0.2, dt=1e-6, amplitude_fraction=-0.1)
    with pytest.raises(ValueError):
        VoltagePulse(t_end=0.2, dt=1e-6, axis="x")
    with pytest.raises(ValueError):
        RandomResistance(t_end=1.0, dt=1e-6, seed=1, lo_fraction=0.0)
    with pytest.raises(ValueError, match="t_end / dt"):
        ConstantOffset(t_end=1e3, dt=1e-6)                            # 1e9 steps
    with pytest.raises(ValueError):
        ConstantOffset(t_end=math.inf, dt=1e-6)
    with pytest.raises(ValueError, match="at least one step"):
        ConstantOffset(t_end=4e-7, dt=1e-6)                           # rounds to 0 steps
    with pytest.raises(ValueError, match="at least one step"):
        VoltagePulse(t_end=4e-7, dt=1e-6, t_on=0.0, t_off=4e-7)
    with pytest.raises(ValueError, match="holds no step: both edges snap to step 0 of dt"):
        VoltagePulse(t_end=0.01, dt=1e-6, t_on=0.0, t_off=1e-12)      # narrower than half a step
    with pytest.raises(ValueError, match="holds no step: both edges snap to step 1000 of dt"):
        RandomResistance(t_end=0.01, dt=1e-6, seed=1, t_start=1e-3, t_stop=1.0004e-3)


WINDOWED_KINDS = sorted(kind for kind, cls in SCENARIO_KINDS.items() if cls.window_keys is not None)
# values of the fields without a default, by name
REQUIRED_VALUES = {"seed": 1}


def _windowed(cls, t0, t1, t_end=0.01, dt=1e-6):
    required = {f.name: REQUIRED_VALUES[f.name] for f in fields(cls) if f.default is MISSING
                and f.name not in ("t_end", "dt")}
    return cls(t_end=t_end, dt=dt, **dict(zip(cls.window_keys, (t0, t1))), **required)


@pytest.mark.parametrize("kind", WINDOWED_KINDS)
@pytest.mark.parametrize("t0, t1, match", [
    pytest.param(-1e-3, 2e-3, "window must satisfy", id="start-negative"),
    pytest.param(2e-3, 2e-3, "window must satisfy", id="start-equals-stop"),
    pytest.param(3e-3, 2e-3, "window must satisfy", id="start-after-stop"),
    pytest.param(1e-3, 0.011, "window must satisfy", id="stop-after-t_end"),
    pytest.param(1e-3, 1.0004e-3, "holds no step: both edges snap to step 1000 of dt", id="sub-step"),
])
def test_window_rule_of_every_kind(kind, t0, t1, match):
    """One rule for every kind with a window: 0 <= start < stop <= t_end, holding a step."""
    cls = SCENARIO_KINDS[kind]
    with pytest.raises(ValueError, match=match):
        _windowed(cls, t0, t1)
    assert _windowed(cls, 0.0, 0.01).window() == (0, 10_000)
    assert _windowed(cls, 1e-3, 1.0006e-3).window() == (1000, 1001)


def test_window_keys_name_two_float_fields():
    """A kind's ``window_keys`` is a class attribute, no config key: None or two of its float fields."""
    for cls in SCENARIO_KINDS.values():
        types = {f.name: f.type for f in fields(cls)}
        assert "window_keys" not in types, cls.__name__
        keys = cls.window_keys
        assert keys is None or (len(keys) == 2 and all(types.get(key) is float for key in keys)), cls.__name__
    assert ConstantOffset(t_end=1e-3, dt=1e-6).window() == (0, 0)


@pytest.mark.parametrize("seed", [1.5, True, -1, 2 ** 64])
def test_random_resistance_seed_is_a_u64_int(seed):
    """A float or bool seed used to run as int(seed); each is refused like an out-of-range one."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        RandomResistance(t_end=1.0, dt=1e-6, seed=seed)


def test_zero_disturbance_zero_state_is_identically_zero(banks):
    p = nominal_params()
    sc = ConstantOffset(t_end=2e-3, dt=1e-6)
    traj = integrate(p, banks["multi_branch"], sc)
    assert np.all(traj.i_err == 0.0)


def test_empty_bank_step_response_steady_state():
    """Constant disturbance drives the linear loop to the solution of
    A x = d / l_g, matched against an independent 2x2 solve."""
    p = nominal_params()
    d = np.array([120.0, -40.0])
    # slowest mode decays at r_g/l_g ~ 75/s; 0.35 s leaves < 1e-10 transient
    sc = ConstantOffset(t_end=0.35, dt=1e-6, v_g_const=d)
    traj = integrate(p, VrBank(()), sc)
    expected = np.linalg.solve(system_matrix(p), d / p.l_g)
    np.testing.assert_allclose(traj.i_err[-1], expected, rtol=1e-6)


def test_rk4_convergence_order():
    """Richardson triple on a smooth (constant-disturbance) case.

    The state is compared mid-transient: at a converged horizon RK4's fixed
    point coincides with the true equilibrium and the dt-dependence washes
    out to roundoff.
    """
    p = nominal_params()
    elements = (VrElement("linear", 0.5), VrElement("cubic", 0.002), VrElement("sinh", 0.2, 0.1))
    bank = VrBank((both_axes(elements),))
    finals = []
    for dt in (4e-6, 2e-6, 1e-6):
        sc = ConstantOffset(t_end=1e-3, dt=dt, v_g_const=(50.0, 20.0))
        traj = integrate(p, bank, sc, i_err0=(30.0, -20.0))
        finals.append(traj.i_err[-1])
    e_coarse = np.linalg.norm(finals[0] - finals[1])
    e_fine = np.linalg.norm(finals[1] - finals[2])
    order = math.log2(e_coarse / e_fine)
    assert 3.7 <= order <= 4.3


def test_scenario_voltage_pulse_profile():
    p = nominal_params()
    sc = VoltagePulse(t_end=0.2, dt=1e-6)

    times, rg, vg = disturbance_profile(p, sc)
    on = int(round(sc.t_on / sc.dt))
    off = int(round(sc.t_off / sc.dt))
    assert np.all(vg[on:off, 0] == 0.4 * 392.0)
    assert np.all(vg[:on, 0] == 0.0) and np.all(vg[off:, 0] == 0.0)
    assert np.all(vg[:, 1] == 0.0)          # q axis stays zero throughout
    assert np.all(rg == p.r_g)

    zero = VoltagePulse(t_end=0.2, dt=1e-6, amplitude_fraction=0.0)
    _, _, vg0 = disturbance_profile(p, zero)
    assert np.all(vg0 == 0.0)


def test_scenario_random_resistance_profile():
    p = nominal_params()
    sc = RandomResistance(seed=7, t_end=0.05, dt=1e-5,
                          t_start=0.01, t_stop=0.04, resample_period=1e-3)
    _, rg1, _ = disturbance_profile(p, sc)
    _, rg2, _ = disturbance_profile(p, sc)
    assert np.array_equal(rg1, rg2)

    degenerate = RandomResistance(seed=7, t_end=0.05, dt=1e-5,
                                  t_start=0.01, t_stop=0.04,
                                  lo_fraction=1.0, hi_fraction=1.0)
    _, rg_const, _ = disturbance_profile(p, degenerate)
    assert np.all(rg_const == p.r_g)


def test_splitmix_uniform_statistics():
    u = splitmix64_uniform(123456789, 100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # spans at least 99% of [0, 1)
    assert u.min() <= 0.005 and u.max() >= 0.995
    lo, hi = 0.1, 1.9
    r = lo + (hi - lo) * u
    assert r.min() >= lo and r.max() <= hi
    assert (r.max() - r.min()) / (hi - lo) >= 0.99
    # streaming is reproducible and seed-sensitive
    assert np.array_equal(u, splitmix64_uniform(123456789, 100_000))
    assert not np.array_equal(u[:100], splitmix64_uniform(987654321, 100)[:100])


def _synthetic_trajectory(signal_d, dt):
    n = len(signal_d) - 1
    times = np.arange(n + 1) * dt
    i_err = np.column_stack([signal_d, np.zeros(n + 1)])
    return Trajectory(times=times, i_err=i_err, v_dist=np.zeros((n + 1, 2)), r_g=np.ones(n + 1))


def test_settling_time_exponential_oracle():
    # |x(t)| = exp(-t / tau), disturbance ends at t = 0:
    # the 2% band is crossed for good at tau * ln(50)
    dt = 1e-6
    tau = 1e-3
    times = np.arange(0, int(0.02 / dt) + 1) * dt
    traj = _synthetic_trajectory(np.exp(-times / tau), dt)
    sc = ConstantOffset(t_end=0.02, dt=dt)
    m = compute_metrics(traj, sc)
    assert m.settled
    assert abs(m.settling_time_2pct_d_s - tau * math.log(50.0)) <= dt


def test_metrics_constant_and_zero_signals():
    dt = 1e-5
    n = 1000
    sc = ConstantOffset(t_end=n * dt, dt=dt)

    const = _synthetic_trajectory(np.full(n + 1, -3.0), dt)
    m = compute_metrics(const, sc)
    assert m.rms_err_d_a == pytest.approx(3.0)
    assert not m.settled and m.settling_time_2pct_d_s is None
    assert m.peak_abs_err_d_a == pytest.approx(3.0)

    zero = _synthetic_trajectory(np.zeros(n + 1), dt)
    m = compute_metrics(zero, sc)
    assert m.settled and m.settling_time_2pct_d_s == 0.0
    assert m.rms_err_d_a == 0.0 and m.rms_err_q_a == 0.0


def test_check_dissipation_zero_case(banks):
    p = nominal_params()
    bank = banks["multi_branch"]
    result = search_certificate(p, bank, (p.r_g, p.r_g))
    sc = ConstantOffset(t_end=1e-3, dt=1e-6)
    traj = integrate(p, bank, sc, cert=result.certificate)
    rep = check_dissipation(traj, result.certificate)
    assert rep.n_violations == 0


def test_check_dissipation_scenario1_and_corruption(banks):
    p = nominal_params()
    bank = VrBank((both_axes((VrElement("linear", 1.0),)),))
    result = search_certificate(p, bank, (p.r_g, p.r_g))
    assert result.feasible
    sc = VoltagePulse(t_end=0.15, dt=1e-6)
    traj = integrate(p, bank, sc, cert=result.certificate)

    clean = check_dissipation(traj, result.certificate)
    assert clean.n_violations == 0

    # negative control: inflating the decay rate by 100x must surface violations
    rep = result.certificate.report
    corrupted = replace(result.certificate, report=rep._replace(varsigma=100.0 * rep.varsigma))
    dirty = check_dissipation(traj, corrupted)
    assert dirty.n_violations > 0


def test_check_dissipation_requires_logs(banks):
    p = nominal_params()
    bank = banks["linear"]
    result = search_certificate(p, bank, (p.r_g, p.r_g))
    sc = ConstantOffset(t_end=1e-3, dt=1e-6)
    with pytest.raises(ValueError, match="Lyapunov log"):
        check_dissipation(integrate(p, bank, sc), result.certificate)


@pytest.mark.parametrize("v_lyap", [
    [0.0, 1.0, np.inf, 2.0, 3.0],       # one inf: tol is inf, the rise to it is not absorbed
    [0.0, 1.0, np.inf, np.inf, np.inf],  # inf - inf is NaN, and so is tol
    [0.0, 1.0, np.nan, 2.0, 3.0],
])
def test_check_dissipation_counts_nonfinite_steps(banks, v_lyap):
    """A step whose excess is not <= tol is a violation, NaN and inf included."""
    p = nominal_params()
    cert = search_certificate(p, banks["linear"], (p.r_g, p.r_g)).certificate
    n = len(v_lyap)
    traj = Trajectory(times=np.arange(n) * 1e-6, i_err=np.ones((n, 2)), v_dist=np.zeros((n, 2)),
                      r_g=np.full(n, p.r_g), v_lyap=np.array(v_lyap))
    with np.errstate(invalid="ignore"):
        assert check_dissipation(traj, cert).n_violations > 0


def test_passivity_ball_negative_control(banks):
    """A negative resistance breaks x * r(x) >= 0 and leaves the ball a sector bank stays in."""
    p = nominal_params()
    sc = ConstantOffset(t_end=1e-3, dt=1e-6)
    unstable = VrBank((both_axes((unchecked_element("linear", -3.0),)),))
    # zero disturbance: the ball's radius is |x0|, and a sector bank's peak is x0 itself
    assert passivity_ball(integrate(p, banks["linear"], sc, i_err0=(1e-3, 0.0))) == (1e-3, 1e-3)
    peak, radius = passivity_ball(integrate(p, unstable, sc, i_err0=(1e-3, 0.0)))
    assert radius == 1e-3
    assert peak > 1e3 * radius


def test_simulation_abort_diagnostic():
    p = nominal_params()
    unstable = VrBank((both_axes((unchecked_element("linear", -3.0),)),))
    sc = ConstantOffset(t_end=0.2, dt=1e-6)
    with pytest.raises(SimulationAbort) as err:
        integrate(p, unstable, sc, i_err0=(1.0, 0.0))
    assert err.value.t > 0.0


def test_determinism_bit_identical(banks):
    p = nominal_params()
    sc = RandomResistance(seed=42, t_end=0.05, dt=1e-5,
                          t_start=0.01, t_stop=0.04)
    a = integrate(p, banks["multi_branch"], sc)
    b = integrate(p, banks["multi_branch"], sc)
    assert np.array_equal(a.i_err, b.i_err)
    assert np.array_equal(a.r_g, b.r_g)
    assert np.array_equal(a.v_dist, b.v_dist)


def test_linearity_superposition():
    p = nominal_params()
    bank = VrBank(())
    d1 = (90.0, 0.0)
    d2 = (-20.0, 55.0)
    t1 = integrate(p, bank, ConstantOffset(t_end=5e-3, dt=1e-6, v_g_const=d1))
    t2 = integrate(p, bank, ConstantOffset(t_end=5e-3, dt=1e-6, v_g_const=d2))
    t12 = integrate(p, bank, ConstantOffset(t_end=5e-3, dt=1e-6, v_g_const=np.add(d1, d2)))
    assert np.abs(t12.i_err - (t1.i_err + t2.i_err)).max() <= 1e-8


def test_monotone_damping_pointwise(rng, banks):
    """Appending a sector element never increases d/dt |x|^2 at a fixed state."""
    p = nominal_params()
    base = banks["hybrid"]
    extended = VrBank((
        both_axes(base.branches[0].elements_d + (VrElement("tanh", 4.0, 0.5),)),
    ))
    xs = rng.uniform(-60.0, 60.0, (10_000, 2))
    ds = rng.uniform(-300.0, 300.0, (10_000, 2))
    dv_base = 2.0 * np.einsum("ni,ni->n", xs, error_derivatives(p, xs, base, ds))
    dv_ext = 2.0 * np.einsum("ni,ni->n", xs, error_derivatives(p, xs, extended, ds))
    assert np.all(dv_ext <= dv_base + 1e-12)


def test_resistance_mismatch_is_logged_as_disturbance():
    p = nominal_params()
    sc = RandomResistance(seed=3, t_end=0.02, dt=1e-5,
                          t_start=0.005, t_stop=0.015)
    traj = integrate(p, VrBank(()), sc)
    expected = (traj.r_g - p.r_g)[:, None] * p.i_ref
    np.testing.assert_allclose(traj.v_dist, expected, rtol=1e-12, atol=1e-15)
