"""Fixed-step trajectory simulation, disturbance scenarios, and metrics.

The integrator is classical 4th-order Runge-Kutta on the closed-loop
current-error dynamics. Disturbances are sampled at each step start and
held constant within the step; pulse edges and resistance resampling
instants are snapped to the step grid.

When the grid resistance deviates from its nominal value while the
feedforward keeps using the nominal one, the mismatch enters the error
dynamics as an equivalent disturbance: the logged disturbance column is

    v_dist(t) = vg_err(t) + (r_g(t) - r_g_nominal) * i_ref

which is exactly the input the certified dissipation inequality refers to.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .bank import flatten_bank
from .certify import lyapunov_values
from .plant import as_dq

MAX_DT = 1e-4
# t_end / dt bound, checked before anything is allocated. A certified
# simulate at decimation 1 peaks near 130 MB at a million steps and grows
# about 92 MB per million more (the trajectory CSV is streamed), so this cap
# (five times the longest bundled horizon) keeps a run near 0.5 GB.
MAX_STEPS = 5_000_000

# numba compiles the generic kernel; plain Python runs a loop built per bank
rk4_loop = _kernels.rk4_loop if _kernels.NUMBA_ENABLED else _kernels.specialized_rk4_loop


class SimulationAbort(RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, t, state):
        self.t = t
        self.state = state
        super().__init__(f"state became non-finite at t = {t:.9g} s: {state!r}")


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A disturbance scenario on a fixed time grid of ``t_end / dt`` steps.

    Each scenario kind is a subclass. Its class attribute ``kind`` names it
    in a config, and its fields, with their defaults, are the config keys.
    Its class attribute ``window_keys`` names the two fields that open and
    close its disturbance window, or is None for a kind without one; the
    window rule below is checked here for every kind, and :meth:`window`
    gives the window's steps to ``fill`` and ``compute_metrics``. Its
    :meth:`resistance_range` bounds the grid resistance of its runs, the
    interval a certificate of the run covers, and its ``fill(p, rg, vg)``
    writes its disturbance into the arrays that ``disturbance_profile``
    allocates.
    """

    window_keys = None
    t_end: float
    dt: float

    def __post_init__(self):
        if not (0.0 < self.dt <= MAX_DT):
            raise ValueError(f"dt must be in (0, {MAX_DT}], got {self.dt!r}")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be finite and > 0")
        if self.t_end / self.dt > MAX_STEPS:
            raise ValueError(f"t_end / dt must be <= {MAX_STEPS}, got {self.t_end / self.dt:.6g}")
        if self.n_steps < 1:
            raise ValueError(f"t_end / dt must round to at least one step, got {self.t_end / self.dt:.6g}")
        if self.window_keys is not None:
            k0, k1 = self.window_keys
            t0, t1 = getattr(self, k0), getattr(self, k1)
            if not 0.0 <= t0 < t1 <= self.t_end:
                raise ValueError(f"window must satisfy 0 <= {k0} < {k1} <= t_end, got [{t0!r}, {t1!r}]")
            first, end = self.window()
            if first == end:
                raise ValueError(f"window [{k0}, {k1}] = [{t0!r}, {t1!r}] holds no step: "
                                 f"both edges snap to step {first} of dt = {self.dt!r}")

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))

    def window(self):
        """(first, end) steps of the disturbance window, (0, 0) without one.

        Each edge snaps to the nearest step; the window rule keeps both in
        [0, n_steps].
        """
        if self.window_keys is None:
            return 0, 0
        return tuple(int(round(getattr(self, key) / self.dt)) for key in self.window_keys)

    def resistance_range(self, p):
        """(r_min, r_max) holding every grid resistance of a run on grid ``p``: here its nominal r_g."""
        return p.r_g, p.r_g


@dataclass(frozen=True, kw_only=True)
class VoltagePulse(Scenario):
    """Rectangular grid-voltage pulse on one axis, height = fraction * reference."""

    kind = "voltage_pulse"
    window_keys = ("t_on", "t_off")
    axis: str = "d"
    amplitude_fraction: float = 0.4
    t_on: float = 0.1
    t_off: float = 0.101

    def __post_init__(self):
        super().__post_init__()
        if self.axis not in ("d", "q"):
            raise ValueError(f"pulse axis must be 'd' or 'q', got {self.axis!r}")
        if self.amplitude_fraction < 0.0:
            raise ValueError("pulse amplitude_fraction must be >= 0")

    def fill(self, p, rg, vg):
        i_on, i_off = self.window()
        axis = 0 if self.axis == "d" else 1
        vg[i_on:i_off, axis] = self.amplitude_fraction * float(p.v_g_ref[axis])


@dataclass(frozen=True, kw_only=True)
class RandomResistance(Scenario):
    """Piecewise-constant random grid resistance inside a time window.

    The bounds are fractions of the nominal resistance.
    """

    kind = "random_resistance"
    window_keys = ("t_start", "t_stop")
    seed: int
    lo_fraction: float = 0.1
    hi_fraction: float = 1.9
    t_start: float = 0.2
    t_stop: float = 0.8
    resample_period: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.lo_fraction <= self.hi_fraction):
            raise ValueError("resistance bounds must satisfy 0 < lo <= hi")
        if self.resample_period <= 0.0:
            raise ValueError("resample_period must be > 0")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    def resistance_range(self, p):
        """The drawn values lie in [lo_fraction, hi_fraction] x r_g, and r_g is nominal outside the window."""
        ends = min(self.lo_fraction, 1.0) * p.r_g, max(self.hi_fraction, 1.0) * p.r_g
        for key, r in zip(("lo_fraction", "hi_fraction"), ends):
            if not 0.0 < r < math.inf:
                raise ValueError(f"{key} x r_g = {getattr(self, key)!r} x {p.r_g!r} = {r!r} is out of (0, inf)")
        return ends

    def fill(self, p, rg, vg):
        i0, i1 = self.window()
        # any period of at least t_end is one interval; the min keeps the ratio finite
        steps_per = max(1, int(round(min(self.resample_period, self.t_end) / self.dt)))
        u = splitmix64_uniform(self.seed, (i1 - i0 + steps_per - 1) // steps_per)
        values = (self.lo_fraction + (self.hi_fraction - self.lo_fraction) * u) * p.r_g
        rg[i0:i1] = values[np.arange(i1 - i0) // steps_per]


@dataclass(frozen=True, kw_only=True)
class ConstantOffset(Scenario):
    """Constant grid-voltage offset (smooth case for convergence studies)."""

    kind = "custom"
    v_g_const: tuple = (0.0, 0.0)

    def fill(self, p, rg, vg):
        vg[:] = np.asarray(self.v_g_const, dtype=float)


SCENARIO_KINDS = {cls.kind: cls for cls in (VoltagePulse, RandomResistance, ConstantOffset)}


def splitmix64_uniform(seed, count):
    """Deterministic uniforms in [0, 1) from the splitmix64 generator.

    Output i (0-based) is produced from the 64-bit state
    z = seed + (i + 1) * 0x9E3779B97F4A7C15 (mod 2^64) passed through

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31

    and mapped to a double via (z >> 11) * 2**-53.
    """
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def disturbance_profile(p, sc):
    """Per-grid-point raw disturbance and resistance: (times, r_g, vg_err)."""
    n = sc.n_steps
    times = np.arange(n + 1) * sc.dt
    rg = np.full(n + 1, p.r_g)
    vg = np.zeros((n + 1, 2))
    sc.fill(p, rg, vg)
    return times, rg, vg


class Trajectory(NamedTuple):
    """Uniformly sampled closed-loop trajectory.

    ``v_dist`` is the effective disturbance driving the error dynamics
    (grid-voltage error plus the resistance-mismatch term); ``v_lyap`` is
    populated only when a certificate was attached to the run. Every array
    has one row per point of the uniform grid ``times``; :func:`integrate`
    builds them so, and nothing is checked here. Like every record without
    a ``__post_init__`` check, it is a NamedTuple: ``_asdict()`` and
    ``_replace()`` stand for ``dataclasses.asdict`` and ``replace``, which
    do not apply to it.
    """

    times: np.ndarray
    i_err: np.ndarray
    v_dist: np.ndarray
    r_g: np.ndarray
    v_lyap: Optional[np.ndarray] = None

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])


def integrate(p, bank, sc, cert=None, i_err0=(0.0, 0.0)):
    """Run the scenario; aborts with a diagnostic if the state overflows."""
    times, rg, vg = disturbance_profile(p, sc)
    v_dist = vg + (rg - p.r_g)[:, None] * p.i_ref
    y0 = as_dq(i_err0, "i_err0")

    codes_d, p1_d, p2_d, codes_q, p1_q, p2_q = flatten_bank(bank)
    out, bad = rk4_loop(
        y0[0], y0[1], sc.dt, sc.n_steps, p.l_g, p.omega_g,
        rg, v_dist[:, 0], v_dist[:, 1],
        codes_d, p1_d, p2_d, codes_q, p1_q, p2_q,
    )
    if bad >= 0:
        raise SimulationAbort(times[bad], out[bad])

    v_lyap = lyapunov_values(cert, bank, out) if cert is not None else None
    return Trajectory(times=times, i_err=out, v_dist=v_dist, r_g=rg, v_lyap=v_lyap)


class Metrics(NamedTuple):
    """Scenario performance indices, named as the keys of metrics.json (SI units:
    ``_s`` seconds, ``_a`` amperes); settling time is None when unsettled."""

    settling_time_2pct_d_s: Optional[float]
    settled: bool
    rms_err_d_a: float
    rms_err_q_a: float
    peak_abs_err_d_a: float
    peak_abs_err_q_a: float


def compute_metrics(traj, sc):
    """Settling time and RMS/peak errors.

    The 2% settling band is defined relative to the post-disturbance peak
    of |i_err_d| (the error reference is zero, so a band relative to the
    final value would be degenerate); settling is the first time after the
    disturbance end at which |i_err_d| enters and then stays inside the
    band. RMS and peaks are taken over [disturbance start, t_end]; a
    scenario without a window is measured over the whole horizon.
    """
    if len(traj.times) < 2:
        raise ValueError("trajectory is empty")
    i_start, i_end = sc.window()

    post = np.abs(traj.i_err[i_end:, 0])
    peak = float(post.max())
    if peak == 0.0:
        settling, settled = 0.0, True
    else:
        band = 0.02 * peak
        above = post > band
        if above[-1]:
            settling, settled = None, False
        else:  # the finite peak's own sample is above its band
            last = int(np.nonzero(above)[0][-1])
            settling = float(traj.times[i_end + last + 1] - traj.times[i_end])
            settled = True

    window = traj.i_err[i_start:]
    rms = np.sqrt(np.mean(window ** 2, axis=0))
    # one column at a time: a max over the outer axis of the (N, 2) array takes ~25 times as long
    peak_d, peak_q = (float(np.abs(window[:, axis]).max()) for axis in (0, 1))
    return Metrics(
        settling_time_2pct_d_s=settling,
        settled=settled,
        rms_err_d_a=float(rms[0]),
        rms_err_q_a=float(rms[1]),
        peak_abs_err_d_a=peak_d,
        peak_abs_err_q_a=peak_q,
    )


class DissipationReport(NamedTuple):
    n_violations: int
    worst_margin: float
    tol: float


def check_dissipation(traj, cert):
    """Discrete check of the certified inequality along a logged trajectory.

    Verifies (V(t+dt) - V(t))/dt <= -varsigma |x|^2 + alpha |v_dist|^2 + tol
    at every step, with tol = 1e-3 * (1 + max |dV/dt|) absorbing the
    sample-and-hold discretization error. A step whose excess is not within
    tol is a violation; so is a NaN excess or an infinite rise, which no tol absorbs.
    """
    if traj.v_lyap is None:
        raise ValueError("trajectory has no Lyapunov log; integrate with cert=...")
    report = cert.report
    if report is None:
        raise ValueError("certificate has no verification report attached")
    dv = np.diff(traj.v_lyap) / traj.dt
    x2 = np.einsum("ni,ni->n", traj.i_err[:-1], traj.i_err[:-1])
    w2 = np.einsum("ni,ni->n", traj.v_dist[:-1], traj.v_dist[:-1])
    rhs = -report.varsigma * x2 + report.alpha * w2
    tol = 1e-3 * (1.0 + float(np.abs(dv).max(initial=0.0)))
    excess = dv - rhs
    return DissipationReport(
        n_violations=int(np.count_nonzero(~(excess <= min(tol, np.finfo(float).max)))),
        worst_margin=float(excess.max(initial=0.0)),
        tol=tol,
    )

