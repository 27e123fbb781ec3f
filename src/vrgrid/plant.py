"""dq-frame model of the grid-connected inverter current loop.

State convention: dq vectors are float arrays of shape (2,), d first.
The open-loop current dynamics are

    di/dt = -(1/l_g) (r_g I - l_g W) i + (1/l_g) v - (1/l_g) v_g

with W the skew-symmetric axis-coupling matrix. With the feedforward v0 and
a virtual-resistance bank acting on the current error, the closed loop in
error coordinates becomes

    d(ierr)/dt = A ierr - (1/l_g) r(ierr) - (1/l_g) vg_err,
    A = -(1/l_g) (r_g I - l_g W).
"""

import math
from dataclasses import dataclass

import numpy as np


def as_dq(value, name="vector"):
    """Coerce to a finite float array of shape (2,)."""
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.shape != (2,):
        raise ValueError(f"{name} must have exactly two components (d, q)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


@dataclass(frozen=True, eq=False)
class GridParams:
    """Physical grid/inverter constants; its fields are the config's grid keys.

    l_g in henries, r_g in ohms, frequency_hz in Hz (the model's omega_g
    in rad/s is 2*pi times it), and the (d, q) pairs v_g_ref in volts and
    i_ref in amperes, each stored as a read-only array.
    """

    l_g: float
    r_g: float
    frequency_hz: float
    v_g_ref: tuple = (392.0, 0.0)
    i_ref: tuple = (10.0, 0.0)

    def __post_init__(self):
        # omega_g is checked too: a finite frequency_hz of 1e308 overflows it
        for name in ("r_g", "l_g", "frequency_hz", "omega_g"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        for name in ("v_g_ref", "i_ref"):
            object.__setattr__(self, name, as_dq(getattr(self, name), name))
            getattr(self, name).setflags(write=False)

    @property
    def omega_g(self):
        """Grid angular frequency in rad/s."""
        return 2.0 * math.pi * self.frequency_hz


def system_matrix(p):
    """Closed-loop linear part A = -(1/l_g) (r_g I - l_g W)."""
    a = -p.r_g / p.l_g
    w = p.omega_g
    return np.array([[a, w], [-w, a]])

