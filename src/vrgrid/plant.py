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
from dataclasses import dataclass, field

import numpy as np


def as_dq(value, name="vector"):
    """Coerce to a finite float array of shape (2,)."""
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.shape != (2,):
        raise ValueError(f"{name} must have exactly two components (d, q)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


@dataclass(frozen=True)
class GridParams:
    """Physical grid/inverter constants.

    r_g in ohms, l_g in henries, omega_g in rad/s (loaders convert a
    frequency given in Hz by multiplying with 2*pi), v_g_ref in volts,
    i_ref in amperes.
    """

    r_g: float
    l_g: float
    omega_g: float
    v_g_ref: np.ndarray = field(default_factory=lambda: np.array([392.0, 0.0]))
    i_ref: np.ndarray = field(default_factory=lambda: np.array([10.0, 0.0]))

    def __post_init__(self):
        for name in ("r_g", "l_g", "omega_g"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        object.__setattr__(self, "v_g_ref", as_dq(self.v_g_ref, "v_g_ref"))
        object.__setattr__(self, "i_ref", as_dq(self.i_ref, "i_ref"))
        self.v_g_ref.setflags(write=False)
        self.i_ref.setflags(write=False)


def system_matrix(p):
    """Closed-loop linear part A = -(1/l_g) (r_g I - l_g W)."""
    a = -p.r_g / p.l_g
    w = p.omega_g
    return np.array([[a, w], [-w, a]])

