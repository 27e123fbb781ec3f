"""Host-speed calibration: a fixed piece of work that does not use vrgrid.

The benchmark runs on shared machines whose speed drifts, by up to a factor
of two over minutes, with the load of other tenants. Each run therefore
times this fixed work right before every set-up and every pass, and scales
that set-up's or pass's times by ``REFERENCE_S / calibration time``: the
time the work would have taken on a host that runs the calibration in
``REFERENCE_S`` seconds. The unscaled times are printed and recorded too.

The work mixes what the workloads do: a scalar floating-point loop with a
function call per step (the pure-Python RK4 and Jacobi kernels), float
formatting through ``csv`` (the trajectory writer) and element-wise NumPy
over 40k points (the sampled gradient check).
"""

import csv
import io
import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.25
SCALAR_STEPS = 600_000
CSV_ROWS = 8_000
VECTOR_ROUNDS = 24


def _rate(y, k):
    return k * y + 0.25 * y * y * y + 0.5 * math.tanh(0.2 * y)


def calibrate():
    """Seconds this host takes for the fixed work right now."""
    t0 = perf_counter()
    y = 1.0
    acc = 0.0
    for _ in range(SCALAR_STEPS):
        y = y - 1e-3 * _rate(y, 2.0) + 1e-3
        acc += y
    writer = csv.writer(io.StringIO(), lineterminator="\n")
    for i in range(CSV_ROWS):
        writer.writerow([repr(acc * i), repr(y / (i + 1)), repr(math.sqrt(i))])
    x = np.linspace(-50.0, 50.0, 40_401)
    for _ in range(VECTOR_ROUNDS):
        acc += float(np.sum(np.sinh(0.1 * x) * x + np.clip(x, -5.0, 5.0) * x ** 3))
    if not math.isfinite(acc):
        raise ArithmeticError("calibration work produced a non-finite value")
    return perf_counter() - t0
