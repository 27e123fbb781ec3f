import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"

sys.path.insert(0, str(REPO_ROOT / "src"))

from vrgrid._kernels import ELEMENT_KINDS  # noqa: E402
from vrgrid.bank import VrBranch, VrElement, bank_values, branch_values  # noqa: E402
from vrgrid.cli import load_config  # noqa: E402
from vrgrid.plant import as_dq, system_matrix  # noqa: E402


@functools.lru_cache(maxsize=None)
def bundled_configs(scenario):
    """The configs in ``configs/<scenario>``, by file name, as the CLI loads them."""
    return tuple(load_config(path) for path in sorted((CONFIG_DIR / scenario).glob("*.json")))


def bundled_banks(scenario="scenario1"):
    """Config name -> bank of the bundled configs in ``configs/<scenario>``."""
    return {cfg.name: cfg.bank for cfg in bundled_configs(scenario)}


def nominal_params(i_ref=(10.0, 0.0)):
    """The bundled grid (0.367 mH, 27.6 mOhm, 60 Hz, 392 V d-axis) with current reference ``i_ref``."""
    return dataclasses.replace(bundled_configs("scenario1")[0].grid, i_ref=i_ref)


def both_axes(elements):
    """The branch with the same ``elements`` on its d and q axes."""
    return VrBranch(tuple(elements), tuple(elements))


def unchecked_element(kind, p1, p2=0.0):
    """A VrElement that skips validation; only for negative controls."""
    element = object.__new__(VrElement)
    object.__setattr__(element, "kind", kind)
    object.__setattr__(element, "p1", float(p1))
    object.__setattr__(element, "p2", float(p2))
    return element


# One example element of each kind of vrgrid._kernels.ELEMENT_KINDS, in its order.
EXAMPLE_ELEMENTS = (
    VrElement("linear", 2.0),
    VrElement("cubic", 0.5),
    VrElement("sinh", 0.8, 1.2),
    VrElement("tanh", 3.0, 0.4),
    VrElement("saturation", 2.0, 1.5),
)


def element_values(e, xs):
    """The map of ``e``'s kind row over an array of inputs."""
    return ELEMENT_KINDS[e.kind].values(e.p1, e.p2, np.asarray(xs, dtype=float))


def element_primitives(e, xs):
    """The closed-form primitive of ``e``'s kind row over an array of inputs."""
    return ELEMENT_KINDS[e.kind].primitives(e.p1, e.p2, np.asarray(xs, dtype=float))


def python_impl(func):
    """Uncompiled implementation of a kernel."""
    return getattr(func, "py_func", func)


# Oracles of the plant model: the equations of ``vrgrid.plant``'s docstring,
# written out independently of the integrator.

def coupling_matrix(p):
    """Skew-symmetric dq coupling W = [[0, w], [-w, 0]]."""
    w = p.omega_g
    return np.array([[0.0, w], [-w, 0.0]])


def feedforward_v0(p):
    """Nominal feedforward voltage v0 = (r_g I - l_g W) i_ref + v_g_ref."""
    drop = p.r_g * np.eye(2) - p.l_g * coupling_matrix(p)
    return drop @ p.i_ref + p.v_g_ref


def open_loop_derivative(p, i, v, v_g):
    """di/dt of the plant for inverter voltage v and grid voltage v_g."""
    i = as_dq(i, "i")
    return system_matrix(p) @ i + (as_dq(v, "v") - as_dq(v_g, "v_g")) / p.l_g


def error_derivatives(p, pts, bank, dist):
    """Vectorized error derivative over (N, 2) states and disturbances."""
    pts = np.asarray(pts, dtype=float)
    dist = np.asarray(dist, dtype=float)
    a = system_matrix(p)
    return pts @ a.T - (bank_values(bank, pts) + dist) / p.l_g


def stacked_coordinates(bank, pts, dist, l_g):
    """z = (x, r_1(x), ..., r_M(x), w) rows for (N, 2) states/disturbances."""
    pts = np.asarray(pts, dtype=float)
    dist = np.asarray(dist, dtype=float)
    parts = [pts]
    for branch in bank.branches:
        parts.append(branch_values(branch, pts))
    parts.append(-dist / l_g)
    return np.concatenate([np.atleast_2d(p) for p in parts], axis=-1)


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Trigger JIT compilation once so timed tests measure math, not compile."""
    from vrgrid.sim import ConstantOffset, integrate

    integrate(nominal_params(), bundled_banks()["multi_branch"],
              ConstantOffset(t_end=1e-4, dt=1e-5, v_g_const=(1.0, 0.0)))


@pytest.fixture(scope="session")
def p_nominal():
    return nominal_params()


@pytest.fixture(scope="session")
def banks():
    return bundled_banks()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_certificate(m, rng):
    """Arbitrary well-formed (not necessarily valid) certificate matrices."""
    from vrgrid.certify import IssCertificate

    ups = np.zeros((m + 1, m + 1, 2))
    for s in range(m + 1):
        for l in range(s + 1, m + 1):
            ups[s, l] = rng.uniform(0.0, 2.0, 2)
    p_mat = rng.uniform(-1.0, 1.0, (2, 2))
    phi = rng.uniform(-1.0, 1.0, (2, 2))
    return IssCertificate(
        p_mat=0.5 * (p_mat + p_mat.T),
        lam=rng.uniform(0.0, 1.0, (m, 2)),
        omega=rng.uniform(0.0, 2.0, (m + 1, 2)),
        phi=0.5 * (phi + phi.T),
        upsilon=ups,
    )


def passivity_ball(traj):
    """(peak |i_err|, radius of the ball a sector bank keeps it in) along ``traj``.

    With x'r(x) >= 0, W skew and r_g(t) >= r_min > 0 the error dynamics give
    d|x|^2/dt = (2/l_g)(-r_g(t)|x|^2 - x'r(x) - x'v) <= (2/l_g)|x|(|v| - r_min|x|),
    so |x(t)| never exceeds max(|x(0)|, sup|v_dist| / r_min).
    """
    norms = np.linalg.norm(traj.i_err, axis=1)
    v_sup = float(np.linalg.norm(traj.v_dist, axis=1).max())
    return float(norms.max()), max(float(norms[0]), v_sup / float(traj.r_g.min()))
