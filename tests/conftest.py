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
from vrgrid.sim import disturbance_profile  # noqa: E402


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


# One row per kind of vrgrid._kernels.ELEMENT_KINDS, in its order: an example
# element, and the (low, high) range of each parameter for random banks.
EXAMPLE_TABLE = (
    (VrElement("linear", 2.0), ((0.1, 5.0),)),
    (VrElement("cubic", 0.5), ((1e-3, 1.0),)),
    (VrElement("sinh", 0.8, 1.2), ((0.01, 1.0), (0.01, 0.5))),
    (VrElement("tanh", 3.0, 0.4), ((0.1, 10.0), (0.01, 1.0))),
    (VrElement("saturation", 2.0, 1.5), ((0.1, 5.0), (0.5, 30.0))),
)
EXAMPLE_ELEMENTS = tuple(e for e, _ in EXAMPLE_TABLE)
PARAM_RANGES = {e.kind: ranges for e, ranges in EXAMPLE_TABLE}


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


def upsilon_pairs(m):
    """The (s, l) of each row of a certificate's ``upsilon`` for m branches: 0 <= s < l <= m, s-major."""
    return [(s, l) for s in range(m + 1) for l in range(s + 1, m + 1)]


def symmetrize(a):
    """0.5 * (A + A'), the symmetric part of the square array ``a``."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def random_certificate(m, rng):
    """Arbitrary well-formed (not necessarily valid) certificate matrices, at the nominal r_g."""
    from vrgrid.certify import IssCertificate

    ups = rng.uniform(0.0, 2.0, (len(upsilon_pairs(m)), 2))
    p_mat = symmetrize(rng.uniform(-1.0, 1.0, (2, 2)))
    phi = symmetrize(rng.uniform(-1.0, 1.0, (2, 2)))
    p = nominal_params()
    return IssCertificate(
        p_mat=p_mat,
        lam=rng.uniform(0.0, 1.0, (m, 2)),
        omega=rng.uniform(0.0, 2.0, (m + 1, 2)),
        phi=phi,
        upsilon=ups,
        resistance_interval=(p.r_g, p.r_g),
    )


def quadratic_certificate(p_mat, m=0):
    """The certificate of the plain quadratic V = x'Px for an m-branch bank: ``p_mat`` = P and every
    Lambda_k = 0, so V reads no branch map; the other matrices are zero, at the nominal r_g."""
    from vrgrid.certify import IssCertificate

    p = nominal_params()
    return IssCertificate(
        p_mat=p_mat,
        lam=np.zeros((m, 2)),
        omega=np.zeros((m + 1, 2)),
        phi=np.zeros((2, 2)),
        upsilon=np.zeros((len(upsilon_pairs(m)), 2)),
        resistance_interval=(p.r_g, p.r_g),
    )


def reverified(cfg, path):
    """(valid, margins) of the certificate.json at ``path``, loaded for ``cfg``'s bank and verified
    on its grid, in the file's form: ``margins`` without ``valid`` and a None slope."""
    from vrgrid.certify import verify_certificate
    from vrgrid.cli import load_certificate

    report = verify_certificate(cfg.grid, cfg.bank, load_certificate(path, cfg.bank))._asdict()
    return report.pop("valid"), {key: value for key, value in report.items() if value is not None}


def passivity_ball(traj):
    """(peak |i_err|, radius of the ball a sector bank keeps it in) along ``traj``.

    With x'r(x) >= 0, W skew and r_g(t) >= r_min > 0 the error dynamics give
    d|x|^2/dt = (2/l_g)(-r_g(t)|x|^2 - x'r(x) - x'v) <= (2/l_g)|x|(|v| - r_min|x|),
    so |x(t)| never exceeds max(|x(0)|, sup|v_dist| / r_min).
    """
    norms = np.linalg.norm(traj.i_err, axis=1)
    v_sup = float(np.linalg.norm(traj.v_dist, axis=1).max())
    return float(norms.max()), max(float(norms[0]), v_sup / float(traj.r_g.min()))


def exact_linear_trajectory(p, k, sc, i_err0=(0.0, 0.0)):
    """The exact (n_steps + 1, 2) trajectory of a linear bank of slope ``k`` under ``sc``.

    In complex form z = d + jq the loop is z' = -lam z - v / l_g with
    lam = (r_g + k) / l_g + j omega_g. With r_g and v_dist held over each step,
    as the integrators hold them, the exact step is
    z_{n+1} = e^{-lam dt} z_n + (e^{-lam dt} - 1) v_n / (lam l_g). Over a run of
    steps with equal inputs, step i of the run is that formula with i dt in
    place of dt, so the cost is one numpy pass per run of inputs.
    """
    _, rg, vg = disturbance_profile(p, sc)
    n = sc.n_steps
    r = rg[:n]
    v_dist = vg[:n] + (r - p.r_g)[:, None] * p.i_ref
    v = v_dist[:, 0] + 1j * v_dist[:, 1]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (v[1:] != v[:-1])])
    z = np.empty(n + 1, dtype=complex)
    z[0] = complex(*i_err0)
    for s, e in zip(starts.tolist(), starts[1:].tolist() + [n]):
        lam = (r[s] + k) / p.l_g + 1j * p.omega_g
        decay = np.exp(-lam * sc.dt * np.arange(1, e - s + 1))
        z[s + 1:e + 1] = decay * z[s] + (decay - 1.0) * v[s] / (lam * p.l_g)
    return np.column_stack((z.real, z.imag))
