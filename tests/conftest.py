import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"

sys.path.insert(0, str(REPO_ROOT / "src"))


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Trigger JIT compilation once so timed tests measure math, not compile."""
    import vrgrid as vg
    from vrgrid.sim import ConstantOffset, integrate

    p = vg.nominal_params()
    bank = vg.default_banks()["multi_branch"]
    integrate(p, bank, ConstantOffset(t_end=1e-4, dt=1e-5, v_g_const=(1.0, 0.0)))


@pytest.fixture(scope="session")
def p_nominal():
    import vrgrid as vg

    return vg.nominal_params()


@pytest.fixture(scope="session")
def banks():
    import vrgrid as vg

    return vg.default_banks()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_certificate(m, rng):
    """Arbitrary well-formed (not necessarily valid) certificate matrices."""
    from vrgrid.persidskii import IssCertificate

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
