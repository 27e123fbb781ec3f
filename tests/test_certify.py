import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR,
    PARAM_RANGES,
    both_axes,
    error_derivatives,
    nominal_params,
    quadratic_certificate,
    random_certificate,
    stacked_coordinates,
    symmetrize,
    upsilon_pairs,
)
from vrgrid import linalg
from vrgrid._kernels import ELEMENT_KINDS
from vrgrid.bank import VrBank, VrBranch, VrElement, bank_values, branch_values
from vrgrid.certify import (
    BLOCK_POINTS,
    MAX_BRANCHES,
    GradientCheckConfig,
    GradientCheckReport,
    IssCertificate,
    assemble_psi,
    lyapunov_gradients,
    lyapunov_values,
    search_certificate,
    sampled_gradient_check,
    verify_certificate,
)
from vrgrid.cli import load_config
from vrgrid.plant import GridParams, system_matrix

EMPTY = VrBank(())
ONE_LINEAR = VrBank((both_axes((VrElement("linear", 1.0),)),))
UNIT_V = quadratic_certificate(np.eye(2))   # V = |x|^2 for the empty bank


def analytic_m0_certificate(p):
    """Quadratic certificate built by hand via a 2x2 Schur complement."""
    a = system_matrix(p)
    p_mat = np.eye(2)
    omega0 = 2.0 * (p.r_g / p.l_g) * np.eye(2) - np.eye(2)
    block11 = a.T @ p_mat + p_mat @ a + omega0          # = -I by construction
    phi = 2.0 * p_mat @ np.linalg.inv(-block11) @ p_mat
    return IssCertificate(
        p_mat=p_mat,
        lam=np.zeros((0, 2)),
        omega=np.diag(omega0)[None, :],
        phi=phi,
        upsilon=np.zeros((0, 2)),
        resistance_interval=(p.r_g, p.r_g),
    )


def _cert(p_mat, lam, omega, phi, ups=None):
    """Certificate at the nominal r_g, with zero Upsilon unless ``ups`` is given."""
    if ups is None:
        ups = np.zeros((len(upsilon_pairs(len(lam))), 2))
    p = nominal_params()
    return IssCertificate(p_mat=p_mat, lam=lam, omega=omega, phi=phi, upsilon=ups,
                          resistance_interval=(p.r_g, p.r_g))


def test_certificate_copies_its_arrays():
    """The certificate is read-only, and the caller's arrays stay writable and apart from it."""
    fields = dict(p_mat=np.eye(2), lam=np.ones((1, 2)), omega=np.ones((2, 2)), phi=np.eye(2),
                  upsilon=np.zeros((1, 2)), resistance_interval=np.array([0.01, 0.03]))
    cert = IssCertificate(**fields)
    for name, arr in fields.items():
        arr[(0,) * arr.ndim] = 2.0
        assert getattr(cert, name)[(0,) * arr.ndim] != 2.0, name
        with pytest.raises(ValueError, match="read-only"):
            getattr(cert, name)[(0,) * arr.ndim] = 2.0


def test_lyapunov_value_examples():
    bank0 = VrBank(())
    c0 = _cert(np.eye(2), np.zeros((0, 2)), np.zeros((1, 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(lyapunov_values(c0, bank0, [(1.0, 0.0), (0.0, 0.0)]), [1.0, 0.0])

    bank1 = VrBank((both_axes((VrElement("linear", 1.0),)),))
    c1 = _cert(np.eye(2), np.ones((1, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    # x'Px = 2 plus 2 * (1*(1/2) + 1*(1/2)) = 2
    vals = lyapunov_values(c1, bank1, [(1.0, 1.0), (0.0, 0.0)])
    assert vals[0] == pytest.approx(4.0, rel=1e-14)
    assert vals[1] == 0.0

    with pytest.raises(ValueError):
        lyapunov_values(c0, bank1, [(1.0, 0.0)])


def test_lyapunov_gradient_examples(rng, banks):
    bank0 = VrBank(())
    c0 = _cert(np.eye(2), np.zeros((0, 2)), np.zeros((1, 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(lyapunov_gradients(c0, bank0, [(3.0, -1.0)]), [[6.0, -2.0]])

    bank = banks["multi_branch"]
    cert = random_certificate(2, rng)
    np.testing.assert_array_equal(lyapunov_gradients(cert, bank, [(0.0, 0.0)]), [[0.0, 0.0]])

    # finite-difference oracle on 1e3 states
    h = 1e-5
    xs = rng.uniform(-20.0, 20.0, (1000, 2))
    grads = lyapunov_gradients(cert, bank, xs)
    fd = np.column_stack([
        (lyapunov_values(cert, bank, xs + [h, 0]) - lyapunov_values(cert, bank, xs - [h, 0])) / (2 * h),
        (lyapunov_values(cert, bank, xs + [0, h]) - lyapunov_values(cert, bank, xs - [0, h])) / (2 * h),
    ])
    np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-4)


def test_lyapunov_vectorized_consistency(rng, banks):
    """Each row of a bulk call equals the call on that row alone."""
    bank = banks["multi_branch"]
    cert = random_certificate(2, rng)
    pts = rng.uniform(-30, 30, (200, 2))
    vals = lyapunov_values(cert, bank, pts)
    grads = lyapunov_gradients(cert, bank, pts)
    assert vals.shape == (200,) and grads.shape == (200, 2)
    for i in range(0, 200, 17):
        assert vals[i] == pytest.approx(lyapunov_values(cert, bank, pts[i:i + 1])[0], rel=1e-14)
        np.testing.assert_allclose(grads[i], lyapunov_gradients(cert, bank, pts[i:i + 1])[0], rtol=1e-14)


def test_assemble_psi_m0_layout():
    p = nominal_params()
    a = system_matrix(p)
    cert = _cert(np.eye(2), np.zeros((0, 2)), np.ones((1, 2)), np.eye(2))
    psi = assemble_psi(p, cert)
    expected = np.zeros((4, 4))
    expected[:2, :2] = a.T + a + np.eye(2)
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = np.eye(2)
    expected[2:, 2:] = -np.eye(2)
    np.testing.assert_allclose(psi, expected, rtol=1e-14)

    # M = 1: the (0, 1) block is not symmetric; its mirror is its transpose
    lam, ups = np.array([[1.0, 2.0]]), np.array([[0.5, 0.25]])  # Upsilon_{0,1}
    psi = assemble_psi(p, _cert(np.eye(2), lam, np.ones((2, 2)), np.eye(2), ups))
    inv_lg = 1.0 / p.l_g
    b01 = np.array([[-inv_lg + a[0, 0] + 0.5, 2.0 * a[1, 0]],
                    [a[0, 1], -inv_lg + 2.0 * a[1, 1] + 0.25]])
    assert not np.array_equal(b01, b01.T)
    expected = np.zeros((6, 6))
    expected[:2, :2] = a.T + a + np.eye(2)
    expected[:2, 2:4], expected[2:4, :2] = b01, b01.T
    expected[2:4, 2:4] = np.diag(-2.0 * inv_lg * lam[0] + 1.0)
    expected[2:4, 4:] = expected[4:, 2:4] = np.diag(lam[0])
    expected[:2, 4:] = expected[4:, :2] = np.eye(2)
    expected[4:, 4:] = -np.eye(2)
    np.testing.assert_array_equal(psi, expected)


def test_assemble_psi_zero_certificate():
    p = nominal_params()
    cert = _cert(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    psi = assemble_psi(p, cert)
    np.testing.assert_array_equal(psi, np.zeros((6, 6)))


def _psi_per_block(p, cert):
    """Psi written one block at a time, each Upsilon_{s,l} by its own pair of block writes: the
    reference construction that :func:`assemble_psi` must match bit for bit."""
    m = cert.branch_count
    a_mat = system_matrix(p)
    inv_lg = 1.0 / p.l_g
    p_mat, lam, omega, upsilon = cert.p_mat, cert.lam, cert.omega, cert.upsilon
    psi = np.zeros((2 * m + 4, 2 * m + 4))
    rows = [slice(2 * i, 2 * i + 2) for i in range(m + 2)]

    def put(i, j, block):
        psi[rows[i], rows[j]] = block
        psi[rows[j], rows[i]] = block.T

    ap = a_mat.T @ p_mat
    psi[rows[0], rows[0]] = ap + ap.T + np.diag(omega[0])
    for k in range(1, m + 1):
        psi[rows[k], rows[k]] = np.diag(-2.0 * inv_lg * lam[k - 1] + omega[k])
        put(k, m + 1, np.diag(lam[k - 1]))
    for (s, l), ups in zip(upsilon_pairs(m), upsilon):
        if s == 0:
            put(0, l, -inv_lg * p_mat + a_mat.T @ np.diag(lam[l - 1]) + np.diag(ups))
        else:
            put(s, l, np.diag(-inv_lg * (lam[s - 1] + lam[l - 1]) + ups))
    put(0, m + 1, p_mat)
    psi[rows[m + 1], rows[m + 1]] = -cert.phi
    return psi


def test_assemble_psi_matches_per_block_construction(rng):
    """Every branch count the certificate construction accepts, on random grids and certificates."""
    for m in range(MAX_BRANCHES + 1):
        for _ in range(4):
            p = replace(nominal_params(), r_g=10.0 ** rng.uniform(-3.0, 1.0), l_g=10.0 ** rng.uniform(-5.0, -1.0))
            cert = random_certificate(m, rng)
            cert = replace(cert, lam=cert.lam * 10.0 ** rng.uniform(-3.0, 3.0, (m, 2)))
            assert assemble_psi(p, cert).tobytes() == _psi_per_block(p, cert).tobytes(), m


def _direct_expansion(p, bank, cert, xs, ds):
    """Vdot plus the regularizer terms, straight from the definitions."""
    grads = lyapunov_gradients(cert, bank, xs)
    vdot = np.einsum("ni,ni->n", grads, error_derivatives(p, xs, bank, ds))
    total = vdot + np.einsum("ni,i,ni->n", xs, cert.omega[0], xs)
    rvals = [branch_values(b, xs) for b in bank.branches]
    m = bank.branch_count
    ups = dict(zip(upsilon_pairs(m), cert.upsilon))
    for k in range(m):
        total += np.einsum("ni,i,ni->n", rvals[k], cert.omega[k + 1], rvals[k])
        total += 2.0 * np.einsum("ni,i,ni->n", xs, ups[0, k + 1], rvals[k])
    for s in range(1, m + 1):
        for l in range(s + 1, m + 1):
            total += 2.0 * np.einsum("ni,i,ni->n", rvals[s - 1], ups[s, l], rvals[l - 1])
    w = -ds / p.l_g
    total -= np.einsum("ni,ij,nj->n", w, cert.phi, w)
    return total


def test_lyapunov_positive_definite_under_lmi_p(rng, banks):
    """P + sum(Lambda) > 0 with a sector bank makes V positive and radially
    increasing along rays."""
    p = nominal_params()
    bank = banks["multi_branch"]
    cert = search_certificate(p, bank, (p.r_g, p.r_g)).certificate
    pts = rng.uniform(-100.0, 100.0, (100_000, 2))
    pts = pts[np.any(pts != 0.0, axis=1)]
    assert np.all(lyapunov_values(cert, bank, pts) > 0.0)

    directions = rng.normal(size=(50, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = np.array([1.0, 2.0, 4.0, 8.0])
    for u in directions:
        vals = lyapunov_values(cert, bank, radii[:, None] * u)
        assert np.all(np.diff(vals) > 0.0)


def test_reconstruction_identity(rng, banks):
    p = nominal_params()
    cases = {
        0: VrBank(()),
        1: VrBank((both_axes((VrElement("linear", 1.0),)),)),
        2: banks["multi_branch"],
        3: VrBank((
            both_axes((VrElement("linear", 0.5),)),
            both_axes((VrElement("cubic", 0.3),)),
            both_axes((VrElement("sinh", 0.4, 0.6), VrElement("tanh", 2.0, 0.3))),
        )),
    }
    for m, bank in cases.items():
        for _ in range(5):
            cert = random_certificate(m, rng)
            psi = assemble_psi(p, cert)
            xs = rng.uniform(-100, 100, (500, 2))
            ds = rng.uniform(-500, 500, (500, 2))
            z = stacked_coordinates(bank, xs, ds, p.l_g)
            quad = np.einsum("ni,ij,nj->n", z, psi, z)
            direct = _direct_expansion(p, bank, cert, xs, ds)
            scale = 1.0 + np.maximum(np.abs(quad), np.abs(direct))
            assert np.max(np.abs(quad - direct) / scale) <= 1e-8


def test_verify_analytic_m0_certificate():
    p = nominal_params()
    report = verify_certificate(p, EMPTY, analytic_m0_certificate(p))
    assert report.valid
    assert report.sigma == pytest.approx(1.0)
    assert report.psi < 0.0
    assert report.varsigma == pytest.approx(2.0 * p.r_g / p.l_g - 1.0)


def test_verify_all_zero_certificate_invalid():
    p = nominal_params()
    zero = IssCertificate(
        p_mat=np.zeros((2, 2)), lam=np.zeros((0, 2)),
        omega=np.zeros((1, 2)), phi=np.zeros((2, 2)), upsilon=np.zeros((0, 2)),
        resistance_interval=(p.r_g, p.r_g),
    )
    report = verify_certificate(p, EMPTY, zero)
    assert not report.valid
    assert report.sigma == pytest.approx(0.0, abs=1e-15)


def test_verify_homogeneity():
    """Scaling a certificate by c scales the sigma and xi margins by c; the
    psi margin is read after a diagonal congruence, so it is unchanged."""
    p = nominal_params()
    cert = analytic_m0_certificate(p)
    base = verify_certificate(p, EMPTY, cert)
    for c in (0.1, 10.0):
        scaled = IssCertificate(
            p_mat=c * cert.p_mat, lam=c * cert.lam,
            omega=c * cert.omega, phi=c * cert.phi, upsilon=c * cert.upsilon,
            resistance_interval=cert.resistance_interval,
        )
        rep = verify_certificate(p, EMPTY, scaled)
        assert rep.valid == base.valid
        assert rep.sigma == pytest.approx(c * base.sigma, rel=1e-9)
        assert rep.xi == pytest.approx(c * base.xi, rel=1e-9)
        assert rep.psi == pytest.approx(base.psi, rel=1e-9)


def test_verify_negative_controls():
    """Corrupting each condition in turn flips the verdict."""
    p = nominal_params()
    cert = analytic_m0_certificate(p)
    assert verify_certificate(p, EMPTY, cert).valid

    flipped_p = replace(cert, p_mat=-cert.p_mat)
    rep = verify_certificate(p, EMPTY, flipped_p)
    assert not rep.valid and rep.sigma < 0.0

    omega_bad = cert.omega.copy()
    omega_bad[0, 0] = -omega_bad[0, 0]
    rep = verify_certificate(p, EMPTY, replace(cert, omega=omega_bad))
    assert not rep.valid and rep.xi < 0.0

    rep = verify_certificate(p, EMPTY, replace(cert, phi=np.zeros((2, 2))))
    assert not rep.valid and rep.psi > 0.0


def test_verify_dimension_mismatch():
    p = nominal_params()
    with pytest.raises(ValueError, match="branches"):
        verify_certificate(p, ONE_LINEAR, analytic_m0_certificate(p))
    with pytest.raises(ValueError, match="branches"):
        sampled_gradient_check(p, ONE_LINEAR, analytic_m0_certificate(p), GradientCheckConfig(epsilon=1e-3))


def test_verify_checks_the_interval_the_certificate_carries():
    """certify_m1_linear's nominal certificate, widened to (0.1 r_g, r_g), breaks Psi at 0.1 r_g:
    verify_certificate alone refuses it, whatever r_g the grid it is given has."""
    cfg = load_config(CONFIG_DIR / "certify_m1_linear.json")
    p = cfg.grid
    cert = search_certificate(p, cfg.bank, (p.r_g, p.r_g)).certificate
    assert cert.report.valid
    rep = verify_certificate(p, cfg.bank, replace(cert, resistance_interval=(0.1 * p.r_g, p.r_g)))
    assert not rep.valid and rep.psi == pytest.approx(1.149, abs=5e-4)
    assert verify_certificate(replace(p, r_g=0.5 * p.r_g), cfg.bank, cert) == cert.report


@pytest.mark.parametrize("omega, upsilon", [
    ([[7.622e200, 4.274e200], [5.397e200, 1.22e200]], [[7.028e200, 5.305e200]]),
    ([[3.638e-200, 7.307e-200], [3.426e-200, 4.628e-200]], [[2.072e-200, 4.225e-200]]),
])
def test_verify_xi_is_the_smallest_summed_diagonal_entry(omega, upsilon):
    """Xi is diagonal, so xi is exactly its smallest entry, Omega_0 + Omega_1 + Upsilon_{0,1} added
    in that order, also where LAPACK's eigensolver would rescale the matrix (beyond about 1e+-146)
    and move the last bit of that entry."""
    cert = _cert(np.eye(2), np.ones((1, 2)), np.array(omega), np.eye(2), np.array(upsilon))
    xi = verify_certificate(nominal_params(), ONE_LINEAR, cert).xi
    assert xi == (cert.omega[0] + cert.omega[1] + cert.upsilon[0]).min()


@pytest.mark.parametrize("name, solves", [("certify_m0", 5), ("certify_m1_linear", 5), ("certify_rr_linear", 6)])
def test_verify_eigen_solves_per_certificate(monkeypatch, name, solves):
    """verify_certificate solves P and Phi for the sign class, P + sum Lambda_k for sigma, Psi at
    each distinct resistance end and Phi again for alpha: 4 + ends LAPACK solves, none for Xi."""
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    cert = search_certificate(cfg.grid, cfg.bank, cfg.scenario.resistance_range(cfg.grid)).certificate
    calls = []
    sym_eig = linalg.sym_eig
    monkeypatch.setattr(linalg, "sym_eig", lambda s: calls.append(s) or sym_eig(s))
    assert verify_certificate(cfg.grid, cfg.bank, cert) == cert.report
    assert len(calls) == solves


def test_iss_gain():
    """The report's slope is sqrt(alpha / varsigma), 2 / r_g for the closed form; None unless valid with varsigma > 0."""
    for r_g, l_g, m in [(0.0276, 3.67e-4, 0), (0.5, 2e-3, 1), (1e-3, 1e-2, 8)]:
        p = GridParams(r_g=r_g, l_g=l_g, frequency_hz=60.0)
        bank = VrBank(tuple(both_axes((VrElement("linear", 1.0),)) for _ in range(m)))
        cert = search_certificate(p, bank, (p.r_g, p.r_g)).certificate
        rep = cert.report
        assert rep.valid and rep.iss_gain_slope == math.sqrt(rep.alpha / rep.varsigma)
        assert rep.iss_gain_slope == pytest.approx(2.0 / r_g, rel=1e-12)

        rep = verify_certificate(p, bank, replace(cert, phi=np.zeros((2, 2))))
        assert not rep.valid and rep.varsigma > 0.0 and rep.iss_gain_slope is None

    # with a branch, Omega_0 = 0 still certifies: valid, but with no gain
    omega = cert.omega.copy()
    omega[0] = 0.0
    rep = verify_certificate(p, bank, replace(cert, omega=omega))
    assert rep.valid and rep.varsigma == 0.0 and rep.iss_gain_slope is None


def test_search_m0_feasible():
    p = nominal_params()
    result = search_certificate(p, EMPTY, (p.r_g, p.r_g))
    assert result.feasible
    rep = result.certificate.report
    assert rep.sigma > 0 and rep.xi > 0 and rep.psi < 0
    assert min(rep.sigma, rep.xi, -rep.psi, rep.varsigma) >= 1e-6


def test_search_m1_linear_feasible():
    p = nominal_params()
    result = search_certificate(p, ONE_LINEAR, (p.r_g, p.r_g))
    assert result.feasible
    assert result.certificate.report.psi <= -1e-6
    assert result.certificate.report.varsigma > 0.0


def test_search_preconditions():
    with pytest.raises(ValueError):
        GridParams(r_g=-1.0, l_g=3.67e-4, frequency_hz=60.0)
    p = nominal_params()
    nine = VrBank(tuple(both_axes((VrElement("linear", 1.0),)) for _ in range(9)))
    with pytest.raises(ValueError, match="at most 8"):
        search_certificate(p, nine, (p.r_g, p.r_g))


def test_closed_form_certificate_sweep(rng):
    """The closed form is valid with every margin >= 1e-6 at unusual parameters
    and over random draws of r_g 1e-3..1 ohm, l_g 10^-4.5..1e-2 H,
    f 10..1000 Hz and 0..8 branches."""
    points = [(0.5, 2e-3, 100.0 / (2.0 * math.pi), 1)]  # omega_g = 100 rad/s
    for _ in range(200):
        points.append((
            10.0 ** rng.uniform(-3.0, 0.0),
            10.0 ** rng.uniform(-4.5, -2.0),
            10.0 ** rng.uniform(1.0, 3.0),
            int(rng.integers(0, 9)),
        ))
    for r_g, l_g, f, m in points:
        p = GridParams(r_g=r_g, l_g=l_g, frequency_hz=f)
        bank = VrBank(tuple(both_axes((VrElement("linear", 1.0),)) for _ in range(m)))
        rep = search_certificate(p, bank, (p.r_g, p.r_g)).certificate.report
        where = (r_g, l_g, f, m)
        assert rep.valid, where
        assert min(rep.sigma, rep.xi, -rep.psi, rep.varsigma) >= 1e-6, where


def test_closed_form_certificate_valid_over_decades():
    """Psi is tested after a diagonal congruence, so the closed form is valid
    at every point of r_g 1e-8..1e4 ohm and l_g 1e-8..10 H in half decades,
    f in {1, 60, 1000} Hz and 0, 1 or 8 branches. Read in raw units, Psi's
    rounded lambda_max refuses 190 of these 4,275 points (e.g. r_g = 1e-8,
    l_g = 1, no branches, reads +2.5e-9 where the exact value is -7.5e-9)."""
    banks = [VrBank(tuple(both_axes((VrElement("linear", 1.0),)) for _ in range(m))) for m in (0, 1, 8)]
    r_gs = [10.0 ** (i / 2) for i in range(-16, 9)]
    l_gs = [10.0 ** (i / 2) for i in range(-16, 3)]
    worst = -math.inf
    for r_g, l_g, f, bank in itertools.product(r_gs, l_gs, (1.0, 60.0, 1000.0), banks):
        p = GridParams(r_g=r_g, l_g=l_g, frequency_hz=f)
        rep = search_certificate(p, bank, (p.r_g, p.r_g)).certificate.report
        assert rep.valid, (r_g, l_g, f, bank.branch_count, rep)
        worst = max(worst, rep.psi)
    # the largest scaled lambda_max of the sweep is -(1 - 1/sqrt(2))
    assert worst == pytest.approx(-(1.0 - 1.0 / math.sqrt(2.0)), abs=1e-9)


def test_certified_pointwise_dissipation(rng, banks):
    """Valid certificate implies Vdot <= -varsigma|x|^2 + alpha|d|^2 pointwise."""
    p = nominal_params()
    for bank in (EMPTY, ONE_LINEAR, banks["multi_branch"]):
        result = search_certificate(p, bank, (p.r_g, p.r_g))
        assert result.feasible
        cert, rep = result.certificate, result.certificate.report
        xs = rng.uniform(-100.0, 100.0, (30_000, 2))
        ds = rng.uniform(-500.0, 500.0, (30_000, 2))
        grads = lyapunov_gradients(cert, bank, xs)
        vdot = np.einsum("ni,ni->n", grads, error_derivatives(p, xs, bank, ds))
        rhs = (-rep.varsigma * np.einsum("ni,ni->n", xs, xs)
               + rep.alpha * np.einsum("ni,ni->n", ds, ds))

        z2 = np.einsum("ni,ni->n", *(stacked_coordinates(bank, xs, ds, p.l_g),) * 2)
        assert np.all(vdot <= rhs + 1e-8 * (1.0 + z2))


def test_cross_terms_nonnegative(rng, banks):
    """Sector maps make the dropped Upsilon cross terms nonnegative."""
    bank = banks["multi_branch"]
    xs = rng.uniform(-80.0, 80.0, (5000, 2))
    r1 = bank_values(VrBank((bank.branches[0],)), xs)
    r2 = bank_values(VrBank((bank.branches[1],)), xs)
    assert np.all(np.einsum("ni,ni->n", xs, r1) >= 0.0)
    assert np.all(np.einsum("ni,ni->n", xs, r2) >= 0.0)
    assert np.all(np.einsum("ni,ni->n", r1, r2) >= 0.0)


def test_gradient_check_config_validation():
    with pytest.raises(ValueError):
        GradientCheckConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        GradientCheckConfig(epsilon=0.01, grid_points=10)
    with pytest.raises(ValueError):
        GradientCheckConfig(epsilon=0.01, grid_points=200)
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid_radius"):
            GradientCheckConfig(epsilon=0.01, grid_radius=radius)
    for points in (201.0, True, "201"):
        with pytest.raises(ValueError, match="grid_points"):
            GradientCheckConfig(epsilon=0.01, grid_points=points)


def test_gradient_check_threshold_both_sides():
    """Empty bank, V = |x|^2: condition holds iff eps <= r_g - l_g/2."""
    p = nominal_params()
    threshold = p.r_g - p.l_g / 2.0
    assert threshold == pytest.approx(0.0274165)
    below = sampled_gradient_check(p, EMPTY, UNIT_V, GradientCheckConfig(epsilon=0.99 * threshold))
    above = sampled_gradient_check(p, EMPTY, UNIT_V, GradientCheckConfig(epsilon=1.01 * threshold))
    assert below.passes and below.max_value <= 0.0
    assert not above.passes and above.n_violations > 0


def test_gradient_check_large_epsilon_fails():
    p = nominal_params()
    report = sampled_gradient_check(p, EMPTY, UNIT_V, GradientCheckConfig(epsilon=1.0))
    assert isinstance(report, GradientCheckReport)
    assert not report.passes


def test_gradient_check_origin_contributes_zero():
    # In a passing configuration every off-origin point is strictly negative,
    # so the grid max is exactly the origin's contribution: 0.0.
    p = nominal_params()
    report = sampled_gradient_check(p, EMPTY, UNIT_V, GradientCheckConfig(epsilon=1e-3))
    assert report.passes
    assert report.max_value == 0.0
    assert report.max_point == (0.0, 0.0)


def test_gradient_check_accepts_certificate(banks):
    p = nominal_params()
    bank = banks["multi_branch"]
    result = search_certificate(p, bank, (p.r_g, p.r_g))
    report = sampled_gradient_check(
        p, bank, result.certificate, GradientCheckConfig(epsilon=1e-4, grid_radius=20.0, grid_points=51)
    )
    assert isinstance(report.passes, bool)
    assert math.isfinite(report.max_value)


def test_gradient_check_counts_non_finite_points_as_violations():
    # sinh(20 x) overflows on most of the radius-50 grid, and the composite
    # gradient then meets inf - inf: those points are violations, not passes.
    p = nominal_params()
    bank = VrBank((both_axes((VrElement("sinh", 1.0, 20.0),)),))
    with np.errstate(over="ignore", invalid="ignore"):
        cert = search_certificate(p, bank, (p.r_g, p.r_g)).certificate
        report = sampled_gradient_check(p, bank, cert, GradientCheckConfig(epsilon=1e-3))
    assert math.isnan(report.max_value)
    assert not report.passes
    assert report.n_violations > 0


def _random_axis_bank(rng, m):
    """m branches with different elements on d and q, cycling through all kinds."""
    kinds = itertools.cycle(sorted(ELEMENT_KINDS))

    def elements():
        return [VrElement(kind, *(float(rng.uniform(lo, hi)) for lo, hi in PARAM_RANGES[kind]))
                for kind in itertools.islice(kinds, int(rng.integers(1, 3)))]

    return VrBank(tuple(VrBranch(tuple(elements()), tuple(elements())) for _ in range(m)))


def _full_grid_gradient_check(p, bank, cert, cfg):
    """Reference: the gradient and bank maps evaluated on all n*n grid points."""
    axis = np.linspace(-cfg.grid_radius, cfg.grid_radius, cfg.grid_points)
    gd, gq = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gd.ravel(), gq.ravel()])
    grads = lyapunov_gradients(cert, bank, pts)
    a = system_matrix(p)
    lhs = (
        np.einsum("ni,ni->n", grads, pts @ a.T)
        - np.einsum("ni,ni->n", grads, bank_values(bank, pts)) / p.l_g
        + np.einsum("ni,ni->n", pts, pts)
        + (cfg.epsilon / (2.0 * p.l_g)) * np.einsum("ni,ni->n", grads, grads)
    )
    worst = int(np.argmax(lhs))
    n_violations = int(np.count_nonzero(~(lhs <= 0.0)))
    return GradientCheckReport(
        passes=n_violations == 0,
        max_value=float(lhs[worst]),
        max_point=(float(pts[worst, 0]), float(pts[worst, 1])),
        n_violations=n_violations,
    )


@pytest.mark.parametrize("grid_points", [11, 51, 201])
@pytest.mark.parametrize("grid_radius", [20.0, 50.0])
def test_gradient_check_matches_full_grid_oracle(rng, grid_points, grid_radius):
    """Per-axis evaluation gives the full-grid report bit for bit."""
    grids = [nominal_params(), GridParams(r_g=0.3, l_g=2e-3, frequency_hz=50.0)]
    for p in grids:
        for m in (1, 2, 3):
            bank = _random_axis_bank(rng, m)
            assert not all(b.same_both_axes for b in bank.branches)
            quad = rng.uniform(-1.0, 1.0, (2, 2))
            specs = [
                random_certificate(m, rng),
                search_certificate(p, bank, (p.r_g, p.r_g)).certificate,
                quadratic_certificate(np.array([[1.5, 0.3], [0.3, 0.8]]), m),
                quadratic_certificate(symmetrize(quad), m),
            ]
            for epsilon in (1e-4, 1e-2):
                cfg = GradientCheckConfig(epsilon=epsilon, grid_radius=grid_radius, grid_points=grid_points)
                for spec in specs:
                    assert repr(sampled_gradient_check(p, bank, spec, cfg)) == repr(
                        _full_grid_gradient_check(p, bank, spec, cfg))


def test_gradient_check_block_boundaries_match_oracle(rng):
    """Reports that depend on how blocks combine equal the full-grid oracle."""
    p = nominal_params()

    cfg = GradientCheckConfig(epsilon=1e-2, grid_points=401)
    rows = BLOCK_POINTS // cfg.grid_points
    assert cfg.grid_points > 2 * rows and cfg.grid_points % rows  # >= 3 blocks, the last partial
    bank = _random_axis_bank(rng, 3)
    for spec in (search_certificate(p, bank, (p.r_g, p.r_g)).certificate,
                 quadratic_certificate(np.array([[1.5, 0.3], [0.3, 0.8]]), 3)):
        assert repr(sampled_gradient_check(p, bank, spec, cfg)) == repr(
            _full_grid_gradient_check(p, bank, spec, cfg))

    # A = [[-a, w], [-w, -a]] with a = 1e160 >> w ~ 6e155, and grad V = (2c q, 2c d + 2c' q) with
    # c = 1e150 >> c' = 1e147. Off the middle row (|d| >= 0.25) both terms of grad V' A x are about
    # -2 a c d q, of one sign, and sum to a finite value or one infinity. On the row d = 0 they are
    # 2 c w q^2 and -2 c' a q^2, which overflow to +inf and -inf for |q| >= 12: the first NaN of the
    # grid lies in a later block, and it must still win
    grid = GridParams(r_g=1e160, l_g=1.0, frequency_hz=1e155)
    spec = quadratic_certificate(np.array([[0.0, 1e150], [1e150, 1e147]]))
    with np.errstate(over="ignore", invalid="ignore"):
        report = sampled_gradient_check(grid, EMPTY, spec, cfg)
        assert repr(report) == repr(_full_grid_gradient_check(grid, EMPTY, spec, cfg))
    assert math.isnan(report.max_value) and report.max_point[0] == 0.0
    assert not report.passes

    # V = |x|^2 and no bank: lhs is even in x bit for bit, so its maximum on
    # the row d = -50 (first block) recurs at -x on the row d = +50 (last
    # block); the first occurrence wins
    cfg = GradientCheckConfig(epsilon=1.0, grid_points=401)
    report = sampled_gradient_check(p, EMPTY, UNIT_V, cfg)
    assert repr(report) == repr(_full_grid_gradient_check(p, EMPTY, UNIT_V, cfg))
    assert report.max_point[0] == -cfg.grid_radius


def test_gradient_check_memory_is_blocked(banks):
    """A 1001-point grid (1e6 points) peaks at a few block-sized buffers."""
    p = nominal_params()
    bank = banks["multi_branch"]
    cert = search_certificate(p, bank, (p.r_g, p.r_g)).certificate
    cfg = GradientCheckConfig(epsilon=1e-3, grid_points=1001)
    tracemalloc.start()
    try:
        sampled_gradient_check(p, bank, cert, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
