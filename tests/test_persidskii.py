import numpy as np
import pytest

from conftest import both_axes, error_derivatives, nominal_params, random_certificate, stacked_coordinates
from vrgrid.bank import VrBank, VrElement, branch_values
from vrgrid.certify import IssCertificate, assemble_psi, lyapunov_gradients, lyapunov_values
from vrgrid.plant import system_matrix


def _cert(p_mat, lam, omega, phi, ups=None):
    if ups is None:
        ups = np.zeros((len(omega), len(omega), 2))
    return IssCertificate(p_mat=p_mat, lam=lam, omega=omega, phi=phi, upsilon=ups)


def test_certificate_copies_its_arrays():
    """The certificate is read-only, and the caller's arrays stay writable and apart from it."""
    fields = dict(p_mat=np.eye(2), lam=np.ones((1, 2)), omega=np.ones((2, 2)), phi=np.eye(2),
                  upsilon=np.zeros((2, 2, 2)))
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
    lam, ups = np.array([[1.0, 2.0]]), np.zeros((2, 2, 2))
    ups[0, 1] = [0.5, 0.25]
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


def _direct_expansion(p, bank, cert, xs, ds):
    """Vdot plus the regularizer terms, straight from the definitions."""
    grads = lyapunov_gradients(cert, bank, xs)
    vdot = np.einsum("ni,ni->n", grads, error_derivatives(p, xs, bank, ds))
    total = vdot + np.einsum("ni,i,ni->n", xs, cert.omega[0], xs)
    rvals = [branch_values(b, xs) for b in bank.branches]
    m = bank.branch_count
    for k in range(m):
        total += np.einsum("ni,i,ni->n", rvals[k], cert.omega[k + 1], rvals[k])
        total += 2.0 * np.einsum("ni,i,ni->n", xs, cert.upsilon[0, k + 1], rvals[k])
    for s in range(1, m + 1):
        for l in range(s + 1, m + 1):
            total += 2.0 * np.einsum("ni,i,ni->n", rvals[s - 1], cert.upsilon[s, l], rvals[l - 1])
    w = -ds / p.l_g
    total -= np.einsum("ni,ij,nj->n", w, cert.phi, w)
    return total


def test_lyapunov_positive_definite_under_lmi_p(rng, banks):
    """P + sum(Lambda) > 0 with a sector bank makes V positive and radially
    increasing along rays."""
    from vrgrid.certify import search_certificate

    p = nominal_params()
    bank = banks["multi_branch"]
    cert = search_certificate(p, bank).certificate
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
