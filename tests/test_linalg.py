import numpy as np
import pytest

from conftest import CONFIG_DIR, python_impl
from vrgrid._kernels import jacobi_sweep
from vrgrid.linalg import (
    LinalgError,
    is_neg_semidef,
    is_pos_def,
    sym_eig,
    symmetrize,
)


def test_sym_eig_diagonal():
    np.testing.assert_allclose(sym_eig(np.diag([2.0, 1.0])), [1.0, 2.0])


def test_sym_eig_zero_matrix():
    np.testing.assert_array_equal(sym_eig(np.zeros((2, 2))), [0.0, 0.0])


def test_sym_eig_offdiagonal_pair():
    # characteristic polynomial lambda^2 - 1 = 0 by hand
    np.testing.assert_allclose(sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0], atol=1e-14)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(LinalgError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(LinalgError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(LinalgError):
        sym_eig(np.eye(65))


def test_sym_eig_reconstruction_property(rng):
    """The eigenvalues rebuild the similarity invariants trace(S) and ||S||_F^2."""
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        s = symmetrize(rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, n)))
        w = sym_eig(s)
        norm = np.linalg.norm(s)
        assert np.all(np.diff(w) >= 0.0)
        assert abs(w.sum() - np.trace(s)) <= 1e-10 * max(1.0, norm) * n
        assert abs(np.sqrt(np.sum(w * w)) - norm) <= 1e-10 * max(1.0, norm)
        # independent oracle
        np.testing.assert_allclose(w, np.linalg.eigvalsh(s), rtol=1e-9, atol=1e-9 * max(1.0, norm))


def _jacobi_eigenvalues(s):
    a, v = s.copy(), np.eye(s.shape[0])
    python_impl(jacobi_sweep)(a, v, 1e-12)
    return np.sort(np.diag(a))


def _bundled_certificate_matrices():
    """The sigma, xi and Psi matrices verified for each bundled certify config."""
    from vrgrid.certify import _xi_matrix, search_certificate
    from vrgrid.cli import load_config
    from vrgrid.persidskii import assemble_psi

    for path in sorted(CONFIG_DIR.glob("certify_*.json")):
        cfg = load_config(path)
        cert = search_certificate(cfg.grid, cfg.bank).certificate
        yield cert.p_mat + np.diag(cert.lam.sum(axis=0))
        yield _xi_matrix(cert)
        yield assemble_psi(cfg.grid, cert)


def test_sym_eig_matches_jacobi_reference(rng):
    """LAPACK eigenvalues agree with the cyclic Jacobi sweep to within the
    sweep's own stopping rule, 1e-12 * ||S||_F."""
    mats = [symmetrize(rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, n)))
            for n in range(1, 21) for _ in range(5)]
    mats += list(_bundled_certificate_matrices())
    assert len(mats) == 100 + 6
    for s in mats:
        np.testing.assert_allclose(sym_eig(s), _jacobi_eigenvalues(s),
                                   rtol=0.0, atol=1e-12 * np.linalg.norm(s))


def test_sym_eig_similarity_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        s = symmetrize(rng.normal(size=(n, n)))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        rotated = symmetrize(q @ s @ q.T)
        np.testing.assert_allclose(
            sym_eig(s), sym_eig(rotated), atol=1e-9, rtol=1e-9
        )


def test_is_neg_semidef_examples():
    ok, margin = is_neg_semidef(-np.eye(2))
    assert ok and margin == pytest.approx(-1.0)
    ok, margin = is_neg_semidef(np.eye(2))
    assert not ok and margin == pytest.approx(1.0)
    ok, margin = is_neg_semidef(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not ok and margin == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e150])
def test_is_neg_semidef_is_scale_free(scale):
    """The verdict and margin are those of D S D, D = diag(|S_ii|^-1/2):
    unchanged by the units of each coordinate."""
    def scaled(s):
        d = np.array([1.0 / scale, scale])
        return s * np.outer(d, d)

    ok, margin = is_neg_semidef(scaled(np.array([[-1.0, 0.5], [0.5, -1.0]])))
    assert ok and margin == pytest.approx(-0.5, abs=1e-15)
    ok, margin = is_neg_semidef(scaled(np.array([[-1.0, 1.5], [1.5, -1.0]])))
    assert not ok and margin == pytest.approx(0.5, abs=1e-15)
    # a zero diagonal entry is left unscaled
    ok, margin = is_neg_semidef(scaled(np.array([[0.0, 0.0], [0.0, -1.0]])))
    assert ok and margin == 0.0


def test_is_pos_def_examples():
    ok, margin = is_pos_def(np.eye(2))
    assert ok and margin == pytest.approx(1.0)
    ok, margin = is_pos_def(np.diag([1.0, 0.0]))
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)
    ok, margin = is_pos_def(np.diag([3.0, 5.0]))
    assert ok and margin == pytest.approx(3.0)


def test_definiteness_agreement_on_nonsingular(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        s = symmetrize(rng.normal(size=(n, n)))
        if np.abs(np.linalg.eigvalsh(s)).min() < 1e-6:
            continue
        nsd, _ = is_neg_semidef(s)
        pd, _ = is_pos_def(-s)
        assert nsd == pd

