import numpy as np
import pytest

from conftest import CONFIG_DIR
from vrgrid._kernels import jacobi_sweep, python_impl
from vrgrid.linalg import (
    LinalgError,
    block_assemble,
    is_neg_semidef,
    is_pos_def,
    sym_eig,
    symmetrize,
)


def test_sym_eig_diagonal():
    res = sym_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0])


def test_sym_eig_zero_matrix():
    res = sym_eig(np.zeros((2, 2)))
    np.testing.assert_array_equal(res.eigenvalues, [0.0, 0.0])
    np.testing.assert_array_equal(res.eigenvectors, np.eye(2))


def test_sym_eig_offdiagonal_pair():
    # characteristic polynomial lambda^2 - 1 = 0 by hand
    res = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(res.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(LinalgError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(LinalgError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(LinalgError):
        sym_eig(np.eye(65))


def test_sym_eig_reconstruction_property(rng):
    worst_resid = 0.0
    worst_orth = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        s = symmetrize(rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, n)))
        res = sym_eig(s)
        q, w = res.eigenvectors, res.eigenvalues
        resid = np.linalg.norm(q @ np.diag(w) @ q.T - s) / max(1.0, np.linalg.norm(s))
        orth = np.abs(q.T @ q - np.eye(n)).max()
        worst_resid = max(worst_resid, resid)
        worst_orth = max(worst_orth, orth)
        assert np.all(np.diff(w) >= 0.0)
        # independent oracle
        np.testing.assert_allclose(w, np.linalg.eigvalsh(s), rtol=1e-9, atol=1e-9 * max(1.0, np.linalg.norm(s)))
    assert worst_resid <= 1e-10
    assert worst_orth <= 1e-10


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
        np.testing.assert_allclose(sym_eig(s).eigenvalues, _jacobi_eigenvalues(s),
                                   rtol=0.0, atol=1e-12 * np.linalg.norm(s))


def test_sym_eig_similarity_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        s = symmetrize(rng.normal(size=(n, n)))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        rotated = symmetrize(q @ s @ q.T)
        np.testing.assert_allclose(
            sym_eig(s).eigenvalues, sym_eig(rotated).eigenvalues, atol=1e-9, rtol=1e-9
        )


def test_is_neg_semidef_examples():
    ok, margin = is_neg_semidef(-np.eye(2), tol=0.0)
    assert ok and margin == pytest.approx(-1.0)
    ok, margin = is_neg_semidef(np.eye(2), tol=0.0)
    assert not ok and margin == pytest.approx(1.0)
    ok, margin = is_neg_semidef(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=0.0)
    assert not ok and margin == pytest.approx(1.0)


def test_is_pos_def_examples():
    ok, margin = is_pos_def(np.eye(2), tol=1e-9)
    assert ok and margin == pytest.approx(1.0)
    ok, margin = is_pos_def(np.diag([1.0, 0.0]), tol=1e-9)
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)
    ok, margin = is_pos_def(np.diag([3.0, 5.0]), tol=1e-9)
    assert ok and margin == pytest.approx(3.0)


def test_definiteness_agreement_on_nonsingular(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        s = symmetrize(rng.normal(size=(n, n)))
        if np.abs(np.linalg.eigvalsh(s)).min() < 1e-6:
            continue
        nsd, _ = is_neg_semidef(s, tol=0.0)
        pd, _ = is_pos_def(-s, tol=0.0)
        assert nsd == pd


def test_block_assemble_single_block():
    b = np.array([[1.0, 2.0], [2.0, 3.0]])
    np.testing.assert_array_equal(block_assemble({(0, 0): b}, 1), b)


def test_block_assemble_block_diagonal():
    blocks = {(0, 0): np.eye(2), (1, 1): 2.0 * np.eye(2)}
    out = block_assemble(blocks, 2)
    np.testing.assert_array_equal(out, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_block_assemble_mirrors_transpose():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = block_assemble({(0, 0): np.zeros((2, 2)), (1, 1): np.zeros((2, 2)), (0, 1): b}, 2)
    np.testing.assert_array_equal(out[0:2, 2:4], b)
    np.testing.assert_array_equal(out[2:4, 0:2], b.T)
    assert np.array_equal(out, out.T)


def test_block_assemble_missing_diagonal_errors():
    with pytest.raises(LinalgError, match="missing diagonal"):
        block_assemble({(0, 0): np.eye(2)}, 2)
    with pytest.raises(LinalgError, match="upper triangle"):
        block_assemble({(1, 0): np.eye(2), (0, 0): np.eye(2), (1, 1): np.eye(2)}, 2)
