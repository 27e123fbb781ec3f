from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIG_DIR, symmetrize
from vrgrid._kernels import jacobi_sweep
from vrgrid.linalg import (
    TOL,
    LinalgError,
    neg_semidef_margin,
    sym_eig,
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
    jacobi_sweep(a, v, 1e-12)
    return np.sort(np.diag(a))


def _bundled_certificate_matrices():
    """The sigma and Psi matrices solved for each bundled certify config (Xi is read off its diagonal)."""
    from vrgrid.certify import assemble_psi, search_certificate
    from vrgrid.cli import load_config

    for path in sorted(CONFIG_DIR.glob("certify_*.json")):
        cfg = load_config(path)
        cert = search_certificate(cfg.grid, cfg.bank, cfg.scenario.resistance_range(cfg.grid)).certificate
        yield cert.p_mat + np.diag(cert.lam.sum(axis=0))
        for r_g in dict.fromkeys(cert.resistance_interval):
            yield assemble_psi(replace(cfg.grid, r_g=r_g), cert)


def test_sym_eig_matches_jacobi_reference(rng):
    """LAPACK eigenvalues agree with the cyclic Jacobi sweep to within the
    sweep's own stopping rule, 1e-12 * ||S||_F."""
    mats = [symmetrize(rng.normal(scale=rng.uniform(0.1, 100.0), size=(n, n)))
            for n in range(1, 21) for _ in range(5)]
    mats += list(_bundled_certificate_matrices())
    # sigma and one Psi per resistance end: two nominal certify configs and one interval
    assert len(mats) == 100 + 3 + 4
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
    margin = neg_semidef_margin(-np.eye(2))
    assert margin <= TOL and margin == pytest.approx(-1.0)
    margin = neg_semidef_margin(np.eye(2))
    assert margin > TOL and margin == pytest.approx(1.0)
    margin = neg_semidef_margin(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert margin > TOL and margin == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e150])
def test_is_neg_semidef_is_scale_free(scale):
    """The margin, and so the verdict against TOL, is that of D S D, D = diag(|S_ii|^-1/2):
    unchanged by the units of each coordinate."""
    def scaled(s):
        d = np.array([1.0 / scale, scale])
        return s * np.outer(d, d)

    margin = neg_semidef_margin(scaled(np.array([[-1.0, 0.5], [0.5, -1.0]])))
    assert margin <= TOL and margin == pytest.approx(-0.5, abs=1e-15)
    margin = neg_semidef_margin(scaled(np.array([[-1.0, 1.5], [1.5, -1.0]])))
    assert margin > TOL and margin == pytest.approx(0.5, abs=1e-15)
    # a zero diagonal entry is left unscaled
    margin = neg_semidef_margin(scaled(np.array([[0.0, 0.0], [0.0, -1.0]])))
    assert margin <= TOL and margin == 0.0
