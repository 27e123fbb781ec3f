"""Small dense symmetric matrix routines used across the package.

Matrices are plain row-major ``numpy.ndarray`` values, all tiny (dimension
<= 64). The eigensolver is LAPACK's symmetric driver through
``np.linalg.eigh``; the cyclic Jacobi sweep ``_kernels.jacobi_sweep`` is no
longer called here and serves as the independent reference in the tests.

Definiteness checks always report the relevant extreme eigenvalue as a
margin so callers can see how close a certificate sits to the boundary
instead of getting a silently rounded verdict.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import jacobi_sweep  # not called here; the linalg.jacobi_sweep trace site

MAX_DIM = 64


class LinalgError(ValueError):
    """Raised for malformed matrix inputs (shape, symmetry, size)."""


def symmetrize(a):
    """Return 0.5 * (A + A^T) as a new array; validates A is square."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def _check_symmetric(s, op):
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise LinalgError(f"{op}: expected a square matrix, got shape {s.shape}")
    if s.shape[0] > MAX_DIM:
        raise LinalgError(f"{op}: dimension {s.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.array_equal(s, s.T):
        raise LinalgError(f"{op}: matrix is not symmetric (use symmetrize() first)")
    if not np.all(np.isfinite(s)):
        raise LinalgError(f"{op}: matrix has non-finite entries")


@dataclass(frozen=True)
class EigResult:
    """Eigendecomposition S = Q diag(w) Q^T with w ascending, Q orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(s):
    """Full eigendecomposition of a symmetric matrix (LAPACK, via ``np.linalg.eigh``)."""
    s = np.asarray(s, dtype=float)
    _check_symmetric(s, "sym_eig")
    w, v = np.linalg.eigh(s)
    return EigResult(w, v)


def lambda_min(s):
    return float(sym_eig(s).eigenvalues[0])


def lambda_max(s):
    return float(sym_eig(s).eigenvalues[-1])


def is_pos_def(s, tol=1e-9):
    """(verdict, margin): true iff lambda_min(S) >= tol; margin is lambda_min."""
    margin = lambda_min(s)
    return bool(margin >= tol), margin


def is_neg_semidef(s, tol=1e-9):
    """(verdict, margin): true iff lambda_max(S) <= tol; margin is lambda_max."""
    margin = lambda_max(s)
    return bool(margin <= tol), margin

