"""Small dense symmetric matrix routines used across the package.

Matrices are plain row-major ``numpy.ndarray`` values, all tiny (dimension
<= 64). The eigenvalues come from LAPACK's symmetric driver through
``np.linalg.eigvalsh``. The cyclic Jacobi sweep ``_kernels.jacobi_sweep`` is
plain Python with two roles: the reference the tests hold ``sym_eig`` to, and
the ``linalg.jacobi_sweep`` site of the benchmark trace.

A definiteness test returns the relevant extreme eigenvalue, a margin, and the
caller compares it with ``TOL``: the report shows how close a certificate sits
to the boundary instead of a silently rounded verdict.
"""

import numpy as np

from ._kernels import jacobi_sweep  # not called here; the linalg.jacobi_sweep trace site

MAX_DIM = 64

TOL = 1e-9  # how far past the boundary a definiteness verdict still passes


class LinalgError(ValueError):
    """Raised for malformed matrix inputs (shape, symmetry, size)."""


def _check_symmetric(s, op):
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise LinalgError(f"{op}: expected a square matrix, got shape {s.shape}")
    if s.shape[0] > MAX_DIM:
        raise LinalgError(f"{op}: dimension {s.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(s)):  # first: a NaN entry would also fail the symmetry check
        raise LinalgError(f"{op}: matrix has non-finite entries")
    if not np.array_equal(s, s.T):
        raise LinalgError(f"{op}: matrix is not symmetric")


def sym_eig(s):
    """Ascending eigenvalues of a symmetric matrix (LAPACK, via ``np.linalg.eigvalsh``)."""
    s = np.asarray(s, dtype=float)
    _check_symmetric(s, "sym_eig")
    return np.linalg.eigvalsh(s)


def neg_semidef_margin(s):
    """lambda_max(D S D): S is negative semidefinite when it is at most ``TOL``.

    D = diag(|S_ii|^-1/2), with D_ii = 1 where S_ii = 0, is a congruence, so
    by Sylvester's law of inertia D S D is negative semidefinite exactly when
    S is, in exact arithmetic. D S D has a unit-magnitude diagonal, so its
    eigenvalues are accurate to about dim * eps whatever the units of S, and
    the margin is dimensionless (Demmel & Veselic, SIAM J. Matrix Anal.
    Appl., 1992).
    """
    s = np.asarray(s, dtype=float)
    diag = np.abs(np.diag(s))
    d = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    return float(sym_eig(s * np.outer(d, d))[-1])
