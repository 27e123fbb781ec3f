"""Diagonal-nonlinearity (Persidskii-form) certificates of the error dynamics.

The closed loop has a linear part A0 = A, one channel
A_k = -(1/l_g) I per bank branch acting on the branch map r_k, and the
disturbance input phi = -(1/l_g) vg_err:

    d(ierr)/dt = A0 ierr + sum_k A_k r_k(ierr) + phi.

:func:`assemble_psi` builds its blocks from this form.

The stability certificate is the matrix tuple (P, Lambda_k, Omega_s,
Upsilon_{s,l}, Phi) entering the composite Lyapunov function

    V(x) = x' P x + 2 sum_k sum_axis Lambda_{k,axis} * Int_0^{x_axis} r_k

and the quadratic-form matrix Psi over z = (x, r_1(x), ..., r_M(x), w).
V and its gradient are evaluated over (N, 2) arrays of states.

Sign convention for the disturbance coordinate: w = phi = -(1/l_g) vg_err,
i.e. the scale AND the sign are absorbed into w. With that choice the
block layout below satisfies, identically in (x, vg_err),

    z' Psi z = Vdot + x' Omega_0 x + sum_k r_k' Omega_k r_k
               + 2 sum_k x' Upsilon_{0,k} r_k
               + 2 sum_{s<l} r_s' Upsilon_{s,l} r_l - w' Phi w.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .bank import branch_primitive_values, branch_values
from .plant import system_matrix


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking one certificate against the three conditions."""

    valid: bool
    sigma_margin: float       # lambda_min of P + sum Lambda_k
    xi_margin: float          # lambda_min of the summed regularizer matrix
    psi_margin: float         # lambda_max of Psi
    varsigma: float           # lambda_min of Omega_0 (state dissipation rate)
    alpha: float              # lambda_max(Phi) / l_g**2  (disturbance gain)

    def margins_dict(self):
        return {
            "sigma": self.sigma_margin,
            "xi": self.xi_margin,
            "psi": self.psi_margin,
            "varsigma": self.varsigma,
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class IssCertificate:
    """Candidate certificate matrices; ``report`` is attached by verification.

    Diagonal matrices are stored by their diagonals: ``lam`` is (M, 2) for
    Lambda_1..Lambda_M, ``omega`` is (M+1, 2) for Omega_0..Omega_M, and
    ``upsilon`` is (M+1, M+1, 2) with only the strict upper triangle
    (s < l) populated.

    The fields are stored as read-only float arrays, P and Phi symmetrized;
    nothing else is checked here. The two producers give every field at
    these shapes: :func:`vrgrid.certify.search_certificate` builds them so,
    and :func:`vrgrid.cli.load_certificate` reads each key of a file at its
    exact shape as finite numbers and fills only s < l of ``upsilon``.
    """

    p_mat: np.ndarray
    lam: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    upsilon: np.ndarray
    report: Optional[VerifyReport] = field(default=None, compare=False)

    def __post_init__(self):
        arrays = {
            "p_mat": linalg.symmetrize(self.p_mat),
            "lam": np.asarray(self.lam, dtype=float).reshape(-1, 2),  # M = 0 read from a file is ()
            "omega": np.asarray(self.omega, dtype=float),
            "phi": linalg.symmetrize(self.phi),
            "upsilon": np.asarray(self.upsilon, dtype=float),
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def branch_count(self):
        return self.lam.shape[0]


def _check_dims(cert, bank):
    if cert.branch_count != bank.branch_count:
        raise ValueError(
            f"certificate sized for {cert.branch_count} branches, bank has {bank.branch_count}"
        )


def lyapunov_values(cert, bank, pts):
    """Vectorized V over an (N, 2) array of states."""
    _check_dims(cert, bank)
    pts = np.asarray(pts, dtype=float)
    value = np.einsum("...i,ij,...j->...", pts, cert.p_mat, pts)
    for k, branch in enumerate(bank.branches):
        value = value + 2.0 * branch_primitive_values(branch, pts) @ cert.lam[k]
    return value


def lyapunov_gradients(cert, bank, pts):
    """Vectorized grad V over an (N, 2) array of states."""
    _check_dims(cert, bank)
    pts = np.asarray(pts, dtype=float)
    grad = 2.0 * pts @ cert.p_mat.T
    for k, branch in enumerate(bank.branches):
        grad = grad + 2.0 * cert.lam[k] * branch_values(branch, pts)
    return grad


def assemble_psi(p, cert):
    """Assemble the symmetric 2(M+2) matrix Psi for the given grid params.

    The blocks are laid out over z = (x, r_1..r_M, w); see the module
    docstring.
    """
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
        put(0, k, -inv_lg * p_mat + a_mat.T @ np.diag(lam[k - 1]) + np.diag(upsilon[0, k]))
        psi[rows[k], rows[k]] = np.diag(-2.0 * inv_lg * lam[k - 1] + omega[k])
        put(k, m + 1, np.diag(lam[k - 1]))
    for s in range(1, m + 1):
        for l in range(s + 1, m + 1):
            put(s, l, np.diag(-inv_lg * (lam[s - 1] + lam[l - 1]) + upsilon[s, l]))
    put(0, m + 1, p_mat)
    psi[rows[m + 1], rows[m + 1]] = -cert.phi
    return psi

