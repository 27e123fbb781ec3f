"""Diagonal-nonlinearity (Persidskii-form) view of the error dynamics.

The closed loop splits into a linear part A0 = A, one channel
A_k = -(1/l_g) I per bank branch acting on the branch map r_k, and the
disturbance input phi = -(1/l_g) vg_err:

    d(ierr)/dt = A0 ierr + sum_k A_k r_k(ierr) + phi.

The stability certificate is the matrix tuple (P, Lambda_k, Omega_s,
Upsilon_{s,l}, Phi) entering the composite Lyapunov function

    V(x) = x' P x + 2 sum_k sum_axis Lambda_{k,axis} * Int_0^{x_axis} r_k

and the quadratic-form matrix Psi over z = (x, r_1(x), ..., r_M(x), w).

Sign convention for the disturbance coordinate: w = phi = -(1/l_g) vg_err,
i.e. the scale AND the sign are absorbed into w. With that choice the
default ("rederived") block layout below satisfies, identically in
(x, vg_err),

    z' Psi z = Vdot + x' Omega_0 x + sum_k r_k' Omega_k r_k
               + 2 sum_k x' Upsilon_{0,k} r_k
               + 2 sum_{s<l} r_s' Upsilon_{s,l} r_l - w' Phi w.

The "verbatim" mode assembles an alternative legacy block layout that
carries +Phi in the last diagonal block and repeats the second branch
weight in the (s, l) cross blocks; it is kept for documentation and
comparison only and does not satisfy the identity above.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .bank import (
    branch_primitive_values,
    branch_primitives,
    branch_values,
    classify_bank,
    eval_branch,
)
from .plant import as_dq, system_matrix


@dataclass(frozen=True)
class PersidskiiModel:
    """(A0, {A_k}, bank, disturbance scale) with phi = -scale * vg_err."""

    a0: np.ndarray
    ak: tuple
    bank: object
    disturbance_scale: float


def to_persidskii(p, bank):
    """Build the diagonal-nonlinearity form; refuses sector-invalid banks."""
    classify_bank(bank)
    a0 = system_matrix(p)
    chan = -(1.0 / p.l_g) * np.eye(2)
    return PersidskiiModel(
        a0=a0,
        ak=tuple(chan.copy() for _ in bank.branches),
        bank=bank,
        disturbance_scale=1.0 / p.l_g,
    )


def model_derivative(model, i_err, v_g_err):
    """State derivative from the split form (cross-checks error_derivative)."""
    x = as_dq(i_err, "i_err")
    out = model.a0 @ x
    for chan, branch in zip(model.ak, model.bank.branches):
        out = out + chan @ eval_branch(branch, x)
    return out - model.disturbance_scale * as_dq(v_g_err, "v_g_err")


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking one certificate against the three conditions."""

    valid: bool
    sigma_margin: float       # lambda_min of P + sum Lambda_k
    xi_margin: float          # lambda_min of the summed regularizer matrix
    psi_margin: float         # lambda_max of Psi (rederived layout)
    varsigma: float           # lambda_min of Omega_0 (state dissipation rate)
    alpha: float              # lambda_max(Phi) / l_g**2  (disturbance gain)
    class_ok: bool = True     # sign/shape constraints on the matrix classes
    psi_margin_verbatim: Optional[float] = None

    def margins_dict(self):
        out = {
            "sigma": self.sigma_margin,
            "xi": self.xi_margin,
            "psi": self.psi_margin,
            "varsigma": self.varsigma,
            "alpha": self.alpha,
        }
        if self.psi_margin_verbatim is not None:
            out["psi_verbatim"] = self.psi_margin_verbatim
        return out


@dataclass(frozen=True)
class IssCertificate:
    """Candidate certificate matrices; ``report`` is attached by verification.

    Diagonal matrices are stored by their diagonals: ``lam`` is (M, 2) for
    Lambda_1..Lambda_M, ``omega`` is (M+1, 2) for Omega_0..Omega_M, and
    ``upsilon`` is (M+1, M+1, 2) with only the strict upper triangle
    (s < l) populated.
    """

    p_mat: np.ndarray
    lam: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    upsilon: np.ndarray = None
    mode: str = "rederived"
    report: Optional[VerifyReport] = field(default=None, compare=False)

    def __post_init__(self):
        p_mat = linalg.symmetrize(self.p_mat)
        phi = linalg.symmetrize(self.phi)
        lam = np.asarray(self.lam, dtype=float).reshape(-1, 2)
        omega = np.asarray(self.omega, dtype=float)
        if omega.ndim != 2 or omega.shape[1] != 2:
            raise ValueError(f"omega must have shape (M+1, 2), got {omega.shape}")
        m = lam.shape[0]
        if omega.shape[0] != m + 1:
            raise ValueError(f"omega rows ({omega.shape[0]}) must equal branch count + 1 ({m + 1})")
        ups = self.upsilon
        if ups is None:
            ups = np.zeros((m + 1, m + 1, 2))
        ups = np.asarray(ups, dtype=float)
        if ups.shape != (m + 1, m + 1, 2):
            raise ValueError(f"upsilon must have shape (M+1, M+1, 2), got {ups.shape}")
        low = np.tril_indices(m + 1)
        if np.any(ups[low] != 0.0):
            raise ValueError("upsilon may only populate the strict upper triangle (s < l)")
        if self.mode not in ("rederived", "verbatim"):
            raise ValueError(f"mode must be 'rederived' or 'verbatim', got {self.mode!r}")
        for name, arr in (("p_mat", p_mat), ("lam", lam), ("omega", omega), ("phi", phi), ("upsilon", ups)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"certificate field {name} has non-finite entries")
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


def lyapunov_value(cert, bank, i_err):
    """V = x'Px + 2 sum_k sum_axis Lambda * (branch primitive sums)."""
    _check_dims(cert, bank)
    x = as_dq(i_err, "i_err")
    value = float(x @ cert.p_mat @ x)
    for k, branch in enumerate(bank.branches):
        value += 2.0 * float(cert.lam[k] @ branch_primitives(branch, x))
    return value


def lyapunov_values(cert, bank, pts):
    """Vectorized V over an (N, 2) array of states."""
    _check_dims(cert, bank)
    pts = np.asarray(pts, dtype=float)
    value = np.einsum("...i,ij,...j->...", pts, cert.p_mat, pts)
    for k, branch in enumerate(bank.branches):
        value = value + 2.0 * branch_primitive_values(branch, pts) @ cert.lam[k]
    return value


def lyapunov_gradient(cert, bank, i_err):
    """grad V = 2 P x + 2 sum_k Lambda_k r_k(x)."""
    _check_dims(cert, bank)
    x = as_dq(i_err, "i_err")
    grad = 2.0 * cert.p_mat @ x
    for k, branch in enumerate(bank.branches):
        grad = grad + 2.0 * cert.lam[k] * eval_branch(branch, x)
    return grad


def lyapunov_gradients(cert, bank, pts):
    """Vectorized grad V over an (N, 2) array of states."""
    _check_dims(cert, bank)
    pts = np.asarray(pts, dtype=float)
    grad = 2.0 * pts @ cert.p_mat.T
    for k, branch in enumerate(bank.branches):
        grad = grad + 2.0 * cert.lam[k] * branch_values(branch, pts)
    return grad


def assemble_psi(p, cert, mode=None):
    """Assemble the symmetric 2(M+2) matrix Psi for the given grid params.

    The blocks are laid out over z = (x, r_1..r_M, w); see the module
    docstring. ``mode`` defaults to the certificate's own mode. The verbatim
    layout with two or more branches emits a warning: its (s, l) cross
    blocks use the weight of branch l twice where the derivative expansion
    requires the sum of both branch weights.
    """
    mode = mode or cert.mode
    if mode not in ("rederived", "verbatim"):
        raise ValueError(f"mode must be 'rederived' or 'verbatim', got {mode!r}")
    m = cert.branch_count
    rederived = mode == "rederived"
    if not rederived and m >= 2:
        warnings.warn(
            "verbatim Psi layout duplicates the branch-l weight in the (s, l) "
            "cross blocks; use mode='rederived' for the identity-consistent form",
            UserWarning,
            stacklevel=2,
        )
    a_mat = system_matrix(p)
    inv_lg = 1.0 / p.l_g
    p_mat, lam, omega, upsilon = cert.p_mat, cert.lam, cert.omega, cert.upsilon
    blocks = {}

    ap = a_mat.T @ p_mat
    blocks[(0, 0)] = ap + ap.T + np.diag(omega[0])
    for k in range(1, m + 1):
        blocks[(0, k)] = -inv_lg * p_mat + a_mat.T @ np.diag(lam[k - 1]) + np.diag(upsilon[0, k])
        blocks[(k, k)] = np.diag(-2.0 * inv_lg * lam[k - 1] + omega[k])
        blocks[(k, m + 1)] = np.diag(lam[k - 1])
    for s in range(1, m + 1):
        for l in range(s + 1, m + 1):
            if rederived:
                cross = -inv_lg * (lam[s - 1] + lam[l - 1])
            else:
                cross = -2.0 * inv_lg * lam[l - 1]
            blocks[(s, l)] = np.diag(cross + upsilon[s, l])
    blocks[(0, m + 1)] = p_mat
    blocks[(m + 1, m + 1)] = -cert.phi if rederived else cert.phi
    return linalg.block_assemble(blocks, m + 2)


def stacked_coordinates(bank, pts, dist, l_g):
    """z = (x, r_1(x), ..., r_M(x), w) rows for (N, 2) states/disturbances."""
    pts = np.asarray(pts, dtype=float)
    dist = np.asarray(dist, dtype=float)
    parts = [pts]
    for branch in bank.branches:
        parts.append(branch_values(branch, pts))
    parts.append(-dist / l_g)
    return np.concatenate([np.atleast_2d(p) for p in parts], axis=-1)
