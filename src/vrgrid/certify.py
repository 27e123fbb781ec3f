"""Certificate construction and verification, and sampled stability checks.

Verification evaluates three conditions on a candidate certificate:

  1. P + sum_k Lambda_k positive definite        (sigma margin)
  2. Omega_0 + sum Upsilon_{0,k} + sum Omega_k
     + sum_{1<=s<l} Upsilon_{s,l} positive definite   (xi margin)
  3. Psi negative semidefinite (rederived layout)     (psi margin)

plus the sign-class constraints (nonnegative diagonals, P and Phi PSD).
A valid certificate yields the pointwise dissipation bound

    Vdot <= -varsigma * |x|^2 + alpha * |vg_err|^2

with varsigma = lambda_min(Omega_0) and alpha = lambda_max(Phi) / l_g^2,
because the dropped cross terms are nonnegative under the sector condition.
The disturbance-to-state gain slope is sqrt(alpha / varsigma).

:func:`search_certificate` builds a certificate in closed form from
(r_g, l_g, omega_g) and the branch count (P = I and scaled identities
elsewhere, see its docstring) and checks it once with
:func:`verify_certificate`, whose report alone decides validity.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .bank import bank_values, branch_values, classify_bank
from .persidskii import (
    IssCertificate,
    VerifyReport,
    _check_dims,
    assemble_psi,
    lyapunov_gradients,  # not called here; the persidskii.lyapunov_gradients trace site
)
from .plant import system_matrix


class CertificateError(ValueError):
    """Raised for unusable certificates (e.g. gain requested with varsigma <= 0)."""


def _class_ok(cert, tol):
    if np.any(cert.lam < 0.0) or np.any(cert.omega < 0.0) or np.any(cert.upsilon < 0.0):
        return False
    if linalg.lambda_min(cert.p_mat) < -tol:
        return False
    if linalg.lambda_min(cert.phi) < -tol:
        return False
    return True


def _xi_matrix(cert):
    m = cert.branch_count
    diag = cert.omega.sum(axis=0).astype(float)
    for s in range(m + 1):
        for l in range(s + 1, m + 1):
            diag = diag + cert.upsilon[s, l]
    return np.diag(diag)


def verify_certificate(p, bank, cert, tol=1e-9):
    """Evaluate all three conditions; never raises on an invalid certificate."""
    _check_dims(cert, bank)
    class_ok = _class_ok(cert, tol)

    lmi_p = cert.p_mat + np.diag(cert.lam.sum(axis=0)) if cert.branch_count else cert.p_mat
    sigma_ok, sigma_margin = linalg.is_pos_def(lmi_p, tol)
    xi_ok, xi_margin = linalg.is_pos_def(_xi_matrix(cert), tol)
    psi_ok, psi_margin = linalg.is_neg_semidef(assemble_psi(p, cert, mode="rederived"), tol)

    psi_margin_verbatim = None
    if cert.mode == "verbatim":
        # the layout warning (two or more branches) propagates to the caller
        psi_margin_verbatim = linalg.lambda_max(assemble_psi(p, cert, mode="verbatim"))

    return VerifyReport(
        valid=bool(class_ok and sigma_ok and xi_ok and psi_ok),
        sigma_margin=sigma_margin,
        xi_margin=xi_margin,
        psi_margin=psi_margin,
        varsigma=float(cert.omega[0].min()),
        alpha=float(linalg.lambda_max(cert.phi) / p.l_g ** 2),
        class_ok=class_ok,
        psi_margin_verbatim=psi_margin_verbatim,
    )


def iss_gain(cert_or_report):
    """Slope of the linear disturbance-to-state gain, sqrt(alpha / varsigma)."""
    report = getattr(cert_or_report, "report", cert_or_report)
    if report is None:
        raise CertificateError("certificate has no verification report attached")
    if report.varsigma <= 0.0:
        raise CertificateError(f"gain undefined: varsigma = {report.varsigma!r} <= 0")
    return math.sqrt(report.alpha / report.varsigma)


# --------------------------------------------------------------------------
# Closed-form certificate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    certificate: IssCertificate
    report: VerifyReport
    feasible: bool
    starts_run: int


def search_certificate(p, bank, mode="rederived"):
    """Closed-form certificate for a stable linear part, verified once.

    With the branch weight c = min(0.01, r_g / (4 max(M, 1) |A|^2 l_g^2)),
    |A|^2 = (r_g / l_g)^2 + omega_g^2 (A is normal), and

        P = I, Lambda_k = c I, Omega_0 = (r_g / l_g) I, Omega_k = (c / l_g) I,
        Upsilon_{0,k} = (1 / l_g) I, Upsilon_{s,l} = (2 c / l_g) I,
        Phi = 4 (l_g / r_g) I,

    the (0, k) cross blocks of Psi reduce to c A', the (s, l) cross blocks
    vanish, and the diagonal blocks are -(r_g / l_g) I for the state,
    -(c / l_g) I per branch and -Phi for the disturbance.
    A Schur bound then keeps the whole matrix strictly negative whenever
    M c l_g |A|^2 <= (r_g / l_g) / 4, which fixes the branch weight c for
    any admissible parameters. The bound only motivates the construction:
    validity is decided by :func:`verify_certificate`, whose report is
    attached to the returned certificate.
    """
    m = bank.branch_count
    if m > 8:
        raise ValueError(f"certification supports at most 8 branches, bank has {m}")
    classify_bank(bank)

    a = p.r_g / p.l_g
    c = min(0.01, p.r_g / (4.0 * max(m, 1) * (a ** 2 + p.omega_g ** 2) * p.l_g ** 2))
    omega = np.full((m + 1, 2), c / p.l_g)
    omega[0] = a
    upsilon = np.zeros((m + 1, m + 1, 2))
    upsilon[np.triu_indices(m + 1, 1)] = 2.0 * c / p.l_g
    upsilon[0, 1:] = 1.0 / p.l_g
    cert = IssCertificate(
        p_mat=np.eye(2),
        lam=np.full((m, 2), c),
        omega=omega,
        phi=(4.0 * p.l_g / p.r_g) * np.eye(2),
        upsilon=upsilon,
        mode=mode,
    )
    report = verify_certificate(p, bank, cert)
    return SearchResult(
        certificate=replace(cert, report=report),
        report=report,
        feasible=report.valid,
        starts_run=1,
    )


# --------------------------------------------------------------------------
# Sampled gradient-condition checker
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientCheckConfig:
    """Grid for the sampled gradient condition; origin must be a grid point."""

    epsilon: float
    grid_radius: float = 50.0
    grid_points: int = 201

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if not (math.isfinite(self.grid_radius) and self.grid_radius > 0.0):
            raise ValueError(f"grid_radius must be finite and > 0, got {self.grid_radius!r}")
        if isinstance(self.grid_points, bool) or not isinstance(self.grid_points, int):
            raise ValueError(f"grid_points must be an int, got {self.grid_points!r}")
        if self.grid_points < 11 or self.grid_points % 2 == 0:
            raise ValueError("grid_points must be an odd count >= 11 (grid must contain the origin)")


@dataclass(frozen=True)
class GradientCheckReport:
    passes: bool
    max_value: float
    max_point: tuple
    n_violations: int
    disturbance_bound_coeff: float   # 1 / (2 l_g epsilon) multiplying |vg_err|^2


def _spread(axis_values, n):
    """Per-axis values at the n samples -> the n*n grid points, meshgrid "ij" order."""
    return np.column_stack([np.repeat(axis_values[:, 0], n), np.tile(axis_values[:, 1], n)])


def sampled_gradient_check(p, bank, v_spec, cfg):
    """Evaluate the pointwise gradient condition on a square grid.

    The left side

        gradV' A x - (1/l_g) gradV' r(x) + |x|^2 + (eps / 2 l_g) |gradV|^2

    must be <= 0 everywhere for the condition to hold; sampling makes this
    a falsification check, not a proof. ``v_spec`` is either a certificate
    (composite V) or a symmetric 2x2 array (plain quadratic V = x'Px). A
    point whose left side is not <= 0 (NaN included, e.g. after an overflow)
    counts as a violation, so ``passes`` holds exactly when there are none.

    Every branch map acts on one axis at a time, so each is evaluated only
    on the n axis samples (both columns of ``column_stack([axis, axis])``)
    and then spread over the grid. Grid point i*n + j is (axis[i], axis[j]),
    so its d value is the d value of sample i, repeated along grid row i,
    and its q value that of sample j, tiled across the rows. The maps are
    elementwise, so the spread values are the floats a full-grid evaluation
    gives; grad V and r are then summed in the operation order of
    :func:`lyapunov_gradients` and :func:`bank_values`, and the report is
    bit-identical to evaluating both on all n*n points.
    """
    n = cfg.grid_points
    axis = np.linspace(-cfg.grid_radius, cfg.grid_radius, n)
    gd, gq = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gd.ravel(), gq.ravel()])
    samples = np.column_stack([axis, axis])

    if isinstance(v_spec, IssCertificate):
        _check_dims(v_spec, bank)
        grads = 2.0 * pts @ v_spec.p_mat.T
        for k, branch in enumerate(bank.branches):
            grads = grads + 2.0 * v_spec.lam[k] * _spread(branch_values(branch, samples), n)
    else:
        p_quad = linalg.symmetrize(np.asarray(v_spec, dtype=float))
        grads = 2.0 * pts @ p_quad.T

    a = system_matrix(p)
    lhs = (
        np.einsum("ni,ni->n", grads, pts @ a.T)
        - np.einsum("ni,ni->n", grads, _spread(bank_values(bank, samples), n)) / p.l_g
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
        disturbance_bound_coeff=1.0 / (2.0 * p.l_g * cfg.epsilon),
    )
