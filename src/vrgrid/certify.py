"""Persidskii-form ISS certificates of the error dynamics: construction and verification.

The closed loop has a linear part A0 = A, one channel
A_k = -(1/l_g) I per bank branch acting on the branch map r_k, and the
disturbance input phi = -(1/l_g) vg_err:

    d(ierr)/dt = A0 ierr + sum_k A_k r_k(ierr) + phi.

The stability certificate is the matrix tuple (P, Lambda_k, Omega_s,
Upsilon_{s,l}, Phi) entering the composite Lyapunov function

    V(x) = x' P x + 2 sum_k sum_axis Lambda_{k,axis} * Int_0^{x_axis} r_k

and the quadratic-form matrix Psi over z = (x, r_1(x), ..., r_M(x), w),
which :func:`assemble_psi` builds from this form.

Sign convention for the disturbance coordinate: w = phi = -(1/l_g) vg_err,
i.e. the scale AND the sign are absorbed into w. With that choice the
block layout of :func:`assemble_psi` satisfies, identically in (x, vg_err),

    z' Psi z = Vdot + x' Omega_0 x + sum_k r_k' Omega_k r_k
               + 2 sum_k x' Upsilon_{0,k} r_k
               + 2 sum_{s<l} r_s' Upsilon_{s,l} r_l - w' Phi w.

Verification evaluates three conditions on a candidate certificate:

  1. P + sum_k Lambda_k positive definite        (sigma margin)
  2. Omega_0 + sum Upsilon_{0,k} + sum Omega_k
     + sum_{1<=s<l} Upsilon_{s,l} positive definite   (xi margin)
  3. Psi negative semidefinite at both interval ends (psi margin)

plus the sign class of :func:`sign_class_violation` (nonnegative
diagonals, P and Phi symmetric PSD). A valid certificate yields the
pointwise dissipation bound

    Vdot <= -varsigma * |x|^2 + alpha * |vg_err|^2

with varsigma = lambda_min(Omega_0) and alpha = lambda_max(Phi) / l_g^2,
because the dropped cross terms are nonnegative under the sector condition.
The disturbance-to-state gain slope is sqrt(alpha / varsigma).
:func:`verify_certificate` reports the verdict, the three margins,
varsigma, alpha and that slope (None unless valid with varsigma > 0) as
one :class:`VerifyReport`: its fields after ``valid`` are the ``margins``
record of certificate.json.

:func:`search_certificate` builds a certificate in closed form from
(r_g, l_g, omega_g) and the branch count (P = I and scaled identities
elsewhere, see its docstring) at the low end of the grid-resistance
interval it carries, and attaches the report of :func:`verify_certificate`.
It raises :class:`CertificateError` only for grid values that put the
certificate outside the float64 range.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .bank import bank_values, branch_primitive_values, branch_values
from .bank import classify_bank  # not called here; the certify.classify_bank trace site
from .plant import system_matrix


# largest bank the certificate construction accepts
MAX_BRANCHES = 8

# grid points per block of the sampled gradient check: a block's (2, k)
# buffers stay at 64 KiB, under malloc's 128 KiB mmap threshold
BLOCK_POINTS = 4096


class CertificateError(ValueError):
    """Raised when (r_g, l_g, omega_g) put the closed-form certificate outside the float64 range."""


class VerifyReport(NamedTuple):
    """Outcome of checking one certificate: ``valid``, then the ``margins`` record of certificate.json.

    A NamedTuple, as every record without a ``__post_init__`` check: ``_asdict()`` and ``_replace()``
    stand for ``dataclasses.asdict`` and ``replace``, which do not apply to it.
    """

    valid: bool
    sigma: float              # lambda_min of P + sum Lambda_k
    xi: float                 # smallest entry of the summed (diagonal) regularizer matrix
    psi: float                # lambda_max of D Psi D
    varsigma: float           # lambda_min of Omega_0 (state dissipation rate)
    alpha: float              # lambda_max(Phi) / l_g**2  (disturbance gain)
    iss_gain_slope: Optional[float]  # sqrt(alpha / varsigma) if valid with varsigma > 0, else None


@dataclass(frozen=True)
class IssCertificate:
    """Candidate certificate matrices; ``report`` is attached by verification.

    Diagonal matrices are stored by their diagonals: ``lam`` is (M, 2) for
    Lambda_1..Lambda_M, ``omega`` is (M+1, 2) for Omega_0..Omega_M, and
    ``upsilon`` is (M(M+1)/2, 2) for the Upsilon_{s,l} with s < l, in the
    row order of ``np.triu_indices(M + 1, 1)``: (0, 1)..(0, M), (1, 2)..

    ``resistance_interval`` is the (2,) array (r_min, r_max) of grid
    resistance that :func:`verify_certificate` checks the certificate over.

    The arrays are stored as read-only float copies, so the caller's
    arrays stay writable; nothing is checked here. The two producers give
    every field, the matrices at these shapes with P and Phi symmetric:
    :func:`search_certificate` builds them so, and
    :func:`vrgrid.cli.load_certificate` reads each key of a file at its
    exact shape as finite numbers, reads an interval with 0 < r_min <= r_max
    and refuses a certificate outside the class of :func:`sign_class_violation`.
    """

    p_mat: np.ndarray
    lam: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    upsilon: np.ndarray
    resistance_interval: np.ndarray
    report: Optional[VerifyReport] = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("p_mat", "lam", "omega", "phi", "upsilon", "resistance_interval"):
            arr = np.array(getattr(self, name), dtype=float)
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
        psi[rows[k], rows[k]] = np.diag(-2.0 * inv_lg * lam[k - 1] + omega[k])
        put(k, m + 1, np.diag(lam[k - 1]))
    for l, ups in zip(range(1, m + 1), upsilon):  # the pairs (0, l) lead the rows of upsilon
        put(0, l, -inv_lg * p_mat + a_mat.T @ np.diag(lam[l - 1]) + np.diag(ups))
    # the pairs (s, l) with s >= 1 are diagonal blocks: both axes of all of them at once
    s, l = (index[m:] for index in np.triu_indices(m + 1, 1))
    diag = -inv_lg * (lam[s - 1] + lam[l - 1]) + upsilon[m:]
    i, j = 2 * s[:, None] + (0, 1), 2 * l[:, None] + (0, 1)
    psi[i, j] = diag
    psi[j, i] = diag
    put(0, m + 1, p_mat)
    psi[rows[m + 1], rows[m + 1]] = -cert.phi
    return psi


def sign_class_violation(cert):
    """``(field, reason)`` of the first field of ``cert`` outside the sign class, else None: ``lam``,
    ``omega`` and ``upsilon`` have no negative entry, ``p_mat`` and ``phi`` are symmetric PSD."""
    for name in ("lam", "omega", "upsilon"):
        if np.any(getattr(cert, name) < 0.0):
            return name, "has a negative entry"
    for name in ("p_mat", "phi"):
        mat = getattr(cert, name)
        if not np.array_equal(mat, mat.T):
            return name, "is not symmetric"
        if linalg.sym_eig(mat)[0] < -linalg.TOL:
            return name, "is not positive semidefinite"
    return None


def verify_certificate(p, bank, cert):
    """Evaluate all three conditions over ``cert.resistance_interval``; an invalid certificate gives a
    report, not an error. ``p`` gives l_g and omega_g; its r_g is not read.

    Only Psi depends on r_g, through A and affinely, so it is negative semidefinite on the whole
    interval when it is at both ends: it is checked at each distinct end, and the report gives the
    larger psi margin. P and Phi must be symmetric, as both producers give them: ``linalg`` refuses
    an asymmetric one.
    """
    _check_dims(cert, bank)
    sigma = float(linalg.sym_eig(cert.p_mat + np.diag(cert.lam.sum(axis=0)))[0])
    # Xi is diagonal: its smallest eigenvalue is its smallest entry. The pairs are added one at a
    # time, in row order: upsilon.sum(axis=0) rounds differently
    xi = float(reduce(np.add, cert.upsilon, cert.omega.sum(axis=0)).min())
    psi = max(linalg.neg_semidef_margin(assemble_psi(replace(p, r_g=r), cert))
              for r in dict.fromkeys(cert.resistance_interval.tolist()))
    valid = sign_class_violation(cert) is None and sigma >= linalg.TOL and xi >= linalg.TOL and psi <= linalg.TOL
    varsigma = float(cert.omega[0].min())
    alpha = float(linalg.sym_eig(cert.phi)[-1] / p.l_g ** 2)
    slope = math.sqrt(alpha / varsigma) if valid and varsigma > 0.0 else None
    return VerifyReport(valid, sigma, xi, psi, varsigma, alpha, slope)


# --------------------------------------------------------------------------
# Closed-form certificate
# --------------------------------------------------------------------------

class SearchResult(NamedTuple):
    certificate: IssCertificate   # its ``report`` decides ``feasible``
    feasible: bool
    starts_run: int


def search_certificate(p, bank, resistance_interval):
    """Closed-form certificate for a stable linear part over a grid-resistance interval.

    ``resistance_interval`` (r_min, r_max) must be finite positive numbers
    with r_min <= r_max (``GridParams`` raises ValueError on an r_min that is
    not). The certificate carries it; below, r_g is r_min and p.r_g unread.

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
    validity over the interval is decided by :func:`verify_certificate`,
    whose report is attached; its varsigma, alpha and slope (2 / r_min) are
    those of the r_min build.

    The bank enters only through its branch count; its sector condition is
    the caller's to check (``vrgrid.cli.load_config`` does on every bank it
    loads). Raises :class:`CertificateError` naming the first quantity that
    (r_g, l_g, omega_g) put outside the float64 range: the branch weight c
    (e.g. r_g = 1e-300 with l_g = 1e300), a certificate field or a margin.
    """
    m = bank.branch_count
    if m > MAX_BRANCHES:
        raise ValueError(f"certification supports at most {MAX_BRANCHES} branches, bank has {m}")
    r_min, r_max = resistance_interval
    resistance = f"r_g={r_min!r}" if r_min == r_max else f"r_g in [{r_min!r}, {r_max!r}]"

    def out_of_range(what):
        return CertificateError(f"{resistance}, l_g={p.l_g!r}, omega_g={p.omega_g!r} put the closed-form "
                                f"certificate outside the float range: {what}")

    p = replace(p, r_g=r_min)
    a = p.r_g / p.l_g
    try:
        c = min(0.01, p.r_g / (4.0 * max(m, 1) * (a ** 2 + p.omega_g ** 2) * p.l_g ** 2))
    except ArithmeticError:
        raise out_of_range("branch weight c: a square in its denominator overflows, or underflows to 0") from None
    omega = np.full((m + 1, 2), c / p.l_g)
    omega[0] = a
    upsilon = np.full((m * (m + 1) // 2, 2), 2.0 * c / p.l_g)
    upsilon[:m] = 1.0 / p.l_g  # the pairs (0, k)
    cert = IssCertificate(
        p_mat=np.eye(2),
        lam=np.full((m, 2), c),
        omega=omega,
        phi=(4.0 * p.l_g / p.r_g) * np.eye(2),
        upsilon=upsilon,
        resistance_interval=resistance_interval,
    )
    for f in fields(cert):
        if f.name != "report" and not np.all(np.isfinite(getattr(cert, f.name))):
            raise out_of_range(f"{f.name} has a non-finite entry")
    try:
        report = verify_certificate(p, bank, cert)
    except ValueError as exc:  # a non-finite product of finite entries
        raise out_of_range(exc) from None
    for name, value in report._asdict().items():
        if isinstance(value, float) and not math.isfinite(value):
            raise out_of_range(f"margins.{name} is not finite")
    return SearchResult(certificate=replace(cert, report=report), feasible=report.valid, starts_run=1)


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


class GradientCheckReport(NamedTuple):
    passes: bool
    max_value: float
    max_point: tuple
    n_violations: int


def sampled_gradient_check(p, bank, cert, cfg):
    """Evaluate the pointwise gradient condition on a square grid.

    The left side

        gradV' A x - (1/l_g) gradV' r(x) + |x|^2 + (eps / 2 l_g) |gradV|^2

    must be <= 0 everywhere for the condition to hold; sampling makes this
    a falsification check, not a proof. V is the composite V of ``cert``. A
    point whose left side is not <= 0 (NaN included, e.g. after an overflow)
    counts as a violation, so ``passes`` holds exactly when there are none.

    Grid point i*n + j is (axis[i], axis[j]). Every branch map acts on one
    axis at a time, so each is evaluated once per axis sample (n*M
    evaluations): its d value belongs to grid row i and its q value to grid
    column j. The grid is walked in blocks of whole rows, about
    :data:`BLOCK_POINTS` points each, with the d and q components of every
    per-point quantity in separate contiguous arrays. Memory is therefore
    O(BLOCK_POINTS + n*M) and does not grow with n^2, and a block's buffers
    are small enough for malloc to reuse from block to block and from call
    to call instead of mapping fresh pages.

    The report is bit-identical to evaluating :func:`lyapunov_gradients`
    and :func:`bank_values` on all n*n points at once: the products with P
    and A stay matrix products (``P @ (2 x)`` forms each entry with the
    same BLAS sum as ``2 x @ P'``), branch terms are added one branch at a
    time in bank order, each inner product is the d term plus the q term as
    the einsum forms it, and the blocks combine by the rules of
    ``np.argmax``: the first NaN, else the first maximum.
    """
    _check_dims(cert, bank)
    n = cfg.grid_points
    axis = np.linspace(-cfg.grid_radius, cfg.grid_radius, n)
    samples = np.column_stack([axis, axis])
    # per-axis rows: [0] is indexed by the grid row i, [1] by the grid column j
    terms = [(2.0 * lam_k * branch_values(branch, samples)).T.copy()
             for lam_k, branch in zip(cert.lam, bank.branches)]
    r = bank_values(bank, samples).T.copy()
    a_mat = system_matrix(p)
    sq = axis * axis
    eps_coeff = cfg.epsilon / (2.0 * p.l_g)

    rows = max(1, BLOCK_POINTS // n)
    worst, worst_value, n_violations = 0, math.nan, 0
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        x = np.empty((2, i1 - i0, n))   # x[:, i - i0, j] is grid point i*n + j
        x[0] = axis[i0:i1, None]
        x[1] = axis
        x = x.reshape(2, -1)
        gd, gq = (cert.p_mat @ (2.0 * x)).reshape(2, -1, n)
        axd, axq = (a_mat @ x).reshape(2, -1, n)
        for term in terms:
            gd += term[0, i0:i1, None]
            gq += term[1]
        lhs = (
            (gd * axd + gq * axq)
            - (gd * r[0, i0:i1, None] + gq * r[1]) / p.l_g
            + (sq[i0:i1, None] + sq)
            + eps_coeff * (gd * gd + gq * gq)
        ).ravel()
        k = int(np.argmax(lhs))
        value = float(lhs[k])
        # np.argmax over the whole grid: the first NaN, else the first maximum
        if i0 == 0 or (not math.isnan(worst_value) and (math.isnan(value) or value > worst_value)):
            worst, worst_value = i0 * n + k, value
        n_violations += int(np.count_nonzero(~(lhs <= 0.0)))
    return GradientCheckReport(
        passes=n_violations == 0,
        max_value=worst_value,
        max_point=(float(axis[worst // n]), float(axis[worst % n])),
        n_violations=n_violations,
    )
