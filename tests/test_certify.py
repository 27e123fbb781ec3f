import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import both_axes, error_derivatives, nominal_params, random_certificate, stacked_coordinates
from vrgrid import linalg
from vrgrid._kernels import ELEMENT_KINDS
from vrgrid.bank import VrBank, VrBranch, VrElement, bank_values
from vrgrid.certify import (
    BLOCK_POINTS,
    CertificateError,
    GradientCheckConfig,
    GradientCheckReport,
    IssCertificate,
    VerifyReport,
    iss_gain,
    lyapunov_gradients,
    search_certificate,
    sampled_gradient_check,
    verify_certificate,
)
from vrgrid.plant import GridParams, system_matrix

EMPTY = VrBank(())
ONE_LINEAR = VrBank((both_axes((VrElement("linear", 1.0),)),))


def analytic_m0_certificate(p):
    """Quadratic certificate built by hand via a 2x2 Schur complement."""
    a = system_matrix(p)
    p_mat = np.eye(2)
    omega0 = 2.0 * (p.r_g / p.l_g) * np.eye(2) - np.eye(2)
    block11 = a.T @ p_mat + p_mat @ a + omega0          # = -I by construction
    phi = 2.0 * p_mat @ np.linalg.inv(-block11) @ p_mat
    return IssCertificate(
        p_mat=p_mat,
        lam=np.zeros((0, 2)),
        omega=np.diag(omega0)[None, :],
        phi=phi,
        upsilon=np.zeros((1, 1, 2)),
    )


def test_verify_analytic_m0_certificate():
    p = nominal_params()
    report = verify_certificate(p, EMPTY, analytic_m0_certificate(p))
    assert report.valid
    assert report.sigma_margin == pytest.approx(1.0)
    assert report.psi_margin < 0.0
    assert report.varsigma == pytest.approx(2.0 * p.r_g / p.l_g - 1.0)


def test_verify_all_zero_certificate_invalid():
    p = nominal_params()
    zero = IssCertificate(
        p_mat=np.zeros((2, 2)), lam=np.zeros((0, 2)),
        omega=np.zeros((1, 2)), phi=np.zeros((2, 2)), upsilon=np.zeros((1, 1, 2)),
    )
    report = verify_certificate(p, EMPTY, zero)
    assert not report.valid
    assert report.sigma_margin == pytest.approx(0.0, abs=1e-15)


def test_verify_homogeneity():
    """Scaling a certificate by c scales the sigma and xi margins by c; the
    psi margin is read after a diagonal congruence, so it is unchanged."""
    p = nominal_params()
    cert = analytic_m0_certificate(p)
    base = verify_certificate(p, EMPTY, cert)
    for c in (0.1, 10.0):
        scaled = IssCertificate(
            p_mat=c * cert.p_mat, lam=c * cert.lam,
            omega=c * cert.omega, phi=c * cert.phi, upsilon=c * cert.upsilon,
        )
        rep = verify_certificate(p, EMPTY, scaled)
        assert rep.valid == base.valid
        assert rep.sigma_margin == pytest.approx(c * base.sigma_margin, rel=1e-9)
        assert rep.xi_margin == pytest.approx(c * base.xi_margin, rel=1e-9)
        assert rep.psi_margin == pytest.approx(base.psi_margin, rel=1e-9)


def test_verify_negative_controls():
    """Corrupting each condition in turn flips the verdict."""
    p = nominal_params()
    cert = analytic_m0_certificate(p)
    assert verify_certificate(p, EMPTY, cert).valid

    flipped_p = replace(cert, p_mat=-cert.p_mat)
    rep = verify_certificate(p, EMPTY, flipped_p)
    assert not rep.valid and rep.sigma_margin < 0.0

    omega_bad = cert.omega.copy()
    omega_bad[0, 0] = -omega_bad[0, 0]
    rep = verify_certificate(p, EMPTY, replace(cert, omega=omega_bad))
    assert not rep.valid and rep.xi_margin < 0.0

    rep = verify_certificate(p, EMPTY, replace(cert, phi=np.zeros((2, 2))))
    assert not rep.valid and rep.psi_margin > 0.0


def test_verify_dimension_mismatch():
    p = nominal_params()
    with pytest.raises(ValueError, match="branches"):
        verify_certificate(p, ONE_LINEAR, analytic_m0_certificate(p))
    with pytest.raises(ValueError, match="branches"):
        sampled_gradient_check(p, ONE_LINEAR, analytic_m0_certificate(p), GradientCheckConfig(epsilon=1e-3))


def test_iss_gain():
    def rep(varsigma, alpha):
        return VerifyReport(valid=True, sigma_margin=1.0, xi_margin=1.0,
                            psi_margin=-1.0, varsigma=varsigma, alpha=alpha)

    assert iss_gain(rep(1.0, 4.0)) == pytest.approx(2.0)
    assert iss_gain(rep(3.7, 3.7)) == pytest.approx(1.0)
    assert iss_gain(rep(2.0, 8.0)) == pytest.approx(math.sqrt(2.0) * iss_gain(rep(2.0, 4.0)))
    with pytest.raises(CertificateError):
        iss_gain(rep(0.0, 1.0))
    with pytest.raises(CertificateError):
        iss_gain(None)


def test_search_m0_feasible():
    p = nominal_params()
    result = search_certificate(p, EMPTY)
    assert result.feasible
    rep = result.certificate.report
    assert rep.sigma_margin > 0 and rep.xi_margin > 0 and rep.psi_margin < 0
    assert min(rep.sigma_margin, rep.xi_margin, -rep.psi_margin, rep.varsigma) >= 1e-6


def test_search_m1_linear_feasible():
    p = nominal_params()
    result = search_certificate(p, ONE_LINEAR)
    assert result.feasible
    assert result.certificate.report.psi_margin <= -1e-6
    assert result.certificate.report.varsigma > 0.0


def test_search_preconditions():
    with pytest.raises(ValueError):
        GridParams(r_g=-1.0, l_g=3.67e-4, frequency_hz=60.0)
    p = nominal_params()
    nine = VrBank(tuple(both_axes((VrElement("linear", 1.0),)) for _ in range(9)))
    with pytest.raises(ValueError, match="at most 8"):
        search_certificate(p, nine)


def test_closed_form_certificate_sweep(rng):
    """The closed form is valid with every margin >= 1e-6 at unusual parameters
    and over random draws of r_g 1e-3..1 ohm, l_g 10^-4.5..1e-2 H,
    f 10..1000 Hz and 0..8 branches."""
    points = [(0.5, 2e-3, 100.0 / (2.0 * math.pi), 1)]  # omega_g = 100 rad/s
    for _ in range(200):
        points.append((
            10.0 ** rng.uniform(-3.0, 0.0),
            10.0 ** rng.uniform(-4.5, -2.0),
            10.0 ** rng.uniform(1.0, 3.0),
            int(rng.integers(0, 9)),
        ))
    for r_g, l_g, f, m in points:
        p = GridParams(r_g=r_g, l_g=l_g, frequency_hz=f)
        bank = VrBank(tuple(both_axes((VrElement("linear", 1.0),)) for _ in range(m)))
        rep = search_certificate(p, bank).certificate.report
        where = (r_g, l_g, f, m)
        assert rep.valid, where
        assert min(rep.sigma_margin, rep.xi_margin, -rep.psi_margin, rep.varsigma) >= 1e-6, where


def test_closed_form_certificate_valid_over_decades():
    """Psi is tested after a diagonal congruence, so the closed form is valid
    at every point of r_g 1e-8..1e4 ohm and l_g 1e-8..10 H in half decades,
    f in {1, 60, 1000} Hz and 0, 1 or 8 branches. Read in raw units, Psi's
    rounded lambda_max refuses 190 of these 4,275 points (e.g. r_g = 1e-8,
    l_g = 1, no branches, reads +2.5e-9 where the exact value is -7.5e-9)."""
    banks = [VrBank(tuple(both_axes((VrElement("linear", 1.0),)) for _ in range(m))) for m in (0, 1, 8)]
    r_gs = [10.0 ** (i / 2) for i in range(-16, 9)]
    l_gs = [10.0 ** (i / 2) for i in range(-16, 3)]
    worst = -math.inf
    for r_g, l_g, f, bank in itertools.product(r_gs, l_gs, (1.0, 60.0, 1000.0), banks):
        p = GridParams(r_g=r_g, l_g=l_g, frequency_hz=f)
        rep = search_certificate(p, bank).certificate.report
        assert rep.valid, (r_g, l_g, f, bank.branch_count, rep)
        worst = max(worst, rep.psi_margin)
    # the largest scaled lambda_max of the sweep is -(1 - 1/sqrt(2))
    assert worst == pytest.approx(-(1.0 - 1.0 / math.sqrt(2.0)), abs=1e-9)


def test_certified_pointwise_dissipation(rng, banks):
    """Valid certificate implies Vdot <= -varsigma|x|^2 + alpha|d|^2 pointwise."""
    p = nominal_params()
    for bank in (EMPTY, ONE_LINEAR, banks["multi_branch"]):
        result = search_certificate(p, bank)
        assert result.feasible
        cert, rep = result.certificate, result.certificate.report
        xs = rng.uniform(-100.0, 100.0, (30_000, 2))
        ds = rng.uniform(-500.0, 500.0, (30_000, 2))
        grads = lyapunov_gradients(cert, bank, xs)
        vdot = np.einsum("ni,ni->n", grads, error_derivatives(p, xs, bank, ds))
        rhs = (-rep.varsigma * np.einsum("ni,ni->n", xs, xs)
               + rep.alpha * np.einsum("ni,ni->n", ds, ds))

        z2 = np.einsum("ni,ni->n", *(stacked_coordinates(bank, xs, ds, p.l_g),) * 2)
        assert np.all(vdot <= rhs + 1e-8 * (1.0 + z2))


def test_cross_terms_nonnegative(rng, banks):
    """Sector maps make the dropped Upsilon cross terms nonnegative."""
    bank = banks["multi_branch"]
    xs = rng.uniform(-80.0, 80.0, (5000, 2))
    r1 = bank_values(VrBank((bank.branches[0],)), xs)
    r2 = bank_values(VrBank((bank.branches[1],)), xs)
    assert np.all(np.einsum("ni,ni->n", xs, r1) >= 0.0)
    assert np.all(np.einsum("ni,ni->n", xs, r2) >= 0.0)
    assert np.all(np.einsum("ni,ni->n", r1, r2) >= 0.0)


def test_gradient_check_config_validation():
    with pytest.raises(ValueError):
        GradientCheckConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        GradientCheckConfig(epsilon=0.01, grid_points=10)
    with pytest.raises(ValueError):
        GradientCheckConfig(epsilon=0.01, grid_points=200)
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid_radius"):
            GradientCheckConfig(epsilon=0.01, grid_radius=radius)
    for points in (201.0, True, "201"):
        with pytest.raises(ValueError, match="grid_points"):
            GradientCheckConfig(epsilon=0.01, grid_points=points)


def test_gradient_check_threshold_both_sides():
    """Empty bank, V = |x|^2: condition holds iff eps <= r_g - l_g/2."""
    p = nominal_params()
    threshold = p.r_g - p.l_g / 2.0
    assert threshold == pytest.approx(0.0274165)
    below = sampled_gradient_check(p, EMPTY, np.eye(2), GradientCheckConfig(epsilon=0.99 * threshold))
    above = sampled_gradient_check(p, EMPTY, np.eye(2), GradientCheckConfig(epsilon=1.01 * threshold))
    assert below.passes and below.max_value <= 0.0
    assert not above.passes and above.n_violations > 0
    assert below.disturbance_bound_coeff == pytest.approx(1.0 / (2.0 * p.l_g * 0.99 * threshold))


def test_gradient_check_large_epsilon_fails():
    p = nominal_params()
    report = sampled_gradient_check(p, EMPTY, np.eye(2), GradientCheckConfig(epsilon=1.0))
    assert isinstance(report, GradientCheckReport)
    assert not report.passes


def test_gradient_check_origin_contributes_zero():
    # In a passing configuration every off-origin point is strictly negative,
    # so the grid max is exactly the origin's contribution: 0.0.
    p = nominal_params()
    report = sampled_gradient_check(p, EMPTY, np.eye(2), GradientCheckConfig(epsilon=1e-3))
    assert report.passes
    assert report.max_value == 0.0
    assert report.max_point == (0.0, 0.0)


def test_gradient_check_accepts_certificate(banks):
    p = nominal_params()
    bank = banks["multi_branch"]
    result = search_certificate(p, bank)
    report = sampled_gradient_check(
        p, bank, result.certificate, GradientCheckConfig(epsilon=1e-4, grid_radius=20.0, grid_points=51)
    )
    assert isinstance(report.passes, bool)
    assert math.isfinite(report.max_value)


def test_gradient_check_counts_non_finite_points_as_violations():
    # sinh(20 x) overflows on most of the radius-50 grid, and the composite
    # gradient then meets inf - inf: those points are violations, not passes.
    p = nominal_params()
    bank = VrBank((both_axes((VrElement("sinh", 1.0, 20.0),)),))
    with np.errstate(over="ignore", invalid="ignore"):
        cert = search_certificate(p, bank).certificate
        report = sampled_gradient_check(p, bank, cert, GradientCheckConfig(epsilon=1e-3))
    assert math.isnan(report.max_value)
    assert not report.passes
    assert report.n_violations > 0


_ELEMENT_PARAMS = {
    "linear": ((0.1, 5.0),),
    "cubic": ((1e-3, 1.0),),
    "sinh": ((0.01, 1.0), (0.01, 0.5)),
    "tanh": ((0.1, 10.0), (0.01, 1.0)),
    "saturation": ((0.1, 5.0), (0.5, 30.0)),
}


def test_element_params_cover_the_table():
    # a kind added to vrgrid._kernels.ELEMENT_KINDS must get parameter ranges here
    assert sorted(_ELEMENT_PARAMS) == sorted(ELEMENT_KINDS)
    for kind, ranges in _ELEMENT_PARAMS.items():
        assert len(ranges) == len(ELEMENT_KINDS[kind].params)


def _random_axis_bank(rng, m):
    """m branches with different elements on d and q, cycling through all kinds."""
    kinds = itertools.cycle(sorted(ELEMENT_KINDS))

    def elements():
        return [VrElement(kind, *(float(rng.uniform(lo, hi)) for lo, hi in _ELEMENT_PARAMS[kind]))
                for kind in itertools.islice(kinds, int(rng.integers(1, 3)))]

    return VrBank(tuple(VrBranch(tuple(elements()), tuple(elements())) for _ in range(m)))


def _full_grid_gradient_check(p, bank, v_spec, cfg):
    """Reference: the gradient and bank maps evaluated on all n*n grid points."""
    axis = np.linspace(-cfg.grid_radius, cfg.grid_radius, cfg.grid_points)
    gd, gq = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gd.ravel(), gq.ravel()])
    if isinstance(v_spec, IssCertificate):
        grads = lyapunov_gradients(v_spec, bank, pts)
    else:
        grads = 2.0 * pts @ linalg.symmetrize(np.asarray(v_spec, dtype=float)).T
    a = system_matrix(p)
    lhs = (
        np.einsum("ni,ni->n", grads, pts @ a.T)
        - np.einsum("ni,ni->n", grads, bank_values(bank, pts)) / p.l_g
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


@pytest.mark.parametrize("grid_points", [11, 51, 201])
@pytest.mark.parametrize("grid_radius", [20.0, 50.0])
def test_gradient_check_matches_full_grid_oracle(rng, grid_points, grid_radius):
    """Per-axis evaluation gives the full-grid report bit for bit."""
    grids = [nominal_params(), GridParams(r_g=0.3, l_g=2e-3, frequency_hz=50.0)]
    for p in grids:
        for m in (1, 2, 3):
            bank = _random_axis_bank(rng, m)
            assert not all(b.same_both_axes for b in bank.branches)
            quad = rng.uniform(-1.0, 1.0, (2, 2))
            specs = [
                random_certificate(m, rng),
                search_certificate(p, bank).certificate,
                np.array([[1.5, 0.3], [0.3, 0.8]]),
                quad + quad.T,
            ]
            for epsilon in (1e-4, 1e-2):
                cfg = GradientCheckConfig(epsilon=epsilon, grid_radius=grid_radius, grid_points=grid_points)
                for spec in specs:
                    assert repr(sampled_gradient_check(p, bank, spec, cfg)) == repr(
                        _full_grid_gradient_check(p, bank, spec, cfg))


def test_gradient_check_block_boundaries_match_oracle(rng):
    """Reports that depend on how blocks combine equal the full-grid oracle."""
    p = nominal_params()

    cfg = GradientCheckConfig(epsilon=1e-2, grid_points=401)
    rows = BLOCK_POINTS // cfg.grid_points
    assert cfg.grid_points > 2 * rows and cfg.grid_points % rows  # >= 3 blocks, the last partial
    bank = _random_axis_bank(rng, 3)
    for spec in (search_certificate(p, bank).certificate, np.array([[1.5, 0.3], [0.3, 0.8]])):
        assert repr(sampled_gradient_check(p, bank, spec, cfg)) == repr(
            _full_grid_gradient_check(p, bank, spec, cfg))

    # grad_q = 2 d is 0 only on the middle row d = 0, where it meets
    # r_q = sinh(20 q) = inf: the first NaN of the grid lies in a later block
    # (elsewhere r_q = inf gives +-inf), and it must still win
    bank = VrBank((VrBranch((VrElement("linear", 1.0),), (VrElement("sinh", 1.0, 20.0),)),))
    spec = np.array([[1.0, 1.0], [1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        report = sampled_gradient_check(p, bank, spec, cfg)
        assert repr(report) == repr(_full_grid_gradient_check(p, bank, spec, cfg))
    assert math.isnan(report.max_value) and report.max_point[0] == 0.0
    assert not report.passes

    # V = |x|^2 and no bank: lhs is even in x bit for bit, so its maximum on
    # the row d = -50 (first block) recurs at -x on the row d = +50 (last
    # block); the first occurrence wins
    cfg = GradientCheckConfig(epsilon=1.0, grid_points=401)
    report = sampled_gradient_check(p, EMPTY, np.eye(2), cfg)
    assert repr(report) == repr(_full_grid_gradient_check(p, EMPTY, np.eye(2), cfg))
    assert report.max_point[0] == -cfg.grid_radius


def test_gradient_check_memory_is_blocked(banks):
    """A 1001-point grid (1e6 points) peaks at a few block-sized buffers."""
    p = nominal_params()
    bank = banks["multi_branch"]
    cert = search_certificate(p, bank).certificate
    cfg = GradientCheckConfig(epsilon=1e-3, grid_points=1001)
    tracemalloc.start()
    try:
        sampled_gradient_check(p, bank, cert, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
