"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is asserted, including the per-criterion wall-clock budget.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR,
    both_axes,
    bundled_banks,
    error_derivatives,
    nominal_params,
    passivity_ball,
    quadratic_certificate,
    random_certificate,
    stacked_coordinates,
    upsilon_pairs,
)

BUDGETS = {
    1: 1.0, 2: 1.0, 3: 10.0, 4: 60.0, 5: 5.0,
    6: 60.0, 7: 300.0, 8: 300.0, 9: 10.0, 10: 120.0,
}


class criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < BUDGETS[self.number], (
                f"criterion {self.number} exceeded its {BUDGETS[self.number]}s budget: {elapsed:.2f}s"
            )
        return False


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "vrgrid", *args],
                          capture_output=True, text=True)


def test_c01_parameter_fidelity():
    from vrgrid.cli import load_config

    with criterion(1, "bundled parameter set loads exactly"):
        cfg = load_config(CONFIG_DIR / "scenario1" / "linear.json")
        assert cfg.grid.l_g == 3.67e-4
        assert cfg.grid.r_g == 2.76e-2
        assert cfg.grid.omega_g == 2.0 * math.pi * 60.0
        assert tuple(cfg.grid.v_g_ref) == (392.0, 0.0)


def test_c02_system_matrix_oracle():
    from vrgrid.plant import system_matrix

    with criterion(2, "system matrix matches hand arithmetic"):
        a = system_matrix(nominal_params())
        np.testing.assert_allclose(
            a, [[-75.204, 376.991], [-376.991, -75.204]], rtol=1e-3
        )


def test_c03_reconstruction_identity():
    from vrgrid.bank import VrBank, VrElement
    from vrgrid.certify import assemble_psi, lyapunov_gradients
    from vrgrid.bank import branch_values

    with criterion(3, "z'Psi z equals the direct Vdot expansion (1e-8)"):
        p = nominal_params()
        rng = np.random.default_rng(3)
        cases = {
            0: VrBank(()),
            1: VrBank((both_axes((VrElement("linear", 1.0),)),)),
            2: bundled_banks()["multi_branch"],
            3: VrBank((
                both_axes((VrElement("linear", 0.5),)),
                both_axes((VrElement("cubic", 0.3),)),
                both_axes((VrElement("sinh", 0.4, 0.6), VrElement("tanh", 2.0, 0.3))),
            )),
        }
        for m, bank in cases.items():
            for _ in range(5):   # 20 certificates across M in {0, 1, 2, 3}
                cert = random_certificate(m, rng)
                psi = assemble_psi(p, cert)
                xs = rng.uniform(-100.0, 100.0, (10_000, 2))
                ds = rng.uniform(-500.0, 500.0, (10_000, 2))
                z = stacked_coordinates(bank, xs, ds, p.l_g)
                quad = np.einsum("ni,ij,nj->n", z, psi, z)

                grads = lyapunov_gradients(cert, bank, xs)
                direct = np.einsum("ni,ni->n", grads, error_derivatives(p, xs, bank, ds))
                direct = direct + np.einsum("ni,i,ni->n", xs, cert.omega[0], xs)
                rvals = [branch_values(b, xs) for b in bank.branches]
                ups = dict(zip(upsilon_pairs(m), cert.upsilon))
                for k in range(m):
                    direct += np.einsum("ni,i,ni->n", rvals[k], cert.omega[k + 1], rvals[k])
                    direct += 2.0 * np.einsum("ni,i,ni->n", xs, ups[0, k + 1], rvals[k])
                for s in range(1, m + 1):
                    for l in range(s + 1, m + 1):
                        direct += 2.0 * np.einsum(
                            "ni,i,ni->n", rvals[s - 1], ups[s, l], rvals[l - 1])
                w = -ds / p.l_g
                direct -= np.einsum("ni,ij,nj->n", w, cert.phi, w)

                scale = 1.0 + np.maximum(np.abs(quad), np.abs(direct))
                assert np.max(np.abs(quad - direct) / scale) <= 1e-8


def test_c04_certification_soundness(tmp_path):
    from vrgrid.bank import VrBank, VrElement
    from vrgrid.certify import lyapunov_gradients, verify_certificate
    from vrgrid.cli import load_certificate

    with criterion(4, "searched certificates verify and dissipate pointwise"):
        p = nominal_params()
        rng = np.random.default_rng(4)
        banks = {
            "certify_m0.json": VrBank(()),
            "certify_m1_linear.json": VrBank((both_axes((VrElement("linear", 1.0),)),)),
        }
        for cfg_name, bank in banks.items():
            out = tmp_path / cfg_name.replace(".json", "")
            res = _cli("certify", str(CONFIG_DIR / cfg_name), "--out", str(out))
            assert res.returncode == 0, res.stderr
            payload = json.loads((out / "certificate.json").read_text())
            assert payload["valid"] is True
            assert payload["margins"]["psi"] <= 1e-6

            cert = load_certificate(out / "certificate.json", bank)
            report = verify_certificate(p, bank, cert)
            assert report.valid
            cert = replace(cert, report=report)

            xs = rng.uniform(-100.0, 100.0, (100_000, 2))
            ds = rng.uniform(-500.0, 500.0, (100_000, 2))
            grads = lyapunov_gradients(cert, bank, xs)
            vdot = np.einsum("ni,ni->n", grads, error_derivatives(p, xs, bank, ds))
            rhs = (-report.varsigma * np.einsum("ni,ni->n", xs, xs)
                   + report.alpha * np.einsum("ni,ni->n", ds, ds))
            z = stacked_coordinates(bank, xs, ds, p.l_g)
            slack = 1e-8 * (1.0 + np.einsum("ni,ni->n", z, z))
            violations = np.count_nonzero(vdot > rhs + slack)
            assert violations == 0


def test_c05_negative_control():
    from vrgrid.bank import VrBank
    from vrgrid.certify import IssCertificate, verify_certificate
    from vrgrid.plant import system_matrix

    with criterion(5, "corrupting any single condition invalidates the certificate"):
        p = nominal_params()
        a = system_matrix(p)
        p_mat = np.eye(2)
        omega0 = 2.0 * (p.r_g / p.l_g) * np.eye(2) - np.eye(2)
        phi = 2.0 * p_mat @ np.linalg.inv(-(a.T + a + omega0)) @ p_mat
        cert = IssCertificate(p_mat=p_mat, lam=np.zeros((0, 2)),
                              omega=np.diag(omega0)[None, :], phi=phi, upsilon=np.zeros((0, 2)),
                              resistance_interval=(p.r_g, p.r_g))
        bank = VrBank(())
        assert verify_certificate(p, bank, cert).valid

        broken_p = replace(cert, p_mat=-cert.p_mat)
        assert not verify_certificate(p, bank, broken_p).valid

        omega_bad = cert.omega.copy()
        omega_bad[0, 0] = -omega_bad[0, 0]
        assert not verify_certificate(p, bank, replace(cert, omega=omega_bad)).valid

        assert not verify_certificate(p, bank, replace(cert, phi=np.zeros((2, 2)))).valid


def test_c06_integrator_order():
    from vrgrid.bank import VrBank, VrElement
    from vrgrid.sim import ConstantOffset, integrate

    with criterion(6, "measured RK4 order within [3.7, 4.3]"):
        p = nominal_params()
        elements = (VrElement("linear", 0.5), VrElement("cubic", 0.002), VrElement("sinh", 0.2, 0.1))
        bank = VrBank((both_axes(elements),))
        finals = []
        for dt in (4e-6, 2e-6, 1e-6):
            sc = ConstantOffset(t_end=1e-3, dt=dt, v_g_const=(50.0, 20.0))
            traj = integrate(p, bank, sc, i_err0=(30.0, -20.0))
            finals.append(traj.i_err[-1])
        order = math.log2(
            np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(finals[1] - finals[2])
        )
        assert 3.7 <= order <= 4.3, f"measured order {order:.3f}"


def test_c07_scenario1_pipeline(tmp_path):
    from vrgrid.bank import VrBank

    with criterion(7, "five-law comparison table and monotone pointwise damping"):
        out = tmp_path / "cmp"
        res = _cli("compare", str(CONFIG_DIR / "scenario1"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0] == "vr_law,settling_time_ms,rms_err_d_a,rms_err_q_a"
        assert len(rows) == 6   # header + five laws
        for row in rows[1:]:
            name, settle, rms_d, rms_q = row.split(",")
            assert settle != "" and np.isfinite(float(settle))
            assert np.isfinite(float(rms_d)) and np.isfinite(float(rms_q))

        # appending branches never increases d/dt |x|^2 at identical states
        p = nominal_params()
        bank = bundled_banks()["multi_branch"]
        prefixes = [VrBank(bank.branches[:k]) for k in range(len(bank.branches) + 1)]
        rng = np.random.default_rng(7)
        xs = rng.uniform(-50.0, 50.0, (10_000, 2))
        ds = rng.uniform(-200.0, 200.0, (10_000, 2))
        previous = None
        for prefix in prefixes:
            dv = 2.0 * np.einsum("ni,ni->n", xs, error_derivatives(p, xs, prefix, ds))
            if previous is not None:
                assert np.all(dv <= previous + 1e-9)
            previous = dv


def test_c08_scenario2_robustness():
    from vrgrid import linalg
    from vrgrid.certify import assemble_psi, search_certificate, verify_certificate
    from vrgrid.sim import RandomResistance, integrate

    # RK4 at dt = 1e-6 s, where dt * (r_g + bank slope) / l_g < 0.01 along
    # these runs: the per-step error is far below this share of the radius
    rk4_tol = 1e-6
    with criterion(8, "random-resistance runs stay in the passivity ball; one certificate covers both vertices"):
        p = nominal_params()
        sc = RandomResistance(t_end=1.0, dt=1e-6, seed=42)
        interval = sc.resistance_range(p)
        assert interval == (0.1 * p.r_g, 1.9 * p.r_g)
        banks = bundled_banks("scenario2")
        assert len(banks) == 5
        for name, bank in banks.items():
            peak, radius = passivity_ball(integrate(p, bank, sc))   # raises on numeric abort
            assert peak <= (1.0 + rk4_tol) * radius, f"{name}: peak {peak} A outside the ball of {radius} A"
            result = search_certificate(p, bank, interval)
            cert = result.certificate
            assert result.feasible and cert.report.varsigma > 0.0, f"{name}: no certificate of {interval}"
            np.testing.assert_array_equal(cert.resistance_interval, interval)
            for r_g in interval:
                psi = linalg.neg_semidef_margin(assemble_psi(replace(p, r_g=r_g), cert))
                assert psi <= linalg.TOL, f"{name}: Psi not negative semidefinite at r_g = {r_g}"
            # the interval is the certificate's: a grid at another r_g re-verifies it alike
            assert verify_certificate(replace(p, r_g=10.0 * p.r_g), bank, cert) == cert.report, name


def test_c09_gradient_condition_threshold():
    from vrgrid.bank import VrBank
    from vrgrid.certify import GradientCheckConfig, sampled_gradient_check

    with criterion(9, "sampled checker flips exactly at the hand-derived threshold"):
        p = nominal_params()
        threshold = p.r_g - p.l_g / 2.0
        assert threshold == pytest.approx(0.0274165)
        v = quadratic_certificate(np.eye(2))   # V = |x|^2
        below = sampled_gradient_check(p, VrBank(()), v, GradientCheckConfig(epsilon=0.99 * threshold))
        above = sampled_gradient_check(p, VrBank(()), v, GradientCheckConfig(epsilon=1.01 * threshold))
        assert below.passes
        assert not above.passes


def test_c10_determinism(tmp_path):
    with criterion(10, "reruns produce byte-identical metrics and certificates"):
        sim_cfg = CONFIG_DIR / "scenario1" / "multi_branch.json"
        a, b = tmp_path / "sim_a", tmp_path / "sim_b"
        assert _cli("simulate", str(sim_cfg), "--out", str(a), "--decimation", "100").returncode == 0
        assert _cli("simulate", str(sim_cfg), "--out", str(b), "--decimation", "100").returncode == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

        cert_cfg = CONFIG_DIR / "certify_m1_linear.json"
        c, d = tmp_path / "cert_a", tmp_path / "cert_b"
        assert _cli("certify", str(cert_cfg), "--out", str(c)).returncode == 0
        assert _cli("certify", str(cert_cfg), "--out", str(d)).returncode == 0
        assert (c / "certificate.json").read_bytes() == (d / "certificate.json").read_bytes()
