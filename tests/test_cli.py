import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CONFIG_DIR


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "vrgrid", *args],
        capture_output=True, text=True, env=full_env,
    )


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def small_config(name="tiny", bank=None, scenario=None, grid=None, **extra):
    doc = {
        "schema_version": 1,
        "name": name,
        "grid": grid or {"l_g": 3.67e-4, "r_g": 2.76e-2, "frequency_hz": 60.0},
        "bank": bank if bank is not None else [[{"kind": "linear", "k": 1.0}]],
        "scenario": scenario or {
            "kind": "voltage_pulse", "t_end": 0.01, "dt": 1e-5,
            "axis": "d", "amplitude_fraction": 0.4, "t_on": 0.002, "t_off": 0.003,
        },
    }
    doc.update(extra)
    return doc


def test_simulate_bundled_scenario1(tmp_path):
    out = tmp_path / "run"
    res = run_cli("simulate", str(CONFIG_DIR / "scenario1" / "multi_branch.json"),
                  "--out", str(out), "--decimation", "100")
    assert res.returncode == 0, res.stderr
    assert (out / "trajectory.csv").exists()
    assert (out / "manifest.json").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("rms_err_d_a", "rms_err_q_a", "peak_abs_err_d_a", "peak_abs_err_q_a"):
        assert np.isfinite(metrics[key])
    assert metrics["settled"] is True

    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,i_err_d,i_err_q,v_g_d,v_g_q,r_g,V"


def test_simulate_rejects_negative_resistance(tmp_path):
    cfg = small_config(grid={"l_g": 3.67e-4, "r_g": -1.0, "frequency_hz": 60.0})
    path = write_config(tmp_path / "bad.json", cfg)
    res = run_cli("simulate", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    err = json.loads(res.stdout.splitlines()[0])["error"]
    assert err["field"] == "grid.r_g"


def test_simulate_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path / "cfg.json", small_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", str(path), "--out", str(out1)).returncode == 0
    assert run_cli("simulate", str(path), "--out", str(out2)).returncode == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_simulate_unknown_key_rejected(tmp_path):
    doc = small_config()
    doc["grid"]["inductance"] = 1.0
    path = write_config(tmp_path / "cfg.json", doc)
    res = run_cli("simulate", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "inductance" in json.loads(res.stdout.splitlines()[0])["error"]["field"]

    # the certify section has no search block
    doc = small_config(certify={"enabled": True, "search": {"starts": 32}})
    path = write_config(tmp_path / "search.json", doc)
    res = run_cli("simulate", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert json.loads(res.stdout.splitlines()[0])["error"]["field"] == "certify.search"


def test_config_name_must_stay_inside_out_dir(tmp_path):
    d = tmp_path / "cfgs"
    d.mkdir()
    write_config(d / "escape.json", small_config(name="../../escaped"))
    out = tmp_path / "out" / "x" / "y"
    before = set(tmp_path.rglob("*"))
    res = run_cli("compare", str(d), "--out", str(out))
    assert res.returncode == 2
    assert json.loads(res.stdout.splitlines()[0])["error"]["field"] == "name"
    assert set(tmp_path.rglob("*")) == before


def test_seed_override_validated(tmp_path):
    doc = small_config(scenario={
        "kind": "random_resistance", "t_end": 0.01, "dt": 1e-5, "seed": 7,
        "t_start": 0.002, "t_stop": 0.008,
    })
    path = write_config(tmp_path / "rr.json", doc)
    res = run_cli("simulate", str(path), "--seed", "-1", "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert json.loads(res.stdout.splitlines()[0])["error"]["field"] == "seed"
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("decimation", ["0", "-5"])
def test_decimation_override_must_be_positive(tmp_path, decimation):
    path = write_config(tmp_path / "cfg.json", small_config())
    out = tmp_path / "o"
    res = run_cli("simulate", str(path), "--decimation", decimation, "--out", str(out))
    assert res.returncode == 2
    assert json.loads(res.stdout.splitlines()[0])["error"]["field"] == "output.decimation"
    assert not out.exists()


def test_simulate_numeric_abort_exit3(tmp_path):
    # dt at the upper limit makes the cubic loop RK4-unstable during the pulse
    doc = small_config(
        bank=[[{"kind": "cubic", "k": 0.5}]],
        scenario={"kind": "voltage_pulse", "t_end": 0.05, "dt": 1e-4,
                  "axis": "d", "amplitude_fraction": 0.4, "t_on": 0.01, "t_off": 0.02},
    )
    path = write_config(tmp_path / "stiff.json", doc)
    res = run_cli("simulate", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert json.loads(res.stdout.splitlines()[0])["error"]["kind"] == "numeric"


def test_certify_m0_bundled(tmp_path):
    out = tmp_path / "m0"
    res = run_cli("certify", str(CONFIG_DIR / "certify_m0.json"), "--out", str(out))
    assert res.returncode == 0, res.stderr
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["valid"] is True
    assert cert["margins"]["psi"] <= 1e-6
    assert cert["margins"]["varsigma"] > 0.0


def test_certify_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("certify", str(CONFIG_DIR / "certify_m1_linear.json"), "--out", str(out1)).returncode == 0
    assert run_cli("certify", str(CONFIG_DIR / "certify_m1_linear.json"), "--out", str(out2)).returncode == 0
    assert (out1 / "certificate.json").read_bytes() == (out2 / "certificate.json").read_bytes()


def test_certify_requires_enabled(tmp_path):
    path = write_config(tmp_path / "cfg.json", small_config())
    res = run_cli("certify", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert json.loads(res.stdout.splitlines()[0])["error"]["field"] == "certify.enabled"


def test_certify_rejects_invalid_bank_naming_branch(tmp_path):
    doc = small_config(bank=[[{"kind": "linear", "k": 1.0}], [{"kind": "linear", "k": -2.0}]],
                       certify={"enabled": True})
    path = write_config(tmp_path / "cfg.json", doc)
    res = run_cli("certify", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    err = json.loads(res.stdout.splitlines()[0])["error"]
    assert "bank[1]" in err["field"]


def test_certify_verbatim_mode_emits_warning(tmp_path):
    doc = small_config(
        bank=[[{"kind": "linear", "k": 1.0}], [{"kind": "linear", "k": 0.5}]],
        certify={"enabled": True, "mode": "verbatim"},
    )
    path = write_config(tmp_path / "cfg.json", doc)
    res = run_cli("certify", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode in (0, 4)
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert any("verbatim" in w for w in cert["warnings"])
    assert "psi_verbatim" in cert["margins"]


def test_certificate_roundtrip_and_fingerprint_guard(tmp_path):
    out = tmp_path / "m1"
    assert run_cli("certify", str(CONFIG_DIR / "certify_m1_linear.json"), "--out", str(out)).returncode == 0

    from vrgrid.bank import VrBank, VrBranch, linear
    from vrgrid.certify import verify_certificate
    from vrgrid.cli import load_certificate
    from vrgrid.plant import nominal_params

    bank = VrBank((VrBranch.of((linear(1.0),)),))
    cert = load_certificate(out / "certificate.json", bank)
    report = verify_certificate(nominal_params(), bank, cert)
    assert report.valid

    other = VrBank((VrBranch.of((linear(2.0),)),))
    with pytest.raises(ValueError, match="fingerprint"):
        load_certificate(out / "certificate.json", other)


def _tiny_compare_dir(tmp_path, names=("a", "b")):
    d = tmp_path / "cfgs"
    d.mkdir()
    for i, name in enumerate(names):
        write_config(d / f"{name}.json", small_config(
            name=name, bank=[[{"kind": "linear", "k": 1.0 + i}]],
        ))
    return d


def test_compare_table(tmp_path):
    d = _tiny_compare_dir(tmp_path, names=("a", "b", "c"))
    out = tmp_path / "cmp"
    res = run_cli("compare", str(d), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[0] == "vr_law,settling_time_ms,rms_err_d_a,rms_err_q_a"
    assert len(rows) == 4
    text = (out / "comparison.txt").read_text()
    assert text.splitlines()[0].split() == ["vr_law", "settling_time_ms", "rms_err_d_a", "rms_err_q_a"]


def test_compare_single_config(tmp_path):
    d = _tiny_compare_dir(tmp_path, names=("solo",))
    out = tmp_path / "cmp"
    res = run_cli("compare", str(d), "--out", str(out))
    assert res.returncode == 0
    assert len((out / "comparison.csv").read_text().splitlines()) == 2


def test_compare_empty_dir(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    res = run_cli("compare", str(d), "--out", str(tmp_path / "cmp"))
    assert res.returncode == 2


def test_compare_mismatched_scenarios(tmp_path):
    d = _tiny_compare_dir(tmp_path)
    doc = small_config(name="odd", scenario={
        "kind": "voltage_pulse", "t_end": 0.02, "dt": 1e-5,
        "axis": "d", "amplitude_fraction": 0.4, "t_on": 0.002, "t_off": 0.003,
    })
    write_config(d / "odd.json", doc)
    res = run_cli("compare", str(d), "--out", str(tmp_path / "cmp"))
    assert res.returncode == 2
    assert json.loads(res.stdout.splitlines()[0])["error"]["field"] == "scenario"


def test_certify_infeasible_exit4(tmp_path, monkeypatch, capsys):
    """Exit code 4 with a margin report when the certificate is infeasible.

    Any positive-resistance loop admits a certificate, so the infeasible
    branch is exercised by stubbing the construction result."""
    import vrgrid.cli as cli
    from vrgrid.certify import SearchResult, verify_certificate
    from vrgrid.persidskii import IssCertificate

    doc = small_config(bank=[], certify={"enabled": True})
    path = write_config(tmp_path / "cfg.json", doc)

    def fake_search(p, bank, mode="rederived"):
        cert = IssCertificate(p_mat=np.zeros((2, 2)), lam=np.zeros((0, 2)),
                              omega=np.zeros((1, 2)), phi=np.zeros((2, 2)))
        report = verify_certificate(p, bank, cert)
        from dataclasses import replace

        return SearchResult(certificate=replace(cert, report=report), report=report,
                            feasible=False, starts_run=1)

    monkeypatch.setattr(cli, "search_certificate", fake_search)
    args = cli.build_parser().parse_args(["certify", str(path), "--out", str(tmp_path / "o")])
    assert args.func(args) == 4
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    assert err["kind"] == "infeasible"
    # the margins are still reported in the certificate artifact
    payload = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert payload["valid"] is False
    assert "sigma" in payload["margins"]


def test_cli_writes_only_inside_out_dir(tmp_path):
    path = write_config(tmp_path / "cfg.json", small_config())
    out = tmp_path / "sandboxed"
    before = {p for p in tmp_path.rglob("*")}
    assert run_cli("simulate", str(path), "--out", str(out)).returncode == 0
    created = {p for p in tmp_path.rglob("*")} - before
    assert all(out in p.parents or p == out for p in created)
