"""Command-line front end: config ingestion, scenario runs, certification.

Exit codes: 0 success, 2 config/schema violation, 3 numeric abort,
4 certification infeasible. Errors are also emitted as a single JSON
object on stdout so sweep scripts can triage failures.

All artifacts are written atomically (temp file + rename) inside the
configured output directory and contain nothing time-dependent, so a rerun
with the same config produces byte-identical files.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import NUMBA_ENABLED
from .bank import SectorViolation, VrBank, VrBranch, bank_fingerprint, classify_bank
from .certify import iss_gain, search_certificate
from .persidskii import IssCertificate
from .plant import GridParams
from .sim import Scenario, SimulationAbort, check_dissipation, compute_metrics, integrate

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


def _expect_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"{path or 'config'} must be a JSON object")


def _check_keys(obj, path, required, optional=()):
    _expect_mapping(obj, path)
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, f"unknown key {key!r} in {path or 'config'}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}" if path else key, f"missing required key {key!r} in {path or 'config'}")


def _number(obj, path, key, default=None, minimum=None, strict_min=None, maximum=None):
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{path}.{key}", f"{path}.{key} must be a finite number")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}", f"{path}.{key} must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(f"{path}.{key}", f"{path}.{key} must be > {strict_min}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key}", f"{path}.{key} must be <= {maximum}, got {value}")
    return float(value)


def _pair(obj, path, key, default):
    value = obj.get(key, default)
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ConfigError(f"{path}.{key}", f"{path}.{key} must be a [d, q] pair of numbers")
    return float(value[0]), float(value[1])


def _parse_grid(section):
    _check_keys(section, "grid", required=("l_g", "r_g", "frequency_hz"), optional=("v_g_ref", "i_ref"))
    l_g = _number(section, "grid", "l_g", strict_min=0.0)
    r_g = _number(section, "grid", "r_g", strict_min=0.0)
    freq = _number(section, "grid", "frequency_hz", strict_min=0.0)
    v_g_ref = _pair(section, "grid", "v_g_ref", (392.0, 0.0))
    i_ref = _pair(section, "grid", "i_ref", (10.0, 0.0))
    # frequency is configured in Hz; the model consumes rad/s
    return GridParams(r_g=r_g, l_g=l_g, omega_g=2.0 * math.pi * freq,
                      v_g_ref=v_g_ref, i_ref=i_ref)


def _parse_bank(section):
    if not isinstance(section, list):
        raise ConfigError("bank", "bank must be a list of branches")
    branches = []
    for i, record in enumerate(section):
        try:
            branches.append(VrBranch.from_config(record))
        except ValueError as exc:
            raise ConfigError(f"bank[{i}]", f"bank[{i}]: {exc}") from exc
    return VrBank(tuple(branches))


def _parse_scenario(section, p):
    _expect_mapping(section, "scenario")
    kind = section.get("kind")
    common = ("kind", "t_end", "dt")
    try:
        if kind == "voltage_pulse":
            _check_keys(section, "scenario", required=common,
                        optional=("axis", "amplitude_fraction", "t_on", "t_off"))
            from .sim import scenario_voltage_pulse

            axis = section.get("axis", "d")
            if axis not in ("d", "q"):
                raise ConfigError("scenario.axis", "scenario.axis must be 'd' or 'q'")
            return scenario_voltage_pulse(
                p,
                t_end=_number(section, "scenario", "t_end", strict_min=0.0),
                dt=_number(section, "scenario", "dt", strict_min=0.0),
                axis=axis,
                amplitude_fraction=_number(section, "scenario", "amplitude_fraction", default=0.4, minimum=0.0),
                t_on=_number(section, "scenario", "t_on", default=0.1, minimum=0.0),
                t_off=_number(section, "scenario", "t_off", default=0.101, strict_min=0.0),
            )
        if kind == "random_resistance":
            _check_keys(section, "scenario", required=common + ("seed",),
                        optional=("lo_fraction", "hi_fraction", "t_start", "t_stop", "resample_period"))
            from .sim import scenario_random_resistance

            seed = section["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
                raise ConfigError("scenario.seed", "scenario.seed must be an integer in [0, 2**64)")
            return scenario_random_resistance(
                p,
                seed=seed,
                t_end=_number(section, "scenario", "t_end", strict_min=0.0),
                dt=_number(section, "scenario", "dt", strict_min=0.0),
                lo_fraction=_number(section, "scenario", "lo_fraction", default=0.1, strict_min=0.0),
                hi_fraction=_number(section, "scenario", "hi_fraction", default=1.9, strict_min=0.0),
                t_start=_number(section, "scenario", "t_start", default=0.2, minimum=0.0),
                t_stop=_number(section, "scenario", "t_stop", default=0.8, strict_min=0.0),
                resample_period=_number(section, "scenario", "resample_period", default=1e-3, strict_min=0.0),
            )
        if kind == "custom":
            _check_keys(section, "scenario", required=common, optional=("v_g_const",))
            from .sim import scenario_constant

            return scenario_constant(
                p,
                t_end=_number(section, "scenario", "t_end", strict_min=0.0),
                dt=_number(section, "scenario", "dt", strict_min=0.0),
                v_g=_pair(section, "scenario", "v_g_const", (0.0, 0.0)),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("scenario", f"scenario: {exc}") from exc
    raise ConfigError("scenario.kind", f"scenario.kind must be one of voltage_pulse, random_resistance, custom; got {kind!r}")


@dataclass(frozen=True)
class CertifySettings:
    enabled: bool
    mode: str


def _parse_certify(section):
    _check_keys(section, "certify", required=(), optional=("enabled", "mode"))
    enabled = section.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ConfigError("certify.enabled", "certify.enabled must be a boolean")
    mode = section.get("mode", "rederived")
    if mode not in ("rederived", "verbatim"):
        raise ConfigError("certify.mode", "certify.mode must be 'rederived' or 'verbatim'")
    return CertifySettings(enabled=enabled, mode=mode)


@dataclass(frozen=True)
class OutputSettings:
    directory: str
    decimation: int
    formats: tuple


def _parse_output(section):
    _check_keys(section, "output", required=(), optional=("directory", "decimation", "formats"))
    directory = section.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory", "output.directory must be a non-empty string")
    decimation = int(_number(section, "output", "decimation", default=10, minimum=1))
    formats = section.get("formats", ["csv", "json"])
    if (not isinstance(formats, list) or not formats
            or any(f not in ("csv", "json") for f in formats)):
        raise ConfigError("output.formats", "output.formats must be a non-empty list drawn from ['csv', 'json']")
    return OutputSettings(directory=directory, decimation=decimation, formats=tuple(formats))


@dataclass(frozen=True)
class RunConfig:
    name: str
    grid: GridParams
    bank: VrBank
    scenario: Scenario
    scenario_raw: dict
    certify: CertifySettings
    output: OutputSettings
    config_sha256: str


def load_config(path):
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError("", f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("", f"config {path} is not valid JSON: {exc}") from exc

    _check_keys(doc, "", required=("schema_version", "grid", "bank", "scenario"),
                optional=("name", "certify", "output"))
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported schema_version {doc['schema_version']!r}; expected {SCHEMA_VERSION}")
    name = doc.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "name must be a non-empty string")
    if name in (".", "..") or any(ch in name for ch in "/\\\0"):
        raise ConfigError("name", f"name must be a single path component, got {name!r}")

    grid = _parse_grid(doc["grid"])
    bank = _parse_bank(doc["bank"])
    scenario = _parse_scenario(doc["scenario"], grid)
    certify = _parse_certify(doc.get("certify", {}))
    output = _parse_output(doc.get("output", {}))
    return RunConfig(
        name=name,
        grid=grid,
        bank=bank,
        scenario=scenario,
        scenario_raw=doc["scenario"],
        certify=certify,
        output=output,
        config_sha256=hashlib.sha256(raw).hexdigest(),
    )


# --------------------------------------------------------------------------
# Artifact writers
# --------------------------------------------------------------------------

def _atomic_write(path, data):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _json_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def write_trajectory_csv(path, traj, decimation):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "i_err_d", "i_err_q", "v_g_d", "v_g_q", "r_g", "V"])
    idx = range(0, len(traj.times), decimation)
    for i in idx:
        row = [
            repr(float(traj.times[i])),
            repr(float(traj.i_err[i, 0])),
            repr(float(traj.i_err[i, 1])),
            repr(float(traj.v_dist[i, 0])),
            repr(float(traj.v_dist[i, 1])),
            repr(float(traj.r_g[i])),
            repr(float(traj.v_lyap[i])) if traj.v_lyap is not None else "",
        ]
        writer.writerow(row)
    _atomic_write(path, buf.getvalue().encode())


def certificate_payload(cert, bank, captured_warnings=()):
    report = cert.report
    ups = [
        {"s": s, "l": l, "diag": [float(v) for v in cert.upsilon[s, l]]}
        for s in range(cert.branch_count + 1)
        for l in range(s + 1, cert.branch_count + 1)
        if np.any(cert.upsilon[s, l] != 0.0)
    ]
    margins = report.margins_dict() if report else {}
    if report and report.valid and report.varsigma > 0.0:
        margins["iss_gain_slope"] = iss_gain(report)
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": cert.mode,
        "branch_count": cert.branch_count,
        "p": [[float(v) for v in row] for row in cert.p_mat],
        "lambda_diag": [[float(v) for v in row] for row in cert.lam],
        "omega_diag": [[float(v) for v in row] for row in cert.omega],
        "upsilon_diag": ups,
        "phi": [[float(v) for v in row] for row in cert.phi],
        "valid": bool(report.valid) if report else None,
        "margins": margins,
        "warnings": list(captured_warnings),
        "bank_fingerprint": bank_fingerprint(bank),
    }


def load_certificate(path, bank):
    """Read a certificate JSON back; refuses a bank/certificate mismatch."""
    doc = json.loads(Path(path).read_text())
    if doc.get("bank_fingerprint") != bank_fingerprint(bank):
        raise ValueError("certificate fingerprint does not match the supplied bank")
    m = int(doc["branch_count"])
    ups = np.zeros((m + 1, m + 1, 2))
    for rec in doc["upsilon_diag"]:
        ups[int(rec["s"]), int(rec["l"])] = rec["diag"]
    return IssCertificate(
        p_mat=np.array(doc["p"], dtype=float),
        lam=np.array(doc["lambda_diag"], dtype=float).reshape(m, 2),
        omega=np.array(doc["omega_diag"], dtype=float),
        phi=np.array(doc["phi"], dtype=float),
        upsilon=ups,
        mode=doc["mode"],
    )


def _manifest(cfg, extra=None):
    doc = {
        "config_name": cfg.name,
        "config_sha256": cfg.config_sha256,
        "schema_version": SCHEMA_VERSION,
        "package": "vrgrid",
        "version": __version__,
        "numpy_version": np.__version__,
        "numba_enabled": NUMBA_ENABLED,
        "scenario_seed": cfg.scenario.seed if cfg.scenario.kind == "random_resistance" else None,
    }
    if extra:
        doc.update(extra)
    return doc


def _emit_error(exit_code, kind, field, message):
    payload = {"error": {"exit_code": exit_code, "kind": kind, "field": field, "message": message}}
    print(json.dumps(payload, sort_keys=True))
    print(f"error [{kind}] {field or '-'}: {message}", file=sys.stderr)
    return exit_code


def _apply_overrides(cfg, args):
    if getattr(args, "out", None):
        cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
    decimation = getattr(args, "decimation", None)
    if decimation is not None:
        if decimation < 1:
            raise ConfigError("output.decimation", f"--decimation must be >= 1, got {decimation}")
        cfg = replace(cfg, output=replace(cfg.output, decimation=decimation))
    if getattr(args, "mode", None):
        cfg = replace(cfg, certify=replace(cfg.certify, mode=args.mode))
    if getattr(args, "seed", None) is not None and cfg.scenario.kind == "random_resistance":
        try:
            cfg = replace(cfg, scenario=replace(cfg.scenario, seed=args.seed))
        except ValueError as exc:
            raise ConfigError("seed", f"--seed: {exc}") from exc
    return cfg


def _run_certification(cfg):
    """(certificate-with-report, payload, feasible, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = search_certificate(cfg.grid, cfg.bank, cfg.certify.mode)
    messages = sorted({str(w.message) for w in caught})
    payload = certificate_payload(result.certificate, cfg.bank, messages)
    return result.certificate, payload, result.feasible, messages


def cmd_simulate(args):
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        classify_bank(cfg.bank)
    except SectorViolation as exc:
        return _emit_error(2, "config", f"bank[{exc.branch}]", str(exc))
    except ConfigError as exc:
        return _emit_error(2, "config", exc.field, str(exc))

    out_dir = Path(cfg.output.directory)
    cert = None
    extra = {}
    if cfg.certify.enabled:
        cert, payload, ok, _ = _run_certification(cfg)
        _atomic_write(out_dir / "certificate.json", _json_bytes(payload))
        if not ok:
            return _emit_error(4, "infeasible", "certify",
                               f"certification infeasible; best margins {payload['margins']}")
        extra["certificate"] = "certificate.json"

    try:
        traj = integrate(cfg.grid, cfg.bank, cfg.scenario, cert=cert)
    except SimulationAbort as exc:
        return _emit_error(3, "numeric", "scenario", str(exc))

    metrics = compute_metrics(traj, cfg.scenario)
    metrics_doc = metrics.to_dict()
    if cert is not None:
        metrics_doc["dissipation"] = check_dissipation(traj, cert).to_dict()

    if "csv" in cfg.output.formats:
        write_trajectory_csv(out_dir / "trajectory.csv", traj, cfg.output.decimation)
    if "json" in cfg.output.formats:
        _atomic_write(out_dir / "metrics.json", _json_bytes(metrics_doc))
        _atomic_write(out_dir / "manifest.json", _json_bytes(_manifest(cfg, extra)))
    print(f"simulate {cfg.name}: ok (settled={metrics.settled}, "
          f"rms_d={metrics.rms_err_d:.6g} A, rms_q={metrics.rms_err_q:.6g} A)")
    return 0


def cmd_certify(args):
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if not cfg.certify.enabled:
            raise ConfigError("certify.enabled", "certify.enabled must be true for the certify command")
        classify_bank(cfg.bank)
    except SectorViolation as exc:
        return _emit_error(2, "config", f"bank[{exc.branch}]", str(exc))
    except ConfigError as exc:
        return _emit_error(2, "config", exc.field, str(exc))

    out_dir = Path(cfg.output.directory)
    cert, payload, ok, _ = _run_certification(cfg)
    _atomic_write(out_dir / "certificate.json", _json_bytes(payload))
    _atomic_write(out_dir / "manifest.json", _json_bytes(_manifest(cfg, {"certificate": "certificate.json"})))
    if not ok:
        return _emit_error(4, "infeasible", "certify",
                           f"certification infeasible; best margins {payload['margins']}")
    print(f"certify {cfg.name}: valid (psi_margin={cert.report.psi_margin:.3e}, "
          f"gain_slope={iss_gain(cert.report):.6g})")
    return 0


def _format_table(rows):
    header = ["vr_law", "settling_time_ms", "rms_err_d_a", "rms_err_q_a"]
    cells = [header] + [
        [
            name,
            f"{m.settling_time_2pct_d * 1e3:.3f}" if m.settled else "unsettled",
            f"{m.rms_err_d:.4f}",
            f"{m.rms_err_q:.4f}",
        ]
        for name, m in rows
    ]
    widths = [max(len(r[j]) for r in cells) for j in range(len(header))]
    lines = []
    for i, r in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def cmd_compare(args):
    directory = Path(args.dir)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        return _emit_error(2, "config", "", f"no config files found in {directory}")

    configs = []
    try:
        for path in paths:
            cfg = _apply_overrides(load_config(path), args)
            classify_bank(cfg.bank)
            configs.append(cfg)
    except SectorViolation as exc:
        return _emit_error(2, "config", f"bank[{exc.branch}]", str(exc))
    except ConfigError as exc:
        return _emit_error(2, "config", exc.field, str(exc))

    reference = json.dumps(configs[0].scenario_raw, sort_keys=True)
    for cfg in configs[1:]:
        if json.dumps(cfg.scenario_raw, sort_keys=True) != reference:
            return _emit_error(2, "config", "scenario",
                               f"config {cfg.name!r} uses a different scenario than {configs[0].name!r}")

    out_root = Path(args.out) if args.out else Path(configs[0].output.directory)
    rows = []
    for cfg in configs:
        run_dir = out_root / cfg.name
        try:
            traj = integrate(cfg.grid, cfg.bank, cfg.scenario)
        except SimulationAbort as exc:
            return _emit_error(3, "numeric", cfg.name, str(exc))
        metrics = compute_metrics(traj, cfg.scenario)
        if "csv" in cfg.output.formats:
            write_trajectory_csv(run_dir / "trajectory.csv", traj, cfg.output.decimation)
        if "json" in cfg.output.formats:
            _atomic_write(run_dir / "metrics.json", _json_bytes(metrics.to_dict()))
            _atomic_write(run_dir / "manifest.json", _json_bytes(_manifest(cfg)))
        rows.append((cfg.name, metrics))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vr_law", "settling_time_ms", "rms_err_d_a", "rms_err_q_a"])
    for name, m in rows:
        writer.writerow([
            name,
            repr(m.settling_time_2pct_d * 1e3) if m.settled else "",
            repr(m.rms_err_d),
            repr(m.rms_err_q),
        ])
    _atomic_write(out_root / "comparison.csv", buf.getvalue().encode())
    table = _format_table(rows)
    _atomic_write(out_root / "comparison.txt", table.encode())
    print(table, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vrgrid",
        description="Virtual-resistance inverter control: simulate, certify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed_help = "override the random_resistance scenario seed"

    sp = sub.add_parser("simulate", help="run one scenario config")
    sp.add_argument("config")
    sp.add_argument("--decimation", type=int, help="trajectory CSV decimation factor")
    sp.add_argument("--mode", choices=("rederived", "verbatim"))
    sp.add_argument("--out", help="override the output directory")
    sp.add_argument("--seed", type=int, help=seed_help)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("certify", help="build and verify a stability certificate")
    sp.add_argument("config")
    sp.add_argument("--mode", choices=("rederived", "verbatim"))
    sp.add_argument("--out", help="override the output directory")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("compare", help="run every config in a directory, emit a metric table")
    sp.add_argument("dir")
    sp.add_argument("--decimation", type=int)
    sp.add_argument("--out", help="override the output directory")
    sp.add_argument("--seed", type=int, help=seed_help)
    sp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
