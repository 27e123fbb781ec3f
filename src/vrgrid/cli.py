"""Command-line front end: config ingestion, scenario runs, certification.

Exit codes: 0 success, 2 config/schema violation or an output location
that cannot be written, 3 numeric abort, 4 certification infeasible.
Errors are also emitted as a single JSON object on stdout so sweep
scripts can triage failures.

All artifacts are written atomically (temp file + rename) inside the
configured output directory and contain nothing time-dependent, so a rerun
with the same config produces byte-identical files.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import NUMBA_ENABLED
from .bank import SectorViolation, VrBank, VrBranch, bank_fingerprint, classify_bank, json_number
from .certify import MAX_BRANCHES, CertificateError, iss_gain, search_certificate
from .persidskii import IssCertificate
from .plant import GridParams
from .sim import (ConstantOffset, RandomResistance, Scenario, SimulationAbort, VoltagePulse,
                  check_dissipation, compute_metrics, integrate)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


class CertificationInfeasible(Exception):
    """Ends a certified command with exit 4, after its certificate.json is written."""


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


def _number(obj, path, key, strict_min=None):
    try:
        value = json_number(obj[key])
    except ValueError:
        raise ConfigError(f"{path}.{key}", f"{path}.{key} must be a finite number") from None
    if strict_min is not None and value <= strict_min:
        raise ConfigError(f"{path}.{key}", f"{path}.{key} must be > {strict_min}, got {value}")
    return value


def _pair(obj, path, key, default):
    value = obj.get(key, default)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return json_number(value[0]), json_number(value[1])
        except ValueError:
            pass
    raise ConfigError(f"{path}.{key}", f"{path}.{key} must be a [d, q] pair of finite numbers")


def _parse_grid(section):
    _check_keys(section, "grid", required=("l_g", "r_g", "frequency_hz"), optional=("v_g_ref", "i_ref"))
    l_g = _number(section, "grid", "l_g", strict_min=0.0)
    r_g = _number(section, "grid", "r_g", strict_min=0.0)
    freq = _number(section, "grid", "frequency_hz", strict_min=0.0)
    v_g_ref = _pair(section, "grid", "v_g_ref", (392.0, 0.0))
    i_ref = _pair(section, "grid", "i_ref", (10.0, 0.0))
    # frequency is configured in Hz; the model consumes rad/s
    try:
        return GridParams(r_g=r_g, l_g=l_g, omega_g=2.0 * math.pi * freq,
                          v_g_ref=v_g_ref, i_ref=i_ref)
    except ValueError as exc:
        raise ConfigError("grid", f"grid: {exc}") from exc


def _parse_bank(section):
    if not isinstance(section, list):
        raise ConfigError("bank", "bank must be a list of branches")
    branches = []
    for i, record in enumerate(section):
        try:
            branches.append(VrBranch.from_config(record))
        except ValueError as exc:
            raise ConfigError(f"bank[{i}]", f"bank[{i}]: {exc}") from exc
    try:
        bank = VrBank(tuple(branches))
    except ValueError as exc:
        raise ConfigError("bank", f"bank: {exc}") from exc
    try:
        classify_bank(bank)
    except SectorViolation as exc:
        raise ConfigError(f"bank[{exc.branch}]", f"bank[{exc.branch}]: {exc}") from exc
    return bank


SCENARIO_KINDS = {cls.kind: cls for cls in (VoltagePulse, RandomResistance, ConstantOffset)}


def _scenario_value(section, key):
    """``scenario.<key>`` read as its type; the scenario class checks its range."""
    value = section[key]
    if key == "seed":
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2 ** 64:
            raise ConfigError("scenario.seed", "scenario.seed must be an integer in [0, 2**64)")
        return value
    if key == "axis":
        return value
    if key == "v_g_const":
        return _pair(section, "scenario", key, None)
    return _number(section, "scenario", key)


def _parse_scenario(section):
    _expect_mapping(section, "scenario")
    kind = section.get("kind")
    cls = SCENARIO_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError("scenario.kind", f"scenario.kind must be one of {', '.join(SCENARIO_KINDS)}; got {kind!r}")
    keys = [f.name for f in fields(cls)]
    required = [f.name for f in fields(cls) if f.default is MISSING]
    _check_keys(section, "scenario", required=["kind", *required], optional=keys)
    values = {key: _scenario_value(section, key) for key in keys if key in section}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError("scenario", f"scenario: {exc}") from exc


def _parse_certify(section, bank):
    """Whether certification is enabled; ``mode`` may only name the one Psi layout."""
    _check_keys(section, "certify", required=(), optional=("enabled", "mode"))
    enabled = section.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ConfigError("certify.enabled", "certify.enabled must be a boolean")
    if section.get("mode", "rederived") != "rederived":
        raise ConfigError("certify.mode", "certify.mode must be 'rederived'")
    if enabled and bank.branch_count > MAX_BRANCHES:
        raise ConfigError("bank", f"bank: certification supports at most {MAX_BRANCHES} branches, "
                                  f"bank has {bank.branch_count}")
    return enabled


@dataclass(frozen=True)
class OutputSettings:
    directory: str
    decimation: int


def _parse_output(section):
    _check_keys(section, "output", required=(), optional=("directory", "decimation"))
    directory = section.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory", "output.directory must be a non-empty string")
    decimation = section.get("decimation", 10)
    if isinstance(decimation, bool) or not isinstance(decimation, int) or decimation < 1:
        raise ConfigError("output.decimation", f"output.decimation must be an integer >= 1, got {decimation!r}")
    return OutputSettings(directory=directory, decimation=decimation)


@dataclass(frozen=True)
class RunConfig:
    name: str
    grid: GridParams
    bank: VrBank
    scenario: Scenario
    certify: bool              # certification enabled
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
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long ints, deep nesting
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
    scenario = _parse_scenario(doc["scenario"])
    certify = _parse_certify(doc.get("certify", {}), bank)
    output = _parse_output(doc.get("output", {}))
    return RunConfig(
        name=name,
        grid=grid,
        bank=bank,
        scenario=scenario,
        certify=certify,
        output=output,
        config_sha256=hashlib.sha256(raw).hexdigest(),
    )


# --------------------------------------------------------------------------
# Artifact writers
# --------------------------------------------------------------------------

@contextmanager
def _atomic_open(path):
    """Binary file at a temp name beside ``path``, renamed onto it on success.

    The temp file is removed if the write or the rename fails. An OSError
    (a location that cannot be written) is raised as a ConfigError on
    ``output.directory``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as f:
                yield f
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError("output.directory", f"output.directory: cannot write {path}: {exc}") from exc


def _atomic_write(path, data):
    with _atomic_open(path) as f:
        f.write(data)


def _json_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


# trajectory.csv is written this many rows at a time, so the writer's memory
# does not grow with the horizon
_CSV_CHUNK_ROWS = 8192


def _repr_cells(col):
    """``repr`` of each float in ``col`` (a 1-D float64 array).

    Where at most half the values start a new run of bit-identical values
    (the piecewise-constant grid voltage and resistance), ``repr`` runs once
    per run. Runs are compared on the bits, because ``-0.0 == 0.0``.
    """
    bits = col.view(np.uint64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * len(starts) >= len(col):
        return map(repr, col.tolist())
    starts = np.concatenate(([0], starts))
    counts = np.diff(starts, append=len(col))
    return chain.from_iterable(map(repeat, map(repr, col[starts].tolist()), counts.tolist()))


def write_trajectory_csv(path, traj, decimation):
    """Write every ``decimation``-th step of ``traj`` as one CSV row.

    Each cell is the shortest round-trip ``repr`` of the float64 value; the
    ``V`` column is empty when ``traj.v_lyap`` is None. Rows are built a
    column at a time and streamed in blocks of ``_CSV_CHUNK_ROWS``.
    """
    series = [traj.times, traj.i_err[:, 0], traj.i_err[:, 1],
              traj.v_dist[:, 0], traj.v_dist[:, 1], traj.r_g]
    if traj.v_lyap is not None:
        series.append(traj.v_lyap)
    columns = [np.asarray(s, dtype=np.float64)[::decimation] for s in series]
    with _atomic_open(path) as f:
        f.write(b"t,i_err_d,i_err_q,v_g_d,v_g_q,r_g,V\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            cells = [_repr_cells(c[start:start + _CSV_CHUNK_ROWS]) for c in columns]
            if traj.v_lyap is None:
                cells.append(repeat(""))
            f.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode())


def certificate_payload(cert, bank):
    """certificate.json of a certificate with its report attached."""
    report = cert.report
    ups = [
        {"s": s, "l": l, "diag": [float(v) for v in cert.upsilon[s, l]]}
        for s in range(cert.branch_count + 1)
        for l in range(s + 1, cert.branch_count + 1)
        if np.any(cert.upsilon[s, l] != 0.0)
    ]
    margins = report.margins_dict()
    if report.valid and report.varsigma > 0.0:
        margins["iss_gain_slope"] = iss_gain(report)
    return {
        "schema_version": SCHEMA_VERSION,
        "branch_count": cert.branch_count,
        "p": [[float(v) for v in row] for row in cert.p_mat],
        "lambda_diag": [[float(v) for v in row] for row in cert.lam],
        "omega_diag": [[float(v) for v in row] for row in cert.omega],
        "upsilon_diag": ups,
        "phi": [[float(v) for v in row] for row in cert.phi],
        "valid": bool(report.valid),
        "margins": margins,
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
    )


def _emit_error(exit_code, kind, field, message):
    payload = {"error": {"exit_code": exit_code, "kind": kind, "field": field, "message": message}}
    print(json.dumps(payload, sort_keys=True))
    print(f"error [{kind}] {field or '-'}: {message}", file=sys.stderr)
    return exit_code


def _apply_overrides(cfg, args):
    out = getattr(args, "out", None)
    if out is not None:
        if not out:
            raise ConfigError("output.directory", "--out must be a non-empty path")
        cfg = replace(cfg, output=replace(cfg.output, directory=out))
    decimation = getattr(args, "decimation", None)
    if decimation is not None:
        if decimation < 1:
            raise ConfigError("output.decimation", f"--decimation must be >= 1, got {decimation}")
        cfg = replace(cfg, output=replace(cfg.output, decimation=decimation))
    if getattr(args, "seed", None) is not None and isinstance(cfg.scenario, RandomResistance):
        try:
            cfg = replace(cfg, scenario=replace(cfg.scenario, seed=args.seed))
        except ValueError as exc:
            raise ConfigError("seed", f"--seed: {exc}") from exc
    return cfg


def _certify(cfg):
    """(certificate with its report, certificate.json bytes) of a certified config.

    Grid values that put the certificate outside the float range raise
    ConfigError on field ``grid``. An infeasible certificate is written to
    the output directory with a manifest.json naming it, and raises
    CertificationInfeasible.
    """
    try:
        cert = search_certificate(cfg.grid, cfg.bank).certificate
    except CertificateError as exc:
        raise ConfigError("grid", f"grid: {exc}") from exc
    payload = certificate_payload(cert, cfg.bank)
    cert_json = _json_bytes(payload)
    if not cert.report.valid:
        _write_manifest(Path(cfg.output.directory), cfg, cert_json)
        raise CertificationInfeasible(f"certification infeasible; best margins {payload['margins']}")
    return cert, cert_json


def _run(cfg, cert=None):
    """Integrate one config: (trajectory, metrics, metrics.json record).

    Raises SimulationAbort on a non-finite state, and FloatingPointError
    when a number of the metrics record, ``dissipation`` included, is not
    finite; both end the command with exit 3 before the run writes a file.
    """
    traj = integrate(cfg.grid, cfg.bank, cfg.scenario, cert=cert)
    metrics = compute_metrics(traj, cfg.scenario)
    metrics_doc = metrics.to_dict()
    if cert is not None:
        metrics_doc["dissipation"] = check_dissipation(traj, cert).to_dict()
    records = {"": metrics_doc, "dissipation.": metrics_doc.get("dissipation", {})}
    for prefix, record in records.items():
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise FloatingPointError(f"metric {prefix}{key} is not finite: {value!r}")
    return traj, metrics, metrics_doc


def _write_manifest(run_dir, cfg, cert_json=None):
    """Write manifest.json into ``run_dir``, after the certificate.json it names, if any."""
    doc = {
        "config_name": cfg.name,
        "config_sha256": cfg.config_sha256,
        "schema_version": SCHEMA_VERSION,
        "package": "vrgrid",
        "version": __version__,
        "numpy_version": np.__version__,
        "numba_enabled": NUMBA_ENABLED,
        "scenario_seed": getattr(cfg.scenario, "seed", None),
    }
    if cert_json is not None:
        _atomic_write(run_dir / "certificate.json", cert_json)
        doc["certificate"] = "certificate.json"
    _atomic_write(run_dir / "manifest.json", _json_bytes(doc))


def _write_run(run_dir, cfg, traj, metrics_doc, cert_json=None):
    """Write a run's trajectory.csv, metrics.json, certificate.json and manifest.json."""
    write_trajectory_csv(run_dir / "trajectory.csv", traj, cfg.output.decimation)
    _atomic_write(run_dir / "metrics.json", _json_bytes(metrics_doc))
    _write_manifest(run_dir, cfg, cert_json)


def cmd_simulate(args):
    cfg = _apply_overrides(load_config(args.config), args)
    cert, cert_json = _certify(cfg) if cfg.certify else (None, None)
    try:
        traj, metrics, metrics_doc = _run(cfg, cert)
    except (SimulationAbort, FloatingPointError) as exc:
        return _emit_error(3, "numeric", "scenario", str(exc))

    _write_run(Path(cfg.output.directory), cfg, traj, metrics_doc, cert_json)
    print(f"simulate {cfg.name}: ok (settled={metrics.settled}, "
          f"rms_d={metrics.rms_err_d:.6g} A, rms_q={metrics.rms_err_q:.6g} A)")
    return 0


def cmd_certify(args):
    cfg = _apply_overrides(load_config(args.config), args)
    if not cfg.certify:
        raise ConfigError("certify.enabled", "certify.enabled must be true for the certify command")
    cert, cert_json = _certify(cfg)
    _write_manifest(Path(cfg.output.directory), cfg, cert_json)
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


COMPARE_OUTPUTS = ("comparison.csv", "comparison.txt")


def cmd_compare(args):
    directory = Path(args.dir)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ConfigError("", f"no config files found in {directory}")

    configs = [_apply_overrides(load_config(path), args) for path in paths]
    names = set()
    for cfg in configs:
        if cfg.scenario != configs[0].scenario:
            raise ConfigError("scenario", f"config {cfg.name!r} uses a different scenario than {configs[0].name!r}")
        # each name is a run directory beside the comparison files
        if cfg.name in names:
            raise ConfigError("name", f"name {cfg.name!r} is used by more than one config")
        if cfg.name in COMPARE_OUTPUTS:
            raise ConfigError("name", f"name {cfg.name!r} is the name of a comparison file")
        names.add(cfg.name)

    out_root = Path(configs[0].output.directory)  # --out, applied by _apply_overrides
    rows = []
    for cfg in configs:
        run_dir = out_root / cfg.name
        try:
            traj, metrics, metrics_doc = _run(cfg)
        except (SimulationAbort, FloatingPointError) as exc:
            return _emit_error(3, "numeric", cfg.name, str(exc))
        _write_run(run_dir, cfg, traj, metrics_doc)
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
    csv_name, txt_name = COMPARE_OUTPUTS
    _atomic_write(out_root / csv_name, buf.getvalue().encode())
    table = _format_table(rows)
    _atomic_write(out_root / txt_name, table.encode())
    print(table, end="")
    return 0


@functools.cache
def build_parser():
    """The argparse parser, built once per process (``main`` runs it per command)."""
    parser = argparse.ArgumentParser(
        prog="vrgrid",
        description="Virtual-resistance inverter control: simulate, certify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed_help = "override the random_resistance scenario seed"

    sp = sub.add_parser("simulate", help="run one scenario config")
    sp.add_argument("config")
    sp.add_argument("--decimation", type=int, help="trajectory CSV decimation factor")
    sp.add_argument("--out", help="override the output directory")
    sp.add_argument("--seed", type=int, help=seed_help)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("certify", help="build and verify a stability certificate")
    sp.add_argument("config")
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
    try:
        return args.func(args)
    except ConfigError as exc:
        return _emit_error(2, "config", exc.field, str(exc))
    except CertificationInfeasible as exc:
        return _emit_error(4, "infeasible", "certify", str(exc))


if __name__ == "__main__":
    sys.exit(main())
