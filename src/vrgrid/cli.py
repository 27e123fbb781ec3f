"""Command-line front end: config ingestion, scenario runs, certification.

Exit codes: 0 success, 2 config/schema violation or an output location
that cannot be written, 3 numeric abort, 4 certification infeasible or a
certified run that breaks its certificate's dissipation inequality.
The three :class:`Refusal` classes are the one table of exit codes and
error kinds; ``main`` reports a refusal as one JSON object on stdout, so
sweep scripts can triage failures, and one line on stderr. ``main`` owns numpy's
floating-point error state: a command prints no numpy warning, as every artifact
number passes an explicit check.

``simulate`` and ``certify`` pass the config's ``output.directory`` to the
run as its run directory; ``compare`` passes ``<--out>/<name>``, and each
refusal of that run is on field ``<name>``. All artifacts are written
atomically (temp file + rename) inside the run directory and contain nothing
time-dependent, so a rerun with the same config produces byte-identical files.
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
from dataclasses import MISSING, fields
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from ._kernels import ELEMENT_KINDS, NUMBA_ENABLED
from .bank import SectorViolation, VrBank, VrBranch, VrElement, bank_fingerprint, classify_bank
from .certify import MAX_BRANCHES, CertificateError, IssCertificate, search_certificate, sign_class_violation
from .plant import GridParams
from .sim import SCENARIO_KINDS, Scenario, SimulationAbort, check_dissipation, compute_metrics, integrate

SCHEMA_VERSION = 1

# the largest config or certificate file read. The largest legitimate one is the certificate of a
# 256-branch bank (the per-axis element limit): about 2.4 MB as certify writes it with every number
# at 17 digits, and 1.7 MB as compact JSON
MAX_INPUT_BYTES = 4 * 2 ** 20


class Refusal(Exception):
    """A failed command: ``main`` exits with its ``exit_code`` and reports ``kind``, ``field`` (where the
    fault is) and ``message`` (what is wrong, not repeating the field); ``str()`` joins the last two."""

    exit_code = kind = None  # set by each subclass below

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if field else message)


class ConfigError(Refusal, ValueError):
    """Exit 2: a refused input value, or an output location that cannot be written."""

    exit_code, kind = 2, "config"


class NumericAbort(Refusal):
    """Exit 3: a run whose state or metrics leave the float range, before it writes a file."""

    exit_code, kind = 3, "numeric"


class CertificationInfeasible(Refusal):
    """Exit 4: an infeasible certificate, or a certified run that breaks it; raised after writing why."""

    exit_code, kind = 4, "infeasible"


def _expect_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be a JSON object" if path else "config must be a JSON object")


def _check_keys(obj, path, required, optional=()):
    _expect_mapping(obj, path)
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_schema_version(value, field):
    if not _is_int(value) or value != SCHEMA_VERSION:
        raise ConfigError(field, f"must be the JSON integer {SCHEMA_VERSION}, got {value!r}")


# The types json.loads gives a JSON number; bool, a subclass of int, is not one of them.
_NUMBER_TYPES = frozenset((int, float))


def _numbers(value, shape, field):
    """The finite floats of ``value``, nested lists of exactly ``shape``, in row-major order: a tuple,
    or one float for shape ``()``. Only JSON numbers are taken: not bools, not strings, nothing beyond
    the float range. A refusal names the whole shape, whichever row breaks it."""
    rows = [value]
    for n in shape:
        if not all(isinstance(row, list) and len(row) == n for row in rows):
            break
        rows = [x for row in rows for x in row]
    else:
        if _NUMBER_TYPES.issuperset(map(type, rows)):
            try:
                floats = tuple(map(float, rows))
                if all(map(math.isfinite, floats)):
                    return floats if shape else floats[0]
            except OverflowError:  # an integer beyond the float range
                pass
    what = "finite numbers"
    for n in reversed(shape[1:]):
        what = f"lists of {n} {what}"
    raise ConfigError(field, f"must be a list of {shape[0]} {what}" if shape else "must be a finite number")


def _parse_elements(records, path):
    """The elements of one axis of a branch, each record ``{"kind": ..., <parameters>}``."""
    if not isinstance(records, list):
        raise ConfigError(path, "must be a list of element records")
    elements = []
    for j, record in enumerate(records):
        field = f"{path}[{j}]"
        _expect_mapping(record, field)
        kind = record.get("kind")
        row = ELEMENT_KINDS.get(kind) if isinstance(kind, str) else None
        if row is None:
            raise ConfigError(f"{field}.kind", f"must be one of {', '.join(sorted(ELEMENT_KINDS))}; got {kind!r}")
        _check_keys(record, field, required=("kind", *row.params))
        values = [_numbers(record[name], (), f"{field}.{name}") for name in row.params]
        try:
            elements.append(VrElement(kind, *values))
        except ValueError as exc:
            raise ConfigError(field, str(exc)) from exc
    return tuple(elements)


def _parse_bank(section):
    """Branches, each a list of elements for both axes or ``{"d": [...], "q": [...]}``."""
    if not isinstance(section, list):
        raise ConfigError("bank", "must be a list of branches")
    branches = []
    for i, record in enumerate(section):
        path = f"bank[{i}]"
        if isinstance(record, dict):
            _check_keys(record, path, required=("d", "q"))
            axes = [_parse_elements(record[axis], f"{path}.{axis}") for axis in "dq"]
        else:
            axes = [_parse_elements(record, path)] * 2
        try:
            branches.append(VrBranch(*axes))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    try:
        bank = VrBank(tuple(branches))
    except ValueError as exc:
        raise ConfigError("bank", str(exc)) from exc
    try:
        classify_bank(bank)
    except SectorViolation as exc:
        raise ConfigError(f"bank[{exc.branch}]", str(exc)) from exc
    return bank


def _field_value(section, path, key, field_type):
    """``<path>.<key>`` read as its field's type; the field's class checks its range."""
    field, value = f"{path}.{key}", section[key]
    if field_type is float:
        return _numbers(value, (), field)
    if field_type is tuple:
        return _numbers(value, (2,), field)
    if field_type is int and not _is_int(value):
        raise ConfigError(field, f"must be a JSON integer, got {value!r}")
    return value


def _read_fields(section, path, cls, required=()):
    """``cls`` from the keys of ``section``: its fields, each read by its type. Fields without a
    default and the keys ``required`` must be given; a range error of ``cls`` is on ``path``."""
    cls_fields = fields(cls)
    _check_keys(section, path, required=[*required, *(f.name for f in cls_fields if f.default is MISSING)],
                optional=[f.name for f in cls_fields])
    values = {f.name: _field_value(section, path, f.name, f.type) for f in cls_fields if f.name in section}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_scenario(section):
    _expect_mapping(section, "scenario")
    kind = section.get("kind")
    cls = SCENARIO_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError("scenario.kind", f"must be one of {', '.join(SCENARIO_KINDS)}; got {kind!r}")
    return _read_fields(section, "scenario", cls, required=("kind",))


def _parse_certify(section, bank):
    """Whether certification is enabled; ``mode`` may only name the one Psi layout."""
    _check_keys(section, "certify", required=(), optional=("enabled", "mode"))
    enabled = section.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ConfigError("certify.enabled", "must be a boolean")
    if section.get("mode", "rederived") != "rederived":
        raise ConfigError("certify.mode", "must be 'rederived'")
    if enabled and bank.branch_count > MAX_BRANCHES:
        raise ConfigError("bank", f"certification supports at most {MAX_BRANCHES} branches, "
                                  f"got {bank.branch_count}")
    return enabled


def _parse_output(section):
    _check_keys(section, "output", required=(), optional=("directory", "decimation"))
    directory = section.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory", "must be a non-empty string")
    decimation = section.get("decimation", 10)
    if not _is_int(decimation) or decimation < 1:
        raise ConfigError("output.decimation", f"must be an integer >= 1, got {decimation!r}")
    return {"directory": directory, "decimation": decimation}


class RunConfig(NamedTuple):
    name: str
    grid: GridParams
    bank: VrBank
    scenario: Scenario
    certify: bool              # certification enabled
    directory: str             # output.directory: the run directory of simulate and certify
    decimation: int            # output.decimation: every decimation-th step is a trajectory.csv row
    config_sha256: str


def _unique_keys(pairs):
    """``object_pairs_hook`` of the JSON readers: a key repeated in one object is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is repeated in one object")
        obj[key] = value
    return obj


def _read_json(path, what, field):
    """(bytes, document) of the UTF-8 JSON file ``path``, no key repeated in one object; a file
    that cannot be read, is longer than :data:`MAX_INPUT_BYTES` or cannot be parsed is a
    ConfigError on ``field`` naming ``what`` and ``path``. At most one byte past the bound is read."""
    try:
        with Path(path).open("rb") as file:
            # sized by the file's length, so a short file allocates no buffer of the bound's size
            want = min(os.fstat(file.fileno()).st_size, MAX_INPUT_BYTES) + 1
            raw = file.read(want)
            if len(raw) == want:  # longer than its length said: a pipe, a device or a growing file
                raw += file.read(MAX_INPUT_BYTES + 1 - want)
    except OSError as exc:  # missing, a directory, no permission
        raise ConfigError(field, f"cannot read {what} {path}: {exc}") from exc
    if len(raw) > MAX_INPUT_BYTES:
        raise ConfigError(field, f"{what} {path} is larger than {MAX_INPUT_BYTES} bytes")
    try:
        return raw, json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long ints, deep nesting
        raise ConfigError(field, f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path, overrides=()):
    """Parse and check the config at ``path``. ``overrides`` maps ``"section.key"`` to a
    value, as the flags do; it is written into the document before any section is read,
    so it meets the rules and error fields of that key in the file (not its sha256)."""
    path = Path(path)
    raw, doc = _read_json(path, "config", "")

    _check_keys(doc, "", required=("schema_version", "grid", "bank", "scenario"),
                optional=("name", "certify", "output"))
    _check_schema_version(doc["schema_version"], "schema_version")
    name = doc.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "must be a non-empty string")
    if name in (".", "..") or any(ch in name for ch in "/\\\0"):
        raise ConfigError("name", f"must be a single path component, got {name!r}")
    for dotted, value in dict(overrides).items():
        section, key = dotted.split(".")
        _expect_mapping(doc.setdefault(section, {}), section)
        doc[section][key] = value

    grid = _read_fields(doc["grid"], "grid", GridParams)
    bank = _parse_bank(doc["bank"])
    scenario = _parse_scenario(doc["scenario"])
    certify = _parse_certify(doc.get("certify", {}), bank)
    return RunConfig(
        name=name,
        grid=grid,
        bank=bank,
        scenario=scenario,
        certify=certify,
        **_parse_output(doc.get("output", {})),
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
        raise ConfigError("output.directory", f"cannot write {path}: {exc}") from exc


def _atomic_write(path, data):
    with _atomic_open(path) as f:
        f.write(data)


def _json_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


# trajectory.csv is written this many rows at a time, so the writer's memory
# does not grow with the horizon. Blocks of 1024 rows peak 3.8 MB below 8192
# on rr_certified's simulates at the same us/row (ROADMAP item 4 has the table).
_CSV_CHUNK_ROWS = 1024


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


# The arrays of certificate.json: key -> (IssCertificate field, shape for m branches)
CERTIFICATE_ARRAYS = {
    "p": ("p_mat", lambda m: (2, 2)),
    "lambda_diag": ("lam", lambda m: (m, 2)),
    "omega_diag": ("omega", lambda m: (m + 1, 2)),
    "phi": ("phi", lambda m: (2, 2)),
    "upsilon_diag": ("upsilon", lambda m: (m * (m + 1) // 2, 2)),
    "resistance_interval": ("resistance_interval", lambda m: (2,)),
}


def certificate_payload(cert, bank):
    """certificate.json of a certificate with its report attached: ``margins`` is the report's fields
    but ``valid``, leaving out a None ``iss_gain_slope``."""
    report = cert.report
    return {
        "schema_version": SCHEMA_VERSION,
        "branch_count": cert.branch_count,
        **{key: getattr(cert, name).tolist() for key, (name, _) in CERTIFICATE_ARRAYS.items()},
        "valid": bool(report.valid),
        "margins": {key: value for key, value in report._asdict().items() if key != "valid" and value is not None},
        "bank_fingerprint": bank_fingerprint(bank),
    }


def load_certificate(path, bank):
    """Read a valid certificate JSON back for ``bank``. A ConfigError (a ValueError) refuses a file it
    cannot read or parse on field ``certificate``, and on its field ``certificate.<key>`` another bank's
    certificate (checked first), an invalid or malformed one, one whose resistance interval is not
    0 < r_min <= r_max or one outside the sign class of :func:`vrgrid.certify.sign_class_violation`."""
    _, doc = _read_json(path, "certificate", "certificate")
    _expect_mapping(doc, "certificate")
    if doc.get("bank_fingerprint") != bank_fingerprint(bank):
        raise ConfigError("certificate.bank_fingerprint", "does not match the supplied bank")
    _check_keys(doc, "certificate", required=("schema_version", "branch_count", *CERTIFICATE_ARRAYS,
                                              "valid", "margins", "bank_fingerprint"))
    _check_schema_version(doc["schema_version"], "certificate.schema_version")
    if doc["valid"] is not True:
        raise ConfigError("certificate.valid", f"must be true, got {doc['valid']!r}")
    _expect_mapping(doc["margins"], "certificate.margins")
    m = doc["branch_count"]
    if not _is_int(m) or m != bank.branch_count:
        raise ConfigError("certificate.branch_count", f"must be the bank's {bank.branch_count}, got {m!r}")
    cert = IssCertificate(**{name: np.reshape(_numbers(doc[key], shape(m), f"certificate.{key}"), shape(m))
                             for key, (name, shape) in CERTIFICATE_ARRAYS.items()})
    if not 0.0 < cert.resistance_interval[0] <= cert.resistance_interval[1]:
        raise ConfigError("certificate.resistance_interval",
                          f"must satisfy 0 < r_min <= r_max, got {cert.resistance_interval.tolist()!r}")
    violation = sign_class_violation(cert)
    if violation is not None:
        name, reason = violation
        key = next(k for k, (attr, _) in CERTIFICATE_ARRAYS.items() if attr == name)
        raise ConfigError(f"certificate.{key}", reason)
    return cert


def _emit_error(exc):
    """Report refusal ``exc`` as one JSON object on stdout and one line on stderr; its exit code."""
    payload = {"error": {"exit_code": exc.exit_code, "kind": exc.kind, "field": exc.field, "message": exc.message}}
    print(json.dumps(payload, sort_keys=True))
    print(f"error [{exc.kind}] {exc.field or '-'}: {exc.message}", file=sys.stderr)
    return exc.exit_code


def _overrides(args):
    """The config values given as flags: each option's dest is the ``section.key`` it sets."""
    return {dest: value for dest, value in vars(args).items() if "." in dest and value is not None}


def _certify(cfg, run_dir, field):
    """(certificate with its report, certificate.json bytes) of a certified config.

    A resistance range outside the positive floats raises ConfigError on field ``scenario``, grid
    values that put the certificate outside the float range on field ``grid``. An infeasible
    certificate is written to ``run_dir`` with a manifest.json naming it, and raises
    CertificationInfeasible on ``field``.
    """
    try:
        interval = cfg.scenario.resistance_range(cfg.grid)
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from exc
    try:
        cert = search_certificate(cfg.grid, cfg.bank, interval).certificate
    except CertificateError as exc:
        raise ConfigError("grid", str(exc)) from exc
    payload = certificate_payload(cert, cfg.bank)
    cert_json = _json_bytes(payload)
    if not cert.report.valid:
        _write_manifest(run_dir, cfg, cert_json)
        raise CertificationInfeasible(field, f"certification infeasible; margins {payload['margins']}")
    return cert, cert_json


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


def _simulate(cfg, run_dir, name=None):
    """Run one config into ``run_dir``, certifying it first if enabled; its metrics.

    A state or a metrics number (``dissipation`` included) that is not finite
    raises NumericAbort before the run writes a file; an infeasible certificate,
    or a certified run that breaks its dissipation inequality, raises
    CertificationInfeasible after writing why. Each is on field ``name`` if
    given (``compare`` passes the config's), else on ``scenario`` or ``certify``.
    """
    numeric, infeasible = (name, name) if name else ("scenario", "certify")
    cert, cert_json = _certify(cfg, run_dir, infeasible) if cfg.certify else (None, None)
    try:
        traj = integrate(cfg.grid, cfg.bank, cfg.scenario, cert=cert)
    except SimulationAbort as exc:
        raise NumericAbort(numeric, str(exc)) from exc
    metrics = compute_metrics(traj, cfg.scenario)
    metrics_doc = metrics._asdict()
    if cert is not None:
        metrics_doc["dissipation"] = check_dissipation(traj, cert)._asdict()
    for prefix, record in (("", metrics_doc), ("dissipation.", metrics_doc.get("dissipation", {}))):
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericAbort(numeric, f"metric {prefix}{key} is not finite: {value!r}")

    write_trajectory_csv(run_dir / "trajectory.csv", traj, cfg.decimation)
    _atomic_write(run_dir / "metrics.json", _json_bytes(metrics_doc))
    _write_manifest(run_dir, cfg, cert_json)
    if cert is not None and metrics_doc["dissipation"]["n_violations"]:
        raise CertificationInfeasible(infeasible, "the certificate does not cover this run: {n_violations} steps "
                                      "break its dissipation inequality, worst margin {worst_margin!r} against "
                                      "a tolerance of {tol!r}".format(**metrics_doc["dissipation"]))
    return metrics


def cmd_simulate(args):
    cfg = load_config(args.config, _overrides(args))
    metrics = _simulate(cfg, Path(cfg.directory))
    print(f"simulate {cfg.name}: ok (settled={metrics.settled}, "
          f"rms_d={metrics.rms_err_d_a:.6g} A, rms_q={metrics.rms_err_q_a:.6g} A)")
    return 0


def cmd_certify(args):
    cfg = load_config(args.config, _overrides(args))
    if not cfg.certify:
        raise ConfigError("certify.enabled", "must be true for the certify command")
    run_dir = Path(cfg.directory)
    cert, cert_json = _certify(cfg, run_dir, "certify")
    _write_manifest(run_dir, cfg, cert_json)
    print(f"certify {cfg.name}: valid (psi_margin={cert.report.psi:.3e}, "
          f"gain_slope={cert.report.iss_gain_slope:.6g})")
    return 0


COMPARE_OUTPUTS = ("comparison.csv", "comparison.txt")
# The columns of both comparison files (one row per config): header, value of (config name,
# metrics) or None, and comparison.txt format. A comparison.csv cell is str(value), the
# shortest round-trip repr of a float, or empty for None; comparison.txt writes None as "unsettled".
COMPARE_COLUMNS = (
    ("vr_law", lambda name, m: name, ""),
    ("settling_time_ms", lambda name, m: m.settling_time_2pct_d_s * 1e3 if m.settled else None, ".3f"),
    ("rms_err_d_a", lambda name, m: m.rms_err_d_a, ".4f"),
    ("rms_err_q_a", lambda name, m: m.rms_err_q_a, ".4f"),
)


def cmd_compare(args):
    overrides = _overrides(args)
    if "output.directory" not in overrides:
        raise ConfigError("output.directory", "compare needs --out DIR, the root of its run directories")
    directory = Path(args.dir)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ConfigError("", f"no config files found in {directory}")

    configs = [load_config(path, overrides) for path in paths]
    names = set()
    for cfg in configs:
        if cfg.scenario != configs[0].scenario:
            raise ConfigError("scenario", f"config {cfg.name!r} differs from config {configs[0].name!r}")
        # each name is a run directory beside the comparison files
        if cfg.name in names:
            raise ConfigError("name", f"{cfg.name!r} is used by more than one config")
        if cfg.name in COMPARE_OUTPUTS:
            raise ConfigError("name", f"{cfg.name!r} is a comparison file")
        names.add(cfg.name)

    out_root = Path(configs[0].directory)
    header, values, formats = zip(*COMPARE_COLUMNS)
    rows = []
    for cfg in configs:
        # what simulate <config> --out <out_root>/<name> writes
        metrics = _simulate(cfg, out_root / cfg.name, cfg.name)
        rows.append([value(cfg.name, metrics) for value in values])

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + [["" if v is None else str(v) for v in r] for r in rows])
    cells = [header] + [["unsettled" if v is None else format(v, f) for v, f in zip(row, formats)] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    table = "\n".join(lines) + "\n"
    for name, text in zip(COMPARE_OUTPUTS, (buf.getvalue(), table)):
        _atomic_write(out_root / name, text.encode())
    print(table, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a command-line error as a ConfigError on the config key of the option it names, if any."""

    def error(self, message):
        action = self._option_string_actions.get(message.partition(":")[0].removeprefix("argument "))
        raise ConfigError(action.dest if action else "", message)


@functools.cache
def build_parser():
    """The argparse parser, built once per process (``main`` runs it per command).
    Each option's dest is the config key it sets, read by ``load_config`` as in the file."""
    parser = _Parser(
        prog="vrgrid",
        description="Virtual-resistance inverter control: simulate, certify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--decimation": dict(dest="output.decimation", metavar="N", type=int, help="trajectory CSV decimation factor"),
        "--out": dict(dest="output.directory", metavar="DIR", help="override the output directory"),
        "--seed": dict(dest="scenario.seed", metavar="U64", type=int, help="override the scenario's seed"),
    }
    for command, func, operand, options, text in (
        ("simulate", cmd_simulate, "config", ("--decimation", "--out", "--seed"), "run one scenario config"),
        ("certify", cmd_certify, "config", ("--out",), "build and verify a stability certificate"),
        ("compare", cmd_compare, "dir", ("--decimation", "--out", "--seed"),
         "run every config in a directory into --out DIR (required), emit a metric table"),
    ):
        sp = sub.add_parser(command, help=text)
        sp.add_argument(operand)
        for option in options:
            sp.add_argument(option, **flags[option])
        sp.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # a number that leaves the float range is refused by an explicit check
            return args.func(args)
    except Refusal as exc:
        return _emit_error(exc)
