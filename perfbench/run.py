#!/usr/bin/env python3
"""vrgrid benchmark: drives the public CLI in-process on seeded configs.

Usage, from the root of a vrgrid checkout:

    python3 perfbench/run.py --workload pulse_sweep --seed 0 --seconds 35 --trace 0

``--trace 0`` runs passes of the workload until ``--seconds`` have gone by
and reports the end-to-end metrics. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones plus the
tracing overhead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the environment and the gate results.
Times are scaled to a fixed host speed measured right before each set-up
and pass (see ``calibrate.py``); the unscaled times are printed too.

The run is a closed loop in one process and one thread: each command
starts after the previous one has finished. The measured process always
runs the pure-Python kernels (``VRGRID_DISABLE_NUMBA=1``), so results are
comparable whatever is installed. When numba can be imported, the numba
backend is run as well, in a child process, and reported separately;
results of the two backends are never compared.

A pass fails the correctness gate when a command exits non-zero, when its
artifacts differ from those of the run's first pass, when its metrics and
trajectories (certificate-derived content excluded) differ from the digest
recorded in ``perfbench/reference.json`` for the seed, or when a
certificate is invalid, violates the dissipation check or is refused by
``cli.load_certificate`` for its own bank. Exact work counts of traced
passes must repeat between passes and between runs of the same seed and
source tree; a difference aborts the benchmark.

Everything the benchmark writes goes under ``.bench_out/`` in the current
directory: configs and artifacts of the run (removed at the end), the
spans of the traced passes, a record of each result with its environment,
and the exact counts of each seed.
"""

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from calibrate import REFERENCE_S, calibrate
from tracing import Tracer, summarize
from workloads import BANKS, WORKLOADS, artifact_digests, reference_digest

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

# Exact work counts that must repeat from pass to pass and run to run.
EXACT_COUNTS = (
    "sim.rk4_loop.steps",
    "linalg.sym_eig.calls",
    "linalg.jacobi_sweeps",
    "cli.write_trajectory_csv.rows",
    "certify.starts_run",
    "certify.verify_certificate.calls",
    "cli.artifact_bytes",
)


class CommandFailed(RuntimeError):
    pass


def import_vrgrid():
    """Import the package afresh, so every set-up repetition pays for it."""
    for name in [m for m in sys.modules if m == "vrgrid" or m.startswith("vrgrid.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"vrgrid.{name}")
            for name in ("cli", "sim", "certify", "linalg", "_kernels")}
    return SimpleNamespace(kernels=mods.pop("_kernels"), **mods)


def install_trace(tracer, vr):
    """Wrap each traced function at the name its caller looks up."""
    bank_names = {json.dumps(bank, sort_keys=True): name for name, bank in BANKS.items()}

    def bank_name(args, _result):
        return bank_names.get(json.dumps(args[1].to_config(), sort_keys=True), "other")

    def search_note(_args, result):
        return [result.starts_run, bool(result.feasible)]

    sites = [
        (vr.cli, "load_config", "cli.load_config", None),
        (vr.cli, "write_trajectory_csv", "cli.write_trajectory_csv",
         lambda a, _r: len(range(0, len(a[1].times), a[2]))),
        (vr.cli, "integrate", "sim.integrate", bank_name),
        (vr.cli, "compute_metrics", "sim.compute_metrics", None),
        (vr.cli, "check_dissipation", "sim.check_dissipation", None),
        (vr.cli, "search_certificate", "certify.search_certificate", search_note),
        (vr.cli, "classify_bank", "bank.classify_bank", None),
        (vr.sim, "disturbance_profile", "sim.disturbance_profile", None),
        (vr.sim, "flatten_bank", "bank.flatten_bank", None),
        (vr.sim, "rk4_loop", "sim.rk4_loop", lambda a, _r: int(a[3])),
        (vr.sim, "lyapunov_values", "persidskii.lyapunov_values", lambda a, _r: len(a[2])),
        (vr.certify, "verify_certificate", "certify.verify_certificate", None),
        (vr.certify, "sampled_gradient_check", "certify.sampled_gradient_check", None),
        (vr.certify, "classify_bank", "bank.classify_bank", None),
        (vr.certify, "bank_values", "bank.bank_values", None),
        (vr.certify, "assemble_psi", "persidskii.assemble_psi", None),
        (vr.certify, "lyapunov_gradients", "persidskii.lyapunov_gradients", None),
        (vr.linalg, "sym_eig", "linalg.sym_eig", None),
        (vr.linalg, "jacobi_sweep", "linalg.jacobi_sweep", lambda _a, r: int(r)),
    ]
    for module, attr, name, note in sites:
        tracer.install(module, attr, name, note)


def run_pass(workload, vr, cfg_dir, out_dir, tracer=None):
    """Run one pass; returns its timings, artifacts and gate failures."""
    shutil.rmtree(out_dir, ignore_errors=True)
    command_s = {"sim": 0.0, "cert": 0.0}

    def command(argv, kind):
        span = tracer.open("cli.main", argv[0]) if tracer else None
        captured = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(captured), redirect_stderr(captured):
                code = vr.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            command_s[kind] += perf_counter() - t0
            if span is not None:
                tracer.close(span)
        if code != 0:
            raise CommandFailed(f"vrgrid {' '.join(argv)} exited {code}: {captured.getvalue().strip()}")

    first_span = len(tracer.spans) if tracer else 0
    failures = []
    extras = {}
    t0 = perf_counter()
    try:
        extras = workload.run(vr, cfg_dir, out_dir, command)
    except Exception as exc:  # a failed pass is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{type(exc).__name__}: {exc}")
    wall = perf_counter() - t0
    if tracer:
        tracer.uninstall()
    if not failures:
        try:
            failures += workload.check(vr, cfg_dir, out_dir)
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"artifact check: {type(exc).__name__}: {exc}")
    return SimpleNamespace(
        wall=wall,
        command_s=command_s,
        digests=artifact_digests(out_dir, extras),
        reference=reference_digest(out_dir) if workload.has_reference and not failures else None,
        failures=failures,
        spans=(first_span, len(tracer.spans)) if tracer else None,
    )


def layer_metrics(spans, first, last, artifact_bytes, scale):
    """{name: (value, unit)} of one traced pass, from spans[first:last].

    Times are multiplied by ``scale``, the pass's host-speed factor.
    """
    total, self_time, calls, notes = summarize(spans, first, last)
    total = defaultdict(float, {name: t * scale for name, t in total.items()})
    self_time = defaultdict(float, {name: t * scale for name, t in self_time.items()})

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    steps = sum(notes["sim.rk4_loop"])
    rows = sum(notes["cli.write_trajectory_csv"])
    searches = notes["certify.search_certificate"]
    out = {
        "sim.rk4_loop.s": (total["sim.rk4_loop"], "s"),
        "sim.rk4_loop.steps": (steps, "count"),
        "sim.rk4_us_per_step": (per(total["sim.rk4_loop"], steps, 1e6), "us"),
    }
    bank_s = dict.fromkeys(BANKS, 0.0)
    bank_steps = dict.fromkeys(BANKS, 0)
    for name, start, end, parent, note in spans[first:last]:
        if name == "sim.rk4_loop":
            bank = spans[parent][4]
            bank_s[bank] += (end - start) * scale
            bank_steps[bank] += note
    for bank in BANKS:
        out[f"sim.rk4_us_per_step.{bank}"] = (per(bank_s[bank], bank_steps[bank], 1e6), "us")
    out.update({
        "sim.integrate.self_s": (self_time["sim.integrate"], "s"),
        "sim.disturbance_profile.s": (total["sim.disturbance_profile"], "s"),
        "sim.compute_metrics.s": (total["sim.compute_metrics"], "s"),
        "sim.check_dissipation.s": (total["sim.check_dissipation"], "s"),
        "cli.write_trajectory_csv.s": (total["cli.write_trajectory_csv"], "s"),
        "cli.write_trajectory_csv.rows": (rows, "count"),
        "cli.csv_us_per_row": (per(total["cli.write_trajectory_csv"], rows, 1e6), "us"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
        "cli.load_config.s": (total["cli.load_config"], "s"),
        "persidskii.lyapunov_values.s": (total["persidskii.lyapunov_values"], "s"),
        "persidskii.lyapunov_values.points": (sum(notes["persidskii.lyapunov_values"]), "count"),
        "persidskii.lyapunov_gradients.s": (total["persidskii.lyapunov_gradients"], "s"),
        "persidskii.assemble_psi.calls": (calls["persidskii.assemble_psi"], "count"),
        "certify.search_certificate.s": (total["certify.search_certificate"], "s"),
        "certify.search_certificate.calls": (len(searches), "count"),
        "certify.starts_run": (sum(s for s, _ in searches), "count"),
        "certify.feasible_ratio": (per(sum(f for _, f in searches), len(searches), 1.0), "ratio"),
        "certify.verify_certificate.s": (total["certify.verify_certificate"], "s"),
        "certify.verify_certificate.calls": (calls["certify.verify_certificate"], "count"),
        "certify.sampled_gradient_check.s": (total["certify.sampled_gradient_check"], "s"),
        "linalg.sym_eig.s": (total["linalg.sym_eig"], "s"),
        "linalg.sym_eig.calls": (calls["linalg.sym_eig"], "count"),
        "linalg.sym_eig.us_per_call": (per(total["linalg.sym_eig"], calls["linalg.sym_eig"], 1e6), "us"),
        "linalg.jacobi_sweeps": (sum(notes["linalg.jacobi_sweep"]), "count"),
        "bank.classify_bank.s": (total["bank.classify_bank"], "s"),
        "bank.classify_bank.calls": (calls["bank.classify_bank"], "count"),
        "bank.bank_values.s": (total["bank.bank_values"], "s"),
        "bank.flatten_bank.s": (total["bank.flatten_bank"], "s"),
    })
    return out


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "vrgrid").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def check_counts(counts_path, counts):
    """Abort when the exact counts differ from an earlier run of this seed."""
    if counts_path.exists():
        earlier = json.loads(counts_path.read_text())
        if earlier != counts:
            diff = {k: (earlier.get(k), counts.get(k)) for k in counts if earlier.get(k) != counts.get(k)}
            raise SystemExit(f"perfbench: exact counts differ from an earlier run of this seed "
                             f"({counts_path}): {diff}")
    else:
        counts_path.parent.mkdir(parents=True, exist_ok=True)
        counts_path.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")


def run_numba_child(args):
    """Run the numba backend in its own process; returns (ok, lines)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(max(1, args.seconds // 2)),
            "--trace", str(args.trace), "--backend", "numba"]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, [f"numba backend: timed out after {CHILD_TIMEOUT_S} s"]
    lines = proc.stdout.splitlines()
    try:
        ok = proc.returncode == 0 and json.loads(lines[-1])["correct"] is True
    except (IndexError, ValueError, KeyError):
        ok = False
    return ok, [f"numba backend: {line}" for line in lines] + proc.stderr.splitlines()[-5:]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", choices=("fallback", "numba"), default="fallback",
                        help="kernel backend of this process (numba is used by the child run)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vrgrid" / "cli.py").is_file():
        print("perfbench: src/vrgrid not found; run from the root of a vrgrid checkout",
              file=sys.stderr)
        return 2
    if args.backend == "fallback":
        os.environ["VRGRID_DISABLE_NUMBA"] = "1"
    else:
        os.environ.pop("VRGRID_DISABLE_NUMBA", None)
    sys.path.insert(0, str(root / "src"))

    bench_out = root / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-{args.backend}"
    work = bench_out / f"{tag}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    cfg_dir, out_dir = work / "configs", work / "out"
    workload = WORKLOADS[args.workload](args.seed)

    # Set-up: import, config generation and one warm-up call per command,
    # repeated so that its median is steady. Every time is scaled by the
    # host speed measured just before it (see calibrate.py).
    setup_raw, setup_scaled, calibrations = [], [], []
    for _ in range(SETUP_REPEATS):
        calibrations.append(calibrate())
        t0 = perf_counter()
        vr = import_vrgrid()
        workload.prepare(vr, cfg_dir)
        warm = run_pass(workload, vr, cfg_dir / "warmup", work / "warmup")
        setup_raw.append(perf_counter() - t0)
        setup_scaled.append(setup_raw[-1] * REFERENCE_S / calibrations[-1])
        if warm.failures:
            print(f"perfbench: warm-up failed: {warm.failures}", file=sys.stderr)
            return 1

    env = {
        "python": sys.version.split()[0],
        "numpy": importlib.import_module("numpy").__version__,
        "numba_enabled": bool(vr.kernels.NUMBA_ENABLED),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "backend": args.backend,
        "trace": args.trace,
    }
    references = json.loads((HERE / "reference.json").read_text())
    expected = references.get(args.backend, {}).get(args.workload, {}).get(str(args.seed))

    tracer = Tracer()
    passes = []
    deadline = perf_counter() + args.seconds
    while len(passes) < 2 or perf_counter() < deadline or (args.trace and len(passes) % 2):
        traced = bool(args.trace) and len(passes) % 2 == 1
        calibrations.append(calibrate())
        if traced:
            install_trace(tracer, vr)
        passes.append(run_pass(workload, vr, cfg_dir / "full", out_dir, tracer if traced else None))
        passes[-1].scale = REFERENCE_S / calibrations[-1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in passes:
        if p.digests != passes[0].digests:
            changed = sorted(k for k in set(p.digests) | set(passes[0].digests)
                             if p.digests.get(k) != passes[0].digests.get(k))
            p.failures.append(f"artifacts differ from pass 0: {changed[:5]}")
        if expected is not None and p.reference is not None and p.reference != expected:
            p.failures.append(f"reference digest {p.reference} != recorded {expected}")
    failed = sum(1 for p in passes if p.failures)
    for i, p in enumerate(passes):
        for failure in p.failures:
            print(f"gate: pass {i} failed: {failure}")

    untraced = [p for p in passes if p.spans is None]
    traced = [p for p in passes if p.spans is not None]
    walls = [p.wall * p.scale for p in untraced]
    wall_s = statistics.median(walls)
    q1, q3 = quartiles(walls)
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"{args.workload}: {len(passes)} passes, {failed} failed, "
             f"reference digest {passes[0].reference or 'n/a'} "
             f"({'checked' if expected else 'no record for this seed'})",
             f"  times are scaled to a host that runs the calibration in {REFERENCE_S} s; "
             f"this host took {statistics.median(calibrations):.4f} s (median)"]
    e2e = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines.append(f"  wall_s               {wall_s:.6f} s  (median of {len(untraced)} untraced passes, "
                 f"quartiles {q1:.6f} .. {q3:.6f}; unscaled median "
                 f"{statistics.median(p.wall for p in untraced):.6f} s)")
    lines.append(f"  setup_s              {e2e['setup_s'][0]:.6f} s  (median of {SETUP_REPEATS} set-ups; "
                 f"unscaled {statistics.median(setup_raw):.6f} s)")
    if workload.sim_steps:
        sim_us = statistics.median(p.command_s["sim"] * p.scale for p in untraced) / workload.sim_steps * 1e6
        lines.append(f"  sim_us_per_step      {sim_us:.4f} us  ({workload.sim_steps} RK4 steps per pass)")
    if workload.problems:
        cert_ms = statistics.median(p.command_s["cert"] * p.scale for p in untraced) / workload.problems * 1e3
        lines.append(f"  cert_ms_per_problem  {cert_ms:.4f} ms  ({workload.problems} problems per pass)")
    lines.append(f"  peak_rss_mb          {peak_rss_mb:.3f} MB")
    lines.append(f"  fail_ratio           {failed / len(passes):.4f}  ({failed}/{len(passes)} passes)")

    if args.trace:
        per_pass = [layer_metrics(tracer.spans, *p.spans, sum(s for _, s in p.digests.values()), p.scale)
                    for p in traced]
        counts = {k: per_pass[0][k][0] for k in EXACT_COUNTS}
        for i, m in enumerate(per_pass[1:], 1):
            differ = {k: (counts[k], m[k][0]) for k in EXACT_COUNTS if m[k][0] != counts[k]}
            if differ:
                raise SystemExit(f"perfbench: exact counts of traced pass {i} differ from pass 0: {differ}")
        tracer.write(bench_out / f"spans-{tag}.json")
        check_counts(bench_out / "counts" / f"{tag}-{env['source_sha256'][:16]}.json", counts)
        # counts keep an observed value; times take the usual median
        layers = {k: ((statistics.median_low if unit in ("count", "bytes") else statistics.median)
                      (m[k][0] for m in per_pass), unit)
                  for k, (_, unit) in per_pass[0].items()}
        layers["trace.overhead_s"] = (statistics.median(p.wall * p.scale for p in traced) - wall_s, "s")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        lines.append(f"  per-layer metrics, median of {len(traced)} traced passes:")
        lines += [f"    {k:<36} {v:.6g} {u}" for k, (v, u) in layers.items()]
    else:
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    correct = failed == 0
    if args.backend == "fallback":
        if importlib.util.find_spec("numba") is None:
            lines.append("numba backend: not importable, fallback only")
        else:
            child_ok, child_lines = run_numba_child(args)
            lines += child_lines
            correct = correct and child_ok

    shutil.rmtree(work, ignore_errors=True)
    result = {"correct": correct, "attempted": len(passes), "failed": failed, "metrics": result_metrics}
    record = {"env": env, "result": result, "calibration_s": calibrations,
              "unscaled_setup_s": setup_raw, "unscaled_pass_wall_s": [p.wall for p in passes]}
    (bench_out / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
