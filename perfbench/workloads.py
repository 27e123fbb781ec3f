"""The benchmark's workloads: seeded inputs, one pass, and the pass's checks.

Every input is drawn from ``random.Random(seed)`` and written as a config
file, so the program sees only configs and the same seed always gives the
same configs. Each workload has a full-size config set, which the timed
passes run, and a short warm-up set that the set-up runs once per command.

Why each workload exists (BENCHMARK.json gives the same reasons):

* ``pulse_sweep`` is one ``vrgrid compare`` of the five bundled banks under
  a voltage pulse. RK4 integration is almost all of its time, so
  integrator changes show here and certification or CSV changes do not.
* ``rr_certified`` is one certified ``vrgrid simulate`` per bank under a
  random-resistance stream with decimation 1. It adds the Lyapunov log, the
  dissipation check and ten times the CSV rows per step to the integrator.
* ``certify_sweep`` is ``vrgrid certify`` on seed-drawn problems with 0 to 8
  branches of all five element kinds, each followed by reloading the
  certificate and a sampled gradient check. It integrates nothing.
"""

import hashlib
import json
import math
import random
from pathlib import Path

# Grid and banks of the bundled scenario configs (configs/scenario1 and
# configs/scenario2 use the same ones). They are copied here so that the
# benchmark's inputs do not change when the bundled configs do.
GRID = {"l_g": 0.000367, "r_g": 0.0276, "frequency_hz": 60.0, "i_ref": [10.0, 0.0]}
V_GRID = 392.0
BANKS = {
    "linear": [[{"kind": "linear", "k": 2.0}]],
    "cubic": [[{"kind": "cubic", "k": 0.5}]],
    "hybrid": [[{"kind": "linear", "k": 1.0}, {"kind": "cubic", "k": 0.25}]],
    "sinh": [[{"kind": "sinh", "a": 1.0, "b": 1.0}]],
    "multi_branch": [
        [{"kind": "linear", "k": 1.0}, {"kind": "cubic", "k": 0.25}],
        [{"kind": "sinh", "a": 0.5, "b": 0.5}, {"kind": "tanh", "a": 5.0, "b": 0.2}],
    ],
}
DT = 1e-6

# Horizons and problem counts size one pass at a few seconds on the
# pure-Python kernels. They are fixed, not drawn, so that the work in a
# pass is the same for every seed.
PULSE_T_END = 0.02
RR_T_END = 0.015
WARMUP_T_END = 3e-4
CERT_PROBLEMS = 27          # three problems for each branch count 0..8
CERT_MAX_BRANCHES = 8
ELEMENTS_PER_BRANCH = 2
GRADIENT_EPSILON = 1e-3

# log10 ranges of the element parameters drawn by certify_sweep
_ELEMENT_RANGES = {
    "linear": (("k", -1.0, 1.0),),
    "cubic": (("k", -2.0, 0.0),),
    "sinh": (("a", -1.0, 0.5), ("b", -1.3, 0.0)),
    "tanh": (("a", -0.5, 1.0), ("b", -1.3, 0.0)),
    "saturation": (("k", -1.0, 1.0), ("x_sat", 0.0, 1.5)),
}


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


def _write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _config(name, grid, bank, scenario, certify=False, decimation=10):
    doc = {
        "schema_version": 1,
        "name": name,
        "grid": grid,
        "bank": bank,
        "scenario": scenario,
        "output": {"directory": "out", "decimation": decimation},
    }
    if certify:
        doc["certify"] = {"enabled": True, "mode": "rederived"}
    return doc


def _canonical(path):
    """Bytes covered by the reference digest: no certificate-derived content.

    The Lyapunov column ``V`` of a trajectory and the ``dissipation`` record
    of metrics.json depend on the certificate, which a better certificate
    search may legitimately change.
    """
    if path.name == "trajectory.csv":
        lines = path.read_text().splitlines()
        return "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()
    if path.name == "metrics.json":
        doc = json.loads(path.read_text())
        doc.pop("dissipation", None)
        return json.dumps(doc, sort_keys=True).encode()
    return path.read_bytes()


def reference_digest(out_dir, names=("metrics.json", "trajectory.csv", "comparison.csv")):
    """sha256 over the canonical metrics, trajectories and comparison table."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.name in names):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(hashlib.sha256(_canonical(path)).digest())
    return h.hexdigest()


class PulseSweep:
    name = "pulse_sweep"
    has_reference = True

    def __init__(self, seed):
        rng = random.Random(seed)
        angle = math.radians(rng.uniform(15.0, 75.0))
        self.grid = dict(GRID, v_g_ref=[V_GRID * math.cos(angle), V_GRID * math.sin(angle)])
        t_on = rng.uniform(2e-3, 6e-3)
        self.pulse = {
            "kind": "voltage_pulse",
            "dt": DT,
            "axis": rng.choice(["d", "q"]),
            "amplitude_fraction": rng.uniform(0.2, 0.4),
            "t_on": t_on,
            "t_off": t_on + rng.uniform(5e-4, 2e-3),
        }
        self.sim_steps = len(BANKS) * round(PULSE_T_END / DT)
        self.problems = 0

    def prepare(self, vr, cfg_dir):
        short = dict(self.pulse, t_on=WARMUP_T_END / 3, t_off=WARMUP_T_END / 2)
        for name, bank in BANKS.items():
            _write_json(cfg_dir / "full" / f"{name}.json",
                        _config(name, self.grid, bank, dict(self.pulse, t_end=PULSE_T_END)))
            _write_json(cfg_dir / "warmup" / f"{name}.json",
                        _config(name, self.grid, bank, dict(short, t_end=WARMUP_T_END)))

    def run(self, vr, cfg_dir, out_dir, command):
        command(["compare", str(cfg_dir), "--out", str(out_dir)], "sim")
        return {}

    def check(self, vr, cfg_dir, out_dir):
        return []


class RrCertified:
    name = "rr_certified"
    has_reference = True

    def __init__(self, seed):
        rng = random.Random(seed)
        self.stream = {
            "kind": "random_resistance",
            "dt": DT,
            "seed": rng.getrandbits(64),
            "lo_fraction": rng.uniform(0.1, 0.5),
            "hi_fraction": rng.uniform(1.5, 1.9),
            "t_start": rng.uniform(1e-3, 3e-3),
            "t_stop": RR_T_END - rng.uniform(1e-3, 4e-3),
            "resample_period": rng.uniform(2e-4, 1e-3),
        }
        self.sim_steps = len(BANKS) * round(RR_T_END / DT)
        self.problems = 0
        self.banks = {}

    def prepare(self, vr, cfg_dir):
        grid = dict(GRID, v_g_ref=[V_GRID, 0.0])
        short = dict(self.stream, t_end=WARMUP_T_END, t_start=WARMUP_T_END / 6,
                     t_stop=WARMUP_T_END * 5 / 6, resample_period=WARMUP_T_END / 6)
        for name, bank in BANKS.items():
            _write_json(cfg_dir / "full" / f"{name}.json",
                        _config(name, grid, bank, dict(self.stream, t_end=RR_T_END),
                                certify=True, decimation=1))
        _write_json(cfg_dir / "warmup" / "multi_branch.json",
                    _config("multi_branch", grid, BANKS["multi_branch"], short,
                            certify=True, decimation=1))
        self.banks = {path.stem: vr.cli.load_config(path).bank
                      for path in sorted((cfg_dir / "full").glob("*.json"))}

    def run(self, vr, cfg_dir, out_dir, command):
        for path in sorted(cfg_dir.glob("*.json")):
            command(["simulate", str(path), "--out", str(out_dir / path.stem)], "sim")
        return {}

    def check(self, vr, cfg_dir, out_dir):
        failures = []
        for name in sorted(path.stem for path in cfg_dir.glob("*.json")):
            bank = self.banks[name]
            run_dir = out_dir / name
            if not json.loads((run_dir / "certificate.json").read_text())["valid"]:
                failures.append(f"{name}: certificate is not valid")
            violations = json.loads((run_dir / "metrics.json").read_text())["dissipation"]["n_violations"]
            if violations != 0:
                failures.append(f"{name}: {violations} dissipation violations")
            try:
                vr.cli.load_certificate(run_dir / "certificate.json", bank)
            except (ValueError, KeyError) as exc:
                failures.append(f"{name}: load_certificate refused its own bank: {exc}")
        return failures


class CertifySweep:
    name = "certify_sweep"
    has_reference = False   # its artifacts are certificates, which are left out

    def __init__(self, seed):
        rng = random.Random(seed)
        kinds = sorted(_ELEMENT_RANGES)
        rng.shuffle(kinds)
        element_index = 0
        self.docs = {}
        for i in range(CERT_PROBLEMS):
            grid = {
                "r_g": _log_uniform(rng, -3.0, 0.0),
                "l_g": _log_uniform(rng, -4.5, -2.0),
                "frequency_hz": _log_uniform(rng, 1.0, 3.0),
            }
            bank = []
            for _ in range(i % (CERT_MAX_BRANCHES + 1)):
                branch = []
                for _ in range(ELEMENTS_PER_BRANCH):
                    kind = kinds[element_index % len(kinds)]
                    element_index += 1
                    element = {"kind": kind}
                    for param, lo, hi in _ELEMENT_RANGES[kind]:
                        element[param] = _log_uniform(rng, lo, hi)
                    branch.append(element)
                bank.append(branch)
            scenario = {"kind": "voltage_pulse", "t_end": 1e-3, "dt": DT, "t_on": 1e-4, "t_off": 2e-4}
            name = f"p{i:02d}_m{len(bank)}"
            self.docs[name] = _config(name, grid, bank, scenario, certify=True)
        self.sim_steps = 0
        self.problems = CERT_PROBLEMS
        self.inputs = {}

    def prepare(self, vr, cfg_dir):
        for name, doc in self.docs.items():
            _write_json(cfg_dir / "full" / f"{name}.json", doc)
        first = next(iter(self.docs))
        _write_json(cfg_dir / "warmup" / f"{first}.json", self.docs[first])
        self.inputs = {}
        for name in self.docs:
            cfg = vr.cli.load_config(cfg_dir / "full" / f"{name}.json")
            self.inputs[name] = (cfg.grid, cfg.bank)

    def run(self, vr, cfg_dir, out_dir, command):
        check_cfg = vr.certify.GradientCheckConfig(epsilon=GRADIENT_EPSILON)
        reports = {}
        for path in sorted(cfg_dir.glob("*.json")):
            run_dir = out_dir / path.stem
            command(["certify", str(path), "--out", str(run_dir)], "cert")
            grid, bank = self.inputs[path.stem]
            cert = vr.cli.load_certificate(run_dir / "certificate.json", bank)
            report = vr.certify.sampled_gradient_check(grid, bank, cert, check_cfg)
            reports[f"{path.stem}/gradient_check"] = repr(report).encode()
        return reports

    def check(self, vr, cfg_dir, out_dir):
        return [f"{path.stem}: certificate is not valid" for path in sorted(cfg_dir.glob("*.json"))
                if not json.loads((out_dir / path.stem / "certificate.json").read_text())["valid"]]


WORKLOADS = {cls.name: cls for cls in (PulseSweep, RrCertified, CertifySweep)}


def artifact_digests(out_dir, extras):
    """{relative path: (sha256, size)} of every file written, plus extras."""
    out = {}
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        data = path.read_bytes()
        out[str(path.relative_to(out_dir))] = (hashlib.sha256(data).hexdigest(), len(data))
    for key, data in extras.items():
        out[key] = (hashlib.sha256(data).hexdigest(), 0)
    return out
