"""Soundness fuzz of certification: a certified run keeps its certificate's
dissipation inequality over the scope the certificate claims.

Each example draws a grid (l_g and r_g at 10^[-1, 1] x the bundled values,
1-400 Hz), a bank of 0-3 branches of 1-2 elements of the kinds in
``conftest.EXAMPLE_TABLE`` within their parameter ranges, and a scenario of
a kind of ``sim.SCENARIO_KINDS`` on a 20 ms horizon at dt 1e-6. A kind's
window is drawn in whole steps; its other fields are drawn from
``SCENARIO_FIELDS`` by name, and a field not named there keeps its default,
so a new kind is fuzzed with no edit here.

The draw runs as a certified ``vrgrid simulate``. It must exit 0 with no
dissipation violation. Two outcomes are counted (``hypothesis.event``), not
failed: a certificate found infeasible before integration (exit 4 with no
metrics.json) and a numeric abort (exit 3). Every grid resistance of the
run's profile must lie in the scenario's ``resistance_range``, the interval
the certificate covers, and the certificate, loaded back and verified on
the run's grid, must give the verdict and margins its file states.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_TABLE, reverified
from vrgrid._kernels import ELEMENT_KINDS
from vrgrid.cli import load_config, main
from vrgrid.sim import SCENARIO_KINDS, disturbance_profile

L_G, R_G = 3.67e-4, 2.76e-2   # the bundled grid
T_END, DT = 0.02, 1e-6
N_STEPS = round(T_END / DT)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


# the scenario fields a draw sets, by name; the window keys are drawn apart
SCENARIO_FIELDS = {
    "seed": st.integers(0, 2 ** 64 - 1),
    "axis": st.sampled_from("dq"),
    "amplitude_fraction": st.floats(0.0, 1.0),
    "lo_fraction": log_uniform(-1.3, 0.0),
    "hi_fraction": log_uniform(0.0, 0.3),
    "resample_period": log_uniform(-5.0, -2.0),
    "v_g_const": st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)).map(list),
}


@st.composite
def elements(draw):
    element, ranges = draw(st.sampled_from(EXAMPLE_TABLE))
    values = [draw(st.floats(lo, hi)) for lo, hi in ranges]
    return {"kind": element.kind, **dict(zip(ELEMENT_KINDS[element.kind].params, values))}


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(SCENARIO_KINDS)))
    cls = SCENARIO_KINDS[kind]
    doc = {"kind": kind, "t_end": T_END, "dt": DT}
    doc.update({f.name: draw(SCENARIO_FIELDS[f.name]) for f in fields(cls) if f.name in SCENARIO_FIELDS})
    if cls.window_keys is not None:
        first = draw(st.integers(0, N_STEPS - 1))
        end = draw(st.integers(first + 1, N_STEPS))
        doc.update(zip(cls.window_keys, (first * DT, min(end * DT, T_END))))
    return doc


@st.composite
def certified_configs(draw):
    return {
        "schema_version": 1,
        "name": "fuzz",
        "grid": {"l_g": L_G * draw(log_uniform(-1.0, 1.0)), "r_g": R_G * draw(log_uniform(-1.0, 1.0)),
                 "frequency_hz": draw(st.floats(1.0, 400.0))},
        "bank": draw(st.lists(st.lists(elements(), min_size=1, max_size=2), max_size=3)),
        "scenario": draw(scenarios()),
        "certify": {"enabled": True},
        "output": {"decimation": 1000},
    }


# A tenth of the nominal r_g over a whole 1 s horizon on a 1 Hz grid with no
# bank: a certificate of the nominal point alone breaks its inequality here.
ONE_HZ_CASE = {
    "schema_version": 1,
    "name": "one_hz",
    "grid": {"l_g": L_G, "r_g": R_G, "frequency_hz": 1.0},
    "bank": [],
    "scenario": {"kind": "random_resistance", "t_end": 1.0, "dt": 1e-5, "seed": 0,
                 "lo_fraction": 0.1, "hi_fraction": 0.1, "t_start": 0.0, "t_stop": 1.0},
    "certify": {"enabled": True},
    "output": {"decimation": 1000},
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(doc=ONE_HZ_CASE)
@given(doc=certified_configs())
def test_certified_run_keeps_its_certificate(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        r_min, r_max = cfg.scenario.resistance_range(cfg.grid)
        _, r_g, _ = disturbance_profile(cfg.grid, cfg.scenario)
        assert r_min <= r_g.min() and r_g.max() <= r_max, (r_min, r_max, r_g.min(), r_g.max())

        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", str(path), "--out", str(out)])
        metrics = out / "metrics.json"
        if code == 3 or (code == 4 and not metrics.exists()):
            event("numeric abort (exit 3)" if code == 3 else "infeasible before integration (exit 4)")
            return
        assert code == 0, stdout.getvalue()
        dissipation = json.loads(metrics.read_text())["dissipation"]
        assert dissipation["n_violations"] == 0 and math.isfinite(dissipation["worst_margin"])
        certificate = json.loads((out / "certificate.json").read_text())
        assert certificate["valid"] and certificate["resistance_interval"] == [r_min, r_max]
        assert reverified(cfg, out / "certificate.json") == (certificate["valid"], certificate["margins"])
        event("certified run kept its inequality (exit 0)")
