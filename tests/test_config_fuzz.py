"""Fuzz of the config loader: any document, with or without flag values
written over its keys, yields a RunConfig or a ConfigError.

Each example starts from a valid config and applies a few random edits
(replace a value with garbage, delete a key or item, add one) at random
depths; the garbage covers wrong types, integers too large for a float,
non-finite floats and nested containers.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vrgrid.cli import ConfigError, RunConfig, load_config

GRID = {"l_g": 3.67e-4, "r_g": 2.76e-2, "frequency_hz": 60.0,
        "v_g_ref": [392.0, 0.0], "i_ref": [10.0, 0.0]}
BANK = [
    [{"kind": "linear", "k": 1.0}, {"kind": "cubic", "k": 0.25}],
    {"d": [{"kind": "sinh", "a": 0.5, "b": 0.5}], "q": [{"kind": "saturation", "k": 2.0, "x_sat": 1.5}]},
    [{"kind": "tanh", "a": 5.0, "b": 0.2}],
]
SCENARIOS = [
    {"kind": "voltage_pulse", "t_end": 0.01, "dt": 1e-5, "axis": "q",
     "amplitude_fraction": 0.4, "t_on": 0.002, "t_off": 0.003},
    {"kind": "random_resistance", "t_end": 0.01, "dt": 1e-5, "seed": 7, "lo_fraction": 0.1,
     "hi_fraction": 1.9, "t_start": 0.002, "t_stop": 0.008, "resample_period": 1e-3},
    {"kind": "custom", "t_end": 0.01, "dt": 1e-5, "v_g_const": [10.0, -5.0]},
]
BASES = [
    {"schema_version": 1, "name": "fuzz", "grid": GRID, "bank": BANK, "scenario": scenario,
     "certify": {"enabled": True, "mode": "rederived"},
     "output": {"directory": "out", "decimation": 10}}
    for scenario in SCENARIOS
]

garbage = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 64, 1e308, 5e-324, "1.0", "NaN"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 4))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(["replace", "delete", "add"]))
            if action == "replace":
                node[key] = draw(garbage)
            elif action == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(st.text(max_size=6))] = draw(garbage)
            else:
                node.append(draw(garbage))
            break
    return doc


# the values the command-line flags can give, keyed by the config key each sets
overrides = st.fixed_dictionaries({}, optional={
    "output.directory": st.text(max_size=4), "output.decimation": st.integers(), "scenario.seed": st.integers(),
})


@settings(max_examples=200, deadline=None)
@given(doc=mutated_configs(), overrides=overrides)
def test_load_config_returns_or_raises_config_error(doc, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        try:
            assert isinstance(load_config(path, overrides), RunConfig)
        except ConfigError:
            pass
