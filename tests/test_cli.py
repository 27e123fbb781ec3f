import json
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import CONFIG_DIR, both_axes, reverified
from vrgrid.sim import SCENARIO_KINDS


def run_cli(*args, env=None, python_flags=()):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "vrgrid", *args],
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
    """The range is GridParams' rule, so the field is the section, as for any range error.
    The message names the config key once: frequency_hz, not the model's omega_g."""
    for key, value in (("r_g", -1.0), ("frequency_hz", 0)):
        cfg = small_config(grid={"l_g": 3.67e-4, "r_g": 2.76e-2, "frequency_hz": 60.0, key: value})
        path = write_config(tmp_path / "bad.json", cfg)
        res = run_cli("simulate", str(path), "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        err = json.loads(res.stdout.splitlines()[0])["error"]
        assert err["field"] == "grid"
        assert f"{key} must be a finite positive number" in err["message"]
        assert "omega_g" not in err["message"]
    assert res.stderr.splitlines() == ["error [config] grid: frequency_hz must be a finite positive number, got 0.0"]


def test_simulate_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path / "cfg.json", small_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", str(path), "--out", str(out1)).returncode == 0
    assert run_cli("simulate", str(path), "--out", str(out2)).returncode == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_simulate_resample_period_beyond_horizon(tmp_path, capsys):
    """A resample period of 1e308 is one interval, like a period of t_end,
    instead of an OverflowError from an infinite step count."""
    from vrgrid import cli

    csv = []
    for period in (1e308, 0.01):
        path = write_config(tmp_path / "rr.json", small_config(scenario={
            "kind": "random_resistance", "t_end": 0.01, "dt": 1e-5, "seed": 3,
            "t_start": 0.002, "t_stop": 0.008, "resample_period": period,
        }))
        out = tmp_path / f"p{period}"
        assert cli.main(["simulate", str(path), "--out", str(out)]) == 0, capsys.readouterr()
        csv.append((out / "trajectory.csv").read_bytes())
    assert csv[0] == csv[1]


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


RANDOM_RESISTANCE = {"kind": "random_resistance", "t_end": 0.01, "dt": 1e-5, "seed": 7,
                     "t_start": 0.002, "t_stop": 0.008}


def test_seed_override_validated(tmp_path):
    """--seed is scenario.seed, so an out-of-range seed is the scenario's range error."""
    path = write_config(tmp_path / "rr.json", small_config(scenario=RANDOM_RESISTANCE))
    res = run_cli("simulate", str(path), "--seed", "-1", "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert json.loads(res.stdout.splitlines()[0])["error"]["field"] == "scenario"
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("scenario, option, section, key, value, field", [
    pytest.param(None, "--out", "output", "directory", "", "output.directory", id="out-empty"),
    pytest.param(None, "--decimation", "output", "decimation", 0, "output.decimation", id="decimation-0"),
    pytest.param(RANDOM_RESISTANCE, "--seed", "scenario", "seed", -1, "scenario", id="seed-negative"),
    pytest.param(None, "--seed", "scenario", "seed", 3, "scenario.seed", id="seed-on-voltage-pulse"),
])
def test_flag_and_file_give_the_same_error(tmp_path, capsys, scenario, option, section, key, value, field):
    """A flag value is its config key: the same exit code, field and message as in the file."""
    from vrgrid.cli import main

    out = [] if option == "--out" else ["--out", str(tmp_path / "o")]
    doc = small_config(scenario=scenario and dict(scenario))
    flagged = write_config(tmp_path / "flag.json", doc)
    doc.setdefault(section, {})[key] = value
    in_file = write_config(tmp_path / "file.json", doc)
    errors = []
    for argv in (["simulate", str(flagged), option, str(value), *out], ["simulate", str(in_file), *out]):
        assert main(argv) == 2
        errors.append(json.loads(capsys.readouterr().out)["error"])
    assert errors[0] == errors[1]
    assert errors[0]["field"] == field
    assert not (tmp_path / "o").exists()


def _readme_schema():
    """README's config schema example, with its // comments stripped."""
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    block = re.search(r"## Config schema.*?```jsonc\n(.*?)```", readme, re.S).group(1)
    return json.loads(re.sub(r"//.*", "", block))


def test_every_flag_is_a_config_key():
    """Each option but -h stores into a dest ``section.key`` of a config section, which
    load_config reads as that key in the file: a flag cannot have a rule of its own."""
    import argparse

    from vrgrid.cli import build_parser

    schema = _readme_schema()
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                assert action.dest.count(".") == 1, (command, action.dest)
                section = action.dest.split(".")[0]
                assert isinstance(schema.get(section), dict), (command, action.dest)


@pytest.mark.parametrize("argv, field", [
    pytest.param(["simulate", "{cfg}", "--out", "{out}", "--decimation", "abc"], "output.decimation",
                 id="decimation-abc"),
    pytest.param(["simulate", "{cfg}", "--out", "{out}", "--seed", "1.5"], "scenario.seed", id="seed-1.5"),
    pytest.param(["compare", "{dir}", "--out"], "output.directory", id="out-no-value"),
    pytest.param(["simulate", "--out", "{out}"], "", id="missing-config"),
    pytest.param([], "", id="missing-command"),
    pytest.param(["simulate", "{cfg}", "--out", "{out}", "--bogus", "1"], "", id="unknown-option"),
    pytest.param(["bogus", "{cfg}", "--out", "{out}"], "", id="unknown-command"),
])
def test_command_line_errors_exit2_as_json(tmp_path, capsys, argv, field):
    """A bad command line exits 2 with a JSON error naming the option's config key,
    and prints the one error line to stderr instead of argparse's usage text."""
    from vrgrid.cli import main

    paths = {"cfg": CONFIG_DIR / "certify_m1_linear.json", "dir": CONFIG_DIR / "scenario1", "out": tmp_path / "o"}
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (err["kind"], err["field"]) == ("config", field)
    assert captured.err.splitlines() == [f"error [config] {field or '-'}: {err['message']}"]
    assert not (tmp_path / "o").exists()


def test_help_still_exits_0(capsys):
    """-h is no error: it exits 0, and its options show a metavar instead of their dotted dest."""
    from vrgrid.cli import main

    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "-h"])
    assert exit_.value.code == 0
    assert "--decimation N" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    pytest.param('{"l_g": 0.000367, "r_g": -5, "frequency_hz": 60, "r_g": 0.0276}', id="bad-then-good"),
    pytest.param('{"l_g": 0.000367, "r_g": 0.0276, "frequency_hz": 60, "r_g": -5}', id="good-then-bad"),
])
def test_repeated_config_key_exit2(tmp_path, capsys, text):
    """A key repeated in one object is refused, whichever of its values comes last."""
    from vrgrid.cli import main

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(grid="@@grid")).replace('"@@grid"', text))
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["field"] == ""
    assert "'r_g' is repeated" in err["message"]
    assert not (tmp_path / "o").exists()


def test_scenario_fields_have_config_types():
    """The CLI reads each scenario and grid key by its field's annotation, so each
    must be one of the four types it reads; a grid key is a number or a [d, q]
    pair. A string annotation, as a ``from __future__ import annotations`` in
    ``vrgrid.sim`` or ``vrgrid.plant`` makes, fails."""
    from vrgrid.plant import GridParams

    for cls in SCENARIO_KINDS.values():
        for f in fields(cls):
            assert f.type in (float, int, str, tuple), (cls.__name__, f.name, f.type)
    for f in fields(GridParams):
        assert f.type in (float, tuple), (f.name, f.type)


REQUIRED_SCENARIO_VALUES = {"t_end": 1.0, "dt": 1e-4, "seed": 5}


@pytest.mark.parametrize("kind", sorted(SCENARIO_KINDS))
def test_scenario_of_required_keys_loads_the_class_defaults(tmp_path, kind):
    """``kind`` plus the required keys loads to the class's own defaults: the CLI adds none."""
    from vrgrid.cli import load_config

    cls = SCENARIO_KINDS[kind]
    required = {f.name: REQUIRED_SCENARIO_VALUES[f.name] for f in fields(cls) if f.default is MISSING}
    cfg = load_config(write_config(tmp_path / "cfg.json", small_config(scenario={"kind": kind, **required})))
    assert cfg.scenario == cls(**required)


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


RUN_FILES = ("trajectory.csv", "metrics.json", "manifest.json")


def test_certified_simulate_with_huge_x_sat(tmp_path, capsys):
    """``x_sat ** 2`` on a Python float raises OverflowError past about 1.3e154;
    the saturation primitive takes it as inf instead of exiting with a traceback."""
    from vrgrid import cli

    doc = json.loads((CONFIG_DIR / "certify_m1_linear.json").read_text())
    doc["bank"] = [[{"kind": "saturation", "k": 1.0, "x_sat": 1e200}]]
    out = tmp_path / "o"
    assert cli.main(["simulate", str(write_config(tmp_path / "sat.json", doc)), "--out", str(out)]) == 0, \
        capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["certificate.json", *sorted(RUN_FILES)]


def _overflowing_rms_config(directory):
    """A config whose finite trajectory squares past the float range in its RMS error."""
    doc = json.loads((CONFIG_DIR / "scenario1" / "linear.json").read_text())
    doc["scenario"] = {"kind": "custom", "t_end": 2e-4, "dt": 1e-6, "v_g_const": [1e160, 0.0]}
    return write_config(directory / "linear.json", doc)


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_nonfinite_metric_exit3(tmp_path, capsys, command):
    """A finite trajectory whose RMS error squares past the float range exits 3
    with a JSON error, and the run writes none of its files."""
    from vrgrid.cli import main

    (tmp_path / "cfgs").mkdir()
    path = _overflowing_rms_config(tmp_path / "cfgs")
    out = tmp_path / "o"
    target = path if command == "simulate" else path.parent
    # main sets numpy's error state for the command only: a caller's state holds before and after
    with np.errstate(over="raise", invalid="warn"):
        before = np.geterr()
        assert main([command, str(target), "--out", str(out)]) == 3
        assert np.geterr() == before
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    assert (err["kind"], err["field"]) == ("numeric", "scenario" if command == "simulate" else "linear")
    assert "rms_err_d_a" in err["message"]
    run_dir = out if command == "simulate" else out / "linear"
    assert not any((run_dir / name).exists() for name in RUN_FILES)


def _overflowing_v_config(directory):
    """A certified config whose V overflows (0.25 k x**4 with k = 1e-250) on a finite state."""
    doc = json.loads((CONFIG_DIR / "certify_m1_linear.json").read_text())
    doc["bank"] = [[{"kind": "cubic", "k": 1e-250}]]
    doc["scenario"] = {"kind": "custom", "t_end": 2e-4, "dt": 1e-6, "v_g_const": [1e80, 0.0]}
    return write_config(directory / "tiny_cubic.json", doc)


def test_nonfinite_dissipation_exit3(tmp_path, capsys):
    """An overflowing V leaves NaN in the dissipation record: exit 3, and no
    trajectory, metrics or manifest."""
    from vrgrid.cli import main

    out = tmp_path / "o"
    assert main(["simulate", str(_overflowing_v_config(tmp_path)), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    assert (err["kind"], err["field"]) == ("numeric", "scenario")
    assert "dissipation" in err["message"]
    assert not any((out / name).exists() for name in RUN_FILES)


def test_failed_certified_run_leaves_no_files(tmp_path, capsys):
    """A certified simulate that exits 3 writes nothing, not even its certificate."""
    from vrgrid.cli import main

    out = tmp_path / "o"
    assert main(["simulate", str(_overflowing_v_config(tmp_path)), "--out", str(out)]) == 3
    capsys.readouterr()
    assert not out.exists()


def _overflowing_random_resistance_config(directory, grid, hi_fraction):
    """scenario2's linear config on a 200-step resistance window, with ``grid`` keys and ``hi_fraction`` set."""
    doc = json.loads((CONFIG_DIR / "scenario2" / "linear.json").read_text())
    doc["grid"].update(grid)
    doc["scenario"].update(t_end=2e-4, t_start=0.0, t_stop=2e-4, resample_period=1e-5, hi_fraction=hi_fraction)
    return write_config(directory / "linear.json", doc)


def _overflowing_resistance_config(directory):
    """A config whose drawn resistance, r_g = 1e10 times up to 1e300, overflows."""
    return _overflowing_random_resistance_config(directory, {"r_g": 1e10}, 1e300)


def _overflowing_mismatch_config(directory):
    """A config whose mismatch term (r_g(t) - r_g) * i_ref, with i_ref = 1e308, overflows."""
    return _overflowing_random_resistance_config(directory, {"i_ref": [1e308, 0.0]}, 1e10)


def _overflowing_squares_config(directory):
    """A certified config whose squares |x|^2 and |v_dist|^2 overflow in the dissipation check."""
    doc = json.loads((CONFIG_DIR / "certify_m1_linear.json").read_text())
    doc["scenario"] = {"kind": "custom", "t_end": 2e-4, "dt": 1e-6, "v_g_const": [1e154, 0.0]}
    return write_config(directory / "single_linear.json", doc)


@pytest.mark.parametrize("command, make_config", [
    pytest.param("simulate", _overflowing_v_config, id="V"),
    pytest.param("simulate", _overflowing_rms_config, id="rms"),
    pytest.param("simulate", _overflowing_resistance_config, id="rr-resistance-overflows"),
    pytest.param("simulate", _overflowing_mismatch_config, id="rr-mismatch-overflows"),
    pytest.param("simulate", _overflowing_squares_config, id="certified-squares-overflow"),
    pytest.param("compare", _overflowing_resistance_config, id="compare-rr-resistance-overflows"),
])
def test_overflow_exit3_stderr_is_the_error_line(tmp_path, command, make_config):
    """An overflow in the drawn resistance, the mismatch term, V, its differences, the squares of
    the dissipation check or the RMS error prints no numpy warning: stderr is the error line, and
    under ``python -W error`` the run still exits 3, not 1 with a traceback."""
    (tmp_path / "cfgs").mkdir()
    path = make_config(tmp_path / "cfgs")
    target, field = (path, "scenario") if command == "simulate" else (path.parent, path.stem)
    for python_flags in ((), ("-W", "error")):
        res = run_cli(command, str(target), "--out", str(tmp_path / "o"), python_flags=python_flags)
        assert res.returncode == 3, res.stderr
        assert res.stderr.splitlines() == [f"error [numeric] {field}: {json.loads(res.stdout)['error']['message']}"]


def test_simulate_sinh_overflow_exit3(tmp_path):
    # without numba, math.sinh raises OverflowError on the diverging state;
    # it must end as the same numeric abort that numba's inf produces
    doc = small_config(
        bank=[[{"kind": "sinh", "a": 1.0, "b": 1.0}]],
        scenario={"kind": "voltage_pulse", "t_end": 0.05, "dt": 1e-4,
                  "axis": "d", "amplitude_fraction": 0.4, "t_on": 0.01, "t_off": 0.02},
    )
    path = write_config(tmp_path / "sinh.json", doc)
    res = run_cli("simulate", str(path), "--out", str(tmp_path / "o"),
                  env={"VRGRID_DISABLE_NUMBA": "1"})
    assert res.returncode == 3, res.stderr
    assert json.loads(res.stdout.splitlines()[0])["error"]["kind"] == "numeric"
    assert "Traceback" not in res.stderr


def test_step_cap_rejected_before_allocation(tmp_path):
    from vrgrid.cli import ConfigError, load_config
    from vrgrid.sim import MAX_STEPS

    # 1e9 steps: over the cap, so load_config fails before any array exists
    doc = small_config(scenario={"kind": "custom", "t_end": 1e3, "dt": 1e-6})
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path / "long.json", doc))
    assert err.value.field == "scenario"
    assert str(MAX_STEPS) in str(err.value)

    doc = small_config(scenario={"kind": "custom", "t_end": MAX_STEPS * 1e-6 / 2, "dt": 1e-6})
    assert load_config(write_config(tmp_path / "ok.json", doc)).scenario.n_steps == MAX_STEPS // 2


BIG = 10 ** 400  # a 400-digit integer: a valid JSON number that no float holds


def _set(section, key, value):
    def mutate(doc):
        doc[section][key] = value
    return mutate


def _replace(section, value):
    def mutate(doc):
        doc[section] = value
    return mutate


@pytest.mark.parametrize("mutate, field", [
    pytest.param(_set("grid", "l_g", BIG), "grid.l_g", id="l_g-400-digits"),
    pytest.param(_set("scenario", "t_end", BIG), "scenario.t_end", id="t_end-400-digits"),
    pytest.param(_replace("bank", [[{"kind": "linear", "k": BIG}]]), "bank[0][0].k", id="k-400-digits"),
    pytest.param(_replace("bank", [[{"kind": "linear", "k": "@@" + "1" * 5000}]]), "", id="k-5000-digits"),
    pytest.param(_set("grid", "v_g_ref", ["@@1e400", 0.0]), "grid.v_g_ref", id="v_g_ref-1e400"),
    pytest.param(_set("grid", "v_g_ref", [float("nan"), 0.0]), "grid.v_g_ref", id="v_g_ref-nan"),
    pytest.param(_set("grid", "i_ref", ["@@1e400", 0.0]), "grid.i_ref", id="i_ref-1e400"),
    pytest.param(_set("grid", "frequency_hz", 1e308), "grid", id="omega-overflows"),
    # GridParams holds the range rule, so a non-positive value is a range error on the section
    pytest.param(_set("grid", "frequency_hz", 0), "grid", id="frequency-0"),
    pytest.param(_set("grid", "l_g", -1e-3), "grid", id="l_g-negative"),
    pytest.param(_set("grid", "r_g", "1"), "grid.r_g", id="r_g-string"),
    pytest.param(_replace("bank", ["ab"]), "bank[0]", id="branch-string"),
    pytest.param(_replace("bank", [7]), "bank[0]", id="branch-int"),
    pytest.param(_replace("bank", [{"d": 3, "q": [{"kind": "linear", "k": 1.0}]}]), "bank[0].d", id="axis-int"),
    pytest.param(_replace("bank", [{"d": [{"kind": "linear", "k": 1.0}], "q": [{"kind": "linear", "k": 1.0}], "x": []}]),
                 "bank[0].x", id="axis-unknown-key"),
    pytest.param(_replace("bank", [[{"kind": "linear", "k": 1.0, "zz": 1}]]), "bank[0][0].zz", id="element-unknown-key"),
    pytest.param(_replace("bank", [[{"kind": "sinh", "a": 1.0}]]), "bank[0][0].b", id="sinh-missing-b"),
    # VrElement holds the range rule, so a non-positive parameter is a range error on the element
    pytest.param(_replace("bank", [[{"kind": "linear", "k": -1.0}]]), "bank[0][0]", id="k-negative"),
    pytest.param(_replace("bank", [[{"kind": "linear", "k": "1.0"}]]), "bank[0][0].k", id="k-string"),
    pytest.param(_replace("bank", [[{"kind": "linear", "k": True}]]), "bank[0][0].k", id="k-bool"),
    pytest.param(_replace("scenario", {"kind": "custom", "t_end": 0.001, "dt": 1e-5, "v_g_const": ["@@1e400", 0]}),
                 "scenario.v_g_const", id="v_g_const-1e400"),
    pytest.param(_replace("output", {"decimation": 2.7}), "output.decimation", id="decimation-2.7"),
    pytest.param(_replace("output", {"decimation": "3"}), "output.decimation", id="decimation-string"),
    pytest.param(_replace("output", {"decimation": 2.0}), "output.decimation", id="decimation-2.0"),
    pytest.param(_replace("output", {"decimation": True}), "output.decimation", id="decimation-bool"),
    pytest.param(_replace("output", {"decimation": 0}), "output.decimation", id="decimation-0"),
    pytest.param(_replace("certify", {"enabled": True, "mode": "verbatim"}), "certify.mode", id="mode-verbatim"),
    # output.formats is no longer a key: refused as unknown, whatever it lists
    pytest.param(_replace("output", {"formats": ["csv"]}), "output.formats", id="formats-csv-only"),
    pytest.param(_replace("output", {"formats": ["csv", "json"]}), "output.formats", id="formats-csv-json"),
    # true and 1.0 equal 1 in Python, but are not the JSON integer 1
    pytest.param(_replace("schema_version", True), "schema_version", id="schema_version-true"),
    pytest.param(_replace("schema_version", 1.0), "schema_version", id="schema_version-1.0"),
    pytest.param(_set("scenario", "kind", "mystery"), "scenario.kind", id="kind-mystery"),
    pytest.param(_replace("scenario", {"kind": "random_resistance", "t_end": 0.01, "dt": 1e-5, "seed": 1.5}),
                 "scenario.seed", id="seed-1.5"),
    pytest.param(_replace("scenario", {"kind": "random_resistance", "t_end": 0.01, "dt": 1e-5, "seed": True}),
                 "scenario.seed", id="seed-bool"),
    # in range is the class's check, so the field is the section, as for any range error
    pytest.param(_replace("scenario", {"kind": "random_resistance", "t_end": 0.01, "dt": 1e-5, "seed": 2 ** 64}),
                 "scenario", id="seed-2**64"),
    # t_end / dt = 0.4 rounds to zero steps
    pytest.param(_replace("scenario", {"kind": "custom", "t_end": 4e-7, "dt": 1e-6}), "scenario",
                 id="custom-under-half-step"),
    pytest.param(_replace("scenario", {"kind": "voltage_pulse", "t_end": 4e-7, "dt": 1e-6,
                                       "t_on": 0.0, "t_off": 4e-7}), "scenario", id="pulse-under-half-step"),
    # a window whose edges snap to one step would hold no disturbance
    pytest.param(_replace("scenario", {"kind": "voltage_pulse", "t_end": 0.01, "dt": 1e-6,
                                       "t_on": 0.0, "t_off": 1e-12}), "scenario", id="pulse-window-holds-no-step"),
    pytest.param(_replace("scenario", {"kind": "random_resistance", "t_end": 0.01, "dt": 1e-6, "seed": 1,
                                       "t_start": 1e-3, "t_stop": 1.0004e-3}), "scenario",
                 id="resistance-window-holds-no-step"),
])
def test_bad_config_values_exit2(tmp_path, capsys, mutate, field):
    """Out-of-range and mistyped values exit 2 naming the field, never 0, 1 or 3.
    The stderr line names the field once: the message does not repeat it.

    A string "@@<text>" is written into the file as the bare literal <text>."""
    from vrgrid.cli import main

    doc = small_config()
    mutate(doc)
    text = re.sub(r'"@@([^"]*)"', r"\1", json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out.splitlines()[0])["error"]
    assert err["field"] == field
    assert captured.err.splitlines() == [f"error [config] {field or '-'}: {err['message']}"]
    assert not field or field not in err["message"]
    assert not (tmp_path / "o").exists()


LINEAR = {"kind": "linear", "k": 1.0}


@pytest.mark.parametrize("bank", [
    pytest.param([[LINEAR] * 257], id="257-one-branch"),
    pytest.param([{"d": [LINEAR], "q": [LINEAR] * 128}, {"d": [LINEAR], "q": [LINEAR] * 129}],
                 id="257-q-over-two-branches"),
    pytest.param([[LINEAR] * 3000], id="3000-one-branch"),
])
def test_elements_per_axis_bounded_exit2(tmp_path, bank):
    """More than 256 elements on one axis exit 2 at field bank. At 3,000 the
    fallback RK4 would inline an expression too deep for Python to compile."""
    doc = small_config(bank=bank, scenario={"kind": "custom", "t_end": 1e-4, "dt": 1e-6,
                                            "v_g_const": [1.0, 0.0]})
    path = write_config(tmp_path / "big.json", doc)
    res = run_cli("simulate", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    err = json.loads(res.stdout.splitlines()[0])["error"]
    assert err["field"] == "bank"
    assert "at most 256" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "certify", "compare"])
def test_sampled_sector_check_at_load(tmp_path, capsys, command):
    """k * x**3 with k = 1e-300 underflows to 0 near zero: exit 2 at bank[1]."""
    from vrgrid.cli import main

    doc = small_config(bank=[[{"kind": "linear", "k": 1.0}], [{"kind": "cubic", "k": 1e-300}]],
                       certify={"enabled": True})
    d = tmp_path / "cfgs"
    d.mkdir()
    path = write_config(d / "tiny.json", doc)
    target = d if command == "compare" else path
    assert main([command, str(target), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    assert err["field"] == "bank[1]"
    assert "sector violation" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")  # pytest would otherwise keep a warning off stderr
@pytest.mark.parametrize("bank", [
    pytest.param([[{"kind": "sinh", "a": 1.0, "b": 50.0}]], id="sinh-overflows"),
    pytest.param([[{"kind": "linear", "k": 1e307}]], id="product-overflows"),
])
def test_sampled_sector_check_of_steep_bank_is_silent(tmp_path, capsys, bank):
    """A steep bank whose probe values or x * r(x) products overflow passes the sampled sector
    check by their sign: certify exits 0 with nothing on stderr, not a numpy overflow warning."""
    from vrgrid.cli import main

    path = write_config(tmp_path / "cfg.json", small_config(bank=bank, certify={"enabled": True}))
    assert main(["certify", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")  # pytest would otherwise keep a warning off stderr
@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("r_g, l_g, detail", [
    pytest.param(1e-300, 1e300, "float range: branch weight c:", id="l_g-squared-overflows"),
    pytest.param(1e300, 1e-300, "float range: omega has a non-finite entry", id="omega-not-finite"),
    pytest.param(1e-320, 1e-3, "float range: phi has a non-finite entry", id="phi-not-finite"),
])
def test_certificate_out_of_float_range_exit2(tmp_path, capsys, command, r_g, l_g, detail):
    """Finite grid values whose closed-form certificate overflows exit 2 at field grid, naming the
    quantity that left the float range: the branch weight c, or the first certificate field with a
    non-finite entry (not an asymmetric matrix for the NaN of inf * 0 beside it)."""
    from vrgrid.cli import main

    doc = small_config(grid={"l_g": l_g, "r_g": r_g, "frequency_hz": 60.0}, certify={"enabled": True})
    path = write_config(tmp_path / "cfg.json", doc)
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out.splitlines()[0])["error"]
    assert err["field"] == "grid"
    assert "float range" in err["message"] and detail in err["message"]
    # only the error line: no floating-point warning from the construction
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error [config] grid:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("r_g, lo_fraction, hi_fraction, product", [
    pytest.param(2.76e-2, 5e-324, 1.0, "lo_fraction x r_g = 5e-324 x 0.0276 = 0.0", id="r_min-underflows"),
    pytest.param(100.0, 0.1, 1e308, "hi_fraction x r_g = 1e+308 x 100.0 = inf", id="r_max-overflows"),
])
def test_resistance_interval_out_of_float_range_exit2(tmp_path, capsys, r_g, lo_fraction, hi_fraction, product):
    """A scenario fraction whose product with r_g leaves the positive floats exits 2 at field scenario,
    naming the fraction and the product, before anything is written."""
    from vrgrid.cli import main

    doc = small_config(grid={"l_g": 3.67e-4, "r_g": r_g, "frequency_hz": 60.0}, certify={"enabled": True},
                       scenario={"kind": "random_resistance", "t_end": 1e-3, "dt": 1e-5, "seed": 0,
                                 "lo_fraction": lo_fraction, "hi_fraction": hi_fraction,
                                 "t_start": 0.0, "t_stop": 1e-3})
    path = write_config(tmp_path / "cfg.json", doc)
    assert main(["certify", str(path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    assert err["field"] == "scenario"
    assert err["message"] == f"{product} is out of (0, inf)"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_certify_more_than_8_branches_exit2(tmp_path, capsys, command):
    """A certified bank of 9 branches exits 2 at field bank before writing."""
    from vrgrid.cli import main

    doc = json.loads((CONFIG_DIR / "certify_m1_linear.json").read_text())
    doc["bank"] = doc["bank"] * 9
    path = write_config(tmp_path / "cfg.json", doc)
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    assert err["field"] == "bank"
    assert "at most 8 branches" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "certify", "compare"])
def test_empty_out_exit2(tmp_path, capsys, monkeypatch, command):
    """--out "" is refused, not read as absent, so nothing lands in output.directory."""
    from vrgrid.cli import main

    monkeypatch.chdir(tmp_path)
    cfgs = tmp_path / "cfgs"
    cfgs.mkdir()
    path = write_config(cfgs / "cfg.json", small_config(certify={"enabled": True}))
    target = cfgs if command == "compare" else path
    assert main([command, str(target), "--out", ""]) == 2
    assert json.loads(capsys.readouterr().out.splitlines()[0])["error"]["field"] == "output.directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfgs"]


def test_cached_parser_keeps_commands_apart(tmp_path, capsys):
    """main() reuses one parser per process, so an option given to one command
    must not reach the next: each in-process run matches a fresh process."""
    from vrgrid import cli

    assert cli.build_parser() is cli.build_parser()
    sim = write_config(tmp_path / "sim.json", small_config())
    rr = write_config(tmp_path / "rr.json", small_config(scenario={
        "kind": "random_resistance", "t_end": 0.01, "dt": 1e-5, "seed": 3,
        "t_start": 0.002, "t_stop": 0.008, "resample_period": 1e-3,
    }))
    runs = [("simulate", sim, ["--decimation", "2"]), ("simulate", sim, []),
            ("simulate", rr, ["--seed", "11"]), ("simulate", rr, [])]
    artifacts = []
    for i, (command, path, options) in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        code = cli.main([command, str(path), "--out", str(here), *options])
        assert code == run_cli(command, str(path), "--out", str(fresh), *options).returncode
        files = sorted(p.name for p in here.iterdir())
        assert files == sorted(p.name for p in fresh.iterdir())
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), (command, options, name)
        artifacts.append({name: (here / name).read_bytes() for name in files})
    capsys.readouterr()
    # the options took effect, so equal artifacts above are not vacuous
    assert artifacts[0]["trajectory.csv"] != artifacts[1]["trajectory.csv"]
    assert artifacts[2]["trajectory.csv"] != artifacts[3]["trajectory.csv"]


def test_certify_m0_bundled(tmp_path):
    out = tmp_path / "m0"
    res = run_cli("certify", str(CONFIG_DIR / "certify_m0.json"), "--out", str(out))
    assert res.returncode == 0, res.stderr
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["valid"] is True
    assert cert["margins"]["psi"] <= 1e-6
    assert cert["margins"]["varsigma"] > 0.0


def test_certify_prints_what_it_wrote(tmp_path, capsys):
    """certify's line shows the psi margin and gain slope of the certificate.json it wrote; an
    infeasible certificate (exit 4) has no gain slope in its margins."""
    from vrgrid.cli import main

    keys = {"sigma", "xi", "psi", "varsigma", "alpha"}
    for config in ("certify_m0.json", "certify_m1_linear.json"):
        out = tmp_path / config
        assert main(["certify", str(CONFIG_DIR / config), "--out", str(out)]) == 0
        margins = json.loads((out / "certificate.json").read_text())["margins"]
        assert set(margins) == keys | {"iss_gain_slope"}
        name = json.loads((CONFIG_DIR / config).read_text())["name"]
        assert capsys.readouterr().out == (f"certify {name}: valid (psi_margin={margins['psi']:.3e}, "
                                           f"gain_slope={margins['iss_gain_slope']:.6g})\n")

    doc = json.loads((CONFIG_DIR / "certify_m0.json").read_text())
    doc["grid"].update(r_g=1e-10, l_g=1.0)
    out = tmp_path / "infeasible"
    assert main(["certify", str(write_config(tmp_path / "infeasible.json", doc)), "--out", str(out)]) == 4
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["valid"] is False and set(cert["margins"]) == keys


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


def test_certificate_roundtrip_and_fingerprint_guard(tmp_path):
    out = tmp_path / "m1"
    assert run_cli("certify", str(CONFIG_DIR / "certify_m1_linear.json"), "--out", str(out)).returncode == 0

    from conftest import nominal_params
    from vrgrid.bank import VrBank, VrElement
    from vrgrid.certify import verify_certificate
    from vrgrid.cli import load_certificate

    bank = VrBank((both_axes((VrElement("linear", 1.0),)),))
    cert = load_certificate(out / "certificate.json", bank)
    report = verify_certificate(nominal_params(), bank, cert)
    assert report.valid

    other = VrBank((both_axes((VrElement("linear", 2.0),)),))
    with pytest.raises(ValueError, match="fingerprint"):
        load_certificate(out / "certificate.json", other)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("certify_*.json")), ids=lambda path: path.stem)
def test_bundled_certificate_reverifies_to_its_file(tmp_path, capsys, path):
    """A bundled certify config's certificate.json, loaded back and verified on the config's grid,
    gives the verdict and margins it states: it is checked over the interval it carries."""
    from vrgrid.cli import load_config, main

    assert main(["certify", str(path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert reverified(load_config(path), tmp_path / "o" / "certificate.json") == (doc["valid"], doc["margins"])


# the refusals of a 2x2 matrix and of one branch's (1, 2) array, whichever row breaks them
TWO_BY_TWO, ONE_PAIR = "must be a list of 2 lists of 2 finite numbers", "must be a list of 1 lists of 2 finite numbers"


def _upsilon_pairs(pairs):
    """A mutation that gives ``upsilon_diag`` (one pair for the one-branch bank) as ``pairs(first pair)``."""
    return lambda doc: {**doc, "upsilon_diag": pairs(doc["upsilon_diag"][0])}


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda doc: {**doc, "branch_count": 1.7}, None, id="branch_count-1.7"),
    pytest.param(lambda doc: {**doc, "branch_count": 2}, None, id="branch_count-2"),
    pytest.param(_upsilon_pairs(lambda pair: []), None, id="upsilon_diag-one-pair-too-few"),
    pytest.param(_upsilon_pairs(lambda pair: [pair, pair]), None, id="upsilon_diag-one-pair-too-many"),
    pytest.param(_upsilon_pairs(lambda pair: pair), None, id="upsilon_diag-pair-not-in-a-list"),
    pytest.param(_upsilon_pairs(lambda pair: [[*pair, 1.0]]), ONE_PAIR, id="upsilon_diag-three-number-pair"),
    pytest.param(_upsilon_pairs(lambda pair: [[str(pair[0]), pair[1]]]), ONE_PAIR, id="upsilon_diag-string-entry"),
    pytest.param(_upsilon_pairs(lambda pair: [[True, pair[1]]]), ONE_PAIR, id="upsilon_diag-bool-entry"),
    # the record list an older writer gave: [{"s": 0, "l": 1, "diag": [...]}]
    pytest.param(_upsilon_pairs(lambda pair: [{"s": 0, "l": 1, "diag": pair}]), ONE_PAIR, id="record-list"),
    pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "phi"}, None, id="missing-phi"),
    pytest.param(lambda doc: [doc], None, id="list-document"),
    pytest.param(lambda doc: {**doc, "p": np.eye(3).tolist()}, None, id="p-3x3"),
    pytest.param(lambda doc: {**doc, "phi": [[1.0]]}, None, id="phi-1x1"),
    pytest.param(lambda doc: {**doc, "p": [["1", "0"], ["0", "1"]]}, TWO_BY_TWO, id="p-strings"),
    # a malformed row is refused with the shape of the whole value
    pytest.param(lambda doc: {**doc, "p": ["1 0", [0.0, 1.0]]}, TWO_BY_TWO, id="p-string-row"),
    pytest.param(lambda doc: {**doc, "p": [[1.0], [0.0, 1.0]]}, TWO_BY_TWO, id="p-short-row"),
    pytest.param(_upsilon_pairs(lambda pair: {"s": 0, "l": 1, "diag": pair}), ONE_PAIR, id="upsilon_diag-record"),
    pytest.param(lambda doc: {**doc, "lambda_diag": [doc["lambda_diag"][0][:1]]}, ONE_PAIR,
                 id="lambda_diag-one-number-row"),
    pytest.param(lambda doc: {**doc, "phi": [[True, False], [False, True]]}, TWO_BY_TWO, id="phi-bools"),
    pytest.param(lambda doc: {**doc, "lambda_diag": [[row[0]] for row in doc["lambda_diag"] * 2]},
                 None, id="lambda_diag-column"),
    pytest.param(_upsilon_pairs(lambda pair: [[5.0]]), ONE_PAIR, id="upsilon-diag-one-number"),
    pytest.param(lambda doc: {**doc, "zz": 1}, None, id="unknown-key"),
    pytest.param(lambda doc: {**doc, "schema_version": 7}, None, id="schema_version-7"),
    pytest.param(lambda doc: {**doc, "valid": "maybe"}, None, id="valid-maybe"),
    pytest.param(lambda doc: {**doc, "valid": False}, None, id="valid-false"),
    pytest.param(lambda doc: {**doc, "margins": None}, None, id="margins-null"),
    pytest.param(lambda doc: {**doc, "omega_diag": [[-v for v in row] for row in doc["omega_diag"]]},
                 None, id="omega_diag-negated"),
    pytest.param(_upsilon_pairs(lambda pair: [[-1.0, 0.0]]), None, id="upsilon-diag-negative"),
    pytest.param(lambda doc: {**doc, "p": [[1.0, 0.5], [0.0, 1.0]]}, None, id="p-asymmetric"),
    pytest.param(lambda doc: {**doc, "phi": [[1.0, 0.0], [0.0, -1.0]]}, None, id="phi-indefinite"),
])
def test_load_certificate_refuses_malformed(tmp_path, capsys, mutate, message):
    """A malformed certificate raises ValueError on the field of the key it breaks (with exactly
    ``message``, where given), not a raw KeyError, TypeError, AttributeError or IndexError, and does
    not load with a wrapped, truncated or overwritten index. A wrong fingerprint is still the first
    refusal."""
    from vrgrid.bank import VrBank, VrElement
    from vrgrid.cli import load_certificate, main

    assert main(["certify", str(CONFIG_DIR / "certify_m1_linear.json"), "--out", str(tmp_path / "m1")]) == 0
    capsys.readouterr()
    bank = VrBank((both_axes((VrElement("linear", 1.0),)),))
    good = tmp_path / "m1" / "certificate.json"
    load_certificate(good, bank)
    doc = json.loads(good.read_text())
    bad = mutate(doc)
    field = "certificate"
    if isinstance(bad, dict):
        (key,) = [k for k in {**doc, **bad} if k not in doc or k not in bad or doc[k] != bad[k]]
        field += f".{key}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}: ") as info:
        load_certificate(path, bank)
    if message is not None:
        assert str(info.value) == f"{field}: {message}"
    if isinstance(bad, dict):
        path.write_text(json.dumps({**bad, "bank_fingerprint": "0" * 64}))
        with pytest.raises(ValueError, match="fingerprint"):
            load_certificate(path, bank)


@pytest.mark.parametrize("interval, message", [
    pytest.param(None, "missing required key", id="missing"),
    pytest.param([0.0276], "must be a list of 2 finite numbers", id="one-number"),
    pytest.param(["0.0276", 0.0276], "must be a list of 2 finite numbers", id="string"),
    pytest.param([0.0276, float("inf")], "must be a list of 2 finite numbers", id="inf"),
    pytest.param([0.0, 0.0276], "must satisfy 0 < r_min <= r_max", id="r_min-0"),
    pytest.param([-1.0, 0.0276], "must satisfy 0 < r_min <= r_max", id="r_min-negative"),
    pytest.param([0.03, 0.0276], "must satisfy 0 < r_min <= r_max", id="inverted"),
])
def test_load_certificate_refuses_bad_resistance_interval(tmp_path, capsys, interval, message):
    """The interval a certificate covers is read back as two finite numbers with 0 < r_min <= r_max."""
    from vrgrid.bank import VrBank, VrElement
    from vrgrid.cli import load_certificate, main

    assert main(["certify", str(CONFIG_DIR / "certify_m1_linear.json"), "--out", str(tmp_path / "m1")]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "m1" / "certificate.json").read_text())
    assert doc["resistance_interval"] == [0.0276, 0.0276]
    doc["resistance_interval"] = interval
    if interval is None:
        del doc["resistance_interval"]
    path = write_config(tmp_path / "bad.json", doc)
    with pytest.raises(ValueError, match=rf"^certificate\.resistance_interval: {message}"):
        load_certificate(path, VrBank((both_axes((VrElement("linear", 1.0),)),)))


@pytest.mark.parametrize("loader", ["load_config", "load_certificate"])
def test_deeply_nested_json_is_a_value_error(tmp_path, loader):
    """JSON nested too deep for the parser is refused with ValueError, as any
    invalid JSON is, not with a RecursionError."""
    from vrgrid import cli
    from vrgrid.bank import VrBank, VrElement

    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + '[' * 100000 + ']' * 100000 + '}')
    args = (path,) if loader == "load_config" else (path, VrBank((both_axes((VrElement("linear", 1.0),)),)))
    with pytest.raises(ValueError):
        getattr(cli, loader)(*args)


def test_load_certificate_refuses_repeated_key(tmp_path, capsys):
    """A certificate that gives phi twice is refused, not read with its last phi."""
    from vrgrid.bank import VrBank, VrElement
    from vrgrid.cli import load_certificate, main

    assert main(["certify", str(CONFIG_DIR / "certify_m1_linear.json"), "--out", str(tmp_path / "m1")]) == 0
    capsys.readouterr()
    text = (tmp_path / "m1" / "certificate.json").read_text()
    path = tmp_path / "repeated.json"
    path.write_text('{"phi": [[1.0, 0.0], [0.0, 1.0]], ' + text.strip()[1:])
    with pytest.raises(ValueError, match="'phi' is repeated"):
        load_certificate(path, VrBank((both_axes((VrElement("linear", 1.0),)),)))


@pytest.mark.parametrize("loader, field", [("load_config", ""), ("load_certificate", "certificate")])
@pytest.mark.parametrize("make", [
    pytest.param(lambda path: None, id="missing"),
    pytest.param(lambda path: path.mkdir(), id="directory"),
])
def test_unreadable_file_is_a_config_error(tmp_path, loader, field, make):
    """A config or certificate path that cannot be read is a ConfigError on the file's field
    ("" for a config), naming the path, not a raw FileNotFoundError or IsADirectoryError."""
    from vrgrid import cli
    from vrgrid.bank import VrBank

    path = tmp_path / "file.json"
    make(path)
    args = (path,) if loader == "load_config" else (path, VrBank(()))
    with pytest.raises(cli.ConfigError) as info:
        getattr(cli, loader)(*args)
    assert info.value.field == field
    assert info.value.message.startswith(f"cannot read {loader.removeprefix('load_')} {path}: ")


@pytest.mark.parametrize("loader, field", [("load_config", ""), ("load_certificate", "certificate")])
def test_oversized_file_is_refused_before_parsing(tmp_path, capsys, loader, field):
    """A valid config or certificate padded with trailing whitespace (which JSON allows) to one byte
    past cli.MAX_INPUT_BYTES is refused on the file's field; at the bound it still loads. A padded
    config exits 2 with a JSON error."""
    from vrgrid import cli

    cfg_path = CONFIG_DIR / "certify_m0.json"
    bank = cli.load_config(cfg_path).bank
    if loader == "load_config":
        text = cfg_path.read_bytes()
    else:
        assert cli.main(["certify", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "certificate.json").read_bytes()
    args = () if loader == "load_config" else (bank,)
    path = tmp_path / "padded.json"
    path.write_bytes(text.ljust(cli.MAX_INPUT_BYTES))
    getattr(cli, loader)(path, *args)
    path.write_bytes(text.ljust(cli.MAX_INPUT_BYTES + 1))
    with pytest.raises(cli.ConfigError) as info:
        getattr(cli, loader)(path, *args)
    assert info.value.field == field
    assert info.value.message == f"{loader.removeprefix('load_')} {path} is larger than {cli.MAX_INPUT_BYTES} bytes"
    if loader == "load_config":
        capsys.readouterr()
        assert cli.main(["certify", str(path), "--out", str(tmp_path / "big")]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["kind"], error["field"]) == ("config", "")
        assert not (tmp_path / "big").exists()


@pytest.mark.skipif(not hasattr(__import__("os"), "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("pad", [0, 1])
def test_config_from_a_pipe_is_read_up_to_the_bound(tmp_path, pad):
    """A pipe has no length: its config loads, and one a byte past cli.MAX_INPUT_BYTES is refused
    after reading exactly the bound and one byte more."""
    import hashlib
    import os
    import threading

    from vrgrid import cli

    text = (CONFIG_DIR / "certify_m0.json").read_bytes()
    data = text.ljust(cli.MAX_INPUT_BYTES + 1) if pad else text
    path = tmp_path / "pipe.json"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,))
    writer.start()
    try:
        if pad:
            with pytest.raises(cli.ConfigError, match="is larger than"):
                cli.load_config(path)
        else:
            assert cli.load_config(path).config_sha256 == hashlib.sha256(text).hexdigest()
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("m", range(9))
def test_closed_form_certificate_round_trip(tmp_path, capsys, m):
    """certificate.json of a bank of m branches loads back bit for bit, and the
    loaded certificate with the original report writes the same payload."""
    from dataclasses import replace

    from vrgrid.certify import search_certificate
    from vrgrid.cli import _json_bytes, certificate_payload, load_certificate, load_config, main

    bank = [[{"kind": "linear", "k": 1.0 + k}, {"kind": "tanh", "a": 2.0, "b": 0.5 + k}] for k in range(m)]
    path = write_config(tmp_path / "cfg.json", small_config(bank=bank, certify={"enabled": True}))
    assert main(["certify", str(path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    cfg = load_config(path)
    cert = search_certificate(cfg.grid, cfg.bank, (cfg.grid.r_g, cfg.grid.r_g)).certificate
    written = (tmp_path / "o" / "certificate.json").read_bytes()

    loaded = load_certificate(tmp_path / "o" / "certificate.json", cfg.bank)
    assert loaded.lam.shape == (m, 2)
    for name in ("p_mat", "lam", "omega", "phi", "upsilon"):
        original, back = getattr(cert, name), getattr(loaded, name)
        assert back.shape == original.shape and back.tobytes() == original.tobytes(), name
    payload = certificate_payload(replace(loaded, report=cert.report), cfg.bank)
    assert payload == certificate_payload(cert, cfg.bank)
    assert _json_bytes(payload) == written


def test_readme_certificate_fields_match_payload():
    """README's certificate.json field list names exactly the payload's keys, those
    of ``margins`` included."""
    from vrgrid.certify import search_certificate
    from vrgrid.cli import certificate_payload, load_config

    readme = (CONFIG_DIR.parent / "README.md").read_text()
    block = re.search(r"certificate.json`\s+bytes\. Its fields:\n(.*?)\n\n", readme, re.S).group(1)
    cfg = load_config(CONFIG_DIR / "certify_m1_linear.json")
    payload = certificate_payload(search_certificate(cfg.grid, cfg.bank, (cfg.grid.r_g, cfg.grid.r_g)).certificate, cfg.bank)
    assert payload["valid"]
    keys = {*payload, *payload["margins"]}
    assert set(re.findall(r"`(\w+)`", block)) == keys


def test_certify_and_simulate_write_the_same_certificate(tmp_path, capsys):
    from vrgrid.cli import main

    path = write_config(tmp_path / "cfg.json", small_config(certify={"enabled": True}))
    for command in ("certify", "simulate"):
        assert main([command, str(path), "--out", str(tmp_path / command)]) == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["certificate"] == "certificate.json"
    capsys.readouterr()
    certificate = (tmp_path / "certify" / "certificate.json").read_bytes()
    assert certificate == (tmp_path / "simulate" / "certificate.json").read_bytes()


def _tiny_compare_dir(tmp_path, names=("a", "b")):
    d = tmp_path / "cfgs"
    d.mkdir()
    for i, name in enumerate(names):
        write_config(d / f"{name}.json", small_config(
            name=name, bank=[[{"kind": "linear", "k": 1.0 + i}]],
        ))
    return d


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_compare_run_directory_is_what_simulate_writes(tmp_path, capsys):
    """Each compare run directory holds, byte for byte, what simulate of that config writes,
    certificate and dissipation record included when the config enables certification."""
    from vrgrid.cli import main

    d = _tiny_compare_dir(tmp_path)
    write_config(d / "certified.json", small_config(name="certified", certify={"enabled": True}))
    assert main(["compare", str(d), "--out", str(tmp_path / "cmp")]) == 0
    for name in ("a", "b", "certified"):
        assert main(["simulate", str(d / f"{name}.json"), "--out", str(tmp_path / "sim" / name)]) == 0
        run = _tree(tmp_path / "cmp" / name)
        assert run == _tree(tmp_path / "sim" / name)
        assert ("certificate.json" in map(str, run)) == (name == "certified")
    capsys.readouterr()


def test_compare_takes_decimation_not_directory_from_output(tmp_path, capsys):
    """Each compare run keeps its config's output.decimation, as simulate of that config into
    the same run directory does, and writes nothing under the config's own output.directory."""
    from vrgrid.cli import main

    d = tmp_path / "cfgs"
    d.mkdir()
    for name, decimation in (("a", 1), ("b", 7)):
        write_config(d / f"{name}.json", small_config(
            name=name, output={"directory": str(tmp_path / f"own_{name}"), "decimation": decimation}))
    assert main(["compare", str(d), "--out", str(tmp_path / "cmp")]) == 0
    rows = {}
    for name in ("a", "b"):
        assert main(["simulate", str(d / f"{name}.json"), "--out", str(tmp_path / "sim" / name)]) == 0
        assert _tree(tmp_path / "cmp" / name) == _tree(tmp_path / "sim" / name)
        rows[name] = len((tmp_path / "cmp" / name / "trajectory.csv").read_text().splitlines())
        assert not (tmp_path / f"own_{name}").exists()
    assert rows["a"] > rows["b"]
    capsys.readouterr()


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


def test_compare_requires_out(tmp_path, capsys, monkeypatch):
    """Without --out, compare used to nest every run under the first config's
    output.directory; now it exits 2 before anything is written."""
    from vrgrid.cli import main

    monkeypatch.chdir(tmp_path)
    d = _tiny_compare_dir(tmp_path)
    assert main(["compare", str(d)]) == 2
    assert json.loads(capsys.readouterr().out.splitlines()[0])["error"]["field"] == "output.directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfgs"]


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


def test_compare_accepts_scenarios_spelled_differently(tmp_path):
    """compare checks the parsed scenarios: a default left out or written
    out, and 1 against 1.0, are the same scenario."""
    d = tmp_path / "cfgs"
    d.mkdir()
    short = {"kind": "voltage_pulse", "t_end": 0.01, "dt": 1e-5, "t_on": 0.002, "t_off": 0.003}
    write_config(d / "a.json", small_config(name="a", scenario=short))
    write_config(d / "b.json", small_config(name="b", scenario=dict(short, axis="d", amplitude_fraction=0.4)))
    res = run_cli("compare", str(d), "--out", str(tmp_path / "cmp"))
    assert res.returncode == 0, res.stdout

    d2 = tmp_path / "ints"
    d2.mkdir()
    for name, v_g in (("a", [1, 0]), ("b", [1.0, 0.0])):
        write_config(d2 / f"{name}.json", small_config(
            name=name, scenario={"kind": "custom", "t_end": 0.001, "dt": 1e-5, "v_g_const": v_g}))
    res = run_cli("compare", str(d2), "--out", str(tmp_path / "cmp2"))
    assert res.returncode == 0, res.stdout


@pytest.mark.parametrize("names", [("a", "a"), ("a", "comparison.csv"), ("comparison.txt",)])
def test_compare_refuses_colliding_names(tmp_path, capsys, names):
    """Each config name is a run directory beside comparison.csv and
    comparison.txt, so a repeated name or a comparison file's name is
    refused before anything is written."""
    from vrgrid.cli import main

    d = tmp_path / "cfgs"
    d.mkdir()
    for i, name in enumerate(names):
        write_config(d / f"cfg{i}.json", small_config(name=name))
    out = tmp_path / "cmp"
    assert main(["compare", str(d), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out.splitlines()[0])["error"]["field"] == "name"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "certify", "compare"])
def test_unwritable_out_exit2(tmp_path, capsys, command):
    """An output location that cannot be written (here an existing file)
    exits 2 with field output.directory, not a traceback."""
    from vrgrid.cli import main

    cfgs = tmp_path / "cfgs"
    cfgs.mkdir()
    path = write_config(cfgs / "cfg.json", small_config(certify={"enabled": True}))
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"")
    target = cfgs if command == "compare" else path
    assert main([command, str(target), "--out", str(blocker)]) == 2
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    assert err["field"] == "output.directory"
    assert blocker.read_bytes() == b""


def test_atomic_write_removes_temp_when_rename_fails(tmp_path):
    from vrgrid import cli

    target = tmp_path / "comparison.csv"
    target.mkdir()                      # os.replace cannot put a file over a directory
    with pytest.raises(cli.ConfigError) as err:
        cli._atomic_write(target, b"rows\n")
    assert err.value.field == "output.directory"
    assert [p.name for p in tmp_path.iterdir()] == ["comparison.csv"]
    assert not any(target.iterdir())


@pytest.mark.parametrize("command", ["certify", "simulate", "compare"])
def test_certify_infeasible_exit4(tmp_path, monkeypatch, capsys, command):
    """Exit code 4 with a margin report when the certificate is infeasible:
    every command writes the certificate and a manifest naming it (compare
    into the config's run directory), and simulate and compare integrate
    nothing.

    Any positive-resistance loop admits a certificate, so the infeasible
    branch is exercised by stubbing the construction result."""
    from dataclasses import replace

    import vrgrid.cli as cli
    from vrgrid.certify import IssCertificate, SearchResult, verify_certificate

    doc = small_config(bank=[], certify={"enabled": True})
    path = write_config(tmp_path / "cfg.json", doc)

    def fake_search(p, bank, resistance_interval):
        cert = IssCertificate(p_mat=np.zeros((2, 2)), lam=np.zeros((0, 2)), omega=np.zeros((1, 2)),
                              phi=np.zeros((2, 2)), upsilon=np.zeros((0, 2)),
                              resistance_interval=resistance_interval)
        report = verify_certificate(p, bank, cert)
        return SearchResult(certificate=replace(cert, report=report), feasible=False, starts_run=1)

    monkeypatch.setattr(cli, "search_certificate", fake_search)
    target = tmp_path if command == "compare" else path
    assert cli.main([command, str(target), "--out", str(tmp_path / "o")]) == 4
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    assert err["kind"] == "infeasible"
    assert err["field"] == ("tiny" if command == "compare" else "certify")
    out = tmp_path / "o" / "tiny" if command == "compare" else tmp_path / "o"
    # the margins are still reported in the certificate artifact
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["valid"] is False
    assert "sigma" in payload["margins"]
    assert json.loads((out / "manifest.json").read_text())["certificate"] == "certificate.json"
    assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "manifest.json"]


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_certified_run_outside_its_certificate_exit4(tmp_path, monkeypatch, capsys, command):
    """A certified run whose trajectory breaks the certificate's dissipation
    inequality writes its files, then exits 4 naming the count and worst margin,
    on field certify in simulate and on the config's name in compare, which then
    writes no comparison file.

    The run holds r_g at a tenth of its nominal value for the whole horizon, on a
    1 Hz grid with no bank. A certificate of the scenario's resistance interval
    covers it, so the stream is made to report the nominal point: the certificate
    is then built at the nominal r_g alone, and the run-time check catches it."""
    from vrgrid.cli import main
    from vrgrid.sim import RandomResistance, Scenario

    monkeypatch.setattr(RandomResistance, "resistance_range", Scenario.resistance_range)

    doc = small_config(
        bank=[], certify={"enabled": True},
        grid={"l_g": 3.67e-4, "r_g": 2.76e-2, "frequency_hz": 1.0},
        scenario={"kind": "random_resistance", "t_end": 0.05, "dt": 1e-5, "seed": 0,
                  "lo_fraction": 0.1, "hi_fraction": 0.1, "t_start": 0.0, "t_stop": 0.05},
    )
    path = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "o"
    assert main([command, str(tmp_path if command == "compare" else path), "--out", str(out)]) == 4
    err = json.loads(capsys.readouterr().out.splitlines()[0])["error"]
    if command == "compare":
        assert sorted(p.name for p in out.iterdir()) == ["tiny"]
        out = out / "tiny"
    dissipation = json.loads((out / "metrics.json").read_text())["dissipation"]
    assert dissipation["n_violations"] > 0
    assert err["kind"] == "infeasible"
    assert err["field"] == ("tiny" if command == "compare" else "certify")
    assert f"{dissipation['n_violations']} steps" in err["message"]
    assert repr(dissipation["worst_margin"]) in err["message"]
    assert sorted(p.name for p in out.iterdir()) == [
        "certificate.json", "manifest.json", "metrics.json", "trajectory.csv"]


@pytest.mark.parametrize("command", ["certify", "simulate"])
def test_certified_run_checks_sectors_once(tmp_path, monkeypatch, command):
    # load_config runs the sampled sector check; the certificate search
    # does not run it again on the bank it loaded
    from vrgrid import bank as bank_mod
    from vrgrid import certify, cli

    calls = []

    def counting(bank):
        calls.append(bank)
        return bank_mod.classify_bank(bank)

    monkeypatch.setattr(cli, "classify_bank", counting)
    monkeypatch.setattr(certify, "classify_bank", counting)
    path = write_config(tmp_path / "cfg.json", small_config(certify={"enabled": True}))
    args = cli.build_parser().parse_args([command, str(path), "--out", str(tmp_path / "o")])
    assert args.func(args) == 0
    assert len(calls) == 1


def test_cli_writes_only_inside_out_dir(tmp_path):
    path = write_config(tmp_path / "cfg.json", small_config())
    out = tmp_path / "sandboxed"
    before = {p for p in tmp_path.rglob("*")}
    assert run_cli("simulate", str(path), "--out", str(out)).returncode == 0
    created = {p for p in tmp_path.rglob("*")} - before
    assert all(out in p.parents or p == out for p in created)


def test_pulse_on_negative_reference(tmp_path):
    """The pulse height is amplitude_fraction times the reference, so it
    takes the reference's sign; only the fraction must be >= 0."""
    grid = {"l_g": 3.67e-4, "r_g": 2.76e-2, "frequency_hz": 60.0, "v_g_ref": [-392, 0]}
    path = write_config(tmp_path / "neg.json", small_config(grid=grid))
    out = tmp_path / "o"
    res = run_cli("simulate", str(path), "--out", str(out), "--decimation", "1")
    assert res.returncode == 0, res.stdout
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    pulse = {float(row.split(",")[3]) for row in rows}
    assert pulse == {0.0, 0.4 * -392.0}


def test_readme_config_schema_loads(tmp_path):
    """README's schema example, with its // comments stripped, is a valid config."""
    from vrgrid.cli import load_config

    cfg = load_config(write_config(tmp_path / "schema.json", _readme_schema()))
    assert cfg.name == "multi_branch" and cfg.scenario.kind == "voltage_pulse"


def test_readme_cli_synopsis_matches_parser():
    """Each subcommand in README's CLI synopsis lists exactly the options the parser defines."""
    import argparse

    from vrgrid.cli import build_parser

    readme = (CONFIG_DIR.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    documented = {}
    for line in block.splitlines():
        prog, command, *_ = line.split()
        assert prog == "vrgrid", line
        documented[command] = sorted(re.findall(r"--[\w-]+", line))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        command: sorted(o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))
        for command, parser in subparsers.choices.items()
    }
    assert documented == defined


def test_ci_workflow_runs_the_bundled_configs():
    """Every configs/ path the CI workflow names exists, the fallback job's warnings-as-errors
    step (``python -W error -m vrgrid <command> <config>``) runs every bundled certify config, its
    perfbench loop runs exactly the workloads of BENCHMARK.json, and every job bounds its run time.
    The file is read as text: PyYAML is not a dependency."""
    root = CONFIG_DIR.parent
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    jobs = re.split(r"^  ([\w-]+):\n", workflow.split("\njobs:\n", 1)[1], flags=re.M)[1:]
    assert len(jobs) >= 2 and len(jobs) % 2 == 0
    untimed = [name for name, body in zip(jobs[::2], jobs[1::2])
               if not re.search(r"^    timeout-minutes: [1-9]\d*$", body, re.M)]
    assert untimed == [], f"jobs without timeout-minutes: {untimed}"
    named = set(re.findall(r"configs/[\w./-]*[\w-]", workflow))
    assert named and {path for path in named if not (root / path).exists()} == set()
    fallback = re.search(r"\n  fallback:\n(.*?)\n  \w+:\n", workflow, re.S).group(1)
    werror = [line.split() for line in fallback.splitlines() if line.strip().startswith("python -W error -m vrgrid ")]
    run = {words[6] for words in werror}
    assert {f"configs/{path.name}" for path in CONFIG_DIR.glob("certify_*.json")} <= run
    (loop,) = re.findall(r"^ *for workload in ([\w ]+); do$", fallback, re.M)
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    assert sorted(loop.split()) == sorted(w["name"] for w in benchmark["workloads"])
