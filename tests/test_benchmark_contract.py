"""The traced benchmark wraps program functions at the names callers look up.

``perfbench/run.py`` installs its tracer on module attributes by name, so a
renamed or deleted function breaks the traced benchmark run. Installing the
tracer here, on the already-imported modules, turns that into a test failure.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from conftest import CONFIG_DIR
from vrgrid import _kernels, certify, cli, linalg, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wrapped():
    return {(m.__name__, name) for m in (cli, sim, certify, linalg)
            for name, value in vars(m).items() if hasattr(value, "__wrapped__")}


def _perfbench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


VR = SimpleNamespace(cli=cli, sim=sim, certify=certify, linalg=linalg, kernels=_kernels)


def test_benchmark_trace_sites_exist(monkeypatch):
    run = _perfbench_run(monkeypatch)
    before = _wrapped()
    tracer = run.Tracer()
    try:
        run.install_trace(tracer, VR)
        installed = _wrapped() - before
    finally:
        tracer.uninstall()
    assert len(installed) == 19
    assert ("vrgrid.cli", "classify_bank") in installed
    assert _wrapped() == before


def test_traced_certify_notes_its_search(monkeypatch, tmp_path, capsys):
    """The trace site's note function reads the search result as perfbench does."""
    run = _perfbench_run(monkeypatch)
    tracer = run.Tracer()
    try:
        run.install_trace(tracer, VR)
        assert cli.main(["certify", str(CONFIG_DIR / "certify_m1_linear.json"), "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [span[4] for span in tracer.spans if span[0] == "certify.search_certificate"] == [[1, True]]
