"""trajectory.csv bytes: the streamed column-wise writer against the row loop.

``reference_csv`` is the ``csv.writer`` loop that defined the file's bytes:
one row per decimated step, ``repr`` of every value, an empty ``V`` cell
when the run was not certified. The writer in ``vrgrid.cli`` must match it
byte for byte.
"""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIG_DIR
from vrgrid import cli
from vrgrid.sim import Trajectory, integrate

CHUNK = cli._CSV_CHUNK_ROWS
NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)


def reference_csv(traj, decimation):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "i_err_d", "i_err_q", "v_g_d", "v_g_q", "r_g", "V"])
    for i in range(0, len(traj.times), decimation):
        writer.writerow([
            repr(float(traj.times[i])),
            repr(float(traj.i_err[i, 0])),
            repr(float(traj.i_err[i, 1])),
            repr(float(traj.v_dist[i, 0])),
            repr(float(traj.v_dist[i, 1])),
            repr(float(traj.r_g[i])),
            repr(float(traj.v_lyap[i])) if traj.v_lyap is not None else "",
        ])
    return buf.getvalue().encode()


def written(tmp_path, traj, decimation):
    path = tmp_path / "trajectory.csv"
    cli.write_trajectory_csv(path, traj, decimation)
    return path.read_bytes()


def _short_horizon(sc):
    """The config's scenario, squeezed to a few thousand steps."""
    if sc.kind == "voltage_pulse":
        return replace(sc, t_end=4e-3, t_on=1e-3, t_off=2e-3)
    if sc.kind == "random_resistance":
        return replace(sc, t_end=6e-3, t_start=1e-3, t_stop=5e-3, resample_period=2.5e-4)
    return replace(sc, t_end=4e-3)


BUNDLED = sorted(CONFIG_DIR.glob("**/*.json"))


@pytest.mark.parametrize("path", BUNDLED, ids=[str(p.relative_to(CONFIG_DIR)) for p in BUNDLED])
def test_bundled_configs_match_reference(tmp_path, path):
    cfg = cli.load_config(path)
    cert = cli._certify(cfg, tmp_path, "certify")[0] if cfg.certify else None
    traj = integrate(cfg.grid, cfg.bank, _short_horizon(cfg.scenario), cert=cert)
    assert (traj.v_lyap is not None) == cfg.certify
    for decimation in sorted({1, 7, cfg.decimation}):
        assert written(tmp_path, traj, decimation) == reference_csv(traj, decimation)


def _runs(rng, values, n, mean_run):
    """n samples of ``values`` in runs of random length around ``mean_run``."""
    picks = rng.choice(values, size=n // mean_run + 2)
    return np.resize(np.repeat(picks, rng.integers(1, 2 * mean_run, size=len(picks))), n)


def synthetic(n, with_v=True, seed=0):
    """A trajectory full of values whose ``repr`` is easy to get wrong."""
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 2.5e-310, 1e16, 1e-5,
                         -1e-5, 1.5e16, 1e22, 9007199254740993.0, 0.1, 1.0 / 3.0, -2.0,
                         *NAN_PAYLOAD])
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, size=n)
    i_err = np.column_stack([np.where(rng.random(n) < 0.2, rng.choice(specials, n), wide),
                             rng.standard_normal(n)])
    # piecewise constant, with a lone -0.0 and a differently signed NaN inside runs
    v_d = _runs(rng, specials, n, 40)
    if n > 50:
        v_d[:50] = 0.0
        v_d[17] = -0.0
    v_q = _runs(rng, np.array([392.0, 1e16, 1e-5, np.nan]), n, 300)
    v_q[n // 2: n // 2 + 3] = NAN_PAYLOAD[0]
    r_g = _runs(rng, rng.uniform(0.002, 0.05, 8), n, 1000)
    v_lyap = np.where(rng.random(n) < 0.5, 0.0, rng.exponential(size=n)) if with_v else None
    if with_v and n > 3:
        v_lyap[1:4] = [-0.0, 5e-324, 0.0]
    return Trajectory(times=np.arange(n) * 1e-6, i_err=i_err,
                      v_dist=np.column_stack([v_d, v_q]), r_g=r_g, v_lyap=v_lyap)


LENGTHS = [
    (0, 1),                     # header only
    (1, 1),
    (5, 7),                     # decimation longer than the trajectory
    (1000, 1),
    (1000, 7),                  # decimation that does not divide the length
    (2 * CHUNK, 1),             # ends exactly on a chunk boundary
    (2 * CHUNK + 1, 1),         # one row into a third chunk
    (6 * CHUNK - 2, 3),         # 2 * CHUNK decimated rows: boundary after decimation
    (3 * CHUNK + 11, 2),
    # the same shapes at 8192-row blocks; they keep their boundaries for any
    # power-of-two block size up to 8192
    (16384, 1),
    (16385, 1),
    (49150, 3),
    (24587, 2),
]
assert 8192 % CHUNK == 0


@pytest.mark.parametrize("with_v", [True, False], ids=["V", "no-V"])
@pytest.mark.parametrize("n,decimation", LENGTHS, ids=[f"n{n}-dec{d}" for n, d in LENGTHS])
def test_synthetic_trajectories_match_reference(tmp_path, n, decimation, with_v):
    traj = synthetic(n, with_v=with_v, seed=n + decimation)
    data = written(tmp_path, traj, decimation)
    assert data == reference_csv(traj, decimation)
    rows = data.decode().splitlines()[1:]
    assert len(rows) == len(range(0, n, decimation))
    if not with_v:
        assert all(row.endswith(",") for row in rows)


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "trajectory.csv"
    path.write_bytes(b"previous\n")
    calls = []

    def failing(col):
        calls.append(len(col))
        if len(calls) > 7:
            raise RuntimeError("boom")
        return map(repr, col.tolist())

    monkeypatch.setattr(cli, "_repr_cells", failing)
    with pytest.raises(RuntimeError, match="boom"):
        cli.write_trajectory_csv(path, synthetic(2 * CHUNK), 1)
    assert path.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]
