"""Streamed runs: ``integrate`` and ``particle_integrate`` hand their rows to a ``sink``.

A run steps into one reused block of ``BLOCK_ROWS`` rows, hands each
finished block to the sink, and returns a ``dynamics.Streamed`` record whose
drifts are folded from the blocks.  The rows the sink sees must be those of
the numpy integrators of ``tests/oracles.py`` bit for bit, and the record's
drifts the report on that reference array, NaN included.  ``simulate`` then
holds one block of rows whatever its step count and wherever its CSV goes,
and a Routh ``check`` no table of its grid, which the peak resident memory
of a fresh process shows.
"""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nonholo
import oracles
from nonholo import IntegratorConfig, dynamics, drift_report, integrate, particle, particle_integrate, solution_for
from nonholo.dynamics import BLOCK_ROWS, Streamed
from nonholo.particle import particle_drift_report
from oracles import same_bits

ROUTH_START = np.array([0.6, 0.0, 0.8, 1.0, 2.0, 3.0])
ELLIPSOID_START = np.array([3 / 7, 2 / 7, 6 / 7, 1.2, -0.8, 1.0])
PARTICLE_START = np.array([0.1, -0.5, 0.2, 1.3, -0.7])
# Climbs past |gamma3| = 0.99 (the pole-grazing start of tests/test_cli.py).
POLE_GRAZING_START = np.array([*(c / math.sqrt(0.77) for c in (0.3, 0.2, 0.8)), 0.5, -0.3, 2.5])
#: Each integrator's bit-for-bit reference, which returns every row as one array
REFERENCE = {integrate: oracles.integrate, particle_integrate: oracles.particle_integrate}


def recorded(fn, *args, **kwargs):
    """fn(*args, **kwargs) with every UserWarning recorded: (result, texts)."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


def both_paths(fn, *args):
    """The reference run of fn(*args), and the streamed one: (array, warnings),
    (rows the sink saw, block sizes, block addresses, record, warnings)."""
    blocks = []

    def sink(block):
        blocks.append((block.copy(), block.ctypes.data))  # a block is valid only during the call

    array, array_warnings = recorded(REFERENCE[fn], *args)
    record, stream_warnings = recorded(fn, *args, sink=sink)
    rows = np.concatenate([b for b, _ in blocks]) if blocks else array[:0]
    return (array, array_warnings), (rows, [len(b) for b, _ in blocks], {a for _, a in blocks}, record,
                                     stream_warnings)


def same_drifts(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and same_bits([a[k] for k in a], [b[k] for k in a])


def system_run(system: str, n_rows: int, dt: float = 1e-3):
    """(integrator, its arguments, report) of a run of ``system`` with
    ``n_rows`` rows, ``n_rows - 1`` steps of ``dt``."""
    cfg = IntegratorConfig(dt, (n_rows - 1) * dt)
    assert cfg.steps == n_rows - 1
    if system == "particle":
        return particle_integrate, (PARTICLE_START, cfg), particle_drift_report
    params = nonholo.BodyParams(1.0, 2.0, 3.0, 9.8)
    spec = nonholo.ProfileSpec.routh(1.0, 0.1) if system == "routh" else nonholo.ProfileSpec.ellipsoid(2.0, 1.0)
    start = ROUTH_START if system == "routh" else ELLIPSOID_START
    return integrate, (params, spec, start, cfg, solution_for(params, spec, 1e-2, 1e-3)), drift_report


@pytest.mark.parametrize("n_rows", [1023, 1024, 1025, 2049])
@pytest.mark.parametrize("system", ["routh", "ellipsoid", "particle"])
def test_the_sink_sees_the_rows_of_the_array_path_and_the_record_its_report(system, n_rows):
    fn, args, report = system_run(system, n_rows)
    (array, array_warnings), (rows, sizes, addresses, record, stream_warnings) = both_paths(fn, *args)
    assert isinstance(record, Streamed) and len(record) == len(array) == n_rows
    assert same_bits(rows, array) and stream_warnings == array_warnings
    assert sizes == [BLOCK_ROWS] * (n_rows // BLOCK_ROWS) + [n_rows % BLOCK_ROWS] * (n_rows % BLOCK_ROWS > 0)
    assert len(addresses) == 1  # every block is the one reused buffer
    assert same_drifts(record.drifts, report(array))


@pytest.mark.parametrize("system", ["routh", "particle"])
def test_a_run_that_aborts_at_the_first_step_streams_its_one_row(system, monkeypatch):
    # A field of NaNs makes the first step's state NaN: the run ends with
    # one row, handed over as the last (partial) block.  The references step
    # their own field bodies, which get the same NaNs.
    monkeypatch.setattr(dynamics, "field_floats", lambda *args: (math.nan,) * 6)
    monkeypatch.setattr(particle, "_field", lambda y: (math.nan,) * 5)
    monkeypatch.setattr(oracles, "rhs", lambda *args: np.full(6, math.nan))
    monkeypatch.setattr(oracles, "particle_rhs", lambda y: np.full(5, math.nan))
    fn, args, report = system_run(system, 11)
    (array, array_warnings), (rows, sizes, _, record, stream_warnings) = both_paths(fn, *args)
    assert len(record) == len(array) == 1 and sizes == [1]
    assert same_bits(rows, array) and stream_warnings == array_warnings == [
        "non-finite state at step 1; aborting with 1 samples"]
    assert same_drifts(record.drifts, report(array))


def test_an_energy_that_overflows_at_the_first_row_streams_nothing():
    fn, (params, spec, _, cfg, momenta), _ = system_run("routh", 11)
    start = np.array([0.6, 0.0, 0.8, 1e308, 2.0, 3.0])
    (array, array_warnings), (rows, sizes, _, record, stream_warnings) = both_paths(
        fn, params, spec, start, cfg, momenta)
    assert len(record) == len(array) == 0 and sizes == [] and record.drifts == {}
    assert stream_warnings == array_warnings == ["non-finite energy at step 0; aborting with 0 samples"]


@pytest.mark.parametrize("dt", [1e-3, 5e-4])
def test_the_pole_grazing_run_conserves_its_gauge_momenta_in_every_block(ellipsoid_preset, dt):
    # The run passes |gamma3| = 0.99 in its first block (the frozen simulate
    # run) or its second, where a table of the (delta, h) = (1e-2, 1e-3) grid
    # once ended; the series reads on, so the fold of every block conserves
    # J1 and J2 within A01's 1e-8 and no warning fires.
    params, spec = ellipsoid_preset
    args = (params, spec, POLE_GRAZING_START, IntegratorConfig(dt, 2.0), solution_for(params, spec, 1e-2, 1e-3))
    (array, array_warnings), (rows, _, _, record, stream_warnings) = both_paths(integrate, *args)
    assert same_bits(rows, array) and len(record) == len(array) == round(2.0 / dt) + 1
    assert stream_warnings == array_warnings == []
    assert np.max(np.abs(rows[:, 3])) > 0.99
    assert record.drifts["dJ1"] <= 1e-8 and record.drifts["dJ2"] <= 1e-8
    assert same_drifts(record.drifts, drift_report(array))


def test_a_nan_survives_the_fold_whichever_block_it_is_in():
    # np.maximum keeps a NaN on either side; Python's max(earlier, later)
    # would drop one met in a later block.
    J1 = dynamics.COLUMNS.index("J1")
    for nan_block in range(3):
        record = Streamed(drift_report, lambda block: None)
        for k in range(3):
            block = np.full((2, len(dynamics.COLUMNS)), float(k))
            block[1, J1] = math.nan if k == nan_block else block[1, J1]
            record.add(block)
        assert len(record) == 6
        assert math.isnan(record.drifts["dJ1"]) and record.drifts["dJ2"] == 2.0


# ---------------------------------------------------------------------------
# memory: a fresh ``simulate`` holds one block of rows whatever its step count

CONFIGS = {
    "routh": {"system": "routh", "params": {"m": 1.0, "I1": 2.0, "I3": 3.0, "grav": 9.8, "r": 1.0, "l": 0.1},
              "initial": {"gamma": [0.6, 0.0, 0.8], "M": [1.0, 2.0, 3.0]}},
    "particle": {"system": "particle", "initial": {"position": [0.0, 0.0, 0.0], "momentum": [1.0, 1.0]}},
}


#: Runs a command and prints its exit code and ``ru_maxrss`` (KiB).  It runs in
#: an interpreter of its own that imports no numpy: a child's ``ru_maxrss``
#: starts at the peak of the process that forked it, which for this test
#: process would exceed the command's own.
MEASURE = ("import os, subprocess, sys; proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
           "_, status, usage = os.wait4(proc.pid, 0); proc.returncode = os.waitstatus_to_exitcode(status); "
           "print(proc.returncode, usage.ru_maxrss)")


def fresh_run(tmp_path, config: dict, command: str, *args: str, fork: bool = True) -> tuple[int, float, str]:
    """Run ``nonholo <command> --config <config> <args>`` in a fresh process
    (without ``os.fork`` unless ``fork``): its exit code, peak resident
    memory in MB, and standard error."""
    path = tmp_path / f"{command}-{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(config))
    src = str(Path(nonholo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cli = f"import os, sys; {'' if fork else 'del os.fork; '}from nonholo.cli import main; sys.exit(main())"
    argv = [sys.executable, "-c", cli, command, "--config", str(path), *args]
    proc = subprocess.run([sys.executable, "-c", MEASURE, *argv], capture_output=True, text=True, env=env,
                          timeout=300)
    code, maxrss = map(int, proc.stdout.split())
    return code, maxrss / 1024.0, proc.stderr


def peak_rss_mb(tmp_path, system: str, steps: int, target: str) -> float:
    """The peak resident memory of a fresh ``nonholo simulate`` process of
    ``steps`` steps, in MB.  ``target`` is where its CSV goes: ``"file"``
    (a regular file), ``os.devnull``, or ``"no-fork"`` (a regular file,
    written by a process without ``os.fork``)."""
    config = dict(CONFIGS[system], integrator={"dt": 1e-3, "t_final": steps * 1e-3})
    out = target if target == os.devnull else str(tmp_path / "out.csv")
    code, peak, err = fresh_run(tmp_path, config, "simulate", "--out", out, fork=target != "no-fork")
    assert code == 0, err
    if target != os.devnull:
        assert Path(out).read_text().count("\n") == steps + 2
    return peak


@pytest.mark.parametrize("system,target", [
    pytest.param("routh", "file", id="routh"),
    pytest.param("particle", "file", id="particle"),
    pytest.param("routh", os.devnull, id="routh-devnull"),
    pytest.param("routh", "no-fork", id="routh-no-fork"),
])
def test_simulate_memory_does_not_grow_with_the_step_count(tmp_path, system, target):
    # Holding every row, 40,000 Routh steps peak 8.6 MB above 2,000 (the
    # particle 2.9 MB), and keeping every block's bytes about 5 MB; one
    # reused block, written out as it arrives, keeps the two within rounding
    # whatever the target.
    short, long = (peak_rss_mb(tmp_path, system, steps, target) for steps in (2_000, 40_000))
    assert abs(long - short) < 0.5, (short, long)


# ---------------------------------------------------------------------------
# memory: a fresh Routh ``check`` holds no table of the (delta, h) grid

def test_routh_check_memory_does_not_grow_with_the_grid(tmp_path):
    # Tabulating a march and the closed forms on the whole grid, h = 1e-5
    # (199,981 nodes) peaked 17.5 MB above h = 1e-4; the series solve and the
    # closed forms read no grid at all, which keeps the two within 1 MB.
    peaks = []
    for h in (1e-4, 1e-5):
        code, peak, err = fresh_run(tmp_path, dict(CONFIGS["routh"], samples=10, h=h), "check")
        assert code == 0, err
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < 1.0, peaks


def test_a_routh_check_whose_march_overflows_exits_2(tmp_path):
    # (The momenta were once an RK4 march.)  I1 = I3 = 1e308 overflows
    # A1*A3: the series' values at the 17 collocation nodes of its first size
    # are not finite, which is an error before any record measures (or warns
    # on) the body.
    body = {"m": 1.0, "I1": 1e308, "I3": 1e308, "grav": 9.8, "r": 1.0, "l": 0.1}
    code, _, err = fresh_run(tmp_path, dict(CONFIGS["routh"], params=body, samples=3), "check")
    assert code == 2
    assert err == ("error: momenta table not finite at 17 of 17 nodes"
                   " (the configured values are outside floating-point range)\n")
