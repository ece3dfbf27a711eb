"""Config parsing, deterministic sampling, and end-to-end command tests."""

import contextlib
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonholo
from nonholo import cli, certify, dynamics, particle, rk4_step
from nonholo.certify import CheckResult
from nonholo.cli import (
    MAX_SAMPLES,
    SYSTEMS,
    Report,
    main,
    parse_config,
    sample_particle,
    sample_state,
    serialize_config,
)
from nonholo.errors import ConfigError, DomainError

from oracles import write_csv

ROUTH_RAW = {
    "system": "routh",
    "params": {"m": 1.0, "I1": 2.0, "I3": 3.0, "grav": 9.8, "r": 1.0, "l": 0.1},
    "initial": {"gamma": [0.6, 0.0, 0.8], "M": [1.0, 2.0, 3.0]},
    "integrator": {"dt": 1e-3, "t_final": 0.5},
    "seed": 3,
    "samples": 2,
    "delta": 1e-2,
}

ELLIPSOID_RAW = {
    "system": "ellipsoid",
    "params": {"m": 1.0, "I1": 2.0, "I3": 3.0, "grav": 9.8, "b": 2.0, "c": 1.0},
    "initial": {"gamma": [3 / 7, 2 / 7, 6 / 7], "M": [1.2, -0.8, 1.0]},
    "integrator": {"dt": 1e-3, "t_final": 0.5},
    "delta": 1e-2,
    "h": 1e-3,
}

# Climbs past |gamma3| = 0.999 before t = 1 (the pole-grazing start of
# test_dynamics.test_pole_grazing_run_degrades_to_nan).
POLE_GRAZING_START = ([c / math.sqrt(0.77) for c in (0.3, 0.2, 0.8)], [0.5, -0.3, 2.5])

PARTICLE_RAW = {
    "system": "particle",
    "initial": {"position": [0.0, 0.0, 0.0], "momentum": [1.0, 1.0]},
    "integrator": {"dt": 1e-3, "t_final": 0.5},
    "samples": 2,
}


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("NONHOLO_SEED", raising=False)


@pytest.fixture(autouse=True)
def _no_writer_left(tmp_path):
    # Every CSV writer that a test forked has been reaped, on every path, and
    # no temporary CSV is left next to an --out: a process left running or a
    # stray file is a fault even when the command's exit code is right.
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.rglob("*.tmp"))


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# ---------------------------------------------------------------------------
# parsing


@pytest.mark.parametrize("raw", [ROUTH_RAW, ELLIPSOID_RAW, PARTICLE_RAW])
def test_serialize_parse_round_trip(raw):
    cfg = parse_config(json.dumps(raw))
    assert parse_config(serialize_config(cfg)) == cfg


_finite = st.floats(-5.0, 5.0, allow_nan=False)
_positive = st.floats(0.1, 10.0)


@st.composite
def _valid_configs(draw):
    """Raw configs that parse, with seed, samples, delta and h up to their bounds."""
    system = draw(st.sampled_from(["routh", "ellipsoid", "particle"]))
    raw = {"system": system}
    if system == "particle":
        raw["initial"] = {"position": draw(st.lists(_finite, min_size=3, max_size=3)),
                          "momentum": draw(st.lists(_finite, min_size=2, max_size=2))}
    else:
        params = {"m": draw(_positive), "I1": draw(_positive), "I3": draw(_positive),
                  "grav": draw(st.floats(0.0, 20.0))}
        if system == "routh":
            params["r"] = r = draw(_positive)
            params["l"] = draw(st.floats(-0.99 * r, 0.99 * r))
        else:
            params["b"], params["c"] = draw(_positive), draw(_positive)
        g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        n = math.sqrt(float(g @ g))
        gamma = (g / n).tolist() if n > 0.1 else [0.0, 0.0, 1.0]
        raw["params"] = params
        raw["initial"] = {"gamma": gamma, "M": draw(st.lists(_finite, min_size=3, max_size=3))}
    dt = draw(st.floats(1e-4, 0.1))
    raw["integrator"] = {"dt": dt, "t_final": dt * draw(st.floats(1.0, 1000.0))}
    raw["seed"] = draw(st.integers(0, 2**32))
    raw["samples"] = draw(st.integers(1, MAX_SAMPLES))
    raw["delta"] = draw(st.floats(1e-6, 0.1))
    raw["h"] = draw(st.floats(1e-6, 1e-3))  # (1 - delta)/h <= MAX_HALF_GRID for every delta
    return raw


@settings(max_examples=200, deadline=None)
@given(_valid_configs())
def test_serialize_parse_round_trip_over_valid_configs(raw):
    cfg = parse_config(json.dumps(raw))
    assert parse_config(serialize_config(cfg)) == cfg


def test_defaults():
    minimal = {
        "system": "routh",
        "params": {"m": 1.0, "I1": 2.0, "I3": 3.0, "r": 1.0, "l": 0.0},
        "initial": {"gamma": [0.0, 0.0, 1.0], "M": [0.0, 0.0, 1.0]},
    }
    cfg = parse_config(json.dumps(minimal))
    assert cfg.body.grav == 0.0
    assert cfg.integrator.dt == 1e-3
    assert cfg.integrator.t_final == 10.0
    assert (cfg.seed, cfg.samples) == (0, 100)
    assert (cfg.delta, cfg.h) == (1e-3, 1e-4)


def _mutated(base, path, value):
    raw = json.loads(json.dumps(base))
    obj = raw
    for key in path[:-1]:
        obj = obj[key]
    if value is _DELETE:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    return raw


_DELETE = object()


class _Verbatim(str):
    """A value written into the config text unquoted, as is: an integer
    literal too long for ``json.dumps`` to write."""


def _config_text(base, path, value):
    if isinstance(value, _Verbatim):
        return json.dumps(_mutated(base, path, "@")).replace('"@"', value)
    return json.dumps(_mutated(base, path, value))


BAD_CASES = [
    (ROUTH_RAW, ("system",), "cube", "/system"),
    (ROUTH_RAW, ("system",), _DELETE, "/system"),
    (ROUTH_RAW, ("extra",), 1, "/extra"),
    (PARTICLE_RAW, ("params",), {"m": 1.0}, "/params/m"),
    (ROUTH_RAW, ("initial",), _DELETE, "/initial"),
    (ROUTH_RAW, ("initial", "gamma"), [0.6, 0.0, 0.9], "/initial/gamma"),
    (ROUTH_RAW, ("initial", "M"), [1.0, 2.0], "/initial/M"),
    (ROUTH_RAW, ("initial", "M"), [1.0, 2.0, "x"], "/initial/M"),
    (ROUTH_RAW, ("params", "m"), -1.0, "/params"),
    (ROUTH_RAW, ("params", "r"), 0.0, "/params"),
    (ROUTH_RAW, ("params", "I1"), "big", "/params/I1"),
    (ELLIPSOID_RAW, ("params", "c"), -2.0, "/params"),
    (ROUTH_RAW, ("integrator", "dt"), 0.0, "/integrator"),
    (ROUTH_RAW, ("integrator", "method"), "euler", "/integrator/method"),
    (ROUTH_RAW, ("integrator", "renormalize_gamma"), "yes", "/integrator/renormalize_gamma"),
    (ROUTH_RAW, ("seed",), -1, "/seed"),
    (ROUTH_RAW, ("seed",), 1.5, "/seed"),
    (ROUTH_RAW, ("samples",), True, "/samples"),
    (ROUTH_RAW, ("delta",), 0.5, "/delta"),
    (ROUTH_RAW, ("h",), 0.01, "/h"),
    (ROUTH_RAW, ("params", "grav"), float("nan"), "/params"),
    (ROUTH_RAW, ("initial", "gamma"), [float("nan"), 0.0, 0.8], "/initial/gamma"),
    (ROUTH_RAW, ("initial", "M"), [float("nan"), 2.0, 3.0], "/initial/M"),
    (ROUTH_RAW, ("integrator", "t_final"), float("inf"), "/integrator"),
    (ROUTH_RAW, ("params", "r"), float("inf"), "/params"),
    (ELLIPSOID_RAW, ("params", "b"), float("inf"), "/params"),
    (ROUTH_RAW, ("integrator", "dt"), 1e-9, "/integrator"),  # 5e8 steps, over MAX_STEPS
    (ROUTH_RAW, ("h",), 1e-300, "/h"),  # (1 - delta)/h over momenta.MAX_HALF_GRID, never allocated
    (ROUTH_RAW, ("h",), 1e-7, "/h"),
    (PARTICLE_RAW, ("samples",), 100_000_000_000, "/samples"),
    (ROUTH_RAW, ("samples",), MAX_SAMPLES + 1, "/samples"),
    (ELLIPSOID_RAW, ("samples",), 0, "/samples"),  # no samples would certify nothing and pass
    (ROUTH_RAW, ("integrator", "renormalize_gamma"), True, "/integrator/renormalize_gamma"),  # not a key
    # integer literals beyond the float range, and one beyond int's digit limit
    pytest.param(ROUTH_RAW, ("params", "m"), 10**400, "/params/m", id="m-1e400"),
    pytest.param(ROUTH_RAW, ("initial", "gamma"), [0.6, 10**400, 0.8], "/initial/gamma", id="gamma-1e400"),
    pytest.param(ROUTH_RAW, ("integrator", "dt"), 10**400, "/integrator/dt", id="dt-1e400"),
    pytest.param(ROUTH_RAW, ("seed",), _Verbatim("9" * 5000), "", id="seed-5000-digits"),
    # huge finite entries: |gamma| overflows to inf, refused with no numpy warning
    pytest.param(ROUTH_RAW, ("initial", "gamma"), [1e308, 0.0, 0.0], "/initial/gamma", id="gamma-1e308"),
    pytest.param(ROUTH_RAW, ("initial", "gamma"), [1e200, 1e200, 0.0], "/initial/gamma", id="gamma-1e200-1e200"),
]

# Configs with two faults report the first in the order parse_config reads
MULTI_FAULT_CASES = [
    pytest.param({"system": "routh"}, ("params",), {"m": 1}, "/params/I1", id="I1-missing-before-initial"),
    pytest.param(ROUTH_RAW, ("params",), dict(ROUTH_RAW["params"], m=-1.0, r="x"), "/params", id="body-before-r"),
]


def _paths(obj, prefix=()):
    """The path of every object member and list entry below ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _string_leaf_cases():
    """Every leaf of the three configs set to a string: reported at its own
    path, or at its vector for a vector entry."""
    for name, base in (("routh", ROUTH_RAW), ("ellipsoid", ELLIPSOID_RAW), ("particle", PARTICLE_RAW)):
        for path in _paths(base):
            if not isinstance(_at(base, path), (dict, list)):
                keys = path[:-1] if isinstance(path[-1], int) else path
                at = "/".join(map(str, path))
                yield pytest.param(base, path, "x", "".join(f"/{k}" for k in keys), id=f"{name}-string-at-{at}")


@pytest.mark.parametrize("base,path,value,pointer", BAD_CASES + MULTI_FAULT_CASES + list(_string_leaf_cases()))
def test_parse_rejects_with_pointer(base, path, value, pointer):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_config_text(base, path, value))
    assert excinfo.value.pointer == pointer


# Values no config key accepts.  Huge integers are negative, since a huge
# seed or sample count is an integer and parses (samples then fails its cap).
_INVALID = st.one_of(
    st.none(),
    st.text(max_size=6).filter(lambda t: t not in SYSTEMS),
    st.lists(st.none(), max_size=3),
    st.integers(-(10**400), -(10**309)),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


@st.composite
def _malformed_config_texts(draw):
    base = draw(st.sampled_from([ROUTH_RAW, ELLIPSOID_RAW, PARTICLE_RAW]))
    paths = list(_paths(base))
    objects = [()] + [p for p in paths if isinstance(_at(base, p), dict)]
    how = draw(st.sampled_from(["value", "unknown-key", "truncated", "huge-seed", "huge-gamma"]))
    if how == "huge-gamma":  # finite entries whose |gamma| overflows
        gamma = draw(st.sampled_from([[1e308, 0.0, 0.0], [1e200, 1e200, 0.0]]))
        return _config_text(draw(st.sampled_from([ROUTH_RAW, ELLIPSOID_RAW])), ("initial", "gamma"), gamma)
    if how == "value":
        return _config_text(base, draw(st.sampled_from(paths)), draw(_INVALID))
    if how == "unknown-key":
        return _config_text(base, draw(st.sampled_from(objects)) + ("extra",), draw(st.integers()))
    if how == "truncated":
        text = json.dumps(base)
        return text[: draw(st.integers(0, len(text) - 1))]
    return _config_text(base, ("seed",), _Verbatim("1" * draw(st.integers(4301, 6000))))


@settings(max_examples=300, deadline=None)
@given(_malformed_config_texts())
def test_a_malformed_config_exits_2_with_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--config", str(path)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_parse_rejects_non_object_and_bad_json():
    for text in ("[1, 2]", "{"):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert excinfo.value.pointer == ""


# ---------------------------------------------------------------------------
# deterministic sampling


def test_sample_state_is_capped_and_reproducible():
    for k in range(50):
        st = sample_state(3, k)
        assert abs(float(st.gamma @ st.gamma) - 1.0) < 1e-12
        assert abs(st.gamma[2]) < 0.95
        assert np.all(np.abs(st.M) <= 3.0)
    again = sample_state(3, 17)
    assert np.array_equal(again.gamma, sample_state(3, 17).gamma)
    assert np.array_equal(again.M, sample_state(3, 17).M)
    assert not np.array_equal(sample_state(4, 17).gamma, again.gamma)


def test_sample_particle_box():
    pts = np.array([sample_particle(5, k) for k in range(40)])
    assert pts.shape == (40, 5)
    assert np.all(np.abs(pts) <= 2.0)
    assert np.array_equal(sample_particle(5, 3), sample_particle(5, 3))


# ---------------------------------------------------------------------------
# report object


def test_report_passed_and_sorted_json():
    checks = [
        CheckResult("zeta", "pass", 1e-12, 1e-9, "placeholder"),
        CheckResult("alpha", "fail", 2e-9, 1e-9, "placeholder"),
    ]
    report = Report("routh", 0, 2, checks)
    assert report.passed is False
    body = json.loads(report.to_json())
    assert body["passed"] is False
    assert [c["name"] for c in body["checks"]] == ["alpha", "zeta"]
    report.checks[1] = CheckResult("alpha", "pass", 1e-12, 1e-9, "placeholder")
    assert report.passed is True


# ---------------------------------------------------------------------------
# commands end to end


def test_simulate_particle_writes_csv(tmp_path, capsys):
    cfg = dict(PARTICLE_RAW, integrator={"dt": 1e-3, "t_final": 0.05})
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,z,px,py,J,E"
    assert len(lines) == 52  # header + 51 samples
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.05)
    summary = json.loads(capsys.readouterr().out)
    assert summary["dE"] < 1e-12
    assert summary["dJ"] < 1e-12


def test_simulate_routh_writes_csv(tmp_path, capsys):
    cfg = dict(ROUTH_RAW, integrator={"dt": 1e-3, "t_final": 0.05})
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,g1,g2,g3,M1,M2,M3,tau1,tau2,tau3,tau4,tau5,E,J1,J2,j1,j2"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (51, 17)
    assert np.all(np.isfinite(rows))
    gnorm = np.linalg.norm(rows[:, 1:4], axis=1)
    assert np.max(np.abs(gnorm - 1.0)) < 1e-12
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"dE", "dJ1", "dJ2", "dRel"}
    assert summary["dE"] < 1e-10


def test_check_particle_passes_and_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, PARTICLE_RAW)
    assert main(["check", "--config", path]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--config", path]) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["passed"] is True
    assert report["system"] == "particle"
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert "jacobi-negative-control" in names
    assert all(c["status"] == "pass" for c in report["checks"])


def test_check_routh_passes(tmp_path, capsys):
    assert main(["check", "--config", write_config(tmp_path, ROUTH_RAW)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"kernel-pair", "closed-form-ode-residual", "span-containment"} <= names
    assert "chaplygin-P-zero" not in names


def test_check_exit_code_follows_report(tmp_path, capsys, monkeypatch):
    failing = Report("particle", 0, 1, [CheckResult("x", "fail", 1.0, 0.1, "placeholder")])
    monkeypatch.setattr("nonholo.cli.cmd_check", lambda cfg: failing)
    assert main(["check", "--config", write_config(tmp_path, PARTICLE_RAW)]) == 1


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, PARTICLE_RAW)
    monkeypatch.setenv("NONHOLO_SEED", "11")
    assert main(["check", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 11
    for bad in ("eleven", "-1"):  # numpy refuses a negative seed, as /seed does
        monkeypatch.setenv("NONHOLO_SEED", bad)
        assert main(["check", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NONHOLO_SEED") and err.count("\n") == 1


def test_momenta_routh_tabulates_closed_forms(tmp_path, capsys):
    cfg = dict(ROUTH_RAW, delta=1e-2, h=1e-3)
    out = tmp_path / "momenta.csv"
    assert main(["momenta", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    lines = out.read_text().splitlines()
    assert lines[0] == "tau1,f1,g1,f2,g2,f1_cf,g1_cf,f2_cf,g2_cf"
    assert len(lines) - 1 == summary["rows"] == 1981
    assert summary["max_closed_form_deviation"] < 1e-9
    assert summary["min_independence"] > 1e-8


def test_momenta_ellipsoid_has_no_closed_form_columns(tmp_path, capsys):
    cfg = dict(ELLIPSOID_RAW, delta=1e-2, h=1e-3)
    out = tmp_path / "momenta.csv"
    assert main(["momenta", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    lines = out.read_text().splitlines()
    assert lines[0] == "tau1,f1,g1,f2,g2"
    assert len(lines) - 1 == summary["rows"]
    assert "max_closed_form_deviation" not in summary


def test_simulate_reads_the_configured_momenta_grid(tmp_path, capsys):
    # The pole-grazing start has |gamma3| = 0.91 and stays below 0.999 up to
    # t = 0.5: off a delta = 0.1 table from step 0, on the default one throughout.
    raw = dict(ELLIPSOID_RAW, initial={"gamma": POLE_GRAZING_START[0], "M": POLE_GRAZING_START[1]},
               integrator={"dt": 1e-3, "t_final": 0.5}, delta=0.1, h=1e-3)
    out = tmp_path / "t.csv"
    with pytest.warns(UserWarning, match=r"outside the momenta grid \[-0.9, 0.9\] at step 0 "):
        assert main(["simulate", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.replace("NaN", "null"))
    assert summary["dJ1"] is None and summary["dJ2"] is None and summary["dE"] < 1e-10
    rows = np.array([[float(v) for v in ln.split(",")] for ln in out.read_text().splitlines()[1:]])
    assert np.isnan(rows[:, 13:15]).all() and np.isfinite(np.delete(rows, [13, 14], axis=1)).all()


def test_error_exits(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", "--config", str(bad)]) == 2
    particle = write_config(tmp_path, PARTICLE_RAW)
    assert main(["momenta", "--config", particle, "--out", str(tmp_path / "m.csv")]) == 2
    cfg = dict(PARTICLE_RAW, integrator={"dt": 1e-3, "t_final": 0.01})
    sim = write_config(tmp_path, cfg, "sim.json")
    assert main(["simulate", "--config", sim, "--out", str(tmp_path / "no" / "dir" / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4


#: The CLI as a user runs it, in a fresh interpreter that exits through ``sys.exit``
CLI = "import sys; from nonholo.cli import main; sys.exit(main())"


def _python(code: str, *argv: str, **kwargs) -> subprocess.CompletedProcess:
    """``python -c code *argv`` with this package on the path (``subprocess.run``'s ``kwargs``)."""
    src = str(Path(nonholo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=300, **kwargs)


def _run_with_closed_stdout(argv):
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _python(CLI, *argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("command", ["check", "simulate", "momenta"])
def test_a_closed_stdout_exits_2_with_one_error_line(tmp_path, command):
    # No traceback, at exit included, and no CSV: the summary that fails to
    # reach stdout is printed before the CSV is put in place.
    argv = [command, "--config", write_config(tmp_path, ROUTH_RAW if command == "momenta" else PARTICLE_RAW)]
    out = tmp_path / "t.csv"
    if command != "check":
        argv += ["--out", str(out)]
    proc = _run_with_closed_stdout(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    if command != "check":
        assert not out.exists() and not list(tmp_path.glob("t.csv*"))  # no temporary file left either
        out.write_text("previous\n")  # nor is a file already there replaced
        assert _run_with_closed_stdout(argv).returncode == 2
        assert out.read_text() == "previous\n" and [p.name for p in tmp_path.glob("t.csv*")] == ["t.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_an_out_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    # A FIFO or a device (say /dev/null) must not be replaced by a regular file.
    fifo = tmp_path / "t.csv"
    os.mkfifo(fifo)
    cfg = dict(PARTICLE_RAW, integrator={"dt": 1e-3, "t_final": 0.01})  # 11 rows, well inside a pipe's buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(fifo)]) == 0
        text = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert text.startswith("t,x,y,z,px,py,J,E\n") and text.count("\n") == 12


# ---------------------------------------------------------------------------
# the CSV writer: a forked process formats each block of rows while the
# next is computed


#: Entries the 17-digit format must carry through as the oracle does
SPECIAL_ENTRIES = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308]


def _table(n_rows, n_cols):
    rng = np.random.default_rng((n_rows, n_cols))
    table = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    table.flat[:: 7] = np.resize(SPECIAL_ENTRIES, table.flat[:: 7].shape)
    return table


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("n_cols", [5, 8, 9, 17])
def test_the_csv_writer_matches_the_oracle_byte_for_byte(tmp_path, capsys, monkeypatch, n_cols, fork):
    # The rows reach the writer in blocks of any size, one of them not
    # C-contiguous, while the run goes on (the sink); without os.fork the
    # sink keeps their bytes and the same formatting runs in process.  The
    # row counts sit around the 1,024-row block.
    if not fork:
        monkeypatch.delattr(os, "fork")
    header = [f"c{k}" for k in range(n_cols)]
    for n_rows in (0, 1, 1023, 1024, 1025, 2049):
        table = _table(n_rows, n_cols)

        def run(sink):
            for a, b in ((0, 300), (300, 1100), (1100, 1101), (1101, n_rows)):
                if a < min(b, n_rows):
                    block = table[a : min(b, n_rows)]
                    sink(np.asfortranarray(block) if a == 300 else block)
            return {"rows": n_rows}

        out, want = tmp_path / "out.csv", tmp_path / "want.csv"
        assert cli._publish(str(out), header, run) == 0
        write_csv(want, header, table.tolist())
        assert out.read_bytes() == want.read_bytes(), n_rows
        assert capsys.readouterr().out == f'{{"rows": {n_rows}}}\n'


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_state_overflow_past_the_first_block_writes_no_csv(tmp_path, capsys, monkeypatch):
    # The first 1,024-row block has reached the writer when the state
    # overflows at step 1,501.
    def step(f, t, *args):
        return [math.inf] * 5 if t >= 1.5 else rk4_step(f, t, *args)

    monkeypatch.setattr(particle, "rk4_step", step)
    out = tmp_path / "t.csv"
    out.write_text("previous\n")
    cfg = dict(PARTICLE_RAW, integrator={"dt": 1e-3, "t_final": 2.0})
    with pytest.warns(UserWarning, match="non-finite state at step 1501"):
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arithmetic overflow: non-finite state or energy at step 1501 of 2000; no CSV written\n"
    assert out.read_text() == "previous\n"


def test_a_domain_error_past_the_first_block_writes_no_csv(tmp_path, capsys, monkeypatch):
    def step(f, t, *args):
        if t >= 1.5:
            raise DomainError("|gamma3| past the band")
        return rk4_step(f, t, *args)

    monkeypatch.setattr(dynamics, "rk4_step", step)
    out = tmp_path / "t.csv"
    out.write_text("previous\n")
    cfg = dict(ROUTH_RAW, integrator={"dt": 1e-3, "t_final": 2.0})
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: |gamma3| past the band\n"
    assert out.read_text() == "previous\n"


def test_a_write_failure_in_the_writer_exits_2_with_the_errno(tmp_path):
    # RLIMIT_FSIZE stops the writer's CSV at 64 KiB: the write fails with
    # EFBIG (CPython ignores SIGXFSZ), the writer exits with that errno,
    # and the parent reports it for --out and prints no summary.
    out = tmp_path / "t.csv"
    out.write_text("previous\n")
    cfg = write_config(tmp_path, dict(PARTICLE_RAW, integrator={"dt": 1e-3, "t_final": 2.0}))
    code = f"import resource; resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, 1 << 16)); {CLI}"
    proc = _python(code, "simulate", "--config", cfg, "--out", str(out), capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: [Errno 27] File too large: {str(out)!r}\n"
    assert out.read_text() == "previous\n"


def test_the_off_table_warning_fires_once_past_the_first_block(tmp_path, capsys):
    # The pole-grazing start at dt = 5e-4 leaves a delta = 1e-2 table at
    # step 1,706, in the second block, and stays off it into the third: one
    # warning, with the step and the message of one pass over the whole
    # tau1 column.
    raw = dict(ELLIPSOID_RAW, initial={"gamma": POLE_GRAZING_START[0], "M": POLE_GRAZING_START[1]},
               integrator={"dt": 5e-4, "t_final": 1.5})
    out = tmp_path / "t.csv"
    with pytest.warns(UserWarning) as record:
        assert main(["simulate", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
    assert [str(w.message) for w in record] == [
        "tau1=0.9900436846507795 outside the momenta grid [-0.99, 0.99] at step 1706 (t=0.853);"
        " the gauge momenta of such rows are NaN"
    ]
    j1 = np.array([float(ln.split(",")[13]) for ln in out.read_text().splitlines()[1:]])
    off = np.flatnonzero(np.isnan(j1))
    assert off[0] == 1706 and off[-1] >= 2048 and len(j1) == 3001


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_is_a_usage_error_not_a_check_failure(tmp_path, capsys):
    huge = dict(ROUTH_RAW, initial={"gamma": [0.6, 0.0, 0.8], "M": [1e308, 2.0, 3.0]})
    huge["integrator"] = {"dt": 1e-3, "t_final": 0.01}
    path = write_config(tmp_path, huge)
    with pytest.warns(UserWarning, match="non-finite energy at step 0"):
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: arithmetic overflow: non-finite state or energy at step 0")
    assert not (tmp_path / "t.csv").exists()  # an aborted run leaves no CSV


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_particle_overflow_exits_2_without_a_csv(tmp_path, capsys):
    # The state stays finite but H = px^2/2/(1+y^2) + py^2/2 overflows.
    huge = dict(PARTICLE_RAW, initial={"position": [0.0, 0.0, 0.0], "momentum": [1e200, 1.0]})
    huge["integrator"] = {"dt": 1e-3, "t_final": 0.01}
    path = write_config(tmp_path, huge)
    with pytest.warns(UserWarning, match="non-finite energy at step 0"):
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: arithmetic overflow: non-finite state or energy at step 0 of 10")
    assert not (tmp_path / "t.csv").exists()


def counted_steps(monkeypatch, module):
    """The times of the RK4 steps that ``module``'s integrator takes, from now on."""
    steps = []

    def step(f, t, *args):
        steps.append(t)
        return rk4_step(f, t, *args)

    monkeypatch.setattr(module, "rk4_step", step)
    return steps


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_energy_that_overflows_at_a_finite_state_exits_2(tmp_path, capsys, monkeypatch):
    # Spinning upright, the state is an equilibrium and stays finite, but
    # E = M3^2 / (2 A3) overflows at the first row: no step is taken.
    steps = counted_steps(monkeypatch, dynamics)
    spin = dict(ROUTH_RAW, initial={"gamma": [0.0, 0.0, 1.0], "M": [0.0, 0.0, 1e160]})
    spin["integrator"] = {"dt": 1e-3, "t_final": 0.01}
    with pytest.warns(UserWarning, match="non-finite energy at step 0"):
        assert main(["simulate", "--config", write_config(tmp_path, spin), "--out", str(tmp_path / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: arithmetic overflow: non-finite state or energy at step 0")
    assert not (tmp_path / "t.csv").exists() and not steps


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_particle_overflow_stops_stepping(tmp_path, capsys, monkeypatch):
    # H overflows at the first row; the run stops there instead of stepping
    # to t_final first (steps are counted, not timed).
    steps = counted_steps(monkeypatch, particle)
    huge = dict(PARTICLE_RAW, initial={"position": [0.0, 0.0, 0.0], "momentum": [1e200, 1.0]})
    huge["integrator"] = {"dt": 1e-3, "t_final": 10.0}
    with pytest.warns(UserWarning, match="non-finite energy at step 0"):
        assert main(["simulate", "--config", write_config(tmp_path, huge), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: arithmetic overflow: non-finite state or energy at step 0 of 10000")
    assert len(steps) <= 1 and not (tmp_path / "t.csv").exists()


# Bodies whose arithmetic leaves floating-point range: A overflows A1*A3, so
# its numeric momenta table is NaN (its closed forms stay finite); B's
# squared semi-axes underflow d^(3/2) in the profile; C's disparate axes
# make the Legendre denominator E of the Omega solve 0; D's vanishing
# inertia does the same on a Routh body, whose simulate solves no table.
OUT_OF_RANGE = {
    "A": {"system": "routh", "params": {"m": 1, "I1": 1e308, "I3": 1e308, "grav": 9.8, "r": 1, "l": 0.1}},
    "B": {"system": "ellipsoid", "params": {"m": 1, "I1": 2, "I3": 3, "grav": 9.8, "b": 1e-300, "c": 1e-300}},
    "C": {"system": "ellipsoid", "params": {"m": 1, "I1": 2, "I3": 3, "grav": 9.8, "b": 1e300, "c": 1e-300}},
    "D": {"system": "routh", "params": {"m": 1, "I1": 1e-300, "I3": 1e-300, "grav": 9.8, "r": 1, "l": 0},
          "integrator": {"dt": 1e-3, "t_final": 0.01}},
}


def run_out_of_range(tmp_path, capsys, name, command):
    raw = dict(OUT_OF_RANGE[name], initial={"gamma": [0.6, 0, 0.8], "M": [1, 2, 3]}, samples=3)
    out_args = [] if command == "check" else ["--out", str(tmp_path / "out.csv")]
    code = main([command, "--config", write_config(tmp_path, raw), *out_args])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "name,command",
    [("A", "check"), ("A", "momenta"), ("B", "simulate"), ("B", "check"), ("B", "momenta"),
     ("C", "simulate"), ("C", "check"), ("C", "momenta"), ("D", "simulate")],
)
def test_values_outside_floating_point_range_exit_2(tmp_path, capsys, name, command):
    code, out, err = run_out_of_range(tmp_path, capsys, name, command)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_closed_form_routh_run_of_an_overflowing_body_stays_finite(tmp_path, capsys):
    code, out, _ = run_out_of_range(tmp_path, capsys, "A", "simulate")
    assert code == 0 and "NaN" not in out and "Infinity" not in out
    assert all(math.isfinite(v) for v in json.loads(out).values())


def test_check_with_a_nan_measurement_prints_no_report(tmp_path, capsys, monkeypatch):
    nan_record = certify.Record("nan-record", 1.0, "placeholder", "upper", lambda s: math.nan)
    monkeypatch.setattr(certify, "PARTICLE", certify.PARTICLE + (nan_record,))
    assert main(["check", "--config", write_config(tmp_path, PARTICLE_RAW)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: non-finite measurement (nan-record = nan)")


@pytest.mark.parametrize("key,value", [("h", 1e-300), ("samples", 100_000_000_000)])
def test_grid_and_samples_bounds_exit_2(tmp_path, capsys, key, value):
    path = write_config(tmp_path, dict(PARTICLE_RAW, **{key: value}))
    assert main(["check", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.rstrip().endswith(f"(at '/{key}')")


@pytest.mark.parametrize("h,samples,seed", [(1e-3, 40, 0), (7e-4, 10, 18)])
def test_check_samples_inside_a_short_momenta_table(tmp_path, capsys, h, samples, seed):
    # With delta = 0.1 the solved table ends at |tau1| = 0.9 (h = 1e-3), or
    # at 0.8995 (h = 7e-4 does not divide 0.9), inside the sampler's default
    # cap of 0.95; sampled states must stay on the table.  Each config drew
    # states past its table's end under a fixed 0.95 or 1 - delta cap.
    cfg = dict(ELLIPSOID_RAW, delta=0.1, h=h, samples=samples, seed=seed)
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


# ---------------------------------------------------------------------------
# byte-identity guard: the .17g output contract across performance changes

# sha256 of (stdout, CSV) for each run below (stdout only for ``check``,
# which writes no CSV).  The momenta and simulate hashes were recorded before
# the coefficient ODE solve and the momenta lookup were vectorized, the check
# hashes before the battery moved into the ``nonholo.certify`` records, the
# routh, particle and pole-grazing simulate hashes before trajectories became
# column arrays.  The check hashes were re-recorded when the Jacobiators
# became contractions of the Jacobi trivector, which moved only the
# measured values of the jacobi-* and reduced-jacobi records.  The two
# ellipsoid simulate hashes were re-recorded when ``simulate`` began to read
# the config's momenta grid (delta = 1e-2, h = 1e-3) in place of the default
# one: dJ1 and dJ2 of the short run grew to that grid's interpolation
# error, and the pole-grazing run leaves the table earlier.  The check hashes
# were re-recorded again when antisymmetry, leibniz, gauge-compatibility and
# momentum-equation left the battery (they hold by construction); each new
# report is the old one minus those entries.  The check hashes were
# re-recorded once more when the finite-difference gradients and the stencil
# gave way to jets: only the measured values of the records that read a
# derivative moved (jacobi-*, bracket-dynamics-consistency, and the particle's
# casimir-momentum, rhs-anchor and two Jacobiator records).  The check hashes
# were re-recorded once more when every per-sample record came to measure
# all samples in one array pass: each entry gained ``worst_sample``, and the
# records that contract a matrix moved at rounding level (their stacked
# ``einsum`` steps sum in another order than the per-sample ``@``); the
# records with no matrix product kept their bits.  A change that moves any
# output byte of these runs must say so and re-record them.
FROZEN_SHA256 = {
    "ellipsoid-check": ("9ca6166b0e669504766ef1a927979999fd49013a1d5c18d46d5097a1d1817672",),
    "ellipsoid-momenta": (
        "5cafae4f8d2ae806979f334cc6e897a81ce579590a0fefaac088dbe0aa0b24a6",
        "800cd1cec1d75f9b0dc49290f6d4a329fba857af2faae4ef00d1f0f0bc88320c",
    ),
    "ellipsoid-simulate": (
        "2b0f188a7422dab52ff2a4e64b6bf23276fa3800d145efacb7a455873185bbbb",
        "34da07419c21ee8e75f50674be00b91ae706ce2ff8ae04a8e9dbdb3e1d996598",
    ),
    "ellipsoid-pole-simulate": (
        "f7f1ccead6d55c0bee4ac7cb8ef6147322552a09ac68c882f5a441b1f167dd05",
        "d1242c0456f98b24ae4abe5b84cd475c010407ec1e86900ddd8aad0a970cf197",
    ),
    "particle-check": ("ad80fa9b2740f88a964f2d7b0ceae017bdb4619bc5fa2be8c3599e86d45aec02",),
    "particle-simulate": (
        "642e76a0f174bdf26652e2e542132ed5dfbc5d5d41d1f5c4edcdb6b6eaab7b8e",
        "3b36efee4f8138e82c88f9ea382183e97af094353b59df6c3c0e80af6a276972",
    ),
    "routh-check": ("232b62c346a71ecb08841fc44ffb86d74080d3d0a232ee3f8d4f736ea081cba5",),
    "routh-momenta": (
        "c801bd1b82ad5fb0b5d38394f96d48b3fc0dac1d119e52e2ac453fb6f08b6d20",
        "02965cb5e2b1115e719bd3b8bd6645cacb5628ac3a2255fd7e25bbc3db48863c",
    ),
    "routh-simulate": (
        "ff28f49aa9072c2c2d76744151b2ddeb0502a9f27f736da3ad36945dbd93f828",
        "10be59b734b89f580a5e1e82a0086e729a7d7464902629b329e44c4f1c78ed0f",
    ),
}
FROZEN_RUNS = {
    "routh-momenta": ("momenta", dict(ROUTH_RAW, h=1e-3)),
    "ellipsoid-momenta": ("momenta", ELLIPSOID_RAW),
    "ellipsoid-simulate": ("simulate", dict(ELLIPSOID_RAW, integrator={"dt": 1e-3, "t_final": 0.2})),
    "routh-check": ("check", ROUTH_RAW),
    "ellipsoid-check": ("check", ELLIPSOID_RAW),
    "particle-check": ("check", PARTICLE_RAW),
    "routh-simulate": ("simulate", ROUTH_RAW),
    "particle-simulate": ("simulate", PARTICLE_RAW),
    # climbs past the momenta table's end: NaN J1, J2 columns and dJ1, dJ2
    "ellipsoid-pole-simulate": (
        "simulate",
        dict(ELLIPSOID_RAW, initial={"gamma": POLE_GRAZING_START[0], "M": POLE_GRAZING_START[1]},
             integrator={"dt": 1e-3, "t_final": 2.0}),
    ),
}


PUBLISHED_RUNS = sorted(name for name, (command, _) in FROZEN_RUNS.items() if command != "check")


@pytest.mark.parametrize("name,fork", [pytest.param(name, True, id=name) for name in sorted(FROZEN_RUNS)]
                         + [pytest.param(name, False, id=f"{name}-no-fork") for name in PUBLISHED_RUNS])
def test_outputs_are_byte_identical_to_the_frozen_hashes(tmp_path, capsys, monkeypatch, name, fork):
    # With os.fork the rows of a simulate or momenta stream to the forked
    # writer; without it, _publish's sink keeps each block's bytes and the
    # same formatting runs in process.  Both must give the same bytes.
    if not fork:
        monkeypatch.delattr(os, "fork")
    command, raw = FROZEN_RUNS[name]
    out = tmp_path / "out.csv"
    argv = [command, "--config", write_config(tmp_path, raw)]
    if command != "check":
        argv += ["--out", str(out)]
    # the pole-grazing run passes the end of the momenta table, and says so
    pole = name == "ellipsoid-pole-simulate"
    with pytest.warns(UserWarning, match="outside the momenta grid") if pole else contextlib.nullcontext():
        assert main(argv) == 0
    digests = [hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()]
    if command != "check":
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(digests) == FROZEN_SHA256[name]


@pytest.mark.parametrize("name", ["routh-simulate", "ellipsoid-momenta", "routh-check"])
def test_a_fresh_process_gives_the_frozen_hashes_through_its_exit(tmp_path, name):
    # The run above calls main in this process; here the command runs as a
    # user runs it, and the process ends through the interpreter's shutdown,
    # the path that the CLI's frozen import-time heap alters.
    command, raw = FROZEN_RUNS[name]
    out = tmp_path / "out.csv"
    argv = [command, "--config", write_config(tmp_path, raw)] + (["--out", str(out)] if command != "check" else [])
    proc = _python(CLI, *argv, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    digests = [hashlib.sha256(proc.stdout).hexdigest()]
    if command != "check":
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(digests) == FROZEN_SHA256[name]


def test_only_the_cli_freezes_its_import_time_heap():
    code = ("import gc, json, sys; import nonholo; library = gc.get_freeze_count(); import nonholo.cli; "
            "print(json.dumps([library, gc.get_freeze_count(), 'nonholo.certify' in sys.modules]))")
    proc = _python(code, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    library, cli_frozen, certify_loaded = json.loads(proc.stdout)
    assert library == 0
    assert cli_frozen > 0
    assert not certify_loaded  # only check and a Routh momenta import it
