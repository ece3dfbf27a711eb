"""Config parsing, deterministic sampling, and end-to-end command tests."""

import hashlib
import json
import math

import numpy as np
import pytest

from nonholo.cli import (
    CheckResult,
    Report,
    main,
    parse_config,
    sample_particle,
    sample_state,
    serialize_config,
)
from nonholo.errors import ConfigError

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
    assert cfg.integrator.renormalize_gamma is True
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
]


@pytest.mark.parametrize("base,path,value,pointer", BAD_CASES)
def test_parse_rejects_with_pointer(base, path, value, pointer):
    raw = _mutated(base, path, value)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(raw))
    assert excinfo.value.pointer == pointer


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
    monkeypatch.setenv("NONHOLO_SEED", "eleven")
    assert main(["check", "--config", path]) == 2
    assert "NONHOLO_SEED" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_is_a_usage_error_not_a_check_failure(tmp_path, capsys):
    huge = dict(ROUTH_RAW, initial={"gamma": [0.6, 0.0, 0.8], "M": [1e308, 2.0, 3.0]})
    huge["integrator"] = {"dt": 1e-3, "t_final": 0.01}
    path = write_config(tmp_path, huge)
    with pytest.warns(UserWarning, match="non-finite state"):
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: arithmetic overflow")
    assert not (tmp_path / "t.csv").exists()  # an aborted run leaves no CSV


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
# column arrays; a change that moves any output byte of these runs must say
# so and re-record them.
FROZEN_SHA256 = {
    "ellipsoid-check": ("c2b2383c3ef5624be60fcb6700a60fe3f87667be42a19ab34e921ded1c7d4fe1",),
    "ellipsoid-momenta": (
        "5cafae4f8d2ae806979f334cc6e897a81ce579590a0fefaac088dbe0aa0b24a6",
        "800cd1cec1d75f9b0dc49290f6d4a329fba857af2faae4ef00d1f0f0bc88320c",
    ),
    "ellipsoid-simulate": (
        "ed005118067088dff5b5e522d143d9c3fb06807c42ed8b75c18a07195850f883",
        "f1ddfe327aa4b739e677d7962b9be4de2fe84601a12b6efcf20d50d978095c7b",
    ),
    "ellipsoid-pole-simulate": (
        "f7f1ccead6d55c0bee4ac7cb8ef6147322552a09ac68c882f5a441b1f167dd05",
        "7e4cdd7080840c28529d6397bb79d543514c32f17381932a42d71071637c1781",
    ),
    "particle-check": ("c708641567a0fbcb08bc1713150c8ea6f1231be9779e82cc9189f8bd777660e6",),
    "particle-simulate": (
        "642e76a0f174bdf26652e2e542132ed5dfbc5d5d41d1f5c4edcdb6b6eaab7b8e",
        "3b36efee4f8138e82c88f9ea382183e97af094353b59df6c3c0e80af6a276972",
    ),
    "routh-check": ("391b3a41c4416ea6cf3abc5d661d1da0caa0f9ba4051d99bb71f3f5d8d6c2ab6",),
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


@pytest.mark.parametrize("name", sorted(FROZEN_RUNS))
def test_outputs_are_byte_identical_to_the_frozen_hashes(tmp_path, capsys, name):
    command, raw = FROZEN_RUNS[name]
    out = tmp_path / "out.csv"
    argv = [command, "--config", write_config(tmp_path, raw)]
    if command != "check":
        argv += ["--out", str(out)]
    assert main(argv) == 0
    digests = [hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()]
    if command != "check":
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(digests) == FROZEN_SHA256[name]
