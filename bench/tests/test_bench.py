"""Tests of the benchmark itself: configs, validator, metric names, tracer."""
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Invalid, build_ops, validate  # noqa: E402

from nonholo.cli import parse_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_config_generation_is_deterministic():
    for workload in workloads.WORKLOADS:
        first = [op.config_text for op in build_ops(workload, 7)]
        assert first == [op.config_text for op in build_ops(workload, 7)]
        for text in first:
            parse_config(text)  # the program accepts every generated config
    assert build_ops("trajectory", 7)[0].config_text != build_ops("trajectory", 8)[0].config_text
    assert build_ops("certify", 7)[0].config_sha256 != build_ops("certify", 8)[0].config_sha256
    # ellipsoid starts are fixed, so its configs do not depend on the seed
    assert [o.config_text for o in build_ops("ellipsoid", 7)] == [
        o.config_text for o in build_ops("ellipsoid", 8)
    ]


def test_seeded_starts_stay_in_their_ranges():
    for seed in range(20):
        routh, particle = build_ops("trajectory", seed)
        gamma, M = routh.config["initial"]["gamma"], routh.config["initial"]["M"]
        assert abs(gamma[2]) <= 0.9 and abs(math.hypot(*gamma) - 1.0) < 1e-12
        assert all(abs(m) <= 3.0 for m in M)
        state = particle.config["initial"]["position"] + particle.config["initial"]["momentum"]
        assert all(abs(v) <= 2.0 for v in state)


def _simulate_op():
    return build_ops("trajectory", 0)[0]


def _summary(**drifts):
    body = {"dE": 1e-14, "dJ1": 1e-14, "dJ2": 1e-14, "dRel": 1e-15, **drifts}
    return json.dumps(body)


def test_validator_accepts_a_good_simulate():
    op = _simulate_op()
    got = validate(op, 0, _summary(), workloads.SOLID_HEADER, op.steps + 1)
    assert got == {"dE": 1e-14, "dJ": 1e-14}


def test_validator_flags_nonzero_exit():
    op = _simulate_op()
    with pytest.raises(Invalid, match="exit code 2"):
        validate(op, 2, _summary(), workloads.SOLID_HEADER, op.steps + 1)


def test_validator_flags_nan_summary_as_the_known_pole_failure():
    op = _simulate_op()
    text = _summary().replace("1e-14, \"dJ2\"", "NaN, \"dJ2\"")
    assert "NaN" in text
    with pytest.raises(Invalid) as err:
        validate(op, 0, text, workloads.SOLID_HEADER, op.steps + 1)
    pole = build_ops("ellipsoid", 0)[2]
    assert str(err.value) == pole.known_failure[0]


def test_validator_flags_short_csv_and_wrong_header():
    op = _simulate_op()
    with pytest.raises(Invalid, match="data rows"):
        validate(op, 0, _summary(), workloads.SOLID_HEADER, op.steps)
    with pytest.raises(Invalid, match="header"):
        validate(op, 0, _summary(), workloads.PARTICLE_HEADER, op.steps + 1)


def test_validator_flags_drift_over_contract_and_failed_check():
    op = _simulate_op()
    with pytest.raises(Invalid, match="contract"):
        validate(op, 0, _summary(dE=2e-6), workloads.SOLID_HEADER, op.steps + 1)
    check = build_ops("certify", 3)[0]
    report = {"passed": False, "seed": 3, "samples": 100, "checks": [{"name": "x", "status": "fail"}]}
    with pytest.raises(Invalid, match="did not pass"):
        validate(check, 0, json.dumps(report), None, 0)


def test_check_margin_in_decades():
    checks = [
        {"measured": 1e-10, "tolerance": 1e-8, "mode": "upper"},
        {"measured": 0.5, "tolerance": 1e-3, "mode": "lower"},
        {"measured": 0.0, "tolerance": 1e-12, "mode": "upper"},
    ]
    assert workloads.check_margin(checks) == pytest.approx(2.0)


def test_metric_names_and_spec_agree():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.SUMMARY) + [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_times_of_nested_spans():
    # root [0, 100] > a [10, 60] > b [20, 30]; root > c [70, 90]
    spans = [
        [0, -1, "cli.main", 0, 100, None],
        [1, 0, "momenta.solve_momenta", 10, 60, None],
        [2, 1, "brackets.jacobiator", 20, 30, None],
        [3, 0, "dynamics.integrate", 70, 90, None],
    ]
    assert tracer.self_times(spans) == {0: 30, 1: 40, 2: 10, 3: 20}


def _traced_child(tmp_path, trace):
    op = build_ops("trajectory", 1)[0]
    op.config["integrator"]["t_final"] = 0.05
    cfg = tmp_path / "routh.json"
    cfg.write_text(op.config_text)
    out = tmp_path / f"out{int(trace)}.csv"
    spans = tmp_path / "spans.json"
    args = [sys.executable, str(BENCH / "child.py"), "run"]
    args += ["--trace", str(spans)] if trace else []
    done = subprocess.run(
        args + op.argv(cfg, out), env=run.child_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, out.read_bytes(), spans


def test_traced_self_times_are_nonnegative_and_add_up(tmp_path):
    plain_stdout, plain_csv, _ = _traced_child(tmp_path, trace=False)
    stdout, csv, spans_path = _traced_child(tmp_path, trace=True)
    assert (stdout, csv) == (plain_stdout, plain_csv)  # tracing changes no output
    trace = json.loads(spans_path.read_text())
    spans = trace["spans"]
    assert {s[2] for s in spans} == {"cli.main", "cli.parse_config", "dynamics.integrate"}
    own = tracer.self_times(spans)
    assert all(ns >= 0 for ns in own.values())
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s[0])

    def subtree(sid):
        return own[sid] + sum(subtree(c) for c in children.get(sid, []))

    for s in spans:
        assert subtree(s[0]) == s[4] - s[3]
    integrate = next(s for s in spans if s[2] == "dynamics.integrate")
    assert integrate[5] == {"requested": 50, "done": 50}
    assert trace["counts"]["smallalg.rk4_step"] == 50


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
