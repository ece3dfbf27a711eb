"""Guards for the names that the benchmark harness binds to.

``bench/kernels.py`` and ``bench/tracer.py`` import and wrap functions of
this package by name; a refactor that renames or removes one of them must
fail here instead of silently breaking ``bench/run.py --trace 1``.
"""
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nonholo

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_all_names_resolve_once():
    assert len(nonholo.__all__) == len(set(nonholo.__all__))
    for name in nonholo.__all__:
        assert hasattr(nonholo, name), name


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_bench_modules_import(bench_path):
    for name in ("kernels", "tracer"):
        importlib.import_module(name)


def test_tracer_targets_resolve(bench_path):
    tracer = importlib.import_module("tracer")
    for target in tracer.SPANS + tracer.COUNTERS:
        mod_name, _, attr = target.partition(".")
        obj = importlib.import_module(f"nonholo.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), target


def test_kernel_bench_runs_with_finite_metrics():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(BENCH / "kernels.py")], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics and all(math.isfinite(v) for v in metrics.values()), metrics


def test_tracer_argument_positions_match_the_signatures(bench_path):
    tracer = importlib.import_module("tracer")
    positions = {**tracer.STEPPED, **tracer.DISTINCT_ARG}
    expected = {"dynamics.integrate": "cfg", "particle.particle_integrate": "cfg", "geomforms.qp_matrix": "tau1"}
    assert set(positions) == set(expected)
    for target, name in expected.items():
        mod_name, _, attr = target.partition(".")
        params = list(inspect.signature(getattr(importlib.import_module(f"nonholo.{mod_name}"), attr)).parameters)
        assert params[positions[target]] == name, target
