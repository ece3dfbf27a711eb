"""Guards for the names that the benchmark harness binds to.

``bench/kernels.py`` and ``bench/tracer.py`` import and wrap functions of
this package by name; a refactor that renames or removes one of them must
fail here instead of silently breaking ``bench/run.py --trace 1``.
"""
import importlib
from pathlib import Path

import pytest

import nonholo

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
