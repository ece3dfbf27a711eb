"""Guards for the public surface and for the names that the benchmark
harness binds to.

``nonholo.__all__`` is pinned: a name that joins or leaves it must edit the
pin.  ``bench/kernels.py`` and ``bench/tracer.py`` import and wrap functions
of this package by name; a refactor that renames or removes one of them must
fail here instead of silently breaking ``bench/run.py --trace 1``.  Every
definition in ``src/`` is reached from ``src/`` itself, bound by the bench,
or kept for a stated reason (``KEEP``): a helper that only tests call
belongs in ``tests/oracles.py``.  The runtime imports numpy and the
standard library only.
"""
import ast
import collections
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


PUBLIC_NAMES = [
    "BodyParams", "BracketKind", "ConfigError", "ConsistencyError", "DegeneracyError", "DomainError",
    "IntegratorConfig", "MomentaSolution", "NonholoError", "ProfileEval", "ProfileSpec", "ScalarField", "StateGM",
    "bivector_packed", "bracket", "casimir_residuals", "closed_form_momenta", "drift", "drift_report", "energy",
    "eval_gauge_momenta", "eval_profile", "integrate", "invariants", "jacobiator", "momenta_ode_rhs",
    "momentum_components", "nonconservation_rates", "ode_residual", "omega_from_M", "particle_bracket",
    "particle_hamiltonian", "particle_integrate", "particle_jacobiator_reduced", "particle_jacobiator_unreduced",
    "particle_momentum", "particle_rhs", "pushforward_residual", "qp_matrix", "qpl_values", "reduced_bivector_tau",
    "rhs", "rk4_step", "routh_closed_form", "routh_closed_form_derivative", "solution_for", "solve_momenta",
]


def test_public_names_are_pinned():
    assert sorted(nonholo.__all__) == PUBLIC_NAMES


def test_the_cli_imports_no_test_or_bench_dependency():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import json, sys, nonholo.cli; print(json.dumps([name.partition('.')[0] for name in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "numpy" in loaded
    assert not loaded & {"scipy", "sympy", "mpmath", "hypothesis", "pytest", "_pytest"}


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


def test_kernel_bench_calls_every_kernel_once(bench_path, monkeypatch, capsys):
    # The microbench's timing loop replaced by one call per kernel, so an API
    # slip in a kernel it times fails here, in-process and in well under a second.
    kernels = importlib.import_module("kernels")
    calls = []

    def once(fn):
        calls.append(fn())
        return 1.0

    monkeypatch.setattr(kernels, "per_call_us", once)
    assert kernels.main() == 0
    metrics = json.loads(capsys.readouterr().out)
    assert len(metrics) == len(calls) and set(metrics.values()) == {1.0}
    timed = {"brackets.jacobiator.us", "geomforms.qpl_values.us", "particle.particle_jacobiator_reduced.us"}
    assert timed <= set(metrics)


def test_tracer_argument_positions_match_the_signatures(bench_path):
    tracer = importlib.import_module("tracer")
    positions = {**tracer.STEPPED, **tracer.DISTINCT_ARG}
    expected = {"dynamics.integrate": "cfg", "particle.particle_integrate": "cfg", "geomforms.qp_matrix": "tau1"}
    assert set(positions) == set(expected)
    for target, name in expected.items():
        mod_name, _, attr = target.partition(".")
        params = list(inspect.signature(getattr(importlib.import_module(f"nonholo.{mod_name}"), attr)).parameters)
        assert params[positions[target]] == name, target


def test_bench_facing_positions_and_names_are_pinned():
    # bench/tracer.py reads cfg at these positional indices to report
    # steps_done_ratio, and bench/kernels.py times these names with these
    # leading parameters; a stepper refactor must keep both.
    from nonholo import dynamics, particle, phase, profile, smallalg

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(dynamics.integrate)[3] == "cfg"
    assert params(particle.particle_integrate)[1] == "cfg"
    # Both integrators only stream: ``sink`` is a required keyword, so no
    # call can fall back to building the whole trajectory.
    for fn in (dynamics.integrate, particle.particle_integrate):
        sink = inspect.signature(fn).parameters["sink"]
        assert sink.kind is inspect.Parameter.KEYWORD_ONLY and sink.default is inspect.Parameter.empty
    assert dynamics._rhs_packed is dynamics.rhs is nonholo.rhs
    assert params(dynamics.rhs)[:3] == ["params", "spec", "x"]
    assert smallalg.rk4_step is nonholo.rk4_step and params(smallalg.rk4_step)[:4] == ["f", "t", "y", "h"]
    for fn in (phase.omega_from_M, phase.energy):
        assert getattr(nonholo, fn.__name__) is fn and params(fn)[:3] == ["params", "ev", "x"]
    assert profile.eval_profile is nonholo.eval_profile and params(profile.eval_profile)[:2] == ["spec", "gamma3"]
    # bench/tracer.py counts lookups by wrapping MomentaSolution.eval on that
    # class; the closed-form type inherits the lookups, or its calls would escape.
    closed = type(nonholo.closed_form_momenta(nonholo.BodyParams(1.0, 2.0, 3.0), nonholo.ProfileSpec.routh(1.0, 0.1)))
    assert closed is not nonholo.MomentaSolution and closed.__name__ not in nonholo.__all__
    for cls in closed.__mro__[: closed.__mro__.index(nonholo.MomentaSolution)]:
        assert not {"eval", "slope"} & set(vars(cls)), cls


def test_no_package_code_differentiates_numerically():
    # Every derivative is a jet pass; grad_fd stays in smallalg only as the
    # reference the tests compare against (and a name bench/tracer.py wraps).
    import pkgutil

    from nonholo import smallalg

    modules = [importlib.import_module(f"nonholo.{m.name}") for m in pkgutil.iter_modules(nonholo.__path__)]
    binders = [m.__name__ for m in modules if any(v is smallalg.grad_fd for v in vars(m).values())]
    assert binders == ["nonholo.smallalg"]
    assert not any(hasattr(m, name) for m in modules for name in ("TRIVECTOR_STEP", "GRAD_STEP"))
    grad = inspect.signature(nonholo.ScalarField).parameters["grad"]
    assert grad.default is inspect.Parameter.empty


def test_every_bracket_matrix_has_one_assembly():
    # smallalg.matrix builds every bracket matrix (a point, a stack, a jet);
    # the per-state matrix loop and the particle's frame-form bodies are gone.
    import pkgutil

    from nonholo import smallalg

    modules = [importlib.import_module(f"nonholo.{m.name}") for m in pkgutil.iter_modules(nonholo.__path__)]
    gone = ("_gauged_matrices", "_bracket_matrix", "_frame_gradient", "hamiltonian_frame_flow")
    assert not [(m.__name__, name) for m in modules for name in gone if hasattr(m, name)]
    assert not hasattr(smallalg.Jet, "matrix")


def test_every_field_has_one_builder():
    # brackets.state_field builds every ScalarField of the package, its gradient a
    # jet pass; the particle's builder, its second square and the generic RK4 step are gone.
    import pkgutil

    modules = [importlib.import_module(f"nonholo.{m.name}") for m in pkgutil.iter_modules(nonholo.__path__)]
    gone = ("_square", "_field_of", "_rk4_step_n")
    assert not [(m.__name__, name) for m in modules for name in gone if hasattr(m, name)]
    calls, builder = [], set()  # the ScalarField(...) calls of src; the nodes of the builder
    for path in sorted((ROOT / "src" / "nonholo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == ("brackets", "state_field"):
                builder |= {id(n) for n in ast.walk(node)}
            if isinstance(node, ast.Call) and "ScalarField" in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None)):
                calls.append(node)
    assert calls and all(id(c) in builder for c in calls)


#: Definitions that no other ``src/`` code references, each kept for a reason
KEEP = {
    "serialize_config": "the inverse of parse_config, which the config round-trip properties pin",
    "particle_hamiltonian": "the particle's H at a packed state, public beside particle_rhs",
    "particle_momentum": "the particle's J at a packed state, public beside particle_rhs",
}


def _definitions(tree):
    """(name, node) of every top-level function and class of a module and of
    every method of its classes; dunder methods are called by the language."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item


def _bench_bound() -> set:
    """The names bench/kernels.py imports from the package, and the functions
    and methods bench/tracer.py wraps."""
    tree = ast.parse((BENCH / "kernels.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("nonholo") for a in node.names}
    tracer = importlib.import_module("tracer")
    return names | {target.rpartition(".")[2] for target in tracer.SPANS + tracer.COUNTERS}


def test_every_src_definition_is_reached_from_src_or_bench_or_kept(bench_path):
    # A reference is a name or an attribute in code (a docstring, a comment
    # or an ``__all__`` entry is none) outside the definition's own body.
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "nonholo").glob("*.py"))]
    defs = [d for tree in trees for d in _definitions(tree)]
    inside = collections.defaultdict(set)  # node -> the definitions it lies in
    for name, d in defs:
        for node in ast.walk(d):
            inside[id(node)].add(name)
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and name not in inside[id(node)]:
                refs.add(name)
    names = {name for name, _ in defs}
    assert set(KEEP) <= names - refs  # an entry that src defines and does not reach
    unreached = sorted(names - refs - _bench_bound() - set(KEEP))
    assert not unreached, f"src definitions that only tests reach: {unreached}"
