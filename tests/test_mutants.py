"""One-operator mutants of the physics kernels: each dies in ``check`` or is named as equivalent.

A mutant is a kernel with one arithmetic operator changed (DeMillo, Lipton
& Sayward, *Hints on test data selection*, 1978; Jia & Harman, *An analysis
and survey of the development of mutation testing*, IEEE TSE 37, 2011):
``+`` and ``-`` swap, ``*`` becomes ``/`` or ``+``, and ``/`` becomes ``*``,
on every binary operation and augmented assignment of the kernel's source.
Each mutant is installed as ``test_defects.install`` installs a defect, and
``check`` runs in process on the configs of ``test_defects.CONFIGS`` that
reach the kernel, in the order of ``KERNELS``, until one fails (a failed
record, or an error: ``check`` does not exit 0).  A mutant that survives
every config is either a fault that ``check`` misses, which fails the test,
or listed in ``EQUIVALENT`` with the reason it cannot be caught.  An entry
there must name a mutant that exists and survives, so the table cannot go
stale, and a mutant that ``check`` never calls is an error, not a survivor.

The written-out RK4 steps ``smallalg._rk4_step5`` and ``_rk4_step6`` are
swept against another killer (``STEPPERS``).  ``check`` cannot see their
faults: all 120 ``_rk4_step6`` mutants survive it, since it integrates no
solid, and 55 of the 101 ``_rk4_step5`` mutants, since the particle's
reference run also steps x, z, py and t, none of which feeds H or J.  So
each of their mutants is installed in ``smallalg._UNROLLED``, the table
through which ``rk4_step`` reaches them (``install`` does not rebind it),
and must fail an oracle test of ``tests/test_float_stepper.py``: the step
against the array formula, or a run against the numpy integrator.

The momenta series solve (twice for a Routh config: the run's closed forms
need none, and ``span-containment`` solves the series) and the particle's
reference run are most of a ``check``'s time.  Each is computed once per
distinct call (``_recording``) and replayed to the mutants of every kernel
it does not call (``_replaying``).

Run alone with ``python3 -m pytest tests/test_mutants.py``.
"""
import __future__
import ast
import collections
import functools
import inspect
import json
import pickle
import sys
import warnings

import pytest

import test_float_stepper as stepper_oracles
from nonholo import cli, smallalg
from test_defects import CONFIGS, install

SOLIDS = ("ellipsoid-3-1", "routh-nonunit", "ellipsoid", "balanced", "routh")
ROUTH = ("routh-nonunit", "routh")
#: The configs whose momenta series take every path of the solve: pivoting, panels
SERIES = ("routh", "routh-nonunit", "ellipsoid-3-1", "ellipsoid", "balanced", "routh-pivoting", "ellipsoid-prolate")

#: Each swept kernel and the configs that run its mutants, the likeliest to kill first.
KERNELS = {
    "profile.profile_terms": SOLIDS,
    "profile.mass_scalars": SOLIDS,
    "phase.omega_floats": SOLIDS,
    "phase.energy_floats": SOLIDS,
    "phase.relation_residual": SOLIDS,
    "dynamics.field_floats": SOLIDS,
    "dynamics.nonconservation_rates": SOLIDS,
    "geomforms.gauge_columns": SOLIDS,
    "geomforms._qp_entries": SOLIDS,
    "brackets._gauge_gradient": SOLIDS,
    "brackets.reduced_bivector_tau": SOLIDS,
    "smallalg.jacobi_trivector": SOLIDS + ("particle",),
    "momenta._ode_slope": SOLIDS,
    # the series solve: span-containment holds the Routh series to the closed
    # forms, and the Casimir records the ellipsoid's values to its slopes
    "momenta._collocate": SERIES,
    "momenta._chebyshev": SERIES,
    "momenta._eliminate": SERIES,
    "momenta._clenshaw": SERIES,
    "momenta._side": ("ellipsoid-prolate",),
    "momenta._routh_zeta_p": ROUTH,
    "momenta.routh_closed_form": ROUTH,
    "momenta.routh_closed_form_derivative": ROUTH,
    "particle._field": ("particle",),
    "particle._coupling": ("particle",),
    "particle._hamiltonian": ("particle",),
    "particle._momentum": ("particle",),
}

#: The written-out RK4 steps, by the state length under which ``smallalg._UNROLLED``
#: holds them, and the oracle tests that must fail on each of their mutants.
STEPPERS = {
    "smallalg._rk4_step5": (5, [stepper_oracles.test_rk4_step_has_the_bits_of_the_array_formula] + [
        functools.partial(stepper_oracles.test_particle_integrate_matches_the_numpy_body, seed) for seed in range(6)]),
    "smallalg._rk4_step6": (6, [stepper_oracles.test_rk4_step_has_the_bits_of_the_array_formula] + [
        functools.partial(stepper_oracles.test_integrate_matches_the_numpy_body, index) for index in range(16)]),
}

_ZERO_SIGN = "changes only the sign of a zero component of s or L_vec, which no record reads"
_UNCONVERGED = ("a bound on the panels of a series that does not chop, which a valid config never reaches; "
                "such a body is an error whichever bound stops it")
_SAME_COSINE = ("sin((n - m) pi/(2n)) is cos(m pi/(2n)) for every m, and so is sin((n + m) pi/(2n)): the "
                "reduction only keeps the angle small, so the mutant moves T_k(x_j) by rounding alone")
_GUARD = ("feeds only E's DegeneracyError guard (E = 1 - m<A^-1 s, s> > 0 for any m, I1, I3 > 0), "
          "which no valid config trips")

#: The surviving mutants that no config can kill, by (kernel, mutant), and why.
EQUIVALENT = {
    ("dynamics.field_floats", "rho * g1 - z -> rho * g1 + z"): _ZERO_SIGN,
    ("dynamics.field_floats", "rho * g2 - z -> rho * g2 + z"): _ZERO_SIGN,
    ("dynamics.field_floats", "md3 += mg * (s1 * g2 - s2 * g1) -> md3 -= mg * (s1 * g2 - s2 * g1)"):
        "(s x gamma)_3 = (rho*g1)*g2 - (rho*g2)*g1 is rounding for a body of revolution",
    ("geomforms.gauge_columns", "rho * g1 - z -> rho * g1 + z"): _ZERO_SIGN,
    ("geomforms.gauge_columns", "rho * g2 - z -> rho * g2 + z"): _ZERO_SIGN,
    ("geomforms.gauge_columns", "q * g1 + zp -> q * g1 - zp"): _ZERO_SIGN,
    ("geomforms.gauge_columns", "q * g2 + zp -> q * g2 - zp"): _ZERO_SIGN,
    ("profile.mass_scalars", "rho * g1 - z -> rho * g1 + z"): _ZERO_SIGN,
    ("profile.mass_scalars", "rho * g2 - z -> rho * g2 + z"): _ZERO_SIGN,
    # a3 and E, the second of each repeated expression
    ("profile.mass_scalars", "params.m * ss -> params.m / ss #2"): _GUARD,
    ("profile.mass_scalars", "params.m * ss -> params.m + ss #2"): _GUARD,
    ("profile.mass_scalars", "1.0 - params.m * ((s1 * s1 + s2 * s2) / a1 + s3 * s3 / a3) -> "
                             "1.0 + params.m * ((s1 * s1 + s2 * s2) / a1 + s3 * s3 / a3)"): _GUARD,
    ("profile.mass_scalars", "(s1 * s1 + s2 * s2) / a1 + s3 * s3 / a3 -> "
                             "(s1 * s1 + s2 * s2) / a1 - s3 * s3 / a3"): _GUARD,
    ("profile.mass_scalars", "s1 * s1 + s2 * s2 -> s1 * s1 - s2 * s2 #2"): _GUARD,
    ("profile.mass_scalars", "s1 * s1 -> s1 / s1 #2"): _GUARD,
    ("profile.mass_scalars", "s1 * s1 -> s1 + s1 #2"): _GUARD,
    ("profile.mass_scalars", "s2 * s2 -> s2 / s2 #2"): _GUARD,
    ("profile.mass_scalars", "s2 * s2 -> s2 + s2 #2"): _GUARD,
    ("profile.mass_scalars", "s3 * s3 -> s3 / s3 #2"): _GUARD,
    ("profile.mass_scalars", "s3 * s3 -> s3 + s3 #2"): _GUARD,
    ("momenta._chebyshev", "4 * n - m -> 4 * n + m"): _SAME_COSINE,
    ("momenta._chebyshev", "n - np.minimum(m, 4 * n - m) -> n + np.minimum(m, 4 * n - m)"): _SAME_COSINE,
    ("momenta._chebyshev", "n + 1 -> n - 1 #4"):
        "leaves T_n(x0) at 1: the integral then misses 0 at x0 by the last coefficient over 2n, "
        "below rounding in a series that chops",
    ("momenta._collocate", "_CHOP * np.max(np.abs(c)) -> _CHOP / np.max(np.abs(c))"):
        "the largest coefficient is at least about 1 (the pairs start at (1, 0) and (0, 1)), so the threshold "
        "is never looser: a series can only take a larger size, as accurate",
    ("momenta._side", "len(panels) + len(edges) -> len(panels) - len(edges)"): _UNCONVERGED,
    ("brackets.reduced_bivector_tau", "upper - upper.transpose(0, 2, 1) -> upper + upper.transpose(0, 2, 1)"):
        "the lower triangle, which no record reads (pushforward-table compares the pairs a < b); "
        "test_brackets' test_table_is_a_table pins the antisymmetry",
}

_SWAPS = {ast.Add: (ast.Sub,), ast.Sub: (ast.Add,), ast.Mult: (ast.Div, ast.Add), ast.Div: (ast.Mult,)}


def mutants(kernel: str) -> dict:
    """Every one-operator mutant of ``kernel``, as ``make`` functions for
    ``install``, by a label ``"<expression> -> <mutant>"``; ``#k`` marks the
    k-th expression with that label, in reading order."""
    module, name = kernel.split(".")
    mod = sys.modules[f"nonholo.{module}"]
    fn = getattr(mod, name)
    tree = ast.parse(inspect.getsource(fn))
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.BinOp, ast.AugAssign)) and type(n.op) in _SWAPS]
    out, seen = {}, collections.Counter()
    for node in sorted(nodes, key=lambda n: (n.lineno, n.col_offset)):
        op = node.op
        for swap in _SWAPS[type(op)]:
            before = ast.unparse(node)
            node.op = swap()
            label = f"{before} -> {ast.unparse(node)}"
            code = compile(tree, mod.__file__, "exec", flags=__future__.annotations.compiler_flag,
                           dont_inherit=True)
            node.op = op
            seen[label] += 1
            out[label if seen[label] == 1 else f"{label} #{seen[label]}"] = _maker(code, mod, name)
    return out


def _maker(code, mod, name):
    def make(original):
        scope = {}
        exec(code, vars(mod), scope)  # the mutant reads the module's (patched) globals
        return scope[name]
    return make


#: The slow steps of ``check`` that a mutant may share: the momenta series
#: solve and the particle's reference run, as (module, name).
_SHARED = (("momenta", "solve_momenta"), ("particle", "particle_integrate"))


def _recording(results: dict, counts: dict, called: set):
    """A ``make`` for ``install``: the step, computed once per distinct call
    into ``results``; the kernels whose ``counts`` grow meanwhile join ``called``."""
    def make(step):
        def record(*args, **kwargs):
            key = pickle.dumps((args, kwargs))
            if key not in results:
                before = {kernel: c[0] for kernel, c in counts.items()}
                results[key] = step(*args, **kwargs)
                called.update(kernel for kernel, c in counts.items() if c[0] > before[kernel])
            return results[key]
        return record
    return make


def _replaying(results: dict):
    """A ``make`` for ``install``: the step, returning what ``_recording`` kept."""
    def make(step):
        def replay(*args, **kwargs):
            key = pickle.dumps((args, kwargs))
            return results[key] if key in results else step(*args, **kwargs)
        return replay
    return make


def _fails(cfg) -> bool:
    """Whether ``check`` on ``cfg`` does not exit 0: a failed record or an
    error.  Warnings are not errors here, as they are not for the command."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return not cli.cmd_check(cfg).passed
        except Exception:
            return True


@pytest.fixture(scope="module")
def sweep():
    """The parsed configs, and for each shared step its results on them and
    the kernels it calls."""
    configs = {name: cli.parse_config(json.dumps(raw)) for name, raw in CONFIGS.items()}
    shared = {}
    for step in _SHARED:
        results, called = {}, set()
        with pytest.MonkeyPatch.context() as mp:
            counts = {kernel: install(mp, *kernel.split("."), lambda kernel: kernel) for kernel in KERNELS}
            install(mp, *step, _recording(results, counts, called))
            assert not any(_fails(cfg) for cfg in configs.values())
        shared[step] = results, called
    return configs, shared


def _dies(kernel: str, make, configs: dict, shared: dict) -> tuple[bool, int]:
    """Whether ``check`` fails on a config of ``kernel`` with ``make``'s
    mutant installed, and how often it called the mutant; each shared step
    that does not call the kernel replays its results."""
    with pytest.MonkeyPatch.context() as mp:
        for step, (results, called) in shared.items():
            if kernel not in called:
                install(mp, *step, _replaying(results))
        calls = install(mp, *kernel.split("."), make)
        died = any(_fails(configs[name]) for name in KERNELS[kernel])
        return died, calls[0]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_every_mutant_dies_in_check_or_is_equivalent(sweep, kernel):
    configs, shared = sweep
    survivors, uncalled = set(), set()
    for label, make in mutants(kernel).items():
        died, calls = _dies(kernel, make, configs, shared)
        if not calls:
            uncalled.add(label)
        elif not died:
            survivors.add(label)
    listed = {mutant for k, mutant in EQUIVALENT if k == kernel}
    assert not uncalled, f"check never called these mutants: {sorted(uncalled)}"
    assert survivors <= listed, f"mutants that check misses: {sorted(survivors - listed)}"
    assert listed <= survivors, f"EQUIVALENT entries that are no surviving mutant: {sorted(listed - survivors)}"


def test_equivalent_names_swept_kernels_with_reasons():
    assert {kernel for kernel, _ in EQUIVALENT} <= set(KERNELS)
    assert all(EQUIVALENT.values())


def _oracle_fails(test) -> bool:
    """Whether the oracle test fails: an assertion or any other error."""
    try:
        test()
    except Exception:
        return True
    return False


@pytest.mark.parametrize("kernel", sorted(STEPPERS))
def test_every_rk4_step_mutant_dies_in_the_stepper_oracles(kernel):
    n, oracle_tests = STEPPERS[kernel]
    assert not any(_oracle_fails(test) for test in oracle_tests)  # the unmutated step passes them
    survivors, uncalled = set(), set()
    for label, make in mutants(kernel).items():
        mutant, calls = make(None), [0]

        def counted(*args):
            calls[0] += 1
            return mutant(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(smallalg._UNROLLED, n, counted)
            died = any(_oracle_fails(test) for test in oracle_tests)
        if not calls[0]:
            uncalled.add(label)
        elif not died:
            survivors.add(label)
    assert not uncalled, f"the oracles never called these mutants: {sorted(uncalled)}"
    assert not survivors, f"mutants that the stepper oracles miss: {sorted(survivors)}"
