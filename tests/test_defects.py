"""Seeded defects: every record ``nonholo check`` runs is failed by a named one.

A defect is a small, deliberate error in one kernel of the package (mutation
analysis: DeMillo, Lipton & Sayward, *Hints on test data selection*, 1978).
It is installed with ``monkeypatch`` in every ``nonholo`` module that bound
the kernel's name, so it is seen however the kernel is reached by name, and
``install`` counts its calls: a defect that ``check`` never calls is an
error.  Each defect runs ``check`` in process on the 5-sample configs below;
``check`` must exit 1 and fail at least the records the defect names.  A
record that no defect can fail measures nothing, and has no place in the
battery.  ``test_mutants.py`` sweeps one-operator mutants of the kernels
through the same ``install`` and configs.
"""
import json
import sys
from dataclasses import dataclass
from typing import Callable

import pytest

from nonholo import BracketKind, certify
from nonholo.cli import main
from nonholo.smallalg import Jet
from test_cli import ELLIPSOID_RAW, PARTICLE_RAW, ROUTH_RAW, write_config

CONFIGS = {
    "ellipsoid": dict(ELLIPSOID_RAW, seed=0, samples=5),
    "balanced": dict(ELLIPSOID_RAW, params=dict(ELLIPSOID_RAW["params"], b=2.0, c=2.0), seed=0, samples=5),
    "routh": dict(ROUTH_RAW, seed=0, samples=5),
    "particle": dict(PARTICLE_RAW, seed=0, samples=5),
    # c - b = +-1 makes b*(c - b) equal b/(c - b), and m = r = 1 makes x/r
    # equal x*r and 2/m equal 2*m: faults that these two configs show.
    "ellipsoid-3-1": dict(ELLIPSOID_RAW, params=dict(ELLIPSOID_RAW["params"], b=3.0, c=1.0), seed=0, samples=5),
    "routh-nonunit": dict(ROUTH_RAW, params=dict(ROUTH_RAW["params"], m=1.3, I1=2.3, I3=3.7, r=1.5, l=0.2),
                          h=1e-3, seed=0, samples=5),
}


@dataclass(frozen=True)
class Defect:
    """``make(original)`` replaces the kernel ``module.name``; ``check`` on
    each config of ``fails`` must fail at least the records listed there."""

    module: str
    name: str
    make: Callable[[Callable], Callable]
    fails: dict[str, set[str]]


def _gauge_fields(scale_l, scale_kl):
    """gauge_columns with L_vec times ``scale_l`` and K_vec - L_vec times ``scale_kl``."""
    def make(gauge_columns):
        def defect(*args):
            c3, q, p, *vec = gauge_columns(*args)
            l = [a * scale_l for a in vec[:3]]
            kl = [k - a for k, a in zip(vec[3:], vec[:3])]
            return (c3, q, p, *l, *(a + b * scale_kl for a, b in zip(l, kl)))
        return defect
    return make


def _scale_l1_derivative(gauge_columns):
    """gauge_columns whose L_vec jet carries the gradient of its first component
    times 1 + 1e-3, every value (and K_vec) unchanged: a fault that only a
    derivative can see.

    The fault breaks the S^1 symmetry of L_vec's derivative.  A symmetric one
    (all three gradients, or that of L3, scaled alike) fails no record: the
    Jacobiator on invariant triples does not see it.
    """
    def defect(*args):
        c3, q, p, l1, *vec = gauge_columns(*args)
        if isinstance(l1, Jet):
            l1 = Jet(l1.value, l1.grad * (1.0 + 1e-3))
        return (c3, q, p, l1, *vec)
    return defect


def _nh_for_gauged(bivector_packed):
    def defect(params, spec, x, kind):
        return bivector_packed(params, spec, x, BracketKind.NH if kind is BracketKind.GAUGED else kind)
    return defect


def _negate_qp01(qp_entries):
    def defect(*args):
        q00, q01, q10, q11 = qp_entries(*args)
        return q00, -q01, q10, q11
    return defect


def _shift_l_prime(profile_terms):
    def defect(*args):
        rho, zeta, L, rho_p, L_p = profile_terms(*args)
        return rho, zeta, L, rho_p, L_p + 1e-6
    return defect


def _scale_mdot1(field_floats):
    def defect(*args):
        gd1, gd2, gd3, md1, md2, md3 = field_floats(*args)
        return gd1, gd2, gd3, md1 * (1.0 + 1e-6), md2, md3
    return defect


def _scale_tau5(invariants):
    def defect(x):
        tau = invariants(x)
        tau[..., 4] *= 1.0 + 1e-9
        return tau
    return defect


def _coupling(change):
    def make(coupling):
        return lambda v: change(coupling(v), v)
    return make


def _scale_pxdot(field):
    def defect(v):
        xd, yd, zd, pxd, pyd = field(v)
        return xd, yd, zd, pxd * (1.0 + 1e-6), pyd
    return defect


SOLID_FAILS = {"casimir-J1", "casimir-J2", "vertical-generator", "pushforward-table"}

# The failed records are every record that failed on each config, seed 0.
DEFECTS = {
    "gauge-vector-scaled": Defect("geomforms", "gauge_columns", _gauge_fields(1.0 + 1e-6, 1.0), {
        "ellipsoid": SOLID_FAILS | {"bracket-dynamics-consistency"},
        "ellipsoid-3-1": SOLID_FAILS | {"bracket-dynamics-consistency"},
        "balanced": SOLID_FAILS - {"casimir-J2"} | {"bracket-dynamics-consistency"},
        "routh": SOLID_FAILS - {"casimir-J1"} | {"bracket-dynamics-consistency"},
        "routh-nonunit": SOLID_FAILS - {"casimir-J1"} | {"bracket-dynamics-consistency"},
    }),
    "nh-passed-off-as-gauged": Defect("brackets", "bivector_packed", _nh_for_gauged, {
        "ellipsoid": SOLID_FAILS | {"jacobi-gauged", "involution"},
        "ellipsoid-3-1": SOLID_FAILS | {"jacobi-gauged", "involution"},
        "balanced": SOLID_FAILS | {"jacobi-gauged", "involution"},
        "routh": SOLID_FAILS | {"jacobi-gauged", "involution"},
        "routh-nonunit": SOLID_FAILS | {"jacobi-gauged", "involution"},
    }),
    "qp01-negated": Defect("geomforms", "_qp_entries", _negate_qp01, {
        "ellipsoid": SOLID_FAILS | {"qp-linearity"},
        "ellipsoid-3-1": SOLID_FAILS | {"qp-linearity"},
        "balanced": SOLID_FAILS - {"casimir-J2"} | {"qp-linearity"},
        "routh": {"qp-linearity", "pushforward-table", "kernel-pair", "closed-form-ode-residual",
                  "span-containment"},
        "routh-nonunit": {"qp-linearity", "pushforward-table", "kernel-pair", "closed-form-ode-residual",
                          "span-containment"},
    }),
    "l-prime-shifted": Defect("profile", "profile_terms", _shift_l_prime, {
        "ellipsoid": {"bracket-dynamics-consistency"},
        "ellipsoid-3-1": {"bracket-dynamics-consistency"},
        "balanced": {"bracket-dynamics-consistency", "chaplygin-P-zero"},
        "routh": SOLID_FAILS - {"pushforward-table"} | {"bracket-dynamics-consistency", "kernel-pair",
                                                        "closed-form-ode-residual"},
        "routh-nonunit": SOLID_FAILS - {"pushforward-table"} | {"bracket-dynamics-consistency", "kernel-pair",
                                                                "closed-form-ode-residual"},
    }),
    "ungauged-term-scaled": Defect("geomforms", "gauge_columns", _gauge_fields(1.0, 1.0 + 1e-3), {
        "ellipsoid": {"jacobi-ungauged-closed-form"},
        "ellipsoid-3-1": {"jacobi-ungauged-closed-form"},
        "balanced": {"jacobi-ungauged-closed-form"},
        "routh": {"jacobi-ungauged-closed-form"},
        "routh-nonunit": {"jacobi-ungauged-closed-form"},
    }),
    "mdot1-scaled": Defect("dynamics", "field_floats", _scale_mdot1, {
        "ellipsoid": {"rate-law", "bracket-dynamics-consistency"},
        "ellipsoid-3-1": {"rate-law", "bracket-dynamics-consistency"},
        "balanced": {"rate-law", "bracket-dynamics-consistency"},
        "routh": {"rate-law", "bracket-dynamics-consistency"},
        "routh-nonunit": {"rate-law", "bracket-dynamics-consistency"},
    }),
    "tau5-scaled": Defect("phase", "invariants", _scale_tau5, {
        "ellipsoid": {"relation-residual", "pushforward-table"},
        "ellipsoid-3-1": {"relation-residual", "pushforward-table"},
        "balanced": {"relation-residual", "pushforward-table"},
        "routh": {"relation-residual", "pushforward-table"},
        "routh-nonunit": {"relation-residual", "pushforward-table"},
    }),
    "l1-derivative-scaled": Defect("geomforms", "gauge_columns", _scale_l1_derivative, {
        "ellipsoid": {"jacobi-gauged"},
        "ellipsoid-3-1": {"jacobi-gauged"},
        "balanced": {"jacobi-gauged"},
        "routh": {"jacobi-gauged"},
        "routh-nonunit": {"jacobi-gauged"},
    }),
    "coupling-scaled": Defect("particle", "_coupling", _coupling(lambda w, v: w * (1.0 + 1e-3)), {
        "particle": {"jacobi-unreduced-closed-form", "casimir-momentum", "rhs-anchor"},
    }),
    "coupling-shifted": Defect("particle", "_coupling", _coupling(lambda w, v: w + 1e-3 * v[..., 1] * v[..., 4]), {
        "particle": {"reduced-jacobi", "casimir-momentum", "rhs-anchor"},
    }),
    "pxdot-scaled": Defect("particle", "_field", _scale_pxdot, {
        "particle": {"energy-drift", "momentum-drift", "rhs-anchor"},
    }),
    "coupling-zeroed": Defect("particle", "_coupling", _coupling(lambda w, v: w * 0.0), {
        "particle": {"jacobi-negative-control", "jacobi-unreduced-closed-form", "casimir-momentum", "rhs-anchor"},
    }),
}


def install(monkeypatch, module: str, name: str, make: Callable[[Callable], Callable]) -> list[int]:
    """Replace the kernel ``nonholo.<module>.<name>`` by ``make(kernel)`` in
    every loaded ``nonholo`` module that bound it; return a one-item list
    that counts the calls to the replacement.

    A binding held elsewhere (a table of functions, such as
    ``smallalg._UNROLLED``) keeps the kernel: a replacement that ``check``
    never calls was never installed, and the count shows it.
    """
    original = getattr(sys.modules[f"nonholo.{module}"], name)
    replacement, calls = make(original), [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return replacement(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "nonholo" or mod_name.startswith("nonholo."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def run_check(tmp_path, capsys, system: str) -> tuple[int, set[str]]:
    """``check``'s exit code and failed records on the config of ``system``."""
    code = main(["check", "--config", write_config(tmp_path, CONFIGS[system])])
    report = json.loads(capsys.readouterr().out)
    return code, {c["name"] for c in report["checks"] if c["status"] == "fail"}


@pytest.mark.parametrize("system", sorted(CONFIGS))
def test_every_config_passes_without_a_defect(tmp_path, capsys, system):
    assert run_check(tmp_path, capsys, system) == (0, set())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_check_fails_on_the_defect(tmp_path, capsys, monkeypatch, name):
    defect = DEFECTS[name]
    calls = install(monkeypatch, defect.module, defect.name, defect.make)
    for system, expected in defect.fails.items():
        before = calls[0]
        code, failed = run_check(tmp_path, capsys, system)
        assert calls[0] > before, f"check on {system} never called the defect"
        assert code == 1, (name, system)
        assert expected <= failed, (name, system, expected - failed)


def test_install_counts_only_the_calls_that_reach_the_replacement(tmp_path, capsys, monkeypatch):
    # rk4_step dispatches through smallalg._UNROLLED, a table install does not rebind
    step = install(monkeypatch, "smallalg", "_rk4_step5", lambda kernel: kernel)
    field = install(monkeypatch, "particle", "_field", lambda kernel: kernel)
    assert run_check(tmp_path, capsys, "particle") == (0, set())
    assert step == [0] and field[0] > 0


def test_every_record_is_failed_by_a_named_defect():
    caught = set().union(*(fails for d in DEFECTS.values() for fails in d.fails.values()))
    assert set(certify.RECORDS) <= caught, set(certify.RECORDS) - caught
    assert caught <= set(certify.RECORDS), caught - set(certify.RECORDS)
