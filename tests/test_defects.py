"""Seeded defects: every record ``nonholo check`` runs is failed by a named one.

A defect is a small, deliberate error in one kernel of the package (mutation
analysis: DeMillo, Lipton & Sayward, *Hints on test data selection*, 1978).
It is installed with ``monkeypatch`` in every ``nonholo`` module that bound
the kernel's name, so it is seen however the kernel is reached.  Each defect
runs ``check`` in process on the 5-sample configs below; ``check`` must exit
1 and fail at least the records the defect names.  A record that no defect
can fail measures nothing, and has no place in the battery.
"""
import json
import sys
from dataclasses import dataclass
from typing import Callable

import pytest

from nonholo import BracketKind, certify
from nonholo.cli import main
from test_cli import ELLIPSOID_RAW, PARTICLE_RAW, ROUTH_RAW, write_config

CONFIGS = {
    "ellipsoid": dict(ELLIPSOID_RAW, seed=0, samples=5),
    "balanced": dict(ELLIPSOID_RAW, params=dict(ELLIPSOID_RAW["params"], b=2.0, c=2.0), seed=0, samples=5),
    "routh": dict(ROUTH_RAW, seed=0, samples=5),
    "particle": dict(PARTICLE_RAW, seed=0, samples=5),
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
        rho, zeta, L, rho_p, zeta_p, L_p = profile_terms(*args)
        return rho, zeta, L, rho_p, zeta_p, L_p + 1e-6
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
        "balanced": SOLID_FAILS - {"casimir-J2"} | {"bracket-dynamics-consistency"},
        "routh": SOLID_FAILS - {"casimir-J1"} | {"bracket-dynamics-consistency"},
    }),
    "nh-passed-off-as-gauged": Defect("brackets", "bivector_packed", _nh_for_gauged, {
        "ellipsoid": SOLID_FAILS | {"jacobi-gauged", "involution"},
        "balanced": SOLID_FAILS | {"jacobi-gauged", "involution"},
        "routh": SOLID_FAILS | {"jacobi-gauged", "involution"},
    }),
    "qp01-negated": Defect("geomforms", "_qp_entries", _negate_qp01, {
        "ellipsoid": SOLID_FAILS | {"qp-linearity"},
        "balanced": SOLID_FAILS - {"casimir-J2"} | {"qp-linearity"},
        "routh": {"qp-linearity", "pushforward-table", "kernel-pair", "closed-form-ode-residual",
                  "span-containment"},
    }),
    "l-prime-shifted": Defect("profile", "profile_terms", _shift_l_prime, {
        "ellipsoid": {"bracket-dynamics-consistency"},
        "balanced": {"bracket-dynamics-consistency", "chaplygin-P-zero"},
        "routh": SOLID_FAILS - {"pushforward-table"} | {"bracket-dynamics-consistency", "kernel-pair",
                                                        "closed-form-ode-residual"},
    }),
    "ungauged-term-scaled": Defect("geomforms", "gauge_columns", _gauge_fields(1.0, 1.0 + 1e-3), {
        "ellipsoid": {"jacobi-ungauged-closed-form"},
        "balanced": {"jacobi-ungauged-closed-form"},
        "routh": {"jacobi-ungauged-closed-form"},
    }),
    "mdot1-scaled": Defect("dynamics", "field_floats", _scale_mdot1, {
        "ellipsoid": {"rate-law", "bracket-dynamics-consistency"},
        "balanced": {"rate-law", "bracket-dynamics-consistency"},
        "routh": {"rate-law", "bracket-dynamics-consistency"},
    }),
    "tau5-scaled": Defect("phase", "invariants", _scale_tau5, {
        "ellipsoid": {"relation-residual", "pushforward-table"},
        "balanced": {"relation-residual", "pushforward-table"},
        "routh": {"relation-residual", "pushforward-table"},
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


def install(monkeypatch, defect: Defect) -> None:
    """Replace the kernel in every loaded ``nonholo`` module that bound it."""
    original = getattr(sys.modules[f"nonholo.{defect.module}"], defect.name)
    replacement = defect.make(original)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "nonholo" or mod_name.startswith("nonholo."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


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
    install(monkeypatch, defect)
    for system, expected in defect.fails.items():
        code, failed = run_check(tmp_path, capsys, system)
        assert code == 1, (name, system)
        assert expected <= failed, (name, system, expected - failed)


def test_every_record_is_failed_by_a_named_defect():
    caught = set().union(*(fails for d in DEFECTS.values() for fails in d.fails.values()))
    assert set(certify.RECORDS) <= caught, set(certify.RECORDS) - caught
    assert caught <= set(certify.RECORDS), caught - set(certify.RECORDS)
