"""Command-line interface: ``simulate``, ``check``, ``momenta``.

JSON config in, CSV trajectories and JSON reports out.  Everything is
deterministic for a fixed seed: per-sample random generators are seeded by
(seed, sample index), CSV floats carry 17 significant digits, and report
checks are sorted by name, so identical inputs give byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 usage or I/O error.  The
environment variable NONHOLO_SEED overrides the config seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .brackets import (
    BracketKind,
    J2_COMPONENT,
    TAU1,
    TAU4,
    TAUS,
    bivector_packed,
    bracket,
    casimir_residuals,
    hamiltonian_field,
    jacobiator,
    pushforward_residual,
)
from .dynamics import (
    IntegratorConfig,
    drift_report,
    integrate,
    nonconservation_rates,
    _rhs_packed,
)
from .errors import ConfigError, NonholoError
from .geomforms import qp_matrix, qpl_values
from .momenta import (
    closed_form_momenta,
    ode_residual,
    routh_closed_form,
    routh_pair,
    solve_momenta,
)
from .particle import (
    ParticleState,
    hamiltonian_frame_flow,
    particle_bracket,
    particle_integrate,
    particle_jacobiator_reduced,
    particle_jacobiator_unreduced,
    particle_momentum,
    particle_rhs,
)
from .phase import BodyParams, StateGM, invariants, omega_from_M
from .profile import ProfileSpec, eval_profile, profile_scalars
from .smallalg import E1, E2, E3, cross, dot

SYSTEMS = ("routh", "ellipsoid", "particle")


@dataclass(frozen=True)
class RunConfig:
    system: str
    body: BodyParams | None
    profile: ProfileSpec | None
    gamma0: tuple[float, float, float] | None
    M0: tuple[float, float, float] | None
    particle0: tuple[float, float, float, float, float] | None
    integrator: IntegratorConfig
    seed: int
    samples: int
    delta: float
    h: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    measured: float
    tolerance: float
    citation: str
    mode: str = "upper"  # "upper": pass iff measured < tolerance; "lower": >


@dataclass
class Report:
    system: str
    seed: int
    samples: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> str:
        body = {
            "system": self.system,
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "checks": [dataclasses.asdict(c) for c in sorted(self.checks, key=lambda c: c.name)],
        }
        return json.dumps(body, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# config parsing

def _err(msg: str, pointer: str) -> ConfigError:
    return ConfigError(msg, pointer)


def _check_keys(obj: dict, allowed: set[str], pointer: str) -> None:
    for k in obj:
        if k not in allowed:
            raise _err(f"unknown key {k!r}", f"{pointer}/{k}")


def _number(obj: dict, key: str, pointer: str, default=None) -> float:
    if key not in obj:
        if default is None:
            raise _err(f"missing required key {key!r}", f"{pointer}/{key}")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _err(f"{key!r} must be a number", f"{pointer}/{key}")
    return float(v)


def _integer(obj: dict, key: str, pointer: str, default: int) -> int:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise _err(f"{key!r} must be an integer", f"{pointer}/{key}")
    if v < 0:
        raise _err(f"{key!r} must be non-negative", f"{pointer}/{key}")
    return v


def _vector(obj: dict, key: str, n: int, pointer: str) -> tuple:
    if key not in obj:
        raise _err(f"missing required key {key!r}", f"{pointer}/{key}")
    v = obj[key]
    if (
        not isinstance(v, list)
        or len(v) != n
        or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in v)
        or not all(math.isfinite(c) for c in v)
    ):
        raise _err(f"{key!r} must be a list of {n} finite numbers", f"{pointer}/{key}")
    return tuple(float(c) for c in v)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a strict-JSON run configuration.

    Unknown keys, wrong types, and violated invariants raise ConfigError
    carrying a JSON pointer to the offending element.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _err(f"invalid JSON: {exc}", "") from exc
    if not isinstance(raw, dict):
        raise _err("top level must be an object", "")
    _check_keys(
        raw, {"system", "params", "initial", "integrator", "seed", "samples", "delta", "h"}, ""
    )
    if "system" not in raw:
        raise _err("missing required key 'system'", "/system")
    system = raw["system"]
    if system not in SYSTEMS:
        raise _err(f"system must be one of {SYSTEMS}", "/system")

    body = profile = None
    gamma0 = M0 = particle0 = None
    if system == "particle":
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise _err("'params' must be an object", "/params")
        _check_keys(params, set(), "/params")
        initial = raw.get("initial")
        if not isinstance(initial, dict):
            raise _err("missing or invalid 'initial'", "/initial")
        _check_keys(initial, {"position", "momentum"}, "/initial")
        pos = _vector(initial, "position", 3, "/initial")
        mom = _vector(initial, "momentum", 2, "/initial")
        particle0 = pos + mom
    else:
        params = raw.get("params")
        if not isinstance(params, dict):
            raise _err("missing or invalid 'params'", "/params")
        shape_keys = {"r", "l"} if system == "routh" else {"b", "c"}
        _check_keys(params, {"m", "I1", "I3", "grav"} | shape_keys, "/params")
        m = _number(params, "m", "/params")
        i1 = _number(params, "I1", "/params")
        i3 = _number(params, "I3", "/params")
        grav = _number(params, "grav", "/params", default=0.0)
        try:
            body = BodyParams(m, i1, i3, grav)
        except ValueError as exc:
            raise _err(str(exc), "/params") from exc
        try:
            if system == "routh":
                profile = ProfileSpec.routh(_number(params, "r", "/params"), _number(params, "l", "/params"))
            else:
                profile = ProfileSpec.ellipsoid(_number(params, "b", "/params"), _number(params, "c", "/params"))
        except ValueError as exc:
            raise _err(str(exc), "/params") from exc
        initial = raw.get("initial")
        if not isinstance(initial, dict):
            raise _err("missing or invalid 'initial'", "/initial")
        _check_keys(initial, {"gamma", "M"}, "/initial")
        gamma0 = _vector(initial, "gamma", 3, "/initial")
        M0 = _vector(initial, "M", 3, "/initial")
        try:
            StateGM(np.array(gamma0), np.array(M0))
        except ValueError as exc:
            raise _err(str(exc), "/initial/gamma") from exc

    integ = raw.get("integrator", {})
    if not isinstance(integ, dict):
        raise _err("'integrator' must be an object", "/integrator")
    _check_keys(integ, {"dt", "t_final", "renormalize_gamma"}, "/integrator")
    dt = _number(integ, "dt", "/integrator", default=1e-3)
    t_final = _number(integ, "t_final", "/integrator", default=10.0)
    renorm = integ.get("renormalize_gamma", True)
    if not isinstance(renorm, bool):
        raise _err("'renormalize_gamma' must be a boolean", "/integrator/renormalize_gamma")
    try:
        integrator = IntegratorConfig(dt, t_final, renorm)
    except ValueError as exc:
        raise _err(str(exc), "/integrator") from exc

    seed = _integer(raw, "seed", "", 0)
    samples = _integer(raw, "samples", "", 100)
    delta = _number(raw, "delta", "", default=1e-3)
    h = _number(raw, "h", "", default=1e-4)
    if not 1e-6 <= delta <= 0.1:
        raise _err("'delta' must lie in [1e-6, 0.1]", "/delta")
    if not 0 < h <= 1e-3:
        raise _err("'h' must lie in (0, 1e-3]", "/h")
    return RunConfig(system, body, profile, gamma0, M0, particle0, integrator, seed, samples, delta, h)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON for a RunConfig; parse_config(serialize_config(c)) == c."""
    out: dict = {"system": cfg.system}
    if cfg.system == "particle":
        out["params"] = {}
        out["initial"] = {
            "position": list(cfg.particle0[:3]),
            "momentum": list(cfg.particle0[3:]),
        }
    else:
        p = {"m": cfg.body.m, "I1": cfg.body.I1, "I3": cfg.body.I3, "grav": cfg.body.grav}
        if cfg.system == "routh":
            p["r"], p["l"] = cfg.profile.p1, cfg.profile.p2
        else:
            p["b"], p["c"] = cfg.profile.p1, cfg.profile.p2
        out["params"] = p
        out["initial"] = {"gamma": list(cfg.gamma0), "M": list(cfg.M0)}
    out["integrator"] = {
        "dt": cfg.integrator.dt,
        "t_final": cfg.integrator.t_final,
        "renormalize_gamma": cfg.integrator.renormalize_gamma,
    }
    out["seed"] = cfg.seed
    out["samples"] = cfg.samples
    out["delta"] = cfg.delta
    out["h"] = cfg.h
    return json.dumps(out, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# deterministic sampling

def sample_state(seed: int, index: int) -> StateGM:
    """gamma uniform on S^2 with |gamma3| < 0.95, M uniform in [-3, 3]^3."""
    rng = np.random.default_rng((seed, index))
    while True:
        v = rng.standard_normal(3)
        n = math.sqrt(float(v @ v))
        if n < 1e-12:
            continue
        g = v / n
        if abs(g[2]) < 0.95:
            break
    return StateGM(g, rng.uniform(-3.0, 3.0, 3))


def sample_particle(seed: int, index: int) -> np.ndarray:
    """Particle states componentwise uniform in [-2, 2]^5."""
    rng = np.random.default_rng((seed, index))
    return rng.uniform(-2.0, 2.0, 5)


# ---------------------------------------------------------------------------
# formatting

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: RunConfig, out_path: str) -> int:
    """Run the configured trajectory, write the CSV, print a drift summary."""
    try:
        if cfg.system == "particle":
            traj = particle_integrate(ParticleState(*cfg.particle0), cfg.integrator)
            rows = (
                (s.t, s.state.x, s.state.y, s.state.z, s.state.px, s.state.py, s.J, s.E)
                for s in traj
            )
            _write_csv(out_path, ["t", "x", "y", "z", "px", "py", "J", "E"], rows)
            summary = {
                "dE": max(abs(s.E - traj[0].E) for s in traj),
                "dJ": max(abs(s.J - traj[0].J) for s in traj),
            }
        else:
            state0 = StateGM(np.array(cfg.gamma0), np.array(cfg.M0))
            traj = integrate(cfg.body, cfg.profile, state0, cfg.integrator)
            rows = (
                (
                    s.t,
                    *s.state.gamma,
                    *s.state.M,
                    s.inv.t1,
                    s.inv.t2,
                    s.inv.t3,
                    s.inv.t4,
                    s.inv.t5,
                    s.E,
                    s.J1,
                    s.J2,
                    s.j1,
                    s.j2,
                )
                for s in traj
            )
            header = "t,g1,g2,g3,M1,M2,M3,tau1,tau2,tau3,tau4,tau5,E,J1,J2,j1,j2".split(",")
            _write_csv(out_path, header, rows)
            summary = drift_report(traj)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


def _solid_checks(cfg: RunConfig) -> list[CheckResult]:
    params, spec = cfg.body, cfg.profile
    states = [sample_state(cfg.seed, k) for k in range(cfg.samples)]
    if spec.kind == "routh":
        momenta = closed_form_momenta(params, spec, cfg.delta)
    else:
        momenta = solve_momenta(params, spec, cfg.delta, cfg.h)
    ham = hamiltonian_field(params, spec)
    kinds = (BracketKind.GAUGED, BracketKind.NH)

    antisym = leib = qp_rel = gauge_c = jac_g = 0.0
    notp_rel = cas1 = cas2 = invol = vert = push = rate = rel = consist = 0.0
    for st in states:
        x = st.packed()
        ev = eval_profile(spec, x[2])
        sc = profile_scalars(params, ev, st.gamma)
        vals = qpl_values(params, ev, st)
        inv = invariants(st)

        for kind in kinds:
            pi = bivector_packed(params, spec, x, kind)
            antisym = max(antisym, float(np.max(np.abs(pi + pi.T))))
            xd = _rhs_packed(params, spec, x)
            consist = max(consist, float(np.max(np.abs(xd - pi @ ham.gradient(x)))))

        def fg(y):
            return (y[0] * y[4] - y[1] * y[3]) * (y[0] * y[3] + y[1] * y[4])

        lhs = bracket(params, spec, fg, TAUS[3], st, BracketKind.GAUGED)
        t2v, t3v = inv.t2, inv.t3
        rhs_leib = t2v * bracket(params, spec, TAUS[2], TAUS[3], st, BracketKind.GAUGED) + (
            t3v * bracket(params, spec, TAUS[1], TAUS[3], st, BracketKind.GAUGED)
        )
        leib = max(leib, abs(lhs - rhs_leib))

        qp = qp_matrix(params, spec, inv.t1)
        qv = qp[0, 0] * inv.t3 + qp[0, 1] * inv.t4
        pv = qp[1, 0] * inv.t3 + qp[1, 1] * inv.t4
        den = max(abs(vals.Q), abs(vals.P), 1e-3)
        qp_rel = max(qp_rel, abs(qv - vals.Q) / den, abs(pv - vals.P) / den)

        omega = omega_from_M(params, ev, st)
        for e in (E1, E2, E3):
            gauge_c = max(gauge_c, abs(dot(omega, cross(omega, e))))

        for a in range(5):
            for b in range(a + 1, 5):
                for c in range(b + 1, 5):
                    jac_g = max(
                        jac_g,
                        abs(jacobiator(params, spec, TAUS[a], TAUS[b], TAUS[c], st, BracketKind.GAUGED)),
                    )

        jac_nh = jacobiator(params, spec, TAU1, J2_COMPONENT, TAU4, st, BracketKind.NH)
        closed = -params.m * ev.rho * sc.gs * (1.0 - inv.t1**2) / sc.A1
        notp_rel = max(notp_rel, abs(jac_nh - closed) / abs(closed))

        res = casimir_residuals(params, spec, st, momenta)
        cas1 = max(cas1, res.max_j1)
        cas2 = max(cas2, res.max_j2)
        invol = max(invol, res.involution)
        vert = max(vert, res.vertical1, res.vertical2)

        push = max(push, pushforward_residual(params, spec, st))

        rl = nonconservation_rates(params, ev, st)
        scale = max(abs(rl.pred1), abs(rl.pred2), 1e-6)
        rate = max(rate, abs(rl.dj1 - rl.pred1) / scale, abs(rl.dj2 - rl.pred2) / scale)

        rel = max(rel, abs(inv.relation_residual()))

    checks = [
        CheckResult("antisymmetry", _status(antisym, 1e-9), antisym, 1e-9,
                    "bracket matrix is antisymmetric by construction"),
        CheckResult("leibniz", _status(leib, 1e-7), leib, 1e-7,
                    "bracket satisfies the Leibniz rule"),
        CheckResult("qp-linearity", _status(qp_rel, 1e-9), qp_rel, 1e-9,
                    "Q and P are linear in (tau3, tau4)"),
        CheckResult("gauge-compatibility", _status(gauge_c, 1e-14), gauge_c, 1e-14,
                    "gauge 2-form annihilates the constrained dynamics"),
        CheckResult("jacobi-gauged", _status(jac_g, 1e-6), jac_g, 1e-6,
                    "gauged reduced bracket satisfies the Jacobi identity"),
        CheckResult("jacobi-ungauged-closed-form", _status(notp_rel, 1e-4), notp_rel, 1e-4,
                    "ungauged Jacobiator matches its closed-form obstruction"),
        CheckResult("casimir-J1", _status(cas1, 1e-8), cas1, 1e-8,
                    "gauge momenta are Casimirs of the gauged bracket"),
        CheckResult("casimir-J2", _status(cas2, 1e-8), cas2, 1e-8,
                    "gauge momenta are Casimirs of the gauged bracket"),
        CheckResult("involution", _status(invol, 1e-8), invol, 1e-8,
                    "the two gauge momenta are in involution"),
        CheckResult("vertical-generator", _status(vert, 1e-8), vert, 1e-8,
                    "momentum flows are proportional to the S1 generator"),
        CheckResult("pushforward-table", _status(push, 1e-8), push, 1e-8,
                    "tau-pushforward of the bracket matches the explicit table"),
        CheckResult("rate-law", _status(rate, 1e-9), rate, 1e-9,
                    "momentum components drift at the predicted rate"),
        CheckResult("relation-residual", _status(rel, 1e-12), rel, 1e-12,
                    "invariant coordinates satisfy their defining relation"),
        CheckResult("bracket-dynamics-consistency", _status(consist, 1e-8), consist, 1e-8,
                    "dynamics is bracket-hamiltonian for both bracket kinds"),
    ]

    if spec.kind == "routh":
        r, l = spec.p1, spec.p2
        grid = np.linspace(-0.999, 0.999, 1000)
        kern = 0.0
        oderes = 0.0
        p1cf = routh_pair(params, spec, 0)
        p2cf = routh_pair(params, spec, 1)
        for t1 in grid:
            qp = qp_matrix(params, spec, float(t1))
            kern = max(kern, abs(qp[0, 0] * l + qp[1, 0] * r), abs(qp[0, 1] * l + qp[1, 1] * r))
            oderes = max(
                oderes,
                ode_residual(params, spec, p1cf, float(t1)),
                ode_residual(params, spec, p2cf, float(t1)),
            )
        numeric = solve_momenta(params, spec, cfg.delta, cfg.h)
        span = _span_residual(params, spec, numeric)
        checks += [
            CheckResult("kernel-pair", _status(kern, 1e-12), kern, 1e-12,
                        "the constant pair spans the coefficient-ODE kernel"),
            CheckResult("closed-form-ode-residual", _status(oderes, 1e-9), oderes, 1e-9,
                        "closed-form pairs solve the coefficient ODE"),
            CheckResult("span-containment", _status(span, 1e-6), span, 1e-6,
                        "numeric solution span contains the closed forms"),
        ]
    elif spec.p1 == spec.p2:
        pmax = 0.0
        for st in states:
            ev = eval_profile(spec, st.gamma[2])
            pmax = max(pmax, abs(qpl_values(params, ev, st).P))
        checks.append(
            CheckResult("chaplygin-P-zero", _status(pmax, 1e-12), pmax, 1e-12,
                        "balanced ellipsoid limit has identically vanishing P")
        )
    return checks


def _span_residual(params: BodyParams, spec: ProfileSpec, numeric) -> float:
    """Worst deviation of closed-form pairs from the numeric span (routh)."""
    r, l = spec.p1, spec.p2
    c10, c20 = routh_closed_form(params, r, l, 0.0)
    worst = 0.0
    for t1, row in zip(numeric.grid, numeric.pairs):
        cf1, cf2 = routh_closed_form(params, r, l, float(t1))
        pred1 = (c10[0] * row[0] + c10[1] * row[2], c10[0] * row[1] + c10[1] * row[3])
        pred2 = (c20[0] * row[0] + c20[1] * row[2], c20[0] * row[1] + c20[1] * row[3])
        worst = max(
            worst,
            abs(pred1[0] - cf1[0]),
            abs(pred1[1] - cf1[1]),
            abs(pred2[0] - cf2[0]),
            abs(pred2[1] - cf2[1]),
        )
    return worst


def _particle_checks(cfg: RunConfig) -> list[CheckResult]:
    run_cfg = IntegratorConfig(1e-3, 10.0)
    traj = particle_integrate(ParticleState(0.0, 0.0, 0.0, 1.0, 1.0), run_cfg)
    dj = max(abs(s.J - traj[0].J) for s in traj)
    de = max(abs(s.E - traj[0].E) for s in traj)

    jac = casj = anchor = neg = negdev = 0.0
    coords = [lambda u: u[1], lambda u: u[3], lambda u: u[4]]
    for k in range(cfg.samples):
        v = sample_particle(cfg.seed, k)
        jac = max(jac, particle_jacobiator_reduced(v))
        ju = particle_jacobiator_unreduced(v)
        neg = max(neg, abs(ju))
        negdev = max(negdev, abs(ju - v[1] / (1.0 + v[1] ** 2)))
        for f in coords:
            casj = max(casj, abs(particle_bracket(particle_momentum, f, v)))
        c = hamiltonian_frame_flow(v)
        coord_rate = np.array([c[0], c[1], v[1] * c[0], c[2], c[3]])
        anchor = max(anchor, float(np.max(np.abs(coord_rate - particle_rhs(v)))))

    feq = 0.0
    for y in np.linspace(-3.0, 3.0, 601):
        f = 1.0 / math.sqrt(1.0 + y * y)
        fp = -y * (1.0 + y * y) ** -1.5
        feq = max(feq, abs(fp + f * y / (1.0 + y * y)))

    return [
        CheckResult("energy-drift", _status(de, 1e-8), de, 1e-8,
                    "constrained particle conserves H"),
        CheckResult("momentum-drift", _status(dj, 1e-8), dj, 1e-8,
                    "constrained particle conserves J"),
        CheckResult("reduced-jacobi", _status(jac, 1e-7), jac, 1e-7,
                    "reduced particle bracket is Poisson"),
        CheckResult("jacobi-negative-control", "pass" if neg > 1e-3 else "fail", neg, 1e-3,
                    "triples keeping the unreduced x must fail Jacobi", mode="lower"),
        CheckResult("jacobi-unreduced-closed-form", _status(negdev, 1e-9), negdev, 1e-9,
                    "the (x, px, py) Jacobiator equals y/(1+y^2)"),
        CheckResult("casimir-momentum", _status(casj, 1e-8), casj, 1e-8,
                    "J is a Casimir of the reduced particle bracket"),
        CheckResult("rhs-anchor", _status(anchor, 1e-9), anchor, 1e-9,
                    "bracket-hamiltonian flow equals the constrained dynamics"),
        CheckResult("momentum-equation", _status(feq, 1e-12), feq, 1e-12,
                    "coefficient f solves its momentum equation"),
    ]


def _status(measured: float, tol: float) -> str:
    return "pass" if measured < tol else "fail"


def cmd_check(cfg: RunConfig) -> Report:
    """Run the invariant battery for the configured system."""
    checks = _particle_checks(cfg) if cfg.system == "particle" else _solid_checks(cfg)
    return Report(cfg.system, cfg.seed, cfg.samples, checks)


def cmd_momenta(cfg: RunConfig, out_path: str) -> int:
    """Tabulate the momenta coefficient solutions as CSV."""
    if cfg.system == "particle":
        print("error: momenta requires a solids system (routh or ellipsoid)", file=sys.stderr)
        return 2
    sol = solve_momenta(cfg.body, cfg.profile, cfg.delta, cfg.h)
    summary = {
        "rows": len(sol.grid),
        "min_independence": sol.min_independence(),
    }
    try:
        if cfg.profile.kind == "routh":
            r, l = cfg.profile.p1, cfg.profile.p2
            header = ["tau1", "f1", "g1", "f2", "g2", "f1_cf", "g1_cf", "f2_cf", "g2_cf"]

            def rows():
                for t1, row in zip(sol.grid, sol.pairs):
                    cf1, cf2 = routh_closed_form(cfg.body, r, l, float(t1))
                    yield (t1, row[0], row[1], row[2], row[3], cf1[0], cf1[1], cf2[0], cf2[1])

            _write_csv(out_path, header, rows())
            summary["max_closed_form_deviation"] = _span_residual(cfg.body, cfg.profile, sol)
        else:
            _write_csv(
                out_path,
                ["tau1", "f1", "g1", "f2", "g2"],
                ((t1, *row) for t1, row in zip(sol.grid, sol.pairs)),
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# entry point

def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    env = os.environ.get("NONHOLO_SEED")
    if env is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=int(env))
        except ValueError as exc:
            raise ConfigError(f"NONHOLO_SEED must be an integer, got {env!r}") from exc
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Rolling solids of revolution: simulate, verify, tabulate momenta.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="integrate a trajectory, write CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_chk = sub.add_parser("check", help="run the invariant battery, print a JSON report")
    p_chk.add_argument("--config", required=True)
    p_mom = sub.add_parser("momenta", help="tabulate momenta coefficients, write CSV")
    p_mom.add_argument("--config", required=True)
    p_mom.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "momenta":
            return cmd_momenta(cfg, args.out)
        report = cmd_check(cfg)
        print(report.to_json())
        return 0 if report.passed else 1
    except NonholoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
