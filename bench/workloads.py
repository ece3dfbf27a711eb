"""Workload definitions: seeded configs, the operations of one pass, and
the validator every operation's output goes through.

Stdlib only, so the parent process never imports numpy or nonholo; the
program under test sees nothing but the config files written here.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BODY = {"m": 1.0, "I1": 2.0, "I3": 3.0, "grav": 9.8}
ROUTH = {**BODY, "r": 1.0, "l": 0.1}
ELLIPSOID = {**BODY, "b": 2.0, "c": 1.0}

# Fixed starts (tests/conftest.py and test_pole_grazing_run_degrades_to_nan).
ROUTH_START = ([0.6, 0.0, 0.8], [1.0, 2.0, 3.0])
ELLIPSOID_START = ([3.0 / 7.0, 2.0 / 7.0, 6.0 / 7.0], [1.2, -0.8, 1.0])
POLE_GRAZING_START = ([c / math.sqrt(0.77) for c in (0.3, 0.2, 0.8)], [0.5, -0.3, 2.5])
PARTICLE_START = ([0.0, 0.0, 0.0], [1.0, 1.0])

DT = 1e-3
MOMENTA_ROWS = 19981  # default grid: h = 1e-4 on +-(1 - 1e-3)
CHECK_SAMPLES = 100

SOLID_HEADER = "t,g1,g2,g3,M1,M2,M3,tau1,tau2,tau3,tau4,tau5,E,J1,J2,j1,j2".split(",")
PARTICLE_HEADER = "t,x,y,z,px,py,J,E".split(",")
MOMENTA_HEADER = "tau1,f1,g1,f2,g2".split(",")

# Acceptance contracts on drift: A01 (particle), A03 (routh, ellipsoid).
DRIFT_LIMIT = {"particle": 1e-8, "routh": 1e-6, "ellipsoid": 1e-5}

POLE_GAP = (
    "pole gap: |gamma3| passes 1 - delta before t=1, the tabulated gauge momenta "
    "end there, so dJ1/dJ2 come back NaN (ROADMAP item 2)"
)

WORKLOADS = ("trajectory", "ellipsoid", "certify")


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass."""

    name: str
    command: str  # simulate | momenta | check
    system: str
    config: dict
    # (the validator's message, its reason) when the failure is known
    known_failure: tuple[str, str] | None = None

    @property
    def config_text(self) -> str:
        return json.dumps(self.config, indent=2, sort_keys=True) + "\n"

    @property
    def config_sha256(self) -> str:
        return hashlib.sha256(self.config_text.encode()).hexdigest()

    @property
    def steps(self) -> int:
        integ = self.config["integrator"]
        return int(round(integ["t_final"] / integ["dt"]))

    def argv(self, config_path: Path, out_path: Path) -> list[str]:
        args = [self.command, "--config", str(config_path)]
        return args + ["--out", str(out_path)] if self.command != "check" else args


def _solid(system: str, start, t_final: float = 10.0, **extra) -> dict:
    gamma, M = start
    params = ROUTH if system == "routh" else ELLIPSOID
    return {
        "system": system,
        "params": dict(params),
        "initial": {"gamma": list(gamma), "M": list(M)},
        "integrator": {"dt": DT, "t_final": t_final},
        **extra,
    }


def _particle(state, **extra) -> dict:
    return {
        "system": "particle",
        "params": {},
        "initial": {"position": list(state[:3]), "momentum": list(state[3:])},
        "integrator": {"dt": DT, "t_final": 10.0},
        **extra,
    }


def build_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass; the same seed gives byte-identical configs."""
    if workload == "trajectory":
        rng = random.Random(seed)
        g3 = rng.uniform(-0.9, 0.9)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        s = math.sqrt(1.0 - g3 * g3)
        gamma = [s * math.cos(phi), s * math.sin(phi), g3]
        M = [rng.uniform(-3.0, 3.0) for _ in range(3)]
        particle = [rng.uniform(-2.0, 2.0) for _ in range(5)]
        return [
            Op("routh-simulate", "simulate", "routh", _solid("routh", (gamma, M))),
            Op("particle-simulate", "simulate", "particle", _particle(particle)),
        ]
    if workload == "ellipsoid":
        # Starts are fixed: a random start may or may not cross 1 - delta,
        # which would make the failure count depend on the seed.
        return [
            Op("ellipsoid-momenta", "momenta", "ellipsoid", _solid("ellipsoid", ELLIPSOID_START)),
            Op("ellipsoid-simulate", "simulate", "ellipsoid", _solid("ellipsoid", ELLIPSOID_START)),
            Op(
                "ellipsoid-pole-simulate",
                "simulate",
                "ellipsoid",
                _solid("ellipsoid", POLE_GRAZING_START, t_final=2.0),
                known_failure=("output is not strict JSON: NaN", POLE_GAP),
            ),
        ]
    if workload == "certify":
        check = {"seed": seed, "samples": CHECK_SAMPLES}
        return [
            Op("ellipsoid-check", "check", "ellipsoid", _solid("ellipsoid", ELLIPSOID_START, **check)),
            Op("routh-check", "check", "routh", _solid("routh", ROUTH_START, **check)),
            Op("particle-check", "check", "particle", _particle(PARTICLE_START[0] + PARTICLE_START[1], **check)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# validation


class Invalid(Exception):
    """An operation's output broke its contract."""


def _reject_constant(name: str):
    raise Invalid(f"output is not strict JSON: {name}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Invalid(f"output is not JSON: {exc}") from exc


def validate(op: Op, returncode: int, stdout: str, header: list[str] | None, rows: int) -> dict:
    """Check one operation's exit code and outputs; return what it measured.

    ``header`` and ``rows`` describe the CSV the operation wrote (None and 0
    when there is none).  The result holds the drifts (``dE``, ``dJ``) of a
    simulate or the check records (``checks``) of a check.  Raises Invalid.
    """
    if returncode != 0:
        raise Invalid(f"exit code {returncode}")
    if op.command == "check":
        report = strict_json(stdout)
        if report.get("passed") is not True:
            failed = [c.get("name") for c in report.get("checks", []) if c.get("status") != "pass"]
            raise Invalid(f"check did not pass: {failed}")
        if report.get("seed") != op.config["seed"] or report.get("samples") != op.config["samples"]:
            raise Invalid("report does not echo the configured seed and samples")
        if not report.get("checks"):
            raise Invalid("report has no checks")
        return {"checks": report["checks"]}
    lines = stdout.strip().splitlines()
    if not lines:
        raise Invalid("no summary on stdout")
    summary = strict_json(lines[-1])
    try:
        if op.command == "momenta":
            if summary["rows"] != MOMENTA_ROWS:
                raise Invalid(f"summary rows {summary['rows']!r}, expected {MOMENTA_ROWS}")
            if not summary["min_independence"] > 0.0:
                raise Invalid("coefficient pairs are not independent")
            expected, measured = (MOMENTA_HEADER, MOMENTA_ROWS), {}
        elif op.system == "particle":
            expected = (PARTICLE_HEADER, op.steps + 1)
            measured = {"dE": summary["dE"], "dJ": summary["dJ"]}
        else:
            expected = (SOLID_HEADER, op.steps + 1)
            measured = {"dE": summary["dE"], "dJ": max(summary["dJ1"], summary["dJ2"])}
    except KeyError as exc:
        raise Invalid(f"summary lacks {exc}") from exc
    limit = DRIFT_LIMIT[op.system]
    for key, value in measured.items():
        if not value < limit:
            raise Invalid(f"{key} = {value!r} breaks the {limit:g} contract")
    if header != expected[0]:
        raise Invalid(f"CSV header is {header!r}")
    if rows != expected[1]:
        raise Invalid(f"CSV has {rows} data rows, expected {expected[1]}")
    return measured


def check_margin(checks: list[dict]) -> float:
    """Smallest margin over checks in decades; a measured 0 counts as 16."""
    worst = math.inf
    for c in checks:
        measured, tol = abs(c["measured"]), c["tolerance"]
        if measured == 0.0:
            margin = 16.0
        elif c.get("mode", "upper") == "lower":
            margin = math.log10(measured / tol)
        else:
            margin = math.log10(tol / measured)
        worst = min(worst, margin)
    return worst
