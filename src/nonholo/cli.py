"""Command-line interface: ``simulate``, ``check``, ``momenta``.

JSON config in, CSV trajectories and JSON reports out.  Everything is
deterministic for a fixed seed: per-sample random generators are seeded by
(seed, sample index), CSV floats carry 17 significant digits, and report
checks are sorted by name, so identical inputs give byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 usage or I/O error (a closed
standard output included) or a result that is not finite (no report or CSV
is written then, and a file already at ``--out`` is left as it was).  The
environment variable NONHOLO_SEED overrides the config seed.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import certify
from .certify import CheckResult
from .dynamics import COLUMNS, IntegratorConfig, drift, drift_report, integrate
from .errors import ConfigError, NonholoError
from .momenta import closed_form_momenta, grid_half, solution_for, solve_momenta
from .particle import COLUMNS as PARTICLE_COLUMNS, particle_integrate
from .phase import BodyParams, StateGM
from .profile import ProfileSpec

SYSTEMS = ("routh", "ellipsoid", "particle")
#: Largest ``samples`` of a config (100 times the default)
MAX_SAMPLES = 10_000


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
    try:
        return float(v)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise _err(f"{key!r} is too large for a float", f"{pointer}/{key}") from exc


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
        or not all(_finite(c) for c in v)
    ):
        raise _err(f"{key!r} must be a list of {n} finite numbers", f"{pointer}/{key}")
    return tuple(float(c) for c in v)


def _finite(c) -> bool:
    """math.isfinite, False for an integer literal beyond the float range."""
    try:
        return math.isfinite(c)
    except OverflowError:
        return False


def parse_config(text: str) -> RunConfig:
    """Parse and validate a strict-JSON run configuration.

    Unknown keys, wrong types, and violated invariants raise ConfigError
    carrying a JSON pointer to the offending element.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
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
    _check_keys(integ, {"dt", "t_final"}, "/integrator")
    dt = _number(integ, "dt", "/integrator", default=1e-3)
    t_final = _number(integ, "t_final", "/integrator", default=10.0)
    try:
        integrator = IntegratorConfig(dt, t_final)
    except ValueError as exc:
        raise _err(str(exc), "/integrator") from exc

    seed = _integer(raw, "seed", "", 0)
    samples = _integer(raw, "samples", "", 100)
    if not 1 <= samples <= MAX_SAMPLES:  # no samples would certify nothing and pass
        raise _err(f"'samples' must lie in [1, {MAX_SAMPLES}]", "/samples")
    delta = _number(raw, "delta", "", default=1e-3)
    h = _number(raw, "h", "", default=1e-4)
    if not 1e-6 <= delta <= 0.1:
        raise _err("'delta' must lie in [1e-6, 0.1]", "/delta")
    if not 0 < h <= 1e-3:
        raise _err("'h' must lie in (0, 1e-3]", "/h")
    try:
        grid_half(delta, h)
    except ValueError as exc:
        raise _err(str(exc), "/h") from exc
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
    }
    out["seed"] = cfg.seed
    out["samples"] = cfg.samples
    out["delta"] = cfg.delta
    out["h"] = cfg.h
    return json.dumps(out, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# deterministic sampling

def sample_state(seed: int, index: int, cap: float = 0.95) -> StateGM:
    """gamma uniform on S^2 with |gamma3| < cap, M uniform in [-3, 3]^3."""
    rng = np.random.default_rng((seed, index))
    while True:
        v = rng.standard_normal(3)
        n = math.sqrt(float(v @ v))
        if n < 1e-12:
            continue
        g = v / n
        if abs(g[2]) < cap:
            break
    return StateGM(g, rng.uniform(-3.0, 3.0, 3))


def sample_particle(seed: int, index: int) -> np.ndarray:
    """Particle states componentwise uniform in [-2, 2]^5."""
    rng = np.random.default_rng((seed, index))
    return rng.uniform(-2.0, 2.0, 5)


# ---------------------------------------------------------------------------
# formatting

def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write ``header`` and ``rows`` (an iterable of float sequences) as CSV,
    each float with 17 significant digits (``nan``, ``inf`` and ``-0`` as such)."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def _publish(path: str, header: Sequence[str], rows, summary: dict) -> int:
    """Write the CSV of ``header`` and ``rows`` to ``path`` and print the JSON
    ``summary``; return the exit code.

    The rows go to a temporary sibling of ``path``, which replaces it only
    once standard output has taken the summary, so a run that fails on either
    leaves ``path`` as it was.  A path that exists and is not a regular file
    (``/dev/null``, a FIFO) is written in place.
    """
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp" if os.path.isfile(target) or not os.path.exists(target) else path
    placed = tmp == path
    try:
        try:
            _write_csv(tmp, header, rows)
        except OSError as exc:
            print(f"error: {OSError(exc.errno, exc.strerror, path)}", file=sys.stderr)
            return 2
        print(json.dumps(summary, sort_keys=True))
        sys.stdout.flush()  # a closed stdout fails here, before the CSV is in place
        if not placed:
            os.replace(tmp, target)
            placed = True
    finally:
        if not placed:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    return 0


def _array_rows(*columns: np.ndarray):
    """The rows of arrays of equal length (1-d columns or 2-d blocks of them)
    set side by side, as lists of Python floats.  They are stacked and
    converted 1,024 rows at a time, so a table is never held whole as one
    array or as Python floats."""
    for k in range(0, len(columns[0]), 1024):
        yield from np.column_stack([c[k : k + 1024] for c in columns]).tolist()


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: RunConfig, out_path: str) -> int:
    """Run the configured trajectory, print a drift summary, write the CSV.

    A run aborted by a non-finite state exits 2 and writes no CSV.
    """
    if cfg.system == "particle":
        columns, traj = PARTICLE_COLUMNS, particle_integrate(np.array(cfg.particle0), cfg.integrator)
    else:
        momenta = solution_for(cfg.body, cfg.profile, cfg.delta, cfg.h)
        state0 = np.array(cfg.gamma0 + cfg.M0)  # integrate validates it
        columns, traj = COLUMNS, integrate(cfg.body, cfg.profile, state0, cfg.integrator, momenta)
    if len(traj) < cfg.integrator.steps + 1:
        at = f"step {len(traj)} of {cfg.integrator.steps}"
        print(f"error: arithmetic overflow: non-finite state at {at}; no CSV written", file=sys.stderr)
        return 2
    if cfg.system == "particle":
        summary = {"dE": drift(traj[:, -1]), "dJ": drift(traj[:, -2])}  # columns ..., J, E
    else:
        summary = drift_report(traj)
    return _publish(out_path, columns, _array_rows(traj), summary)


def cmd_check(cfg: RunConfig) -> Report:
    """Run the certification battery (``nonholo.certify``) for the configured system.

    Raises:
        NonholoError: if a record measures a non-finite value, which no
            report could carry as strict JSON.
    """
    if cfg.system == "particle":
        subject = certify.Particle([sample_particle(cfg.seed, k) for k in range(cfg.samples)])
    else:
        cap = min(0.95, grid_half(cfg.delta, cfg.h) * cfg.h)  # where the solved momenta table ends
        states = [sample_state(cfg.seed, k, cap) for k in range(cfg.samples)]
        subject = certify.solid_subject(cfg.body, cfg.profile, states, cfg.delta, cfg.h)
    checks = certify.run(subject.records, subject)
    bad = [f"{c.name} = {float(c.measured)}" for c in checks if not math.isfinite(c.measured)]
    if bad:
        raise NonholoError(f"non-finite measurement ({', '.join(bad)}); no report")
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
    if cfg.profile.kind == "routh":
        header = ["tau1", "f1", "g1", "f2", "g2", "f1_cf", "g1_cf", "f2_cf", "g2_cf"]
        closed = closed_form_momenta(cfg.body, cfg.profile, cfg.delta, cfg.h).pairs  # on sol.grid
        summary["max_closed_form_deviation"] = certify.span_residual(cfg.body, cfg.profile, sol, closed)
        rows = _array_rows(sol.grid, sol.pairs, closed)
    else:
        header = ["tau1", "f1", "g1", "f2", "g2"]
        rows = _array_rows(sol.grid, sol.pairs)
    return _publish(out_path, header, rows, summary)


# ---------------------------------------------------------------------------
# entry point

def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    env = os.environ.get("NONHOLO_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            seed = None
        if seed is None or seed < 0:  # numpy's generators take non-negative seeds only, as /seed
            raise ConfigError(f"NONHOLO_SEED must be a non-negative integer, got {env!r}")
        cfg = dataclasses.replace(cfg, seed=seed)
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
            code = cmd_simulate(cfg, args.out)
        elif args.command == "momenta":
            code = cmd_momenta(cfg, args.out)
        else:
            report = cmd_check(cfg)
            print(report.to_json())
            code = 0 if report.passed else 1
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's flush at exit
        return code
    except BrokenPipeError as exc:
        # Point the descriptor at devnull, so that the flush at exit of what
        # is still buffered succeeds and prints no traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: standard output: {exc}", file=sys.stderr)
        return 2
    except NonholoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__} ({exc}); the configured values are outside floating-point range",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
