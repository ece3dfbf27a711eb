"""Command-line interface: ``simulate``, ``check``, ``momenta``.

JSON config in, CSV trajectories and JSON reports out.  Everything is
deterministic for a fixed seed: per-sample random generators are seeded by
(seed, sample index), CSV floats carry 17 significant digits, and report
checks are sorted by name, so identical inputs give byte-identical outputs.

``parse_config`` and its inverse ``serialize_config`` read one table of the
config format, ``_FORMATS`` (each system's ``params`` keys and ``initial``
vectors, which ``RunConfig.state0`` packs as one start), with ``_DEFAULTS``.
The grid keys ``delta`` and ``h`` are checked by ``momenta.grid_half`` alone.

``simulate`` and ``momenta`` write their CSV through ``_publish``: a
forked writer process formats each block of rows, handed over as float64
bytes through a pipe, while this process computes the next one (the
integrators' ``sink``), or without ``os.fork`` the sink formats it here.
A ``simulate`` so holds one block of rows, whatever its step count and
target, and prints the drifts folded from the blocks.  The writer runs no
numpy, so the fork is safe in a process where numpy's OpenBLAS has started
threads, although Python 3.12 and later warn on ``os.fork`` there.

The module ends by freezing the heap its import built (``gc.freeze``): a
process imports it to run one command and exit, so those objects live until
exit anyway, and interpreter shutdown then neither walks nor frees them.
``import nonholo`` alone freezes nothing, and ``nonholo.certify`` is
imported only by the commands that run it (``check``, a Routh ``momenta``).

Exit codes: 0 success, 1 check failure, 2 usage or I/O error (a closed
standard output and a failed CSV write included) or a result that is not
finite (no report or CSV is written then, and a file already at ``--out``
is left as it was).  The environment variable NONHOLO_SEED overrides the
config seed.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import gc
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dynamics import BLOCK_ROWS, COLUMNS, IntegratorConfig, integrate
from .errors import ConfigError, GridError, NonholoError
from .momenta import grid_half, solution_for, solve_momenta
from .particle import COLUMNS as PARTICLE_COLUMNS, particle_integrate
from .phase import BodyParams, StateGM
from .profile import ProfileSpec

if TYPE_CHECKING:  # the commands that run certify import it (see check_subject)
    from . import certify
    from .certify import CheckResult

#: The ``params`` keys of a solid that ``BodyParams`` takes, in its argument order
_BODY = ("m", "I1", "I3", "grav")
#: The ``integrator`` keys, the ``IntegratorConfig`` arguments
_INTEGRATOR = ("dt", "t_final")
#: Each system's ``ProfileSpec`` preset (None: no body and no ``params``
#: keys) and its argument names, the ``params`` keys after _BODY; then the
#: ``initial`` vectors and their lengths, in the order ``state0`` packs them
_FORMATS = {
    "routh": (ProfileSpec.routh, ("r", "l"), (("gamma", 3), ("M", 3))),
    "ellipsoid": (ProfileSpec.ellipsoid, ("b", "c"), (("gamma", 3), ("M", 3))),
    "particle": (None, (), (("position", 3), ("momentum", 2))),
}
SYSTEMS = tuple(_FORMATS)
#: The defaults of the optional numbers; a number not named here is required
_DEFAULTS = {"grav": 0.0, "dt": 1e-3, "t_final": 10.0, "seed": 0, "samples": 100, "delta": 1e-3, "h": 1e-4}
#: Largest ``samples`` of a config (100 times the default)
MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class RunConfig:
    system: str
    body: BodyParams | None
    profile: ProfileSpec | None
    state0: tuple[float, ...]  # the packed start: (gamma, M), or a particle's (position, momentum)
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

def _check_keys(obj: dict, allowed, pointer: str) -> None:
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"unknown key {k!r}", f"{pointer}/{k}")


def _object(raw: dict, key: str, allowed, required: bool = True) -> dict:
    """The object at ``raw[key]`` ({} if absent and not ``required``), with keys among ``allowed``."""
    if key not in raw and required:
        raise ConfigError(f"missing required key {key!r}", f"/{key}")
    obj = raw.get(key, {})
    if not isinstance(obj, dict):
        raise ConfigError(f"{key!r} must be an object", f"/{key}")
    _check_keys(obj, allowed, f"/{key}")
    return obj


def _float(v) -> float | None:
    """``v`` as a float if it is a JSON number within the float range, else None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    with contextlib.suppress(OverflowError):  # an integer literal beyond the float range
        return float(v)
    return None


def _number(obj: dict, key: str, pointer: str) -> float:
    if key not in obj:
        if key not in _DEFAULTS:
            raise ConfigError(f"missing required key {key!r}", f"{pointer}/{key}")
        return _DEFAULTS[key]
    x = _float(obj[key])
    if x is None:
        raise ConfigError(f"{key!r} must be a number within the float range", f"{pointer}/{key}")
    return x


def _integer(obj: dict, key: str) -> int:
    v = obj.get(key, _DEFAULTS[key])
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key!r} must be an integer", f"/{key}")
    if v < 0:
        raise ConfigError(f"{key!r} must be non-negative", f"/{key}")
    return v


def _vector(obj: dict, key: str, n: int, pointer: str) -> tuple:
    if key not in obj:
        raise ConfigError(f"missing required key {key!r}", f"{pointer}/{key}")
    v = obj[key]
    x = tuple(map(_float, v)) if isinstance(v, list) and len(v) == n else (None,)
    if not all(c is not None and math.isfinite(c) for c in x):
        raise ConfigError(f"{key!r} must be a list of {n} finite numbers", f"{pointer}/{key}")
    return x


def _build(make, obj: dict, keys, pointer: str):
    """``make`` of the numbers at ``keys`` of ``obj`` (see ``_checked``)."""
    return _checked(make, pointer, *(_number(obj, k, pointer) for k in keys))


def _checked(make, pointer: str, *args):
    """``make(*args)``, its ValueError raised as a ConfigError at ``pointer``,
    or, a GridError, at the key below ``pointer`` that it names."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), f"{pointer}/{exc.param}" if isinstance(exc, GridError) else pointer) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a strict-JSON run configuration.

    Unknown keys, wrong types, and violated invariants raise ConfigError
    carrying a JSON pointer to the offending element.  The keys are read in
    the order system, params, initial, integrator, seed, samples, delta, h,
    and the first fault is the one reported.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"invalid JSON: {exc}", "") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object", "")
    _check_keys(raw, ("system", "params", "initial", "integrator", "seed", "samples", "delta", "h"), "")
    if "system" not in raw:
        raise ConfigError("missing required key 'system'", "/system")
    system = raw["system"]
    if system not in SYSTEMS:
        raise ConfigError(f"system must be one of {SYSTEMS}", "/system")
    preset, shape, start = _FORMATS[system]

    body = profile = None
    params = _object(raw, "params", _BODY + shape if preset else (), required=bool(preset))
    if preset:
        body = _build(BodyParams, params, _BODY, "/params")
        profile = _build(preset, params, shape, "/params")
    initial = _object(raw, "initial", [key for key, _ in start])
    state0 = sum((_vector(initial, key, n, "/initial") for key, n in start), ())
    if preset:
        _checked(StateGM.from_packed, "/initial/gamma", state0)

    integ = _object(raw, "integrator", _INTEGRATOR, required=False)
    integrator = _build(IntegratorConfig, integ, _INTEGRATOR, "/integrator")
    seed, samples = _integer(raw, "seed"), _integer(raw, "samples")
    if not 1 <= samples <= MAX_SAMPLES:  # no samples would certify nothing and pass
        raise ConfigError(f"'samples' must lie in [1, {MAX_SAMPLES}]", "/samples")
    delta, h = _number(raw, "delta", ""), _number(raw, "h", "")
    _checked(grid_half, "", delta, h)
    return RunConfig(system, body, profile, state0, integrator, seed, samples, delta, h)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON for a RunConfig; parse_config(serialize_config(c)) == c."""
    preset, shape, start = _FORMATS[cfg.system]
    numbers = (*dataclasses.astuple(cfg.body), cfg.profile.p1, cfg.profile.p2) if preset else ()
    state0 = iter(cfg.state0)
    out = {
        "system": cfg.system,
        "params": dict(zip(_BODY + shape, numbers)),
        "initial": {key: list(itertools.islice(state0, n)) for key, n in start},
        "integrator": dataclasses.asdict(cfg.integrator),
        "seed": cfg.seed,
        "samples": cfg.samples,
        "delta": cfg.delta,
        "h": cfg.h,
    }
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
# the CSV writer

def _format_csv(fh, n: int, data) -> None:
    """Write ``data``, the float64 bytes of rows of ``n`` values, to ``fh`` as
    CSV, each float with 17 significant digits (``nan``, ``inf`` and ``-0``
    as such), in one ``%``: no numpy runs here (see ``_publish``)."""
    values = memoryview(data).cast("d")
    fh.write(((",".join(["%.17g"] * n) + "\n") * (len(values) // n)) % tuple(values))


def _publish(path: str, header: Sequence[str], run) -> int:
    """Run ``run(sink)``, write its rows to ``path`` as CSV and print its JSON
    summary; return the exit code.

    ``run`` hands ``sink`` every row, in order, as 2-d float blocks, and
    returns an exit code (it has reported the failure; nothing is written)
    or the summary.  ``sink`` writes a block out before it returns, so the
    caller may then reuse the block's memory, and no row is kept.

    The writer is a process forked before ``run`` starts, so that it formats
    a block (``_format_csv``, 1,024 rows per read) while this one computes
    the next; the blocks reach it through a pipe as raw float64 bytes.  It
    runs only the standard library, never numpy, which is why forking is
    safe although numpy's OpenBLAS has started threads (Python 3.12 and
    later warn on ``os.fork`` in a threaded process).  It is forked from a
    frozen heap (the end of this module), so the collector's header writes
    do not copy the pages it shares with this process.  Its exit status is
    the errno of a failed write.  Without ``os.fork``, ``sink`` formats each
    block here.

    The rows go to a temporary sibling of ``path``, which replaces it only
    once the rows are written and standard output has taken the summary, so
    a run that fails on either, or raises, leaves ``path`` as it was.  For a
    path that is not a regular file (``/dev/null``, a FIFO) they go to an
    unnamed temporary file, copied into ``path`` before the summary is
    printed.  A file that cannot be opened or take the header fails before
    ``run`` starts.  The writer is reaped, and the temporary file removed, on every path.
    """
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = f"{target}.{os.getpid()}.tmp"
    n, placed, pid, pipe, csv, code = len(header), in_place, 0, None, None, 0

    def sink(block: np.ndarray) -> None:
        nonlocal pipe, code
        data = memoryview(np.ascontiguousarray(block)).cast("B")  # the block's own bytes, if C-contiguous
        if pid:
            try:  # the write ends before this returns
                while pipe is not None and data:
                    data = data[os.write(pipe, data):]
            except BrokenPipeError:  # the writer has stopped; its exit status says why
                os.close(pipe)
                pipe = None
        elif not code:
            try:
                _format_csv(csv, n, data)
            except OSError as exc:
                code = exc.errno or errno.EIO

    def failed(code: int) -> int:
        """Report the failure ``code`` (an errno, or minus a signal that ended the writer); exit code 2."""
        failure = OSError(code, os.strerror(code), path) if code > 0 else f"CSV writer ended by signal {-code}"
        print(f"error: {failure}", file=sys.stderr)
        return 2

    def reap() -> int:
        """Close the pipe, so that the writer ends, and wait for it; its exit code."""
        nonlocal pid, pipe
        if pipe is not None:
            os.close(pipe)
            pipe = None
        status, pid = os.waitpid(pid, 0)[1], 0
        return os.waitstatus_to_exitcode(status)

    try:
        try:
            csv = (tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") if in_place
                   else open(tmp, "w", encoding="utf-8", newline="\n"))
            csv.write(",".join(header) + "\n")
            csv.flush()  # before the fork: the writer's copy of the buffer starts empty
        except OSError as exc:  # before the run: no step is taken
            return failed(exc.errno or errno.EIO)
        if hasattr(os, "fork"):
            read_end, pipe = os.pipe()
            pid = os.fork()
            if not pid:  # the writer
                code = 255
                try:
                    os.close(pipe)
                    with open(read_end, "rb") as src:
                        for data in iter(functools.partial(src.read, BLOCK_ROWS * 8 * n), b""):
                            _format_csv(csv, n, data)
                    csv.flush()
                    code = 0
                except OSError as exc:
                    code = exc.errno or errno.EIO
                finally:
                    os._exit(code)
            os.close(read_end)
        summary = run(sink)
        if isinstance(summary, int):
            return summary
        try:
            if pid:
                code = reap()
            if in_place and not code:
                csv.seek(0)  # after flushing what this process wrote
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    shutil.copyfileobj(csv, fh)
            if not code:
                csv.close()  # flushes what this process wrote; closed before it is renamed
        except OSError as exc:
            code = exc.errno or errno.EIO
        if code:
            return failed(code)
        print(json.dumps(summary, sort_keys=True))
        sys.stdout.flush()  # a closed stdout fails here, before the CSV is in place
        if not placed:
            os.replace(tmp, target)
            placed = True
    finally:
        if pid:  # the run failed or raised
            reap()
        if csv:
            with contextlib.suppress(OSError):
                csv.close()
        if not placed:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    return 0


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: RunConfig, out_path: str) -> int:
    """Run the configured trajectory, print a drift summary, write the CSV.

    The integrator hands ``_publish``'s sink each block of rows while the
    next is stepped, and holds only that block; the summary is the drifts
    folded from the blocks (``dynamics.Streamed``).  A run aborted by a
    non-finite state or energy exits 2 and writes no CSV.
    """

    def run(sink):
        if cfg.system == "particle":
            traj = particle_integrate(cfg.state0, cfg.integrator, sink=sink)
        else:
            momenta = solution_for(cfg.body, cfg.profile, cfg.delta, cfg.h)
            traj = integrate(cfg.body, cfg.profile, cfg.state0, cfg.integrator, momenta, sink=sink)
        if len(traj) < cfg.integrator.steps + 1:
            at = f"step {len(traj)} of {cfg.integrator.steps}"
            print(f"error: arithmetic overflow: non-finite state or energy at {at}; no CSV written", file=sys.stderr)
            return 2
        return traj.drifts

    return _publish(out_path, PARTICLE_COLUMNS if cfg.system == "particle" else COLUMNS, run)


def check_subject(cfg: RunConfig) -> certify.Solid | certify.Particle:
    """The subject ``check`` certifies: ``cfg.samples`` seeded samples of the
    configured system.  A solid's states lie inside its momenta table, the
    solution a run reads; its grid is the one a Routh ``span-containment``
    marches, which solves nothing here."""
    from . import certify

    if cfg.system == "particle":
        return certify.Particle([sample_particle(cfg.seed, k) for k in range(cfg.samples)])
    cap = min(0.95, grid_half(cfg.delta, cfg.h) * cfg.h)  # where the solved momenta table ends
    states = [sample_state(cfg.seed, k, cap) for k in range(cfg.samples)]
    momenta = solution_for(cfg.body, cfg.profile, cfg.delta, cfg.h)
    return certify.Solid(cfg.body, cfg.profile, states, momenta, (cfg.delta, cfg.h))


def cmd_check(cfg: RunConfig) -> Report:
    """Run the certification battery (``nonholo.certify``) on ``check_subject(cfg)``.

    Raises:
        NonholoError: if a record measures a non-finite value, which no
            report could carry as strict JSON.
    """
    from . import certify

    subject = check_subject(cfg)
    checks = certify.run(subject.records, subject)
    bad = [f"{c.name} = {float(c.measured)}" for c in checks if not math.isfinite(c.measured)]
    if bad:
        raise NonholoError(f"non-finite measurement ({', '.join(bad)}); no report")
    return Report(cfg.system, cfg.seed, cfg.samples, checks)


def cmd_momenta(cfg: RunConfig, out_path: str) -> int:
    """Tabulate the momenta coefficient solutions as CSV (``_publish``); a
    Routh table adds the closed forms, one ``certify.Span`` block at a time."""
    if cfg.system == "particle":
        print("error: momenta requires a solids system (routh or ellipsoid)", file=sys.stderr)
        return 2
    routh = cfg.profile.kind == "routh"
    header = ["tau1", "f1", "g1", "f2", "g2"] + (["f1_cf", "g1_cf", "f2_cf", "g2_cf"] if routh else [])

    def run(sink):
        sol = solve_momenta(cfg.body, cfg.profile, cfg.delta, cfg.h)
        summary = {
            "rows": len(sol.grid),
            "min_independence": sol.min_independence(),
        }
        if routh:
            from . import certify

            span = certify.Span(cfg.body, cfg.profile)
        for k in range(0, len(sol.grid), BLOCK_ROWS):
            block = [sol.grid[k : k + BLOCK_ROWS], sol.pairs[k : k + BLOCK_ROWS]]
            sink(np.column_stack([*block, span.add(*block)] if routh else block))
        if routh:
            summary["max_closed_form_deviation"] = span.worst
        return summary

    return _publish(out_path, header, run)


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


# This module is imported to run one command in a short-lived process, so
# every object alive now (modules, functions, classes, numpy's internals)
# lives until exit anyway.  Freezing them moves them out of the collector's
# reach: interpreter shutdown no longer walks that graph and frees it, and
# the pages the forked CSV writer shares with this process are not copied
# for the collector's header writes (CPython's documented use of gc.freeze
# before fork).  What a command creates is collected as before, and
# ``import nonholo`` alone freezes nothing.
gc.freeze()

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
