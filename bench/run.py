"""The nonholo benchmark: real CLI invocations, one fresh interpreter each.

    python3 bench/run.py --workload {trajectory,ellipsoid,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  One parent process runs the workload's
operations one child at a time (a closed loop with one client), repeating
whole passes for S seconds, and validates every output.

--trace 0 measures the end-to-end metrics with tracing off.  The gated
pass time, ``wall_ref``, is in units of a fixed reference computation
timed next to every operation, because a shared host's speed swings by
more than the bounds allow.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: span self times and call counts from the traced passes,
microseconds per call from the kernel microbench, and the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with provenance, goes to bench/_out/.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORK = OUT / "work"

from tracer import layer_self_seconds
from workloads import WORKLOADS, Invalid, Op, build_ops, check_margin, validate

SETUP_REPEATS = 7
CHILD_CPU_LIMIT_S = 150  # a runaway child is killed, never waited on forever

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and written with the result, but not gated.  Raw seconds swing
# with the speed of a shared host (wall_ref divides that out); the other
# numbers do not apply to every workload, or move with the seed.
SUMMARY = {
    "wall_s": "s",
    "simulate_s": "s",
    "momenta_s": "s",
    "check_s": "s",
    "failed_ops": "ratio",
    "dE": "abs",
    "dJ": "abs",
    "check_margin_dec": "decades",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.csv_rows": "count",
    "cli.parse_config.us": "us",
    "momenta.solve_momenta.calls": "count",
    "momenta.solve_momenta.s": "s",
    "momenta.momenta_ode_rhs.us": "us",
    "momenta.MomentaSolution.eval.calls": "count",
    "momenta.MomentaSolution.eval.table_us": "us",
    "momenta.MomentaSolution.eval.closed_us": "us",
    "momenta.eval_gauge_momenta.us": "us",
    "geomforms.qp_matrix.calls": "count",
    "geomforms.qp_matrix.distinct_ratio": "ratio",
    "geomforms.qp_matrix.us": "us",
    "geomforms.qpl_values.us": "us",
    "dynamics.integrate.step_us": "us",
    "dynamics.integrate.steps_done_ratio": "ratio",
    "dynamics.rhs.us": "us",
    "smallalg.rk4_step.calls": "count",
    "smallalg.rk4_step.us": "us",
    "smallalg.grad_fd.calls": "count",
    "profile.eval_profile.calls": "count",
    "profile.eval_profile.us": "us",
    "phase.omega_from_M.us": "us",
    "phase.energy.us": "us",
    "brackets.self_s": "s",
    "brackets.jacobiator.calls": "count",
    "brackets.jacobiator.us": "us",
    "brackets.bracket.calls": "count",
    "brackets.bracket.us": "us",
    "brackets.casimir_residuals.us": "us",
    "brackets.pushforward_residual.us": "us",
    "particle.self_s": "s",
    "particle.particle_integrate.step_us": "us",
    "particle.particle_jacobiator_reduced.us": "us",
    "particle.particle_bracket.calls": "count",
}
# Counted per pass (they must repeat exactly); every other traced metric
# is a time, reported as the median over traced passes.
COUNTED = tuple(n for n in PER_LAYER if n.endswith((".calls", "_rows", "_ratio")))


# ---------------------------------------------------------------------------
# children


REF_STEPS = 500_000


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation: RK4 on a pendulum.

    Timed next to every operation, it samples how fast the host runs the
    interpreter at that moment; ``wall_ref`` divides each operation's wall
    time by it, so a host that slows down for minutes does not read as a
    slower program.
    """
    t0 = time.perf_counter()
    y0, y1, h = 1.0, 0.0, 1e-3
    for _ in range(REF_STEPS):
        k1 = (y1, -math.sin(y0))
        k2 = (y1 + 0.5 * h * k1[1], -math.sin(y0 + 0.5 * h * k1[0]))
        k3 = (y1 + 0.5 * h * k2[1], -math.sin(y0 + 0.5 * h * k2[0]))
        k4 = (y1 + h * k3[1], -math.sin(y0 + h * k3[0]))
        y0 += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y1 += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NONHOLO_SEED", None)  # the generated config alone sets the seed
    # Children use cached bytecode, as an installed CLI does, whatever the
    # caller's environment says; the first child of a run writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(args: list[str], stdout: Path, env: dict) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT, preexec_fn=_limit_cpu
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_output(path: Path) -> tuple[list[str] | None, int, str]:
    """(CSV header, data rows, sha256) of an output file; (None, 0, "") if absent."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None, 0, ""
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",") if lines else None
    return header, max(len(lines) - 1, 0), hashlib.sha256(data).hexdigest()


class Runner:
    """Runs passes of one workload and keeps the first output digest per op."""

    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        self.env = child_env()
        self.digests: dict[str, str] = {}
        WORK.mkdir(parents=True, exist_ok=True)
        for op in ops:
            (WORK / f"{op.name}.json").write_text(op.config_text, encoding="utf-8")

    def run_op(self, op: Op, trace: bool) -> dict:
        stdout_path = WORK / f"{op.name}.stdout"
        out_path = WORK / f"{op.name}.csv"
        span_path = WORK / f"{op.name}.spans.json"
        for stale in (out_path, span_path):
            stale.unlink(missing_ok=True)
        args = [str(HERE / "child.py"), "run"]
        if trace:
            args += ["--trace", str(span_path)]
        args += op.argv(WORK / f"{op.name}.json", out_path)
        rc, wall, rss = spawn(args, stdout_path, self.env)
        stdout = stdout_path.read_text(encoding="utf-8")
        header, rows, out_sha = read_output(out_path)
        rec = {"op": op.name, "command": op.command, "wall_s": wall, "rss_mb": rss, "rc": rc, "csv_rows": rows}
        digest = hashlib.sha256(stdout.encode() + out_sha.encode()).hexdigest()
        try:
            rec.update(validate(op, rc, stdout, header, rows))
            if self.digests.setdefault(op.name, digest) != digest:
                raise Invalid("output differs from the first run of this operation")
        except Invalid as exc:
            rec["failure"] = str(exc)
            rec["known"] = op.known_failure is not None and op.known_failure[0] == str(exc)
        if trace:
            rec["trace"] = json.loads(span_path.read_text(encoding="utf-8"))
        return rec

    def run_pass(self, trace: bool) -> list[dict]:
        """Run every op once, timing the reference before and after each."""
        recs = []
        before = reference()
        for op in self.ops:
            rec = self.run_op(op, trace)
            after = reference()
            rec["ref_s"] = (before + after) / 2
            recs.append(rec)
            before = after
        return recs

    def setup_times(self) -> list[float]:
        """Fresh interpreters importing nonholo.cli and parsing the configs."""
        args = [str(HERE / "child.py"), "setup", *(str(WORK / f"{op.name}.json") for op in self.ops)]
        out = WORK / "setup.stdout"
        times = []
        for _ in range(SETUP_REPEATS + 1):  # the first one only warms the caches
            rc, wall, _ = spawn(args, out, self.env)
            if rc != 0:
                raise RuntimeError(f"setup child exited {rc}: {out.with_suffix('.err').read_text()}")
            times.append(wall)
        return times[1:]


# ---------------------------------------------------------------------------
# metrics


def op_time(passes: list[list[dict]], value, command: str | None = None) -> float | None:
    """Per operation, the median of ``value(rec)`` over passes; summed over ops.

    A median per operation drops a slow spell that hit one operation of one
    pass.  ``command`` restricts the sum to one subcommand (None if absent).
    """
    ops = [i for i, rec in enumerate(passes[0]) if command in (None, rec["command"])]
    if not ops:
        return None
    return sum(statistics.median(value(p[i]) for p in passes) for i in ops)


def wall_ref(rec: dict) -> float:
    return rec["wall_s"] / rec["ref_s"]


def wall_s(rec: dict) -> float:
    return rec["wall_s"]


def summarize(passes: list[list[dict]], setup: list[float]) -> dict:
    recs = [r for p in passes for r in p]
    valid = [r for r in recs if "failure" not in r]
    out = {
        "setup_s": statistics.median(setup),
        "wall_ref": op_time(passes, wall_ref),
        "wall_s": op_time(passes, wall_s),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
    }
    for command in ("simulate", "momenta", "check"):
        out[f"{command}_s"] = op_time(passes, wall_s, command)
    out["failed_ops"] = sum("failure" in r for r in recs) / len(recs)
    drifts = [r for r in valid if "dE" in r]
    out["dE"] = max((r["dE"] for r in drifts), default=None)
    out["dJ"] = max((r["dJ"] for r in drifts), default=None)
    checks = [c for r in valid for c in r.get("checks", [])]
    out["check_margin_dec"] = check_margin(checks) if checks else None
    return out


def pass_layers(recs: list[dict]) -> dict:
    """Per-layer numbers of one traced pass (0 where a layer is not reached)."""
    counts: Counter = Counter()
    distinct: Counter = Counter()
    self_s: dict = defaultdict(float)
    span_ns: dict = defaultdict(int)
    steps: dict = defaultdict(lambda: [0, 0])  # name -> [requested, done]
    for rec in recs:
        trace = rec["trace"]
        counts.update(trace["counts"])
        distinct.update(trace["distinct"])
        for layer, seconds in layer_self_seconds(trace["spans"]).items():
            self_s[layer] += seconds
        for _, _, name, t0, t1, note in trace["spans"]:
            span_ns[name] += t1 - t0
            if note:
                steps[name][0] += note["requested"]
                steps[name][1] += note["done"]

    def per_step_us(name):
        return span_ns[name] * 1e-3 / steps[name][1] if steps[name][1] else 0.0

    qp_calls = counts["geomforms.qp_matrix"]
    integ = steps["dynamics.integrate"]
    out = {f"{layer}.self_s": self_s[layer] for layer in ("cli", "brackets", "particle")}
    out.update(
        {
            "cli.csv_rows": sum(r["csv_rows"] for r in recs),
            "momenta.solve_momenta.calls": counts["momenta.solve_momenta"],
            "momenta.solve_momenta.s": span_ns["momenta.solve_momenta"] * 1e-9,
            "momenta.MomentaSolution.eval.calls": counts["momenta.MomentaSolution.eval"],
            "geomforms.qp_matrix.calls": qp_calls,
            "geomforms.qp_matrix.distinct_ratio": distinct["geomforms.qp_matrix"] / qp_calls if qp_calls else 0.0,
            "dynamics.integrate.step_us": per_step_us("dynamics.integrate"),
            "dynamics.integrate.steps_done_ratio": integ[1] / integ[0] if integ[0] else 0.0,
            "smallalg.rk4_step.calls": counts["smallalg.rk4_step"],
            "smallalg.grad_fd.calls": counts["smallalg.grad_fd"],
            "profile.eval_profile.calls": counts["profile.eval_profile"],
            "brackets.jacobiator.calls": counts["brackets.jacobiator"],
            "brackets.bracket.calls": counts["brackets.bracket"],
            "particle.particle_integrate.step_us": per_step_us("particle.particle_integrate"),
            "particle.particle_bracket.calls": counts["particle.particle_bracket"],
        }
    )
    return out


# ---------------------------------------------------------------------------
# provenance


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
    }


# ---------------------------------------------------------------------------
# entry point


def _fmt(value, unit: str) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return f"{value} {unit}"
    if unit in ("abs", "ratio") or abs(value) < 1e-3:
        return f"{value:.4g} {unit}"
    return f"{value:.4f} {unit}"


def repeat_for(seconds: float, t0: float, fn) -> list:
    """Call fn until about ``seconds`` after t0 have passed; at least once.

    Another call starts only if half of it, judged by the median call so
    far, still fits: the number of calls is the rounded quotient, not
    always one more than fits.
    """
    results, times = [], []
    while not times or time.perf_counter() - t0 + statistics.median(times) / 2 < seconds:
        start = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - start)
    return results


def measure_layers(runner: Runner, seconds: float, result: dict, lines: list[str]) -> tuple[dict, list]:
    """Microbench, then untraced and traced passes in turn; the per-layer metrics."""
    t0 = time.perf_counter()
    rc, _, _ = spawn([str(HERE / "kernels.py")], WORK / "kernels.stdout", runner.env)
    if rc != 0:
        raise RuntimeError(f"kernel microbench exited {rc}")
    metrics = json.loads((WORK / "kernels.stdout").read_text(encoding="utf-8"))
    pairs = repeat_for(seconds, t0, lambda: (runner.run_pass(trace=False), runner.run_pass(trace=True)))
    plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
    layers = [pass_layers(p) for p in traced]
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        metrics[name] = values[0] if name in COUNTED else statistics.median(values)
    result["counts_repeat"] = all(lay[n] == layers[0][n] for lay in layers for n in COUNTED)
    result["trace_overhead"] = op_time(traced, wall_ref) / op_time(plain, wall_ref)
    result["per_layer"] = metrics
    lines.append(
        f"  {len(traced)} traced and {len(plain)} untraced passes; "
        f"tracing overhead {result['trace_overhead']:.3f}x untraced wall_ref"
    )
    if not result["counts_repeat"]:
        lines.append("  FAILED: call counts differ between traced passes")
    for name, unit in PER_LAYER.items():
        lines.append(f"  {name:<42} {_fmt(metrics[name], unit)}")
    return {n: {"value": metrics[n], "unit": u} for n, u in PER_LAYER.items()}, plain + traced


def measure_end_to_end(runner: Runner, seconds: float, result: dict, lines: list[str]) -> tuple[dict, list]:
    """Set-up starts, then untraced passes; the end-to-end metrics."""
    setup = runner.setup_times()
    passes = repeat_for(seconds, time.perf_counter(), lambda: runner.run_pass(trace=False))
    summary = summarize(passes, setup)
    result["setup_times_s"] = setup
    result["summary"] = summary
    lines.append(
        f"  {len(passes)} passes; times are per-operation medians over passes, summed; "
        f"setup_s is the median of {len(setup)} starts"
    )
    for name, unit in {**END_TO_END, **SUMMARY}.items():
        lines.append(f"  {name:<18} {_fmt(summary[name], unit)}")
    return {n: {"value": summary[n], "unit": u} for n, u in END_TO_END.items()}, passes


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; return the result and the lines to print."""
    ops = build_ops(workload, seed)
    runner = Runner(ops)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(),
        "loadavg_start": os.getloadavg(),
        "configs": {op.name: op.config_sha256 for op in ops},
        "known_failures": {op.name: op.known_failure[1] for op in ops if op.known_failure},
    }
    lines = [f"nonholo benchmark: workload={workload} seed={seed} trace={int(trace)} ops/pass={len(ops)}"]
    measure = measure_layers if trace else measure_end_to_end
    reported, passes = measure(runner, seconds, result, lines)

    recs = [r for p in passes for r in p]
    failures = [r for r in recs if "failure" in r]
    for rec in {r["op"]: r for r in failures}.values():
        tag = "known failure" if rec["known"] else "FAILED"
        lines.append(f"  {tag}: {rec['op']}: {rec['failure']}")
    for name, reason in result["known_failures"].items():
        lines.append(f"  known failure reason, {name}: {reason}")
    result["loadavg_end"] = os.getloadavg()
    result["passes"] = [[{k: v for k, v in r.items() if k not in ("trace", "checks")} for r in p] for p in passes]
    result["contract"] = {
        "correct": all(r["known"] for r in failures) and result.get("counts_repeat", True),
        "attempted": len(recs),
        "failed": len(failures),
        "metrics": reported,
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nonholo" / "cli.py").is_file():
        print(f"error: no nonholo sources under {SRC}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(f"  full result: {path.relative_to(ROOT)}")
    print(json.dumps(result["contract"]))
    return 0 if result["contract"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
