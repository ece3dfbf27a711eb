"""In-memory tracer for one ``nonholo`` CLI run, and the span arithmetic.

Spans sit at coarse boundaries (a command, a solve, a trajectory, a
Jacobiator); kernels of a few microseconds get call counters only, because
timing them inside the run would distort what is timed.  Each wrapped
public function is replaced in every ``nonholo`` module namespace that
imported it, so ``qp_matrix`` is counted whether it is reached as
``nonholo.momenta.qp_matrix`` or ``nonholo.cli.qp_matrix``.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# "<module>.<attribute>" under nonholo; the module is the layer.
SPANS = (
    "cli.main",
    "cli.parse_config",
    "momenta.solve_momenta",
    "dynamics.integrate",
    "particle.particle_integrate",
    "brackets.jacobiator",
    "brackets.casimir_residuals",
    "brackets.pushforward_residual",
    "particle.particle_jacobiator_reduced",
    "particle.particle_jacobiator_unreduced",
)
COUNTERS = (
    "geomforms.qp_matrix",
    "profile.eval_profile",
    "smallalg.rk4_step",
    "smallalg.grad_fd",
    "brackets.bracket",
    "particle.particle_bracket",
    "momenta.MomentaSolution.eval",
)
# Counters that also record distinct values of one positional argument.
DISTINCT_ARG = {"geomforms.qp_matrix": 2}  # tau1
# Spans of integrators note the steps requested (from cfg) and done.
STEPPED = {"dynamics.integrate": 3, "particle.particle_integrate": 1}  # cfg position


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, t0_ns, t1_ns, note]
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        cfg_pos = STEPPED.get(name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            rec = [len(spans), stack[-1] if stack else -1, name, 0, 0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter_ns()
                stack.pop()
            if cfg_pos is not None:
                cfg = args[cfg_pos] if len(args) > cfg_pos else kwargs["cfg"]
                rec[5] = {"requested": int(round(cfg.t_final / cfg.dt)), "done": len(result) - 1}
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        pos = DISTINCT_ARG.get(name)
        if pos is None:

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        else:
            seen = self.distinct[name]

            def wrapper(*args, **kwargs):
                counts[name] += 1
                seen.add(args[pos])
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``nonholo`` namespace."""
        modules = [m for n, m in list(sys.modules.items()) if n == "nonholo" or n.startswith("nonholo.")]
        for targets, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for target in targets:
                mod_name, _, attr = target.partition(".")
                owner = sys.modules[f"nonholo.{mod_name}"]
                if "." in attr:  # a method: replace it on its class only
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, make(target, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapped = make(target, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        body = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> its duration minus the durations of its direct children (ns)."""
    out = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[4] - s[3]
    return out


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    """Self time per layer (the module part of each span name), in seconds."""
    names = {s[0]: s[2] for s in spans}
    out: dict[str, float] = defaultdict(float)
    for sid, ns in self_times(spans).items():
        out[names[sid].split(".")[0]] += ns * 1e-9
    return dict(out)
