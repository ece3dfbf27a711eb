"""Kernel microbench: microseconds per call on fixed inputs.

The span trace cannot time calls of a few microseconds without distorting
them, so each kernel is timed here in a loop, on the presets and starts of
tests/conftest.py.  Prints one JSON object mapping metric name to the
median over repeats of the mean time per call.

    python3 bench/kernels.py
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from nonholo import (
    BodyParams,
    BracketKind,
    ProfileSpec,
    StateGM,
    bracket,
    casimir_residuals,
    closed_form_momenta,
    energy,
    eval_gauge_momenta,
    eval_profile,
    jacobiator,
    momenta_ode_rhs,
    omega_from_M,
    particle_jacobiator_reduced,
    pushforward_residual,
    qp_matrix,
    qpl_values,
    rhs,
    rk4_step,
    solve_momenta,
)
from nonholo.brackets import TAUS
from nonholo.cli import parse_config
from nonholo.dynamics import _rhs_packed

from workloads import ELLIPSOID_START, ROUTH_START, build_ops

BATCH_S = 0.01
REPEATS = 5


def per_call_us(fn) -> float:
    n = 1
    while True:  # grow the batch until it takes BATCH_S
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= BATCH_S:
            break
        n = max(2 * n, int(n * 1.2 * BATCH_S / max(dt, 1e-9)))
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        runs.append((time.perf_counter() - t0) / n)
    return statistics.median(runs) * 1e6


def main() -> int:
    params = BodyParams(1.0, 2.0, 3.0, 9.8)
    ell = ProfileSpec.ellipsoid(2.0, 1.0)
    routh = ProfileSpec.routh(1.0, 0.1)
    state = StateGM(np.array(ELLIPSOID_START[0]), np.array(ELLIPSOID_START[1]))
    x = state.packed()
    t1 = float(state.gamma[2])
    ev = eval_profile(ell, t1)
    table = solve_momenta(params, ell)
    closed = closed_form_momenta(params, routh)
    gauged = BracketKind.GAUGED
    particle = np.array([0.3, -0.5, 0.2, 1.0, -0.7])
    config_text = build_ops("ellipsoid", 0)[1].config_text

    def f(t, y):
        return _rhs_packed(params, ell, y)

    kernels = {
        "profile.eval_profile.us": lambda: eval_profile(ell, t1),
        "phase.omega_from_M.us": lambda: omega_from_M(params, ev, state),
        "phase.energy.us": lambda: energy(params, ev, state),
        "geomforms.qp_matrix.us": lambda: qp_matrix(params, ell, t1),
        "geomforms.qpl_values.us": lambda: qpl_values(params, ev, state),
        "momenta.momenta_ode_rhs.us": lambda: momenta_ode_rhs(params, ell, t1, (1.0, 0.0)),
        "momenta.MomentaSolution.eval.table_us": lambda: table.eval(t1),
        "momenta.MomentaSolution.eval.closed_us": lambda: closed.eval(ROUTH_START[0][2]),
        "momenta.eval_gauge_momenta.us": lambda: eval_gauge_momenta(table, state),
        "dynamics.rhs.us": lambda: rhs(params, ell, state),
        "smallalg.rk4_step.us": lambda: rk4_step(f, 0.0, x, 1e-3),
        "brackets.bracket.us": lambda: bracket(params, ell, TAUS[2], TAUS[3], state, gauged),
        "brackets.jacobiator.us": lambda: jacobiator(params, ell, TAUS[0], TAUS[1], TAUS[2], state, gauged),
        "brackets.casimir_residuals.us": lambda: casimir_residuals(params, ell, state, table),
        "brackets.pushforward_residual.us": lambda: pushforward_residual(params, ell, state),
        "particle.particle_jacobiator_reduced.us": lambda: particle_jacobiator_reduced(particle),
        "cli.parse_config.us": lambda: parse_config(config_text),
    }
    print(json.dumps({name: per_call_us(fn) for name, fn in kernels.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
