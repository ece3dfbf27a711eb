"""The certification battery: one flat table of check records.

A record names a claim, the tolerance it is certified at, its mode, and a
measure: a function of a subject that returns the worst value over the
subject's samples.  A subject is a :class:`Solid` (a body, a profile,
sampled states and the momenta under test) or a :class:`Particle` (sampled
points of the particle example).  ``run`` grades records against their
tolerances.  ``nonholo check`` and the acceptance tests measure through the
same records, so each tolerance is written once, here.  What several records
read at one sample (the bracket matrices, the Casimir residuals, the
particle's Jacobi trivector) is computed once per sample.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .brackets import (BracketKind, J2_COMPONENT, TAU1, TAU4, TAUS, bivector_packed, bracket, casimir_residuals,
                       hamiltonian_field, jacobiator, pushforward_residual)
from .dynamics import IntegratorConfig, drift, nonconservation_rates, rhs
from .geomforms import qp_grid, qp_matrix, qpl_values
from .momenta import ode_residual, routh_closed_form, routh_closed_form_derivative, solution_for, solve_momenta
from .particle import (COLUMNS as PARTICLE_COLUMNS, hamiltonian_frame_flow, particle_bracket, particle_integrate,
                       particle_momentum, particle_rhs, particle_trivector)
from .phase import invariants, omega_from_M, relation_residual
from .profile import eval_profile, profile_scalars
from .smallalg import E1, E2, E3, cross, dot, jacobi_trivector, nan_max


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    measured: float
    tolerance: float
    citation: str
    mode: str = "upper"  # "upper": pass iff measured < tolerance; "lower": >


@dataclass(frozen=True)
class Record:
    """A claim that passes iff its measure is below (mode "upper") or above
    (mode "lower") its tolerance."""

    name: str
    tolerance: float
    claim: str
    mode: str
    measure: Callable[[object], float]


def run(records, subject) -> list[CheckResult]:
    """Measure every record on ``subject`` and grade it against its tolerance."""
    results = []
    for rec in records:
        worst = rec.measure(subject)
        passed = worst < rec.tolerance if rec.mode == "upper" else worst > rec.tolerance
        results.append(
            CheckResult(rec.name, "pass" if passed else "fail", worst, rec.tolerance, rec.claim, rec.mode)
        )
    return results


def _worst(value):
    """The measure that keeps the largest ``value(subject, sample)``, or 0 with no
    samples; NaN if any value is NaN."""
    return lambda subject: nan_max(value(subject, p) for p in subject.samples)


# ---------------------------------------------------------------------------
# subjects

class Sample:
    """One packed state of a Solid and what several records read at it, each
    computed once; ``inv`` holds tau1..tau5 as floats."""

    def __init__(self, solid: "Solid", state):
        self.solid, self.x = solid, np.asarray(state, dtype=float)
        self.ev = eval_profile(solid.spec, self.x[2])
        self.inv = invariants(self.x).tolist()

    @cached_property
    def vals(self):
        return qpl_values(self.solid.params, self.ev, self.x)

    @cached_property
    def pis(self):
        """The gauged and the nh bracket matrix."""
        s, kinds = self.solid, (BracketKind.GAUGED, BracketKind.NH)
        return [bivector_packed(s.params, s.spec, self.x, kind) for kind in kinds]

    @cached_property
    def casimir(self):
        s = self.solid
        return casimir_residuals(s.params, s.spec, self.x, s.momenta)


class Solid:
    """A body and profile, the states the per-state records sweep, the momenta
    whose Casimir property is certified, and (Routh) the numeric solution
    whose span must contain the closed forms of ``momenta``, tabulated on
    the same grid.  A record that does not read ``momenta`` or ``numeric``
    accepts None there."""

    def __init__(self, params, spec, states, momenta, numeric):
        self.params, self.spec, self.momenta, self.numeric = params, spec, momenta, numeric
        self.samples = [Sample(self, st) for st in states]
        self.ham = hamiltonian_field(params, spec)

    @property
    def records(self) -> tuple[Record, ...]:
        """The records ``nonholo check`` runs for this profile."""
        if self.spec.kind == "routh":
            return SOLID + ROUTH
        return SOLID + BALANCED if self.spec.p1 == self.spec.p2 else SOLID


def solid_subject(params, spec, states, delta: float, h: float) -> Solid:
    """The Solid ``nonholo check`` certifies: the momenta ``solution_for`` the
    (delta, h) grid, and for Routh bodies a numeric solve on the same grid for
    the span."""
    momenta = solution_for(params, spec, delta, h)
    numeric = solve_momenta(params, spec, delta, h) if spec.kind == "routh" else momenta
    return Solid(params, spec, states, momenta, numeric)


class Particle:
    """The particle example and the sampled points the per-point records sweep."""

    def __init__(self, samples):
        self.samples = samples

    @property
    def records(self) -> tuple[Record, ...]:
        return PARTICLE

    @cached_property
    def trajectory(self):
        """The run the drift records read: t = 10 from (0, 0, 0, 1, 1)."""
        return particle_integrate(np.array([0.0, 0.0, 0.0, 1.0, 1.0]), IntegratorConfig(1e-3, 10.0))

    @cached_property
    def trivectors(self):
        """The Jacobi trivector of the coordinate bracket at each sample: entry
        [1, 3, 4] is the (y, px, py) Jacobiator, [0, 3, 4] the (x, px, py) one."""
        return [particle_trivector(v) for v in self.samples]

    @cached_property
    def unreduced(self):
        """The (x, px, py) Jacobiator at each sample."""
        return [float(t[0, 3, 4]) for t in self.trivectors]


# ---------------------------------------------------------------------------
# measures

def _fg(y):
    return (y[0] * y[4] - y[1] * y[3]) * (y[0] * y[3] + y[1] * y[4])


def _leibniz(s, p):
    def br(f, g):
        return bracket(s.params, s.spec, f, g, p.x, BracketKind.GAUGED)

    _, t2, t3, _, _ = p.inv
    return abs(br(_fg, TAUS[3]) - (t2 * br(TAUS[2], TAUS[3]) + t3 * br(TAUS[1], TAUS[3])))


def _qp_linearity(s, p):
    (t1, _, t3, t4, _), vals = p.inv, p.vals
    qp = qp_matrix(s.params, s.spec, t1)
    den = max(abs(vals.Q), abs(vals.P), 1e-3)
    return nan_max((abs(qp[0, 0] * t3 + qp[0, 1] * t4 - vals.Q) / den,
                    abs(qp[1, 0] * t3 + qp[1, 1] * t4 - vals.P) / den))


def _gauge_compatibility(s, p):
    omega = omega_from_M(s.params, p.ev, p.x)
    return nan_max(abs(dot(omega, cross(omega, e))) for e in (E1, E2, E3))


def _jacobi_gauged(s, p):
    t = jacobi_trivector(lambda y: bivector_packed(s.params, s.spec, y, BracketKind.GAUGED), p.x)
    d = np.array([tau.gradient(p.x) for tau in TAUS])
    jac = np.einsum("iab,pi,qa,rb->pqr", t, d, d, d)  # the Jacobiator of every triple of invariants
    return nan_max(abs(float(jac[a, b, c])) for a, b, c in itertools.combinations(range(5), 3))


def _jacobi_ungauged(s, p):
    jac = jacobiator(s.params, s.spec, TAU1, J2_COMPONENT, TAU4, p.x, BracketKind.NH)
    sc = profile_scalars(s.params, p.ev, p.x[:3])
    closed = -s.params.m * p.ev.rho * sc.gs * (1.0 - p.inv[0]**2) / sc.A1
    return abs(jac - closed) / abs(closed)


def _rate_law(s, p):
    rl = nonconservation_rates(s.params, s.spec, p.x)
    scale = max(abs(rl.pred1), abs(rl.pred2), 1e-6)
    return nan_max((abs(rl.dj1 - rl.pred1) / scale, abs(rl.dj2 - rl.pred2) / scale))


def _consistency(s, p):
    xd = rhs(s.params, s.spec, p.x)
    dh = s.ham.gradient(p.x)
    return nan_max(float(np.max(np.abs(xd - pi @ dh))) for pi in p.pis)


_TAU1_GRID = np.linspace(-0.999, 0.999, 1000)


def _kernel_pair(s):
    r, l = s.spec.p1, s.spec.p2
    q00, q01, q10, q11 = qp_grid(s.params, s.spec, _TAU1_GRID)
    return nan_max(np.abs([q00 * l + q10 * r, q01 * l + q11 * r]))


def _closed_form_ode_residual(s):
    r, l = s.spec.p1, s.spec.p2
    pairs = routh_closed_form(s.params, r, l, _TAU1_GRID)
    slopes = routh_closed_form_derivative(s.params, r, l, _TAU1_GRID)
    return nan_max(ode_residual(s.params, s.spec, _TAU1_GRID, fg, dfg) for fg, dfg in zip(pairs, slopes))


def _span_containment(s):
    return span_residual(s.params, s.spec, s.numeric, s.momenta.pairs)  # both on one grid


def span_residual(params, spec, numeric, closed) -> float:
    """Worst deviation of the Routh closed-form pairs from the numeric span.

    ``closed`` holds the closed-form pairs (f1, g1, f2, g2) at the nodes of
    ``numeric.grid``, one row each; the numeric pairs are combined as the
    closed forms are at tau1 = 0, where the numeric basis is normalized.
    """
    p, worst = numeric.pairs, []
    for k, (c0, c1) in enumerate(routh_closed_form(params, spec.p1, spec.p2, 0.0)):
        for j in (0, 1):  # f, then g; one column at a time keeps the temporaries small
            worst.append(nan_max(np.abs(c0 * p[:, j] + c1 * p[:, j + 2] - closed[:, 2 * k + j])))
    return nan_max(worst)


def _particle_drift(column: str):
    """The measure: drift of one column of the particle's reference trajectory."""
    return lambda s: drift(s.trajectory[:, PARTICLE_COLUMNS.index(column)])


_COORDS = (lambda u: u[1], lambda u: u[3], lambda u: u[4])


def _rhs_anchor(s, v):
    c = hamiltonian_frame_flow(v)
    coord_rate = np.array([c[0], c[1], v[1] * c[0], c[2], c[3]])
    return float(np.max(np.abs(coord_rate - particle_rhs(v))))


def _momentum_equation(subject):
    def residual(y):
        f = 1.0 / math.sqrt(1.0 + y * y)
        fp = -y * (1.0 + y * y) ** -1.5
        return abs(fp + f * y / (1.0 + y * y))

    return nan_max(residual(y) for y in np.linspace(-3.0, 3.0, 601))


# ---------------------------------------------------------------------------
# the table

SOLID = (
    Record("antisymmetry", 1e-9, "bracket matrix is antisymmetric by construction", "upper",
           _worst(lambda s, p: nan_max(float(np.max(np.abs(pi + pi.T))) for pi in p.pis))),
    Record("leibniz", 1e-7, "bracket satisfies the Leibniz rule", "upper", _worst(_leibniz)),
    Record("qp-linearity", 1e-9, "Q and P are linear in (tau3, tau4)", "upper", _worst(_qp_linearity)),
    Record("gauge-compatibility", 1e-14, "gauge 2-form annihilates the constrained dynamics", "upper",
           _worst(_gauge_compatibility)),
    Record("jacobi-gauged", 1e-6, "gauged reduced bracket satisfies the Jacobi identity", "upper",
           _worst(_jacobi_gauged)),
    Record("jacobi-ungauged-closed-form", 1e-4, "ungauged Jacobiator matches its closed-form obstruction",
           "upper", _worst(_jacobi_ungauged)),
    Record("casimir-J1", 1e-8, "gauge momenta are Casimirs of the gauged bracket", "upper",
           _worst(lambda s, p: p.casimir.max_j1)),
    Record("casimir-J2", 1e-8, "gauge momenta are Casimirs of the gauged bracket", "upper",
           _worst(lambda s, p: p.casimir.max_j2)),
    Record("involution", 1e-8, "the two gauge momenta are in involution", "upper",
           _worst(lambda s, p: p.casimir.involution)),
    Record("vertical-generator", 1e-8, "momentum flows are proportional to the S1 generator", "upper",
           _worst(lambda s, p: nan_max((p.casimir.vertical1, p.casimir.vertical2)))),
    Record("pushforward-table", 1e-8, "tau-pushforward of the bracket matches the explicit table", "upper",
           _worst(lambda s, p: pushforward_residual(s.params, s.spec, p.x))),
    Record("rate-law", 1e-9, "momentum components drift at the predicted rate", "upper", _worst(_rate_law)),
    Record("relation-residual", 1e-12, "invariant coordinates satisfy their defining relation", "upper",
           _worst(lambda s, p: abs(relation_residual(*p.inv[:3], p.inv[4])))),
    Record("bracket-dynamics-consistency", 1e-8, "dynamics is bracket-hamiltonian for both bracket kinds",
           "upper", _worst(_consistency)),
)
ROUTH = (
    Record("kernel-pair", 1e-12, "the constant pair spans the coefficient-ODE kernel", "upper", _kernel_pair),
    Record("closed-form-ode-residual", 1e-9, "closed-form pairs solve the coefficient ODE", "upper",
           _closed_form_ode_residual),
    Record("span-containment", 1e-6, "numeric solution span contains the closed forms", "upper",
           _span_containment),
)
BALANCED = (
    Record("chaplygin-P-zero", 1e-12, "balanced ellipsoid limit has identically vanishing P", "upper",
           _worst(lambda s, p: abs(p.vals.P))),
)
PARTICLE = (
    Record("energy-drift", 1e-8, "constrained particle conserves H", "upper",
           _particle_drift("E")),
    Record("momentum-drift", 1e-8, "constrained particle conserves J", "upper",
           _particle_drift("J")),
    Record("reduced-jacobi", 1e-7, "reduced particle bracket is Poisson", "upper",
           lambda s: nan_max(abs(float(t[1, 3, 4])) for t in s.trivectors)),
    Record("jacobi-negative-control", 1e-3, "triples keeping the unreduced x must fail Jacobi", "lower",
           lambda s: nan_max(map(abs, s.unreduced))),
    Record("jacobi-unreduced-closed-form", 1e-9, "the (x, px, py) Jacobiator equals y/(1+y^2)", "upper",
           lambda s: nan_max(abs(ju - v[1] / (1.0 + v[1] ** 2)) for v, ju in zip(s.samples, s.unreduced))),
    Record("casimir-momentum", 1e-8, "J is a Casimir of the reduced particle bracket", "upper",
           _worst(lambda s, v: nan_max(abs(particle_bracket(particle_momentum, f, v)) for f in _COORDS))),
    Record("rhs-anchor", 1e-9, "bracket-hamiltonian flow equals the constrained dynamics", "upper",
           _worst(_rhs_anchor)),
    Record("momentum-equation", 1e-12, "coefficient f solves its momentum equation", "upper",
           _momentum_equation),
)
RECORDS = {rec.name: rec for rec in SOLID + ROUTH + BALANCED + PARTICLE}
