"""The certification battery: one flat table of check records.

A record names a claim, the tolerance it is certified at, its mode, and a
measure: a function of a subject that returns the worst value over the
subject's samples.  A subject is a :class:`Solid` (a body, a profile,
sampled states and the momenta under test) or a :class:`Particle` (sampled
points of the particle example).  ``run`` grades records against their
tolerances.  ``nonholo check`` and the acceptance tests measure through the
same records, so each tolerance is written once, here.  What several records
read at one sample is computed once: the Casimir residuals per sample; the
bracket matrices, trivectors and energy gradients in one jet pass.

Every record can fail: ``tests/test_defects.py`` names, for each one, a
seeded defect in the package that makes ``check`` fail it.  A claim that
holds by construction (the antisymmetry of the hat-block bracket matrix,
the Leibniz rule of a bracket bilinear in the gradients) is a unit test,
not a record.  README's record table lists this table, row for row.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .brackets import (BracketKind, J2_COMPONENT, TAU1, TAU4, TAUS, bivector_packed, casimir_residuals, energy_at,
                       pushforward_residual)
from .dynamics import IntegratorConfig, drift, nonconservation_rates, rhs
from .geomforms import qp_grid, qp_matrix, qpl_values
from .momenta import ode_residual, routh_closed_form, routh_closed_form_derivative, solution_for, solve_momenta
from .particle import (COLUMNS as PARTICLE_COLUMNS, COORDINATES, MOMENTUM, hamiltonian_frame_flow, particle_bracket,
                       particle_integrate, particle_rhs, particle_trivector)
from .phase import invariants, relation_residual
from .profile import eval_profile, profile_scalars
from .smallalg import Jet, jacobi_trivector, nan_max


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
    """One packed state of a Solid (row ``index`` of its ``jets``) and what several
    records read at it, each computed once; ``inv`` holds tau1..tau5 as floats."""

    def __init__(self, solid: "Solid", index: int, state):
        self.solid, self.index, self.x = solid, index, np.asarray(state, dtype=float)
        self.ev = eval_profile(solid.spec, self.x[2])
        self.inv = invariants(self.x).tolist()

    @cached_property
    def vals(self):
        return qpl_values(self.solid.params, self.ev, self.x)

    @cached_property
    def casimir(self):
        s = self.solid
        return casimir_residuals(s.params, s.spec, self.x, s.momenta)


#: By kind (gauged, nh), then sample: the bracket matrices and trivectors; by sample, the energy gradient.
Jets = namedtuple("Jets", "pis trivectors dh")


class Solid:
    """A body and profile, the states the per-state records sweep, the momenta
    whose Casimir property is certified, and (Routh) the numeric solution
    whose span must contain the closed forms of ``momenta``, tabulated on
    the same grid.  A record that does not read ``momenta`` or ``numeric``
    accepts None there."""

    def __init__(self, params, spec, states, momenta, numeric):
        self.params, self.spec, self.momenta, self.numeric = params, spec, momenta, numeric
        self.samples = [Sample(self, k, st) for k, st in enumerate(states)]

    @cached_property
    def jets(self) -> "Jets":
        """One jet pass over every sample, for the gauged and the nh bracket."""
        x, pis, trivectors = Jet.seed([p.x for p in self.samples]), [], []
        for kind in (BracketKind.GAUGED, BracketKind.NH):  # one kind's derivative held at a time
            pi = bivector_packed(self.params, self.spec, x, kind)
            pis.append(pi.value)
            trivectors.append(jacobi_trivector(pi))
        return Jets(pis, trivectors, energy_at(self.params, self.spec, x).grad.T)

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
        """The Jacobi trivector of the coordinate bracket at each sample, from one
        jet pass: entry [1, 3, 4] is the (y, px, py) Jacobiator, [0, 3, 4] the
        (x, px, py) one."""
        return particle_trivector(np.array(self.samples))

    @cached_property
    def unreduced(self):
        """The (x, px, py) Jacobiator at each sample."""
        return [float(t[0, 3, 4]) for t in self.trivectors]


# ---------------------------------------------------------------------------
# measures

def _qp_linearity(s, p):
    (t1, _, t3, t4, _), vals = p.inv, p.vals
    qp = qp_matrix(s.params, s.spec, t1)
    den = max(abs(vals.Q), abs(vals.P), 1e-3)
    return nan_max((abs(qp[0, 0] * t3 + qp[0, 1] * t4 - vals.Q) / den,
                    abs(qp[1, 0] * t3 + qp[1, 1] * t4 - vals.P) / den))


def _jacobi_gauged(s, p):
    d, t = np.array([tau.grad(p.x) for tau in TAUS]), s.jets.trivectors[0][p.index]
    jac = np.einsum("iab,pi,qa,rb->pqr", t, d, d, d)  # the Jacobiator of every triple of invariants
    return nan_max(abs(float(jac[a, b, c])) for a, b, c in itertools.combinations(range(5), 3))


def _jacobi_ungauged(s, p):
    grads = (f.grad(p.x) for f in (TAU1, J2_COMPONENT, TAU4))
    jac = float(np.einsum("iab,i,a,b->", s.jets.trivectors[1][p.index], *grads))
    sc = profile_scalars(s.params, p.ev, p.x[:3])
    closed = -s.params.m * p.ev.rho * sc.gs * (1.0 - p.inv[0]**2) / sc.A1
    return abs(jac - closed) / abs(closed)


def _rate_law(s, p):
    rl = nonconservation_rates(s.params, s.spec, p.x)
    scale = max(abs(rl.pred1), abs(rl.pred2), 1e-6)
    return nan_max((abs(rl.dj1 - rl.pred1) / scale, abs(rl.dj2 - rl.pred2) / scale))


def _consistency(s, p):
    xd = rhs(s.params, s.spec, p.x)
    dh = s.jets.dh[p.index]
    return nan_max(float(np.max(np.abs(xd - pis[p.index] @ dh))) for pis in s.jets.pis)


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


_COORDS = (COORDINATES[1], COORDINATES[3], COORDINATES[4])  # y, px, py


def _rhs_anchor(s, v):
    c = hamiltonian_frame_flow(v)
    coord_rate = np.array([c[0], c[1], v[1] * c[0], c[2], c[3]])
    return float(np.max(np.abs(coord_rate - particle_rhs(v))))


# ---------------------------------------------------------------------------
# the table

SOLID = (
    Record("qp-linearity", 1e-9, "Q and P are linear in (tau3, tau4)", "upper", _worst(_qp_linearity)),
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
           _worst(lambda s, v: nan_max(abs(particle_bracket(MOMENTUM, f, v)) for f in _COORDS))),
    Record("rhs-anchor", 1e-9, "bracket-hamiltonian flow equals the constrained dynamics", "upper",
           _worst(_rhs_anchor)),
)
RECORDS = {rec.name: rec for rec in SOLID + ROUTH + BALANCED + PARTICLE}
