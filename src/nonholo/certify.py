"""The certification battery: one flat table of check records.

A record names a claim, the tolerance it is certified at, its mode, and a
measure: a function of a subject.  A subject is a :class:`Solid` (a body, a
profile, sampled states and the momenta under test) or a :class:`Particle`
(sampled points of the particle example).  A per-sample measure returns the
(m,) array of its values at the subject's m samples, measured in one array
pass; a record that is not per sample returns one value.  ``run`` reduces
the arrays with ``nan_max``, keeps the index of the sample it picked, and
grades records against their tolerances.  ``nonholo check`` and the
acceptance tests measure through the same records, so each tolerance is
written once, here.  What several records read is computed once per
subject: the Casimir residuals per sample, the gauge fields, and the
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

from .brackets import (BracketKind, J2_COMPONENT, TAU1, TAU4, bivector_packed, casimir_residuals, energy_at,
                       pushforward_residual, tau_gradients)
from .dynamics import IntegratorConfig, nonconservation_rates, rhs
from .geomforms import gauge_columns, qp_grid
from .momenta import ode_residual, routh_closed_form, routh_closed_form_derivative, solve_momenta
from .particle import (COORDINATES, HAMILTONIAN, MOMENTUM, particle_bivector, particle_bracket, particle_integrate,
                       particle_rhs, particle_trivector)
from .phase import invariants, relation_residual
from .profile import mass_scalars, state_terms
from .smallalg import Jet, jacobi_trivector, nan_max, pow2


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    measured: float
    tolerance: float
    citation: str
    mode: str = "upper"  # "upper": pass iff measured < tolerance; "lower": >
    worst_sample: int | None = None  # the sample ``measured`` was taken at; None if not per sample


@dataclass(frozen=True)
class Record:
    """A claim that passes iff its measure is below (mode "upper") or above
    (mode "lower") its tolerance.  ``measure`` returns one value per sample
    (an array) or one value for the subject."""

    name: str
    tolerance: float
    claim: str
    mode: str
    measure: Callable[[object], float | np.ndarray]


def run(records, subject) -> list[CheckResult]:
    """Measure every record on ``subject`` and grade it against its tolerance.

    A per-sample record measures its worst value (``nan_max``: the first NaN,
    else the largest), at the first sample that has it.
    """
    results = []
    for rec in records:
        values = rec.measure(subject)
        if isinstance(values, np.ndarray):
            worst, index = nan_max(values), int(np.argmax(values))
        else:
            worst, index = values, None
        passed = worst < rec.tolerance if rec.mode == "upper" else worst > rec.tolerance
        results.append(
            CheckResult(rec.name, "pass" if passed else "fail", worst, rec.tolerance, rec.claim, rec.mode, index)
        )
    return results


# ---------------------------------------------------------------------------
# subjects

#: By kind (gauged, nh): the (m, 6, 6) bracket matrices and (m, 6, 6, 6)
#: trivectors; the (m, 6) energy gradients.
Jets = namedtuple("Jets", "pis trivectors dh")


class Solid:
    """A body and profile, the states the per-state records sweep, and the
    momenta whose Casimir property is certified (a run's solution: the series
    solve, or the Routh closed forms).  A record that does not read
    ``momenta`` accepts None there."""

    def __init__(self, params, spec, states, momenta):
        self.params, self.spec, self.momenta = params, spec, momenta
        self.x = np.asarray(states, dtype=float)  # (m, 6)

    @cached_property
    def inv(self) -> np.ndarray:
        """The (m, 5) invariants tau1..tau5."""
        return invariants(self.x)

    @cached_property
    def terms(self) -> tuple:
        """The state columns and the profile terms at them (``state_terms``)."""
        return state_terms(self.spec, self.x)

    @cached_property
    def gauge(self) -> tuple:
        """c3, Q, P, L_vec and K_vec at every sample (``gauge_columns``)."""
        cols, (rho, _, L, rho_p, L_p) = self.terms
        return gauge_columns(self.params, rho, L, rho_p, L_p, *cols)

    @cached_property
    def casimir(self):
        """The Casimir residuals at every sample, on the jet pass's gauged matrices."""
        return casimir_residuals(self.params, self.spec, self.x, self.momenta, self.jets.pis[0])

    @cached_property
    def jets(self) -> "Jets":
        """One jet pass over every sample, for the gauged and the nh bracket."""
        x, pis, trivectors = Jet.seed(self.x), [], []
        for kind in (BracketKind.GAUGED, BracketKind.NH):  # one kind's derivative held at a time
            pi = bivector_packed(self.params, self.spec, x, kind)
            pis.append(pi.value)
            trivectors.append(jacobi_trivector(pi))
        return Jets(pis, trivectors, energy_at(self.params, self.spec, x).grad.T)

    @property
    def records(self) -> tuple[Record, ...]:
        """The records ``nonholo check`` runs for this profile."""
        if self.spec.kind == "routh":  # the series solve first: its overflow is an error before any record warns
            return ROUTH + SOLID
        return SOLID + BALANCED if self.spec.p1 == self.spec.p2 else SOLID


class Particle:
    """The particle example and the sampled points the per-point records sweep."""

    def __init__(self, samples):
        self.v = np.asarray(samples, dtype=float)  # (m, 5)

    @property
    def records(self) -> tuple[Record, ...]:
        return PARTICLE

    @cached_property
    def trajectory(self):
        """The run the drift records read, t = 10 from (0, 0, 0, 1, 1): its
        ``Streamed`` record, whose drifts are folded from blocks it keeps none of."""
        return particle_integrate(np.array([0.0, 0.0, 0.0, 1.0, 1.0]), IntegratorConfig(1e-3, 10.0), sink=_discard)

    @cached_property
    def trivectors(self):
        """The Jacobi trivector of the coordinate bracket at each sample, from one
        jet pass: entry [1, 3, 4] is the (y, px, py) Jacobiator, [0, 3, 4] the
        (x, px, py) one."""
        return particle_trivector(self.v)

    @cached_property
    def unreduced(self):
        """The (x, px, py) Jacobiator at each sample."""
        return self.trivectors[:, 0, 3, 4]


# ---------------------------------------------------------------------------
# measures: each returns the (m,) array of its values at the samples

def _qp_linearity(s):
    t1, _, t3, t4, _ = s.inv.T
    q00, q01, q10, q11 = qp_grid(s.params, s.spec, t1)
    _, q, p, *_ = s.gauge
    den = np.maximum(np.maximum(np.abs(q), np.abs(p)), 1e-3)
    return np.maximum(np.abs(q00 * t3 + q01 * t4 - q) / den, np.abs(q10 * t3 + q11 * t4 - p) / den)


#: The triples a < b < c of the five invariants, as three index arrays
_TRIPLES = tuple(np.array(list(itertools.combinations(range(5), 3))).T)


def _jacobi_gauged(s):
    # the Jacobiator of every triple of invariants, one two-operand contraction at a time
    d = tau_gradients(s.x)
    jac = np.einsum("niab,npi->npab", s.jets.trivectors[0], d)
    jac = np.einsum("npab,nqa->npqb", jac, d)
    jac = np.einsum("npqb,nrb->npqr", jac, d)
    return np.max(np.abs(jac[:, _TRIPLES[0], _TRIPLES[1], _TRIPLES[2]]), axis=1)


def _jacobi_ungauged(s):
    x, t = s.x, s.jets.trivectors[1]
    jac = np.einsum("niab,ni->nab", t, TAU1.grad(x))
    jac = np.einsum("nab,na->nb", jac, J2_COMPONENT.grad(x))
    jac = np.einsum("nb,nb->n", jac, TAU4.grad(x))
    (g1, g2, g3, *_), (rho, _, L, *_) = s.terms
    sc = mass_scalars(s.params, rho, L, g1, g2, g3)
    closed = -s.params.m * rho * sc.gs * (1.0 - pow2(s.inv[:, 0])) / sc.A1
    return np.abs(jac - closed) / np.abs(closed)


def _rate_law(s):
    rl = nonconservation_rates(s.params, s.spec, s.x)
    scale = np.maximum(np.maximum(np.abs(rl.pred1), np.abs(rl.pred2)), 1e-6)
    return np.maximum(np.abs(rl.dj1 - rl.pred1) / scale, np.abs(rl.dj2 - rl.pred2) / scale)


def _consistency(s):
    xd, dh = rhs(s.params, s.spec, s.x), s.jets.dh
    gauged, nh = (np.max(np.abs(xd - np.einsum("nab,nb->na", pi, dh)), axis=1) for pi in s.jets.pis)
    return np.maximum(gauged, nh)


_TAU1_GRID = np.linspace(-0.999, 0.999, 1000)


def _kernel_pair(s):
    r, l = s.spec.p1, s.spec.p2
    q00, q01, q10, q11 = qp_grid(s.params, s.spec, _TAU1_GRID)
    return nan_max(np.abs([q00 * l + q10 * r, q01 * l + q11 * r]))


def _closed_form_ode_residual(s):
    r, l = s.spec.p1, s.spec.p2
    pairs = routh_closed_form(s.params, r, l, _TAU1_GRID)
    slopes = routh_closed_form_derivative(s.params, r, l, _TAU1_GRID)
    return nan_max(np.array([ode_residual(s.params, s.spec, _TAU1_GRID, fg, dfg)
                             for fg, dfg in zip(pairs, slopes)]))


#: The tau1 at which span-containment compares the Routh series with the closed forms: [-1, 1], poles included
_SPAN_GRID = np.linspace(-1.0, 1.0, 1001)


def _span_containment(s):
    """``span_deviation`` of the Routh series solve on ``_SPAN_GRID`` (NonholoError if it is not finite)."""
    return span_deviation(s.params, s.spec, _SPAN_GRID, solve_momenta(s.params, s.spec).eval(_SPAN_GRID))[1]


def span_deviation(params, spec, tau1: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """The Routh closed-form rows at tau1, and the worst deviation from them
    of the numeric span, whose rows (f1, g1, f2, g2) at tau1 are ``rows``:
    the numeric pairs are combined as the closed forms are at tau1 = 0, where
    the numeric basis is normalized.  The worst is NaN if a deviation is."""
    p1, p2 = routh_closed_form(params, spec.p1, spec.p2, tau1)
    closed = np.column_stack(np.broadcast_arrays(*p1, *p2))
    (l, r), (u, v) = routh_closed_form(params, spec.p1, spec.p2, 0.0)
    c0, c1 = np.array([l, l, u, u]), np.array([r, r, v, v])  # the coefficients of (f1, g1) and of (f2, g2)
    return closed, nan_max(np.abs(c0 * rows[:, [0, 1, 0, 1]] + c1 * rows[:, [2, 3, 2, 3]] - closed))


def _discard(block) -> None:
    """A sink that keeps no row (a module function, so a run's arguments pickle)."""


_COORDS = (COORDINATES[1], COORDINATES[3], COORDINATES[4])  # y, px, py


def _casimir_momentum(s):
    return np.max(np.abs([particle_bracket(MOMENTUM, f, s.v) for f in _COORDS]), axis=0)


def _rhs_anchor(s):
    flow = np.einsum("nab,nb->na", particle_bivector(s.v), HAMILTONIAN.grad(s.v))
    return np.max(np.abs(flow - particle_rhs(s.v)), axis=1)


def _unreduced_closed_form(s):
    y = s.v[:, 1]
    return np.abs(s.unreduced - y / (1.0 + pow2(y)))


# ---------------------------------------------------------------------------
# the table

SOLID = (
    Record("qp-linearity", 1e-9, "Q and P are linear in (tau3, tau4)", "upper", _qp_linearity),
    Record("jacobi-gauged", 1e-6, "gauged reduced bracket satisfies the Jacobi identity", "upper", _jacobi_gauged),
    Record("jacobi-ungauged-closed-form", 1e-4, "ungauged Jacobiator matches its closed-form obstruction",
           "upper", _jacobi_ungauged),
    Record("casimir-J1", 1e-8, "gauge momenta are Casimirs of the gauged bracket", "upper",
           lambda s: s.casimir.max_j1),
    Record("casimir-J2", 1e-8, "gauge momenta are Casimirs of the gauged bracket", "upper",
           lambda s: s.casimir.max_j2),
    Record("involution", 1e-8, "the two gauge momenta are in involution", "upper",
           lambda s: s.casimir.involution),
    Record("vertical-generator", 1e-8, "momentum flows are proportional to the S1 generator", "upper",
           lambda s: np.maximum(s.casimir.vertical1, s.casimir.vertical2)),
    Record("pushforward-table", 1e-8, "tau-pushforward of the bracket matches the explicit table", "upper",
           lambda s: pushforward_residual(s.params, s.spec, s.x, s.jets.pis[0])),
    Record("rate-law", 1e-9, "momentum components drift at the predicted rate", "upper", _rate_law),
    Record("relation-residual", 1e-12, "invariant coordinates satisfy their defining relation", "upper",
           lambda s: np.abs(relation_residual(*s.inv.T[:3], s.inv[:, 4]))),
    Record("bracket-dynamics-consistency", 1e-8, "dynamics is bracket-hamiltonian for both bracket kinds",
           "upper", _consistency),
)
ROUTH = (
    Record("span-containment", 1e-6, "numeric solution span contains the closed forms on [-1, 1]", "upper",
           _span_containment),
    Record("kernel-pair", 1e-12, "the constant pair spans the coefficient-ODE kernel", "upper", _kernel_pair),
    Record("closed-form-ode-residual", 1e-9, "closed-form pairs solve the coefficient ODE", "upper",
           _closed_form_ode_residual),
)
BALANCED = (
    Record("chaplygin-P-zero", 1e-12, "balanced ellipsoid limit has identically vanishing P", "upper",
           lambda s: np.abs(s.gauge[2])),
)
PARTICLE = (
    Record("energy-drift", 1e-8, "constrained particle conserves H", "upper",
           lambda s: s.trajectory.drifts["dE"]),
    Record("momentum-drift", 1e-8, "constrained particle conserves J", "upper",
           lambda s: s.trajectory.drifts["dJ"]),
    Record("reduced-jacobi", 1e-7, "reduced particle bracket is Poisson", "upper",
           lambda s: np.abs(s.trivectors[:, 1, 3, 4])),
    Record("jacobi-negative-control", 1e-3, "triples keeping the unreduced x must fail Jacobi", "lower",
           lambda s: np.abs(s.unreduced)),
    Record("jacobi-unreduced-closed-form", 1e-9, "the (x, px, py) Jacobiator equals y/(1+y^2)", "upper",
           _unreduced_closed_form),
    Record("casimir-momentum", 1e-8, "J is a Casimir of the reduced particle bracket", "upper", _casimir_momentum),
    Record("rhs-anchor", 1e-9, "bracket-hamiltonian flow equals the constrained dynamics", "upper", _rhs_anchor),
)
RECORDS = {rec.name: rec for rec in SOLID + ROUTH + BALANCED + PARTICLE}
