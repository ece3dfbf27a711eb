"""Phase space (gamma, M), the M <-> Omega conversion, invariants, energy.

States live on the partially reduced space S^2 x R^3: gamma is the Poisson
(vertical) vector seen from the body frame, M the kinetic angular momentum
about the contact point,

    M = I*Omega + m * s x (Omega x s) = A*Omega - m*<s, Omega>*s,

with A = I + m*<s,s>*Id diagonal.  The inversion is closed-form:

    Omega = A^-1 M + m*<s, Omega> A^-1 s,
    <s, Omega> = <A^-1 M, s> / E,       E = 1 - m*<A^-1 s, s> > 0.

The S^1-invariant coordinates

    tau1 = gamma3, tau2 = gamma1*M2 - gamma2*M1, tau3 = gamma1*M1 + gamma2*M2,
    tau4 = M3,     tau5 = M1^2 + M2^2

generate the algebra of axisymmetric functions and satisfy one relation,
tau2^2 + tau3^2 = (1 - tau1^2) * tau5.  The two momentum-map components of
the S^1 x S^1 symmetry are linear in (tau3, tau4):

    j1 = -M3 = -tau4,         j2 = <gamma, M> = tau3 + tau1*tau4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import ProfileEval, ProfileSpec, contact_vector, eval_profile
from .smallalg import Vec3, dot

_NORM_TOL = 1e-6  # loose enough for renormalization-off trajectories


@dataclass(frozen=True)
class BodyParams:
    """Mass m, axisymmetric inertia I = diag(I1, I1, I3), gravity strength."""

    m: float
    I1: float
    I3: float
    grav: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.m, self.I1, self.I3, self.grav)):
            raise ValueError(f"need finite m, I1, I3, grav, got {self}")
        if not (self.m > 0 and self.I1 > 0 and self.I3 > 0):
            raise ValueError(f"need m, I1, I3 > 0, got {self}")
        if self.grav < 0:
            raise ValueError(f"need grav >= 0, got {self.grav}")


@dataclass(slots=True)
class StateGM:
    """A point (gamma, M) with gamma on the unit sphere."""

    gamma: Vec3
    M: Vec3

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.M = np.asarray(self.M, dtype=float)
        if self.gamma.shape != (3,) or self.M.shape != (3,):
            raise ValueError("gamma and M must be 3-vectors")
        n = float(np.sqrt(dot(self.gamma, self.gamma)))
        if not abs(n - 1.0) <= _NORM_TOL:
            raise ValueError(f"|gamma| = {n!r} is not 1 within {_NORM_TOL:g}")
        M = self.M
        if not (math.isfinite(M[0]) and math.isfinite(M[1]) and math.isfinite(M[2])):
            raise ValueError(f"M = {M!r} is not finite")

    def packed(self) -> np.ndarray:
        """Return the state as a flat 6-vector (gamma, M)."""
        return np.concatenate([self.gamma, self.M])

    @classmethod
    def from_packed(cls, x: np.ndarray) -> "StateGM":
        return cls(np.array(x[:3]), np.array(x[3:6]))


@dataclass(frozen=True, slots=True)
class InvariantPoint:
    """Values of the S^1-invariant coordinates tau1..tau5 at a state."""

    t1: float
    t2: float
    t3: float
    t4: float
    t5: float

    def relation_residual(self) -> float:
        """Residual of tau2^2 + tau3^2 - (1 - tau1^2)*tau5 (zero on states)."""
        return relation_residual(self.t1, self.t2, self.t3, self.t5)


def relation_residual(t1: float, t2: float, t3: float, t5: float) -> float:
    """tau2^2 + tau3^2 - (1 - tau1^2)*tau5 on floats (their ``**`` is libm pow,
    which differs from numpy's array square in the last bit for ~0.1% of values)."""
    return t2**2 + t3**2 - (1.0 - t1**2) * t5


def invariants(state: StateGM) -> InvariantPoint:
    """Evaluate tau1..tau5 at a state."""
    g, M = state.gamma, state.M
    return InvariantPoint(
        float(g[2]),
        float(g[0] * M[1] - g[1] * M[0]),
        float(g[0] * M[0] + g[1] * M[1]),
        float(M[2]),
        float(M[0] * M[0] + M[1] * M[1]),
    )


def momentum_components(state: StateGM) -> tuple[float, float]:
    """Return (j1, j2) = (-M3, <gamma, M>)."""
    return -float(state.M[2]), dot(state.gamma, state.M)


def _omega_raw(params: BodyParams, ev: ProfileEval, gamma: Vec3, M: Vec3) -> Vec3:
    """Omega from M without state validation (shared fast path)."""
    s = ev.rho * gamma
    s = np.array([s[0], s[1], s[2] - ev.L])
    ss = dot(s, s)
    a1 = params.I1 + params.m * ss
    a3 = params.I3 + params.m * ss
    ainv_m = np.array([M[0] / a1, M[1] / a1, M[2] / a3])
    ainv_s = np.array([s[0] / a1, s[1] / a1, s[2] / a3])
    e = 1.0 - params.m * dot(ainv_s, s)
    s_omega = dot(ainv_m, s) / e
    return ainv_m + (params.m * s_omega) * ainv_s


def omega_from_M(params: BodyParams, ev: ProfileEval, state: StateGM) -> Vec3:
    """Invert M = A*Omega - m*<s,Omega>*s for Omega (closed form).

    The round trip M -> Omega -> M is an identity to ~1e-15; tested at 1e-10.
    """
    contact_vector(ev, state.gamma)  # consistency check only
    return _omega_raw(params, ev, state.gamma, state.M)


def M_from_omega(params: BodyParams, ev: ProfileEval, gamma: Vec3, omega: Vec3) -> Vec3:
    """Forward map M = A*Omega - m*<s, Omega>*s."""
    s = contact_vector(ev, gamma)
    ss = dot(s, s)
    a1 = params.I1 + params.m * ss
    a3 = params.I3 + params.m * ss
    so = dot(s, omega)
    return np.array(
        [
            a1 * omega[0] - params.m * so * s[0],
            a1 * omega[1] - params.m * so * s[1],
            a3 * omega[2] - params.m * so * s[2],
        ]
    )


def _energy_raw(params: BodyParams, ev: ProfileEval, gamma: Vec3, M: Vec3) -> float:
    """The one energy formula behind energy and energy_packed (no validation)."""
    omega = _omega_raw(params, ev, gamma, M)
    gs = dot(gamma, ev.rho * gamma) - ev.L * gamma[2]
    return 0.5 * dot(M, omega) - params.m * params.grav * gs


def energy(params: BodyParams, ev: ProfileEval, state: StateGM) -> float:
    """Total energy H = (1/2)<M, Omega> - m*grav*<gamma, s>.

    The height of the center of mass above the plane is -<gamma, s>, so the
    potential term is +m*grav*height.  This restriction of the full-space
    hamiltonian is pinned by the energy-conservation tests.
    """
    contact_vector(ev, state.gamma)  # consistency check only
    return _energy_raw(params, ev, state.gamma, state.M)


def energy_packed(params: BodyParams, spec: ProfileSpec, x: np.ndarray) -> float:
    """Energy as a plain function of the packed 6-vector (used by FD gradients)."""
    return _energy_raw(params, eval_profile(spec, x[2]), x[:3], x[3:6])
