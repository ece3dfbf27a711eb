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

Every kernel of the package reads a state as the packed 6-vector
x = (gamma, M), via ``np.asarray(x, dtype=float)``; ``StateGM`` validates a
state once, at the boundary, and converts to that vector.  Omega and the
energy each have one body on the six state floats (``omega_floats``,
``energy_floats``), which the integrator steps with and which
``omega_from_M`` and ``energy`` wrap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import ProfileEval, check_gamma3
from .smallalg import Vec3, pow2

_NORM_TOL = 1e-6  # |gamma| - 1 allowed at the boundary: a gamma rounded to seven significant digits passes


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
    """A point (gamma, M) with gamma on the unit sphere, validated on construction.

    The kernels read states as the packed 6-vector (gamma, M); a StateGM
    converts to it wherever an array is expected (``np.asarray(state)``).
    """

    gamma: Vec3
    M: Vec3

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.M = np.asarray(self.M, dtype=float)
        if self.gamma.shape != (3,) or self.M.shape != (3,):
            raise ValueError("gamma and M must be 3-vectors")
        g1, g2, g3 = self.gamma.tolist()  # Python floats: a huge entry overflows to inf without a warning
        n = math.sqrt(g1 * g1 + g2 * g2 + g3 * g3)
        if not abs(n - 1.0) <= _NORM_TOL:
            raise ValueError(f"|gamma| = {n!r} is not 1 within {_NORM_TOL:g}")
        M = self.M
        if not (math.isfinite(M[0]) and math.isfinite(M[1]) and math.isfinite(M[2])):
            raise ValueError(f"M = {M!r} is not finite")

    def packed(self) -> np.ndarray:
        """Return the state as a flat 6-vector (gamma, M)."""
        return np.concatenate([self.gamma, self.M])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.packed() if dtype is None else self.packed().astype(dtype, copy=False)

    @classmethod
    def from_packed(cls, x) -> "StateGM":
        """Validate a packed 6-vector (gamma, M) (or a StateGM) as a state."""
        x = np.asarray(x, dtype=float)
        if x.shape != (6,):
            raise ValueError(f"a packed state has shape (6,), got {x.shape}")
        return cls(x[:3].copy(), x[3:6].copy())


def relation_residual(t1: float, t2: float, t3: float, t5: float) -> float:
    """tau2^2 + tau3^2 - (1 - tau1^2)*tau5, zero on states, on floats or
    elementwise on arrays with the same bits: the squares are libm pow
    (``smallalg.pow2``), which differs from numpy's array square in the last
    bit for ~0.1% of values."""
    return pow2(t2) + pow2(t3) - (1.0 - pow2(t1)) * t5


def invariants(x) -> np.ndarray:
    """tau1..tau5 of packed states: a (..., 5) array for a (..., 6) one."""
    g1, g2, g3, m1, m2, m3 = np.asarray(x, dtype=float).T
    return np.array([g3, g1 * m2 - g2 * m1, g1 * m1 + g2 * m2, m3, m1 * m1 + m2 * m2]).T


def momentum_components(x) -> np.ndarray:
    """(j1, j2) = (-M3, <gamma, M>) of packed states: a (..., 2) array."""
    g1, g2, g3, m1, m2, m3 = np.asarray(x, dtype=float).T
    return np.array([-m3, g1 * m1 + g2 * m2 + g3 * m3]).T


def omega_from_M(params: BodyParams, ev: ProfileEval, x) -> Vec3:
    """Invert M = A*Omega - m*<s,Omega>*s for Omega (closed form); ``omega_floats``
    at the packed state.

    The round trip M -> Omega -> M is an identity to ~1e-15; tested at 1e-10.

    Raises:
        ConsistencyError: if ``ev`` was evaluated at another gamma3 than the state's.
    """
    x = np.asarray(x, dtype=float)
    check_gamma3(ev, x[2])
    return np.array(omega_floats(params, ev.rho, ev.L, *x[:6].tolist()))


def omega_floats(params: BodyParams, rho: float, L: float, g1, g2, g3, m1, m2, m3) -> tuple:
    """Omega at the state (g1, g2, g3, M1, M2, M3), on floats: the one body of
    the inversion, read by ``omega_from_M``, ``energy`` and ``integrate``.

    With s = (rho*g1, rho*g2, rho*g3 - L) and A = diag(a1, a1, a3),
    Omega = A^-1 M + m*(<A^-1 M, s>/e) A^-1 s, e = 1 - m*<A^-1 s, s>.
    """
    m = params.m
    s1, s2, s3 = rho * g1, rho * g2, rho * g3 - L
    ss = s1 * s1 + s2 * s2 + s3 * s3
    a1 = params.I1 + m * ss
    a3 = params.I3 + m * ss
    am1, am2, am3 = m1 / a1, m2 / a1, m3 / a3
    as1, as2, as3 = s1 / a1, s2 / a1, s3 / a3
    e = 1.0 - m * (as1 * s1 + as2 * s2 + as3 * s3)
    k = m * ((am1 * s1 + am2 * s2 + am3 * s3) / e)
    return am1 + k * as1, am2 + k * as2, am3 + k * as3


def energy(params: BodyParams, ev: ProfileEval, x) -> float:
    """Total energy H = (1/2)<M, Omega> - m*grav*<gamma, s> at a packed state
    (``energy_floats`` at the Omega of ``omega_floats``).

    The height of the center of mass above the plane is -<gamma, s>, so the
    potential term is +m*grav*height.  This restriction of the full-space
    hamiltonian is pinned by the energy-conservation tests.

    Raises:
        ConsistencyError: if ``ev`` was evaluated at another gamma3 than the state's.
    """
    x = np.asarray(x, dtype=float)
    check_gamma3(ev, x[2])
    y = x[:6].tolist()
    return energy_floats(params, ev.rho, ev.L, *y, *omega_floats(params, ev.rho, ev.L, *y))


def energy_floats(params: BodyParams, rho: float, L: float, g1, g2, g3, m1, m2, m3, w1, w2, w3) -> float:
    """H at the state (g1, g2, g3, M1, M2, M3) whose Omega is (w1, w2, w3), on floats."""
    gs = (g1 * (rho * g1) + g2 * (rho * g2) + g3 * (rho * g3)) - L * g3  # <gamma, s>
    return 0.5 * (m1 * w1 + m2 * w2 + m3 * w3) - params.m * params.grav * gs
