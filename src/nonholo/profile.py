"""Surface profiles of the rolling solids and derived contact geometry.

A convex solid of revolution rolling on the plane is described, on the
partially reduced phase space, by two scalar profile functions of the
vertical component gamma3 of the Poisson vector:

    s(gamma) = rho(gamma3) * gamma - L(gamma3) * e3,      L = rho*gamma3 - zeta

where s is the body-frame vector from the center of mass to the contact
point.  The pair (rho, zeta) and their gamma3-derivatives determine every
geometric quantity downstream (contact vector, mass-metric scalars, the
gauge fields).  Two presets are supported:

* ``routh(r, l)`` — a ball of radius r whose center of mass sits at distance
  l from the geometric center along the symmetry axis:
  rho = -r, zeta = -r*gamma3 + l   (so L = -l, all derivatives constant).
* ``ellipsoid(b, c)`` — an axisymmetric ellipsoid with *squared* semi-axes
  b (equatorial) and c (polar), center of mass at the center:
  rho = -b/sqrt(D), zeta = -c*gamma3/sqrt(D),  D = b*(1-gamma3^2) + c*gamma3^2.

Both presets are real-analytic on a neighbourhood of [-1, 1]; evaluation is
refused only beyond the sphere band (|gamma3| > 1 + 1e-9), never at the
poles themselves.  ``ellipsoid(b, b)`` coincides identically with
``routh(sqrt(b), 0)`` (the Chaplygin sphere).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError, DegeneracyError, DomainError
from .smallalg import E3, Vec3, dot

if TYPE_CHECKING:  # pragma: no cover
    from .phase import BodyParams

#: slack beyond |gamma3| = 1 tolerated by eval_profile (FD side-steps etc.)
DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class ProfileSpec:
    """Shape preset. Use :meth:`routh` or :meth:`ellipsoid` to construct."""

    kind: str
    p1: float
    p2: float

    @staticmethod
    def routh(r: float, l: float) -> "ProfileSpec":
        """Ball of radius r, center of mass offset l along the symmetry axis."""
        if not (math.isfinite(r) and math.isfinite(l)):
            raise ValueError(f"routh: need finite r, l, got r={r}, l={l}")
        if not r > 0:
            raise ValueError(f"routh: need r > 0, got r={r}")
        if not abs(l) < r:
            raise ValueError(f"routh: need |l| < r, got l={l}, r={r}")
        return ProfileSpec("routh", float(r), float(l))

    @staticmethod
    def ellipsoid(b: float, c: float) -> "ProfileSpec":
        """Axisymmetric ellipsoid with squared semi-axes b (equatorial), c (polar)."""
        if not (math.isfinite(b) and math.isfinite(c)):
            raise ValueError(f"ellipsoid: need finite b, c, got b={b}, c={c}")
        if not (b > 0 and c > 0):
            raise ValueError(f"ellipsoid: need b, c > 0, got b={b}, c={c}")
        return ProfileSpec("ellipsoid", float(b), float(c))


@dataclass(frozen=True)
class ProfileEval:
    """Profile functions and their gamma3-derivatives at one gamma3."""

    gamma3: float
    rho: float
    zeta: float
    L: float
    rho_p: float
    zeta_p: float
    L_p: float


def eval_profile(spec: ProfileSpec, gamma3: float) -> ProfileEval:
    """Evaluate the profile functions of ``spec`` at ``gamma3``.

    Raises:
        DomainError: if |gamma3| > 1 + 1e-9 (no extrapolation off the
            sphere band; the presets themselves are regular at the poles).
    """
    g3 = float(gamma3)
    if abs(g3) > 1.0 + DOMAIN_SLACK:
        raise DomainError(f"gamma3={g3!r} outside [-1-{DOMAIN_SLACK:g}, 1+{DOMAIN_SLACK:g}]")
    return ProfileEval(g3, *profile_terms(spec, g3))


def profile_terms(spec: ProfileSpec, g3, sqrt=math.sqrt) -> tuple:
    """(rho, zeta, L, rho', zeta', L') of ``spec`` at g3, without the domain check.

    The one body of the profile formulas: ``g3`` is a float (``eval_profile``)
    or a float array with ``sqrt=np.sqrt`` (the coefficient-ODE grid pass).
    Both give the same bits, since every operation is elementwise IEEE
    arithmetic.  Terms that do not depend on g3 stay scalars.
    """
    if spec.kind == "routh":
        r, l = spec.p1, spec.p2
        rho = -r
        zeta = -r * g3 + l
        return rho, zeta, rho * g3 - zeta, 0.0, -r, 0.0
    if spec.kind == "ellipsoid":
        b, c = spec.p1, spec.p2
        d = b * (1.0 - g3 * g3) + c * g3 * g3
        sq = sqrt(d)
        d32 = d * sq
        rho = -b / sq
        zeta = -c * g3 / sq
        return (
            rho,
            zeta,
            rho * g3 - zeta,
            b * (c - b) * g3 / d32,
            -b * c / d32,
            (c - b) * b / d32,
        )
    raise ValueError(f"unknown profile kind {spec.kind!r}")


def contact_vector(ev: ProfileEval, gamma: Vec3) -> Vec3:
    """Body-frame vector s = rho*gamma - L*e3 from center of mass to contact point.

    Raises:
        ConsistencyError: if ``ev`` was evaluated at a gamma3 that differs
            from gamma[2] by more than 1e-9.
    """
    check_gamma3(ev, gamma[2])
    return ev.rho * gamma - ev.L * E3


def check_gamma3(ev: ProfileEval, gamma3: float) -> None:
    """Raise ConsistencyError if ``ev`` was evaluated more than 1e-9 away from gamma3."""
    if abs(ev.gamma3 - gamma3) > 1e-9:
        raise ConsistencyError(f"profile evaluated at gamma3={ev.gamma3!r} but state has gamma3={gamma3!r}")


@dataclass(frozen=True)
class ProfileScalars:
    """Mass-metric scalars at a state. All are plain functions of (gamma3, tau1-free data):

    sigma = m * <s, gamma>           (= m*(rho*(1-tau1^2) + zeta*tau1) on the sphere)
    A1    = I1 + m*<s, s>            (equatorial entry of A = I + m<s,s> Id)
    E     = 1 - m*<A^-1 s, s>        (Legendre denominator, provably > 0)
    Ptau  = I1*I3 + m*(I1*rho^2*(1-gamma3^2) + I3*zeta^2)   (= A1*A3*E)
    gs    = <gamma, s>
    ss    = <s, s>
    """

    sigma: float
    A1: float
    E: float
    Ptau: float
    gs: float
    ss: float


def profile_scalars(params: "BodyParams", ev: ProfileEval, gamma: Vec3) -> ProfileScalars:
    """Scalar coefficients of the mass metric at a state.

    Raises:
        DegeneracyError: if the Legendre denominator E falls to <= 1e-10.
            E = 1 - m*<A^-1 s, s> is strictly positive for any m > 0 and
            positive inertia (each denominator I_i + m<s,s> exceeds m<s,s>),
            but the margin degenerates as I -> 0, hence the guard.
        ConsistencyError: propagated from contact_vector.
    """
    s = contact_vector(ev, gamma)
    ss = dot(s, s)
    a1 = params.I1 + params.m * ss
    a3 = params.I3 + params.m * ss
    ainv_s_s = (s[0] * s[0] + s[1] * s[1]) / a1 + s[2] * s[2] / a3
    e = 1.0 - params.m * ainv_s_s
    if e <= 1e-10:
        raise DegeneracyError(f"Legendre denominator E={e!r} <= 1e-10")
    ptau = legendre_ptau(params, ev.rho, ev.zeta, 1.0 - ev.gamma3 * ev.gamma3)
    gs = dot(gamma, s)
    return ProfileScalars(params.m * gs, a1, e, ptau, gs, ss)


def legendre_ptau(params: "BodyParams", rho: float, zeta: float, one_t2: float) -> float:
    """Ptau = I1*I3 + m*(I1*rho^2*(1-tau1^2) + I3*zeta^2), given one_t2 = 1-tau1^2."""
    return params.I1 * params.I3 + params.m * (
        params.I1 * rho * rho * one_t2 + params.I3 * zeta * zeta
    )
