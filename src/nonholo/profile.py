"""Surface profiles of the rolling solids and derived contact geometry.

A convex solid of revolution rolling on the plane is described, on the
partially reduced phase space, by two scalar profile functions of the
vertical component gamma3 of the Poisson vector:

    s(gamma) = rho(gamma3) * gamma - L(gamma3) * e3,      L = rho*gamma3 - zeta

where s is the body-frame vector from the center of mass to the contact
point.  rho, zeta, L and the gamma3-derivatives rho', L' determine every
geometric quantity downstream; each kernel writes s out component by
component from them.  Two presets are supported:

* ``routh(r, l)`` — a ball of radius r whose center of mass sits at distance
  l from the geometric center along the symmetry axis:
  rho = -r, zeta = -r*gamma3 + l   (so L = -l, all derivatives constant).
* ``ellipsoid(b, c)`` — an axisymmetric ellipsoid with *squared* semi-axes
  b (equatorial) and c (polar), center of mass at the center:
  rho = -b/sqrt(D), zeta = -c*gamma3/sqrt(D),  D = b*(1-gamma3^2) + c*gamma3^2.

Both presets are real-analytic on a neighbourhood of [-1, 1]; evaluation is
refused only beyond the sphere band (|gamma3| > 1 + DOMAIN_SLACK), never at
the poles themselves.  ``ellipsoid(b, b)`` coincides identically with
``routh(sqrt(b), 0)`` (the Chaplygin sphere).

``profile_terms`` is the one body of the formulas, on floats, arrays or
jets; ``state_terms`` reads it at a state or a stack after the band check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError, DegeneracyError, DomainError
from .smallalg import Jet, columns

if TYPE_CHECKING:  # pragma: no cover
    from .phase import BodyParams

#: slack beyond |gamma3| = 1 tolerated by eval_profile (a rounded gamma on the sphere)
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
    """The profile terms rho, zeta, L, rho', L' (``profile_terms``) at one gamma3."""

    gamma3: float
    rho: float
    zeta: float
    L: float
    rho_p: float
    L_p: float


def eval_profile(spec: ProfileSpec, gamma3: float) -> ProfileEval:
    """Evaluate the profile functions of ``spec`` at ``gamma3``.

    Raises:
        DomainError: if |gamma3| > 1 + 1e-9 (no extrapolation off the
            sphere band; the presets themselves are regular at the poles).
    """
    g3 = float(gamma3)
    check_domain(g3)
    return ProfileEval(g3, *profile_terms(spec, g3))


def check_domain(g3: float) -> None:
    """Raise DomainError if |g3| > 1 + DOMAIN_SLACK: the one band check of the
    profile, made by ``eval_profile`` and by every stage of ``integrate``."""
    if abs(g3) > 1.0 + DOMAIN_SLACK:
        raise DomainError(f"gamma3={g3!r} outside [-1-{DOMAIN_SLACK:g}, 1+{DOMAIN_SLACK:g}]")


def state_terms(spec: ProfileSpec, x) -> tuple:
    """The six state columns of x and the profile terms at them: floats at a
    packed point, arrays over an (m, 6) stack, jets at the jet of one.

    Raises:
        DomainError: at the first state with |gamma3| > 1 + DOMAIN_SLACK.
    """
    if isinstance(x, Jet):
        cols, g3, sqrt = columns(x), x.value[:, 2], Jet.sqrt
    else:
        cols = columns(np.asarray(x, dtype=float)[..., :6])
        g3 = cols[2]
        sqrt = math.sqrt if isinstance(g3, float) else np.sqrt
    if isinstance(g3, float):
        check_domain(g3)
    else:
        check_domain(float(g3[np.argmax(np.abs(g3) > 1.0 + DOMAIN_SLACK)]))  # the first point off the band, if any
    return cols, profile_terms(spec, cols[2], sqrt)


def profile_terms(spec: ProfileSpec, g3, sqrt=math.sqrt) -> tuple:
    """(rho, zeta, L, rho', L') of ``spec`` at g3, without the domain check.

    The one body of the profile formulas: ``g3`` is a float (``eval_profile``),
    a float array with ``sqrt=np.sqrt`` (the coefficient-ODE grid pass) or a
    jet with ``sqrt=Jet.sqrt``, all with the same bits, since every operation
    is elementwise IEEE arithmetic.  Terms that do not depend on g3 stay scalars.
    """
    if spec.kind == "routh":
        r, l = spec.p1, spec.p2
        rho = -r
        zeta = -r * g3 + l
        return rho, zeta, rho * g3 - zeta, 0.0, 0.0
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
            (c - b) * b / d32,
        )
    raise ValueError(f"unknown profile kind {spec.kind!r}")


def check_gamma3(ev: ProfileEval, gamma3: float) -> None:
    """Raise ConsistencyError if ``ev`` was evaluated more than 1e-9 away from gamma3."""
    if abs(ev.gamma3 - gamma3) > 1e-9:
        raise ConsistencyError(f"profile evaluated at gamma3={ev.gamma3!r} but state has gamma3={gamma3!r}")


@dataclass(frozen=True)
class ProfileScalars:
    """Mass-metric scalars at a state (floats), or at each state of a stack
    (arrays):

    A1    = I1 + m*<s, s>            (equatorial entry of A = I + m<s,s> Id)
    gs    = <gamma, s>
    """

    A1: float
    gs: float


def mass_scalars(params: "BodyParams", rho, L, g1, g2, g3) -> ProfileScalars:
    """The ProfileScalars at gamma = (g1, g2, g3) from the profile terms there:
    floats at one state, or elementwise over the arrays of a stack.

    s = rho*gamma - L*e3 keeps its products by the zeros of e3, which fix the
    signs of its zero components.

    Raises:
        DegeneracyError: if the Legendre denominator E falls to <= 1e-10 at a
            state.  E = 1 - m*<A^-1 s, s> is strictly positive for any m > 0
            and positive inertia (each denominator I_i + m<s,s> exceeds
            m<s,s>), but the margin degenerates as I -> 0, hence the guard.
    """
    z = L * 0.0
    s1, s2, s3 = rho * g1 - z, rho * g2 - z, rho * g3 - L
    ss = s1 * s1 + s2 * s2 + s3 * s3
    a1 = params.I1 + params.m * ss
    a3 = params.I3 + params.m * ss
    e = 1.0 - params.m * ((s1 * s1 + s2 * s2) / a1 + s3 * s3 / a3)
    if np.any(e <= 1e-10):
        raise DegeneracyError(f"Legendre denominator E={float(np.min(e))!r} <= 1e-10")
    return ProfileScalars(a1, g1 * s1 + g2 * s2 + g3 * s3)
