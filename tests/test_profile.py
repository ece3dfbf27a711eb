"""Profile presets: frozen values, derivative cross-checks, and the
structural identity -rho' + L'*gamma3 = 0 that makes the contact point
well defined."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import BodyParams, ProfileSpec, eval_profile
from nonholo.errors import ConsistencyError, DegeneracyError, DomainError
from nonholo.profile import check_gamma3, mass_scalars, profile_terms
from nonholo.smallalg import Jet
from oracles import contact_vector, dot, zeta_prime

g3s = st.floats(-1.0, 1.0, allow_nan=False)
axes = st.floats(0.2, 5.0, allow_nan=False)


def jet_zeta_prime(spec, g3):
    """The derivative of ``profile_terms``'s zeta at g3, from a jet pass."""
    g = Jet.seed(np.array([[g3]]))[:, 0]
    return float(profile_terms(spec, g, Jet.sqrt)[1].grad[0, 0])


def test_routh_profile_is_affine():
    spec = ProfileSpec.routh(1.0, 0.1)
    ev = eval_profile(spec, 0.8)
    assert ev.rho == -1.0
    assert ev.zeta == pytest.approx(-0.7)  # -r*g3 + l
    assert ev.L == pytest.approx(-0.1)  # rho*g3 - zeta = -l
    assert (ev.rho_p, ev.L_p) == (0.0, 0.0)
    assert zeta_prime(spec, 0.8) == jet_zeta_prime(spec, 0.8) == -1.0


def test_ellipsoid_profile_frozen_values():
    # b=2, c=1 at gamma3 = 0.8: D = 2 - 0.64 = 1.36.
    spec = ProfileSpec.ellipsoid(2.0, 1.0)
    ev = eval_profile(spec, 0.8)
    assert ev.rho == pytest.approx(-1.7149858514250886, abs=1e-15)
    assert ev.zeta == pytest.approx(-0.6859943405700355, abs=1e-15)
    assert ev.L == pytest.approx(-0.6859943405700355, abs=1e-15)
    assert ev.rho_p == pytest.approx(-1.0088152067206404, abs=1e-15)
    assert zeta_prime(spec, 0.8) == pytest.approx(-1.2610190084008006, abs=1e-15)
    assert jet_zeta_prime(spec, 0.8) == pytest.approx(-1.2610190084008006, abs=1e-15)
    assert ev.L_p == pytest.approx(-1.2610190084008006, abs=1e-15)


@settings(max_examples=80)
@given(axes, axes, g3s)
def test_ellipsoid_derivatives_match_fd(b, c, g3):
    spec = ProfileSpec.ellipsoid(b, c)
    h = 1e-6 * max(1.0, abs(g3))
    lo = max(-1.0, g3 - h)
    hi = min(1.0, g3 + h)
    em, ep = eval_profile(spec, lo), eval_profile(spec, hi)
    ev = eval_profile(spec, 0.5 * (lo + hi))
    derivatives = {"rho": ev.rho_p, "zeta": zeta_prime(spec, ev.gamma3), "L": ev.L_p}
    for name, derivative in derivatives.items():
        fd = (getattr(ep, name) - getattr(em, name)) / (hi - lo)
        assert derivative == pytest.approx(fd, abs=1e-5, rel=1e-5)


@settings(max_examples=80)
@given(st.sampled_from(["routh", "ellipsoid"]), axes, axes, g3s)
def test_contact_identity(kind, a, b, g3):
    if kind == "routh":
        spec = ProfileSpec.routh(a, 0.0 if b >= a else b * 0.9)
    else:
        spec = ProfileSpec.ellipsoid(a, b)
    ev = eval_profile(spec, g3)
    assert -ev.rho_p + ev.L_p * g3 == pytest.approx(0.0, abs=1e-12)
    assert ev.L == pytest.approx(ev.rho * g3 - ev.zeta, abs=1e-12)


@settings(max_examples=60)
@given(axes, g3s)
def test_spherical_ellipsoid_is_a_balanced_sphere(b, g3):
    ev1 = eval_profile(ProfileSpec.ellipsoid(b, b), g3)
    ev2 = eval_profile(ProfileSpec.routh(math.sqrt(b), 0.0), g3)
    assert ev1.rho == pytest.approx(ev2.rho, rel=1e-14)
    assert ev1.zeta == pytest.approx(ev2.zeta, rel=1e-14, abs=1e-14)
    assert ev1.L == pytest.approx(0.0, abs=1e-14)
    assert abs(ev1.rho_p) <= 1e-14 and abs(ev1.L_p) <= 1e-14


def test_constructor_guards():
    with pytest.raises(ValueError):
        ProfileSpec.routh(0.0, 0.0)
    with pytest.raises(ValueError):
        ProfileSpec.routh(1.0, 1.0)  # |l| must stay below r
    with pytest.raises(ValueError):
        ProfileSpec.ellipsoid(-1.0, 2.0)
    with pytest.raises(ValueError):
        ProfileSpec.ellipsoid(2.0, 0.0)


def test_domain_guard():
    spec = ProfileSpec.routh(1.0, 0.0)
    eval_profile(spec, 1.0)  # poles themselves are fine
    eval_profile(spec, -1.0)
    with pytest.raises(DomainError):
        eval_profile(spec, 1.001)


def test_contact_vector_consistency_guard():
    spec = ProfileSpec.routh(1.0, 0.1)
    ev = eval_profile(spec, 0.8)
    with pytest.raises(ConsistencyError):
        check_gamma3(ev, 0.0)
    check_gamma3(ev, 0.8)
    s = contact_vector(ev, np.array([0.6, 0.0, 0.8]))
    assert np.allclose(s, [-0.6, 0.0, -0.7])  # rho*gamma - L*e3


def test_profile_scalars_identity():
    # A1 and <gamma, s> are those of the 3-vector s, and the Legendre
    # denominator E = 1 - m<A^-1 s, s> is Ptau/(A1*A3), as [QP] writes it
    params = BodyParams(m=1.3, I1=2.0, I3=3.0)
    spec = ProfileSpec.ellipsoid(2.0, 1.0)
    gamma = np.array([0.6, 0.0, 0.8])
    ev = eval_profile(spec, 0.8)
    sc = mass_scalars(params, ev.rho, ev.L, *gamma.tolist())
    s = contact_vector(ev, gamma)
    ss = dot(s, s)
    a3 = params.I3 + params.m * ss
    assert sc.A1 == pytest.approx(params.I1 + params.m * ss, rel=1e-15)
    assert sc.gs == pytest.approx(dot(gamma, s), rel=1e-15)
    e = 1.0 - params.m * ((s[0] ** 2 + s[1] ** 2) / sc.A1 + s[2] ** 2 / a3)
    ptau = params.I1 * params.I3 + params.m * (params.I1 * ev.rho**2 * (1.0 - 0.8**2) + params.I3 * ev.zeta**2)
    assert ptau == pytest.approx(sc.A1 * a3 * e, rel=1e-14)
    assert e > 0.0


def test_profile_scalars_degeneracy_guard():
    params = BodyParams(m=1.0, I1=1e-12, I3=1e-12)
    ev = eval_profile(ProfileSpec.routh(1.0, 0.0), 0.8)
    with pytest.raises(DegeneracyError):
        mass_scalars(params, ev.rho, ev.L, 0.6, 0.0, 0.8)
