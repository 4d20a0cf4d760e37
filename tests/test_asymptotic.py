"""Fresnel reflection from an absorbing surface and the geometric-optics
(thick-wire) polarization limit."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from wirepol.errors import DegenerateInputError, DomainError
from wirepol.asymptotic import thick_wire_polarization
from wirepol.materials import load_database, model_for_temperature, permittivity
from wirepol.spectral import gauss_legendre

from oracles import fresnel_coefficients

EPS_W = -4.9 + 19.8j  # representative visible-band tungsten permittivity


def test_vacuum_does_not_reflect():
    pair = fresnel_coefficients(1.0 + 1e-30j, 0.7)
    assert abs(pair.r_te) < 1e-14
    assert abs(pair.r_tm) < 1e-14


def test_normal_incidence_magnitudes_equal():
    pair = fresnel_coefficients(EPS_W, 0.0)
    assert abs(pair.r_te) == pytest.approx(abs(pair.r_tm), rel=1e-12)
    # and both reduce to (n - 1)/(n + 1) up to sign convention
    n = np.sqrt(EPS_W + 0j)
    if n.imag < 0:
        n = -n
    want = abs((n - 1) / (n + 1))
    assert abs(pair.r_te) == pytest.approx(want, rel=1e-12)


def test_direct_reevaluation_oracle():
    eps, phi = EPS_W, 0.83
    c = math.cos(phi)
    s = np.sqrt(eps - 1.0 + c * c)
    if s.imag < 0:
        s = -s
    pair = fresnel_coefficients(eps, phi)
    assert pair.r_te == pytest.approx((eps * c - s) / (eps * c + s), rel=1e-13)
    assert pair.r_tm == pytest.approx((c - s) / (c + s), rel=1e-13)


@given(st.floats(-80.0, 10.0), st.floats(0.01, 60.0),
       st.floats(0.0, math.pi / 2 - 1e-3))
@settings(max_examples=150, deadline=None)
def test_energy_bounds(re, im, phi):
    pair = fresnel_coefficients(complex(re, im), phi)
    assert abs(pair.r_te) <= 1.0 + 1e-12
    assert abs(pair.r_tm) <= 1.0 + 1e-12


def test_grazing_incidence_total_reflection():
    pair = fresnel_coefficients(EPS_W, math.pi / 2 - 1e-4)
    assert abs(pair.r_te) == pytest.approx(1.0, abs=1e-3)
    assert abs(pair.r_tm) == pytest.approx(1.0, abs=1e-3)


def test_angle_parity():
    a = fresnel_coefficients(EPS_W, 0.4)
    b = fresnel_coefficients(EPS_W, -0.4)
    assert a.r_te == b.r_te and a.r_tm == b.r_tm


def test_angle_domain():
    with pytest.raises(DomainError):
        fresnel_coefficients(EPS_W, math.pi / 2)


def test_thick_wire_sign_and_bounds():
    # a metal reflects the TM (axis-parallel E) component better, so the
    # emitted light is polarized perpendicular to the wire: P > 0
    p = thick_wire_polarization(EPS_W)
    assert 0.0 < p < 1.0


def test_thick_wire_matches_direct_quadrature():
    def polarization_by_quad(eps, points=None):
        def num(phi):
            pair = fresnel_coefficients(eps, phi)
            return math.cos(phi) * (abs(pair.r_tm) ** 2 - abs(pair.r_te) ** 2)

        def den(phi):
            pair = fresnel_coefficients(eps, phi)
            return math.cos(phi) * (2.0 - abs(pair.r_te) ** 2
                                    - abs(pair.r_tm) ** 2)

        top, _ = integrate.quad(num, -math.pi / 2, math.pi / 2, points=points, limit=200)
        bot, _ = integrate.quad(den, -math.pi / 2, math.pi / 2, points=points, limit=200)
        return top / bot

    for eps in (EPS_W, -30 + 5j, -2 + 40j):
        assert thick_wire_polarization(eps) == pytest.approx(
            polarization_by_quad(eps), rel=1e-8)
    # 0 < Re eps < 1: the integrands kink at the critical angle, where the
    # reference is split too (within 1.5e-10 of a 30-digit mpmath quadrature
    # split there)
    for eps in (0.5 + 1e-3j, 0.5 + 1e-10j, 0.01 + 1e-12j, 0.001 + 1e-15j):
        phi_c = math.asin(math.sqrt(eps.real))
        assert abs(thick_wire_polarization(eps)
                   - polarization_by_quad(eps, (-phi_c, phi_c))) <= 1e-6


# node count of the rule that the doubling loop keeps -> an eps it keeps it for
SETTLES_AT = {64: EPS_W, 256: -1e8 + 1e6j}


@pytest.mark.parametrize("nodes", SETTLES_AT)
def test_thick_wire_takes_the_leggauss_rule(nodes):
    # the same arithmetic on a freshly built rule of the settled node
    # count gives the same bits
    eps = SETTLES_AT[nodes]
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    c = np.cos((xg + 1.0) * (math.pi / 4.0))
    s = 0.5 * np.sqrt(eps - 1.0 + c * c)    # Im > 0 here
    a = 0.5 * np.array((eps * c, c))
    d = np.abs(a + s)
    e_te, e_tm = (math.fsum(wg * c * row) for row in 4.0 * (a / d * (s / d).conjugate()).real)
    expected = (e_te - e_tm) / (e_te + e_tm)
    assert thick_wire_polarization(eps) == expected
    assert thick_wire_polarization(eps) == expected


def test_thick_wire_requires_absorption():
    with pytest.raises(DomainError):
        thick_wire_polarization(-5.0 + 0j)
    # a nearly transparent surface emits like a black body: P -> 0
    assert thick_wire_polarization(1.0 + 1e-12j) == pytest.approx(0.0, abs=1e-9)


def _thick_wire_oracle(eps, nodes):
    # the same Gauss-Legendre rule and angles, summed at 50 digits in the
    # textbook form 1 - |R|^2 (the rule as the package caches it: a rule of
    # 1024 nodes is slow to build)
    xg, wg = gauss_legendre(nodes)
    with mpmath.workdps(50):
        eps, e = mpmath.mpc(eps), [0, 0]
        for phi, w in zip(((xg + 1.0) * (math.pi / 4.0)).tolist(), wg.tolist()):
            c = mpmath.cos(phi)
            s = mpmath.sqrt(eps - 1 + c * c)
            s = -s if s.imag < 0 else s
            for i, r in enumerate(((eps * c - s) / (eps * c + s), (c - s) / (c + s))):
                e[i] += w * c * (1 - abs(r) ** 2)
        return float((e[0] - e[1]) / (e[0] + e[1]))


def test_good_conductor_matches_the_50_digit_rule():
    # 2 - |R_TE|^2 - |R_TM|^2 cancelled here: 2.9e-12 off at -1e8 + 1e6i, and
    # refused as a perfect mirror at the other two; the oracle takes the
    # rule that the doubling loop keeps
    for eps, nodes in ((-1e8 + 1e6j, 256), (-1e12 + 1j, 64), (-1e20 + 1e10j, 64)):
        assert abs(thick_wire_polarization(eps) - _thick_wire_oracle(eps, nodes)) <= 1e-14
    # Im eps / |eps| ~ 1e-600: both integrals underflow, and P is refused
    with pytest.raises(DegenerateInputError, match="underflow"):
        thick_wire_polarization(-1e300 + 1e-300j)


# Good conductors whose 64-node rule was up to 3.0e-5 off: -1e8 + 1e6i,
# and tungsten's eps at 298 K and 300 and 1000 um
GOOD_CONDUCTORS = {
    "-1e8+1e6i": lambda: -1e8 + 1e6j,
    **{f"W-298K-{lam:g}um": lambda lam=lam: permittivity(
        model_for_temperature(load_database(), 298.0), lam) for lam in (300.0, 1000.0)},
}


@pytest.mark.parametrize("eps", GOOD_CONDUCTORS.values(), ids=GOOD_CONDUCTORS)
def test_thick_wire_matches_a_1024_node_rule(eps):
    eps = eps()
    assert abs(thick_wire_polarization(eps) - _thick_wire_oracle(eps, 1024)) <= 1e-6
