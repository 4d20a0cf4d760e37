"""Fresnel reflection from an absorbing surface and the geometric-optics
(thick-wire) polarization limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from wirepol.errors import DegenerateInputError, DomainError
from wirepol.asymptotic import (
    fresnel_coefficients,
    thick_wire_polarization,
)

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
    def polarization_by_quad(eps):
        def num(phi):
            pair = fresnel_coefficients(eps, phi)
            return math.cos(phi) * (abs(pair.r_tm) ** 2 - abs(pair.r_te) ** 2)

        def den(phi):
            pair = fresnel_coefficients(eps, phi)
            return math.cos(phi) * (2.0 - abs(pair.r_te) ** 2
                                    - abs(pair.r_tm) ** 2)

        top, _ = integrate.quad(num, -math.pi / 2, math.pi / 2, limit=200)
        bot, _ = integrate.quad(den, -math.pi / 2, math.pi / 2, limit=200)
        return top / bot

    for eps in (EPS_W, -30 + 5j, -2 + 40j):
        assert thick_wire_polarization(eps) == pytest.approx(
            polarization_by_quad(eps), rel=1e-8)


def test_node_count_convergence():
    a = thick_wire_polarization(EPS_W, nodes=32)
    b = thick_wire_polarization(EPS_W, nodes=128)
    assert a == pytest.approx(b, abs=1e-10)


@pytest.mark.parametrize("nodes", (16, 64))
def test_thick_wire_takes_the_leggauss_rule(nodes):
    # the same arithmetic on a freshly built rule gives the same bits
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    phi = (xg + 1.0) * (math.pi / 4.0)
    w, c = wg * (math.pi / 4.0), np.cos(phi)
    pair = fresnel_coefficients(EPS_W, phi)
    r_te2, r_tm2 = np.abs(pair.r_te) ** 2, np.abs(pair.r_tm) ** 2
    expected = (math.fsum(w * c * (r_tm2 - r_te2))
                / math.fsum(w * c * (2.0 - r_te2 - r_tm2)))
    assert thick_wire_polarization(EPS_W, nodes) == expected
    assert thick_wire_polarization(EPS_W, nodes) == expected


def test_thick_wire_requires_absorption():
    with pytest.raises(DomainError):
        thick_wire_polarization(-5.0 + 0j)
    # a nearly transparent surface emits like a black body: P -> 0
    assert thick_wire_polarization(1.0 + 1e-12j) == pytest.approx(0.0, abs=1e-9)


def test_perfect_mirror_is_degenerate():
    # |r| rounds to 1 at every node, so the emissivity integral vanishes
    with pytest.raises(DegenerateInputError):
        thick_wire_polarization(-1e12 + 1j)
