"""Cylinder function evaluation, checked against an extended-precision
series oracle (mpmath) and the classical identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wirepol.errors import DomainError
from wirepol.special_functions import (
    bessel_j_all_orders,
    bessel_j_log_derivative,
    hankel1_all_orders,
)

mpmath.mp.dps = 50


def oracle_j(m, z):
    return complex(mpmath.besselj(m, mpmath.mpc(z)))


def oracle_jp(m, z):
    return complex(0.5 * (mpmath.besselj(m - 1, mpmath.mpc(z))
                          - mpmath.besselj(m + 1, mpmath.mpc(z))))


def j_at(m, x):
    """J_m(x) and J'_m(x) from a one-order block."""
    j, jp = bessel_j_all_orders(m, x, m)
    return j[0], jp[0]


def h_at(m, x):
    """H^(1)_m(x) and H^(1)'_m(x) from a one-order block."""
    h, hp = hankel1_all_orders(m, x, m)
    return h[0], hp[0]


@pytest.mark.parametrize("m,z", [
    (0, 0.5), (0, 3.7), (1, 2.0), (5, 1.0), (12, 30.0),
])
def test_bessel_j_matches_series_oracle(m, z):
    got = j_at(m, z)[0]
    want = oracle_j(m, z).real
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("m,z", [
    (0, 0.5), (1, 2.0), (5, 1.0),
])
def test_bessel_j_derivative_matches_oracle(m, z):
    assert j_at(m, z)[1] == pytest.approx(oracle_jp(m, z).real, rel=1e-12)


def test_bessel_j_derivative_matches_finite_difference():
    # the recurrence derivative against a central difference of the values
    m, x = 4, 2.3
    h = 1e-6
    fd = (j_at(m, x + h)[0] - j_at(m, x - h)[0]) / (2 * h)
    assert j_at(m, x)[1] == pytest.approx(fd, rel=1e-8)


def test_negative_order_symmetry_exact():
    # C'_0 = (C_{-1} - C_1) / 2 takes order -1 from the same AMOS call;
    # C_{-1} = -C_1 holds exactly, so C'_0 = -C_1
    for x in (0.3, 1.7, 7.3, 50.0):
        j, jp = bessel_j_all_orders(1, x)
        h, hp = hankel1_all_orders(1, x)
        assert jp[0] == -j[1]
        assert hp[0] == -h[1]


@given(st.floats(0.1, 50.0), st.floats(-20.0, 20.0),
       st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_conjugation_symmetry(re, im, m):
    # D_m(conj z) = conj D_m(z)
    z = complex(re, im)
    a = bessel_j_log_derivative(np.conj(z), m)[m]
    b = np.conj(bessel_j_log_derivative(z, m)[m])
    assert a == pytest.approx(b, rel=1e-12, abs=1e-280)


@given(st.floats(0.1, 500.0), st.integers(0, 60))
@settings(max_examples=120, deadline=None)
def test_wronskian_identity(x, m):
    # J_m(x) H'_m(x) - J'_m(x) H_m(x) = 2i / (pi x)
    (j, jp), (h, hp) = j_at(m, x), h_at(m, x)
    w = j * hp - jp * h
    want = 2j / (math.pi * x)
    assert abs(w - want) <= 1e-10 * abs(want)


def test_hankel1_matches_oracle():
    for m, x in [(0, 0.3), (2, 5.0), (9, 14.0)]:
        want = complex(mpmath.hankel1(m, x))
        assert h_at(m, x)[0] == pytest.approx(want, rel=1e-12)


def test_hankel1_requires_positive_argument():
    with pytest.raises(DomainError):
        hankel1_all_orders(2, -1.0)
    with pytest.raises(DomainError):
        hankel1_all_orders(2, 0.0)


@pytest.mark.parametrize("z", [2.0 + 0.5j, 0.8 - 1.1j, 30 + 18j, 4.0 + 0j])
def test_log_derivative_matches_oracle(z):
    m_max = 20
    d = bessel_j_log_derivative(z, m_max)
    for m in (0, 1, 5, 12, 20):
        want = oracle_jp(m, z) / oracle_j(m, z)
        assert d[m] == pytest.approx(want, rel=1e-10)


def test_log_derivative_survives_huge_imaginary_part():
    # the ratio stays O(1) where the Bessel functions themselves overflow
    z = 80 + 2000j
    d = bessel_j_log_derivative(z, 10)
    assert np.all(np.isfinite(d))
    # the growing exp(-iz) branch dominates, so J'm/Jm -> -i
    assert d[0] == pytest.approx(-1j, abs=0.05)


@pytest.mark.parametrize("x, m_min, m_max, checked", [
    (5.0, 2, 9, range(2, 10)),
    (5.0, 0, 3, range(0, 4)),
    (50.0, 40, 60, range(40, 61, 2)),
    (500.0, 480, 520, (480, 485, 493, 499, 500, 501, 510, 520)),
])
def test_block_values_and_recurrence_derivatives_match_oracle(x, m_min, m_max,
                                                             checked):
    # blocks with m_min > 0 that straddle the turning point m ~ x; the
    # derivatives come from (C_{m-1} - C_{m+1}) / 2 of the same AMOS call
    j, jp = bessel_j_all_orders(m_max, x, m_min)
    h, hp = hankel1_all_orders(m_max, x, m_min)
    assert len(j) == len(jp) == len(h) == len(hp) == m_max - m_min + 1
    for m in checked:
        i = m - m_min
        want_h = complex(mpmath.hankel1(m, x))
        want_hp = complex(0.5 * (mpmath.hankel1(m - 1, x) - mpmath.hankel1(m + 1, x)))
        assert j[i] == pytest.approx(oracle_j(m, x).real, rel=1e-12)
        assert jp[i] == pytest.approx(oracle_jp(m, x).real, rel=1e-12)
        assert h[i] == pytest.approx(want_h, rel=1e-12)
        assert hp[i] == pytest.approx(want_hp, rel=1e-12)


def test_log_derivative_values_unchanged_by_storage():
    # the values are those of the plain recurrence, order by order
    z, m_max = 30 + 18j, 25
    d = bessel_j_log_derivative(z, m_max)
    ref = {}
    dm = 0.0 + 0.0j
    for m in range(max(m_max, int(abs(z))) + 16, 0, -1):
        dm = (m - 1) / z - 1.0 / (dm + m / z)
        ref[m - 1] = dm
    assert d.shape == (m_max + 1,)
    assert list(d) == [ref[m] for m in range(m_max + 1)]
