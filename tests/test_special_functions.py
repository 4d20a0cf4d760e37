"""Cylinder function evaluation, checked against an extended-precision
series oracle (mpmath) and the classical identities."""

import cmath
import math
import types
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from wirepol import scattering
from wirepol import special_functions as sf
from wirepol.errors import ConvergenceError, DomainError, RangeError
from wirepol.materials import (load_database, model_for_temperature,
                               permittivity, refraction_index)
from wirepol.scattering import emissivity_pair, order_ceiling, transition_amplitude
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


def oracle_d(m, z):
    """D_m(z) = J_{m-1}(z) / J_m(z) - m/z, formed in extended precision,
    where J_m(z) itself may lie outside the double range."""
    z = mpmath.mpc(z)
    return complex(mpmath.besselj(m - 1, z) / mpmath.besselj(m, z) - m / z)


def j_at(m, x):
    """J_m(x) and J'_m(x), the last entries of the 0..m block."""
    j, jp = bessel_j_all_orders(m, x)
    return j[m], jp[m]


def plain_recurrence(z, m_max, n_start):
    """D_0..D_m_max by the downward recurrence from D = 0 at n_start."""
    ref = {}
    dm = 0.0 + 0.0j
    for m in range(n_start, 0, -1):
        dm = (m - 1) / z - 1.0 / (dm + m / z)
        ref[m - 1] = dm
    return np.array([ref[m] for m in range(m_max + 1)])


def h_at(m, x):
    """H^(1)_m(x) and H^(1)'_m(x), the last entries of the 0..m block."""
    h, hp = hankel1_all_orders(m, x)
    return h[m], hp[m]


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
    # C'_0 = (C_{-1} - C_1) / 2 with C_{-1} = -C_1 exactly, so C'_0 = -C_1
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
    # J_m(x) H'_m(x) - J'_m(x) H_m(x) = 2i / (pi x); J from AMOS, as the
    # package's J is built from this identity
    j_below, j, j_above = scipy.special.jv([m - 1, m, m + 1], x)
    jp = 0.5 * (j_below - j_above)
    h, hp = h_at(m, x)
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


@pytest.mark.parametrize("x, m_max, checked", [
    (5.0, 9, range(2, 10)),
    (5.0, 3, range(0, 4)),
    (50.0, 60, range(40, 61, 2)),
    (500.0, 520, (480, 485, 493, 499, 500, 501, 510, 520)),
])
def test_block_values_and_recurrence_derivatives_match_oracle(x, m_max,
                                                             checked):
    # blocks that run from order 0 past the turning point m ~ x; the
    # derivatives come from (C_{m-1} - C_{m+1}) / 2 of the same block
    j, jp = bessel_j_all_orders(m_max, x)
    h, hp = hankel1_all_orders(m_max, x)
    assert len(j) == len(jp) == len(h) == len(hp) == m_max + 1
    for m in checked:
        want_h = complex(mpmath.hankel1(m, x))
        want_hp = complex(0.5 * (mpmath.hankel1(m - 1, x) - mpmath.hankel1(m + 1, x)))
        assert j[m] == pytest.approx(oracle_j(m, x).real, rel=1e-12)
        assert jp[m] == pytest.approx(oracle_jp(m, x).real, rel=1e-12)
        assert h[m] == pytest.approx(want_h, rel=1e-12)
        assert hp[m] == pytest.approx(want_hp, rel=1e-12)


@pytest.mark.parametrize("x", [1e-2, 0.3, 5.0, 120.0, 1000.0, 2500.0])
def test_recurrence_block_matches_oracle_up_to_order_ceiling(x):
    # the upward recurrence from H_0 and H_1 runs through m ~ x, where
    # Y_m starts to dominate, to the top order any sum asks for
    m_top = order_ceiling(x)
    h, hp = hankel1_all_orders(m_top, x)
    assert len(h) == len(hp) == m_top + 1
    for m in sorted({0, 1, m_top // 3, int(x), m_top}):
        want = mpmath.hankel1(m, x)
        # H'_m = H_{m-1} - (m/x) H_m, Abramowitz & Stegun 9.1.27
        want_p = mpmath.hankel1(m - 1, x) - m / mpmath.mpf(x) * want
        assert h[m] == pytest.approx(complex(want), rel=1e-12)
        assert hp[m] == pytest.approx(complex(want_p), rel=1e-12)


@pytest.mark.parametrize("x", np.geomspace(1e-2, 1e3, 11).tolist())
def test_recurrence_block_matches_amos_at_every_order(x):
    # AMOS evaluated at each order of the block is the reference
    m_top = order_ceiling(x)
    h, hp = hankel1_all_orders(m_top, x)
    amos = scipy.special.hankel1(np.arange(-1, m_top + 2), x)
    amos_p = 0.5 * (amos[:-2] - amos[2:])
    assert np.all(np.abs(h - amos[1:-1]) <= 1e-12 * np.abs(amos[1:-1]))
    assert np.all(np.abs(hp - amos_p) <= 1e-12 * np.abs(amos_p))


def _hankel_01_grid():
    """x from 1e-4 to 1e8, the series edge and 1 ulp to either side, the
    same at x = 17 (where an earlier fit was split), and the first zeros
    of J_0, J_1, Y_0 and Y_1."""
    xs = set(np.geomspace(1e-4, 5e4, 241).tolist())
    xs.update(np.linspace(1.5, 30.0, 115).tolist())
    xs.update(np.geomspace(5e4, 1e8, 41).tolist())
    for edge in (sf._SERIES_EDGE, 17.0):
        xs.update((math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)))
    xs.update(float(zero(nu, 1)) for zero in (mpmath.besseljzero, mpmath.besselyzero)
              for nu in (0, 1))
    return sorted(xs)


def test_hankel_01_matches_oracle():
    # relative to |H|, which has no zeros: within 1e-15 in every regime
    worst = 0.0
    for x in _hankel_01_grid():
        for nu, got in enumerate(sf._hankel1_01(x)):
            want = complex(mpmath.hankel1(nu, mpmath.mpf(x)))
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-15


def test_hankel_01_at_tiny_x_is_finite_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h0, h1 = sf._hankel1_01(1e-303)
    assert cmath.isfinite(h0) and cmath.isfinite(h1)
    for nu, got in enumerate((h0, h1)):
        want = complex(mpmath.hankel1(nu, mpmath.mpf(1e-303)))
        assert abs(got - want) <= 1e-15 * abs(want)


def test_hankel_block_calls_nothing_in_scipy_special(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.special called")

    for name in dir(scipy.special):
        if not name.startswith("_") and callable(getattr(scipy.special, name)):
            monkeypatch.setattr(scipy.special, name, refuse)
    for x in (0.5, 3.0, 10.0, 300.0):    # every regime of H_0 and H_1
        h, _ = hankel1_all_orders(order_ceiling(x), x)
        j, jp = bessel_j_all_orders(order_ceiling(x), x)
        assert np.isfinite(h).all() and np.isfinite(j).all() and np.isfinite(jp).all()
        assert all(map(cmath.isfinite, transition_amplitude(3, x, 1.0, 4 + 2j)))


def test_overflowing_block_turns_non_finite_without_warning():
    # x = k a at a = 0.01 um, lambda = 0.5 um: |H_m(x)| passes the largest
    # double near m = 110, long before the block ends at m = 200; a numpy
    # scalar, as the band path passes it
    x = np.float64(4.0 * math.pi * 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, hp = hankel1_all_orders(200, x)
        # at x = 1e-303 even 2m/x overflows, from m = 90 000 on
        tiny, _ = hankel1_all_orders(100_000, 1e-303)
    assert np.isfinite(tiny[:2]).all() and not np.isfinite(tiny[2:]).any()
    first = int(np.argmin(np.isfinite(h)))
    assert 100 < first < 200
    assert np.isfinite(h[:first]).all() and not np.isfinite(h[first:]).any()
    # H'_m takes H_{m+1}, so the derivatives turn one order earlier
    assert (np.isfinite(hp[:first - 1]).all()
            and not np.isfinite(hp[first - 1:]).any())
    last = first - 1
    assert abs(h[last]) > 1e300
    assert h[last] == pytest.approx(complex(mpmath.hankel1(last, x)), rel=1e-12)


@pytest.mark.parametrize("x, m_max", [(1e-3, 400), (0.01, 60)])
def test_bessel_j_block_below_the_double_range_matches_oracle(x, m_max):
    # the block is built from Y_m, which overflows at x = 1e-3 from m = 66:
    # J_m and J'_m are 0.0 from there on, and within 1e-12 of the oracle
    # wherever |J_m| > 1e-290
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j, jp = bessel_j_all_orders(m_max, x)
        h, _ = hankel1_all_orders(m_max + 1, x)
    over = ~np.isfinite(h[:-1])
    assert over.any() == (x < 0.01)
    assert not j[over].any() and not jp[over].any()
    for m in range(m_max + 1):
        want_j, want_jp = oracle_j(m, x).real, oracle_jp(m, x).real
        if abs(want_j) > 1e-290:
            assert j[m] == pytest.approx(want_j, rel=1e-12)
            assert jp[m] == pytest.approx(want_jp, rel=1e-12)


def test_log_derivative_values_unchanged_by_storage():
    # the values are those of the plain recurrence, order by order, started
    # so far up that its zero start has died out
    z, m_max = 30 + 18j, 25
    d = bessel_j_log_derivative(z, m_max)
    ref = plain_recurrence(z, m_max, max(m_max, int(abs(z))) + 2000)
    assert d.shape == (m_max + 1,)
    assert np.all(np.abs(d - ref) <= 1e-14 * np.abs(ref))


# a weakly absorbing wire, x = 568.4 and |nx| = 2528, far above the sum's
# top order 672: a recurrence started from 0 just above |nx| still carries
# its start down to these orders, off by up to 100 % in D and 4.5 % in e_TE
WEAK_A, WEAK_N = 568.408408931014, 4.446991263128214 + 1.648950711441867e-07j


def test_log_derivative_of_weakly_absorbing_wire_matches_oracle():
    z, m_max = WEAK_N * WEAK_A, order_ceiling(WEAK_A)
    assert m_max == 672
    d = bessel_j_log_derivative(z, m_max)
    for m in (0, 100, 370, 672):
        assert d[m] == pytest.approx(oracle_d(m, z), rel=1e-10)


def test_emissivity_of_weakly_absorbing_wire_matches_far_start(monkeypatch):
    pair = emissivity_pair(1.0, WEAK_A, WEAK_N)
    monkeypatch.setattr(
        scattering, "bessel_j_log_derivative",
        lambda z, m_max: plain_recurrence(z, m_max,
                                          max(m_max, int(abs(z))) + 3000))
    far = emissivity_pair(1.0, WEAK_A, WEAK_N)
    assert pair.e_te == pytest.approx(far.e_te, rel=1e-12)
    assert pair.e_tm == pytest.approx(far.e_tm, rel=1e-12)
    assert far.e_te == pytest.approx(0.433318, abs=1e-6)
    assert far.e_tm == pytest.approx(0.418685, abs=1e-6)


_rng = np.random.default_rng(2026)
FAR_START_CASES = [(complex(re, im), x) for re, im, x in zip(
    _rng.uniform(1.0, 6.0, 40), np.exp(_rng.uniform(np.log(1e-8), np.log(20.0), 40)),
    np.exp(_rng.uniform(np.log(1e-2), np.log(1e3), 40)))]


@pytest.mark.parametrize("n, x", FAR_START_CASES,
                         ids=[f"case{i}" for i in range(len(FAR_START_CASES))])
def test_log_derivative_matches_far_started_recurrence(n, x):
    # from nearly lossless to strongly absorbing: the continued-fraction
    # seed at the top order agrees with a start 3000 orders above |nx|
    z, m_max = n * x, order_ceiling(x)
    d = bessel_j_log_derivative(z, m_max)
    ref = plain_recurrence(z, m_max, max(m_max, int(abs(z))) + 3000)
    assert np.all(np.abs(d - ref) <= 1e-10 * np.abs(ref))


N_W_HOT_UV = refraction_index(
    permittivity(model_for_temperature(load_database(), 2400.0), 0.37))


@pytest.mark.parametrize("x", [13.33, 500.0, 2500.0])
def test_log_derivative_of_tungsten_matches_oracle_up_to_order_ceiling(x):
    z, m_top = N_W_HOT_UV * x, order_ceiling(x)
    d = bessel_j_log_derivative(z, m_top)
    for m in (0, int(x), m_top):
        assert d[m] == pytest.approx(oracle_d(m, z), rel=1e-12)


def test_log_derivative_of_lossless_wire_is_real():
    # a real argument: the continued fraction converges only past |nx|
    # = 5298, far above the top order 1018, and no emission results
    n, x = 5.88, 901.0
    d = bessel_j_log_derivative(n * x, order_ceiling(x))
    assert np.all(np.isfinite(d)) and np.all(d.imag == 0.0)
    pair = emissivity_pair(1.0, x, n)
    assert pair.e_te == 0.0 and pair.e_tm == 0.0


@pytest.mark.parametrize("m_max", [2, 3])
def test_log_derivative_steps_over_a_vanishing_convergent(m_max):
    # at z = 2 sqrt(20), 10/z - z/8 cancels exactly in double precision,
    # so Lentz's second D (m_max = 2) or second C (m_max = 3) is 0, and
    # the next step would divide by it
    z = 8.94427190999916
    zi = 1 / complex(z)
    assert 10 * zi - 1 / (8 * zi) == 0
    d = bessel_j_log_derivative(z, m_max)
    for m in range(m_max + 1):
        assert d[m] == pytest.approx(oracle_d(m, z), rel=1e-12)


def test_log_derivative_gives_up_with_typed_error(monkeypatch):
    # with a zero tolerance the continued fraction never meets it: the
    # bound on its length ends the loop
    monkeypatch.setattr(sf, "sys", types.SimpleNamespace(
        float_info=types.SimpleNamespace(epsilon=0.0)))
    with pytest.raises(ConvergenceError):
        bessel_j_log_derivative(3.0 + 0.5j, 3)


def test_log_derivative_of_huge_nearly_lossless_argument_is_refused():
    # the fraction converges only past k = |z|: at |z| = 1e7 that was
    # 6.7 s; the fixed bound on its length ends it within about 0.5 s
    with pytest.raises(ConvergenceError, match="did not converge"):
        bessel_j_log_derivative(1e7 + 1j, 3)


@pytest.mark.parametrize("z", (1e-310, 1e-320, 1e-310j, 5e-308))
def test_log_derivative_below_the_double_range_is_a_range_error(z):
    # 2k/z overflows at the fraction's first step; it used to run to the
    # bound on its length and raise ConvergenceError
    with pytest.raises(RangeError):
        bessel_j_log_derivative(z, 3)
    with pytest.raises(RangeError):
        bessel_j_all_orders(3, abs(z))


def test_hankel_block_keeps_order_0_where_order_1_overflows():
    # H_1(1e-310) ~ -2i/(pi x) overflows, H_0 = 1 - 454.49i does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, hp = hankel1_all_orders(3, 1e-310)
    want = complex(mpmath.hankel1(0, mpmath.mpf(1e-310)))
    assert abs(h[0] - want) <= 1e-15 * abs(want)
    assert np.isnan(h[1:]).all() and np.isnan(hp).all()
