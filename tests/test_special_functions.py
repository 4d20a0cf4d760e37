"""Cylinder function evaluation, checked against an extended-precision
series oracle (mpmath) and the classical identities."""

import cmath
import math
import sys
import time
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
from wirepol.scattering import emissivity_pair, order_ceiling
from wirepol.special_functions import (
    bessel_j_all_orders,
    bessel_j_log_derivative,
    hankel1_all_orders,
    hankel1_log_derivative,
)

from oracles import transition_amplitude

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
    # relative to |H|, which has no zeros: within 1e-15 in every regime.
    # p_0 = x H'_0 / H_0 = -x H_1 / H_0 from the same oracle values: from
    # x = 2 (Steed's fraction) each part on its own, as Re p_0 ~ -1/2 is
    # small beside |p_0| ~ x; Re p_0 < 0, since |H_0| falls with x
    worst = 0.0
    worst_p = {"below": 0.0, "above": 0.0, "re": 0.0, "im": 0.0}
    for x in _hankel_01_grid():
        h = [mpmath.hankel1(nu, mpmath.mpf(x)) for nu in (0, 1)]
        for nu, got in enumerate(sf._hankel1_01(x)):
            want = complex(h[nu])
            worst = max(worst, abs(got - want) / abs(want))
        want = -x * h[1] / h[0]
        got = hankel1_log_derivative(0, x)[0]
        err = float(abs(got - want) / abs(want))
        if x < sf._SERIES_EDGE:
            worst_p["below"] = max(worst_p["below"], err)
            continue
        worst_p["above"] = max(worst_p["above"], err)
        worst_p["re"] = max(worst_p["re"], float(abs(got.real - want.real) / -want.real))
        worst_p["im"] = max(worst_p["im"], float(abs(got.imag - want.imag) / want.imag))
    assert worst <= 1e-15
    assert worst_p["below"] <= 1e-15, worst_p
    assert worst_p["above"] <= 3e-16 and worst_p["im"] <= 3e-16, worst_p
    assert worst_p["re"] <= 5e-15, worst_p


@pytest.mark.parametrize("function", [
    hankel1_all_orders, hankel1_log_derivative, bessel_j_all_orders,
    lambda m_max, x: bessel_j_log_derivative(x, m_max),
], ids=["hankel1_all_orders", "hankel1_log_derivative", "bessel_j_all_orders",
        "bessel_j_log_derivative"])
def test_order_count_must_be_an_integer_from_0(function):
    # a negative count used to return order 0 alone or fail untyped, a bool
    # ran as 0 or 1, and a float failed inside range()
    for m_max in (-1, -3, True, False, 2.0, 2.5, 1 + 1j, np.float64(2.0), None):
        with pytest.raises(DomainError, match="integer m_max >= 0"):
            function(m_max, 3.0)
    for m_max in (0, 2, np.int64(2), np.uint8(2)):
        values = function(m_max, 3.0)
        block = values[0] if isinstance(values, tuple) else values
        assert len(block) == m_max + 1


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
    # 6.7 s, then 0.45 s to exhaust the bound on its length; its steps
    # below k = |z| gain at most 2 |Im z| = 2, so it is refused at once.
    # At 2e6 + 20j those below k = 10^6 + 32 gain at most 5.4 (0.38 s
    # before the bound below S|z|)
    for z, m_max in ((1e7 + 1j, 3), (2e6 + 20j, 31)):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="cannot converge"):
            bessel_j_log_derivative(z, m_max)
        assert time.perf_counter() - start < 0.02


@pytest.mark.parametrize("n", (2e6 + 1e-3j, 1e11 + 1e11j))
def test_emissivity_beyond_the_reach_of_the_fraction_is_refused_at_once(n):
    # at x = 1 each of these took 0.43-0.46 s to exhaust the fraction: a
    # nearly lossless interior and one on the diagonal far beyond |z| ~ 3e10
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="cannot converge"):
        emissivity_pair(1.0, 1.0, n)
    assert time.perf_counter() - start < 0.02


def _fraction_terms(z, m_max, cap):
    """Steps of bessel_j_log_derivative's Lentz loop to converge, or None."""
    zi, top = 1.0 / z, m_max + 1
    c, d = 2 * top * zi, 0j
    for step, k2 in enumerate(range(2 * top + 2, 2 * (top + cap) + 2, 2), 1):
        b = k2 * zi
        d = 1.0 / ((b - d) or 1e-300)
        c = (b - 1.0 / c) or 1e-300
        if abs(c * d - 1.0) < sys.float_info.epsilon:
            return step
    return None


def test_log_derivative_refuses_only_what_its_fraction_cannot_finish(monkeypatch):
    # with the bound on the fraction's length cut to 10^4 terms, the
    # refusal at once applies from |z| ~ 1e4 (nearly real) and ~ 6e6 (any
    # argument) on: every z of the grid whose fraction converges within
    # the bound keeps its D bit for bit, and every other is refused
    cap = 10 ** 4
    grid = [(mag * cmath.exp(1j * math.radians(deg)), m_max)
            for mag in (1e3, 1.2e4, 1e5, 2e6, 3e6, 7e6)
            for deg in (1e-4, 0.01, 1.0, 45.0, 80.0, 90.0)
            for m_max in (0, 20, 3000)]
    grid += [(complex(1.2e4, im), 20) for im in (10.0, 11.9, 13.0, 17.5)]
    # nearly real, with |Im z| >= 12: the steps below k = S|z| gain at most
    # 2 |Im z| (1 - (1 - S^2)^(1/2)), S = (top + 10^4) / |z|
    grid += [(complex(re, im), m_max) for re in (1.5e4, 2e4, 4e4, 1e5)
             for im in (12.0, 20.0, 50.0, 300.0, 3000.0) for m_max in (0, 30)]
    full = {}
    for z, m_max in grid:
        if _fraction_terms(z, m_max, cap) is not None:
            full[z, m_max] = bessel_j_log_derivative(z, m_max)
    assert 0 < len(full) < len(grid)
    monkeypatch.setattr(sf, "_FRACTION_TERMS", cap)
    refusals = []
    for z, m_max in grid:
        if (z, m_max) in full:
            assert np.array_equal(bessel_j_log_derivative(z, m_max), full[z, m_max])
        else:
            with pytest.raises(ConvergenceError) as exc:
                bessel_j_log_derivative(z, m_max)
            refusals.append((z, "cannot converge" in str(exc.value)))
    # both ways out occur: refused at once, and after the fraction's bound;
    # where 12 <= |Im z| <= 20 every refusal is at once
    assert {at_once for _, at_once in refusals} == {True, False}
    assert all(at_once for z, at_once in refusals if 12.0 <= z.imag <= 20.0)


@pytest.mark.parametrize("z", (1e12 + 1e12j, 1e150j, -1e300 + 1.0, 1.7e308 + 1.7e308j))
def test_log_derivative_beyond_the_reach_of_its_fraction_is_refused_at_once(z):
    # the fraction needs at least 6 |z|^(1/2) terms, even on the imaginary
    # axis, so beyond |z| ~ 1e12 it cannot converge within its bound: that
    # took 0.4 s to find out, and abs(z) overflowed at the last z
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="cannot converge"):
        bessel_j_log_derivative(z, 3)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("z", (1e-310, 1e-320, 1e-310j, 5e-308, 6e-308))
def test_log_derivative_below_the_double_range_is_a_range_error(z):
    # 2k/z overflows at the fraction's first step (at 6e-308, at its second
    # step); it used to run to the bound on its length and raise
    # ConvergenceError
    with pytest.raises(RangeError):
        bessel_j_log_derivative(z, 3)
    with pytest.raises(RangeError):
        bessel_j_all_orders(3, abs(z))


@pytest.mark.parametrize("z", (2.404825557695773, 5.520078110286311))
def test_log_derivative_at_a_zero_of_j0_names_the_pole(z):
    # the first two zeros of J_0, rounded: J_0 / J_1 is exactly 0 there,
    # and the step to D_0 divides by it
    with pytest.raises(DomainError, match="D_0 has a pole"):
        bessel_j_log_derivative(z, 3)


@pytest.mark.parametrize("x", (1e-300, 1e-100, 1e-10, 0.1, 1.0, 2.0, 17.0, 300.0))
def test_hankel_log_derivative_matches_oracle(x):
    # p_m = x H'_m / H_m, with Im p_m = 2 / (pi |H_m|^2) (the Wronskian):
    # finite at every order, and Im p_m underflows where H_m overflows
    m_top = order_ceiling(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = hankel1_log_derivative(m_top, x)
    assert p.shape == (m_top + 1,) and np.isfinite(p).all()
    near_x = range(max(int(x) - 2, 0), min(int(x) + 3, m_top))
    for m in {0, 1, 2, m_top // 2, m_top, *near_x}:
        h = [mpmath.hankel1(v, x) for v in (m - 1, m, m + 1)]
        want = x * (h[0] - h[2]) / 2 / h[1]
        assert abs(p[m] - complex(want)) <= 1e-14 * abs(want)
        assert abs(p[m].imag - float(want.imag)) <= 1e-13 * want.imag + 1e-300


def test_log_derivative_at_z_0_is_a_domain_error():
    with pytest.raises(DomainError, match="z must be nonzero"):
        bessel_j_log_derivative(0j, 3)


def test_hankel_log_derivative_domain():
    for x in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            hankel1_log_derivative(3, x)
    # H_1(x) ~ -2i/(pi x) passes the double range below x ~ 3.5e-309
    with pytest.raises(RangeError, match="overflows"):
        hankel1_log_derivative(3, 1e-310)
    assert hankel1_log_derivative(0, 1e-300).shape == (1,)
    # x^2 passes the double range above x ~ 1.34e154; p_0 alone does not need it
    with pytest.raises(RangeError, match=r"x\^2 overflows"):
        hankel1_log_derivative(2, 1e200)
    assert hankel1_log_derivative(0, 1e200)[0] == complex(-0.5, 1e200)


def test_hankel_block_keeps_order_0_where_order_1_overflows():
    # H_1(1e-310) ~ -2i/(pi x) overflows, H_0 = 1 - 454.49i does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, hp = hankel1_all_orders(3, 1e-310)
    want = complex(mpmath.hankel1(0, mpmath.mpf(1e-310)))
    assert abs(h[0] - want) <= 1e-15 * abs(want)
    assert np.isnan(h[1:]).all() and np.isnan(hp).all()
