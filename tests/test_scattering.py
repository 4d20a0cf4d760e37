"""Partial-wave emissivities of an infinite circular wire.

The transition amplitudes are checked against an extended-precision
direct evaluation (mpmath) of the same boundary-value solution, plus
the structural invariants: passivity of each term, the m -> -m
symmetry, and the perfectly conducting limit.
"""

import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wirepol.errors import (ConvergenceError, DegenerateInputError, DomainError,
                            RangeError, WirepolError)
from wirepol.scattering import (
    MAX_ORDER,
    MIN_INDEX_MODULUS,
    emissivity_pair,
    order_ceiling,
    polarization_of,
)

from oracles import fresnel_coefficients, transition_amplitude

mpmath.mp.dps = 40


def oracle_amplitude(m, pol, x, n):
    """Direct extended-precision evaluation of the transition amplitude."""
    x = mpmath.mpf(x)
    n = mpmath.mpc(n)
    j = lambda v, z: mpmath.besselj(v, z)
    jp = lambda v, z: (mpmath.besselj(v - 1, z) - mpmath.besselj(v + 1, z)) / 2
    h = lambda v, z: mpmath.hankel1(v, z)
    hp = lambda v, z: (mpmath.hankel1(v - 1, z) - mpmath.hankel1(v + 1, z)) / 2
    if pol == "te":
        num = jp(m, n * x) * j(m, x) - n * jp(m, x) * j(m, n * x)
        den = jp(m, n * x) * h(m, x) - n * j(m, n * x) * hp(m, x)
    else:
        num = j(m, n * x) * jp(m, x) - n * jp(m, n * x) * j(m, x)
        den = j(m, n * x) * hp(m, x) - n * jp(m, n * x) * h(m, x)
    return complex(num / den)


N_TUNGSTEN = 3.3817 + 2.6530j  # representative visible-band index
POLS = ("te", "tm")  # the order of transition_amplitude's pair


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("pol", ["te", "tm"])
def test_amplitude_matches_oracle(m, pol):
    k, a = 2 * math.pi / 0.5, 0.4
    got = transition_amplitude(m, k, a, N_TUNGSTEN)[POLS.index(pol)]
    want = oracle_amplitude(m, pol, k * a, N_TUNGSTEN)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-280)


def test_amplitude_with_large_absorption_oracle():
    # strongly absorbing interior argument, where naive J_m(nx) overflows
    n = 1.0 + 40.0j
    k, a = 2 * math.pi / 0.5, 2.0
    for m in (0, 3, 20):
        got = transition_amplitude(m, k, a, n)[1]
        want = oracle_amplitude(m, "tm", k * a, n)
        assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("a", [0.01, 0.3, 2.0])
def test_high_order_amplitude_where_hankel_overflows(a):
    # at m = 200 and a <= 0.3 um, H_m(x) overflows (AMOS gives nan) and
    # J_m(x) underflows; the true amplitude rounds to 0 in double.  At
    # a = 2 um H_m is finite and T_m ~ 1e-309 is subnormal but accurate.
    k, n = 4 * math.pi, 3.38 + 2.65j
    got = transition_amplitude(200, k, a, n)
    want = tuple(oracle_amplitude(200, pol, k * a, n) for pol in POLS)
    if a < 1.0:
        assert got == want == (0j, 0j)
    else:
        assert 0 < abs(want[0]) < 1e-307
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=0.0)


def test_vacuum_wire_does_not_scatter():
    pair = emissivity_pair(2 * math.pi / 0.5, 1.0, 1.0)
    assert pair.e_te == 0.0 and pair.e_tm == 0.0


def test_negative_order_symmetry():
    k, a = 2 * math.pi / 0.5, 0.3
    for m in (1, 2, 6):
        tp = transition_amplitude(m, k, a, N_TUNGSTEN)
        tn = transition_amplitude(-m, k, a, N_TUNGSTEN)
        assert tn == tp


@given(st.floats(0.02, 5.0), st.floats(0.8, 6.0), st.floats(0.05, 30.0))
@settings(max_examples=60, deadline=None)
def test_passivity_of_every_term(a, n_re, n_im):
    # each partial-wave emissivity term 4(Re T - |T|^2) must be >= 0 up
    # to roundoff: the wire cannot emit more than a black body per mode
    k = 2 * math.pi / 0.5
    n = complex(n_re, n_im)
    for m in range(0, 8):
        for t in transition_amplitude(m, k, a, n):
            term = 4.0 * (t.real - abs(t) ** 2)
            assert term >= -1e-12


def test_emissivity_fold_consistency():
    # folding T_{-m} = T_m means e = 4 * (term_0 + 2 sum_{m>=1} term_m);
    # rebuild the sum from individual amplitudes
    k, a, n = 2 * math.pi / 0.5, 0.2, N_TUNGSTEN
    pair = emissivity_pair(k, a, n)
    for i, want in enumerate((pair.e_te, pair.e_tm)):
        terms = []
        for m in range(pair.terms_used):
            t = transition_amplitude(m, k, a, n)[i]
            w = 1.0 if m == 0 else 2.0
            terms.append(w * 4.0 * (t.real - abs(t) ** 2))
        assert math.fsum(terms) == pytest.approx(want, rel=1e-9)


def test_perfect_conductor_limit():
    # |n| -> inf: T_TM -> J_m(x)/H_m(x), T_TE -> J'_m(x)/H'_m(x); J from
    # AMOS, independent of the J inside transition_amplitude
    from scipy import special
    from wirepol.special_functions import hankel1_all_orders
    k, a = 2 * math.pi / 0.5, 0.3
    x = k * a
    n = 1e5 + 1e5j
    c = special.jv(np.arange(-1, 5), x)
    j, jp = c[1:-1], 0.5 * (c[:-2] - c[2:])
    h, hp = hankel1_all_orders(3, x)
    for m in (0, 1, 3):
        te, tm = transition_amplitude(m, k, a, n)
        assert tm == pytest.approx(j[m] / h[m], rel=1e-3, abs=1e-4)
        assert te == pytest.approx(jp[m] / hp[m], rel=1e-3, abs=1e-4)


def test_polarization_bounds_and_sign():
    k = 2 * math.pi / 0.5
    # thin wire: TM dominates strongly, P near -1
    thin = emissivity_pair(k, 0.02, N_TUNGSTEN)
    p_thin = polarization_of(thin.e_te, thin.e_tm)
    assert -1.0 <= p_thin <= 1.0
    assert p_thin < -0.5
    # thick wire: TE slightly ahead, P small and positive
    thick = emissivity_pair(k, 25.0, N_TUNGSTEN)
    assert 0.0 < polarization_of(thick.e_te, thick.e_tm) < 0.5


def test_invalid_inputs_rejected():
    k = 2 * math.pi / 0.5
    with pytest.raises(DomainError):
        emissivity_pair(k, -1.0, N_TUNGSTEN)
    with pytest.raises(DomainError):
        emissivity_pair(-k, 1.0, N_TUNGSTEN)
    with pytest.raises(DomainError):
        emissivity_pair(k, 1.0, complex(2.0, -0.1))


def test_degenerate_polarization():
    pair = emissivity_pair(2 * math.pi / 0.5, 1.0, 1.0)
    with pytest.raises(DegenerateInputError):
        polarization_of(pair.e_te, pair.e_tm)


def test_order_ceiling_grows_with_size():
    assert order_ceiling(0.1) >= 5
    assert order_ceiling(100.0) > order_ceiling(10.0)


def test_order_ceiling_raises_above_max_order():
    # 2000 um at 0.5 um needs about 25 400 orders; 0.2 m would need 2.5e6
    k = 2 * math.pi / 0.5
    assert order_ceiling(k * 2000.0) <= MAX_ORDER
    for x in (float(MAX_ORDER), k * 2e5, math.inf):
        with pytest.raises(RangeError, match="exceeds ceiling"):
            order_ceiling(x)
    with pytest.raises(RangeError, match="exceeds ceiling"):
        transition_amplitude(MAX_ORDER + 1, k, 1.0, N_TUNGSTEN)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_order_ceiling_refuses_sizes_outside_its_range(x):
    # k a can underflow to 0; the message names the range, not the ceiling
    with pytest.raises(RangeError, match=f"outside 0 < x <= {MAX_ORDER}$"):
        order_ceiling(x)


def oracle_emissivities(x, n, top=4):
    """Both folded sums 4 sum_m (Re T_m - |T_m|^2) from the textbook
    amplitudes of the scattering docstring, at 60 digits.  At x <= 1e-18 the
    terms fall as x^(2m), so orders above 4 lie far below 1e-13 of the sum."""
    with mpmath.workdps(60):
        x, n = mpmath.mpf(x), mpmath.mpc(n)
        # C_v for v = -1..top+1: C_m is c[m + 1], C'_m = (c[m] - c[m + 2]) / 2
        j, jn, h = ([f(v, z) for v in range(-1, top + 2)] for f, z in (
            (mpmath.besselj, x), (mpmath.besselj, n * x), (mpmath.hankel1, x)))
        sums = [0, 0]
        for m in range(top + 1):
            jm, jnm, hm = j[m + 1], jn[m + 1], h[m + 1]
            jp, jnp, hp = ((c[m] - c[m + 2]) / 2 for c in (j, jn, h))
            t_te = (jnp * jm - n * jp * jnm) / (jnp * hm - n * jnm * hp)
            t_tm = (jnm * jp - n * jnp * jm) / (jnm * hp - n * jnp * hm)
            for i, t in enumerate((t_te, t_tm)):
                sums[i] += (1 if m == 0 else 2) * 4 * (t.real - abs(t) ** 2)
        return float(sums[0]), float(sums[1])


@pytest.mark.parametrize("x", [1e-18, 1e-50, 1e-100])
@pytest.mark.parametrize("n", ["tungsten", 1 + 40j])
def test_tiny_wire_emissivities_match_oracle(x, n):
    # far below x ~ 1e-6, where H_m(x) at order_ceiling(x) overflows
    n = _tungsten(0.5) if n == "tungsten" else n
    pair = emissivity_pair(1.0, x, n)
    want_te, want_tm = oracle_emissivities(x, n)
    assert pair.e_te == pytest.approx(want_te, rel=1e-13, abs=0.0)
    assert pair.e_tm == pytest.approx(want_tm, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("temp", [298.0, 1600.0, 2400.0])
@pytest.mark.parametrize("lam", [0.5, 0.75, 2.0])
def test_tiny_wire_meets_quasi_static_closed_forms(temp, lam):
    # Bohren & Huffman (1983) 8.4: e_TM -> pi x^2 Im eps, e_TE -> 4 pi x^2
    # Im eps / |eps + 1|^2 and P -> P_0, all with relative errors O(x^2 ln x)
    n = _tungsten(lam, temp)
    eps = n * n
    q = abs(eps + 1) ** 2
    p0 = (4 - q) / (4 + q)
    for x in (1e-10, 1e-50, 1e-100, 1e-150):
        pair = emissivity_pair(1.0, x, n)
        assert abs(polarization_of(pair.e_te, pair.e_tm) - p0) <= 1e-15
        assert abs(pair.e_tm / (math.pi * x * x * eps.imag) - 1.0) <= 1e-14
        assert abs(pair.e_te / (4 * math.pi * x * x * eps.imag / q) - 1.0) <= 1e-14


def test_subnormal_emissivities_have_no_polarization():
    # P from subnormal sums is rounding noise: at Im n = 1e-320 it read
    # -0.0915256, 2.1e-5 from its value at Im n = 1e-300.  So is it at
    # x = 1e-158 and 1e-300, where e ~ x^2 is subnormal, then 0
    for x, n in ((1.0, 3 + 1e-320j), (1e-158, N_TUNGSTEN), (1e-300, N_TUNGSTEN)):
        pair = emissivity_pair(1.0, x, n)
        with pytest.raises(DegenerateInputError, match="underflow"):
            polarization_of(pair.e_te, pair.e_tm)
    # e_TE subnormal, e_TM normal: P is still good to the last digits
    pair = emissivity_pair(1.0, 1e-154, N_TUNGSTEN)
    assert 0.0 < pair.e_te < sys.float_info.min <= pair.e_tm
    q = abs(N_TUNGSTEN ** 2 + 1) ** 2
    assert polarization_of(pair.e_te, pair.e_tm) == pytest.approx(
        (4 - q) / (4 + q), abs=1e-14)


@pytest.mark.parametrize("n", [N_TUNGSTEN, 1 + 40j, 1000 + 1000j, 1e6 + 1e6j])
def test_sizes_at_the_bottom_of_the_double_range_end_typed(n):
    # a value, or a typed error (D's or H_1's range, or P's precision
    # rule), and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in np.geomspace(1e-320, 1e-300, 41).tolist():
            try:
                pair = emissivity_pair(1.0, x, n)
                p = polarization_of(pair.e_te, pair.e_tm)
            except WirepolError:
                continue
            assert -1.0 <= p <= 1.0


@pytest.mark.parametrize("n", [1e-170 + 1e-170j, 1e-300 + 1e-300j, 1e-160j])
def test_refraction_index_of_tiny_modulus_does_not_overflow(n):
    # xD_m ~ m/n: |xD_m - n p_m|^2 overflowed with a numpy warning; such an
    # n is now refused before the sum (MIN_INDEX_MODULUS), still unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"\|n\| < 0.03"):
            emissivity_pair(1.0, 1.0, n)


@pytest.mark.parametrize("deg", [5.0, 45.0, 89.5])
def test_absorbing_index_at_the_modulus_bound_matches_the_oracle(deg):
    # n xD_m ~ m cancels in its imaginary part, so the relative error grows
    # as eps/|n|^2: 0.18 in e_TM at n = 1e-8 (1 + i), x = 1.  At the bound
    # it stays within 1e-12 of the 60-digit textbook sum
    x = 1.0
    n = cmath.rect(MIN_INDEX_MODULUS, math.radians(deg))
    pair = emissivity_pair(1.0, x, n)
    want_te, want_tm = oracle_emissivities(x, n, top=order_ceiling(x))
    assert pair.e_te == pytest.approx(want_te, rel=1e-12, abs=0.0)
    assert pair.e_tm == pytest.approx(want_tm, rel=1e-12, abs=0.0)
    below = cmath.rect(0.999 * MIN_INDEX_MODULUS, math.radians(deg))
    with pytest.raises(DomainError, match=r"\|n\| < 0.03"):
        emissivity_pair(1.0, x, below)
    # a lossless n of any modulus still emits exactly nothing
    for lossless in (abs(below), 1e-300, 0.0):
        pair = emissivity_pair(1.0, x, lossless)
        assert pair.e_te == pair.e_tm == 0.0


@pytest.mark.parametrize("n", [3.38 + 2.65j, 1 + 40j, 1000 + 1000j])
def test_smallest_size_is_finite(n):
    for x in (1e-4, 1e-18, 1e-100, 1e-300):
        pair = emissivity_pair(1.0, x, n)
        for e in (pair.e_te, pair.e_tm):
            assert math.isfinite(e) and e >= 0.0


def test_tail_below_epsilon_on_tungsten_grid():
    # the terms at order_ceiling(x) are below the rounding of the sum for
    # tungsten from x = 1e-150 up to 4 mm wires
    for temp in (298.0, 2400.0):
        for lam in (0.5, 0.75):
            n, k = _tungsten(lam, temp), 2 * math.pi / lam
            for x in np.geomspace(1e-150, 4.9e4, 10):
                pair = emissivity_pair(k, x / k, n)
                assert pair.terms_used == order_ceiling(k * (x / k)) + 1
                assert pair.truncation_error_estimate <= 2.0 ** -52


def test_short_sum_is_convergence_error(monkeypatch):
    import wirepol.scattering as scattering
    monkeypatch.setattr(scattering, "order_ceiling", lambda x: 5)
    with pytest.raises(ConvergenceError, match="exceeds machine epsilon"):
        emissivity_pair(2 * math.pi / 0.5, 1.0, N_TUNGSTEN)


def test_kernel_call_shape(monkeypatch):
    # x = 2 pi 8.5 / 0.5: one Hankel pass and one D recurrence, both to
    # order_ceiling(x) = 175
    import wirepol.scattering as scattering
    calls = {"hankel": [], "log_derivative": []}
    real_h, real_d = scattering.hankel1_log_derivative, scattering.bessel_j_log_derivative

    def hankel(m_max, x):
        calls["hankel"].append(m_max)
        return real_h(m_max, x)

    def log_derivative(z, m_max):
        calls["log_derivative"].append(m_max)
        return real_d(z, m_max)

    monkeypatch.setattr(scattering, "hankel1_log_derivative", hankel)
    monkeypatch.setattr(scattering, "bessel_j_log_derivative", log_derivative)
    k, a, n = 2 * math.pi / 0.5, 8.5, 3.38 + 2.65j
    assert order_ceiling(k * a) == 175
    assert emissivity_pair(k, a, n).terms_used == 176
    assert calls == {"hankel": [175], "log_derivative": [175]}


def _tungsten(lam, temp=2400.0):
    from wirepol.materials import (load_database, model_for_temperature,
                                   permittivity, refraction_index)
    model = model_for_temperature(load_database(), temp)
    return refraction_index(permittivity(model, lam))


def test_thick_wire_absorption_approaches_fresnel():
    # emissivity_pair returns e = 2x * Q_abs; for a >> lambda, Q_abs tends
    # to the Fresnel absorption 1/2 integral cos(phi) (1 - |R|^2) dphi
    from wirepol.materials import (load_database, model_for_temperature,
                                   permittivity)
    lam = 0.5
    eps = permittivity(model_for_temperature(load_database(), 2400.0), lam)
    xg, wg = np.polynomial.legendre.leggauss(64)
    phi = (xg + 1.0) * (math.pi / 4.0)   # the integrand is even in phi
    w = wg * (math.pi / 4.0) * np.cos(phi)
    pair = fresnel_coefficients(eps, phi)
    q_te = np.sum(w * (1.0 - np.abs(pair.r_te) ** 2))
    q_tm = np.sum(w * (1.0 - np.abs(pair.r_tm) ** 2))
    k = 2 * math.pi / lam
    gaps_te, gaps_tm = [], []
    for a in (50.0, 200.0, 500.0, 2000.0):
        e = emissivity_pair(k, a, _tungsten(lam))
        gaps_te.append(abs(e.e_te / (2 * k * a) / q_te - 1.0))
        gaps_tm.append(abs(e.e_tm / (2 * k * a) / q_tm - 1.0))
    for gaps in (gaps_te, gaps_tm):
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[2] < 5e-3
        assert gaps[3] < 1e-3


def test_thick_wire_polarization_approaches_fresnel():
    # P(a) tends to the geometric-optics limit from above, monotonically,
    # out to wires 4 mm thick
    from wirepol.asymptotic import thick_wire_polarization
    from wirepol.materials import (load_database, model_for_temperature,
                                   permittivity)
    lam = 0.5
    eps = permittivity(model_for_temperature(load_database(), 2400.0), lam)
    p_fresnel = thick_wire_polarization(eps)
    n, k = _tungsten(lam), 2 * math.pi / lam
    pairs = [emissivity_pair(k, a, n)
             for a in (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0)]
    gaps = [polarization_of(pair.e_te, pair.e_tm) - p_fresnel for pair in pairs]
    assert gaps[-1] > 0.0
    assert all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 4e-4


# two decades, where the rounding of P over x^2 stays below 1e-6
THIN_SIZES = np.geomspace(1.001e-4, 1e-2, 5)


def assert_thin_wire_limit(eps, lam):
    # quasi-static cylinder (Bohren & Huffman 1983, 8.4): e_TM -> pi x^2 Im eps
    # and e_TE -> 4 pi x^2 Im eps / |eps + 1|^2, so P -> P_0 below, with an
    # error x^2 (a + b ln x) + o(x^2).  So r = (P - P_0) / x^2 stays O(1),
    # on the scale of scattering against absorption, and drifts only
    # logarithmically: its slope in ln x settles as x falls.  A wrong P_0 or
    # a lower order of convergence makes r grow as a power of 1/x.
    from wirepol.materials import refraction_index
    q = abs(eps + 1) ** 2
    p0 = (4 - q) / (4 + q)
    n, k = refraction_index(eps), 2 * math.pi / lam
    pairs = [emissivity_pair(k, x / k, n) for x in THIN_SIZES]
    r = np.array([(polarization_of(pair.e_te, pair.e_tm) - p0) / x ** 2
                  for pair, x in zip(pairs, THIN_SIZES)])
    assert np.abs(r).max() <= 4.0 * (1.0 + abs(eps - 1) ** 2 / eps.imag)
    slopes = np.diff(r) / np.diff(np.log(THIN_SIZES))
    # 1e-6 covers the rounding of P: eps_mach / x^2 ~ 2e-8 at x = 1e-4
    assert abs(slopes[1] - slopes[0]) <= 4e-3 * np.abs(r).max() + 1e-6


@pytest.mark.parametrize("temp", [298.0, 1600.0, 2400.0])
@pytest.mark.parametrize("lam", [0.5, 0.75, 2.0])
def test_thin_wire_polarization_approaches_quasi_static_limit(temp, lam):
    from wirepol.materials import load_database, model_for_temperature, permittivity
    eps = permittivity(model_for_temperature(load_database(), temp), lam)
    assert_thin_wire_limit(eps, lam)


@given(st.floats(-300.0, 50.0), st.floats(1e-2, 300.0))
@settings(max_examples=50, deadline=None)
def test_thin_wire_limit_for_any_absorber(re, im):
    eps = complex(re, im)
    assume(abs(eps + 1) >= 1.0)    # away from the surface resonance eps = -1
    assert_thin_wire_limit(eps, 1.0)


@pytest.mark.parametrize("lam", [0.5, 0.625, 0.75])
@pytest.mark.parametrize("a", [0.01, 0.1, 1.0, 5.0])
def test_wronskian_terms_match_amplitudes(lam, a):
    # the Wronskian form equals 4(Re T - |T|^2) built from the amplitudes
    from wirepol.scattering import _emissivity_terms
    k, n = 2 * math.pi / lam, _tungsten(lam)
    terms_te, terms_tm = _emissivity_terms(k, a, n)
    for m in range(len(terms_te)):
        for got, t in zip((terms_te[m], terms_tm[m]),
                          transition_amplitude(m, k, a, n)):
            assert got == pytest.approx(4.0 * (t.real - abs(t) ** 2), rel=1e-12)


def test_wronskian_terms_match_oracle_near_turning_point():
    # at m ~ x the amplitude form loses digits to cancellation; the
    # Wronskian form keeps them
    from wirepol.scattering import _emissivity_terms
    lam, a = 0.5, 5.0
    k, n = 2 * math.pi / lam, _tungsten(lam)
    terms_te, terms_tm = _emissivity_terms(k, a, n)
    for m in (61, 63, 70):
        for pol, got in (("te", terms_te[m]), ("tm", terms_tm[m])):
            t = oracle_amplitude(m, pol, k * a, n)
            assert got == pytest.approx(4.0 * (t.real - abs(t) ** 2), rel=1e-13)


@pytest.mark.parametrize("n", [1.5, 1.5 + 0j, 0.3])
def test_lossless_wire_emits_exactly_nothing(n):
    k = 2 * math.pi / 0.5
    for a in (0.02, 1.0, 30.0):
        pair = emissivity_pair(k, a, n)
        assert pair.e_te == 0.0 and pair.e_tm == 0.0
        assert math.copysign(1.0, pair.e_te) == 1.0
        assert math.copysign(1.0, pair.e_tm) == 1.0
        with pytest.raises(DegenerateInputError):
            polarization_of(pair.e_te, pair.e_tm)


@pytest.mark.parametrize("x, n", [(2.404825557695773, 1 + 0j),
                                  (1.2024127788478864, 2.0)])
def test_lossless_wire_at_a_zero_of_j0_emits_exactly_nothing(x, n):
    # n x rounds to the first zero of J_0, where D_0(n x) has a pole; a
    # lossless wire needs no sum at all
    pair = emissivity_pair(1.0, x, n)
    assert (pair.e_te, pair.e_tm) == (0.0, 0.0)
    assert math.copysign(1.0, pair.e_te) == math.copysign(1.0, pair.e_tm) == 1.0
    assert pair.terms_used == order_ceiling(x) + 1
    with pytest.raises(DegenerateInputError):
        polarization_of(pair.e_te, pair.e_tm)


@given(st.floats(1e-3, 5.0), st.floats(0.05, 10.0),
       st.one_of(st.just(0.0), st.floats(1e-12, 20.0)))
@settings(max_examples=80, deadline=None)
def test_emissivities_never_negative(a, n_re, n_im):
    pair = emissivity_pair(2 * math.pi / 0.5, a, complex(n_re, n_im))
    assert pair.e_te >= 0.0 and pair.e_tm >= 0.0


@pytest.mark.parametrize("a, tol", [(0.01, 1e-10), (1.0, 1e-10), (30.0, 1e-10),
                                    (1.0, 1e-15), (30.0, 1e-13)])
def test_truncation_matches_running_sum_loop(a, tol):
    # reference: the per-order loop of running sums that stops after three
    # consecutive orders below tol of the sum.  Its terms are the leading
    # terms of the full series, and the orders it leaves out move neither
    # emissivity by more than tol of the total: summing to order_ceiling(x)
    # only adds what such a stopping rule would have dropped
    from wirepol.scattering import _emissivity_terms
    from wirepol.special_functions import (bessel_j_log_derivative,
                                           hankel1_all_orders)
    k, n = 2 * math.pi / 0.5, N_TUNGSTEN
    x = k * a
    m_max = order_ceiling(x)
    d = bessel_j_log_derivative(n * x, m_max)
    h, hp = hankel1_all_orders(m_max, x)
    w4 = 8.0 / (math.pi * x)
    sum_te = sum_tm = 0.0
    consecutive = 0
    ref_te, ref_tm = [], []
    for m in range(m_max + 1):
        dm, hm, hpm = d[m:m + 1], h[m:m + 1], hp[m:m + 1]
        den_te = dm * hm - n * hpm
        den_tm = hpm - n * dm * hm
        te = max(-w4 * (dm * n.conjugate()).imag[0] / abs(den_te[0]) ** 2, 0.0)
        tm = max(-w4 * (n * dm).imag[0] / abs(den_tm[0]) ** 2, 0.0)
        ref_te.append(te)
        ref_tm.append(tm)
        w = 1.0 if m == 0 else 2.0
        sum_te += w * te
        sum_tm += w * tm
        scale = tol * (sum_te + sum_tm + 1e-300)
        consecutive = consecutive + 1 if (te < scale and tm < scale) else 0
        if consecutive == 3:
            break
    assert consecutive == 3, "the stopping rule never fired below the ceiling"
    terms_te, terms_tm = _emissivity_terms(k, a, n)
    kept = len(ref_te)
    assert list(terms_te[:kept]) == pytest.approx(ref_te, rel=1e-13, abs=0.0)
    assert list(terms_tm[:kept]) == pytest.approx(ref_tm, rel=1e-13, abs=0.0)
    pair = emissivity_pair(k, a, n)
    total = pair.e_te + pair.e_tm
    assert abs(pair.e_te - sum_te) <= tol * total
    assert abs(pair.e_tm - sum_tm) <= tol * total


@pytest.mark.parametrize("a", [0.01, 1.0, 30.0])
def test_terms_match_per_order_loop(a):
    # reference: the per-order loop over the same Wronskian terms, to
    # order_ceiling(x), and the tail estimate from its running sums.  Each
    # order is a one-element array: numpy's scalar complex product rounds
    # differently, and Im(n xD_m) cancels at high orders of a thin wire, so
    # scalar rounding alone moves such a term by ~1e-13 (a = 0.01, m > 18)
    from wirepol.scattering import _emissivity_terms
    from wirepol.special_functions import (bessel_j_log_derivative,
                                           hankel1_log_derivative)
    k, n = 2 * math.pi / 0.5, N_TUNGSTEN
    x = k * a
    m_max = order_ceiling(x)
    xd = x * bessel_j_log_derivative(n * x, m_max)
    p = hankel1_log_derivative(m_max, x)
    sum_te = sum_tm = 0.0
    ref_te, ref_tm = [], []
    for m in range(m_max + 1):
        xdm, pm = xd[m:m + 1], p[m:m + 1]
        den_te = xdm - n * pm
        den_tm = pm - n * xdm
        te = max(-4.0 * (xdm * n.conjugate()).imag[0] * pm.imag[0] / abs(den_te[0]) ** 2, 0.0)
        tm = max(-4.0 * (n * xdm).imag[0] * pm.imag[0] / abs(den_tm[0]) ** 2, 0.0)
        ref_te.append(te)
        ref_tm.append(tm)
        w = 1.0 if m == 0 else 2.0
        sum_te += w * te
        sum_tm += w * tm
    terms_te, terms_tm = _emissivity_terms(k, a, n)
    assert len(terms_te) == len(terms_tm) == m_max + 1
    assert list(terms_te) == pytest.approx(ref_te, rel=1e-13, abs=0.0)
    assert list(terms_tm) == pytest.approx(ref_tm, rel=1e-13, abs=0.0)
    pair = emissivity_pair(k, a, n)
    assert pair.terms_used == m_max + 1
    tail = max(*ref_te[-3:], *ref_tm[-3:])
    assert pair.truncation_error_estimate == pytest.approx(
        tail / (sum_te + sum_tm), rel=1e-12)
