"""Partial-wave emissivities of an infinite circular wire.

The transition amplitudes are checked against an extended-precision
direct evaluation (mpmath) of the same boundary-value solution, plus
the structural invariants: passivity of each term, the m -> -m
symmetry, and the perfectly conducting limit.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wirepol.errors import (ConvergenceError, DegenerateInputError, DomainError,
                            RangeError)
from wirepol.scattering import (
    MAX_ORDER,
    emissivity_pair,
    linear_polarization,
    order_ceiling,
    transition_amplitude,
)

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
    # |n| -> inf: T_TM -> J_m(x)/H_m(x), T_TE -> J'_m(x)/H'_m(x)
    from wirepol.special_functions import bessel_j_all_orders, hankel1_all_orders
    k, a = 2 * math.pi / 0.5, 0.3
    x = k * a
    n = 1e5 + 1e5j
    j, jp = bessel_j_all_orders(3, x)
    h, hp = hankel1_all_orders(3, x)
    for m in (0, 1, 3):
        te, tm = transition_amplitude(m, k, a, n)
        assert tm == pytest.approx(j[m] / h[m], rel=1e-3, abs=1e-4)
        assert te == pytest.approx(jp[m] / hp[m], rel=1e-3, abs=1e-4)


def test_polarization_bounds_and_sign():
    k = 2 * math.pi / 0.5
    # thin wire: TM dominates strongly, P near -1
    p_thin = linear_polarization(k, 0.02, N_TUNGSTEN)
    assert -1.0 <= p_thin <= 1.0
    assert p_thin < -0.5
    # thick wire: TE slightly ahead, P small and positive
    p_thick = linear_polarization(k, 25.0, N_TUNGSTEN)
    assert 0.0 < p_thick < 0.5


def test_invalid_inputs_rejected():
    k = 2 * math.pi / 0.5
    with pytest.raises(DomainError):
        emissivity_pair(k, -1.0, N_TUNGSTEN)
    with pytest.raises(DomainError):
        emissivity_pair(-k, 1.0, N_TUNGSTEN)
    for tol in (0.0, 1e-300, 1e-17, 1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            emissivity_pair(k, 1.0, N_TUNGSTEN, tol=tol)
    with pytest.raises(DomainError):
        emissivity_pair(k, 1.0, complex(2.0, -0.1))


def test_degenerate_polarization():
    with pytest.raises(DegenerateInputError):
        linear_polarization(2 * math.pi / 0.5, 1.0, 1.0)


def test_order_ceiling_grows_with_size():
    assert order_ceiling(0.1) >= 5
    assert order_ceiling(100.0) > order_ceiling(10.0)


def test_order_ceiling_raises_above_max_order():
    # 2000 um at 0.5 um needs about 25 400 orders; 0.2 m would need 2.5e6
    k = 2 * math.pi / 0.5
    assert order_ceiling(k * 2000.0) <= MAX_ORDER
    for x in (float(MAX_ORDER), k * 2e5):
        with pytest.raises(RangeError, match="exceeds ceiling"):
            order_ceiling(x)
    with pytest.raises(RangeError, match="exceeds ceiling"):
        transition_amplitude(MAX_ORDER + 1, k, 1.0, N_TUNGSTEN)


def test_smallest_tolerance_converges_on_thick_wire():
    # tol = eps still stops inside the ceiling sized from x alone
    k = 2 * math.pi / 0.5
    pair = emissivity_pair(k, 8.5, _tungsten_2400k(0.5), tol=2.0 ** -52)
    assert pair.terms_used <= order_ceiling(k * 8.5) + 1
    assert pair.truncation_error_estimate <= 2.0 ** -52


def test_truncation_estimate_tracks_tolerance():
    k, a, n = 2 * math.pi / 0.5, 1.3, N_TUNGSTEN
    loose = emissivity_pair(k, a, n, tol=1e-6)
    tight = emissivity_pair(k, a, n, tol=1e-12)
    assert tight.terms_used >= loose.terms_used
    assert tight.e_te == pytest.approx(loose.e_te, rel=1e-5)
    assert tight.truncation_error_estimate <= 1e-10


def _tungsten_2400k(lam):
    from wirepol.materials import (load_database, model_for_temperature,
                                   permittivity, refraction_index)
    model = model_for_temperature(load_database(), 2400.0)
    return refraction_index(permittivity(model, lam))


def test_thick_wire_absorption_approaches_fresnel():
    # emissivity_pair returns e = 2x * Q_abs; for a >> lambda, Q_abs tends
    # to the Fresnel absorption 1/2 integral cos(phi) (1 - |R|^2) dphi
    from wirepol.asymptotic import fresnel_coefficients
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
        e = emissivity_pair(k, a, _tungsten_2400k(lam))
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
    n, k = _tungsten_2400k(lam), 2 * math.pi / lam
    gaps = [linear_polarization(k, a, n) - p_fresnel
            for a in (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
                      2000.0)]
    assert gaps[-1] > 0.0
    assert all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 4e-4


@pytest.mark.parametrize("lam", [0.5, 0.625, 0.75])
@pytest.mark.parametrize("a", [0.01, 0.1, 1.0, 5.0])
def test_wronskian_terms_match_amplitudes(lam, a):
    # the Wronskian form equals 4(Re T - |T|^2) built from the amplitudes
    from wirepol.scattering import _emissivity_terms
    k, n = 2 * math.pi / lam, _tungsten_2400k(lam)
    terms_te, terms_tm = _emissivity_terms(k, a, n, 1e-10)[:2]
    for m in range(len(terms_te)):
        for got, t in zip((terms_te[m], terms_tm[m]),
                          transition_amplitude(m, k, a, n)):
            assert got == pytest.approx(4.0 * (t.real - abs(t) ** 2), rel=1e-12)


def test_wronskian_terms_match_oracle_near_turning_point():
    # at m ~ x the amplitude form loses digits to cancellation; the
    # Wronskian form keeps them
    from wirepol.scattering import _emissivity_terms
    lam, a = 0.5, 5.0
    k, n = 2 * math.pi / lam, _tungsten_2400k(lam)
    terms_te, terms_tm = _emissivity_terms(k, a, n, 1e-10)[:2]
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
            linear_polarization(k, a, n)


@given(st.floats(1e-3, 5.0), st.floats(0.05, 10.0),
       st.one_of(st.just(0.0), st.floats(1e-12, 20.0)))
@settings(max_examples=80, deadline=None)
def test_emissivities_never_negative(a, n_re, n_im):
    pair = emissivity_pair(2 * math.pi / 0.5, a, complex(n_re, n_im))
    assert pair.e_te >= 0.0 and pair.e_tm >= 0.0


@pytest.mark.parametrize("a, tol", [(0.01, 1e-10), (1.0, 1e-10), (30.0, 1e-10),
                                    (1.0, 1e-15), (30.0, 1e-13)])
def test_truncation_matches_running_sum_loop(a, tol):
    # reference: the per-order loop of running sums and a counter of
    # consecutive small orders, over the same Wronskian terms; the
    # tighter tolerances need more than the first block of orders
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
        den_te = d[m] * h[m] - n * hp[m]
        den_tm = hp[m] - n * d[m] * h[m]
        te = max(-w4 * (d[m] * n.conjugate()).imag / abs(den_te) ** 2, 0.0)
        tm = max(-w4 * (n * d[m]).imag / abs(den_tm) ** 2, 0.0)
        ref_te.append(te)
        ref_tm.append(tm)
        w = 1.0 if m == 0 else 2.0
        sum_te += w * te
        sum_tm += w * tm
        scale = tol * (sum_te + sum_tm + 1e-300)
        consecutive = consecutive + 1 if (te < scale and tm < scale) else 0
        if consecutive == 3:
            break
    terms_te, terms_tm, est = _emissivity_terms(k, a, n, tol)
    assert len(terms_te) == len(terms_tm) == len(ref_te)
    assert list(terms_te) == pytest.approx(ref_te, rel=1e-13, abs=0.0)
    assert list(terms_tm) == pytest.approx(ref_tm, rel=1e-13, abs=0.0)
    tail = max(*ref_te[-3:], *ref_tm[-3:])
    assert est == pytest.approx(tail / (sum_te + sum_tm), rel=1e-12)
