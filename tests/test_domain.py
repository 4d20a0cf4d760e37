"""One domain contract for every numeric function of ``wirepol.__all__``:
every argument is drawn from the whole double range (subnormals, +-0,
+-inf, nan, and complex numbers built from them), and each call gives a
finite, admissible value or raises a WirepolError.  pytest turns every
warning into an error, so none may escape either."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wirepol import (
    BandFilter,
    PolarimeterScan,
    SourceModel,
    WirepolError,
    band_averaged_polarization,
    emissivity_pair,
    extract_polarization,
    fit_cos_squared,
    fresnel_coefficients,
    linear_polarization,
    load_database,
    model_for_temperature,
    permittivity,
    planck_radiance,
    polarization_of,
    refraction_index,
    simulate_scan,
    thick_wire_polarization,
    vacuum_model,
)

DOUBLES = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
COMPLEXES = st.builds(complex, DOUBLES, DOUBLES)
# a node count: any integer, a bool, or any double
NODES = st.one_of(st.integers(), st.booleans(), DOUBLES)
EXAMPLES = settings(max_examples=150, deadline=None)


def _value_or_typed_error(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except WirepolError:
        return None


def _ratio(a, b):
    # a / (a + b) of two finite doubles, exactly, then rounded once
    return float(Fraction(a) / (Fraction(a) + Fraction(b)))


@EXAMPLES
@given(DOUBLES, DOUBLES)
@example(1.5e308, 0.5e308)    # the sum overflows; P = 0.5
@example(-1.0, 3.0)           # P = -2 is not a polarization
def test_polarization_of(a, b):
    p = _value_or_typed_error(polarization_of, a, b)
    if p is None:
        return
    assert a >= 0 and b >= 0 and abs(p) <= 1
    assert p == pytest.approx(2 * _ratio(a, b) - 1, abs=1e-15)
    if a + b < math.inf:    # the one formula, bit for bit
        assert p == (a - b) / (a + b)


@EXAMPLES
@given(COMPLEXES, NODES)
@example(1e20j, 64)                # 1 - |R|^2 cancelled: 3.8e-7 off
@example(-1e200 + 1e190j, 64)      # refused as a perfect mirror
@example(1.7e308 + 1.7e308j, 64)   # R = (a - b)/(a + b) overflowed
@example(-20 + 5j, True)           # ran a 1-node rule
def test_thick_wire_polarization(eps, nodes):
    p = _value_or_typed_error(thick_wire_polarization, eps, nodes)
    if p is None:
        return
    assert type(nodes) is int and 1 <= nodes <= 1024
    assert abs(p) <= 1
    if max(abs(eps.real), abs(eps.imag)) >= 1e20:    # |s| cos(phi) >> 1 at every node
        assert abs(p - 1 / 3) <= 1e-9


@EXAMPLES
@given(COMPLEXES, DOUBLES)
@example(1e308 + 1e308j, 0.3)              # overflow in the divide
@example(complex(math.nan, 1.0), 0.3)      # invalid value
@example(0j, 0.0)                          # R_TE = 0/0
@example(-2.0409321777862246e-101 + 3.302031759926939e-185j, 0.0)    # |R| - 1 = 5e-9
def test_fresnel_coefficients(eps, phi):
    pair = _value_or_typed_error(fresnel_coefficients, eps, phi)
    if pair is None:
        return
    assert abs(phi) < math.pi / 2
    for r in (pair.r_te, pair.r_tm):
        assert cmath.isfinite(complex(r))
        assert abs(r) <= 1 + 1e-12    # a passive surface reflects at most what falls on it


@EXAMPLES
@given(DOUBLES, DOUBLES, DOUBLES, DOUBLES, DOUBLES, DOUBLES, DOUBLES,
       st.integers(), DOUBLES)
@example(1.0, 1.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0, -5.0)    # an empty scan
def test_simulate_scan(i_p, i_u, axis_deg, background, psi, step_deg, noise_rms,
                       seed, span_deg):
    source = _value_or_typed_error(SourceModel, i_p, i_u, axis_deg, background)
    if source is None:
        return
    for polarizer in (None, psi):
        scan = _value_or_typed_error(simulate_scan, source, polarizer_angle_deg=polarizer,
                                     step_deg=step_deg, span_deg=span_deg,
                                     noise_rms=noise_rms, seed=seed)
        if scan is None:
            continue
        assert len(scan.angles_deg) >= 1
        assert np.isfinite(scan.angles_deg).all() and np.isfinite(scan.intensities).all()
        assert np.all(np.diff(scan.angles_deg) > 0)
        if noise_rms == 0:
            assert np.all(scan.intensities >= 0)


@EXAMPLES
@given(st.lists(st.tuples(DOUBLES, DOUBLES), max_size=12), DOUBLES)
@example([(float(t), math.nan) for t in range(0, 180, 15)], 15.0)    # a fit of nans
@example([(float(t), 1.0) for t in range(0, 180, 15)] + [(math.inf, 1.0)], 15.0)
@example([(float(t), 1.0) for t in range(0, 180, 15)], math.nan)     # a nan step
@example([(0.0, 0.0), (0.25, 2.0790686283750144e307), (0.5, 0.0), (1.0, 0.0),
          (10.0, 0.0), (5.036584067966045e107, 0.0)], 1.0)     # A = inf, F = -inf
@example([(-9.9792015476736e291, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0),
          (1.7976931348623157e308, 0.0)], 1.0)                 # the span overflowed
def test_fit_cos_squared(samples, step_deg):
    samples.sort()
    scan = _value_or_typed_error(PolarimeterScan, [t for t, _ in samples],
                                 [i for _, i in samples], step_deg)
    if scan is None:
        return
    assert 0 < scan.step_deg < math.inf
    fit = _value_or_typed_error(fit_cos_squared, scan)
    if fit is None:
        return
    assert all(map(math.isfinite, (fit.amplitude, fit.phase_deg, fit.offset,
                                   fit.residual_rms)))
    assert fit.amplitude >= 0 and 0 <= fit.phase_deg < 180 and fit.residual_rms >= 0


@EXAMPLES
@given(DOUBLES, DOUBLES, DOUBLES, DOUBLES, DOUBLES)
@example(1e308, 1e308, 0.0, 0.0, 0.0)    # P read 0.0
def test_extract_polarization(i_p, i_u, axis_deg, background, noise_rms):
    source = _value_or_typed_error(SourceModel, i_p, i_u, axis_deg, background)
    if source is None:
        return
    scans = [_value_or_typed_error(simulate_scan, source, polarizer_angle_deg=psi,
                                   noise_rms=noise_rms, seed=seed)
             for seed, psi in ((1, axis_deg), (2, axis_deg + 90.0))]
    if None in scans:
        return
    result = _value_or_typed_error(extract_polarization, *scans)
    p_true = _value_or_typed_error(lambda: source.polarization)
    if p_true is not None:
        assert p_true == pytest.approx(_ratio(i_p, i_u), rel=1e-15)
    if result is None:
        return
    assert abs(result.p) <= 1
    if background == noise_rms == 0 and abs(axis_deg) <= 360 and p_true is not None:
        assert result.p == pytest.approx(p_true, abs=1e-9)


@pytest.fixture(scope="module")
def tungsten():
    return model_for_temperature(load_database(), 2400.0)


@EXAMPLES
@given(DOUBLES, st.booleans())
def test_model_for_temperature(temperature_k, include_tentative):
    model = _value_or_typed_error(model_for_temperature, load_database(), temperature_k,
                                  include_tentative)
    if model is not None:
        assert 250 <= temperature_k <= 3400
        assert model.include_tentative is include_tentative
        # the tabulated temperature nearest to the one asked for
        gap = abs(model.temperature_k - temperature_k)
        assert all(gap <= abs(rec.temperature_k - temperature_k) for rec in load_database())


@EXAMPLES
@given(DOUBLES, DOUBLES)
@example(math.nan, 0.5)    # a model at nan K
def test_vacuum_model(temperature_k, wavelength_um):
    model = _value_or_typed_error(vacuum_model, temperature_k)
    if model is None:
        return
    assert 0 < model.temperature_k < math.inf
    eps = _value_or_typed_error(permittivity, model, wavelength_um)
    assert eps is None or eps == 1


@EXAMPLES
@given(DOUBLES, DOUBLES)
@example(0.5, 1e308)    # overflow in exp
@example(1e300, 1e300)  # hc/(lambda kB T) underflowed to 0: log(0)
def test_planck_radiance(wavelength_um, temperature_k):
    e = _value_or_typed_error(planck_radiance, wavelength_um, temperature_k)
    assert e is None or 0 <= e < math.inf


@EXAMPLES
@given(DOUBLES, DOUBLES)
def test_band_filter(lo, hi):
    band = _value_or_typed_error(BandFilter, lo, hi)
    assert band is None or 0 < band.lambda_lo_um < band.lambda_hi_um < math.inf


def _flat_emissivities(lam):
    # e_TE = 2 e_TM at every node, so P = 1/3 whatever the weights
    return np.full(lam.shape, 1.0), np.full(lam.shape, 0.5)


@EXAMPLES
@given(DOUBLES, DOUBLES, DOUBLES, DOUBLES, NODES)
@example(1.0, 1e308, 0.5, 0.75, 64)    # OverflowError: math range error
@example(1.0, 2400.0, 0.5, 0.75, True)
@example(1.0, 1e300, 1e20, 1e300, 2)     # hc/(lambda kB T) underflowed to 0: log(0)
def test_band_averaged_polarization(tungsten, a_um, temperature_k, lo, hi, nodes):
    band = _value_or_typed_error(BandFilter, lo, hi)
    if band is None:
        return
    res = _value_or_typed_error(band_averaged_polarization, a_um, temperature_k, band,
                                tungsten, nodes=nodes, emissivity_fn=_flat_emissivities)
    if res is None:
        return
    assert type(nodes) is int and 2 <= nodes <= 1024
    assert res.p_avg == pytest.approx(1 / 3, abs=1e-15)
    assert 0 <= res.e_tm_bar <= res.e_te_bar < math.inf
    assert 0 <= res.est_quadrature_error <= 1e-6


@EXAMPLES
@given(DOUBLES)
@example(1.6e156)    # -inf + inf i
@example(1e300)      # nan + nan i
def test_permittivity(tungsten, wavelength_um):
    eps = _value_or_typed_error(permittivity, tungsten, wavelength_um)
    assert eps is None or (math.isfinite(eps.real) and 0 <= eps.imag < math.inf)


@EXAMPLES
@given(COMPLEXES)
@example(complex(math.nan, 0.0))
def test_refraction_index(eps):
    n = _value_or_typed_error(refraction_index, eps)
    assert n is None or (math.isfinite(n.real) and 0 <= n.imag < math.inf)


@EXAMPLES
@given(COMPLEXES)
@example(1e-170 + 1e-170j)       # |xD_m - n p_m|^2 overflowed
@example(1.7e308 + 1.7e308j)     # abs(n x) overflowed
def test_emissivity_pair_refraction_index(n):
    pair = _value_or_typed_error(emissivity_pair, 1.0, 1.0, n)
    assert pair is None or (0 <= pair.e_te < math.inf and 0 <= pair.e_tm < math.inf)


@EXAMPLES
@given(DOUBLES, DOUBLES, st.one_of(st.just(3.4 + 2.7j), COMPLEXES))
def test_emissivity_pair(k, a, n):
    pair = _value_or_typed_error(emissivity_pair, k, a, n)
    if pair is not None:
        assert 0 <= pair.e_te < math.inf and 0 <= pair.e_tm < math.inf
        assert 0 <= pair.truncation_error_estimate <= 2.0 ** -52
    p = _value_or_typed_error(linear_polarization, k, a, n)
    assert p is None or abs(p) <= 1
