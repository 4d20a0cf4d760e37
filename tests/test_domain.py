"""One domain contract for the functions that form P and for the ones that
feed them: every argument is drawn from the whole double range
(subnormals, +-0, +-inf, nan, and complex numbers built from them), and
each call gives a finite, admissible value or raises a WirepolError.
pytest turns every warning into an error, so none may escape either."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wirepol import (
    SourceModel,
    WirepolError,
    emissivity_pair,
    extract_polarization,
    load_database,
    model_for_temperature,
    permittivity,
    polarization_of,
    refraction_index,
    simulate_scan,
    thick_wire_polarization,
)

DOUBLES = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
COMPLEXES = st.builds(complex, DOUBLES, DOUBLES)
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
@given(COMPLEXES)
@example(1e20j)                # 1 - |R|^2 cancelled: 3.8e-7 off
@example(-1e200 + 1e190j)      # refused as a perfect mirror
@example(1.7e308 + 1.7e308j)   # R = (a - b)/(a + b) overflowed
def test_thick_wire_polarization(eps):
    p = _value_or_typed_error(thick_wire_polarization, eps)
    if p is None:
        return
    assert abs(p) <= 1
    if max(abs(eps.real), abs(eps.imag)) >= 1e20:    # |s| cos(phi) >> 1 at every node
        assert abs(p - 1 / 3) <= 1e-9


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
