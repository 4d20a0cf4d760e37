"""Rotating-analyzer polarimeter: simulation, fitting, extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wirepol.errors import (
    DegenerateInputError,
    DomainError,
    IdentifiabilityError,
    RangeError,
)
from wirepol.polarimetry import (
    PolarimeterScan,
    SourceModel,
    extract_polarization,
    fit_cos_squared,
    measure,
    simulate_scan,
    write_scan,
)


@pytest.mark.parametrize("p_true", [0.0, 0.208, 0.5, 0.93, 1.0])
# 1e20 deg is 280 deg: reduced in radians, the axis would be lost
@pytest.mark.parametrize("axis", [0.0, 30.0, 97.5, 179.0, 1e20])
def test_noiseless_round_trip(p_true, axis):
    *_, result = measure(SourceModel(p_true, polarization_axis_deg=axis))
    assert result.p == pytest.approx(p_true, abs=1e-12)


def test_measure_is_the_two_step_protocol():
    # step 1 locates the axis; the step-2 scans sit at theta* and 90 deg on,
    # each with its own seed after the step-1 seed
    source = SourceModel(0.3, polarization_axis_deg=40.0, ir_background=0.2)
    step1, scan_a, scan_b, result = measure(source, step_deg=1.0, noise_rms=0.01, seed=4)
    theta_star = fit_cos_squared(step1).phase_deg
    assert result.theta_star_deg == theta_star
    for got, polarizer, seed in ((step1, None, 4), (scan_a, theta_star, 5),
                                 (scan_b, theta_star + 90.0, 6)):
        want = simulate_scan(source, polarizer_angle_deg=polarizer, step_deg=1.0,
                             noise_rms=0.01, seed=seed)
        assert np.array_equal(got.intensities, want.intensities)
    assert result == extract_polarization(scan_a, scan_b, theta_star)


def test_source_takes_its_axis_and_background_by_keyword():
    # so that a call written for (I_P, I_U, axis) fails instead of meaning another source
    with pytest.raises(TypeError):
        SourceModel(0.4, 0.6, 112.25)


def test_ir_background_invariance():
    # the polarizer-in scans modulate to zero at crossed angles, while a
    # constant background only shifts the fitted offset, never A
    base = SourceModel(0.3, polarization_axis_deg=25.0, ir_background=0.0)
    lifted = SourceModel(0.3, polarization_axis_deg=25.0, ir_background=5.0)
    assert measure(lifted)[-1].p == pytest.approx(measure(base)[-1].p, abs=1e-10)


def test_signal_lost_in_the_background_is_degenerate():
    # at 1e308 the unit source rounds away: neither step-2 scan is modulated
    with pytest.raises(DegenerateInputError, match="neither step-2 scan is modulated"):
        measure(SourceModel(0.2, ir_background=1e308))


def test_axis_recovered_by_step_one():
    source = SourceModel(0.4, polarization_axis_deg=112.25)
    fit = fit_cos_squared(simulate_scan(source))
    assert fit.phase_deg == pytest.approx(112.25, abs=1e-9)


def test_fit_is_least_squares_optimal():
    # no candidate triple beats the closed-form solution on its own data
    source = SourceModel(0.37, polarization_axis_deg=58.0)
    scan = simulate_scan(source, noise_rms=0.05, seed=11)
    fit = fit_cos_squared(scan)

    def rms(a, th0, f):
        model = a * np.cos(np.radians(scan.angles_deg - th0)) ** 2 + f
        return math.sqrt(np.mean((scan.intensities - model) ** 2))

    best = rms(fit.amplitude, fit.phase_deg, fit.offset)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a = fit.amplitude * (1 + rng.normal(0, 0.05))
        th = fit.phase_deg + rng.normal(0, 2.0)
        f = fit.offset + rng.normal(0, 0.01)
        assert rms(a, th, f) >= best - 1e-12


def test_monte_carlo_noise_spread():
    # 0.5 percent-of-peak noise should leave the extracted value within
    # a few parts in a thousand, matching bench expectations
    p_true = 0.221
    source = SourceModel(p_true, polarization_axis_deg=30.0)
    peak = p_true + 0.5 * (1.0 - p_true)
    values = [measure(source, noise_rms=0.005 * peak, seed=s)[-1].p
              for s in range(0, 300, 3)]
    err = np.asarray(values) - p_true
    assert math.sqrt(np.mean(err ** 2)) <= 0.003
    assert abs(np.mean(err)) <= 0.001


def test_seed_determinism():
    source = SourceModel(0.4, polarization_axis_deg=10.0)
    a = simulate_scan(source, noise_rms=0.01, seed=42)
    b = simulate_scan(source, noise_rms=0.01, seed=42)
    c = simulate_scan(source, noise_rms=0.01, seed=43)
    assert np.array_equal(a.intensities, b.intensities)
    assert not np.array_equal(a.intensities, c.intensities)


@given(st.floats(0.0, 1.0), st.floats(0.0, 179.9))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(p_true, axis):
    source = SourceModel(p_true, polarization_axis_deg=axis)
    assert measure(source)[-1].p == pytest.approx(p_true, abs=1e-9)


def test_extraction_monotone_in_polarized_power():
    # more polarized power in, higher extracted P
    last = -1.0
    for ip in (0.1, 0.3, 0.5, 0.8):
        p = measure(SourceModel(ip, polarization_axis_deg=45.0))[-1].p
        assert p > last
        last = p


def test_unpolarized_source_flags_degenerate_phase():
    # a fit with no amplitude reads exactly 0, and its meaningless phase is
    # not held against the polarizer setting: here it would be 60 deg off
    flat = simulate_scan(SourceModel(0.0))
    fit = fit_cos_squared(flat)
    assert fit.amplitude == 0.0 and fit.phase_deg == 0.0
    source = SourceModel(0.3, polarization_axis_deg=30.0)
    result = extract_polarization(simulate_scan(source, polarizer_angle_deg=30.0), flat,
                                  theta_star_deg=30.0)
    assert result.fit_b.amplitude == 0.0 and result.phase_error_b_deg is None
    assert result.phase_error_a_deg == pytest.approx(0.0, abs=1e-9)
    assert result.warnings == ()


def test_polarization_outside_0_1_is_a_domain_error():
    for p in (-0.1, 1.5, math.nan, -math.inf, math.inf):
        with pytest.raises(DomainError):
            SourceModel(p)
    # and so are a non-finite axis and a negative or non-finite background
    for kwargs in ({"polarization_axis_deg": math.inf}, {"ir_background": -1.0},
                   {"ir_background": math.nan}):
        with pytest.raises(DomainError):
            SourceModel(0.2, **kwargs)


def test_intensities_that_overflow_the_scan_are_a_range_error():
    # the background plus the noise at 10 rms passes the double range
    for background, noise_rms in ((1e308, 1e308), (1.7e308, 1e307)):
        source = SourceModel(0.5, ir_background=background)
        with pytest.raises(RangeError):
            simulate_scan(source, noise_rms=noise_rms)
        simulate_scan(source, noise_rms=noise_rms / 100)


def test_fit_of_huge_intensities_is_finite():
    # the residual rms of intensities near 1e300 must not overflow
    scan = simulate_scan(SourceModel(0.5, polarization_axis_deg=30.0, ir_background=1e300),
                         noise_rms=1e299)
    fit = fit_cos_squared(scan)
    assert math.isfinite(fit.residual_rms) and fit.residual_rms > 0


def test_fit_whose_residual_rms_overflows_is_a_range_error():
    # +-1e308 in turn: A and F stay finite, the rms of 36 residuals does not
    angles = np.arange(0.0, 180.0, 5.0)
    scan = PolarimeterScan(angles, 1e308 * (-1.0) ** np.arange(angles.size))
    with pytest.raises(RangeError, match="residual rms"):
        fit_cos_squared(scan)


def test_polarizer_angle_must_be_finite():
    with pytest.raises(DomainError, match="polarizer angle"):
        simulate_scan(SourceModel(0.5), polarizer_angle_deg=math.nan)


def test_short_scan_not_identifiable():
    # 46 samples, enough for a fit, over 45 deg: a simulated scan is a full
    # turn, so this one is built directly
    angles = np.arange(0.0, 45.5, 1.0)
    scan = PolarimeterScan(angles, 0.5 * np.cos(np.radians(angles)) ** 2 + 0.25)
    with pytest.raises(IdentifiabilityError):
        fit_cos_squared(scan)


def test_too_few_samples():
    scan = PolarimeterScan(np.arange(0.0, 200.0, 50.0), np.ones(4))
    with pytest.raises(IdentifiabilityError):
        fit_cos_squared(scan)


def test_misaligned_polarizer_warns():
    # scans actually taken at 23/113 degrees but logged as 20: the fitted
    # phases disagree with the claimed polarizer setting by 3 degrees
    source = SourceModel(0.4, polarization_axis_deg=20.0)
    scan_a = simulate_scan(source, polarizer_angle_deg=23.0)
    scan_b = simulate_scan(source, polarizer_angle_deg=113.0)
    result = extract_polarization(scan_a, scan_b, theta_star_deg=20.0)
    assert result.warnings
    assert result.phase_error_a_deg == pytest.approx(3.0, abs=1e-8)
    # when the claimed angle matches reality there is nothing to flag
    clean = extract_polarization(scan_a, scan_b, theta_star_deg=23.0)
    assert not clean.warnings


def test_scan_file_round_trip(tmp_path):
    source = SourceModel(0.35, polarization_axis_deg=77.0)
    scan = simulate_scan(source, noise_rms=0.01, seed=5)
    path = tmp_path / "scan.dat"
    write_scan(path, scan, header="bench scan\nsecond comment line")
    angles, intensities = np.loadtxt(path, unpack=True)
    assert np.array_equal(angles, scan.angles_deg)
    assert np.array_equal(intensities, scan.intensities)
    # the written file preserves full precision, so the refit is identical
    back = PolarimeterScan(angles, intensities)
    assert fit_cos_squared(back).amplitude == fit_cos_squared(scan).amplitude
