"""Rotating-analyzer polarimeter: simulation, fitting, extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wirepol.errors import (
    DegenerateInputError,
    DomainError,
    IdentifiabilityError,
)
from wirepol.polarimetry import (
    PolarimeterScan,
    SourceModel,
    extract_polarization,
    fit_cos_squared,
    simulate_scan,
    write_scan,
)


def run_protocol(source, noise_rms=0.0, seed=0, step_deg=0.5):
    """The two-step measurement: analyzer-only scan locates the axis,
    then two polarizer-in scans at the axis and 90 degrees away."""
    step1 = simulate_scan(source, noise_rms=noise_rms, seed=seed,
                          step_deg=step_deg)
    theta_star = fit_cos_squared(step1).phase_deg
    scan_a = simulate_scan(source, polarizer_angle_deg=theta_star,
                           noise_rms=noise_rms, seed=seed + 1, step_deg=step_deg)
    scan_b = simulate_scan(source, polarizer_angle_deg=theta_star + 90.0,
                           noise_rms=noise_rms, seed=seed + 2, step_deg=step_deg)
    return extract_polarization(scan_a, scan_b, theta_star_deg=theta_star)


@pytest.mark.parametrize("p_true", [0.0, 0.208, 0.5, 0.93, 1.0])
@pytest.mark.parametrize("axis", [0.0, 30.0, 97.5, 179.0])
def test_noiseless_round_trip(p_true, axis):
    source = SourceModel(p_true, 1.0 - p_true, axis)
    result = run_protocol(source)
    assert result.p == pytest.approx(p_true, abs=1e-12)


def test_ir_background_invariance():
    # the polarizer-in scans modulate to zero at crossed angles, while a
    # constant background only shifts the fitted offset, never A
    base = SourceModel(0.3, 0.7, 25.0, ir_background=0.0)
    lifted = SourceModel(0.3, 0.7, 25.0, ir_background=5.0)
    assert run_protocol(lifted).p == pytest.approx(run_protocol(base).p,
                                                   abs=1e-10)


def test_axis_recovered_by_step_one():
    source = SourceModel(0.4, 0.6, 112.25)
    fit = fit_cos_squared(simulate_scan(source))
    assert fit.phase_deg == pytest.approx(112.25, abs=1e-9)


def test_fit_is_least_squares_optimal():
    # no candidate triple beats the closed-form solution on its own data
    source = SourceModel(0.37, 0.63, 58.0)
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
    source = SourceModel(p_true, 1.0 - p_true, 30.0)
    peak = source.i_polarized + 0.5 * source.i_unpolarized
    values = [run_protocol(source, noise_rms=0.005 * peak, seed=s).p
              for s in range(0, 300, 3)]
    err = np.asarray(values) - p_true
    assert math.sqrt(np.mean(err ** 2)) <= 0.003
    assert abs(np.mean(err)) <= 0.001


def test_seed_determinism():
    source = SourceModel(0.4, 0.6, 10.0)
    a = simulate_scan(source, noise_rms=0.01, seed=42)
    b = simulate_scan(source, noise_rms=0.01, seed=42)
    c = simulate_scan(source, noise_rms=0.01, seed=43)
    assert np.array_equal(a.intensities, b.intensities)
    assert not np.array_equal(a.intensities, c.intensities)


@given(st.floats(0.0, 1.0), st.floats(0.0, 179.9))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(p_true, axis):
    source = SourceModel(p_true, 1.0 - p_true, axis)
    assert run_protocol(source).p == pytest.approx(p_true, abs=1e-9)


def test_extraction_monotone_in_polarized_power():
    # more polarized power in, higher extracted P
    last = -1.0
    for ip in (0.1, 0.3, 0.5, 0.8):
        p = run_protocol(SourceModel(ip, 1.0 - ip, 45.0)).p
        assert p > last
        last = p


def test_unpolarized_source_flags_degenerate_phase():
    scan = simulate_scan(SourceModel(0.0, 1.0))
    fit = fit_cos_squared(scan)
    assert fit.degenerate_phase
    assert fit.amplitude == pytest.approx(0.0, abs=1e-12)


def test_dark_source_rejected():
    with pytest.raises(DegenerateInputError):
        SourceModel(0.0, 0.0).polarization
    with pytest.raises(DomainError):
        SourceModel(-1.0, 1.0)


def test_fit_of_huge_intensities_is_finite():
    # the residual rms of intensities near 1e300 must not overflow
    scan = simulate_scan(SourceModel(1e300, 1.0, 30.0, 1e300), noise_rms=1e299)
    fit = fit_cos_squared(scan)
    assert math.isfinite(fit.residual_rms) and fit.residual_rms > 0


def test_short_scan_not_identifiable():
    source = SourceModel(0.5, 0.5)
    scan = simulate_scan(source, span_deg=45.0)
    with pytest.raises(IdentifiabilityError):
        fit_cos_squared(scan)


def test_too_few_samples():
    scan = PolarimeterScan(np.arange(0.0, 200.0, 50.0),
                           np.ones(4), 50.0)
    with pytest.raises(IdentifiabilityError):
        fit_cos_squared(scan)


def test_misaligned_polarizer_warns():
    # scans actually taken at 23/113 degrees but logged as 20: the fitted
    # phases disagree with the claimed polarizer setting by 3 degrees
    source = SourceModel(0.4, 0.6, 20.0)
    scan_a = simulate_scan(source, polarizer_angle_deg=23.0)
    scan_b = simulate_scan(source, polarizer_angle_deg=113.0)
    result = extract_polarization(scan_a, scan_b, theta_star_deg=20.0)
    assert result.warnings
    assert result.phase_error_a_deg == pytest.approx(3.0, abs=1e-8)
    # when the claimed angle matches reality there is nothing to flag
    clean = extract_polarization(scan_a, scan_b, theta_star_deg=23.0)
    assert not clean.warnings


def test_scan_file_round_trip(tmp_path):
    source = SourceModel(0.35, 0.65, 77.0)
    scan = simulate_scan(source, noise_rms=0.01, seed=5)
    path = tmp_path / "scan.dat"
    write_scan(path, scan, header="bench scan\nsecond comment line")
    angles, intensities = np.loadtxt(path, unpack=True)
    assert np.array_equal(angles, scan.angles_deg)
    assert np.array_equal(intensities, scan.intensities)
    # the written file preserves full precision, so the refit is identical
    back = PolarimeterScan(angles, intensities, scan.step_deg)
    assert fit_cos_squared(back).amplitude == fit_cos_squared(scan).amplitude
