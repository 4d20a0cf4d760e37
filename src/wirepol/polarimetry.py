"""Simulation and analysis of the rotating-analyzer measurement protocol.

The source is described by a polarized intensity I_P along some axis, an
unpolarized intensity I_U, and an infrared residual that reaches the
detector regardless of the visible-band optics.  The protocol has two
steps:

Step 1 (analyzer only): I(theta) = I_P cos^2(theta - axis) + I_U/2 + bg.
The fitted phase gives the polarization axis theta* of the source.

Step 2 (fixed polarizer + rotating analyzer): with the polarizer at psi
the light reaching the analyzer is fully polarized along psi with
intensity I_P cos^2(psi - axis) + I_U/2, so

    I(theta) = [I_P cos^2(psi - axis) + I_U/2] cos^2(theta - psi) + bg.

Fitting the two scans taken at psi = theta* and psi = theta* + 90 deg
gives amplitudes A_a = I_P + I_U/2 and A_b = I_U/2 (times a common
throughput), hence

    P = (A_a - A_b) / (A_a + A_b) = I_P / (I_P + I_U),

with the infrared residual absorbed into the fitted offsets.  Given theta*,
the phase of each step-2 fit is checked against its polarizer setting,
theta* for scan A and theta* + 90 deg for scan B.  All fits
use the exact linear least squares of the harmonic reparameterization

    A cos^2(theta - theta0) + F = c0 + c1 cos(2 theta) + c2 sin(2 theta),

so no iteration and no starting values are needed.

Angles are degrees at every interface, radians internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DomainError, IdentifiabilityError, RangeError
from .scattering import polarization_of

# Most samples of one simulated rotation: 0.001 deg steps over a full turn.
MAX_SAMPLES = 360_000


@dataclass(frozen=True)
class SourceModel:
    """Partially polarized source plus out-of-band background."""
    i_polarized: float
    i_unpolarized: float
    polarization_axis_deg: float = 0.0
    ir_background: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.i_polarized, self.i_unpolarized,
                                       self.polarization_axis_deg,
                                       self.ir_background))):
            raise DomainError(f"source parameters must be finite: {self}")
        if self.i_polarized < 0 or self.i_unpolarized < 0 or self.ir_background < 0:
            raise DomainError(f"intensities must be >= 0: {self}")

    @property
    def polarization(self) -> float:
        scale = 0.5 if self.i_polarized + self.i_unpolarized == math.inf else 1.0
        i_p, i_u = scale * self.i_polarized, scale * self.i_unpolarized    # exact
        if i_p + i_u <= 0:
            raise DegenerateInputError("dark source: polarization undefined")
        return i_p / (i_p + i_u)


@dataclass(frozen=True)
class PolarimeterScan:
    """(analyzer angle, detector intensity) samples from one rotation."""
    angles_deg: np.ndarray
    intensities: np.ndarray
    step_deg: float

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        intens = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "intensities", intens)
        if angles.ndim != 1 or angles.shape != intens.shape:
            raise DomainError("scan needs matching 1-d angle and intensity arrays")
        if not (np.isfinite(angles).all() and np.isfinite(intens).all()
                and 0 < self.step_deg < math.inf):
            raise DomainError("scan needs finite angles and intensities and a finite step > 0")
        if not np.all(angles[1:] > angles[:-1]):
            raise DomainError("scan angles must be strictly increasing")

    @property
    def span_deg(self) -> float:
        # Python floats: an overflowing span is inf, with no numpy warning
        return float(self.angles_deg[-1]) - float(self.angles_deg[0])


@dataclass(frozen=True)
class CosineSquaredFit:
    """Least-squares parameters of A cos^2(theta - theta0) + F."""
    amplitude: float
    phase_deg: float          # in [0, 180)
    offset: float
    residual_rms: float
    degenerate_phase: bool = False  # amplitude ~ 0, phase meaningless


@dataclass(frozen=True)
class PolarizationExtraction:
    p: float
    fit_a: CosineSquaredFit
    fit_b: CosineSquaredFit
    phase_error_a_deg: float | None
    phase_error_b_deg: float | None
    warnings: tuple[str, ...] = ()


def simulate_scan(source: SourceModel, *, polarizer_angle_deg: float | None = None,
                  step_deg: float = 0.5, span_deg: float = 360.0,
                  noise_rms: float = 0.0, seed: int = 0) -> PolarimeterScan:
    """Synthesize one analyzer rotation.

    ``polarizer_angle_deg = None`` is the analyzer-only step 1; a number
    inserts an ideal fixed polarizer at that angle (step 2).  Noise is
    additive Gaussian per sample with the given rms, deterministic for a
    fixed seed.
    """
    if not 0 < step_deg < math.inf:
        raise DomainError(f"step must be finite and > 0, got {step_deg}")
    if not span_deg > 0:
        raise DomainError(f"span must be > 0, got {span_deg}")
    if not span_deg / step_deg <= MAX_SAMPLES:
        raise DomainError(f"a {span_deg:g} deg span in {step_deg:g} deg steps "
                          f"exceeds {MAX_SAMPLES} samples")
    if not 0 <= noise_rms < math.inf:
        raise DomainError(f"noise rms must be finite and >= 0, got {noise_rms}")
    if polarizer_angle_deg is not None and not math.isfinite(polarizer_angle_deg):
        raise DomainError(f"polarizer angle must be finite, got {polarizer_angle_deg}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not (source.i_polarized + 0.5 * source.i_unpolarized + source.ir_background
            + 10.0 * noise_rms) < math.inf:    # the largest intensity, noise at 10 rms
        raise RangeError(f"simulated intensities overflow: {source}, noise rms {noise_rms:g}")
    theta = np.arange(0.0, span_deg, step_deg)
    axis = math.radians(source.polarization_axis_deg)
    th = np.radians(theta)
    if polarizer_angle_deg is None:
        intensity = (source.i_polarized * np.cos(th - axis) ** 2
                     + 0.5 * source.i_unpolarized + source.ir_background)
    else:
        psi = math.radians(polarizer_angle_deg)
        through = (source.i_polarized * math.cos(psi - axis) ** 2
                   + 0.5 * source.i_unpolarized)
        intensity = through * np.cos(th - psi) ** 2 + source.ir_background
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        intensity = intensity + rng.normal(0.0, noise_rms, size=theta.shape)
    return PolarimeterScan(theta, intensity, step_deg)


def fit_cos_squared(scan: PolarimeterScan) -> CosineSquaredFit:
    """Globally optimal least-squares fit of A cos^2(theta - theta0) + F.

    Linear in (c0, c1, c2) after the double-angle substitution; mapped
    back via A = 2 sqrt(c1^2 + c2^2), theta0 = atan2(c2, c1)/2, and
    F = c0 - A/2.  A constant scan is reported with amplitude 0 and the
    ``degenerate_phase`` flag instead of failing; RangeError where A, F or
    the residual rms is beyond the double range.
    """
    if len(scan.angles_deg) < 6:
        raise IdentifiabilityError(f"need at least 6 samples, got {len(scan.angles_deg)}")
    if scan.span_deg < 90.0:
        raise IdentifiabilityError(
            f"angles span only {scan.span_deg:g} deg; cos^2 parameters are "
            "not identifiable below a 90 deg span")
    two_th = 2.0 * np.radians(scan.angles_deg)
    design = np.column_stack([np.ones_like(two_th), np.cos(two_th), np.sin(two_th)])
    coef, *_ = np.linalg.lstsq(design, scan.intensities, rcond=None)
    c0, c1, c2 = (float(v) for v in coef)
    amplitude = 2.0 * math.hypot(c1, c2)
    if not math.isfinite(c0 - 0.5 * amplitude):    # and so A and c0
        raise RangeError("cos^2 parameters of this scan exceed the double range")
    # quartered (exactly): the fitted curve and the residual may overflow
    # near 1.8e308, their quarters cannot for finite A and F; hypot scales
    resid = 0.25 * scan.intensities - design @ (0.25 * coef)
    rms = 4.0 * math.hypot(*resid.tolist()) / math.sqrt(resid.size)
    if not rms < math.inf:
        raise RangeError("residual rms of this cos^2 fit exceeds the double range")
    scale = max(abs(c0), float(np.max(np.abs(scan.intensities))), 1e-300)
    if amplitude < 1e-12 * scale:
        return CosineSquaredFit(0.0, 0.0, c0, rms, degenerate_phase=True)
    phase = math.degrees(0.5 * math.atan2(c2, c1)) % 180.0
    return CosineSquaredFit(amplitude, phase, c0 - 0.5 * amplitude, rms)


def _phase_distance_deg(a: float, b: float) -> float:
    # distance on the 180-degree circle the cos^2 phase lives on
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def extract_polarization(scan_a: PolarimeterScan, scan_b: PolarimeterScan,
                         theta_star_deg: float | None = None) -> PolarizationExtraction:
    """Linear polarization from a pair of step-2 scans.

    ``scan_a`` must be the scan with the polarizer along the source axis
    theta*, ``scan_b`` the one at theta* + 90 deg.  When ``theta_star_deg``
    is given (from the step-1 fit) the fitted phases are compared against
    it and a warning is recorded above 0.5 deg of discrepancy.
    """
    fit_a = fit_cos_squared(scan_a)
    fit_b = fit_cos_squared(scan_b)
    warnings = []
    errors = {"A": None, "B": None}
    for name, fit, offset in (("A", fit_a, 0.0), ("B", fit_b, 90.0)):
        if theta_star_deg is not None and not fit.degenerate_phase:
            err = errors[name] = _phase_distance_deg(fit.phase_deg, theta_star_deg + offset)
            if err > 0.5:
                warnings.append(f"scan {name} phase off the polarizer setting by {err:.3g} deg")
    return PolarizationExtraction(
        p=polarization_of(fit_a.amplitude, fit_b.amplitude),
        fit_a=fit_a, fit_b=fit_b,
        phase_error_a_deg=errors["A"], phase_error_b_deg=errors["B"],
        warnings=tuple(warnings))


def write_scan(path, scan: PolarimeterScan, header: str = "") -> None:
    """Write a scan as two whitespace-separated columns
    (theta_degrees, intensity); '#' lines are comments."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header.splitlines():
            fh.write(f"# {line}\n")
        fh.write("# columns: theta_degrees intensity\n")
        for theta, value in zip(scan.angles_deg, scan.intensities):
            fh.write(f"{float(theta)!r} {float(value)!r}\n")
