"""Acceptance criteria for the whole artifact.

Each test prints one ACCEPTANCE line (PASS/FAIL with the measured
numbers) on the real stderr so the verdicts survive pytest capture,
then asserts.  Criteria:

1. band-averaged polarization for four reference diameters at 2400 K,
   each within max(0.003, half a unit in its last quoted digit)
2. consistency with bench measurements at 2400 K, inconsistency at 298 K
3. single sign crossover of P versus size parameter
4. interior maximum of the band average near 3-4 micron diameter
5. partial-wave result matches the specular thick-wire limit
6. structural property checks across all modules
7. byte-determinism of CSV sweeps, including under threading
"""

import math
import sys
import time
from decimal import Decimal

import numpy as np
import pytest
from scipy import constants, integrate, special

from wirepol.asymptotic import thick_wire_polarization
from wirepol.cli import main as cli_main
from wirepol.materials import (
    load_database,
    model_for_temperature,
    permittivity,
    refraction_index,
)
from wirepol.polarimetry import SourceModel, measure
from wirepol.scattering import emissivity_pair, polarization_of
from wirepol.special_functions import hankel1_all_orders
from wirepol.spectral import COMPUTED_BAND, band_averaged_polarization, planck_radiance

from oracles import fresnel_coefficients, transition_amplitude

DB = load_database()
MODEL_HOT = model_for_temperature(DB, 2400.0)
MODEL_COLD = model_for_temperature(DB, 298.0)

# Quoted as strings so that trailing zeros, and with them the precision
# of each reference, survive: "0.20" states only that P lies in
# [0.195, 0.205).
REFERENCE_P = {5.0: "0.2435", 17.0: "0.222", 35.0: "0.209", 100.0: "0.20"}
MEASURED = {5.0: (0.241, 0.005), 17.0: (0.221, 0.003),
            35.0: (0.208, 0.003), 100.0: (0.199, 0.004)}


@pytest.fixture
def report(capfd):
    """One ACCEPTANCE verdict line per criterion, bypassing capture."""
    def _report(criterion: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {criterion}: {verdict} - {detail}",
                  file=sys.stderr)
    return _report


def band_p(diameter_um, temperature_k, model):
    return band_averaged_polarization(diameter_um / 2.0, temperature_k,
                                      COMPUTED_BAND, model).p_avg


def quoted_tolerance(quoted: str) -> float:
    """max(0.003, half a unit in the last digit of the quoted value)."""
    return max(0.003, 0.5 * 10.0 ** Decimal(quoted).as_tuple().exponent)


def test_criterion_1_reference_polarizations(report):
    start = time.perf_counter()
    computed = {d: band_p(d, 2400.0, MODEL_HOT) for d in REFERENCE_P}
    elapsed = time.perf_counter() - start
    gaps = {d: abs(computed[d] - float(q)) for d, q in REFERENCE_P.items()}
    tols = {d: quoted_tolerance(q) for d, q in REFERENCE_P.items()}
    ok = all(gaps[d] <= tols[d] for d in gaps) and elapsed < 10.0
    detail = ", ".join(f"d={d:g}: {computed[d]:.4f} vs {REFERENCE_P[d]} "
                       f"+/- {tols[d]:g} (|gap| {gaps[d]:.4f})"
                       for d in sorted(gaps))
    report(1, ok, f"{detail}; runtime {elapsed:.1f}s")
    assert elapsed < 10.0
    for d, gap in gaps.items():
        assert gap <= tols[d], (
            f"diameter {d:g} um: computed {computed[d]:.4f}, "
            f"reference {REFERENCE_P[d]}, gap {gap:.4f} > {tols[d]:g}")


def test_criterion_2_measurement_consistency(report):
    hot = {d: abs(band_p(d, 2400.0, MODEL_HOT) - p) / s
           for d, (p, s) in MEASURED.items()}
    cold = {d: abs(band_p(d, 2400.0, MODEL_COLD) - p) / s
            for d, (p, s) in MEASURED.items()}
    ok = all(v <= 1.5 for v in hot.values()) and max(cold.values()) > 3.0
    report(2, ok,
           f"2400 K deviations {', '.join(f'{v:.2f}' for v in hot.values())} sigma "
           f"(need <= 1.5); 298 K max {max(cold.values()):.2f} sigma (need > 3)")
    assert all(v <= 1.5 for v in hot.values())
    assert max(cold.values()) > 3.0


def test_criterion_3_sign_crossover(report):
    lam = 0.5
    n = refraction_index(permittivity(MODEL_HOT, lam))
    logs = np.linspace(-2.0, 3.0, 200)
    pairs = [emissivity_pair(2 * math.pi / lam, lam * 10.0 ** g / (2 * math.pi), n)
             for g in logs]
    p = np.array([polarization_of(pair.e_te, pair.e_tm) for pair in pairs])
    crossings = np.nonzero(np.diff(np.sign(p)))[0]
    ok = len(crossings) == 1
    where = float(logs[crossings[0]]) if len(crossings) else math.nan
    ok = ok and -1.0 < where < 1.0
    report(3, ok, f"{len(crossings)} crossing(s), at log10(2 pi a/lambda) "
                  f"= {where:.3f} (need exactly 1 in (-1, 1))")
    assert len(crossings) == 1
    assert -1.0 < where < 1.0


def test_criterion_4_interior_maximum(report):
    diameters = np.arange(1.0, 10.5, 0.5)
    p = np.array([band_p(d, 2400.0, MODEL_HOT) for d in diameters])
    i = int(np.argmax(p))
    interior = 0 < i < len(diameters) - 1
    d_max = float(diameters[i])
    ok = interior and 2.0 <= d_max <= 6.0 and p[i] > p[i - 1] and p[i] > p[i + 1]
    report(4, ok, f"maximum at diameter {d_max:g} um, P = {p[i]:.4f} "
                  f"(need interior max in [2, 6] um)")
    assert interior
    assert 2.0 <= d_max <= 6.0
    assert p[i] > p[i - 1] and p[i] > p[i + 1]


def test_criterion_5_thick_wire_limit(report):
    lam, a = 0.5, 50.0
    eps = permittivity(MODEL_HOT, lam)
    n = refraction_index(eps)
    pair = emissivity_pair(2 * math.pi / lam, a, n)
    p_wave = polarization_of(pair.e_te, pair.e_tm)
    p_limit = thick_wire_polarization(eps)
    gap = abs(p_wave - p_limit)
    ok = gap <= 0.01
    report(5, ok, f"partial-wave {p_wave:.5f} vs specular limit "
                  f"{p_limit:.5f}, |gap| {gap:.5f} (need <= 0.01)")
    assert gap <= 0.01


def test_criterion_6_property_suite(report):
    rng = np.random.default_rng(2026)
    checks = []

    # Wronskian of J and H1, randomized; J from AMOS, as the package's J
    # is built from this identity
    for _ in range(200):
        x = float(rng.uniform(0.1, 400.0))
        m = int(rng.integers(0, 50))
        j_below, j, j_above = special.jv([m - 1, m, m + 1], x)
        h, hp = hankel1_all_orders(m, x)
        w = j * hp[m] - 0.5 * (j_below - j_above) * h[m]
        checks.append(abs(w - 2j / (math.pi * x)) <= 1e-10 * abs(2 / (math.pi * x)))

    # passivity and m-fold symmetry of the transition amplitudes
    k = 2 * math.pi / 0.5
    for _ in range(40):
        a = float(rng.uniform(0.02, 5.0))
        nn = complex(rng.uniform(0.8, 6.0), rng.uniform(0.05, 30.0))
        for m in range(0, 6):
            for i, t in enumerate(transition_amplitude(m, k, a, nn)):
                checks.append(4.0 * (t.real - abs(t) ** 2) >= -1e-12)
                if m:
                    checks.append(
                        transition_amplitude(-m, k, a, nn)[i] == t)

    # Planck integral reproduces the Stefan-Boltzmann law
    t = 2400.0
    total, _ = integrate.quad(lambda lam: planck_radiance(lam, t) * 1e-6,
                              0.05, 2000.0, limit=400)
    checks.append(abs(total - constants.sigma * t ** 4)
                  <= 1e-6 * constants.sigma * t ** 4)

    # Fresnel energy bounds and normal-incidence TE/TM equality
    for _ in range(100):
        eps = complex(rng.uniform(-60, 5), rng.uniform(0.01, 40))
        phi = float(rng.uniform(0, math.pi / 2 - 1e-3))
        pair = fresnel_coefficients(eps, phi)
        checks.append(abs(pair.r_te) <= 1 + 1e-12)
        checks.append(abs(pair.r_tm) <= 1 + 1e-12)
        normal = fresnel_coefficients(eps, 0.0)
        checks.append(abs(abs(normal.r_te) - abs(normal.r_tm)) <= 1e-12)

    # polarimetry noiseless round trip and IR-background invariance
    for p_true in (0.0, 0.208, 0.7, 1.0):
        for bg in (0.0, 4.0):
            source = SourceModel(p_true, polarization_axis_deg=42.0, ir_background=bg)
            got = measure(source)[-1].p
            checks.append(abs(got - p_true) <= 1e-9)

    ok = all(checks)
    report(6, ok, f"{len(checks)} structural property checks, "
                  f"{sum(checks)} passed")
    assert ok


def test_criterion_7_sweep_determinism(tmp_path, capfd, report):
    path = tmp_path / "det.csv"
    args = ["sweep", "--variable", "radius", "--lo", "0.05", "--hi", "3.0",
            "--points", "12", "--spacing", "log", "--wavelength-um", "0.5",
            "-o", str(path)]
    blobs = []
    for extra in ([], [], ["--threads", "3"], ["--threads", "8"]):
        assert cli_main(args + extra) == 0
        capfd.readouterr()
        blobs.append(path.read_bytes())
    ok = all(b == blobs[0] for b in blobs)
    report(7, ok, f"4 runs ({len(blobs[0])} bytes each), threads 1/1/3/8, "
                  f"byte-identical: {ok}")
    assert ok
