"""Planck spectrum and band-averaged polarization."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import constants, integrate, optimize

from wirepol import materials, spectral
from wirepol.asymptotic import thick_wire_polarization
from wirepol.errors import ConvergenceError, DegenerateInputError, DomainError
from wirepol.materials import load_database, model_for_temperature
from wirepol.scattering import polarization_of
from wirepol.spectral import (
    BandFilter,
    COMPUTED_BAND,
    band_averaged_polarization,
    gauss_legendre,
    planck_radiance,
)


def test_si_constants_equal_scipy_codata_bit_for_bit():
    # the evaluation path writes the constants as literals; scipy.constants
    # stays their oracle here
    assert materials.SPEED_OF_LIGHT == constants.c
    assert materials.VACUUM_PERMITTIVITY == constants.epsilon_0
    assert spectral.PLANCK_CONSTANT == constants.h
    assert spectral.BOLTZMANN_CONSTANT == constants.k
    assert materials._2PI_C_EPS0 == 2.0 * math.pi * constants.c * constants.epsilon_0
    assert spectral._LOG_2PI_HC2 == math.log(
        2.0 * math.pi * constants.h * constants.c ** 2 / 1e-30)
    assert spectral._HC_OVER_KB == constants.h * constants.c / constants.k * 1e6


def test_planck_positive_and_finite():
    for lam in (0.2, 0.5, 10.0, 1e3):
        for t in (200.0, 2400.0):
            v = planck_radiance(lam, t)
            assert v > 0.0 and math.isfinite(v)
    # the extreme Wien tail underflows to zero rather than overflowing
    assert planck_radiance(0.01, 100.0) == 0.0


def test_planck_limits():
    # deep Wien tail underflows smoothly, long waves follow Rayleigh-Jeans
    assert planck_radiance(0.05, 300.0) < 1e-200
    lam, t = 1e5, 500.0  # 10 cm
    rj = 2 * math.pi * constants.c * constants.k * t / (lam * 1e-6) ** 4
    assert planck_radiance(lam, t) == pytest.approx(rj, rel=1e-3)


def test_wien_displacement():
    t = 2400.0
    lam_max = optimize.minimize_scalar(
        lambda lam: -planck_radiance(lam, t), bounds=(0.3, 10.0),
        method="bounded").x
    assert lam_max * t == pytest.approx(2897.77, rel=1e-3)


def test_stefan_boltzmann_integral():
    t = 1800.0
    total, _ = integrate.quad(lambda lam: planck_radiance(lam, t) * 1e-6,
                              0.05, 2000.0, limit=400)
    assert total == pytest.approx(constants.sigma * t ** 4, rel=1e-6)


def test_planck_matches_mpmath():
    # one log-space formula for every x = hc / (lambda kB T); the Wien
    # tail past x ~ 700 loses nothing against the 30-digit value
    mpmath = pytest.importorskip("mpmath")
    h, c, k = (mpmath.mpf(repr(v)) for v in (constants.h, constants.c, constants.k))
    with mpmath.workdps(30):
        for lam in np.geomspace(0.2, 100.0, 25):
            for t in np.linspace(250.0, 3400.0, 12):
                lam_m = mpmath.mpf(float(lam)) / 10 ** 6
                exact = (2 * mpmath.pi * h * c ** 2 / lam_m ** 5
                         / mpmath.expm1(h * c / (lam_m * k * mpmath.mpf(float(t)))))
                if exact > mpmath.mpf("1e-300"):
                    value = planck_radiance(float(lam), float(t))
                    assert float(abs(value - exact) / exact) < 2e-13, (lam, t)


def test_planck_domain_errors():
    with pytest.raises(DomainError):
        planck_radiance(-1.0, 300.0)
    with pytest.raises(DomainError):
        planck_radiance(0.5, 0.0)


def test_band_filter_validation():
    with pytest.raises(DomainError):
        BandFilter(0.75, 0.5)
    for lo, hi in ((0.5, math.inf), (math.nan, 0.75), (0.5, math.nan)):
        with pytest.raises(DomainError):
            BandFilter(lo, hi)


@pytest.fixture(scope="module")
def model():
    return model_for_temperature(load_database(), 2400.0)


@pytest.fixture
def emissivities(monkeypatch):
    """``emissivities(fn)`` gives the band ``fn(lambda_um) -> (e_te, e_tm)``
    in place of the kernel's: it takes the array of quadrature wavelengths
    and returns two arrays, or scalars that broadcast, over it."""
    def stand_in(fn):
        def wire_emissivities(a_um, model, wavelengths_um):
            lam = np.array(wavelengths_um)
            e_te, e_tm = np.broadcast_arrays(*fn(lam), lam)[:2]
            return [SimpleNamespace(e_te=te, e_tm=tm) for te, tm in zip(e_te, e_tm)]
        monkeypatch.setattr(spectral, "wire_emissivities", wire_emissivities)
    return stand_in


def test_constant_integrand_is_exact(model, emissivities):
    # with wavelength-independent emissivities the Planck weight cancels
    # and the band average reduces to (e1 - e2) / (e1 + e2)
    emissivities(lambda lam: (0.3, 0.7))
    res = band_averaged_polarization(1.0, 2400.0, COMPUTED_BAND, model)
    assert res.p_avg == pytest.approx((0.3 - 0.7) / (0.3 + 0.7), rel=1e-13)


def test_band_average_is_bracketed(model):
    # the Planck-weighted average must lie between the extreme
    # monochromatic values over the band
    from wirepol.materials import permittivity, refraction_index
    from wirepol.scattering import emissivity_pair
    a = 8.5
    grid = np.linspace(0.5, 0.75, 20)
    pairs = [emissivity_pair(2 * math.pi / lam, a, refraction_index(permittivity(model, lam)))
             for lam in grid]
    p_mono = [polarization_of(pair.e_te, pair.e_tm) for pair in pairs]
    res = band_averaged_polarization(a, 2400.0, COMPUTED_BAND, model)
    assert min(p_mono) - 1e-6 <= res.p_avg <= max(p_mono) + 1e-6


def _fixed_rule_polarization(a_um, temperature_k, band, model, nodes):
    # P of the band on the one Gauss-Legendre rule of ``nodes`` nodes
    integrals = spectral._band_integrals(a_um, temperature_k, band, model,
                                         *gauss_legendre(nodes))
    return polarization_of(*integrals[:2])


def test_node_doubling_agreement(model):
    res = band_averaged_polarization(2.5, 2400.0, COMPUTED_BAND, model)
    assert res.est_quadrature_error < 1e-6 and res.quadrature_nodes == 64
    coarse = _fixed_rule_polarization(2.5, 2400.0, COMPUTED_BAND, model, 32)
    assert coarse == pytest.approx(res.p_avg, abs=1e-8)


# Wide bands whose 64-node rule is not within QUADRATURE_TOLERANCE of the
# 128-node rule: band -> its (temperature, diameter) pairs.  Each settles
# on a larger rule, 128 to 512 nodes
_ALL_BUT_298K_05UM = ((298, 5), (298, 17), (1600, 0.5), (1600, 5), (1600, 17),
                      (2400, 0.5), (2400, 5), (2400, 17))
WIDE_BANDS = [(lo, hi, t, d) for (lo, hi), cases in {
    (0.5, 20): ((298, 17), (1600, 5), (1600, 17), (2400, 5)),
    (0.3, 5): ((1600, 5), (2400, 5)),
    (0.2, 50): _ALL_BUT_298K_05UM,
    (0.1, 100): _ALL_BUT_298K_05UM,
}.items() for t, d in cases]


@pytest.mark.parametrize("lo, hi, temperature_k, diameter_um", WIDE_BANDS,
                         ids=lambda v: f"{v:g}")
def test_wide_band_settles_on_a_larger_rule(lo, hi, temperature_k, diameter_um):
    model = model_for_temperature(load_database(), temperature_k)
    band = BandFilter(lo, hi)
    res = band_averaged_polarization(diameter_um / 2.0, temperature_k, band, model)
    assert res.quadrature_nodes in (128, 256, 512)
    assert res.est_quadrature_error <= spectral.QUADRATURE_TOLERANCE
    reference = _fixed_rule_polarization(diameter_um / 2.0, temperature_k, band, model, 1024)
    assert abs(res.p_avg - reference) <= 1e-6


def test_degenerate_band_average():
    vacuum = materials.DrudePermittivityModel("vacuum", 300.0, (), ())
    with pytest.raises(DegenerateInputError):
        band_averaged_polarization(1.0, 2400.0, COMPUTED_BAND, vacuum)


def test_quadrature_failure_reported(model, emissivities):
    # an adversarial discontinuous integrand defeats every rule up to the
    # largest and must raise rather than return silently
    rng = np.random.default_rng(3)
    rules = []

    def rough(lam):
        rules.append(len(lam))
        v = rng.random(lam.shape)
        return (v, 1.0 - v)

    emissivities(rough)
    with pytest.raises(ConvergenceError, match=r"\(nodes=512\)$"):
        band_averaged_polarization(1.0, 2400.0, COMPUTED_BAND, model)
    assert rules == [64, 128, 256, 512, 1024]
    assert spectral.MAX_NODES == 512


def test_band_where_every_planck_weight_underflows(model):
    # at 300 K the emittance over 1-2 nm is below 1e-2000: every weight
    # underflows, yet the weights scaled to the band's peak give P
    res = band_averaged_polarization(0.5, 300.0, BandFilter(1e-3, 2e-3), model)
    assert math.isfinite(res.p_avg) and abs(res.p_avg) <= 1.0
    assert res.e_te_bar == res.e_tm_bar == 0.0


def test_weights_scaled_to_the_peak_keep_the_units(model, emissivities):
    # e_bar is the integral of E e over the band, whatever the scaling
    band = BandFilter(0.5, 0.75)
    emissivities(lambda lam: (0.3, 0.7))
    res = band_averaged_polarization(1.0, 2400.0, band, model)
    total, _ = integrate.quad(lambda lam: planck_radiance(lam, 2400.0), 0.5, 0.75)
    assert res.e_te_bar == pytest.approx(0.3 * total, rel=1e-13)
    assert res.e_tm_bar == pytest.approx(0.7 * total, rel=1e-13)


def test_invalid_radius(model):
    with pytest.raises(DomainError):
        band_averaged_polarization(0.0, 2400.0, COMPUTED_BAND, model)


def _refuse(lam):
    raise AssertionError("a node was evaluated")


NON_FINITE_INPUTS = {
    **{f"band_T={t}": lambda model, t=t: band_averaged_polarization(
        1.0, t, COMPUTED_BAND, model)
       for t in (0.0, -300.0, math.inf, math.nan)},
    **{f"band_a={a}": lambda model, a=a: band_averaged_polarization(
        a, 2400.0, COMPUTED_BAND, model)
       for a in (math.inf, math.nan)},
    **{f"planck{args}": lambda model, args=args: planck_radiance(*args)
       for args in ((math.nan, 2400.0), (0.5, math.nan), (math.inf, 2400.0),
                    (0.5, math.inf))},
    **{f"thick_eps={eps}": lambda model, eps=eps: thick_wire_polarization(eps)
       for eps in (complex(math.nan, 1.0), complex(-20.0, math.nan),
                   complex(math.inf, 1.0), complex(-20.0, math.inf))},
    "polarization_of(inf, 1)": lambda model: polarization_of(math.inf, 1.0),
}


@pytest.mark.parametrize("call", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS)
def test_non_finite_or_out_of_range_input_is_a_domain_error(model, emissivities, call):
    # a typed error before any node is evaluated, not a traceback, a
    # numpy warning or a nan
    emissivities(_refuse)
    with pytest.raises(DomainError):
        call(model)


@pytest.mark.parametrize("nodes", (2, 64, 128))
def test_gauss_legendre_is_leggauss_built_once(nodes):
    xg, wg = gauss_legendre(nodes)
    fresh_x, fresh_w = np.polynomial.legendre.leggauss(nodes)
    assert xg.tobytes() == fresh_x.tobytes() and wg.tobytes() == fresh_w.tobytes()
    assert gauss_legendre(nodes)[0] is xg and gauss_legendre(nodes)[1] is wg
    # the arrays are shared by every later band: read-only
    with pytest.raises(ValueError):
        xg[0] = 0.0
    with pytest.raises(ValueError):
        wg *= 2.0


def test_band_average_does_not_depend_on_cached_rules(model):
    # this band settles at 128 nodes: the rules of 64, 128 and 256 nodes
    def average():
        return band_averaged_polarization(2.5, 2400.0, BandFilter(0.3, 5.0), model)

    first = average()
    assert first.quadrature_nodes == 128
    assert average() == first
    gauss_legendre.cache_clear()
    assert average() == first
