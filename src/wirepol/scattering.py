"""Partial-wave scattering by an infinite homogeneous cylinder at normal
incidence, and the per-wavelength emission quantities that follow from it
via Kirchhoff's law.

For a wire of radius a, size parameter x = k*a and complex refraction
index n, the transition amplitudes of angular momentum m are

    T_m(TE) = [J'_m(nx) J_m(x) - n J'_m(x) J_m(nx)]
              / [J'_m(nx) H_m(x) - n J_m(nx) H'_m(x)]

    T_m(TM) = [J_m(nx) J'_m(x) - n J'_m(nx) J_m(x)]
              / [J_m(nx) H'_m(x) - n J'_m(nx) H_m(x)]

with H = H^(1).  TE means the electric field lies in the plane
orthogonal to the wire axis, TM means it is parallel to the wire.  The
code divides numerator and denominator by J_m(nx) and works with the
logarithmic derivative D_m = J'_m/J_m, which stays O(1) where J_m(nx)
itself would overflow (thick absorbing wires).

What the code calls the per-polarization emissivity is the folded sum

    e = 4 * sum_m [Re(T_m) - |T_m|^2] = 2x * Q_abs,   T_{-m} = T_m,

that is 2x times the absorption efficiency Q_abs, which Kirchhoff's law
equates with the emissivity.  The factor 2x cancels in the linear
polarization P = (e_TE - e_TM) / (e_TE + e_TM) (``polarization_of``),
positive when the emitted field is polarized orthogonally to the wire.
The band average in ``spectral`` weights by this sum, not by Q_abs;
which of the two weights is intended is an open question (CHANGES.md).

Re(T) - |T|^2 cancels where a partial wave is barely absorbed
(Re T ~ |T|^2), so the sum is taken in the equivalent Wronskian form,
with W = J Y' - J' Y = 2/(pi x), which needs only D_m, H_m and H'_m:

    TE:  4 [Re T_m - |T_m|^2] = -4W Im(D_m conj(n)) / |D_m H_m - n H'_m|^2
    TM:  4 [Re T_m - |T_m|^2] = -4W Im(n D_m)       / |H'_m - n D_m H_m|^2

Each term is >= 0 for Im n >= 0 (a rounding-level negative is clipped to
0) and exactly 0 for a lossless (real) n.  H'_m comes from the order
recurrence (``special_functions``): one AMOS call per block of orders.

All functions are pure; sweeps over (k, a) may be parallelized freely.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, DomainError
from .special_functions import (
    bessel_j_all_orders,
    bessel_j_log_derivative,
    hankel1_all_orders,
)

DEFAULT_TOL = 1e-10

class Polarization(enum.Enum):
    TE = "TE"
    TM = "TM"

    @classmethod
    def coerce(cls, value) -> "Polarization":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise DomainError(f"unknown polarization {value!r}") from None


@dataclass(frozen=True)
class WireGeometry:
    """Wire radius plus the optional lengths entering the far-field check."""
    radius_um: float
    length_mm: float | None = None
    observation_distance_m: float | None = None

    def __post_init__(self):
        if self.radius_um <= 0:
            raise DomainError(f"wire radius must be > 0, got {self.radius_um}")


@dataclass(frozen=True)
class TransitionAmplitude:
    order: int
    polarization: Polarization
    value: complex


@dataclass(frozen=True)
class PolarizedEmissivity:
    """Emissivity sum e = 4 sum_m (Re T_m - |T_m|^2) = 2x * Q_abs (x = ka)
    for one or both polarizations; divide by 2x for Q_abs.

    truncation_error_estimate is relative to the emissivity magnitude and
    is bounded by the tolerance the sum was requested with.
    """
    e_te: float | None
    e_tm: float | None
    terms_used: int
    truncation_error_estimate: float


@dataclass(frozen=True)
class FarFieldCheck:
    valid: bool
    lower_ratio: float   # (lambda * r) / a^2
    upper_ratio: float   # l^2 / (lambda * r)


def order_ceiling(x: float, n: complex) -> int:
    """Hard ceiling on the partial-wave order, m ~ max(|n|, 1) x plus an
    Airy transition margin: the sum runs to m ~ x even where |n| < 1."""
    nx = max(abs(n), 1.0) * x
    return max(int(math.ceil(nx)) + int(math.ceil(10.0 * nx ** (1.0 / 3.0))) + 20, 5)


def _check_inputs(k: float, a: float, n: complex) -> None:
    if k <= 0 or not math.isfinite(k):
        raise DomainError(f"wavenumber k must be > 0, got {k}")
    if a <= 0 or not math.isfinite(a):
        raise DomainError(f"radius a must be > 0, got {a}")
    if complex(n).imag < 0:
        raise DomainError(f"refraction index must have Im(n) >= 0, got {n}")


def _amplitude_block(x: float, n: complex, d: np.ndarray,
                     m_lo: int, m_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """T_m(TE), T_m(TM) for m = m_lo..m_hi (inclusive) as arrays."""
    j, jp = bessel_j_all_orders(m_hi, x, m_lo)
    h, hp = hankel1_all_orders(m_hi, x, m_lo)
    db = d[m_lo:m_hi + 1]
    t_te = (db * j - n * jp) / (db * h - n * hp)
    t_tm = (jp - n * db * j) / (hp - n * db * h)
    return t_te, t_tm


def transition_amplitude(m: int, polarization, k: float, a: float,
                         n: complex) -> TransitionAmplitude:
    """Transition amplitude T_m for one order and polarization.

    T_{-m} = T_m by parity, so negative orders map to |m|.  A wire with
    n = 1 is indistinguishable from vacuum and yields exactly 0.
    """
    polarization = Polarization.coerce(polarization)
    _check_inputs(k, a, n)
    n = complex(n)
    m = abs(int(m))
    if n == 1.0:
        return TransitionAmplitude(m, polarization, 0.0j)
    x = k * a
    try:
        d = bessel_j_log_derivative(n * x, m)
        t_te, t_tm = _amplitude_block(x, n, d, m, m)
    except (OverflowError, FloatingPointError) as exc:
        raise ConvergenceError(f"transition amplitude failed: {exc}",
                               order=m, ka=x, nka=n * x) from exc
    value = complex(t_te[0] if polarization is Polarization.TE else t_tm[0])
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConvergenceError("transition amplitude is not finite",
                               order=m, ka=x, nka=n * x)
    return TransitionAmplitude(m, polarization, value)


def _emissivity_terms(k: float, a: float, n: complex,
                      tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-order emissivity terms 4(Re T - |T|^2) for both polarizations,
    in the Wronskian form of the module docstring, truncated adaptively.

    Returns (terms_te, terms_tm, relative_truncation_estimate) where the
    arrays run over m = 0..M.  Truncation: stop once three consecutive
    orders have both polarization terms below tol * (|partial| + 1e-300).
    The Hankel functions come in blocks: the first ends at Wiscombe's
    bound x + 4x^(1/3) plus a margin of 8, which the sum rarely passes;
    only while the rule has not fired is a block of 4x^(1/3) + 8 more
    orders added, and the rule is applied again to orders 0..m_hi.
    """
    x = k * a
    n = complex(n)
    m_ceil = order_ceiling(x, n)
    d = bessel_j_log_derivative(n * x, m_ceil)
    w4 = 8.0 / (math.pi * x)            # 4W, W = J Y' - J' Y = 2 / (pi x)
    airy = 4.0 * x ** (1.0 / 3.0)
    h = hp = np.empty(0, dtype=complex)
    m_lo, m_hi = 0, int(x + airy) + 8
    while True:
        m_hi = min(m_hi, m_ceil)
        h_blk, hp_blk = hankel1_all_orders(m_hi, x, m_lo)
        h, hp = np.concatenate((h, h_blk)), np.concatenate((hp, hp_blk))
        db = d[:m_hi + 1]
        den_te = db * h - n * hp
        den_tm = hp - n * db * h
        # >= 0 in exact arithmetic for Im n >= 0; rounding in D_m can give
        # a term far below the sum's resolution the wrong sign, so clip
        terms_te = np.maximum(-w4 * (db * n.conjugate()).imag
                              / (den_te.real ** 2 + den_te.imag ** 2), 0.0)
        terms_tm = np.maximum(-w4 * (n * db).imag
                              / (den_tm.real ** 2 + den_tm.imag ** 2), 0.0)
        finite = np.isfinite(terms_te) & np.isfinite(terms_tm)
        if not finite.all():
            raise ConvergenceError("non-finite partial-wave term",
                                   order=int(np.argmax(~finite)), ka=x, nka=n * x)
        # np.cumsum adds in order, as a running += over the terms would;
        # terms and partial sums are >= 0, so |.| of the rule is the value
        weight = np.full(m_hi + 1, 2.0)
        weight[0] = 1.0
        total = np.cumsum(weight * terms_te) + np.cumsum(weight * terms_tm) + 1e-300
        scale = tol * total
        small = (terms_te < scale) & (terms_tm < scale)
        hits = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
        if hits.size:
            m = hits[0] + 2
            tail = max(terms_te[m - 2:m + 1].max(), terms_tm[m - 2:m + 1].max())
            est = float(tail / total[m])
            return terms_te[:m + 1], terms_tm[:m + 1], est
        if m_hi == m_ceil:
            raise ConvergenceError(
                f"partial-wave sum did not converge within m_max = {m_ceil}",
                order=m_ceil, ka=x, nka=n * x,
                last_term=max(terms_te[-1], terms_tm[-1]))
        m_lo, m_hi = m_hi + 1, m_hi + int(airy) + 8


def _fold(terms: np.ndarray) -> float:
    # fixed-order compensated reduction: deterministic regardless of how
    # callers parallelize around this
    return math.fsum([terms[0], *(2.0 * terms[1:])])


def emissivity_pair(k: float, a: float, n: complex,
                    tol: float = DEFAULT_TOL) -> PolarizedEmissivity:
    """Both polarized emissivity sums e = 4 sum_m (Re T_m - |T_m|^2) at
    wavenumber k (inverse micron) for a wire of radius a (micron) and
    refraction index n.

    Each sum is 2x * Q_abs with x = ka, not the absorption efficiency
    Q_abs itself.  The band average weights by these sums; whether it
    should weight by Q_abs is an open question (CHANGES.md).
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be > 0, got {tol}")
    _check_inputs(k, a, n)
    if complex(n) == 1.0:
        return PolarizedEmissivity(0.0, 0.0, 0, 0.0)
    terms_te, terms_tm, est = _emissivity_terms(k, a, n, tol)
    return PolarizedEmissivity(_fold(terms_te), _fold(terms_tm),
                               len(terms_te), est)


def emissivity(polarization, k: float, a: float, n: complex,
               tol: float = DEFAULT_TOL) -> PolarizedEmissivity:
    """Emissivity for a single polarization; the other side is None."""
    polarization = Polarization.coerce(polarization)
    pair = emissivity_pair(k, a, n, tol)
    if polarization is Polarization.TE:
        return PolarizedEmissivity(pair.e_te, None, pair.terms_used,
                                   pair.truncation_error_estimate)
    return PolarizedEmissivity(None, pair.e_tm, pair.terms_used,
                               pair.truncation_error_estimate)


def polarization_of(e_te: float, e_tm: float) -> float:
    """P = (e_TE - e_TM) / (e_TE + e_TM), for one wavelength or for
    band-averaged emissivities alike.

    Raises DegenerateInputError unless e_TE + e_TM > 0: a vacuum wire
    emits nothing, and P is then undefined.
    """
    total = e_te + e_tm
    if not total > 0:
        raise DegenerateInputError(
            "both emissivities vanish (vacuum wire?); polarization undefined")
    return (e_te - e_tm) / total


def linear_polarization(k: float, a: float, n: complex,
                        tol: float = DEFAULT_TOL) -> float:
    """P = (e_TE - e_TM) / (e_TE + e_TM) at a single wavenumber."""
    pair = emissivity_pair(k, a, n, tol)
    return polarization_of(pair.e_te, pair.e_tm)


def validate_far_field(geom: WireGeometry, wavelength_um: float,
                       margin: float = 10.0) -> FarFieldCheck:
    """Check the far-field condition a^2 << lambda*r << l^2.

    True iff a^2 * margin <= lambda*r and lambda*r * margin <= l^2;
    margin = 1 reduces to the non-strict ordering.
    """
    if geom.length_mm is None or geom.observation_distance_m is None:
        raise DomainError("far-field check needs wire length and observation distance")
    if wavelength_um <= 0:
        raise DomainError(f"wavelength must be > 0, got {wavelength_um}")
    a2 = (geom.radius_um * 1e-6) ** 2
    l2 = (geom.length_mm * 1e-3) ** 2
    lam_r = wavelength_um * 1e-6 * geom.observation_distance_m
    valid = (a2 * margin <= lam_r) and (lam_r * margin <= l2)
    return FarFieldCheck(valid,
                         lower_ratio=lam_r / a2,
                         upper_ratio=l2 / lam_r if lam_r > 0 else math.inf)
