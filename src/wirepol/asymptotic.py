"""Thick-wire limit: Fresnel reflection and the angular-average
polarization, used as an independent cross-check on the partial-wave sum.

When a >> lambda the wire surface is locally flat and each surface
element emits like a plane with emissivity 1 - |R|^2 (Kirchhoff).
Averaging over the visible half of the circumference with the
foreshortening weight cos(phi) gives e = integral cos(phi) (1 - |R|^2) dphi
over phi in (-pi/2, pi/2) for each polarization, and P from them; the
integrals take the band average's doubling Gauss-Legendre loop
(``spectral.settle``).  TE labels the field orthogonal to the wire axis,
i.e. in the local plane of incidence, so

    R_TE = (eps cos(phi) - s) / (eps cos(phi) + s)
    R_TM = (cos(phi) - s) / (cos(phi) + s),     s = sqrt(eps - sin^2(phi))

with the square root on the Im >= 0 branch, matching the refraction
index convention used elsewhere in the package.  For R = (a - b)/(a + b),
1 - |R|^2 = 4 Re(a conj(b)) / |a + b|^2, which does not cancel where
|R| ~ 1 (a good conductor), so no eps is refused as a mirror.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .spectral import settle


@dataclass(frozen=True)
class FresnelPair:
    r_te: complex | np.ndarray
    r_tm: complex | np.ndarray


def _cos_and_s(eps: complex, phi):
    # eps - sin^2, not eps - 1 + cos^2: where |eps| << 1 the latter loses eps
    c = np.cos(phi)
    s = np.sqrt(eps - np.sin(phi) ** 2)
    return c, np.where(s.imag < 0, -s, s)


def fresnel_coefficients(eps: complex, phi) -> FresnelPair:
    """Amplitude reflection coefficients at incidence angle phi (radians,
    |phi| < pi/2) off a half-space of permittivity eps.

    phi may be an array of angles; r_te and r_tm then have its shape.
    eps must be finite and passive (Im eps >= 0), so |R| <= 1; each ratio
    is formed from quartered (exactly) terms, so that no intermediate of
    the complex division overflows.  R_TE is 0/0, a DegenerateInputError,
    where eps c + s vanishes (eps = 0 at normal incidence).
    """
    if not np.all(np.abs(phi) < math.pi / 2):
        raise DomainError(f"incidence angle must satisfy |phi| < pi/2, got {phi}")
    if not (cmath.isfinite(eps) and complex(eps).imag >= 0):
        raise DomainError(f"Fresnel coefficients need a finite eps with Im(eps) >= 0; got {eps}")
    eps = complex(eps)
    c, s = _cos_and_s(eps, phi)
    a, b, s = 0.25 * eps * c, 0.25 * c, 0.25 * s
    if np.any(a + s == 0):
        raise DegenerateInputError(f"R_TE is 0/0 at eps = {eps}, phi = {phi}")
    return FresnelPair(r_te=(a - s) / (a + s), r_tm=(b - s) / (b + s))


def thick_wire_polarization(eps: complex) -> float:
    """Linear polarization of a wire much thicker than the wavelength.

    The integrands are even in phi, so the quadrature runs on [0, pi/2];
    the doubling and the rule's scale pi/4 cancel in P.  The node count is
    the first that ``spectral.settle`` accepts.
    """
    if not (cmath.isfinite(eps) and complex(eps).imag > 0):
        raise DomainError(f"thick-wire limit needs a finite absorber, Im(eps) > 0; got {eps}")

    def absorbed(xg, wg):
        c, s = _cos_and_s(eps, (xg + 1.0) * (math.pi / 4.0))
        # |a|, |s| <= |a + s| for a passive surface; halving keeps |a + s| finite
        a, s = 0.5 * np.array((eps * c, c)), 0.5 * s
        d = np.abs(a + s)
        return [math.fsum(wg * c * row) for row in 4.0 * (a / d * (s / d).conjugate()).real]

    return settle(absorbed)[0]
