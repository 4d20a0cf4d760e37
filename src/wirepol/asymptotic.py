"""Thick-wire limit: Fresnel reflection and the angular-average
polarization, used as an independent cross-check on the partial-wave sum.

When a >> lambda the wire surface is locally flat and each surface
element emits like a plane with emissivity 1 - |R|^2 (Kirchhoff).
Averaging over the visible half of the circumference with the
foreshortening weight cos(phi) gives

    P = integral cos(phi) (|R_TM|^2 - |R_TE|^2) dphi
        / integral cos(phi) (2 - |R_TE|^2 - |R_TM|^2) dphi

over phi in (-pi/2, pi/2).  Here TE labels the field orthogonal to the
wire axis, i.e. in the local plane of incidence, so

    R_TE = (eps cos(phi) - s) / (eps cos(phi) + s)
    R_TM = (cos(phi) - s) / (cos(phi) + s),     s = sqrt(eps - 1 + cos^2(phi))

with the square root on the Im >= 0 branch, matching the refraction
index convention used elsewhere in the package.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .spectral import MAX_NODES, gauss_legendre


@dataclass(frozen=True)
class FresnelPair:
    r_te: complex | np.ndarray
    r_tm: complex | np.ndarray


def fresnel_coefficients(eps: complex, phi) -> FresnelPair:
    """Amplitude reflection coefficients at incidence angle phi (radians,
    |phi| < pi/2) off a half-space of permittivity eps.

    phi may be an array of angles; r_te and r_tm then have its shape.
    """
    if not np.all(np.abs(phi) < math.pi / 2):
        raise DomainError(f"incidence angle must satisfy |phi| < pi/2, got {phi}")
    eps = complex(eps)
    c = np.cos(phi)
    s = np.sqrt(eps - 1.0 + c * c)
    s = np.where(s.imag < 0, -s, s)
    r_te = (eps * c - s) / (eps * c + s)
    r_tm = (c - s) / (c + s)
    return FresnelPair(r_te=r_te, r_tm=r_tm)


def thick_wire_polarization(eps: complex, nodes: int = 64) -> float:
    """Linear polarization of a wire much thicker than the wavelength.

    The integrand is even in phi, so the quadrature runs on [0, pi/2]
    and doubles; the doubling cancels between numerator and denominator.
    """
    if not (cmath.isfinite(eps) and complex(eps).imag > 0):
        raise DomainError(f"thick-wire limit needs a finite absorber, Im(eps) > 0; got {eps}")
    if not (isinstance(nodes, numbers.Integral) and 1 <= nodes <= MAX_NODES):
        raise DomainError(f"quadrature needs a node count from 1 to {MAX_NODES}, got {nodes!r}")
    xg, wg = gauss_legendre(nodes)
    phi = (xg + 1.0) * (math.pi / 4.0)
    w = wg * (math.pi / 4.0)
    c = np.cos(phi)
    pair = fresnel_coefficients(eps, phi)
    r_te2 = np.abs(pair.r_te) ** 2
    r_tm2 = np.abs(pair.r_tm) ** 2
    num = math.fsum(w * c * (r_tm2 - r_te2))
    den = math.fsum(w * c * (2.0 - r_te2 - r_tm2))
    if abs(den) < 1e-15:
        raise DegenerateInputError("perfect mirror: emissivity integral vanishes")
    return num / den
