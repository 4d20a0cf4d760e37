"""Thick-wire limit: the angular-average polarization of Fresnel
absorption, used as an independent cross-check on the partial-wave sum.

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
|R| ~ 1 (a good conductor), so no eps is refused as a mirror; this is the
one place the program forms it, and the textbook R lives on as a test
oracle (``tests/oracles.py``).

Where 0 < Re eps < 1, s ~ sqrt(phi_c - phi) has a kink at the critical
angle sin(phi_c) = sqrt(Re eps), at which Gauss-Legendre converges
slowly; there the rule is split at phi_c, one rule per side, each mapped
quadratically so that the kink becomes smooth in the rule's variable.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError
from .spectral import settle


def thick_wire_polarization(eps: complex) -> float:
    """Linear polarization of a wire much thicker than the wavelength.

    The integrands are even in phi, so the quadrature runs on [0, pi/2],
    split at the critical angle where 0 < Re eps < 1; the doubling and
    the rule's scale pi/4 cancel in P.  The node count (per side of the
    split) is the first that ``spectral.settle`` accepts.
    """
    if not (cmath.isfinite(eps) and complex(eps).imag > 0):
        raise DomainError(f"thick-wire limit needs a finite absorber, Im(eps) > 0; got {eps}")
    phi_c = None
    if 0 < complex(eps).real < 1:
        phi_c = math.asin(math.sqrt(complex(eps).real))

    def absorbed(xg, wg):
        if phi_c is None:
            phi, w = (xg + 1.0) * (math.pi / 4.0), wg
        else:
            # each side of the kink as phi_c + h t^2, t from 0 at phi_c to 1,
            # so that s ~ t is smooth; w is |d phi| = |h| t dx over pi/4
            t = 0.5 * (xg + 1.0)
            sides = (-phi_c, math.pi / 2 - phi_c)
            phi = np.concatenate([phi_c + h * t * t for h in sides])
            w = np.concatenate([wg * t * (abs(h) / (math.pi / 4.0)) for h in sides])
        c = np.cos(phi)
        # eps - sin^2, not eps - 1 + cos^2: where |eps| << 1 the latter
        # loses eps; Im eps > 0, so the principal root has Im s >= 0
        s = np.sqrt(eps - np.sin(phi) ** 2)
        # |a|, |s| <= |a + s| for a passive surface; halving keeps |a + s| finite
        a, s = 0.5 * np.array((eps * c, c)), 0.5 * s
        d = np.abs(a + s)
        return [math.fsum(w * c * row) for row in 4.0 * (a / d * (s / d).conjugate()).real]

    return settle(absorbed)[0]
