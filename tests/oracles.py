"""Second formulations of what the package computes, kept as test oracles:
the textbook forms, against which the tests check the forms that the
program uses.

Transition amplitudes T_m of the cylinder: the textbook form of the
partial-wave solution, built from the package's own D_m, J_m and H_m,
against the Wronskian form that ``wirepol.scattering`` sums.

    T_m(TE) = [J'_m(nx) J_m(x) - n J'_m(x) J_m(nx)]
              / [J'_m(nx) H_m(x) - n J_m(nx) H'_m(x)]

    T_m(TM) = [J_m(nx) J'_m(x) - n J'_m(nx) J_m(x)]
              / [J_m(nx) H'_m(x) - n J'_m(nx) H_m(x)]

with H = H^(1), divided through by J_m(nx) so that only D_m = J'_m/J_m
of the interior argument enters.  Each emissivity term of
``scattering._emissivity_terms`` equals 4 (Re T_m - |T_m|^2).

Fresnel reflection coefficients R = (a - b)/(a + b) of a half-space, the
textbook form of the absorption 1 - |R|^2 that
``wirepol.asymptotic.thick_wire_polarization`` forms without cancellation
as 4 Re(a conj(b)) / |a + b|^2.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from wirepol.errors import ConvergenceError, DegenerateInputError, DomainError, RangeError
from wirepol.scattering import MAX_ORDER, _check_inputs
from wirepol.special_functions import (
    bessel_j_all_orders,
    bessel_j_log_derivative,
    hankel1_all_orders,
)


def transition_amplitude(m: int, k: float, a: float,
                         n: complex) -> tuple[complex, complex]:
    """Transition amplitudes (T_m(TE), T_m(TM)) of one order.

    T_{-m} = T_m by parity, so negative orders map to |m|.  A wire with
    n = 1 is indistinguishable from vacuum and yields exactly 0.
    """
    _check_inputs(k, a, n)
    n = complex(n)
    m = abs(int(m))
    if m > MAX_ORDER:
        raise RangeError(f"order |m|={m} exceeds ceiling {MAX_ORDER}")
    if n == 1.0:
        return 0.0j, 0.0j
    x = k * a
    # one-element arrays: numpy's array and scalar complex arithmetic
    # may round differently
    d = bessel_j_log_derivative(n * x, m)[m:]
    j, jp = (c[m:] for c in bessel_j_all_orders(m, x))
    h, hp = (c[m:] for c in hankel1_all_orders(m, x))
    # the Hankel block is nan where H_m(x) overflows; there J_m(x) and
    # J'_m(x) have underflowed, and |T_m| <~ |J_m / H_m| < 1e-600 is 0
    if not (np.isfinite(h[0]) and np.isfinite(hp[0])):
        return 0.0j, 0.0j
    t_te = (d * j - n * jp) / (d * h - n * hp)
    t_tm = (jp - n * d * j) / (hp - n * d * h)
    if not (np.isfinite(t_te[0]) and np.isfinite(t_tm[0])):
        raise ConvergenceError("transition amplitude is not finite "
                               f"(order={m}, ka={x}, nka={n * x})")
    return complex(t_te[0]), complex(t_tm[0])


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
