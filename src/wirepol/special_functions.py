"""Cylinder Bessel and Hankel functions for the scattering code.

Only integer orders m >= 0 are needed, in blocks 0..m_max at the real
exterior argument x = k*a.  H^(1)_m comes from H_0 and H_1, evaluated
here in plain Python (``_hankel1_01``: the power series below x = 2, a
Chebyshev fit of Hankel's integral in 2/x above), and the upward order
recurrence, which is neutral for m < x
and follows the dominant Y_m past m ~ x (for J alone it would be
unstable there).  The derivatives follow from C'_m = (C_{m-1} -
C_{m+1}) / 2 over orders -1..m_max+1.  At the complex
interior argument n*k*a only D_m = J'_m / J_m is computed, by a downward
recurrence from order m_max + 1, seeded there by a continued fraction;
it stays O(1) where J_m(n*k*a) overflows.  J_m(x) (``bessel_j_all_orders``)
follows from H_m(x) and D_m(x) by the Wronskian.

How many orders a sum needs is not decided here: ``scattering`` sizes
every request.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError


# H_0 and H_1 in two regimes of x:
#   x < _SERIES_EDGE: the power series of J and Y (A&S 9.1.10-13);
#   beyond it, H_nu = sqrt(2/(pi x)) e^{i(x - nu pi/2 - pi/4)} (P_nu + i Q_nu),
#   where P_nu + i Q_nu is 1 plus a Chebyshev series in u = 2 _SERIES_EDGE / x - 1
#   that interpolates, at import, Hankel's integral (Watson, Theory of
#   Bessel Functions, 7.2)
#     Gamma(nu+1/2)^-1 int_0^inf e^-s s^(nu-1/2) [(1 + is/(2x))^(nu-1/2) - 1] ds
#   by the trapezoid rule in t = sqrt(s).  The bracket is formed without
#   cancellation, so the integral is good to a few ulp of its own size,
#   which is below 1/x.  P + iQ is analytic in the plane cut along x <= 0,
#   and smooth in 1/x up to 1/x = 0: with 27 terms H is within 5.3e-16 of
#   |H| (40-digit mpmath, x from 2 to 1e8), with 26 only within 6.5e-16.
_SERIES_EDGE = 2.0
_GAMMA_MINUS_LN2 = -0.11593151565841245    # Euler's gamma - ln 2
_RSQRT_PI = 1.0 / math.sqrt(math.pi)
# Most terms of D's continued fraction (about 0.5 s): |z| = 6e5 needs 6.02e5,
# and bundled tungsten (|n| <= 11.8) stays below that up to x = scattering.MAX_ORDER
_FRACTION_TERMS = 10 ** 6


def _series_coefficients(terms: int) -> tuple[tuple[float, ...], ...]:
    """Per power t^k of t = -x^2/4, highest first: 1/k!^2 (J_0),
    -H_k/k!^2 (Y_0), 1/(k!(k+1)!) (J_1) and (H_k + H_{k+1})/(k!(k+1)!)
    (Y_1), with H_k the harmonic numbers; each one correctly rounded."""
    rows = []
    fact, harm = 1, 0    # k!, and H_k * k! as an integer
    for k in range(terms):
        fact1 = fact * (k + 1)
        harm1 = harm * (k + 1) + fact
        rows.append((1 / (fact * fact), -harm / (fact * fact * fact),
                     1 / (fact * fact1),
                     (harm * (k + 1) + harm1) / (fact * fact1 * fact1)))
        fact, harm = fact1, harm1
    return tuple(rows[::-1])


def _hankel_integral(x: float) -> tuple[complex, complex]:
    """P_nu + i Q_nu - 1 for nu = 0, 1 at x >= _SERIES_EDGE, by the
    trapezoid rule in t with step 0.2 to t = 6.4, where e^-t^2 is 1.6e-18;
    the bracket is analytic in |Im t| < sqrt(x), so from x = 2 on the
    rule's error is below rounding.  The node t = 0 adds nothing."""
    iv = 1j / x
    d0 = d1 = 0j
    for j in range(1, 33):
        t = 0.2 * j
        w = 0.4 * _RSQRT_PI * math.exp(-t * t)
        v = 0.5 * t * t * iv        # i t^2 / (2x)
        r = cmath.sqrt(1.0 + v)
        q = v / (1.0 + r)           # r - 1, and (1 + v)^(-1/2) - 1 = -q / r
        d0 -= w * q / r
        d1 += 2.0 * t * t * w * q
    return d0, d1


def _chebyshev_coefficients(terms: int) -> tuple[tuple[complex, complex], ...]:
    """Coefficients c_j, highest first, of the Chebyshev series in u on
    [-1, 1] that interpolates ``_hankel_integral(2 _SERIES_EDGE / (u + 1))``
    at the zeros of T_terms(u); each sum is rounded once (math.fsum)."""
    angles = [math.pi * (k + 0.5) / terms for k in range(terms)]
    values = [_hankel_integral(2.0 * _SERIES_EDGE / (math.cos(a) + 1.0)) for a in angles]
    rows = []
    for j in range(terms):
        weights = [(1.0 if j else 0.5) * 2.0 / terms * math.cos(j * a) for a in angles]
        rows.append(tuple(
            complex(math.fsum(w * v[nu].real for w, v in zip(weights, values)),
                    math.fsum(w * v[nu].imag for w, v in zip(weights, values)))
            for nu in (0, 1)))
    return tuple(rows[::-1])


# at x < 2 the first term left out, t^14 / 14!^2, is below 2e-22
_SERIES = _series_coefficients(14)
_CHEBYSHEV = _chebyshev_coefficients(27)


def _hankel1_01(x: float) -> tuple[complex, complex]:
    """(H^(1)_0(x), H^(1)_1(x)) for a Python float x > 0, in plain Python."""
    if x < _SERIES_EDGE:
        t = -0.25 * x * x
        j0 = y0 = j1 = y1 = 0.0
        for c_j0, c_y0, c_j1, c_y1 in _SERIES:
            j0 = j0 * t + c_j0
            y0 = y0 * t + c_y0
            j1 = j1 * t + c_j1
            y1 = y1 * t + c_y1
        j1 *= 0.5 * x
        log_term = math.log(x) + _GAMMA_MINUS_LN2    # ln(x/2) + gamma
        return (complex(j0, 2.0 / math.pi * (log_term * j0 + y0)),
                complex(j1, 2.0 / math.pi * (log_term * j1 - 0.25 * x * y1)
                        - 2.0 / (math.pi * x)))
    # Clenshaw's recurrence, b_j = 2u b_{j+1} - b_{j+2} + c_j
    u = 2.0 * _SERIES_EDGE / x - 1.0
    u2 = u + u
    b0 = b1 = c0 = c1 = 0j
    for a0, a1 in _CHEBYSHEV[:-1]:
        b0, c0 = u2 * b0 - c0 + a0, b0
        b1, c1 = u2 * b1 - c1 + a1, b1
    a0, a1 = _CHEBYSHEV[-1]
    pq0, pq1 = (u * b0 - c0 + a0) + 1.0, (u * b1 - c1 + a1) + 1.0
    # sqrt(2/(pi x)) e^{i(x - pi/4)} from cos and sin of the exact x
    e = complex(math.cos(x), math.sin(x)) * (1.0 - 1.0j) * (_RSQRT_PI / math.sqrt(x))
    h0, h1 = pq0 * e, pq1 * e
    return h0, complex(h1.imag, -h1.real)    # H_1 carries e^{-i pi/2}


def hankel1_all_orders(m_max: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_m(x) and H^(1)'_m(x) for m = 0..m_max at real x > 0.

    H_0 and H_1 from ``_hankel1_01``, then H_{m+1} = (2m/x) H_m - H_{m-1}
    (Abramowitz & Stegun 9.1.27) from H_{-1} = -H_1, so H'_0 = -H_1 exactly;
    H'_m = (H_{m-1} - H_{m+1}) / 2; nan from the first order that overflows.
    """
    x = float(x)    # numpy scalars would make each step slower and warn
    if x <= 0.0 or not math.isfinite(x):
        raise DomainError(f"hankel1_all_orders: need x > 0, got {x}")
    prev, h = _hankel1_01(x)
    c = [-h, prev, h]
    append = c.append
    for m in range(1, m_max + 1):    # Python complex: cheaper than numpy's
        prev, h = h, 2.0 * m / x * h - prev
        append(h)
    c = np.array(c)
    if not cmath.isfinite(h):    # once inf or nan, H stays so at higher orders
        c[1:][np.logical_or.accumulate(~np.isfinite(c[1:]))] = np.nan
        c[0] = -c[2]    # H_{-1} = -H_1: nan with it, so H'_0 is nan without a warning
    return c[1:-1], 0.5 * (c[:-2] - c[2:])


def bessel_j_log_derivative(z: complex, m_max: int) -> np.ndarray:
    """Logarithmic derivatives D_m(z) = J'_m(z) / J_m(z) for m = 0..m_max.

    r_k = J_{k-1}(z) / J_k(z) at k = m_max + 1 is the continued fraction
    r_k = 2k/z - 1 / r_{k+1}, summed by modified Lentz (Appl. Opt. 15, 668,
    1976) to machine precision; it converges once k passes |z|, at real z
    near k = |z| + 7.3 |z|^(1/3), far sooner where Im z is large.  It
    raises ConvergenceError if it has not converged in _FRACTION_TERMS
    terms (|z| beyond about 10^6 with little absorption), and RangeError
    if 2k/z overflows (subnormal |z|).  From D_k = r_k - k/z the recurrence
    D_{m-1} = (m - 1)/z - 1 / (D_m + m/z), stable downward, runs k steps
    to D_0.  The ratio stays O(1) even when J_m(z) itself
    would overflow (|Im z| large), which is exactly why the scattering
    code works with D rather than with J_m(n*k*a) directly.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("bessel_j_log_derivative: z must be nonzero")
    if not cmath.isfinite(z):
        raise DomainError("bessel_j_log_derivative: non-finite argument")
    zi = 1.0 / z    # plain Python complex: each step multiplies
    top = m_max + 1
    if not cmath.isfinite((2 * top + 2) * zi):    # the fraction's first step
        raise RangeError(f"bessel_j_log_derivative: 2(m_max + 2)/z overflows at z = {z}")
    r = c = 2 * top * zi
    d = 0j
    eps = sys.float_info.epsilon
    for k2 in range(2 * top + 2, 2 * (top + _FRACTION_TERMS) + 2, 2):    # k2 = 2k
        b = k2 * zi
        d = 1.0 / ((b - d) or 1e-300)
        c = (b - 1.0 / c) or 1e-300
        delta = c * d
        r *= delta
        if abs(delta - 1.0) < eps:
            break
    else:
        raise ConvergenceError("continued fraction for J_m / J_(m+1) did not converge "
                               f"in {_FRACTION_TERMS} terms",
                               order=m_max, nka=z)
    above = top * zi
    d = r - above
    # a list append is cheaper per step than numpy item assignment; each
    # m * zi serves two steps
    values = []
    append = values.append
    for m in range(m_max, -1, -1):
        below = m * zi
        d = below - 1.0 / (d + above)
        append(d)
        above = below
    return np.array(values[::-1])


def bessel_j_all_orders(m_max: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """J_m(x) and J'_m(x) for m = 0..m_max at real x > 0, as arrays.  With
    Y = Im H and W = J_m Y'_m - J'_m Y_m = 2/(pi x) (A&S 9.1.16), J_m =
    W / (Y'_m - D_m Y_m), both parts divided by max(|Y_m|, 1) so that none
    overflows, and 0.0 where H_m does; J'_m = (J_{m-1} - J_{m+1}) / 2."""
    h, hp = hankel1_all_orders(m_max + 1, x)    # DomainError unless x > 0
    d = bessel_j_log_derivative(x, m_max + 1).real
    s = np.maximum(np.abs(h.imag), 1.0)    # nan where H overflowed
    j = (2.0 / (math.pi * x) / s) / (hp.imag / s - d * (h.imag / s))
    j[np.isnan(j)] = 0.0
    c = np.concatenate(([-j[1]], j))
    return j[:-1], 0.5 * (c[:-2] - c[2:])
