"""Transition amplitudes T_m of the cylinder: the textbook form of the
partial-wave solution, built from the package's own D_m, J_m and H_m, as a
second formulation against which the tests check the Wronskian form that
``wirepol.scattering`` sums.

    T_m(TE) = [J'_m(nx) J_m(x) - n J'_m(x) J_m(nx)]
              / [J'_m(nx) H_m(x) - n J_m(nx) H'_m(x)]

    T_m(TM) = [J_m(nx) J'_m(x) - n J'_m(nx) J_m(x)]
              / [J_m(nx) H'_m(x) - n J'_m(nx) H_m(x)]

with H = H^(1), divided through by J_m(nx) so that only D_m = J'_m/J_m
of the interior argument enters.  Each emissivity term of
``scattering._emissivity_terms`` equals 4 (Re T_m - |T_m|^2).
"""

import numpy as np

from wirepol.errors import ConvergenceError, RangeError
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
        raise ConvergenceError("transition amplitude is not finite",
                               order=m, ka=x, nka=n * x)
    return complex(t_te[0]), complex(t_tm[0])
