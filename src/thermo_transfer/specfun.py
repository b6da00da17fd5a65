"""Complementary error function and scaled modified Bessel functions I0 and I1.

erfc gives the truncated-Gaussian mass on [0, inf), I0 the angular
integral of the polar-coordinate kernel and I1 = I0' the DNLS hopping
energy.  All come from `scipy.special`; these wrappers add the
package's domain checks (a non-finite or out-of-domain argument raises
DomainError) and its scalar-in, float-out contract.  The chain and
cylinder call none of them, so `scipy.special` is imported on a
wrapper's first call, not with this module.

I0 and I1 are only used in their exponentially scaled forms e^{-x} I(x)
(`scipy.special.i0e`, `i1e`), which live in [0, 1] and decay like
1/sqrt(2 pi x), so the kernel entry log(2 pi) + log I0(beta
sqrt(rho rho')) - beta(rho+rho')/2 never overflows even at beta of
order 15 where the raw I0 argument reaches several hundred.
"""

import math

import numpy as np

from .errors import DomainError


def erfc(x):
    """Complementary error function with full relative accuracy.

    Computing 1 - erf(x) loses all relative precision once erf(x) is
    close to 1, which matters when erfc sits in a denominator (e.g. the
    mass of a truncated Gaussian whose mode lies far outside the
    domain).  erfc underflows to exactly 0 near x = 27.
    """
    if not math.isfinite(x):
        raise DomainError(f"erfc expects a finite argument, got {x!r}")
    from scipy.special import erfc as _erfc

    return float(_erfc(x))


def _scaled_bessel(fn, name, x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} expects finite arguments")
    if np.any(arr < 0.0):
        raise DomainError(f"{name} is defined for x >= 0")
    out = fn(arr)
    return float(out) if np.ndim(x) == 0 else out


def i0_scaled(x):
    """Exponentially scaled modified Bessel function e^{-x} I0(x).

    Accepts a scalar or array, x >= 0 elementwise.  The value lies in
    (0, 1] and never overflows.
    """
    from scipy.special import i0e

    return _scaled_bessel(i0e, "i0_scaled", x)


def i1_scaled(x):
    """e^{-x} I1(x) with the contract of i0_scaled; in [0, 0.22)."""
    from scipy.special import i1e

    return _scaled_bessel(i1e, "i1_scaled", x)


def log_i0(x):
    """log I0(x), computed as x + log(e^{-x} I0(x)).

    Safe where I0 itself overflows a double (x above about 710).
    """
    arr = np.asarray(x, dtype=float)
    res = arr + np.log(i0_scaled(arr))
    if np.ndim(x) == 0:
        return float(res)
    return res
