"""Error function and scaled modified Bessel function I0.

Two special functions are needed by the kernels and weight
normalizations: erf/erfc for the truncated-Gaussian mass on [0, inf),
and I0 for the angular integral of the polar-coordinate kernel.  Both
come from `scipy.special`; these wrappers add the package's domain
checks (a non-finite or out-of-domain argument raises DomainError) and
its scalar-in, float-out contract.

I0 is only ever used through its exponentially scaled form
e^{-x} I0(x) (`scipy.special.i0e`), which lives in (0, 1] and decays
like 1/sqrt(2 pi x), so the kernel entry log(2 pi) + log I0(beta
sqrt(rho rho')) - beta(rho+rho')/2 never overflows even at beta of
order 15 where the raw I0 argument reaches several hundred.
"""

import math

import numpy as np
from scipy import special

from .errors import DomainError


def erf(x):
    """Error function of a finite scalar; odd in x, range [-1, 1]."""
    if not math.isfinite(x):
        raise DomainError(f"erf expects a finite argument, got {x!r}")
    return float(special.erf(x))


def erfc(x):
    """Complementary error function with full relative accuracy.

    Computing 1 - erf(x) loses all relative precision once erf(x) is
    close to 1, which matters when erfc sits in a denominator (e.g. the
    mass of a truncated Gaussian whose mode lies far outside the
    domain).  erfc underflows to exactly 0 near x = 27.
    """
    if not math.isfinite(x):
        raise DomainError(f"erfc expects a finite argument, got {x!r}")
    return float(special.erfc(x))


def i0_scaled(x):
    """Exponentially scaled modified Bessel function e^{-x} I0(x).

    Accepts a scalar or array, x >= 0 elementwise.  The value lies in
    (0, 1] and never overflows.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("i0_scaled expects finite arguments")
    if np.any(arr < 0.0):
        raise DomainError("i0_scaled is defined for x >= 0")
    out = special.i0e(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def log_i0_scaled(x):
    """log(e^{-x} I0(x)) = log I0(x) - x, overflow safe for any x >= 0."""
    return np.log(i0_scaled(x))


def log_i0(x):
    """log I0(x), computed as x + log(e^{-x} I0(x)).

    Safe where I0 itself overflows a double (x above about 710).
    """
    arr = np.asarray(x, dtype=float)
    res = arr + np.log(i0_scaled(arr))
    if np.ndim(x) == 0:
        return float(res)
    return res
