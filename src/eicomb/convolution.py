"""Exact check-node convolution of discrete channels.

Crossover parameters combine multiplicatively through x = 1 - 2*eps: the
convolution of mass points (eps, w) and (eps', w') is a mass point at
(1 - (1 - 2*eps)(1 - 2*eps')) / 2 with weight w*w'.  BSC(0) is the
identity, BSC(1/2) is absorbing, and the 2n-th power-moments of x are
multiplicative under the operation.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .channel import Channel, _trusted
from .functionals import Functional, evaluate

if TYPE_CHECKING:
    from .series import Polynomial

DEFAULT_SUPPORT_CAP = 10**6


class SupportCapError(RuntimeError):
    """Raised when a convolution would exceed the support cap.

    Large powers should be evaluated through the series expansion
    (`eicomb.series.phi_series`) instead of explicit convolution.
    """


def check_convolve(a: Channel, b: Channel, cap: int = DEFAULT_SUPPORT_CAP) -> Channel:
    """Check-node convolution of two channels; commutative, exact."""
    n = a.size * b.size
    if n > cap:
        raise SupportCapError(
            f"convolution support {n} exceeds cap {cap}; use series evaluation"
        )
    xa = 1.0 - 2.0 * a.eps
    xb = 1.0 - 2.0 * b.eps
    eps = 0.5 * (1.0 - np.multiply.outer(xa, xb).ravel())
    w = np.multiply.outer(a.w, b.w).ravel()
    return _trusted(eps, w)


def projected_power_support(support: int, d: int) -> int:
    """Multiset bound on the merged support of a d-fold self-convolution."""
    return math.comb(d + support - 1, support - 1)


def check_power(a: Channel, d: int, cap: int = DEFAULT_SUPPORT_CAP) -> Channel:
    """d-fold check-node convolution of a channel with itself (d >= 1).

    Repeated pairwise convolution with point merging keeps multiset-equal
    products collapsed, so two-point channels stay at d+1 points.
    """
    if d < 1:
        raise ValueError(f"power must be a positive integer, got {d!r}")
    if projected_power_support(a.size, d) > cap:
        raise SupportCapError(
            f"projected support {projected_power_support(a.size, d)} for power {d} "
            f"exceeds cap {cap}; use series evaluation"
        )
    out = a
    for _ in range(d - 1):
        out = check_convolve(out, a, cap=cap)
    return out


def phi_of_poly_convolved(tag: Functional, rho: "Polynomial", a: Channel) -> float:
    """Phi(rho(a)) = sum_k c_k Phi(a^[k]) by explicit convolution.

    Exact up to rounding, but limited to supports/degrees the cap allows;
    the series route in `eicomb.series` covers the rest.
    """
    total = 0.0
    power = a
    last = 1
    for k, c in rho.terms:
        if projected_power_support(a.size, k) > DEFAULT_SUPPORT_CAP:
            raise SupportCapError(
                f"polynomial degree {k} on support {a.size} exceeds cap {DEFAULT_SUPPORT_CAP}"
            )
        for _ in range(k - last):
            power = check_convolve(power, a)
        last = k
        total += c * evaluate(tag, power)
    return total
