"""Exact check-node convolution of discrete channels, and the measure layer
every chain of convolutions runs on.

Crossover parameters combine multiplicatively through x = 1 - 2*eps: the
convolution of mass points (eps, w) and (eps', w') is a mass point at
(1 - (1 - 2*eps)(1 - 2*eps')) / 2 with weight w*w'.  BSC(0) is the
identity, BSC(1/2) is absorbing, and the 2n-th power-moments of x are
multiplicative under the operation.

A measure is an unnormalized (x, w) pair of arrays: convolving two is an
outer product (Richardson & Urbanke, *Modern Coding Theory*, ch. 4), and a
merged sum merges points closer than X_MERGE_TOL in x to their weighted
mean.  A channel's powers are one chain of merged products (_powers):
check_power settles its last measure into a channel, phi_of_poly_convolved
and the inequality catalog read Phi off each (and Phi(a) off the channel).
eicomb.optimizer builds its subset sums with the same operations.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .channel import EPS_MERGE_TOL, Channel, _merge_points, _trusted
from .functionals import Functional, evaluate, pointwise

if TYPE_CHECKING:
    from .series import Polynomial

DEFAULT_SUPPORT_CAP = 10**6

# Measure points closer than this in x = 1 - 2*eps merge: the EPS_MERGE_TOL
# rule of channels, carried over to x.
X_MERGE_TOL = 2.0 * EPS_MERGE_TOL

# An unnormalized weight measure: points x = 1 - 2*eps and their weights.
Measure = tuple[np.ndarray, np.ndarray]

_EMPTY: Measure = (np.empty(0), np.empty(0))
_IDENTITY: Measure = (np.ones(1), np.ones(1))  # BSC(0), the empty convolution


class SupportCapError(RuntimeError):
    """Raised when a convolution would exceed the support cap; large powers
    go through the series expansion (`eicomb.series.phi_series`) instead."""


def _measure(a: Channel) -> Measure:
    return 1.0 - 2.0 * a.eps, a.w


def _settle(m: Measure) -> Channel:
    """The channel of a measure of mass 1, merged and renormalized."""
    return _trusted(0.5 * (1.0 - m[0]), m[1])


def _convolve(a: Measure, b: Measure) -> Measure:
    return np.multiply.outer(a[0], b[0]).ravel(), np.multiply.outer(a[1], b[1]).ravel()


def _merged(x: np.ndarray, w: np.ndarray) -> Measure:
    """Points closer than X_MERGE_TOL merged to their weighted mean.  Zero
    weights (products that underflowed) go first: a run of them has no mean."""
    keep = w > 0.0
    if not keep.all():
        x, w = x[keep], w[keep]
    return _merge_points(x, w, X_MERGE_TOL)


def _merged_sum(parts: Sequence[Measure]) -> Measure:
    """Sum of measures with points closer than X_MERGE_TOL merged."""
    parts = [p for p in parts if p[0].size]
    if not parts:
        return _EMPTY
    return _merged(*(np.concatenate(arrays) for arrays in zip(*parts)))


def _phi(tag: Functional, m: Measure) -> float:
    """Phi of an unnormalized measure: sum_p w_p Phi(BSC((1 - x_p) / 2))."""
    return float(np.dot(m[1], pointwise(tag, 0.5 * (1.0 - m[0]))))


def _check_support(n: int, cap: int) -> None:
    """The memory guard: no product of more than cap points is formed."""
    if n > cap:
        raise SupportCapError(f"convolution support {n} exceeds cap {cap}; use series evaluation")


def check_convolve(a: Channel, b: Channel, cap: int = DEFAULT_SUPPORT_CAP) -> Channel:
    """Check-node convolution of two channels; commutative, exact."""
    _check_support(a.size * b.size, cap)
    return _settle(_convolve(_measure(a), _measure(b)))


def projected_power_support(support: int, d: int) -> int:
    """Multiset bound on the merged support of a d-fold self-convolution."""
    return math.comb(d + support - 1, support - 1)


def _powers(a: Channel, d: int, cap: int = DEFAULT_SUPPORT_CAP) -> Iterator[Measure]:
    """The measures of a^[2], ..., a^[d] (d >= 1), each the merged product
    of the one before with a.  Raises SupportCapError before any convolution
    if the projected support of a^[d] exceeds cap, and before forming any
    product of more than cap points."""
    if d < 1:
        raise ValueError(f"power must be a positive integer, got {d!r}")
    n = projected_power_support(a.size, d)
    if n > cap:
        raise SupportCapError(
            f"projected support {n} for power {d} exceeds cap {cap}; use series evaluation"
        )
    base = power = _measure(a)
    for _ in range(d - 1):
        _check_support(power[0].size * base[0].size, cap)
        power = _merged(*_convolve(power, base))
        yield power


def check_power(a: Channel, d: int, cap: int = DEFAULT_SUPPORT_CAP) -> Channel:
    """d-fold check-node convolution of a channel with itself (d >= 1): the
    power chain's last measure, settled into a channel once."""
    for power in _powers(a, d, cap):
        pass
    return a if d == 1 else _settle(power)


def phi_of_poly_convolved(tag: Functional, rho: "Polynomial", a: Channel) -> float:
    """Phi(rho(a)) = sum_k c_k Phi(a^[k]), read off one power chain up to deg
    rho, whose cap is checked before any convolution; `eicomb.series` covers more.
    Phi(a) is read off the channel in eps, where small crossovers keep precision."""
    coeffs = dict(rho.terms)
    total = coeffs[1] * evaluate(tag, a) if 1 in coeffs else 0.0
    for k, power in enumerate(_powers(a, rho.degree), 2):
        if k in coeffs:
            total += coeffs[k] * _phi(tag, power)
    return total
