"""Channel quality functionals E/H/B and the kernels they factor through.

E is the error probability, H the entropy and B the Bhattacharyya value of
a channel; all three are linear in the weight measure, equal 0 for the
perfect channel and reach their maximum (1/2 for E, 1 for H and B) exactly
for the useless channel.  H and B factor through decreasing kernels on
[0, 1]:

    f_H(x) = h2((1 - x) / 2)        f_B(x) = sqrt(1 - x^2)

so that Phi(BSC(eps)) = f_Phi(1 - 2*eps).  E has no such kernel.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .channel import Channel, bec

# Bisection for h2_inv: iteration cap comfortably past double-precision
# resolution of [0, 1/2]; the loop exits early once the midpoint collapses.
_BISECT_MAX_ITER = 120
# h2_inv memo: the area sweep and the descent solve the same few hundred
# entropies over and over.
_H2_INV_CACHE_SIZE = 4096


class Functional(enum.Enum):
    """Selector for the error-probability, entropy or Bhattacharyya value."""

    E = "E"
    H = "H"
    B = "B"


# The functionals with a kernel and series weights.
SERIES_TAGS = (Functional.H, Functional.B)


def _series_tag(tag: Functional) -> Functional:
    """tag, after checking that it is H or B."""
    if tag not in SERIES_TAGS:
        raise ValueError("the error-probability functional has no series weights or kernel")
    return tag


def h2(x: float) -> float:
    """Binary entropy in bits, with h2(0) = h2(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"h2 argument must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def h2_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized binary entropy with the same endpoint convention."""
    x = np.asarray(x, dtype=float)
    q = 1.0 - x
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -x * np.log2(x) - q * np.log2(q)
    return np.where((x > 0.0) & (x < 1.0), val, 0.0)


@functools.lru_cache(maxsize=_H2_INV_CACHE_SIZE)
def h2_inv(y: float) -> float:
    """Unique x in [0, 1/2] with h2(x) = y, by bisection.

    The residual |h2(h2_inv(y)) - y| stays below 1e-12 across [0, 1].
    Results are memoized (a pure float function, so a hit returns the
    value the bisection would).
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"h2_inv argument must lie in [0, 1], got {y!r}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h2(mid) < y:
            lo = mid
        else:
            hi = mid
    return lo if abs(h2(lo) - y) <= abs(h2(hi) - y) else hi


def kernel(tag: Functional, x: float) -> float:
    """The kernel f_Phi(x) on [0, 1] for Phi in {H, B}; decreasing, 1 -> 0."""
    _series_tag(tag)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"kernel argument must lie in [0, 1], got {x!r}")
    if tag is Functional.H:
        return h2((1.0 - x) / 2.0)
    return math.sqrt(max(0.0, 1.0 - x * x))


def kernel_inv(tag: Functional, y: float) -> float:
    """Inverse kernel on [0, 1]: f_H^{-1}(y) = 1 - 2*h2_inv(y), f_B is self-inverse."""
    _series_tag(tag)
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"kernel_inv argument must lie in [0, 1], got {y!r}")
    if tag is Functional.H:
        return 1.0 - 2.0 * h2_inv(y)
    return math.sqrt(max(0.0, 1.0 - y * y))


def pointwise(tag: Functional, eps: np.ndarray) -> np.ndarray:
    """Phi(BSC(eps)) for each crossover probability in an array.

    E(BSC(eps)) = eps, H(BSC(eps)) = h2(eps), B(BSC(eps)) = 2 sqrt(eps (1-eps));
    every functional of a mixture is the weighted sum of these values.
    """
    if tag is Functional.E:
        return eps
    if tag is Functional.H:
        return h2_vec(eps)
    if tag is Functional.B:
        return 2.0 * np.sqrt(eps * (1.0 - eps))
    raise ValueError(f"unknown functional {tag!r}")


def evaluate(tag: Functional, a: Channel) -> float:
    """Closed-form value of the selected functional on a discrete channel."""
    return float(np.dot(a.w, pointwise(tag, a.eps)))


class _Facts(NamedTuple):
    """Phi(BSC(eps)), the eps of the BSC with Phi = t, Phi's largest value
    (the useless channel's) and the BEC with Phi = t."""

    value: Callable[[float], float]
    inverse: Callable[[float], float]
    top: float
    matched_bec: Callable[[float], Channel]


# One entry per functional, read by the descent, the extremal bounds and the
# sampler.  B(BSC(eps)) is pointwise(B, .)'s formula, and its inverse is
# (1 - sqrt(1 - t^2)) / 2 written without the cancellation at small t.
_FACTS = {
    Functional.H: _Facts(h2, h2_inv, 1.0, bec),
    Functional.E: _Facts(lambda e: e, lambda t: t, 0.5, lambda t: bec(2.0 * t)),
    Functional.B: _Facts(lambda e: 2.0 * math.sqrt(e * (1.0 - e)),
                         lambda t: t * t / (2.0 * (1.0 + math.sqrt(1.0 - t * t))), 1.0, bec),
}


def _level_facts(tag: Functional, *levels: float) -> _Facts:
    """tag's entry, after checking that each level lies in [0, top]."""
    facts = _FACTS[tag]
    for level in levels:
        if not 0.0 <= level <= facts.top:
            raise ValueError(f"target {level!r} out of range for {tag.value}")
    return facts


_LN2 = math.log(2.0)

# Columns of the H complement's term table (every point stops by term 30,
# most within the first _H2_FIRST_TERMS) and their n (2n - 1) divisors.
_H2_SERIES_TERMS = 32
_H2_FIRST_TERMS = 8
_H2_SERIES_DENOMS = np.array(
    [n * (2 * n - 1) for n in range(1, _H2_SERIES_TERMS + 1)], dtype=float
)


def _complement_points(tag: Functional, eps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """1 - Phi(BSC(eps)) for each crossover probability eps and its
    x = 1 - 2*eps, carried alongside (a product point's x keeps relative
    precision that 1 - 2*eps would lose), without the cancellation of the
    direct subtraction near eps = 1/2.

    H uses 1 - h2((1-x)/2) = sum_{n>=1} x^(2n) / (2 ln(2) n (2n-1)) where
    |x| < 1/2: it converges at rate x^2 < 1/4, and each point's sum stops at
    its first term below 1e-17 of the partial sum, by term 30 at the
    latest.  For |x| of at least 1/2 the direct subtraction is already well
    conditioned.  B uses the exact square identity
    1 - 2 sqrt(eps (1-eps)) = (x / (sqrt(1-eps) + sqrt(eps)))^2.
    """
    _series_tag(tag)
    if tag is Functional.B:
        root = x / (np.sqrt(1.0 - eps) + np.sqrt(eps))
        return root * root
    out = 1.0 - h2_vec(eps)
    todo = np.flatnonzero(np.abs(x) < 0.5)  # the series points with no stop yet
    # terms x^(2n) by repeated multiplication and their partial sums, in the
    # order of a term-by-term loop, over the first _H2_FIRST_TERMS columns and
    # then all for the points with no stop there (the same bits in both)
    for columns in (_H2_FIRST_TERMS, _H2_SERIES_TERMS):
        if not todo.size:
            break
        terms = np.repeat((x[todo] * x[todo])[:, None], columns, axis=1)
        np.cumprod(terms, axis=1, out=terms)
        totals = np.cumsum(terms / _H2_SERIES_DENOMS[:columns], axis=1)
        hit = terms < 1e-17 * totals
        out[todo] = totals[np.arange(todo.size), hit.argmax(axis=1)] / (2.0 * _LN2)
        todo = todo[~hit.any(axis=1)]
    return out


def complement(tag: Functional, a: Channel) -> float:
    """1 - Phi(a) (the capacity when Phi = H), computed without the
    catastrophic cancellation the direct subtraction suffers for channels
    close to useless: a's terms added by np.add.reduce, numpy's pairwise
    sum, the rule of every read of a convolution, so that a's one-factor
    read (eicomb.series.complement_of_convolution) is this value bit for
    bit."""
    return float(np.add.reduce(a.w * _complement_points(tag, a.eps, 1.0 - 2.0 * a.eps)))
