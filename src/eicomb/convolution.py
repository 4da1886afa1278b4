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
mean.  eicomb.optimizer builds its subset sums with these operations.

A channel's powers are a chain of merged products; all chains of a call
climb together (_chains), one gather-multiply and one segmented merge per
power, each row bit for bit its own chain.  check_power settles a batch of
one.  _phis_of_powers is the one home of Phi(a^[k]) for every k >= 1:
phi_of_poly_convolved_batch and the inequality catalog read every power
there, Phi(a) off the channel in eps and higher powers off the chains.
Every merge, of one measure or of a batch of rows, is channel._merge_rows:
the sort and merge of channels, carried over to x.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .channel import EPS_MERGE_TOL, Channel, _merge_rows, _trusted
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


def _merged(x: np.ndarray, w: np.ndarray, off: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Points closer than X_MERGE_TOL merged to their weighted mean, in each
    row at offsets off (None: one row), by channel._merge_rows: (x, w, off).
    Zero weights (products that underflowed) go first: a run of them has no
    mean."""
    keep = w > 0.0
    if not keep.all():
        x, w = x[keep], w[keep]
        if off is not None:
            off = np.concatenate(([0], keep.cumsum()[off[1:] - 1]))
    return _merge_rows(x, w, off, X_MERGE_TOL)


def _merged_sum(parts: Sequence[Measure]) -> Measure:
    """Sum of measures with points closer than X_MERGE_TOL merged."""
    parts = [p for p in parts if p[0].size]
    if not parts:
        return _EMPTY
    return _merged(*(np.concatenate(arrays) for arrays in zip(*parts)))[:2]


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


def _chains(
    channels: Sequence[Channel], degrees: Sequence[int], cap: int = DEFAULT_SUPPORT_CAP
) -> Iterator[tuple[int, np.ndarray, Measure, np.ndarray]]:
    """Power chains of many channels a_r at once: for k = 2 .. max(degrees),
    (k, rows, measure, offsets), row i of rows (the r with degrees[r] >= k)
    holding the measure of a_r^[k] at measure[offsets[i]:offsets[i+1]].
    The caps are a lone chain's: every row's top power is checked before any
    convolution, and each row's product before it is formed.

    A row's products lie base-point-major (block j is a^[k-1] times point j
    of a), a union of ascending runs for the stable sort, and merge bit for
    bit as np.multiply.outer's would: at k = 2 the layout is a (x) a
    transposed, equal value for value; later, powers ascend and channels
    descend, spaced by about X_MERGE_TOL, so products tie only in
    outer-product order.
    """
    for a, d in zip(channels, degrees):
        if d < 1:
            raise ValueError(f"power must be a positive integer, got {d!r}")
        n = projected_power_support(a.size, d)
        if n > cap:
            raise SupportCapError(
                f"projected support {n} for power {d} exceeds cap {cap}; use series evaluation"
            )
    ends_at = set(degrees)
    degrees = np.asarray(degrees, dtype=np.intp)
    m = np.array([a.size for a in channels], dtype=np.intp)
    point_degree = degrees.repeat(m)
    # _measure of every row at once; _EMPTY keeps an empty batch concatenable
    bx = 1.0 - 2.0 * np.concatenate([a.eps for a in channels] + [_EMPTY[0]])
    bw = np.concatenate([a.w for a in channels] + [_EMPTY[1]])
    rows, cols, x, w = np.arange(m.size), np.arange(bx.size), bx, bw
    off = np.concatenate(([0], m.cumsum()))
    for k in range(2, max(ends_at, default=1) + 1):
        start, n = off[:-1], off[1:] - off[:-1]
        if k - 1 in ends_at:  # rows whose chain ended at k - 1 drop out
            climbing = degrees[rows] >= k
            start, n, rows, m = start[climbing], n[climbing], rows[climbing], m[climbing]
            cols = (point_degree >= k).nonzero()[0]
        sizes = n * m
        if (sizes > cap).any():
            _check_support(int(sizes[sizes > cap][0]), cap)
        blocks = n.repeat(m)
        ends = blocks.cumsum()
        i = np.arange(ends[-1]) + (start.repeat(m) - ends + blocks).repeat(blocks)
        j = cols.repeat(blocks)
        off = np.concatenate(([0], sizes.cumsum()))
        x, w, off = _merged(x[i] * bx[j], w[i] * bw[j], off)
        yield k, rows, (x, w), off


def _phis_of_powers(
    reads: Sequence[tuple[Functional, Channel, Sequence[int]]], cap: int = DEFAULT_SUPPORT_CAP
) -> list[list[float]]:
    """[Phi(a^[k]) for k in ks] of each row (tag, a, ks), ks ascending from
    1: Phi(a) off the channel in eps (evaluate), where small crossovers keep
    precision, and higher powers off one batched chain, entered only when a
    row climbs past 1, with one pointwise call per tag and one dot per value."""
    out = [[evaluate(tag, a)] if 1 in ks else [] for tag, a, ks in reads]
    tops = [max(ks, default=1) for _, _, ks in reads]
    if max(tops, default=1) < 2:
        return out
    parts = []  # (row, x, w) of each power read, in chain order
    for k, rows, (x, w), off in _chains([a for _, a, _ in reads], tops, cap):
        parts += [(r, x[off[i]:off[i + 1]], w[off[i]:off[i + 1]])
                  for i, r in enumerate(rows.tolist()) if k in reads[r][2]]
    for tag in {reads[r][0] for r, _, _ in parts}:
        mine = [part for part in parts if reads[part[0]][0] is tag]
        values = pointwise(tag, 0.5 * (1.0 - np.concatenate([x for _, x, _ in mine])))
        at = 0
        for r, _, w in mine:
            out[r].append(float(np.dot(w, values[at:at + w.size])))
            at += w.size
    return out


def check_power(a: Channel, d: int, cap: int = DEFAULT_SUPPORT_CAP) -> Channel:
    """d-fold check-node convolution of a channel with itself (d >= 1): the
    power chain's last measure, settled into a channel once."""
    for *_, power, _ in _chains([a], [d], cap):
        pass
    return a if d == 1 else _settle(power)


def phi_of_poly_convolved_batch(tag: Functional, rho: "Polynomial",
                                channels: Sequence[Channel]) -> list[float]:
    """Phi(rho(a)) = sum_k c_k Phi(a^[k]) for each channel, every Phi(a^[k])
    from one _phis_of_powers call up to deg rho, whose cap is checked before
    any convolution; `eicomb.series` covers more."""
    ks = [k for k, _ in rho.terms]
    out = []
    for phis in _phis_of_powers([(tag, a, ks) for a in channels]):
        total = -0.0 if ks[0] == 1 else 0.0  # -0.0 + v is v: a linear term starts as is
        for (_, c), phi in zip(rho.terms, phis):
            total += c * phi
        out.append(total)
    return out


def phi_of_poly_convolved(tag: Functional, rho: "Polynomial", a: Channel) -> float:
    """phi_of_poly_convolved_batch on a batch of one."""
    return phi_of_poly_convolved_batch(tag, rho, [a])[0]
