"""Exact check-node convolution of discrete channels: the point layer every
read of a convolution runs on, and the measure layer of the descent.

Crossover parameters combine multiplicatively through x = 1 - 2*eps: the
convolution of mass points (eps, w) and (eps', w') is a mass point at
(1 - (1 - 2*eps)(1 - 2*eps')) / 2 with weight w*w'.  BSC(0) is the
identity, BSC(1/2) is absorbing, and the 2n-th power-moments of x are
multiplicative under the operation.

The point layer forms a convolution's product points exactly, unmerged
(Richardson & Urbanke, *Modern Coding Theory*, ch. 4): c^[d] has one point
per size-d multiset of c's points, weighted by its multinomial
probability, and a product of factors is the outer combination of their
points.  Each point carries eps and x side by side: x multiplies, which
keeps full relative precision near the useless channel, and eps combines
by e1 (1 - e2) + e2 (1 - e1), which keeps it near the perfect one.  The
powers climb on rows of points (_climb).  The inequality catalog's reads,
Phi or 1 - Phi of a convolution, and eicomb.series.complement_of_convolution
go through one evaluator (_read_values); Phi(rho(a)) = sum_k c_k Phi(a^[k])
of many rows is one climb (_phi_of_poly_rows), which the fixed-error
bounds, phi_of_poly_convolved and the small lanes of the moment series of
eicomb.series read; and check_power and check_convolve settle the same
points into a channel.

A measure is an unnormalized (x, w) pair of arrays: convolving two is an
outer product, and a merged sum merges points closer than X_MERGE_TOL in x
to their weighted mean (channel._merge_rows, the sort and merge of
channels carried over to x).  eicomb.optimizer builds its subset sums with
these operations.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .channel import EPS_MERGE_TOL, Channel, _merge_rows, _row_totals, _trusted
from .functionals import Functional, _complement_points, _series_tag, pointwise

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

# Product points: their eps, x = 1 - 2*eps and weights, carried side by side.
Points = tuple[np.ndarray, np.ndarray, np.ndarray]

_PERFECT_POINTS: Points = (np.zeros(1), np.ones(1), np.ones(1))  # the empty convolution


class SupportCapError(RuntimeError):
    """Raised when a convolution, or a read of one, would exceed the support
    cap; Phi of a large power goes through the series expansion
    (`eicomb.series.phi_series`) instead."""


def _measure(a: Channel) -> Measure:
    return 1.0 - 2.0 * a.eps, a.w


def _convolve(a: Measure, b: Measure) -> Measure:
    return np.multiply.outer(a[0], b[0]).ravel(), np.multiply.outer(a[1], b[1]).ravel()


def _merged(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points closer than X_MERGE_TOL merged to their weighted mean, by
    channel._merge_rows.  Zero weights (products that underflowed) go
    first: a run of them has no mean."""
    keep = w > 0.0
    if not keep.all():
        x, w = x[keep], w[keep]
    return _merge_rows(x, w, None, X_MERGE_TOL)[:2]


def _merged_sum(parts: Sequence[Measure]) -> Measure:
    """Sum of measures with points closer than X_MERGE_TOL merged."""
    parts = [p for p in parts if p[0].size]
    if not parts:
        return _EMPTY
    return _merged(*(np.concatenate(arrays) for arrays in zip(*parts)))


def _phi(tag: Functional, m: Measure) -> float:
    """Phi of an unnormalized measure: sum_p w_p Phi(BSC((1 - x_p) / 2))."""
    return float(np.dot(m[1], pointwise(tag, 0.5 * (1.0 - m[0]))))


def check_convolve(a: Channel, b: Channel, cap: int = DEFAULT_SUPPORT_CAP) -> Channel:
    """Check-node convolution of two channels; commutative, exact: the
    product points settled into a channel once.  No product of more than cap
    points is formed."""
    if a.size * b.size > cap:
        raise SupportCapError(
            f"convolution support {a.size * b.size} exceeds cap {cap}; use series evaluation")
    factors = ((a, 1), (b, 1))
    eps, _, w = _product_points(factors, _powers(factors))
    return _trusted(eps, w)


def projected_power_support(support: int, d: int) -> int:
    """Multiset bound on the merged support of a d-fold self-convolution."""
    return math.comb(d + support - 1, support - 1)


def _combined(p: Points, q: Points) -> Points:
    """The product points of two point sets, p's index major."""
    e, f = p[0][:, None], q[0]
    return ((e * (1.0 - f) + f * (1.0 - e)).ravel(),
            np.multiply.outer(p[1], q[1]).ravel(), np.multiply.outer(p[2], q[2]).ravel())


def _climb(eps: np.ndarray, w: np.ndarray, sizes: np.ndarray,
           tops: np.ndarray) -> Iterator[tuple[int, Points, np.ndarray]]:
    """(k, points, counts) for k = 1, 2, ... up to the highest top: the
    points of the k-th power of every row whose top reaches k, one per
    size-k multiset of the row's points in lexicographic order, rows back to
    back, and each row's point count C(size + k - 1, k).  Row i is the
    sizes[i] points (eps, w) after those of the rows before it, and tops
    must not increase from row to row, so the rows that reach k are a
    prefix and a row that has passed its top leaves from the end.  The
    weights need not sum to 1: a point's weight is the product of its
    points' weights times the multiset's multinomial coefficient, and k = 1
    is the rows themselves.

    A multiset of size k extends one of size k - 1 by a point j at or after
    its last: eps folds by e (1 - f) + f (1 - e) and x multiplies in index
    order, and the weight becomes w * w_j * k / r, r being j's multiplicity
    in the new multiset, so a channel's weights (summing to 1) stay
    multinomial probabilities, at most 1, and no weight overflows at any
    degree.  A row's points are the same bits in any batch, and only one
    degree's points are formed at a time.
    """
    x = 1.0 - 2.0 * eps
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = sizes
    yield 1, (eps, x, w), counts
    # each multiset's last point (an index into eps), where its row's points
    # end, and the last point's multiplicity
    last, run = np.arange(eps.size), np.ones(eps.size)
    end = np.repeat(np.cumsum(sizes), sizes)
    e, px, pw = eps, x, w
    for k in range(2, int(tops.max(initial=0)) + 1):
        reach = int(np.count_nonzero(tops >= k))
        if reach < tops.size:
            cut = int(counts[:reach].sum())
            last, end, run, e, px, pw = (v[:cut] for v in (last, end, run, e, px, pw))
        n = end - last  # each multiset's extensions
        ends = n.cumsum()
        first = ends - n  # each multiset's first extension
        last = np.arange(ends[-1]) + (last - first).repeat(n)
        end = end.repeat(n)
        run_k = np.ones(last.size)
        run_k[first] = run + 1.0  # a multiset's first extension repeats its last point
        run, ep, f = run_k, e.repeat(n), eps[last]
        e = ep * (1.0 - f) + f * (1.0 - ep)
        px = px.repeat(n) * x[last]
        pw = pw.repeat(n) * w[last] * k / run
        counts = counts[:reach] * (sizes[:reach] + (k - 1)) // k
        yield k, (e, px, pw), counts


def _powers(requests: Iterable[tuple[Channel, int]]) -> dict[tuple[Channel, int], Points]:
    """The points of c^[d] for each request (c, d), one per size-d multiset
    of c's points in lexicographic order; at d = 1 c's own eps, 1 - 2 eps
    and weights.  Every channel climbs once (_climb), to the highest degree
    any request takes it, and all climb together."""
    requests = set(requests)
    tops: dict[Channel, int] = {}
    wanted: dict[int, list[Channel]] = {}
    out = {}
    for a, d in requests:
        tops[a] = max(d, tops.get(a, 0))
        if d == 1:
            out[a, 1] = a.eps, 1.0 - 2.0 * a.eps, a.w
        else:
            wanted.setdefault(d, []).append(a)
    rows = sorted((a for a in tops if tops[a] > 1), key=tops.get, reverse=True)
    if not rows:
        return out
    index = {a: i for i, a in enumerate(rows)}
    sizes = np.array([a.size for a in rows])
    climb = _climb(np.concatenate([a.eps for a in rows]), np.concatenate([a.w for a in rows]),
                   sizes, np.array([tops[a] for a in rows]))
    for k, points, counts in climb:
        if k in wanted:
            at = np.concatenate(([0], np.cumsum(counts))).tolist()
            for a in wanted[k]:
                i = index[a]
                out[a, k] = tuple(v[at[i]:at[i + 1]] for v in points)
    return out


def _product_points(factors: Sequence[tuple[Channel, int]],
                    powers: dict[tuple[Channel, int], Points]) -> Points:
    """The product points of the convolution of each c^[d] of factors
    (c, d), unmerged, factor by factor in index-major order, from powers
    (_powers of the factors, or of more); the perfect channel's one point
    for no factor.  There are prod_i projected_power_support(c_i.size, d_i)
    of them, which the caller checks against its cap first."""
    parts = [powers[a, d] for a, d in factors]
    return functools.reduce(_combined, parts) if parts else _PERFECT_POINTS


# A read of a convolution: (tag, kind, factors), kind "phi" for Phi and
# "conv" for 1 - Phi of the convolution of each c^[d] of factors (c, d).
Read = tuple[Functional, str, Sequence[tuple[Channel, int]]]

_CAP_MESSAGES = {
    "phi": "projected support {n} for power {d} exceeds cap {cap}; use series evaluation",
    "conv": "a read of {n} product points exceeds the cap {cap}",
}


def _read_values(reads: Sequence[Read]) -> list[float]:
    """The value of each read, in input order, reads of any tag, kind and
    degrees in one batch.

    A read is the sum over its product points (_product_points) of
    w * Phi(BSC(eps)) (pointwise) for "phi", or of w * (1 - Phi(BSC(eps)))
    from the point's carried eps and x (functionals._complement_points, H
    and B only) for "conv": one per-point call per (tag, kind) over every
    point of the batch, and each read's terms added by np.add.reduce of
    its own contiguous slice, numpy's pairwise sum, which depends neither on
    the batch nor on the slice's place in memory, and below 8 terms adds left
    to right from 0.0.  There is no series and no merge, so every term is
    exact to a few ulps.  A read with no factor is the perfect channel.
    Every read is checked before any point is formed: a float degree raises
    TypeError (operator.index), a degree below 1 or E in a "conv" read
    ValueError, and more than DEFAULT_SUPPORT_CAP points SupportCapError.
    """
    rows = []
    for tag, kind, factors in reads:
        if kind == "conv":
            _series_tag(tag)
        row = [(ch, operator.index(d)) for ch, d in factors]
        for _, d in row:
            if d < 1:
                raise ValueError(f"power must be a positive integer, got {d!r}")
        n = math.prod(projected_power_support(ch.size, d) for ch, d in row)
        if n > DEFAULT_SUPPORT_CAP:
            raise SupportCapError(_CAP_MESSAGES[kind].format(
                n=n, d=" x ".join(str(d) for _, d in row), cap=DEFAULT_SUPPORT_CAP))
        rows.append(row)
    powers = _powers(f for row in rows for f in row)  # each channel climbs once
    points = [_product_points(row, powers) for row in rows]
    groups: dict[tuple[Functional, str], list[int]] = {}
    for r, (tag, kind, _) in enumerate(reads):
        groups.setdefault((tag, kind), []).append(r)
    out = [0.0] * len(rows)
    for (tag, kind), mine in groups.items():
        eps, x, w = (np.concatenate([points[r][i] for r in mine]) for i in range(3))
        terms = w * (pointwise(tag, eps) if kind == "phi" else _complement_points(tag, eps, x))
        at = 0
        for r in mine:
            size = points[r][0].size
            out[r] = float(np.add.reduce(terms[at:at + size]))
            at += size
    return out


def check_power(a: Channel, d: int, cap: int = DEFAULT_SUPPORT_CAP) -> Channel:
    """d-fold check-node convolution of a channel with itself (d >= 1): the
    multiset points of a^[d], settled into a channel once (products whose
    weight underflowed to 0 dropped first)."""
    if d < 1:
        raise ValueError(f"power must be a positive integer, got {d!r}")
    n = projected_power_support(a.size, d)
    if n > cap:
        raise SupportCapError(_CAP_MESSAGES["phi"].format(n=n, d=d, cap=cap))
    if d == 1:
        return a
    eps, _, w = _powers([(a, d)])[a, d]
    keep = w > 0.0
    return _trusted(eps[keep], w[keep])


def _channel_rows(chans: Sequence[Channel]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps, w, sizes): the channels' points back to back and each one's
    point count, row r for channel r."""
    sizes = np.fromiter((ch.eps.size for ch in chans), dtype=np.intp, count=len(chans))
    return np.concatenate([ch.eps for ch in chans]), np.concatenate([ch.w for ch in chans]), sizes


def _phi_of_poly_rows(tag: Functional, rho: "Polynomial", eps: np.ndarray, w: np.ndarray,
                      sizes: np.ndarray) -> np.ndarray:
    """Phi(rho(a)) = sum_k c_k Phi(a^[k]) for each row a, row i the sizes[i]
    points (eps, w) after those of the rows before it, exactly: Phi(a^[k])
    is the sum of w * Phi(BSC(eps)) (pointwise) over the multiset points of
    one _climb of every row to rho's degree, each read degree's terms added
    per row by channel._row_totals (numpy's pairwise sum of the row's own
    slice, as _read_values adds a read), and the degrees in ascending order
    from 0.0 (-0.0 with a linear term, so -0.0 + v is v).  A row's value
    depends on no other row.  The caller checks the support."""
    degrees = [k for k, _ in rho.terms]
    read = [(points, counts) for k, points, counts
            in _climb(eps, w, sizes, np.full(sizes.size, degrees[-1])) if k in degrees]
    e, pw = (np.concatenate([points[i] for points, _ in read]) for i in (0, 2))
    off = np.concatenate(([0], np.cumsum(np.concatenate([counts for _, counts in read]))))
    sums = _row_totals(pw * pointwise(tag, e), off).reshape(len(read), sizes.size)
    total = np.full(sizes.size, -0.0 if degrees[0] == 1 else 0.0)
    for (_, c), by_row in zip(rho.terms, sums):
        total = total + c * by_row
    return total


def phi_of_poly_convolved_batch(tag: Functional, rho: "Polynomial",
                                channels: Sequence[Channel]) -> list[float]:
    """Phi(rho(a)) = sum_k c_k Phi(a^[k]) for each channel: _phi_of_poly_rows
    on the channels' rows, every degree's support checked against
    DEFAULT_SUPPORT_CAP before any point is formed; `eicomb.series` covers
    more."""
    for a in channels:
        for k, _ in rho.terms:
            n = projected_power_support(a.size, k)
            if n > DEFAULT_SUPPORT_CAP:
                raise SupportCapError(_CAP_MESSAGES["phi"].format(n=n, d=k, cap=DEFAULT_SUPPORT_CAP))
    if not channels:
        return []
    return _phi_of_poly_rows(tag, rho, *_channel_rows(channels)).tolist()


def phi_of_poly_convolved(tag: Functional, rho: "Polynomial", a: Channel) -> float:
    """phi_of_poly_convolved_batch on a batch of one."""
    return phi_of_poly_convolved_batch(tag, rho, [a])[0]
