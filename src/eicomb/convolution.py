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
by e1 (1 - e2) + e2 (1 - e1), which keeps it near the perfect one.  One
array core (_product_rows) forms the points of a batch of reads as rows,
every channel climbing once (_climb), and channel._row_totals adds up every
read: the catalog's and complement_of_convolution's (_read_values), and
Phi(rho(a)) of the sweeps, the fixed-error bounds and phi_of_poly_convolved
(_phi_of_poly_rows).  check_power and check_convolve settle the same points
into a channel.

A measure is an unnormalized (x, w) pair of arrays: convolving two is an
outer product, and a merged sum merges points closer than X_MERGE_TOL in x
to their weighted mean (channel._merge_rows, the sort and merge of
channels carried over to x).  eicomb.optimizer builds its subset sums with
these operations.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterator, Sequence

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
    (eps, _, w), _ = _product_rows(*_channel_rows([a, b]), np.ones(2, dtype=np.int64),
                                   np.arange(2), np.ones(2, dtype=np.int64), np.full(1, 2))
    return _trusted(eps, w)


def projected_power_support(support: int, d: int) -> int:
    """Multiset bound on the merged support of a d-fold self-convolution."""
    return math.comb(d + support - 1, support - 1)


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


def _product_rows(eps: np.ndarray, w: np.ndarray, sizes: np.ndarray, tops: np.ndarray,
                  rows: np.ndarray, degrees: np.ndarray,
                  lengths: np.ndarray) -> tuple[Points, np.ndarray]:
    """The product points (eps, x, w) of a batch of reads, unmerged and back
    to back, and the offsets of each read's points.  Row i is the sizes[i]
    points (eps, w) after those of the rows before it, and tops[i], not
    increasing from row to row, its highest degree read.  Read r convolves
    the next lengths[r] factors rows[f]^[degrees[f]], the first factor
    index-major (no factor: the perfect point); the caller checks its cap.

    Every row climbs once (_climb), keeping the degrees read.  A read's
    factors are a row of a table padded with the perfect point (0, 1, 1),
    whose fold changes no bit; its point t is t's digits in the factors'
    counts, and eps folds by e (1 - f) + f (1 - e), x and w by products.
    """
    wanted = set(degrees.tolist())
    table = np.zeros((2, int(tops[0]) + 1 if tops.size else 1, sizes.size), dtype=np.int64)
    blocks, kept = [], 0  # table[:, k, i]: where row i's points at degree k start, and their count
    for k, points, counts in _climb(eps, w, sizes, tops):
        if k in wanted:
            table[:, k, :counts.size] = kept + counts.cumsum() - counts, counts
            blocks.append(points)
            kept += points[0].size
    reads, m = lengths.size, int(lengths.max(initial=0))
    if rows.size == reads * m > 0:
        first, shape = table[:, degrees, rows]
    else:  # pad each read to m factors with the perfect point, kept last
        m = max(m, 1)
        blocks.append(_PERFECT_POINTS)
        at = lengths.cumsum() - lengths  # each read's first factor
        cell = np.repeat(np.arange(reads) * m - at, lengths) + np.arange(rows.size)
        first, shape = np.full(reads * m, kept), np.ones(reads * m, dtype=np.int64)
        first[cell], shape[cell] = table[:, degrees, rows]
    pe, px, pw = blocks[0] if len(blocks) == 1 else (np.concatenate(v) for v in zip(*blocks))
    first, shape = first.reshape(reads, m), shape.reshape(reads, m)
    n = shape.prod(axis=1)
    off = np.concatenate(([0], n.cumsum()))
    if m == 1 and off[-1] == pe.size and (first[:, 0] == off[:-1]).all():
        return (pe, px, pw), off  # the reads are the kept points in order
    t = np.arange(off[-1]) - np.repeat(off[:-1], n)
    digits = []  # each later factor's point of each product point, the last first
    for j in range(m - 1, 0, -1):
        t, i = np.divmod(t, np.repeat(shape[:, j], n))
        digits.append(i + np.repeat(first[:, j], n))
    i = t + np.repeat(first[:, 0], n)
    e, x, v = pe[i], px[i], pw[i]
    for i in reversed(digits):
        f = pe[i]
        e, x, v = e * (1.0 - f) + f * (1.0 - e), x * px[i], v * pw[i]
    return (e, x, v), off


# A read of a convolution: (tag, kind, factors), kind "phi" for Phi and
# "conv" for 1 - Phi of the convolution of each c^[d] of factors (c, d).
Read = tuple[Functional, str, Sequence[tuple[Channel, int]]]

_CAP_MESSAGES = {
    "phi": "projected support {n} for power {d} exceeds cap {cap}; use series evaluation",
    "conv": "a read of {n} product points exceeds the cap {cap}",
}


def _read_values(reads: Sequence[Read]) -> list[float]:
    """The value of each read, in input order, any tags, kinds and degrees
    in one batch.  Every read is checked before any point is formed: a float
    degree raises TypeError (operator.index), a degree below 1 or E in a
    "conv" read ValueError, and more than DEFAULT_SUPPORT_CAP points
    SupportCapError.  Grouped by (tag, kind), the reads are then one
    _product_rows batch, and a read sums w * Phi(BSC(eps)) (pointwise) for
    "phi", or w * (1 - Phi(BSC(eps))) from the point's eps and x
    (functionals._complement_points, H and B only) for "conv": one per-point
    call per group, and one channel._row_totals for every read (numpy's
    pairwise sum of the read's own points, whatever the batch)."""
    tops: dict[Channel, int] = {}  # each distinct channel's highest degree
    groups: dict[tuple[Functional, str], tuple[list[int], list[Channel], list[int], list[int]]] = {}
    for r, (tag, kind, factors) in enumerate(reads):
        if kind == "conv":
            _series_tag(tag)
        degrees = [operator.index(d) for _, d in factors]
        for d in degrees:
            if d < 1:
                raise ValueError(f"power must be a positive integer, got {d!r}")
        order, chans, degs, lengths = groups.setdefault((tag, kind), ([], [], [], []))
        n = 1
        for (ch, _), d in zip(factors, degrees):
            n *= projected_power_support(ch.eps.size, d)
            tops[ch] = max(d, tops.get(ch, 0))
            chans.append(ch)
        if n > DEFAULT_SUPPORT_CAP:
            raise SupportCapError(_CAP_MESSAGES[kind].format(
                n=n, d=" x ".join(map(str, degrees)), cap=DEFAULT_SUPPORT_CAP))
        order.append(r)
        lengths.append(len(degrees))
        degs += degrees
    chans = sorted(tops, key=tops.get, reverse=True)  # as _climb wants
    row = {ch: i for i, ch in enumerate(chans)}
    order, degs, lengths = (np.array([v for g in groups.values() for v in g[i]], dtype=np.intp)
                            for i in (0, 2, 3))
    rows = np.array([row[ch] for g in groups.values() for ch in g[1]], dtype=np.intp)
    (eps, x, w), off = _product_rows(*_channel_rows(chans), np.array([tops[ch] for ch in chans]),
                                     rows, degs, lengths)
    terms = np.empty(off[-1])
    cuts = off[np.cumsum([0] + [len(g[0]) for g in groups.values()])].tolist()
    for (tag, kind), lo, hi in zip(groups, cuts[:-1], cuts[1:]):
        e = eps[lo:hi]
        terms[lo:hi] = w[lo:hi] * (pointwise(tag, e) if kind == "phi" else _complement_points(tag, e, x[lo:hi]))
    out = np.empty(len(reads))
    out[order] = _row_totals(terms, off)
    return out.tolist()


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
    (eps, _, w), _ = _product_rows(*_channel_rows([a]), np.array([d]), np.zeros(1, dtype=np.intp),
                                   np.array([d]), np.ones(1, dtype=np.intp))
    keep = w > 0.0
    return _trusted(eps[keep], w[keep])


def _channel_rows(chans: Sequence[Channel]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps, w, sizes): the channels' points back to back and each one's
    point count, row r for channel r."""
    sizes = np.fromiter((ch.eps.size for ch in chans), dtype=np.intp, count=len(chans))
    if not chans:
        return np.empty(0), np.empty(0), sizes
    return np.concatenate([ch.eps for ch in chans]), np.concatenate([ch.w for ch in chans]), sizes


def _phi_of_poly_rows(tag: Functional, rho: "Polynomial", eps: np.ndarray, w: np.ndarray,
                      sizes: np.ndarray) -> np.ndarray:
    """Phi(rho(a)) = sum_k c_k Phi(a^[k]) for each row a (rows as
    _product_rows takes them), exactly: one "phi" read per degree of rho and
    row, summed as _read_values sums a read, and the degrees added in
    ascending order from 0.0 (-0.0 with a linear term, so -0.0 + v is v).
    A row's value depends on no other row.  The caller checks the support."""
    degrees = np.array([k for k, _ in rho.terms], dtype=np.int64)
    rows = np.arange(degrees.size * sizes.size) % sizes.size  # a read per (degree, row), degree-major
    (e, _, pw), off = _product_rows(eps, w, sizes, np.full(sizes.size, degrees[-1]), rows,
                                    degrees.repeat(sizes.size), np.ones(rows.size, dtype=np.intp))
    sums = _row_totals(pw * pointwise(tag, e), off).reshape(degrees.size, sizes.size)
    total = np.full(sizes.size, -0.0 if rho.terms[0][0] == 1 else 0.0)
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
    return _phi_of_poly_rows(tag, rho, *_channel_rows(channels)).tolist()


def phi_of_poly_convolved(tag: Functional, rho: "Polynomial", a: Channel) -> float:
    """phi_of_poly_convolved_batch on a batch of one."""
    return phi_of_poly_convolved_batch(tag, rho, [a])[0]
