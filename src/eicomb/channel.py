"""Discrete BMS channels represented as finite mixtures of BSC mass points.

A channel is a probability measure on crossover probabilities eps in
[0, 1/2]: a sorted list of (eps, weight) pairs with weights summing to 1.
BSC(eps) is a single mass point, BEC(h) puts mass 1-h at 0 and mass h at
1/2, and every linear functional of a mixture is the mixture of the
functionals.  All values are immutable; every operation returns a new
channel.

Every channel settles by one rule: sort by eps, merge points closer than
EPS_MERGE_TOL, drop weights below WEIGHT_DROP_TOL and renormalize.
_settle_rows applies it to a batch of rows, concatenated with offsets, each
row bit for bit what Channel(...) gives alone; Channel(...), mix and the
random sampler's draws and mixtures are its batches, and the measure layer
of eicomb.convolution shares its sort and merge (_merge_rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Mass points closer than this (in crossover probability) are merged.
EPS_MERGE_TOL = 1e-12
# Weights below this are dropped after merging ...
WEIGHT_DROP_TOL = 1e-15
# ... provided the total dropped mass stays below this.
WEIGHT_SUM_TOL = 1e-12
# Documents may be off by this much in total weight; they are renormalized.
PARSE_WEIGHT_SUM_TOL = 1e-9


class ChannelError(ValueError):
    """Invalid channel data (out-of-range points, bad weights)."""


class ChannelFormatError(ChannelError):
    """Malformed channel document; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _row_totals(w: np.ndarray, off: np.ndarray) -> np.ndarray:
    """w[off[i]:off[i+1]].sum() of each row i, bit for bit.

    np.add.reduceat adds a segment's first entry to the pairwise sum of the
    rest, where a sum starts from 0.0; so a 0.0 leads each row.
    """
    starts = off[:-1] + np.arange(off.size - 1)  # where each row's 0.0 goes
    led = np.zeros(w.size + starts.size)
    points = np.ones(led.size, dtype=bool)
    points[starts] = False
    led[points] = w
    return np.add.reduceat(led, starts)


def _merge_rows(
    v: np.ndarray, w: np.ndarray, off: np.ndarray | None, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sort each row by v (stable) and merge runs of points closer than tol.

    Rows are concatenated, row i at v[off[i]:off[i+1]] and none empty; off
    None is one row, sorted plainly.  Returns the merged (v, w, off).
    Bit-identical values merge losslessly; nearby ones merge to their
    weighted mean so functionals move by at most O(tol).  The weights must
    be positive for the mean to stay inside the run.
    """
    rows = off is not None and off.size > 2
    key = v
    if rows:  # sort by (row, v)
        key = np.empty(v.size, dtype=complex)
        key.real = np.arange(off.size - 1).repeat(off[1:] - off[:-1])
        key.imag = v
    order = key.argsort(kind="stable")
    v = v[order]  # fancy indexing copies
    w = w[order]
    split = v[1:] - v[:-1] > tol
    if rows:
        split[off[1:-1] - 1] = True
    if split.all():
        return v, w, off
    starts = np.flatnonzero(np.concatenate(([True], split)))
    ends = np.concatenate((starts[1:], [v.size]))
    w_merged = np.add.reduceat(w, starts)
    v_merged = v[starts]  # a run of equal values keeps its value
    np.divide(np.add.reduceat(v * w, starts), w_merged, out=v_merged,
              where=v_merged != v[ends - 1])
    return v_merged, w_merged, None if off is None else starts.searchsorted(off)


def _settle_rows(
    eps: np.ndarray, w: np.ndarray, off: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Channel's settle on each row of concatenated points, rows at offsets
    off (None: one row): merge, drop near-zero weights, renormalize.

    Returns the settled (eps, w, off).  A row that would lose more than
    WEIGHT_SUM_TOL of mass, or every point, raises the ChannelError of
    Channel(...); the first such row in order raises.  One row takes the
    plain path (its sums are the same bits).
    """
    if off is not None and off.size == 2:
        eps, w, _ = _settle_rows(eps, w)
        return eps, w, np.array([0, eps.size])
    eps, w, off = _merge_rows(eps, w, off, EPS_MERGE_TOL)
    keep = w >= WEIGHT_DROP_TOL
    if off is None:
        if not keep.all():
            _check_drop(float(w[~keep].sum()), keep.any())
            eps, w = eps[keep], w[keep]
        return eps, w / w.sum(), None
    if not keep.all():
        kept = np.concatenate(([0], keep.cumsum()))[off]
        dropped = _row_totals(w[~keep], off - kept)
        empty = kept[1:] == kept[:-1]
        bad = (dropped > WEIGHT_SUM_TOL) | empty
        if bad.any():
            first = int(bad.argmax())
            _check_drop(float(dropped[first]), not empty[first])
        eps, w, off = eps[keep], w[keep], kept
    return eps, w / _row_totals(w, off).repeat(off[1:] - off[:-1]), off


def _check_drop(dropped: float, left: bool) -> None:
    """The weight drop's two checks: the mass it loses, and what is left."""
    if dropped > WEIGHT_SUM_TOL:
        raise ChannelError(f"dropping near-zero weights would lose mass {dropped!r}")
    if not left:
        raise ChannelError("no mass points left after merging")


@dataclass(frozen=True, eq=False)
class Channel:
    """Finite BSC mixture; construction sorts, merges and validates points."""

    eps: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float).ravel()
        w = np.asarray(self.w, dtype=float).ravel()
        if eps.size == 0 or eps.size != w.size:
            raise ChannelError("channel needs matching, non-empty eps/weight arrays")
        if not np.all(np.isfinite(eps)) or not np.all(np.isfinite(w)):
            raise ChannelError("channel points must be finite")
        if eps.min() < 0.0 or eps.max() > 0.5:
            raise ChannelError(f"crossover probabilities must lie in [0, 1/2], got {eps}")
        if w.min() <= 0.0:
            raise ChannelError("weights must be positive")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ChannelError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        self._settle(eps, w)

    def _settle(self, eps: np.ndarray, w: np.ndarray) -> None:
        """Merge, drop near-zero weights, renormalize and freeze the points:
        _settle_rows on a batch of one."""
        eps, w, _ = _settle_rows(eps, w)
        self._freeze(eps, w)

    def _freeze(self, eps: np.ndarray, w: np.ndarray) -> None:
        """Make settled points read-only and the channel's own."""
        eps.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "w", w)

    @property
    def size(self) -> int:
        return int(self.eps.size)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(e), float(v)) for e, v in zip(self.eps, self.w))

    def approx_eq(self, other: "Channel", tol: float = 1e-12) -> bool:
        """Same support and weights within tol (supports already merged)."""
        if self.size != other.size:
            return False
        return bool(
            np.all(np.abs(self.eps - other.eps) <= tol)
            and np.all(np.abs(self.w - other.w) <= tol)
        )

    def __repr__(self) -> str:
        pts = ", ".join(f"({e:.6g}, {v:.6g})" for e, v in self.points)
        return f"Channel[{pts}]"


def _trusted(eps: np.ndarray, w: np.ndarray) -> Channel:
    """Channel from the float arrays of an internal result, skipping the
    input-domain checks of Channel(...).

    For convolutions, whose points lie in [0, 1/2] with nonnegative weights
    summing to 1 by construction.
    Merging, the weight drop with its checks and the renormalization are
    those of Channel(...), so on valid input the result is the same bit for
    bit; a weight that underflowed to zero is dropped with the tiny ones.
    """
    out = object.__new__(Channel)
    out._settle(eps, w)
    return out


def _channels(eps: np.ndarray, w: np.ndarray, off: np.ndarray,
              rows: np.ndarray | None = None) -> list[Channel]:
    """The channel of each row _settle_rows settled (or of the rows listed);
    only freezes them.  The rows are views of the batch, which is made
    read-only once."""
    eps.flags.writeable = False
    w.flags.writeable = False
    at = off.tolist()
    spans = zip(at[:-1], at[1:]) if rows is None else ((at[i], at[i + 1]) for i in rows.tolist())
    out = []
    for lo, hi in spans:
        a = object.__new__(Channel)
        object.__setattr__(a, "eps", eps[lo:hi])
        object.__setattr__(a, "w", w[lo:hi])
        out.append(a)
    return out


def channel(points: Iterable[tuple[float, float]]) -> Channel:
    """Build a channel from (eps, weight) pairs."""
    pairs = list(points)
    if not pairs:
        raise ChannelError("channel needs at least one mass point")
    eps = np.array([p[0] for p in pairs], dtype=float)
    w = np.array([p[1] for p in pairs], dtype=float)
    return Channel(eps, w)


def bsc(eps: float) -> Channel:
    """Binary symmetric channel: a single mass point at eps."""
    if not 0.0 <= eps <= 0.5:
        raise ChannelError(f"BSC crossover probability must lie in [0, 1/2], got {eps!r}")
    return Channel(np.array([float(eps)]), np.array([1.0]))


def bec(h: float) -> Channel:
    """Binary erasure channel: mass 1-h at eps=0 and mass h at eps=1/2."""
    if not 0.0 <= h <= 1.0:
        raise ChannelError(f"BEC erasure probability must lie in [0, 1], got {h!r}")
    if h == 0.0:
        return bsc(0.0)
    if h == 1.0:
        return bsc(0.5)
    return Channel(np.array([0.0, 0.5]), np.array([1.0 - float(h), float(h)]))


def mix(a: Channel, b: Channel, alpha: float) -> Channel:
    """Convex combination alpha*a + (1-alpha)*b of the weight measures."""
    if not 0.0 <= alpha <= 1.0:
        raise ChannelError(f"mixture weight must lie in [0, 1], got {alpha!r}")
    return _mixtures([a], [b], np.array([alpha], dtype=float))[0]


def _mixtures(a: Sequence[Channel], b: Sequence[Channel], alpha: np.ndarray) -> list[Channel]:
    """mix(a[i], b[i], alpha[i]) of each row, alpha in [0, 1]: a row of
    alpha 1 is a[i] and one of alpha 0 is b[i]; the others settle as one
    batch, whose input-domain checks their construction guarantees."""
    out: list[Channel | None] = [
        x if t == 1.0 else y if t == 0.0 else None for x, y, t in zip(a, b, alpha.tolist())
    ]
    rows = [i for i, c in enumerate(out) if c is None]
    if rows:
        parts = [c for i in rows for c in (a[i], b[i])]  # row i is a[i] then b[i]
        weights = [c.w for c in parts]
        sizes = np.fromiter(map(len, weights), dtype=np.intp, count=len(weights))
        t = alpha[rows]
        w = np.concatenate(weights) * np.stack([t, 1.0 - t], axis=1).ravel().repeat(sizes)
        off = np.concatenate(([0], sizes.cumsum()[1::2]))
        mixed = iter(_channels(*_settle_rows(np.concatenate([c.eps for c in parts]), w, off)))
        out = [c if c is not None else next(mixed) for c in out]
    return out


def parse_channel(text: str) -> Channel:
    """Parse a channel document: one `eps weight` pair per line.

    Blank lines and `#` comments are ignored.  Decimals are read at full
    double precision.  Total weight must match 1 within 1e-9 and is then
    renormalized; duplicate eps values merge their weights.
    """
    eps: list[float] = []
    w: list[float] = []
    # added line by line, left to right (sum() compensates from Python 3.12 on)
    total = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ChannelFormatError(
                f"expected `eps weight`, got {len(fields)} fields", lineno
            )
        try:
            e, v = float(fields[0]), float(fields[1])
        except ValueError:
            raise ChannelFormatError(f"could not parse decimals in {line!r}", lineno) from None
        if not 0.0 <= e <= 0.5:
            raise ChannelFormatError(f"eps {e!r} out of [0, 1/2]", lineno)
        if v <= 0.0:
            raise ChannelFormatError(f"weight {v!r} must be positive", lineno)
        eps.append(e)
        w.append(v)
        total += v
    if not eps:
        raise ChannelFormatError("document contains no mass points")
    if abs(total - 1.0) > PARSE_WEIGHT_SUM_TOL:
        raise ChannelFormatError(f"weights sum to {total!r}, expected 1 within 1e-9")
    scale = 1.0 / total
    return Channel(np.asarray(eps), np.asarray(w) * scale)


def serialize_channel(a: Channel) -> str:
    """Canonical document: points sorted by eps, 17 significant digits."""
    lines = [f"{e:.17g} {v:.17g}" for e, v in a.points]
    return "\n".join(lines) + "\n"
