"""Discrete BMS channels represented as finite mixtures of BSC mass points.

A channel is a probability measure on crossover probabilities eps in
[0, 1/2]: a sorted list of (eps, weight) pairs with weights summing to 1.
BSC(eps) is a single mass point, BEC(h) puts mass 1-h at 0 and mass h at
1/2, and every linear functional of a mixture is the mixture of the
functionals.  All values are immutable; every operation returns a new
channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


def _merge_points(
    eps: np.ndarray, w: np.ndarray, tol: float = EPS_MERGE_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Sort by eps and merge runs of points closer than tol.

    Bit-identical eps values merge losslessly; nearby ones merge to their
    weighted mean so functionals move by at most O(tol).  The weights must
    be positive for the mean to stay inside the run.
    """
    order = eps.argsort(kind="stable")
    eps = eps[order]  # fancy indexing copies
    w = w[order]
    return _merge_runs(eps, w, eps[1:] - eps[:-1] > tol)[:2]


def _merge_runs(
    eps: np.ndarray, w: np.ndarray, split: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Merge sorted points into runs, a new run after each True of split:
    (points, weights, index of each run's first point, or None when every
    run is one point and nothing merges)."""
    if split.all():
        return eps, w, None
    starts = np.flatnonzero(np.concatenate(([True], split)))
    ends = np.concatenate((starts[1:], [eps.size]))
    w_merged = np.add.reduceat(w, starts)
    first = eps[starts]
    last = eps[ends - 1]
    eps_merged = np.where(
        first == last, first, np.add.reduceat(eps * w, starts) / w_merged
    )
    return eps_merged, w_merged, starts


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
        """Merge, drop near-zero weights, renormalize and freeze the points."""
        eps, w = _merge_points(eps, w)
        keep = w >= WEIGHT_DROP_TOL
        if not keep.all():
            dropped = float(w[~keep].sum())
            if dropped > WEIGHT_SUM_TOL:
                raise ChannelError(f"dropping near-zero weights would lose mass {dropped!r}")
            eps, w = eps[keep], w[keep]
            if eps.size == 0:
                raise ChannelError("no mass points left after merging")
        self._freeze(eps, w / w.sum())

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

    For convolutions, mixtures of channels and sampler draws, whose points
    lie in [0, 1/2] with nonnegative weights summing to 1 by construction.
    Merging, the weight drop with its checks and the renormalization are
    those of Channel(...), so on valid input the result is the same bit for
    bit; a weight that underflowed to zero is dropped with the tiny ones.
    """
    out = object.__new__(Channel)
    out._settle(eps, w)
    return out


def _settled(eps: np.ndarray, w: np.ndarray) -> Channel:
    """Channel from points a batched settle has already sorted, merged and
    renormalized with the arithmetic of Channel._settle; only freezes them."""
    out = object.__new__(Channel)
    out._freeze(eps, w)
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
    if alpha == 1.0:
        return a
    if alpha == 0.0:
        return b
    eps = np.concatenate([a.eps, b.eps])
    w = np.concatenate([a.w * alpha, b.w * (1.0 - alpha)])
    return _trusted(eps, w)


def parse_channel(text: str) -> Channel:
    """Parse a channel document: one `eps weight` pair per line.

    Blank lines and `#` comments are ignored.  Decimals are read at full
    double precision.  Total weight must match 1 within 1e-9 and is then
    renormalized; duplicate eps values merge their weights.
    """
    eps: list[float] = []
    w: list[float] = []
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
    if not eps:
        raise ChannelFormatError("document contains no mass points")
    total = sum(w)
    if abs(total - 1.0) > PARSE_WEIGHT_SUM_TOL:
        raise ChannelFormatError(f"weights sum to {total!r}, expected 1 within 1e-9")
    scale = 1.0 / total
    return Channel(np.asarray(eps), np.asarray(w) * scale)


def serialize_channel(a: Channel) -> str:
    """Canonical document: points sorted by eps, 17 significant digits."""
    lines = [f"{e:.17g} {v:.17g}" for e, v in a.points]
    return "\n".join(lines) + "\n"
