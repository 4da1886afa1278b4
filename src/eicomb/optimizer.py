"""Coordinate-descent search for extremal channels of Phi(rho(a)).

Under a single linear constraint, extremal channels need at most two mass
points, so the search space per variable is a constrained pair of BSC
deltas.  The target Phi(rho(a)) is symmetrized over d = deg(rho) channel
variables by replacing each power with the average over equal-sized
subsets,

    Phi(a^[k])  ->  C(d,k)^{-1} sum_{|S|=k} Phi(convolution of {a_i : i in S})

which is linear in each coordinate's weight measure.  One coordinate at a
time is then set to the best constrained two-point channel found by grid
search plus local refinement; repeating over all coordinates descends
monotonically.  A converged tuple whose coordinates all collapse to the
constraint-matched BSC (or BEC) certifies the corresponding extremality
hypothesis for the original objective.

The subset sums are measures of eicomb.convolution ((x, w) arrays in
x = 1 - 2*eps, where check convolution is an outer product), built with its
convolve and merged sum.  E_j(S) is the sum over the j-subsets T of S of
the convolution of the channels in T, a measure of mass C(|S|, j).  Adding
a coordinate a to S is the elementary-symmetric step

    E_j(S + a) = E_j(S) + E_{j-1}(S) (*) a,        E_0 = BSC(0), mass 1,

one outer product and one merged sum per order j.  Each sweep builds the
suffix sums E_j(coordinates i+1..d-1) for every i in one backward pass and
carries the prefix sums E_j(coordinates 0..i-1) forward as coordinates are
updated, so the sums over the coordinates other than i are the convolution
sums sum_t E_t(prefix) (*) E_{j-t}(suffix).

Only the orders that can reach a read order are built.  With K the lowest
exponent of rho, the objective reads E_K .. E_deg of all d coordinates and
a profile reads E_{K-1} .. E_min(deg, d-1) of the d-1 others.  A set of n
measures to be joined with m more reaches order K' only through its orders
j >= K' - m, so the objective keeps E_j, j >= K - (d - i), after its i-th
addition, and a prefix or suffix of n coordinates keeps j >= K - d + n, up
to min(deg rho, d-1).  Each kept E_j(S + a) reads only E_j(S) and
E_{j-1}(S), both kept, so it is the same merged sum of the same parts as in
the full recursion, bit for bit.  For the (5,10) area polynomial X^9 -
0.875 X^10 this leaves out the middle orders, which hold most of the points.

A coordinate's profile is evaluated through one kernel, _kernel_matrix,
both on the eps grid and at the finalist pairs.  It fills the matrix
Phi(BSC(0.5 * (1 - x_g x_p))) in row blocks of KERNEL_BLOCK elements with
in-place ufuncs on two block-sized scratch buffers, and every element
equals the elementwise formula bit for bit.

A descent solves each bit-identical coordinate subproblem (a profile and an
incumbent) once; repeats arise in the confirming sweep, once the
coordinates have collapsed onto the matched BSC or BEC.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import convolution
from .channel import Channel, bsc
from .convolution import Measure
from .functionals import _FACTS, Functional, _level_facts
from .series import Polynomial

# Coordinates closer than this (in transport distance) to the matched
# BSC/BEC count as equal to it in the final verdict.
VERDICT_DISTANCE_TOL = 1e-3

MIN_GRID = 64
DEFAULT_GRID = 256
DEFAULT_REFINE_PASSES = 4

RUN_CSV_HEADER = "seed,sweep,objective,coords"


class Verdict(enum.Enum):
    ALL_EQUAL_BSC = "ALL_EQUAL_BSC"
    ALL_EQUAL_BEC = "ALL_EQUAL_BEC"
    MIXED = "MIXED"


@dataclass(frozen=True)
class TwoPointChannel:
    """Constrained coordinate: mass alpha at eps1 and 1-alpha at eps2."""

    eps1: float
    eps2: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.eps1 <= self.eps2 <= 0.5:
            raise ValueError(f"need 0 <= eps1 <= eps2 <= 1/2, got {self!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"mass must lie in [0, 1], got {self.alpha!r}")

    def _points(self) -> tuple[np.ndarray, np.ndarray]:
        """eps and weights, one point where the pair collapses."""
        if self.alpha == 1.0 or self.eps1 == self.eps2:
            return np.array([self.eps1]), np.ones(1)
        if self.alpha == 0.0:
            return np.array([self.eps2]), np.ones(1)
        return np.array([self.eps1, self.eps2]), np.array([self.alpha, 1.0 - self.alpha])

    def channel(self) -> Channel:
        return Channel(*self._points())

    def measure(self) -> Measure:
        """The weight measure in x = 1 - 2*eps, unsettled (not renormalized)."""
        eps, w = self._points()
        return 1.0 - 2.0 * eps, w

    def constraint_value(self, tag: Functional) -> float:
        g = _FACTS[tag].value
        return self.alpha * g(self.eps1) + (1.0 - self.alpha) * g(self.eps2)


def transport_distance(a: Channel, b: Channel) -> float:
    """L1 distance between the eps-CDFs (earth-mover distance on [0, 1/2])."""
    pts = np.concatenate([a.eps, b.eps])
    delta = np.concatenate([a.w, -b.w])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    cdf = np.cumsum(delta[order])[:-1]
    return float(np.sum(np.abs(cdf) * np.diff(pts)))


def _matched_extremes(tag: Functional, target: float) -> tuple[Channel, Channel]:
    """(BSC, BEC) with the constrained functional pinned to target."""
    facts = _FACTS[tag]
    return bsc(facts.inverse(target)), facts.matched_bec(target)


def _add(sums: Sequence[Measure], a: Measure, low: int) -> list[Measure]:
    """E_j(S + a) = E_j(S) + E_{j-1}(S) (*) a for every kept order j >= low;
    the orders below low are left empty.  An empty E_{j-1}(S) (an order
    above |S|, or one cut below the previous low) is not convolved:
    _merged_sum would drop the empty product anyway."""
    out = [sums[0] if low <= 0 else convolution._EMPTY]
    for j in range(1, len(sums)):
        if j < low:
            out.append(convolution._EMPTY)
        elif sums[j - 1][0].size:
            out.append(convolution._merged_sum((sums[j], convolution._convolve(sums[j - 1], a))))
        else:
            out.append(convolution._merged_sum((sums[j],)))
    return out


def _symmetric_sums(measures: Sequence[Measure], order: int, low: int = 0) -> list[Measure]:
    """E_low .. E_order of a set of measures, the orders below low empty.

    E_j after the i-th of n additions feeds the final orders >= low only if
    j >= low - (n - i), so the lower orders are never built.
    """
    sums = [convolution._IDENTITY] + [convolution._EMPTY] * order
    n = len(measures)
    for i, a in enumerate(measures, 1):
        sums = _add(sums, a, low - (n - i))
    return sums


def symmetrized_objective(
    rho: Polynomial, tag: Functional, channels: Sequence[Channel]
) -> float:
    """The subset-averaged stand-in for Phi(rho(a)) on a tuple of channels.

    Equals sum_k c_k C(d,k)^{-1} Phi(E_k(channels)), and Phi(rho(a))
    exactly when all coordinates equal a.
    """
    d = len(channels)
    if d < rho.degree:
        raise ValueError(f"need at least deg(rho)={rho.degree} coordinates, got {d}")
    measures = [convolution._measure(ch) for ch in channels]
    sums = _symmetric_sums(measures, rho.degree, rho.terms[0][0])
    total = 0.0
    for k, c in rho.terms:
        total += c / math.comb(d, k) * convolution._phi(tag, sums[k])
    return total


# The kernel matrix is filled in row blocks of about this many elements, so
# that a block and its two scratch buffers stay in cache.
KERNEL_BLOCK = 16384


def _kernel_matrix(tag: Functional, xg: np.ndarray, x: np.ndarray) -> np.ndarray:
    """pointwise(tag, 0.5 * (1 - outer(xg, x))), bit for bit, for xg and x in [0, 1].

    Built block by block with in-place ufuncs on two block-sized scratch
    buffers, instead of a dozen full-size temporaries.  Every operation is
    the elementwise formula's, on the same operands: H's
    -u log2(u) - q log2(q) is formed as -(u log2(u) + q log2(q)), which
    rounds identically.  u = 0 only where xg = x = 1 (a product of factors
    in [0, 1] rounds to 1 only if both are 1); h2_vec's value there is 0,
    and the NaN the formula leaves is overwritten with it.
    """
    xg = np.ravel(xg)
    n, m = xg.size, x.size
    out = np.empty((n, m))
    rows = max(1, KERNEL_BLOCK // m)
    u_buf = np.empty((min(rows, n), m))
    q_buf = np.empty_like(u_buf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            o = out[lo : lo + rows]
            u = o if tag is Functional.E else u_buf[: o.shape[0]]
            np.multiply.outer(xg[lo : lo + rows], x, out=u)
            np.subtract(1.0, u, out=u)
            np.multiply(u, 0.5, out=u)
            if tag is Functional.E:
                continue
            q = q_buf[: o.shape[0]]
            np.subtract(1.0, u, out=q)
            if tag is Functional.B:
                np.multiply(u, q, out=o)
                np.sqrt(o, out=o)
                np.multiply(o, 2.0, out=o)
            else:
                np.log2(u, out=o)
                np.multiply(o, u, out=o)
                np.log2(q, out=u)
                np.multiply(u, q, out=u)
                np.add(o, u, out=o)
                np.negative(o, out=o)
    if tag is Functional.H:
        hot = np.flatnonzero(xg == 1.0)
        if hot.size:
            out[hot[:, None], np.flatnonzero(x == 1.0)] = 0.0
    return out


@dataclass
class _Profile:
    """The objective as an affine function of coordinate i's weight measure.

    For a delta coordinate at eps the symmetrized objective equals
    const + sum_p w_p * phi(combine(eps, eps_p)); two-point coordinates are
    the matching convex mixtures.  With E_j the subset sums over the
    coordinates other than i, the points are those of E_{k-1} weighted by
    c_k / C(d,k) for every term c_k X^k of rho, and const is the sum of
    c_k / C(d,k) Phi(E_k) over the terms with k <= d-1.  Each E_j comes
    from the prefix and suffix sums, merged by the X_MERGE_TOL rule; the
    terms' points are then pooled, and only bit-identical ones collapse,
    since term weights can be negative.

    Both evaluations, the grid pass (__call__: one gemv over the whole
    kernel matrix) and the finalists (pairs: a 2-row product per pair),
    take their kernel values from _kernel_matrix, which equals the
    elementwise pointwise(tag, 0.5 * (1 - outer(xg, x_pts))) bit for bit.
    """

    tag: Functional
    const: float
    x_pts: np.ndarray
    w_pts: np.ndarray
    # (eps1, eps2) -> profile values at both points, of every pair scored
    # through _pair_values, so a pair is never scored twice
    scored: dict[tuple[float, float], tuple[float, float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __call__(self, eps: np.ndarray) -> np.ndarray:
        xg = 1.0 - 2.0 * np.asarray(eps, dtype=float)
        if self.x_pts.size == 0:
            return np.full(xg.shape, self.const)
        return self.const + _kernel_matrix(self.tag, xg, self.x_pts) @ self.w_pts

    def pairs(self, eps: np.ndarray) -> np.ndarray:
        """The profile at k candidate pairs, a (k, 2) array, from one kernel pass.

        Row i equals self(eps[i]) bit for bit.  The kernel matrix of all 2k
        points is built at once and multiplied as a stack of k (2, m)
        matrices in one matmul, which runs a separate 2-row product per
        pair.  One 2k-row matrix-vector product would not do: BLAS sums it
        in a different order, which moves values by up to ~1e-13, far above
        TIE_BAND, and so would change which finalist wins on the flat faces
        of the objective.  numpy does not promise the per-item products;
        the tests compare the stack with a loop of 2-row products.
        """
        eps = np.asarray(eps, dtype=float).reshape(-1, 2)
        if self.x_pts.size == 0:
            return np.full(eps.shape, self.const)
        vals = _kernel_matrix(self.tag, 1.0 - 2.0 * eps.ravel(), self.x_pts)
        return self.const + np.matmul(vals.reshape(eps.shape[0], 2, -1), self.w_pts)


def _profile_for(
    rho: Polynomial,
    tag: Functional,
    d: int,
    prefix: Sequence[Measure],
    suffix: Sequence[Measure],
) -> _Profile:
    """One coordinate's profile from the subset sums E_0..E_m of the
    coordinates before it (prefix) and after it (suffix), m >= min(deg rho, d-1)."""
    others: dict[int, Measure] = {}

    def other_sums(j: int) -> Measure:
        if j not in others:
            others[j] = convolution._merged_sum([
                convolution._convolve(prefix[t], suffix[j - t])
                for t in range(j + 1)
                if prefix[t][0].size and suffix[j - t][0].size
            ])
        return others[j]

    const = 0.0
    xs: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    for k, c in rho.terms:
        scale = c / math.comb(d, k)
        x, w = other_sums(k - 1)
        xs.append(x)
        ws.append(scale * w)
        if k <= d - 1:
            const += scale * convolution._phi(tag, other_sums(k))
    x_all = np.concatenate(xs)
    w_all = np.concatenate(ws)
    x_uniq, inverse = np.unique(x_all, return_inverse=True)
    w_uniq = np.zeros_like(x_uniq)
    np.add.at(w_uniq, inverse, w_all)
    return _Profile(tag, const, x_uniq, w_uniq)


# Residual allowed between a coordinate's constraint value and the target;
# admits the matched BSC whose g-value carries the inversion residual.
CONSTRAINT_TOL = 1e-10

# Candidates whose objective lands within this band of the per-coordinate
# optimum count as tied; evaluation noise on flat faces sits below it,
# while genuine improvements in even the flattest landscapes (high-entropy
# cells move the objective at the 1e-12 scale) stay above it.
TIE_BAND = 1e-14


@functools.lru_cache(maxsize=16)
def _constraint_grid(constraint: Functional, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The eps grid on [0, 1/2] and the constraint values on it, read-only."""
    g = _FACTS[constraint].value
    eps_grid = np.linspace(0.0, 0.5, grid)
    g_vals = np.array([g(e) for e in eps_grid])
    eps_grid.flags.writeable = False
    g_vals.flags.writeable = False
    return eps_grid, g_vals


@functools.lru_cache(maxsize=16)
def _pair_table(
    constraint: Functional, grid: int, target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid pairs (p, q) that can meet target, and their mixture weights.

    A pair is feasible when g_p <= target <= g_q with g_q - g_p > 1e-15;
    alpha = (g_q - target) / (g_q - g_p) is the mass at eps_p.  Pairs come
    in row-major order, so an argmin over them picks the first minimal cell
    of the full grid x grid table.  The arrays are read-only.
    """
    _, g_vals = _constraint_grid(constraint, grid)
    lo = g_vals[:, None]
    hi = g_vals[None, :]
    p_idx, q_idx = np.nonzero((lo <= target) & (target <= hi) & (hi - lo > 1e-15))
    alpha = (g_vals[q_idx] - target) / (g_vals[q_idx] - g_vals[p_idx])
    for arr in (p_idx, q_idx, alpha):
        arr.flags.writeable = False
    return p_idx, q_idx, alpha


def _pair_alpha(
    g: Callable[[float], float], target: float, e1: float, e2: float
) -> float | None:
    """Mass at e1 <= e2 that puts the pair's constraint value at target, or
    None if no mass does (up to CONSTRAINT_TOL)."""
    g1, g2 = g(e1), g(e2)
    if g1 - CONSTRAINT_TOL > target or g2 + CONSTRAINT_TOL < target:
        return None
    if g2 - g1 < 1e-15:
        if abs(g1 - target) > CONSTRAINT_TOL:
            return None
        return 1.0
    return min(1.0, max(0.0, (g2 - target) / (g2 - g1)))


def _pair_values(
    profile: _Profile,
    g: Callable[[float], float],
    target: float,
    candidates: Sequence[tuple[float, float]],
) -> list[tuple[float, float, float, float]]:
    """(eps1, eps2, alpha, objective) of each feasible candidate pair, in
    order, with eps1 <= eps2.  Pairs the profile has not scored yet come
    from one kernel pass; the others are taken from profile.scored."""
    rows = []
    for e1, e2 in candidates:
        if e1 > e2:
            e1, e2 = e2, e1
        alpha = _pair_alpha(g, target, e1, e2)
        if alpha is not None:
            rows.append((e1, e2, alpha))
    scored = profile.scored
    fresh = list(dict.fromkeys((e1, e2) for e1, e2, _ in rows if (e1, e2) not in scored))
    if fresh:
        scored.update(zip(fresh, map(tuple, profile.pairs(np.array(fresh)).tolist())))
    out = []
    for e1, e2, a in rows:
        p1, p2 = scored[(e1, e2)]
        out.append((e1, e2, a, a * p1 + (1.0 - a) * p2))
    return out


def best_coordinate(
    profile: _Profile,
    constraint: Functional,
    target: float,
    current: TwoPointChannel,
    grid: int = DEFAULT_GRID,
    refine_passes: int = DEFAULT_REFINE_PASSES,
    minimize: bool = True,
) -> tuple[TwoPointChannel, float]:
    """Best constrained two-point channel for one coordinate.

    Upper-triangular grid search over the precomputed feasible (eps1, eps2)
    grid pairs of the target (_pair_table), with the mixture weight solved
    from the constraint, followed by local step-halving refinement; the
    current coordinate and the constraint-matched BSC always compete, so
    the returned objective never loses to the incumbent.  The finalists of
    each round are evaluated in one kernel pass, but each through its own
    2-row product (_Profile.pairs), so every finalist's value is the one a
    lone evaluation gives, bit for bit, and the TIE_BAND comparisons below
    see no summation-order dust.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}, got {grid}")
    facts = _FACTS[constraint]
    # a refinement ring of 8 pairs has at most 6 distinct eps values
    g = functools.cache(facts.value)
    sign = 1.0 if minimize else -1.0

    eps_grid, _ = _constraint_grid(constraint, grid)
    p_idx, q_idx, alpha = _pair_table(constraint, grid, target)
    prof = profile(eps_grid) - profile.const  # affine part only, const added back below
    vals = sign * (alpha * prof[p_idx] + (1.0 - alpha) * prof[q_idx] + profile.const)

    # The symmetrized objective has exactly flat faces (any coordinate is
    # optimal once all others sit at the matched BEC), on which float dust
    # would otherwise pick an arbitrary winner; finalists within TIE_BAND of
    # the best therefore count as tied and the tie resolves toward the
    # wider-support pair, the deterministic completion that prefers the
    # extremal-support tuple over initialization leftovers.
    finalists: list[tuple[float, float, float, float, float]] = []

    def add(candidates: list[tuple[float, float]]) -> None:
        for e1, e2, a, v in _pair_values(profile, g, target, candidates):
            finalists.append((sign * v, e1 - e2, e1, e2, a))

    def chosen() -> tuple[float, float, float, float, float]:
        cutoff = min(f[0] for f in finalists) + TIE_BAND
        return min((f for f in finalists if f[0] <= cutoff), key=lambda f: f[1:])

    # The incumbent always competes, as do the two corner structures a
    # single linear constraint admits: the matched one-point channel and
    # the full-spread pair on {0, 1/2}; the grid winner joins them.
    eps_star = facts.inverse(target)
    first = [(float(current.eps1), float(current.eps2)), (eps_star, eps_star), (0.0, 0.5)]
    best = int(np.argmin(vals)) if vals.size else -1
    refine = best >= 0 and math.isfinite(vals[best])
    if refine:
        first.append((float(eps_grid[p_idx[best]]), float(eps_grid[q_idx[best]])))
    add(first)
    if refine:
        step = 0.5 / (grid - 1)
        for _ in range(refine_passes):
            step *= 0.5
            _, _, e1, e2, _ = chosen()
            add([
                (u, v)
                for u in (e1 - step, e1, e1 + step)
                for v in (e2 - step, e2, e2 + step)
                if 0.0 <= u <= 0.5 and 0.0 <= v <= 0.5 and (u, v) != (e1, e2)
            ])

    obj_signed, _, e1, e2, a = chosen()
    return TwoPointChannel(e1, e2, a), sign * obj_signed


@dataclass(frozen=True)
class SweepTrace:
    sweep: int
    objective: float
    coords: tuple[TwoPointChannel, ...]

    def csv_row(self, seed: int) -> str:
        flat = ";".join(
            f"{c.eps1!r}:{c.eps2!r}:{c.alpha!r}" for c in self.coords
        )
        return f"{seed},{self.sweep},{self.objective!r},{flat}"


@dataclass
class DescentResult:
    coords: tuple[TwoPointChannel, ...]
    objective: float
    running_objective: float
    sweeps: int
    converged: bool
    verdict: Verdict
    trace: tuple[SweepTrace, ...]
    seed: int


def _classify(
    coords: Sequence[TwoPointChannel], constraint: Functional, target: float
) -> Verdict:
    bsc_ref, bec_ref = _matched_extremes(constraint, target)
    chans = [c.channel() for c in coords]
    if all(transport_distance(c, bsc_ref) <= VERDICT_DISTANCE_TOL for c in chans):
        return Verdict.ALL_EQUAL_BSC
    if all(transport_distance(c, bec_ref) <= VERDICT_DISTANCE_TOL for c in chans):
        return Verdict.ALL_EQUAL_BEC
    return Verdict.MIXED


def _initial_coords(
    rng: np.random.Generator, d: int, constraint: Functional, target: float
) -> list[TwoPointChannel]:
    # e1 <= eps* <= e2, so every initial pair is feasible
    facts = _FACTS[constraint]
    eps_star = facts.inverse(target)
    out = []
    for _ in range(d):
        e1 = float(rng.random() * eps_star)
        e2 = float(eps_star + rng.random() * (0.5 - eps_star))
        out.append(TwoPointChannel(e1, e2, _pair_alpha(facts.value, target, e1, e2)))
    return out


def coordinate_descent(
    rho: Polynomial,
    tag: Functional,
    target: float,
    *,
    constraint: Functional = Functional.H,
    num_vars: int | None = None,
    minimize: bool = True,
    seed: int = 0,
    grid: int = DEFAULT_GRID,
    max_sweeps: int = 60,
    tol: float = 1e-13,
) -> DescentResult:
    """Optimize the symmetrized Phi(rho(.)) at a fixed constraint level.

    Coordinates are updated in index order; each update is a grid-plus-
    refinement search that never worsens the objective, so the running
    objective (accumulated from per-update improvements) is exactly
    monotone.  Stops when a full sweep improves by less than tol.
    """
    facts = _level_facts(constraint, target)
    if max_sweeps < 1 or not 0.0 < tol < math.inf:
        raise ValueError(f"max_sweeps must be >= 1 and tol finite and positive, got tol={tol!r}")
    d = rho.degree if num_vars is None else num_vars
    if d < rho.degree:
        raise ValueError(f"need num_vars >= deg(rho) = {rho.degree}, got {d}")
    order = min(rho.degree, d - 1)
    # A profile reads the others' orders >= K-1 (K the lowest exponent of
    # rho), so a prefix or suffix of n coordinates, to be joined with the
    # d-1-n on the other side, needs only its orders >= low + n.
    low = rho.terms[0][0] - d
    rng = np.random.default_rng((seed,))
    coords = _initial_coords(rng, d, constraint, target)
    running = symmetrized_objective(rho, tag, [c.channel() for c in coords])
    # the constraint at the incumbents' eps, memoized over this descent
    g = functools.cache(facts.value)
    # (new_coord, after, before) of each subproblem this descent solved, keyed
    # by the bits of the profile's const, x_pts and w_pts and of the
    # incumbent: with tag, constraint, target, grid and direction fixed,
    # best_coordinate is a pure function of them
    solved: dict[tuple[str | bytes, ...], tuple[TwoPointChannel, float, float]] = {}
    trace = [SweepTrace(0, running, tuple(coords))]
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        improvement = 0.0
        # suffixes[i] holds E_j of coordinates i+1..d-1, prefix those of 0..i-1
        prefix = _symmetric_sums((), order)
        suffixes = [prefix]
        for n, c in enumerate(reversed(coords[1:]), 1):
            suffixes.append(_add(suffixes[-1], c.measure(), low + n))
        suffixes.reverse()
        for i in range(d):
            profile = _profile_for(rho, tag, d, prefix, suffixes[i])
            c = coords[i]
            key = (profile.const.hex(), profile.x_pts.tobytes(), profile.w_pts.tobytes(),
                   c.eps1.hex(), c.eps2.hex(), c.alpha.hex())
            if key not in solved:
                new_coord, after = best_coordinate(
                    profile,
                    constraint,
                    target,
                    c,
                    grid=grid,
                    minimize=minimize,
                )
                # the incumbent competed in best_coordinate, so its value is
                # read back from the profile's scored pairs, not recomputed
                before = _pair_values(profile, g, target, [(c.eps1, c.eps2)])[0][3]
                solved[key] = (new_coord, after, before)
            new_coord, after, before = solved[key]
            # Tie-banded selection may trade up to TIE_BAND of dust for a
            # preferred support; only genuine gains feed the running value,
            # which therefore stays exactly monotone.
            delta = max(0.0, before - after if minimize else after - before)
            if new_coord != coords[i]:
                coords[i] = new_coord
            if delta > 0.0:
                running = running - delta if minimize else running + delta
                improvement += delta
            if i < d - 1:
                prefix = _add(prefix, coords[i].measure(), low + i + 1)
        trace.append(SweepTrace(sweep, running, tuple(coords)))
        if improvement < tol:
            converged = True
            break
    final_channels = [c.channel() for c in coords]
    return DescentResult(
        coords=tuple(coords),
        objective=symmetrized_objective(rho, tag, final_channels),
        running_objective=running,
        sweeps=sweeps,
        converged=converged,
        verdict=_classify(coords, constraint, target),
        trace=tuple(trace),
        seed=seed,
    )


@dataclass(frozen=True)
class ClaimCell:
    """Verdict statistics for one (entropy, direction) optimization cell."""

    h: float
    minimize: bool
    seeds: int
    hits: int  # ALL_EQUAL_BSC when minimizing, ALL_EQUAL_BEC when maximizing
    results: tuple[DescentResult, ...]

    @property
    def hit_fraction(self) -> float:
        return self.hits / self.seeds


def extremal_channel_cells(
    rho: Polynomial,
    h_values: Sequence[float],
    seeds: Sequence[int],
    *,
    grid: int = DEFAULT_GRID,
) -> list[ClaimCell]:
    """Run min and max H descents over an entropy grid of seeded restarts.

    Each cell records how often the minimizer collapsed to the matched BSC
    and the maximizer to the matched BEC; full descent results are kept so
    misses can be inspected.
    """
    if not seeds:
        raise ValueError("extremal_channel_cells needs at least one seed")
    cells: list[ClaimCell] = []
    for h in h_values:
        for minimize in (True, False):
            results = []
            hits = 0
            want = Verdict.ALL_EQUAL_BSC if minimize else Verdict.ALL_EQUAL_BEC
            for seed in seeds:
                res = coordinate_descent(rho, Functional.H, h, minimize=minimize, seed=seed,
                                         grid=grid)
                results.append(res)
                if res.verdict is want:
                    hits += 1
            cells.append(ClaimCell(h, minimize, len(seeds), hits, tuple(results)))
    return cells
