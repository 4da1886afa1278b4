"""Extremal bounds for Phi(rho(a)) under one linear constraint, and
randomized checkers for the catalog of check-convolution inequalities.

Under a fixed value of Phi in {H, B}, the first channel moment is largest
for the BSC (gamma_1 <= f_Phi^{-1}(phi0)^2, with equality exactly there),
and the moment sequence of a BEC is constant.  Jensen-type arguments then
give, for polynomials rho with rho(0) = 0:

  * upper bound  rho(1) - rho(1 - phi0)  attained by BEC(phi0), valid when
    rho is convex on [0, f_Phi^{-1}(phi0)^2];
  * lower bound  rho(1) - rho(f_Phi^{-1}(phi0)^2), valid when rho is
    increasing on that range;
  * under fixed error probability eps, BEC(2*eps) minimizes and BSC(eps)
    maximizes Phi(rho(a)) when rho is increasing on [0, 1 - 2*eps].

Reports never declare a bound violated unless its hypothesis verifiably
holds; hypothesis failures are flagged inconclusive instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .channel import Channel, _channels, _mixtures, _row_totals, _settle_rows, bsc
from .convolution import _phis_of_powers, phi_of_poly_convolved_batch
from .functionals import (SERIES_TAGS, Functional, _level_facts, _series_tag, evaluate, kernel,
                          kernel_inv, pointwise)
from .series import (Polynomial, complement_of_convolution_batch, phi_of_poly_columns,
                     poly_convex_on, poly_increasing_on)

# Default slack tolerances: exact-convolution checks are trusted to
# rounding level, series-evaluated sweeps to the series tolerance.
EXACT_SLACK_TOL = 1e-12
SWEEP_SLACK_TOL = 1e-9
SWEEP_PHI_TOL = 1e-11

MAX_RAW_SUPPORT = 5

CSV_HEADER = "kind,params,lhs,rhs,slack,hypothesis_ok,seed"


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound instance, oriented so slack >= 0 means it holds."""

    kind: str
    params: str
    lhs: float
    rhs: float
    hypothesis_ok: bool = True
    seed: int | None = None
    witnesses: tuple[Channel, ...] = ()

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def violated(self, tol: float) -> bool:
        """A bound counts as violated only when its hypothesis holds."""
        return self.hypothesis_ok and self.slack < -tol

    def csv_row(self) -> str:
        return (
            f"{self.kind},{self.params},{self.lhs!r},{self.rhs!r},"
            f"{self.slack!r},{int(self.hypothesis_ok)},"
            f"{'' if self.seed is None else self.seed}"
        )


@dataclass(frozen=True)
class ExtremalBound:
    """A bound value plus the channel attaining it and its hypothesis state."""

    kind: str  # "upper" or "lower"
    tag: Functional
    rho: Polynomial
    constraint: Functional
    level: float
    bound: float
    hypothesis_ok: bool
    extremal: Channel

    def report(self, value: float, params: str = "", seed: int | None = None,
               witnesses: tuple[Channel, ...] = ()) -> BoundReport:
        if self.kind == "upper":
            lhs, rhs = value, self.bound
        else:
            lhs, rhs = self.bound, value
        return BoundReport(
            kind=self.kind,
            params=params,
            lhs=lhs,
            rhs=rhs,
            hypothesis_ok=self.hypothesis_ok,
            seed=seed,
            witnesses=witnesses,
        )


def convexity_upper_bound(tag: Functional, rho: Polynomial, phi0: float) -> ExtremalBound:
    """Upper bound rho(1) - rho(1-phi0) on Phi(rho(a)) at Phi(a) = phi0.

    Attained by BEC(phi0); requires rho convex on [0, f_Phi^{-1}(phi0)^2].
    """
    facts = _level_facts(tag, phi0)
    reach = kernel_inv(tag, phi0) ** 2
    return ExtremalBound(
        kind="upper",
        tag=tag,
        rho=rho,
        constraint=tag,
        level=phi0,
        bound=rho(1.0) - rho(1.0 - phi0),
        hypothesis_ok=poly_convex_on(rho, reach),
        extremal=facts.matched_bec(phi0),
    )


def monotone_lower_bound(tag: Functional, rho: Polynomial, phi0: float) -> ExtremalBound:
    """Lower bound rho(1) - rho(f_Phi^{-1}(phi0)^2) on Phi(rho(a)).

    Requires rho increasing on [0, f_Phi^{-1}(phi0)^2]; the bound feeds the
    area-margin analysis.  Attained by the BSC with Phi = phi0.
    """
    facts = _level_facts(tag, phi0)
    reach = kernel_inv(tag, phi0) ** 2
    return ExtremalBound(
        kind="lower",
        tag=tag,
        rho=rho,
        constraint=tag,
        level=phi0,
        bound=rho(1.0) - rho(reach),
        hypothesis_ok=poly_increasing_on(rho, reach),
        extremal=bsc(facts.inverse(phi0)),
    )


def fixed_error_extremes(
    tag: Functional, rho: Polynomial, eps: float
) -> tuple[ExtremalBound, ExtremalBound]:
    """(minimum, maximum) of Phi(rho(a)) over channels with E(a) = eps.

    BEC(2*eps) attains the minimum and BSC(eps) the maximum when rho is
    increasing on [0, 1 - 2*eps].  _fixed_error_rows on a batch of one.
    """
    return _fixed_error_rows(tag, rho, [eps])[0]


def _fixed_error_rows(
    tag: Functional, rho: Polynomial, levels: Sequence[float]
) -> list[tuple[ExtremalBound, ExtremalBound]]:
    """fixed_error_extremes at each level, every bound off one batched chain."""
    for eps in levels:
        if not 0.0 <= eps <= 0.5:
            raise ValueError(f"error probability must lie in [0, 1/2], got {eps!r}")
    # bec(2 eps) and bsc(eps) of every level as one settled batch: a weight
    # of 0 drops, as bec's h = 0 and h = 1 cases leave one point
    e = np.asarray(levels, dtype=float)
    h = 2.0 * e
    points = np.stack([np.zeros_like(e), np.full_like(e, 0.5), e], axis=1).ravel()
    weights = np.stack([1.0 - h, h, np.ones_like(e)], axis=1).ravel()
    off = np.concatenate(([0], np.tile([2, 1], e.size).cumsum()))
    extremals = _channels(*_settle_rows(points, weights, off))
    values = iter(phi_of_poly_convolved_batch(tag, rho, extremals))
    rows = []
    for li, eps in enumerate(levels):
        hyp = poly_increasing_on(rho, 1.0 - 2.0 * eps)
        rows.append(tuple(
            ExtremalBound(kind=kind, tag=tag, rho=rho, constraint=Functional.E, level=eps,
                          bound=next(values), hypothesis_ok=hyp, extremal=extremal)
            for kind, extremal in zip(("lower", "upper"), extremals[2 * li : 2 * li + 2])
        ))
    return rows


# ----------------------------------------------------------------------
# Inequality catalog


@dataclass(frozen=True)
class InequalityInfo:
    code: int
    name: str
    channels: int
    needs_power: bool
    needs_alpha: bool
    statement: str


INEQUALITIES: dict[int, InequalityInfo] = {
    info.code: info
    for info in (
        InequalityInfo(4, "product_lower", 2, False, False,
                       "1-Phi(a*b) >= (1-Phi(a))(1-Phi(b))"),
        InequalityInfo(5, "power_budget", 1, True, False,
                       "Phi(a^d) <= Phi(a)(d - Phi(a) - ... - Phi(a^(d-1)))"),
        InequalityInfo(6, "self_sqrt", 1, False, False,
                       "1-Phi(a) <= sqrt(1-Phi(a*a))"),
        InequalityInfo(7, "cross_self_sqrt", 2, False, False,
                       "1-Phi(a*b) <= sqrt(1-Phi(a*a)) sqrt(1-Phi(b*b))"),
        InequalityInfo(8, "lopsided_sqrt", 2, False, False,
                       "1-Phi(a*b) <= sqrt(1-Phi(a*a*b)) sqrt(1-Phi(b))"),
        InequalityInfo(9, "mixture_power", 2, True, True,
                       "Phi((alpha a + beta b)^d) >= alpha Phi(a^d) + beta Phi(b^d)"),
        InequalityInfo(10, "root_mixture", 2, True, True,
                       "(1-Phi(mix^d))^(1/d) <= alpha (1-Phi(a^d))^(1/d) + beta (1-Phi(b^d))^(1/d)"),
        InequalityInfo(11, "kernel_cap", 1, False, False,
                       "Phi(a) <= f_Phi(1-2E(a))"),
        InequalityInfo(12, "error_damping", 2, False, False,
                       "1-Phi(a*b) <= (1-Phi(a))(1-2E(b))"),
    )
}


def check_inequality(
    code: int,
    channels: Sequence[Channel],
    tag: Functional,
    alpha: float | None = None,
    power: int | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Evaluate both sides of catalog inequality `code` by exact convolution.

    Orientation: lhs <= rhs, so slack = rhs - lhs is nonnegative when the
    inequality holds.  The evaluator of inequality_suite on a batch of one.
    A power goes through operator.index first: a float raises TypeError.
    """
    info = INEQUALITIES.get(code)
    if info is None:
        raise ValueError(f"unknown inequality code {code!r}")
    _series_tag(tag)
    if len(channels) != info.channels:
        raise ValueError(
            f"inequality {code} takes {info.channels} channel(s), got {len(channels)}"
        )
    if info.needs_power:
        power = None if power is None else operator.index(power)
        if power is None or power < 2:
            raise ValueError(f"inequality {code} needs a power d >= 2")
    elif power is not None:
        raise ValueError(f"inequality {code} does not take a power")
    if info.needs_alpha:
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ValueError(f"inequality {code} needs a mixture weight in [0, 1]")
    elif alpha is not None:
        raise ValueError(f"inequality {code} does not take a mixture weight")
    return _check_cases(code, [(tag, channels, alpha, power)], seed)[0]


# One instance of a catalog inequality: (tag, channels, alpha, power).
_Case = tuple[Functional, Sequence[Channel], float | None, int | None]


def _formula(code: int, tag: Functional, a: Channel, b: Channel | None,
             mixed: Channel | None, alpha: float | None, d: int | None) -> tuple:
    """(reads, sides) of inequality `code` on one case: the values it reads,
    and its (lhs, rhs) as a function of them, taken in read order.

    A read is ("conv", factors), 1 - Phi of the convolution of the
    (channel, degree) factors, 1 - Phi(c) itself being ("conv", ((c, 1),));
    or ("phi", (c, k)), Phi(c^[k]).  Every 1 - Phi(.) is an exact sum over
    the convolution's product points, each point's complement free of the
    cancellation near eps = 1/2 (series.complement_of_convolution_batch).
    """
    if code == 4:
        return ((("conv", ((a, 1), (b, 1))), ("conv", ((a, 1),)), ("conv", ((b, 1),))),
                lambda ab, ca, cb: (ca * cb, ab))
    if code == 5:  # Phi(a^[k]) added left to right from 0.0 on every Python version
        return (tuple(("phi", (a, k)) for k in range(1, d + 1)),
                lambda *phi: (phi[-1], phi[0] * (d - reduce(operator.add, phi[:-1], 0.0))))
    if code == 6:
        return (("conv", ((a, 1),)), ("conv", ((a, 2),))), lambda ca, aa: (ca, math.sqrt(aa))
    if code == 7:
        return ((("conv", ((a, 1), (b, 1))), ("conv", ((a, 2),)), ("conv", ((b, 2),))),
                lambda ab, aa, bb: (ab, math.sqrt(aa) * math.sqrt(bb)))
    if code == 8:
        return ((("conv", ((a, 1), (b, 1))), ("conv", ((a, 2), (b, 1))), ("conv", ((b, 1),))),
                lambda ab, aab, cb: (ab, math.sqrt(aab) * math.sqrt(cb)))
    if code == 9:
        return ((("phi", (a, d)), ("phi", (b, d)), ("phi", (mixed, d))),
                lambda pa, pb, pm: (alpha * pa + (1.0 - alpha) * pb, pm))
    if code == 10:
        root = 1.0 / d
        return ((("conv", ((mixed, d),)), ("conv", ((a, d),)), ("conv", ((b, d),))),
                lambda cm, ca, cb: (cm ** root, alpha * ca ** root + (1.0 - alpha) * cb ** root))
    if code == 11:
        return ((("phi", (a, 1)),),
                lambda pa: (pa, kernel(tag, max(0.0, 1.0 - 2.0 * evaluate(Functional.E, a)))))
    # code == 12
    return ((("conv", ((a, 1), (b, 1))), ("conv", ((a, 1),))),
            lambda ab, ca: (ab, ca * float(np.dot(b.w, 1.0 - 2.0 * b.eps))))


def _check_cases(code: int, cases: Sequence[_Case], seed: int | None) -> list[BoundReport]:
    """Reports of inequality `code` on each case, in order.

    Every case's reads (_formula) are gathered and evaluated in batches:
    every complement, of either tag and any factor degrees, in one
    complement_of_convolution_batch call, and every Phi(c^[k]) from one
    _phis_of_powers call, where a case's consecutive powers of one
    channel share one chain.  Each case's formula then takes its values in
    read order.
    """
    info = INEQUALITIES[code]
    mixtures = [None] * len(cases)
    if info.needs_alpha:
        mixtures = _mixtures([c[1][0] for c in cases], [c[1][1] for c in cases],
                             np.array([c[2] for c in cases], dtype=float))
    convs: list = []  # (tag, factors) reads
    powers: list[tuple[Functional, Channel, list[int]]] = []  # rows of _phis_of_powers
    phi_pool: list = []
    formulas = []
    for (tag, chans, alpha, power), mixed in zip(cases, mixtures):
        b = chans[1] if info.channels == 2 else None
        reads, sides = _formula(code, tag, chans[0], b, mixed, alpha, power)
        sources = []  # the pool each read is drawn from
        for kind, arg in reads:
            if kind == "conv":
                pool = convs
                pool.append((tag, arg))
            else:
                pool = phi_pool
                ch, k = arg
                last = powers[-1] if powers else None
                if last and last[0] is tag and last[1] is ch and last[2][-1] < k:
                    last[2].append(k)
                else:
                    powers.append((tag, ch, [k]))
            sources.append(pool)
        formulas.append((sides, sources))
    # each pool now takes its values, last read first, so that pop() hands
    # them out in read order
    if convs:
        convs[:] = complement_of_convolution_batch(convs)[::-1]
    phi_pool[:] = [v for row in _phis_of_powers(powers) for v in row][::-1]
    reports = []
    for (tag, chans, alpha, power), (sides, sources) in zip(cases, formulas):
        lhs, rhs = sides(*[pool.pop() for pool in sources])
        params = f"name={info.name};tag={tag.value}"
        if info.needs_power:
            params += f";d={power}"
        if info.needs_alpha:
            params += f";alpha={alpha!r}"
        reports.append(BoundReport(
            kind=f"ineq{code}",
            params=params,
            lhs=lhs,
            rhs=rhs,
            seed=seed,
            witnesses=tuple(chans),
        ))
    return reports


# ----------------------------------------------------------------------
# Random channel generation


def trial_rng(*key: int) -> np.random.Generator:
    """Deterministic PCG64 generator keyed by (seed, indices...)."""
    return np.random.default_rng(key)


# numpy's SeedSequence constants (a pool of 4 uint32 words) and the PCG64
# 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The cross-mix hashes pool word src once per other word dst, with the
# running hashmix multiplier at call 4 + 3 src + (its rank among the
# others); row src of the table holds those call numbers by dst, its own
# entry a dummy whose result is discarded.
_CROSS_CALLS = np.array([[4, 4, 5, 6], [7, 7, 8, 9], [10, 11, 11, 12], [13, 14, 15, 15]])

_T = TypeVar("_T")


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0..count, as a column."""
    factors = np.full(count + 1, mult, dtype=np.uint32)
    factors[0] = init
    return np.multiply.accumulate(factors, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> _XSHIFT)


def _key_words(keys: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(words, lengths): key i coerced as SeedSequence coerces it, its
    little-endian uint32 words in words[:lengths[i], i] and zeros below,
    at least 4 rows."""
    lengths, flat = [], []
    for key in keys:
        start = len(flat)
        for v in key:
            v = operator.index(v)
            if v < 0:
                raise ValueError("expected non-negative integer")
            flat.append(v & _MASK32)
            while v > _MASK32:
                v >>= 32
                flat.append(v & _MASK32)
        lengths.append(len(flat) - start)
    lengths = np.array(lengths)
    words = np.zeros((max(_POOL, int(lengths.max())), len(keys)), dtype=np.uint32)
    words.T[np.arange(words.shape[0]) < lengths[:, None]] = flat
    return words, lengths


def _seed_states(keys: Sequence[Sequence[int]]) -> np.ndarray:
    """SeedSequence(key).generate_state(4, uint64) of every key, as
    (4, n) uint64: numpy's hash run on all keys at once."""
    words, lengths = _key_words(keys)
    width = words.shape[0]
    # hashmix call k xors a[k] and multiplies by a[k + 1]
    a = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, _POOL * width)
    pool = _hashmix(words[:_POOL], a[:_POOL], a[1 : _POOL + 1])
    xors, mults = a[_CROSS_CALLS], a[_CROSS_CALLS + 1]
    for src in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[src], xors[src], mults[src]))
        mixed[src] = pool[src]
        pool = mixed
    # entropy past the pool: word e is mixed into every pool word, by
    # hashmix calls 4e .. 4e + 3
    for extra in range(_POOL, width):
        k = _POOL * extra
        h = _hashmix(words[extra], a[k : k + _POOL], a[k + 1 : k + _POOL + 1])
        pool = np.where(lengths > extra, _mix(pool, h), pool)
    b = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 2 * _POOL)
    state = _hashmix(np.concatenate([pool, pool]), b[:-1], b[1:]).astype(np.uint64)
    return state[0::2] | (state[1::2] << np.uint64(32))


def _pcg64_states(keys: list[Sequence[int]]) -> Iterator[dict]:
    """trial_rng(*key).bit_generator.state of every key, in order, from one
    vectorized SeedSequence hash."""
    seeds, incs = _seed_states(keys).reshape(2, 2, -1).tolist()
    for s_hi, s_lo, i_hi, i_lo in zip(*seeds, *incs):
        # pcg64_set_seed: inc = 2i + 1 and two LCG steps from 0 with s added
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def trial_map(draw: Callable[[np.random.Generator], _T],
              keys: Iterable[Sequence[int]]) -> list[_T]:
    """[draw(trial_rng(*key)) for key in keys], bit for bit.

    One vectorized SeedSequence hash covers every key, and one generator
    is put into each key's PCG64 state in turn, so draw sees the same
    stream trial_rng(*key) gives.  The generator is reused: draw must not
    keep it, or anything that draws from it later.  This is the route for
    any draw; keyed_channels_with_value reads the sampler's own draws off
    the same states as raw words.
    """
    keys = list(keys)
    if not keys:
        return []
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    out = []
    for state in _pcg64_states(keys):
        bit_generator.state = state
        out.append(draw(rng))
    return out


# The mixing partners of the fixed-value sampler; channels are immutable,
# so every draw shares them.
_PERFECT = bsc(0.0)
_USELESS = bsc(0.5)

# A raw draw: crossover probabilities and unnormalized weights, in draw order.
_Draw = tuple[np.ndarray, np.ndarray]
# Raw draws back to back: (sizes, eps, w), draw i's points after the
# sizes[:i].sum() points of the draws before it.
_Draws = tuple[np.ndarray, np.ndarray, np.ndarray]

# Generator.integers(1, MAX_RAW_SUPPORT + 1) is numpy's Lemire rule: a
# uint32 word times the range MAX_RAW_SUPPORT, whose high 32 bits are the
# draw minus 1; numpy rejects the word while the product's low 32 bits fall
# below this threshold, (2^32 - range) mod range.
_SIZE_THRESHOLD = (_MASK32 - (MAX_RAW_SUPPORT - 1)) % MAX_RAW_SUPPORT


def _draw(rng: np.random.Generator, max_support: int) -> _Draw:
    """The three generator calls of one raw channel: 1..max_support points,
    eps uniform on [0, 1/2], weights independent exponentials."""
    m = int(rng.integers(1, max_support + 1))
    eps = rng.random(m) * 0.5
    w = rng.standard_exponential(m)
    return eps, w


def _concatenated(draws: Sequence[_Draw]) -> _Draws:
    """A non-empty list of draws, back to back."""
    sizes = np.fromiter((e.size for e, _ in draws), dtype=np.intp, count=len(draws))
    return sizes, np.concatenate([e for e, _ in draws]), np.concatenate([w for _, w in draws])


def _rejected_size(word: int, raw: Callable[[], int]) -> int:
    """The Lemire product once the low half of word is rejected: numpy
    tries the buffered high half next, then each new word's low half and
    high half in turn."""
    m = (word >> 32) * MAX_RAW_SUPPORT
    while m & _MASK32 < _SIZE_THRESHOLD:
        word = raw()
        for half in (word & _MASK32, word >> 32):
            m = half * MAX_RAW_SUPPORT
            if m & _MASK32 >= _SIZE_THRESHOLD:
                break
    return m


def _keyed_draws(keys: list[Sequence[int]]) -> _Draws:
    """_draw(trial_rng(*key), MAX_RAW_SUPPORT) for each of a non-empty list
    of keys, back to back and bit for bit, read as raw PCG64 words.

    Each key's state is set once, as trial_map sets it.  The support
    size's integers call reads the low half of one word by the Lemire
    rule, and its buffered high half is read by nothing after it;
    random(m) maps m words u to (u >> 11) * 2**-53, so every eps converts
    at once.  Only standard_exponential stays a Generator call: its
    ziggurat tables are numpy's own.
    """
    bit_generator = np.random.PCG64(0)
    raw = bit_generator.random_raw
    exponentials = np.random.Generator(bit_generator).standard_exponential
    sizes, words, weights = [], [], []
    for state in _pcg64_states(keys):
        bit_generator.state = state
        word = raw()
        m = (word & _MASK32) * MAX_RAW_SUPPORT
        if m & _MASK32 < _SIZE_THRESHOLD:
            m = _rejected_size(word, raw)
        size = (m >> 32) + 1
        sizes.append(size)
        words.append(raw(size))
        weights.append(exponentials(size))
    eps = (np.concatenate(words) >> np.uint64(11)) * 2.0**-53 * 0.5
    return np.array(sizes, dtype=np.intp), eps, np.concatenate(weights)


def _raw_rows(sizes: np.ndarray, eps: np.ndarray, w: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw channels of draws as settled rows (eps, w, off): each draw
    normalized in draw order, then settled, as one batch."""
    off = np.concatenate(([0], sizes.cumsum()))
    return _settle_rows(eps, w / _row_totals(w, off).repeat(sizes), off)


def _raw_channels(draws: Sequence[_Draw]) -> list[Channel]:
    """The raw channel of each draw, in order."""
    return _channels(*_raw_rows(*_concatenated(draws))) if draws else []


def _pinned_channels(draws: _Draws, tag: Functional, targets: Sequence[float],
                     top: float) -> list[Channel]:
    """Each draw's raw channel mixed with the perfect channel (value 0) or
    the useless one (value top) so that its tag value is its target.

    Every row mixes straight from the settled raw points, as
    mix(raw, partner, alpha) builds it: the raw points weighted alpha, then
    the partner's one point weighted 1 - alpha, all rows in one settle.  A
    row of alpha 1 returns its raw channel and one of alpha 0 its partner,
    so only the other mixtures and those raw channels become Channels.
    """
    eps, w, off = _raw_rows(*draws)
    # one np.dot per row, as evaluate takes it: a vectorized row sum of the
    # products rounds differently
    f = pointwise(tag, eps)
    at = off.tolist()
    v = np.array([float(np.dot(w[lo:hi], f[lo:hi])) for lo, hi in zip(at[:-1], at[1:])])
    t = np.asarray(targets, dtype=float)
    perfect, useless = v > t, v < t
    alpha = np.ones_like(v)  # v == t keeps the raw channel
    np.divide(t, v, out=alpha, where=perfect)
    np.divide(top - t, top - v, out=alpha, where=useless)
    # each row's partner point goes after its last raw point
    mixed_eps = np.insert(eps, off[1:], np.where(perfect, 0.0, 0.5))
    mixed_w = np.insert(w * alpha.repeat(np.diff(off)), off[1:], 1.0 - alpha)
    mixed = iter(_channels(*_settle_rows(mixed_eps, mixed_w, off + np.arange(off.size)),
                           np.flatnonzero((alpha != 1.0) & (alpha != 0.0))))
    unmixed = iter(_channels(eps, w, off, np.flatnonzero(alpha == 1.0)))
    return [
        next(unmixed) if s == 1.0 else (_PERFECT if p else _USELESS) if s == 0.0 else next(mixed)
        for s, p in zip(alpha.tolist(), perfect.tolist())
    ]


def _checked_targets(tag: Functional, targets: Sequence[float]) -> tuple[float, list[float]]:
    """(top, targets as floats): top is the tag's largest value, 1/2 for E."""
    targets = [float(target) for target in targets]
    return _level_facts(tag, *targets).top, targets


def _check_count(count: int, targets: list[float]) -> None:
    if count != len(targets):
        raise ValueError(f"{count} generators for {len(targets)} targets")


def random_channels_with_value(
    rngs: Iterable[np.random.Generator],
    tag: Functional,
    targets: Sequence[float],
    max_support: int = MAX_RAW_SUPPORT,
) -> list[Channel]:
    """Random channels with the selected functional pinned exactly to the
    targets, target i from generator i, settled as one batch.

    Each generator draws a raw channel (random_channel's three calls), and
    the channel is mixed with the perfect channel (value 0) or the useless
    channel (value 1, or 1/2 for E); linearity of the functionals makes
    the level exact.  The raw channels settle as one batch and so do their
    mixtures, each row bit for bit the channel mix(raw, partner, alpha)
    gives alone.
    """
    top, targets = _checked_targets(tag, targets)
    draws = [_draw(rng, max_support) for rng in rngs]
    _check_count(len(draws), targets)
    return _pinned_channels(_concatenated(draws), tag, targets, top) if draws else []


def keyed_channels_with_value(
    keys: Iterable[Sequence[int]],
    tag: Functional,
    targets: Sequence[float],
) -> list[Channel]:
    """random_channels_with_value([trial_rng(*key) for key in keys], tag,
    targets), bit for bit, with every key's draw read off its PCG64 state
    as raw words (_keyed_draws) instead of through Generator calls."""
    top, targets = _checked_targets(tag, targets)
    keys = list(keys)
    _check_count(len(keys), targets)
    return _pinned_channels(_keyed_draws(keys), tag, targets, top) if keys else []


def random_channel(rng: np.random.Generator, max_support: int = MAX_RAW_SUPPORT) -> Channel:
    """Raw random channel: 1..max_support points, eps uniform on [0, 1/2],
    weights from normalized independent exponentials."""
    return _raw_channels([_draw(rng, max_support)])[0]


def random_channel_with_value(
    rng: np.random.Generator,
    tag: Functional,
    target: float,
    max_support: int = MAX_RAW_SUPPORT,
) -> Channel:
    """Random channel with the selected functional pinned exactly to target:
    random_channels_with_value on a batch of one."""
    return random_channels_with_value([rng], tag, [target], max_support)[0]


# ----------------------------------------------------------------------
# Randomized suites


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):  # no slack is < -nan: a NaN tol passes every case
        raise ValueError(f"tol must be a finite number, got {tol!r}")


@dataclass
class SuiteSummary:
    name: str
    trials: int = 0
    violations: int = 0
    inconclusive: int = 0
    min_slack: float = math.inf

    def absorb(self, report: BoundReport, tol: float) -> None:
        self.trials += 1
        if not report.hypothesis_ok:
            self.inconclusive += 1
            return
        self.min_slack = min(self.min_slack, report.slack)
        if report.violated(tol):
            self.violations += 1

    @property
    def ok(self) -> bool:
        return self.violations == 0


DEFAULT_SWEEP_LEVELS = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_SWEEP_RHOS = (
    Polynomial.monomial(2),
    Polynomial.monomial(3),
    Polynomial.monomial(6),
    Polynomial((0.0, 0.0, 0.0, 0.0, 1.0, -0.75)),  # x^5 - 0.75 x^6
)


def _draw_case(info: InequalityInfo, rng: np.random.Generator
               ) -> tuple[Functional, list[_Draw], float | None, int | None]:
    """One catalog trial's generator calls: (tag, raw draws, alpha, power)."""
    tag = Functional.H if rng.integers(2) == 0 else Functional.B
    draws = [_draw(rng, MAX_RAW_SUPPORT) for _ in range(info.channels)]
    power = int(rng.integers(2, 7)) if info.needs_power else None
    alpha = float(rng.random()) if info.needs_alpha else None
    return tag, draws, alpha, power


def inequality_suite(
    seed: int,
    trials: int,
    codes: Iterable[int] | None = None,
    tol: float = EXACT_SLACK_TOL,
) -> tuple[list[BoundReport], dict[int, SuiteSummary]]:
    """Run `trials` random instances of each catalog inequality.

    Trial t of inequality c draws from the stream trial_rng(seed, c, t), so
    results do not depend on execution order.  Each code's trials are drawn
    first through trial_map, their raw channels settled as one batch, and
    then evaluated together by the evaluator of check_inequality.  Unknown
    codes, negative trial counts and a non-finite tol raise ValueError
    before any draw.
    """
    codes = sorted(INEQUALITIES if codes is None else codes)
    for code in codes:
        if code not in INEQUALITIES:
            raise ValueError(f"unknown inequality code {code!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials!r}")
    _check_tol(tol)
    reports: list[BoundReport] = []
    summaries: dict[int, SuiteSummary] = {}
    for code in codes:
        info = INEQUALITIES[code]
        drawn = trial_map(partial(_draw_case, info), [(seed, code, t) for t in range(trials)])
        chans = _raw_channels([d for _, draws, _, _ in drawn for d in draws])
        k = info.channels
        cases: list[_Case] = [
            (tag, chans[k * t : k * t + k], alpha, power)
            for t, (tag, _, alpha, power) in enumerate(drawn)
        ]
        summary = SuiteSummary(name=f"ineq{code}")
        for report in _check_cases(code, cases, seed):
            reports.append(report)
            summary.absorb(report, tol)
        summaries[code] = summary
    return reports, summaries


def _sweep(
    name: str,
    seed: int,
    bound_factory,
    levels: Sequence[float],
    rhos: Sequence[Polynomial],
    tags: Sequence[Functional],
    per_cell: int,
    tol: float,
) -> tuple[list[BoundReport], SuiteSummary]:
    """The reports of one sweep; a negative per_cell or a non-finite tol
    raises ValueError before any draw."""
    if per_cell < 0:
        raise ValueError(f"per_cell must be nonnegative, got {per_cell!r}")
    _check_tol(tol)
    reports: list[BoundReport] = []
    summary = SuiteSummary(name=name)
    for ri, rho in enumerate(rhos):
        for tag in tags:
            # bound_factory gives each level's items in one call.  Every
            # item of a row shares one constraint (the tag, or E for the
            # fixed-error pair), so the row's channels are one sampler batch
            # and one batched series call, and every item of a level reads
            # that level's channels; reports keep the (level, item, trial)
            # order.
            items = bound_factory(tag, rho, levels)
            constraint = items[0][0].constraint if items else tag
            channels = keyed_channels_with_value(
                [(seed, ri, ord(tag.value), li, t)
                 for li in range(len(levels)) for t in range(per_cell)],
                constraint,
                [level for level in levels for _ in range(per_cell)],
            )
            values = phi_of_poly_columns(tag, rho, channels, SWEEP_PHI_TOL).value.tolist()
            for li, (level, level_items) in enumerate(zip(levels, items)):
                prefix = f"rho={rho};tag={tag.value};level={level!r};trial="
                for item in level_items:
                    for t in range(per_cell):
                        k = li * per_cell + t
                        report = item.report(values[k], params=f"{prefix}{t}", seed=seed,
                                             witnesses=(channels[k],))
                        reports.append(report)
                        summary.absorb(report, tol)
    return reports, summary


def upper_bound_sweep(
    seed: int,
    levels: Sequence[float] = DEFAULT_SWEEP_LEVELS,
    rhos: Sequence[Polynomial] = DEFAULT_SWEEP_RHOS,
    tags: Sequence[Functional] = SERIES_TAGS,
    per_cell: int = 500,
    tol: float = SWEEP_SLACK_TOL,
) -> tuple[list[BoundReport], SuiteSummary]:
    """Fixed-Phi channels against the convexity upper bound."""
    factory = lambda tag, rho, levels: [(convexity_upper_bound(tag, rho, l),) for l in levels]
    return _sweep("upper", seed, factory, levels, rhos, tags, per_cell, tol)


def lower_bound_sweep(
    seed: int,
    levels: Sequence[float] = DEFAULT_SWEEP_LEVELS,
    rhos: Sequence[Polynomial] = DEFAULT_SWEEP_RHOS,
    tags: Sequence[Functional] = SERIES_TAGS,
    per_cell: int = 500,
    tol: float = SWEEP_SLACK_TOL,
) -> tuple[list[BoundReport], SuiteSummary]:
    """Fixed-Phi channels against the monotone lower bound."""
    factory = lambda tag, rho, levels: [(monotone_lower_bound(tag, rho, l),) for l in levels]
    return _sweep("lower", seed, factory, levels, rhos, tags, per_cell, tol)


DEFAULT_ERROR_LEVELS = tuple(round(0.05 * k, 2) for k in range(1, 10))


def fixed_error_sweep(
    seed: int,
    levels: Sequence[float] = DEFAULT_ERROR_LEVELS,
    rhos: Sequence[Polynomial] = DEFAULT_SWEEP_RHOS,
    tags: Sequence[Functional] = SERIES_TAGS,
    per_cell: int = 500,
    tol: float = SWEEP_SLACK_TOL,
) -> tuple[list[BoundReport], SuiteSummary]:
    """Fixed-E channels against the BEC-minimum / BSC-maximum bracket."""
    return _sweep("fixed_error", seed, _fixed_error_rows, levels, rhos, tags, per_cell, tol)
