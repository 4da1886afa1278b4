import importlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eicomb import bounds
from eicomb.area import EnsembleParams, area_margin_sweep
from eicomb.bounds import (
    INEQUALITIES,
    check_inequality,
    convexity_upper_bound,
    fixed_error_extremes,
    fixed_error_sweep,
    inequality_suite,
    keyed_channels_with_value,
    keyed_rows_with_value,
    lower_bound_sweep,
    monotone_lower_bound,
    random_channel,
    random_channel_with_value,
    random_channels_with_value,
    trial_map,
    trial_rng,
    upper_bound_sweep,
)
from eicomb.channel import (EPS_MERGE_TOL, WEIGHT_DROP_TOL, _mixtures, _trusted, bec, bsc,
                            channel, mix)
from eicomb.convolution import phi_of_poly_convolved
from eicomb.functionals import Functional, complement, evaluate, h2, kernel, pointwise
from eicomb.series import (DEFAULT_TERM_CAP, Polynomial, complement_of_convolution,
                           poly_from_string)

from test_convolution import loop_phi_of_poly
from test_series import _series_oracle

# eicomb.channel the module; the package's `channel` is the constructor
channel_module = importlib.import_module("eicomb.channel")

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is an optional test dependency
    st = None

H, B, E = Functional.H, Functional.B, Functional.E


# ----------------------------------------------------------------------
# extremal bound templates


def test_upper_bound_cubic_entropy():
    item = convexity_upper_bound(H, Polynomial.monomial(3), 0.5)
    assert item.hypothesis_ok
    assert item.bound == pytest.approx(0.875, abs=1e-15)
    assert item.extremal.approx_eq(bec(0.5))
    # the bound value is the achieving channel's value
    assert phi_of_poly_convolved(H, Polynomial.monomial(3), bec(0.5)) == pytest.approx(
        item.bound, abs=1e-12
    )


def test_upper_bound_linear_case_is_the_constraint():
    for phi0 in (0.2, 0.5, 0.9):
        item = convexity_upper_bound(H, Polynomial((1.0,)), phi0)
        assert item.bound == pytest.approx(phi0, abs=1e-15)


def test_upper_bound_sparse_pair_value():
    item = convexity_upper_bound(H, poly_from_string("x^5-0.75x^6"), 0.5)
    assert item.hypothesis_ok
    assert item.bound == pytest.approx(0.23046875, abs=1e-10)


def test_upper_bound_hypothesis_gates_to_inconclusive():
    # at low phi0 the moment range outgrows the convexity range
    item = convexity_upper_bound(H, poly_from_string("x^5-0.75x^6"), 0.1)
    assert not item.hypothesis_ok
    report = item.report(0.123)
    assert not report.hypothesis_ok
    assert not report.violated(1e-9)  # inconclusive is never a violation


def test_lower_bound_cubic_entropy():
    item = monotone_lower_bound(H, Polynomial.monomial(3), 0.5)
    assert item.hypothesis_ok
    assert item.bound == pytest.approx(0.7748969214446034, abs=1e-10)


def test_lower_bound_known_bhattacharyya_value():
    item = monotone_lower_bound(B, Polynomial((1.0,)), 0.6)
    assert item.bound == pytest.approx(0.36, abs=1e-12)


def test_lower_bound_vanishes_for_perfect_channel():
    for tag in (H, B):
        item = monotone_lower_bound(tag, Polynomial.monomial(4), 0.0)
        assert item.bound == pytest.approx(0.0, abs=1e-12)


def test_fixed_error_extremes_square():
    lower, upper = fixed_error_extremes(H, Polynomial.monomial(2), 0.1)
    assert lower.hypothesis_ok and upper.hypothesis_ok
    assert lower.bound == pytest.approx(0.36, abs=1e-12)
    assert upper.bound == pytest.approx(h2(0.18), abs=1e-12)
    assert lower.extremal.approx_eq(bec(0.2))
    assert evaluate(E, lower.extremal) == pytest.approx(0.1, abs=1e-15)


def test_fixed_error_extremes_degenerate_levels():
    lo0, hi0 = fixed_error_extremes(B, Polynomial.monomial(3), 0.0)
    assert lo0.bound == hi0.bound == 0.0
    rho = Polynomial((0.5, 0.0, 0.25))
    lo5, hi5 = fixed_error_extremes(B, rho, 0.5)
    assert lo5.bound == pytest.approx(rho(1.0), abs=1e-12)
    assert hi5.bound == pytest.approx(rho(1.0), abs=1e-12)


def test_report_orientation():
    item = convexity_upper_bound(H, Polynomial.monomial(2), 0.4)
    rep = item.report(0.3)
    assert rep.slack == rep.rhs - rep.lhs
    assert rep.slack > 0  # value below the upper bound
    low = monotone_lower_bound(H, Polynomial.monomial(2), 0.4)
    rep2 = low.report(0.9)
    assert rep2.slack > 0  # value above the lower bound


# ----------------------------------------------------------------------
# samplers


def test_random_channel_shape():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = random_channel(rng)
        assert 1 <= a.size <= 5
        assert float(a.eps.min()) >= 0.0 and float(a.eps.max()) <= 0.5
        assert abs(float(a.w.sum()) - 1.0) <= 1e-12


def test_fixed_value_sampler_is_exact():
    for tag, top in ((H, 1.0), (B, 1.0), (E, 0.5)):
        for i in range(300):
            rng = trial_rng(55, i)
            target = top * float(rng.random())
            a = random_channel_with_value(rng, tag, target)
            assert abs(evaluate(tag, a) - target) <= 1e-12


def test_fixed_value_sampler_mixes_exactly_as_with_fresh_partners():
    # the shared perfect/useless channels give the draws a fresh bsc() gives
    for tag, top in ((H, 1.0), (B, 1.0), (E, 0.5)):
        for i in range(100):
            target = top * float(trial_rng(56, i).random())
            a = random_channel_with_value(trial_rng(57, i), tag, target)
            raw = random_channel(trial_rng(57, i))
            v = evaluate(tag, raw)
            if v > target:
                want = _scalar_mix(raw, bsc(0.0), target / v)
            elif v < target:
                want = _scalar_mix(raw, bsc(0.5), (top - target) / (top - v))
            else:
                want = raw
            assert np.array_equal(a.eps, want.eps) and np.array_equal(a.w, want.w)


def test_fixed_value_sampler_rejects_bad_target():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        random_channel_with_value(rng, E, 0.7)


def _scalar_mix(a, b, alpha):
    """The one-channel mix the batched mixtures replaced."""
    if alpha == 1.0:
        return a
    if alpha == 0.0:
        return b
    return _trusted(np.concatenate([a.eps, b.eps]),
                    np.concatenate([a.w * alpha, b.w * (1.0 - alpha)]))


def _scalar_random_channel(rng, max_support=5):
    """The one-channel sampler the batched settle replaced."""
    m = int(rng.integers(1, max_support + 1))
    eps = rng.random(m) * 0.5
    w = rng.standard_exponential(m)
    return _trusted(eps, w / w.sum())


def _scalar_random_channel_with_value(rng, tag, target, max_support=5):
    top = 0.5 if tag is Functional.E else 1.0
    if not 0.0 <= target <= top:
        raise ValueError(f"target {target!r} out of range for {tag.value}")
    raw = _scalar_random_channel(rng, max_support)
    v = evaluate(tag, raw)
    if v == target:
        return raw
    if v > target:
        return _scalar_mix(raw, bsc(0.0), target / v)
    return _scalar_mix(raw, bsc(0.5), (top - target) / (top - v))


def _same_bits(a, b):
    return a.eps.tobytes() == b.eps.tobytes() and a.w.tobytes() == b.w.tobytes()


class _Scripted:
    """A generator that draws one given raw channel (eps in draw order, and
    unnormalized weights); random() returns 2*eps, which the sampler halves
    exactly."""

    def __init__(self, eps, w):
        self.eps = np.array(eps, dtype=float)
        self.w = np.array(w, dtype=float)

    def integers(self, low, high):
        assert low <= self.eps.size < high
        return self.eps.size

    def random(self, m):
        return self.eps * 2.0

    def standard_exponential(self, m):
        return self.w.copy()


def _sampler_targets(tag, seed, n, max_support):
    """Targets 0, top, mid-range and the raw draw's own value, in turn."""
    top = 0.5 if tag is E else 1.0
    targets = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            targets.append(0.0)
        elif kind == 1:
            targets.append(top)
        elif kind == 2:
            targets.append(top * float(trial_rng(seed + 1, i).random()))
        else:
            raw = _scalar_random_channel(trial_rng(seed, i), max_support)
            targets.append(evaluate(tag, raw))
    return targets


@pytest.mark.parametrize("tag", (H, B, E))
@pytest.mark.parametrize("max_support", (5, 9, 12))
def test_batched_sampler_is_the_scalar_sampler_bit_for_bit(tag, max_support):
    n = 400
    targets = _sampler_targets(tag, 80, n, max_support)
    got = random_channels_with_value(
        [trial_rng(80, i) for i in range(n)], tag, targets, max_support
    )
    for i, (a, target) in enumerate(zip(got, targets)):
        want = _scalar_random_channel_with_value(trial_rng(80, i), tag, target, max_support)
        assert _same_bits(a, want), i
        assert _same_bits(random_channel_with_value(trial_rng(80, i), tag, target, max_support),
                          want)
        assert _same_bits(random_channel(trial_rng(81, i), max_support),
                          _scalar_random_channel(trial_rng(81, i), max_support))
    # the v == target rows come back as the raw channel itself
    raw_rows = [i for i in range(3, n, 4)
                if _same_bits(got[i], _scalar_random_channel(trial_rng(80, i), max_support))]
    assert len(raw_rows) == n // 4


# Hand-built draws (eps, unnormalized weights, tag, target) whose settle or
# mixture merges points, drops a weight or passes a channel through, each
# for its own reason.
_EDGE_DRAWS = {
    "point at 0 meets the perfect partner": ([0.2, 0.0], [1.0, 2.0], H, 0.1),
    "point near 0 merges with the perfect partner": ([3e-13, 0.3], [1.0, 1.0], H, 0.2),
    "point at 1/2 meets the useless partner": ([0.5, 0.1], [1.0, 1.0], B, 0.99),
    "point near 1/2 merges with the useless partner": ([0.1, 0.5 - 4e-13], [1.0, 1.0], E, 0.4),
    "points within the merge tolerance": ([0.2, 0.3, 0.2 + EPS_MERGE_TOL / 2], [1.0, 2.0, 3.0],
                                          H, 0.5),
    "identical points": ([0.25, 0.25], [1.0, 3.0], B, 0.5),
    "a raw weight under the drop tolerance": ([0.1, 0.2, 0.3], [1.0, 1e-17, 0.5], H, 0.5),
    "a mixed weight under the drop tolerance": ([0.3, 0.4], [1.0, 1.0], E, 1e-17),
    "a partner weight under the drop tolerance": ([0.3], [1.0], E, 0.3 * (1.0 - 1e-16)),
    "target 0 returns the perfect partner": ([0.1, 0.2], [1.0, 1.0], B, 0.0),
    "target top returns the useless partner": ([0.1, 0.2], [1.0, 1.0], E, 0.5),
    "a useless mix of weight 1 returns the raw channel": ([2e-17], [1.0], E, 3e-17),
    "the draw has its target's value": ([0.25], [1.0], E, 0.25),
    "a draw too wide for the batch": ([0.01 * k for k in range(1, 8)], [1.0] * 7, H, 0.5),
}


def test_batched_sampler_fallback_rows_are_the_scalar_sampler():
    plain = ([0.3, 0.1], [1.0, 2.0])
    for tag, target in ((H, 0.2), (B, 0.95), (E, 0.4)):
        want = _scalar_random_channel_with_value(_Scripted(*plain), tag, target)
        assert _same_bits(random_channel_with_value(_Scripted(*plain), tag, target), want)
    for reason, (eps, w, tag, target) in _EDGE_DRAWS.items():
        want = _scalar_random_channel_with_value(_Scripted(eps, w), tag, target, 7)
        # alone, and between plain rows of the same batch
        alone = random_channel_with_value(_Scripted(eps, w), tag, target, 7)
        rngs = [_Scripted(*plain), _Scripted(eps, w), _Scripted(*plain)]
        batch = random_channels_with_value(rngs, tag, [target] * 3, 7)
        assert _same_bits(alone, want) and _same_bits(batch[1], want), reason
        plain_want = _scalar_random_channel_with_value(_Scripted(*plain), tag, target)
        assert _same_bits(batch[0], plain_want) and _same_bits(batch[2], plain_want), reason


def test_raw_sampler_fallback_rows_are_the_scalar_sampler():
    for eps, w in (([0.2, 0.3, 0.2 + EPS_MERGE_TOL / 2], [1.0, 2.0, 3.0]),
                   ([0.1, 0.2, 0.3], [1.0, 1e-17, 0.5]),
                   ([0.0, 0.5], [1.0, 1.0]),
                   ([0.01 * k for k in range(1, 10)], [1.0] * 9)):
        want = _scalar_random_channel(_Scripted(eps, w), 9)
        assert _same_bits(random_channel(_Scripted(eps, w), 9), want)
        assert np.all(want.w >= WEIGHT_DROP_TOL)


def test_sampler_freezes_only_the_raw_channels_it_returns(monkeypatch):
    frozen = []
    real = bounds._channels

    def channels(eps, w, off, rows=None):
        out = real(eps, w, off, rows)
        frozen.append(len(out))
        return out

    monkeypatch.setattr(bounds, "_channels", channels)
    n = 400
    targets = _sampler_targets(H, 80, n, 5)
    got = random_channels_with_value([trial_rng(80, i) for i in range(n)], H, targets)
    # of every four rows, targets 0 and top return the partners themselves,
    # the mid-range target's mixture settles in one batch with the others,
    # and only the row at its own value freezes its raw channel
    assert frozen == [n // 4, n // 4]
    assert all(got[i] is bounds._PERFECT for i in range(0, n, 4))
    assert all(got[i] is bounds._USELESS for i in range(1, n, 4))


def test_batched_sampler_checks_its_targets():
    with pytest.raises(ValueError, match="out of range"):
        random_channels_with_value([trial_rng(1, i) for i in range(3)], H, [0.5, 1.5, 0.2])
    with pytest.raises(ValueError, match="3 generators for 2 targets"):
        random_channels_with_value([trial_rng(1, i) for i in range(3)], H, [0.5, 0.2])
    assert random_channels_with_value([], B, []) == []


def test_trial_rng_reproducible():
    a = trial_rng(3, 5).random(4)
    b = trial_rng(3, 5).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_rng(3, 6).random(4))


# ----------------------------------------------------------------------
# keyed streams: trial_map against the one-key oracle trial_rng

# words at the uint32 edges: a word's top, a two-word int, a three-word int
EDGE_WORDS = (0, 2**32 - 1, 2**32, 2**64 + 5)


def _suite_calls(rng):
    """The generator's state and the suites' own first calls on it."""
    state = rng.bit_generator.state
    m = int(rng.integers(1, 7))
    return (state, m, int(rng.integers(2)), rng.random(m).tobytes(),
            rng.standard_exponential(m).tobytes(), float(rng.random()).hex())


def _assert_streams_match(keys):
    assert trial_map(_suite_calls, keys) == [_suite_calls(trial_rng(*key)) for key in keys]


def test_trial_map_matches_trial_rng_on_edge_words():
    keys = [key for n in range(1, 8)
            for key in itertools.islice(itertools.product(EDGE_WORDS, repeat=n), 0, None, n)]
    _assert_streams_match(keys)  # mixed word counts within one batch
    for key in keys[:: len(keys) // 9]:
        _assert_streams_match([key])


def test_trial_map_matches_trial_rng_on_suite_keys():
    # the suites' key shapes, with seeds of one and of two words
    for seed in (0, 11, 2**32 - 1, 5000000000):
        _assert_streams_match([(seed, 9, t) for t in range(25)])
        _assert_streams_match([(seed, 3, ord("H"), 8, t) for t in range(25)])


def test_trial_map_of_an_empty_batch_draws_nothing():
    assert trial_map(lambda rng: pytest.fail("drew for no key"), []) == []


@pytest.mark.parametrize("key", [(-1,), (3, -1, 2), (5, 1, 2, 3, -2**40)])
def test_trial_map_rejects_a_negative_key_as_trial_rng_does(key):
    with pytest.raises(ValueError, match="expected non-negative integer") as want:
        trial_rng(*key)
    with pytest.raises(ValueError, match="expected non-negative integer") as got:
        trial_map(_suite_calls, [(1, 2), key])
    assert str(got.value) == str(want.value)


if st is not None:
    _KEY_WORD = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**96))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(_KEY_WORD, min_size=1, max_size=7).map(tuple), max_size=12))
    def test_trial_map_matches_trial_rng_property(keys):
        _assert_streams_match(keys)
else:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_trial_map_matches_trial_rng_property():
        pass


def _generator_draws(rngs):
    """The sampler's draws on each generator, back to back."""
    return bounds._concatenated([bounds._draw(rng, bounds.MAX_RAW_SUPPORT) for rng in rngs])


def _assert_same_draws(got, want):
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_keyed_channels_equal_the_generator_route():
    keys = [(21, gi, t) for gi in range(4) for t in range(30)]
    for tag, top in ((H, 1.0), (B, 1.0), (E, 0.5)):
        targets = [top * (0.1 + 0.2 * (i % 5)) for i in range(len(keys))]
        got = keyed_channels_with_value(keys, tag, targets)
        want = random_channels_with_value([trial_rng(*k) for k in keys], tag, targets)
        assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True))
    # key shapes of two, three and five words (those of the area sweep and
    # of the bound sweeps among them), with seeds of one and of two words
    for seed in (0, 11, 2**32 - 1, 5000000000):
        for keys in ([(seed, gi, t) for gi in range(3) for t in range(40)],
                     [(seed, ri, ord(tag), li, t) for ri in range(2) for tag in "HB"
                      for li in range(3) for t in range(10)],
                     [(seed, 99, t) for t in range(60)]):
            _assert_same_draws(bounds._keyed_draws(keys),
                               _generator_draws(trial_rng(*k) for k in keys))
            targets = [0.05 + 0.9 * (i % 7) / 6 for i in range(len(keys))]
            for tag in (H, B):
                got = keyed_channels_with_value(keys, tag, targets)
                want = random_channels_with_value([trial_rng(*k) for k in keys], tag, targets)
                assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True))
    with pytest.raises(ValueError, match="out of range"):
        keyed_channels_with_value([(1, 0)], H, [1.5])
    with pytest.raises(ValueError, match="2 generators for 1 targets"):
        keyed_channels_with_value([(1, 0), (1, 1)], H, [0.5])
    assert keyed_channels_with_value([], B, []) == []



def test_keyed_rows_are_the_keyed_channels_back_to_back():
    # targets 0 and top (the partners' rows), mid-range (mixtures) and the
    # draw's own value (raw rows spliced among the mixtures)
    n = 400
    keys = [(80, i) for i in range(n)]
    for tag in (H, B, E):
        targets = _sampler_targets(tag, 80, n, bounds.MAX_RAW_SUPPORT)
        eps, w, off = keyed_rows_with_value(keys, tag, targets)
        got = keyed_channels_with_value(keys, tag, targets)
        assert off.tolist() == np.cumsum([0] + [a.size for a in got]).tolist()
        assert eps.tobytes() == np.concatenate([a.eps for a in got]).tobytes()
        assert w.tobytes() == np.concatenate([a.w for a in got]).tobytes()
        _, alpha, _ = bounds._keyed_pinned_rows(keys, tag, targets)
        assert (alpha == 1.0).sum() == (alpha == 0.0).sum() // 2 == n // 4
    assert [v.size for v in keyed_rows_with_value([], H, [])] == [0, 0, 1]


def test_row_values_are_one_dot_per_row():
    # one matmul per row width against np.dot on each row, on every width
    # a raw draw can settle to and one more
    rng = np.random.default_rng(2024)
    sizes = np.repeat(np.arange(1, bounds.MAX_RAW_SUPPORT + 2), 1000)
    rng.shuffle(sizes)
    off = np.concatenate(([0], sizes.cumsum()))
    eps = 0.5 * 10.0 ** rng.uniform(-16, 0, off[-1])
    w = rng.standard_exponential(off[-1]) * 10.0 ** rng.uniform(-3, 0, off[-1])
    for tag in (H, B, E):
        f = pointwise(tag, eps)
        want = [float(np.dot(w[lo:hi], f[lo:hi])) for lo, hi in zip(off[:-1], off[1:])]
        got = bounds._row_values(tag, (eps, w, off))
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


try:  # numpy's own SeedSequence coercion of an int sequence
    from numpy.random.bit_generator import _coerce_to_uint32_array
except ImportError:  # a private name: skip the tests that read it
    _coerce_to_uint32_array = None


def _assert_seedsequence_words(keys):
    words, lengths = bounds._key_words(keys)
    coerced = [_coerce_to_uint32_array(key) for key in keys]
    assert lengths.dtype == np.array([1]).dtype
    assert lengths.tolist() == [c.size for c in coerced]
    assert words.dtype == np.uint32 and words.shape == (max([4] + lengths.tolist()), len(keys))
    for i, c in enumerate(coerced):
        assert words[: c.size, i].tolist() == c.tolist() and not words[c.size :, i].any()


@pytest.mark.skipif(_coerce_to_uint32_array is None, reason="numpy's coercion is not importable")
def test_key_words_of_one_word_keys_skip_the_loop(monkeypatch):
    one_word = (
        [(seed, gi, t) for seed in (0, 11, 2**32 - 1) for gi in range(3) for t in range(7)],
        [(5, ri, ord(tag), li, t) for ri in range(2) for tag in "HB" for li in range(3)
         for t in range(4)],
        [(3,), (0,)],
        [(True, 7), (2, 9)],  # np.array makes integers of a bool among ints
        [tuple(np.array([4, 2**32 - 1], dtype=np.uint64))],
        np.arange(12, dtype=np.int32).reshape(4, 3).tolist(),
    )
    monkeypatch.setattr(bounds, "operator", None)  # the loop coerces with operator.index
    for keys in one_word:
        _assert_seedsequence_words(keys)


@pytest.mark.skipif(_coerce_to_uint32_array is None, reason="numpy's coercion is not importable")
def test_key_words_of_other_keys_take_the_loop():
    for keys in ([(2**32, 1), (5, 6)], [(0, 2**40)],   # wider than one word
                 [(2**32, 1), (3, 2**64 + 5)],         # and past int64
                 [(1, 2, 3), (4, 5)],                  # ragged
                 [(True,), (False,)],                  # bool
                 [(2**63, 1), (2**64 - 1, 0)],         # a float array
                 [(np.uint64(3), np.int64(2))]):       # a float array
        _assert_seedsequence_words(keys)
    for keys in ([(-1, 2)], [(3, 4), (5, -2**40)]):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            bounds._key_words(keys)
    for keys in ([(1.0, 2)], [(1, 2), (3, 4.5)], [("3", 1)], [(1, [2])]):
        with pytest.raises(TypeError):
            bounds._key_words(keys)


# PCG64 steps its 128-bit LCG state s -> s * mult + inc and then outputs
# XSL-RR of the new state: (hi ^ lo) rotated right by the state's top 6 bits.
_MASK64 = 2**64 - 1
_MOD128 = 2**128
_LCG_MULT = bounds._PCG64_MULT


def _state_with_output(word, hi):
    """A 128-bit state, its high word hi, whose XSL-RR output is word."""
    rot = hi >> 58
    lo = hi ^ (((word << rot) | (word >> (64 - rot))) & _MASK64)
    return hi << 64 | lo


def _pcg64_state_before(words, hi=(0x9E3779B97F4A7C15, 0xD1B54A32D192ED03)):
    """A PCG64 state dict whose first random_raw() outputs are words (one or
    two of them): the first output state stepped back by the inverse of the
    multiplier, the increment chosen so that the second follows."""
    s1 = _state_with_output(words[0], hi[0])
    inc = 0xDA3E39CB94B95BDB
    if len(words) > 1:
        s2 = _state_with_output(words[1], hi[1])
        if (s2 - s1 * _LCG_MULT) % 2 == 0:  # inc must be odd: flip the low bit of s2
            s2 = _state_with_output(words[1], hi[1] ^ 1)
        inc = (s2 - s1 * _LCG_MULT) % _MOD128
    pre = (s1 - inc) * pow(_LCG_MULT, -1, _MOD128) % _MOD128
    state = {"bit_generator": "PCG64", "state": {"state": pre, "inc": inc},
             "has_uint32": 0, "uinteger": 0}
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state
    assert [bit_generator.random_raw() for _ in words] == list(words)
    return state


@pytest.mark.parametrize("words", [
    (0xBEEF0001 << 32,),  # low half rejected: the buffered high half draws
    (0, 0xC0FFEE00),      # both halves rejected: the next word's low half draws
    (0, 0xFACE << 32),    # then its low half too: that word's high half draws
    (0x7FFF_FFFF,),       # no rejection
])
def test_keyed_draws_follow_the_lemire_rejections(monkeypatch, words):
    state = _pcg64_state_before(words)
    generator = np.random.PCG64(0)
    generator.state = state
    want = _generator_draws([np.random.Generator(generator)])
    monkeypatch.setattr(bounds, "_pcg64_states", lambda keys: iter([state] * len(keys)))
    _assert_same_draws(bounds._keyed_draws([(0,)]), want)
    # a key after it starts from its own state, whatever the rejections read
    _assert_same_draws(bounds._keyed_draws([(0,), (1,)]), [np.concatenate([v, v]) for v in want])


# One CSV row per suite caller of the keyed streams, as the sampler's first
# version (one default_rng per trial) wrote it.
_CUBE = poly_from_string("x^3")
PINNED_ROWS = {
    "ineq9": (
        lambda: inequality_suite(5000000000, 3, codes=(9,))[0][2].csv_row(),
        "ineq9,name=mixture_power;tag=B;d=5;alpha=0.41321138110310807,0.9982565847092288,"
        "0.9998697857268557,0.001613201017626853,1,5000000000",
    ),
    "upper": (
        lambda: upper_bound_sweep(11, levels=(0.3,), rhos=(_CUBE,), tags=(B,),
                                  per_cell=2)[0][1].csv_row(),
        # lhs and slack as the point layer reads the row exactly
        "upper,rho=x^3;tag=B;level=0.3;trial=1,0.6566892200794806,0.657,"
        "0.0003107799205194217,1,11",
    ),
    "fixed_error": (
        lambda: fixed_error_sweep(5000000000, levels=(0.15,),
                                  rhos=(poly_from_string("x^5-0.75x^6"),), tags=(H,),
                                  per_cell=2)[0][3].csv_row(),
        # lhs and slack as the point layer reads the row exactly
        "upper,rho=x^5 - 0.75*x^6;tag=H;level=0.15;trial=1,0.22755817690478142,"
        "0.23703234201148993,0.00947416510670851,1,5000000000",
    ),
    "area": (
        lambda: next(r for r in area_margin_sweep(EnsembleParams(100, 200), 7, grid_points=12,
                                                   channels_per_point=3)
                     if r.checked).csv_row(EnsembleParams(100, 200)),
        "100,200,0.18181818181818182,7.398737188454976e-05,1,1,0.3181818181291476,"
        "7.398737188454976e-05,0.318107830757263",
    ),
}


@pytest.mark.parametrize("caller", sorted(PINNED_ROWS))
def test_suite_rows_keep_their_streams(caller):
    row, want = PINNED_ROWS[caller]
    assert row() == want


# ----------------------------------------------------------------------
# inequality checks


def test_inequality_catalog_complete():
    assert sorted(INEQUALITIES) == list(range(4, 13))


def test_inequality_arity_validation():
    a, b = bsc(0.1), bec(0.3)
    with pytest.raises(ValueError):
        check_inequality(3, [a], H)
    with pytest.raises(ValueError):
        check_inequality(4, [a], H)
    with pytest.raises(ValueError):
        check_inequality(5, [a], H)  # missing power
    with pytest.raises(ValueError):
        check_inequality(5, [a], H, power=1)
    with pytest.raises(ValueError):
        check_inequality(6, [a], H, power=3)  # spurious power
    with pytest.raises(ValueError):
        check_inequality(9, [a, b], H, power=3)  # missing alpha
    with pytest.raises(ValueError):
        check_inequality(11, [a], E)


def test_check_inequality_takes_an_integer_power_only(monkeypatch):
    a, b = bsc(0.1), bec(0.3)
    want = check_inequality(10, [a, b], H, alpha=0.3, power=2)
    got = check_inequality(10, [a, b], H, alpha=0.3, power=np.int64(2))
    assert (got.params, got.lhs.hex(), got.rhs.hex()) == (
        want.params, want.lhs.hex(), want.rhs.hex())
    assert ";d=2;" in got.params
    monkeypatch.setattr(bounds, "_check_cases", lambda *args: pytest.fail("ran the check"))
    # a float power runs nothing: 2.5 would be reported as d=2.5
    for power in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            check_inequality(10, [a, b], H, alpha=0.3, power=power)
        with pytest.raises(TypeError):
            check_inequality(5, [a], B, power=power)


def test_product_lower_equality_for_erasure_factor():
    # equality holds whenever one factor has constant moments
    for i in range(50):
        rng = trial_rng(66, i)
        a = bec(float(rng.random()))
        b = random_channel(rng)
        for tag in (H, B):
            rep = check_inequality(4, [a, b], tag)
            assert abs(rep.slack) <= 1e-9


def test_product_lower_useless_edge():
    rep = check_inequality(4, [bsc(0.5), bsc(0.5)], H)
    assert rep.lhs == rep.rhs == 0.0


def test_self_sqrt_known_value():
    rep = check_inequality(6, [bsc(0.11)], B)
    assert rep.lhs == pytest.approx(1.0 - 0.6257795138864807, abs=1e-12)
    assert rep.slack >= 0.0


def test_all_inequalities_hold_on_random_trials():
    reports, summaries = inequality_suite(seed=2025, trials=300)
    assert all(s.violations == 0 for s in summaries.values())
    assert min(s.min_slack for s in summaries.values()) >= -1e-12
    assert len(reports) == 9 * 300


def test_catalog_holds_on_a_crossover_near_one_in_a_hundred_million():
    # trial 17 draws BSC(9.5e-9) (H): a complement series stopped at its
    # term cap read 1 - H(a^[2]) too small and gave slack -1.3e-7
    reports, summaries = inequality_suite(127244870, 20, codes=(6,))
    assert summaries[6].violations == 0
    assert min(r.slack for r in reports) > 0.0


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("code, chans", [
    (4, (bsc(1e-9), bsc(1e-9))),
    (4, (bsc(1e-8), bsc(1e-8))),
    (6, (bsc(1e-9),)),
    (6, (bsc(1e-8),)),
], ids=["4-bsc(1e-9)", "4-bsc(1e-8)", "6-bsc(1e-9)", "6-bsc(1e-8)"])
def test_catalog_slack_is_nonnegative_near_the_perfect_channel(code, chans, tag):
    assert check_inequality(code, list(chans), tag).slack >= 0.0


@pytest.mark.parametrize("code", sorted(INEQUALITIES))
def test_suite_equals_per_trial_check_inequality(code):
    # the per-trial loop the suite had before it drew each code's trials
    # first: same trial_rng keys and draw order, one check_inequality each
    info = INEQUALITIES[code]
    want = []
    for t in range(120):
        rng = trial_rng(77, code, t)
        tag = H if rng.integers(2) == 0 else B
        chans = [random_channel(rng) for _ in range(info.channels)]
        power = int(rng.integers(2, 7)) if info.needs_power else None
        alpha = float(rng.random()) if info.needs_alpha else None
        want.append(check_inequality(code, chans, tag, alpha=alpha, power=power, seed=77))
    got, summaries = inequality_suite(seed=77, trials=120, codes=(code,))
    assert len(got) == len(want) == summaries[code].trials
    for g, w in zip(got, want):
        assert (g.kind, g.params, g.seed, g.hypothesis_ok) == (w.kind, w.params, w.seed, w.hypothesis_ok)
        assert all(a.points == b.points for a, b in zip(g.witnesses, w.witnesses))
        for u, v in ((g.lhs, w.lhs), (g.rhs, w.rhs)):
            # a read of a batch is its lone read, bit for bit
            assert u.hex() == v.hex()
        assert g.violated(1e-12) == w.violated(1e-12)


@pytest.mark.parametrize("code", sorted(INEQUALITIES))
def test_suite_call_evaluates_its_complements_in_one_batch(monkeypatch, code):
    # every read of a call, Phi or a complement, of one channel or a
    # convolution, of both tags and all degrees, in one _read_values call
    calls = []
    values = bounds._read_values
    monkeypatch.setattr(bounds, "_read_values",
                        lambda reads: calls.append({t for t, *_ in reads}) or values(reads))
    inequality_suite(seed=3, trials=20, codes=(code,))
    assert calls == [{H, B}]


def test_inequality_suite_validates_before_any_draw(monkeypatch):
    # both draw routes, trial_map and _keyed_draws, set their states here
    monkeypatch.setattr(bounds, "_pcg64_states", lambda keys: pytest.fail("drew a trial"))
    with pytest.raises(ValueError, match=r"^unknown inequality code 3$"):
        inequality_suite(seed=1, trials=5, codes=(3,))
    with pytest.raises(ValueError, match=r"^unknown inequality code 13$"):
        inequality_suite(seed=1, trials=5, codes=(5, 13))
    with pytest.raises(ValueError, match="trials must be nonnegative, got -1"):
        inequality_suite(seed=1, trials=-1)
    # no slack is < -nan, so a NaN tolerance would pass every case
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"tol must be a finite number, got {tol!r}"):
            inequality_suite(seed=1, trials=5, codes=(4,), tol=tol)


def test_inequality_suite_without_trials():
    # every code then hands the evaluator an empty batch
    reports, summaries = inequality_suite(seed=1, trials=0)
    assert reports == []
    assert sorted(summaries) == sorted(INEQUALITIES)
    for s in summaries.values():
        assert (s.trials, s.violations, s.inconclusive, s.min_slack) == (0, 0, 0, math.inf)


@pytest.mark.parametrize("tag", (H, B))
def test_fixed_error_rows_are_the_per_level_loop(tag):
    levels = (0.0,) + bounds.DEFAULT_ERROR_LEVELS + (0.5,)
    for rho in bounds.DEFAULT_SWEEP_RHOS + (Polynomial((0.5, -0.25, 1.0)),):
        rows = bounds._fixed_error_rows(tag, rho, levels)
        assert len(rows) == len(levels)
        for eps, row in zip(levels, rows):
            for item, alone, extremal in zip(row, fixed_error_extremes(tag, rho, eps),
                                             (bec(2.0 * eps), bsc(eps))):
                assert (item.kind, item.level, item.hypothesis_ok) == (
                    alone.kind, alone.level, alone.hypothesis_ok)
                assert item.extremal.points == alone.extremal.points == extremal.points
                assert item.bound.hex() == alone.bound.hex()
                assert item.bound.hex() == loop_phi_of_poly(tag, rho, extremal).hex()


def test_fixed_error_extremals_settle_as_bec_and_bsc_bit_for_bit():
    levels = (0.0, 1e-300, 1e-16, 0.25, 0.5)
    rows = bounds._fixed_error_rows(H, Polynomial.monomial(3), levels)
    for eps, (lo, hi) in zip(levels, rows):
        assert _same_bits(lo.extremal, bec(2.0 * eps)), eps
        assert _same_bits(hi.extremal, bsc(eps)), eps


# (a, b, alpha) of mixtures at their edges: pass-through at alpha 0 and 1,
# points of a and b that merge, and weights that the settle drops
_EDGE_MIXTURES = (
    (bec(0.3), bsc(0.1), 0.0),
    (bec(0.3), bsc(0.1), 1.0),
    (channel([(0.2, 0.5), (0.3, 0.5)]), bsc(0.2 + EPS_MERGE_TOL / 2), 0.4),
    (channel([(0.2, 0.5), (0.3, 0.5)]), bsc(0.3), 0.7),
    (bsc(0.25), bec(0.5), 0.5),
    (bec(0.3), bsc(0.1), 1.0 - 1e-17),  # rounds to 1
    (bec(0.3), bsc(0.1), float(np.nextafter(1.0, 0.0))),  # b's weight is dropped
    (bec(0.3), channel([(0.1, 0.5), (0.3, 0.5)]), 1e-17),  # a's weights are dropped
    (channel([(0.1, 0.5), (0.3, 0.5)]), bsc(0.2), 5e-324),  # a's weights underflow
)


def test_batched_mixtures_are_the_one_channel_mix():
    a, b, alpha = zip(*_EDGE_MIXTURES)
    got = _mixtures(a, b, np.array(alpha))
    for (x, y, t), m in zip(_EDGE_MIXTURES, got):
        want = _scalar_mix(x, y, t)
        assert _same_bits(m, want) and _same_bits(mix(x, y, t), want), t
        if t in (0.0, 1.0):
            assert m is want and mix(x, y, t) is want
    assert _mixtures([], [], np.empty(0)) == []


@pytest.mark.parametrize("code", (9, 10))
@pytest.mark.parametrize("tag", (H, B))
def test_catalog_mixtures_of_a_batch_are_each_cases_own(code, tag):
    cases = [(tag, (x, y), t, 3) for x, y, t in _EDGE_MIXTURES]
    for case, report in zip(cases, bounds._check_cases(code, cases, None)):
        alone = check_inequality(code, case[1], tag, alpha=case[2], power=3)
        assert (report.lhs.hex(), report.rhs.hex()) == (alone.lhs.hex(), alone.rhs.hex())


def _catalog_oracle(code, tag, chans, alpha, d):
    """(lhs, rhs) of catalog inequality `code`, the formulas written out
    with one public single-value call per value read."""
    a, b = chans[0], chans[-1]
    conv = lambda *factors: complement_of_convolution(tag, list(factors))
    comp = lambda c: complement(tag, c)
    phi = lambda c, k: phi_of_poly_convolved(tag, Polynomial.monomial(k), c)
    if code == 4:
        return comp(a) * comp(b), conv((a, 1), (b, 1))
    if code == 5:
        values = [phi(a, k) for k in range(1, d + 1)]
        total = 0.0  # left to right: sum() compensates from Python 3.12 on
        for v in values[:-1]:
            total += v
        return values[-1], values[0] * (d - total)
    if code == 6:
        return comp(a), math.sqrt(conv((a, 2)))
    if code == 7:
        return conv((a, 1), (b, 1)), math.sqrt(conv((a, 2))) * math.sqrt(conv((b, 2)))
    if code == 8:
        return conv((a, 1), (b, 1)), math.sqrt(conv((a, 2), (b, 1))) * math.sqrt(comp(b))
    if code == 9:
        return alpha * phi(a, d) + (1.0 - alpha) * phi(b, d), phi(mix(a, b, alpha), d)
    if code == 10:
        root = 1.0 / d
        return (conv((mix(a, b, alpha), d)) ** root,
                alpha * conv((a, d)) ** root + (1.0 - alpha) * conv((b, d)) ** root)
    if code == 11:
        return phi(a, 1), kernel(tag, max(0.0, 1.0 - 2.0 * evaluate(E, a)))
    return conv((a, 1), (b, 1)), comp(a) * float(np.dot(b.w, 1.0 - 2.0 * b.eps))


def _report_case(report):
    """(tag, channels, alpha, power) of a catalog report."""
    fields = dict(item.split("=", 1) for item in report.params.split(";"))
    power = int(fields["d"]) if "d" in fields else None
    alpha = float(fields["alpha"]) if "alpha" in fields else None
    return Functional(fields["tag"]), report.witnesses, alpha, power


@pytest.mark.parametrize("code", sorted(INEQUALITIES))
def test_catalog_sides_are_the_written_out_formulas(code):
    # guards each code's reads against a swapped or misrouted value
    info = INEQUALITIES[code]
    reports, _ = inequality_suite(seed=11, trials=150, codes=(code,))
    assert {_report_case(r)[0] for r in reports} == {H, B}
    cases = [_report_case(r) for r in reports]
    edges = [((x, y) if info.channels == 2 else (c,),
              t if info.needs_alpha else None, 3 if info.needs_power else None)
             for x, y, t in _EDGE_MIXTURES for c in ((x, y) if info.channels == 1 else (x,))]
    checked = list(zip(cases, reports))
    for tag in (H, B):
        batch = [(tag, chans, alpha, power) for _, chans, alpha, power in cases]
        batch += [(tag, chans, alpha, power) for chans, alpha, power in edges]
        checked += zip(batch, bounds._check_cases(code, batch, None))
    for case, report in checked:
        lhs, rhs = _catalog_oracle(code, *case)
        assert (report.lhs.hex(), report.rhs.hex()) == (lhs.hex(), rhs.hex()), case


def count_batch_settles(monkeypatch):
    """Record the row count of every batched settle from now on; the batch
    of one behind Channel(...) is not counted."""
    rows = []
    real = channel_module._settle_rows

    def settle(eps, w, off=None):
        if off is not None:
            rows.append(off.size - 1)
        return real(eps, w, off)

    monkeypatch.setattr(channel_module, "_settle_rows", settle)
    monkeypatch.setattr(bounds, "_settle_rows", settle)
    return rows


@pytest.mark.parametrize("code", (9, 10))
def test_catalog_settles_draws_once_and_mixtures_once(monkeypatch, code):
    rows = count_batch_settles(monkeypatch)
    inequality_suite(seed=31, trials=20, codes=(code,))
    assert rows == [40, 20]


@pytest.mark.parametrize("runner, extremals",
                         ((upper_bound_sweep, []), (lower_bound_sweep, []),
                          (fixed_error_sweep, [2 * len(bounds.DEFAULT_ERROR_LEVELS)])))
def test_sweep_row_settles_draws_once_and_mixtures_once(monkeypatch, runner, extremals):
    rows = count_batch_settles(monkeypatch)
    runner(seed=5, rhos=(Polynomial.monomial(3),), tags=(B,), per_cell=4)
    draws = 9 * 4  # both default level grids have nine levels
    assert rows == extremals + [draws, draws]


@pytest.mark.parametrize("runner", (upper_bound_sweep, lower_bound_sweep, fixed_error_sweep))
def test_sweeps_reject_a_negative_count_before_any_draw(monkeypatch, runner):
    # both draw routes, trial_map and _keyed_draws, set their states here
    monkeypatch.setattr(bounds, "_pcg64_states", lambda keys: pytest.fail("drew a trial"))
    with pytest.raises(ValueError, match="per_cell must be nonnegative, got -3"):
        runner(seed=1, per_cell=-3)
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"tol must be a finite number, got {tol!r}"):
            runner(seed=1, per_cell=2, tol=tol)
    monkeypatch.undo()
    reports, summary = runner(seed=1, per_cell=0)
    assert reports == [] and summary.trials == 0


def test_inequality_csv_row_shape():
    rep = check_inequality(11, [bsc(0.2)], H, seed=9)
    row = rep.csv_row()
    assert row.startswith("ineq11,")
    assert row.count(",") == 6


# ----------------------------------------------------------------------
# randomized sweeps (reduced sizes; the acceptance suite runs them in full)


def test_upper_bound_sweep_small():
    reports, summary = upper_bound_sweep(
        seed=1, levels=(0.3, 0.7), rhos=(Polynomial.monomial(3),), per_cell=50
    )
    assert summary.violations == 0
    assert summary.inconclusive == 0
    assert summary.min_slack >= -1e-9


def test_lower_bound_sweep_small():
    _, summary = lower_bound_sweep(
        seed=2, levels=(0.2, 0.6), rhos=(poly_from_string("x^5-0.75x^6"),), per_cell=50
    )
    assert summary.violations == 0


def test_fixed_error_sweep_small():
    _, summary = fixed_error_sweep(
        seed=3, levels=(0.05, 0.25), rhos=(Polynomial.monomial(2),), per_cell=50
    )
    assert summary.violations == 0
    assert summary.min_slack >= -1e-9


def test_sweep_flags_hypothesis_failures_not_violations():
    reports, summary = upper_bound_sweep(
        seed=4, levels=(0.05,), rhos=(poly_from_string("x^5-0.75x^6"),), per_cell=20
    )
    assert summary.inconclusive == summary.trials == len(reports)
    assert summary.violations == 0


@pytest.mark.parametrize("runner", (upper_bound_sweep, lower_bound_sweep, fixed_error_sweep))
def test_sweeps_without_levels_report_nothing(runner):
    reports, summary = runner(seed=1, levels=(), per_cell=3)
    assert reports == []
    assert (summary.trials, summary.violations, summary.inconclusive) == (0, 0, 0)
    assert summary.ok


def _per_channel_sweep(seed, factory, levels, rho, tag, per_cell):
    """The sweep's reports with one oracle evaluation per drawn channel: the
    exact read, as every sweep row is small."""
    out = []
    for li, level in enumerate(levels):
        for item in factory(tag, rho, level):
            for t in range(per_cell):
                a = random_channel_with_value(
                    trial_rng(seed, 0, ord(tag.value), li, t), item.constraint, level
                )
                value = _series_oracle(tag, a, rho.terms, 1e-11, DEFAULT_TERM_CAP).value
                params = f"rho={rho};tag={tag.value};level={level!r};trial={t}"
                out.append(item.report(value, params=params, seed=seed, witnesses=(a,)))
    return out


@pytest.mark.parametrize("tag", (H, B))
def test_batched_sweep_reports_equal_per_channel_run(tag):
    rho = poly_from_string("x^5-0.75x^6")
    for runner, factory, levels in (
        (upper_bound_sweep, lambda t, r, lv: (convexity_upper_bound(t, r, lv),), (0.2, 0.9)),
        (fixed_error_sweep, fixed_error_extremes, (0.05, 0.3)),
    ):
        got, summary = runner(seed=9, levels=levels, rhos=(rho,), tags=(tag,), per_cell=7)
        want = _per_channel_sweep(9, factory, levels, rho, tag, 7)
        assert len(got) == len(want) == summary.trials
        for g, w in zip(got, want):
            assert (g.kind, g.params, g.seed, g.hypothesis_ok) == (
                w.kind, w.params, w.seed, w.hypothesis_ok)
            assert g.witnesses[0].points == w.witnesses[0].points
            assert g.lhs.hex() == w.lhs.hex() and g.rhs.hex() == w.rhs.hex()


def test_fixed_error_pair_shares_one_draw_per_key(monkeypatch):
    batches = []
    batch = bounds.phi_of_poly_columns
    monkeypatch.setattr(bounds, "phi_of_poly_columns",
                        lambda tag, rho, chans, tol: batches.append(len(chans)) or
                        batch(tag, rho, chans, tol=tol))
    levels, per_cell = (0.05, 0.2, 0.35), 6
    rhos = (Polynomial.monomial(3), poly_from_string("x^5-0.75x^6"))
    reports, summary = fixed_error_sweep(seed=12, levels=levels, rhos=rhos, per_cell=per_cell)
    assert batches == [len(levels) * per_cell] * (len(rhos) * 2)
    assert len(reports) == summary.trials == len(rhos) * 2 * len(levels) * 2 * per_cell
    for row in range(len(rhos) * 2):
        for li, level in enumerate(levels):
            cell = reports[(row * len(levels) + li) * 2 * per_cell:][: 2 * per_cell]
            tag = H if row % 2 == 0 else B
            for t, (lo, hi) in enumerate(zip(cell[:per_cell], cell[per_cell:])):
                assert (lo.kind, hi.kind) == ("lower", "upper")
                assert lo.params == hi.params
                a, b = lo.witnesses[0], hi.witnesses[0]
                assert a.eps.tobytes() == b.eps.tobytes() and a.w.tobytes() == b.w.tobytes()
                want = random_channel_with_value(
                    trial_rng(12, row // 2, ord(tag.value), li, t), E, level)
                assert a.eps.tobytes() == want.eps.tobytes()
                assert lo.rhs == hi.lhs  # one evaluation serves both bounds
    batches.clear()
    upper_bound_sweep(seed=12, levels=levels, rhos=rhos, per_cell=per_cell)
    assert batches == [len(levels) * per_cell] * (len(rhos) * 2)


def test_warm_up_imports_no_lazy_numpy_submodule():
    # numpy.ma's first import takes ~14 ms; on a workload's first call it
    # would land in every benchmark set-up time
    code = ("import sys, eicomb\n"
            "from eicomb import bounds\n"
            "bounds.inequality_suite(0, 3)\n"
            "bounds.upper_bound_sweep(0, per_cell=2)\n"
            "bounds.fixed_error_sweep(0, per_cell=2)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(bounds.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
