import importlib

import numpy as np
import pytest

from eicomb.channel import (
    Channel,
    ChannelError,
    ChannelFormatError,
    _mixtures,
    _row_totals,
    _settle_rows,
    _trusted,
    bec,
    bsc,
    channel,
    mix,
    parse_channel,
    serialize_channel,
)
from eicomb.functionals import Functional, evaluate


def test_bsc_endpoints():
    assert bsc(0.0).points == ((0.0, 1.0),)
    assert bsc(0.5).points == ((0.5, 1.0),)
    assert bsc(0.11).points == ((0.11, 1.0),)


def test_bsc_range_validation():
    with pytest.raises(ChannelError):
        bsc(-0.01)
    with pytest.raises(ChannelError):
        bsc(0.51)


def test_bec_shapes():
    assert bec(0.0).points == ((0.0, 1.0),)
    assert bec(1.0).points == ((0.5, 1.0),)
    assert bec(0.3).points == ((0.0, 0.7), (0.5, 0.3))
    with pytest.raises(ChannelError):
        bec(1.2)


def test_points_sorted_and_merged():
    a = channel([(0.3, 0.25), (0.1, 0.5), (0.3, 0.25)])
    assert a.points == ((0.1, 0.5), (0.3, 0.5))


def test_merge_is_lossless_for_identical_eps():
    a = channel([(0.2, 0.125), (0.2, 0.375), (0.2, 0.5)])
    assert a.points == ((0.2, 1.0),)


def test_near_coincident_points_merge_to_weighted_mean():
    a = channel([(0.2, 0.5), (0.2 + 5e-13, 0.5)])
    assert a.size == 1
    assert abs(a.eps[0] - (0.2 + 2.5e-13)) < 1e-15


def test_weights_must_sum_to_one():
    with pytest.raises(ChannelError):
        Channel(np.array([0.1, 0.2]), np.array([0.6, 0.5]))


def test_weights_positive():
    with pytest.raises(ChannelError):
        Channel(np.array([0.1, 0.2]), np.array([1.1, -0.1]))


def test_channels_are_immutable():
    a = bec(0.3)
    with pytest.raises(ValueError):
        a.eps[0] = 0.25


def test_mix_identity_cases():
    a, b = bec(0.3), bsc(0.2)
    assert mix(a, b, 1.0).approx_eq(a)
    assert mix(a, b, 0.0).approx_eq(b)


@pytest.mark.parametrize("alpha", (0.0, 1.0, 1e-17, 0.3))
def test_mix_is_its_row_of_a_batch_bit_for_bit(monkeypatch, alpha):
    a = channel([(0.0, 0.2), (0.1, 0.5), (0.3, 0.3)])
    b = channel([(0.1 + 4e-13, 0.6), (0.5, 0.4)])
    row = _mixtures([bec(0.2), a, bsc(0.4)], [bsc(0.1), b, bec(0.7)],
                    np.array([0.5, alpha, 0.25]))[1]
    # a batch of one settles on the plain path: no row totals, no offsets
    module = importlib.import_module("eicomb.channel")
    monkeypatch.setattr(module, "_row_totals", lambda *args: pytest.fail("row totals"))
    one = mix(a, b, alpha)
    assert one.eps.tobytes() == row.eps.tobytes()
    assert one.w.tobytes() == row.w.tobytes()


def test_mix_of_extremes_is_erasure_channel():
    assert mix(bsc(0.0), bsc(0.5), 0.7).approx_eq(bec(0.3))


def test_mix_linearity_of_error_probability():
    m = mix(bsc(0.1), bsc(0.3), 0.5)
    assert evaluate(Functional.E, m) == pytest.approx(0.2, abs=1e-15)


def test_mix_commutes_with_all_functionals():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = channel([(e, w) for e, w in zip(rng.random(3) * 0.5, [0.2, 0.3, 0.5])])
        b = channel([(e, w) for e, w in zip(rng.random(2) * 0.5, [0.4, 0.6])])
        alpha = float(rng.random())
        m = mix(a, b, alpha)
        for tag in Functional:
            expected = alpha * evaluate(tag, a) + (1 - alpha) * evaluate(tag, b)
            assert evaluate(tag, m) == pytest.approx(expected, abs=1e-12)


def test_mix_associativity_up_to_merge():
    # both orders compose to weights (0.2, 0.3, 0.5)
    a, b, c = bsc(0.1), bec(0.4), bsc(0.31)
    left = mix(mix(a, b, 0.4), c, 0.5)
    right = mix(a, mix(b, c, 0.375), 0.2)
    for tag in Functional:
        assert evaluate(tag, left) == pytest.approx(evaluate(tag, right), abs=1e-12)


def test_serialize_parse_round_trip():
    a = channel([(0.0, 0.25), (0.1234567890123456, 0.5), (0.5, 0.25)])
    b = parse_channel(serialize_channel(a))
    assert b.approx_eq(a, tol=0.0)


def test_canonical_document_round_trips_as_text():
    doc = serialize_channel(channel([(0.11, 0.625), (0.37, 0.375)]))
    assert serialize_channel(parse_channel(doc)) == doc


def test_parse_merges_duplicate_points():
    a = parse_channel("0.2 0.5\n0.2 0.5\n")
    assert a.points == ((0.2, 1.0),)


def test_parse_rejects_bad_weight_sum():
    with pytest.raises(ChannelFormatError):
        parse_channel("0.1 0.5\n0.3 0.4\n")


def test_parse_rejects_malformed_lines_with_location():
    with pytest.raises(ChannelFormatError) as err:
        parse_channel("0.1 0.5\nnot a line\n")
    assert err.value.line == 2


def test_parse_rejects_out_of_range_eps():
    with pytest.raises(ChannelFormatError):
        parse_channel("0.7 1.0\n")


def test_parse_handles_comments_and_blank_lines():
    a = parse_channel("# heading\n\n0.0 0.7  # perfect part\n0.5 0.3\n")
    assert a.approx_eq(bec(0.3))


def test_row_totals_are_each_rows_own_sum():
    rng = np.random.default_rng(18)
    for width in range(1, 65):
        rows = [rng.standard_exponential(width) * scale for scale in (1.0, 1e-9, 1e7)]
        rows += [rng.random(n) for n in rng.integers(0, 2 * width, 5)]  # some empty
        w = np.concatenate(rows)
        off = np.concatenate(([0], np.cumsum([r.size for r in rows])))
        want = np.array([w[lo:hi].sum() for lo, hi in zip(off[:-1], off[1:])])
        assert _row_totals(w, off).tobytes() == want.tobytes(), width
    assert _row_totals(np.empty(0), np.zeros(1, dtype=np.intp)).size == 0
    # the sum of every read of a convolution: rows of the sizes around
    # numpy's pairwise blocks (8 terms, 128-term unrolls), in shuffled
    # layouts so each size sits at many offsets, and random layouts
    sizes = [*range(21), 127, 128, 129, 255, 256, 257, 1000, 3003]
    layouts = [[lead, *rng.permutation(sizes).tolist()] for lead in range(16)]
    layouts += [rng.integers(0, 3001, rng.integers(1, 6)).tolist() for _ in range(100)]
    for rows in layouts:
        off = np.concatenate(([0], np.cumsum(rows)))
        w = rng.standard_exponential(off[-1]) * 10.0 ** rng.uniform(-12.0, 0.0, off[-1])
        want = np.array([np.add.reduce(w[lo:hi]) for lo, hi in zip(off[:-1], off[1:])])
        assert _row_totals(w, off).tobytes() == want.tobytes(), rows


def test_batched_settle_raises_the_first_failing_rows_error():
    # rows a settle of one rejects, each behind a row that settles
    ok = (np.array([0.1, 0.2]), np.array([0.5, 0.5]))
    emptied = (np.array([0.1, 0.3]), np.array([1e-16, 1e-16]))
    lossy = (np.linspace(0.0, 0.5, 2000), np.full(2000, 9e-16))
    for bad in (emptied, lossy):
        with pytest.raises(ChannelError) as alone:
            _trusted(*bad)
        eps, w = (np.concatenate(parts) for parts in zip(ok, bad, ok, bad))
        off = np.array([0, 2, 2 + bad[0].size, 4 + bad[0].size, eps.size])
        with pytest.raises(ChannelError) as batch:
            _settle_rows(eps, w, off)
        assert str(batch.value) == str(alone.value)


def test_parse_normalizes_small_weight_drift():
    a = parse_channel(f"0.1 {0.5 + 2e-10!r}\n0.4 0.5\n")
    assert abs(float(a.w.sum()) - 1.0) <= 1e-15


@pytest.mark.parametrize(
    "build",
    [
        lambda: Channel(np.array([0.1, 0.6]), np.array([0.5, 0.5])),
        lambda: Channel(np.array([-1e-300]), np.array([1.0])),
        lambda: Channel(np.array([np.nan]), np.array([1.0])),
        lambda: Channel(np.array([0.1]), np.array([np.inf])),
        lambda: Channel(np.array([]), np.array([])),
        lambda: Channel(np.array([0.1, 0.2]), np.array([1.0])),
        lambda: Channel(np.array([0.1, 0.2]), np.array([1.0, 0.0])),
        lambda: channel([]),
        lambda: channel([(0.1, 0.5)]),
        lambda: bsc(0.5000001),
        lambda: bsc(float("nan")),
        lambda: bec(-0.1),
        lambda: parse_channel("0.1 0.5\n"),
        lambda: mix(bsc(0.1), bsc(0.2), 1.5),
    ],
)
def test_public_constructors_reject_invalid_input(build):
    with pytest.raises(ChannelError):
        build()
