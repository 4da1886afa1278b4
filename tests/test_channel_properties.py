"""Property checks of the trusted internal channel constructor and of the
batched settle.

Internal results (convolutions, mixtures, sampler draws) skip the
input-domain checks of Channel(...); everything else must stay the same,
so on valid input both constructors give the same points bit for bit, and
each row of a batched settle is the channel Channel(...) gives alone.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eicomb.channel import (  # noqa: E402
    EPS_MERGE_TOL,
    WEIGHT_DROP_TOL,
    Channel,
    ChannelError,
    _channels,
    _settle_rows,
    _trusted,
    mix,
)
from eicomb.convolution import check_convolve  # noqa: E402

# Offsets in units of EPS_MERGE_TOL: inside, at and just past the merge
# distance; weights in units of WEIGHT_DROP_TOL around the drop threshold.
MERGE_OFFSETS = (0.0, 0.3, 0.999, 1.0, 1.001, 1.7, -0.5, -1.2)
TINY_WEIGHTS = (0.3, 0.999, 1.0, 1.001, 2.5)


@st.composite
def valid_points(draw):
    """(eps, w): points in [0, 1/2], some in clusters closer than
    EPS_MERGE_TOL, positive weights summing to 1, some near WEIGHT_DROP_TOL."""
    centers = draw(st.lists(
        st.one_of(st.floats(0.0, 0.5), st.sampled_from([0.0, 0.5, 0.25])),
        min_size=1, max_size=4,
    ))
    eps, raw = [], []
    for c in centers:
        for off in draw(st.lists(st.sampled_from(MERGE_OFFSETS), min_size=1, max_size=3)):
            eps.append(min(0.5, max(0.0, c + off * EPS_MERGE_TOL)))
            raw.append(draw(st.floats(1e-3, 1.0)))
    w = np.array(raw) / sum(raw)
    tiny = draw(st.lists(st.sampled_from(TINY_WEIGHTS), max_size=3))
    for i, t in enumerate(tiny):
        eps.append(draw(st.floats(0.0, 0.5)))
        w = np.append(w * (1.0 - t * WEIGHT_DROP_TOL), t * WEIGHT_DROP_TOL)
    return np.array(eps), w


@st.composite
def lossy_points(draw):
    """(eps, w) summing to 1 whose ~1000 weights under WEIGHT_DROP_TOL drop
    about WEIGHT_SUM_TOL of mass: Channel(...) rejects some, keeps others."""
    n = draw(st.integers(900, 1100))
    eps = np.append(np.linspace(0.0, 0.5, n), draw(st.floats(0.0, 0.5)))
    w = np.append(np.full(n, 0.95 * WEIGHT_DROP_TOL), 1.0 - n * 0.95 * WEIGHT_DROP_TOL)
    return eps, w


def _same_bits(a: Channel, b: Channel) -> bool:
    return a.eps.tobytes() == b.eps.tobytes() and a.w.tobytes() == b.w.tobytes()


@settings(max_examples=300, deadline=None)
@given(valid_points())
def test_trusted_constructor_equals_validated_one(points):
    eps, w = points
    try:
        want = Channel(eps.copy(), w.copy())
    except ChannelError:
        with pytest.raises(ChannelError):
            _trusted(eps.copy(), w.copy())
        return
    got = _trusted(eps.copy(), w.copy())
    assert type(got) is Channel
    assert _same_bits(got, want)
    assert not got.eps.flags.writeable and not got.w.flags.writeable


@settings(max_examples=100, deadline=None)
@given(valid_points(), valid_points(), st.floats(0.0, 1.0))
def test_internal_results_equal_validated_construction(p, q, alpha):
    a, b = Channel(*p), Channel(*q)
    # check_convolve's product points: eps by e (1 - f) + f (1 - e), a's index major
    e, f = a.eps[:, None], b.eps
    conv = Channel((e * (1.0 - f) + f * (1.0 - e)).ravel(), np.outer(a.w, b.w).ravel())
    assert _same_bits(check_convolve(a, b), conv)
    if 0.0 < alpha < 1.0:
        w = np.concatenate([a.w * alpha, b.w * (1.0 - alpha)])
        assume(w.min() > 0.0)  # an underflowed weight is not valid Channel input
        assert _same_bits(mix(a, b, alpha), Channel(np.concatenate([a.eps, b.eps]), w))


def test_mix_drops_weights_that_underflow():
    # a * 5e-324 underflows to zero weights; Channel(...) would reject them,
    # the trusted path drops them with the other negligible weights
    a = Channel(np.array([0.1, 0.3]), np.array([0.5, 0.5]))
    b = Channel(np.array([0.2]), np.array([1.0]))
    m = mix(a, b, 5e-324)
    assert m.points == ((0.2, 1.0),)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(valid_points(), valid_points(), lossy_points()), min_size=1, max_size=4))
def test_batched_settle_is_each_rows_channel(rows):
    wants = []
    for eps, w in rows:
        try:
            wants.append(Channel(eps.copy(), w.copy()))
        except ChannelError as error:
            wants.append(error)
    eps = np.concatenate([e for e, _ in rows])
    w = np.concatenate([v for _, v in rows])
    off = np.concatenate(([0], np.cumsum([e.size for e, _ in rows])))
    failed = [want for want in wants if isinstance(want, ChannelError)]
    if failed:  # the first row that loses too much mass raises its own error
        with pytest.raises(ChannelError) as error:
            _settle_rows(eps, w, off)
        assert str(error.value) == str(failed[0])
        return
    got = _channels(*_settle_rows(eps, w, off))
    assert len(got) == len(wants)
    for a, want in zip(got, wants):
        assert _same_bits(a, want)
        assert not a.eps.flags.writeable and not a.w.flags.writeable
