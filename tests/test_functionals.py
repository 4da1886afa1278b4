import importlib
import math

import numpy as np
import pytest

from eicomb import bounds, functionals
from eicomb.bounds import inequality_suite, random_channel, trial_rng
from eicomb.channel import bec, bsc, channel, mix, parse_channel
from eicomb.functionals import (
    Functional,
    _complement_points,
    _complements,
    complement,
    evaluate,
    h2,
    h2_inv,
    kernel,
    kernel_inv,
)

H, B, E = Functional.H, Functional.B, Functional.E
# eicomb.channel the module; the package's `channel` is the constructor
channel_module = importlib.import_module("eicomb.channel")


def test_h2_known_values():
    assert h2(0.5) == 1.0
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.11) == pytest.approx(0.499915958164528, abs=1e-12)


def test_h2_symmetry():
    for x in np.linspace(0.0, 0.5, 101):
        assert h2(x) == pytest.approx(h2(1.0 - x), abs=1e-15)


def test_h2_inv_endpoints_and_midpoint():
    assert h2_inv(0.0) == 0.0
    assert h2_inv(1.0) == 0.5
    assert h2_inv(0.5) == pytest.approx(0.110027864438, abs=1e-9)


def test_h2_inv_residual_bound():
    for y in np.linspace(0.0, 1.0, 1001):
        x = h2_inv(float(y))
        assert 0.0 <= x <= 0.5
        assert abs(h2(x) - y) <= 1e-12


def test_h2_inv_memo_is_bit_identical():
    tiny = np.finfo(float).tiny
    special = [0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310, tiny / 2, tiny, np.nextafter(1.0, 0.0)]
    ys = special + np.random.default_rng(8).random(10**4 - len(special)).tolist()
    for y in ys + [np.float64(y) for y in ys[:50]]:
        want = h2_inv.__wrapped__(y).hex()
        assert h2_inv(y).hex() == want  # computed, or a hit from an equal key
        assert h2_inv(y).hex() == want  # a hit


@pytest.mark.parametrize(
    "y", [-5e-324, -1.0, 1.0000000000000002, 2.0, math.nan, math.inf, -math.inf]
)
def test_h2_inv_memo_still_rejects_out_of_range(y):
    for _ in range(2):  # a failure is not cached
        with pytest.raises(ValueError):
            h2_inv(y)


def test_kernel_matches_pointwise_channel_values():
    # f_H(1-2e) = h2(e) and f_B(1-2e) = 2 sqrt(e(1-e)) across the range.
    for e in np.linspace(0.0, 0.5, 1000):
        x = 1.0 - 2.0 * float(e)
        assert abs(kernel(H, x) - h2(float(e))) <= 1e-12
        assert abs(kernel(B, x) - 2.0 * math.sqrt(e * (1.0 - e))) <= 1e-12


def test_kernel_endpoints():
    for tag in (H, B):
        assert kernel(tag, 0.0) == 1.0
        assert kernel(tag, 1.0) == 0.0


def test_kernel_known_value():
    assert kernel(B, 0.6) == pytest.approx(0.8, abs=1e-15)


def test_kernel_monotone_decreasing():
    for tag in (H, B):
        grid = [kernel(tag, x) for x in np.linspace(0.0, 1.0, 500)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))


def test_kernel_rejects_error_probability_tag():
    with pytest.raises(ValueError):
        kernel(E, 0.3)
    with pytest.raises(ValueError):
        kernel_inv(E, 0.3)


def test_kernel_inv_round_trip():
    rng = np.random.default_rng(11)
    for tag in (H, B):
        for x in rng.random(1000):
            assert abs(kernel_inv(tag, kernel(tag, float(x))) - x) <= 1e-10


def test_kernel_inv_known_value():
    assert kernel_inv(H, 0.5) == pytest.approx(0.779944271123, abs=1e-9)


def test_evaluate_extreme_channels():
    perfect, useless = bsc(0.0), bsc(0.5)
    assert [evaluate(t, perfect) for t in (E, H, B)] == [0.0, 0.0, 0.0]
    assert evaluate(E, useless) == 0.5
    assert evaluate(H, useless) == 1.0
    assert evaluate(B, useless) == 1.0


def test_evaluate_known_values():
    assert evaluate(H, bec(0.25)) == pytest.approx(0.25, abs=1e-15)
    assert evaluate(H, bec(1.0)) == 1.0
    assert evaluate(E, bec(0.3)) == pytest.approx(0.15, abs=1e-15)
    assert evaluate(B, bsc(0.1)) == pytest.approx(0.6, abs=1e-15)
    assert evaluate(B, bec(0.3)) == pytest.approx(0.3, abs=1e-15)


def test_evaluate_is_linear_in_the_channel():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = random_channel(rng)
        b = random_channel(rng)
        alpha = float(rng.random())
        m = mix(a, b, alpha)
        for tag in (E, H, B):
            expected = alpha * evaluate(tag, a) + (1 - alpha) * evaluate(tag, b)
            assert abs(evaluate(tag, m) - expected) <= 1e-12


def test_kernel_caps_functional_at_fixed_error():
    # Phi(a) <= f_Phi(1 - 2 E(a)) over random channels.
    for i in range(10_000):
        rng = trial_rng(77, i)
        a = random_channel(rng)
        x = 1.0 - 2.0 * evaluate(E, a)
        for tag in (H, B):
            assert kernel(tag, x) - evaluate(tag, a) >= -1e-12


def test_complement_matches_direct_subtraction_when_benign():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = random_channel(rng)
        for tag in (H, B):
            assert complement(tag, a) == pytest.approx(1.0 - evaluate(tag, a), abs=1e-13)


def test_complement_is_stable_near_useless():
    a = channel([(0.499999999, 0.5), (0.4999999995, 0.5)])
    for tag in (H, B):
        c = complement(tag, a)
        assert c > 0.0
        assert c == pytest.approx(1.0 - evaluate(tag, a), abs=1e-12)


def _h2_complement_loop(eps):
    """The per-point H complement loop the vectorized form replaced."""
    x = 1.0 - 2.0 * eps
    if abs(x) >= 0.5:
        return 1.0 - h2(eps)
    x2 = x * x
    if x2 == 0.0:
        return 0.0
    term, total, n = x2, 0.0, 1
    while True:
        total += term / (n * (2 * n - 1))
        if term < 1e-17 * total or n > 300:
            break
        term *= x2
        n += 1
    return total / (2.0 * math.log(2.0))


def _b_complement_loop(eps):
    x = 1.0 - 2.0 * eps
    root = x / (math.sqrt(1.0 - eps) + math.sqrt(eps))
    return root * root


def test_vectorized_complement_matches_per_point_loops():
    rng = np.random.default_rng(12)
    eps = np.concatenate([
        rng.random(4000) * 0.5,
        0.5 - rng.random(1000) * 1e-6,  # near useless: the series branch
        [0.0, 0.25, 0.25 - 1e-17, 0.5, 0.5 - 1e-17, 5e-324],
    ])
    got_h = _complement_points(H, eps)
    got_b = _complement_points(B, eps)
    series_branch = np.abs(1.0 - 2.0 * eps) < 0.5
    for e, h, b, in_series in zip(eps.tolist(), got_h.tolist(), got_b.tolist(), series_branch):
        assert b == _b_complement_loop(e)
        want = _h2_complement_loop(e)
        if in_series:
            assert h == want  # same terms, same partial sums, same stop
        else:
            # 1 - h2: numpy's log2 may round unlike math.log2
            assert abs(h - want) <= 2.3e-16
    for t in range(300):
        a = random_channel(trial_rng(12, t))
        for tag, loop in ((H, _h2_complement_loop), (B, _b_complement_loop)):
            want = float(sum(w * loop(e) for e, w in zip(a.eps, a.w)))
            assert abs(complement(tag, a) - want) <= 1e-15 * want


def test_batched_complements_are_each_channels_complement():
    # the per-channel loop complement() took before it became a batch of one
    def one(tag, a):
        total = 0.0
        for term in (a.w * _complement_points(tag, a.eps)).tolist():
            total += term
        return total

    chans = [random_channel(trial_rng(13, t)) for t in range(200)]
    chans += [bsc(0.0), bsc(0.5), bec(0.3), bsc(0.5 - 1e-9), channel([(0.3, 0.5), (0.49, 0.5)])]
    for tag in (H, B):
        got = _complements(tag, chans)
        assert [v.hex() for v in got] == [one(tag, a).hex() for a in chans]
        assert [v.hex() for v in got] == [complement(tag, a).hex() for a in chans]
        assert _complements(tag, []) == []


def test_complement_rejects_error_probability_tag():
    with pytest.raises(ValueError):
        complement(E, bsc(0.1))


def _neumaier_sum(values, start=0):
    """sum() of floats as Python 3.12 and later compute it: the running sum
    carries each addition's rounding error (Neumaier) and adds it at the end."""
    total, carried = float(start), 0.0
    for v in values:
        t = total + v
        carried += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + carried


def _complement_outputs():
    chans = [random_channel(trial_rng(31, t)) for t in range(300)]
    return [_complements(tag, chans) for tag in (H, B)]


def _power_budget_outputs():
    return [(r.lhs, r.rhs) for r in inequality_suite(seed=0, trials=300, codes=(5,))[0]]


def _parsed_weights():
    docs = []
    for t in range(300):
        w = trial_rng(32, t).standard_exponential(5)
        docs.append("".join(f"{0.1 * i!r} {v!r}\n" for i, v in enumerate((w / w.sum()).tolist(), 1)))
    return [parse_channel(doc).w.tolist() for doc in docs]


@pytest.mark.parametrize("module, outputs", [
    (functionals, _complement_outputs),
    (bounds, _power_budget_outputs),  # code 5's sum of Phi(a^[k])
    (channel_module, _parsed_weights),
], ids=["complements", "power_budget", "parse_channel"])
def test_float_sums_do_not_follow_the_python_version(monkeypatch, module, outputs):
    # each module adds its floats left to right from 0.0, so a compensated
    # sum() (Python >= 3.12) in its namespace changes no output bit
    want = outputs()
    monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    assert outputs() == want
