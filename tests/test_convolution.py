import numpy as np
import pytest

from eicomb import convolution
from eicomb.bounds import _sides, random_channel, trial_rng
from eicomb.channel import bec, bsc, channel, mix
from eicomb.convolution import (
    SupportCapError,
    check_convolve,
    check_power,
    phi_of_poly_convolved,
    projected_power_support,
)
from eicomb.functionals import Functional, evaluate
from eicomb.series import Polynomial, moments, poly_from_string

H, B, E = Functional.H, Functional.B, Functional.E


def brute_convolve(a, b):
    """Independent oracle: accumulate the raw product terms in a dict."""
    acc = {}
    for ea, wa in a.points:
        for eb, wb in b.points:
            e = 0.5 * (1.0 - (1.0 - 2.0 * ea) * (1.0 - 2.0 * eb))
            acc[e] = acc.get(e, 0.0) + wa * wb
    return sorted(acc.items())


def test_perfect_channel_is_identity():
    a = channel([(0.05, 0.25), (0.21, 0.5), (0.4, 0.25)])
    assert check_convolve(a, bsc(0.0)).approx_eq(a)
    assert check_convolve(bsc(0.0), a).approx_eq(a)


def test_useless_channel_absorbs():
    a = channel([(0.05, 0.4), (0.3, 0.6)])
    assert check_convolve(a, bsc(0.5)).approx_eq(bsc(0.5))


def test_two_bsc_points_combine():
    out = check_convolve(bsc(0.1), bsc(0.2))
    assert out.approx_eq(bsc(0.26), tol=1e-15)


def test_two_erasure_channels_combine():
    out = check_convolve(bec(0.3), bec(0.5))
    assert out.approx_eq(bec(0.65), tol=1e-15)
    assert brute_convolve(bec(0.3), bec(0.5)) == [(0.0, 0.35), (0.5, 0.65)]


def test_matches_brute_force_on_random_channels():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_channel(rng), random_channel(rng)
        got = check_convolve(a, b)
        want = brute_convolve(a, b)
        # merge oracle entries within the production tolerance
        assert got.size <= a.size * b.size
        assert abs(sum(w for _, w in want) - float(got.w.sum())) <= 1e-12
        for tag in (E, H, B):
            direct = sum(
                w * evaluate(tag, bsc(e)) for e, w in want
            )
            assert evaluate(tag, got) == pytest.approx(direct, abs=1e-12)


def test_error_probability_product_rule():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b = random_channel(rng), random_channel(rng)
        lhs = evaluate(E, check_convolve(a, b))
        ea, eb = evaluate(E, a), evaluate(E, b)
        rhs = 0.5 * (1.0 - (1.0 - 2.0 * ea) * (1.0 - 2.0 * eb))
        assert abs(lhs - rhs) <= 1e-12


def test_moment_multiplicativity_is_the_primary_oracle():
    for i in range(200):
        rng = trial_rng(31, i)
        a, b = random_channel(rng), random_channel(rng)
        conv = check_convolve(a, b)
        diff = np.abs(moments(conv, 50) - moments(a, 50) * moments(b, 50))
        assert float(diff.max()) <= 1e-12


def test_commutative_and_associative_through_functionals():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a, b, c = (random_channel(rng) for _ in range(3))
        ab = check_convolve(a, b)
        ba = check_convolve(b, a)
        abc = check_convolve(ab, c)
        acb = check_convolve(check_convolve(a, c), b)
        for tag in (E, H, B):
            assert abs(evaluate(tag, ab) - evaluate(tag, ba)) <= 1e-10
            assert abs(evaluate(tag, abc) - evaluate(tag, acb)) <= 1e-10


def test_power_of_erasure_channel():
    assert check_power(bec(0.3), 4).approx_eq(bec(1.0 - 0.7**4), tol=1e-12)


def test_power_of_bsc():
    assert check_power(bsc(0.1), 2).approx_eq(bsc(0.18), tol=1e-15)


def test_power_one_is_identity():
    a = channel([(0.1, 0.5), (0.3, 0.5)])
    assert check_power(a, 1).approx_eq(a)
    with pytest.raises(ValueError):
        check_power(a, 0)


def test_two_point_powers_stay_small():
    a = channel([(0.1, 0.5), (0.3, 0.5)])
    p = check_power(a, 40)
    assert p.size <= 41  # multiset bound for two-point support


def test_support_cap_enforced():
    a = channel([(e, 0.2) for e in (0.05, 0.1, 0.2, 0.3, 0.4)])
    with pytest.raises(SupportCapError):
        check_power(a, 200)
    with pytest.raises(SupportCapError):
        check_convolve(a, a, cap=20)


def test_projected_power_support_bound():
    assert projected_power_support(2, 40) == 41
    assert projected_power_support(5, 200) > 10**6


def test_phi_of_poly_convolved_monomial():
    rho = Polynomial.monomial(3)
    assert phi_of_poly_convolved(H, rho, bec(0.5)) == pytest.approx(0.875, abs=1e-15)


def test_phi_of_poly_convolved_general():
    rho = Polynomial((0.5, -0.25, 1.0))  # 0.5 x - 0.25 x^2 + x^3
    a = channel([(0.1, 0.5), (0.35, 0.5)])
    expected = sum(
        c * evaluate(B, check_power(a, k)) for k, c in rho.terms
    )
    assert phi_of_poly_convolved(B, rho, a) == pytest.approx(expected, abs=1e-14)


# ----------------------------------------------------------------------
# the power chain: one x-domain chain, checked against the per-step fold


# |delta| the x-domain chain may move a value from the per-step Channel fold
# (catalog codes 5 and 9 moved by at most 2.4e-15 over 2400 values each)
CHAIN_DELTA = 2.5e-15


def fold_power(a, d):
    """Oracle: the per-step Channel fold, check_convolve repeated."""
    out = a
    for _ in range(d - 1):
        out = check_convolve(out, a)
    return out


def test_power_cap_guards_every_step():
    a = channel([(0.1, 0.5), (0.3, 0.5)])
    assert projected_power_support(a.size, 40) == 41
    # the projected support passes the cap; the step from 21 points to 42 does not
    with pytest.raises(SupportCapError, match="convolution support 42 exceeds cap 41"):
        check_power(a, 40, cap=41)


def test_power_cap_raises_before_any_convolution(monkeypatch):
    calls = []
    real = convolution._convolve
    monkeypatch.setattr(convolution, "_convolve", lambda a, b: calls.append(1) or real(a, b))
    a = channel([(e, 0.2) for e in (0.05, 0.1, 0.2, 0.3, 0.4)])
    with pytest.raises(SupportCapError, match="projected support"):
        check_power(a, 200)
    # the lower terms fit under the cap, yet nothing is convolved before the error
    with pytest.raises(SupportCapError, match="for power 200"):
        phi_of_poly_convolved(H, poly_from_string("x^2+x^200"), a)
    assert calls == []
    phi_of_poly_convolved(H, Polynomial.monomial(3), a)
    assert len(calls) == 2


def assert_chain_matches_fold(a, b, alpha, rho, d, delta=CHAIN_DELTA):
    """check_power, phi_of_poly_convolved and the code 5/9 sides against the
    per-step Channel fold, within delta."""
    mixed = mix(a, b, alpha)
    powers = [fold_power(a, k) for k in range(1, d + 1)]
    for tag in (H, B, E):
        values = [evaluate(tag, p) for p in powers]
        assert abs(evaluate(tag, check_power(a, d)) - values[-1]) <= delta
        want = sum(c * values[k - 1] for k, c in rho.terms)
        assert abs(phi_of_poly_convolved(tag, rho, a) - want) <= delta
        lhs, rhs = _sides(5, tag, a, None, None, None, d, [])
        assert abs(lhs - values[-1]) <= delta
        assert abs(rhs - values[0] * (d - sum(values[:-1]))) <= delta
        lhs, rhs = _sides(9, tag, a, b, mixed, alpha, d, [])
        want = alpha * values[-1] + (1.0 - alpha) * evaluate(tag, fold_power(b, d))
        assert abs(lhs - want) <= delta
        assert abs(rhs - evaluate(tag, fold_power(mixed, d))) <= delta
    # E(a^[d]) = (1 - (sum_i w_i x_i)^d) / 2
    closed = 0.5 * (1.0 - float(np.dot(a.w, 1.0 - 2.0 * a.eps)) ** d)
    assert abs(evaluate(E, check_power(a, d)) - closed) <= 1e-15
    assert abs(phi_of_poly_convolved(E, Polynomial.monomial(d), a) - closed) <= 1e-15


@pytest.mark.parametrize("d", range(2, 7))
def test_power_chain_matches_channel_fold(d):
    for i in range(40):
        rng = trial_rng(97, d, i)
        a, b = random_channel(rng), random_channel(rng)
        alpha = float(rng.random())
        assert_chain_matches_fold(a, b, alpha, Polynomial(tuple(rng.uniform(-1.0, 1.0, d))), d)


@pytest.mark.parametrize("points", [
    [(0.1, 1.0 - 1e-14), (0.2, 1e-14)],
    [(0.2, 1.0 - 1e-14), (0.1, 1e-14)],
    [(0.1, 1.0 - 1e-300), (0.2, 1e-300)],
])
def test_power_chain_matches_channel_fold_with_underflowing_weights(points):
    # by power ~25 the tiny weight's products underflow to 0; a merge run of
    # zero weights has no mean, and the chain must drop them, not turn NaN.
    # Code 5's rhs sums 39 powers, so its bound scales with d.
    a = channel(points)
    assert np.isfinite(check_power(a, 40).eps).all()
    rho = Polynomial((0.5,) + (0.0,) * 28 + (-0.25,) + (0.0,) * 9 + (1.0,))
    assert_chain_matches_fold(a, bsc(0.3), 0.4, rho, 40, delta=8 * CHAIN_DELTA)


def test_power_one_is_read_off_the_channel():
    # the x round trip would blur eps = 1e-10 by ~1e-12 in B
    a = bsc(1e-10)
    for tag in (H, B, E):
        assert phi_of_poly_convolved(tag, Polynomial.monomial(1), a) == evaluate(tag, a)
        assert _sides(5, tag, a, None, None, None, 2, [])[1] == evaluate(tag, a) * (
            2 - evaluate(tag, a))
