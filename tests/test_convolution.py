import numpy as np
import pytest

from eicomb import bounds, convolution
from eicomb.bounds import random_channel, trial_rng
from eicomb.channel import EPS_MERGE_TOL, bec, bsc, channel, mix
from eicomb.convolution import (
    SupportCapError,
    check_convolve,
    check_power,
    phi_of_poly_convolved,
    phi_of_poly_convolved_batch,
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


def count_chain_steps(monkeypatch):
    """Record (rows, products) of every power-chain step from now on."""
    steps = []
    real = convolution._merged

    def merged(x, w, off=None):
        if off is not None:  # a chain step, not a one-measure merged sum
            steps.append((off.size - 1, x.size))
        return real(x, w, off)

    monkeypatch.setattr(convolution, "_merged", merged)
    return steps


def test_power_cap_raises_before_any_convolution(monkeypatch):
    calls = count_chain_steps(monkeypatch)
    a = channel([(e, 0.2) for e in (0.05, 0.1, 0.2, 0.3, 0.4)])
    with pytest.raises(SupportCapError, match="projected support"):
        check_power(a, 200)
    # the lower terms fit under the cap, yet nothing is convolved before the error
    with pytest.raises(SupportCapError, match="for power 200"):
        phi_of_poly_convolved(H, poly_from_string("x^2+x^200"), a)
    assert calls == []
    phi_of_poly_convolved(H, Polynomial.monomial(3), a)
    assert len(calls) == 2


def catalog_sides(code, tag, chans, alpha, power):
    """(lhs, rhs) of catalog inequality `code` on one case, through the
    evaluator of check_inequality and the suite (which takes any tag)."""
    report = bounds._check_cases(code, [(tag, chans, alpha, power)], None)[0]
    return report.lhs, report.rhs


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
        lhs, rhs = catalog_sides(5, tag, [a], None, d)
        assert abs(lhs - values[-1]) <= delta
        assert abs(rhs - values[0] * (d - sum(values[:-1]))) <= delta
        lhs, rhs = catalog_sides(9, tag, [a, b], alpha, d)
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
        assert catalog_sides(5, tag, [a], None, 2)[1] == evaluate(tag, a) * (
            2 - evaluate(tag, a))


# ----------------------------------------------------------------------
# the batched chain, bit for bit against the per-row loop it replaced


def loop_powers(a, d):
    """Oracle: a^[2], ..., a^[d] from the per-row chain, one
    np.multiply.outer product and one merge per step."""
    base = power = convolution._measure(a)
    out = []
    for _ in range(d - 1):
        power = convolution._merged(*convolution._convolve(power, base))[:2]
        out.append(power)
    return out


def loop_phi_of_poly(tag, rho, a):
    """Oracle: phi_of_poly_convolved read off the per-row chain."""
    coeffs = dict(rho.terms)
    total = coeffs[1] * evaluate(tag, a) if 1 in coeffs else 0.0
    for k, power in enumerate(loop_powers(a, rho.degree), 2):
        if k in coeffs:
            total += coeffs[k] * convolution._phi(tag, power)
    return total


def hexes(values):
    return [float(v).hex() for v in values]


def assert_batch_is_the_loop(rows):
    """Each (tag, channel, degree) row's powers, their Phi values, its
    check_power and its phi_of_poly_convolved, all from batched chains,
    equal the per-row loop's by float.hex."""
    want = [loop_powers(a, d) for _, a, d in rows]
    seen = []
    chains = convolution._chains([a for _, a, _ in rows], [d for *_, d in rows])
    for k, active, (x, w), off in chains:
        for i, r in enumerate(active.tolist()):
            wx, ww = want[r][k - 2]
            assert hexes(x[off[i]:off[i + 1]]) == hexes(wx), (r, k)
            assert hexes(w[off[i]:off[i + 1]]) == hexes(ww), (r, k)
            seen.append((r, k))
    assert sorted(seen) == [(r, k) for r, (*_, d) in enumerate(rows) for k in range(2, d + 1)]
    phis = convolution._phis_of_powers([(tag, a, range(2, d + 1)) for tag, a, d in rows])
    for (tag, a, d), got, chain in zip(rows, phis, want):
        assert hexes(got) == hexes(convolution._phi(tag, m) for m in chain)
        power = check_power(a, d)
        settled = convolution._settle(chain[-1]) if chain else a
        assert (hexes(power.eps), hexes(power.w)) == (hexes(settled.eps), hexes(settled.w))
        rho = Polynomial((0.5,) + (0.0,) * (d - 2) + (1.0,)) if d > 1 else Polynomial((1.0,))
        assert phi_of_poly_convolved(tag, rho, a).hex() == loop_phi_of_poly(tag, rho, a).hex()


@pytest.mark.parametrize("d", range(2, 7))
def test_batched_chain_is_the_per_row_loop(d):
    rng = trial_rng(61, d)
    chans = [random_channel(rng) for _ in range(16)]
    # catalog code 9's mixtures carry up to twice the points
    chans += [mix(chans[t], chans[t + 1], float(rng.random())) for t in range(0, 8, 2)]
    assert_batch_is_the_loop([((H, B)[t % 2], a, d) for t, a in enumerate(chans)])


def test_batched_chain_mixes_degrees_in_one_batch():
    rng = trial_rng(62)
    degrees = (3, 1, 6, 2, 5, 4, 1, 6, 2)
    assert_batch_is_the_loop([((H, B)[t % 2], random_channel(rng), d)
                              for t, d in enumerate(degrees)])


EDGE_ROWS = [
    (bsc(0.0), 6),
    (bsc(0.5), 6),
    (bec(0.3), 6),
    (channel([(0.0, 0.25), (0.2, 0.5), (0.5, 0.25)]), 6),  # atoms at eps 0 and 1/2
    (bsc(0.1), 5),  # one point
    # x = 1/2, 1/4, 1/8: products tie exactly from power 2 on, with unequal weights
    (channel([(0.25, 0.5), (0.375, 0.3), (0.4375, 0.2)]), 8),
    (channel([(0.2, 0.5), (0.2 + 1.5 * EPS_MERGE_TOL, 0.5)]), 6),  # points just apart
    # weights that underflow to 0 along the chain
    (channel([(0.1, 1.0 - 1e-14), (0.2, 1e-14)]), 40),
    (channel([(0.2, 1.0 - 1e-14), (0.1, 1e-14)]), 40),
    (channel([(0.1, 1.0 - 1e-300), (0.2, 1e-300)]), 40),
]


def test_batched_chain_is_the_per_row_loop_on_edge_rows():
    rows = [((H, B)[t % 2], a, d) for t, (a, d) in enumerate(EDGE_ROWS)]
    assert_batch_is_the_loop(rows)
    for row in rows:
        assert_batch_is_the_loop([row])


def test_empty_batch():
    assert list(convolution._chains([], [])) == []
    assert convolution._phis_of_powers([]) == []
    assert phi_of_poly_convolved_batch(H, Polynomial.monomial(3), []) == []


def test_power_one_reads_are_the_channel_value():
    rng = trial_rng(64)
    rows = [((H, B, E)[t % 3], random_channel(rng), ks)
            for t, ks in enumerate([(1,), (1, 2), (1, 3, 5), (2, 4), (1,), (1, 6)] * 3)]
    rows += [(tag, a, (1, 2, 3)) for tag in (H, B) for a, _ in EDGE_ROWS]
    got = convolution._phis_of_powers(rows)
    higher = convolution._phis_of_powers([(tag, a, [k for k in ks if k > 1])
                                          for tag, a, ks in rows])
    for (tag, a, ks), values, rest in zip(rows, got, higher):
        assert len(values) == len(ks)
        if 1 in ks:
            assert values[0].hex() == evaluate(tag, a).hex()
            values = values[1:]
        assert hexes(values) == hexes(rest)


def test_power_one_batches_take_no_chain_step(monkeypatch):
    monkeypatch.setattr(convolution, "_chains", lambda *args: pytest.fail("entered the chains"))
    rng = trial_rng(65)
    rows = [((H, B)[t % 2], random_channel(rng), (1,)) for t in range(6)] + [(H, bsc(0.1), ())]
    got = convolution._phis_of_powers(rows)
    assert got == [[evaluate(tag, a)] for tag, a, _ in rows[:-1]] + [[]]
    channels = [a for _, a, _ in rows]
    assert phi_of_poly_convolved_batch(B, Polynomial((0.5,)), channels) == [
        0.5 * evaluate(B, a) for a in channels]


def test_linear_term_keeps_its_signed_zero():
    # -1 * Phi(BSC(0)) is -0.0; a sum without a linear term starts at 0.0
    assert phi_of_poly_convolved(H, Polynomial((-1.0,)), bsc(0.0)).hex() == "-0x0.0p+0"
    for rho in (Polynomial((-1.0,)), Polynomial((0.0, -1.0)), Polynomial((-1.0, -1.0)),
                Polynomial((0.0, -0.5, -1.0))):
        for tag in (H, B, E):
            got = phi_of_poly_convolved(tag, rho, bsc(0.0))
            assert got.hex() == loop_phi_of_poly(tag, rho, bsc(0.0)).hex()


def test_batch_cap_raises_before_any_convolution(monkeypatch):
    calls = count_chain_steps(monkeypatch)
    two = channel([(0.1, 0.5), (0.3, 0.5)])
    wide = channel([(e, 0.2) for e in (0.05, 0.1, 0.2, 0.3, 0.4)])
    with pytest.raises(SupportCapError, match="projected support 70058751 for power 200"):
        convolution._phis_of_powers([(H, two, (2, 3)), (B, wide, (200,)), (H, two, (4,))])
    assert calls == []


def test_batch_cap_guards_every_step(monkeypatch):
    calls = count_chain_steps(monkeypatch)
    two = channel([(0.1, 0.5), (0.3, 0.5)])
    # the projected support 41 passes the cap; the step from 21 points to 42 does not
    with pytest.raises(SupportCapError, match="convolution support 42 exceeds cap 41"):
        convolution._phis_of_powers([(H, bsc(0.1), (40,)), (B, two, (40,))], cap=41)
    assert len(calls) == 19  # powers 2 .. 20 formed; 21 points times 2 refused
