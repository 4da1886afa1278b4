import math
import tracemalloc

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
from eicomb.functionals import Functional, _complement_points, complement, evaluate, pointwise
from eicomb.series import Polynomial, complement_of_convolution, moments, poly_from_string

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
# powers on the point layer, checked against the per-step fold


# |delta| the point layer may move a value from the per-step Channel fold
# (catalog codes 5 and 9 moved by at most 2.4e-15 over 2400 values each)
CHAIN_DELTA = 2.5e-15


def fold_power(a, d):
    """Oracle: the per-step Channel fold, check_convolve repeated."""
    out = a
    for _ in range(d - 1):
        out = check_convolve(out, a)
    return out


def count_point_calls(monkeypatch):
    """Record every climb of the point layer from now on, which forms the
    points of every power above 1: its rows' sizes and tops."""
    calls = []
    real = convolution._climb

    def climb(eps, w, sizes, tops):
        calls.append((np.asarray(sizes).tolist(), np.asarray(tops).tolist()))
        return real(eps, w, sizes, tops)

    monkeypatch.setattr(convolution, "_climb", climb)
    return calls


def test_power_cap_raises_before_any_convolution(monkeypatch):
    calls = count_point_calls(monkeypatch)
    a = channel([(e, 0.2) for e in (0.05, 0.1, 0.2, 0.3, 0.4)])
    with pytest.raises(SupportCapError, match="projected support"):
        check_power(a, 200)
    # the lower terms fit under the cap, yet no point is formed before the error
    with pytest.raises(SupportCapError, match="for power 200"):
        phi_of_poly_convolved(H, poly_from_string("x^2+x^200"), a)
    assert calls == []
    phi_of_poly_convolved(H, Polynomial.monomial(3), a)
    assert calls == [([a.size], [3])]


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
    # by power ~25 the tiny weight's products underflow to 0; check_power
    # must drop them, not turn NaN.  Code 5's rhs sums 39 powers, so its
    # bound scales with d.
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


def loop_phi_of_poly(tag, rho, a):
    """Oracle: phi_of_poly_convolved as a loop of lone reads, one per term,
    added in ascending power from 0.0 (-0.0 with a linear term)."""
    total = -0.0 if rho.terms[0][0] == 1 else 0.0
    for k, c in rho.terms:
        total += c * convolution._read_values([(tag, "phi", ((a, k),))])[0]
    return total


def hexes(values):
    return [float(v).hex() for v in values]


EDGE_ROWS = [
    (bsc(0.0), 6),
    (bsc(0.5), 6),
    (bec(0.3), 6),
    (channel([(0.0, 0.25), (0.2, 0.5), (0.5, 0.25)]), 6),  # atoms at eps 0 and 1/2
    (bsc(0.1), 5),  # one point
    # x = 1/2, 1/4, 1/8: products tie exactly from power 2 on, with unequal weights
    (channel([(0.25, 0.5), (0.375, 0.3), (0.4375, 0.2)]), 8),
    (channel([(0.2, 0.5), (0.2 + 1.5 * EPS_MERGE_TOL, 0.5)]), 6),  # points just apart
    # weights that underflow to 0 by the top power
    (channel([(0.1, 1.0 - 1e-14), (0.2, 1e-14)]), 40),
    (channel([(0.2, 1.0 - 1e-14), (0.1, 1e-14)]), 40),
    (channel([(0.1, 1.0 - 1e-300), (0.2, 1e-300)]), 40),
]


def test_empty_batch():
    assert convolution._read_values([]) == []
    assert convolution._powers([]) == {}
    assert phi_of_poly_convolved_batch(H, Polynomial.monomial(3), []) == []


def test_power_one_reads_are_the_channel_value():
    # a read at power 1 sums the channel's own points in eps, whatever the
    # batch climbs to beside it
    rng = trial_rng(64)
    rows = [((H, B, E)[t % 3], random_channel(rng), ks)
            for t, ks in enumerate([(1,), (1, 2), (1, 3, 5), (2, 4), (1,), (1, 6)] * 3)]
    rows += [(tag, a, (1, 2, 3)) for tag in (H, B) for a, _ in EDGE_ROWS]
    reads = [(tag, "phi", ((a, k),)) for tag, a, ks in rows for k in ks]
    got = iter(convolution._read_values(reads))
    for tag, a, ks in rows:
        values = [next(got) for _ in ks]
        if 1 in ks:
            assert values[0].hex() == float(np.add.reduce(a.w * pointwise(tag, a.eps))).hex()
            assert values[0] == pytest.approx(evaluate(tag, a), rel=4 * 2.0**-52, abs=1e-300)


def test_linear_term_keeps_its_signed_zero():
    # -1 * Phi(BSC(0)) is -0.0; a sum without a linear term starts at 0.0
    assert phi_of_poly_convolved(H, Polynomial((-1.0,)), bsc(0.0)).hex() == "-0x0.0p+0"
    for rho in (Polynomial((-1.0,)), Polynomial((0.0, -1.0)), Polynomial((-1.0, -1.0)),
                Polynomial((0.0, -0.5, -1.0))):
        for tag in (H, B, E):
            got = phi_of_poly_convolved(tag, rho, bsc(0.0))
            assert got.hex() == loop_phi_of_poly(tag, rho, bsc(0.0)).hex()


def test_batch_cap_raises_before_any_convolution(monkeypatch):
    calls = count_point_calls(monkeypatch)
    two = channel([(0.1, 0.5), (0.3, 0.5)])
    wide = channel([(e, 0.2) for e in (0.05, 0.1, 0.2, 0.3, 0.4)])
    ten = channel(zip((0.01 * np.arange(1, 11)).tolist(), [0.1] * 10))
    with pytest.raises(SupportCapError, match="projected support 70058751 for power 200"):
        convolution._read_values([(H, "phi", ((two, 2),)), (B, "phi", ((wide, 200),)),
                                  (H, "conv", ((two, 4),))])
    with pytest.raises(SupportCapError, match="a read of 25050025 product points"):
        convolution._read_values([(H, "phi", ((two, 2),)), (B, "conv", ((ten, 6), (ten, 6)))])
    assert calls == []


# ----------------------------------------------------------------------
# one evaluator: every read of a batch is its lone read, bit for bit


def _mixed_reads():
    """"phi" reads of H, B and E and "conv" reads of H and B, one to three
    factors at degrees 1-6 over sampler draws and mixtures, and the edge
    rows at their own degrees, shuffled into one batch: reads of equal size
    and degree share their (tag, kind) group and their climb."""
    rng = trial_rng(66)
    chans = [random_channel(rng) for _ in range(12)]
    chans += [mix(chans[t], chans[t + 1], float(rng.random())) for t in range(0, 6, 2)]
    rows = [(a, d) for a in chans for d in (1, 2, 3, 6)] + EDGE_ROWS
    reads = [(tag, kind, ((a, d),)) for a, d in rows
             for tag, kind in ((H, "phi"), (B, "phi"), (E, "phi"), (H, "conv"), (B, "conv"))]
    for t, a in enumerate(chans):
        b = chans[(t + 5) % len(chans)]
        reads += [(tag, "conv", ((a, 2), (b, 1))) for tag in (H, B)]
        reads += [(H, "conv", ((a, 1), (b, 1), (a, 1)))]
    reads += [(H, "conv", ()), (B, "phi", ())]  # the perfect channel
    return [reads[i] for i in np.random.default_rng(6).permutation(len(reads))]


def test_mixed_batch_is_each_reads_lone_call():
    reads = _mixed_reads()
    assert {(tag, kind) for tag, kind, _ in reads} == {
        (H, "phi"), (B, "phi"), (E, "phi"), (H, "conv"), (B, "conv")}
    got = convolution._read_values(reads)
    assert len(got) == len(reads)
    for read, value in zip(reads, got):
        assert value.hex() == convolution._read_values([read])[0].hex(), read
    # and a batch in the opposite order
    assert hexes(convolution._read_values(reads[::-1])[::-1]) == hexes(got)


def test_numpy_pairwise_sum_ignores_memory_layout():
    # a canary for the evaluator's one sum rule, which reads each read's
    # terms as a slice of its group's array: on every numpy the matrix
    # runs, a slice at any offset sums as its own copy does
    rng = np.random.default_rng(68)
    terms = rng.standard_exponential(4096) * 10.0 ** rng.uniform(-12.0, 0.0, 4096)
    for offset in range(16):
        for n in (1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 1000, 3003):
            part = terms[offset:offset + n]
            assert float(np.add.reduce(part)).hex() == float(np.add.reduce(part.copy())).hex()


def test_reads_of_fewer_than_8_terms_add_left_to_right():
    # numpy's pairwise sum adds fewer than 8 terms left to right from 0.0
    rng = trial_rng(67)
    chans = [random_channel(rng) for _ in range(40)] + [a for a, _ in EDGE_ROWS]
    reads = [(tag, kind, ((a, d),)) for a in chans for d in (1, 2)
             for tag, kind in ((H, "phi"), (B, "phi"), (E, "phi"), (H, "conv"), (B, "conv"))
             if projected_power_support(a.size, d) < 8]
    assert len(reads) > 100
    for (tag, kind, factors), value in zip(reads, convolution._read_values(reads)):
        eps, x, w = convolution._product_points(factors, convolution._powers(factors))
        each = pointwise(tag, eps) if kind == "phi" else _complement_points(tag, eps, x)
        total = 0.0
        for term in (w * each).tolist():
            total += term
        assert value.hex() == total.hex()


def test_support_cap_raises_before_any_point_is_formed(monkeypatch):
    monkeypatch.setattr(convolution, "_powers", lambda *args: pytest.fail("formed points"))
    ten = channel(zip((0.01 * np.arange(1, 11)).tolist(), [0.1] * 10))
    for reads in ([(H, "phi", ((bsc(0.1), 2),)), (E, "phi", ((ten, 20),))],
                  [(B, "conv", ((ten, 6), (ten, 6)))],
                  [(B, "phi", ((ten, 1),)), (H, "conv", ((ten, 3), (ten, 3), (ten, 2)))]):
        with pytest.raises(SupportCapError):
            convolution._read_values(reads)
    # and every other check before it
    for read, error in (((E, "conv", ((bsc(0.1), 1),)), ValueError),
                        ((H, "phi", ((bsc(0.1), 0),)), ValueError),
                        ((B, "phi", ((bsc(0.1), 2.0),)), TypeError)):
        with pytest.raises(error):
            convolution._read_values([(H, "phi", ((bsc(0.1), 2),)), read])


# ----------------------------------------------------------------------
# large degrees: the point layer holds one degree's points, and no weight
# overflows


def test_reads_at_large_degrees():
    # BSC(0.1)^[d] is BSC((1 - 0.8^d) / 2): one point, whose x is 0.8
    # multiplied d - 1 times (d roundings)
    for d in (171, 200):
        x = 1.0
        for _ in range(d):
            x *= 0.8
        eps = 0.5 * (1.0 - 0.8**d)
        for tag in (H, B):
            want = complement(tag, bsc(eps)) if tag is B else x * x / (2.0 * math.log(2.0))
            got = complement_of_convolution(tag, [(bsc(0.1), d)])
            assert got == pytest.approx(want, rel=1e-13)
        assert phi_of_poly_convolved(B, Polynomial.monomial(d), bsc(0.1)) == pytest.approx(
            1.0 - complement(B, bsc(eps)), rel=1e-15)
    # two points at d = 200, the area cross-check's degree at (100, 200)
    two = channel([(0.05, 0.3), (0.2, 0.7)])
    power = check_power(two, 200)
    assert power.size <= 201 and np.isfinite(power.w).all()
    moment = float(np.dot(two.w, (1.0 - 2.0 * two.eps) ** 2)) ** 200
    assert float(np.dot(power.w, (1.0 - 2.0 * power.eps) ** 2)) == pytest.approx(moment, rel=1e-12)


def test_large_power_holds_one_degree_of_points():
    # a d x K index table of a^[300]'s 45,451 multisets would take 109 MB
    a = channel([(0.05, 0.2), (0.2, 0.3), (0.4, 0.5)])
    assert projected_power_support(3, 300) == 45451
    tracemalloc.start()
    try:
        power = check_power(a, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert abs(evaluate(E, power) - 0.5 * (1.0 - float(np.dot(a.w, 1.0 - 2.0 * a.eps)) ** 300)) <= 1e-15


# ----------------------------------------------------------------------
# small crossovers: the point layer carries eps, where the chain rounded x


def test_power_of_a_tiny_crossover_keeps_its_digits():
    # BSC(e)^[2] is BSC(2 e (1 - e)); the x-domain chain lost ~1e-4 of it here
    for e in (1e-10, 1e-12, 1e-15):
        eps = float(check_power(bsc(e), 2).eps[0])
        assert eps == pytest.approx(2.0 * e * (1.0 - e), rel=2 * 2.0**-52)
    e2 = 2.0 * 1e-10 * (1.0 - 1e-10)
    exact = 2.0 * math.sqrt(e2 * (1.0 - e2))
    got = phi_of_poly_convolved(B, Polynomial.monomial(2), bsc(1e-10))
    assert got == pytest.approx(exact, rel=4 * 2.0**-52)
