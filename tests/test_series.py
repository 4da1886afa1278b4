import itertools
import math
from fractions import Fraction

from typing import Sequence

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from eicomb.area import EnsembleParams, margin_conditions
from eicomb.bounds import (
    DEFAULT_ERROR_LEVELS,
    DEFAULT_SWEEP_LEVELS,
    DEFAULT_SWEEP_RHOS,
    SERIES_TAGS,
    convexity_upper_bound,
    fixed_error_extremes,
    keyed_channels_with_value,
    keyed_rows_with_value,
    lower_bound_sweep,
    monotone_lower_bound,
    random_channel,
    random_channel_with_value,
    trial_rng,
    upper_bound_sweep,
)
from eicomb.channel import Channel, bec, bsc, channel, mix
from eicomb.convolution import DEFAULT_SUPPORT_CAP, SupportCapError, check_convolve, check_power
from eicomb.functionals import Functional, _complement_points, evaluate, h2_inv, kernel_inv
from eicomb import convolution, series
from eicomb.series import (
    Polynomial,
    SeriesValue,
    coefficient,
    coefficient_tail,
    moment,
    moments,
    phi_of_poly,
    phi_of_poly_batch,
    phi_series,
    poly_convex_on,
    poly_from_string,
    poly_increasing_on,
)

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # hypothesis is an optional test dependency
    st = None
try:
    import sympy
except ImportError:  # sympy is an optional test dependency
    sympy = None

H, B, E = Functional.H, Functional.B, Functional.E


# ----------------------------------------------------------------------
# series weights


def test_first_weights():
    assert coefficient(H, 1) == pytest.approx(1.0 / (2.0 * math.log(2.0)), abs=1e-15)
    assert coefficient(B, 1) == pytest.approx(0.5, abs=1e-15)
    assert coefficient(B, 2) == pytest.approx(0.125, abs=1e-15)
    assert coefficient(B, 3) == pytest.approx(0.0625, abs=1e-15)


def test_weights_reject_bad_index_and_tag():
    with pytest.raises(ValueError):
        coefficient(H, 0)
    with pytest.raises(ValueError, match="the error-probability functional has no series weights"):
        coefficient(E, 1)
    with pytest.raises(ValueError, match="the error-probability functional has no series weights"):
        coefficient_tail(E, 5)


@pytest.mark.parametrize("read", (coefficient, coefficient_tail))
def test_weights_take_integer_indices_only(read):
    for n in (2.5, 2.0, "3"):
        with pytest.raises(TypeError):
            read(H, n)
    assert read(B, np.int64(7)) == read(B, 7)


# The closed forms and the B list recurrence the weight table replaced,
# kept as its oracle.
def _b_tails_oracle(n: int) -> list[float]:
    """t_m = C(2m,m)/4^m for m = 0..n, by the Python float recurrence."""
    t = [1.0]
    while len(t) <= n:
        m = len(t)
        t.append(t[-1] * (2 * m - 1) / (2 * m))
    return t


def _weight_oracle(tag, n, t):
    if tag is H:
        return 1.0 / (2.0 * math.log(2.0) * n * (2 * n - 1))
    return t[n - 1] / (2 * n)


def _tail_oracle(tag, n, t):
    if tag is H:
        return 1.0 / (4.0 * math.log(2.0) * n)
    return t[n] * (1.0 + 1e-9)


def _assert_table_matches_oracle(ns):
    t = _b_tails_oracle(max(ns))
    for tag in (H, B):
        for n in ns:
            assert coefficient(tag, n).hex() == _weight_oracle(tag, n, t).hex(), (tag, n)
            assert coefficient_tail(tag, n).hex() == _tail_oracle(tag, n, t).hex(), (tag, n)


def test_weight_table_matches_the_scalar_formulas_bit_for_bit():
    _assert_table_matches_oracle(range(1, 5001))


def test_weight_table_is_bit_stable_across_growth(monkeypatch):
    # a fresh table holds 1024 entries and doubles: read each side of the
    # boundaries in the order that makes the table grow through them
    monkeypatch.setattr(series, "_WEIGHTS", {})
    _assert_table_matches_oracle([1, 1023, 1024])
    assert series._weights(H, 1)[0].size == series._weights(B, 1)[0].size == 1025
    _assert_table_matches_oracle([1025, 2048, 2049, 1024, 1])
    assert series._weights(H, 1)[0].size == 4097
    _assert_table_matches_oracle([10**5, 10**6, 2049, 1])


def test_weight_table_is_read_only():
    for tag in (H, B):
        for arr in series._weights(tag, 10):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0.0


def test_bhattacharyya_recurrence_matches_exact_binomials():
    # stable product recurrence vs exact integer arithmetic up to n = 30
    for n in range(1, 31):
        exact = Fraction(math.comb(2 * n, n), (2 * n - 1) * 4**n)
        assert coefficient(B, n) == pytest.approx(float(exact), rel=1e-14)


def test_partial_sums_increase_and_bracket_one():
    for tag in (H, B):
        partial = 0.0
        for n in range(1, 10_001):
            partial += coefficient(tag, n)
            assert partial <= 1.0 + 1e-12
            assert partial + coefficient_tail(tag, n) >= 1.0


def test_tails_decrease_to_zero():
    for tag in (H, B):
        values = [coefficient_tail(tag, n) for n in (10, 100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(values, values[1:]))
    # the H tail is tiny by 1e5; the B tail decays like 1/sqrt(pi n)
    assert coefficient_tail(H, 100_000) < 1e-4
    assert coefficient_tail(B, 100_000) == pytest.approx(
        1.0 / math.sqrt(math.pi * 100_000), rel=1e-4
    )


def test_bhattacharyya_partial_sum_at_1000():
    partial = sum(coefficient(B, n) for n in range(1, 1001))
    assert 0.97 <= partial <= 1.0


# ----------------------------------------------------------------------
# moments


def test_erasure_channel_has_constant_moments():
    for n in (1, 5, 50):
        assert moment(bec(0.3), n) == pytest.approx(0.7, abs=1e-15)


def test_bsc_moments_decay_geometrically():
    assert moment(bsc(0.1), 2) == pytest.approx(0.8**4, abs=1e-15)
    ratios = [moment(bsc(0.1), n + 1) / moment(bsc(0.1), n) for n in range(1, 10)]
    assert all(r == pytest.approx(0.64, abs=1e-12) for r in ratios)


def test_useless_channel_moments_vanish():
    for n in (1, 3, 7):
        assert moment(bsc(0.5), n) == 0.0


def test_moments_decreasing_and_jensen():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = random_channel(rng)
        ms = moments(a, 30)
        assert np.all(np.diff(ms) <= 1e-15)
        assert np.all(ms >= 0.0)
        assert np.all(ms + 1e-12 >= ms[0] ** np.arange(1, 31))


def test_moment_takes_an_integer_index_only():
    for n in (2.5, 2.0, "3"):
        with pytest.raises(TypeError):
            moment(bsc(0.1), n)
    assert moment(bsc(0.1), np.int64(2)) == moment(bsc(0.1), 2)


def test_moments_take_an_integer_count_only():
    for count in (2.5, 2.0, "3"):
        with pytest.raises(TypeError):
            moments(bsc(0.1), count)
    assert moments(bsc(0.1), np.int64(3)).tolist() == moments(bsc(0.1), 3).tolist()


def test_first_moment_maximized_by_matched_bsc():
    # Among channels with Phi fixed, gamma_1 <= f_Phi^{-1}(phi0)^2, with
    # equality exactly at the matched BSC.
    for tag in (H, B):
        for i in range(500):
            rng = trial_rng(13, i)
            phi0 = 0.05 + 0.9 * float(rng.random())
            a = random_channel_with_value(rng, tag, phi0)
            cap = kernel_inv(tag, phi0) ** 2
            assert moment(a, 1) <= cap + 1e-9
    eps = (1.0 - kernel_inv(H, 0.5)) / 2.0
    assert moment(bsc(eps), 1) == pytest.approx(kernel_inv(H, 0.5) ** 2, abs=1e-12)


# ----------------------------------------------------------------------
# truncated series evaluation


def test_series_agrees_with_closed_form_at_power_one():
    for i in range(300):
        rng = trial_rng(21, i)
        a = random_channel(rng)
        for tag in (H, B):
            sv = phi_series(tag, a, 1, tol=1e-10)
            assert abs(sv.value - evaluate(tag, a)) <= 1e-9


def test_series_on_convolution_uses_moment_products():
    for i in range(100):
        rng = trial_rng(22, i)
        a, b = random_channel(rng), random_channel(rng)
        conv = check_convolve(a, b)
        for tag in (H, B):
            sv = phi_series(tag, conv, 1, tol=1e-10)
            assert abs(sv.value - evaluate(tag, conv)) <= 1e-9


def test_series_is_exact_for_erasure_channels():
    sv = phi_series(H, bec(0.3), 4, tol=1e-10)
    assert sv.value == pytest.approx(1.0 - 0.7**4, abs=1e-15)
    assert sv.error_bound == 0.0


def test_series_known_value_for_bsc():
    sv = phi_series(H, bsc(0.1), 1, tol=1e-10)
    assert sv.value == pytest.approx(0.4689955935892812, abs=1e-10)


def test_series_on_useless_channel():
    for tag in (H, B):
        assert phi_series(tag, bsc(0.5), 7, tol=1e-12).value == 1.0


def test_series_carries_error_bound():
    sv = phi_series(B, channel([(0.01, 0.5), (0.3, 0.5)]), 2, tol=1e-8)
    assert sv.error_bound <= 1e-8
    assert sv.terms >= 1


def test_series_validates_inputs():
    with pytest.raises(ValueError):
        phi_series(E, bsc(0.1), 1)
    with pytest.raises(ValueError, match="power must be a positive integer, got 0"):
        phi_series(H, bsc(0.1), 0)
    with pytest.raises(ValueError):
        phi_series(H, bsc(0.1), 1, tol=0.0)
    with pytest.raises(ValueError):
        phi_of_poly(E, Polynomial.monomial(2), bsc(0.1))
    with pytest.raises(ValueError):
        phi_of_poly(H, Polynomial.monomial(2), bsc(0.1), tol=0.0)


def test_phi_of_poly_collapses_for_the_identity():
    rng = np.random.default_rng(17)
    rho = Polynomial((1.0,))
    for _ in range(50):
        a = random_channel(rng)
        for tag in (H, B):
            assert phi_of_poly(tag, rho, a, tol=1e-11).value == pytest.approx(
                evaluate(tag, a), abs=1e-9
            )


def test_phi_of_poly_erasure_closed_form():
    rho = Polynomial.monomial(3)
    assert phi_of_poly(H, rho, bec(0.5)).value == pytest.approx(0.875, abs=1e-15)


def test_phi_of_poly_matches_explicit_convolution():
    rhos = [
        Polynomial.monomial(2),
        poly_from_string("x^5 - 0.75*x^6"),
        Polynomial((0.25, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0, 1.0)),  # degree 8
    ]
    for i in range(100):
        rng = trial_rng(23, i)
        a = random_channel(rng, max_support=4)
        rho = rhos[i % len(rhos)]
        for tag in (H, B):
            via_series = phi_of_poly(tag, rho, a, tol=1e-10).value
            via_conv = sum(c * evaluate(tag, check_power(a, k)) for k, c in rho.terms)
            assert abs(via_series - via_conv) <= 1e-8


def test_phi_of_poly_handles_atoms_at_zero_exactly():
    # mixing with the perfect channel adds a constant floor to the moments
    a = mix(channel([(0.2, 0.5), (0.4, 0.5)]), bsc(0.0), 0.6)
    rho = poly_from_string("x^5-0.75x^6")
    via_conv = sum(c * evaluate(H, check_power(a, k)) for k, c in rho.terms)
    sv = phi_of_poly(H, rho, a, tol=1e-12)
    assert abs(sv.value - via_conv) <= 1e-10


# ----------------------------------------------------------------------
# batched evaluation against the single-channel loop


# The scalar evaluator that phi_of_poly_batch replaced, kept verbatim as
# the oracle for the blocked engine (and for phi_series / phi_of_poly,
# which are its batch of one).
def _abs_terms(terms: Sequence[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    return tuple((k, abs(c)) for k, c in terms)


def _rho_at(terms: Sequence[tuple[int, float]], v: float) -> float:
    return float(sum(c * v**k for k, c in terms))


def _atom_split(a: Channel) -> tuple[float, np.ndarray, np.ndarray]:
    """(mass at x = 1, y = x^2 and weights of the points with 0 < x < 1)."""
    x = 1.0 - 2.0 * a.eps
    active = (x > 0.0) & (x < 1.0)
    return float(a.w[x == 1.0].sum()), x[active] ** 2, a.w[active]


def _phi_terms(
    tag: Functional,
    a: Channel,
    terms: Sequence[tuple[int, float]],
    tol: float,
    term_cap: int,
) -> SeriesValue:
    """Shared adaptive evaluator for Phi(rho(a)) given rho's nonzero terms.

    Mass at eps = 0 (x = 1) makes the moments converge to a constant
    `atom`; that constant subseries is summed exactly via sum_n a_n = 1,
    and only the geometrically decaying remainder is truncated:

        Phi(rho(a)) = rho(1) - rho(atom) - sum_n a_n (rho(gamma_n) - rho(atom))

    Truncation after N terms is bounded by
    coefficient_tail(N) * (rho_abs(gamma_{N+1}) - rho_abs(atom)).
    """
    series._check_stop(tol, term_cap)
    atom, y, wa = _atom_split(a)
    rho_one = float(sum(c for _, c in terms))
    rho_atom = _rho_at(terms, atom)
    if y.size == 0:
        return SeriesValue(rho_one - rho_atom, 0.0, 0)
    rho_abs_atom = _rho_at(_abs_terms(terms), atom)
    z = y.copy()
    gamma = atom + float(np.dot(wa, z))
    acc = 0.0
    n = 1
    while True:
        acc += coefficient(tag, n) * (
            sum(c * gamma**k for k, c in terms) - rho_atom
        )
        z *= y
        gamma_next = atom + float(np.dot(wa, z))
        bound = coefficient_tail(tag, n) * (
            sum(abs(c) * gamma_next**k for k, c in terms) - rho_abs_atom
        )
        if bound <= tol or n >= term_cap:
            break
        gamma = gamma_next
        n += 1
    return SeriesValue(rho_one - rho_atom - acc, max(bound, 0.0), n, not bound <= tol)


# The engine's split arithmetic as a scalar loop: the oracle for rows whose
# slow points the engine sums exactly (see series._series_pass).
def _slow_points(a: Channel, terms: Sequence[tuple[int, float]]):
    """(eps, w) of a's slow points (atoms at x = 1 among them) when the
    engine sums them exactly for a polynomial with these terms, else None."""
    x = 1.0 - 2.0 * a.eps
    slow = x * x > series._SLOW_Y
    if (max(k for k, _ in terms) > series._SLOW_MAX_DEGREE or not (slow & (x < 1.0)).any()
            or slow.sum() > series._SLOW_MAX_POINTS):
        return None
    return a.eps[slow], a.w[slow]


def _slow_sum(tag: Functional, eps: np.ndarray, w: np.ndarray, k: int) -> float:
    """sum_n a_n s_n^k for the moments s_n of the points (eps, w): w (1 - Phi)
    over their size-k multisets in combinations_with_replacement order, each
    point's eps folded and weight built as _complement_loop builds them,
    added left to right."""
    x = (1.0 - 2.0 * eps).tolist()
    eps, w = eps.tolist(), w.tolist()
    total = 0.0
    for idx in itertools.combinations_with_replacement(range(len(eps)), k):
        e, px, pw = eps[idx[0]], x[idx[0]], w[idx[0]]
        for i, j in enumerate(idx[1:], 2):
            e = e * (1.0 - eps[j]) + eps[j] * (1.0 - e)
            px, pw = px * x[j], pw * w[j] * i / idx[:i].count(j)
        total += pw * _complement_points(tag, np.array([e]), np.array([px]))[0]
    return float(total)


def _split_terms(tag, a, terms, tol, term_cap, slow) -> SeriesValue:
    """Phi(rho(a)) = rho(1) - E - sum_n a_n (rho(s_n + f_n) - rho(s_n)), E exact
    from the slow points, the remainder truncated after N terms where
    coefficient_tail(N) (rho_abs(s + f) - rho_abs(s)) at N + 1 is <= tol."""
    series._check_stop(tol, term_cap)
    x = 1.0 - 2.0 * a.eps
    y = x * x
    atom = float(a.w[x == 1.0].sum())
    inner = (y > series._SLOW_Y) & (x < 1.0)
    fast = (x > 0.0) & ~(y > series._SLOW_Y)
    ys, ws, yf, wf = y[inner], a.w[inner], y[fast], a.w[fast]
    exact = 0.0
    for k, c in terms:
        exact = exact + c * _slow_sum(tag, *slow, k)
    rho_one = float(sum(c for _, c in terms))
    if yf.size == 0:
        return SeriesValue(rho_one - exact, 0.0, 0)
    zs, zf = ys.copy(), yf.copy()
    s, f = atom + float(np.dot(ws, zs)), float(np.dot(wf, zf))
    acc = 0.0
    n = 1
    while True:
        acc += coefficient(tag, n) * (_rho_at(terms, s + f) - _rho_at(terms, s))
        zs *= ys
        zf *= yf
        s, f = atom + float(np.dot(ws, zs)), float(np.dot(wf, zf))
        bound = coefficient_tail(tag, n) * (
            _rho_at(_abs_terms(terms), s + f) - _rho_at(_abs_terms(terms), s))
        if bound <= tol or n >= term_cap:
            break
        n += 1
    return SeriesValue(rho_one - exact - acc, max(bound, 0.0), n, not bound <= tol)


def _series_oracle(tag, a, terms, tol, term_cap) -> SeriesValue:
    """The scalar oracle of the engine's lane for rho's terms on a: the split
    loop when a's slow points are summed exactly, else the atom-only one."""
    slow = _slow_points(a, terms)
    if slow is None:
        return _phi_terms(tag, a, terms, tol, term_cap)
    return _split_terms(tag, a, terms, tol, term_cap, slow)


BATCH_RHOS = (
    Polynomial.monomial(2),
    Polynomial.monomial(6),
    poly_from_string("x^5 - 0.75*x^6"),
)
# Near-perfect points with the remainder of the channel far from perfect:
# the atom-only series needs ~1/eps terms on them.  The split sums the
# slow points of SLOW_PAIR exactly (the atom-only series stops at its
# 10^5-term cap with x^3, bound 1.36e-7), but CAPPED has more slow points
# than the split takes, so its x^3 series still hits the term cap at tol
# 1e-11.
SLOW_PAIR = channel([(1e-6, 0.5), (0.3, 0.5)])
CAPPED = channel([(1e-6, 0.44), (0.01, 0.01), (0.02, 0.01), (0.04, 0.01), (0.06, 0.01),
                  (0.08, 0.01), (0.1, 0.01), (0.3, 0.5)])


def _batch_rows():
    """No active point, atoms at x = 1, slow rows among fast ones, samples."""
    rows = [bec(0.3), bsc(0.0), bsc(0.5), bsc(0.1)]
    rows.append(mix(channel([(0.2, 0.5), (0.4, 0.5)]), bsc(0.0), 0.6))
    rows.append(mix(channel([(0.05, 0.3), (0.45, 0.7)]), bsc(0.5), 0.5))
    # thousands of terms: seven slow points, more than the split takes
    rows.append(channel([(2e-4, 0.28), (0.01, 0.02), (0.02, 0.02), (0.04, 0.02), (0.06, 0.02),
                         (0.08, 0.02), (0.1, 0.02), (0.2, 0.6)]))
    for i in range(24):
        constraint, level = (H, B, E)[i % 3], 0.1 + 0.03 * i
        top = 0.5 if constraint is E else 1.0
        rows.append(random_channel_with_value(trial_rng(31, i), constraint, level * top))
    # slow points the split sums exactly, next to fast ones and an atom
    rows.append(channel([(2e-4, 0.4), (0.2, 0.6)]))
    rows.append(channel([(0.0, 0.2), (1e-9, 0.2), (0.05, 0.2), (0.11, 0.2), (0.3, 0.2)]))
    return rows


def _assert_matches_oracle(tag, rho, rows, tol, term_cap=series.DEFAULT_TERM_CAP):
    """Compare the batch with the scalar oracles row by row; returns the
    oracles' values.  numpy's pow and the w . y^n sums round differently
    from Python's float pow and BLAS's fused dot product, so values may
    differ in the last digit."""
    got = phi_of_poly_batch(tag, rho, rows, tol=tol, term_cap=term_cap)
    assert len(got) == len(rows)
    wants = [_series_oracle(tag, a, rho.terms, tol, term_cap) for a in rows]
    for sv, want in zip(got, wants):
        assert sv.terms == want.terms
        assert sv.capped == want.capped
        assert abs(sv.value - want.value) <= 1e-14
        assert sv.error_bound == pytest.approx(want.error_bound, rel=1e-9, abs=1e-15)
    return wants


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("rho", BATCH_RHOS, ids=str)
def test_batch_matches_single_channel_loop(tag, rho):
    rows = _batch_rows()
    _assert_matches_oracle(tag, rho, rows, tol=1e-11)
    # the slow row outlives every other by several doubling blocks
    terms = [sv.terms for sv in phi_of_poly_batch(tag, rho, rows, tol=1e-11)]
    assert terms[:3] == [0, 0, 0]
    assert terms[6] > 2 * max(terms[:6] + terms[7:])
    assert min(terms[3:]) <= series._BATCH_FIRST_BLOCK


def test_batch_term_cap_row_is_exact():
    rows = [bsc(0.2), CAPPED, bec(0.4)]
    want = _assert_matches_oracle(H, Polynomial.monomial(3), rows, tol=1e-11)
    assert want[1].terms == series.DEFAULT_TERM_CAP
    assert want[1].error_bound > 1e-11


def test_capped_flag_marks_a_term_cap_stop_above_tol():
    # the atom-only series stops at the cap on SLOW_PAIR; the split does not
    old = _phi_terms(H, SLOW_PAIR, ((3, 1.0),), 1e-11, series.DEFAULT_TERM_CAP)
    assert old.capped and old.terms == series.DEFAULT_TERM_CAP
    assert old.error_bound == pytest.approx(1.36e-7, rel=1e-2)
    want = _series_oracle(H, CAPPED, ((3, 1.0),), 1e-11, series.DEFAULT_TERM_CAP)
    assert want.capped
    assert want.terms == series.DEFAULT_TERM_CAP
    assert want.error_bound > 1e3 * 1e-11
    rows = [bsc(0.2), CAPPED, SLOW_PAIR, bec(0.4)]
    got = phi_of_poly_batch(H, Polynomial.monomial(3), rows, tol=1e-11)
    assert [sv.capped for sv in got] == [False, True, False, False]
    # every row of the mixed batch stops below tol before the cap
    for tag in (H, B):
        for rho in BATCH_RHOS:
            assert not any(sv.capped for sv in phi_of_poly_batch(tag, rho, _batch_rows(), 1e-11))
            assert not _phi_terms(tag, _batch_rows()[3], rho.terms, 1e-11, series.DEFAULT_TERM_CAP).capped


def test_capped_flag_needs_the_bound_above_tol_at_the_cap():
    # an atom-only lane (no slow point) and a split lane
    rho = Polynomial.monomial(3)
    for a in (bsc(0.15), channel([(0.05, 0.5), (0.2, 0.5)])):
        natural = _series_oracle(H, a, rho.terms, 1e-11, series.DEFAULT_TERM_CAP).terms
        assert natural > 2
        for term_cap, capped in ((natural, False), (natural + 1, False), (natural - 1, True)):
            one = _series_oracle(H, a, rho.terms, 1e-11, term_cap)
            batch = phi_of_poly_batch(H, rho, [a], tol=1e-11, term_cap=term_cap)[0]
            assert one.capped is batch.capped is capped, term_cap
            assert one.terms == batch.terms == min(natural, term_cap)


@pytest.mark.parametrize("term_cap", (1, 5, 8, 9, 30))
def test_batch_small_term_caps_stop_inside_blocks(term_cap):
    for tag in (H, B):
        _assert_matches_oracle(tag, BATCH_RHOS[2], _batch_rows(), 1e-14, term_cap)
        got = phi_of_poly_batch(tag, BATCH_RHOS[2], _batch_rows(), 1e-14, term_cap)
        assert any(sv.capped for sv in got)


def test_batch_blocking_does_not_change_results(monkeypatch):
    rows = _batch_rows()
    rho = BATCH_RHOS[2]
    wide = phi_of_poly_batch(B, rho, rows, tol=1e-12)
    monkeypatch.setattr(series, "_BATCH_MAX_ENTRIES", 7)
    assert phi_of_poly_batch(B, rho, rows, tol=1e-12) == wide



# The four bench ensembles of the area sweep
AREA_ENSEMBLES = ((100, 200), (50, 100), (30, 60), (20, 40))


def _area_batch(params, seed=3, trials=6):
    """The area sweep's draws at the ensemble's certified grid entropies:
    (keys, entropies)."""
    grid = [gi / 49 for gi in range(50)]
    c0 = params.default_margin()
    certified = [gi for gi, h in enumerate(grid) if all(margin_conditions(params, h, c0))]
    return ([(seed, gi, t) for gi in certified for t in range(trials)],
            [grid[gi] for gi in certified for _ in range(trials)])


def _sweep_batch(tag, seed=5):
    """A bound sweep row's channels: every default level, five trials each."""
    return keyed_channels_with_value(
        [(seed, 0, ord(tag.value), li, t) for li in range(9) for t in range(5)],
        tag, [level for level in DEFAULT_SWEEP_LEVELS for _ in range(5)])


def _same_columns(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("schedule", ((1, 1, 1 << 22, 1), (3, 5, 1 << 22, 3), (8, 512, 40, 8),
                                      (64, 4096, 1 << 22, 64)))
def test_engine_columns_do_not_depend_on_the_block_schedule(monkeypatch, schedule):
    # a sweep row's channels, split rows among them, with a term cap that
    # stops their slowest lanes, and an area batch, whose lanes stop at
    # different terms, on both powers
    p = EnsembleParams(20, 40)
    keys, hs = _area_batch(p)
    rows = keyed_rows_with_value(keys, H, hs)
    area_rhos = (Polynomial.monomial(p.check_degree), Polynomial.monomial(p.check_degree - 1))
    runs = []
    for tag in (H, B):
        chans = _sweep_batch(tag)
        for rho in DEFAULT_SWEEP_RHOS[::3]:
            runs.append(lambda tag=tag, rho=rho, chans=chans:
                        [series.phi_of_poly_columns(tag, rho, chans, 1e-11, 20)])
        assert any(_slow_points(a, rho.terms) is not None for a in chans)
        runs.append(lambda tag=tag: series.phi_of_polys_columns(tag, area_rhos, rows, 1e-10))
    want = [run() for run in runs]
    assert any(cols.capped.any() for out in want for cols in out)
    assert any((out[0].terms != out[1].terms).any() for out in want if len(out) == 2)
    names = ("_BATCH_FIRST_BLOCK", "_BATCH_MAX_BLOCK", "_BATCH_MAX_ENTRIES", "_SLOW_FIRST_BLOCK")
    for name, value in zip(names, schedule, strict=True):
        monkeypatch.setattr(series, name, value)
    for run, out in zip(runs, want):
        got = run()
        assert all(_same_columns(g, w) for g, w in zip(got, out, strict=True))


@pytest.mark.parametrize("ensemble", AREA_ENSEMBLES)
@pytest.mark.parametrize("term_cap", (series.DEFAULT_TERM_CAP, 30, 2))
def test_one_pass_is_one_call_per_polynomial_bit_for_bit(ensemble, term_cap):
    p = EnsembleParams(*ensemble)
    r = p.check_degree
    keys, hs = _area_batch(p)
    rows = keyed_rows_with_value(keys, H, hs)
    chans = keyed_channels_with_value(keys, H, hs)
    # both powers, and the signed area polynomial X^(r-1) - kappa X^r
    rhos = (Polynomial.monomial(r), Polynomial.monomial(r - 1), p.area_poly)
    for tag in (H, B):
        got = series.phi_of_polys_columns(tag, rhos, rows, 1e-10, term_cap)
        assert len(got) == len(rhos)
        for rho, cols in zip(rhos, got):
            assert _same_columns(cols, series.phi_of_poly_columns(tag, rho, chans, 1e-10, term_cap))
        if term_cap == 2 and r <= 60:
            assert any(cols.capped.any() and not cols.capped.all() for cols in got)


# The engine as it was before the slow split, kept verbatim as the oracle of
# its atom-only lanes: a row with no slow point in 0 < x < 1, or more than
# the split takes, and every rho of degree above _SLOW_MAX_DEGREE.
def _atom_only_pass(tag, rhos, padded, tol, term_cap):
    """Phi(rho(a)) of every rho for every padded row (atoms, counts, ys,
    ws), every lane by the atom-only arithmetic."""
    atoms, counts, ys, ws = padded
    width, size = len(rhos), atoms.size
    terms_of = [rho.terms for rho in rhos]
    abs_terms_of = [tuple((k, abs(c)) for k, c in t) for t in terms_of]
    signed = abs_terms_of != terms_of
    rho_lanes, rho_abs_lanes = series._lane_rho(terms_of), series._lane_rho(abs_terms_of)
    rho_atoms = [series._rho_at(t, atoms.tolist()) for t in terms_of]
    # slot p * size + i holds polynomial p at row i, and one spare slot
    # follows; a row with no term to sum keeps these
    spare = width * size
    value = np.concatenate([rho(1.0) - r for rho, r in zip(rhos, rho_atoms)] + [np.zeros(1)])
    error_bound = np.zeros(spare + 1)
    terms = np.zeros(spare + 1, dtype=np.intp)
    index = np.flatnonzero(counts)
    ys, ws, atoms = ys[index], ws[index], atoms[index]
    out = series._lanes([index + p * size for p in range(width)])  # each lane's slot
    rho_atom = series._lanes([r[index] for r in rho_atoms])
    rho_abs_atom = series._lanes([series._rho_at(t, atoms.tolist()) for t in abs_terms_of]) if signed else rho_atom
    acc = np.zeros(out.size)
    z = ys.copy()  # y^n0 for the block starting at term n0
    n0, block = 1, series._BATCH_FIRST_BLOCK
    while out.size:
        count = max(1, min(block, term_cap - n0 + 1, series._BATCH_MAX_ENTRIES // ys.size))
        powers = np.repeat(ys[:, :, None], count + 1, axis=2)
        powers[:, :, 0] = z
        np.cumprod(powers, axis=2, out=powers)  # y^n0 .. y^(n0+count)
        gamma = atoms[:, None] + np.einsum("rm,rmc->rc", ws, powers)
        rho_g = rho_lanes(gamma)
        rho_abs_g = rho_abs_lanes(gamma) if signed else rho_g
        a, tail = series._weights(tag, n0 + count - 1)
        sums = np.empty((out.size, count + 1))
        sums[:, 0] = acc
        sums[:, 1:] = a[n0 : n0 + count] * (rho_g[:, :-1] - rho_atom[:, None])
        partial = np.cumsum(sums, axis=1)  # accumulator after terms n0-1 .. n0+count-1
        bound = tail[n0 : n0 + count] * (rho_abs_g[:, 1:] - rho_abs_atom[:, None])
        stop = bound <= tol
        if n0 + count > term_cap:  # the block's last term is the cap
            stop[:, -1] = True
        acc = partial[:, -1]
        z = powers[:, :, -1].copy()  # frees the table before the next block
        done = stop.any(axis=1)
        if done.any():
            lanes = np.flatnonzero(done)
            first = stop[lanes].argmax(axis=1)
            at = out[lanes]
            value[at] -= partial[lanes, first + 1]
            error_bound[at] = bound[lanes, first]
            terms[at] = n0 + first
            if lanes.size == out.size:
                break
            out[lanes] = spare  # a lane's later stops write to the spare slot
            rows_kept = lanes_kept = out != spare
            if width > 1:  # a row leaves with its last lane
                rows_kept = lanes_kept.reshape(-1, width).any(axis=1)
                lanes_kept = rows_kept.repeat(width)
            ys, ws, atoms, z = (v[rows_kept] for v in (ys, ws, atoms, z))
            rho_atom, rho_abs_atom, acc, out = (
                v[lanes_kept] for v in (rho_atom, rho_abs_atom, acc, out))
        n0 += count
        block = min(2 * block, series._BATCH_MAX_BLOCK)
    value, error_bound, terms = (v[:spare].reshape(width, size) for v in (value, error_bound, terms))
    capped = ~(error_bound <= tol)  # before the clip: NaN is capped, a rounding below 0 is not
    error_bound[error_bound < 0.0] = 0.0  # max(b, 0.0): keeps NaN and -0.0
    return [series.SeriesColumns(*cols) for cols in zip(value, error_bound, terms, capped)]



@pytest.mark.parametrize("term_cap", (series.DEFAULT_TERM_CAP, 30, 2))
def test_one_pass_is_one_call_per_polynomial_on_split_rows(term_cap):
    # the sweep rhos next to degrees the split does not take, on sweep rows
    # with slow points and rows it does not take
    rhos = DEFAULT_SWEEP_RHOS + (Polynomial.monomial(7), EnsembleParams(20, 40).area_poly)
    for tag in (H, B):
        chans = _sweep_batch(tag) + _batch_rows()
        assert any(_slow_points(a, rhos[0].terms) is not None for a in chans)
        eps, w, sizes = series._channel_rows(chans)
        rows = (eps, w, np.concatenate(([0], np.cumsum(sizes))))
        got = series.phi_of_polys_columns(tag, rhos, rows, 1e-11, term_cap)
        for rho, cols in zip(rhos, got, strict=True):
            assert _same_columns(cols, series.phi_of_poly_columns(tag, rho, chans, 1e-11, term_cap))


def _padded_loop(channels):
    """The per-channel split and padding loop that phi_of_poly_batch ran
    before the padded batch: (idle atoms by index, index, atoms, ys, ws)."""
    idle = {}
    active = []
    for i, a in enumerate(channels):
        atom, y, w = _atom_split(a)
        if y.size == 0:
            idle[i] = atom
        else:
            active.append((i, atom, y, w))
    index, atom_list, y_list, w_list = zip(*active)
    ys = np.zeros((len(index), max(y.size for y in y_list)))
    ws = np.zeros_like(ys)
    for r, (y, w) in enumerate(zip(y_list, w_list)):
        ys[r, : y.size] = y
        ws[r, : w.size] = w
    return idle, np.array(index), np.array(atom_list), ys, ws


def _split_rows():
    """Atoms at x = 1, points at x = 0, all-atom channels and widths 1-10."""
    rng = np.random.default_rng(17)
    rows = [bsc(0.0), bec(0.3), bsc(0.5), channel([(0.0, 0.3), (0.5, 0.7)])]
    for m in range(1, 11):
        eps = np.sort(rng.random(m)) * 0.5
        w = rng.random(m) + 0.1
        rows.append(channel(zip(eps, w / w.sum())))
        ends = [(0.0, 0.2), (0.5, 0.1), (0.0, 0.2), (0.5, 0.1)][: 1 + m % 4]
        inner = [(e, 0.6 * v) for e, v in zip(eps[1:-1], w[1:-1] / w[1:-1].sum())] or [(0.25, 0.6)]
        total = sum(v for _, v in inner) + sum(v for _, v in ends)
        rows.append(channel([(e, v / total) for e, v in ends + inner]))
    rows.insert(9, bec(0.8))
    return rows


def test_batch_split_is_the_padded_loop():
    rows = _split_rows()
    assert len({a.size for a in rows}) >= 10
    idle, index, atoms, ys, ws = _padded_loop(rows)
    assert sorted(idle) == [0, 1, 2, 3, 9]
    all_atoms, counts, got_ys, got_ws = series._padded_batch(*series._channel_rows(rows))
    assert np.flatnonzero(counts).tolist() == index.tolist()
    assert counts[index].tolist() == [int((w > 0.0).sum()) for w in ws]
    assert all_atoms[index].tobytes() == atoms.tobytes()
    assert all(all_atoms[i] == atom for i, atom in idle.items())
    assert got_ys.shape == (len(rows), ys.shape[1])
    assert got_ys[index].tobytes() == ys.tobytes()
    assert got_ws[index].tobytes() == ws.tobytes()
    # the idle rows are all padding
    assert not got_ys[counts == 0].any() and not got_ws[counts == 0].any()
    assert any(all_atoms[index] > 0.0) and (ys == 0.0).any()


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("rho", BATCH_RHOS, ids=str)
def test_batch_split_rows_match_phi_of_poly(tag, rho):
    rows = _split_rows()
    _assert_matches_oracle(tag, rho, rows, tol=1e-11)
    for a, sv in zip(rows, phi_of_poly_batch(tag, rho, rows, tol=1e-11)):
        assert phi_of_poly(tag, rho, a, tol=1e-11) == sv



@pytest.mark.parametrize("ensemble", AREA_ENSEMBLES)
def test_area_rows_are_the_atom_only_engine_bit_for_bit(ensemble):
    p = EnsembleParams(*ensemble)
    r = p.check_degree
    keys, hs = _area_batch(p)
    eps, w, off = keyed_rows_with_value(keys, H, hs)
    padded = series._padded_batch(eps, w, off[1:] - off[:-1])
    rhos = (Polynomial.monomial(r), Polynomial.monomial(r - 1), p.area_poly)
    for tag in (H, B):
        got = series.phi_of_polys_columns(tag, rhos, (eps, w, off), 1e-10)
        want = _atom_only_pass(tag, rhos, padded, 1e-10, series.DEFAULT_TERM_CAP)
        assert all(_same_columns(g, v) for g, v in zip(got, want, strict=True))


def test_atom_only_lanes_are_the_atom_only_engine_bit_for_bit():
    # every lane the split does not take, alone and next to split lanes
    for tag in (H, B):
        chans = _sweep_batch(tag) + [CAPPED] + _batch_rows()
        padded = series._padded_batch(*series._channel_rows(chans))
        for rho in DEFAULT_SWEEP_RHOS + BATCH_RHOS + (Polynomial.monomial(7),):
            plain = np.array([_slow_points(a, rho.terms) is None for a in chans])
            assert plain.any() and plain.all() == (rho.degree > series._SLOW_MAX_DEGREE)
            want = _atom_only_pass(tag, (rho,), padded, 1e-11, series.DEFAULT_TERM_CAP)[0]
            for got in (series.phi_of_poly_columns(tag, rho, chans, 1e-11),
                        series.phi_of_poly_columns(tag, rho, [a for a, p in zip(chans, plain) if p],
                                                   1e-11)):
                mine = plain if got.value.size == plain.size else slice(None)
                for g, v in zip(got, want):
                    assert g[mine].tobytes() == v[plain].tobytes()


def test_atom_only_batches_take_no_split_work(monkeypatch):
    # the area margins' degrees, and sweep rows without a slow point
    slows = []
    real = series._loop
    monkeypatch.setattr(series, "_slow_sums", lambda *args: pytest.fail("summed slow points"))
    monkeypatch.setattr(series, "_loop", lambda *args: slows.append(args[8]) or real(*args))
    p = EnsembleParams(20, 40)
    keys, hs = _area_batch(p)
    series.phi_of_polys_columns(H, (Polynomial.monomial(40), Polynomial.monomial(39)),
                                keyed_rows_with_value(keys, H, hs), 1e-10)
    rho = Polynomial.monomial(2)
    chans = [a for a in _sweep_batch(H) if _slow_points(a, rho.terms) is None]
    series.phi_of_poly_columns(H, rho, chans, 1e-11)
    assert slows == [None, None]


def test_batch_empty_and_validation():
    rho = Polynomial.monomial(2)
    assert phi_of_poly_batch(H, rho, []) == []
    assert phi_of_poly_batch(B, rho, [bec(0.5)]) == [
        _phi_terms(B, bec(0.5), rho.terms, 1e-10, series.DEFAULT_TERM_CAP)
    ]
    with pytest.raises(ValueError):
        phi_of_poly_batch(E, rho, [bsc(0.1)])
    with pytest.raises(ValueError):
        phi_of_poly_batch(H, rho, [bsc(0.1)], tol=0.0)
    with pytest.raises(ValueError):
        phi_of_poly_batch(E, rho, [])
    with pytest.raises(ValueError):
        phi_of_poly_batch(H, rho, [], tol=-1.0)


# rho at the atoms: the engine's Python-pow columns against Polynomial.__call__
_ATOM_RHOS = (
    DEFAULT_SWEEP_RHOS
    + tuple(EnsembleParams(*e).area_poly for e in ((100, 200), (50, 100), (30, 60), (20, 40), (3, 6)))
    + tuple(Polynomial.monomial(d) for d in range(1, 201))
)
_EDGE_ATOMS = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53]


def test_rho_at_the_atoms_is_polynomial_call():
    rng = np.random.default_rng(23)
    xs = _EDGE_ATOMS + rng.random(300).tolist() + (10.0 ** rng.uniform(-320, 0, 100)).tolist()
    for rho in _ATOM_RHOS:
        for p in (rho, Polynomial(tuple(map(abs, rho.coeffs)))):  # and the bound's rho_abs
            got = series._rho_at(p.terms, xs)
            assert [v.hex() for v in got.tolist()] == [p(x).hex() for x in xs], str(p)


def test_polynomial_adds_its_terms_left_to_right():
    # 1e16 + 1 rounds back to 1e16, so a compensated sum would give 1.0
    rho = Polynomial((1e16, 1.0, -1e16))
    assert rho(1.0) == 0.0
    assert series._rho_at(rho.terms, [1.0]).tolist() == [0.0]


def test_rows_without_interior_points_are_rho_one_minus_rho_atom():
    # points only at x = 1 and x = 0: the value is rho(1) - rho(atom) after no term
    plain = [bec(0.5), bec(0.25), bec(1.0), bsc(0.0), bsc(0.5), bec(1e-17), bec(1.0 - 2.0**-53)]
    rows = plain + [bsc(0.1)] + plain[::-1]
    for tag in (H, B):
        for rho in _ATOM_RHOS[:9] + (Polynomial.monomial(200),):
            cols = series.phi_of_poly_columns(tag, rho, rows)
            for i, a in enumerate(rows):
                if i == len(plain):
                    continue
                atom = float(a.w[a.eps == 0.0].sum())
                want = SeriesValue(rho(1.0) - rho(atom), 0.0, 0, False)
                got = SeriesValue(*(c[i].item() for c in cols))
                assert got == want and got.value.hex() == want.value.hex()
            assert phi_of_poly_batch(tag, rho, rows)[: len(plain)] == [
                phi_of_poly(tag, rho, a) for a in plain
            ]


def test_batch_rows_are_the_columns_as_python_values():
    rows = [bsc(0.1), bec(0.3), CAPPED, bsc(0.0)]
    cols = series.phi_of_poly_columns(H, Polynomial.monomial(3), rows, 1e-11)
    assert cols.terms.dtype.kind == "i" and cols.capped.dtype == bool
    batch = phi_of_poly_batch(H, Polynomial.monomial(3), rows, 1e-11)
    assert [sv.capped for sv in batch] == [False, False, True, False]
    for i, sv in enumerate(batch):
        assert [type(v) for v in (sv.value, sv.error_bound, sv.terms, sv.capped)] == [
            float, float, int, bool]
        assert (sv.value, sv.error_bound, sv.terms, sv.capped) == tuple(c[i] for c in cols)
    empty = series.phi_of_poly_columns(B, Polynomial.monomial(2), [])
    assert [c.size for c in empty] == [0, 0, 0, 0]


def test_batch_rejects_a_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance must be positive, got nan"):
        phi_of_poly_batch(H, Polynomial.monomial(2), [bsc(0.1)], tol=math.nan)


@pytest.mark.parametrize("term_cap", (0, -1))
def test_batch_rejects_a_term_cap_below_one(term_cap):
    with pytest.raises(ValueError, match=f"term cap must be >= 1, got {term_cap}"):
        phi_of_poly_batch(H, Polynomial.monomial(2), [bsc(0.1)], term_cap=term_cap)
    with pytest.raises(ValueError, match="term cap must be >= 1"):
        phi_series(H, bsc(0.1), 2, 1e-10, term_cap)


def test_phi_series_takes_an_integer_power_only(monkeypatch):
    want = phi_series(H, bsc(0.1), 2, 1e-10)
    assert phi_series(H, bsc(0.1), np.int64(2), 1e-10) == want
    monkeypatch.setattr(series, "phi_of_poly_batch", lambda *args: pytest.fail("ran the series"))
    for power in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            phi_series(H, bsc(0.1), power, 1e-10)


def test_term_caps_are_integers_only(monkeypatch):
    rho = Polynomial.monomial(2)
    assert phi_of_poly_batch(H, rho, [bsc(0.1)], 1e-10, np.int64(50)) == \
        phi_of_poly_batch(H, rho, [bsc(0.1)], 1e-10, 50)
    monkeypatch.setattr(series, "_channel_rows", lambda *args: pytest.fail("ran the series"))
    for term_cap in (2.5, 100.0, "100"):
        with pytest.raises(TypeError):
            phi_of_poly_batch(H, rho, [bsc(0.1)], 1e-10, term_cap)
        with pytest.raises(TypeError):
            phi_series(H, bsc(0.1), 2, 1e-10, term_cap)


def test_complement_takes_integer_degrees_only(monkeypatch):
    want = series.complement_of_convolution(H, [(bsc(0.1), 2)])
    assert series.complement_of_convolution(H, [(bsc(0.1), np.int64(2))]) == want
    assert series.complement_of_convolution_batch([(H, [(bsc(0.1), np.int64(2))])]) == [want]
    monkeypatch.setattr(convolution, "_powers", lambda *args: pytest.fail("formed points"))
    # a float degree forms no point: 1.5 would be summed as degree 1
    for degree in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            series.complement_of_convolution(H, [(bsc(0.1), degree)])
        with pytest.raises(TypeError):
            series.complement_of_convolution_batch([(B, [(bsc(0.1), 1), (bsc(0.2), degree)])])


def test_lone_calls_are_their_row_of_a_mixed_batch():
    # a lone channel and the same channel inside any batch give one answer,
    # bit for bit: fast rows, idle rows, a slow row and a term-cap row
    rows = [CAPPED] + _batch_rows() + _split_rows()
    for tag in (H, B):
        for rho in BATCH_RHOS + (Polynomial.monomial(3),):
            batch = phi_of_poly_batch(tag, rho, rows, tol=1e-11)
            assert batch[0].capped
            power = rho.degree if rho.terms == ((rho.degree, 1.0),) else None
            for a, row in zip(rows, batch):
                assert phi_of_poly(tag, rho, a, tol=1e-11) == row
                if power is not None:
                    assert phi_series(tag, a, power, tol=1e-11) == row
    short = phi_of_poly_batch(H, BATCH_RHOS[0], rows, tol=1e-11, term_cap=5)
    assert [phi_of_poly(H, BATCH_RHOS[0], a, 1e-11, 5) for a in rows] == short
    assert [phi_series(H, a, 2, 1e-11, 5) for a in rows] == short


# ----------------------------------------------------------------------
# complements of convolutions


def _complement_loop(tag, factors):
    """complement_of_convolution point by point, the reference.  The points
    of c^[d] are one per size-d multiset of c's points, in
    combinations_with_replacement order: x the product of their x, eps
    folded by e (1 - f) + f (1 - e), and the weight the multinomial
    probability, built point by point as w * w_j * k / r (the k-th point j,
    r its multiplicity so far).  A read's points combine its factors'
    points the same way, the earlier factor's index major, and its terms
    add by np.add.reduce, numpy's pairwise sum."""
    points = [(0.0, 1.0, 1.0)]
    for i, (ch, d) in enumerate(factors):
        eps, x, w = ch.eps.tolist(), (1.0 - 2.0 * ch.eps).tolist(), ch.w.tolist()
        own = []
        for idx in itertools.combinations_with_replacement(range(len(eps)), d):
            e, px, pw = eps[idx[0]], x[idx[0]], w[idx[0]]
            for k, j in enumerate(idx[1:], 2):
                e = e * (1.0 - eps[j]) + eps[j] * (1.0 - e)
                px, pw = px * x[j], pw * w[j] * k / idx[:k].count(j)
            own.append((e, px, pw))
        points = own if i == 0 else [(e * (1.0 - f) + f * (1.0 - e), x * y, w * v)
                                     for e, x, w in points for f, y, v in own]
    eps, x, w = (np.array(v) for v in zip(*points))
    return float(np.add.reduce(w * _complement_points(tag, eps, x)))


def _complement_rows(width):
    """Rows of `width` factors: all-atom rows, atoms next to inner points,
    a point near the perfect channel (eps = 1e-4), and sampler draws of 1 to
    10 points, so rows of every point count share a batch."""
    atoms = [bec(0.3), bsc(0.0), bsc(0.5), mix(bsc(0.0), bsc(0.5), 0.25)]
    rows = [tuple(atoms[(i + j) % 4] for j in range(width)) for i in range(4)]
    rows.append(tuple([bec(0.4), bsc(0.2), bsc(0.5)][:width] + [bsc(0.1)] * (width - 3)))
    rows.append((bsc(1e-4),) + (bsc(0.3),) * (width - 1))
    for t in range(30):
        rng = trial_rng(61, width, t)
        draws = [random_channel(rng) for _ in range(width)]
        if t % 3 == 0:  # mixtures reach 10 points
            draws[0] = mix(draws[0], random_channel(rng), float(rng.random()))
        rows.append(tuple(draws))
    return rows


def _reads(tag, degrees, rows):
    """complement_of_convolution_batch reads: each row's channels at degrees."""
    return [(tag, list(zip(row, degrees))) for row in rows]


def _assert_complements_match_loop(tag, degrees, rows):
    got = series.complement_of_convolution_batch(_reads(tag, degrees, rows))
    assert len(got) == len(rows)
    for row, value in zip(rows, got):
        assert value.hex() == _complement_loop(tag, list(zip(row, degrees))).hex()
        # the batch value is the one-row value, bit for bit
        assert value == series.complement_of_convolution(tag, list(zip(row, degrees)))


COMPLEMENT_DEGREES = ((1,), (2,), (6,), (1, 1), (2, 1), (3, 1, 2))


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("degrees", COMPLEMENT_DEGREES, ids=str)
def test_complement_batch_matches_scalar_loop(tag, degrees):
    _assert_complements_match_loop(tag, degrees, _complement_rows(len(degrees)))


def test_complement_batch_all_atom_rows_are_their_floor():
    got = series.complement_of_convolution_batch(_reads(H, (1, 2), _complement_rows(2)[:4]))
    assert got == [0.7 * 1.0**2, 1.0 * 0.0**2, 0.0 * 0.25**2, 0.25 * 0.7**2]
    # at any degrees, a read of atoms at eps = 0 and 1/2 only is the product
    # of each factor's atom^d (the mass at 0), to a few ulps
    atoms = [bec(0.3), bsc(0.0), bsc(0.5), mix(bsc(0.0), bsc(0.5), 0.25), bec(0.1 / 3)]
    atom = lambda a: float(a.w[a.eps == 0.0].sum())
    for tag in (H, B):
        for degrees in ((1,), (2,), (6,), (1, 1), (3, 1, 2)):
            rows = list(itertools.product(atoms, repeat=len(degrees)))
            got = series.complement_of_convolution_batch(_reads(tag, degrees, rows))
            for row, value in zip(rows, got):
                want = math.prod(atom(a) ** d for a, d in zip(row, degrees))
                assert abs(value - want) <= 4 * 2.0**-52 * want


# Single factors at every degree the catalog's code 10 draws, next to the
# sets above.
MIXED_DEGREES = tuple(dict.fromkeys(COMPLEMENT_DEGREES + tuple((d,) for d in range(2, 7))))


def _mixed_reads(degree_sets):
    """H and B rows of 1-3 factors at every degree tuple of degree_sets,
    shuffled into one batch."""
    reads = [(tag, list(zip(row, degrees))) for degrees in degree_sets
             for row in _complement_rows(len(degrees)) for tag in (H, B)]
    return [reads[i] for i in np.random.default_rng(5).permutation(len(reads))]


def test_mixed_complement_batch_is_each_rows_lone_call():
    reads = _mixed_reads(MIXED_DEGREES)
    assert {len(factors) for _, factors in reads} == {1, 2, 3}
    got = series.complement_of_convolution_batch(reads)
    assert len(got) == len(reads)
    for (tag, factors), value in zip(reads, got):
        assert value.hex() == series.complement_of_convolution(tag, factors).hex()


def test_complement_pads_bare_rows_next_to_wide_rows():
    # in each factor, rows with no inner point (all atoms) share a batch with rows
    # of 1-10 inner points, and rows live in one factor only
    wide = [channel(zip(0.05 + 0.04 * np.arange(m), np.full(m, 1.0 / m))) for m in (1, 4, 10)]
    bare = [bec(0.3), bsc(0.0), bsc(0.5)]
    rows = [(x, y) for x in bare + wide for y in bare + wide]
    assert max(a.size for r in rows for a in r) == 10
    for tag in (H, B):
        for degrees in ((1, 1), (2, 3)):
            _assert_complements_match_loop(tag, degrees, rows)
            got = series.complement_of_convolution_batch(_reads(tag, degrees, rows))
            for (x, y), value in zip(rows, got):
                if x in bare and y in bare:
                    atom = lambda a: float(a.w[a.eps == 0.0].sum())
                    assert value == atom(x) ** degrees[0] * atom(y) ** degrees[1]


def test_complement_batch_empty_and_validation():
    assert series.complement_of_convolution_batch([]) == []
    with pytest.raises(ValueError):
        series.complement_of_convolution_batch([(E, [(bsc(0.1), 1)])])
    with pytest.raises(ValueError):
        series.complement_of_convolution_batch([(H, [(bsc(0.1), 0)])])
    with pytest.raises(ValueError):
        series.complement_of_convolution_batch([(H, [(bsc(0.1),)])])  # a factor with no degree
    with pytest.raises(ValueError):
        series.complement_of_convolution(H, [(bsc(0.1), 0)])


def test_support_cap_raises_before_any_point_is_formed(monkeypatch):
    ten = channel(zip((0.01 * np.arange(1, 11)).tolist(), [0.1] * 10))
    assert math.comb(10 + 6 - 1, 6) == 5005 <= DEFAULT_SUPPORT_CAP < 5005**2
    fine = series.complement_of_convolution(H, [(ten, 6)])
    assert 0.0 < fine < 1.0
    monkeypatch.setattr(convolution, "_powers", lambda *args: pytest.fail("formed points"))
    for reads in ([(H, [(ten, 6), (ten, 6)])],
                  [(B, [(ten, 6)]), (H, [(ten, 20)])],
                  [(B, [(bsc(0.1), 1)]), (H, [(ten, 3), (ten, 3), (ten, 2)])]):
        with pytest.raises(SupportCapError):
            series.complement_of_convolution_batch(reads)


# ----------------------------------------------------------------------
# polynomials


def test_polynomial_basics():
    rho = Polynomial((0.0, 0.0, 1.0))
    assert rho.degree == 3
    assert rho(0.5) == pytest.approx(0.125)
    assert rho.terms == ((3, 1.0),)
    with pytest.raises(ValueError):
        Polynomial(())
    with pytest.raises(ValueError):
        Polynomial((0.0, 0.0))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Polynomial((1.0, bad))


def test_polynomial_parsing():
    rho = poly_from_string("x^5 - 0.75*x^6")
    assert rho.coeffs == (0.0, 0.0, 0.0, 0.0, 1.0, -0.75)
    assert poly_from_string("x").coeffs == (1.0,)
    assert poly_from_string("2x^2 + x").coeffs == (1.0, 2.0)
    assert poly_from_string("-x^3").coeffs == (0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        poly_from_string("1 + x")
    with pytest.raises(ValueError):
        poly_from_string("x^0")
    with pytest.raises(ValueError):
        poly_from_string("")


def test_polynomial_text_keeps_every_digit():
    rho = Polynomial((1 / 3, 2 / 3))
    assert str(rho) == "0.3333333333333333*x + 0.6666666666666666*x^2"
    assert poly_from_string(str(rho)) == rho
    # the short form stays wherever it reads back exactly
    assert [str(r) for r in DEFAULT_SWEEP_RHOS] == ["x^2", "x^3", "x^6", "x^5 - 0.75*x^6"]
    assert str(Polynomial((-0.5, 0.0, 1e-7))) == "-0.5*x + 1e-07*x^3"
    assert str(Polynomial((123456789.0,))) == "123456789.0*x"
    assert str(Polynomial((1e6, -1.0))) == "1e+06*x - x^2"


def test_polynomial_parsing_signed_exponents():
    assert poly_from_string("1e-7*x^2").coeffs == (0.0, 1e-7)
    assert poly_from_string("1e-07*x^2") == Polynomial((0.0, 1e-7))
    assert poly_from_string("x^5-7.5e-1*x^6") == DEFAULT_SWEEP_RHOS[3]
    assert poly_from_string("2.5E+2x").coeffs == (250.0,)
    assert poly_from_string("x - 2e+1x^2 + .5e-1x^3").coeffs == (1.0, -20.0, 0.05)
    for bad in ("2e+x", "e5x", "1e-7", "x^2e-1", "1e-7x^-2"):
        with pytest.raises(ValueError):
            poly_from_string(bad)


if st is not None:
    _COEFF = st.one_of(
        st.just(0.0), st.just(1.0), st.just(-1.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1.0, 1.0).map(lambda c: c / 3.0),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_COEFF, min_size=1, max_size=8).filter(any))
    def test_polynomial_text_round_trips(coeffs):
        rho = Polynomial(tuple(coeffs))
        assert poly_from_string(str(rho)) == rho
else:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_polynomial_text_round_trips():
        pass


def test_monomials_are_increasing_and_convex():
    for d in (1, 2, 3, 6, 10):
        rho = Polynomial.monomial(d)
        assert poly_increasing_on(rho, 1.0)
        if d >= 2:
            assert poly_convex_on(rho, 1.0)


def test_increasing_range_of_sparse_pair():
    rho = poly_from_string("x^5 - 0.75*x^6")
    # rho' = x^4 (5 - 4.5 x) >= 0 up to 10/9, so increasing on all of [0,1]
    assert poly_increasing_on(rho, 1.0)


def test_convexity_threshold_of_sparse_pair():
    rho = poly_from_string("x^5 - 0.75*x^6")
    # rho'' = x^3 (20 - 22.5 x): nonnegative exactly up to 8/9
    threshold = (6 - 2) / (0.75 * 6)
    assert poly_convex_on(rho, threshold - 1e-6)
    assert not poly_convex_on(rho, threshold + 1e-3)


def test_decreasing_polynomial_detected():
    assert not poly_increasing_on(Polynomial((-1.0,)), 1.0)
    assert not poly_convex_on(Polynomial((0.0, 0.0, -1.0)), 0.5)


def test_interval_validation():
    with pytest.raises(ValueError):
        poly_increasing_on(Polynomial((1.0,)), 1.5)
    for x in (-5e-324, 1.0000000000000002, math.nan, math.inf):
        for _ in range(2):  # checked before the cached isolation, every call
            with pytest.raises(ValueError):
                poly_convex_on(Polynomial.monomial(3), x)


# ----------------------------------------------------------------------
# hypothesis gates: certified against the grid gate they replaced and
# against sympy's exact real roots


# The grid gate the certified one replaced, kept verbatim as an oracle.
_SIGN_GRID = 4097
_ROOT_REFINE_TOL = 1e-12


def _grid_roots_on(coeffs: np.ndarray, lo: float, hi: float) -> list[float]:
    """Real roots of the ascending-coefficient polynomial inside [lo, hi].

    Sign-change isolation on a dense grid, refined by bisection; roots of
    even multiplicity without a sign change are invisible here, which the
    callers compensate for by also scanning grid values directly.
    """
    if hi <= lo or not np.any(coeffs[1:]):
        return []
    grid = np.linspace(lo, hi, _SIGN_GRID)
    vals = npoly.polyval(grid, coeffs)
    roots = grid[vals == 0.0].tolist()
    idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    for i in idx:
        a, b = float(grid[i]), float(grid[i + 1])
        fa = float(npoly.polyval(a, coeffs))
        while b - a > _ROOT_REFINE_TOL:
            m = 0.5 * (a + b)
            fm = float(npoly.polyval(m, coeffs))
            if fm == 0.0:
                a = b = m
                break
            if (fa < 0.0) == (fm < 0.0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return roots


def _grid_nonneg_on(coeffs: np.ndarray, x_max: float, tol: float = 1e-12) -> bool:
    """Whether the polynomial stays >= -tol on [0, x_max].

    Checks a dense grid (endpoints included) plus the refined roots of the
    derivative, where interior minima live.
    """
    grid = np.linspace(0.0, x_max, _SIGN_GRID)
    if float(npoly.polyval(grid, coeffs).min()) < -tol:
        return False
    deriv = npoly.polyder(coeffs) if len(coeffs) > 1 else np.zeros(1)
    for r in _grid_roots_on(deriv, 0.0, x_max):
        if float(npoly.polyval(r, coeffs)) < -tol:
            return False
    return True


def _grid_gate(rho: Polynomial, order: int, x_max: float) -> bool:
    return _grid_nonneg_on(npoly.polyder(rho.as_array(), order), x_max)


def test_gates_match_the_grid_gate_on_every_sweep_cell():
    cells = 0
    for rho in DEFAULT_SWEEP_RHOS:
        for tag in SERIES_TAGS:
            for level in DEFAULT_SWEEP_LEVELS:
                reach = kernel_inv(tag, level) ** 2
                upper = convexity_upper_bound(tag, rho, level)
                lower = monotone_lower_bound(tag, rho, level)
                assert upper.hypothesis_ok == _grid_gate(rho, 2, reach)
                assert lower.hypothesis_ok == _grid_gate(rho, 1, reach)
                cells += 2
            for eps in DEFAULT_ERROR_LEVELS:
                low, high = fixed_error_extremes(tag, rho, eps)
                assert low.hypothesis_ok == high.hypothesis_ok == _grid_gate(rho, 1, 1.0 - 2.0 * eps)
                cells += 1
    assert cells == 4 * 2 * (2 * 9 + 9)


def test_gates_match_the_grid_gate_on_area_polynomials():
    for l, r in ((3, 6), (5, 10), (50, 100)):
        rho = EnsembleParams(l, r).area_poly
        for k in range(0, 101, 5):
            q = (1.0 - 2.0 * h2_inv(k / 100)) ** 2
            assert poly_increasing_on(rho, q) == _grid_gate(rho, 1, q)
            assert poly_convex_on(rho, q) == _grid_gate(rho, 2, q)


def test_gate_finds_exact_dyadic_roots():
    # rho' = 3 (x - 1/4)(x - 1/2) vanishes exactly at two dyadic points
    rho = Polynomial((0.375, -1.125, 1.0))
    p = [3, -18, 24]  # 8 rho', in integers
    assert series._sign_at(p, 0.25) == series._sign_at(p, 0.5) == 0
    chain = series._sturm_chain(series._odd_part(p))
    assert series._variations(chain, 0.0) - series._variations(chain, 1.0) == 2
    assert series._nonneg_reach(rho, 1) == 0.25
    assert poly_increasing_on(rho, 0.25)
    assert not poly_increasing_on(rho, math.nextafter(0.25, 1.0))
    assert not poly_increasing_on(rho, 1.0)  # rho' >= 0 again past 1/2


def test_gate_isolates_once_per_polynomial_and_order():
    series._nonneg_reach.cache_clear()
    upper_bound_sweep(0, per_cell=1)
    cells = len(DEFAULT_SWEEP_RHOS) * len(SERIES_TAGS) * len(DEFAULT_SWEEP_LEVELS)
    info = series._nonneg_reach.cache_info()
    assert (info.misses, info.hits) == (len(DEFAULT_SWEEP_RHOS), cells - len(DEFAULT_SWEEP_RHOS))
    lower_bound_sweep(0, per_cell=1)
    info = series._nonneg_reach.cache_info()
    assert (info.misses, info.hits) == (2 * len(DEFAULT_SWEEP_RHOS), 2 * (cells - len(DEFAULT_SWEEP_RHOS)))


def _rho_from_derivative(p: Sequence[Fraction], order: int, linear: Fraction) -> Polynomial | None:
    """The rho with rho^(order) = c p for a positive c making every
    coefficient a float exactly; `linear` is rho's x coefficient when
    order is 2.  Returns None when no float polynomial represents it."""
    coeffs = [Fraction(0)] * (order - 1) + [Fraction(c) * math.factorial(j) / math.factorial(j + order)
                                           for j, c in enumerate(p)]
    if order == 2:
        coeffs[0] = linear
    odd = math.lcm(*(c.denominator >> (c.denominator & -c.denominator).bit_length() - 1 for c in coeffs))
    coeffs = [c * odd for c in coeffs]
    if any(Fraction(float(c)) != c for c in coeffs):
        return None
    return Polynomial(tuple(float(c) for c in coeffs))


def _derivative_of(rho: Polynomial, order: int) -> list[Fraction]:
    p = [Fraction(0)] + [Fraction(c) for c in rho.coeffs]
    for _ in range(order):
        p = [k * c for k, c in enumerate(p)][1:]
    return p


def _sympy_real_roots(p: Sequence[Fraction]) -> list:
    """sympy's exact real roots of p, repeated by multiplicity."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
    return sympy.real_roots(sympy.Poly(coeffs, sympy.Symbol("x"))) if any(p) else []


def _sympy_nonneg_on(p: Sequence[Fraction], roots: list, x_max: float) -> bool:
    """Whether p >= 0 on [0, x_max], from p's exact real roots.

    Between its distinct real roots, p has the sign of its leading
    coefficient times (-1)^(number of real roots above, with multiplicity).
    """
    if not any(p):
        return True
    if x_max == 0.0:
        return p[0] >= 0
    lead = next(c for c in reversed(p) if c)
    x_max = sympy.Rational(*x_max.as_integer_ratio())
    # the sign just above 0, then just above each distinct root in (0, x_max)
    cuts = [sympy.Integer(0)] + [r for r in set(roots) if 0 < r < x_max]
    return all((lead > 0) == (sum(1 for r in roots if r > cut) % 2 == 0) for cut in cuts)


def _gate(rho: Polynomial, order: int, x_max: float) -> bool:
    return (poly_increasing_on if order == 1 else poly_convex_on)(rho, x_max)


def _assert_gate_matches_sympy(rho: Polynomial, order: int, extra: Sequence[float] = ()) -> None:
    """Compare the gate with sympy at 0, 1, `extra`, and every real root of
    rho^(order) in [0, 1] with its two float neighbours."""
    p = _derivative_of(rho, order)
    roots = _sympy_real_roots(p)
    probes = {0.0, 1.0, *extra}
    for r in roots:
        f = float(r.evalf(30))
        probes |= {f, math.nextafter(f, 0.0), math.nextafter(f, 2.0)}
    for x_max in sorted(x for x in probes if 0.0 <= x <= 1.0):
        assert _gate(rho, order, x_max) == _sympy_nonneg_on(p, roots, x_max), (rho, order, x_max)


@pytest.mark.parametrize(
    "coeffs, order, root",
    [
        ((0.0, 0.0, 6.0, -4.0), 2, Fraction(3, 4)),  # rho'' = 12x(3 - 4x): a root on a bisection point
        ((0.0,) * 8 + (1.0, -0.875), 2, Fraction(72) / Fraction(78.75)),  # rho'' = 72x^7 - 78.75x^8
        ((0.0, 0.0, 0.0, 0.0, 1.0, -0.75), 2, Fraction(8, 9)),  # rho'' = x^3 (20 - 22.5x)
        ((0.75, -1.5, 1.0), 1, None),  # rho' = 3 (x - 1/2)^2: a double root, no sign change
        ((0.0, 0.75, -1.0, 0.5), 2, None),  # rho'' = 6 (x - 1/2)^2
        ((0.0,) * 11 + (1.0, -1.0), 1, Fraction(12, 13)),  # rho' = x^11 (12 - 13x): root 0 of multiplicity 11
        ((0.0, 0.0, -1.0), 2, Fraction(0)),  # rho'' = -6x: negative right past its root at 0
        ((0.0, -0.5, 1.0), 1, Fraction(0)),  # rho' = 3x (x - 1/3): a root at 0, then negative
        ((-1.0, 1.0), 1, Fraction(-1)),  # rho' = 2x - 1: negative at 0 itself
        ((0.0, 3.0, -1.0), 2, None),  # rho'' = 6 (1 - x): its root is exactly 1
        ((1.0,), 2, None),  # rho'' = 0
    ],
)
def test_gate_reach_on_known_roots(coeffs, order, root):
    # the reach is the largest float at or below the first sign change,
    # 1.0 when there is none in [0, 1) and -1.0 when negative at 0
    rho = Polynomial(coeffs)
    reach = 1.0 if root is None else float(root)
    if root is not None and Fraction(reach) > root:
        reach = math.nextafter(reach, -1.0)
    assert series._nonneg_reach(rho, order) == reach
    for x_max in (0.0, reach, math.nextafter(reach, -1.0), math.nextafter(reach, 2.0), 1.0):
        if 0.0 <= x_max <= 1.0:
            assert _gate(rho, order, x_max) == (x_max <= reach)
    if sympy is not None:
        _assert_gate_matches_sympy(rho, order)


if st is not None and sympy is not None:
    _DYADIC_ROOT = st.one_of(
        st.sampled_from([0.25, 0.5, 0.75, 0.375, 0.625, 0.875, 1.0]),
        st.integers(-8, 24).map(lambda j: Fraction(j, 16)),
        st.integers(1, 2**20 - 1).map(lambda j: Fraction(j, 2**20)),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        order=st.sampled_from((1, 2)),
        zero_mult=st.integers(0, 9),
        roots=st.lists(st.tuples(_DYADIC_ROOT.map(Fraction), st.integers(1, 3)), max_size=4),
        quadratic=st.one_of(st.none(), st.tuples(_DYADIC_ROOT.map(Fraction), st.integers(1, 64))),
        sign=st.sampled_from((1, -1)),
        linear=st.integers(-4, 4).map(lambda j: Fraction(j, 4)),
        probes=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    def test_gate_matches_sympy_property(order, zero_mult, roots, quadratic, sign, linear, probes):
        p = [Fraction(0)] * zero_mult + [Fraction(sign)]
        factors = [[-r, Fraction(1)] for r, mult in roots for _ in range(mult)]
        if quadratic is not None:  # (x - a)^2 + 1/b: no real root
            a, b = quadratic
            factors.append([a * a + Fraction(1, b), -2 * a, Fraction(1)])
        for f in factors:
            p = [sum(p[i] * f[k - i] for i in range(len(p)) if 0 <= k - i < len(f))
                 for k in range(len(p) + len(f) - 1)]
        rho = _rho_from_derivative(p, order, linear)
        assume(rho is not None)
        series._nonneg_reach.cache_clear()  # isolate each polynomial afresh
        _assert_gate_matches_sympy(rho, order, probes)
else:
    @pytest.mark.skip(reason="hypothesis or sympy is not installed")
    def test_gate_matches_sympy_property():
        pass
