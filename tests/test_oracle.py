"""A 50-digit oracle for the float paths, from explicit convolution in mpmath.

The x = 1 - 2*eps values of a check-node convolution are the products of
its factors' x values, weighted by the products of their weights, so Phi
and 1 - Phi of a convolution are explicit finite sums that mpmath evaluates
far beyond double precision.  Supports stay at 5 points or fewer, the
complements' degrees at 4 or less and Phi's at 6 or less, Phi summed over
multisets, so every sum has at most a few hundred terms.
"""

import itertools
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from eicomb import series
from eicomb.bounds import DEFAULT_SWEEP_RHOS, SWEEP_PHI_TOL, trial_rng
from eicomb.channel import bsc, channel
from eicomb.convolution import check_power, phi_of_poly_convolved_batch
from eicomb.functionals import Functional, evaluate, h2

H, B = Functional.H, Functional.B

DIGITS = 50
DEGREES = ((1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1))
# Every row holds to this many units in the last place of 1.0 (2^-52)
# relative to the exact value: each term of the exact point sum is within a
# few ulps, and every term is nonnegative.
ULPS = 8
REL_BOUND = ULPS * 2.0**-52


def _one_minus_kernel(tag, x):
    """1 - f_Phi(x) in mpmath: 1 - h2((1 - x)/2) for H, 1 - sqrt(1 - x^2) for
    B, with 2 extra bits for each bit x lies below 1, so the cancellation of
    a value ~ x^2 leaves DIGITS digits."""
    if x == 0:
        return mpmath.mpf(0)
    with mpmath.workprec(mpmath.mp.prec + 2 * max(0, -int(mpmath.mag(x)))):
        if tag is B:
            return +(1 - mpmath.sqrt(1 - x * x))
        p = (1 - x) / 2
        if p == 0:
            return mpmath.mpf(1)
        return +(1 + p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))


def _exact_complement(tag, factors):
    """1 - Phi of the convolution of each channel^[d] of factors, at 50 digits."""
    with mpmath.workdps(DIGITS):
        points = [(mpmath.mpf(1), mpmath.mpf(1))]
        for ch, d in factors:
            xs = [(1 - 2 * mpmath.mpf(e), mpmath.mpf(w))
                  for e, w in zip(ch.eps.tolist(), ch.w.tolist())]
            for _ in range(d):
                points = [(x * u, w * v) for x, w in points for u, v in xs]
        return mpmath.fsum(w * _one_minus_kernel(tag, x) for x, w in points)


def _random_channel(rng):
    """1-5 points, eps log-uniform on [1e-3, 1/2] with atoms at 0 and 1/2
    now and then, weights from normalized exponentials."""
    m = int(rng.integers(1, 6))
    eps = 10.0 ** rng.uniform(-3.0, np.log10(0.5), m)
    atoms = rng.random(m)
    eps[atoms < 0.1] = 0.0
    eps[atoms > 0.9] = 0.5
    w = rng.standard_exponential(m)
    return channel(zip(eps.tolist(), (w / w.sum()).tolist()))


def _log_channel(rng, floor=1e-15):
    """1-5 points, each at eps log-uniform on [floor, 1/2] or, with even odds,
    near the useless channel at 1/2 - delta, delta log-uniform on
    [floor, 1/2]; weights from normalized exponentials."""
    m = int(rng.integers(1, 6))
    eps = 10.0 ** rng.uniform(np.log10(floor), np.log10(0.5), m)
    useless = rng.random(m) < 0.5
    eps[useless] = 0.5 - eps[useless]
    w = rng.standard_exponential(m)
    return channel(zip(eps.tolist(), (w / w.sum()).tolist()))


def _rows(width, seed, count=16, law=_random_channel):
    rows = []
    for t in range(count):
        rng = trial_rng(seed, width, t)
        rows.append(tuple(law(rng) for _ in range(width)))
    return rows


def _relative_error(tag, degrees, row, value):
    exact = _exact_complement(tag, list(zip(row, degrees)))
    with mpmath.workdps(DIGITS):
        if exact == 0:
            return abs(mpmath.mpf(value))
        return abs((mpmath.mpf(value) - exact) / exact)


def _assert_rows_match(tag, degrees, rows):
    got = series.complement_of_convolution_batch(
        [(tag, list(zip(row, degrees))) for row in rows])
    for row, value in zip(rows, got):
        assert _relative_error(tag, degrees, row, value) <= REL_BOUND, row


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("degrees", DEGREES, ids=str)
def test_complement_matches_explicit_convolution(tag, degrees):
    rows = _rows(len(degrees), 2024)
    assert any(ch.eps.min() < 1e-2 for row in rows for ch in row)
    _assert_rows_match(tag, degrees, rows)


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("degrees", DEGREES, ids=str)
def test_complement_of_log_law_rows_matches_explicit_convolution(tag, degrees):
    rows = _rows(len(degrees), 2026, law=_log_channel)
    points = np.concatenate([ch.eps for row in rows for ch in row])
    assert points.min() < 1e-12 and 0.5 - points.max() < 1e-12
    _assert_rows_match(tag, degrees, rows)


# Points at eps <= 1e-8 make y = (1 - 2 eps)^2 so close to 1 that a moment
# series needs far more than 10^6 terms; the exact point sum has no series.
SLOW_ROWS = (
    ((1,), (bsc(1e-8),)),
    ((2,), (bsc(1e-8),)),
    ((1, 1), (bsc(1e-9), bsc(1e-9))),
    ((1,), (channel([(1e-10, 0.3), (0.2, 0.7)]),)),
)


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("degrees, row", SLOW_ROWS, ids=str)
def test_complement_of_slow_points_matches_explicit_convolution(tag, degrees, row):
    _assert_rows_match(tag, degrees, [row])


# ----------------------------------------------------------------------
# Phi(a^[d]): phi_of_poly_convolved and check_power


def _exact_phi(tag, rho, ch):
    """Phi(rho(ch)) = sum_k c_k Phi(ch^[k]) at 50 digits, over the size-k
    multisets of ch's points with their multinomial weights: each product
    point's eps = (1 - x) / 2 is well conditioned, and so are h2(eps) and
    2 sqrt(eps (1 - eps))."""
    with mpmath.workdps(DIGITS):
        xs = [1 - 2 * mpmath.mpf(e) for e in ch.eps.tolist()]
        ws = [mpmath.mpf(w) for w in ch.w.tolist()]
        total = []
        for k, c in rho.terms:
            for idx in itertools.combinations_with_replacement(range(len(xs)), k):
                weight = math.factorial(k)
                for j in set(idx):
                    weight //= math.factorial(idx.count(j))
                x, w = mpmath.mpf(1), mpmath.mpf(c) * weight
                for j in idx:
                    x, w = x * xs[j], w * ws[j]
                e = (1 - x) / 2
                if tag is B:
                    total.append(w * 2 * mpmath.sqrt(e * (1 - e)))
                elif e > 0:
                    total.append(-w * (e * mpmath.log(e, 2) + (1 - e) * mpmath.log(1 - e, 2)))
        return mpmath.fsum(total)


# h2 rounds 1 - x before its log (ROADMAP item 10), an absolute error of
# about 2^-52 per point, so H holds only where that is small relative to the
# value: at eps >= 1e-6 the value is at least h2(1e-6) ~ 2.1e-5, which gives
# this bound.  B has no such term and holds to REL_BOUND down to 1e-15.
H_FLOOR = 1e-6
POWER_LAWS = {B: (1e-15, REL_BOUND), H: (H_FLOOR, 2.0**-52 / h2(H_FLOOR))}


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("d", (2, 3, 4))
def test_power_of_log_law_rows_matches_explicit_convolution(tag, d):
    floor, bound = POWER_LAWS[tag]
    rows = [_log_channel(trial_rng(2027, d, t), floor) for t in range(16)]
    points = np.concatenate([ch.eps for ch in rows])
    assert points.min() < 1e3 * floor and 0.5 - points.max() < 1e3 * floor
    values = phi_of_poly_convolved_batch(tag, series.Polynomial.monomial(d), rows)
    for ch, value in zip(rows, values):
        exact = _exact_phi(tag, series.Polynomial.monomial(d), ch)
        with mpmath.workdps(DIGITS):
            for got in (value, evaluate(tag, check_power(ch, d))):
                assert abs((mpmath.mpf(got) - exact) / exact) <= bound, (ch, got)


# ----------------------------------------------------------------------
# Phi(rho(a)) by the moment series, its slow points summed exactly


def _assert_within_bound(tag, rho, ch, sv, ulps):
    """sv is not capped and lies within its bound plus ulps units in the last
    place of 1.0 of the exact value: rho(1) - E cancels, so its rounding is
    absolute."""
    assert not sv.capped, ch
    exact = _exact_phi(tag, rho, ch)
    with mpmath.workdps(DIGITS):
        assert abs(mpmath.mpf(sv.value) - exact) <= sv.error_bound + ulps * 2.0**-52, (ch, sv)


def test_series_sums_a_near_perfect_point_exactly():
    # the atom-only series stopped here at its 10^5-term cap, bound 1.36e-7
    a = channel([(1e-6, 0.5), (0.3, 0.5)])
    sv = series.phi_series(H, a, 3, 1e-11)
    assert sv.terms < 64
    _assert_within_bound(H, series.Polynomial.monomial(3), a, sv, 4)


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("rho", DEFAULT_SWEEP_RHOS, ids=str)
def test_series_of_log_law_rows_matches_explicit_convolution(tag, rho):
    # no row is capped, and each value holds to its bound plus 8 ulps; H at
    # points down to H_FLOOR only, where h2's rounding stays small (item 10)
    floor = POWER_LAWS[tag][0]
    rows = [_log_channel(trial_rng(2028, rho.degree, t), floor) for t in range(16)]
    points = np.concatenate([ch.eps for ch in rows])
    assert points.min() < 1e3 * floor and 0.5 - points.max() < 1e3 * floor
    for ch, sv in zip(rows, series.phi_of_poly_batch(tag, rho, rows, SWEEP_PHI_TOL)):
        _assert_within_bound(tag, rho, ch, sv, ULPS)
