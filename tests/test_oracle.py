"""A 50-digit oracle for the float paths, from explicit convolution in mpmath.

The x = 1 - 2*eps values of a check-node convolution are the products of
its factors' x values, weighted by the products of their weights, so
1 - Phi of a convolution is an explicit finite sum that mpmath evaluates
far beyond double precision.  Supports stay at 5 points or fewer and
degrees at 3 or less, so every sum has at most a few hundred terms.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from eicomb import series
from eicomb.bounds import trial_rng
from eicomb.channel import bsc, channel
from eicomb.functionals import Functional

H, B = Functional.H, Functional.B

DIGITS = 50
REL_TOL = 1e-14
DEGREES = ((1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1))


def _one_minus_kernel(tag, x):
    """1 - f_Phi(x) in mpmath: 1 - h2((1 - x)/2) for H, 1 - sqrt(1 - x^2) for B."""
    if tag is B:
        return 1 - mpmath.sqrt(1 - x * x)
    p = (1 - x) / 2
    if p == 0:
        return mpmath.mpf(1)
    return 1 + p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2)


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


def _rows(width, seed, count=16):
    rows = []
    for t in range(count):
        rng = trial_rng(seed, width, t)
        rows.append(tuple(_random_channel(rng) for _ in range(width)))
    return rows


def _relative_error(tag, degrees, row, value):
    exact = _exact_complement(tag, list(zip(row, degrees)))
    with mpmath.workdps(DIGITS):
        if exact == 0:
            return abs(mpmath.mpf(value))
        return abs((mpmath.mpf(value) - exact) / exact)


@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("degrees", DEGREES, ids=str)
def test_complement_matches_explicit_convolution(tag, degrees):
    rows = _rows(len(degrees), 2024)
    assert any(ch.eps.min() < 1e-2 for row in rows for ch in row)
    got = series.complement_of_convolution_batch(
        [(tag, list(zip(row, degrees))) for row in rows], rel_tol=REL_TOL)
    for row, value in zip(rows, got):
        assert _relative_error(tag, degrees, row, value) <= 10 * REL_TOL, row


# A point at eps <= 1e-8 makes y = (1 - 2 eps)^2 so close to 1 that the
# series needs far more than its 10^6-term cap, and the capped partial sum
# comes back with no flag (ROADMAP item 1).
SLOW_ROWS = (
    ((1,), (bsc(1e-8),)),
    ((2,), (bsc(1e-8),)),
    ((1, 1), (bsc(1e-9), bsc(1e-9))),
    ((1,), (channel([(1e-10, 0.3), (0.2, 0.7)]),)),
)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: points at eps <= 1e-8 "
                   "outrun the complement series' term cap")
@pytest.mark.parametrize("tag", (H, B))
@pytest.mark.parametrize("degrees, row", SLOW_ROWS, ids=str)
def test_complement_of_slow_points_matches_explicit_convolution(tag, degrees, row):
    value = series.complement_of_convolution_batch(
        [(tag, list(zip(row, degrees)))], rel_tol=REL_TOL)[0]
    assert _relative_error(tag, degrees, row, value) <= 10 * REL_TOL
