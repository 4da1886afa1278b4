"""Area margin of regular LDPC ensembles under check-node combining.

For a (var_degree, check_degree) = (l, r) regular ensemble and a channel a
of entropy h, the area expression

    A(a, h) = -h - (l - 1 - l/r) H(a^[r]) + (l - 1) H(a^[r-1])

collapses, through kappa = (l - 1 - l/r)/(l - 1) and the sparse polynomial
rho(X) = X^(r-1) - kappa X^r, to  A = -h + (l - 1) H(rho(a)).  The
monotone lower bound on H(rho(a)) then yields two sufficient conditions
for A >= c0 to hold for every channel of entropy h:

    (i)   (1 - 2 h2_inv(h))^2 <= (c0 / (l-1))^(1/(r-1))
    (ii)  h <= l/r - 2 c0

and with c0 = (l-1) exp(-sqrt(r-1)) the certified entropies contain, for
large degrees, an interval [h2(K/sqrt(r)), l/r - 2 c0].

The randomized check of the conditions (area_margin_sweep) draws every
channel of a sweep as one batch of settled rows and reads H(a^[r]) and
H(a^[r-1]) of all of them from one pass of the series engine, which forms
each block's moments once for both powers; it builds no Channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import _Rows, keyed_rows_with_value
from .channel import Channel
from .convolution import phi_of_poly_convolved, projected_power_support
from .functionals import Functional, h2, h2_vec, kernel_inv
from .series import Polynomial, phi_of_polys_columns

# Caller-supplied entropy must match the channel this closely.
ENTROPY_MATCH_TOL = 1e-6
# Explicit-convolution cross-check of the series value kicks in below this
# projected support.
CROSS_CHECK_SUPPORT = 5000
CROSS_CHECK_TOL = 1e-8
# Series tolerance of the area values.
AREA_SERIES_TOL = 1e-10

AREA_CSV_HEADER = "d_l,d_r,h,c0,cond_i,cond_ii,min_observed_area,bound,margin"


@dataclass(frozen=True)
class EnsembleParams:
    """Degrees (var_degree, check_degree) of a regular LDPC ensemble."""

    var_degree: int
    check_degree: int

    def __post_init__(self):
        l, r = self.var_degree, self.check_degree
        if not (isinstance(l, int) and isinstance(r, int)):
            raise ValueError("ensemble degrees must be integers")
        if l < 2 or r < 3:
            raise ValueError(f"need var_degree >= 2 and check_degree >= 3, got ({l}, {r})")
        if l >= r:
            raise ValueError(f"need var_degree/check_degree < 1, got ({l}, {r})")

    @property
    def kappa(self) -> float:
        l, r = self.var_degree, self.check_degree
        return (l - 1 - l / r) / (l - 1)

    @property
    def design_rate(self) -> float:
        return 1.0 - self.var_degree / self.check_degree

    @property
    def area_poly(self) -> Polynomial:
        """X^(r-1) - kappa X^r; satisfies (l-1)(1-kappa) = l/r."""
        r = self.check_degree
        coeffs = [0.0] * r
        coeffs[r - 2] = 1.0
        coeffs[r - 1] = -self.kappa
        return Polynomial(tuple(coeffs))

    def default_margin(self) -> float:
        """The margin choice c0 = (l-1) exp(-sqrt(r-1))."""
        return (self.var_degree - 1) * math.exp(-math.sqrt(self.check_degree - 1))


def _check_entropies(rows: _Rows, hs: np.ndarray) -> None:
    """Raise ValueError naming the first row whose entropy is off its h."""
    eps, w, off = rows
    entropies = np.add.reduceat(w * h2_vec(eps), off[:-1])
    off_rows = np.flatnonzero(np.abs(entropies - hs) > ENTROPY_MATCH_TOL)
    if off_rows.size:
        i = int(off_rows[0])
        row = slice(off[i], off[i + 1])
        raise ValueError(
            f"channel entropy {float(np.dot(w[row], h2_vec(eps[row])))!r} "
            f"does not match h={float(hs[i])!r}"
        )


@functools.lru_cache(maxsize=64)
def _check_powers(r: int) -> tuple[Polynomial, Polynomial]:
    """X^r and X^(r-1), whose H the area values read, cached by check
    degree."""
    return Polynomial.monomial(r), Polynomial.monomial(r - 1)


def _area_values(
    params: EnsembleParams, rows: _Rows, hs: Sequence[float], tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Area values, combined series bounds and capped flags of settled rows
    at their entropies hs, H(a^[r]) and H(a^[r-1]) from one series pass."""
    hs = np.asarray(hs, dtype=float)
    _check_entropies(rows, hs)
    l, r = params.var_degree, params.check_degree
    high, low = phi_of_polys_columns(Functional.H, _check_powers(r), rows, tol)
    k_high, k_low = l - 1 - l / r, l - 1
    values = -hs - k_high * high.value + k_low * low.value
    bounds = k_high * high.error_bound + k_low * low.error_bound
    return values, bounds, high.capped | low.capped


def area_quantity(
    a: Channel,
    params: EnsembleParams,
    h: float,
    tol: float = AREA_SERIES_TOL,
    cross_check: bool = True,
) -> float:
    """The area expression -h - (l-1-l/r) H(a^[r]) + (l-1) H(a^[r-1]).

    Series-evaluated; when the explicit convolution stays small it is also
    computed exactly and the two routes must agree to CROSS_CHECK_TOL.
    """
    l, r = params.var_degree, params.check_degree
    value = float(_area_values(params, (a.eps, a.w, np.array([0, a.size])), [h], tol)[0][0])
    if cross_check and projected_power_support(a.size, r) <= CROSS_CHECK_SUPPORT:
        exact = -h + (l - 1) * phi_of_poly_convolved(Functional.H, params.area_poly, a)
        if abs(value - exact) > CROSS_CHECK_TOL:
            raise ArithmeticError(
                f"series/convolution mismatch in area expression: {value!r} vs {exact!r}"
            )
    return value


def margin_conditions(params: EnsembleParams, h: float, c0: float) -> tuple[bool, bool]:
    """The two sufficient conditions for the area expression to be >= c0."""
    if not c0 > 0.0:
        raise ValueError(f"margin must be positive, got {c0!r}")
    l, r = params.var_degree, params.check_degree
    cond_i = kernel_inv(Functional.H, h) ** 2 <= (c0 / (l - 1)) ** (1.0 / (r - 1))
    cond_ii = h <= l / r - 2.0 * c0
    return cond_i, cond_ii


def rho_at_max_moment(params: EnsembleParams, h: float) -> float:
    """(l-1) * rho((1 - 2 h2_inv(h))^2), the loss term the conditions cap.

    Vanishes at h = 1 and equals l/r at h = 0; condition (i) caps it by c0.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"entropy must lie in [0, 1], got {h!r}")
    q = kernel_inv(Functional.H, h) ** 2
    return (params.var_degree - 1) * params.area_poly(q)


@dataclass(frozen=True)
class CertifiedInterval:
    """Entropy interval and whether both margin conditions hold on all of it."""

    left: float
    right: float
    c0: float
    valid: bool


def certified_interval(params: EnsembleParams, k_const: float = 1.0) -> CertifiedInterval:
    """Candidate interval [h2(K/sqrt(r)), l/r - 2*c0] with a validity flag.

    The flag reports whether every entropy of the interval satisfies both
    margin conditions at c0 = (l-1) exp(-sqrt(r-1)), decided at its left
    end: right is condition (ii)'s own bound, so (ii) holds on the interval
    exactly when it is not empty, and (1 - 2 h2_inv(h))^2 decreases in h, so
    (i) holds on it when it holds at the left end.  At small degrees the
    interval is typically empty or uncertified.
    """
    r = params.check_degree
    arg = k_const / math.sqrt(r)
    if arg >= 0.5:
        raise ValueError(f"K/sqrt(check_degree) = {arg!r} must stay below 1/2")
    c0 = params.default_margin()
    left = h2(arg)
    right = params.var_degree / r - 2.0 * c0
    valid = left <= right and all(margin_conditions(params, left, c0))
    return CertifiedInterval(left, right, c0, valid)


def bec_minimizer_condition(params: EnsembleParams, h: float) -> bool:
    """Condition under which BEC(h) minimizes the area expression at entropy h.

    Compares against (r-2)/(kappa*r), the convexity range of the area
    polynomial (the README notes why not the literal (kappa-2)/(r*kappa)).
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"entropy must lie in [0, 1], got {h!r}")
    kappa = params.kappa
    r = params.check_degree
    return kernel_inv(Functional.H, h) ** 2 <= (r - 2.0) / (kappa * r)


@dataclass(frozen=True)
class AreaSweepRow:
    """One grid entropy of the area sweep.

    error_bound is the largest combined series bound
    (l-1-l/r) err(H(a^[r])) + (l-1) err(H(a^[r-1])) over the row's
    channels, and capped is True when any of their series stopped at its
    term cap; both stay 0.0 and False on rows with no checked channel.
    """

    h: float
    c0: float
    cond_i: bool
    cond_ii: bool
    checked: int
    min_area: float
    error_bound: float = 0.0
    capped: bool = False

    @property
    def margin(self) -> float:
        return self.min_area - self.c0

    def csv_row(self, params: EnsembleParams) -> str:
        return (
            f"{params.var_degree},{params.check_degree},{self.h!r},{self.c0!r},"
            f"{int(self.cond_i)},{int(self.cond_ii)},{self.min_area!r},"
            f"{self.c0!r},{self.margin!r}"
        )


def area_margin_sweep(
    params: EnsembleParams,
    seed: int,
    c0: float | None = None,
    grid_points: int = 50,
    channels_per_point: int = 200,
) -> list[AreaSweepRow]:
    """Randomized check that the margin conditions do their job.

    For every grid entropy where both conditions hold, samples channels
    pinned to that entropy and records the minimum observed area value;
    rows with `checked == 0` mark grid points outside the certified range.
    Every trial of every certified point is drawn first, trial t of grid
    point gi from the stream trial_rng(seed, gi, t) through
    keyed_rows_with_value, and all are evaluated together as one batch of
    settled rows, both powers in one series pass; no Channel is built.
    """
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points!r}")
    if channels_per_point < 0:
        raise ValueError(f"channels_per_point must be >= 0, got {channels_per_point!r}")
    if c0 is None:
        c0 = params.default_margin()
    grid = [
        (gi / (grid_points - 1) if grid_points > 1 else 0.0) for gi in range(grid_points)
    ]
    conditions = [margin_conditions(params, h, c0) for h in grid]
    certified = [gi for gi, cond in enumerate(conditions) if all(cond)]
    hs = [grid[gi] for gi in certified for _ in range(channels_per_point)]
    rows = keyed_rows_with_value(
        [(seed, gi, t) for gi in certified for t in range(channels_per_point)],
        Functional.H, hs,
    )
    values, bounds, capped = (
        v.tolist() for v in _area_values(params, rows, hs, AREA_SERIES_TOL)
    )
    rows: list[AreaSweepRow] = []
    start = 0
    for h, (cond_i, cond_ii) in zip(grid, conditions):
        if not (cond_i and cond_ii):
            rows.append(AreaSweepRow(h, c0, cond_i, cond_ii, 0, math.nan))
            continue
        part = slice(start, start + channels_per_point)
        start += channels_per_point
        rows.append(
            AreaSweepRow(
                h, c0, cond_i, cond_ii, channels_per_point,
                min(values[part], default=math.inf),
                max(bounds[part], default=0.0),
                any(capped[part]),
            )
        )
    return rows
