import math

import numpy as np
import pytest

from eicomb import area, bounds, series
from eicomb.area import (
    AreaSweepRow,
    EnsembleParams,
    area_margin_sweep,
    area_quantity,
    bec_minimizer_condition,
    certified_interval,
    margin_conditions,
    rho_at_max_moment,
)
from eicomb.bounds import monotone_lower_bound, random_channel_with_value, trial_rng
from eicomb.channel import bec, bsc
from eicomb.functionals import Functional, evaluate, h2, h2_inv
from eicomb.series import DEFAULT_TERM_CAP, phi_of_poly, poly_increasing_on

from test_series import CAPPED, _series_oracle

H = Functional.H


def test_ensemble_validation():
    with pytest.raises(ValueError):
        EnsembleParams(1, 6)
    with pytest.raises(ValueError):
        EnsembleParams(3, 2)
    with pytest.raises(ValueError):
        EnsembleParams(6, 6)
    with pytest.raises(ValueError):
        EnsembleParams(3.0, 6)  # type: ignore[arg-type]


def test_ensemble_derived_quantities():
    p = EnsembleParams(3, 6)
    assert p.kappa == pytest.approx(0.75, abs=1e-15)
    assert p.design_rate == pytest.approx(0.5, abs=1e-15)
    rho = p.area_poly
    assert rho.terms == ((5, 1.0), (6, -0.75))
    # (l-1)(1-kappa) = l/r ties the polynomial to the design rate
    assert (3 - 1) * (1 - p.kappa) == pytest.approx(3 / 6, abs=1e-12)


def test_area_value_for_erasure_channel():
    p = EnsembleParams(3, 6)
    assert area_quantity(bec(0.4), p, 0.4) == pytest.approx(0.014464, abs=1e-9)


def test_area_value_extreme_channels():
    p = EnsembleParams(3, 6)
    assert area_quantity(bsc(0.5), p, 1.0) == pytest.approx(-0.5, abs=1e-12)
    assert area_quantity(bsc(0.0), p, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_area_rejects_entropy_mismatch():
    p = EnsembleParams(3, 6)
    with pytest.raises(ValueError):
        area_quantity(bec(0.4), p, 0.45)


def test_area_equals_scaled_poly_value():
    p = EnsembleParams(3, 6)
    for i in range(50):
        rng = trial_rng(14, i)
        h = 0.05 + 0.9 * float(rng.random())
        a = random_channel_with_value(rng, H, h)
        lhs = area_quantity(a, p, h, tol=1e-11)
        rhs = -h + (p.var_degree - 1) * phi_of_poly(H, p.area_poly, a, tol=1e-11).value
        assert abs(lhs - rhs) <= 1e-9


def test_margin_conditions_at_3_6():
    p = EnsembleParams(3, 6)
    # threshold entropy for condition (i) at c0 = 0.01 is h2(0.20565...)
    assert margin_conditions(p, 0.74, 0.01)[0]
    assert not margin_conditions(p, 0.72, 0.01)[0]
    # condition (ii) caps h at 0.48, boundary inclusive
    assert margin_conditions(p, 0.48, 0.01)[1]
    assert not margin_conditions(p, 0.4801, 0.01)[1]
    # the two conditions never overlap at this margin
    for k in range(51):
        ci, cii = margin_conditions(p, k / 50, 0.01)
        assert not (ci and cii)


def test_margin_conditions_validation():
    with pytest.raises(ValueError):
        margin_conditions(EnsembleParams(3, 6), 0.5, 0.0)


def test_margin_conditions_reject_a_nan_margin():
    with pytest.raises(ValueError, match="margin must be positive"):
        margin_conditions(EnsembleParams(3, 6), 0.5, math.nan)


def test_default_margin_instantiation():
    p = EnsembleParams(100, 200)
    assert p.default_margin() == pytest.approx(99 * math.exp(-math.sqrt(199)), rel=1e-12)
    assert margin_conditions(p, 0.5 - 2 * p.default_margin(), p.default_margin())[1]


def test_loss_term_endpoints():
    p = EnsembleParams(3, 6)
    assert rho_at_max_moment(p, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert rho_at_max_moment(p, 0.0) == pytest.approx(0.5, abs=1e-12)  # l/r


def test_loss_term_known_value():
    p = EnsembleParams(3, 6)
    assert rho_at_max_moment(p, 0.8) == pytest.approx(0.002063925600652, abs=1e-7)


def test_condition_i_caps_the_loss_term():
    for p in (EnsembleParams(3, 6), EnsembleParams(50, 100)):
        for c0 in (1e-3, 1e-2, 0.05):
            for k in range(1, 100):
                h = k / 100
                if margin_conditions(p, h, c0)[0]:
                    assert rho_at_max_moment(p, h) <= c0 + 1e-9


def test_area_poly_increasing_over_moment_range():
    # the increasing-range condition holds across all entropies
    for p in (EnsembleParams(3, 6), EnsembleParams(5, 10), EnsembleParams(50, 100)):
        for k in range(0, 101, 5):
            q = (1.0 - 2.0 * h2_inv(k / 100)) ** 2
            assert poly_increasing_on(p.area_poly, q)


def test_lower_bound_instantiation_matches_display():
    # rho(1) - rho(q) with q the squared max first moment, on sampled channels
    p = EnsembleParams(3, 6)
    kappa, d = p.kappa, p.check_degree
    for i in range(60):
        rng = trial_rng(15, i)
        h = 0.05 + 0.9 * float(rng.random())
        q = (1.0 - 2.0 * h2_inv(h)) ** 2
        display = 1.0 - kappa - q ** (d - 1) + kappa * q**d
        bound = monotone_lower_bound(H, p.area_poly, h)
        assert bound.hypothesis_ok
        assert bound.bound == pytest.approx(display, abs=1e-12)
        a = random_channel_with_value(rng, H, h)
        assert phi_of_poly(H, p.area_poly, a, tol=1e-11).value >= display - 1e-9


def test_certified_interval_small_degrees_empty():
    p = EnsembleParams(100, 200)
    got = certified_interval(p, 3.0)
    assert got.left == pytest.approx(h2(3.0 / math.sqrt(200)), abs=1e-12)
    assert got.right == pytest.approx(0.5 - 2 * p.default_margin(), abs=1e-12)
    assert got.right < p.var_degree / p.check_degree
    assert got.left > got.right and not got.valid


def test_certified_interval_validates_k():
    with pytest.raises(ValueError):
        certified_interval(EnsembleParams(3, 6), 1.3)


def test_certified_interval_left_edge_shrinks_with_degree():
    left = [
        certified_interval(EnsembleParams(d, 2 * d), 1.0).left for d in (10, 100, 1000)
    ]
    assert left[0] > left[1] > left[2]


def test_certified_interval_becomes_valid_at_large_degrees():
    got = certified_interval(EnsembleParams(1000, 2000), 1.0)
    assert got.left < got.right
    assert got.valid


def _grid_flag(params, interval):
    """The flag as 101 evenly spaced entropies of the interval decided it,
    and the grid points that failed a condition."""
    if interval.left > interval.right:
        return False, []
    step = (interval.right - interval.left) / 100
    grid = [interval.left + i * step for i in range(101)]
    failed = [h for h in grid if not all(margin_conditions(params, h, interval.c0))]
    return not failed, failed


def _interval_scan():
    for r in [*range(3, 120), 150, 200, 300, 500, 1000]:
        for l in sorted({*range(2, 7), r // 4, r // 2, r - 1}):
            for k_const in (0.25, 1.0, 1.5):
                if 2 <= l < r and k_const / math.sqrt(r) < 0.5:
                    yield EnsembleParams(l, r), k_const


def test_certified_interval_is_decided_at_its_left_end():
    nonempty, moved = 0, []
    for params, k_const in _interval_scan():
        got = certified_interval(params, k_const)
        nonempty += got.left <= got.right
        want, failed = _grid_flag(params, got)
        if got.valid == want:
            continue
        moved.append((params.var_degree, params.check_degree, k_const))
        # the grid's last point rounds above right, where (ii) fails and (i)
        # holds; every entropy of the interval passes both conditions
        assert got.valid
        assert len(failed) == 1 and failed[0] > got.right
        assert margin_conditions(params, failed[0], got.c0) == (True, False)
        assert margin_conditions(params, got.right, got.c0) == (True, True)
    assert nonempty == 509
    assert len(moved) == 18
    assert (50, 100, 0.25) in moved


def test_bec_minimizer_condition_forms():
    p = EnsembleParams(3, 6)
    # holds above h2((1-sqrt(8/9))/2)
    threshold = h2((1.0 - math.sqrt((6 - 2) / (0.75 * 6))) / 2.0)
    assert threshold == pytest.approx(0.18729859856877246, abs=1e-9)
    assert bec_minimizer_condition(p, threshold + 1e-3)
    assert not bec_minimizer_condition(p, threshold - 1e-3)
    assert bec_minimizer_condition(p, 1.0)


def test_margin_sweep_small_ensemble():
    p = EnsembleParams(50, 100)
    rows = area_margin_sweep(p, seed=6, grid_points=12, channels_per_point=40)
    assert len(rows) == 12
    checked = [r for r in rows if r.checked]
    assert checked, "expected at least one certified grid point"
    for row in checked:
        assert row.cond_i and row.cond_ii
        assert row.min_area >= row.c0 - 1e-9
    skipped = [r for r in rows if not r.checked]
    assert all(math.isnan(r.min_area) for r in skipped)


def test_sweep_row_csv_format():
    p = EnsembleParams(3, 6)
    row = AreaSweepRow(0.5, 0.01, True, False, 0, math.nan)
    text = row.csv_row(p)
    assert text.startswith("3,6,")
    assert text.count(",") == 8


def _sweep_by_channel(params, seed, grid_points, trials):
    """The sweep as a per-channel loop: (h, cond_i, cond_ii, checked,
    min_area, largest combined series bound) per grid point."""
    l, r = params.var_degree, params.check_degree
    c0 = params.default_margin()
    rows = []
    for gi in range(grid_points):
        h = gi / (grid_points - 1)
        cond_i, cond_ii = margin_conditions(params, h, c0)
        if not (cond_i and cond_ii):
            rows.append((h, cond_i, cond_ii, 0, math.nan, 0.0))
            continue
        lo, err = math.inf, 0.0
        for t in range(trials):
            a = random_channel_with_value(trial_rng(seed, gi, t), H, h)
            lo = min(lo, area_quantity(a, params, h, cross_check=False))
            high = _series_oracle(H, a, ((r, 1.0),), 1e-10, DEFAULT_TERM_CAP)
            low = _series_oracle(H, a, ((r - 1, 1.0),), 1e-10, DEFAULT_TERM_CAP)
            err = max(err, (l - 1 - l / r) * high.error_bound + (l - 1) * low.error_bound)
        rows.append((h, cond_i, cond_ii, trials, lo, err))
    return rows


@pytest.mark.parametrize("degrees", [(100, 200), (50, 100), (20, 40), (3, 6)])
@pytest.mark.parametrize("seed", [11, 7])
def test_batched_sweep_matches_per_channel_loop(degrees, seed):
    p = EnsembleParams(*degrees)
    rows = area_margin_sweep(p, seed, grid_points=50, channels_per_point=20)
    want = _sweep_by_channel(p, seed, 50, 20)
    assert [(r.h, r.cond_i, r.cond_ii, r.checked) for r in rows] == [w[:4] for w in want]
    for row, (*_, lo, err) in zip(rows, want):
        if row.checked:
            assert abs(row.min_area - lo) <= 1e-14 * abs(lo)
            assert row.error_bound == pytest.approx(err, rel=1e-9, abs=1e-15)
            assert 0.0 < row.error_bound <= 100 * 1e-10
        else:
            assert math.isnan(row.min_area) and row.error_bound == 0.0
        assert not row.capped
    if degrees == (3, 6):
        assert not any(r.checked for r in rows)
    else:
        assert any(r.checked for r in rows)


def test_sweep_row_carries_a_capped_series(monkeypatch):
    real = area.phi_of_polys_columns

    def first_capped(tag, rhos, rows, tol):
        out = real(tag, rhos, rows, tol)
        for rho, cols in zip(rhos, out):
            if rho.degree == p.check_degree:  # only H(a^[r]) of the first channel
                cols.error_bound[0], cols.capped[0] = 1.0, True
        return out

    p = EnsembleParams(50, 100)
    monkeypatch.setattr(area, "phi_of_polys_columns", first_capped)
    rows = [r for r in area_margin_sweep(p, 6, grid_points=12, channels_per_point=5) if r.checked]
    assert len(rows) >= 2
    k_high = p.var_degree - 1 - p.var_degree / p.check_degree
    assert rows[0].capped and rows[0].error_bound >= k_high
    assert not any(r.capped for r in rows[1:])
    assert all(r.error_bound < 1e-6 for r in rows[1:])


def test_sweep_makes_one_series_pass_and_no_channel(monkeypatch):
    passes = []
    real = series._series_pass
    monkeypatch.setattr(series, "_series_pass",
                        lambda tag, rhos, *args: passes.append(len(rhos)) or real(tag, rhos, *args))
    monkeypatch.setattr(bounds, "_channels", lambda *args: pytest.fail("built a Channel"))
    rows = area_margin_sweep(EnsembleParams(30, 60), 6, grid_points=50, channels_per_point=20)
    assert sum(r.checked for r in rows) > 20 and passes == [2]


def test_sweeps_build_the_check_powers_once(monkeypatch):
    p = EnsembleParams(30, 60)
    area_margin_sweep(p, 6, grid_points=12, channels_per_point=3)
    built = []
    real = series.Polynomial.__post_init__
    monkeypatch.setattr(series.Polynomial, "__post_init__",
                        lambda self: built.append(self) or real(self))
    rows = area_margin_sweep(EnsembleParams(30, 60), 7, grid_points=12, channels_per_point=3)
    assert any(r.checked for r in rows) and built == []


def test_area_values_flag_a_capped_series():
    # H(CAPPED^[7]) and H(CAPPED^[8]) stop at the term cap at tol 1e-11: the
    # degrees are above the exact read's, and CAPPED has a near-perfect point
    a = CAPPED
    rows = (a.eps, a.w, np.array([0, a.size]))
    _, errors, capped = area._area_values(EnsembleParams(4, 8), rows, [evaluate(H, a)], 1e-11)
    assert capped.tolist() == [True]
    assert errors[0] > 1e-11


def test_sweep_rejects_an_off_entropy_channel(monkeypatch):
    monkeypatch.setattr(area, "keyed_rows_with_value", lambda keys, tag, hs: (
        np.full(len(hs), 0.11), np.ones(len(hs)), np.arange(len(hs) + 1)))
    p = EnsembleParams(50, 100)
    first = next(r.h for r in area_margin_sweep(p, 6, grid_points=12, channels_per_point=0)
                 if r.cond_i and r.cond_ii)
    with pytest.raises(ValueError, match=f"does not match h={first!r}"):
        area_margin_sweep(p, 6, grid_points=12, channels_per_point=3)


def test_sweep_rejects_a_negative_trial_count():
    with pytest.raises(ValueError, match="channels_per_point must be >= 0, got -1"):
        area_margin_sweep(EnsembleParams(50, 100), 6, grid_points=12, channels_per_point=-1)


@pytest.mark.parametrize("grid_points", (0, -3))
def test_sweep_rejects_an_empty_grid(grid_points):
    with pytest.raises(ValueError, match=f"grid_points must be >= 1, got {grid_points}"):
        area_margin_sweep(EnsembleParams(50, 100), 6, grid_points=grid_points)


def test_sweep_without_trials_keeps_certified_rows_empty():
    rows = area_margin_sweep(EnsembleParams(50, 100), 6, grid_points=12, channels_per_point=0)
    certified = [r for r in rows if r.cond_i and r.cond_ii]
    assert certified
    assert all(r.checked == 0 and r.min_area == math.inf for r in certified)
