import numpy as np
import pytest

from eicomb.bounds import (
    BoundReport,
    INEQUALITIES,
    bsc_minimizer_counterexamples,
    check_inequality,
    convexity_upper_bound,
    fixed_error_extremes,
    fixed_error_sweep,
    inequality_suite,
    lower_bound_sweep,
    monotone_lower_bound,
    random_channel,
    random_channel_with_value,
    trial_rng,
    upper_bound_sweep,
)
from eicomb.channel import bec, bsc, mix
from eicomb.convolution import phi_of_poly_convolved
from eicomb.functionals import Functional, evaluate, h2, kernel_inv
from eicomb.series import Polynomial, phi_of_poly, poly_from_string

H, B, E = Functional.H, Functional.B, Functional.E


# ----------------------------------------------------------------------
# extremal bound templates


def test_upper_bound_cubic_entropy():
    item = convexity_upper_bound(H, Polynomial.monomial(3), 0.5)
    assert item.hypothesis_ok
    assert item.bound == pytest.approx(0.875, abs=1e-15)
    assert item.extremal.approx_eq(bec(0.5))
    # the bound value is the achieving channel's value
    assert phi_of_poly_convolved(H, Polynomial.monomial(3), bec(0.5)) == pytest.approx(
        item.bound, abs=1e-12
    )


def test_upper_bound_linear_case_is_the_constraint():
    for phi0 in (0.2, 0.5, 0.9):
        item = convexity_upper_bound(H, Polynomial((1.0,)), phi0)
        assert item.bound == pytest.approx(phi0, abs=1e-15)


def test_upper_bound_sparse_pair_value():
    item = convexity_upper_bound(H, poly_from_string("x^5-0.75x^6"), 0.5)
    assert item.hypothesis_ok
    assert item.bound == pytest.approx(0.23046875, abs=1e-10)


def test_upper_bound_hypothesis_gates_to_inconclusive():
    # at low phi0 the moment range outgrows the convexity range
    item = convexity_upper_bound(H, poly_from_string("x^5-0.75x^6"), 0.1)
    assert not item.hypothesis_ok
    report = item.report(0.123)
    assert not report.hypothesis_ok
    assert not report.violated(1e-9)  # inconclusive is never a violation


def test_lower_bound_cubic_entropy():
    item = monotone_lower_bound(H, Polynomial.monomial(3), 0.5)
    assert item.hypothesis_ok
    assert item.bound == pytest.approx(0.7748969214446034, abs=1e-10)


def test_lower_bound_known_bhattacharyya_value():
    item = monotone_lower_bound(B, Polynomial((1.0,)), 0.6)
    assert item.bound == pytest.approx(0.36, abs=1e-12)


def test_lower_bound_vanishes_for_perfect_channel():
    for tag in (H, B):
        item = monotone_lower_bound(tag, Polynomial.monomial(4), 0.0)
        assert item.bound == pytest.approx(0.0, abs=1e-12)


def test_fixed_error_extremes_square():
    lower, upper = fixed_error_extremes(H, Polynomial.monomial(2), 0.1)
    assert lower.hypothesis_ok and upper.hypothesis_ok
    assert lower.bound == pytest.approx(0.36, abs=1e-12)
    assert upper.bound == pytest.approx(h2(0.18), abs=1e-12)
    assert lower.extremal.approx_eq(bec(0.2))
    assert evaluate(E, lower.extremal) == pytest.approx(0.1, abs=1e-15)


def test_fixed_error_extremes_degenerate_levels():
    lo0, hi0 = fixed_error_extremes(B, Polynomial.monomial(3), 0.0)
    assert lo0.bound == hi0.bound == 0.0
    rho = Polynomial((0.5, 0.0, 0.25))
    lo5, hi5 = fixed_error_extremes(B, rho, 0.5)
    assert lo5.bound == pytest.approx(rho(1.0), abs=1e-12)
    assert hi5.bound == pytest.approx(rho(1.0), abs=1e-12)


def test_report_orientation():
    item = convexity_upper_bound(H, Polynomial.monomial(2), 0.4)
    rep = item.report(0.3)
    assert rep.slack == rep.rhs - rep.lhs
    assert rep.slack > 0  # value below the upper bound
    low = monotone_lower_bound(H, Polynomial.monomial(2), 0.4)
    rep2 = low.report(0.9)
    assert rep2.slack > 0  # value above the lower bound


# ----------------------------------------------------------------------
# samplers


def test_random_channel_shape():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = random_channel(rng)
        assert 1 <= a.size <= 5
        assert float(a.eps.min()) >= 0.0 and float(a.eps.max()) <= 0.5
        assert abs(float(a.w.sum()) - 1.0) <= 1e-12


def test_fixed_value_sampler_is_exact():
    for tag, top in ((H, 1.0), (B, 1.0), (E, 0.5)):
        for i in range(300):
            rng = trial_rng(55, i)
            target = top * float(rng.random())
            a = random_channel_with_value(rng, tag, target)
            assert abs(evaluate(tag, a) - target) <= 1e-12


def test_fixed_value_sampler_mixes_exactly_as_with_fresh_partners():
    # the shared perfect/useless channels give the draws a fresh bsc() gives
    for tag, top in ((H, 1.0), (B, 1.0), (E, 0.5)):
        for i in range(100):
            target = top * float(trial_rng(56, i).random())
            a = random_channel_with_value(trial_rng(57, i), tag, target)
            raw = random_channel(trial_rng(57, i))
            v = evaluate(tag, raw)
            if v > target:
                want = mix(raw, bsc(0.0), target / v)
            elif v < target:
                want = mix(raw, bsc(0.5), (top - target) / (top - v))
            else:
                want = raw
            assert np.array_equal(a.eps, want.eps) and np.array_equal(a.w, want.w)


def test_fixed_value_sampler_rejects_bad_target():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        random_channel_with_value(rng, E, 0.7)


def test_trial_rng_reproducible():
    a = trial_rng(3, 5).random(4)
    b = trial_rng(3, 5).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_rng(3, 6).random(4))


# ----------------------------------------------------------------------
# inequality checks


def test_inequality_catalog_complete():
    assert sorted(INEQUALITIES) == list(range(4, 13))


def test_inequality_arity_validation():
    a, b = bsc(0.1), bec(0.3)
    with pytest.raises(ValueError):
        check_inequality(3, [a], H)
    with pytest.raises(ValueError):
        check_inequality(4, [a], H)
    with pytest.raises(ValueError):
        check_inequality(5, [a], H)  # missing power
    with pytest.raises(ValueError):
        check_inequality(5, [a], H, power=1)
    with pytest.raises(ValueError):
        check_inequality(6, [a], H, power=3)  # spurious power
    with pytest.raises(ValueError):
        check_inequality(9, [a, b], H, power=3)  # missing alpha
    with pytest.raises(ValueError):
        check_inequality(11, [a], E)


def test_product_lower_equality_for_erasure_factor():
    # equality holds whenever one factor has constant moments
    for i in range(50):
        rng = trial_rng(66, i)
        a = bec(float(rng.random()))
        b = random_channel(rng)
        for tag in (H, B):
            rep = check_inequality(4, [a, b], tag)
            assert abs(rep.slack) <= 1e-9


def test_product_lower_useless_edge():
    rep = check_inequality(4, [bsc(0.5), bsc(0.5)], H)
    assert rep.lhs == rep.rhs == 0.0


def test_self_sqrt_known_value():
    rep = check_inequality(6, [bsc(0.11)], B)
    assert rep.lhs == pytest.approx(1.0 - 0.6257795138864807, abs=1e-12)
    assert rep.slack >= 0.0


def test_all_inequalities_hold_on_random_trials():
    reports, summaries = inequality_suite(seed=2025, trials=300)
    assert all(s.violations == 0 for s in summaries.values())
    assert min(s.min_slack for s in summaries.values()) >= -1e-12
    assert len(reports) == 9 * 300


@pytest.mark.parametrize("code", sorted(INEQUALITIES))
def test_suite_equals_per_trial_check_inequality(code):
    # the per-trial loop the suite had before it drew each code's trials
    # first: same trial_rng keys and draw order, one check_inequality each
    info = INEQUALITIES[code]
    want = []
    for t in range(120):
        rng = trial_rng(77, code, t)
        tag = H if rng.integers(2) == 0 else B
        chans = [random_channel(rng) for _ in range(info.channels)]
        power = int(rng.integers(2, 7)) if info.needs_power else None
        alpha = float(rng.random()) if info.needs_alpha else None
        want.append(check_inequality(code, chans, tag, alpha=alpha, power=power, seed=77))
    got, summaries = inequality_suite(seed=77, trials=120, codes=(code,))
    assert len(got) == len(want) == summaries[code].trials
    for g, w in zip(got, want):
        assert (g.kind, g.params, g.seed, g.hypothesis_ok) == (w.kind, w.params, w.seed, w.hypothesis_ok)
        assert all(a.points == b.points for a, b in zip(g.witnesses, w.witnesses))
        for u, v in ((g.lhs, w.lhs), (g.rhs, w.rhs)):
            assert abs(u - v) <= 1e-15 * abs(v)
        assert g.violated(1e-12) == w.violated(1e-12)


def test_inequality_csv_row_shape():
    rep = check_inequality(11, [bsc(0.2)], H, seed=9)
    row = rep.csv_row()
    assert row.startswith("ineq11,")
    assert row.count(",") == 6


# ----------------------------------------------------------------------
# randomized sweeps (reduced sizes; the acceptance suite runs them in full)


def test_upper_bound_sweep_small():
    reports, summary = upper_bound_sweep(
        seed=1, levels=(0.3, 0.7), rhos=(Polynomial.monomial(3),), per_cell=50
    )
    assert summary.violations == 0
    assert summary.inconclusive == 0
    assert summary.min_slack >= -1e-9


def test_lower_bound_sweep_small():
    _, summary = lower_bound_sweep(
        seed=2, levels=(0.2, 0.6), rhos=(poly_from_string("x^5-0.75x^6"),), per_cell=50
    )
    assert summary.violations == 0


def test_fixed_error_sweep_small():
    _, summary = fixed_error_sweep(
        seed=3, levels=(0.05, 0.25), rhos=(Polynomial.monomial(2),), per_cell=50
    )
    assert summary.violations == 0
    assert summary.min_slack >= -1e-9


def test_sweep_flags_hypothesis_failures_not_violations():
    reports, summary = upper_bound_sweep(
        seed=4, levels=(0.05,), rhos=(poly_from_string("x^5-0.75x^6"),), per_cell=20
    )
    assert summary.inconclusive == summary.trials == len(reports)
    assert summary.violations == 0


def _per_channel_sweep(seed, factory, levels, rho, tag, per_cell):
    """The sweep's reports with one phi_of_poly call per drawn channel."""
    out = []
    for li, level in enumerate(levels):
        for item in factory(tag, rho, level):
            for t in range(per_cell):
                a = random_channel_with_value(
                    trial_rng(seed, 0, ord(tag.value), li, t), item.constraint, level
                )
                value = phi_of_poly(tag, rho, a, tol=1e-11).value
                params = f"rho={rho};tag={tag.value};level={level!r};trial={t}"
                out.append(item.report(value, params=params, seed=seed, witnesses=(a,)))
    return out


@pytest.mark.parametrize("tag", (H, B))
def test_batched_sweep_reports_equal_per_channel_run(tag):
    rho = poly_from_string("x^5-0.75x^6")
    for runner, factory, levels in (
        (upper_bound_sweep, lambda t, r, lv: (convexity_upper_bound(t, r, lv),), (0.2, 0.9)),
        (fixed_error_sweep, fixed_error_extremes, (0.05, 0.3)),
    ):
        got, summary = runner(seed=9, levels=levels, rhos=(rho,), tags=(tag,), per_cell=7)
        want = _per_channel_sweep(9, factory, levels, rho, tag, 7)
        assert len(got) == len(want) == summary.trials
        for g, w in zip(got, want):
            assert (g.kind, g.params, g.seed, g.hypothesis_ok) == (
                w.kind, w.params, w.seed, w.hypothesis_ok)
            assert g.witnesses[0].points == w.witnesses[0].points
            assert abs(g.lhs - w.lhs) <= 1e-14 and abs(g.rhs - w.rhs) <= 1e-14


def test_bsc_minimizer_checker_matches_per_channel_run():
    # a tolerance of -1 reports every trial, so each batched value is compared
    rho = poly_from_string("x^5-0.75x^6")
    hits = bsc_minimizer_counterexamples(B, rho, 0.3, seed=3, trials=40, tol=-1.0)
    reference = phi_of_poly_convolved(B, rho, bsc((1.0 - kernel_inv(B, 0.3)) / 2.0))
    assert [h.params for h in hits] == [f"rho={rho};tag=B;phi0=0.3;trial={t}" for t in range(40)]
    for t, h in enumerate(hits):
        a = random_channel_with_value(trial_rng(3, 99, t), B, 0.3)
        assert h.witnesses[0].points == a.points
        assert h.lhs == reference
        assert abs(h.rhs - phi_of_poly(B, rho, a, tol=1e-11).value) <= 1e-14


def test_bsc_minimizer_conjecture_checker_reports_only():
    # evidence only: on a modest run the conjectured minimizer stands
    hits = bsc_minimizer_counterexamples(H, Polynomial.monomial(3), 0.5, seed=8, trials=100)
    assert isinstance(hits, list)
    assert all(isinstance(r, BoundReport) for r in hits)
    assert hits == []
