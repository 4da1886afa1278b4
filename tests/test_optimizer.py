import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from eicomb import convolution, optimizer
from eicomb.area import EnsembleParams
from eicomb.bounds import (DEFAULT_SWEEP_LEVELS, DEFAULT_SWEEP_RHOS, monotone_lower_bound,
                           random_channel, trial_rng)
from eicomb.channel import bec, bsc, channel
from eicomb.convolution import check_convolve, phi_of_poly_convolved
from eicomb.functionals import Functional, evaluate, h2, h2_inv, h2_vec, kernel_inv, pointwise
from eicomb.optimizer import (
    TwoPointChannel,
    Verdict,
    coordinate_descent,
    extremal_channel_cells,
    symmetrized_objective,
    transport_distance,
)
from eicomb.series import Polynomial, phi_of_poly, poly_from_string

H, B, E = Functional.H, Functional.B, Functional.E

ORACLE_RHOS = ("x^2", "x^3", "x^2+0.5x", "x^5-0.75x^6")


# ----------------------------------------------------------------------
# brute-force oracle: every subset folded through check_convolve


def _fold(channels):
    out = bsc(0.0)
    for ch in channels:
        out = check_convolve(out, ch)
    return out


def _oracle_objective(rho, tag, channels):
    d = len(channels)
    total = 0.0
    for k, c in rho.terms:
        for combo in combinations(range(d), k):
            total += c / math.comb(d, k) * evaluate(tag, _fold([channels[j] for j in combo]))
    return total


def _oracle_kernel(tag, eps):
    if tag is H:
        return h2_vec(eps)
    if tag is B:
        return 2.0 * np.sqrt(eps * (1.0 - eps))
    return eps


def _oracle_profile(rho, tag, channels, i, eps):
    """Coordinate i's profile on eps: const + sum_p w_p Phi(BSC(eps) (*) BSC(eps_p))."""
    d = len(channels)
    others = [j for j in range(d) if j != i]
    xg = 1.0 - 2.0 * np.asarray(eps)
    out = np.zeros(xg.shape)
    for k, c in rho.terms:
        scale = c / math.comb(d, k)
        for combo in combinations(others, k - 1):
            conv = _fold([channels[j] for j in combo])
            inner = 0.5 * (1.0 - np.outer(xg, 1.0 - 2.0 * conv.eps))
            out += scale * (_oracle_kernel(tag, inner) @ conv.w)
        if k <= d - 1:
            for combo in combinations(others, k):
                out += scale * evaluate(tag, _fold([channels[j] for j in combo]))
    return out


def _profile(rho, tag, channels, i):
    """optimizer._profile_for for coordinate i, from its prefix and suffix sums."""
    d = len(channels)
    order = min(rho.degree, d - 1)
    measures = [(1.0 - 2.0 * ch.eps, ch.w) for ch in channels]
    prefix = optimizer._symmetric_sums(measures[:i], order)
    suffix = optimizer._symmetric_sums(measures[i + 1:], order)
    return optimizer._profile_for(rho, tag, d, prefix, suffix)


# ----------------------------------------------------------------------
# two-point coordinates and the verdict distance


def test_two_point_channel_validation():
    with pytest.raises(ValueError):
        TwoPointChannel(0.3, 0.2, 0.5)
    with pytest.raises(ValueError):
        TwoPointChannel(0.1, 0.2, 1.5)
    with pytest.raises(ValueError):
        TwoPointChannel(-0.1, 0.2, 0.5)


def test_two_point_channel_degenerate_forms():
    assert TwoPointChannel(0.1, 0.1, 0.3).channel().approx_eq(bsc(0.1))
    assert TwoPointChannel(0.1, 0.4, 1.0).channel().approx_eq(bsc(0.1))
    assert TwoPointChannel(0.1, 0.4, 0.0).channel().approx_eq(bsc(0.4))
    assert TwoPointChannel(0.0, 0.5, 0.7).channel().approx_eq(bec(0.3))


def test_two_point_constraint_value():
    c = TwoPointChannel(0.0, 0.5, 0.55)
    assert c.constraint_value(H) == pytest.approx(0.45, abs=1e-15)
    assert c.constraint_value(E) == pytest.approx(0.225, abs=1e-15)
    assert c.constraint_value(B) == pytest.approx(0.45, abs=1e-15)
    c = TwoPointChannel(0.1, 0.3, 0.25)
    assert c.constraint_value(B) == pytest.approx(evaluate(B, c.channel()), abs=1e-15)


def test_b_constraint_value_is_pointwise_b():
    eps = np.concatenate([np.linspace(0.0, 0.5, 1001), trial_rng(4).random(2000) * 0.5])
    g = optimizer._CONSTRAINTS[B].value
    assert [g(float(e)) for e in eps] == pointwise(B, eps).tolist()


@pytest.mark.parametrize("target", [0.0, 1e-3, 0.05, 0.3, 0.7, 0.99, 1.0])
def test_b_matched_extremes(target):
    bsc_ref, bec_ref = optimizer._matched_extremes(B, target)
    # the BSC of the monotone lower bound, bit for bit
    assert bsc_ref.points == monotone_lower_bound(B, Polynomial.monomial(2), target).extremal.points
    assert evaluate(B, bsc_ref) == pytest.approx(target, abs=1e-12)
    assert bec_ref.points == bec(target).points


def test_transport_distance_basics():
    assert transport_distance(bsc(0.2), bsc(0.2)) == 0.0
    assert transport_distance(bsc(0.0), bsc(0.5)) == pytest.approx(0.5, abs=1e-15)
    # moving half the mass by 0.1 costs 0.05
    a = channel([(0.1, 0.5), (0.3, 0.5)])
    b = channel([(0.2, 0.5), (0.3, 0.5)])
    assert transport_distance(a, b) == pytest.approx(0.05, abs=1e-15)
    assert transport_distance(a, b) == transport_distance(b, a)


def test_transport_distance_tolerates_support_straddle():
    eps = h2_inv(0.45)
    near = channel([(eps - 1e-4, 0.5), (eps + 1e-4, 0.5)])
    assert transport_distance(near, bsc(eps)) <= 1.1e-4


# ----------------------------------------------------------------------
# symmetrized objective


def test_symmetrized_matches_poly_value_at_equal_coordinates():
    rhos = [Polynomial.monomial(2), Polynomial.monomial(3), poly_from_string("x^2+0.5x"),
            poly_from_string("x^5-0.75x^6")]
    for i in range(100):
        rng = trial_rng(41, i)
        rho = rhos[i % len(rhos)]
        a = random_channel(rng, max_support=3)
        tag = H if i % 2 == 0 else B
        d = rho.degree + int(rng.integers(0, 2))
        value = symmetrized_objective(rho, tag, [a] * d)
        want = phi_of_poly(tag, rho, a, tol=1e-11).value
        assert abs(value - want) <= 1e-9


def test_symmetrized_erasure_square():
    assert symmetrized_objective(
        Polynomial.monomial(2), H, [bec(0.3), bec(0.3)]
    ) == pytest.approx(0.51, abs=1e-12)


def test_symmetrized_single_coordinate_identity():
    a = bsc(0.17)
    assert symmetrized_objective(Polynomial((1.0,)), H, [a]) == pytest.approx(
        evaluate(H, a), abs=1e-15
    )


def test_symmetrized_requires_enough_coordinates():
    with pytest.raises(ValueError):
        symmetrized_objective(Polynomial.monomial(3), H, [bsc(0.1), bsc(0.2)])


# ----------------------------------------------------------------------
# prefix/suffix subset sums against the brute-force oracle

GRID = np.linspace(0.0, 0.5, optimizer.DEFAULT_GRID)


@pytest.mark.parametrize("rho_text", ORACLE_RHOS)
@pytest.mark.parametrize("extra", (0, 1))
@pytest.mark.parametrize("tag", (H, B, E))
def test_profiles_and_objective_match_subset_oracle(rho_text, extra, tag):
    rho = poly_from_string(rho_text)
    d = rho.degree + extra
    for trial in range(2):
        rng = trial_rng(43, d, trial)
        channels = [random_channel(rng, max_support=3) for _ in range(d)]
        want = _oracle_objective(rho, tag, channels)
        assert abs(symmetrized_objective(rho, tag, channels) - want) <= 1e-13
        for i in range(d):
            got = _profile(rho, tag, channels, i)(GRID)
            assert np.max(np.abs(got - _oracle_profile(rho, tag, channels, i, GRID))) <= 1e-13


@pytest.mark.parametrize("ens, support", (((3, 6), 11), ((5, 10), 19)))
def test_profile_support_collapses_on_equal_coordinates(ens, support):
    rho = EnsembleParams(*ens).area_poly
    a = TwoPointChannel(0.05, 0.3, 0.4).channel()
    for i in (0, rho.degree // 2, rho.degree - 1):
        assert _profile(rho, H, [a] * rho.degree, i).x_pts.size == support


@pytest.mark.parametrize("tag", (E, H, B))
def test_profile_at_incumbent_equals_objective(tag):
    # the profile's pointwise kernel is the objective's, for E as for H and B
    rho = Polynomial.monomial(3)
    coords = optimizer._initial_coords(np.random.default_rng((0,)), 3, H, 0.4)
    channels = [c.channel() for c in coords]
    want = symmetrized_objective(rho, tag, channels)
    for i, c in enumerate(coords):
        p = _profile(rho, tag, channels, i)(np.array([c.eps1, c.eps2]))
        assert c.alpha * p[0] + (1.0 - c.alpha) * p[1] == pytest.approx(want, abs=1e-13)


def test_constraint_grid_is_cached_read_only_and_scalar_exact():
    eps_grid, g_vals = optimizer._constraint_grid(H, optimizer.DEFAULT_GRID)
    assert optimizer._constraint_grid(H, optimizer.DEFAULT_GRID)[1] is g_vals
    assert not eps_grid.flags.writeable and not g_vals.flags.writeable
    assert g_vals.tolist() == [h2(e) for e in np.linspace(0.0, 0.5, optimizer.DEFAULT_GRID)]


# ----------------------------------------------------------------------
# the order cut: only the subset-sum orders that reach a read order are built


def _full_add(sums, a):
    """optimizer._add before the order cut: every order up to len(sums) - 1."""
    return [sums[0]] + [
        convolution._merged_sum((sums[j], convolution._convolve(sums[j - 1], a)))
        for j in range(1, len(sums))
    ]


def _full_symmetric_sums(measures, order):
    """optimizer._symmetric_sums before the order cut: E_0 .. E_order."""
    sums = [convolution._IDENTITY] + [convolution._EMPTY] * order
    for a in measures:
        sums = _full_add(sums, a)
    return sums


CUT_RHOS = ("x^2+0.5x", "x^3", "x^5-0.75x^6", "x^9-0.875x^10")


def _random_measures(rng, d):
    channels = [random_channel(rng, max_support=2) for _ in range(d)]
    return [(1.0 - 2.0 * ch.eps, ch.w) for ch in channels]


def _same_measure(a, b):
    return a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


def _descent_sums(measures, order, add):
    """The descent's prefix and suffix sums of every coordinate, built by
    add(sums, a, n) with n the number of coordinates after the step."""
    prefixes = [_full_symmetric_sums((), order)]
    for n, a in enumerate(measures[:-1], 1):
        prefixes.append(add(prefixes[-1], a, n))
    suffixes = [prefixes[0]]
    for n, a in enumerate(reversed(measures[1:]), 1):
        suffixes.append(add(suffixes[-1], a, n))
    return prefixes, suffixes[::-1]


@pytest.mark.parametrize("rho_text", CUT_RHOS)
@pytest.mark.parametrize("extra", (0, 1, 2))
def test_order_cut_keeps_every_read_order_bit_for_bit(rho_text, extra):
    rho = poly_from_string(rho_text)
    d = rho.degree + extra
    k_low = rho.terms[0][0]
    measures = _random_measures(trial_rng(71, d, k_low), d)

    # the objective reads orders >= K of all d coordinates
    full = _full_symmetric_sums(measures, rho.degree)
    cut = optimizer._symmetric_sums(measures, rho.degree, k_low)
    for j in range(k_low, rho.degree + 1):
        assert _same_measure(cut[j], full[j]), j
    assert all(cut[j][0].size == 0 for j in range(k_low))

    # a profile reads the others' orders >= K-1: a side of n coordinates
    # keeps its orders >= (K-1) - (d-1-n) and leaves the lower ones empty
    order = min(rho.degree, d - 1)
    low = k_low - d
    full_pre, full_suf = _descent_sums(measures, order, lambda s, a, n: _full_add(s, a))
    cut_pre, cut_suf = _descent_sums(
        measures, order, lambda s, a, n: optimizer._add(s, a, low + n)
    )
    for i in range(d):
        for got, want, n in ((cut_pre[i], full_pre[i], i), (cut_suf[i], full_suf[i], d - 1 - i)):
            for j in range(order + 1):
                if j >= low + n:
                    assert _same_measure(got[j], want[j]), (i, n, j)
                else:
                    assert got[j][0].size == 0, (i, n, j)
        got = optimizer._profile_for(rho, H, d, cut_pre[i], cut_suf[i])
        want = optimizer._profile_for(rho, H, d, full_pre[i], full_suf[i])
        assert got.x_pts.tobytes() == want.x_pts.tobytes(), i
        assert got.w_pts.tobytes() == want.w_pts.tobytes(), i
        assert got.const.hex() == want.const.hex(), i


def _full_order_helpers(monkeypatch):
    monkeypatch.setattr(optimizer, "_add", lambda sums, a, low: _full_add(sums, a))
    monkeypatch.setattr(
        optimizer, "_symmetric_sums", lambda ms, order, low=0: _full_symmetric_sums(ms, order)
    )


def test_order_cut_skips_unread_orders_at_5_10(monkeypatch):
    rho = EnsembleParams(5, 10).area_poly
    measures = _random_measures(trial_rng(79), rho.degree)
    cut = optimizer._symmetric_sums(measures, rho.degree, rho.terms[0][0])
    full = _full_symmetric_sums(measures, rho.degree)
    assert all(cut[j][0].size == 0 and full[j][0].size > 0 for j in range(8))

    sizes = []
    real = convolution._convolve
    monkeypatch.setattr(
        convolution, "_convolve", lambda a, b: sizes.append(a[0].size * b[0].size) or real(a, b)
    )

    def count():
        sizes.clear()
        coordinate_descent(rho, H, 0.5, seed=0, max_sweeps=1)
        return len(sizes), sum(sizes)

    cut_calls, cut_points = count()
    _full_order_helpers(monkeypatch)
    full_calls, full_points = count()
    # the middle orders, most of the full recursion's points, are never built
    assert cut_calls < full_calls and cut_points < 0.5 * full_points, (
        cut_calls, full_calls, cut_points, full_points)


def _unskipped_add(sums, a, low):
    """optimizer._add before the empty-operand skip: every kept order convolved."""
    return [sums[0] if low <= 0 else convolution._EMPTY] + [
        convolution._merged_sum((sums[j], convolution._convolve(sums[j - 1], a)))
        if j >= low else convolution._EMPTY
        for j in range(1, len(sums))
    ]


def test_add_skips_only_empty_operand_convolutions(monkeypatch):
    operands = []
    real = convolution._convolve
    monkeypatch.setattr(
        convolution, "_convolve", lambda a, b: operands.append(a[0].size) or real(a, b)
    )
    cells = [((3, 6), 0.1, False, 0), ((3, 6), 0.5, True, 2), ((5, 10), 0.5, False, 3)]

    def run():
        operands.clear()
        results = [
            coordinate_descent(EnsembleParams(*ens).area_poly, H, h, minimize=minimize,
                               seed=seed, max_sweeps=1)
            for ens, h, minimize, seed in cells
        ]
        return results, len(operands), operands.count(0)

    skipped, calls, empty = run()
    monkeypatch.setattr(optimizer, "_add", _unskipped_add)
    unskipped, unskipped_calls, unskipped_empty = run()
    for cell, got, want in zip(cells, skipped, unskipped):
        assert repr(got.coords) == repr(want.coords), cell
        assert got.objective.hex() == want.objective.hex(), cell
        assert repr(got.trace) == repr(want.trace), cell
    # the _convolve call count falls by exactly the empty-operand products
    assert empty == 0 < unskipped_empty
    assert calls == unskipped_calls - unskipped_empty


# ----------------------------------------------------------------------
# coordinate descent


def test_descent_validates_arguments():
    rho = Polynomial.monomial(2)
    with pytest.raises(ValueError):
        coordinate_descent(rho, H, 1.5)
    for constraint, top in ((H, 1.0), (B, 1.0), (E, 0.5)):
        for target in (-0.1, top + 0.01):
            with pytest.raises(ValueError, match=f"out of range for {constraint.value}"):
                coordinate_descent(rho, B, target, constraint=constraint)
    with pytest.raises(ValueError):
        coordinate_descent(rho, H, 0.5, num_vars=1)
    with pytest.raises(ValueError):
        coordinate_descent(rho, H, 0.5, tol=0.0)


def test_descent_trace_is_monotone_and_coords_feasible():
    rho = poly_from_string("x^5-0.75x^6")
    for minimize in (True, False):
        res = coordinate_descent(rho, H, 0.35, minimize=minimize, seed=5, max_sweeps=30)
        objs = [t.objective for t in res.trace]
        if minimize:
            assert all(a >= b for a, b in zip(objs, objs[1:]))
        else:
            assert all(a <= b for a, b in zip(objs, objs[1:]))
        for c in res.coords:
            assert abs(c.constraint_value(H) - 0.35) <= 1e-10
        # the canonical objective agrees with the delta-accumulated one
        assert res.objective == pytest.approx(res.running_objective, abs=1e-10)


def test_descent_identity_objective_is_flat():
    # rho = X fixes the objective to the constraint level on the feasible set
    res = coordinate_descent(Polynomial((1.0,)), H, 0.4, seed=2, max_sweeps=10)
    assert res.objective == pytest.approx(0.4, abs=1e-10)
    assert res.converged


def test_descent_finds_bsc_minimizer_and_bec_maximizer():
    p = EnsembleParams(3, 6)
    for seed in (0, 1):
        res_min = coordinate_descent(p.area_poly, H, 0.45, minimize=True, seed=seed)
        assert res_min.verdict is Verdict.ALL_EQUAL_BSC
        res_max = coordinate_descent(p.area_poly, H, 0.45, minimize=False, seed=seed)
        assert res_max.verdict is Verdict.ALL_EQUAL_BEC


def test_descent_objective_matches_extremal_values():
    p = EnsembleParams(3, 6)
    from eicomb.convolution import phi_of_poly_convolved

    res_min = coordinate_descent(p.area_poly, H, 0.45, minimize=True, seed=3)
    want = phi_of_poly_convolved(H, p.area_poly, bsc(h2_inv(0.45)))
    assert res_min.objective == pytest.approx(want, abs=1e-9)
    res_max = coordinate_descent(p.area_poly, H, 0.45, minimize=False, seed=3)
    want = phi_of_poly_convolved(H, p.area_poly, bec(0.45))
    assert res_max.objective == pytest.approx(want, abs=1e-9)


def test_descent_supports_error_probability_constraint():
    res = coordinate_descent(
        Polynomial.monomial(2), H, 0.15, constraint=E, minimize=False, seed=1
    )
    for c in res.coords:
        assert abs(c.constraint_value(E) - 0.15) <= 1e-10
    # fixed-E maximizer of an increasing polynomial objective is the BSC
    assert res.verdict is Verdict.ALL_EQUAL_BSC


def test_descent_fixed_error_minimizer_is_bec():
    res = coordinate_descent(
        Polynomial.monomial(2), H, 0.15, constraint=E, minimize=True, seed=1
    )
    assert res.verdict is Verdict.ALL_EQUAL_BEC


@pytest.mark.parametrize("tag", [H, B])
def test_min_descents_collapse_to_the_matched_bsc(tag):
    # the BSC-minimizer question at fixed Phi, on the bound sweeps' cells: no
    # minimizing descent over tuples of two-point channels beats the matched BSC
    for rho in DEFAULT_SWEEP_RHOS:
        for level in DEFAULT_SWEEP_LEVELS:
            reference = phi_of_poly_convolved(
                tag, rho, bsc((1.0 - kernel_inv(tag, level)) / 2.0))
            for seed in range(3):
                res = coordinate_descent(rho, tag, level, constraint=tag, seed=seed)
                assert res.verdict is Verdict.ALL_EQUAL_BSC, (str(rho), level, seed)
                assert res.objective >= reference - 1e-12, (str(rho), level, seed)


def test_b_constrained_descent_at_the_top_level():
    # B = 1 leaves only the useless channel
    res = coordinate_descent(Polynomial.monomial(2), B, 1.0, constraint=B, seed=0)
    assert res.verdict is Verdict.ALL_EQUAL_BSC
    assert all(c.channel().points == bsc(0.5).points for c in res.coords)


def test_claim_cells_driver_shape():
    p = EnsembleParams(3, 6)
    cells = extremal_channel_cells(p.area_poly, [0.45], [0, 1, 2])
    assert len(cells) == 2  # one entropy, both directions
    for cell in cells:
        assert cell.seeds == 3
        assert cell.hits == 3
        assert cell.hit_fraction == 1.0


def test_claim_cells_need_a_seed():
    with pytest.raises(ValueError, match="at least one seed"):
        extremal_channel_cells(EnsembleParams(3, 6).area_poly, [0.45], [])


# ----------------------------------------------------------------------
# the coordinate search's precomputed pair table and batched finalists


def _dense_pair_table(constraint, grid, target):
    """The full grid x grid mask/where table the pair table replaces."""
    _, g_vals = optimizer._constraint_grid(constraint, grid)
    lo = g_vals[:, None]
    hi = g_vals[None, :]
    denom = hi - lo
    feasible = (lo <= target) & (target <= hi) & (denom > 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(feasible, (hi - target) / np.where(denom > 0.0, denom, 1.0), 0.0)
    return feasible, alpha


@pytest.mark.parametrize(
    "constraint, targets",
    ((H, (0.0, 1.0, 0.1, 0.45, 0.9, h2(0.2))), (E, (0.0, 0.5, 0.05, 0.2, 0.37))),
)
def test_pair_table_equals_dense_table(constraint, targets):
    grid = optimizer.DEFAULT_GRID
    for target in targets:
        p_idx, q_idx, alpha = optimizer._pair_table(constraint, grid, target)
        feasible, dense_alpha = _dense_pair_table(constraint, grid, target)
        want_p, want_q = np.nonzero(feasible)
        assert np.array_equal(p_idx, want_p) and np.array_equal(q_idx, want_q)
        assert alpha.tobytes() == dense_alpha[feasible].tobytes()
        assert optimizer._pair_table(constraint, grid, target)[2] is alpha
        assert not any(a.flags.writeable for a in (p_idx, q_idx, alpha))


def _random_profile(rng, tag, support):
    x_pts = np.sort(rng.random(support))
    w_pts = rng.normal(size=support)
    return optimizer._Profile(tag, float(rng.normal()), x_pts, w_pts)


@pytest.mark.parametrize("tag", (H, B, E))
@pytest.mark.parametrize("support", (0, 1, 2, 601, 2816))
def test_profile_pairs_equal_single_pair_calls(tag, support):
    rng = np.random.default_rng((47, support))
    profile = _random_profile(rng, tag, support)
    for k in (1, 3, 8, 16, 41):
        eps = 0.5 * rng.random((k, 2))
        eps[0] = (0.0, 0.5)
        got = profile.pairs(eps)
        assert got.shape == (k, 2)
        # one stacked matmul runs a separate 2-row product per pair, which
        # numpy does not promise; this guards it
        assert got.tobytes() == _looped_pairs(profile, eps).tobytes(), k
        for i in range(k):
            assert got[i].tobytes() == profile(eps[i]).tobytes()


def _elementwise_kernel(tag, xg, x):
    """The profile kernel matrix as the one elementwise formula it replaces."""
    return pointwise(tag, 0.5 * (1.0 - np.outer(xg, x)))


def _elementwise_call(self, eps):
    """_Profile.__call__ through the elementwise kernel."""
    xg = 1.0 - 2.0 * np.asarray(eps, dtype=float)
    if self.x_pts.size == 0:
        return np.full(xg.shape, self.const)
    return self.const + _elementwise_kernel(self.tag, xg, self.x_pts) @ self.w_pts


def _looped_pairs(self, eps, kernel=optimizer._kernel_matrix):
    """_Profile.pairs as a Python loop of 2-row products, one per pair."""
    eps = np.asarray(eps, dtype=float).reshape(-1, 2)
    if self.x_pts.size == 0:
        return np.full(eps.shape, self.const)
    vals = kernel(self.tag, 1.0 - 2.0 * eps.ravel(), self.x_pts)
    out = np.empty(eps.shape)
    for i in range(eps.shape[0]):
        out[i] = self.const + vals[2 * i : 2 * i + 2] @ self.w_pts
    return out


def _elementwise_pairs(self, eps):
    """_Profile.pairs through the elementwise kernel, one 2-row product per pair."""
    return _looped_pairs(self, eps, _elementwise_kernel)


_BLOCK = optimizer.KERNEL_BLOCK


@pytest.mark.parametrize("m", (1, 2, 300, 2816, _BLOCK - 1, _BLOCK, _BLOCK + 1))
def test_kernel_matrix_equals_elementwise_formula(m):
    rng = np.random.default_rng((61, m))
    # x = 1 against xg = 1 is the u = 0 element, where the kernel is 0
    x = rng.random(m)
    x[0] = 1.0
    if m > 1:
        x[-1] = 0.0
    xg_rows = (
        np.array([1.0]),
        np.array([0.0, 1.0]),
        np.concatenate(([1.0, 0.0], rng.random(16))),
        1.0 - 2.0 * GRID,
    )
    for xg in xg_rows:
        for tag in (H, B, E):
            got = optimizer._kernel_matrix(tag, xg, x)
            assert got.shape == (xg.size, m)
            assert got.tobytes() == _elementwise_kernel(tag, xg, x).tobytes(), (tag, xg.size)
    assert optimizer._kernel_matrix(H, np.array([1.0]), np.array([1.0]))[0, 0] == 0.0


@pytest.mark.parametrize("tag", (H, B, E))
@pytest.mark.parametrize("support", (1, 2, 17, 601, 2816))
def test_profile_grid_pass_equals_elementwise_formula(tag, support):
    rng = np.random.default_rng((67, support))
    profile = _random_profile(rng, tag, support)
    profile.x_pts[-1] = 1.0
    assert profile(GRID).tobytes() == _elementwise_call(profile, GRID).tobytes()
    eps = np.concatenate(([0.0, 0.5], 0.5 * rng.random(14)))
    assert profile.pairs(eps).tobytes() == _elementwise_pairs(profile, eps).tobytes()


# the flattest cells, the refuted cell and one mid-entropy cell per ensemble
_IDENTITY_CELLS = [((5, 10), 0.9, True, s) for s in range(3)] + [
    ((3, 6), 0.1, False, 0),
    ((3, 6), 0.1, False, 1),
    ((3, 6), 0.5, True, 2),
    ((5, 10), 0.5, False, 3),
]


def test_descent_equals_elementwise_kernel_descent(monkeypatch):
    def run():
        return [
            coordinate_descent(
                EnsembleParams(*ens).area_poly, H, h, minimize=minimize, seed=seed
            )
            for ens, h, minimize, seed in _IDENTITY_CELLS
        ]

    blocked = run()
    monkeypatch.setattr(optimizer._Profile, "__call__", _elementwise_call)
    monkeypatch.setattr(optimizer._Profile, "pairs", _elementwise_pairs)
    elementwise = run()
    for cell, got, want in zip(_IDENTITY_CELLS, blocked, elementwise):
        assert repr(got.coords) == repr(want.coords), cell
        assert repr(got.objective) == repr(want.objective), cell
        assert repr(got.running_objective) == repr(want.running_objective), cell
        assert (got.sweeps, got.verdict) == (want.sweeps, want.verdict), cell
        assert repr(got.trace) == repr(want.trace), cell


def test_descent_equals_full_order_descent(monkeypatch):
    def run():
        descents = [
            coordinate_descent(
                EnsembleParams(*ens).area_poly, H, h, minimize=minimize, seed=seed
            )
            for ens, h, minimize, seed in _IDENTITY_CELLS
        ]
        objectives = []
        for t in range(20):
            rng = trial_rng(83, t)
            rho = poly_from_string(CUT_RHOS[t % len(CUT_RHOS)])
            d = rho.degree + t % 3
            channels = [random_channel(rng, max_support=2) for _ in range(d)]
            objectives.append(symmetrized_objective(rho, (H, B, E)[t % 3], channels).hex())
        return descents, objectives

    cut_descents, cut_objectives = run()
    _full_order_helpers(monkeypatch)
    full_descents, full_objectives = run()
    assert cut_objectives == full_objectives
    for cell, got, want in zip(_IDENTITY_CELLS, cut_descents, full_descents):
        assert repr(got.coords) == repr(want.coords), cell
        assert got.objective.hex() == want.objective.hex(), cell
        assert got.running_objective.hex() == want.running_objective.hex(), cell
        assert (got.sweeps, got.verdict) == (want.sweeps, want.verdict), cell
        assert repr(got.trace) == repr(want.trace), cell


def _dense_best_coordinate(profile, constraint, target, current, grid, refine_passes, minimize):
    """best_coordinate before the pair table: dense grid, one kernel pass per finalist."""
    g = optimizer._CONSTRAINTS[constraint].value
    sign = 1.0 if minimize else -1.0

    def pair_value(e1, e2):
        if e1 > e2:
            e1, e2 = e2, e1
        g1, g2 = g(e1), g(e2)
        if g1 - optimizer.CONSTRAINT_TOL > target or g2 + optimizer.CONSTRAINT_TOL < target:
            return None
        if g2 - g1 < 1e-15:
            if abs(g1 - target) > optimizer.CONSTRAINT_TOL:
                return None
            alpha = 1.0
        else:
            alpha = min(1.0, max(0.0, (g2 - target) / (g2 - g1)))
        p = profile(np.array([e1, e2]))
        return alpha, alpha * float(p[0]) + (1.0 - alpha) * float(p[1])

    eps_grid, _ = optimizer._constraint_grid(constraint, grid)
    prof = profile(eps_grid) - profile.const
    feasible, alpha = _dense_pair_table(constraint, grid, target)
    vals = alpha * prof[:, None] + (1.0 - alpha) * prof[None, :] + profile.const
    vals = np.where(feasible, sign * vals, math.inf)
    p, q = divmod(int(np.argmin(vals)), grid)
    finalists = []

    def consider(e1, e2):
        got = pair_value(e1, e2)
        if got is not None:
            e1, e2 = min(e1, e2), max(e1, e2)
            finalists.append((sign * got[1], e1 - e2, e1, e2, got[0]))

    def chosen():
        cutoff = min(f[0] for f in finalists) + optimizer.TIE_BAND
        return min((f for f in finalists if f[0] <= cutoff), key=lambda f: f[1:])

    consider(float(current.eps1), float(current.eps2))
    eps_star = optimizer._CONSTRAINTS[constraint].inverse(target)
    consider(eps_star, eps_star)
    consider(0.0, 0.5)
    if math.isfinite(vals[p, q]):
        consider(float(eps_grid[p]), float(eps_grid[q]))
        step = 0.5 / (grid - 1)
        for _ in range(refine_passes):
            step *= 0.5
            _, _, e1, e2, _ = chosen()
            for u in (e1 - step, e1, e1 + step):
                for v in (e2 - step, e2, e2 + step):
                    if 0.0 <= u <= 0.5 and 0.0 <= v <= 0.5 and (u, v) != (e1, e2):
                        consider(u, v)
    obj_signed, _, e1, e2, a = chosen()
    return TwoPointChannel(e1, e2, a), sign * obj_signed


@pytest.mark.parametrize("ens", ((3, 6), (5, 10)))
@pytest.mark.parametrize("constraint, target", ((H, 0.1), (H, 0.9), (H, 0.45), (E, 0.2)))
def test_best_coordinate_equals_dense_search(ens, constraint, target):
    rho = EnsembleParams(*ens).area_poly
    d = rho.degree
    rng = np.random.default_rng((53, d, int(1000 * target)))
    coords = optimizer._initial_coords(rng, d, constraint, target)
    # the matched BEC as every other coordinate puts the profile on a flat face
    bec_mass = 1.0 - (target if constraint is H else 2.0 * target)
    flat = [TwoPointChannel(0.0, 0.5, bec_mass)] * d
    for start in (coords, flat):
        channels = [c.channel() for c in start]
        for i in (0, d - 1):
            profile = _profile(rho, H, channels, i)
            for minimize in (True, False):
                for grid in (optimizer.MIN_GRID, optimizer.DEFAULT_GRID):
                    args = (profile, constraint, target, coords[i], grid, 4, minimize)
                    got = optimizer.best_coordinate(*args)
                    want = _dense_best_coordinate(*args)
                    assert repr(got) == repr(want)


def test_pair_values_skip_infeasible_and_match_profile():
    rho = Polynomial.monomial(3)
    coords = optimizer._initial_coords(np.random.default_rng((0,)), 3, H, 0.4)
    profile = _profile(rho, H, [c.channel() for c in coords], 0)
    c = coords[0]
    got = optimizer._pair_values(profile, h2, 0.4, [(0.0, 0.05), (c.eps2, c.eps1), (0.2, 0.2)])
    assert len(got) == 1
    e1, e2, alpha, value = got[0]
    p = profile(np.array([c.eps1, c.eps2]))
    assert (e1, e2) == (c.eps1, c.eps2)
    assert alpha == optimizer._pair_alpha(h2, 0.4, c.eps1, c.eps2)
    assert value == alpha * float(p[0]) + (1.0 - alpha) * float(p[1])


def test_descent_scores_each_pair_once_per_profile(monkeypatch):
    # the incumbent competes in best_coordinate, so coordinate_descent reads
    # its value back instead of a second kernel pass over the same pair
    scored = {}
    calls = []
    original = optimizer._Profile.pairs

    def pairs(self, eps):
        seen = scored.setdefault(id(self), [])
        seen.extend(map(tuple, np.asarray(eps).reshape(-1, 2).tolist()))
        calls.append(id(self))
        return original(self, eps)

    monkeypatch.setattr(optimizer._Profile, "pairs", pairs)
    profiles = []
    monkeypatch.setattr(optimizer, "_profile_for",
                        lambda *a, _f=optimizer._profile_for: profiles.append(_f(*a)) or profiles[-1])
    rho = EnsembleParams(3, 6).area_poly
    res = coordinate_descent(rho, H, 0.4, minimize=False, seed=2)
    assert len(profiles) == res.sweeps * rho.degree
    for key, pairs_seen in scored.items():
        assert len(pairs_seen) == len(set(pairs_seen))
    # one pass for the first round, one per refinement ring at most
    assert len(calls) <= len(profiles) * (1 + optimizer.DEFAULT_REFINE_PASSES)


def _masked_h2_vec(x):
    """h2_vec as it was: fancy-indexed evaluation of the open interval only."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return out


def test_h2_vec_equals_masked_form_on_edge_inputs():
    edges = [0.0, -0.0, 1.0, math.nan, -0.5, 1.5, math.inf, -math.inf, 5e-324, 1e-300,
             0.5, 0.3, 1.0 - 2.0**-53, 2.0**-53]
    rng = np.random.default_rng(59)
    inputs = [np.array(edges), np.array(edges).reshape(2, 7), rng.random((256, 37)),
              rng.random(1), np.empty(0)] + [np.float64(e) for e in edges] + edges
    for x in inputs:
        got, want = h2_vec(x), _masked_h2_vec(x)
        assert type(got) is type(want) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


REFERENCE_PATH = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def test_descent_matches_benchmark_reference_on_flat_and_mixed_cells():
    # The flattest cells, (5,10) h=0.9 min, and the cell whose maximizer is
    # not the BEC, (3,6) h=0.1 max: the cells where finalist-evaluation dust
    # would move a verdict or an objective.
    reference = json.loads(REFERENCE_PATH.read_text())
    tol = reference["tolerance"]
    cells = reference["descent"]["cells"]
    keys = [k for k in cells if k.startswith("5,10|0.9|min|")] + ["3,6|0.1|max|0"]
    assert len(keys) == 21
    for key in keys:
        ens, h, direction, seed = key.split("|")
        res = coordinate_descent(
            EnsembleParams(*map(int, ens.split(","))).area_poly,
            H,
            float(h),
            minimize=direction == "min",
            seed=int(seed),
        )
        want_verdict, want_objective = cells[key]
        assert res.verdict.value == want_verdict, key
        slack = tol["atol"] + tol["rtol"] * abs(want_objective)
        assert abs(res.objective - want_objective) <= slack, key


def test_descent_solves_its_matched_crossover_once(monkeypatch):
    calls = []
    real = optimizer.best_coordinate
    monkeypatch.setattr(
        optimizer, "best_coordinate", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    h2_inv.cache_clear()
    coordinate_descent(Polynomial.monomial(3), H, 0.37, seed=1, max_sweeps=2)
    info = h2_inv.cache_info()
    # the first solve is the only bisection; every best_coordinate re-solve hits
    assert info.misses == 1
    assert len(calls) >= 3 and info.hits >= len(calls)


def test_best_coordinate_evaluates_the_constraint_once_per_eps(monkeypatch):
    rho = EnsembleParams(3, 6).area_poly
    coords = optimizer._initial_coords(np.random.default_rng((0,)), rho.degree, H, 0.4)
    profile = _profile(rho, H, [c.channel() for c in coords], 0)
    optimizer._constraint_grid(H, optimizer.DEFAULT_GRID)  # built before counting
    calls = []
    monkeypatch.setattr(optimizer, "h2", lambda e: calls.append(e) or h2(e))
    counts = []
    for passes in range(optimizer.DEFAULT_REFINE_PASSES + 1):
        calls.clear()
        optimizer.best_coordinate(profile, H, 0.4, coords[0], refine_passes=passes)
        assert len(calls) == len(set(calls)), passes
        counts.append(len(calls))
    # four first-round pairs, then a ring of 8 pairs over at most 6 eps values
    assert counts[0] <= 8
    assert all(b - a <= 6 for a, b in zip(counts, counts[1:])), counts


# ----------------------------------------------------------------------
# one solve per distinct coordinate subproblem


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_descent_rejects_a_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol finite and positive"):
        coordinate_descent(Polynomial.monomial(3), H, 0.4, tol=tol, max_sweeps=5)


def _unmemoized_descent(rho, tag, target, *, constraint=H, num_vars=None, minimize=True,
                        seed=0, grid=optimizer.DEFAULT_GRID, max_sweeps=60, tol=1e-13):
    """coordinate_descent before the subproblem memo: every coordinate of
    every sweep runs best_coordinate and reads its incumbent's value."""
    d = rho.degree if num_vars is None else num_vars
    order = min(rho.degree, d - 1)
    low = rho.terms[0][0] - d
    rng = np.random.default_rng((seed,))
    coords = optimizer._initial_coords(rng, d, constraint, target)
    running = symmetrized_objective(rho, tag, [c.channel() for c in coords])
    g = optimizer._CONSTRAINTS[constraint].value
    trace = [optimizer.SweepTrace(0, running, tuple(coords))]
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        improvement = 0.0
        prefix = optimizer._symmetric_sums((), order)
        suffixes = [prefix]
        for n, c in enumerate(reversed(coords[1:]), 1):
            suffixes.append(optimizer._add(suffixes[-1], c.measure(), low + n))
        suffixes.reverse()
        for i in range(d):
            profile = optimizer._profile_for(rho, tag, d, prefix, suffixes[i])
            new_coord, after = optimizer.best_coordinate(
                profile, constraint, target, coords[i], grid=grid, minimize=minimize
            )
            before = optimizer._pair_values(
                profile, g, target, [(coords[i].eps1, coords[i].eps2)]
            )[0][3]
            delta = max(0.0, before - after if minimize else after - before)
            if new_coord != coords[i]:
                coords[i] = new_coord
            if delta > 0.0:
                running = running - delta if minimize else running + delta
                improvement += delta
            if i < d - 1:
                prefix = optimizer._add(prefix, coords[i].measure(), low + i + 1)
        trace.append(optimizer.SweepTrace(sweep, running, tuple(coords)))
        if improvement < tol:
            converged = True
            break
    return optimizer.DescentResult(
        coords=tuple(coords),
        objective=symmetrized_objective(rho, tag, [c.channel() for c in coords]),
        running_objective=running,
        sweeps=sweeps,
        converged=converged,
        verdict=optimizer._classify(coords, constraint, target),
        trace=tuple(trace),
        seed=seed,
    )


def _bits(res):
    """Every float of a descent result by its bit pattern, with the rest."""

    def coords(cs):
        return [(c.eps1.hex(), c.eps2.hex(), c.alpha.hex()) for c in cs]

    return (
        coords(res.coords),
        res.objective.hex(),
        res.running_objective.hex(),
        [(t.sweep, t.objective.hex(), coords(t.coords)) for t in res.trace],
        res.sweeps,
        res.converged,
        res.verdict,
    )


_MEMO_CELLS = [
    (EnsembleParams(*ens).area_poly, H, h, dict(minimize=minimize, seed=seed))
    for ens in ((3, 6), (5, 10))
    for h in (0.1, 0.5, 0.9)
    for minimize in (True, False)
    for seed in (0, 7)
] + [
    (Polynomial.monomial(2), H, 0.15, dict(constraint=E, minimize=False, seed=1)),
    (poly_from_string("x^2+0.5x"), B, 0.3, dict(num_vars=4, minimize=True, seed=4)),
]


@pytest.mark.parametrize("rho, tag, target, kw", _MEMO_CELLS)
def test_memoized_descent_equals_unmemoized_descent(rho, tag, target, kw):
    assert _bits(coordinate_descent(rho, tag, target, **kw)) == _bits(
        _unmemoized_descent(rho, tag, target, **kw)
    )


def _subproblem(profile, current):
    return (profile.const.hex(), profile.x_pts.tobytes(), profile.w_pts.tobytes(),
            current.eps1.hex(), current.eps2.hex(), current.alpha.hex())


def _spied_descent(monkeypatch, rho, h, minimize, nudge=None):
    """A descent with its best_coordinate calls and profiles recorded; with
    nudge, every other profile has that field scaled by 1 - 2**-40."""
    solved, profiles = [], []
    real_best, real_profile = optimizer.best_coordinate, optimizer._profile_for

    def best(profile, constraint, target, current, **kw):
        solved.append(_subproblem(profile, current))
        return real_best(profile, constraint, target, current, **kw)

    def profile_for(*args):
        profile = real_profile(*args)
        profiles.append(profile)
        if nudge and len(profiles) % 2 == 0:
            setattr(profile, nudge, getattr(profile, nudge) * (1.0 - 2.0**-40))
        return profile

    with monkeypatch.context() as m:
        m.setattr(optimizer, "best_coordinate", best)
        m.setattr(optimizer, "_profile_for", profile_for)
        res = coordinate_descent(rho, H, h, minimize=minimize, seed=0)
    # coordinate i's incumbent in sweep s is its value after sweep s - 1
    d = len(res.coords)
    subproblems = [
        _subproblem(profile, res.trace[n // d].coords[n % d])
        for n, profile in enumerate(profiles)
    ]
    return res, solved, subproblems


@pytest.mark.parametrize("ens, h, minimize", [((3, 6), 0.5, True), ((5, 10), 0.9, False),
                                              ((3, 6), 0.1, False)])
def test_descent_solves_each_distinct_subproblem_once(monkeypatch, ens, h, minimize):
    rho = EnsembleParams(*ens).area_poly
    res, solved, subproblems = _spied_descent(monkeypatch, rho, h, minimize)
    assert len(subproblems) == res.sweeps * rho.degree
    assert solved == list(dict.fromkeys(subproblems))
    if (ens, h) == ((3, 6), 0.5):
        # the coordinates collapse onto the matched BSC in the first sweep,
        # so the confirming sweep repeats solved subproblems
        assert res.verdict is Verdict.ALL_EQUAL_BSC
        assert len(solved) < len(subproblems)


@pytest.mark.parametrize("field", ["const", "x_pts", "w_pts"])
def test_subproblems_that_differ_in_one_field_are_solved_apart(monkeypatch, field):
    # With every other profile nudged in one field, the confirming sweep's
    # neighbours on a collapsing cell differ in that field alone, and each
    # must be solved, not read back from the other's solve.
    rho = EnsembleParams(3, 6).area_poly
    res, solved, subproblems = _spied_descent(monkeypatch, rho, 0.5, True, nudge=field)
    assert solved == list(dict.fromkeys(subproblems))
    assert len(solved) > len(_spied_descent(monkeypatch, rho, 0.5, True)[1])
