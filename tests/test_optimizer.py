import math
from itertools import combinations

import numpy as np
import pytest

from eicomb import optimizer
from eicomb.area import EnsembleParams
from eicomb.bounds import random_channel, trial_rng
from eicomb.channel import bec, bsc, channel
from eicomb.convolution import check_convolve
from eicomb.functionals import Functional, evaluate, h2, h2_inv, h2_vec
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
# coordinate descent


def test_descent_validates_arguments():
    rho = Polynomial.monomial(2)
    with pytest.raises(ValueError):
        coordinate_descent(rho, H, 1.5)
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


def test_claim_cells_driver_shape():
    p = EnsembleParams(3, 6)
    cells = extremal_channel_cells(p.area_poly, [0.45], [0, 1, 2])
    assert len(cells) == 2  # one entropy, both directions
    for cell in cells:
        assert cell.seeds == 3
        assert cell.hits == 3
        assert cell.hit_fraction == 1.0
