import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_lp_coupling, kr_dual_check, norm_cost_matrix
from robustdp.measures import (
    DiscreteMeasure,
    LocalSpace,
    _choice_indices,
    cost_matrix,
    moment,
    optimal_coupling,
    w_q_discrete,
)


def dirac(x):
    return DiscreteMeasure.dirac(np.atleast_1d(x))


def random_measure(rng, d, max_atoms=5):
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-2, 2, size=(n, d))
    w = rng.dirichlet(np.ones(n))
    return DiscreteMeasure(pts, w)


# -- construction invariants -------------------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        DiscreteMeasure([[0.0], [1.0]], [0.6, 0.6])


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure([[0.0], [1.0]], [1.2, -0.2])


@pytest.mark.parametrize("support, weights", [
    ([[0.0], [1.0]], [float("nan"), 0.5]),
    ([[0.0], [1.0]], [float("inf"), 0.5]),
    ([[float("nan")], [1.0]], [0.5, 0.5]),
    ([[float("-inf")], [1.0]], [0.5, 0.5]),
])
def test_non_finite_weight_or_support_rejected(support, weights):
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(support, weights)


def test_support_outside_local_space_rejected():
    space = LocalSpace(1, 0.5)
    with pytest.raises(ValueError):
        DiscreteMeasure([[0.9]], [1.0], space=space)


def test_support_error_names_the_first_atom_outside():
    space = LocalSpace(2, 0.5)
    pts = [[0.1, 0.2], [0.5 + 1e-10, -0.5], [0.1, 0.7], [0.9, 0.0]]
    message = f"support point {np.array([0.1, 0.7])} outside local space"
    with pytest.raises(ValueError, match=re.escape(message)):
        DiscreteMeasure(pts, np.full(4, 0.25), space=space)
    # atoms within the 1e-9 tolerance of the box are inside
    assert DiscreteMeasure(pts[:2], [0.5, 0.5], space=space).n_atoms == 2


def test_dimension_mismatch_rejected():
    mu = dirac([0.0])
    nu = DiscreteMeasure.dirac([0.0, 0.0])
    with pytest.raises(ValueError):
        w_q_discrete(mu, nu, 1)
    with pytest.raises(ValueError):
        optimal_coupling(mu, nu, 1)


def test_bad_order_rejected():
    mu = dirac(0.0)
    with pytest.raises(ValueError):
        w_q_discrete(mu, mu, 0)


# -- 1-d quantile coupling ---------------------------------------------------


def test_identical_measures_zero_distance():
    mu = dirac(0.0)
    assert w_q_discrete(mu, mu, 1) == 0.0


def test_single_atom_transport():
    assert w_q_discrete(dirac(0.0), dirac(3.0), 1) == pytest.approx(3.0, abs=1e-12)


def brute_force_two_by_two(xs, ys, wx, wy, q):
    # all couplings of a 2x2 instance are parameterized by one mass s
    lo = max(0.0, wx[0] + wy[0] - 1.0)
    hi = min(wx[0], wy[0])
    best = np.inf
    for s in np.linspace(lo, hi, 20001):
        plan = np.array(
            [[s, wx[0] - s], [wy[0] - s, wx[1] - wy[0] + s]]
        )
        cost = sum(
            plan[i, j] * abs(xs[i] - ys[j]) ** q
            for i in range(2)
            for j in range(2)
        )
        best = min(best, cost)
    return best ** (1.0 / q)


def test_two_atom_pair_against_coupling_enumeration():
    mu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[1.0], [3.0]], [0.5, 0.5])
    oracle = brute_force_two_by_two([0, 2], [1, 3], [0.5, 0.5], [0.5, 0.5], 1)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    assert w_q_discrete(mu, nu, 1) == pytest.approx(1.0, abs=1e-12)


# -- transport LP ------------------------------------------------------------


def test_euclidean_shift_of_diracs():
    mu = DiscreteMeasure.dirac([0.0, 0.0])
    nu = DiscreteMeasure.dirac([3.0, 4.0])
    assert w_q_discrete(mu, nu, 2) == pytest.approx(5.0, abs=1e-12)


def test_lp_matches_assignment_enumeration_in_2d():
    # uniform 5-atom measures: extreme couplings are permutation matrices,
    # so exhaustive vertex enumeration is a min over 120 assignments
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(-1, 1, size=(5, 2))
        b = rng.uniform(-1, 1, size=(5, 2))
        mu = DiscreteMeasure.empirical(a)
        nu = DiscreteMeasure.empirical(b)
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
        oracle = min(
            sum(cost[i, p[i]] for i in range(5)) / 5.0
            for p in itertools.permutations(range(5))
        )
        assert w_q_discrete(mu, nu, 1) == pytest.approx(oracle, abs=1e-9)


def test_coupling_marginals():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    plan, _ = optimal_coupling(mu, nu, 2)
    assert np.allclose(plan.sum(axis=1), mu.weights, atol=1e-9)
    assert np.allclose(plan.sum(axis=0), nu.weights, atol=1e-9)


# -- Kantorovich-Rubinstein dual ---------------------------------------------


def test_kr_dual_trivial_cases():
    mu = dirac(0.0)
    assert kr_dual_check(mu, mu) == pytest.approx(0.0, abs=1e-9)
    assert kr_dual_check(dirac(0.0), dirac(3.0)) == pytest.approx(3.0, abs=1e-9)


def test_kr_dual_matches_primal_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mu = random_measure(rng, 2, max_atoms=4)
        nu = random_measure(rng, 2, max_atoms=4)
        assert kr_dual_check(mu, nu) == pytest.approx(
            w_q_discrete(mu, nu, 1), abs=1e-9
        )


# -- moments -------------------------------------------------------------


def test_moment_zero_is_one():
    rng = np.random.default_rng(0)
    assert moment(random_measure(rng, 3), 0) == 1.0


def test_moment_hand_values():
    mu = DiscreteMeasure([[1.0], [3.0]], [0.5, 0.5])
    assert moment(mu, 2) == pytest.approx(5.0, abs=1e-12)
    units = DiscreteMeasure(
        [[1, 0], [-1, 0], [0, 1], [0, -1]], [0.25] * 4
    )
    assert moment(units, 1) == pytest.approx(1.0, abs=1e-12)


# -- metric axioms and order monotonicity -------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    mu, nu, rho = (random_measure(rng, d, 4) for _ in range(3))
    dxy = w_q_discrete(mu, nu, 1)
    dyx = w_q_discrete(nu, mu, 1)
    assert dxy == pytest.approx(dyx, abs=1e-9)
    assert dxy >= -1e-12
    assert w_q_discrete(mu, mu, 1) == pytest.approx(0.0, abs=1e-9)
    assert dxy <= w_q_discrete(mu, rho, 1) + w_q_discrete(rho, nu, 1) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_w1_below_w2(seed):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    assert w_q_discrete(mu, nu, 1) <= w_q_discrete(mu, nu, 2) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2))
def test_quantile_coupling_matches_lp_in_1d(seed, q):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng, 1)
    nu = random_measure(rng, 1)
    assert w_q_discrete(mu, nu, q) == pytest.approx(
        dense_lp_coupling(mu, nu, q)[1], abs=1e-9
    )


def test_quantile_tie_break_invariance():
    # duplicated support values in different orders give the same cost
    mu1 = DiscreteMeasure([[0.0], [0.0], [1.0]], [0.25, 0.25, 0.5])
    mu2 = DiscreteMeasure([[1.0], [0.0], [0.0]], [0.5, 0.25, 0.25])
    nu = DiscreteMeasure([[0.5], [2.0]], [0.7, 0.3])
    assert w_q_discrete(mu1, nu, 1) == pytest.approx(
        w_q_discrete(mu2, nu, 1), abs=1e-12
    )


# -- optimal_coupling against the dense LP -------------------------------------


def tied_measure(rng, d, max_atoms=6):
    """Supports rounded to 2 decimals, so atoms tie within and across
    measures; some weights are zero."""
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.dirichlet(np.ones(n)) * (rng.uniform(size=n) > 0.2)
    if w.sum() == 0.0:
        w[0] = 1.0
    return DiscreteMeasure(np.round(rng.uniform(-1, 1, (n, d)), 2), w / w.sum())


def plan_cost(plan, mu, nu, q):
    diff = mu.support[:, None, :] - nu.support[None, :, :]
    return float((plan * np.linalg.norm(diff, axis=-1) ** q).sum())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
def test_plan_marginals_equal_weights(seed, d, q):
    rng = np.random.default_rng(seed)
    mu, nu = tied_measure(rng, d), tied_measure(rng, d)
    plan, _ = optimal_coupling(mu, nu, q)
    assert plan.shape == (mu.n_atoms, nu.n_atoms) and plan.min() >= 0.0
    assert np.max(np.abs(plan.sum(axis=1) - mu.weights)) <= 1e-12
    assert np.max(np.abs(plan.sum(axis=0) - nu.weights)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_1d_plan_cost_equals_lp_optimum(seed, q):
    rng = np.random.default_rng(seed)
    mu, nu = tied_measure(rng, 1, 12), tied_measure(rng, 1, 12)
    plan, dist = optimal_coupling(mu, nu, q)
    oracle_plan, _ = dense_lp_coupling(mu, nu, q)
    cost = plan_cost(plan, mu, nu, q)
    assert abs(cost - plan_cost(oracle_plan, mu, nu, q)) <= 1e-12
    assert dist == cost ** (1.0 / q)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
def test_triangle_inequality(seed, d, q):
    rng = np.random.default_rng(seed)
    mu, nu, rho = (tied_measure(rng, d, 5) for _ in range(3))
    tol = 1e-12 if d == 1 else 1e-9
    assert w_q_discrete(mu, nu, q) <= (
        w_q_discrete(mu, rho, q) + w_q_discrete(rho, nu, q) + tol
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 3))
def test_sparse_lp_cost_equals_dense_lp(seed, d, q):
    rng = np.random.default_rng(seed)
    mu, nu = tied_measure(rng, d), tied_measure(rng, d)
    plan, _ = optimal_coupling(mu, nu, q)
    oracle_plan, _ = dense_lp_coupling(mu, nu, q)
    assert abs(
        plan_cost(plan, mu, nu, q) - plan_cost(oracle_plan, mu, nu, q)
    ) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]), st.integers(1, 3),
       st.integers(0, 2), st.booleans())
def test_cost_matrix_equals_norm_bit_for_bit(seed, q, d, n_lead, lattice):
    # the d = 1 path takes |x - z| with no norm; every d must give the
    # norm expression's bits, with leading batch axes on x alone or on both,
    # and with points equal to grid points (zero differences)
    rng = np.random.default_rng(seed)
    lead = tuple(int(k) for k in rng.integers(1, 4, size=n_lead))
    m, n = (int(k) for k in rng.integers(1, 9, size=2))
    if lattice:
        x, z = rng.integers(-2, 3, lead + (m, d)) / 4.0, rng.integers(-2, 3, (n, d)) / 4.0
    else:
        x, z = rng.uniform(-1, 1, lead + (m, d)), rng.uniform(-1, 1, (n, d))
    x[..., 0, :] = z[0]
    for zz in (z, np.broadcast_to(z, lead + z.shape)):
        got = cost_matrix(x, zz, q)
        assert got.shape == lead + (m, n)
        assert got.tobytes() == norm_cost_matrix(x, zz, q).tobytes()


def test_choice_indices_at_cdf_boundaries():
    # a draw starts at its bucket's guess and steps against the cdf; draws
    # on, just below and just above every cdf value, every k/n and every
    # bucket midpoint must land where the search of rng.choice puts them,
    # for uniform weights and for weights with exact zeros (atoms never drawn)
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        w = rng.dirichlet(np.ones(n))
        w[rng.random(n) < 0.3] = 0.0
        w[int(rng.integers(n))] += 1.0
        for weights in (np.full(n, 1.0 / n), w / w.sum()):
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            edges = np.concatenate([cdf, np.arange(n + 1) / n, (np.arange(n) + 0.5) / n, [0.0]])
            u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
            u = u[(u >= 0.0) & (u < 1.0)]
            got = _choice_indices(weights, u)
            assert np.array_equal(got, cdf.searchsorted(u, "right")), n
            assert np.all(weights[got] > 0.0)
