import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import norm

from conftest import kernel_weighted_weights_loop
from robustdp import ambiguity as amb
from robustdp.measures import (
    DiscreteMeasure,
    LocalSpace,
    optimal_coupling,
    w_q_discrete,
)


# -- reference kernels ---------------------------------------------------------


def test_kernel_weighted_single_window():
    kw = amb.KernelWeighted(np.array([[0.1], [0.2]]), beta=500.0)
    m = kw(np.array([[0.05]]))
    assert m.n_atoms == 1
    assert m.support[0, 0] == pytest.approx(0.2)
    assert m.weights[0] == pytest.approx(1.0)


def test_kernel_weighted_equidistant_windows_split_evenly():
    hist = np.array([[0.0], [1.0], [2.0], [1.0]])
    kw = amb.KernelWeighted(hist, beta=50.0)
    # windows for s=1..3 are [0],[1],[2]; path [1] is equidistant to [0],[2]
    m = kw(np.array([[1.0]]))
    assert m.weights[1] > m.weights[0]
    assert m.weights[0] == pytest.approx(m.weights[2], abs=1e-12)


def test_kernel_weighted_requires_room():
    kw = amb.KernelWeighted(np.array([[0.1], [0.2]]), beta=1.0)
    with pytest.raises(ValueError):
        kw(np.array([[0.1], [0.2]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(0, 4),
       st.sampled_from([1.0, 50.0, 500.0, 5000.0]))
def test_kernel_weighted_weights_equal_the_window_loop(seed, d, t, beta):
    # every row of the batched softmax, bit for bit, and the measure's
    # weights at one path
    rng = np.random.default_rng(seed)
    kw = amb.KernelWeighted(rng.uniform(-0.1, 0.1, (t + int(rng.integers(1, 12)), d)), beta)
    paths = rng.uniform(-0.1, 0.1, (int(rng.integers(1, 6)), t, d))
    got = kw.weights(paths)
    assert got.shape == (len(paths), kw.history.shape[0] - t)
    for row, path in zip(got, paths):
        assert row.tobytes() == kernel_weighted_weights_loop(kw, path).tobytes()
    assert np.array_equal(kw(paths[0]).weights, got[0] / got[0].sum())


def test_adaptive_uniform_at_time_zero():
    ad = amb.AdaptiveEmpirical(np.array([[0.1], [0.2], [0.3]]))
    m = ad(np.zeros((0, 1)))
    assert np.allclose(m.weights, 1.0 / 3.0)


def test_adaptive_mixes_in_observed_path():
    ad = amb.AdaptiveEmpirical(np.array([[0.1], [0.2], [0.3]]))
    m = ad(np.array([[0.5], [0.6]]))
    assert m.n_atoms == 5
    assert np.allclose(m.weights, 0.2)
    assert m.support[-1, 0] == pytest.approx(0.6)


# -- radius schedules -----------------------------------------------------------


def test_adaptive_radius_sqrt_scaling():
    r1 = amb.adaptive_radius_1d(0.9, 100, n_paths=2000, n_steps=100)
    r2 = amb.adaptive_radius_1d(0.9, 400, n_paths=2000, n_steps=100)
    assert r1 == pytest.approx(2.0 * r2, rel=1e-12)


def test_adaptive_radius_quantile_level_check():
    with pytest.raises(ValueError):
        amb.adaptive_radius_1d(1.2, 10)


def _multidim_reference(d, C, n, alpha):
    # independent scalar-arithmetic re-evaluation of the covering bound
    h = -(-d // 2)  # ceil
    diam = 2 * C * d**0.5
    g = diam / (n ** (1.0 / (2 * h)) - 1.0)
    half = C * d**0.5 / 2
    acc = (half - g) + math.log(half / g) * diam * h
    for k in range(2, h + 1):
        binom = math.factorial(h) // (math.factorial(k) * math.factorial(h - k))
        acc += binom * diam**k * (half ** (1 - k) - g ** (1 - k)) / (1 - k)
    return 64.0 / (3 * alpha) * (g + acc / n**0.5)


def test_multidim_radius_matches_independent_arithmetic():
    for d, C, n in [(2, 0.1, 300), (5, 0.07, 2520), (4, 0.2, 50)]:
        assert amb.adaptive_radius_multidim(d, C, n) == pytest.approx(
            _multidim_reference(d, C, n, 0.9), abs=1e-12
        )


def test_multidim_radius_prefactor_is_64_over_2_7():
    # at alpha = 0.9 the prefactor 64/(3 alpha) equals 64/2.7
    v1 = amb.adaptive_radius_multidim(3, 0.1, 100, alpha=0.9)
    v2 = _multidim_reference(3, 0.1, 100, 0.9)
    assert v1 == pytest.approx(v2, rel=1e-15)
    assert 64.0 / (3 * 0.9) == pytest.approx(64.0 / 2.7)


def test_multidim_radius_monotone_in_history():
    # sampled inside the regime where the covering radius gamma* sits below
    # the integration limit C*sqrt(d)/2, i.e. (N+t)^(1/(2*ceil(d/2))) > 5
    vals = [amb.adaptive_radius_multidim(2, 0.1, n) for n in (30, 100, 1000, 10_000)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    vals5 = [amb.adaptive_radius_multidim(5, 0.1, n) for n in (20_000, 50_000, 200_000)]
    assert all(a >= b for a, b in zip(vals5, vals5[1:]))


def test_multidim_radius_degenerate_history_errors():
    with pytest.raises(ValueError):
        amb.adaptive_radius_multidim(4, 0.1, 1)


# -- parametric families ---------------------------------------------------------


def test_normal_w2_closed_form_1d():
    f = amb.NormalDiagFamily(1)
    assert f.distance([0.0, 1.0], [0.0, 2.0], 2) == pytest.approx(1.0)


def test_normal_w2_against_quantile_integral():
    # 1-d oracle: W_2^2 = int_0^1 (F1^{-1} - F2^{-1})^2 du
    f = amb.NormalDiagFamily(1)
    cases = [((0.3, 0.8), (-0.2, 1.4)), ((0.0, 1.0), (0.5, 1.0)), ((1.0, 0.5), (1.0, 2.0))]
    for (m1, s1), (m2, s2) in cases:
        integrand = lambda u: ((m1 + s1 * norm.ppf(u)) - (m2 + s2 * norm.ppf(u))) ** 2
        val, _ = quad(integrand, 0.0, 1.0, limit=200)
        assert f.distance([m1, s1], [m2, s2], 2) == pytest.approx(
            math.sqrt(val), abs=1e-4
        )


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_ndtri_is_norm_ppf_bit_for_bit(u):
    # discretize relies on ndtri computing exactly what norm.ppf computes
    assert ndtri(u).tobytes() == norm.ppf(u).tobytes()


@pytest.mark.parametrize("theta", [[0.0, 1.0], [0.1, -0.3, 0.8, 1.7]])
def test_normal_discretize_is_norm_ppf_grid(theta):
    d = len(theta) // 2
    u = (np.arange(31) + 0.5) / 31
    axes = [theta[j] + theta[d + j] * norm.ppf(u) for j in range(d)]
    want = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    got = amb.NormalDiagFamily(d).discretize(theta)
    assert got.support.tobytes() == want.tobytes()
    assert np.array_equal(got.theta, theta)


def test_normal_unsupported_order_errors():
    f = amb.NormalDiagFamily(1)
    with pytest.raises(ValueError):
        f.distance([0.0, 1.0], [0.0, 2.0], 1)


def test_exponential_distance_closed_forms():
    f = amb.ExponentialFamily()
    assert f.distance([1.0], [3.0], 1) == pytest.approx(2.0)
    assert f.distance([0.0], [1.0], 2) == pytest.approx(math.sqrt(2.0))


def test_exponential_distance_against_quantile_integral():
    f = amb.ExponentialFamily()
    for r in (1, 2):
        for t1, t2 in [(1.0, 3.0), (0.0, 1.0), (0.5, 0.7)]:
            integrand = lambda u: abs((t1 - t2) * math.log1p(-u)) ** r
            val, _ = quad(integrand, 0.0, 1.0, limit=200)
            assert f.distance([t1], [t2], r) == pytest.approx(
                val ** (1.0 / r), abs=1e-6
            )


def test_family_distance_metric_and_lipschitz():
    f = amb.ExponentialFamily()
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b, c = rng.uniform(0, 3, size=3)
        dab = f.distance([a], [b], 1)
        assert dab == pytest.approx(f.distance([b], [a], 1))
        assert dab <= f.distance([a], [c], 1) + f.distance([c], [b], 1) + 1e-12
        # W_1 Lipschitz constant is exactly (1!)^1 = 1 for this family
        assert dab == pytest.approx(f.lipschitz * abs(a - b))


# -- estimators -------------------------------------------------------------------


def test_exponential_mle_is_mean():
    f = amb.ExponentialFamily()
    assert f.estimate(np.array([[1.0], [2.0], [3.0]]))[0] == pytest.approx(2.0)


def test_exponential_mle_maximizes_loglik():
    f = amb.ExponentialFamily()
    rng = np.random.default_rng(9)
    path = rng.exponential(2.0, size=(30, 1))
    theta = float(f.estimate(path)[0])
    base = f.loglik(theta, path)
    assert f.loglik(theta + 1e-3, path) <= base
    assert f.loglik(theta - 1e-3, path) <= base


def test_normal_estimator_values():
    f = amb.NormalDiagFamily(1)
    est = f.estimate(np.array([[0.0], [2.0]]))
    assert est[0] == pytest.approx(1.0)
    assert est[1] == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def test_normal_estimator_constant_path():
    f = amb.NormalDiagFamily(1)
    est = f.estimate(np.full((5, 1), 0.7))
    assert est[1] == pytest.approx(0.0, abs=1e-15)


def test_normal_estimator_needs_two_points():
    with pytest.raises(ValueError):
        amb.NormalDiagFamily(1).estimate(np.array([[1.0]]))


def test_normal_estimator_unbiased_monte_carlo():
    # E[sigma_hat] = sigma for gaussian samples
    f = amb.NormalDiagFamily(1)
    rng = np.random.default_rng(17)
    sigmas = [f.estimate(rng.normal(0.0, 1.5, size=(8, 1)))[1] for _ in range(4000)]
    assert np.mean(sigmas) == pytest.approx(1.5, abs=0.02)


# -- kernels: membership and sampling ----------------------------------------------


def make_ball(eps, center=None, q=1):
    center = center if center is not None else DiscreteMeasure.dirac([0.0])
    return amb.WassersteinBall(amb.ConstantKernel(center), amb.ConstantRadius(eps), q)


def test_membership_center_has_full_slack():
    ball = make_ball(0.7)
    ok, slack = amb.membership(ball, np.zeros((0, 1)), ball.center([]))
    assert ok and slack == pytest.approx(0.7, abs=1e-9)


def test_membership_zero_radius_rejects_others():
    ball = make_ball(0.0)
    ok, _ = amb.membership(ball, np.zeros((0, 1)), DiscreteMeasure.dirac([0.1]))
    assert not ok


def test_membership_dirac_distance():
    ball = make_ball(1.0)
    ok, slack = amb.membership(ball, np.zeros((0, 1)), DiscreteMeasure.dirac([0.5]))
    assert ok and slack == pytest.approx(0.5, abs=1e-9)


def test_parametric_membership_needs_tagged_candidate():
    pb = amb.ParametricBall(amb.ExponentialFamily(), amb.ConstantRadius(0.5), theta0=[2.0])
    with pytest.raises(ValueError):
        amb.membership(pb, np.zeros((0, 1)), DiscreteMeasure.dirac([0.3]))


def test_sampling_zero_radius_returns_copies():
    ball = make_ball(0.0)
    out = amb.sample_measures(ball, np.zeros((0, 1)), 4, np.random.default_rng(0))
    assert len(out) == 4
    assert all(w_q_discrete(m, out[0], 1) == 0 for m in out)


def test_sampling_always_member():
    rng = np.random.default_rng(123)
    space = LocalSpace(2, 1.0)
    center = DiscreteMeasure(rng.uniform(-0.5, 0.5, (4, 2)), rng.dirichlet(np.ones(4)), space=space)
    for q in (1, 2):
        ball = amb.WassersteinBall(amb.ConstantKernel(center), amb.ConstantRadius(0.3), q, space=space)
        for m in amb.sample_measures(ball, np.zeros((0, 2)), 8, rng):
            ok, _ = amb.membership(ball, np.zeros((0, 2)), m)
            assert ok


def test_parametric_sampling_stays_in_parameter_ball():
    pb = amb.ParametricBall(amb.ExponentialFamily(), amb.ConstantRadius(0.5), theta0=[2.0])
    rng = np.random.default_rng(5)
    for m in amb.sample_measures(pb, np.zeros((0, 1)), 12, rng):
        assert 1.5 - 1e-12 <= float(m.theta[0]) <= 2.5 + 1e-12


# -- gluing transport ----------------------------------------------------------------


def test_transport_identity_same_ball():
    mu1 = DiscreteMeasure.dirac([1.0])
    ref = DiscreteMeasure.dirac([0.0])
    out = amb.transport_between_balls(mu1, ref, 1.0, ref, 1.0, 1)
    assert w_q_discrete(out, mu1, 1) == pytest.approx(0.0, abs=1e-12)


def test_transport_center_to_center():
    ref1 = DiscreteMeasure.dirac([0.0])
    ref2 = DiscreteMeasure.dirac([2.0])
    out = amb.transport_between_balls(ref1, ref1, 1.0, ref2, 1.0, 1)
    assert w_q_discrete(out, ref2, 1) == pytest.approx(0.0, abs=1e-12)


def test_transport_three_scalar_example():
    ref1, mu1, ref2 = (DiscreteMeasure.dirac([v]) for v in (0.0, 1.0, 2.0))
    out, lam, details = amb.transport_between_balls(
        mu1, ref1, 1.0, ref2, 1.0, 1, return_details=True
    )
    assert lam == 0.0
    assert out.n_atoms == 1 and out.support[0, 0] == pytest.approx(5.0 / 3.0)
    assert w_q_discrete(ref2, out, 1) <= 1.0 + 1e-12
    assert w_q_discrete(mu1, out, 1) <= w_q_discrete(ref1, ref2, 1) + 1e-12


def test_transport_precondition():
    ref = DiscreteMeasure.dirac([0.0])
    far = DiscreteMeasure.dirac([5.0])
    with pytest.raises(ValueError):
        amb.transport_between_balls(far, ref, 0.1, ref, 0.1, 1)


@pytest.mark.parametrize("q", [1, 2])
def test_transport_random_instances_satisfy_both_bounds(q):
    rng = np.random.default_rng(31 + q)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        ref1 = DiscreteMeasure(rng.uniform(-1, 1, (3, d)), rng.dirichlet(np.ones(3)))
        ref2 = DiscreteMeasure(rng.uniform(-1, 1, (3, d)), rng.dirichlet(np.ones(3)))
        eps1 = float(rng.uniform(0.05, 0.6))
        eps2 = float(rng.uniform(0.0, 0.6))
        ball = amb.WassersteinBall(amb.ConstantKernel(ref1), amb.ConstantRadius(eps1), q)
        mu1 = amb.sample_measures(ball, np.zeros((0, d)), 2, rng)[1]
        mu2, lam, details = amb.transport_between_balls(
            mu1, ref1, eps1, ref2, eps2, q, return_details=True
        )
        # atomwise inequalities of the three-point map
        for a, b, c, v, _ in details:
            assert np.linalg.norm(v - c) <= (
                np.linalg.norm(b - a) + lam * np.linalg.norm(c - a) + 1e-9
            )
            assert np.linalg.norm(v - b) <= (1 - lam) * np.linalg.norm(c - a) + 1e-9
        # measure-level conclusions
        assert w_q_discrete(ref2, mu2, q) <= eps2 + 1e-9
        bound = w_q_discrete(ref1, ref2, q) + lam * w_q_discrete(ref1, mu1, q)
        assert w_q_discrete(mu1, mu2, q) <= bound + 1e-9


def displacement_blend_loop(center, candidate, eps, q):
    """Oracle: the blend as a double loop over the plan entries."""
    plan, dist = optimal_coupling(center, candidate, q)
    if dist <= eps:
        return candidate
    r = (eps / dist) * (1.0 - 1e-12)
    pts, wts = [], []
    for i in range(plan.shape[0]):
        for j in range(plan.shape[1]):
            if plan[i, j] > 1e-15:
                pts.append(
                    (1.0 - r) * center.support[i] + r * candidate.support[j]
                )
                wts.append(plan[i, j])
    wts = np.array(wts)
    return DiscreteMeasure(np.array(pts), wts / wts.sum(), space=center.space)


def v_lambda_scalar(a, b, c, lam):
    """Oracle: the three-point map on one triple of points."""
    cprime = lam * a + (1.0 - lam) * c
    dc = np.linalg.norm(cprime - a)
    db = np.linalg.norm(b - a)
    if dc + db == 0.0:
        return a.copy()
    w = dc / (dc + db)
    return w * cprime + (1.0 - w) * b


def transport_loop(mu1, ref1, eps1, ref2, eps2, q, v_map):
    """Oracle: the gluing transport as a triple loop over plan entries,
    mapping each triple through v_map."""
    lam = 0.0 if eps1 == 0.0 else max(eps1 - eps2, 0.0) / eps1
    plan_ab, _ = optimal_coupling(ref1, ref2, q)
    plan_ac, _ = optimal_coupling(ref1, mu1, q)
    pts, wts, details = [], [], []
    for i in range(ref1.n_atoms):
        wi = ref1.weights[i]
        if wi <= 1e-15:
            continue
        a = ref1.support[i]
        for j in np.nonzero(plan_ab[i] > 1e-15)[0]:
            b = ref2.support[j]
            for k in np.nonzero(plan_ac[i] > 1e-15)[0]:
                c = mu1.support[k]
                mass = plan_ab[i, j] * plan_ac[i, k] / wi
                v = v_map(a, b, c, lam)
                pts.append(v)
                wts.append(mass)
                details.append((a, b, c, v, mass))
    wts = np.array(wts)
    mu2 = DiscreteMeasure(np.array(pts), wts / wts.sum(), space=ref2.space or mu1.space)
    return mu2, lam, details


def random_ball_instance(rng, d, q, n_max=5):
    n1, n2 = (int(k) for k in rng.integers(1, n_max + 1, size=2))
    ref1 = DiscreteMeasure(np.round(rng.uniform(-1, 1, (n1, d)), 2), rng.dirichlet(np.ones(n1)))
    ref2 = DiscreteMeasure(np.round(rng.uniform(-1, 1, (n2, d)), 2), rng.dirichlet(np.ones(n2)))
    eps1 = float(rng.uniform(0.05, 0.6))
    eps2 = float(rng.choice([0.0, eps1, rng.uniform(0.0, 0.6)]))
    ball = amb.WassersteinBall(amb.ConstantKernel(ref1), amb.ConstantRadius(eps1), q)
    mu1 = amb.sample_measures(ball, np.zeros((0, d)), 2, rng)[1]
    return mu1, ref1, eps1, ref2, eps2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
def test_displacement_blend_equals_double_loop(seed, d, q):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    center = DiscreteMeasure(np.round(rng.uniform(-1, 1, (n, d)), 2), rng.dirichlet(np.ones(n)))
    cand = DiscreteMeasure(rng.uniform(-2, 2, (n + 1, d)), rng.dirichlet(np.ones(n + 1)))
    eps = float(rng.uniform(0.01, 0.5))
    got = amb._displacement_blend(center, cand, eps, q)
    want = displacement_blend_loop(center, cand, eps, q)
    assert np.array_equal(got.support, want.support)
    assert np.array_equal(got.weights, want.weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 2))
def test_transport_equals_triple_loop(seed, d, q):
    rng = np.random.default_rng(seed)
    mu1, ref1, eps1, ref2, eps2 = random_ball_instance(rng, d, q)
    mu2, lam, details = amb.transport_between_balls(
        mu1, ref1, eps1, ref2, eps2, q, return_details=True
    )
    want, lam_loop, details_loop = transport_loop(
        mu1, ref1, eps1, ref2, eps2, q, amb.v_lambda
    )
    assert lam == lam_loop
    assert np.array_equal(mu2.support, want.support)
    assert np.array_equal(mu2.weights, want.weights)
    assert len(details) == len(details_loop)
    for got, want in zip(details, details_loop):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the per-triple map of the old scalar code, whose np.linalg.norm of a
    # vector is a BLAS dot, while the row-wise norm sums squares: the two
    # may round apart in the last bit once d >= 2
    scalar, _, _ = transport_loop(mu1, ref1, eps1, ref2, eps2, q, v_lambda_scalar)
    if d == 1:
        assert np.array_equal(mu2.support, scalar.support)
    assert np.max(np.abs(mu2.support - scalar.support)) <= 1e-15


# -- Lipschitz audit -------------------------------------------------------------------


def test_audit_same_path_zero_ratio():
    ball = make_ball(0.5)
    rep = amb.lipschitz_audit(ball, np.array([[0.2]]), np.array([[0.2]]))
    assert rep.max_ratio == 0.0


def test_audit_constant_kernel_zero_ratio():
    ball = make_ball(0.5)
    rep = amb.lipschitz_audit(ball, np.array([[0.2]]), np.array([[-0.3]]))
    assert rep.max_ratio == pytest.approx(0.0, abs=1e-9)
    assert rep.declared == 0.0


def _numeric_softmax_lipschitz(kw, t, rng, n_probe=400):
    # sample difference quotients of the weight vector in l1 norm
    best = 0.0
    for _ in range(n_probe):
        p1 = rng.uniform(-0.05, 0.05, size=(t, 1))
        p2 = p1 + rng.normal(scale=1e-4, size=(t, 1))
        w1 = kw(p1).weights
        w2 = kw(p2).weights
        denom = np.linalg.norm(p1 - p2, axis=1).sum()
        best = max(best, np.abs(w1 - w2).sum() / denom)
    return best


def test_audit_kernel_weighted_respects_derived_bound():
    rng = np.random.default_rng(77)
    hist = rng.uniform(-0.05, 0.05, size=(4, 1))
    C = 0.05
    kw = amb.KernelWeighted(hist, beta=500.0)
    ball = amb.WassersteinBall(kw, amb.ConstantRadius(0.01), 1)
    t = 1
    l_pi = _numeric_softmax_lipschitz(kw, t, rng)
    p1 = np.array([[0.01]])
    p2 = np.array([[0.03]])
    rep = amb.lipschitz_audit(ball, p1, p2)
    n = hist.shape[0]
    bound = (n - t) * C * l_pi + ball.radius.lipschitz
    assert rep.max_ratio <= bound * 1.05 + 1e-9


def test_audit_parametric_ratio_bounded_by_declared_product():
    fam = amb.ExponentialFamily()
    pb = amb.ParametricBall(fam, amb.ConstantRadius(0.2))
    p1 = np.array([[1.0], [2.0]])
    p2 = np.array([[1.5], [2.5]])
    rep = amb.lipschitz_audit(pb, p1, p2, rng=np.random.default_rng(0))
    t = 2
    declared = fam.lipschitz * (fam.estimator_lipschitz(t) + 0.0)
    assert rep.max_ratio <= declared + 1e-9


def test_audit_rejects_unequal_lengths():
    ball = make_ball(0.5)
    with pytest.raises(ValueError):
        amb.lipschitz_audit(ball, np.array([[0.1]]), np.array([[0.1], [0.2]]))
