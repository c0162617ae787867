"""Path-dependent ambiguity sets of transition laws.

An ambiguity kernel maps an observed path to a set of candidate one-step
transition measures: a Wasserstein ball around a data-driven reference
kernel, a parameter ball inside a closed-form family (diagonal normal or
exponential), a singleton, or an explicit finite set.  The module also
houses the three-point transport construction that moves a measure from
one ball into another while controlling both distances, and the adaptive
radius schedules used by the hedging experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .measures import DiscreteMeasure, cost_matrix, optimal_coupling, w_q_discrete
from .normal import ndtri

__all__ = [
    "ConstantKernel",
    "KernelWeighted",
    "AdaptiveEmpirical",
    "TabularKernel",
    "ConstantRadius",
    "Adaptive1DRadius",
    "AdaptiveMultiDRadius",
    "adaptive_radius_1d",
    "adaptive_radius_multidim",
    "NormalDiagFamily",
    "ExponentialFamily",
    "WassersteinBall",
    "ParametricBall",
    "Singleton",
    "FiniteSet",
    "membership",
    "dual_inner_min",
    "dual_inner_value",
    "ball_infimum",
    "sample_measures",
    "transport_between_balls",
    "v_lambda",
    "lipschitz_audit",
    "path_key",
    "as_path",
]

MEMBERSHIP_TOL = 1e-9


def as_path(path):
    """Normalize a path to a (t, d) float array; t = 0 paths allowed."""
    arr = np.asarray(path, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, arr.shape[-1] if arr.ndim == 2 else 1)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def path_key(path):
    """Hashable identifier for a path (used by tabular kernels/tables)."""
    arr = as_path(path)
    return tuple(float(v) for v in arr.ravel())


# ---------------------------------------------------------------------------
# reference kernels  (path -> center measure)
# ---------------------------------------------------------------------------


class ConstantKernel:
    """Same measure at every path; Lipschitz constant 0."""

    def __init__(self, measure):
        self.measure = measure
        self.lipschitz = 0.0

    def __call__(self, path):
        return self.measure


class KernelWeighted:
    """Softmax-weighted empirical kernel.

    Given a history R_1..R_N, the measure at path w^t puts mass on each
    historical successor R_{s+1} (s = t..N-1) proportional to
    exp(-beta * ||window_s - w^t||^2), where window_s stacks the t returns
    preceding R_{s+1}.  Windows shorter than t do not exist, hence s >= t.
    """

    def __init__(self, history, beta, space=None, lipschitz=None):
        if beta <= 0:
            raise ValueError("inverse temperature beta must be positive")
        self.history = as_path(history)
        self.beta = float(beta)
        self.space = space
        self.lipschitz = lipschitz

    def weights(self, paths):
        """Weights (b, N - t) of the successors history[t:] along paths (b, t, d)."""
        b, t, d = paths.shape
        n = self.history.shape[0]
        if t >= n:
            raise ValueError(f"path length {t} needs history longer than {t}")
        if t > 0 and d != self.history.shape[1]:
            raise ValueError("path dimension does not match history")
        windows = np.stack([self.history[s - t : s].ravel() for s in range(t, n)])
        flat = paths.reshape(b, t * d)
        logits = -self.beta * ((windows[None, :, :] - flat[:, None, :]) ** 2).sum(-1)
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        return w

    def __call__(self, path):
        path = as_path(path)
        w = self.weights(path[None])[0]
        return DiscreteMeasure(self.history[path.shape[0]:], w, space=self.space)


class AdaptiveEmpirical:
    """Uniform mixture of the history and the observed path atoms."""

    def __init__(self, history, space=None):
        self.history = as_path(history)
        self.space = space
        # dual potential argument: moving one path atom moves 1/(N+t) mass
        self.lipschitz = 1.0 / self.history.shape[0]

    def __call__(self, path):
        path = as_path(path)
        n, t = self.history.shape[0], path.shape[0]
        if t > 0 and path.shape[1] != self.history.shape[1]:
            raise ValueError("path dimension does not match history")
        atoms = self.history if t == 0 else np.vstack([self.history, path])
        return DiscreteMeasure(
            atoms, np.full(n + t, 1.0 / (n + t)), space=self.space
        )


class TabularKernel:
    """Explicit map from path keys to measures (grid instances)."""

    def __init__(self, table, lipschitz=None):
        self.table = dict(table)
        self.lipschitz = lipschitz

    def __call__(self, path):
        key = path_key(path)
        if key not in self.table:
            raise KeyError(f"no measure stored for path {key}")
        return self.table[key]


# ---------------------------------------------------------------------------
# radius schedules
# ---------------------------------------------------------------------------


class ConstantRadius:
    def __init__(self, eps):
        if eps < 0:
            raise ValueError("radius must be nonnegative")
        self.eps = float(eps)
        self.lipschitz = 0.0

    def __call__(self, path):
        return self.eps


_BRIDGE_QUANTILE_CACHE = {}


def _bridge_integral_quantile(alpha, n_paths, n_steps, seed):
    """alpha-quantile of int_0^1 |B(u)| du for a Brownian bridge B.

    Monte Carlo over discretized bridges; cached per parameter set.  The
    default 1e5 x 1e3 resolution keeps the quantile's standard error well
    under 1% of its value.
    """
    key = (round(alpha, 12), n_paths, n_steps, seed)
    if key in _BRIDGE_QUANTILE_CACHE:
        return _BRIDGE_QUANTILE_CACHE[key]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x62726964]))
    dt = 1.0 / n_steps
    integrals = np.empty(n_paths)
    chunk = max(1, min(n_paths, 2000))
    done = 0
    while done < n_paths:
        b = min(chunk, n_paths - done)
        incr = rng.normal(0.0, math.sqrt(dt), size=(b, n_steps))
        w = np.cumsum(incr, axis=1)
        u = np.arange(1, n_steps + 1) * dt
        bridge = np.abs(w - u[None, :] * w[:, -1:])
        # trapezoid with B(0) = 0 prepended implicitly
        integrals[done : done + b] = (
            bridge.sum(axis=1) - 0.5 * bridge[:, -1]
        ) * dt
        done += b
    q = float(np.quantile(integrals, alpha))
    _BRIDGE_QUANTILE_CACHE[key] = q
    return q


def adaptive_radius_1d(
    alpha_quantile, n_plus_t, seed=0, n_paths=100_000, n_steps=1000
):
    """Shrinking radius H^alpha / sqrt(N + t) for scalar returns.

    H^alpha is the alpha-quantile of the integrated absolute Brownian
    bridge, estimated once by seeded Monte Carlo and cached.
    """
    if not 0.0 < alpha_quantile < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    if n_plus_t < 1:
        raise ValueError("N + t must be at least 1")
    h = _bridge_integral_quantile(alpha_quantile, n_paths, n_steps, seed)
    return h / math.sqrt(n_plus_t)


def adaptive_radius_multidim(d, C, n_plus_t, alpha=0.9):
    """Closed-form shrinking radius for d >= 2 on the box [-C, C]^d.

    Evaluates the covering-number bound: with h = ceil(d/2) and
    g = 2*C*sqrt(d) / ((N+t)^(1/(2h)) - 1),

        (64 / (3*alpha)) * [ g + (N+t)^(-1/2) * ( (C*sqrt(d)/2 - g)
            + log(C*sqrt(d)/(2g)) * 2*C*sqrt(d)*h
            + sum_{k=2..h} C(h,k) (2C sqrt(d))^k ((C sqrt(d)/2)^(1-k) - g^(1-k)) / (1-k) ) ].

    alpha = 0.9 reproduces the 64/2.7 prefactor.
    """
    if d < 2 or int(d) != d:
        raise ValueError("d must be an integer >= 2")
    if C <= 0:
        raise ValueError("C must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    h = math.ceil(d / 2)
    root = n_plus_t ** (1.0 / (2 * h)) - 1.0
    if root <= 0:
        raise ValueError("N + t too small: covering radius denominator is 0")
    diam = 2.0 * C * math.sqrt(d)
    g = diam / root
    half = C * math.sqrt(d) / 2.0
    inner = (half - g) + math.log(half / g) * diam * h
    for k in range(2, h + 1):
        inner += (
            math.comb(h, k) * diam**k * (half ** (1 - k) - g ** (1 - k)) / (1 - k)
        )
    return (64.0 / (3.0 * alpha)) * (g + inner / math.sqrt(n_plus_t))


class Adaptive1DRadius:
    """eps_t = H^alpha / sqrt(N + t); depends on t only, so L_eps = 0."""

    def __init__(self, n_history, alpha=0.9, seed=0, n_paths=100_000, n_steps=1000):
        self.n_history = int(n_history)
        self.alpha = float(alpha)
        self.seed = seed
        self.n_paths = n_paths
        self.n_steps = n_steps
        self.lipschitz = 0.0

    def __call__(self, path):
        t = as_path(path).shape[0]
        return adaptive_radius_1d(
            self.alpha, self.n_history + t, self.seed, self.n_paths, self.n_steps
        )


class AdaptiveMultiDRadius:
    def __init__(self, d, C, n_history, alpha=0.9):
        self.d = d
        self.C = C
        self.n_history = int(n_history)
        self.alpha = alpha
        self.lipschitz = 0.0

    def __call__(self, path):
        t = as_path(path).shape[0]
        return adaptive_radius_multidim(self.d, self.C, self.n_history + t, self.alpha)


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------


class NormalDiagFamily:
    """N(mu, diag(sigma^2)) on R^d, theta = (mu, sigma) in R^d x [0, inf)^d."""

    def __init__(self, d):
        self.d = int(d)
        self.theta_dim = 2 * self.d
        # W_2 gap <= ||dmu|| + ||dsigma|| <= sqrt(2) ||dtheta||
        self.lipschitz = math.sqrt(2.0)

    def split(self, theta):
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.shape[0] != self.theta_dim:
            raise ValueError("theta must stack (mu, sigma)")
        return theta[: self.d], theta[self.d :]

    def project(self, theta):
        mu, sigma = self.split(theta)
        return np.concatenate([mu, np.clip(sigma, 0.0, None)])

    def contains(self, theta):
        _, sigma = self.split(theta)
        return bool(np.all(sigma >= -1e-12))

    def distance(self, theta1, theta2, order):
        if order != 2:
            raise ValueError(
                f"no closed form for normal family at order {order}"
            )
        mu1, s1 = self.split(theta1)
        mu2, s2 = self.split(theta2)
        return math.sqrt(
            float(np.sum((mu1 - mu2) ** 2) + np.sum((s1 - s2) ** 2))
        )

    def estimate(self, path):
        """Unbiased (mu, sigma) estimators from the observed path.

        sigma_j = sqrt(pi/2) * sqrt(t/(t-1)) * mean_s |w_{s,j} - mean_j|;
        requires t >= 2.
        """
        path = as_path(path)
        t = path.shape[0]
        if t < 2:
            raise ValueError("normal estimation needs at least 2 observations")
        mu = path.mean(axis=0)
        sigma = (
            math.sqrt(math.pi / 2.0)
            * math.sqrt(t / (t - 1.0))
            * np.mean(np.abs(path - mu), axis=0)
        )
        return np.concatenate([mu, sigma])

    def estimator_lipschitz(self, t):
        """Safe Lipschitz bound for the (mu, sigma) estimator at length t."""
        if t < 2:
            raise ValueError("estimator needs t >= 2")
        l_mu = 1.0 / t
        l_sigma = math.sqrt(math.pi / 2.0) * math.sqrt(t / (t - 1.0)) * (
            2.0 / t
        ) * math.sqrt(self.d)
        return math.hypot(l_mu, l_sigma)

    def discretize(self, theta, n_atoms=31, space=None):
        """Quantile-grid product discretization tagged with its parameter;
        `ndtri` gives scipy's norm.ppf bit for bit."""
        mu, sigma = self.split(theta)
        u = (np.arange(n_atoms) + 0.5) / n_atoms
        axes = [mu[j] + sigma[j] * ndtri(u) for j in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        if space is not None:
            pts = space.clip(pts)
        m = DiscreteMeasure(pts, np.full(pts.shape[0], 1.0 / pts.shape[0]), space=space)
        m.theta = np.asarray(theta, dtype=float).copy()
        return m


class ExponentialFamily:
    """Exp(1/theta) on [0, inf) for theta > 0; Dirac at 0 for theta = 0."""

    def __init__(self):
        self.d = 1
        self.theta_dim = 1
        self.lipschitz = 1.0  # (1!)^(1/1), the W_1 constant

    def project(self, theta):
        return np.clip(np.atleast_1d(np.asarray(theta, dtype=float)), 0.0, None)

    def contains(self, theta):
        return float(np.atleast_1d(theta)[0]) >= -1e-12

    def distance(self, theta1, theta2, order):
        """W_r(Exp(1/t1), Exp(1/t2)) = |t1 - t2| * (r!)^(1/r), exactly.

        The quantile functions are proportional (-theta * log(1 - y)), so
        the coupling formula collapses to a closed form, including the
        theta = 0 Dirac endpoint.
        """
        if order < 1 or int(order) != order:
            raise ValueError("order must be a positive integer")
        t1 = float(np.atleast_1d(theta1)[0])
        t2 = float(np.atleast_1d(theta2)[0])
        return abs(t1 - t2) * math.factorial(order) ** (1.0 / order)

    def estimate(self, path):
        """Maximum likelihood estimator: the sample mean."""
        path = as_path(path)
        if path.shape[0] < 1:
            raise ValueError("need at least one observation")
        if np.any(path < 0):
            raise ValueError("exponential data must be nonnegative")
        return np.array([float(path.mean())])

    def estimator_lipschitz(self, t):
        if t < 1:
            raise ValueError("estimator needs t >= 1")
        return 1.0 / t

    def loglik(self, theta, path):
        theta = float(np.atleast_1d(theta)[0])
        path = as_path(path).ravel()
        if theta <= 0:
            raise ValueError("log-likelihood defined for theta > 0")
        return -len(path) * math.log(theta) - float(path.sum()) / theta

    def discretize(self, theta, n_atoms=31, space=None):
        theta = float(np.atleast_1d(theta)[0])
        if theta == 0.0:
            m = DiscreteMeasure.dirac([0.0], space=space)
        else:
            u = (np.arange(n_atoms) + 0.5) / n_atoms
            pts = (-theta * np.log1p(-u))[:, None]
            if space is not None:
                pts = space.clip(pts)
            m = DiscreteMeasure(
                pts, np.full(n_atoms, 1.0 / n_atoms), space=space
            )
        m.theta = np.array([theta])
        return m


# ---------------------------------------------------------------------------
# ambiguity kernels
# ---------------------------------------------------------------------------


@dataclass
class WassersteinBall:
    reference: object
    radius: object
    order: int = 1
    space: object = None

    def __post_init__(self):
        if self.order < 1 or int(self.order) != self.order:
            raise ValueError("Wasserstein order must be a positive integer")

    def center(self, path):
        return self.reference(path)

    def eps(self, path):
        return float(self.radius(path))

    def declared_lipschitz(self):
        lref = getattr(self.reference, "lipschitz", None)
        if lref is None:
            return None
        return lref + self.radius.lipschitz


@dataclass
class ParametricBall:
    family: object
    radius: object
    theta0: object = None  # stage-0 center (no path to estimate from)
    n_atoms: int = 31
    space: object = None

    def center_theta(self, path):
        path = as_path(path)
        if path.shape[0] == 0:
            if self.theta0 is None:
                raise ValueError("stage-0 parametric ball needs theta0")
            return np.atleast_1d(np.asarray(self.theta0, dtype=float))
        return self.family.estimate(path)

    def center(self, path):
        return self.family.discretize(
            self.center_theta(path), self.n_atoms, self.space
        )

    def eps(self, path):
        return float(self.radius(path))

    def declared_lipschitz(self):
        return None  # depends on t; see lipschitz_audit


@dataclass
class Singleton:
    reference: object
    space: object = None

    def center(self, path):
        return self.reference(path)

    def eps(self, path):
        return 0.0

    def declared_lipschitz(self):
        return getattr(self.reference, "lipschitz", None)


@dataclass
class FiniteSet:
    references: list
    space: object = None

    def center(self, path):
        return self.references[0](path)

    def evaluate_all(self, path):
        return [k(path) for k in self.references]

    def declared_lipschitz(self):
        ls = [getattr(k, "lipschitz", None) for k in self.references]
        if any(l is None for l in ls):
            return None
        return max(ls)


def dual_inner_min(psi_z, lam, x, z, q):
    """The W_q dual's inner minimum min_j {psi_z[j] + lam ||x_i - z_j||^q}, a Var
    (..., m) over points x (..., m, d) and z (..., n, d).  psi_z and lam may be
    tape Vars, whose gradients go to the first-index minimum, or arrays and
    floats; the caller reduces over x and subtracts lam eps^q.  One fused tape
    node, ad.dual_min."""
    return ad.dual_min(psi_z, lam, cost_matrix(x, z, q))


def dual_inner_value(psi_next, reference, eps, q, lambda_, z_grid):
    """Inner dual objective of the minimization over the W_q ball,

        E_reference[ min_j { psi(z_j) + lambda ||X - z_j||^q } ] - lambda eps^q

    (Gao & Kleywegt, arXiv:1604.02199, Thm 1), a lower bound on the ball
    minimum over measures on z_grid for every lambda > 0; the reference
    weights sum dual_inner_min.  psi_next maps the stack z_grid (N, d) to its
    N values; z_grid is a nonempty subset of the local space.
    """
    if lambda_ <= 0:
        raise ValueError("lambda must be positive")
    z = np.atleast_2d(np.asarray(z_grid, dtype=float))
    if z.shape[0] == 0:
        raise ValueError("empty z grid")
    psi_vals = np.asarray(psi_next(z), dtype=float).reshape(z.shape[0])
    inner = dual_inner_min(psi_vals, lambda_, reference.support, z, q).value
    return float(reference.weights @ inner - lambda_ * eps**q)


def ball_infimum(psi_vals, reference, z_grid, eps, q):
    """Exact minimum of sum_j nu_j psi_j over measures nu on z_grid with
    W_q(reference, nu) <= eps, as a fractional knapsack (Gao & Kleywegt,
    arXiv:1604.02199; Esfahani & Kuhn, Math. Prog. 2018): each atom is
    charged its cheapest grid point, the lowest psi among ties, and the rest
    of the budget eps^q buys the segments of the atoms' lower convex hulls
    of (cost, psi) in order of slope, the last one fractionally.  Raises
    ValueError when the ball holds no measure on z_grid.
    """
    z = np.atleast_2d(np.asarray(z_grid, dtype=float))
    psi = np.asarray(psi_vals, dtype=float).reshape(z.shape[0])
    cost = cost_matrix(reference.support, z, q)
    base = float(reference.weights @ cost.min(axis=1))
    if base > eps**q:
        raise ValueError(f"the W_{q} ball of radius {eps} holds no measure on the "
                         f"grid: moving the reference onto it costs {base}")
    # each atom's points by cost, lowest psi first; the hull keeps only points
    # below every cheaper one
    order = np.lexsort((np.broadcast_to(psi, cost.shape), cost))
    cost = np.take_along_axis(cost, order, axis=1)
    psi = psi[order]
    lower = np.diff(np.minimum.accumulate(psi, axis=1), axis=1, prepend=np.inf) < 0
    value = 0.0
    segments = []  # (slope, weighted cost, weighted change of psi)
    for w, keep, c, p in zip(reference.weights.tolist(), lower, cost, psi):
        c, p = c[keep].tolist(), p[keep].tolist()
        value += w * p[0]
        hull = [0]
        for i in range(1, len(c)):
            while len(hull) > 1:
                a, b = hull[-2:]
                if (c[b] - c[a]) * (p[i] - p[a]) > (p[b] - p[a]) * (c[i] - c[a]):
                    break
                hull.pop()
            hull.append(i)
        for a, b in zip(hull, hull[1:]):
            dc, dpsi = c[b] - c[a], p[b] - p[a]
            segments.append((dpsi / dc, w * dc, w * dpsi))
    budget = eps**q - base
    for _, dc, dpsi in sorted(segments, key=lambda s: s[0]):
        if dc > budget:
            return value + dpsi * (budget / dc)
        value += dpsi
        budget -= dc
    return value


def membership(kernel, path, candidate):
    """Test whether a candidate measure belongs to the ambiguity set.

    Returns (member, slack) with slack = radius - distance.  Candidates
    against a parametric ball must carry the `theta` tag produced by
    sample_measures / discretize; comparing a raw discrete measure with a
    continuous parametric law is unsupported and raises.
    """
    if isinstance(kernel, WassersteinBall):
        dist = w_q_discrete(kernel.center(path), candidate, kernel.order)
        eps = kernel.eps(path)
        return dist <= eps + MEMBERSHIP_TOL, eps - dist
    if isinstance(kernel, ParametricBall):
        theta = getattr(candidate, "theta", None)
        if theta is None:
            raise ValueError(
                "cannot test a raw discrete measure against a parametric ball"
            )
        dist = float(
            np.linalg.norm(np.atleast_1d(theta) - kernel.center_theta(path))
        )
        eps = kernel.eps(path)
        return dist <= eps + MEMBERSHIP_TOL, eps - dist
    if isinstance(kernel, Singleton):
        dist = w_q_discrete(kernel.center(path), candidate, 1)
        return dist <= MEMBERSHIP_TOL, -dist
    if isinstance(kernel, FiniteSet):
        dists = [
            w_q_discrete(m, candidate, 1) for m in kernel.evaluate_all(path)
        ]
        best = min(dists)
        return best <= MEMBERSHIP_TOL, -best
    raise TypeError(f"unknown kernel type {type(kernel)!r}")


def _displacement_blend(center, candidate, eps, q):
    """Pull a measure back into the ball along displacement interpolation.

    Moves each transported mass piece a fraction eps/dist of the way from
    the center toward the candidate, which lands the result at distance
    <= eps without any rejection loop.
    """
    plan, dist = optimal_coupling(center, candidate, q)
    if dist <= eps:
        return candidate
    r = (eps / dist) * (1.0 - 1e-12)
    i, j = np.nonzero(plan > 1e-15)  # row-major: the pieces in (i, j) order
    pts = (1.0 - r) * center.support[i] + r * candidate.support[j]
    wts = plan[i, j]
    return DiscreteMeasure(pts, wts / wts.sum(), space=center.space)


def sample_measures(kernel, path, count, rng):
    """Candidate measures from the ambiguity set, element 0 the center: a
    singleton gives its center, a finite set its members, and a ball `count`
    measures.  Wasserstein balls are sampled by perturbing support points and
    Dirichlet-resampling weights, then blending back toward the center when
    the perturbation overshoots the radius; parametric balls are sampled
    uniformly in the parameter ball.  Every output passes membership; a zero
    radius returns copies of the reference.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(kernel, Singleton):
        return [kernel.center(path)]
    if isinstance(kernel, FiniteSet):
        return kernel.evaluate_all(path)
    if isinstance(kernel, WassersteinBall):
        center = kernel.center(path)
        eps = kernel.eps(path)
        out = [center]
        if eps == 0.0:
            return [center] * count
        space = center.space or kernel.space
        for _ in range(count - 1):
            shift = rng.normal(size=center.support.shape)
            norms = np.linalg.norm(shift, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            mags = eps * rng.uniform(size=(center.n_atoms, 1))
            pts = center.support + shift / norms * mags
            if space is not None:
                pts = space.clip(pts)
            w = rng.dirichlet(50.0 * center.weights + 0.5)
            cand = DiscreteMeasure(pts, w, space=space)
            out.append(_displacement_blend(center, cand, eps, kernel.order))
        return out
    if isinstance(kernel, ParametricBall):
        theta_hat = kernel.center_theta(path)
        eps = kernel.eps(path)
        dim = theta_hat.shape[0]
        out = [kernel.family.discretize(theta_hat, kernel.n_atoms, kernel.space)]
        for _ in range(count - 1):
            if eps == 0.0:
                theta = theta_hat
            else:
                direction = rng.normal(size=dim)
                nrm = np.linalg.norm(direction)
                direction = direction / nrm if nrm > 0 else direction
                radius = eps * rng.uniform() ** (1.0 / dim)
                theta = kernel.family.project(theta_hat + radius * direction)
            out.append(
                kernel.family.discretize(theta, kernel.n_atoms, kernel.space)
            )
        return out
    raise TypeError(f"unknown kernel type {type(kernel)!r}")


# ---------------------------------------------------------------------------
# gluing transport between balls
# ---------------------------------------------------------------------------


def v_lambda(a, b, c, lam):
    """Three-point Euclidean map with the two distance guarantees

        ||v - c|| <= ||b - a|| + lam * ||c - a||,
        ||v - b|| <= (1 - lam) * ||c - a||.

    Points are the last axis, so rows of (N, d) arrays map row by row.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    cprime = lam * a + (1.0 - lam) * c
    dc = np.linalg.norm(cprime - a, axis=-1, keepdims=True)
    db = np.linalg.norm(b - a, axis=-1, keepdims=True)
    # dc + db == 0 means a = b = c': w = 0 returns b, which is a
    w = np.divide(dc, dc + db, out=np.zeros_like(dc), where=dc + db > 0.0)
    return w * cprime + (1.0 - w) * b


def transport_between_balls(
    mu1, ref1, eps1, ref2, eps2, q, return_details=False
):
    """Move mu1 from the ball around ref1 into the ball around ref2.

    Glues the optimal (ref1, ref2) and (ref1, mu1) couplings through their
    shared marginal and pushes forward through v_lambda with
    lam = max(eps1 - eps2, 0) / eps1 (zero when eps1 = 0).  The output mu2
    satisfies

        w_q(ref2, mu2) <= eps2,
        w_q(mu1, mu2)  <= w_q(ref1, ref2) + lam * w_q(ref1, mu1).
    """
    d0 = w_q_discrete(ref1, mu1, q)
    if d0 > eps1 + MEMBERSHIP_TOL:
        raise ValueError(
            f"mu1 lies at distance {d0} from ref1, outside radius {eps1}"
        )
    lam = 0.0 if eps1 == 0.0 else max(eps1 - eps2, 0.0) / eps1
    plan_ab, _ = optimal_coupling(ref1, ref2, q)
    plan_ac, _ = optimal_coupling(ref1, mu1, q)
    # every (i, j, k) with mass on both plans at a ref1 atom of mass,
    # in row-major (i, j, k) order
    glued = (
        (ref1.weights > 1e-15)[:, None, None]
        & (plan_ab > 1e-15)[:, :, None]
        & (plan_ac > 1e-15)[:, None, :]
    )
    i, j, k = np.nonzero(glued)
    a, b, c = ref1.support[i], ref2.support[j], mu1.support[k]
    mass = plan_ab[i, j] * plan_ac[i, k] / ref1.weights[i]
    v = v_lambda(a, b, c, lam)
    mu2 = DiscreteMeasure(v, mass / mass.sum(), space=ref2.space or mu1.space)
    if return_details:
        return mu2, lam, list(zip(a, b, c, v, mass))
    return mu2


# ---------------------------------------------------------------------------
# Lipschitz audit
# ---------------------------------------------------------------------------


@dataclass
class LipschitzReport:
    path_distance: float
    ratios: list
    max_ratio: float
    declared: object = None
    witnesses: list = field(default_factory=list)


def lipschitz_audit(kernel, path1, path2, rng=None):
    """Exhibit witnesses for the kernel's measure-stability condition.

    The probes are the center at path1 and, given an rng and a positive
    radius, two members sampled around it.  For each probe measure P in
    the set at path1, constructs a witness in
    the set at path2 (gluing transport for Wasserstein balls, parameter
    clamp for parametric balls) and reports the achieved ratio
    d_W1(P, witness) / sum_i ||w_i - w~_i|| against the declared constant.
    Numerical evidence only, never a proof.
    """
    p1, p2 = as_path(path1), as_path(path2)
    if p1.shape != p2.shape:
        raise ValueError("paths must have equal length and dimension")
    denom = float(np.linalg.norm(p1 - p2, axis=1).sum()) if p1.size else 0.0

    probes_and_witnesses = []
    if isinstance(kernel, (WassersteinBall, Singleton)):
        q = kernel.order if isinstance(kernel, WassersteinBall) else 1
        ref1, ref2 = kernel.center(p1), kernel.center(p2)
        eps1, eps2 = kernel.eps(p1), kernel.eps(p2)
        probes = [ref1]
        if rng is not None and eps1 > 0:
            probes += sample_measures(kernel, p1, 3, rng)[1:]
        for probe in probes:
            witness = transport_between_balls(probe, ref1, eps1, ref2, eps2, q)
            probes_and_witnesses.append(
                (probe, witness, w_q_discrete(probe, witness, 1))
            )
    elif isinstance(kernel, ParametricBall):
        th1, th2 = kernel.center_theta(p1), kernel.center_theta(p2)
        eps1, eps2 = kernel.eps(p1), kernel.eps(p2)
        lam = 0.0 if eps1 == 0.0 else max(eps1 - eps2, 0.0) / eps1
        thetas = [th1]
        if rng is not None and eps1 > 0:
            thetas += [
                getattr(m, "theta")
                for m in sample_measures(kernel, p1, 3, rng)[1:]
            ]
        order = 2 if isinstance(kernel.family, NormalDiagFamily) else 1
        for theta in thetas:
            witness_theta = v_lambda(th1, th2, np.atleast_1d(theta), lam)
            witness_theta = kernel.family.project(witness_theta)
            dist = kernel.family.distance(theta, witness_theta, order)
            probes_and_witnesses.append((theta, witness_theta, dist))
    else:
        raise TypeError(f"no audit for kernel type {type(kernel)!r}")

    ratios = []
    for _, _, dist in probes_and_witnesses:
        if denom == 0.0:
            ratios.append(0.0 if dist <= MEMBERSHIP_TOL else math.inf)
        else:
            ratios.append(dist / denom)
    return LipschitzReport(
        path_distance=denom,
        ratios=ratios,
        max_ratio=max(ratios),
        declared=kernel.declared_lipschitz(),
        witnesses=probes_and_witnesses,
    )
