"""Path-dependent ambiguity sets of transition laws.

An ambiguity kernel maps an observed path to a set of candidate one-step
transition measures: a Wasserstein ball around a data-driven reference
kernel, a parameter ball inside a closed-form family (diagonal normal or
exponential), or an explicit finite set, of which the non-robust singleton
is the one-member case.  Each set class answers for itself: center(path),
eps(path) (0 for a finite set), distance(path, m), sample(path, count, rng)
and witnesses(p1, p2, rng), so membership, sample_measures and
lipschitz_audit are one formula each.  A Wasserstein ball's and a finite
set's candidates(t, d, count, rng) are reference kernels, each a member at
every stage-t path: the one candidate rule of the exact solver, Algorithm 1
and the Monte Carlo evaluation.  Each family declares the W order of its
lipschitz constant.  The module also houses the three-point transport that
moves a measure from one ball into another while controlling both
distances, and the adaptive radius schedule of the hedging experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .measures import (DiscreteMeasure, _choice_indices, cost_matrix, optimal_coupling,
                       w_q_discrete)
from .normal import ndtri

__all__ = [
    "ConstantKernel",
    "KernelWeighted",
    "AdaptiveEmpirical",
    "TabularKernel",
    "ConstantRadius",
    "AdaptiveRadius",
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
# reference kernels  (path -> center measure); atoms_at(paths (b, t, d), u)
# inverts u (b, n) on each path's cdf into next states (b, n, d), and
# draw(paths, n, rng) draws them from a documented stream
# ---------------------------------------------------------------------------


class _InverseCdfDraw:
    def draw(self, paths, n, rng):
        """One rng.random((b, n)) block inverted by atoms_at."""
        return self.atoms_at(paths, rng.random((len(paths), n)))


class ConstantKernel(_InverseCdfDraw):
    """Same measure at every path; Lipschitz constant 0."""

    def __init__(self, measure):
        self.measure = measure
        self.lipschitz = 0.0

    def __call__(self, path):
        return self.measure

    def atoms_at(self, paths, u):
        """The measure's atoms at u: drawn by draw, those of rng.choice(n_atoms,
        (b, n), p=weights), and the rng state after them too."""
        return self.measure.atoms_at(u)


class KernelWeighted(_InverseCdfDraw):
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

    def atoms_at(self, paths, u):
        """Row i of u inverted on path i's weights: drawn by draw, the stream of
        one rng.choice(N - t, n, p=weights) call per path."""
        w = self.weights(paths)
        atoms = self.history[paths.shape[1]:]
        return atoms[np.stack([_choice_indices(wi, ui) for wi, ui in zip(w, u)])]


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

    def atoms_at(self, paths, u):
        """Row i of u inverted on the N + t uniform weights of path i."""
        b, t, _ = paths.shape
        atoms = np.concatenate([np.broadcast_to(self.history, (b,) + self.history.shape),
                                paths], axis=1)
        return atoms[np.arange(b)[:, None], _choice_indices(np.ones(atoms.shape[1]), u)]

    def draw(self, paths, n, rng):
        """One rng.integers(0, N + t, size=n) call per path: integers buffers
        32-bit draws within a call, so one call over all paths would not
        give the same stream."""
        b, t, d = paths.shape
        out = np.empty((b, n, d))
        for i in range(b):
            atoms = self.history if t == 0 else np.vstack([self.history, paths[i]])
            out[i] = atoms[rng.integers(0, len(atoms), size=n)]
        return out


class TabularKernel:
    """Explicit map from path keys to measures (grid instances).  It has no
    draw: a table holds grid paths only, so the neural trainers reject it."""

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


def _bridge_integral_quantile(alpha, n_paths, n_steps):
    """alpha-quantile of int_0^1 |B(u)| du for a Brownian bridge B.

    Monte Carlo over discretized bridges from one fixed seed; cached per
    parameter set.  The default 1e5 x 1e3 resolution keeps the quantile's
    standard error well under 1% of its value.
    """
    key = (round(alpha, 12), n_paths, n_steps)
    if key in _BRIDGE_QUANTILE_CACHE:
        return _BRIDGE_QUANTILE_CACHE[key]
    rng = np.random.default_rng(np.random.SeedSequence([0, 0x62726964]))
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


def adaptive_radius_1d(alpha_quantile, n_plus_t, n_paths=100_000, n_steps=1000):
    """Shrinking radius H^alpha / sqrt(N + t) for scalar returns.

    H^alpha is the alpha-quantile of the integrated absolute Brownian
    bridge, estimated once by seeded Monte Carlo and cached.
    """
    if not 0.0 < alpha_quantile < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    if n_plus_t < 1:
        raise ValueError("N + t must be at least 1")
    h = _bridge_integral_quantile(alpha_quantile, n_paths, n_steps)
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


class AdaptiveRadius:
    """eps_t = adaptive_radius_1d(alpha, N + t) for d = 1, and
    adaptive_radius_multidim(d, C, N + t, alpha) on [-C, C]^d for d >= 2;
    it depends on t only, so L_eps = 0."""

    def __init__(self, d, C, n_history, alpha=0.9, n_paths=100_000, n_steps=1000):
        self.d = d
        self.C = C
        self.n_history = int(n_history)
        self.alpha = float(alpha)
        self.n_paths = n_paths
        self.n_steps = n_steps
        self.lipschitz = 0.0

    def __call__(self, path):
        n_plus_t = self.n_history + as_path(path).shape[0]
        if self.d == 1:
            return adaptive_radius_1d(self.alpha, n_plus_t, self.n_paths, self.n_steps)
        return adaptive_radius_multidim(self.d, self.C, n_plus_t, self.alpha)


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------


class NormalDiagFamily:
    """N(mu, diag(sigma^2)) on R^d, theta = (mu, sigma) in R^d x [0, inf)^d."""

    order = 2  # the W order of lipschitz and of the closed-form distance
    min_observations = 2  # of estimate

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
        if t < self.min_observations:
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

    order = 1  # the W order of lipschitz
    min_observations = 1  # of estimate

    def __init__(self):
        self.d = 1
        self.theta_dim = 1
        self.lipschitz = 1.0  # (1!)^(1/1), the W_1 constant

    def project(self, theta):
        return np.clip(np.atleast_1d(np.asarray(theta, dtype=float)), 0.0, None)

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
# ambiguity sets: center, eps, distance (for membership), sample (element 0
# the center) and witnesses ((probe at p1, witness at p2, distance) triples)
# ---------------------------------------------------------------------------


class _CandidateSet:
    def sample(self, path, count, rng):
        """The candidates of the path's stage at the path, element 0 the center."""
        path = as_path(path)
        return [c(path) for c in self.candidates(*path.shape, count, rng)]


@dataclass
class WassersteinBall(_CandidateSet):
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

    def distance(self, path, candidate):
        return w_q_discrete(self.center(path), candidate, self.order)

    def candidates(self, t, d, count, rng):
        """Reference kernels, each a member at every stage-t path: the
        reference, then count - 1 two-copy members, each drawing its template
        for stage t (none for count 1).  Around a set of declared Lipschitz
        constant 0 a member is the ConstantKernel of its measure at the zero
        path, certified by exact W_q against the ball: the two-copy bound
        needs the reference's atoms inside the ball's space, so a reference
        with an atom outside it raises.  A zero radius at stage t gives count
        copies of the reference."""
        zero = np.zeros((t, d))
        if self.eps(zero) == 0.0:
            return [self.reference] * count
        n_atoms = self.center(zero).n_atoms
        members = [_TwoCopyMember(self, n_atoms, d, rng) for _ in range(count - 1)]
        if self.declared_lipschitz() == 0:
            members = [ConstantKernel(self._certified(t, m(zero))) for m in members]
        return [self.reference] + members

    def _certified(self, t, member):
        """The member, once membership (exact OT) finds it in the ball."""
        inside, slack = membership(self, np.zeros((t, member.dimension)), member)
        if not inside:
            raise ValueError(f"stage {t}: a two-copy member lies {-slack:.6g} outside the "
                             "WassersteinBall; its reference has atoms outside the "
                             "ball's space")
        return member

    def witnesses(self, p1, p2, rng):
        """The center at p1 and, given an rng and a positive radius, two
        members sampled around it, each glued into the ball at p2."""
        ref1, ref2 = self.center(p1), self.center(p2)
        eps1, eps2 = self.eps(p1), self.eps(p2)
        probes = [ref1]
        if rng is not None and eps1 > 0:
            probes += sample_measures(self, p1, 3, rng)[1:]
        glued = [transport_between_balls(p, ref1, eps1, ref2, eps2, self.order)
                 for p in probes]
        return [(p, w, w_q_discrete(p, w, 1)) for p, w in zip(probes, glued)]


class _TwoCopyMember(_InverseCdfDraw):
    """A member of a Wasserstein ball at every path w: the reference atom
    x_i(w) of weight w_i(w) splits into copies clip(x_i(w) + eps(w) s_ij) of
    mass w_i(w) p_ij, in (i, j) order, with s_ij uniform in the unit ball,
    p_i0 ~ U(0, 1) and p_i1 = 1 - p_i0; a worst case splits each atom in two
    at most (Gao & Kleywegt, arXiv:1604.02199; Esfahani & Kuhn, Math. Prog.
    2018).  Moving each atom onto its copies costs at most eps(w)^q, and
    clipping onto the convex box moves no copy farther from x_i(w)."""

    def __init__(self, ball, n_atoms, d, rng):
        self.ball = ball
        shift = rng.normal(size=(n_atoms, 2, d))
        norms = np.linalg.norm(shift, axis=-1, keepdims=True)
        norms[norms == 0] = 1.0
        self.offsets = shift / norms * rng.random((n_atoms, 2, 1)) ** (1.0 / d)
        share = rng.random(n_atoms)
        self.shares = np.stack([share, 1.0 - share], axis=1)

    def __call__(self, path):
        center = self.ball.center(path)
        space = center.space or self.ball.space
        pts = center.support[:, None, :] + self.ball.eps(path) * self.offsets
        if space is not None:
            pts = space.clip(pts)
        return DiscreteMeasure(pts.reshape(-1, center.dimension),
                               (center.weights[:, None] * self.shares).ravel(), space=space)

    def atoms_at(self, paths, u):
        """Row i of u inverted on the member's cdf at path i."""
        return np.stack([self(path).atoms_at(ui) for path, ui in zip(paths, u)])


@dataclass
class ParametricBall:
    family: object
    radius: object
    theta0: object = None  # stage-0 center (no path to estimate from)
    n_atoms: int = 31
    space: object = None

    def center_theta(self, path):
        """theta0 at stage 0, then the family's estimate on the path."""
        path = as_path(path)
        t, first = path.shape[0], self.family.min_observations
        if t == 0:
            if self.theta0 is None:
                raise ValueError("stage-0 parametric ball needs theta0")
            return np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if t < first:
            raise ValueError(f"stage {t}: a {type(self.family).__name__} ball has a center at "
                             f"stage 0 (theta0) and from stage {first} on, as its estimate "
                             f"needs {first} observations")
        return self.family.estimate(path)

    def center(self, path):
        return self.family.discretize(
            self.center_theta(path), self.n_atoms, self.space
        )

    def eps(self, path):
        return float(self.radius(path))

    def declared_lipschitz(self):
        return None  # depends on t; see lipschitz_audit

    def distance(self, path, candidate):
        """Euclidean parameter distance; the candidate must carry the `theta`
        tag of sample / discretize, as a raw discrete measure has none."""
        theta = getattr(candidate, "theta", None)
        if theta is None:
            raise ValueError(
                "cannot test a raw discrete measure against a parametric ball"
            )
        return float(np.linalg.norm(np.atleast_1d(theta) - self.center_theta(path)))

    def sample(self, path, count, rng):
        """Parameters uniform in the parameter ball, projected onto the family."""
        theta_hat = self.center_theta(path)
        eps = self.eps(path)
        dim = theta_hat.shape[0]
        out = [self.family.discretize(theta_hat, self.n_atoms, self.space)]
        for _ in range(count - 1):
            if eps == 0.0:
                theta = theta_hat
            else:
                direction = rng.normal(size=dim)
                nrm = np.linalg.norm(direction)
                direction = direction / nrm if nrm > 0 else direction
                radius = eps * rng.uniform() ** (1.0 / dim)
                theta = self.family.project(theta_hat + radius * direction)
            out.append(self.family.discretize(theta, self.n_atoms, self.space))
        return out

    def witnesses(self, p1, p2, rng):
        """The center parameter at p1 and, given an rng and a positive radius,
        two sampled around it, each clamped into the ball at p2; distances in
        the family's order."""
        th1, th2 = self.center_theta(p1), self.center_theta(p2)
        eps1, eps2 = self.eps(p1), self.eps(p2)
        lam = 0.0 if eps1 == 0.0 else max(eps1 - eps2, 0.0) / eps1
        thetas = [th1]
        if rng is not None and eps1 > 0:
            thetas += [m.theta for m in sample_measures(self, p1, 3, rng)[1:]]
        fam = self.family
        clamped = [fam.project(v_lambda(th1, th2, np.atleast_1d(th), lam)) for th in thetas]
        return [(th, w, fam.distance(th, w, fam.order)) for th, w in zip(thetas, clamped)]


@dataclass
class FiniteSet(_CandidateSet):
    """An explicit set of reference kernels, element 0 the reference; its
    radius is 0 and its distance the W_1 to the nearest member."""

    references: list

    @property
    def reference(self):
        return self.references[0]

    def center(self, path):
        return self.reference(path)

    def eps(self, path):
        return 0.0

    def declared_lipschitz(self):
        ls = [getattr(k, "lipschitz", None) for k in self.references]
        if any(l is None for l in ls):
            return None
        return max(ls)

    def distance(self, path, candidate):
        return min(w_q_discrete(k(path), candidate, 1) for k in self.references)

    def candidates(self, t, d, count, rng):
        """The references, whatever the count; no rng draw."""
        return list(self.references)

    def witnesses(self, p1, p2, rng):
        """Each member at p1 against the same member at p2."""
        pairs = [(k(p1), k(p2)) for k in self.references]
        return [(m1, m2, w_q_discrete(m1, m2, 1)) for m1, m2 in pairs]


class Singleton(FiniteSet):
    """The non-robust set {reference(path)}."""

    def __init__(self, reference):
        super().__init__([reference])


def dual_inner_min(psi_z, lam, x, z, q):
    """The W_q dual's inner minimum min_j {psi_z[j] + lam ||x_i - z_j||^q}, a Var
    (..., m) over points x (..., m, d) and z (..., n, d).  psi_z and lam may be
    tape Vars, whose gradients go to the first-index minimum, or arrays and
    floats; the caller reduces over x and subtracts lam eps^q.  One fused tape
    node, ad.dual_min, which takes the ground costs from cost_matrix one tile
    of x's rows at a time and builds no (..., m, n) array."""
    return ad.dual_min(psi_z, lam, x, z, lambda a, b, out=None: cost_matrix(a, b, q, out))


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
    """Test whether a candidate measure belongs to the ambiguity set: returns
    (member, slack) with slack = eps - distance, the set's own radius and
    distance.  A finite set's radius is 0, so its slack is minus the W_1 to
    the nearest member; a parametric ball needs the candidate's theta tag.
    """
    dist = kernel.distance(path, candidate)
    eps = kernel.eps(path)
    return dist <= eps + MEMBERSHIP_TOL, eps - dist


def sample_measures(kernel, path, count, rng):
    """Candidate measures from the ambiguity set, element 0 the center: a
    finite set (a singleton too) gives its members, and a ball `count`
    measures by its own sample.  Every output passes membership; a zero
    radius returns copies of the center.  The one entry point for sampling
    a set, so every caller's samples are counted alike.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return kernel.sample(path, count, rng)


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

    The set's witnesses(p1, p2, rng) pairs each probe measure of the set at
    path1 with a witness in the set at path2: gluing transport for a
    Wasserstein ball, a parameter clamp for a parametric ball, the same
    member for a finite set.  Reports the achieved ratios
    d(P, witness) / sum_i ||w_i - w~_i|| against the declared constant.
    Numerical evidence only, never a proof.
    """
    p1, p2 = as_path(path1), as_path(path2)
    if p1.shape != p2.shape:
        raise ValueError("paths must have equal length and dimension")
    denom = float(np.linalg.norm(p1 - p2, axis=1).sum()) if p1.size else 0.0

    probes_and_witnesses = kernel.witnesses(p1, p2, rng)
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
