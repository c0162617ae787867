"""Discrete probability measures on R^d and exact Wasserstein-q distances.

Every ambiguity set in this package is built on top of two primitives:
finitely supported measures (weighted point masses) and the exact optimal
transport distance between them.  On the line (d = 1) the optimal plan is
the sorted north-west-corner (quantile) coupling, exact for every order
q >= 1 and built without solving anything; in higher dimension the plan
comes from the transport linear program (HiGHS, sparse marginal
constraints), which supports at desk scale (up to a few hundred atoms)
keep cheap.  `_lp_plan` imports scipy inside the function: it is the only
scipy call in the package, and the import costs a process about 0.3 s
and 20 MB of memory.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LocalSpace",
    "DiscreteMeasure",
    "w_q_discrete",
    "optimal_coupling",
    "cost_matrix",
    "moment",
]

WEIGHT_TOL = 1e-9


class LocalSpace:
    """State space for one time step: R^d, or the centered box [-C, C]^d."""

    def __init__(self, dimension, bound=None):
        if dimension < 1 or int(dimension) != dimension:
            raise ValueError("dimension must be a positive integer")
        if bound is not None and bound <= 0:
            raise ValueError("bound C must be positive")
        self.dimension = int(dimension)
        self.bound = None if bound is None else float(bound)

    def contains(self, point, tol=1e-9):
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            return False
        return bool(self.contains_rows(point[None], tol)[0])

    def contains_rows(self, points, tol=1e-9):
        """Membership of each row of points (k, d), as a (k,) mask."""
        points = np.asarray(points, dtype=float)
        if self.bound is None:
            return np.ones(len(points), dtype=bool)
        return np.all(np.abs(points) <= self.bound + tol, axis=1)

    def clip(self, points):
        """Project points onto the box (identity when unbounded)."""
        points = np.asarray(points, dtype=float)
        if self.bound is None:
            return points
        return np.clip(points, -self.bound, self.bound)

    def grid(self, resolution):
        """Uniform product grid with `resolution` points per coordinate."""
        if self.bound is None:
            raise ValueError("cannot grid an unbounded space")
        axis = np.linspace(-self.bound, self.bound, resolution)
        mesh = np.meshgrid(*([axis] * self.dimension), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def __repr__(self):
        return f"LocalSpace(d={self.dimension}, bound={self.bound})"


class DiscreteMeasure:
    """Probability measure sum_i w_i * delta_{x_i} with x_i in R^d.

    Weights must be nonnegative and sum to one within 1e-9 (then they are
    normalized exactly); larger deviations are rejected rather than silently
    repaired so upstream bugs surface early.
    """

    def __init__(self, support, weights, space=None):
        support = np.atleast_2d(np.asarray(support, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        if support.ndim != 2 or support.shape[0] == 0:
            raise ValueError("support must be a nonempty (n, d) array")
        if support.shape[0] != weights.shape[0]:
            raise ValueError("support and weights must have matching length")
        if np.any(weights < -WEIGHT_TOL):
            raise ValueError("negative weight")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        weights = np.clip(weights, 0.0, None)
        if space is not None:
            if space.dimension != support.shape[1]:
                raise ValueError("support dimension does not match space")
            outside = ~space.contains_rows(support)
            if outside.any():
                x = support[np.argmax(outside)]
                raise ValueError(f"support point {x} outside local space")
        self.support = support
        self.weights = weights / weights.sum()
        self.space = space

    @property
    def dimension(self):
        return self.support.shape[1]

    @property
    def n_atoms(self):
        return self.support.shape[0]

    @classmethod
    def dirac(cls, point, space=None):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(point[None, :], np.array([1.0]), space=space)

    @classmethod
    def empirical(cls, points, space=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        return cls(points, np.full(n, 1.0 / n), space=space)

    def mean(self):
        return self.weights @ self.support

    def to_text(self):
        """Line format `weight x_1 ... x_d`, atoms sorted lexicographically."""
        order = np.lexsort(self.support.T[::-1])
        lines = []
        for i in order:
            coords = " ".join(f"{c:.17g}" for c in self.support[i])
            lines.append(f"{self.weights[i]:.17g} {coords}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, space=None):
        support, weights = [], []
        for line in text.strip().splitlines():
            parts = line.split()
            weights.append(float(parts[0]))
            support.append([float(p) for p in parts[1:]])
        return cls(np.array(support), np.array(weights), space=space)

    def __repr__(self):
        return f"DiscreteMeasure({self.n_atoms} atoms, d={self.dimension})"


def cost_matrix(x, z, q):
    """Ground costs ||x_i - z_j||^q (..., m, n) of points x (..., m, d), z (..., n, d).

    For d = 1 the norm is |x - z|, built in one array: sqrt(fl(u * u)) == |u|
    in round-to-nearest unless u * u underflows or overflows (|u| below about
    1e-154 or above 1e154), so the costs are the norm's bit for bit."""
    if x.shape[-1] != 1:
        return np.linalg.norm(x[..., :, None, :] - z[..., None, :, :], axis=-1) ** q
    cost = np.subtract(x[..., :, None, 0], z[..., None, :, 0], dtype=float)
    np.abs(cost, out=cost)
    if q != 1:
        cost **= q  # the same fast paths (square for q = 2) as ** q
    return cost


def _quantile_plan(mu, nu):
    """North-west-corner plan on the line: sort both supports (stable, so
    ties break deterministically) and match cumulative mass from the left.
    This quantile coupling is optimal for every cost |x - y|^q, q >= 1."""
    ix = np.argsort(mu.support[:, 0], kind="stable")
    iy = np.argsort(nu.support[:, 0], kind="stable")
    cx = np.cumsum(mu.weights[ix])[:-1]
    cy = np.cumsum(nu.weights[iy])[:-1]
    # each piece [edges[k], edges[k+1]) of [0, 1] goes from the sorted atom
    # whose cumulative mass interval holds it to the matching one of nu;
    # the clip keeps a cumulative sum that rounds past 1 from adding a piece
    edges = np.unique(np.clip(np.concatenate([[0.0, 1.0], cx, cy]), 0.0, 1.0))
    i = np.searchsorted(cx, edges[:-1], side="right")
    j = np.searchsorted(cy, edges[:-1], side="right")
    plan = np.zeros((mu.n_atoms, nu.n_atoms))
    plan[ix[i], iy[j]] = np.diff(edges)
    return plan


def _lp_plan(mu, nu, cost):
    """Optimal plan from the transport linear program (HiGHS)."""
    from scipy import sparse
    from scipy.optimize import linprog

    m, n = cost.shape
    # marginal constraints; one row constraint is redundant and dropped to
    # keep the LP full rank
    a_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(m - 1, m), np.ones((1, n))),
            sparse.kron(np.ones((1, m)), sparse.eye(n)),
        ],
        format="csr",
    )
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([mu.weights[:-1], nu.weights]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return np.clip(res.x.reshape(m, n), 0.0, None)


def optimal_coupling(mu, nu, q):
    """Exact optimal transport plan and distance.

    Returns (plan, distance) where plan is an (m, n) matrix with row sums
    mu.weights and column sums nu.weights minimizing sum plan*cost, and
    distance = (optimal cost)^(1/q).  A single atom on either side has one
    plan; on the line the plan is the quantile coupling; otherwise it
    comes from the transport LP.
    """
    if mu.dimension != nu.dimension:
        raise ValueError(f"dimension mismatch: {mu.dimension} vs {nu.dimension}")
    if q < 1 or int(q) != q:
        raise ValueError("order q must be a positive integer")
    cost = cost_matrix(mu.support, nu.support, q)
    if mu.n_atoms == 1:
        plan = nu.weights[None, :].copy()
    elif nu.n_atoms == 1:
        plan = mu.weights[:, None].copy()
    elif mu.dimension == 1:
        plan = _quantile_plan(mu, nu)
    else:
        plan = _lp_plan(mu, nu, cost)
    return plan, float((plan * cost).sum()) ** (1.0 / q)


def w_q_discrete(mu, nu, q):
    """Exact Wasserstein-q distance from the optimal plan of
    optimal_coupling (quantile coupling for d = 1, LP otherwise)."""
    _, dist = optimal_coupling(mu, nu, q)
    return dist


def moment(mu, p):
    """p-th absolute moment sum_i w_i ||x_i||^p (p = 0 gives 1)."""
    if p < 0 or int(p) != p:
        raise ValueError("p must be a nonnegative integer")
    if p == 0:
        return 1.0
    norms = np.linalg.norm(mu.support, axis=1)
    return float(mu.weights @ norms**p)
