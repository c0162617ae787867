"""Path-dependent admissible action sets with grid discretization.

Three variants: a constant compact set (box or explicit finite list), a
ball around a Lipschitz center map inside a convex ambient set, and a box
with Lipschitz per-coordinate bounds.  `clamp_to` is the projection used
to carry an action admissible at one path to a nearby path while moving
it no more than the declared Lipschitz constant times the path distance.
"""

from __future__ import annotations

import numpy as np

from .ambiguity import as_path, v_lambda

__all__ = ["ConstantSet", "BallSet", "BoxSet", "grid", "clamp_to"]

ADMISSIBLE_TOL = 1e-9


class ConstantSet:
    """Path-independent action set: a box [low, high] or a finite list."""

    def __init__(self, low=None, high=None, points=None, resolution=None):
        if points is not None:
            self.points = np.atleast_2d(np.asarray(points, dtype=float))
            self.low = self.points.min(axis=0)
            self.high = self.points.max(axis=0)
        else:
            self.points = None
            self.low = np.atleast_1d(np.asarray(low, dtype=float))
            self.high = np.atleast_1d(np.asarray(high, dtype=float))
            if np.any(self.low > self.high):
                raise ValueError("lower bounds exceed upper bounds")
        self.resolution = resolution
        self.lipschitz = 0.0

    @property
    def dim(self):
        return self.low.shape[0]

    def bounds_at(self, path):
        return self.low, self.high

    def contains(self, path, action):
        return _contains_one(self, path, action)

    def contains_rows(self, path, actions):
        """Membership of each row of actions (k, m), as a (k,) mask."""
        if self.points is not None:
            near = np.abs(self.points[None] - actions[:, None]) <= ADMISSIBLE_TOL
            return np.any(np.all(near, axis=2), axis=1)
        return _in_box(actions, self.low, self.high)


class BallSet:
    """{ a in ambient : ||a - center(path)|| <= radius(path) }.

    center must be Lipschitz with the declared constant; the ambient set is
    a closed convex box (or all of R^m when ambient_low/high are None).
    """

    def __init__(self, center_fn, center_lipschitz, radius, dim,
                 ambient_low=None, ambient_high=None):
        self.center_fn = center_fn
        self.radius = radius  # a RadiusSchedule-like callable with .lipschitz
        self._dim = dim
        self.ambient_low = ambient_low
        self.ambient_high = ambient_high
        self.lipschitz = center_lipschitz + radius.lipschitz

    @property
    def dim(self):
        return self._dim

    def center(self, path):
        return np.atleast_1d(np.asarray(self.center_fn(as_path(path)), dtype=float))

    def bounds_at(self, path):
        c = self.center(path)
        r = float(self.radius(path))
        low, high = c - r, c + r
        if self.ambient_low is not None:
            low = np.maximum(low, self.ambient_low)
        if self.ambient_high is not None:
            high = np.minimum(high, self.ambient_high)
        return low, high

    def contains(self, path, action):
        return _contains_one(self, path, action)

    def contains_rows(self, path, actions):
        """Membership of each row of actions (k, m), as a (k,) mask."""
        keep = (np.linalg.norm(actions - self.center(path), axis=1)
                <= float(self.radius(path)) + ADMISSIBLE_TOL)
        if self.ambient_low is not None:
            keep &= np.all(actions >= np.asarray(self.ambient_low) - ADMISSIBLE_TOL, axis=1)
        if self.ambient_high is not None:
            keep &= np.all(actions <= np.asarray(self.ambient_high) + ADMISSIBLE_TOL, axis=1)
        return keep


class BoxSet:
    """Product of intervals [low_j(path), high_j(path)] with Lipschitz bounds."""

    def __init__(self, low_fns, high_fns, lipschitz):
        self.low_fns = list(low_fns)
        self.high_fns = list(high_fns)
        if len(self.low_fns) != len(self.high_fns):
            raise ValueError("need matching lower/upper bound maps")
        # proof constant: 2 * m_t * L for per-coordinate L-Lipschitz bounds
        self.lipschitz = 2.0 * len(self.low_fns) * float(lipschitz)

    @property
    def dim(self):
        return len(self.low_fns)

    def bounds_at(self, path):
        path = as_path(path)
        low = np.array([f(path) for f in self.low_fns], dtype=float)
        high = np.array([f(path) for f in self.high_fns], dtype=float)
        if np.any(low > high + ADMISSIBLE_TOL):
            raise ValueError("box bounds crossed: set would be empty")
        return low, np.maximum(high, low)

    def contains(self, path, action):
        return _contains_one(self, path, action)

    def contains_rows(self, path, actions):
        """Membership of each row of actions (k, m), as a (k,) mask."""
        return _in_box(actions, *self.bounds_at(path))


def _contains_one(spec, path, action):
    """spec.contains_rows on a batch of one action."""
    action = np.atleast_1d(np.asarray(action, dtype=float))
    return bool(spec.contains_rows(path, action[None])[0])


def _in_box(actions, low, high):
    return np.all((actions >= low - ADMISSIBLE_TOL) & (actions <= high + ADMISSIBLE_TOL),
                  axis=1)


def grid(spec, path, resolution=None):
    """Finite subset of the action set at `path`, corners included.

    Uniform per coordinate with `resolution` points (defaults to the
    spec's own resolution); deterministic ordering (C-order over the
    product), so argmax tie-breaking is reproducible.
    """
    if getattr(spec, "points", None) is not None:
        return spec.points.copy()
    res = resolution or getattr(spec, "resolution", None)
    if res is None:
        raise ValueError("no grid resolution configured")
    if np.isscalar(res):
        res = [int(res)] * spec.dim
    if any(r < 1 for r in res):
        raise ValueError("resolution must be >= 1 per coordinate")
    low, high = spec.bounds_at(path)
    axes = []
    for j in range(spec.dim):
        if res[j] == 1:
            axes.append(np.array([0.5 * (low[j] + high[j])]))
        else:
            axes.append(np.linspace(low[j], high[j], res[j]))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = pts[spec.contains_rows(path, pts)]
    if not len(keep):
        raise ValueError("discretization produced an empty action set")
    return keep


def clamp_to(spec, path_target, action, path_source=None):
    """Project an action admissible somewhere onto the set at path_target.

    Box variant: coordinatewise a + (low - a)^+ - (a - high)^+.  Ball
    variant: the three-point map shared with the ambiguity module, applied
    in action space between the source and target centers (when the source
    path is omitted, a plain radial pull toward the target center is used;
    it is admissible but carries no displacement guarantee).  Constant sets
    return the action unchanged (boxes clip).  The displacement is bounded
    by the spec's Lipschitz constant times the path distance, which the
    tests verify on random instances.
    """
    action = np.atleast_1d(np.asarray(action, dtype=float))
    if isinstance(spec, ConstantSet):
        if spec.points is not None:
            if not spec.contains(path_target, action):
                dists = np.linalg.norm(spec.points - action, axis=1)
                return spec.points[int(np.argmin(dists))].copy()
            return action.copy()
        return np.clip(action, spec.low, spec.high)
    if isinstance(spec, BoxSet):
        low, high = spec.bounds_at(path_target)
        return action + np.clip(low - action, 0.0, None) - np.clip(
            action - high, 0.0, None
        )
    if isinstance(spec, BallSet):
        c_t = spec.center(path_target)
        r_t = float(spec.radius(path_target))
        if path_source is not None:
            c_s = spec.center(path_source)
            r_s = float(spec.radius(path_source))
            lam = 0.0 if r_s == 0.0 else max(r_s - r_t, 0.0) / r_s
            out = v_lambda(c_s, c_t, action, lam)
        else:
            dist = float(np.linalg.norm(action - c_t))
            out = (
                action.copy()
                if dist <= r_t + ADMISSIBLE_TOL
                else c_t + (action - c_t) * (r_t / dist)
            )
        if spec.ambient_low is not None:
            out = np.maximum(out, spec.ambient_low)
        if spec.ambient_high is not None:
            out = np.minimum(out, spec.ambient_high)
        return out
    raise TypeError(f"unknown action spec {type(spec)!r}")
