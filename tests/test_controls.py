import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from robustdp.ambiguity import ConstantRadius
from robustdp.controls import BallSet, BoxSet, ConstantSet


def test_box_grid_endpoints():
    spec = ConstantSet(low=[0.0], high=[1.0], resolution=3)
    pts = spec.grid(np.zeros((0, 1)))
    assert np.allclose(pts.ravel(), [0.0, 0.5, 1.0])


def test_finite_set_grid_is_itself():
    spec = ConstantSet(points=[[-1.0], [0.0], [1.0]])
    pts = spec.grid(np.zeros((0, 1)))
    assert np.allclose(pts, [[-1.0], [0.0], [1.0]])


def test_ball_grid_five_points():
    spec = BallSet(lambda p: np.zeros(1), 0.0, ConstantRadius(1.0), dim=1, resolution=5)
    pts = spec.grid(np.zeros((0, 1)))
    assert np.allclose(pts.ravel(), np.linspace(-1, 1, 5))


def test_grid_resolution_one_midpoint():
    spec = ConstantSet(low=[0.0, -2.0], high=[1.0, 2.0], resolution=1)
    pts = spec.grid(np.zeros((0, 2)))
    assert np.allclose(pts, [[0.5, 0.0]])


def test_grid_membership_invariant():
    rng = np.random.default_rng(2)
    low = rng.uniform(-1, 0, size=3)
    high = low + rng.uniform(0.1, 1, size=3)
    spec = ConstantSet(low=low, high=high, resolution=4)
    for p in spec.grid(np.zeros((0, 1))):
        assert spec.contains(np.zeros((0, 1)), p)


def test_grid_errors_on_bad_resolution():
    spec = ConstantSet(low=[0.0], high=[1.0], resolution=0)
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        spec.grid(np.zeros((0, 1)))


def make_box(lip=0.5, resolution=None):
    low_fns = [lambda p: lip * float(p.sum()) if p.size else 0.0]
    high_fns = [lambda p: 1.0 + lip * float(p.sum()) if p.size else 1.0]
    return BoxSet(low_fns, high_fns, lipschitz=lip, resolution=resolution)


def test_clamp_same_path_identity():
    spec = make_box()
    path = np.array([[0.3]])
    a = np.array([0.5])
    assert np.allclose(spec.clamp(path, a), a)


def test_clamp_lower_bound():
    spec = BoxSet([lambda p: 0.5], [lambda p: 1.0], lipschitz=1.0)
    out = spec.clamp(np.array([[0.0]]), np.array([0.2]))
    assert out[0] == pytest.approx(0.5)


def test_clamp_idempotent():
    # every set kind: the clamp lands in the set at the target path, and a
    # second clamp there leaves it where it is
    rng = np.random.default_rng(5)
    ball = BallSet(lambda p: np.array([0.4 * float(p.sum()) if p.size else 0.0]), 0.4,
                   ConstantRadius(0.5), dim=1, ambient_low=[-0.6], ambient_high=[0.8])
    specs = {"constant box": ConstantSet(low=[-0.5], high=[1.0]),
             "constant list": ConstantSet(points=[[-1.0], [0.25], [1.5]]),
             "box": make_box(0.7), "ball": ball}
    for name, spec in specs.items():
        for _ in range(20):
            path = rng.uniform(-1, 1, size=(2, 1))
            once = spec.clamp(path, rng.uniform(-2, 2, size=1))
            assert spec.contains(path, once), name
            assert np.allclose(spec.clamp(path, once), once), name
    # from a source path the three-point map carries an action admissible
    # there; carried again from the target path to itself, it stays put
    source = np.array([[0.9], [-0.2]])
    for _ in range(20):
        path = rng.uniform(-1, 1, size=(2, 1))
        a = ball.clamp(source, rng.uniform(-2, 2, size=1))
        once = ball.clamp(path, a, path_source=source)
        assert ball.contains(path, once)
        assert np.allclose(ball.clamp(path, once, path_source=path), once)


def test_clamp_displacement_bounded_by_lipschitz_constant():
    # proof bound: displacement <= 2 * m_t * L * sum ||dw||
    rng = np.random.default_rng(8)
    lip = 0.6
    m_t = 2
    low_fns = [
        (lambda j: lambda p: lip * float(np.sin(p).sum()) - 0.5 - 0.3 * j)(j)
        for j in range(m_t)
    ]
    high_fns = [
        (lambda j: lambda p: lip * float(np.sin(p).sum()) + 0.5 + 0.3 * j)(j)
        for j in range(m_t)
    ]
    spec = BoxSet(low_fns, high_fns, lipschitz=lip)
    for _ in range(50):
        p1 = rng.uniform(-1, 1, size=(3, 1))
        p2 = rng.uniform(-1, 1, size=(3, 1))
        low, high = spec.bounds_at(p1)
        a = rng.uniform(low, high)
        moved = spec.clamp(p2, a)
        assert spec.contains(p2, moved)
        dist = np.linalg.norm(p1 - p2, axis=1).sum()
        assert np.linalg.norm(a - moved) <= spec.lipschitz * dist + 1e-9


def test_ball_clamp_with_source_path_matches_three_point_bound():
    rng = np.random.default_rng(13)
    center = lambda p: np.array([0.4 * float(p.sum()) if p.size else 0.0])
    spec = BallSet(center, 0.4, ConstantRadius(0.5), dim=1)
    for _ in range(50):
        p1 = rng.uniform(-1, 1, size=(2, 1))
        p2 = rng.uniform(-1, 1, size=(2, 1))
        c1 = spec.center(p1)
        a = c1 + rng.uniform(-0.5, 0.5, size=1)
        moved = spec.clamp(p2, a, path_source=p1)
        assert spec.contains(p2, moved)
        dist = np.linalg.norm(p1 - p2, axis=1).sum()
        assert np.linalg.norm(a - moved) <= spec.lipschitz * dist + 1e-9


def test_grid_points_clamp_to_neighbor_set():
    # Hausdorff-style property: every grid point of A(w) lands inside
    # A(w~) within the declared constant times the path distance
    spec = make_box(0.5, resolution=5)
    p1 = np.array([[0.2], [0.1]])
    p2 = np.array([[-0.3], [0.4]])
    dist = np.linalg.norm(p1 - p2, axis=1).sum()
    for a in spec.grid(p1):
        moved = spec.clamp(p2, a)
        assert spec.contains(p2, moved)
        assert np.linalg.norm(a - moved) <= spec.lipschitz * dist + 1e-9


def test_crossed_bounds_error():
    spec = BoxSet([lambda p: 1.0], [lambda p: 0.0], lipschitz=1.0, resolution=2)
    with pytest.raises(ValueError):
        spec.grid(np.zeros((0, 1)))


def member(spec, path, p):
    """Per-point containment rule of each action set, written out here so
    the oracle does not share code with the array test it checks."""
    tol = 1e-9
    if isinstance(spec, BallSet):
        if spec.ambient_low is not None and np.any(p < spec.ambient_low - tol):
            return False
        if spec.ambient_high is not None and np.any(p > spec.ambient_high + tol):
            return False
        return np.linalg.norm(p - spec.center(path)) <= float(spec.radius(path)) + tol
    low, high = spec.bounds_at(path)
    return np.all(p >= low - tol) and np.all(p <= high + tol)


def uniform_mesh(spec, path, res):
    """The uniform mesh over the set's bounds at path, in C order."""
    low, high = spec.bounds_at(path)
    axes = [np.array([0.5 * (lo + hi)]) if res == 1 else np.linspace(lo, hi, res)
            for lo, hi in zip(low, high)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["constant", "box", "ball"]),
       st.integers(1, 3), st.integers(1, 6), st.booleans())
@example(2, "ball", 1, 3, True)  # the ball lies below its ambient box
@example(4, "ball", 1, 3, True)  # the ball lies above its ambient box
def test_grid_equals_per_point_contains_filter(seed, kind, dim, res, ambient):
    rng = np.random.default_rng(seed)
    path = rng.uniform(-1, 1, size=(2, 1))
    shift = rng.uniform(-1, 1, size=dim)
    if kind == "constant":
        low = rng.uniform(-1, 0, size=dim)
        spec = ConstantSet(low=low, high=low + rng.uniform(0, 1, size=dim), resolution=res)
    elif kind == "box":
        spec = BoxSet([lambda p, s=s: s * float(p.sum()) - 0.5 for s in shift],
                      [lambda p, s=s: s * float(p.sum()) + 0.5 for s in shift], 0.5,
                      resolution=res)
    else:
        # a ball partly or wholly outside its ambient box crosses the bounds
        bounds = (-0.3 * np.ones(dim), 0.4 * np.ones(dim)) if ambient else (None, None)
        spec = BallSet(lambda p: shift * float(p.sum()), 0.5,
                       ConstantRadius(float(rng.uniform(0.05, 0.8))), dim, *bounds,
                       resolution=res)
    mesh = uniform_mesh(spec, path, res)
    inside = [bool(member(spec, path, p)) for p in mesh]
    assert [spec.contains(path, p) for p in mesh] == inside
    want = mesh[inside]
    if not len(want):
        with pytest.raises(ValueError, match="empty action set"):
            spec.grid(path)
        return
    assert np.array_equal(spec.grid(path), want)
