import numpy as np
import pytest
from scipy import special

from conftest import NDTR_EDGES, NDTRI_EDGES, same_bits
from robustdp import normal

# random scalars and arrays are checked against norm.cdf and norm.ppf in
# tests/test_hedging.py and tests/test_ambiguity.py; here every edge runs on
# every call, nan payloads included, against the scipy.special functions ported
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.mark.parametrize("f, oracle, edges", [(normal.ndtr, special.ndtr, NDTR_EDGES),
                                              (normal.ndtri, special.ndtri, NDTRI_EDGES)])
def test_edges_and_shapes_equal_scipy(f, oracle, edges):
    assert same_bits(f(edges), oracle(edges))
    for v in edges[:6].tolist() + [np.array(0.25), np.float64(0.75), 3]:
        got, want = f(v), oracle(v)
        assert type(got) is type(want) and same_bits(got, want)
    for shaped in (np.empty(0), np.empty((0, 3)), edges[:12].reshape(3, 4)):
        assert same_bits(f(shaped), oracle(shaped))


def test_dense_sweep_equals_scipy():
    # every branch at 10^5 points: a port whose exp or log rounds differently
    # from libm misses here on hundreds of them
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-40.0, 40.0, 60_000), rng.normal(0.0, 2.0, 40_000)])
    assert same_bits(normal.ndtr(x), special.ndtr(x))
    y = np.concatenate([rng.uniform(0.0, 1.0, 40_000), 10.0 ** rng.uniform(-320.0, 0.0, 30_000),
                        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 30_000)])
    assert same_bits(normal.ndtri(y), special.ndtri(y))
