"""Product metric, dual norm, and grid plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab import (
    DimensionMismatchError,
    GammaMetric,
    GridSpec,
    InputError,
    NormedSpace,
    ResourceCapError,
    dual_norm,
    make_grid,
    prod_dist,
)
from regulab.spaces import ball_mask

finite = st.floats(-10, 10, allow_nan=False)
gammas = st.floats(0.01, 10, allow_nan=False)


def test_prod_dist_coincident_points_is_zero():
    g = GammaMetric(0.7)
    assert prod_dist([1, 2], [3], [1, 2], [3], g) == 0.0


def test_prod_dist_direct_formula():
    assert prod_dist([1.0], [2.0], [0.0], [0.0], GammaMetric(0.5)) == 1.0
    assert prod_dist([0.0], [1.0], [0.0], [0.0], GammaMetric(2.0)) == 2.0


def test_prod_dist_symmetry_and_mismatch():
    g = GammaMetric(1.5)
    assert prod_dist([1], [2], [0], [0], g) == prod_dist([0], [0], [1], [2], g)
    with pytest.raises(DimensionMismatchError):
        prod_dist([1, 2], [0], [1], [0], g)


def test_dual_norm_values():
    assert dual_norm([0.0], [0.0], GammaMetric(1.0)) == 0.0
    assert dual_norm([1.0], [0.0], GammaMetric(3.0)) == 1.0
    assert dual_norm([0.0], [1.0], GammaMetric(0.5)) == 2.0


def test_gamma_must_be_positive():
    with pytest.raises(InputError):
        GammaMetric(0.0)
    with pytest.raises(InputError):
        GammaMetric(-1.0)


def test_make_grid_endpoints_and_order():
    g = make_grid(GridSpec((0.0,), (1.0,), 2))
    assert np.allclose(g, [[0.0], [1.0]])
    g = make_grid(GridSpec((-1.0,), (1.0,), 3))
    assert np.allclose(g, [[-1.0], [0.0], [1.0]])
    g = make_grid(GridSpec((0.0, 0.0), (1.0, 1.0), 2))
    assert np.allclose(g, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_make_grid_cap():
    with pytest.raises(ResourceCapError):
        make_grid(GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 200))


def test_grid_validation():
    with pytest.raises(InputError):
        GridSpec((0.0,), (0.0,), 3)
    with pytest.raises(InputError):
        GridSpec((0.0,), (1.0,), 1)


def test_normed_space_checks():
    X = NormedSpace("X", 2)
    assert X.norm([3.0, 4.0]) == 5.0
    with pytest.raises(DimensionMismatchError):
        X.norm([1.0])
    with pytest.raises(InputError):
        NormedSpace("bad", 0)


def test_ball_mask():
    pts = np.array([[0.0], [0.5], [2.0]])
    assert ball_mask(pts, np.array([0.0]), 1.0).tolist() == [True, True, False]
    assert ball_mask(pts, np.array([0.0]), math.inf).all()


@given(xs=st.lists(finite, min_size=2, max_size=2),
       ys=st.lists(finite, min_size=2, max_size=2),
       g=gammas)
@settings(max_examples=60, deadline=None)
def test_duality_pairing_bound(xs, ys, g):
    """Pairing of any dual pair against unit-product-norm primal directions
    never exceeds the dual norm, and the sampled maximum comes close."""
    gm = GammaMetric(g)
    xs, ys = np.array(xs), np.array(ys)
    dn = dual_norm(xs, ys, gm)
    best = 0.0
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for tu in th:
        u = np.array([np.cos(tu), np.sin(tu)])
        for tv in th[::4]:
            v = np.array([np.cos(tv), np.sin(tv)]) / g
            # max(|u|, g|v|) = 1 by construction
            pair = xs @ u + ys @ v
            best = max(best, pair)
            assert pair <= dn + 1e-9
    assert best >= dn - 0.05 * dn - 1e-9


@given(u=finite, v=finite, x=finite, y=finite, g1=gammas, g2=gammas)
@settings(max_examples=60, deadline=None)
def test_metric_monotone_in_gamma(u, v, x, y, g1, g2):
    lo, hi = sorted([g1, g2])
    d_lo = prod_dist([u], [v], [x], [y], GammaMetric(lo))
    d_hi = prod_dist([u], [v], [x], [y], GammaMetric(hi))
    assert d_lo <= d_hi + 1e-12
