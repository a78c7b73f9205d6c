"""Weighted dual norm, spaces, and grid plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab import (
    ConeRep,
    GammaMetric,
    GridSpec,
    InputError,
    NormedSpace,
    ResourceCapError,
    gamma_dual_distance,
    make_grid,
)
from regulab.spaces import ball_mask

finite = st.floats(-10, 10, allow_nan=False)
gammas = st.floats(0.01, 10, allow_nan=False)


def zero_cone_distance(xs, ys, g: GammaMetric) -> float:
    """Weighted distance from (xs, ys) to the zero cone: the dual norm
    ``|xs| + |ys|/gamma``."""
    cone = ConeRep.make(dim=len(xs) + len(ys))
    return gamma_dual_distance(np.concatenate([xs, ys]), cone, g, len(xs))


def test_dual_norm_values():
    assert zero_cone_distance([0.0], [0.0], GammaMetric(1.0)) == 0.0
    assert zero_cone_distance([1.0], [0.0], GammaMetric(3.0)) == 1.0
    assert zero_cone_distance([0.0], [1.0], GammaMetric(0.5)) == 2.0


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
    # a resolution that is no integer is refused, not left to np.linspace
    for res in (2.5, 3.0, True, "3"):
        with pytest.raises(InputError, match="integer"):
            GridSpec((0.0,), (1.0,), res)
    assert GridSpec((0.0,), (1.0,), np.int64(3)).point_count() == 3


def test_normed_space_checks():
    assert NormedSpace("X", 2).dim == 2
    assert NormedSpace("X", np.int64(2)).dim == 2
    with pytest.raises(InputError):
        NormedSpace("bad", 0)
    for dim in (1.5, 2.0, True, None):
        with pytest.raises(InputError, match="integer"):
            NormedSpace("bad", dim)


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
    dn = zero_cone_distance(xs, ys, gm)
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
