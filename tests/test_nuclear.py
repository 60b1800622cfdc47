"""Capped simplex projection, the ball geometry, and the prox step."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize

from lowrank_ar.nuclear import (
    NuclearBallGeometry,
    capped_simplex_project,
    nuclear_norm,
    prox_nuc,
)


def project_via_root(sigma, radius):
    """Independent oracle: root-find the threshold instead of sort-and-scan.

    The map g(theta) = sum max(sigma - theta, 0) is continuous and strictly
    decreasing until it hits zero, so the KKT threshold is its unique root
    at level radius whenever the cap binds.
    """
    s = np.asarray(sigma, dtype=float)
    if s.sum() <= radius:
        return s.copy()
    g = lambda theta: float(np.maximum(s - theta, 0.0).sum()) - radius
    theta = optimize.brentq(g, 0.0, float(s.max()), xtol=1e-14, rtol=1e-15)
    return np.maximum(s - theta, 0.0)


def project_matrix_oracle(M, radius):
    u, delta, vt = np.linalg.svd(M, full_matrices=False)
    return (u * project_via_root(delta, radius)) @ vt


# ---------------------------------------------------------------- geometry


def test_geometry_validation():
    with pytest.raises(ValueError):
        NuclearBallGeometry(rows=0, cols=3, radius=1.0)
    with pytest.raises(ValueError):
        NuclearBallGeometry(rows=3, cols=3, radius=0.0)


def test_check_shape(rng):
    geom = NuclearBallGeometry(rows=3, cols=2, radius=1.0)
    with pytest.raises(ValueError):
        geom.check_shape(np.zeros((2, 3)), "M")
    with pytest.raises(ValueError):
        geom.check_shape(np.full((3, 2), np.nan), "M")


# ----------------------------------------------------------- capped simplex


def test_capped_simplex_matches_root_oracle(rng):
    for _ in range(300):
        r = int(rng.integers(1, 7))
        s = rng.uniform(0.0, 5.0, size=r)
        radius = float(rng.uniform(0.05, 1.2) * max(s.sum(), 1e-3))
        ours = capped_simplex_project(s, radius)
        oracle = project_via_root(s, radius)
        assert np.max(np.abs(ours - oracle)) <= 1e-10


def test_capped_simplex_slack_copy(rng):
    s = rng.uniform(0.0, 1.0, size=5)
    out = capped_simplex_project(s, s.sum() + 1.0)
    assert np.array_equal(out, s)
    out[0] = -1.0  # returned array is a private copy
    assert s[0] >= 0


def test_capped_simplex_kkt_certificate(rng):
    s = rng.uniform(0.0, 3.0, size=6)
    radius = 0.4 * s.sum()
    t = capped_simplex_project(s, radius)
    # optimality: t = max(s - theta, 0) with one shared positive threshold
    active = t > 0
    thetas = (s - t)[active]
    assert np.allclose(thetas, thetas[0])
    assert thetas[0] > 0
    assert np.all(s[~active] <= thetas[0] + 1e-12)
    assert t.sum() == pytest.approx(radius, abs=1e-12)


@pytest.mark.parametrize("sigma", [[1e17, 1.0], [1e17, 1e17]])
def test_capped_simplex_feasible_when_sigma_dwarfs_radius(sigma):
    # sigma_max - radius rounds to sigma_max, so only breakpoint 0 is valid
    t = capped_simplex_project(np.array(sigma), 5.0)
    assert np.all(t >= 0)
    assert t.sum() <= 5.0


def test_capped_simplex_input_validation():
    with pytest.raises(ValueError):
        capped_simplex_project(np.array([-0.1, 0.5]), 1.0)
    with pytest.raises(ValueError):
        capped_simplex_project(np.array([np.inf]), 1.0)
    with pytest.raises(ValueError):
        capped_simplex_project(np.array([0.5]), 0.0)


@given(
    s=hnp.arrays(
        float,
        st.integers(1, 8),
        elements=st.floats(0.0, 100.0, allow_nan=False),
    ),
    radius=st.floats(1e-3, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_capped_simplex_feasible_and_idempotent(s, radius):
    t = capped_simplex_project(s, radius)
    assert (t >= 0).all()
    assert t.sum() <= radius + 1e-9
    again = capped_simplex_project(t, radius)
    assert np.allclose(again, t, atol=1e-12)


@given(
    s=hnp.arrays(float, 5, elements=st.floats(0.0, 10.0)),
    r1=st.floats(0.1, 5.0),
    r2=st.floats(0.1, 5.0),
)
@settings(max_examples=100, deadline=None)
def test_capped_simplex_distance_shrinks_with_radius(s, r1, r2):
    lo, hi = sorted((r1, r2))
    d_lo = np.linalg.norm(capped_simplex_project(s, lo) - s)
    d_hi = np.linalg.norm(capped_simplex_project(s, hi) - s)
    assert d_hi <= d_lo + 1e-9


# -------------------------------------------------------------------- prox


def test_prox_quadratic_is_euclidean_projection(rng):
    for _ in range(20):
        geom = NuclearBallGeometry(rows=5, cols=4, radius=float(rng.uniform(0.5, 3.0)))
        Z = rng.standard_normal((5, 4))
        X = rng.standard_normal((5, 4))
        ours = prox_nuc(geom, Z, X)
        oracle = project_matrix_oracle(Z - X, geom.radius)
        assert np.max(np.abs(ours - oracle)) <= 1e-10


def test_prox_infinite_radius_short_circuits(rng):
    geom = NuclearBallGeometry(rows=3, cols=3, radius=math.inf)
    Z = rng.standard_normal((3, 3))
    X = rng.standard_normal((3, 3))
    assert np.allclose(prox_nuc(geom, Z, X), Z - X, atol=1e-15)


def test_prox_output_feasible(rng):
    geom = NuclearBallGeometry(rows=6, cols=3, radius=1.7)
    for _ in range(10):
        Z = rng.standard_normal((6, 3))
        X = rng.standard_normal((6, 3))
        out = prox_nuc(geom, Z, X)
        assert nuclear_norm(out) <= geom.radius + 1e-9


def test_prox_projection_is_identity_inside_ball(rng):
    geom = NuclearBallGeometry(rows=4, cols=4, radius=100.0)
    Z = rng.standard_normal((4, 4))
    X = rng.standard_normal((4, 4))
    assert np.allclose(prox_nuc(geom, Z, X), Z - X, atol=1e-10)


def test_nuclear_norm_matches_svd(rng):
    M = rng.standard_normal((5, 3))
    assert nuclear_norm(M) == pytest.approx(
        float(np.linalg.svd(M, compute_uv=False).sum()), rel=1e-14
    )
