"""Capped simplex projection and the prox step."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize

from lowrank_ar import nuclear
from lowrank_ar.nuclear import capped_simplex_project, nuclear_norm, project_nuc, prox_nuc


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


# ----------------------------------------------------------- capped simplex


def test_capped_simplex_matches_root_oracle(rng):
    for _ in range(300):
        r = int(rng.integers(1, 7))
        s = rng.uniform(0.0, 5.0, size=r)
        radius = float(rng.uniform(0.05, 1.2) * max(s.sum(), 1e-3))
        ours = capped_simplex_project(s, radius)
        oracle = project_via_root(s, radius)
        assert np.max(np.abs(ours - oracle)) <= 1e-10


def test_sorted_kernel_matches_capped_simplex_on_shuffled_input(rng):
    # the projection runs the kernel on eigh's ascending sigma; outside
    # callers pass any order and are sorted first: the same bits either way
    for _ in range(300):
        r = int(rng.integers(1, 20))
        ascending = np.sort(rng.exponential(size=r) * 10.0 ** rng.integers(-3, 4))
        if r > 2 and rng.random() < 0.3:
            ascending[1] = ascending[0]  # a tie
        radius = float(rng.uniform(0.01, 1.2)) * float(ascending.sum())
        perm = rng.permutation(r)
        ours = capped_simplex_project(ascending[perm], radius)
        if ascending.sum() <= radius:
            assert np.array_equal(ours, ascending[perm])
            continue
        floor, share = nuclear._cap_sorted(ascending[::-1], radius)
        kept = np.where(ascending >= floor, (ascending - floor) + share, 0.0)
        assert np.array_equal(ours, kept[perm])


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
    # sigma_max - radius rounds to sigma_max, so a threshold taken as a
    # difference of sums would lose the whole radius
    t = capped_simplex_project(np.array(sigma), 5.0)
    expected = [5.0, 0.0] if sigma[1] < sigma[0] else [2.5, 2.5]
    assert t.tolist() == expected


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


# -------------------------------------------------------------------- projection


@pytest.mark.parametrize("shape", [(5, 4), (4, 9), (12, 3)])
def test_project_nuc_matches_root_oracle(rng, shape):
    for _ in range(10):
        M = rng.standard_normal(shape)
        radius = float(rng.uniform(0.2, 1.0)) * nuclear_norm(M)
        ours = project_nuc(M, radius)
        assert np.max(np.abs(ours - project_matrix_oracle(M, radius))) <= 1e-10
        assert nuclear_norm(ours) <= radius + 1e-9


@pytest.mark.parametrize("fraction", [0.4, 1e-17])
def test_project_nuc_is_scale_equivariant(rng, fraction):
    # at 1e-17 the top singular value dwarfs the radius, which keeps it all
    M = rng.standard_normal((6, 9))
    radius = fraction * nuclear_norm(M)
    base = project_nuc(M, radius)
    assert nuclear_norm(base) == pytest.approx(radius, rel=1e-12, abs=0.0)
    for c in 10.0 ** np.arange(-12, 13):
        scaled = project_nuc(c * M, c * radius)
        assert np.linalg.norm(scaled - c * base) <= 1e-12 * c * np.linalg.norm(base)


def svd_oracle(M, radius):
    u, delta, vt = np.linalg.svd(M, full_matrices=False)
    return (u * capped_simplex_project(delta, radius)) @ vt


def spectrum_matrix(rng, shape, sigma):
    """A matrix of the given shape with singular values sigma (zeros pad)."""
    r = min(shape)
    u = np.linalg.qr(rng.standard_normal((shape[0], r)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], r)))[0]
    return (u * sigma) @ v.T


SPECTRA = {
    "flat": lambda r: np.ones(r),
    "spread-1e-4": lambda r: np.logspace(0, -4, r),
    "spread-1e-8": lambda r: np.logspace(0, -8, r),
    "spread-1e-16": lambda r: np.logspace(0, -16, r),
    "rank-deficient": lambda r: np.where(np.arange(r) < r // 2, np.linspace(1, 0.5, r), 0.0),
    "rank-one": lambda r: np.eye(1, r)[0],
}


@pytest.mark.parametrize("shape", [(7, 12), (12, 7), (9, 9)], ids=["wide", "tall", "square"])
@pytest.mark.parametrize("spectrum", sorted(SPECTRA))
def test_project_nuc_gram_route_matches_svd_oracle(rng, shape, spectrum):
    for scale in (1e-8, 1.0, 1e8):
        M = spectrum_matrix(rng, shape, scale * SPECTRA[spectrum](min(shape)))
        total = nuclear_norm(M)
        for fraction in (0.01, 0.5, 0.999999, 1.0 - 1e-10):
            radius = fraction * total
            ours = project_nuc(M, radius)
            assert np.linalg.norm(ours - svd_oracle(M, radius)) <= 1e-12 * np.linalg.norm(M)
            assert nuclear_norm(ours) <= radius * (1.0 + 1e-12)
        slack = project_nuc(M, (1.0 + 1e-12) * total)
        assert slack is not M and np.array_equal(slack, M)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("shape", [(82, 120), (180, 16), (84, 90), (9, 9)])
def test_project_nuc_takes_no_svd_on_well_conditioned_input(rng, svd_calls, shape):
    for fraction in (0.05, 0.25, 0.9, 0.999):
        M = rng.standard_normal(shape)
        radius = fraction * float(np.linalg.norm(M, "nuc"))  # "nuc" does not go through np.linalg.svd
        project_nuc(M, radius)
        project_nuc(M, 2.0 * radius / fraction)
    assert svd_calls == []


def test_project_nuc_falls_back_to_the_svd_near_the_rounding_floor(rng, svd_calls):
    # rank 2 of 5: the three zero singular values come out of the Gram near
    # sqrt(eps) * sigma_1, and a radius this close to the nuclear norm puts
    # the threshold among them
    M = spectrum_matrix(rng, (5, 8), np.array([2.0, 1.0, 0.0, 0.0, 0.0]))
    radius = (1.0 - 1e-10) * 3.0
    ours = project_nuc(M, radius)
    assert svd_calls == [(5, 8)]
    assert np.linalg.norm(ours - svd_oracle(M, radius)) <= 1e-12 * np.linalg.norm(M)
    # a Gram that overflows falls back as well
    big = 1e160 * rng.standard_normal((4, 6))
    radius = 0.5 * nuclear_norm(big)
    del svd_calls[:]
    with np.errstate(over="ignore"):
        ours = project_nuc(big, radius)
    assert svd_calls == [(4, 6)]
    assert np.linalg.norm(ours / 1e160 - svd_oracle(big, radius) / 1e160) <= 1e-12 * np.linalg.norm(big / 1e160)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_project_nuc_takes_the_svd_on_a_non_finite_gram(rng, svd_calls, bad):
    M = rng.standard_normal((4, 6))
    M[1, 2] = bad
    # the SVD path fails loudly on such input, as it always has
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        project_nuc(M, 1.0)
    assert svd_calls == [(4, 6)]


def test_project_nuc_takes_the_svd_when_the_eigensolver_fails(rng, svd_calls, monkeypatch):
    real = nuclear.dsyevd

    def failing(a, **kwargs):
        w, v, _ = real(a, **kwargs)
        return w, v, 1

    monkeypatch.setattr(nuclear, "dsyevd", failing)
    M = rng.standard_normal((6, 4))
    radius = 0.5 * float(np.linalg.norm(M, "nuc"))  # "nuc" does not go through np.linalg.svd
    ours = project_nuc(M, radius)
    assert svd_calls == [(6, 4)]
    assert np.linalg.norm(ours - svd_oracle(M, radius)) <= 1e-12 * np.linalg.norm(M)


def test_project_nuc_at_infinite_radius_returns_its_input(rng):
    M = rng.standard_normal((3, 5))
    assert project_nuc(M, math.inf) is M


# -------------------------------------------------------------------- prox


def test_prox_quadratic_is_euclidean_projection(rng):
    for _ in range(20):
        radius = float(rng.uniform(0.5, 3.0))
        Z = rng.standard_normal((5, 4))
        X = rng.standard_normal((5, 4))
        ours = prox_nuc(Z, X, radius)
        oracle = project_matrix_oracle(Z - X, radius)
        assert np.max(np.abs(ours - oracle)) <= 1e-10


def test_prox_infinite_radius_short_circuits(rng):
    Z = rng.standard_normal((3, 3))
    X = rng.standard_normal((3, 3))
    assert np.allclose(prox_nuc(Z, X, math.inf), Z - X, atol=1e-15)


def test_prox_output_feasible(rng):
    for _ in range(10):
        Z = rng.standard_normal((6, 3))
        X = rng.standard_normal((6, 3))
        out = prox_nuc(Z, X, 1.7)
        assert nuclear_norm(out) <= 1.7 + 1e-9


def test_prox_projection_is_identity_inside_ball(rng):
    Z = rng.standard_normal((4, 4))
    X = rng.standard_normal((4, 4))
    assert np.allclose(prox_nuc(Z, X, 100.0), Z - X, atol=1e-10)


def test_nuclear_norm_matches_svd(rng):
    M = rng.standard_normal((5, 3))
    assert nuclear_norm(M) == pytest.approx(
        float(np.linalg.svd(M, compute_uv=False).sum()), rel=1e-14
    )
