"""SVD embeddings: factorization, rank counting, projection, CSV format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_ar.embedding import (
    approx_rank,
    factorize,
    pca_project,
    read_embedding_csv,
    write_embedding_csv,
)
from lowrank_ar.model import ParameterMatrix


def low_rank_params(rng, m=7, n=5, rank=2):
    left = rng.standard_normal((m, rank))
    right = rng.standard_normal((rank, n))
    return ParameterMatrix(left @ right, channel_count=1, order=m - 1)


# ---------------------------------------------------------------- factorize


def test_factorize_reconstructs(rng):
    params = low_rank_params(rng)
    emb = factorize(params, ids=["a", "b", "c", "d", "e"])
    assert emb.r == 2
    recon = emb.basis @ emb.coordinates
    assert np.max(np.abs(recon - params.data)) <= 1e-12
    assert emb.ids == ["a", "b", "c", "d", "e"]
    assert emb.n_sequences == 5
    # orthonormal basis, coordinates carry the scale
    assert np.allclose(emb.basis.T @ emb.basis, np.eye(2), atol=1e-12)
    assert np.allclose(emb.coordinates, emb.basis.T @ params.data, atol=1e-10)


def test_factorize_fixes_component_signs(rng):
    params = low_rank_params(rng, rank=3)
    emb = factorize(params)
    assert np.all(emb.basis[np.argmax(np.abs(emb.basis), axis=0), np.arange(emb.r)] > 0)
    # -B has the same components; only the coordinates change sign
    negated = factorize(ParameterMatrix(-params.data, channel_count=1, order=params.order))
    assert np.allclose(negated.basis, emb.basis, atol=1e-12)
    assert np.allclose(negated.coordinates, -emb.coordinates, atol=1e-12)
    recon = emb.basis @ emb.coordinates
    assert np.max(np.abs(recon - params.data)) <= 1e-12


def test_factorize_default_ids(rng):
    params = low_rank_params(rng, n=3)
    emb = factorize(params)
    assert emb.ids == ["col_0", "col_1", "col_2"]


def test_factorize_id_count_mismatch(rng):
    params = low_rank_params(rng, n=3)
    with pytest.raises(ValueError):
        factorize(params, ids=["a", "b"])


def test_factorize_sorted_spectrum(rng):
    params = low_rank_params(rng, m=8, n=6, rank=4)
    emb = factorize(params)
    s = emb.singular_values
    assert np.all(s[:-1] >= s[1:])
    assert np.all(s > 0)


def test_factorize_zero_matrix_warns():
    params = ParameterMatrix.zeros(1, 3, 4)
    with pytest.warns(UserWarning):
        emb = factorize(params)
    assert emb.r == 0
    assert emb.coordinates.shape == (0, 4)
    assert emb.approx_rank == 0


def test_factorize_truncation(rng):
    base = low_rank_params(rng, m=6, n=4, rank=2)
    noisy = ParameterMatrix(
        base.data + 1e-14 * rng.standard_normal(base.data.shape), 1, 5
    )
    emb = factorize(noisy)
    assert emb.r == 2


# ---------------------------------------------------------------- approx_rank


def test_approx_rank_modes():
    s = np.array([10.0, 5.0, 0.05, 0.0])
    assert approx_rank(s, threshold=1e-2) == 2
    assert approx_rank(s, threshold=0.5) == 2
    assert approx_rank(s, threshold=1e-3) == 3


def test_approx_rank_edge_cases():
    assert approx_rank(np.array([])) == 0
    assert approx_rank(np.zeros(3)) == 0


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8),
    scale=st.floats(min_value=1e-4, max_value=1e4),
)
def test_approx_rank_scale_invariant_in_relative_mode(values, scale):
    s = np.sort(np.asarray(values))[::-1]
    assert approx_rank(s) == approx_rank(scale * s)


# ---------------------------------------------------------------- pca


def test_pca_project_manual_2d():
    # four points on a line through the centroid: one axis explains everything
    coords = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]])
    projected, explained = pca_project(coords, 1)
    assert projected.shape == (1, 4)
    assert explained[0] == pytest.approx(1.0)
    spacing = np.diff(np.sort(projected[0]))
    assert np.allclose(spacing, spacing[0], atol=1e-12)


def test_pca_explained_ratios_sum_to_one(rng):
    coords = rng.standard_normal((4, 30))
    _, explained = pca_project(coords, 4)
    assert float(np.sum(explained)) == pytest.approx(1.0, abs=1e-12)
    assert np.all(explained[:-1] >= explained[1:])


def test_pca_k_bounds(rng):
    coords = rng.standard_normal((3, 10))
    with pytest.raises(ValueError):
        pca_project(coords, 0)
    with pytest.raises(ValueError):
        pca_project(coords, 4)


def test_pca_zero_variance_warns():
    coords = np.ones((2, 5))
    with pytest.warns(UserWarning):
        projected, explained = pca_project(coords, 2)
    assert np.array_equal(projected, np.zeros((2, 5)))
    assert np.array_equal(explained, np.zeros(2))


def test_pca_projection_preserves_pairwise_variance(rng):
    coords = rng.standard_normal((5, 40))
    projected, explained = pca_project(coords, 5)
    centered = coords - coords.mean(axis=1, keepdims=True)
    assert float(np.sum(projected**2)) == pytest.approx(float(np.sum(centered**2)), rel=1e-10)


# ---------------------------------------------------------------- csv


def test_embedding_csv_round_trip(rng, tmp_path):
    params = low_rank_params(rng, m=6, n=4, rank=3)
    emb = factorize(params, ids=["w", "x", "y", "z"])
    path = tmp_path / "emb.csv"
    write_embedding_csv(emb, path)
    ids, labels, coords = read_embedding_csv(path)
    assert ids == ["w", "x", "y", "z"]
    assert labels is None
    assert np.array_equal(coords, emb.coordinates)


def test_embedding_csv_with_labels(rng, tmp_path):
    params = low_rank_params(rng, m=6, n=4, rank=2)
    emb = factorize(params, ids=list("abcd"))
    path = tmp_path / "emb.csv"
    write_embedding_csv(emb, path, labels=[0, 0, 1, 1])
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["id", "label", "dim_1", "dim_2"]
    ids, labels, coords = read_embedding_csv(path)
    assert labels == [0, 0, 1, 1]
    assert np.array_equal(coords, emb.coordinates)


def test_embedding_csv_label_length_mismatch(rng, tmp_path):
    params = low_rank_params(rng, m=6, n=4, rank=2)
    emb = factorize(params, ids=list("abcd"))
    with pytest.raises(ValueError):
        write_embedding_csv(emb, tmp_path / "emb.csv", labels=[0, 1])
