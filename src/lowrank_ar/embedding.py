"""SVD embeddings of a recovered parameter matrix.

The thin SVD B = U diag(sigma) V^T yields one embedding per sequence: the
columns of coordinates = diag(sigma) V^T. U is a shared orthobasis, so
U @ coordinates reconstructs B, and Euclidean geometry on the coordinate
columns matches Euclidean geometry on the parameter columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from lowrank_ar import dataio
from lowrank_ar.model import ParameterMatrix

_TRUNCATION_TOL = 1e-10


@dataclass(frozen=True)
class EmbeddingResult:
    """Truncated SVD factors with per-sequence coordinate columns."""

    basis: np.ndarray  # (m, r), orthonormal columns
    singular_values: np.ndarray  # (r,), non-increasing, positive
    coordinates: np.ndarray  # (r, N), column i embeds sequence i
    ids: list
    approx_rank: int

    @property
    def r(self) -> int:
        return int(self.singular_values.shape[0])

    @property
    def n_sequences(self) -> int:
        return int(self.coordinates.shape[1])


def approx_rank(singular_values, threshold: float = 1e-2) -> int:
    """Count of singular values sigma_i >= threshold * sigma_1.

    Empty input or an all-zero spectrum counts as rank 0.
    """
    s = np.asarray(singular_values, dtype=float).ravel()
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s >= threshold * s[0]))


def approx_rank_of(matrix) -> int:
    """approx_rank of the singular values of a fit's (m, N) data, or any matrix."""
    return approx_rank(np.linalg.svd(matrix, compute_uv=False))


def factorize(params: ParameterMatrix, ids: list | None = None) -> EmbeddingResult:
    """Thin SVD of the parameter matrix, keeping sigma_i > _TRUNCATION_TOL * sigma_1.

    Each component's sign is fixed so that the largest-magnitude entry of
    its basis column is positive (the first such entry on a tie), as
    scikit-learn's svd_flip does, rather than left to LAPACK. A zero matrix
    produces an empty (r=0) embedding and a warning.
    """
    data = params.data
    if ids is None:
        ids = [f"col_{i}" for i in range(data.shape[1])]
    if len(ids) != data.shape[1]:
        raise ValueError(f"{len(ids)} ids for {data.shape[1]} columns")
    u, sigma, vt = np.linalg.svd(data, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0.0:
        warnings.warn("zero parameter matrix yields an empty embedding")
        keep = np.zeros(sigma.shape, dtype=bool)
    else:
        keep = sigma > _TRUNCATION_TOL * sigma[0]
    u = u[:, keep]
    sigma = sigma[keep]
    vt = vt[keep]
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    u = u * signs
    vt = vt * signs[:, None]
    return EmbeddingResult(
        basis=u,
        singular_values=sigma,
        coordinates=sigma[:, None] * vt,
        ids=list(ids),
        approx_rank=approx_rank(sigma),
    )


def pca_project(coordinates, k: int):
    """Center coordinate columns and project onto the top-k principal axes.

    Returns (projected, explained) where projected is k x N and explained
    holds the top-k explained-variance ratios. Identical columns have zero
    variance; the ratios are then zero and a warning is raised.
    """
    coords = np.atleast_2d(np.asarray(coordinates, dtype=float))
    r, n = coords.shape
    if not 1 <= k <= r:
        raise ValueError(f"k={k} out of range [1, {r}]")
    centered = coords - coords.mean(axis=1, keepdims=True)
    u, sigma, _ = np.linalg.svd(centered, full_matrices=False)
    total = float(np.sum(sigma**2))
    if total <= 0.0:
        warnings.warn("coordinates have zero variance; projection is degenerate")
        return np.zeros((k, n)), np.zeros(k)
    projected = u[:, :k].T @ centered
    explained = sigma[:k] ** 2 / total
    return projected, explained


def write_embedding_csv(result: EmbeddingResult, path, labels: list | None = None) -> None:
    """CSV with header id[,label],dim_1..dim_r; one row per sequence."""
    if labels is not None and len(labels) != result.n_sequences:
        raise ValueError("labels length must match the number of sequences")
    header = ["id"]
    if labels is not None:
        header.append("label")
    header += [f"dim_{j + 1}" for j in range(result.r)]
    rows = result.coordinates.T.tolist()
    if labels is not None:
        rows = [[label] + row for label, row in zip(labels, rows)]
    dataio.write_csv(path, header, ([seq_id] + row for seq_id, row in zip(result.ids, rows)))


def read_embedding_csv(path):
    """Inverse of write_embedding_csv: returns (ids, labels_or_None, coordinates)."""
    header, rows = dataio.read_csv(path)
    start = 2 if header[1:2] == ["label"] else 1
    try:
        labels = [int(row[1]) for row in rows] if start == 2 else None
        coords = np.array([[float(v) for v in row[start:]] for row in rows], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [row[0] for row in rows], labels, (coords.T if rows else np.zeros((0, 0)))
