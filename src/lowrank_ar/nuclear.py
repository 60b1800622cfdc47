"""The nuclear ball: capped-simplex projection, the ball projection and the prox step.

The Euclidean projection of M onto the nuclear ball {M : ||M||_* <= lambda}
reduces to a singular-value problem: with M = U diag(sigma) V^T, project
sigma onto the capped simplex {t >= 0, sum t <= lambda} under the quadratic
objective sum(t^2/2 - sigma*t), and reassemble U diag(t) V^T. project_nuc
reads sigma and one set of singular vectors from an eigendecomposition of
the smaller Gram matrix (M M^T when M is wide, M^T M when it is tall) and
rebuilds the result from the kept directions alone. Only the singular
triplets above the threshold enter the answer (Cai, Candes & Shen 2010, "A
singular value thresholding algorithm"), so the Gram route is as accurate
as the SVD whenever the threshold stands well clear of the rounding floor
of the Gram's small eigenvalues; where it does not, project_nuc takes the
thin SVD instead. The Gram is factored by LAPACK's dsyevd, called directly,
whose eigenvalues come out ascending, so the capped-simplex threshold is
read from that order; capped_simplex_project, for callers with unsorted
singular values, validates and sorts them and then runs the same one
kernel. Every solver step takes this projection: the prox step at Z applied
to X, the mirror step of the quadratic distance-generating function, is the
projection of Z - X, and the splitting solver projects its copy Z.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dsyevd

# An eigenvalue of the Gram carries an absolute error near eps * sigma_1^2,
# so a singular value sigma read from it is off by about eps * sigma_1^2 /
# sigma: below this fraction of sigma_1 it may no longer decide the answer.
_GRAM_MARGIN = 1e-4


def nuclear_norm(M) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False).sum())


def _cap_sorted(desc: np.ndarray, radius: float) -> tuple[float, float]:
    """(floor, share) of the capped-simplex projection of desc, sorted decreasing.

    desc must sum to more than the radius. The projection keeps the entries
    at or above floor, as (s - floor) + share, and zeroes the rest.
    """
    # excess_J = excess_{J-1} + (J - 1) (s_{J-1} - s_J): a nondecreasing sum
    excess = np.empty_like(desc)
    excess[0] = 0.0
    gaps = desc[:-1] - desc[1:]
    gaps *= np.arange(1, desc.size)
    gaps.cumsum(out=excess[1:])
    kept = int(excess.searchsorted(radius))
    return desc[kept - 1], (radius - excess[kept - 1]) / kept


def capped_simplex_project(sigma, radius: float) -> np.ndarray:
    """argmin sum_j (t_j^2/2 - sigma_j t_j) over t >= 0, sum t <= radius.

    Closed form t_j = max(sigma_j - theta, 0): theta = 0 when the cap is
    slack, otherwise the unique root of sum max(sigma - theta, 0) = radius.
    With s sorted in decreasing order, the kept count K is the largest J
    whose excess sum_{i<=J} (s_i - s_J) is below the radius, and the kept
    entries are t_i = (s_i - s_K) + (radius - excess_K) / K. Both are built
    from differences of sorted entries, never of their running sums, so no
    ratio of sigma to the radius loses the radius to rounding, and one kept
    entry receives exactly the radius (O(r log r)).
    """
    s = np.asarray(sigma, dtype=float).ravel()
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ValueError("sigma entries must be nonnegative and finite")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if s.sum() <= radius:
        return s.copy()
    floor, share = _cap_sorted(np.sort(s)[::-1], radius)
    return np.where(s >= floor, (s - floor) + share, 0.0)


def _project_by_svd(M: np.ndarray, radius: float) -> np.ndarray:
    u, sigma, vt = np.linalg.svd(M, full_matrices=False)
    if sigma.sum() <= radius:
        return M.copy()
    return (u * capped_simplex_project(sigma, radius)) @ vt


def project_nuc(M: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of M onto the nuclear ball of the given radius.

    One dsyevd of the smaller Gram matrix gives sigma = sqrt(max(eigenvalue,
    0)), ascending, and the singular vectors on that side. A slack ball
    returns a copy of M; otherwise the result is V_k diag(t/sigma) V_k^T M
    for wide M and M V_k diag(t/sigma) V_k^T for tall M, over the kept
    directions k of the capped-simplex projection t. The thin SVD takes
    over when the Gram's trace is not finite (it bounds every entry:
    |G_ij| <= sqrt(G_ii G_jj)), when dsyevd reports a failure, or when a
    sigma below _GRAM_MARGIN * sigma_1, where the Gram's rounding can move
    it, lies within that margin of the threshold (0 on a slack ball): that
    covers every kept sigma so small and a slack test that close whenever
    the spectrum reaches that low. radius = math.inf, the sentinel for an
    unconstrained run, returns M unchanged.
    """
    if math.isinf(radius):
        return M
    wide = M.shape[0] <= M.shape[1]
    gram = M @ M.T if wide else M.T @ M
    if not math.isfinite(gram.trace()):
        return _project_by_svd(M, radius)
    evals, evecs, info = dsyevd(gram, lower=1)
    if info != 0:
        return _project_by_svd(M, radius)
    sigma = np.sqrt(np.maximum(evals, 0.0))  # ascending
    margin = _GRAM_MARGIN * sigma[-1]
    total = sigma.sum()
    if total <= radius - margin:
        return M.copy()
    floor, share, theta = 0.0, 0.0, 0.0
    if total > radius:
        floor, share = _cap_sorted(sigma[::-1], radius)
        theta = sigma[-1] - ((sigma[-1] - floor) + share)
    if sigma[0] < margin and np.any((sigma < margin) & (sigma > theta - margin)):
        return _project_by_svd(M, radius)
    if total <= radius:
        return M.copy()
    first = int(sigma.searchsorted(floor))  # sigma ascends: kept from here on
    v = evecs[:, first:]
    scaled = v * (((sigma[first:] - floor) + share) / sigma[first:])
    return scaled @ (v.T @ M) if wide else (M @ scaled) @ v.T


def prox_nuc(Z, X, radius: float) -> np.ndarray:
    """Prox step at Z applied to X over the nuclear ball: project_nuc(Z - X)."""
    return project_nuc(Z - X, radius)
