"""The nuclear ball: capped-simplex projection, the ball projection and the prox step.

The Euclidean projection of M onto the nuclear ball {M : ||M||_* <= lambda}
reduces to a singular-value problem: take the SVD M = U diag(sigma) V^T,
project sigma onto the capped simplex {t >= 0, sum t <= lambda} under the
quadratic objective sum(t^2/2 - sigma*t), and reassemble U diag(t) V^T.
project_nuc is that projection, and every solver step takes it: the prox
step at Z applied to X, the mirror step of the quadratic distance-generating
function, is the projection of Z - X, and the splitting solver projects its
copy Z.
"""

from __future__ import annotations

import math

import numpy as np


def nuclear_norm(M) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False).sum())


def capped_simplex_project(sigma, radius: float) -> np.ndarray:
    """argmin sum_j (t_j^2/2 - sigma_j t_j) over t >= 0, sum t <= radius.

    Closed form t_j = max(sigma_j - theta, 0): theta = 0 when the cap is
    slack, otherwise the unique root of sum max(sigma - theta, 0) = radius,
    found exactly by sorting and scanning the breakpoints (O(r log r)).
    """
    s = np.asarray(sigma, dtype=float).ravel()
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ValueError("sigma entries must be nonnegative and finite")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if s.sum() <= radius:
        return s.copy()
    srt = np.sort(s)[::-1]
    csum = np.cumsum(srt)
    j = np.arange(1, s.size + 1)
    theta_candidates = (csum - radius) / j
    valid = srt > theta_candidates
    # the first breakpoint is valid in exact arithmetic (radius > 0), but when
    # sigma_max dwarfs the radius, sigma_max - radius rounds back to sigma_max
    valid[0] = True
    j_star = int(np.nonzero(valid)[0][-1])
    theta = theta_candidates[j_star]
    return np.maximum(s - theta, 0.0)


def project_nuc(M: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of M onto the nuclear ball of the given radius.

    The output always satisfies nuclear norm <= radius + 1e-9. radius =
    math.inf, the sentinel for an unconstrained run, returns M unchanged.
    """
    if math.isinf(radius):
        return M
    u, sigma, vt = np.linalg.svd(M, full_matrices=False)
    return (u * capped_simplex_project(sigma, radius)) @ vt


def prox_nuc(Z, X, radius: float) -> np.ndarray:
    """Prox step at Z applied to X over the nuclear ball: project_nuc(Z - X)."""
    return project_nuc(Z - X, radius)
