"""Nuclear-ball geometry: capped-simplex projection and the prox step.

The prox step at Z applied to X is the Euclidean projection of Z - X onto
the nuclear ball {M : ||M||_* <= lambda}, the mirror step of the quadratic
distance-generating function. It reduces to a singular-value problem: take
the SVD of Y' = X - Z, project the singular values onto the capped simplex
{t >= 0, sum t <= lambda} under the quadratic objective sum(t^2/2 - sigma*t),
and reassemble with a negated diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NuclearBallGeometry:
    """Nuclear ball of a fixed matrix shape and radius.

    radius may be math.inf, the documented sentinel for an unconstrained run;
    the prox then skips the projection entirely.
    """

    rows: int
    cols: int
    radius: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix shape must be positive, got {self.rows}x{self.cols}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def check_shape(self, M: np.ndarray, name: str) -> np.ndarray:
        arr = np.asarray(M, dtype=float)
        if arr.shape != (self.rows, self.cols):
            raise ValueError(
                f"{name} has shape {arr.shape}, geometry expects {(self.rows, self.cols)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        return arr


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


def prox_nuc(geom: NuclearBallGeometry, Z, X) -> np.ndarray:
    """Prox step at Z applied to X over the nuclear ball.

    Computes Y' = X - Z, takes the SVD Y' = U diag(delta) V^T, projects
    delta onto the capped simplex, and returns U diag(-t) V^T, which is
    exactly the Euclidean projection of Z - X onto the ball. The output
    always satisfies nuclear norm <= radius + 1e-9.
    """
    z = geom.check_shape(Z, "Z")
    x = geom.check_shape(X, "X")
    y = x - z
    if math.isinf(geom.radius):
        # projection inactive: U diag(-delta) V^T reassembles to -Y' exactly
        return -y
    u, delta, vt = np.linalg.svd(y, full_matrices=False)
    t = capped_simplex_project(delta, geom.radius)
    return (u * -t) @ vt
