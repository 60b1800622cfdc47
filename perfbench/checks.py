"""Correctness checks computed apart from lowrank_ar, with numpy only.

Every function here rebuilds what it needs from raw series or from the
program's returned arrays; none calls into lowrank_ar and none compares
against a stored copy of an earlier output. Each check returns
(ok, detail) so a run can report every failure, not only the first.

Conventions match the package's documented model: column i of a parameter
matrix is the row-major vec(R_i) of a C x (C*d+1) weight matrix, and the
regressor of step t is (1, x_{t-1}, ..., x_{t-d}) with the channels of one
step contiguous. With equal-length sequences the pooled least-squares loss
is (1/(N^2 S)) * sum_i ||X_i R_i^T - Y_i||^2.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


# ------------------------------------------------------------------ design


def ar_design(series: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Regressors (S, C*d+1) and targets (S, C) of one (C, T) series."""
    series = np.atleast_2d(np.asarray(series, dtype=float))
    c, t_len = series.shape
    s = t_len - d
    x = np.empty((s, c * d + 1))
    x[:, 0] = 1.0
    for lag in range(1, d + 1):
        x[:, 1 + (lag - 1) * c : 1 + lag * c] = series[:, d - lag : t_len - lag].T
    return x, series[:, d:].T.copy()


def stacked_design(sequences, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, S, K) regressors and (N, S, C) targets of equal-length sequences."""
    pairs = [ar_design(seq, d) for seq in sequences]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def lstsq_fit(design, targets) -> np.ndarray:
    """Per-sequence np.linalg.lstsq fits as a parameter matrix."""
    return np.stack(
        [np.linalg.lstsq(x, y, rcond=None)[0].T.ravel() for x, y in zip(design, targets)], axis=1
    )


def _per_sequence(b: np.ndarray, design: np.ndarray, c: int) -> np.ndarray:
    n, _, k = design.shape
    return b.T.reshape(n, c, k)


def ls_loss(b, design, targets) -> float:
    n, s, _ = design.shape
    c = targets.shape[2]
    resid = np.einsum("nsk,nck->nsc", design, _per_sequence(b, design, c)) - targets
    return float(np.sum(resid * resid)) / (n * n * s)


def ls_gradient(b, design, targets) -> np.ndarray:
    n, s, k = design.shape
    c = targets.shape[2]
    resid = np.einsum("nsk,nck->nsc", design, _per_sequence(b, design, c)) - targets
    grad = np.einsum("nsc,nsk->nck", resid, design) * (2.0 / (n * n * s))
    return grad.reshape(n, c * k).T


def softmax_field_norm(b, design, targets) -> float:
    """Frobenius norm of the full-horizon softmax field at b (one block of C)."""
    n, s, k = design.shape
    c = targets.shape[2]
    z = np.einsum("nsk,nck->nsc", design, _per_sequence(b, design, c))
    z = z - z.max(axis=2, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=2, keepdims=True)
    field = np.einsum("nsc,nsk->nck", p - targets, design) / (n * n * s)
    return float(np.linalg.norm(field))


# ------------------------------------------------------------------ nuclear ball


def nuclear_norm(b) -> float:
    return float(np.linalg.svd(b, compute_uv=False).sum())


def spectral_norm(b) -> float:
    return float(np.linalg.svd(b, compute_uv=False)[0])


def _project_ball(b: np.ndarray, radius: float) -> np.ndarray:
    u, sigma, vt = np.linalg.svd(b, full_matrices=False)
    if sigma.sum() <= radius:
        return b
    # largest theta with sum(max(sigma - theta, 0)) = radius, by bisection
    lo, hi = 0.0, float(sigma[0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(sigma - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    return (u * np.maximum(sigma - hi, 0.0)) @ vt


def frank_wolfe_gap(b, gradient, radius: float) -> float:
    """<grad, B> + radius * ||grad||_2, an upper bound on loss(B) - optimum."""
    return float(np.vdot(gradient, b)) + radius * spectral_norm(gradient)


def in_ball(b, radius: float, rel: float = 1e-9) -> tuple[bool, str]:
    norm = nuclear_norm(b)
    ok = norm <= radius * (1.0 + rel) + 1e-12
    return ok, f"nuclear norm {norm:.6g} vs radius {radius:.6g}"


def relative_gap(b, design, targets, radius: float) -> float:
    """Frank-Wolfe gap of B over the ball, relative to the loss at B."""
    gap = frank_wolfe_gap(b, ls_gradient(b, design, targets), radius)
    return gap / ls_loss(b, design, targets)


def constrained_optimum(design, targets, radius: float, iters: int = 1000, every: int = 10):
    """Bracket [lower, upper] on the optimum of the loss over the ball.

    Accelerated projected gradient on the per-sequence Gram form. Every
    `every` iterations the iterate, which lies in the ball, gives the
    rigorous lower bound loss - FW gap.
    """
    n, s, k = design.shape
    c = targets.shape[2]
    gram = np.einsum("nsk,nsl->nkl", design, design)
    cross = np.einsum("nsk,nsc->nck", design, targets)
    yy = float(np.sum(targets * targets))
    scale = 1.0 / (n * n * s)
    step = 1.0 / (2.0 * scale * float(np.linalg.eigvalsh(gram).max()))

    def loss_grad(b):
        r = _per_sequence(b, design, c)
        rg = np.einsum("nck,nkl->ncl", r, gram)
        loss = scale * (float(np.sum(rg * r)) - 2.0 * float(np.sum(r * cross)) + yy)
        return loss, (2.0 * scale * (rg - cross)).reshape(n, c * k).T

    b = np.zeros((c * k, n))
    y, t = b, 1.0
    lower, upper = -math.inf, math.inf
    for i in range(1, iters + 1):
        b_next = _project_ball(y - step * loss_grad(y)[1], radius)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = b_next + ((t - 1.0) / t_next) * (b_next - b)
        b, t = b_next, t_next
        if i % every == 0:
            loss, grad = loss_grad(b)
            upper = min(upper, loss)
            lower = max(lower, loss - frank_wolfe_gap(b, grad, radius))
    return lower, upper


# ------------------------------------------------------------------ scoring


def lloyd_fixed_point(points, assignments) -> tuple[bool, str]:
    """Every point is nearest to the mean of its own cluster."""
    pts = np.asarray(points, dtype=float)
    assign = np.asarray(assignments)
    clusters = sorted(set(assign.tolist()))
    centers = np.stack([pts[:, assign == j].mean(axis=1) for j in clusters], axis=1)
    moved = 0
    for i in range(pts.shape[1]):
        d2 = ((pts[:, [i]] - centers) ** 2).sum(axis=0)
        own = d2[clusters.index(int(assign[i]))]
        if own > d2.min() + 1e-12 * max(1.0, own):
            moved += 1
    return moved == 0, f"{moved} of {pts.shape[1]} points nearer another cluster mean"


def knn_vote(train, train_labels, test, k: int) -> np.ndarray:
    """Brute-force majority vote of the k nearest; a vote tie takes the nearest's label."""
    train = np.asarray(train, dtype=float)
    test = np.asarray(test, dtype=float)
    out = []
    for i in range(test.shape[1]):
        d2 = ((train - test[:, [i]]) ** 2).sum(axis=0)
        order = sorted(range(train.shape[1]), key=lambda j: (d2[j], j))[:k]
        votes = Counter(int(train_labels[j]) for j in order)
        top = max(votes.values())
        winners = [lab for lab, v in votes.items() if v == top]
        out.append(winners[0] if len(winners) == 1 else int(train_labels[order[0]]))
    return np.array(out)


def clean_like_program(text: str, stripped: str) -> str:
    """ASCII only, `stripped` characters removed, lower-cased."""
    return "".join(ch for ch in text if ord(ch) < 128 and ch not in stripped).lower()


def code_length_bounds(texts, codebook: dict, arity: int) -> tuple[bool, str]:
    """Average codeword length L of an optimal code obeys H <= L < H + 1 (base arity)."""
    counts = Counter()
    for text in texts:
        counts.update(text)
    total = sum(counts.values())
    missing = [ch for ch in counts if ch not in codebook]
    if missing:
        return False, f"characters without a codeword: {missing!r}"
    entropy = -sum(v / total * math.log(v / total, arity) for v in counts.values())
    length = sum(v * len(codebook[ch]) for ch, v in counts.items()) / total
    ok = entropy <= length + 1e-12 and length < entropy + 1.0
    return ok, f"H={entropy:.6f} L={length:.6f}"
