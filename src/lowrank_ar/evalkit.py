"""Clustering and classification evaluation, plus penalty-level search.

The search walks a LambdaProblem, the radius path of one collection: it
solves each radius once, keeps every fit, owns the bracket top, upper, and
picks the radii of every grid. radius_path builds the one every caller uses,
from a field and a solver config, with the objectives that score its fits.

Points are always columns: an r x N matrix holds N points in R^r, matching
the embedding module's coordinate layout. All metrics are hand-rolled so
tie-breaking and degenerate-case conventions are pinned down exactly rather
than inherited from a library version.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import optimize

from lowrank_ar.embedding import approx_rank_of, factorize
from lowrank_ar.model import ParameterMatrix
from lowrank_ar.nuclear import nuclear_norm
from lowrank_ar.solver import SolverError, solve

KNN_GRID = (1, 2, 4, 8, 16)
CV_FOLDS = 5
SEARCH_STRATEGIES = ("bisect-to-rank1", "grid", "brent")

_BISECT_REL_TOL = 1e-2
_BRENT_ABS_TOL = 1e-3
_GRID_LOWER_FACTOR = 1e-2


@dataclass(frozen=True)
class LabeledPartition:
    """Cluster assignments compacted to consecutive ids 0..k-1."""

    assignments: np.ndarray
    k: int

    @classmethod
    def from_raw(cls, raw) -> "LabeledPartition":
        """Relabel arbitrary integer assignments by first appearance."""
        raw = np.asarray(raw, dtype=int)
        remap: dict = {}
        compact = np.empty(raw.shape, dtype=int)
        for i, label in enumerate(raw.tolist()):
            if label not in remap:
                remap[label] = len(remap)
            compact[i] = remap[label]
        return cls(assignments=compact, k=len(remap))


def _as_labels(x) -> np.ndarray:
    arr = np.asarray(x, dtype=int).ravel()
    if arr.size == 0:
        raise ValueError("label array must be nonempty")
    return arr


def contingency(truth, predicted) -> np.ndarray:
    """Counts n_ij of points with truth class i and predicted class j."""
    t = _as_labels(truth)
    p = _as_labels(predicted)
    if t.shape != p.shape:
        raise ValueError("label arrays must have equal length")
    t_ids = {v: i for i, v in enumerate(sorted(set(t.tolist())))}
    p_ids = {v: i for i, v in enumerate(sorted(set(p.tolist())))}
    table = np.zeros((len(t_ids), len(p_ids)), dtype=np.int64)
    for a, b in zip(t.tolist(), p.tolist()):
        table[t_ids[a], p_ids[b]] += 1
    return table


def _pairs(counts) -> float:
    c = np.asarray(counts, dtype=float)
    return float(np.sum(c * (c - 1) / 2))


def ari(truth, predicted) -> float:
    """Adjusted Rand index via pair counting.

    Degenerate cases where the expected index equals the maximum (both
    partitions trivial in the same way) return 1.0, the agreement reading.
    """
    table = contingency(truth, predicted)
    n = table.sum()
    index = _pairs(table)
    sum_a = _pairs(table.sum(axis=1))
    sum_b = _pairs(table.sum(axis=0))
    total = _pairs([n])
    expected = sum_a * sum_b / total if total > 0 else 0.0
    maximum = 0.5 * (sum_a + sum_b)
    if maximum - expected == 0:
        return 1.0
    return (index - expected) / (maximum - expected)


def nmi(truth, predicted) -> float:
    """Mutual information normalized by the mean of the two entropies.

    Natural logarithms throughout. If both entropies are zero the value is
    1.0 for identical partitions and 0.0 otherwise.
    """
    table = contingency(truth, predicted).astype(float)
    n = table.sum()
    p_ij = table / n
    p_i = p_ij.sum(axis=1)
    p_j = p_ij.sum(axis=0)
    h_t = -float(np.sum(p_i * np.log(p_i, where=p_i > 0, out=np.zeros_like(p_i))))
    h_p = -float(np.sum(p_j * np.log(p_j, where=p_j > 0, out=np.zeros_like(p_j))))
    if h_t + h_p == 0:
        # zero entropy on both sides means one cluster each: identical partitions
        return 1.0
    mask = p_ij > 0
    ratio = p_ij[mask] / np.outer(p_i, p_j)[mask]
    info = float(np.sum(p_ij[mask] * np.log(ratio)))
    return 2.0 * info / (h_t + h_p)


def accuracy_and_macro_f1(truth, predicted) -> tuple[float, float]:
    """Accuracy and the unweighted mean of per-class F1 scores.

    Classes appearing in either argument contribute a term; a class the
    prediction never emits scores F1 = 0 and still counts.
    """
    t = _as_labels(truth)
    p = _as_labels(predicted)
    if t.shape != p.shape:
        raise ValueError("label arrays must have equal length")
    acc = float(np.mean(t == p))
    f1s = []
    for cls in sorted(set(t.tolist()) | set(p.tolist())):
        tp = int(np.sum((t == cls) & (p == cls)))
        fp = int(np.sum((t != cls) & (p == cls)))
        fn = int(np.sum((t == cls) & (p != cls)))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return acc, float(np.mean(f1s))


def _squared_distances(points, centers) -> np.ndarray:
    # (N, k) matrix of squared Euclidean distances, columns-as-points input.
    diff = points[:, :, None] - centers[:, None, :]
    return np.einsum("rnk,rnk->nk", diff, diff)


def _wcss(points, centers, assign) -> float:
    diff = points - centers[:, assign]
    return float(np.sum(diff * diff))


def _kmeans_pp_seed(points, k, rng) -> np.ndarray:
    n = points.shape[1]
    centers = np.empty((points.shape[0], k))
    idx = int(rng.integers(n))
    centers[:, 0] = points[:, idx]
    d2 = np.sum((points - centers[:, [0]]) ** 2, axis=0)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = int(rng.integers(n))  # all mass used up: duplicate points
        centers[:, j] = points[:, idx]
        d2 = np.minimum(d2, np.sum((points - centers[:, [j]]) ** 2, axis=0))
    return centers


def _lloyd(points, centers, max_iters: int = 300) -> tuple[np.ndarray, np.ndarray]:
    assign = None
    for _ in range(max_iters):
        d2 = _squared_distances(points, centers)
        new_assign = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
        for j in range(centers.shape[1]):
            members = new_assign == j
            if members.any():
                centers[:, j] = points[:, members].mean(axis=1)
            else:
                # revive an empty cluster at the point farthest from its center
                far = int(np.argmax(d2[np.arange(len(new_assign)), new_assign]))
                centers[:, j] = points[:, far]
                new_assign[far] = j
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centers


def kmeans(points, k: int, rng: np.random.Generator, restarts: int = 10) -> LabeledPartition:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Deterministic given the generator state; assignment ties go to the
    lowest cluster index.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    best_assign, best_score = None, math.inf
    for _ in range(max(1, restarts)):
        centers = _kmeans_pp_seed(pts, k, rng)
        assign, centers = _lloyd(pts, centers.copy())
        score = _wcss(pts, centers, assign)
        if score < best_score:
            best_assign, best_score = assign, score
    return LabeledPartition.from_raw(best_assign)


def _knn_predict_fixed(train_points, train_labels, test_points, k: int) -> np.ndarray:
    d2 = _squared_distances(test_points, train_points)  # rows index test points
    order = np.argsort(d2, axis=1, kind="stable")
    out = np.empty(test_points.shape[1], dtype=int)
    for i in range(test_points.shape[1]):
        neigh = order[i, :k]
        votes: dict = {}
        for j in neigh.tolist():
            votes[train_labels[j]] = votes.get(train_labels[j], 0) + 1
        top = max(votes.values())
        winners = [c for c, v in votes.items() if v == top]
        if len(winners) == 1:
            out[i] = winners[0]
        else:
            out[i] = train_labels[order[i, 0]]  # vote tie: nearest neighbor decides
    return out


def _stratified_folds(labels, folds: int) -> np.ndarray:
    # fold id per point: round-robin within each class, deterministic
    labels = _as_labels(labels)
    fold_of = np.empty(labels.size, dtype=int)
    order = np.argsort(labels, kind="stable")
    fold_of[order] = np.arange(labels.size) % folds
    return fold_of


def select_k(train_points, train_labels) -> int:
    """Cross-validated neighbor count over KNN_GRID, CV_FOLDS folds; ties go to the smallest k."""
    pts = np.atleast_2d(np.asarray(train_points, dtype=float))
    labels = _as_labels(train_labels)
    fold_of = _stratified_folds(labels, CV_FOLDS)
    best_k, best_acc = None, -1.0
    for k in KNN_GRID:
        accs = []
        for f in range(CV_FOLDS):
            test_mask = fold_of == f
            if not test_mask.any() or test_mask.all():
                continue
            n_train = int(np.sum(~test_mask))
            if k > n_train:
                continue
            pred = _knn_predict_fixed(
                pts[:, ~test_mask], labels[~test_mask], pts[:, test_mask], k
            )
            accs.append(float(np.mean(pred == labels[test_mask])))
        if accs and np.mean(accs) > best_acc:
            best_k, best_acc = k, float(np.mean(accs))
    return best_k if best_k is not None else 1


def knn_classify(
    train_points,
    train_labels,
    test_points,
    k: int | None = None,
) -> np.ndarray:
    """Euclidean majority-vote nearest neighbors.

    With k=None the neighbor count is chosen by 5-fold cross-validation
    over the grid {1, 2, 4, 8, 16}. Vote ties take the nearest neighbor's
    label.
    """
    train_pts = np.atleast_2d(np.asarray(train_points, dtype=float))
    test_pts = np.atleast_2d(np.asarray(test_points, dtype=float))
    labels = _as_labels(train_labels)
    if train_pts.shape[1] == 0:
        raise ValueError("train set must be nonempty")
    if labels.size != train_pts.shape[1]:
        raise ValueError("one label per train point required")
    if k is None:
        k = select_k(train_pts, labels)
    if not 1 <= k <= train_pts.shape[1]:
        raise ValueError(f"k={k} out of range [1, {train_pts.shape[1]}]")
    return _knn_predict_fixed(train_pts, labels, test_pts, k)


def reconstruction_error(true_b, est_b) -> float:
    """Relative Frobenius error of an estimated matrix against the truth."""
    if isinstance(true_b, ParameterMatrix):
        true_b = true_b.data
    if isinstance(est_b, ParameterMatrix):
        est_b = est_b.data
    true_b = np.asarray(true_b, dtype=float)
    est_b = np.asarray(est_b, dtype=float)
    if true_b.shape != est_b.shape:
        raise ValueError(f"shape mismatch: {true_b.shape} vs {est_b.shape}")
    denom = float(np.linalg.norm(true_b))
    if denom == 0:
        raise ValueError("true matrix must be nonzero")
    return float(np.linalg.norm(true_b - est_b)) / denom


@dataclass
class LambdaProblem:
    """The radius path of one collection: its fits indexed by nuclear radius.

    solve_fn maps a radius (math.inf allowed) to a ParameterMatrix. solve
    calls it at most once per float(radius) and keeps the fit in fits, so a
    search, a sweep and a final embed on one problem share every solve.
    upper is the top of every radius bracket, the nuclear norm of the
    unconstrained fit solve(inf). objectives maps objective names to
    functions of a fit returning a finite score where lower is better.
    states maps each solved radius to its SolverState when solve_fn records
    them there, as radius_path's does.
    """

    solve_fn: object
    objectives: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict, init=False, repr=False)
    states: dict = field(default_factory=dict, init=False, repr=False)

    def solve(self, lambda_: float) -> ParameterMatrix:
        key = float(lambda_)
        if key not in self.fits:
            self.fits[key] = self.solve_fn(key)
        return self.fits[key]

    @cached_property
    def upper(self) -> float:
        """||solve(inf)||_*; a zero unconstrained fit leaves no radius, a SolverError."""
        upper = nuclear_norm(self.solve(math.inf).data)
        if upper <= 0:
            raise SolverError("the unconstrained fit is zero, so no radius is left to choose")
        return upper

    def grid(self, n_points: int, lower: float | None = None, upper: float | None = None) -> list:
        """n_points log-spaced radii from lower to upper, both ends included.

        upper defaults to self.upper (an explicit one leaves the unconstrained
        fit unsolved) and lower to 1e-2 * upper; ValueError unless
        0 < lower < upper.
        """
        upper = self.upper if upper is None else upper
        lower = _GRID_LOWER_FACTOR * upper if lower is None else lower
        if not 0 < lower < upper:
            raise ValueError(f"need 0 < lower < upper, got [{lower}, {upper}]")
        return np.geomspace(lower, upper, n_points).tolist()

    def objective(self, name: str, params: ParameterMatrix) -> float:
        if name not in self.objectives:
            raise ValueError(f"problem has no objective {name!r}")
        value = float(self.objectives[name](params))
        if not math.isfinite(value):
            raise ValueError(f"objective {name!r} returned non-finite value")
        return value


def radius_path(evaluator, config, truth_lag=None, labels=None, seed: int = 0) -> LambdaProblem:
    """The LambdaProblem of one field's fits under one SolverConfig.

    solve(evaluator, config at radius lam) fits each radius, and the
    problem's states map each solved radius to its SolverState. The
    objectives are reconstruction-error, the relative error of a fit's
    lag_rows against truth_lag, when truth_lag is given, and train-metric,
    minus the ARI of k-means (one cluster per label, seeded by seed, 4
    restarts) on the fit's embedding, when labels are given.

    Every radius shares one field. A stochastic field's draws depend only on
    the seed and the solver step, so every radius's solve sees the same
    window draw at each step, and every loss reads the same fixed set,
    whatever order the radii are solved in.
    """
    def solve_fn(lam: float) -> ParameterMatrix:
        params, problem.states[lam] = solve(evaluator, dataclasses.replace(config, lambda_=lam))
        return params

    objectives: dict = {}
    if truth_lag is not None:
        objectives["reconstruction-error"] = lambda p: reconstruction_error(truth_lag, p.lag_rows)
    if labels is not None:
        labels = np.asarray(labels)
        k = len(set(labels.tolist()))

        def train_metric(params: ParameterMatrix) -> float:
            part = kmeans(factorize(params).coordinates, k, np.random.default_rng(seed), restarts=4)
            return 0.0 - ari(labels, part.assignments)  # +0, not -0, for a zero ARI

        objectives["train-metric"] = train_metric
    problem = LambdaProblem(solve_fn=solve_fn, objectives=objectives)  # solve_fn fills states
    return problem


@dataclass(frozen=True)
class LambdaSearchResult:
    lambdas_tried: list
    scores: list
    best_lambda: float
    best_params: ParameterMatrix


def lambda_search(
    problem: LambdaProblem,
    strategy: str = "brent",
    objective: str = "reconstruction-error",
    n_points: int = 20,
    tol: float = _BRENT_ABS_TOL,
) -> LambdaSearchResult:
    """Pick a nuclear-ball radius on the bracket [0, problem.upper].

    bisect-to-rank1 returns the largest radius whose solution still has
    approximate rank 1 (relative bracket tolerance 1e-2). grid sweeps
    problem.grid(n_points) and keeps the best-scoring solution among
    those with approximate rank below full. brent first scores the
    unconstrained fit (recorded at lambda = inf), then minimizes the
    objective over the bracket with scipy's bounded scalar minimizer at
    absolute tolerance tol, and returns the best score seen, so it never
    returns worse than a fit it has scored (the bounded method's answer is
    a point it has already evaluated).
    """
    if strategy not in SEARCH_STRATEGIES:
        raise ValueError(f"strategy must be one of {SEARCH_STRATEGIES}, got {strategy!r}")
    upper = problem.upper
    unconstrained = problem.solve(math.inf)
    tried: list = []
    scores: list = []

    if strategy == "bisect-to-rank1":
        lo, hi = 0.0, upper
        rank_hi = approx_rank_of(problem.solve(hi).data)
        tried += [lo, hi]
        scores += [0.0, float(rank_hi)]
        if rank_hi <= 1:
            return LambdaSearchResult(tried, scores, hi, problem.solve(hi))
        while hi - lo > _BISECT_REL_TOL * upper:
            mid = 0.5 * (lo + hi)
            rank = approx_rank_of(problem.solve(mid).data)
            tried.append(mid)
            scores.append(float(rank))
            if rank <= 1:
                lo = mid
            else:
                hi = mid
        # radius 0 admits only the zero matrix; no solve needed
        lo_params = problem.solve(lo) if lo > 0 else ParameterMatrix.zeros(
            unconstrained.channel_count, unconstrained.order, unconstrained.n_sequences
        )
        if approx_rank_of(lo_params.data) != 1:
            warnings.warn("no radius with approximate rank exactly 1 was found")
        return LambdaSearchResult(tried, scores, lo, lo_params)

    if strategy == "grid":
        full = min(unconstrained.data.shape)
        best_lam, best_score, best_params = None, math.inf, None
        for lam in problem.grid(n_points):
            params = problem.solve(lam)
            score = problem.objective(objective, params)
            tried.append(lam)
            scores.append(score)
            if approx_rank_of(params.data) < full and score < best_score:
                best_lam, best_score, best_params = lam, score, params
        if best_lam is None:
            warnings.warn("no grid solution dropped below full rank; using best score")
            best_lam = tried[int(np.argmin(scores))]
            best_params = problem.solve(best_lam)
        return LambdaSearchResult(tried, scores, best_lam, best_params)

    def scalar_objective(lam: float) -> float:
        score = problem.objective(objective, problem.solve(lam))
        tried.append(float(lam))
        scores.append(score)
        return score

    scalar_objective(math.inf)
    optimize.minimize_scalar(
        scalar_objective, bounds=(0.0, upper), method="bounded",
        options={"xatol": tol},
    )
    best_lam = tried[int(np.argmin(scores))]
    return LambdaSearchResult(tried, scores, best_lam, problem.solve(best_lam))
