"""Parameter recovery on one synthetic benchmark, as the studies run it.

Sequences are z-normalized before fitting (the lag structure is scale
invariant and the intercept absorbs the centering). recovery_run fits the
unconstrained per-sequence least-squares baseline, Brent-searches the
nuclear radius that minimizes reconstruction error against the generating
coefficients with the exact constrained solver, embeds the best fit and
clusters it with k-means. radius_sweep scores the exact constrained fit on
a geometric grid of radii instead and embeds the best one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lowrank_ar.embedding import approx_rank, factorize, pca_project
from lowrank_ar.evalkit import LambdaProblem, ari, kmeans, lambda_search, reconstruction_error
from lowrank_ar.measurement import enumerate_slices
from lowrank_ar.model import ParameterMatrix, SequenceCollection
from lowrank_ar.nuclear import nuclear_norm
from lowrank_ar.solver import constrained_least_squares, least_squares_unconstrained


def znorm(collection: SequenceCollection) -> SequenceCollection:
    """Per-sequence standardization to zero mean and unit variance."""
    return SequenceCollection(
        sequences=[(s - s.mean()) / s.std() for s in collection.sequences],
        ids=collection.ids,
        labels=collection.labels,
        kind="real",
    )


@dataclass(frozen=True)
class RecoveryRun:
    """Errors relative to the truth's lag rows, radius, clustering and ranks."""

    err_unconstrained: float
    err_best: float
    best_lambda: float
    ari: float
    rank_unconstrained: int
    rank_best: int


def recovery_run(collection: SequenceCollection, truth: ParameterMatrix) -> RecoveryRun:
    """OLS, Brent radius search, factorize, then k-means (seed 0, 10 restarts).

    The AR order is the truth's, and k-means looks for one cluster per label.
    """
    d = truth.order
    slices = enumerate_slices(znorm(collection), d)
    truth_lag = truth.data[1:]

    ols = least_squares_unconstrained(slices, 1, d)
    problem = LambdaProblem(
        solve_fn=lambda lam: constrained_least_squares(slices, 1, d, lam)[0],
        objectives={
            "reconstruction-error": lambda p: reconstruction_error(truth_lag, p.data[1:])
        },
    )
    result = lambda_search(problem, strategy="brent", objective="reconstruction-error")
    best = result.best_params

    emb = factorize(best, ids=list(collection.ids))
    n_clusters = len(set(collection.labels))
    part = kmeans(emb.coordinates, n_clusters, np.random.default_rng(0), restarts=10)
    return RecoveryRun(
        err_unconstrained=reconstruction_error(truth_lag, ols.data[1:]),
        err_best=reconstruction_error(truth_lag, best.data[1:]),
        best_lambda=result.best_lambda,
        ari=ari(collection.labels, part.assignments),
        rank_unconstrained=approx_rank(np.linalg.svd(ols.data, compute_uv=False)),
        rank_best=approx_rank(np.linalg.svd(best.data, compute_uv=False)),
    )


@dataclass(frozen=True)
class RadiusSweep:
    """Error and approximate rank of the constrained fit at each radius.

    best indexes the smallest error; explained holds the top-2
    explained-variance ratios of the best fit's embedding.
    """

    lambdas: np.ndarray
    errors: np.ndarray
    ranks: list
    best: int
    explained: np.ndarray


def radius_sweep(
    collection: SequenceCollection, truth: ParameterMatrix, lo: float, hi: float, points: int
) -> RadiusSweep:
    """Exact constrained fits at geomspace(lo * upper, hi * upper, points).

    upper is the nuclear norm of the unconstrained least-squares fit, the
    error is taken against the truth's lag rows and the AR order is the
    truth's.
    """
    d = truth.order
    slices = enumerate_slices(znorm(collection), d)
    upper = nuclear_norm(least_squares_unconstrained(slices, 1, d).data)
    lambdas = np.geomspace(lo * upper, hi * upper, points)
    fits = [constrained_least_squares(slices, 1, d, float(lam))[0] for lam in lambdas]
    errors = np.array([reconstruction_error(truth.data[1:], p.data[1:]) for p in fits])
    best = int(np.argmin(errors))
    _, explained = pca_project(factorize(fits[best]).coordinates, 2)
    ranks = [approx_rank(np.linalg.svd(p.data, compute_uv=False)) for p in fits]
    return RadiusSweep(lambdas, errors, ranks, best, explained)
