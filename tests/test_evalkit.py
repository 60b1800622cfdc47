"""Metrics against brute-force oracles; clustering, knn, penalty search."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_ar.evalkit import (
    KNN_GRID,
    SEARCH_STRATEGIES,
    LabeledPartition,
    LambdaProblem,
    accuracy_and_macro_f1,
    ari,
    contingency,
    kmeans,
    knn_classify,
    lambda_search,
    nmi,
    radius_path,
    reconstruction_error,
    select_k,
)
from lowrank_ar.model import ParameterMatrix
from lowrank_ar.solver import SolverConfig, SolverError, constrained_least_squares

from conftest import make_evaluator
from test_nuclear import project_matrix_oracle


def ari_oracle(truth, pred):
    """Literal pair counting over all point pairs."""
    n = len(truth)
    same_both = same_t = same_p = pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            a = truth[i] == truth[j]
            b = pred[i] == pred[j]
            same_both += a and b
            same_t += a
            same_p += b
    expected = same_t * same_p / pairs
    maximum = 0.5 * (same_t + same_p)
    if maximum == expected:
        return 1.0
    return (same_both - expected) / (maximum - expected)


def nmi_oracle(truth, pred):
    """Entropies and mutual information from raw counts, natural logs."""
    n = len(truth)
    ct, cp = Counter(truth), Counter(pred)
    cj = Counter(zip(truth, pred))
    h_t = -sum(c / n * math.log(c / n) for c in ct.values())
    h_p = -sum(c / n * math.log(c / n) for c in cp.values())
    if h_t + h_p == 0:
        return 1.0
    info = sum(
        c / n * math.log((c / n) / ((ct[a] / n) * (cp[b] / n)))
        for (a, b), c in cj.items()
    )
    return 2.0 * info / (h_t + h_p)


label_lists = st.integers(min_value=2, max_value=24).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
    )
)


# ---------------------------------------------------------------- partition metrics


def test_contingency_counts():
    table = contingency([0, 0, 1, 1, 2], [1, 1, 1, 0, 0])
    assert np.array_equal(table, [[0, 2], [1, 1], [1, 0]])
    with pytest.raises(ValueError):
        contingency([0, 1], [0, 1, 1])
    with pytest.raises(ValueError):
        contingency([], [])


def test_ari_perfect_and_independent():
    assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)
    assert ari([0, 0, 0, 0], [0, 0, 0, 0]) == pytest.approx(1.0)
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_nmi_perfect_and_degenerate():
    assert nmi([0, 0, 1, 1], [5, 5, 9, 9]) == pytest.approx(1.0)
    assert nmi([0, 0, 0], [1, 1, 1]) == pytest.approx(1.0)
    assert nmi([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0)


@settings(max_examples=150, deadline=None)
@given(labels=label_lists)
def test_ari_matches_pair_counting_oracle(labels):
    truth, pred = labels
    assert ari(truth, pred) == pytest.approx(ari_oracle(truth, pred), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(labels=label_lists)
def test_nmi_matches_entropy_oracle(labels):
    truth, pred = labels
    assert nmi(truth, pred) == pytest.approx(nmi_oracle(truth, pred), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(labels=label_lists)
def test_metrics_are_symmetric_and_relabel_invariant(labels):
    truth, pred = labels
    assert ari(truth, pred) == pytest.approx(ari(pred, truth), abs=1e-12)
    relabeled = [p + 17 for p in pred]
    assert ari(truth, relabeled) == pytest.approx(ari(truth, pred), abs=1e-12)
    assert nmi(truth, relabeled) == pytest.approx(nmi(truth, pred), abs=1e-12)


def test_accuracy_and_macro_f1_hand_example():
    acc, f1 = accuracy_and_macro_f1([0, 0, 1, 1, 2], [0, 1, 1, 1, 1])
    assert acc == pytest.approx(3 / 5)
    # class 0: f1 2/3; class 1: f1 2/3; class 2 never predicted: f1 0
    assert f1 == pytest.approx((2 / 3 + 2 / 3 + 0.0) / 3)


def test_macro_f1_counts_prediction_only_classes():
    acc, f1 = accuracy_and_macro_f1([0, 0, 1], [0, 2, 1])
    assert acc == pytest.approx(2 / 3)
    assert f1 == pytest.approx((2 / 3 + 1.0 + 0.0) / 3)


def test_labeled_partition_compacts_by_first_appearance():
    part = LabeledPartition.from_raw([5, 5, 2, 7, 2])
    assert np.array_equal(part.assignments, [0, 0, 1, 2, 1])


# ---------------------------------------------------------------- kmeans


def separated_blobs(rng, per=8):
    centers = np.array([[0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    points = np.hstack(
        [centers[:, [j]] + 0.2 * rng.standard_normal((2, per)) for j in range(3)]
    )
    labels = np.repeat([0, 1, 2], per)
    return points, labels


def test_kmeans_recovers_separated_blobs(rng):
    points, labels = separated_blobs(rng)
    part = kmeans(points, 3, np.random.default_rng(0))
    assert ari(labels, part.assignments) == pytest.approx(1.0)


def test_kmeans_deterministic_given_seed(rng):
    points, _ = separated_blobs(rng)
    a = kmeans(points, 3, np.random.default_rng(4), restarts=3)
    b = kmeans(points, 3, np.random.default_rng(4), restarts=3)
    assert np.array_equal(a.assignments, b.assignments)


def test_kmeans_validation(rng):
    points = rng.standard_normal((2, 3))
    with pytest.raises(ValueError):
        kmeans(points, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kmeans(points, 4, np.random.default_rng(0))


def test_kmeans_single_cluster(rng):
    points = rng.standard_normal((2, 6))
    part = kmeans(points, 1, np.random.default_rng(0))
    assert np.array_equal(part.assignments, np.zeros(6, dtype=int))


# ---------------------------------------------------------------- knn


def test_knn_classifies_separated_classes(rng):
    train = np.array([[0.0, 0.1, -0.1, 10.0, 10.1, 9.9]])
    labels = [0, 0, 0, 1, 1, 1]
    test = np.array([[0.05, 9.95]])
    for k in (1, 3):
        assert np.array_equal(knn_classify(train, labels, test, k=k), [0, 1])


def test_knn_vote_tie_takes_nearest():
    train = np.array([[0.0, 1.0]])
    labels = [7, 9]
    assert knn_classify(train, labels, np.array([[0.4]]), k=2)[0] == 7
    assert knn_classify(train, labels, np.array([[0.6]]), k=2)[0] == 9


def test_knn_validation():
    train = np.array([[0.0, 1.0]])
    with pytest.raises(ValueError):
        knn_classify(train, [0, 1], np.array([[0.5]]), k=3)
    with pytest.raises(ValueError):
        knn_classify(train, [0, 1], np.array([[0.5]]), k=0)
    with pytest.raises(ValueError):
        knn_classify(train, [0], np.array([[0.5]]), k=1)
    with pytest.raises(ValueError):
        knn_classify(np.empty((1, 0)), [], np.array([[0.5]]), k=1)


def test_select_k_prefers_smallest_on_ties(rng):
    # perfectly separable: every neighbor count is equally accurate
    train = np.hstack([rng.normal(0.0, 0.1, (1, 10)), rng.normal(50.0, 0.1, (1, 10))])
    labels = np.repeat([0, 1], 10)
    assert select_k(train, labels) == KNN_GRID[0]


def test_knn_auto_k(rng):
    train = np.hstack([rng.normal(0.0, 0.1, (1, 10)), rng.normal(50.0, 0.1, (1, 10))])
    labels = np.repeat([0, 1], 10)
    pred = knn_classify(train, labels, np.array([[0.2, 49.8]]))
    assert np.array_equal(pred, [0, 1])


# ---------------------------------------------------------------- recovery error


def test_reconstruction_error_values():
    truth = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert reconstruction_error(truth, truth) == 0.0
    assert reconstruction_error(truth, np.zeros((2, 2))) == pytest.approx(1.0)
    est = truth.copy()
    est[0, 0] = 0.0
    assert reconstruction_error(truth, est) == pytest.approx(3.0 / 5.0)


def test_reconstruction_error_validation():
    with pytest.raises(ValueError):
        reconstruction_error(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        reconstruction_error(np.zeros((2, 2)), np.eye(2))


# ---------------------------------------------------------------- lambda search


def projection_problem(target, objective_fn):
    """solve(lambda) = Euclidean projection of a fixed matrix onto the ball."""
    calls = []

    def solve_fn(lam):
        calls.append(lam)
        data = target if math.isinf(lam) else project_matrix_oracle(target, lam)
        return ParameterMatrix(np.asarray(data, dtype=float), 1, 1)

    problem = LambdaProblem(
        solve_fn=solve_fn, objectives={"reconstruction-error": objective_fn}
    )
    return problem, calls


def test_brent_finds_interior_minimum():
    target = np.diag([3.0, 1.0])
    # exactly the projection at radius 2.4, so the error curve is unimodal
    # with a zero minimum strictly inside the bracket (0, 4)
    truth = np.diag([2.2, 0.2])
    problem, calls = projection_problem(
        target, lambda p: reconstruction_error(truth, p.data)
    )
    result = lambda_search(problem, strategy="brent", tol=1e-4)
    assert abs(result.best_lambda - 2.4) <= 1e-3
    assert result.scores[-1] <= 0.01
    assert len(result.lambdas_tried) == len(result.scores)


def test_brent_returns_the_unconstrained_fit_when_it_scores_best():
    target = np.diag([3.0, 1.0])

    def two_minima(p):
        # an interior local minimum at radius 1 (score 0.5) that Brent settles
        # in, and the global one at the top of the bracket, radius 4 (score 0)
        radius = float(np.linalg.svd(p.data, compute_uv=False).sum())
        return min((radius - 1.0) ** 2 + 0.5, 20.0 * (radius - 4.0) ** 2)

    problem, calls = projection_problem(target, two_minima)
    result = lambda_search(problem, strategy="brent", tol=1e-4)
    assert result.lambdas_tried[0] == math.inf
    assert result.scores[0] <= 1e-20
    assert min(result.scores[1:]) >= 0.5  # Brent's own evaluations
    assert result.best_lambda == math.inf
    assert np.array_equal(result.best_params.data, target)
    assert calls.count(math.inf) == 1  # scored without a second solve


def test_search_caches_repeated_lambdas():
    # one solve per radius across upper, the search and a later solve
    target = np.diag([3.0, 1.0])
    for strategy in SEARCH_STRATEGIES:
        problem, calls = projection_problem(
            target, lambda p: reconstruction_error(0.5 * target, p.data)
        )
        assert problem.upper == pytest.approx(4.0)
        result = lambda_search(problem, strategy=strategy, n_points=8, tol=1e-3)
        assert problem.solve(result.best_lambda) is result.best_params
        assert problem.upper == pytest.approx(4.0)
        assert calls[0] == math.inf
        assert len(calls) == len(set(calls)) == len(problem.fits)


def test_grid_keeps_best_rank_deficient_solution():
    target = np.diag([3.0, 1.0])
    truth = np.diag([2.0, 0.0])
    problem, _ = projection_problem(
        target, lambda p: reconstruction_error(truth, p.data)
    )
    result = lambda_search(problem, strategy="grid", n_points=30)
    # solutions keep rank 1 up to radius 2; the error there is |lam - 2| / 2
    sigma = np.linalg.svd(result.best_params.data, compute_uv=False)
    assert sigma[1] < 1e-2 * sigma[0]
    assert abs(result.best_lambda - 2.0) < 0.3
    assert len(result.lambdas_tried) == 30


def test_grid_warns_when_nothing_drops_rank():
    target = np.diag([3.0, 1.0])

    def solve_fn(lam):
        return ParameterMatrix(target.copy(), 1, 1)

    problem = LambdaProblem(
        solve_fn=solve_fn,
        objectives={"reconstruction-error": lambda p: 1.0},
    )
    with pytest.warns(UserWarning, match="full rank"):
        result = lambda_search(problem, strategy="grid", n_points=5)
    assert result.best_lambda in result.lambdas_tried


def test_grid_default_bracket_is_the_grid_search_and_bad_brackets_raise():
    target = np.diag([3.0, 1.0])
    problem, calls = projection_problem(target, lambda p: 0.0)
    assert problem.grid(3, lower=1.0, upper=2.0) == np.geomspace(1.0, 2.0, 3).tolist()
    assert calls == []  # an explicit upper leaves the unconstrained fit unsolved
    result = lambda_search(problem, strategy="grid", n_points=7)
    assert problem.grid(7) == result.lambdas_tried
    assert problem.grid(7, lower=1e-2 * problem.upper, upper=problem.upper) == problem.grid(7)
    for lower, upper in [(2.0, 2.0), (3.0, 2.0), (0.0, 2.0)]:
        with pytest.raises(ValueError, match="0 < lower < upper"):
            problem.grid(3, lower=lower, upper=upper)


def test_bisect_stops_at_rank_one_boundary():
    target = np.diag([3.0, 1.0])
    problem, _ = projection_problem(target, lambda p: 0.0)
    result = lambda_search(problem, strategy="bisect-to-rank1")
    # rank 1 holds for radius <= 2 and the bracket tolerance is 1e-2 * upper
    assert 2.0 - 0.05 <= result.best_lambda <= 2.0 + 0.05
    sigma = np.linalg.svd(result.best_params.data, compute_uv=False)
    assert sigma[1] <= 1e-2 * sigma[0]


def test_bisect_shortcut_when_already_rank_one():
    target = np.diag([5.0, 0.0001])
    problem, _ = projection_problem(target, lambda p: 0.0)
    result = lambda_search(problem, strategy="bisect-to-rank1")
    assert result.best_lambda == pytest.approx(np.linalg.svd(target, compute_uv=False).sum())


def test_search_validation():
    target = np.diag([1.0, 1.0])
    problem, _ = projection_problem(target, lambda p: 0.0)
    with pytest.raises(ValueError):
        lambda_search(problem, strategy="golden")

    zero_problem = LambdaProblem(
        solve_fn=lambda lam: ParameterMatrix.zeros(1, 1, 2),
        objectives={"reconstruction-error": lambda p: 0.0},
    )
    # a zero unconstrained fit leaves no radius: a numerical failure, not bad input
    with pytest.raises(SolverError, match="zero"):
        lambda_search(zero_problem, strategy="brent")


def test_radius_path_solves_under_its_config_and_keeps_each_state(rng):
    ev = make_evaluator(rng, n=6, d=2)
    truth_lag = rng.standard_normal((2, 6))
    problem = radius_path(
        ev, SolverConfig(mode="admm-ls"), truth_lag=truth_lag, labels=[0, 0, 0, 1, 1, 1]
    )
    states = problem.states
    assert set(problem.objectives) == {"reconstruction-error", "train-metric"}
    lam = 0.5 * problem.upper
    fit = problem.solve(lam)
    direct, direct_state = constrained_least_squares(ev.slices, 1, 2, lam)
    assert np.array_equal(fit.data, direct.data)
    assert sorted(states) == [lam, math.inf]
    assert states[lam].t == direct_state.t and states[math.inf].termination == "slack"
    assert problem.objective("reconstruction-error", fit) == reconstruction_error(
        truth_lag, fit.data[1:]
    )
    assert -1.0 <= problem.objective("train-metric", fit) <= 1.0
    assert radius_path(ev, SolverConfig(mode="admm-ls")).objectives == {}


def test_objective_lookup_and_finiteness():
    problem = LambdaProblem(
        solve_fn=lambda lam: ParameterMatrix.zeros(1, 1, 2),
        objectives={"bad": lambda p: float("nan")},
    )
    params = ParameterMatrix.zeros(1, 1, 2)
    with pytest.raises(ValueError, match="no objective"):
        problem.objective("missing", params)
    with pytest.raises(ValueError, match="non-finite"):
        problem.objective("bad", params)
