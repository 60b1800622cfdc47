"""Solvers: convergence against closed-form optima, error paths, history."""

import csv
import math

import numpy as np
import pytest

import lowrank_ar.field as field_module
import lowrank_ar.measurement as measurement_module
import lowrank_ar.solver as solver_module
from lowrank_ar.dataio import write_history_csv
from lowrank_ar.field import EmpiricalField, FieldSpec, gram_loss, ls_loss
from lowrank_ar.measurement import SliceSet
from lowrank_ar.model import LinkFunction, ParameterMatrix, SequenceCollection
from lowrank_ar.nuclear import capped_simplex_project, nuclear_norm, project_nuc
from lowrank_ar.solver import (
    ADMM_MAX_ITERS,
    MIRROR_MAX_ITERS,
    SolverConfig,
    SolverError,
    SolverState,
    check_method,
    constrained_least_squares,
    least_squares_unconstrained,
    mirror_descent,
    mirror_prox_backtracking,
    solve,
)

from test_nuclear import project_matrix_oracle

D = 2


def no_loss(data):
    """A history loss that reads nothing, for solves whose loss the test does not check."""
    return math.nan


@pytest.fixture(scope="module")
def problem():
    """Three scalar AR sequences; identity link, full horizon."""
    gen = np.random.default_rng(11)
    seqs = tuple(gen.standard_normal((1, 60)) for _ in range(3))
    coll = SequenceCollection(sequences=seqs, ids=("a", "b", "c"), labels=None, kind="real")
    ev = EmpiricalField(coll, FieldSpec(link=LinkFunction("identity"), order=D))
    ols = least_squares_unconstrained(ev.slices, 1, D)
    return ev, ols, nuclear_norm(ols.data), ls_loss(ols, ev.slices)


def fista_oracle(slices, order, radius, iters=4000):
    """Accelerated projected gradient with an exact Lipschitz constant.

    Scalar sequences only. The projection reuses the root-finding oracle,
    so no package projection code is on this path.
    """
    design = slices.regressors  # (N, S, K)
    n, s_count, _ = design.shape
    w = 1.0 / n
    targets = w * slices.observations[:, :, 0]  # (N, S) scalar channels, weighted
    scale = 2.0 * w / s_count
    grams = np.einsum("nsk,nsl->nkl", design, design)  # (N, K, K)
    lip = scale * w * max(float(np.linalg.eigvalsh(g)[-1]) for g in grams)

    def grad(mat):
        z = np.einsum("nsk,kn->ns", design, mat)
        resid = w * z - targets
        return scale * np.einsum("ns,nsk->kn", resid, design)

    b = np.zeros((order + 1, n))
    y = b.copy()
    tk = 1.0
    for _ in range(iters):
        b_next = project_matrix_oracle(y - grad(y) / lip, radius)
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        y = b_next + ((tk - 1.0) / t_next) * (b_next - b)
        b, tk = b_next, t_next
    return b


def einsum_admm_oracle(slices, order, radius, max_iters=4000):
    """The splitting iteration as first written: factor per solve, (m, N) layout.

    Scalar sequences only. Every solve rebuilds the Grams and their
    eigendecomposition with einsum, takes its own lstsq fit, and iterates on
    (m, N) matrices with einsum ridge steps. Returns (Z, t, termination, rhos).
    """
    n = slices.n_sequences
    design, targets = slices.regressors, slices.observations
    ols = np.column_stack(
        [np.linalg.lstsq(x, y, rcond=None)[0].T.reshape(-1) for x, y in zip(design, targets)]
    )
    assert nuclear_norm(ols) > radius, "oracle covers the binding case only"
    gram = np.einsum("nsk,nsl->nkl", design, design)
    xty = np.einsum("nsk,nsc->nck", design, targets)
    evals, evecs = np.linalg.eigh(gram)
    positive = evals[evals > 1e-12 * evals.max()]
    rho = float(np.exp(np.mean(np.log(positive)))) if positive.size else 1.0
    m = order + 1
    z = np.zeros((m, n))
    u = np.zeros((m, n))
    rhos, termination = [], "iteration-cap"
    for t in range(1, max_iters + 1):
        rhs = xty + (rho / 2.0) * (z - u).T.reshape(n, 1, -1)
        tmp = np.einsum("nlk,ncl->nck", evecs, rhs)
        tmp /= evals[:, None, :] + rho / 2.0
        b = np.einsum("nkl,ncl->nck", evecs, tmp).reshape(n, m).T
        z_prev = z
        uu, delta, vt = np.linalg.svd(b + u, full_matrices=False)
        z = (uu * capped_simplex_project(delta, radius)) @ vt
        u = u + b - z
        primal = float(np.linalg.norm(b - z))
        dual = rho * float(np.linalg.norm(z - z_prev))
        rhos.append(rho)
        ref = max(float(np.linalg.norm(b)), float(np.linalg.norm(z)), 1e-30)
        if primal <= 1e-10 * ref and dual <= 1e-10 * ref:
            termination = "converged"
            break
        if primal > 10.0 * dual:
            rho *= 2.0
            u /= 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u *= 2.0
    return z, t, termination, rhos


# ---------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "gradient-descent"},
        {"max_iters": 0},
        {"kappa0": 0.0},
        {"lambda_": 0.0},
        {"lambda_": -1.0},
        {"lambda_": math.nan},
        {"kappa0": math.nan},
        {"lambda_": -math.inf},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_config_defaults():
    config = SolverConfig()
    assert config.mode == "mirror-prox-backtracking"
    assert math.isinf(config.lambda_)
    # max_iters = None leaves each method its own cap
    assert config.max_iters is None
    assert config.cap == MIRROR_MAX_ITERS == 256
    assert SolverConfig(mode="mirror-descent").cap == MIRROR_MAX_ITERS
    assert SolverConfig(mode="admm-ls").cap == ADMM_MAX_ITERS
    assert SolverConfig(mode="admm-ls", max_iters=7).cap == 7


# ---------------------------------------------------------------- convergence


def test_mirror_prox_slack_reaches_ols(problem):
    ev, ols, upper, ols_loss_val = problem
    config = SolverConfig(lambda_=2.0 * upper, max_iters=256)
    params, state = solve(ev, config)
    assert isinstance(state, SolverState)
    assert ev.loss(params.data) - ols_loss_val <= 1e-6
    assert nuclear_norm(params.data) <= 2.0 * upper + 1e-9


def test_mirror_descent_slack_approaches_ols(problem):
    ev, ols, upper, ols_loss_val = problem
    config = SolverConfig(mode="mirror-descent", lambda_=2.0 * upper, max_iters=800)
    params, state = solve(ev, config)
    assert ev.loss(params.data) - ols_loss_val <= 2e-2


def test_mirror_prox_matches_splitting_solver_when_binding(problem):
    ev, ols, upper, _ = problem
    lam = 0.5 * upper
    mp_params, _ = solve(ev, SolverConfig(lambda_=lam, max_iters=256))
    ls_params, ls_state = constrained_least_squares(ev.slices, 1, D, lam)
    assert abs(ev.loss(mp_params.data) - ev.loss(ls_params.data)) <= 1e-5
    # the constraint binds: both solutions sit on the boundary
    assert nuclear_norm(ls_params.data) == pytest.approx(lam, rel=1e-6)
    assert nuclear_norm(mp_params.data) == pytest.approx(lam, rel=1e-3)
    assert ls_state.history[-1].field_norm <= 1e-8 * max(1.0, float(np.linalg.norm(ls_params.data)))


def test_splitting_solver_matches_projected_gradient_oracle(problem):
    ev, ols, upper, _ = problem
    lam = 0.5 * upper
    ls_params, _ = constrained_least_squares(ev.slices, 1, D, lam)
    oracle = fista_oracle(ev.slices, D, lam)
    assert np.max(np.abs(ls_params.data - oracle)) <= 1e-6
    assert abs(ev.loss(ls_params.data) - ev.loss(oracle)) <= 1e-9


@pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
def test_splitting_solver_matches_einsum_oracle(problem, share):
    ev, ols, upper, _ = problem
    params, state = constrained_least_squares(ev.slices, 1, D, share * upper)
    z, t, termination, rhos = einsum_admm_oracle(ev.slices, D, share * upper)
    assert state.t == t
    assert state.termination == termination
    assert [rec.kappa for rec in state.history] == rhos
    assert np.linalg.norm(params.data - z) <= 1e-10 * np.linalg.norm(z)


@pytest.mark.parametrize("share", [0.1, 0.9])
def test_splitting_history_loss_is_gram_loss_of_each_iterate(problem, monkeypatch, share):
    # the history reads the loss in the Grams' eigenbasis; gram_loss reads the
    # Grams themselves: the two agree to rounding of w^2/S * sum ||Y_i||^2
    ev, _, upper, _ = problem
    iterates = []

    def recording(M, radius):
        iterates.append(project_nuc(M, radius))
        return iterates[-1]

    monkeypatch.setattr(solver_module, "project_nuc", recording)
    _, state = constrained_least_squares(ev.slices, 1, D, share * upper)
    assert len(iterates) == state.t > 10
    floor = gram_loss(np.zeros((D + 1, 3)), ev.slices)  # w^2/S * sum ||Y_i||^2
    for rec, z in zip(state.history, iterates):
        assert abs(rec.loss - gram_loss(z.T, ev.slices)) <= 16 * np.finfo(float).eps * floor


def test_ols_is_bitwise_per_sequence_lstsq(problem):
    ev, ols, _, _ = problem
    slices = ev.slices
    for i in range(slices.n_sequences):
        coef, *_ = np.linalg.lstsq(slices.regressors[i], slices.observations[i], rcond=None)
        assert np.array_equal(ols.data[:, i], coef.T.reshape(-1))
    again = least_squares_unconstrained(slices, 1, D)
    assert again.data is not ols.data
    assert np.array_equal(again.data, ols.data)


def test_second_solve_reuses_the_factorization(factor_counter):
    gen = np.random.default_rng(12)
    coll = SequenceCollection(
        sequences=tuple(gen.standard_normal((1, 50)) for _ in range(4)), ids=tuple("abcd")
    )
    slices = EmpiricalField(coll, FieldSpec(link=LinkFunction("identity"), order=D)).slices
    upper = nuclear_norm(least_squares_unconstrained(slices, 1, D).data)
    first, _ = constrained_least_squares(slices, 1, D, 0.5 * upper)
    assert factor_counter == {"eigh": 1, "lstsq": 4}
    second, _ = constrained_least_squares(slices, 1, D, 0.5 * upper)
    constrained_least_squares(slices, 1, D, 0.3 * upper)
    assert factor_counter == {"eigh": 1, "lstsq": 4}
    assert np.array_equal(first.data, second.data)


@pytest.mark.parametrize(
    "mode,link,built",
    [("admm-ls", "identity", False), ("mirror-prox-backtracking", "identity", False),
     ("mirror-prox-backtracking", "softmax", True)],
)
def test_only_a_nonidentity_fit_builds_the_design(mode, link, built):
    """Identity-link fits read the normal equations; a softmax field multiplies out X."""
    gen = np.random.default_rng(5)
    raw = tuple(gen.uniform(0.1, 1.0, size=(2, 40)) for _ in range(5))
    coll = SequenceCollection(
        sequences=tuple(a / a.sum(axis=0) for a in raw), ids=tuple("abcde"),
        kind="probability-simplex" if link == "softmax" else "real",
    )
    ev = EmpiricalField(coll, FieldSpec(link=LinkFunction(link), order=D))
    solve(ev, SolverConfig(mode=mode, lambda_=0.5, max_iters=20))
    assert "normal_equations" in vars(ev.slices)
    assert ("regressors" in vars(ev.slices)) == built


def test_a_nonidentity_fit_builds_the_design_once(monkeypatch):
    """The logged loss's normal equations read the design the softmax field cached."""
    builds = [0]
    real_design = measurement_module._design

    def counted_design(*args):
        builds[0] += 1
        return real_design(*args)

    monkeypatch.setattr(measurement_module, "_design", counted_design)
    monkeypatch.setattr(measurement_module, "_CHUNK_VALUES", 1)  # one sequence per chunk
    gen = np.random.default_rng(5)
    raw = tuple(gen.uniform(0.1, 1.0, size=(2, 40)) for _ in range(5))
    coll = SequenceCollection(sequences=tuple(a / a.sum(axis=0) for a in raw),
                              ids=tuple("abcde"), kind="probability-simplex")
    ev = EmpiricalField(coll, FieldSpec(link=LinkFunction("softmax"), order=D))
    solve(ev, SolverConfig(lambda_=0.5, max_iters=20))
    assert builds == [1]
    cached, fresh = ev.slices.normal_equations, SliceSet(ev.slices.segments, D).normal_equations
    assert builds == [1 + 5]  # the fresh set builds its design chunk by chunk
    assert cached.gram.tobytes() == fresh.gram.tobytes()
    assert cached.xty.tobytes() == fresh.xty.tobytes()
    assert cached.yty == fresh.yty


def test_splitting_solver_slack_is_exact_ols(problem):
    ev, ols, upper, _ = problem
    for radius in (math.inf, 3.0 * upper):
        params, state = constrained_least_squares(ev.slices, 1, D, radius)
        assert np.array_equal(params.data, ols.data)
        assert state.t == 0
        assert state.history == []
        assert state.termination == "slack"


def test_quadratic_dgf_beats_power_dgf(problem):
    """Both mirror methods settle on the zero of the field in a slack ball.

    The mirror-descent bound sits 5x above the 2.0e-4 gap measured with
    kappa0 = 1e-2.
    """
    ev, ols, upper, ols_loss_val = problem
    lam = 2.0 * upper

    def gap(mode, iters, kappa0):
        config = SolverConfig(mode=mode, lambda_=lam, max_iters=iters, kappa0=kappa0)
        params, _ = solve(ev, config)
        return ev.loss(params.data) - ols_loss_val

    assert gap("mirror-descent", 800, 1e-2) <= 1e-3
    assert gap("mirror-prox-backtracking", 256, 1e-6) <= 1e-6


# ---------------------------------------------------------------- dispatch


def test_solve_rejects_admm_with_nonidentity_link(rng):
    from conftest import make_evaluator

    ev = make_evaluator(rng, n=3, c=2, t_len=20, d=2, link="softmax")
    with pytest.raises(ValueError, match="identity"):
        solve(ev, SolverConfig(mode="admm-ls", lambda_=1.0))


def test_solve_rejects_admm_with_stochastic_slices(rng):
    from conftest import make_collection

    coll = make_collection(rng, n=3, c=1, t_len=40)
    spec = FieldSpec(
        link=LinkFunction("identity"), order=2,
        mode="stochastic-subwindow", window=10, seed=0,
    )
    ev = EmpiricalField(coll, spec)
    with pytest.raises(ValueError, match="full-horizon"):
        solve(ev, SolverConfig(mode="admm-ls", lambda_=1.0))


def test_check_method_gates_admm_only():
    identity, softmax = LinkFunction("identity"), LinkFunction("softmax")
    windowed = FieldSpec(link=identity, order=2, mode="stochastic-subwindow", window=10)
    for spec in (FieldSpec(link=softmax, order=2), windowed):
        with pytest.raises(ValueError, match="admm-ls"):
            check_method(SolverConfig(mode="admm-ls"), spec)
        for mode in ("mirror-descent", "mirror-prox-backtracking"):
            check_method(SolverConfig(mode=mode), spec)
    check_method(SolverConfig(mode="admm-ls"), FieldSpec(link=identity, order=2))


# ---------------------------------------------------------------- stochastic windows


def stochastic_problem(seed=0):
    gen = np.random.default_rng(21)
    seqs = tuple(gen.standard_normal((1, 80)) for _ in range(4))
    coll = SequenceCollection(sequences=seqs, ids=tuple("abcd"))
    spec = FieldSpec(
        link=LinkFunction("identity"), order=D,
        mode="stochastic-subwindow", window=12, seed=seed,
    )
    return coll, spec


def test_mirror_prox_draws_once_per_iteration(monkeypatch):
    draws, field_calls = [0], [0]
    real_draw = field_module.sample_subwindow_slices

    def counted_draw(*args, **kwargs):
        draws[0] += 1
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(field_module, "sample_subwindow_slices", counted_draw)
    ev = EmpiricalField(*stochastic_problem())

    def counted_field(data, step):
        field_calls[0] += 1
        return ev.field(data, step)

    config = SolverConfig(lambda_=2.0, max_iters=6)
    _, state = mirror_prox_backtracking(counted_field, (ev.param_rows, 4), config, no_loss)
    assert state.t == 6 and draws[0] == 6
    # the field at R_t, every candidate and the corrected step share the draw
    assert sum(rec.backtracks for rec in state.history) > 0
    assert field_calls[0] == 6 + 6 + sum(rec.backtracks for rec in state.history)
    mirror_prox_backtracking(ev.field, (ev.param_rows, 4), config, ev.loss)
    assert draws[0] == 6 + 6 + 1  # a logged loss adds one fixed set, drawn once


@pytest.mark.parametrize("method", [mirror_descent, mirror_prox_backtracking])
def test_stochastic_solve_is_the_same_with_or_without_a_logged_loss(method):
    coll, spec = stochastic_problem(seed=5)
    config = SolverConfig(lambda_=2.0, max_iters=12, kappa0=1.0)
    logged = EmpiricalField(coll, spec)
    quiet = EmpiricalField(coll, spec)
    agg_logged, state_logged = method(logged.field, (logged.param_rows, 4), config, logged.loss)
    agg_quiet, state_quiet = method(quiet.field, (quiet.param_rows, 4), config, no_loss)
    assert np.array_equal(agg_logged, agg_quiet)
    assert [h.field_norm for h in state_logged.history] == [
        h.field_norm for h in state_quiet.history
    ]
    assert all(math.isfinite(h.loss) for h in state_logged.history)


def test_solve_admm_dispatch(problem):
    ev, ols, upper, _ = problem
    params, state = solve(ev, SolverConfig(mode="admm-ls", lambda_=0.5 * upper, max_iters=500))
    assert isinstance(params, ParameterMatrix)
    assert nuclear_norm(params.data) <= 0.5 * upper + 1e-9


def test_solve_admm_runs_under_its_own_cap():
    """Without max_iters, admm-ls is not cut at the mirror methods' 256 iterations."""
    gen = np.random.default_rng(2)
    walks = tuple(np.cumsum(gen.standard_normal((1, 40)), axis=1) for _ in range(4))
    coll = SequenceCollection(sequences=walks, ids=tuple("abcd"))
    ev = EmpiricalField(coll, FieldSpec(link=LinkFunction("identity"), order=D))
    lam = 0.5 * nuclear_norm(least_squares_unconstrained(ev.slices, 1, D).data)
    _, state = solve(ev, SolverConfig(mode="admm-ls", lambda_=lam))
    assert state.termination == "converged"
    assert MIRROR_MAX_ITERS < state.t < ADMM_MAX_ITERS
    _, capped = solve(ev, SolverConfig(mode="admm-ls", lambda_=lam, max_iters=100))
    assert capped.termination == "iteration-cap"
    assert capped.t == 100


# ---------------------------------------------------------------- error paths


def test_splitting_solver_validation(problem):
    ev, *_ = problem
    with pytest.raises(ValueError):
        constrained_least_squares([], 1, D, 1.0)
    with pytest.raises(ValueError):
        least_squares_unconstrained([], 1, D)
    for c, d in ((2, D), (1, D + 1)):
        with pytest.raises(ValueError):
            constrained_least_squares(ev.slices, c, d, 1.0)
        with pytest.raises(ValueError):
            least_squares_unconstrained(ev.slices, c, d)
    with pytest.raises(ValueError):
        constrained_least_squares(ev.slices, 1, D, 1.0, max_iters=0)
    with pytest.raises(ValueError):
        constrained_least_squares(ev.slices, 1, D, 0.0)
    with pytest.raises(ValueError):
        constrained_least_squares(ev.slices, 1, D, -2.0)


def test_nonfinite_field_raises():
    def bad_field(x, step):
        return np.full_like(x, np.nan)

    config = SolverConfig(lambda_=1.0, max_iters=4)
    with pytest.raises(SolverError):
        mirror_descent(bad_field, (2, 2), config, no_loss)
    with pytest.raises(SolverError):
        mirror_prox_backtracking(bad_field, (2, 2), config, no_loss)


def test_backtracking_overflow_raises():
    calls = [0]

    def spiky_field(x, step):
        calls[0] += 1
        return ((-10.0) ** calls[0]) * np.ones_like(x)

    config = SolverConfig(lambda_=1.0, max_iters=4)
    with pytest.raises(SolverError, match="exceeded 60 doublings"):
        mirror_prox_backtracking(spiky_field, (2, 2), config, no_loss)
    # the field at R_0, then one candidate per kappa from kappa0 to 2^60 kappa0
    assert calls[0] == 62


def test_kappa_never_decreases(problem):
    ev, ols, upper, _ = problem
    _, state = solve(ev, SolverConfig(lambda_=0.5 * upper, max_iters=64))
    kappas = [rec.kappa for rec in state.history]
    assert all(b >= a for a, b in zip(kappas, kappas[1:]))


# ---------------------------------------------------------------- stopping, history


def test_history_records_and_csv(problem, tmp_path):
    ev, ols, upper, _ = problem
    _, state = solve(ev, SolverConfig(lambda_=0.5 * upper, max_iters=8))
    assert [rec.iteration for rec in state.history] == list(range(1, 9))
    assert state.termination == "iteration-cap"
    assert all(math.isfinite(rec.loss) for rec in state.history)
    path = tmp_path / "history.csv"
    write_history_csv(state.history, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "loss", "field_norm", "kappa", "gamma", "backtracks"]
    assert len(rows) == 9
    assert float(rows[1][1]) == pytest.approx(state.history[0].loss, rel=1e-15)


def test_splitting_history_columns(problem):
    """The Gram-form history loss matches the residual-form ls_loss."""
    ev, ols, upper, _ = problem
    params, state = constrained_least_squares(ev.slices, 1, D, 0.5 * upper)
    assert state.termination == "converged"
    assert state.history[0].backtracks == 0
    assert state.history[-1].gamma == pytest.approx(1.0 / state.history[-1].kappa)
    assert state.history[-1].loss == pytest.approx(ls_loss(params, ev.slices), rel=1e-12, abs=0)
    for max_iters in (1, 2, 5):
        params, state = constrained_least_squares(
            ev.slices, 1, D, 0.5 * upper, max_iters=max_iters
        )
        assert state.t == max_iters
        assert state.termination == "iteration-cap"
        assert state.history[-1].loss == pytest.approx(
            ls_loss(params, ev.slices), rel=1e-12, abs=0
        )


def test_aggregate_stays_inside_ball(problem):
    ev, ols, upper, _ = problem
    lam = 0.3 * upper
    for mode in ("mirror-descent", "mirror-prox-backtracking"):
        params, _ = solve(ev, SolverConfig(mode=mode, lambda_=lam, max_iters=32))
        assert nuclear_norm(params.data) <= lam + 1e-9
