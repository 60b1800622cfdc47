"""Solvers: convergence against closed-form optima, error paths, history."""

import csv
import math

import numpy as np
import pytest

from lowrank_ar.field import EmpiricalField, FieldSpec, ls_loss
from lowrank_ar.model import LinkFunction, ParameterMatrix, SequenceCollection
from lowrank_ar.nuclear import NuclearBallGeometry, nuclear_norm
from lowrank_ar.solver import (
    SolverConfig,
    SolverError,
    SolverState,
    constrained_least_squares,
    least_squares_unconstrained,
    mirror_descent,
    mirror_prox_backtracking,
    solve,
    write_history_csv,
)

from test_nuclear import project_matrix_oracle

D = 2


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
    n = slices[0].n_sequences
    s_count = len(slices)
    w = slices[0].weight
    design = np.stack([s.regressors for s in slices], axis=1)  # (N, S, K)
    targets = np.stack([s.target for s in slices], axis=1)  # (N, S) scalar channels
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


# ---------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "gradient-descent"},
        {"max_iters": 0},
        {"kappa0": 0.0},
        {"lambda_": 0.0},
        {"lambda_": -1.0},
        {"kappa_decay": 0.0},
        {"kappa_decay": 1.5},
        {"max_backtracks": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_config_defaults():
    config = SolverConfig()
    assert config.mode == "mirror-prox-backtracking"
    assert math.isinf(config.lambda_)
    assert config.dgf == "quadratic"


def test_algorithms_reject_mismatched_mode():
    geom = NuclearBallGeometry(rows=2, cols=2, radius=1.0)
    md = SolverConfig(mode="mirror-descent")
    mp = SolverConfig(mode="mirror-prox-backtracking")
    with pytest.raises(ValueError):
        mirror_descent(lambda x: x, geom, mp)
    with pytest.raises(ValueError):
        mirror_prox_backtracking(lambda x: x, geom, md)


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


def test_splitting_solver_slack_is_exact_ols(problem):
    ev, ols, upper, _ = problem
    for radius in (math.inf, 3.0 * upper):
        params, state = constrained_least_squares(ev.slices, 1, D, radius)
        assert np.array_equal(params.data, ols.data)
        assert state.t == 0
        assert state.history == []
        assert state.termination == "slack"


def test_quadratic_dgf_beats_power_dgf(problem):
    ev, ols, upper, ols_loss_val = problem
    lam = 2.0 * upper

    def gap(mode, dgf, iters, kappa0):
        config = SolverConfig(mode=mode, lambda_=lam, max_iters=iters, kappa0=kappa0, dgf=dgf)
        params, _ = solve(ev, config)
        return ev.loss(params.data) - ols_loss_val

    md_quad = gap("mirror-descent", "quadratic", 800, 1e-2)
    md_pow = gap("mirror-descent", "power", 800, 1e-2)
    mp_quad = gap("mirror-prox-backtracking", "quadratic", 256, 1e-6)
    mp_pow = gap("mirror-prox-backtracking", "power", 256, 1e-6)
    assert md_quad < md_pow
    assert mp_quad < mp_pow
    assert mp_quad <= 1e-6
    assert mp_pow > 1e-5


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


def test_solve_admm_dispatch(problem):
    ev, ols, upper, _ = problem
    params, state = solve(ev, SolverConfig(mode="admm-ls", lambda_=0.5 * upper, max_iters=500))
    assert isinstance(params, ParameterMatrix)
    assert nuclear_norm(params.data) <= 0.5 * upper + 1e-9


# ---------------------------------------------------------------- error paths


def test_splitting_solver_validation(problem):
    ev, *_ = problem
    with pytest.raises(ValueError):
        constrained_least_squares([], 1, D, 1.0)
    with pytest.raises(ValueError):
        constrained_least_squares(ev.slices, 1, D, 0.0)
    with pytest.raises(ValueError):
        constrained_least_squares(ev.slices, 1, D, -2.0)


def test_nonfinite_field_raises():
    geom = NuclearBallGeometry(rows=2, cols=2, radius=1.0)

    def bad_field(x):
        return np.full_like(x, np.nan)

    with pytest.raises(SolverError):
        mirror_descent(bad_field, geom, SolverConfig(mode="mirror-descent", max_iters=4))
    with pytest.raises(SolverError):
        mirror_prox_backtracking(bad_field, geom, SolverConfig(max_iters=4))


def test_backtracking_overflow_raises():
    geom = NuclearBallGeometry(rows=2, cols=2, radius=1.0)
    calls = [0]

    def spiky_field(x):
        calls[0] += 1
        return ((-10.0) ** calls[0]) * np.ones_like(x)

    config = SolverConfig(max_iters=4, max_backtracks=5)
    with pytest.raises(SolverError, match="backtracking"):
        mirror_prox_backtracking(spiky_field, geom, config)


def test_kappa_never_decreases(problem):
    ev, ols, upper, _ = problem
    _, state = solve(ev, SolverConfig(lambda_=0.5 * upper, max_iters=64))
    kappas = [rec.kappa for rec in state.history]
    assert all(b >= a for a, b in zip(kappas, kappas[1:]))


# ---------------------------------------------------------------- stopping, history


def test_stop_tol_exits_early():
    geom = NuclearBallGeometry(rows=2, cols=3, radius=1.0)
    zero_field = lambda x: np.zeros_like(x)
    md = mirror_descent(
        zero_field, geom, SolverConfig(mode="mirror-descent", max_iters=50, stop_tol=1e-8)
    )
    assert len(md.history) == 1
    assert md.termination == "stop-tol"
    mp = mirror_prox_backtracking(
        zero_field, geom, SolverConfig(max_iters=50, stop_tol=1e-8)
    )
    assert len(mp.history) == 1
    assert mp.termination == "stop-tol"


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
    assert state.history[-1].kappa == pytest.approx(state.kappa)
    assert state.history[-1].gamma == pytest.approx(1.0 / state.kappa)
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
