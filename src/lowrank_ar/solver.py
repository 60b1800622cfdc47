"""Solvers over the nuclear ball.

Two first-order iterations are provided, both started from the zero matrix
and both returning an averaged solution:

* mirror_descent: B_{k+1} = prox(B_k, gamma_k * field(B_k)) with the step
  schedule gamma_k = 1/(kappa0 * sqrt(k)); returns the gamma-weighted average
  of the iterates.
* mirror_prox_backtracking: an extragradient scheme whose step is set by a
  local Lipschitz estimate kappa. Each iteration proposes a candidate from
  the field at R_t, doubles kappa until the compatibility test
  ||field(B)-field(R)|| <= kappa ||B-R|| passes, then takes the corrected
  step from the field at the candidate and folds the candidate into the
  running average with weight alpha_t = 2/(t+1).

A third mode, constrained_least_squares, handles the identity link only: it
splits the quadratic loss from the ball constraint and alternates exact
minimization with exact projection, which stays accurate on badly scaled
data where a single step size has to serve sequences of wildly different
magnitudes. Its history loss is read from the cached per-sequence Gram
matrices, so an iteration's cost does not grow with the number of slices S.

kappa is never reset downward between iterations; for noisy stochastic
fields an optional decay factor (off by default) relaxes that. Start kappa0
low (the default is 1e-6): backtracking only raises it, and the first
iteration calibrates it to the data scale in a few doublings.

The history's loss column tracks the running aggregate, the field_norm
column the field at the point where it was last evaluated. Every solve
records why it ended in SolverState.termination.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from lowrank_ar.field import EmpiricalField
from lowrank_ar.measurement import MeasurementSlice
from lowrank_ar.model import ParameterMatrix
from lowrank_ar.nuclear import NuclearBallGeometry, capped_simplex_project, prox_nuc

_MODES = ("mirror-descent", "mirror-prox-backtracking", "admm-ls")
_ADMM_TOL = 1e-10  # relative primal and dual residual at which the splitting stops


class SolverError(RuntimeError):
    """Numerical failure: non-finite values or runaway backtracking."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "mirror-prox-backtracking"
    lambda_: float = math.inf
    max_iters: int = 256
    kappa0: float = 1e-6
    seed: int | None = None
    stop_tol: float | None = None
    kappa_decay: float = 1.0
    max_backtracks: int = 60
    dgf: str = "quadratic"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0 must be positive, got {self.kappa0}")
        if not self.lambda_ > 0:
            raise ValueError(f"lambda_ must be positive, got {self.lambda_}")
        if not 0 < self.kappa_decay <= 1:
            raise ValueError(f"kappa_decay must be in (0, 1], got {self.kappa_decay}")
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be >= 1, got {self.max_backtracks}")


@dataclass
class HistoryRecord:
    iteration: int
    loss: float
    field_norm: float
    kappa: float
    gamma: float
    backtracks: int


@dataclass
class SolverState:
    """Final iterates, the per-iteration history and why the solve ended.

    termination is "stop-tol" (field norm under config.stop_tol),
    "converged" (splitting residuals under tolerance), "slack" (the
    unconstrained fit already lies in the ball) or "iteration-cap".
    """

    iterate: np.ndarray
    candidate: np.ndarray
    aggregate: np.ndarray
    kappa: float
    gamma: float
    t: int
    history: list[HistoryRecord]
    termination: str = "iteration-cap"


def _finite_or_raise(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise SolverError(f"{what} produced non-finite values")
    return arr


def _loss_or_nan(loss_fn, data: np.ndarray) -> float:
    return float(loss_fn(data)) if loss_fn is not None else float("nan")


def mirror_descent(field_fn, geom: NuclearBallGeometry, config: SolverConfig, loss_fn=None):
    """Plain mirror descent; returns SolverState with the gamma-weighted average."""
    if config.mode != "mirror-descent":
        raise ValueError(f"config.mode is {config.mode!r}, expected 'mirror-descent'")
    b = np.zeros((geom.rows, geom.cols))
    weighted = np.zeros_like(b)
    weight_total = 0.0
    history: list[HistoryRecord] = []
    gamma = 1.0 / config.kappa0
    termination = "iteration-cap"
    for k in range(1, config.max_iters + 1):
        g = _finite_or_raise(np.asarray(field_fn(b)), "field")
        gamma = 1.0 / (config.kappa0 * math.sqrt(k))
        b = _finite_or_raise(prox_nuc(geom, b, gamma * g), "prox step")
        weight_total += gamma
        weighted += gamma * b
        field_norm = float(np.linalg.norm(g))
        history.append(
            HistoryRecord(
                iteration=k,
                loss=_loss_or_nan(loss_fn, weighted / weight_total),
                field_norm=field_norm,
                kappa=config.kappa0,
                gamma=gamma,
                backtracks=0,
            )
        )
        if config.stop_tol is not None and field_norm < config.stop_tol:
            termination = "stop-tol"
            break
    aggregate = weighted / weight_total
    return SolverState(
        iterate=b, candidate=b, aggregate=aggregate, kappa=config.kappa0,
        gamma=gamma, t=history[-1].iteration, history=history, termination=termination,
    )


def mirror_prox_backtracking(field_fn, geom: NuclearBallGeometry, config: SolverConfig, loss_fn=None):
    """Extragradient iteration with doubling backtracking on kappa."""
    if config.mode != "mirror-prox-backtracking":
        raise ValueError(
            f"config.mode is {config.mode!r}, expected 'mirror-prox-backtracking'"
        )
    r = np.zeros((geom.rows, geom.cols))
    b_next = r
    aggregate = np.zeros_like(r)
    kappa = config.kappa0
    gamma = 1.0 / (2.0 * kappa)
    history: list[HistoryRecord] = []
    termination = "iteration-cap"
    for t in range(1, config.max_iters + 1):
        kappa_hat = max(config.kappa0, kappa * config.kappa_decay)
        psi_r = _finite_or_raise(np.asarray(field_fn(r)), "field")
        alpha = 2.0 / (t + 1)
        backtracks = 0
        while True:
            gamma = 1.0 / (2.0 * kappa_hat)
            b_next = _finite_or_raise(prox_nuc(geom, r, gamma * psi_r), "prox step")
            psi_b = _finite_or_raise(np.asarray(field_fn(b_next)), "field")
            lhs = float(np.linalg.norm(psi_b - psi_r))
            rhs = kappa_hat * float(np.linalg.norm(b_next - r))
            if lhs > rhs:
                kappa_hat *= 2.0
                backtracks += 1
                if backtracks > config.max_backtracks:
                    raise SolverError(
                        f"backtracking exceeded {config.max_backtracks} doublings; "
                        "the field is not Lipschitz at this scale or is broken"
                    )
                continue
            break
        kappa = kappa_hat
        r = _finite_or_raise(prox_nuc(geom, r, gamma * psi_b), "prox step")
        aggregate = (1.0 - alpha) * aggregate + alpha * b_next
        field_norm = float(np.linalg.norm(psi_b))
        history.append(
            HistoryRecord(
                iteration=t,
                loss=_loss_or_nan(loss_fn, aggregate),
                field_norm=field_norm,
                kappa=kappa,
                gamma=gamma,
                backtracks=backtracks,
            )
        )
        if config.stop_tol is not None and field_norm < config.stop_tol:
            termination = "stop-tol"
            break
    return SolverState(
        iterate=r, candidate=b_next, aggregate=aggregate, kappa=kappa,
        gamma=gamma, t=history[-1].iteration, history=history, termination=termination,
    )


def solve(evaluator: EmpiricalField, config: SolverConfig):
    """Dispatch on config.mode; returns (ParameterMatrix, SolverState)."""
    if config.mode == "admm-ls":
        if evaluator.spec.link.variant != "identity":
            raise ValueError("admm-ls solves the least-squares problem: identity link only")
        if evaluator.spec.mode != "full-horizon":
            raise ValueError("admm-ls needs the fixed full-horizon slice set")
        return constrained_least_squares(
            evaluator.slices,
            evaluator.channel_count,
            evaluator.spec.order,
            config.lambda_,
            max_iters=config.max_iters,
        )
    geom = NuclearBallGeometry(
        rows=evaluator.param_rows,
        cols=evaluator.n_sequences,
        radius=config.lambda_,
        dgf=config.dgf,
    )
    if config.mode == "mirror-descent":
        state = mirror_descent(evaluator.field, geom, config, loss_fn=evaluator.loss)
    else:
        state = mirror_prox_backtracking(evaluator.field, geom, config, loss_fn=evaluator.loss)
    params = ParameterMatrix(state.aggregate, evaluator.channel_count, evaluator.spec.order)
    return params, state


def least_squares_unconstrained(
    slices: list[MeasurementSlice], channel_count: int, order: int
) -> ParameterMatrix:
    """Exact minimizer of ls_loss under the identity link, fit per sequence.

    The loss separates across sequences, so each column is an independent
    ordinary least-squares solve on that sequence's regressor rows.
    """
    if not slices:
        raise ValueError("slice list is empty")
    n = slices[0].n_sequences
    c = channel_count
    design = np.stack([s.regressors for s in slices], axis=1)  # (N, S, K)
    targets = np.stack(
        [s.target.reshape(n, c) / s.weight for s in slices], axis=1
    )  # (N, S, C)
    cols = []
    for i in range(n):
        coef, *_ = np.linalg.lstsq(design[i], targets[i], rcond=None)  # (K, C)
        cols.append(coef.T.reshape(-1))
    return ParameterMatrix(np.column_stack(cols), c, order)


def constrained_least_squares(
    slices: list[MeasurementSlice],
    channel_count: int,
    order: int,
    radius: float,
    max_iters: int = 4000,
):
    """Exact minimizer of ls_loss under the identity link on the nuclear ball.

    Splitting scheme: the quadratic term is minimized per sequence against a
    copy Z that is projected onto the ball, with a scaled dual U tying the two
    together. Each sequence's normal matrix G_i = X_i^T X_i is
    eigendecomposed once, so the per-iteration cost is a few batched matrix
    products plus one thin SVD, and the penalty weight rho can be rebalanced
    for free. The history's loss of Z is read from the same cached Gram
    matrices, b_i^T G_i b_i - 2 h_i^T b_i + y_i^T y_i per sequence, so no
    step of an iteration grows with the number of slices S. Deterministic;
    no randomness anywhere. Returns (ParameterMatrix, SolverState); the
    history logs the loss of Z, the primal residual in the field_norm
    column, and rho in the kappa column. The state's termination is
    "slack", "converged" or "iteration-cap".

    The iteration converges to the constrained optimum regardless of how
    badly scaled individual sequences are, which is what makes it the right
    tool for recovery studies on data with near-unstable draws.
    """
    if not slices:
        raise ValueError("slice list is empty")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    n = slices[0].n_sequences
    c = channel_count
    s_count = len(slices)
    weight = slices[0].weight
    scale = weight**2 / s_count  # ls_loss(B) = scale * sum_i ||X_i b_i - y_i||^2

    unconstrained = least_squares_unconstrained(slices, c, order)
    sigma_unc = np.linalg.svd(unconstrained.data, compute_uv=False)
    if math.isinf(radius) or float(sigma_unc.sum()) <= radius:
        # constraint slack at the unconstrained optimum: nothing to do
        state = SolverState(
            iterate=unconstrained.data, candidate=unconstrained.data,
            aggregate=unconstrained.data, kappa=0.0, gamma=0.0, t=0, history=[],
            termination="slack",
        )
        return unconstrained, state

    design = np.stack([s.regressors for s in slices], axis=1)  # (N, S, K)
    targets = np.stack(
        [sl.target.reshape(n, c) / sl.weight for sl in slices], axis=1
    )  # (N, S, C)
    gram = np.einsum("nsk,nsl->nkl", design, design)  # (N, K, K)
    xty = np.einsum("nsk,nsc->nck", design, targets)  # (N, C, K)
    yty = float(np.sum(targets * targets))
    evals, evecs = np.linalg.eigh(gram)  # evals (N, K), evecs (N, K, K)

    def loss_of(z: np.ndarray) -> float:
        cols = z.T.reshape(n, c, -1)  # (N, C, K)
        quad = cols @ gram - 2.0 * xty  # rows G_i b_ic - 2 h_ic; gram is symmetric
        return scale * (float(np.sum(cols * quad)) + yty)

    # geometric middle of the spectrum balances the two subproblems
    positive = evals[evals > 1e-12 * evals.max()]
    rho = float(np.exp(np.mean(np.log(positive)))) if positive.size else 1.0

    m = c * c * order + c
    z = np.zeros((m, n))
    u = np.zeros((m, n))
    history: list[HistoryRecord] = []
    iteration = 0
    termination = "iteration-cap"
    for iteration in range(1, max_iters + 1):
        rhs = xty + (rho / 2.0) * (z - u).T.reshape(n, c, -1)
        tmp = np.einsum("nlk,ncl->nck", evecs, rhs)
        tmp /= evals[:, None, :] + rho / 2.0
        b_cols = np.einsum("nkl,ncl->nck", evecs, tmp)
        b = b_cols.reshape(n, m).T
        z_prev = z
        uu, delta, vt = np.linalg.svd(b + u, full_matrices=False)
        z = (uu * capped_simplex_project(delta, radius)) @ vt
        u = u + b - z
        primal = float(np.linalg.norm(b - z))
        dual = rho * float(np.linalg.norm(z - z_prev))
        history.append(
            HistoryRecord(
                iteration=iteration, loss=loss_of(z), field_norm=primal,
                kappa=rho, gamma=1.0 / rho, backtracks=0,
            )
        )
        ref = max(float(np.linalg.norm(b)), float(np.linalg.norm(z)), 1e-30)
        if primal <= _ADMM_TOL * ref and dual <= _ADMM_TOL * ref:
            termination = "converged"
            break
        if primal > 10.0 * dual:
            rho *= 2.0
            u /= 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u *= 2.0
    params = ParameterMatrix(_finite_or_raise(z, "splitting iterate"), c, order)
    state = SolverState(
        iterate=z, candidate=b, aggregate=z, kappa=rho, gamma=1.0 / rho,
        t=iteration, history=history, termination=termination,
    )
    return params, state


def write_history_csv(history: list[HistoryRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "loss", "field_norm", "kappa", "gamma", "backtracks"])
        for rec in history:
            writer.writerow(
                [
                    rec.iteration,
                    f"{rec.loss:.17g}",
                    f"{rec.field_norm:.17g}",
                    f"{rec.kappa:.17g}",
                    f"{rec.gamma:.17g}",
                    rec.backtracks,
                ]
            )
