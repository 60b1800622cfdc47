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
magnitudes. It factors the per-sequence normal equations and fits OLS once
per slice set (SliceSet.normal_equations and SliceSet.ols), so every solve
of a radius search or sweep after the first reuses them, and it iterates in
the (N, m) layout, one row per sequence, with batched matrix products and
one thin SVD per iteration; its history loss is read from the cached Gram
matrices, so an iteration's cost does not grow with the number of slices S.

kappa is never reset downward between iterations. Start kappa0
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
from lowrank_ar.measurement import SliceSet
from lowrank_ar.model import ParameterMatrix
from lowrank_ar.nuclear import NuclearBallGeometry, capped_simplex_project, nuclear_norm, prox_nuc

_MODES = ("mirror-descent", "mirror-prox-backtracking", "admm-ls")
_ADMM_TOL = 1e-10  # relative primal and dual residual at which the splitting stops
_MAX_BACKTRACKS = 60  # kappa doublings per mirror-prox iteration before giving up


class SolverError(RuntimeError):
    """Numerical failure: non-finite values or runaway backtracking."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "mirror-prox-backtracking"
    lambda_: float = math.inf
    max_iters: int = 256
    kappa0: float = 1e-6
    stop_tol: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0 must be positive, got {self.kappa0}")
        if not self.lambda_ > 0:
            raise ValueError(f"lambda_ must be positive, got {self.lambda_}")


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
        psi_r = _finite_or_raise(np.asarray(field_fn(r)), "field")
        alpha = 2.0 / (t + 1)
        backtracks = 0
        while True:
            gamma = 1.0 / (2.0 * kappa)
            b_next = _finite_or_raise(prox_nuc(geom, r, gamma * psi_r), "prox step")
            psi_b = _finite_or_raise(np.asarray(field_fn(b_next)), "field")
            lhs = float(np.linalg.norm(psi_b - psi_r))
            rhs = kappa * float(np.linalg.norm(b_next - r))
            if lhs > rhs:
                kappa *= 2.0
                backtracks += 1
                if backtracks > _MAX_BACKTRACKS:
                    raise SolverError(
                        f"backtracking exceeded {_MAX_BACKTRACKS} doublings; "
                        "the field is not Lipschitz at this scale or is broken"
                    )
                continue
            break
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
    )
    if config.mode == "mirror-descent":
        state = mirror_descent(evaluator.field, geom, config, loss_fn=evaluator.loss)
    else:
        state = mirror_prox_backtracking(evaluator.field, geom, config, loss_fn=evaluator.loss)
    params = ParameterMatrix(state.aggregate, evaluator.channel_count, evaluator.spec.order)
    return params, state


def _check_slices(slices: SliceSet, channel_count: int, order: int) -> None:
    if not isinstance(slices, SliceSet):
        raise ValueError(f"expected a SliceSet, got {type(slices).__name__}")
    if slices.channel_count != channel_count or slices.order != order:
        raise ValueError(
            f"slice set has C={slices.channel_count}, d={slices.order}; "
            f"expected C={channel_count}, d={order}"
        )


def least_squares_unconstrained(
    slices: SliceSet, channel_count: int, order: int
) -> ParameterMatrix:
    """Exact minimizer of ls_loss under the identity link, fit per sequence.

    The loss separates across sequences, so each column is an independent
    ordinary least-squares solve on that sequence's regressor rows. The set
    fits once (SliceSet.ols); every call returns a fresh copy of that fit.
    """
    _check_slices(slices, channel_count, order)
    return ParameterMatrix(slices.ols, channel_count, order)


def constrained_least_squares(
    slices: SliceSet,
    channel_count: int,
    order: int,
    radius: float,
    max_iters: int = 4000,
):
    """Exact minimizer of ls_loss under the identity link on the nuclear ball.

    Splitting scheme: the quadratic term is minimized per sequence against a
    copy Z that is projected onto the ball, with a scaled dual U tying the two
    together. The normal equations are factored once per slice set
    (SliceSet.normal_equations: G_i = X_i^T X_i, H_i = Y_i^T X_i and the
    eigendecomposition G_i = V_i diag(e_i) V_i^T), so a radius search or
    sweep on one set pays for them once, and the penalty weight rho can be
    rebalanced for free. The iteration runs in the (N, m) layout, one row
    per sequence: the ridge step is two batched products against V_i, the
    projection one thin SVD of the (N, m) matrix, and the history's loss of
    Z is read from the cached Grams, b_i^T G_i b_i - 2 h_i^T b_i + y_i^T y_i
    per sequence, so no step of an iteration grows with the number of slices
    S. Z is transposed back to (m, N) at the end. Deterministic; no
    randomness anywhere. Returns (ParameterMatrix, SolverState); the history
    logs the loss of Z, the primal residual in the field_norm column, and
    rho in the kappa column. The state's termination is "slack",
    "converged" or "iteration-cap".

    The iteration converges to the constrained optimum regardless of how
    badly scaled individual sequences are, which is what makes it the right
    tool for recovery studies on data with near-unstable draws.
    """
    _check_slices(slices, channel_count, order)
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    n = slices.n_sequences
    c = channel_count
    scale = slices.weight**2 / len(slices)  # ls_loss(B) = scale * sum_i ||X_i b_i - y_i||^2

    unconstrained = least_squares_unconstrained(slices, c, order)
    if math.isinf(radius) or nuclear_norm(unconstrained.data) <= radius:
        # constraint slack at the unconstrained optimum: nothing to do
        state = SolverState(
            iterate=unconstrained.data, candidate=unconstrained.data,
            aggregate=unconstrained.data, kappa=0.0, gamma=0.0, t=0, history=[],
            termination="slack",
        )
        return unconstrained, state

    normal = slices.normal_equations
    gram, xty, evals, evecs = normal.gram, normal.xty, normal.evals, normal.evecs
    evecs_t = evecs.transpose(0, 2, 1)
    xty_v = xty @ evecs  # H_i V_i, fixed for the whole solve

    def loss_of(z: np.ndarray) -> float:
        cols = z.reshape(n, c, -1)  # (N, C, K)
        quad = cols @ gram - 2.0 * xty  # rows G_i b_ic - 2 h_ic; gram is symmetric
        return scale * (float(np.vdot(cols, quad)) + normal.yty)

    def norm(a: np.ndarray) -> float:
        return math.sqrt(float(np.vdot(a, a)))

    # geometric middle of the spectrum balances the two subproblems
    positive = evals[evals > 1e-12 * evals.max()]
    rho = float(np.exp(np.mean(np.log(positive)))) if positive.size else 1.0

    m = c * c * order + c
    z = np.zeros((n, m))  # row i is vec(R_i): the transpose of B
    u = np.zeros((n, m))
    history: list[HistoryRecord] = []
    termination = "iteration-cap"
    for iteration in range(1, max_iters + 1):
        # ridge step (G_i + rho/2) b_i = h_i + rho/2 (z_i - u_i) in the eigenbasis
        tmp = (z - u).reshape(n, c, -1) @ evecs
        tmp *= rho / 2.0
        tmp += xty_v
        tmp /= evals[:, None, :] + rho / 2.0
        b = (tmp @ evecs_t).reshape(n, m)
        z_prev = z
        uu, delta, vt = np.linalg.svd(b + u, full_matrices=False)
        z = (uu * capped_simplex_project(delta, radius)) @ vt
        u = u + b - z
        primal = norm(b - z)
        dual = rho * norm(z - z_prev)
        history.append(
            HistoryRecord(
                iteration=iteration, loss=loss_of(z), field_norm=primal,
                kappa=rho, gamma=1.0 / rho, backtracks=0,
            )
        )
        ref = max(norm(b), norm(z), 1e-30)
        if primal <= _ADMM_TOL * ref and dual <= _ADMM_TOL * ref:
            termination = "converged"
            break
        if primal > 10.0 * dual:
            rho *= 2.0
            u /= 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u *= 2.0
    params = ParameterMatrix(_finite_or_raise(z.T, "splitting iterate"), c, order)
    last = history[-1]  # rho may have been rebalanced after z was produced
    state = SolverState(
        iterate=params.data, candidate=b.T, aggregate=params.data, kappa=last.kappa,
        gamma=last.gamma, t=iteration, history=history, termination=termination,
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
