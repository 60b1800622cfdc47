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
per slice set (SliceSet.gram_eigen and SliceSet.ols), so every solve
of a radius search or sweep after the first reuses them, and it iterates in
the (N, m) layout, one row per sequence, with two batched basis changes and
one ball projection (nuclear.project_nuc, one eigendecomposition of the
iterate's smaller Gram matrix) per iteration; its history loss is
field.eigen_loss, read in the cached Grams' eigenbasis, so an iteration's
cost does not grow with the number of slices S. check_method holds its
preconditions: the identity link and the full-horizon set.

kappa is never reset downward between iterations. Start kappa0
low (the default is 1e-6): backtracking only raises it, and the first
iteration calibrates it to the data scale in a few doublings.

Both mirror methods call field_fn(data, step) with the iteration number as
the step, so every field call of one iteration (mirror-prox's at R_t, at
each backtracking candidate and for the corrected step) shares one window
draw of a stochastic field, and the next iteration gets a fresh one: common
random numbers within a step (Juditsky, Nemirovski & Tauvel 2011), which
keeps the backtracking test on one operator. Full-horizon fields ignore the
step.

The history's loss column tracks the running aggregate, the field_norm
column the field at the point where it was last evaluated. Every solve
records why it ended in SolverState.termination. A mirror solve runs to its
iteration cap: mirror-prox's guarantee holds for the averaged iterate it
returns (Nemirovski 2004), so a norm test on the last candidate certifies
nothing about the point returned.

SolverConfig.max_iters = None, the default, leaves each method its own
iteration cap (MIRROR_MAX_ITERS or ADMM_MAX_ITERS); SolverConfig.cap is the
one place that decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lowrank_ar.field import EmpiricalField, FieldSpec, eigen_loss
from lowrank_ar.measurement import SliceSet, check_compatible
from lowrank_ar.model import ParameterMatrix
from lowrank_ar.nuclear import nuclear_norm, project_nuc, prox_nuc

_MODES = ("mirror-descent", "mirror-prox-backtracking", "admm-ls")
_ADMM_TOL = 1e-10  # relative primal and dual residual at which the splitting stops
ADMM_MAX_ITERS = 4000  # the splitting's own iteration cap
MIRROR_MAX_ITERS = 256  # the mirror methods' own iteration cap
_MAX_BACKTRACKS = 60  # kappa doublings per mirror-prox iteration before giving up


class SolverError(RuntimeError):
    """Numerical failure: non-finite values or runaway backtracking."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "mirror-prox-backtracking"
    lambda_: float = math.inf
    max_iters: int | None = None
    kappa0: float = 1e-6

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0 must be positive, got {self.kappa0}")
        if not self.lambda_ > 0:
            raise ValueError(f"lambda_ must be positive, got {self.lambda_}")

    @property
    def cap(self) -> int:
        """max_iters, or the mode's own iteration cap when it is None."""
        if self.max_iters is not None:
            return self.max_iters
        return ADMM_MAX_ITERS if self.mode == "admm-ls" else MIRROR_MAX_ITERS


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
    """The per-iteration history of a solve and why it ended.

    Every solve appends one record per iteration, so t, the iteration
    count, is len(history): 0 for a slack solve, which iterates not at all.
    termination is "converged" (splitting residuals under tolerance),
    "slack" (the unconstrained fit already lies in the ball), "diverged"
    (an identity-link mirror solve whose aggregate has a larger loss than
    the zero matrix, see solve) or "iteration-cap", where every mirror
    solve that does not diverge ends.
    """

    history: list[HistoryRecord]
    termination: str = "iteration-cap"

    @property
    def t(self) -> int:
        return len(self.history)


def _finite_or_raise(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise SolverError(f"{what} produced non-finite values")
    return arr


def mirror_descent(field_fn, shape, config: SolverConfig, loss_fn):
    """Plain mirror descent; returns (gamma-weighted average, SolverState).

    loss_fn(data) gives the history's loss of the running average.
    """
    b = np.zeros(shape)
    weighted = np.zeros_like(b)
    weight_total = 0.0
    history: list[HistoryRecord] = []
    for k in range(1, config.cap + 1):
        g = _finite_or_raise(np.asarray(field_fn(b, k)), "field")
        gamma = 1.0 / (config.kappa0 * math.sqrt(k))
        b = _finite_or_raise(prox_nuc(b, gamma * g, config.lambda_), "prox step")
        weight_total += gamma
        weighted += gamma * b
        history.append(
            HistoryRecord(
                iteration=k,
                loss=float(loss_fn(weighted / weight_total)),
                field_norm=float(np.linalg.norm(g)),
                kappa=config.kappa0,
                gamma=gamma,
                backtracks=0,
            )
        )
    return weighted / weight_total, SolverState(history)


def mirror_prox_backtracking(field_fn, shape, config: SolverConfig, loss_fn):
    """Extragradient iteration with doubling backtracking on kappa.

    Returns (running average of the candidates, SolverState); loss_fn(data)
    gives the history's loss of the running average.
    """
    r = np.zeros(shape)
    aggregate = np.zeros_like(r)
    kappa = config.kappa0
    history: list[HistoryRecord] = []
    for t in range(1, config.cap + 1):
        psi_r = _finite_or_raise(np.asarray(field_fn(r, t)), "field")
        alpha = 2.0 / (t + 1)
        backtracks = 0
        while True:
            gamma = 1.0 / (2.0 * kappa)
            b_next = _finite_or_raise(prox_nuc(r, gamma * psi_r, config.lambda_), "prox step")
            psi_b = _finite_or_raise(np.asarray(field_fn(b_next, t)), "field")
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
        r = _finite_or_raise(prox_nuc(r, gamma * psi_b, config.lambda_), "prox step")
        aggregate = (1.0 - alpha) * aggregate + alpha * b_next
        history.append(
            HistoryRecord(
                iteration=t,
                loss=float(loss_fn(aggregate)),
                field_norm=float(np.linalg.norm(psi_b)),
                kappa=kappa,
                gamma=gamma,
                backtracks=backtracks,
            )
        )
    return aggregate, SolverState(history)


def check_method(config: SolverConfig, spec: FieldSpec) -> None:
    """Raise ValueError unless config's method can solve the field spec describes."""
    if config.mode == "admm-ls":
        if spec.link.variant != "identity":
            raise ValueError("admm-ls solves the least-squares problem: identity link only")
        if spec.mode != "full-horizon":
            raise ValueError("admm-ls needs the fixed full-horizon slice set, not window draws")


def solve(evaluator: EmpiricalField, config: SolverConfig):
    """Dispatch on config.mode; returns (ParameterMatrix, SolverState).

    The zero matrix lies in every ball, so an identity-link mirror solve
    whose aggregate has a larger loss than the zero matrix did worse than
    the trivial fit: its termination is "diverged". Both losses are read
    by evaluator.loss, on the fixed loss set in stochastic mode. Other
    links wait for a loss that is their field's potential.
    """
    check_method(config, evaluator.spec)
    if config.mode == "admm-ls":
        return constrained_least_squares(
            evaluator.slices,
            evaluator.channel_count,
            evaluator.spec.order,
            config.lambda_,
            max_iters=config.cap,
        )
    method = mirror_descent if config.mode == "mirror-descent" else mirror_prox_backtracking
    shape = (evaluator.param_rows, evaluator.n_sequences)
    aggregate, state = method(evaluator.field, shape, config, evaluator.loss)
    identity = evaluator.spec.link.variant == "identity"
    if identity and state.history[-1].loss > evaluator.loss(np.zeros(shape)):
        state.termination = "diverged"
    return ParameterMatrix(aggregate, evaluator.channel_count, evaluator.spec.order), state


def least_squares_unconstrained(
    slices: SliceSet, channel_count: int, order: int
) -> ParameterMatrix:
    """Exact minimizer of ls_loss under the identity link, fit per sequence.

    The loss separates across sequences, so each column is an independent
    ordinary least-squares solve on that sequence's regressor rows. The set
    fits once (SliceSet.ols); every call returns a fresh copy of that fit.
    """
    check_compatible(slices, channel_count, order)
    return ParameterMatrix(slices.ols, channel_count, order)


def constrained_least_squares(
    slices: SliceSet,
    channel_count: int,
    order: int,
    radius: float,
    max_iters: int = ADMM_MAX_ITERS,
):
    """Exact minimizer of ls_loss under the identity link on the nuclear ball.

    Splitting scheme: the quadratic term is minimized per sequence against a
    copy Z that is projected onto the ball, with a scaled dual U tying the two
    together. The normal equations are built and factored once per slice
    set (SliceSet.normal_equations: G_i = X_i^T X_i and H_i = Y_i^T X_i;
    SliceSet.gram_eigen: G_i = V_i diag(e_i) V_i^T), so a radius search or
    sweep on one set pays for them once, and the penalty weight rho can be
    rebalanced for free. The iteration runs in the (N, m) layout, one row
    per sequence, and keeps Z and U in G_i's eigenbasis as well (R_i V_i):
    there the ridge step is elementwise, so an iteration makes one batched
    product against V_i^T, taking the ridge solution out of the eigenbasis
    before the projection, and one against V_i, taking the projected Z into
    it; the dual is updated in both bases and rescaled in both with rho.
    The projection is project_nuc of the (N, m) matrix, which factors only
    its smaller Gram, and the history's loss of Z is eigen_loss, read in
    the eigenbasis, so no step of an iteration grows with the number of
    slices S. Z is transposed back to (m, N) at the end. Deterministic; no
    randomness anywhere. Returns (ParameterMatrix, SolverState); the
    history logs the loss of Z, the primal residual in the field_norm
    column, and rho in the kappa column.
    The state's termination is "slack", "converged" or "iteration-cap".

    The iteration converges to the constrained optimum regardless of how
    badly scaled individual sequences are, which is what makes it the right
    tool for recovery studies on data with near-unstable draws.
    """
    check_compatible(slices, channel_count, order)
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    n = slices.n_sequences
    c = channel_count

    unconstrained = least_squares_unconstrained(slices, c, order)
    if math.isinf(radius) or nuclear_norm(unconstrained.data) <= radius:
        # constraint slack at the unconstrained optimum: nothing to do
        return unconstrained, SolverState([], termination="slack")

    evals, evecs = slices.gram_eigen
    # V_i^T, made contiguous: the batched product runs faster on it
    evecs_t = np.ascontiguousarray(evecs.transpose(0, 2, 1))
    xty_v = slices.normal_equations.xty @ evecs  # H_i V_i, fixed for the whole solve

    def norm(a: np.ndarray) -> float:
        return math.sqrt(float(np.vdot(a, a)))

    # geometric middle of the spectrum balances the two subproblems
    positive = evals[evals > 1e-12 * evals.max()]
    rho = float(np.exp(np.mean(np.log(positive)))) if positive.size else 1.0

    m = c * c * order + c
    z = np.zeros((n, m))  # row i is vec(R_i): the transpose of B
    u = np.zeros((n, m))
    zv = np.zeros((n, c, m // c))  # R_i V_i: Z's rows in G_i's eigenbasis
    uv = np.zeros_like(zv)  # U's rows in the same basis
    bv = np.empty_like(zv)
    history: list[HistoryRecord] = []
    termination = "iteration-cap"
    for iteration in range(1, max_iters + 1):
        # ridge step (G_i + rho/2) b_i = h_i + rho/2 (z_i - u_i) in the eigenbasis
        np.subtract(zv, uv, out=bv)
        bv *= rho / 2.0
        bv += xty_v
        bv /= evals[:, None, :] + rho / 2.0
        b = (bv @ evecs_t).reshape(n, m)
        z_prev = z
        u += b  # b + u, then the dual update u + b - z
        z = project_nuc(u, radius)
        u -= z
        np.matmul(z.reshape(n, c, -1), evecs, out=zv)
        bv -= zv  # the same update in the eigenbasis
        uv += bv
        primal = norm(b - z)
        dual = rho * norm(z - z_prev)
        history.append(
            HistoryRecord(
                iteration=iteration, loss=eigen_loss(zv, evals, xty_v, slices),
                field_norm=primal, kappa=rho, gamma=1.0 / rho, backtracks=0,
            )
        )
        ref = max(norm(b), norm(z), 1e-30)
        if primal <= _ADMM_TOL * ref and dual <= _ADMM_TOL * ref:
            termination = "converged"
            break
        if primal > 10.0 * dual:
            rho *= 2.0
            u /= 2.0
            uv /= 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u *= 2.0
            uv *= 2.0
    params = ParameterMatrix(_finite_or_raise(z.T, "splitting iterate"), c, order)
    return params, SolverState(history, termination)
