"""Least-squares loss and the empirical monotone field over a slice set.

With S slices of weight w = 1/N, raw observations Y (N, S, C), the
measurement operator A = w * measurement.predictions and its adjoint
A* = w * measurement.correlations,

    ls_loss(B) = (1/S) * || A(B) - w Y ||^2
    field(B)   = (1/S) * A*(w * (eta(z) - Y)),   z = A(B) / w,

where the link eta acts on the C channels of each slice of z, and Y enters
in the operator's (N, C, S) layout. Both are w^2/S times the operator's
unweighted products. Under the identity link

    field = (1/2) * grad ls_loss        (exact identity, asserted in tests).

For any link, the field vanishes termwise at the generating parameters on
noiseless data, and monotonicity of eta makes the field monotone.

The loss is gram_loss, which ls_loss and EmpiricalField call. It reads
the set's normal equations G_i = X_i^T X_i, H_i = Y_i^T X_i, cached on
first use, and so does the identity-link field on a set that is evaluated
again (any explicit set, or the full-horizon set of an EmpiricalField):

    field = w^2/S * [R_i G_i - H_i]_i
    ls_loss = w^2/S * (sum_i <R_i, R_i G_i - 2 H_i> + sum_i ||Y_i||^2)

at O(N C K^2) a call whatever S; the set builds its normal equations one
chunk of sequences at a time, so these paths never hold the lag design X.
The other links' fields, and the field on a stochastic-subwindow step draw
(read by one solver step only), multiply out the design instead, in one
channel-major kernel: the predictions are (N, C, S), the link reduces over
axis 1 so its inner loops run along the contiguous slice axis, and the
residual is contracted against X (N, S, K) directly to (N, C, K). They are
the only paths that build the whole design, once per set (SliceSet.regressors).

The splitting solver's iterate lives in the eigenbasis G_i = V_i diag(e_i)
V_i^T as well, and its history reads the same sum there (eigen_loss).

Each sum is one batched matrix product per call, with a fixed shape for a
given slice set, so reruns are bitwise reproducible and a reordering of the
slices moves the result by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lowrank_ar.measurement import (
    SliceSet,
    check_compatible,
    correlations,
    enumerate_slices,
    predictions,
    sample_subwindow_slices,
)
from lowrank_ar.model import LinkFunction, ParameterMatrix, SequenceCollection, _link_rows

_MODES = ("full-horizon", "stochastic-subwindow")


@dataclass(frozen=True)
class FieldSpec:
    """How to evaluate the empirical field: link, order, and slice source.

    In stochastic-subwindow mode the field reads one set of per-sequence
    windows of length `window` per solver step, and the loss one fixed set;
    every draw is a function of `seed` and, for the field, the step.
    """

    link: LinkFunction
    order: int
    mode: str = "full-horizon"
    window: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "stochastic-subwindow":
            if self.window is None or self.window < self.order + 1:
                raise ValueError(
                    f"stochastic mode needs window >= d+1 = {self.order + 1}, "
                    f"got {self.window}"
                )


def _scale(slices: SliceSet) -> float:
    return slices.weight**2 / len(slices)


def _rows(data: np.ndarray, slices: SliceSet) -> np.ndarray:
    """The (m, N) parameter data as per-sequence rows R_i, shape (N, C, K)."""
    return data.T.reshape(slices.n_sequences, slices.channel_count, -1)


def _field_data(data: np.ndarray, link: LinkFunction, slices: SliceSet) -> np.ndarray:
    resid = _link_rows(link, predictions(slices, data), axis=1)  # a new (N, C, S) array
    resid -= slices.segments[:, :, slices.order :]  # Y in the (N, C, S) layout
    return _scale(slices) * correlations(slices, resid)


def gram_loss(data: np.ndarray, slices: SliceSet) -> float:
    """ls_loss of the (m, N) parameter data, read from the set's normal equations."""
    rss = slices.normal_equations.residual_sum_of_squares(_rows(data, slices))
    return _scale(slices) * rss


def eigen_loss(zv: np.ndarray, evals: np.ndarray, hv: np.ndarray, slices: SliceSet) -> float:
    """gram_loss of rows R_i given in the eigenbasis of G_i = V_i diag(e_i) V_i^T.

    zv (N, C, K) holds R_i V_i, hv holds H_i V_i and evals (N, K) holds e_i:
    sum_i <R_i G_i, R_i> = sum e_i * (R_i V_i)^2 and <H_i, R_i> = <H_i V_i,
    R_i V_i>. Clipped at zero like NormalEquations.residual_sum_of_squares.
    """
    quad = float(np.vdot(zv * evals[:, None, :], zv))
    rss = quad - 2.0 * float(np.vdot(hv, zv)) + slices.normal_equations.yty
    return _scale(slices) * max(rss, 0.0)


def _set_field(data: np.ndarray, link: LinkFunction, slices: SliceSet) -> np.ndarray:
    if link.variant != "identity":
        return _field_data(data, link, slices)
    normal = slices.normal_equations
    prod = _rows(data, slices) @ normal.gram  # (N, C, K); gram is symmetric
    prod -= normal.xty
    prod *= _scale(slices)
    return prod.reshape(slices.n_sequences, -1).T


# --------------------------------------------------------------------------
# contract functions on explicit slice sets


def ls_loss(params: ParameterMatrix, slices: SliceSet) -> float:
    """(1/S) * || A(B) - w Y ||^2, the mean squared forward residual per slice."""
    check_compatible(slices, params.channel_count, params.order, params.n_sequences)
    return gram_loss(params.data, slices)


def field(spec: FieldSpec, params: ParameterMatrix, slices: SliceSet) -> np.ndarray:
    """Empirical field (1/S) * A*(w * (eta(z) - Y)) as an (m, N) array."""
    check_compatible(slices, params.channel_count, params.order, params.n_sequences)
    return _set_field(params.data, spec.link, slices)


# --------------------------------------------------------------------------
# solver-facing evaluator


class EmpiricalField:
    """Bundles a collection and a FieldSpec into field/loss callables.

    Full-horizon mode builds the slice set once; field() and loss() read it
    and ignore the step. Stochastic mode draws one window per sequence:

    * field(data, step) reads the draw of solver step `step`, made on the
      first call with that step and kept until a call names another step,
      so every field call of one solver iteration sees the same windows;
    * loss(data) reads one evaluation set, drawn on the first loss call and
      then served from its cached normal equations.

    Every draw has its own generator, seeded from SeedSequence(spec.seed):
    one child for the loss set, and one grandchild per step for the field.
    So the draws depend on neither the order nor the number of calls (a
    logged loss leaves the field's draws as they are), and reruns with the
    same seed are bitwise identical.
    """

    def __init__(self, collection: SequenceCollection, spec: FieldSpec):
        self.spec = spec
        self.collection = collection
        self.channel_count = collection.channel_count
        self.n_sequences = collection.n_sequences
        self.param_rows = (
            collection.channel_count**2 * spec.order + collection.channel_count
        )
        if spec.mode == "full-horizon":
            self._slices = self._loss_slices = enumerate_slices(collection, spec.order)
            return
        if spec.window > collection.min_length:
            raise ValueError(
                f"window G={spec.window} exceeds shortest sequence length "
                f"{collection.min_length}"
            )
        self._slices = self._loss_slices = None
        self._loss_seeds, self._step_seeds = np.random.SeedSequence(spec.seed).spawn(2)
        self._step: tuple[int, SliceSet] | None = None

    @property
    def slices(self) -> SliceSet:
        """The full-horizon slice set (stochastic mode has no fixed set)."""
        if self._slices is None:
            raise ValueError("stochastic mode draws its slices per solver step")
        return self._slices

    def _draw(self, seeds: np.random.SeedSequence) -> SliceSet:
        return sample_subwindow_slices(
            self.collection, self.spec.order, self.spec.window, np.random.default_rng(seeds)
        )

    def _step_slices(self, step: int | None) -> SliceSet:
        if step is None:
            raise ValueError("stochastic mode draws its windows per solver step: pass step")
        if self._step is None or self._step[0] != step:
            root = self._step_seeds
            seeds = np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, step))
            self._step = (step, self._draw(seeds))
        return self._step[1]

    def field(self, data: np.ndarray, step: int | None = None) -> np.ndarray:
        if self._slices is None:
            return _field_data(data, self.spec.link, self._step_slices(step))
        return _set_field(data, self.spec.link, self._slices)

    def loss(self, data: np.ndarray) -> float:
        if self._loss_slices is None:
            self._loss_slices = self._draw(self._loss_seeds)
        return gram_loss(data, self._loss_slices)
