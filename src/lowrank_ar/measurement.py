"""The measurement operator of a slice set, its adjoint, and slice construction.

A SliceSet holds S time slices of N sequences: read-only regressors X of
shape (N, S, K) with K = C*d+1, built once from strided views of the
sequences, and the raw observations Y (N, S, C). Row s of X_i is the
regressor window xi_{i,t} of sequence i at slice s, and r_i (C, K) holds
the rows of R_i, i.e. column i of the parameter matrix B. The operator maps
B to the weighted predictions of every slice,

    forward(B)  = w * [X_i r_i^T]_i            shape (N, S, C)
    adjoint(Y)  = w * [vec(Y_i^T X_i)]_i       shape (m, N)

with w = 1/N, and adjoint is its exact transpose: <forward(B), Y> =
<B, adjoint(Y)> for all B, Y. Both rest on the unweighted products
predictions() and correlations(), which the field and the loss apply too.

Indexing or iterating a SliceSet yields MeasurementSlice views of one
slice, whose target is on the operator scale (already multiplied by w).

A SliceSet also caches what every least-squares fit on it shares, built on
first use only, so building a set (or drawing a stochastic window set) pays
nothing for it, and read-only afterwards:

* normal_equations: the per-sequence Grams G_i = X_i^T X_i (N, K, K), the
  cross-moments H_i = Y_i^T X_i (N, C, K), sum_i ||Y_i||^2, and the
  eigendecomposition of every G_i;
* ols: the per-sequence ordinary least-squares fit, one lstsq per
  sequence, as an (m, N) array in the layout of ParameterMatrix.

A radius search or sweep over one set therefore factors its normal
equations and fits OLS once, however many radii it solves at.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lowrank_ar.model import ParameterMatrix, SequenceCollection


@dataclass(frozen=True)
class MeasurementSlice:
    """Read-only view of one slice of a SliceSet.

    regressors: (N, C*d+1), row i the window of sequence i (first column all
    ones). target: the observations at this slice stacked per sequence,
    length C*N and multiplied by weight.
    """

    regressors: np.ndarray
    target: np.ndarray
    weight: float


def _read_only(arr) -> np.ndarray:
    view = np.asarray(arr, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class NormalEquations:
    """Per-sequence normal equations of a slice set; every array read-only.

    gram (N, K, K) holds X_i^T X_i, xty (N, C, K) holds Y_i^T X_i, yty is
    sum_i ||Y_i||^2, and evals (N, K) / evecs (N, K, K) are eigh(gram).
    """

    gram: np.ndarray
    xty: np.ndarray
    yty: float
    evals: np.ndarray
    evecs: np.ndarray


@dataclass(frozen=True)
class SliceSet:
    """Every slice of one design: regressors (N, S, K), observations (N, S, C).

    Observations are raw (not weighted); the weight is 1/N. len() is the
    slice count S, and set[s] is slice s as a MeasurementSlice.
    """

    regressors: np.ndarray
    observations: np.ndarray
    order: int

    def __post_init__(self):
        reg, obs = _read_only(self.regressors), _read_only(self.observations)
        if reg.ndim != 3 or obs.ndim != 3 or reg.shape[:2] != obs.shape[:2]:
            raise ValueError(
                f"need regressors (N, S, K) and observations (N, S, C), "
                f"got {reg.shape} and {obs.shape}"
            )
        if reg.shape[1] < 1:
            raise ValueError("slice set is empty")
        if reg.shape[2] != obs.shape[2] * self.order + 1:
            raise ValueError(
                f"regressor width {reg.shape[2]} != C*d+1 = {obs.shape[2] * self.order + 1}"
            )
        object.__setattr__(self, "regressors", reg)
        object.__setattr__(self, "observations", obs)

    @property
    def n_sequences(self) -> int:
        return self.regressors.shape[0]

    @property
    def channel_count(self) -> int:
        return self.observations.shape[2]

    @property
    def weight(self) -> float:
        return 1.0 / self.n_sequences

    def __len__(self) -> int:
        return self.regressors.shape[1]

    def __getitem__(self, s: int) -> MeasurementSlice:
        return MeasurementSlice(
            regressors=self.regressors[:, s],
            target=_read_only(self.weight * self.observations[:, s].reshape(-1)),
            weight=self.weight,
        )

    def __iter__(self):
        return (self[s] for s in range(len(self)))

    @cached_property
    def normal_equations(self) -> NormalEquations:
        """G_i, H_i, sum ||Y_i||^2 and eigh(G_i), computed on first access."""
        design, targets = self.regressors, self.observations
        gram = np.einsum("nsk,nsl->nkl", design, design)
        evals, evecs = np.linalg.eigh(gram)
        return NormalEquations(
            gram=_read_only(gram),
            xty=_read_only(np.einsum("nsk,nsc->nck", design, targets)),
            yty=float(np.sum(targets * targets)),
            evals=_read_only(evals),
            evecs=_read_only(evecs),
        )

    @cached_property
    def ols(self) -> np.ndarray:
        """Per-sequence lstsq fit as an (m, N) array, computed on first access."""
        cols = []
        for design, targets in zip(self.regressors, self.observations):
            coef, *_ = np.linalg.lstsq(design, targets, rcond=None)  # (K, C)
            cols.append(coef.T.reshape(-1))
        return _read_only(np.column_stack(cols))


# --------------------------------------------------------------------------
# the operator


def check_compatible(slices: SliceSet, params: ParameterMatrix) -> None:
    """Raise ValueError unless params has the set's C, d and N."""
    have = (params.channel_count, params.order, params.n_sequences)
    want = (slices.channel_count, slices.order, slices.n_sequences)
    if have != want:
        raise ValueError(f"params (C, d, N) = {have} do not match slices {want}")


def predictions(slices: SliceSet, data: np.ndarray) -> np.ndarray:
    """Unweighted predictions X_i r_i^T of every slice, shape (N, S, C)."""
    n, _, k = slices.regressors.shape
    r = data.T.reshape(n, slices.channel_count, k)
    return slices.regressors @ r.transpose(0, 2, 1)


def correlations(slices: SliceSet, y: np.ndarray) -> np.ndarray:
    """Unweighted [vec(Y_i^T X_i)]_i as an (m, N) array, for Y of shape (N, S, C).

    Entry (c, k) of Y_i^T X_i lands in the row of vec(R_i) holding R_i[c, k],
    matching the row-major vectorization of ParameterMatrix.
    """
    prod = y.transpose(0, 2, 1) @ slices.regressors  # (N, C, K)
    return prod.reshape(slices.n_sequences, -1).T


def forward(slices: SliceSet, params: ParameterMatrix) -> np.ndarray:
    """w * [X_i r_i^T]_i, shape (N, S, C)."""
    check_compatible(slices, params)
    return slices.weight * predictions(slices, params.data)


def adjoint(slices: SliceSet, y) -> np.ndarray:
    """Transpose of forward: w * [vec(Y_i^T X_i)]_i, shape (m, N)."""
    y = np.asarray(y, dtype=float)
    if y.shape != slices.observations.shape:
        raise ValueError(f"y has shape {y.shape}, expected {slices.observations.shape}")
    return slices.weight * correlations(slices, y)


# --------------------------------------------------------------------------
# slice construction


def _slice_set(segments: np.ndarray, d: int) -> SliceSet:
    """Slices t = d+1 .. L of equal-length segments of shape (N, C, L).

    Lag window s holds columns s+d-1 down to s (newest first) and predicts
    column s+d; the channels of one step stay contiguous in the regressor.
    """
    n, c, length = segments.shape
    lags = sliding_window_view(segments[:, :, :-1], d, axis=2)[..., ::-1]  # (N, C, S, d)
    regs = np.empty((n, length - d, c * d + 1))
    regs[:, :, 0] = 1.0
    regs[:, :, 1:] = lags.transpose(0, 2, 3, 1).reshape(n, length - d, c * d)
    obs = np.ascontiguousarray(segments[:, :, d:].transpose(0, 2, 1))
    return SliceSet(regs, obs, d)


def _check_order(d: int) -> None:
    if d < 1:
        raise ValueError(f"order d must be >= 1, got {d}")


def enumerate_slices(collection: SequenceCollection, d: int) -> SliceSet:
    """One slice per t = d+1 .. T_min, targets from the observed values at t."""
    _check_order(d)
    t_min = collection.min_length
    if t_min < d + 1:
        raise ValueError(f"shortest sequence length {t_min} < d+1 = {d + 1}")
    return _slice_set(np.stack([seq[:, :t_min] for seq in collection.sequences]), d)


def sample_subwindow_slices(
    collection: SequenceCollection, d: int, window: int, rng: np.random.Generator
) -> SliceSet:
    """Slices from one uniformly random length-G window per sequence.

    Each sequence independently contributes a contiguous window of length G
    (one generator draw per sequence, in collection order); windows are
    aligned positionally, giving G-d slices. Deterministic given the
    generator state, so a fixed seed reproduces the slice set.
    """
    _check_order(d)
    if window < d + 1:
        raise ValueError(f"window G={window} must be at least d+1 = {d + 1}")
    if window > collection.min_length:
        raise ValueError(
            f"window G={window} exceeds shortest sequence length {collection.min_length}"
        )
    starts = [
        int(rng.integers(0, seq.shape[1] - window + 1)) for seq in collection.sequences
    ]
    segments = np.stack(
        [seq[:, s : s + window] for seq, s in zip(collection.sequences, starts)]
    )
    return _slice_set(segments, d)
