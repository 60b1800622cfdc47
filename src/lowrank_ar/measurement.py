"""Measurement operator over time slices, its adjoint, and the slice set.

A slice fixes one time index t and packages the regressor window of every
sequence together with the stacked observation vector at t. The forward map

    A_t(B) = w * vec([R_i @ xi_{i,t}]_{i=1..N})

is linear in B, and adjoint() is its exact transpose, so the pair satisfies
<A_t(B), y> = <B, A_t*(y)> for all B, y. The weight w is always 1/N.

All slices of one design live in a SliceSet: read-only regressors of shape
(N, S, K) with K = C*d+1, built once from strided views of the sequences,
and the raw observations (N, S, C). The field, the loss and the
least-squares solvers read those two arrays directly. Indexing or iterating
a SliceSet yields MeasurementSlice views, whose target is on the operator
scale (already multiplied by w) so that forward() output and target compare
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lowrank_ar.model import ParameterMatrix, SequenceCollection


@dataclass(frozen=True)
class MeasurementSlice:
    """Regressors and target for one time index.

    regressors: (N, C*d+1) array, row i the window of sequence i (first
    column all ones). target: stacked observations at t, length C*N and
    pre-scaled by weight. The operator itself is deterministic; observation
    noise lives only in how targets were generated.
    """

    regressors: np.ndarray
    target: np.ndarray
    weight: float
    channel_count: int
    order: int

    def __post_init__(self):
        reg = np.atleast_2d(np.asarray(self.regressors, dtype=float))
        tgt = np.asarray(self.target, dtype=float).ravel()
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        c, d = self.channel_count, self.order
        if reg.shape[1] != c * d + 1:
            raise ValueError(f"regressor width {reg.shape[1]} != C*d+1 = {c * d + 1}")
        if not np.allclose(reg[:, 0], 1.0):
            raise ValueError("first regressor column must be all ones")
        if tgt.shape[0] != c * reg.shape[0]:
            raise ValueError(f"target length {tgt.shape[0]} != C*N = {c * reg.shape[0]}")
        reg = reg.copy()
        tgt = tgt.copy()
        reg.flags.writeable = False
        tgt.flags.writeable = False
        object.__setattr__(self, "regressors", reg)
        object.__setattr__(self, "target", tgt)

    @property
    def n_sequences(self) -> int:
        return self.regressors.shape[0]


def _read_only(arr) -> np.ndarray:
    view = np.asarray(arr, dtype=float).view()
    view.flags.writeable = False
    return view


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
            target=self.weight * self.observations[:, s].reshape(-1),
            weight=self.weight,
            channel_count=self.channel_count,
            order=self.order,
        )

    def __iter__(self):
        return (self[s] for s in range(len(self)))


def _check_params(slice_: MeasurementSlice, params: ParameterMatrix) -> None:
    if params.channel_count != slice_.channel_count or params.order != slice_.order:
        raise ValueError(
            f"shape mismatch: slice (C={slice_.channel_count}, d={slice_.order}) vs "
            f"params (C={params.channel_count}, d={params.order})"
        )
    if params.n_sequences != slice_.n_sequences:
        raise ValueError(
            f"sequence-count mismatch: slice N={slice_.n_sequences}, "
            f"params N={params.n_sequences}"
        )


def raw_predictions(slice_: MeasurementSlice, data: np.ndarray, channel_count: int) -> np.ndarray:
    """Unweighted per-sequence predictions R_i @ xi_i as an (N, C) array."""
    n, k = slice_.regressors.shape
    r = data.T.reshape(n, channel_count, k)
    return np.einsum("nck,nk->nc", r, slice_.regressors)


def forward(slice_: MeasurementSlice, params: ParameterMatrix) -> np.ndarray:
    """weight * vec([R_i @ xi_i]_i), length C*N."""
    _check_params(slice_, params)
    z = raw_predictions(slice_, params.data, params.channel_count)
    return slice_.weight * z.reshape(-1)


def adjoint_data(slice_: MeasurementSlice, y: np.ndarray, channel_count: int) -> np.ndarray:
    """Adjoint applied to a stacked vector, returned as a raw (m, N) array."""
    yv = np.asarray(y, dtype=float).ravel()
    n = slice_.n_sequences
    if yv.shape[0] != channel_count * n:
        raise ValueError(f"y length {yv.shape[0]} != C*N = {channel_count * n}")
    blocks = yv.reshape(n, channel_count)
    outer = np.einsum("nc,nk->nck", blocks, slice_.regressors)
    return slice_.weight * outer.reshape(n, -1).T


def adjoint(slice_: MeasurementSlice, y) -> np.ndarray:
    """Transpose of forward: column i is weight * vec(y_i @ xi_i^T).

    Entry (c, k) of the outer product lands in the row of vec(R_i) holding
    R_i[c, k], matching the row-major vectorization of ParameterMatrix.
    """
    return adjoint_data(slice_, y, slice_.channel_count)


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
