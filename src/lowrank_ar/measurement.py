"""The measurement operator of a slice set, its adjoint, and slice construction.

A SliceSet holds S time slices of N sequences: read-only regressors X of
shape (N, S, K) with K = C*d+1, built once by copying contiguous runs of a
time-reversed copy of the sequences, and the raw observations Y (N, S, C). Row s of X_i is the
regressor window xi_{i,t} of sequence i at slice s, and r_i (C, K) holds
the rows of R_i, i.e. column i of the parameter matrix B. The operator maps
B to the weighted predictions of every slice, channel-major,

    A(B)  = w * predictions(B)  = w * [r_i X_i^T]_i           shape (N, C, S)
    A*(Y) = w * correlations(Y) = w * [vec(Y_i X_i)]_i        shape (m, N)

with w = 1/N, and A* is its exact transpose: <A(B), Y> = <B, A*(Y)> for all
B and all Y of shape (N, C, S). The field multiplies out the design with
these unweighted products: a link acts on axis 1 of the predictions, so its
reductions over the C channels run along the contiguous slice axis, and the
residual meets X_i as it is, with no transpose.

Indexing or iterating a SliceSet yields MeasurementSlice views of one
slice, whose target is on the operator scale (already multiplied by w).

A SliceSet also caches what every least-squares fit on it shares, built on
first use only, so building a set (or drawing a stochastic window set) pays
nothing for it, and read-only afterwards:

* normal_equations: the per-sequence Grams G_i = X_i^T X_i (N, K, K), the
  cross-moments H_i = Y_i^T X_i (N, C, K) and sum_i ||Y_i||^2, which the
  loss, the identity-link field and the ADMM solver read;
* gram_eigen: eigh of every G_i, which only the ADMM solver reads;
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

from lowrank_ar.model import SequenceCollection


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

    gram (N, K, K) holds X_i^T X_i, xty (N, C, K) holds Y_i^T X_i and yty
    is sum_i ||Y_i||^2.
    """

    gram: np.ndarray
    xty: np.ndarray
    yty: float

    def residual_sum_of_squares(self, r: np.ndarray) -> float:
        """sum_i ||X_i R_i^T - Y_i||^2 for r (N, C, K) holding every R_i.

        Computed as sum_i <R_i G_i - 2 H_i, R_i> + sum_i ||Y_i||^2, whose terms
        cancel on a near-perfect fit: the error is absolute, a few ulps of
        sum_i ||Y_i||^2, so the sum is clipped at zero.
        """
        r = np.ascontiguousarray(r)
        quad = float(np.vdot(r @ self.gram, r))  # gram is symmetric
        return max(quad - 2.0 * float(np.vdot(self.xty, r)) + self.yty, 0.0)


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
        """G_i, H_i and sum ||Y_i||^2, computed on first access."""
        design, targets = self.regressors, self.observations
        return NormalEquations(
            gram=_read_only(design.transpose(0, 2, 1) @ design),
            xty=_read_only(targets.transpose(0, 2, 1) @ design),
            yty=float(np.sum(targets * targets)),
        )

    @cached_property
    def gram_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh(G_i) = (evals (N, K), evecs (N, K, K)), computed on first access."""
        return tuple(_read_only(a) for a in np.linalg.eigh(self.normal_equations.gram))

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


def check_compatible(
    slices, channel_count: int, order: int, n_sequences: int | None = None
) -> None:
    """Raise ValueError unless slices is a SliceSet with this C and d (and N, if given)."""
    if not isinstance(slices, SliceSet):
        raise ValueError(f"expected a SliceSet, got {type(slices).__name__}")
    have = (slices.channel_count, slices.order, slices.n_sequences)
    want = (channel_count, order, slices.n_sequences if n_sequences is None else n_sequences)
    if have != want:
        raise ValueError(f"(C, d, N) = {want} do not match the slice set's {have}")


def predictions(slices: SliceSet, data: np.ndarray) -> np.ndarray:
    """Unweighted predictions r_i X_i^T of every slice, shape (N, C, S)."""
    n, _, k = slices.regressors.shape
    r = data.T.reshape(n, slices.channel_count, k)
    return r @ slices.regressors.transpose(0, 2, 1)


def correlations(slices: SliceSet, y: np.ndarray) -> np.ndarray:
    """Unweighted [vec(Y_i X_i)]_i as an (m, N) array, for Y of shape (N, C, S).

    Entry (c, k) of Y_i X_i lands in the row of vec(R_i) holding R_i[c, k],
    matching the row-major vectorization of ParameterMatrix.
    """
    return (y @ slices.regressors).reshape(slices.n_sequences, -1).T


# --------------------------------------------------------------------------
# slice construction


def _slice_set(segments: np.ndarray, d: int) -> SliceSet:
    """Slices t = d+1 .. L of equal-length segments of shape (N, C, L).

    Lag window s holds columns s+d-1 down to s (newest first) and predicts
    column s+d; the channels of one step stay contiguous in the regressor.
    In a time-reversed, channel-minor copy of the segments each lag window
    is one contiguous run of d*C values, so both blocks are filled by
    copying runs.
    """
    n, c, length = segments.shape
    rev = np.ascontiguousarray(segments[:, :, ::-1].transpose(0, 2, 1))  # (N, L, C)
    # window j covers reversed steps j .. j+d-1, i.e. the lags of slice L-d-j
    windows = sliding_window_view(rev.reshape(n, length * c), d * c, axis=1)[:, ::c]
    regs = np.empty((n, length - d, c * d + 1))
    regs[:, :, 0] = 1.0
    regs[:, :, 1:] = windows[:, :0:-1]
    obs = np.ascontiguousarray(rev[:, length - d - 1 :: -1])
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
    (its start drawn in collection order, all in one generator call);
    windows are aligned positionally, giving G-d slices. Deterministic given
    the generator state, so a fixed seed reproduces the slice set.
    """
    _check_order(d)
    if window < d + 1:
        raise ValueError(f"window G={window} must be at least d+1 = {d + 1}")
    lengths = np.array([seq.shape[1] for seq in collection.sequences])
    if window > lengths.min():
        raise ValueError(f"window G={window} exceeds shortest sequence length {lengths.min()}")
    starts = rng.integers(0, lengths - window + 1)
    segments = np.stack(
        [seq[:, s : s + window] for seq, s in zip(collection.sequences, starts)]
    )
    return _slice_set(segments, d)
