"""The measurement operator of a slice set, its adjoint, and slice construction.

A SliceSet holds the equal-length segments (N, C, L) of N sequences and the
AR order d: S = L - d time slices, slice s predicting column s+d of each
segment from the d columns before it. Its lag design X of shape (N, S, K),
K = C*d+1, is not stored: row s of X_i is the regressor window xi_{i,t} of
sequence i at slice s (a leading one, then the lags newest first), the
observations Y (N, S, C) are the predicted columns, and r_i (C, K) holds the
rows of R_i, i.e. column i of the parameter matrix B. The operator maps B
to the weighted predictions of every slice, channel-major,

    A(B)  = w * predictions(B)  = w * [r_i X_i^T]_i           shape (N, C, S)
    A*(Y) = w * correlations(Y) = w * [vec(Y_i X_i)]_i        shape (m, N)

with w = 1/N, and A* is its exact transpose: <A(B), Y> = <B, A*(Y)> for all
B and all Y of shape (N, C, S). The field multiplies out the design with
these unweighted products: a link acts on axis 1 of the predictions, so its
reductions over the C channels run along the contiguous slice axis, and the
residual meets X_i as it is, with no transpose.

A SliceSet caches what its readers share, each built on first use only and
read-only afterwards, so building a set (or drawing a stochastic window
set) pays for none of them:

* regressors: the whole design X, built by copying contiguous runs of a
  time-reversed copy of the segments (_design). Only predictions and
  correlations read it, that is the non-identity fields and the field on a
  stochastic-subwindow step draw, and the MeasurementSlice views that
  indexing or iterating a set yields (their target is on the operator
  scale, already multiplied by w);
* normal_equations: the per-sequence Grams G_i = X_i^T X_i (N, K, K), the
  cross-moments H_i = Y_i^T X_i (N, C, K) and sum_i ||Y_i||^2, which the
  loss, the identity-link field and the ADMM solver read;
* gram_eigen: eigh of every G_i, which only the ADMM solver reads;
* ols: the per-sequence ordinary least-squares fit, one lstsq per
  sequence, as an (m, N) array in the layout of ParameterMatrix.

normal_equations and ols build the design of one chunk of sequences at a
time, about _CHUNK_VALUES values, and drop it, so an identity-link fit never
holds the whole design; once the design is cached they read it instead,
as a full-horizon non-identity fit does: its field builds the design before
its logged loss asks for the normal equations. A radius search or sweep
over one set factors its normal equations and fits OLS once, however many
radii it solves at.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lowrank_ar.model import SequenceCollection

# values of lag design (float64, about 1 MB) that a least-squares cache builds at once
_CHUNK_VALUES = 1 << 17


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
    """The S = L - d slices of equal-length segments (N, C, L) at order d.

    The weight is 1/N. len() is the slice count S, and set[s] is slice s as
    a MeasurementSlice.
    """

    segments: np.ndarray
    order: int

    def __post_init__(self):
        seg = _read_only(self.segments)
        if seg.ndim != 3:
            raise ValueError(f"need segments (N, C, L), got shape {seg.shape}")
        if self.order < 1:
            raise ValueError(f"order d must be >= 1, got {self.order}")
        if seg.shape[2] <= self.order:
            raise ValueError(f"slice set is empty: length {seg.shape[2]} <= d = {self.order}")
        object.__setattr__(self, "segments", seg)

    @property
    def n_sequences(self) -> int:
        return self.segments.shape[0]

    @property
    def channel_count(self) -> int:
        return self.segments.shape[1]

    @property
    def weight(self) -> float:
        return 1.0 / self.n_sequences

    def __len__(self) -> int:
        return self.segments.shape[2] - self.order

    @property
    def observations(self) -> np.ndarray:
        """The raw observations Y (N, S, C), a fresh copy on every access."""
        return _read_only(_observations(self.segments, self.order))

    @cached_property
    def regressors(self) -> np.ndarray:
        """The lag design X (N, S, K), built on first access."""
        return _read_only(_design(self.segments, self.order))

    def __getitem__(self, s: int) -> MeasurementSlice:
        s = range(len(self))[s]
        return MeasurementSlice(
            regressors=self.regressors[:, s],
            target=_read_only(self.weight * self.segments[:, :, self.order + s].reshape(-1)),
            weight=self.weight,
        )

    def __iter__(self):
        return (self[s] for s in range(len(self)))

    def _chunks(self):
        """Design and observations of consecutive chunks of sequences, in order.

        A design already cached (regressors) is the one chunk.
        """
        if "regressors" in self.__dict__:
            yield slice(None), self.regressors, _observations(self.segments, self.order)
            return
        step = max(1, _CHUNK_VALUES // (len(self) * (self.channel_count * self.order + 1)))
        for lo in range(0, self.n_sequences, step):
            part = self.segments[lo : lo + step]
            yield slice(lo, lo + step), _design(part, self.order), _observations(part, self.order)

    @cached_property
    def normal_equations(self) -> NormalEquations:
        """G_i, H_i and sum ||Y_i||^2, computed on first access."""
        k = self.channel_count * self.order + 1
        gram = np.empty((self.n_sequences, k, k))
        xty = np.empty((self.n_sequences, self.channel_count, k))
        for part, design, targets in self._chunks():
            gram[part] = design.transpose(0, 2, 1) @ design
            xty[part] = targets.transpose(0, 2, 1) @ design
        squares = _observations(self.segments, self.order)  # one sum: chunk sums round apart
        return NormalEquations(
            gram=_read_only(gram), xty=_read_only(xty),
            yty=float(np.sum(np.square(squares, out=squares))),
        )

    @cached_property
    def gram_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh(G_i) = (evals (N, K), evecs (N, K, K)), computed on first access."""
        return tuple(_read_only(a) for a in np.linalg.eigh(self.normal_equations.gram))

    @cached_property
    def ols(self) -> np.ndarray:
        """Per-sequence lstsq fit as an (m, N) array, computed on first access."""
        cols = []
        for _, designs, targets in self._chunks():
            for design, target in zip(designs, targets):
                coef, *_ = np.linalg.lstsq(design, target, rcond=None)  # (K, C)
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


def _design(segments: np.ndarray, d: int) -> np.ndarray:
    """The lag design (N, S, C*d+1) of slices t = d+1 .. L of segments (N, C, L).

    Lag window s holds columns s+d-1 down to s (newest first) and predicts
    column s+d; the channels of one step stay contiguous in the regressor.
    In a time-reversed, channel-minor copy of the segments each lag window
    is one contiguous run of d*C values, so the design is filled by copying
    runs.
    """
    n, c, length = segments.shape
    rev = np.ascontiguousarray(segments[:, :, ::-1].transpose(0, 2, 1))  # (N, L, C)
    # window j covers reversed steps j .. j+d-1, i.e. the lags of slice L-d-j
    windows = sliding_window_view(rev.reshape(n, length * c), d * c, axis=1)[:, ::c]
    regs = np.empty((n, length - d, c * d + 1))
    regs[:, :, 0] = 1.0
    regs[:, :, 1:] = windows[:, :0:-1]
    return regs


def _observations(segments: np.ndarray, d: int) -> np.ndarray:
    """The observations (N, S, C) of slices t = d+1 .. L of segments (N, C, L), a copy."""
    return segments[:, :, d:].transpose(0, 2, 1).copy()


def enumerate_slices(collection: SequenceCollection, d: int) -> SliceSet:
    """One slice per t = d+1 .. T_min, targets from the observed values at t."""
    t_min = collection.min_length
    if t_min < d + 1:
        raise ValueError(f"shortest sequence length {t_min} < d+1 = {d + 1}")
    return SliceSet(np.stack([seq[:, :t_min] for seq in collection.sequences]), d)


def sample_subwindow_slices(
    collection: SequenceCollection, d: int, window: int, rng: np.random.Generator
) -> SliceSet:
    """Slices from one uniformly random length-G window per sequence.

    Each sequence independently contributes a contiguous window of length G
    (its start drawn in collection order, all in one generator call);
    windows are aligned positionally, giving G-d slices. Deterministic given
    the generator state, so a fixed seed reproduces the slice set.
    """
    if window < d + 1:
        raise ValueError(f"window G={window} must be at least d+1 = {d + 1}")
    lengths = np.array([seq.shape[1] for seq in collection.sequences])
    if window > lengths.min():
        raise ValueError(f"window G={window} exceeds shortest sequence length {lengths.min()}")
    starts = rng.integers(0, lengths - window + 1)
    segments = np.stack(
        [seq[:, s : s + window] for seq, s in zip(collection.sequences, starts)]
    )
    return SliceSet(segments, d)
