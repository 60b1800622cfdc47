"""Autoregressive observation model: sequence containers, parameters, links.

Every sequence i carries C channels. The model predicts the observation at
time t (1-indexed) from the d preceding observations through a per-sequence
weight matrix R_i of shape C x (C*d+1) and a monotone link eta:

    E[x_{i,t} | past] = eta(R_i @ xi_{i,t})

where xi_{i,t} = (1, x_{t-1}, ..., x_{t-d}) stacks a bias entry and the d
most recent observations, most recent step first, with the C channels of one
time step kept contiguous; measurement.enumerate_slices builds every xi_{i,t}
of a collection at once. Columns of a ParameterMatrix are the row-major
vectorizations vec(R_i), so the stacked matrix has C^2*d + C rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Inputs to exp/logistic are clamped here; softmax uses max-subtraction instead.
LINK_CLAMP = 500.0

_LINK_VARIANTS = ("identity", "softmax", "exponential", "logistic")
_COLLECTION_KINDS = ("real", "probability-simplex")


def _as_channel_matrix(seq) -> np.ndarray:
    """Coerce a sequence to a (C, T) boolean, integer or float array; 1-D input is treated
    as C=1. Other kinds are converted to float here, and the rest cast in the collection's
    copy, so a one-hot boolean matrix is not copied twice."""
    arr = np.asarray(seq)
    if arr.dtype.kind not in "biuf":
        arr = np.asarray(seq, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"sequence must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


def _lock(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _locked_copy(arrays: list) -> tuple[np.ndarray, list, list]:
    """One read-only buffer holding a copy of arrays, each group of one shape as an
    (n, C, T) block in it; returns the buffer, the blocks and a view per array, in order."""
    groups: dict = {}
    for i, arr in enumerate(arrays):
        groups.setdefault(arr.shape, []).append(i)
    buffer = np.empty(sum(arr.size for arr in arrays))
    blocks, views, offset = [], [None] * len(arrays), 0
    for (c, t), members in groups.items():
        block = buffer[offset : offset + len(members) * c * t].reshape(len(members), c, t)
        np.stack([arrays[i] for i in members], out=block)
        block.flags.writeable = False
        blocks.append(block)
        for i, view in zip(members, block):
            views[i] = view
        offset += block.size
    buffer.flags.writeable = False
    return buffer, blocks, views


# --------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class SequenceCollection:
    """N multichannel sequences with ids and optional integer class labels.

    kind marks whether every time-step column must lie on the probability
    simplex (one-hot or soft symbol encodings) or is unrestricted real data.
    Sequences may have unequal lengths. They are copied into one read-only
    buffer, sequences of one shape as one (n, C, T) block, and held as
    read-only views into it. The finiteness and sign checks run once over the
    buffer, the simplex column sums once per block.
    """

    sequences: list
    ids: list
    labels: list | None = None
    kind: str = "real"

    def __post_init__(self):
        if not self.sequences:
            raise ValueError("collection needs at least one sequence")
        arrays = [_as_channel_matrix(s) for s in self.sequences]
        channels = {a.shape[0] for a in arrays}
        if len(channels) != 1:
            raise ValueError(f"inconsistent channel counts: {sorted(channels)}")
        if min(a.shape[1] for a in arrays) < 1:
            raise ValueError("empty sequence")
        buffer, blocks, seqs = _locked_copy(arrays)
        # min and max carry any NaN or infinity, without a mask the size of the buffer
        low, high = buffer.min(), buffer.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("sequences must be finite-valued")
        ids = [str(i) for i in self.ids]
        if len(ids) != len(seqs):
            raise ValueError(f"{len(ids)} ids for {len(seqs)} sequences")
        if len(set(ids)) != len(ids):
            repeat = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"ids must be unique: {repeat!r} repeats")
        if self.labels is not None:
            labels = [int(l) for l in self.labels]
            if len(labels) != len(seqs):
                raise ValueError("labels length must match sequence count")
            object.__setattr__(self, "labels", labels)
        if self.kind not in _COLLECTION_KINDS:
            raise ValueError(f"kind must be one of {_COLLECTION_KINDS}, got {self.kind!r}")
        if self.kind == "probability-simplex":
            if low < -1e-9:
                raise ValueError("simplex sequences must be nonnegative")
            for block in blocks:
                sums = block.sum(axis=1)
                if sums.max() - 1.0 > 1e-9 or 1.0 - sums.min() > 1e-9:
                    raise ValueError("simplex columns must sum to 1 within 1e-9")
        object.__setattr__(self, "sequences", seqs)
        object.__setattr__(self, "ids", ids)

    @property
    def channel_count(self) -> int:
        return self.sequences[0].shape[0]

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    @property
    def min_length(self) -> int:
        return min(s.shape[1] for s in self.sequences)


@dataclass(frozen=True)
class ParameterMatrix:
    """Stacked per-sequence weights: column i is vec(R_i), row-major.

    data has shape (C^2*d + C) x N; data[:, i].reshape(C, C*d + 1) is R_i.
    """

    data: np.ndarray
    channel_count: int
    order: int

    def __post_init__(self):
        data = _lock(np.atleast_2d(np.asarray(self.data, dtype=float)))
        c, d = self.channel_count, self.order
        if c < 1 or d < 1:
            raise ValueError("channel_count and order must be positive")
        m = c * c * d + c
        if data.shape[0] != m:
            raise ValueError(f"expected {m} rows for C={c}, d={d}, got {data.shape[0]}")
        if not np.all(np.isfinite(data)):
            raise ValueError("parameter entries must be finite")
        object.__setattr__(self, "data", data)

    @property
    def n_sequences(self) -> int:
        return self.data.shape[1]

    @property
    def lag_rows(self) -> np.ndarray:
        """data without each R_i's bias column: the C^2*d lag weights per sequence."""
        n = self.n_sequences
        return self.data.reshape(self.channel_count, -1, n)[:, 1:, :].reshape(-1, n)

    @classmethod
    def zeros(cls, channel_count: int, order: int, n_sequences: int) -> "ParameterMatrix":
        m = channel_count * channel_count * order + channel_count
        return cls(np.zeros((m, n_sequences)), channel_count, order)


# --------------------------------------------------------------------------
# link functions


@dataclass(frozen=True)
class LinkFunction:
    """A named monotone map eta applied blockwise per sequence (block size C)."""

    variant: str = "identity"

    def __post_init__(self):
        if self.variant not in _LINK_VARIANTS:
            raise ValueError(f"variant must be one of {_LINK_VARIANTS}, got {self.variant!r}")


def _link_rows(link: LinkFunction, z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Apply the link to z, whose blocks of C channels lie along `axis`.

    The elementwise links ignore the axis. The softmax subtracts each
    block's maximum before exponentiating, and reduces along `axis`: the
    field passes axis 1 of its (N, C, S) predictions, so the max and sum over
    the C channels run along the contiguous slice axis.
    """
    if link.variant == "identity":
        return z
    if link.variant == "exponential":
        return np.exp(np.clip(z, -LINK_CLAMP, LINK_CLAMP))
    if link.variant == "logistic":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -LINK_CLAMP, LINK_CLAMP)))
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e
