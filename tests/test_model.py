"""Collections, parameter matrices and links."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_ar.model import (
    LINK_CLAMP,
    LinkFunction,
    ParameterMatrix,
    SequenceCollection,
    _link_rows,
)

from conftest import make_collection


# ---------------------------------------------------------------- collections


def test_collection_basic_properties(rng):
    coll = make_collection(rng, n=3, c=2, t_len=10)
    assert coll.channel_count == 2
    assert coll.n_sequences == 3
    assert coll.min_length == 10


def test_collection_ragged_lengths():
    seqs = (np.zeros((1, 5)), np.zeros((1, 8)))
    coll = SequenceCollection(sequences=seqs, ids=("a", "b"), labels=None, kind="real")
    assert coll.min_length == 5
    assert [s.shape[1] for s in coll.sequences] == [5, 8]


def test_collection_locks_arrays(rng):
    coll = make_collection(rng)
    with pytest.raises(ValueError):
        coll.sequences[0][0, 0] = 99.0


def test_collection_rejects_duplicate_ids():
    seqs = (np.zeros((1, 5)), np.zeros((1, 5)))
    with pytest.raises(ValueError, match="ids must be unique: 'a' repeats"):
        SequenceCollection(sequences=seqs, ids=("a", "a"), labels=None, kind="real")
    with pytest.raises(ValueError, match="'doc' repeats"):
        SequenceCollection(sequences=seqs * 2, ids=("x", "doc", "y", "doc"), labels=None)


SHAPES = {"equal-shape": [(3, 6)] * 4, "ragged": [(3, 5), (3, 8), (3, 5), (3, 1)]}


def one_hot_columns(rng, shape):
    return np.eye(shape[0])[:, rng.integers(0, shape[0], shape[1])]


@pytest.mark.parametrize("shapes", SHAPES.values(), ids=SHAPES.keys())
def test_collection_copies_into_one_read_only_buffer(rng, shapes):
    given = [rng.standard_normal(shape) for shape in shapes]
    kept = [g.copy() for g in given]
    coll = SequenceCollection(sequences=given, ids=range(len(given)), kind="real")
    for g in given:
        g[...] = 7.0  # the caller's arrays were copied
    assert len({id(seq.base) for seq in coll.sequences}) == 1
    for seq, k in zip(coll.sequences, kept):
        assert seq.dtype == np.float64 and seq.flags.c_contiguous
        assert seq.shape == k.shape and np.array_equal(seq, k)
        assert not seq.flags.writeable
        with pytest.raises(ValueError):
            seq[0, 0] = 1.0
        with pytest.raises(ValueError):
            seq.flags.writeable = True


@pytest.mark.parametrize("shapes", SHAPES.values(), ids=SHAPES.keys())
def test_collection_checks_every_sequence_in_the_buffer(rng, shapes):
    for i, bad in itertools.product(range(len(shapes)), (np.nan, np.inf, -np.inf)):
        given = [rng.standard_normal(shape) for shape in shapes]
        given[i][-1, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            SequenceCollection(sequences=given, ids=range(len(given)), kind="real")
    for i in range(len(shapes)):
        for off, fails in ((2e-9, True), (5e-10, False), (-2e-9, True), (-5e-10, False)):
            given = [one_hot_columns(rng, shape) for shape in shapes]
            given[i][np.argmax(given[i][:, -1]), -1] += off  # the column's 1
            make = lambda: SequenceCollection(
                sequences=given, ids=range(len(given)), kind="probability-simplex"
            )
            if fails:
                with pytest.raises(ValueError, match="sum to 1 within 1e-9"):
                    make()
            else:
                make()


def test_collection_rejects_nonfinite():
    seq = np.array([[1.0, np.nan, 2.0]])
    with pytest.raises(ValueError):
        SequenceCollection(sequences=(seq,), ids=("a",), labels=None, kind="real")


def test_collection_rejects_bad_label_length():
    seqs = (np.zeros((1, 5)), np.zeros((1, 5)))
    with pytest.raises(ValueError):
        SequenceCollection(sequences=seqs, ids=("a", "b"), labels=(0,), kind="real")


def test_collection_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SequenceCollection(
            sequences=(np.zeros((1, 5)),), ids=("a",), labels=None, kind="simplex"
        )


def test_collection_simplex_kind_checks_columns(rng):
    ok = make_collection(rng, c=3, kind="probability-simplex")
    assert ok.kind == "probability-simplex"
    bad = (np.full((3, 4), 0.5),)
    with pytest.raises(ValueError):
        SequenceCollection(
            sequences=bad, ids=("a",), labels=None, kind="probability-simplex"
        )


# ---------------------------------------------------------------- parameters


def test_parameter_matrix_row_count():
    with pytest.raises(ValueError):
        ParameterMatrix(np.zeros((4, 2)), channel_count=1, order=2)
    ok = ParameterMatrix(np.zeros((3, 2)), channel_count=1, order=2)
    assert ok.n_sequences == 2


def test_parameter_matrix_rejects_nonfinite():
    data = np.zeros((3, 1))
    data[1, 0] = np.inf
    with pytest.raises(ValueError):
        ParameterMatrix(data, channel_count=1, order=2)


def test_lag_rows_drop_each_bias_column(rng):
    c, d, n = 2, 3, 4
    data = rng.standard_normal((c * c * d + c, n))
    params = ParameterMatrix(data, channel_count=c, order=d)
    expected = np.stack([data[:, i].reshape(c, c * d + 1)[:, 1:].ravel() for i in range(n)], axis=1)
    assert np.array_equal(params.lag_rows, expected)
    univariate = ParameterMatrix(data[: d + 1], channel_count=1, order=d)
    assert np.array_equal(univariate.lag_rows, data[1 : d + 1])


def test_zeros_factory():
    params = ParameterMatrix.zeros(channel_count=3, order=4, n_sequences=5)
    assert params.data.shape == (3 * 3 * 4 + 3, 5)
    assert not params.data.any()


# ---------------------------------------------------------------- links


def test_link_rejects_unknown_variant():
    with pytest.raises(ValueError):
        LinkFunction("probit")


def test_identity_link_passthrough(rng):
    z = rng.standard_normal(8)
    out = _link_rows(LinkFunction("identity"), z)
    assert np.array_equal(out, z)


def test_softmax_blocks_sum_to_one(rng):
    z = rng.standard_normal(12)
    blocks = _link_rows(LinkFunction("softmax"), z.reshape(-1, 3))
    assert np.allclose(blocks.sum(axis=1), 1.0)
    assert (blocks > 0).all()


def test_softmax_shift_invariant_and_stable():
    z = np.array([[1.0, 2.0], [3.0, 4.0]])
    shifted = _link_rows(LinkFunction("softmax"), z + 1e6)
    plain = _link_rows(LinkFunction("softmax"), z)
    assert np.allclose(shifted, plain)
    assert np.isfinite(shifted).all()


def test_exponential_clamps():
    out = _link_rows(LinkFunction("exponential"), np.array([600.0, -600.0]))
    assert out[0] == np.exp(LINK_CLAMP)
    assert out[1] == np.exp(-LINK_CLAMP)


def test_logistic_range_and_clamp():
    out = _link_rows(LinkFunction("logistic"), np.array([-1e4, 0.0, 1e4]))
    assert out[1] == 0.5
    # the clamp keeps the tails finite; the top saturates to 1.0 in float64
    assert 0.0 < out[0] < out[1] < out[2] <= 1.0
    assert np.isfinite(out).all()


@pytest.mark.parametrize("variant", ["identity", "exponential", "logistic"])
@given(x=st.floats(-50, 50), y=st.floats(-50, 50))
@settings(max_examples=50, deadline=None)
def test_scalar_links_are_monotone(variant, x, y):
    link = LinkFunction(variant)
    fx = _link_rows(link, np.array([x]))[0]
    fy = _link_rows(link, np.array([y]))[0]
    assert (fx - fy) * (x - y) >= 0.0


@given(
    x=st.lists(st.floats(-20, 20), min_size=3, max_size=3),
    y=st.lists(st.floats(-20, 20), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_softmax_is_monotone_blockwise(x, y):
    link = LinkFunction("softmax")
    xv, yv = np.array(x), np.array(y)
    gap = _link_rows(link, xv) - _link_rows(link, yv)
    assert float(gap @ (xv - yv)) >= -1e-12
