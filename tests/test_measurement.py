"""Measurement operator on a slice set, its adjoint, and slice construction."""

import numpy as np
import pytest

from lowrank_ar.measurement import (
    SliceSet,
    adjoint,
    enumerate_slices,
    forward,
    sample_subwindow_slices,
)
from lowrank_ar.field import EmpiricalField, FieldSpec
from lowrank_ar.model import LinkFunction, ParameterMatrix, SequenceCollection, build_regressor

from conftest import make_collection


def random_slice_set(rng, n=4, c=2, d=3, s=5):
    """Random regressors (first column all ones) and observations."""
    regs = np.concatenate([np.ones((n, s, 1)), rng.standard_normal((n, s, c * d))], axis=2)
    return SliceSet(regs, rng.standard_normal((n, s, c)), d)


def random_params(rng, n=4, c=2, d=3):
    return ParameterMatrix(
        rng.standard_normal((c * c * d + c, n)), channel_count=c, order=d
    )


# ---------------------------------------------------------------- validation


def test_forward_checks_compatibility(rng):
    slices = random_slice_set(rng, n=3, c=2, d=3)
    with pytest.raises(ValueError):
        forward(slices, random_params(rng, n=3, c=1, d=3))
    with pytest.raises(ValueError):
        forward(slices, random_params(rng, n=3, c=2, d=2))
    with pytest.raises(ValueError):
        forward(slices, random_params(rng, n=4, c=2, d=3))


def test_adjoint_checks_shape(rng):
    slices = random_slice_set(rng, n=3, c=2, d=3, s=5)
    with pytest.raises(ValueError):
        adjoint(slices, rng.standard_normal((3, 4, 2)))
    with pytest.raises(ValueError):
        adjoint(slices, rng.standard_normal(3 * 5 * 2))


# ---------------------------------------------------------------- operator


def test_forward_matches_per_sequence_loop(rng):
    n, c, d, s = 4, 2, 3, 5
    slices = random_slice_set(rng, n=n, c=c, d=d, s=s)
    params = random_params(rng, n=n, c=c, d=d)
    out = forward(slices, params)
    assert out.shape == (n, s, c)
    for i in range(n):
        for t in range(s):
            expected = slices.weight * params.weights_for(i) @ slices.regressors[i, t]
            assert np.allclose(out[i, t], expected)


def test_adjoint_matches_outer_product_loop(rng):
    n, c, d, s = 3, 2, 2, 4
    slices = random_slice_set(rng, n=n, c=c, d=d, s=s)
    y = rng.standard_normal((n, s, c))
    out = adjoint(slices, y)
    assert out.shape == (c * c * d + c, n)
    for i in range(n):
        expected = np.zeros((c, c * d + 1))
        for t in range(s):
            expected += slices.weight * np.outer(y[i, t], slices.regressors[i, t])
        # column i is laid out like R_i in ParameterMatrix
        col = ParameterMatrix(out, channel_count=c, order=d).weights_for(i)
        assert np.allclose(col, expected)


@pytest.mark.parametrize("c,d,n", [(1, 1, 1), (1, 5, 3), (2, 3, 4), (4, 2, 2)])
def test_adjoint_identity(rng, c, d, n):
    slices = random_slice_set(rng, n=n, c=c, d=d, s=6)
    params = random_params(rng, n=n, c=c, d=d)
    y = rng.standard_normal((n, 6, c))
    lhs = float(np.vdot(forward(slices, params), y))
    rhs = float(np.vdot(params.data, adjoint(slices, y)))
    scale = np.linalg.norm(params.data) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


# ---------------------------------------------------------------- slice sets


def test_enumerate_slices_count_and_targets(rng):
    coll = make_collection(rng, n=3, c=2, t_len=12)
    d = 3
    slices = enumerate_slices(coll, d)
    assert len(slices) == 12 - d
    w = 1.0 / coll.n_sequences
    # slice 0 sits at t = d+1; its target stacks the observations there
    first = slices[0]
    assert first.weight == w
    for i, seq in enumerate(coll.sequences):
        assert np.allclose(first.target[2 * i : 2 * i + 2], w * seq[:, d])
        assert np.array_equal(
            first.regressors[i], build_regressor(seq, d + 1, d).values
        )


def test_slice_set_is_read_only_and_matches_its_views(rng):
    coll = make_collection(rng, n=3, c=2, t_len=10)
    slices = enumerate_slices(coll, 2)
    assert slices.regressors.shape == (3, 8, 5)
    assert slices.observations.shape == (3, 8, 2)
    assert not slices.regressors.flags.writeable
    assert not slices.observations.flags.writeable
    assert not slices[0].target.flags.writeable
    views = list(slices)
    assert len(views) == len(slices) == 8
    for s, sl in enumerate(views):
        assert np.array_equal(sl.regressors, slices.regressors[:, s])
        assert np.array_equal(sl.target, slices.weight * slices.observations[:, s].reshape(-1))
    assert np.array_equal(slices[-1].regressors, views[-1].regressors)


def test_slice_set_validation(rng):
    slices = enumerate_slices(make_collection(rng, n=2, c=1, t_len=10), 2)
    regs, obs = slices.regressors, slices.observations
    with pytest.raises(ValueError):
        SliceSet(regs[:, :, :-1], obs, 2)
    with pytest.raises(ValueError):
        SliceSet(regs, obs[:, :-1], 2)
    with pytest.raises(ValueError):
        SliceSet(regs[:, :0], obs[:, :0], 2)


def test_enumerate_slices_needs_long_enough_sequences(rng):
    coll = make_collection(rng, n=2, t_len=4)
    with pytest.raises(ValueError):
        enumerate_slices(coll, 4)


def test_subwindow_slices_shape_and_determinism(rng):
    coll = make_collection(rng, n=3, c=1, t_len=40)
    d, window = 2, 10
    a = sample_subwindow_slices(coll, d, window, np.random.default_rng(5))
    b = sample_subwindow_slices(coll, d, window, np.random.default_rng(5))
    assert len(a) == window - d
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.regressors, sb.regressors)
        assert np.array_equal(sa.target, sb.target)


def test_subwindow_slices_draws_vary(rng):
    coll = make_collection(rng, n=3, c=1, t_len=200)
    gen = np.random.default_rng(6)
    a = sample_subwindow_slices(coll, 2, 10, gen)
    b = sample_subwindow_slices(coll, 2, 10, gen)
    assert not all(
        np.array_equal(sa.regressors, sb.regressors) for sa, sb in zip(a, b)
    )


def test_subwindow_slices_window_bounds(rng):
    coll = make_collection(rng, n=2, t_len=20)
    with pytest.raises(ValueError):
        sample_subwindow_slices(coll, 3, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_subwindow_slices(coll, 3, 21, np.random.default_rng(0))


def test_subwindow_slices_equal_enumerated_cut_collection(rng):
    # unequal lengths: every sequence gets its own range of start positions
    seqs = tuple(rng.standard_normal((2, t_len)) for t_len in (30, 45, 60))
    coll = SequenceCollection(sequences=seqs, ids=("a", "b", "c"))
    d, window = 3, 12
    drawn = sample_subwindow_slices(coll, d, window, np.random.default_rng(9))
    twin = np.random.default_rng(9)
    starts = [int(twin.integers(0, seq.shape[1] - window + 1)) for seq in seqs]
    cut = SequenceCollection(
        sequences=[seq[:, s : s + window] for seq, s in zip(seqs, starts)], ids=coll.ids
    )
    expected = enumerate_slices(cut, d)
    assert np.array_equal(drawn.regressors, expected.regressors)
    assert np.array_equal(drawn.observations, expected.observations)


def test_subwindow_slices_use_contiguous_windows():
    # constant-gradient sequences make window positions recoverable
    seqs = tuple(np.arange(30.0).reshape(1, 30) + 100 * i for i in range(2))
    coll = SequenceCollection(sequences=seqs, ids=("a", "b"), labels=None, kind="real")
    slices = sample_subwindow_slices(coll, 1, 5, np.random.default_rng(1))
    assert len(slices) == 4
    for i, seq in enumerate(coll.sequences):
        vals = [sl.regressors[i, 1] for sl in slices]
        # consecutive slice regressors step through the window one step apart
        assert np.allclose(np.diff(vals), 1.0)
        assert vals[0] >= seq[0, 0] and vals[-1] <= seq[0, -1]


# ---------------------------------------------------------------- normal-equation cache


def test_cache_is_built_once_read_only_and_matches_a_fresh_factorization(rng):
    slices = random_slice_set(rng, n=4, c=2, d=3, s=12)
    normal = slices.normal_equations
    assert slices.normal_equations is normal
    assert slices.ols is slices.ols
    for arr in (normal.gram, normal.xty, normal.evals, normal.evecs, slices.ols):
        assert not arr.flags.writeable
    x, y = slices.regressors, slices.observations
    gram = np.einsum("nsk,nsl->nkl", x, x)
    evals, _ = np.linalg.eigh(gram)
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(normal.gram - gram)) <= 1e-12 * scale
    assert np.max(np.abs(normal.evals - evals)) <= 1e-12 * scale
    rebuilt = (normal.evecs * normal.evals[:, None, :]) @ normal.evecs.transpose(0, 2, 1)
    assert np.max(np.abs(rebuilt - gram)) <= 1e-12 * scale
    xty = np.einsum("nsk,nsc->nck", x, y)
    assert np.max(np.abs(normal.xty - xty)) <= 1e-12 * np.max(np.abs(xty))
    assert normal.yty == pytest.approx(float(np.sum(y * y)), rel=1e-12)


def test_building_a_slice_set_does_not_factor_it(rng, factor_counter):
    coll = make_collection(rng, n=3, c=1, t_len=40)
    enumerate_slices(coll, 2)
    stochastic = EmpiricalField(
        coll, FieldSpec(link=LinkFunction("identity"), order=2,
                        mode="stochastic-subwindow", window=10, seed=0)
    )
    stochastic.field(np.zeros((stochastic.param_rows, 3)))
    stochastic.loss(np.zeros((stochastic.param_rows, 3)))
    assert factor_counter == {"eigh": 0, "lstsq": 0}
