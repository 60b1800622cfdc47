"""Measurement operator on a slice set, its adjoint, and slice construction."""

import numpy as np
import pytest

import lowrank_ar.measurement as measurement
from lowrank_ar.measurement import (
    SliceSet,
    correlations,
    enumerate_slices,
    predictions,
    sample_subwindow_slices,
)
from lowrank_ar.field import EmpiricalField, FieldSpec
from lowrank_ar.model import LinkFunction, ParameterMatrix, SequenceCollection

from conftest import make_collection


def random_slice_set(rng, n=4, c=2, d=3, s=5):
    """The s slices of random segments (n, c, s + d) at order d."""
    return SliceSet(rng.standard_normal((n, c, s + d)), d)


def random_params(rng, n=4, c=2, d=3):
    return ParameterMatrix(
        rng.standard_normal((c * c * d + c, n)), channel_count=c, order=d
    )


# ---------------------------------------------------------------- operator
# A(B) = w * predictions(B) and its adjoint A*(Y) = w * correlations(Y)


def test_forward_matches_per_sequence_loop(rng):
    n, c, d, s = 4, 2, 3, 5
    slices = random_slice_set(rng, n=n, c=c, d=d, s=s)
    params = random_params(rng, n=n, c=c, d=d)
    out = slices.weight * predictions(slices, params.data)
    assert out.shape == (n, c, s)
    for i in range(n):
        for t in range(s):
            expected = slices.weight * params.data[:, i].reshape(c, -1) @ slices.regressors[i, t]
            assert np.allclose(out[i, :, t], expected)


def test_adjoint_matches_outer_product_loop(rng):
    n, c, d, s = 3, 2, 2, 4
    slices = random_slice_set(rng, n=n, c=c, d=d, s=s)
    y = rng.standard_normal((n, c, s))
    out = slices.weight * correlations(slices, y)
    assert out.shape == (c * c * d + c, n)
    for i in range(n):
        expected = np.zeros((c, c * d + 1))
        for t in range(s):
            expected += slices.weight * np.outer(y[i, :, t], slices.regressors[i, t])
        # column i is laid out like R_i in ParameterMatrix: row-major vec(R_i)
        assert np.allclose(out[:, i].reshape(c, c * d + 1), expected)


@pytest.mark.parametrize("c,d,n", [(1, 1, 1), (1, 5, 3), (2, 3, 4), (4, 2, 2)])
def test_adjoint_identity(rng, c, d, n):
    slices = random_slice_set(rng, n=n, c=c, d=d, s=6)
    params = random_params(rng, n=n, c=c, d=d)
    y = rng.standard_normal((n, c, 6))
    lhs = float(np.vdot(slices.weight * predictions(slices, params.data), y))
    rhs = float(np.vdot(params.data, slices.weight * correlations(slices, y)))
    scale = np.linalg.norm(params.data) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


# ---------------------------------------------------------------- slice sets


def slice_set_oracle(segments, d):
    """Regressors and observations of equal-length (N, C, L) segments, one slice at a time."""
    n, c, length = segments.shape
    regs = np.empty((n, length - d, c * d + 1))
    obs = np.empty((n, length - d, c))
    for i in range(n):
        for s in range(length - d):
            regs[i, s, 0] = 1.0
            for j in range(d):  # lag j + 1, newest first, its channels contiguous
                regs[i, s, 1 + j * c : 1 + (j + 1) * c] = segments[i, :, s + d - 1 - j]
            obs[i, s] = segments[i, :, s + d]
    return regs, obs


def test_slice_builder_matches_a_plain_loop(rng):
    shapes = [(1, 1, 2, 1), (3, 1, 9, 4), (2, 5, 6, 1), (4, 9, 12, 3)]  # (N, C, L, d)
    for _ in range(30):
        n, c, d = (int(v) for v in rng.integers(1, 8, size=3))
        shapes.append((n, c, d + 1 + int(rng.integers(0, 20)), d))
    for n, c, length, d in shapes:
        segments = rng.standard_normal((n, c, length))
        regs, obs = slice_set_oracle(segments, d)
        slices = SliceSet(segments, d)
        assert slices.regressors.tobytes() == regs.tobytes()
        assert slices.observations.tobytes() == obs.tobytes()
        assert slices.regressors.shape == regs.shape and slices.observations.shape == obs.shape


def test_subwindow_slices_match_a_plain_loop(rng):
    seqs = tuple(rng.standard_normal((3, t_len)) for t_len in (25, 40, 31, 60))
    coll = SequenceCollection(sequences=seqs, ids=tuple("abcd"))
    for d, window in [(1, 2), (2, 12), (5, 25)]:
        drawn = sample_subwindow_slices(coll, d, window, np.random.default_rng(11))
        starts = np.random.default_rng(11).integers(0, [s.shape[1] - window + 1 for s in seqs])
        segments = np.stack([seq[:, s : s + window] for seq, s in zip(seqs, starts)])
        regs, obs = slice_set_oracle(segments, d)
        assert drawn.regressors.tobytes() == regs.tobytes()
        assert drawn.observations.tobytes() == obs.tobytes()


def test_enumerate_slices_count_and_targets(rng):
    coll = make_collection(rng, n=3, c=2, t_len=12)
    d = 3
    slices = enumerate_slices(coll, d)
    assert len(slices) == 12 - d
    assert slices.weight == 1.0 / coll.n_sequences
    # slice 0 sits at t = d+1; its observations are the values there
    for i, seq in enumerate(coll.sequences):
        assert np.array_equal(slices.observations[i, 0], seq[:, d])
        # bias, then steps d .. 1 newest first, the channels of a step contiguous
        window = seq[:, :d][:, ::-1].T.reshape(-1)
        assert np.array_equal(slices.regressors[i, 0], np.concatenate(([1.0], window)))


def test_enumerate_slices_regressor_layout():
    # two channels, values chosen so every slot is distinguishable
    seq = np.array([[11.0, 12.0, 13.0, 14.0], [21.0, 22.0, 23.0, 24.0]])
    slices = enumerate_slices(SequenceCollection(sequences=[seq], ids=["a"]), 2)
    # slice 0 predicts step 3 from the bias, then step 2 (both channels), then step 1
    assert np.array_equal(slices.regressors[0, 0], [1.0, 12.0, 22.0, 11.0, 21.0])
    assert np.array_equal(slices.regressors[0, 1], [1.0, 13.0, 23.0, 12.0, 22.0])
    assert np.array_equal(slices.observations[0], [[13.0, 23.0], [14.0, 24.0]])


def test_enumerate_slices_matches_a_loop(rng):
    seqs = tuple(rng.standard_normal((3, 12)) for _ in range(4))
    d = 4
    slices = enumerate_slices(SequenceCollection(sequences=seqs, ids=tuple("abcd")), d)
    for i, seq in enumerate(seqs):
        for s in range(12 - d):
            lags = [seq[:, s + d - 1 - j] for j in range(d)]  # newest first
            assert np.array_equal(slices.regressors[i, s], np.concatenate([[1.0], *lags]))
            assert np.array_equal(slices.observations[i, s], seq[:, s + d])


def test_slice_set_is_read_only_and_matches_its_views(rng):
    coll = make_collection(rng, n=3, c=2, t_len=10)
    slices = enumerate_slices(coll, 2)
    assert slices.segments.shape == (3, 2, 10)
    assert not slices.segments.flags.writeable
    assert "regressors" not in vars(slices)  # built on first access, then kept
    assert slices.regressors is slices.regressors
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
    segments = rng.standard_normal((2, 1, 10))
    with pytest.raises(ValueError):
        SliceSet(segments[0], 2)  # not (N, C, L)
    with pytest.raises(ValueError):
        SliceSet(segments, 0)  # no lag
    with pytest.raises(ValueError):
        SliceSet(segments[:, :, :2], 2)  # no slice


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
    assert np.array_equal(a.regressors, b.regressors)
    assert np.array_equal(a.observations, b.observations)


def test_subwindow_slices_draws_vary(rng):
    coll = make_collection(rng, n=3, c=1, t_len=200)
    gen = np.random.default_rng(6)
    a = sample_subwindow_slices(coll, 2, 10, gen)
    b = sample_subwindow_slices(coll, 2, 10, gen)
    assert not np.array_equal(a.regressors, b.regressors)


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
        vals = slices.regressors[i, :, 1]
        # consecutive slice regressors step through the window one step apart
        assert np.allclose(np.diff(vals), 1.0)
        assert vals[0] >= seq[0, 0] and vals[-1] <= seq[0, -1]


# ---------------------------------------------------------------- normal-equation cache


def test_cache_is_built_once_read_only_and_matches_a_fresh_factorization(rng):
    slices = random_slice_set(rng, n=4, c=2, d=3, s=12)
    normal, (evals_cached, evecs) = slices.normal_equations, slices.gram_eigen
    assert slices.normal_equations is normal
    assert slices.gram_eigen is slices.gram_eigen
    assert slices.ols is slices.ols
    for arr in (normal.gram, normal.xty, evals_cached, evecs, slices.ols):
        assert not arr.flags.writeable
    x, y = slices.regressors, slices.observations
    gram = np.einsum("nsk,nsl->nkl", x, x)
    evals, _ = np.linalg.eigh(gram)
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(normal.gram - gram)) <= 1e-12 * scale
    assert np.max(np.abs(evals_cached - evals)) <= 1e-12 * scale
    rebuilt = (evecs * evals_cached[:, None, :]) @ evecs.transpose(0, 2, 1)
    assert np.max(np.abs(rebuilt - gram)) <= 1e-12 * scale
    xty = np.einsum("nsk,nsc->nck", x, y)
    assert np.max(np.abs(normal.xty - xty)) <= 1e-12 * np.max(np.abs(xty))
    assert normal.yty == pytest.approx(float(np.sum(y * y)), rel=1e-12)


def single_pass_caches(slices):
    """Normal equations and OLS fit from the whole design, in one pass."""
    design, targets = slices.regressors, slices.observations
    ols = np.column_stack(
        [np.linalg.lstsq(x, y, rcond=None)[0].T.reshape(-1) for x, y in zip(design, targets)]
    )
    gram = design.transpose(0, 2, 1) @ design
    xty = targets.transpose(0, 2, 1) @ design
    return gram, xty, float(np.sum(targets * targets)), ols


@pytest.mark.parametrize("n", [3, 4, 8, 10])  # below, at, a multiple of, not a multiple of 4
@pytest.mark.parametrize("c,d", [(1, 1), (3, 1), (1, 4), (3, 2)])
def test_chunked_caches_equal_a_single_pass_bitwise(rng, monkeypatch, n, c, d):
    s = 30
    monkeypatch.setattr(measurement, "_CHUNK_VALUES", 4 * s * (c * d + 1))  # 4 sequences
    segments = rng.standard_normal((n, c, s + d))
    chunked = SliceSet(segments, d)
    normal, ols = chunked.normal_equations, chunked.ols
    assert "regressors" not in vars(chunked)
    gram, xty, yty, ols_ref = single_pass_caches(SliceSet(segments, d))
    assert normal.gram.tobytes() == gram.tobytes()
    assert normal.xty.tobytes() == xty.tobytes()
    assert normal.yty == yty  # summed over all (N, S, C) observations at once
    assert ols.tobytes() == ols_ref.tobytes()


def test_chunks_at_the_module_size_cover_every_sequence(rng):
    segments = rng.standard_normal((23, 2, 3000))  # a design of 2997 x 7 values per sequence
    slices = SliceSet(segments, 3)
    parts = [part for part, *_ in slices._chunks()]
    assert parts == [slice(0, 6), slice(6, 12), slice(12, 18), slice(18, 24)]  # 6 per 1 MB
    gram, xty, yty, ols = single_pass_caches(SliceSet(segments, 3))
    assert slices.normal_equations.gram.tobytes() == gram.tobytes()
    assert slices.normal_equations.xty.tobytes() == xty.tobytes()
    assert slices.normal_equations.yty == yty
    assert slices.ols.tobytes() == ols.tobytes()


def test_building_a_slice_set_does_not_factor_it(rng, factor_counter):
    coll = make_collection(rng, n=3, c=1, t_len=40)
    enumerate_slices(coll, 2)
    stochastic = EmpiricalField(
        coll, FieldSpec(link=LinkFunction("identity"), order=2,
                        mode="stochastic-subwindow", window=10, seed=0)
    )
    stochastic.field(np.zeros((stochastic.param_rows, 3)), 1)
    stochastic.loss(np.zeros((stochastic.param_rows, 3)))
    assert factor_counter == {"eigh": 0, "lstsq": 0}
