"""Empirical field: gradient consistency, monotonicity, slice order."""

import types

import numpy as np
import pytest

import lowrank_ar.field as field_module
from lowrank_ar.field import EmpiricalField, FieldSpec, field, ls_loss
from lowrank_ar.measurement import enumerate_slices, sample_subwindow_slices
from lowrank_ar.model import (
    LinkFunction,
    ParameterMatrix,
    SequenceCollection,
    _link_rows,
)

from conftest import make_collection, make_evaluator

LINKS = ["identity", "softmax", "exponential", "logistic"]


def field_oracle(link, params, slices):
    """(1/S) sum_t w * outer(w eta(R_i xi) - w y, xi), one slice and sequence at a time."""
    c = params.channel_count
    n, s_count, _ = slices.regressors.shape
    w = 1.0 / n
    total = np.zeros_like(params.data)
    for t in range(s_count):
        for i in range(n):
            xi = slices.regressors[i, t]
            eta = _link_rows(link, params.data[:, i].reshape(c, -1) @ xi)
            resid = w * eta - w * slices.observations[i, t]
            total[:, i] += w * np.outer(resid, xi).reshape(-1)
    return total / s_count


def random_params_for(evaluator, rng, scale=1.0):
    return ParameterMatrix(
        scale * rng.standard_normal((evaluator.param_rows, evaluator.n_sequences)),
        channel_count=evaluator.channel_count,
        order=evaluator.spec.order,
    )


def simulate_linked_collection(rng, variant, c, d, n, t_len):
    """Sequences that follow x_t = eta(R_i xi_t) exactly, no noise."""
    link = LinkFunction(variant)
    kind = "probability-simplex" if variant == "softmax" else "real"
    m = c * c * d + c
    params = ParameterMatrix(
        0.05 * rng.standard_normal((m, n)), channel_count=c, order=d
    )
    seqs = []
    for i in range(n):
        arr = np.empty((c, t_len))
        if variant == "softmax":
            init = rng.uniform(0.1, 1.0, size=(c, d))
            arr[:, :d] = init / init.sum(axis=0, keepdims=True)
        else:
            arr[:, :d] = 0.1 * rng.standard_normal((c, d))
        for t in range(d, t_len):
            # bias, then steps t-1 .. t-d newest first, the channels of a step contiguous
            xi = np.concatenate(([1.0], arr[:, t - d : t][:, ::-1].T.reshape(-1)))
            z = params.data[:, i].reshape(c, -1) @ xi
            arr[:, t] = _link_rows(link, z)
        seqs.append(arr)
    coll = SequenceCollection(
        sequences=tuple(seqs),
        ids=tuple(f"s{i}" for i in range(n)),
        labels=None,
        kind=kind,
    )
    return coll, params


# ---------------------------------------------------------------- spec


def test_field_spec_validation():
    link = LinkFunction("identity")
    with pytest.raises(ValueError):
        FieldSpec(link=link, order=0)
    with pytest.raises(ValueError):
        FieldSpec(link=link, order=2, mode="minibatch")
    with pytest.raises(ValueError):
        FieldSpec(link=link, order=3, mode="stochastic-subwindow", window=3)
    FieldSpec(link=link, order=3, mode="stochastic-subwindow", window=4)


# ---------------------------------------------------------------- loss


def test_ls_loss_matches_loop(rng):
    ev = make_evaluator(rng, n=3, c=2, t_len=15, d=2)
    params = random_params_for(ev, rng)
    n, s_count, _ = ev.slices.regressors.shape
    w = 1.0 / n
    expected = 0.0
    for t in range(s_count):
        for i in range(n):
            z = params.data[:, i].reshape(2, -1) @ ev.slices.regressors[i, t]
            expected += float(np.sum((w * z - w * ev.slices.observations[i, t]) ** 2))
    expected /= s_count
    assert ls_loss(params, ev.slices) == pytest.approx(expected, rel=1e-12)
    assert ev.loss(params.data) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- field


@pytest.mark.parametrize("variant", LINKS)
def test_field_matches_adjoint_loop(rng, variant):
    c = 2 if variant == "softmax" else 1
    ev = make_evaluator(rng, n=3, c=c, t_len=14, d=2, link=variant)
    params = random_params_for(ev, rng, scale=0.3)
    ours = ev.field(params.data)
    oracle = field_oracle(LinkFunction(variant), params, ev.slices)
    assert np.max(np.abs(ours - oracle)) <= 1e-12


@pytest.mark.parametrize("source", ["full-horizon", "window"])
@pytest.mark.parametrize("c", [1, 3, 9])
@pytest.mark.parametrize("variant", LINKS)
def test_field_kernel_matches_oracle(rng, variant, c, source):
    # at C = 9 the oracle's softmax sums its channels pairwise, the kernel in order
    link = LinkFunction(variant)
    kind = "probability-simplex" if variant == "softmax" else "real"
    coll = make_collection(rng, n=3, c=c, t_len=30, kind=kind)
    if source == "window":
        slices = sample_subwindow_slices(coll, 2, 12, np.random.default_rng(c))
    else:
        slices = enumerate_slices(coll, 2)
    params = ParameterMatrix(
        0.3 * rng.standard_normal((c * c * 2 + c, 3)), channel_count=c, order=2
    )
    ours = field_module._field_data(params.data, link, slices)
    oracle = field_oracle(link, params, slices)
    assert np.max(np.abs(ours - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


def test_identity_field_is_half_gradient(rng):
    ev = make_evaluator(rng, n=2, c=1, t_len=12, d=2)
    params = random_params_for(ev, rng)
    g = ev.field(params.data)
    h = 1e-6
    for idx in np.ndindex(params.data.shape):
        bump = np.zeros_like(params.data)
        bump[idx] = h
        fd = (ev.loss(params.data + bump) - ev.loss(params.data - bump)) / (2 * h)
        assert g[idx] == pytest.approx(0.5 * fd, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("variant", LINKS)
def test_field_vanishes_at_generating_parameters(rng, variant):
    c = 2 if variant == "softmax" else 1
    coll, params = simulate_linked_collection(rng, variant, c=c, d=2, n=3, t_len=20)
    ev = EmpiricalField(coll, FieldSpec(link=LinkFunction(variant), order=2))
    assert np.linalg.norm(ev.field(params.data)) <= 1e-12


@pytest.mark.parametrize("variant", LINKS)
def test_field_is_monotone(rng, variant):
    c = 2 if variant == "softmax" else 1
    ev = make_evaluator(rng, n=3, c=c, t_len=14, d=2, link=variant)
    for _ in range(40):
        x = random_params_for(ev, rng, scale=0.5)
        y = random_params_for(ev, rng, scale=0.5)
        gap = ev.field(x.data) - ev.field(y.data)
        assert float(np.sum(gap * (x.data - y.data))) >= -1e-10


def test_field_incompatible_params(rng):
    ev = make_evaluator(rng, n=3, c=1, t_len=12, d=2)
    wrong = ParameterMatrix(np.zeros((3, 2)), channel_count=1, order=2)
    with pytest.raises(ValueError):
        field(ev.spec, wrong, ev.slices)
    with pytest.raises(ValueError):
        ls_loss(wrong, ev.slices)


# ---------------------------------------------------------------- slice order


def test_tree_reduction_is_order_insensitive(rng):
    """Normal equations summed over a permuted slice order move the field by rounding only."""
    ev = make_evaluator(rng, n=3, c=1, t_len=200, d=2)
    params = random_params_for(ev, rng)
    baseline = field(ev.spec, params, ev.slices)
    perm = np.random.default_rng(7).permutation(len(ev.slices))
    x, y = ev.slices.regressors[:, perm], ev.slices.observations[:, perm]
    gram, xty = x.transpose(0, 2, 1) @ x, y.transpose(0, 2, 1) @ x
    rows = params.data.T.reshape(3, 1, -1)
    shuffled = ev.slices.weight**2 / len(ev.slices) * (rows @ gram - xty)
    assert np.max(np.abs(shuffled.reshape(3, -1).T - baseline)) <= 1e-12


def test_field_bitwise_reproducible(rng):
    ev = make_evaluator(rng, n=3, c=1, t_len=100, d=3)
    params = random_params_for(ev, rng)
    assert np.array_equal(ev.field(params.data), ev.field(params.data))


# ---------------------------------------------------------------- evaluator


def test_empirical_field_slices_match_module_functions(rng):
    ev = make_evaluator(rng, n=3, c=1, t_len=30, d=2)
    params = random_params_for(ev, rng)
    assert np.array_equal(ev.field(params.data), field(ev.spec, params, ev.slices))
    assert ev.loss(params.data) == ls_loss(params, ev.slices)


# ---------------------------------------------------------------- normal-equation form


def test_full_horizon_identity_calls_build_grams_without_eigh(rng, factor_counter):
    ev = make_evaluator(rng, n=3, c=2, t_len=30, d=2)
    params = random_params_for(ev, rng)
    assert "normal_equations" not in vars(ev.slices)
    ev.loss(params.data)
    assert "normal_equations" in vars(ev.slices)
    ev.field(params.data)
    field(ev.spec, params, ev.slices)
    ls_loss(params, ev.slices)
    assert "gram_eigen" not in vars(ev.slices)
    assert factor_counter == {"eigh": 0, "lstsq": 0}


def stochastic_evaluator(rng, variant="identity", seed=1):
    c = 2 if variant == "softmax" else 1
    kind = "probability-simplex" if variant == "softmax" else "real"
    coll = make_collection(rng, n=3, c=c, t_len=60, kind=kind)
    spec = FieldSpec(
        link=LinkFunction(variant), order=2,
        mode="stochastic-subwindow", window=10, seed=seed,
    )
    return EmpiricalField(coll, spec)


@pytest.fixture
def recorded_draws(monkeypatch):
    """Every slice set the field module draws, in order."""
    drawn = []
    real_draw = field_module.sample_subwindow_slices

    def recording_draw(*args, **kwargs):
        drawn.append(real_draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(field_module, "sample_subwindow_slices", recording_draw)
    return drawn


@pytest.mark.parametrize("variant", ["identity", "softmax"])
def test_stochastic_step_draws_build_no_cache(rng, recorded_draws, variant):
    ev = stochastic_evaluator(rng, variant)
    data = 0.1 * rng.standard_normal((ev.param_rows, 3))
    ev.field(data, 1)
    ev.field(data, 1)
    ev.loss(data)
    ev.field(data, 2)
    ev.loss(data)
    # one draw per step and one loss set: step 1, the loss set, step 2
    assert len(recorded_draws) == 3
    step_1, loss_set, step_2 = recorded_draws
    for slices in (step_1, step_2):
        assert not {"normal_equations", "gram_eigen", "ols"} & set(vars(slices))
    # the loss set is read again and again, so it is served from its Grams
    assert {"normal_equations", "gram_eigen", "ols"} & set(vars(loss_set)) == {
        "normal_equations"
    }


def test_stochastic_loss_reads_one_set_and_leaves_the_field_draws(rng, recorded_draws):
    logged = stochastic_evaluator(rng, seed=4)
    quiet = EmpiricalField(logged.collection, logged.spec)  # never asked for a loss
    data = 0.1 * rng.standard_normal((logged.param_rows, 3))
    losses = []
    for step in (1, 2, 3):
        losses.append(logged.loss(data))
        assert np.array_equal(logged.field(data, step), quiet.field(data, step))
    loss_sets = [s for s in recorded_draws if "normal_equations" in vars(s)]
    assert len(loss_sets) == 1
    params = ParameterMatrix(data, channel_count=1, order=2)
    assert losses == [ls_loss(params, loss_sets[0])] * 3


def test_stochastic_field_needs_a_step(rng):
    ev = stochastic_evaluator(rng)
    with pytest.raises(ValueError, match="step"):
        ev.field(np.zeros((ev.param_rows, 3)))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_gram_loss_at_generating_parameters_matches_residual_form(seed):
    # near-perfect fits cancel in the Gram form: seeds 1 and 3 sum to below zero
    rng = np.random.default_rng(seed)
    coll, params = simulate_linked_collection(rng, "identity", c=2, d=2, n=3, t_len=40)
    slices = EmpiricalField(coll, FieldSpec(link=LinkFunction("identity"), order=2)).slices
    x, y = slices.regressors, slices.observations
    rows = params.data.T.reshape(3, 2, -1)
    resid = np.einsum("nsk,nck->nsc", x, rows) - y
    scale = slices.weight**2 / len(slices)
    residual_form = scale * float(np.sum(resid * resid))
    gram_form = ls_loss(params, slices)
    assert gram_form >= 0.0
    assert abs(gram_form - residual_form) <= 1e-12 * scale * float(np.sum(y * y))


@pytest.mark.parametrize("variant", ["softmax", "exponential", "logistic"])
def test_full_horizon_loss_matches_residual_form(rng, variant):
    # the loss reads the Grams whatever the link; the identity case is test_ls_loss_matches_loop
    c = 2 if variant == "softmax" else 1
    ev = make_evaluator(rng, n=3, c=c, t_len=40, d=3, link=variant)
    params = random_params_for(ev, rng, scale=0.3)
    x, y = ev.slices.regressors, ev.slices.observations
    resid = np.einsum("nsk,nck->nsc", x, params.data.T.reshape(3, c, -1)) - y
    expected = ev.slices.weight**2 / len(ev.slices) * float(np.sum(resid * resid))
    assert ev.loss(params.data) == pytest.approx(expected, rel=1e-12)


def test_stochastic_mode_redraws_and_reproduces(rng):
    a1 = stochastic_evaluator(rng, seed=3)
    a2 = EmpiricalField(a1.collection, a1.spec)
    data = 0.1 * rng.standard_normal((a1.param_rows, 3))
    first = a1.field(data, 1)
    assert np.array_equal(a1.field(data, 1), first)  # one draw per step
    second = a1.field(data, 2)
    assert not np.array_equal(second, first)  # a fresh draw on the next step
    # a step's draw depends on the seed and the step, not on the calls before it
    assert np.array_equal(a2.field(data, 2), second)
    assert np.array_equal(a2.field(data, 1), first)
    assert np.array_equal(a1.field(data, 1), first)


def test_stochastic_mode_has_no_fixed_slices(rng):
    coll = make_collection(rng, n=2, c=1, t_len=40)
    spec = FieldSpec(
        link=LinkFunction("identity"), order=2,
        mode="stochastic-subwindow", window=8, seed=0,
    )
    ev = EmpiricalField(coll, spec)
    with pytest.raises(ValueError):
        _ = ev.slices


def test_field_module_is_not_shadowed():
    import lowrank_ar.field as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.field)


def test_stochastic_window_longer_than_data(rng):
    coll = make_collection(rng, n=2, c=1, t_len=12)
    spec = FieldSpec(
        link=LinkFunction("identity"), order=2,
        mode="stochastic-subwindow", window=13, seed=0,
    )
    with pytest.raises(ValueError):
        EmpiricalField(coll, spec)
