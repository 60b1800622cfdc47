"""Benchmark generator: baselines, perturbations, AR simulation, assembly."""

import math
import warnings

import numpy as np
import pytest

import lowrank_ar.synthetic as synthetic_module
from lowrank_ar.synthetic import (
    STANDARD_PROCEDURES,
    GenClassSpec,
    UnstableCoefficientsError,
    draw_unit_vector,
    gen_baseline,
    gen_benchmark,
    gen_class,
    perturb,
    standard_class_specs,
)


# ---------------------------------------------------------------- reference oracles
# The per-sequence, per-step generator that the lockstep recursion replaced.


def simulate_ar_oracle(coeffs, t_len, d, noise_var, rng):
    x = np.empty(t_len)
    x[:d] = rng.standard_normal(d)
    eps = rng.normal(0.0, math.sqrt(noise_var), size=t_len - d)
    rev = coeffs[::-1]
    for t in range(d, t_len):
        x[t] = rev @ x[t - d : t] + eps[t - d]
        if not math.isfinite(x[t]) or abs(x[t]) > 1e12:
            raise UnstableCoefficientsError(
                f"|x_{t + 1}| exceeded 1e+12; coefficient draw is unstable "
                f"(sum of coefficients {coeffs.sum():.3f})"
            )
    return x


def gen_class_oracle(spec, rng):
    baseline = gen_baseline(spec, rng)
    fixed_vector = None
    if spec.perturbation == "uniform-times-fixed-vector":
        fixed_vector = draw_unit_vector(spec.d, rng)
    child_seeds = rng.integers(0, 2**63, size=spec.n_per_class)
    paths = np.empty((spec.n_per_class, spec.t_len))
    coeffs = np.empty((spec.d, spec.n_per_class))
    for i, seed in enumerate(child_seeds):
        child = np.random.default_rng(int(seed))
        for attempt in range(50):
            coeffs[:, i] = perturb(baseline, spec, child, fixed_vector=fixed_vector)
            try:
                args = (coeffs[:, i], spec.t_len, spec.d, spec.noise_var, child)
                paths[i] = simulate_ar_oracle(*args)
                break
            except UnstableCoefficientsError:
                if attempt == 49:
                    raise
    return paths, coeffs


def outcome(fn, *args):
    """The array or arrays fn(*args) returns, as dtype, shape, layout and bytes, or the message
    it raises."""
    try:
        value = fn(*args)
    except UnstableCoefficientsError as exc:
        return str(exc)
    arrays = value if isinstance(value, tuple) else (value,)
    return [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in arrays]


@pytest.fixture
def batch_widths(monkeypatch):
    """Columns in each call of the lockstep recursion, and whether its paths stayed finite."""
    calls = []
    recurse = synthetic_module._recurse

    def recording(coeffs, x0, eps):
        x, stable = recurse(coeffs, x0, eps)
        calls.append((x.shape[1], bool(np.isfinite(x).all())))
        return x, stable

    monkeypatch.setattr(synthetic_module, "_recurse", recording)
    return calls


def spec_for(baseline="exp-decay", perturbation="gaussian", **kwargs):
    defaults = dict(d=6, n_per_class=4, t_len=30, noise_var=0.01)
    defaults.update(kwargs)
    return GenClassSpec(baseline=baseline, perturbation=perturbation, **defaults)


# ---------------------------------------------------------------- specs


@pytest.mark.parametrize(
    "kwargs",
    [
        {"baseline": "linear"},
        {"perturbation": "cauchy"},
        {"d": 0},
        {"t_len": 6},
        {"n_per_class": 0},
        {"noise_var": -0.1},
        {"perturbation_var": -1.0},
        {"gamma_decay": 0.0},
        {"gamma_decay": 1.0001},
    ],
)
def test_spec_validation(kwargs):
    base = dict(baseline="exp-decay", perturbation="gaussian", d=6, t_len=30)
    base.update(kwargs)
    with pytest.raises(ValueError):
        GenClassSpec(**base)


def test_standard_specs_layout():
    specs = standard_class_specs()
    assert len(specs) == 10
    for i, spec in enumerate(specs):
        assert (spec.baseline, spec.perturbation) == STANDARD_PROCEDURES[i % 5]
        assert spec.d == 15
        assert spec.n_per_class == 300
        assert spec.t_len == 250
        assert spec.noise_var == 0.02


# ---------------------------------------------------------------- baselines


def test_exp_decay_baseline(rng):
    spec = spec_for(gamma_decay=0.9)
    b = gen_baseline(spec, rng)
    assert b.shape == (6,)
    # consecutive ratio is the decay factor; total is the single uniform draw
    assert np.allclose(b[1:] / b[:-1], 0.9, rtol=1e-12)
    assert 0.0 <= b.sum() < 1.0


def test_uniform_baseline(rng):
    spec = spec_for(baseline="uniform", d=50, t_len=60)
    b = gen_baseline(spec, rng)
    assert b.shape == (50,)
    assert np.all(b >= 0.0)
    assert np.all(b < 1.0 / (2 * 50))


# ---------------------------------------------------------------- perturbations


def test_gaussian_perturbation_moves_every_entry(rng):
    spec = spec_for()
    base = gen_baseline(spec, rng)
    out = perturb(base, spec, rng)
    assert out.shape == base.shape
    assert np.all(out != base)


def test_most_recent_third_leaves_tail_untouched(rng):
    spec = spec_for(baseline="uniform", perturbation="most-recent-third", d=15)
    base = gen_baseline(spec, rng)
    out = perturb(base, spec, rng)
    cut = math.ceil(15 / 3) - 1
    assert np.array_equal(out[cut:], base[cut:])
    assert np.all(out[:cut] != base[:cut])


def test_fixed_vector_perturbation_is_parallel(rng):
    spec = spec_for(perturbation="uniform-times-fixed-vector")
    base = gen_baseline(spec, rng)
    v = draw_unit_vector(spec.d, rng)
    for _ in range(10):
        diff = perturb(base, spec, rng, fixed_vector=v) - base
        theta = float(diff @ v)
        assert abs(theta) <= 1.0
        assert np.allclose(diff, theta * v, atol=1e-12)


def test_fixed_vector_drawn_when_omitted(rng):
    spec = spec_for(perturbation="uniform-times-fixed-vector")
    base = gen_baseline(spec, rng)
    out = perturb(base, spec, rng)
    assert out.shape == base.shape


def test_perturb_shape_check(rng):
    spec = spec_for()
    with pytest.raises(ValueError):
        perturb(np.zeros(5), spec, rng)


def test_unit_vector_has_unit_norm(rng):
    for d in (1, 3, 20):
        v = draw_unit_vector(d, rng)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- simulation


def simulate_ar(coeffs, t_len, d, noise_var, rng):
    """One path through the lockstep recursion, drawn and reported as gen_class does."""
    x0 = rng.standard_normal(d)
    eps = rng.normal(0.0, math.sqrt(noise_var), size=t_len - d)
    x, stable = synthetic_module._recurse(coeffs[:, None], x0[:, None], eps[:, None])
    if not stable[0]:
        raise synthetic_module._unstable(x[:, 0], coeffs)
    return x[:, 0].copy()


def test_simulate_ar_recurrence():
    d = 3
    coeffs = np.array([0.4, 0.2, 0.1])
    gen = np.random.default_rng(5)
    x = simulate_ar(coeffs, 20, d, 0.0, gen)
    # replay: same generator consumes the initial draws, noise is zero
    replay = np.random.default_rng(5)
    init = replay.standard_normal(d)
    assert np.array_equal(x[:d], init)
    for t in range(d, 20):
        expected = coeffs[0] * x[t - 1] + coeffs[1] * x[t - 2] + coeffs[2] * x[t - 3]
        assert x[t] == pytest.approx(expected, rel=1e-14, abs=1e-15)


def test_simulate_ar_blowup_raises():
    with pytest.raises(UnstableCoefficientsError):
        simulate_ar(np.array([1.5]), 300, 1, 0.01, np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(40))
def test_simulate_ar_matches_per_step_oracle(seed):
    # 3 of the 40 draws are unstable, so both outcomes are compared
    gen = np.random.default_rng(seed)
    d = int(gen.integers(1, 20))
    args = (gen.normal(0.0, 0.4, size=d), int(gen.integers(d + 1, 300)), d, 0.02)
    assert outcome(simulate_ar, *args, np.random.default_rng(seed)) == outcome(
        simulate_ar_oracle, *args, np.random.default_rng(seed)
    )


# ---------------------------------------------------------------- classes


def test_gen_class_shapes(rng):
    spec = spec_for(n_per_class=5, t_len=40)
    paths, coeffs = gen_class(spec, rng)
    assert paths.shape == (5, 40)
    assert coeffs.shape == (6, 5)
    assert np.all(np.isfinite(paths))


def test_gen_class_sequences_differ(rng):
    spec = spec_for(n_per_class=3)
    paths, coeffs = gen_class(spec, rng)
    assert not np.array_equal(coeffs[:, 0], coeffs[:, 1])
    assert not np.array_equal(paths[0], paths[1])


def test_gen_class_matches_oracle_through_redraws(batch_widths):
    # seed 0 redraws two of twelve sequences, then one of them twice more, alone
    spec = spec_for(d=4, n_per_class=12, t_len=120, perturbation_var=0.3)
    got = outcome(gen_class, spec, np.random.default_rng(0))
    assert batch_widths == [(12, True), (2, True), (1, True), (1, True)]
    assert got == outcome(gen_class_oracle, spec, np.random.default_rng(0))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=6, n_per_class=40, t_len=200, perturbation_var=0.3),
        dict(baseline="uniform", perturbation="uniform-times-fixed-vector", d=3, n_per_class=50),
        dict(perturbation="most-recent-third", d=15, n_per_class=30, t_len=250,
             perturbation_var=0.2),
        dict(baseline="uniform", d=1, n_per_class=30, t_len=100, perturbation_var=1.0),
        dict(d=4, n_per_class=1, t_len=50, perturbation_var=0.5),
        dict(d=5, n_per_class=20, t_len=80, noise_var=0.0),
        dict(d=15, n_per_class=60, t_len=250, noise_var=0.02),
    ],
)
def test_gen_class_matches_oracle(kwargs):
    spec = spec_for(**kwargs)
    for seed in range(3):
        assert outcome(gen_class, spec, np.random.default_rng(seed)) == outcome(
            gen_class_oracle, spec, np.random.default_rng(seed)
        )


def test_gen_class_that_never_stabilises_raises(batch_widths):
    spec = spec_for(baseline="uniform", d=3, n_per_class=3, t_len=600, perturbation_var=25.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflowing rows must not warn
        got = outcome(gen_class, spec, np.random.default_rng(0))
    assert got == outcome(gen_class_oracle, spec, np.random.default_rng(0))
    assert got.startswith("|x_")
    assert len(batch_widths) == 50
    assert not all(finite for _, finite in batch_widths)  # some rows overflowed to inf or NaN


# ---------------------------------------------------------------- benchmark


def test_gen_benchmark_assembly():
    specs = [spec_for(), spec_for(baseline="uniform", n_per_class=3)]
    coll, truth = gen_benchmark(specs, np.random.default_rng(7))
    assert coll.n_sequences == 7
    assert list(coll.ids[:4]) == ["c0_s000", "c0_s001", "c0_s002", "c0_s003"]
    assert list(coll.ids[4:]) == ["c1_s000", "c1_s001", "c1_s002"]
    assert list(coll.labels) == [0, 0, 0, 0, 1, 1, 1]
    assert truth.data.shape == (7, 7)  # d+1 rows, one column per sequence
    assert np.array_equal(truth.data[0], np.zeros(7))
    assert truth.order == 6
    assert truth.channel_count == 1


def test_gen_benchmark_deterministic():
    specs = [spec_for(n_per_class=3)]
    coll_a, truth_a = gen_benchmark(specs, np.random.default_rng(13))
    coll_b, truth_b = gen_benchmark(specs, np.random.default_rng(13))
    assert np.array_equal(truth_a.data, truth_b.data)
    for sa, sb in zip(coll_a.sequences, coll_b.sequences):
        assert np.array_equal(sa, sb)


def test_gen_benchmark_validation():
    with pytest.raises(ValueError):
        gen_benchmark([], np.random.default_rng(0))
    with pytest.raises(ValueError):
        gen_benchmark([spec_for(d=4), spec_for(d=5)], np.random.default_rng(0))


def test_truth_matches_simulated_paths():
    # noiseless regime: each path must satisfy its own recorded coefficients
    spec = spec_for(n_per_class=3, t_len=25, noise_var=0.0, perturbation_var=0.0001)
    coll, truth = gen_benchmark([spec], np.random.default_rng(3))
    d = spec.d
    for i, seq in enumerate(coll.sequences):
        x = seq[0]
        coeffs = truth.data[1:, i]
        for t in range(d, spec.t_len):
            pred = coeffs @ x[t - 1 :: -1][:d]
            assert x[t] == pytest.approx(pred, rel=1e-10, abs=1e-12)
