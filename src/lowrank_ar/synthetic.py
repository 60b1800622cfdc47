"""Synthetic autoregressive benchmark generator.

Each class of sequences shares a baseline coefficient vector; individual
sequences perturb it by a class-specific rule and then evolve as an AR(d)
process with Gaussian innovations. The generator returns both the observed
collection and the true per-sequence coefficient matrix so recovery error
can be measured exactly.

Per-sequence randomness is derived from one integer seed drawn up front per
sequence, and each sequence draws its coefficients, initial values and
innovations from its own child generator in that order. A class is simulated
in lockstep: one recursion advances every sequence of the class together, a
time step at a time, adding each sequence's lags in a fixed left-to-right
order, so a path does not depend on which other sequences share its batch.
A sequence whose path exceeds the blow-up guard (or turns non-finite) redraws
from its own generator and only the redrawn sequences run again, up to
_MAX_DRAWS attempts before UnstableCoefficientsError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lowrank_ar.model import ParameterMatrix, SequenceCollection

BASELINES = ("exp-decay", "uniform")
PERTURBATIONS = ("gaussian", "most-recent-third", "uniform-times-fixed-vector")

# The five generating procedures, each used twice to form a ten-class pool.
STANDARD_PROCEDURES = (
    ("exp-decay", "gaussian"),
    ("exp-decay", "most-recent-third"),
    ("exp-decay", "uniform-times-fixed-vector"),
    ("uniform", "gaussian"),
    ("uniform", "uniform-times-fixed-vector"),
)

_BLOWUP = 1e12
# Coefficient draws a sequence may make before an unstable class is reported.
_MAX_DRAWS = 50


class UnstableCoefficientsError(RuntimeError):
    """Simulated path exceeded the blow-up guard."""


@dataclass(frozen=True)
class GenClassSpec:
    """One class of the benchmark: baseline rule, perturbation rule, sizes."""

    baseline: str
    perturbation: str
    d: int = 15
    n_per_class: int = 300
    t_len: int = 250
    noise_var: float = 0.02
    gamma_decay: float = 0.9
    perturbation_var: float = 0.02

    def __post_init__(self) -> None:
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}, got {self.baseline!r}")
        if self.perturbation not in PERTURBATIONS:
            raise ValueError(
                f"perturbation must be one of {PERTURBATIONS}, got {self.perturbation!r}"
            )
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.t_len <= self.d:
            raise ValueError("t_len must exceed d")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be at least 1")
        if self.noise_var < 0 or self.perturbation_var < 0:
            raise ValueError("variances must be nonnegative")
        if not 0 < self.gamma_decay <= 1:
            raise ValueError("gamma_decay must lie in (0, 1]")


def standard_class_specs(
    d: int = 15,
    n_per_class: int = 300,
    t_len: int = 250,
    noise_var: float = 0.02,
    repeats: int = 2,
) -> list[GenClassSpec]:
    """The procedure table repeated, default ten classes (five rules twice)."""
    return [
        GenClassSpec(baseline=b, perturbation=p, d=d, n_per_class=n_per_class,
                     t_len=t_len, noise_var=noise_var)
        for _ in range(repeats)
        for b, p in STANDARD_PROCEDURES
    ]


def gen_baseline(spec: GenClassSpec, rng: np.random.Generator) -> np.ndarray:
    """Baseline coefficients shared by every sequence in a class.

    exp-decay: b_s = Z * gamma^s / sum_j gamma^j with a single Z ~ U[0,1],
    so the coefficients sum to Z. uniform: each b_s ~ U[0, 1/(2d)].
    """
    d = spec.d
    if spec.baseline == "exp-decay":
        z = rng.uniform(0.0, 1.0)
        powers = spec.gamma_decay ** np.arange(1, d + 1)
        return z * powers / powers.sum()
    return rng.uniform(0.0, 1.0 / (2 * d), size=d)


def draw_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere in R^d."""
    while True:
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 0:
            return v / norm


def perturb(
    baseline: np.ndarray,
    spec: GenClassSpec,
    rng: np.random.Generator,
    fixed_vector: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sequence coefficients: baseline plus the class's perturbation.

    gaussian adds N(0, var) to every entry. most-recent-third adds N(0, var)
    only to 1-indexed lags j < ceil(d/3), the most recent ones. The fixed
    vector rule adds theta * v with theta ~ U[-1, 1]; v is drawn once per
    class and passed in (drawn fresh here only if omitted).
    """
    baseline = np.asarray(baseline, dtype=float)
    d = spec.d
    if baseline.shape != (d,):
        raise ValueError(f"baseline must have shape ({d},), got {baseline.shape}")
    std = math.sqrt(spec.perturbation_var)
    if spec.perturbation == "gaussian":
        return baseline + rng.normal(0.0, std, size=d)
    if spec.perturbation == "most-recent-third":
        cut = math.ceil(d / 3) - 1
        out = baseline.copy()
        out[:cut] += rng.normal(0.0, std, size=cut)
        return out
    if fixed_vector is None:
        fixed_vector = draw_unit_vector(d, rng)
    theta = rng.uniform(-1.0, 1.0)
    return baseline + theta * np.asarray(fixed_vector, dtype=float)


def _recurse(coeffs: np.ndarray, x0: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Paths (T, k) of k AR(d) columns, and which of them stayed within the blow-up guard.

    Column j starts from x0[:, j] (d values), has coefficients coeffs[:, j]
    (most recent lag first) and innovations eps[:, j]. Every column advances
    together, one time step at a time. Each step adds a column's lags one
    at a time, oldest first: np.add.accumulate along the lag axis, never a
    pairwise sum, so a column's path does not depend on the batch around
    it. Columns that overflow run on to inf or NaN and are reported unstable.
    """
    d, k = x0.shape
    x = np.empty((d + eps.shape[0], k))
    x[:d] = x0
    rev = coeffs[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(d, x.shape[0]):
            x[t] = np.add.accumulate(rev * x[t - d : t], axis=0)[-1] + eps[t - d]
        return x, (np.abs(x[d:]) <= _BLOWUP).all(axis=0)


def _unstable(path: np.ndarray, coeffs: np.ndarray) -> UnstableCoefficientsError:
    t = len(coeffs) + int(np.argmin(np.abs(path[len(coeffs):]) <= _BLOWUP))
    return UnstableCoefficientsError(
        f"|x_{t + 1}| exceeded {_BLOWUP:g}; coefficient draw is unstable "
        f"(sum of coefficients {coeffs.sum():.3f})"
    )


def simulate_ar(
    coeffs: np.ndarray,
    t_len: int,
    d: int,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """AR(d) path: x_t ~ N(0,1) for t <= d, then x_t = sum_s b_s x_{t-s} + eps_t.

    Raises UnstableCoefficientsError, naming the first step, when |x_t|
    exceeds the blow-up guard, which stops unstable coefficient draws from
    flooding downstream computations with overflow.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (d,):
        raise ValueError(f"coeffs must have shape ({d},), got {coeffs.shape}")
    if t_len <= d:
        raise ValueError("t_len must exceed d")
    x0 = rng.standard_normal(d)
    eps = rng.normal(0.0, math.sqrt(noise_var), size=t_len - d)
    x, stable = _recurse(coeffs[:, None], x0[:, None], eps[:, None])
    if not stable[0]:
        raise _unstable(x[:, 0], coeffs)
    return x[:, 0].copy()


def gen_class(
    spec: GenClassSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """All sequences of one class, in lockstep: (paths (N, T), coefficients (d, N))."""
    baseline = gen_baseline(spec, rng)
    fixed_vector = None
    if spec.perturbation == "uniform-times-fixed-vector":
        fixed_vector = draw_unit_vector(spec.d, rng)
    seeds = rng.integers(0, 2**63, size=spec.n_per_class)
    children = [np.random.default_rng(int(seed)) for seed in seeds]
    std = math.sqrt(spec.noise_var)
    paths = np.empty((spec.n_per_class, spec.t_len))
    coeffs = np.empty((spec.d, spec.n_per_class))
    pending = np.arange(spec.n_per_class)
    for _ in range(_MAX_DRAWS):
        draws = [
            (perturb(baseline, spec, children[i], fixed_vector=fixed_vector),
             children[i].standard_normal(spec.d),
             children[i].normal(0.0, std, size=spec.t_len - spec.d))
            for i in pending
        ]
        b, x0, eps = (np.stack(parts, axis=1) for parts in zip(*draws))
        x, stable = _recurse(b, x0, eps)
        coeffs[:, pending[stable]], paths[pending[stable]] = b[:, stable], x[:, stable].T
        if stable.all():
            return paths, coeffs
        pending, b, x = pending[~stable], b[:, ~stable], x[:, ~stable]
    raise _unstable(x[:, 0], b[:, 0])


def gen_benchmark(
    class_specs: list[GenClassSpec], rng: np.random.Generator
) -> tuple[SequenceCollection, ParameterMatrix]:
    """Concatenated labeled collection plus the true coefficient matrix.

    The truth matrix is laid out like a recovered one: row 0 is the bias,
    which the generator never uses and is therefore zero; rows 1..d hold the
    lag coefficients, most recent first.
    """
    if not class_specs:
        raise ValueError("class_specs must be nonempty")
    d = class_specs[0].d
    if any(s.d != d for s in class_specs):
        raise ValueError("all classes must share the same order d")
    sequences: list[np.ndarray] = []
    ids: list[str] = []
    labels: list[int] = []
    columns: list[np.ndarray] = []
    for ci, spec in enumerate(class_specs):
        paths, coeffs = gen_class(spec, rng)
        for si in range(spec.n_per_class):
            sequences.append(paths[si])
            ids.append(f"c{ci}_s{si:03d}")
            labels.append(ci)
            columns.append(np.concatenate([[0.0], coeffs[:, si]]))
    collection = SequenceCollection(
        sequences=tuple(sequences), ids=tuple(ids), labels=tuple(labels), kind="real"
    )
    truth = ParameterMatrix(
        data=np.column_stack(columns), channel_count=1, order=d
    )
    return collection, truth
