"""Seeded inputs of the three workloads.

desk-search regenerates benchmarks of the criterion-07 desk study (study
seed 3, 3 classes x 60 sequences, d=15, T=250) with the package's own
generator; its inputs do not depend on the workload seed, so the Brent
failure it counts is the same on every run. ucr-classify and text-window
write files that the package then reads: a UCR-format train/test pair and
a corpus of plain-text documents.

Regenerate the files of one seed with
    python3 perfbench/inputs.py --workload ucr-classify --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

# ------------------------------------------------------------------ desk-search

STUDY_SEED = 3
STUDY_SIZES = dict(d=15, n_per_class=60, t_len=250, noise_var=0.02)
STUDY_RUNS = 10
# Positions in the seed-3 study's benchmark list. Both searches return a
# worse error than the unconstrained fit they start from; their solves
# include ones that converge and ones that stop at the iteration cap.
DESK_BENCHMARKS = (0, 9)


@dataclass(frozen=True)
class DeskBenchmark:
    position: int
    class_ids: tuple
    rng_state: dict


def desk_benchmarks(synthetic) -> list[DeskBenchmark]:
    """Generator states that reproduce the chosen study benchmarks.

    The study draws every benchmark from one generator in order, so the
    benchmarks before a chosen one are generated here to advance it.
    """
    pool = synthetic.standard_class_specs(**STUDY_SIZES)
    master = np.random.default_rng(STUDY_SEED)
    combos = [
        sorted(master.choice(len(pool), size=3, replace=False).tolist())
        for _ in range(STUDY_RUNS)
    ]
    chosen = []
    for position in range(max(DESK_BENCHMARKS) + 1):
        if position in DESK_BENCHMARKS:
            chosen.append(
                DeskBenchmark(position, tuple(combos[position]), master.bit_generator.state)
            )
        synthetic.gen_benchmark([pool[i] for i in combos[position]], master)
    return chosen


# ------------------------------------------------------------------ ucr-classify

UCR_CLASSES = 3
UCR_TRAIN_PER_CLASS = 20
UCR_TEST_PER_CLASS = 20
UCR_LENGTH = 128
UCR_AR_ORDER = 4
_BURN_IN = 200


def _stationary_ar(rng: np.random.Generator) -> np.ndarray:
    """AR denominator polynomial with all roots strictly inside the unit disc."""
    roots = []
    for _ in range(UCR_AR_ORDER // 2):
        r = rng.uniform(0.3, 0.85)
        angle = rng.uniform(0.15, np.pi - 0.15)
        roots += [r * np.exp(1j * angle), r * np.exp(-1j * angle)]
    return np.real(np.poly(roots))


def ucr_series(seed: int) -> tuple[list, list, list, list]:
    """(train_labels, train_series, test_labels, test_series)."""
    rng = np.random.default_rng(seed)
    polys = [_stationary_ar(rng) for _ in range(UCR_CLASSES)]
    out = []
    for per_class in (UCR_TRAIN_PER_CLASS, UCR_TEST_PER_CLASS):
        labels, series = [], []
        for _ in range(per_class):
            for label, poly in enumerate(polys, start=1):
                noise = rng.standard_normal(_BURN_IN + UCR_LENGTH)
                path = lfilter([1.0], poly, noise)[_BURN_IN:]
                labels.append(label)
                series.append(rng.uniform(0.5, 2.0) * path + rng.normal(0.0, 3.0))
        out += [labels, series]
    return tuple(out)


def _write_ucr(path: Path, labels, series) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, values in zip(labels, series):
            fh.write("\t".join([str(label)] + [f"{v:.17g}" for v in values]) + "\n")


def write_ucr(seed: int, out: Path) -> tuple[Path, Path]:
    out.mkdir(parents=True, exist_ok=True)
    train_labels, train, test_labels, test = ucr_series(seed)
    paths = out / "BENCH_TRAIN.tsv", out / "BENCH_TEST.tsv"
    _write_ucr(paths[0], train_labels, train)
    _write_ucr(paths[1], test_labels, test)
    return paths


# ------------------------------------------------------------------ text-window

# Upper-case letters are lower-cased, '#' and '|' are stripped and the
# accented letters are non-ASCII, so cleaning has work to do.
TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyz .,'" + "AEST" + "#|" + "éü"
TEXT_CLASSES = 3
TEXT_DOCS_PER_CLASS = 30
TEXT_DOC_CHARS = 12000
_DIRICHLET = 0.25


def text_documents(seed: int) -> tuple[list, list]:
    """(labels, documents): one character Markov chain per class."""
    rng = np.random.default_rng(seed)
    a = len(TEXT_ALPHABET)
    cumulative = np.cumsum(rng.dirichlet(np.full(a, _DIRICHLET), size=(TEXT_CLASSES, a)), axis=2)
    labels = np.repeat(np.arange(TEXT_CLASSES), TEXT_DOCS_PER_CLASS)
    state = rng.integers(0, a, size=labels.size)
    chars = np.empty((labels.size, TEXT_DOC_CHARS), dtype=np.int64)
    for t in range(TEXT_DOC_CHARS):
        u = rng.random(labels.size)
        state = np.minimum((cumulative[labels, state] < u[:, None]).sum(axis=1), a - 1)
        chars[:, t] = state
    alphabet = np.array(list(TEXT_ALPHABET))
    return labels.tolist(), ["".join(alphabet[row]) for row in chars]


def write_text(seed: int, out: Path) -> tuple[list, list]:
    """One UTF-8 file per document; returns (paths, labels) in reading order."""
    out.mkdir(parents=True, exist_ok=True)
    labels, docs = text_documents(seed)
    paths = []
    for i, (label, doc) in enumerate(zip(labels, docs)):
        path = out / f"doc{i:03d}_class{label}.txt"
        path.write_text(doc, encoding="utf-8")
        paths.append(path)
    return paths, labels


def main() -> None:
    parser = argparse.ArgumentParser(description="Write the input files of one workload.")
    parser.add_argument("--workload", choices=("ucr-classify", "text-window"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.workload == "ucr-classify":
        write_ucr(args.seed, args.out)
    else:
        write_text(args.seed, args.out)


if __name__ == "__main__":
    main()
