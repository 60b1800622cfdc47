"""KNN classification on UCR-format archives via the embed/eval pipeline.

Each dataset directory must hold <Name>_TRAIN.tsv and <Name>_TEST.tsv in
the usual label-first row format. Series are encoded as (value, diff)
channel pairs, embedded from the fitted parameter matrix, and scored with
the CV-selected KNN on the archive's own split. Stdout holds only the
score table, one line per dataset; the embed and eval commands' own output
goes to stderr.

Usage: python3 scripts/ucr_benchmark.py --archive ~/UCRArchive_2018 Coffee GunPoint
"""

import argparse
import contextlib
import sys
import tempfile
import time
from pathlib import Path

from lowrank_ar import cli
from lowrank_ar.dataio import read_json, write_json


def run_dataset(archive: Path, name: str, d: int, iters: int, work: Path) -> dict:
    cfg = work / f"{name}.json"
    write_json(
        {
            "input": {
                "format": "ucr",
                "train_path": str(archive / name / f"{name}_TRAIN.tsv"),
                "test_path": str(archive / name / f"{name}_TEST.tsv"),
            },
            "d": d,
            "iters": iters,
        },
        cfg,
    )
    emb_dir = work / f"{name}_emb"
    rc = cli.main(["embed", "--config", str(cfg), "--out", str(emb_dir)])
    if rc != 0:
        raise SystemExit(f"embed failed for {name} (exit {rc})")

    eval_cfg = work / f"{name}_eval.json"
    write_json(
        {
            "embeddings_path": str(emb_dir / "embeddings.csv"),
            "split_path": str(emb_dir / "split.csv"),
            "mode": "classification",
        },
        eval_cfg,
    )
    score_dir = work / f"{name}_scores"
    rc = cli.main(["eval", "--config", str(eval_cfg), "--out", str(score_dir)])
    if rc != 0:
        raise SystemExit(f"eval failed for {name} (exit {rc})")
    return read_json(score_dir / "metrics.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("datasets", nargs="+", help="dataset directory names")
    parser.add_argument("--archive", required=True, help="archive root directory")
    parser.add_argument("--d", type=int, default=20)
    parser.add_argument("--iters", type=int, default=256)
    args = parser.parse_args()

    archive = Path(args.archive).expanduser()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in args.datasets:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sys.stderr):
                metrics = run_dataset(archive, name, args.d, args.iters, work)
            print(
                f"{name:<24} accuracy {metrics['accuracy']:.3f}  "
                f"macro-F1 {metrics['macro_f1']:.3f}  "
                f"({time.perf_counter() - t0:.0f}s)"
            )


if __name__ == "__main__":
    main()
