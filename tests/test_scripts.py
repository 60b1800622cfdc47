"""Every script under scripts/ prints its usage, and each also runs at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    result = run_script(script.name, "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


@pytest.mark.parametrize(
    "name, args, last_line",
    [
        ("synthetic_study.py", "--runs 2 --n-per-class 5 --t-len 60 --d 3", "mean ratio"),
        ("sweep_figure.py", "--points 3 --out sweep.csv", "best lambda"),
    ],
)
def test_study_script_runs_small(tmp_path, name, args, last_line):
    result = run_script(name, *args.split(), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith(last_line)
    if name == "sweep_figure.py":
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 3


def test_ucr_benchmark_runs_on_a_tiny_archive(tmp_path):
    gen = np.random.default_rng(4)
    names = ("Alpha", "Beta")
    for name in names:
        (tmp_path / name).mkdir()
        for split, n in (("TRAIN", 6), ("TEST", 4)):
            rows = []
            for i in range(n):
                wave = np.sin(np.linspace(0, 6, 20) * (1 + i % 2) + gen.uniform(0, 1))
                rows.append("\t".join([str(1 + i % 2)] + [f"{v:.6f}" for v in wave]))
            (tmp_path / name / f"{name}_{split}.tsv").write_text("\n".join(rows) + "\n")
    args = ["--archive", str(tmp_path), "--d", "2", "--iters", "16", *names]
    result = run_script("ucr_benchmark.py", *args, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    # stdout is the score table alone: one line per dataset
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(names)
    assert all("macro-F1" in line for line in lines)
