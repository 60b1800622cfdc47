"""Every study script under scripts/ prints its usage; the studies also run small."""

import os
import subprocess
import sys
from pathlib import Path

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
