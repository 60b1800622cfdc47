"""Shared builders for the test suite."""

import numpy as np
import pytest

from lowrank_ar.field import EmpiricalField, FieldSpec
from lowrank_ar.model import LinkFunction, SequenceCollection


def make_collection(rng, n=4, c=1, t_len=30, labels=None, kind="real"):
    """Random real-valued collection with string ids s0, s1, ..."""
    if kind == "probability-simplex":
        raw = [rng.uniform(0.1, 1.0, size=(c, t_len)) for _ in range(n)]
        seqs = tuple(a / a.sum(axis=0, keepdims=True) for a in raw)
    else:
        seqs = tuple(rng.standard_normal((c, t_len)) for _ in range(n))
    return SequenceCollection(
        sequences=seqs,
        ids=tuple(f"s{i}" for i in range(n)),
        labels=labels,
        kind=kind,
    )


def make_evaluator(rng, n=4, c=1, t_len=30, d=2, link="identity"):
    kind = "probability-simplex" if link == "softmax" else "real"
    coll = make_collection(rng, n=n, c=c, t_len=t_len, kind=kind)
    spec = FieldSpec(link=LinkFunction(link), order=d)
    return EmpiricalField(coll, spec)


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def factor_counter(monkeypatch):
    """Counts batched np.linalg.eigh calls (a 3-D stack, the per-sequence
    Grams) and every np.linalg.lstsq call; the ball projection's 2-D eigh
    is not a factorisation of the slice set."""
    calls = {"eigh": 0, "lstsq": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            if _name != "eigh" or np.ndim(a) == 3:
                calls[_name] += 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
