"""File formats: CSV for series and matrices, JSON for configs and metrics.

All CSV files are UTF-8 with a header row and '.' decimals. Floats are
written with repr-faithful %.17g so a write/read cycle is bitwise exact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from lowrank_ar.model import SequenceCollection

_FLOAT_FMT = "%.17g"


def _fmt(v: float) -> str:
    return _FLOAT_FMT % v


def write_collection_csv(collection: SequenceCollection, path) -> None:
    """One row per time step: id, t (1-indexed), then one column per channel."""
    c = collection.channel_count
    header = ["id", "t"] + [f"c{j + 1}" for j in range(c)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for seq_id, seq in zip(collection.ids, collection.sequences):
            for t in range(seq.shape[1]):
                writer.writerow([seq_id, t + 1] + [_fmt(v) for v in seq[:, t]])


def read_collection_csv(path, labels_path=None, kind: str = "real") -> SequenceCollection:
    """Inverse of write_collection_csv; rows must be grouped by id in order.

    Each id's t column must read 1, 2, ..., T, and a labels file must name
    every id; otherwise ValueError names the offending file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_channels = len(header) - 2
        if n_channels < 1:
            raise ValueError("collection CSV needs at least one channel column")
        order: list = []
        rows: dict = {}
        for row in reader:
            seq_id = row[0]
            if seq_id not in rows:
                rows[seq_id] = []
                order.append(seq_id)
            steps = rows[seq_id]
            if row[1] != str(len(steps) + 1):
                raise ValueError(
                    f"{path}: id {seq_id!r} has t = {row[1]} where t = {len(steps) + 1} "
                    "was expected (t must run 1..T in order)"
                )
            steps.append([float(v) for v in row[2:]])
    sequences = tuple(np.array(rows[sid]).T for sid in order)
    labels = None
    if labels_path is not None:
        by_id = read_labels_csv(labels_path)
        missing = [sid for sid in order if sid not in by_id]
        if missing:
            raise ValueError(f"{labels_path}: no label for id {missing[0]!r}")
        labels = tuple(by_id[sid] for sid in order)
    return SequenceCollection(
        sequences=sequences, ids=tuple(order), labels=labels, kind=kind
    )


def write_labels_csv(ids, labels, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for seq_id, label in zip(ids, labels):
            writer.writerow([seq_id, int(label)])


def read_labels_csv(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: int(row[1]) for row in reader}


def write_matrix_csv(matrix, path, column_names=None) -> None:
    """Dense matrix, one CSV row per matrix row, named columns."""
    matrix = np.asarray(matrix, dtype=float)
    if column_names is None:
        column_names = [f"col_{i}" for i in range(matrix.shape[1])]
    if len(column_names) != matrix.shape[1]:
        raise ValueError("one column name per matrix column required")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(column_names))
        for row in matrix:
            writer.writerow([_fmt(v) for v in row])


def read_matrix_csv(path) -> tuple[list, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        data = [[float(v) for v in row] for row in reader]
    return names, np.array(data, dtype=float)


def write_split_csv(ids, roles, path) -> None:
    """Sidecar marking each sequence 'train' or 'test'."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "role"])
        for seq_id, role in zip(ids, roles):
            if role not in ("train", "test"):
                raise ValueError(f"role must be 'train' or 'test', got {role!r}")
            writer.writerow([seq_id, role])


def read_split_csv(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: row[1] for row in reader}


def read_ucr_file(path) -> tuple[list, list]:
    """Archive-style rows: label, v1, ..., vT separated by tabs or commas.

    Returns (labels, series). Trailing NaN padding is trimmed per row; a row
    with no finite value, or with a non-finite value before its last finite
    one, raises ValueError naming the file and line.
    """
    labels: list = []
    series: list = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.replace("\t", ",").split(",")
            parts = [p for p in (s.strip() for s in parts) if p]
            labels.append(int(float(parts[0])))
            values = np.array([float(v) for v in parts[1:]])
            finite = np.isfinite(values)
            if not finite.any():
                raise ValueError(f"{path}: line {line_no} has no finite values")
            if not finite.all():
                values = values[: int(np.nonzero(finite)[0][-1]) + 1]
                if not np.isfinite(values).all():
                    raise ValueError(f"{path}: line {line_no} has a non-finite value "
                                     "inside the series")
            series.append(values)
    if not labels:
        raise ValueError(f"no data rows in {path}")
    return labels, series


def read_fasta(path) -> tuple[list, list, list]:
    """Header lines '>id [description]' introduce each sequence.

    Returns (ids, descriptions, sequences); description is '' when absent.
    """
    ids: list = []
    descriptions: list = []
    chunks: list = []
    current: list | None = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                head = line[1:].split(None, 1)
                if not head:
                    raise ValueError("empty FASTA header")
                ids.append(head[0])
                descriptions.append(head[1] if len(head) > 1 else "")
                current = []
                chunks.append(current)
            else:
                if current is None:
                    raise ValueError("sequence data before any FASTA header")
                current.append(line)
    if not ids:
        raise ValueError(f"no sequences in {path}")
    return ids, descriptions, ["".join(c) for c in chunks]


def read_text_documents(paths, per_line: bool = False) -> tuple[list, list]:
    """One document per file, or per nonblank line with per_line=True."""
    ids: list = []
    texts: list = []
    for path in paths:
        path = Path(path)
        raw = path.read_text(encoding="utf-8", errors="replace")
        if per_line:
            for i, line in enumerate(raw.splitlines()):
                if line.strip():
                    ids.append(f"{path.stem}_{i:05d}")
                    texts.append(line)
        else:
            ids.append(path.stem)
            texts.append(raw)
    if not texts:
        raise ValueError("no documents found")
    return ids, texts


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
