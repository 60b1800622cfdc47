"""File formats: CSV for series, matrices and run records, JSON for configs and metrics.

This is the only module that writes a file format; every CSV the package
writes goes through write_csv and every CSV it reads back through read_csv.
All CSV files are UTF-8 with a header row, '.' decimals and csv.writer's
CRLF line ends. Floats are written with repr-faithful %.17g so a
write/read cycle is bitwise exact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from lowrank_ar.model import SequenceCollection

_FLOAT_FMT = "%.17g"


def write_csv(path, header, rows) -> None:
    """A header row, then one line per row: floats (numpy's too) as %.17g, other cells by str."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [_FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row] for row in rows
        )


def read_csv(path, parse=list) -> tuple[list, list]:
    """(header, [parse(row) for each row]) of a CSV file with a header row.

    Blank rows are skipped. A row whose width differs from the header's, or
    that parse rejects with ValueError, raises ValueError naming the file
    and line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no header row")
        rows = []
        for row in reader:
            if not "".join(row).strip():
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields where the header has {len(header)}")
                rows.append(parse(row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return header, rows


def write_collection_csv(collection: SequenceCollection, path) -> None:
    """One row per time step: id, t (1-indexed), then one column per channel."""
    header = ["id", "t"] + [f"c{j + 1}" for j in range(collection.channel_count)]
    write_csv(path, header, (
        [seq_id, t] + values
        for seq_id, seq in zip(collection.ids, collection.sequences)
        for t, values in enumerate(seq.T.tolist(), start=1)
    ))


def read_collection_csv(path, labels_path=None, kind: str = "real") -> SequenceCollection:
    """Inverse of write_collection_csv; rows must be grouped by id in order.

    Each id's t column must read 1, 2, ..., T, and a labels file must name
    every id; otherwise ValueError names the offending file.
    """
    header, table = read_csv(path, lambda row: (row[0], row[1], [float(v) for v in row[2:]]))
    if len(header) < 3:
        raise ValueError("collection CSV needs at least one channel column")
    rows: dict = {}
    for seq_id, t, values in table:
        steps = rows.setdefault(seq_id, [])
        if t != str(len(steps) + 1):
            raise ValueError(
                f"{path}: id {seq_id!r} has t = {t} where t = {len(steps) + 1} "
                "was expected (t must run 1..T in order)"
            )
        steps.append(values)
    order = list(rows)
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
    write_csv(path, ["id", "label"], ([seq_id, int(label)] for seq_id, label in zip(ids, labels)))


def read_labels_csv(path) -> dict:
    return dict(read_csv(path, lambda row: (row[0], int(row[1])))[1])


def write_matrix_csv(matrix, path, column_names=None) -> None:
    """Dense matrix, one CSV row per matrix row, named columns."""
    matrix = np.asarray(matrix, dtype=float)
    if column_names is None:
        column_names = [f"col_{i}" for i in range(matrix.shape[1])]
    if len(column_names) != matrix.shape[1]:
        raise ValueError("one column name per matrix column required")
    write_csv(path, list(column_names), matrix.tolist())


def read_matrix_csv(path) -> tuple[list, np.ndarray]:
    names, rows = read_csv(path, lambda row: [float(v) for v in row])
    return names, np.array(rows, dtype=float)


def write_split_csv(ids, roles, path) -> None:
    """Sidecar marking each sequence 'train' or 'test'."""
    roles = list(roles)
    for role in roles:
        if role not in ("train", "test"):
            raise ValueError(f"role must be 'train' or 'test', got {role!r}")
    write_csv(path, ["id", "role"], zip(ids, roles))


def read_split_csv(path) -> dict:
    return dict(read_csv(path, lambda row: (row[0], row[1]))[1])


def write_history_csv(history, path) -> None:
    """One row per solver iteration of a SolverState's history."""
    write_csv(path, ["iter", "loss", "field_norm", "kappa", "gamma", "backtracks"], (
        [rec.iteration, rec.loss, rec.field_norm, rec.kappa, rec.gamma, rec.backtracks]
        for rec in history
    ))


def read_ucr_file(path) -> tuple[list, list]:
    """Archive-style rows: label, v1, ..., vT separated by tabs or commas.

    Returns (labels, series). Each row is one float conversion of its cells,
    which parses a cell as float() does, spaces around it included; blank
    and whitespace-only cells are dropped. The label must be a finite
    integral number (1, 1.0, -1). Trailing NaN padding is trimmed per row. A
    row with a cell that is not a number, a label that is not a finite
    integer, no finite value, or a non-finite value before its last finite
    one, raises ValueError naming the file and line.
    """
    labels: list = []
    series: list = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.replace("\t", ",").split(",")
            try:
                try:
                    row = np.array(cells, dtype=float)
                except ValueError:  # a blank cell, or one that is not a number
                    row = np.array([c for c in cells if c.strip()], dtype=float)
                if row.size == 0:
                    raise ValueError("no cells between the separators")
                if not float(row[0]).is_integer():
                    raise ValueError(f"label {float(row[0])} is not a finite integer")
                values = row[1:]
                finite = np.isfinite(values)
                if not finite.any():
                    raise ValueError("no finite values")
                if not finite.all():
                    values = values[: int(np.nonzero(finite)[0][-1]) + 1]
                    if not np.isfinite(values).all():
                        raise ValueError("a non-finite value inside the series")
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            labels.append(int(row[0]))
            series.append(values)
    if not labels:
        raise ValueError(f"no data rows in {path}")
    return labels, series


def read_fasta(path) -> tuple[list, list, list]:
    """Header lines '>id [description]' introduce each sequence.

    Returns (ids, descriptions, sequences); description is '' when absent.
    An empty header or data before the first one is a ValueError naming the line.
    """
    ids: list = []
    descriptions: list = []
    chunks: list = []
    current: list | None = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                head = line[1:].split(None, 1)
                if not head:
                    raise ValueError(f"{path}: line {line_no}: empty FASTA header")
                ids.append(head[0])
                descriptions.append(head[1] if len(head) > 1 else "")
                current = []
                chunks.append(current)
            else:
                if current is None:
                    raise ValueError(f"{path}: line {line_no}: data before any FASTA header")
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
