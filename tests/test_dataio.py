"""File formats: collection/matrix/split CSVs, archive rows, FASTA, JSON."""

import numpy as np
import pytest

from lowrank_ar.dataio import (
    read_collection_csv,
    read_csv,
    read_fasta,
    read_json,
    read_labels_csv,
    read_matrix_csv,
    read_split_csv,
    read_text_documents,
    read_ucr_file,
    write_collection_csv,
    write_csv,
    write_json,
    write_labels_csv,
    write_matrix_csv,
    write_split_csv,
)
from lowrank_ar.model import SequenceCollection

from conftest import make_collection


# ---------------------------------------------------------------- collections


def test_collection_round_trip_is_exact(rng, tmp_path):
    ragged = SequenceCollection(
        sequences=(
            rng.standard_normal((2, 9)),
            rng.standard_normal((2, 13)),
            rng.standard_normal((2, 7)),
        ),
        ids=("p", "q", "r"),
        labels=None,
        kind="real",
    )
    path = tmp_path / "coll.csv"
    write_collection_csv(ragged, path)
    back = read_collection_csv(path)
    assert back.ids == ragged.ids
    assert back.labels is None
    for a, b in zip(back.sequences, ragged.sequences):
        assert np.array_equal(a, b)


def test_collection_header_and_time_index(rng, tmp_path):
    coll = make_collection(rng, n=1, c=3, t_len=2)
    path = tmp_path / "coll.csv"
    write_collection_csv(coll, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,t,c1,c2,c3"
    assert lines[1].split(",")[:2] == ["s0", "1"]
    assert lines[2].split(",")[:2] == ["s0", "2"]


def test_collection_with_labels_sidecar(rng, tmp_path):
    coll = make_collection(rng, n=3, c=1, t_len=8, labels=(2, 0, 1))
    cpath, lpath = tmp_path / "coll.csv", tmp_path / "labels.csv"
    write_collection_csv(coll, cpath)
    write_labels_csv(coll.ids, coll.labels, lpath)
    back = read_collection_csv(cpath, labels_path=lpath)
    assert tuple(back.labels) == (2, 0, 1)
    assert read_labels_csv(lpath) == {"s0": 2, "s1": 0, "s2": 1}


def test_collection_kind_passthrough(rng, tmp_path):
    coll = make_collection(rng, n=2, c=2, t_len=6, kind="probability-simplex")
    path = tmp_path / "coll.csv"
    write_collection_csv(coll, path)
    back = read_collection_csv(path, kind="probability-simplex")
    assert back.kind == "probability-simplex"


def test_collection_and_labels_round_trip_through_blank_lines(rng, tmp_path):
    coll = make_collection(rng, n=3, c=2, t_len=4, labels=(1, 0, 1))
    cpath, lpath = tmp_path / "coll.csv", tmp_path / "labels.csv"
    write_collection_csv(coll, cpath)
    write_labels_csv(coll.ids, coll.labels, lpath)
    for path in (cpath, lpath):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\n\n")
    back = read_collection_csv(cpath, labels_path=lpath)
    assert back.ids == coll.ids and back.labels == coll.labels
    for a, b in zip(back.sequences, coll.sequences):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------- csv


def test_write_csv_formats_floats_and_stringifies_the_rest(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d", "e"], [[0.1, np.float64(-0.0), 3, np.int64(4), ""]])
    assert path.read_bytes() == b"a,b,c,d,e\r\n0.10000000000000001,-0,3,4,\r\n"
    header, rows = read_csv(path)
    assert header == ["a", "b", "c", "d", "e"]
    assert rows == [["0.10000000000000001", "-0", "3", "4", ""]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n3\n", "line 3: 1 fields where the header has 2"),
        ("a,b\n1,2\n\n3,x\n", "line 4: could not convert"),
        ("", "no header row"),
    ],
)
def test_read_csv_names_the_file_and_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.csv: {message}"):
        read_csv(path, lambda row: [float(v) for v in row])


# ---------------------------------------------------------------- matrices


def test_matrix_round_trip(rng, tmp_path):
    mat = rng.standard_normal((4, 3))
    path = tmp_path / "mat.csv"
    write_matrix_csv(mat, path, column_names=["a", "b", "c"])
    names, back = read_matrix_csv(path)
    assert names == ["a", "b", "c"]
    assert np.array_equal(back, mat)


def test_matrix_default_names_and_validation(rng, tmp_path):
    mat = rng.standard_normal((2, 2))
    path = tmp_path / "mat.csv"
    write_matrix_csv(mat, path)
    names, _ = read_matrix_csv(path)
    assert names == ["col_0", "col_1"]
    with pytest.raises(ValueError):
        write_matrix_csv(mat, path, column_names=["only_one"])


# ---------------------------------------------------------------- splits


def test_split_round_trip(tmp_path):
    path = tmp_path / "split.csv"
    write_split_csv(["a", "b", "c"], ["train", "test", "train"], path)
    assert read_split_csv(path) == {"a": "train", "b": "test", "c": "train"}


def test_split_rejects_unknown_role(tmp_path):
    with pytest.raises(ValueError):
        write_split_csv(["a"], ["validation"], tmp_path / "split.csv")


# ---------------------------------------------------------------- archive rows


def test_ucr_tab_separated(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("1\t0.5\t0.25\t-1.0\n2\t3.0\t4.0\t5.0\n")
    labels, series = read_ucr_file(path)
    assert labels == [1, 2]
    assert np.array_equal(series[0], [0.5, 0.25, -1.0])
    assert np.array_equal(series[1], [3.0, 4.0, 5.0])


def test_ucr_comma_separated_float_labels(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,0.5,0.25\n-1.0,2.0,3.0\n\n")
    labels, series = read_ucr_file(path)
    assert labels == [1, -1]
    assert len(series) == 2


def test_ucr_trailing_nan_trimmed(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("3\t1.0\t2.0\tNaN\tNaN\n")
    labels, series = read_ucr_file(path)
    assert labels == [3]
    assert np.array_equal(series[0], [1.0, 2.0])


def test_ucr_nan_inside_a_row_raises_naming_the_line(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("3\t1.0\t2.0\n1\t0.5\tNaN\t-1.0\tNaN\n")
    with pytest.raises(ValueError, match="data.tsv: line 2"):
        read_ucr_file(path)


@pytest.mark.parametrize(
    "text, labels, first",
    [
        ("1,,0.5, ,2.0,\n2,3.0,4.0\n", [1, 2], [0.5, 2.0]),
        (" 2 , 0.5 ,\t-1.25\t , 1e-3\n", [2], [0.5, -1.25, 1e-3]),
        ("1\t0.5\t0.25\r\n2\t3.0\t4.0\r\n\r\n", [1, 2], [0.5, 0.25]),
    ],
    ids=["blank-and-whitespace-cells-dropped", "spaces-around-cells", "crlf-line-ends"],
)
def test_ucr_cell_rules(tmp_path, text, labels, first):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    got_labels, series = read_ucr_file(path)
    assert got_labels == labels
    assert np.array_equal(series[0], first)


@pytest.mark.parametrize(
    "row",
    ["1\t0.5\tabc", "\t,\t", "inf\t0.5", "-inf\t0.5", "nan\t0.5", "1.5\t0.5", "-0.25\t0.5"],
    ids=["value-not-a-number", "only-separators", "label-inf", "label-minus-inf", "label-nan",
         "label-fractional", "label-negative-fractional"],
)
def test_ucr_bad_row_names_its_line(tmp_path, row):
    path = tmp_path / "data.tsv"
    path.write_text(f"1\t0.5\t0.25\n{row}\n")
    with pytest.raises(ValueError, match="data.tsv: line 2: "):
        read_ucr_file(path)


def test_ucr_empty_file_raises(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("\n\n")
    with pytest.raises(ValueError):
        read_ucr_file(path)


# ---------------------------------------------------------------- fasta


def test_fasta_parsing(tmp_path):
    path = tmp_path / "genomes.fa"
    path.write_text(
        ">seq1 first genome\nACGT\nACGT\n>seq2\nTTTT\n\n>seq3 third one here\nGG\n"
    )
    ids, descriptions, seqs = read_fasta(path)
    assert ids == ["seq1", "seq2", "seq3"]
    assert descriptions == ["first genome", "", "third one here"]
    assert seqs == ["ACGTACGT", "TTTT", "GG"]


def test_fasta_errors(tmp_path):
    stray = tmp_path / "bad.fa"
    stray.write_text("ACGT\n>seq1\nAC\n")
    with pytest.raises(ValueError, match="before any"):
        read_fasta(stray)
    empty_header = tmp_path / "bad2.fa"
    empty_header.write_text(">\nACGT\n")
    with pytest.raises(ValueError, match="header"):
        read_fasta(empty_header)
    empty = tmp_path / "bad3.fa"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no sequences"):
        read_fasta(empty)


# ---------------------------------------------------------------- documents


def test_read_text_documents_whole_files(tmp_path):
    (tmp_path / "one.txt").write_text("hello world")
    (tmp_path / "two.txt").write_text("second doc")
    ids, texts = read_text_documents([tmp_path / "one.txt", tmp_path / "two.txt"])
    assert ids == ["one", "two"]
    assert texts == ["hello world", "second doc"]


def test_read_text_documents_per_line(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("first line\n\nthird line\n")
    ids, texts = read_text_documents([path], per_line=True)
    assert ids == ["corpus_00000", "corpus_00002"]
    assert texts == ["first line", "third line"]


def test_read_text_documents_empty_raises(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("\n\n")
    with pytest.raises(ValueError):
        read_text_documents([path], per_line=True)


# ---------------------------------------------------------------- json


def test_json_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    obj = {"b": [1, 2.5, None], "a": {"nested": True}}
    write_json(obj, path)
    assert read_json(path) == obj
    text = path.read_text()
    # sorted keys and a trailing newline keep reruns byte-identical
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
