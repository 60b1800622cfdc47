"""Huffman coding, nucleotide and signal encoders."""

import itertools
import string
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_ar.encoders import (
    DEFAULT_SYMBOL_CUTOFF,
    HUFFMAN_ARITY,
    UNCOMMON_PUNCTUATION,
    HuffmanCode,
    build_huffman,
    clean_text,
    corpus_frequencies,
    decode_symbols,
    encode_corpus,
    encode_genomes,
    encode_nucleotides,
    encode_signals,
    encode_text,
    one_hot,
    znormalize,
)
from lowrank_ar.model import SequenceCollection
from lowrank_ar.study import znorm


def optimal_expected_length(freqs, arity):
    """Brute force over Kraft-feasible length vectors (tiny alphabets only).

    Any length vector with sum arity^-l_i <= 1 is realizable as a prefix
    code, so the minimum weighted length over that set is the optimum.
    """
    weights = list(freqs.values())
    n = len(weights)
    best = float("inf")
    for lengths in itertools.product(range(1, n + 1), repeat=n):
        if sum(arity ** -l for l in lengths) <= 1.0 + 1e-12:
            best = min(best, sum(w * l for w, l in zip(weights, lengths)))
    return best


def code_expected_length(code, freqs):
    return sum(w * len(code.codebook[ch]) for ch, w in freqs.items())


# ---------------------------------------------------------------- reference oracles
# Per-character loops, kept as the specification the vectorised encoders must match.


def clean_text_oracle(text):
    return "".join(ch for ch in text if ord(ch) < 128 and ch not in UNCOMMON_PUNCTUATION).lower()


def corpus_frequencies_oracle(texts):
    counts = {}
    for text in texts:
        for ch in text:
            counts[ch] = counts.get(ch, 0) + 1
    return counts


def encode_text_oracle(text, code):
    if not text:
        raise ValueError("text must be nonempty")
    try:
        coded = "".join(code.codebook[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"character {exc.args[0]!r} missing from codebook") from None
    return np.frombuffer(coded.encode("ascii"), dtype=np.int8) - ord("0")


def encode_symbolic_oracle(text, code, cutoff):
    """One document's one-hot channels, or None where encode_corpus drops it."""
    if not text:
        return None
    symbols = encode_text_oracle(text, code)
    if cutoff is not None:
        if symbols.size < cutoff:
            return None
        symbols = symbols[:cutoff]
    out = np.zeros((code.arity, symbols.size))
    for t, s in enumerate(symbols):
        out[s, t] = 1.0
    return out


def encode_corpus_oracle(texts, code, cutoff):
    """(id, dtype, shape, layout, bytes) of each sequence encode_corpus keeps, one document
    at a time, or the ValueError it raises."""
    try:
        kept = [(str(i), encode_symbolic_oracle(text, code, cutoff)) for i, text in enumerate(texts)]
    except ValueError as exc:
        return ValueError, str(exc)
    kept = [(i, seq) for i, seq in kept if seq is not None]
    if not kept:
        return ValueError, "no document reached the cutoff length"
    return [(i, seq.dtype, seq.shape, seq.flags.c_contiguous, seq.tobytes()) for i, seq in kept]


def corpus_outcome(texts, code, cutoff):
    """What encode_corpus gives on texts with ids 0, 1, ..., as encode_corpus_oracle does."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coll = encode_corpus(texts, [str(i) for i in range(len(texts))], code, cutoff=cutoff)
    except ValueError as exc:
        return ValueError, str(exc)
    return [(i, seq.dtype, seq.shape, seq.flags.c_contiguous, seq.tobytes())
            for i, seq in zip(coll.ids, coll.sequences)]


IUPAC_ORACLE = {
    "A": "A", "C": "C", "G": "G", "T": "T", "U": "T",
    "R": "AG", "Y": "CT", "S": "CG", "W": "AT", "K": "GT", "M": "AC",
    "B": "CGT", "D": "AGT", "H": "ACT", "V": "ACG", "N": "ACGT",
}


def encode_nucleotides_oracle(genome_text):
    if not genome_text:
        raise ValueError("genome text must be nonempty")
    out = np.zeros((4, len(genome_text)))
    for t, raw in enumerate(genome_text):
        members = IUPAC_ORACLE.get(raw.upper())
        if members is None:
            raise ValueError(f"non-IUPAC character {raw!r} at position {t}")
        for base in members:
            out["ACTG".index(base), t] = 1.0 / len(members)
    return out


def outcome(fn, *args):
    """What fn(*args) gives: an array's dtype, shape, layout and bytes, any other value, or
    the type and message of what it raises."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.flags.c_contiguous, value.tobytes()
    return value


# Any code point, lone surrogates included, with the characters the encoders single out
# (uncommon punctuation, upper case, U+017F whose upper case is "S") drawn more often.
ANY_CHAR = st.one_of(
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
    st.sampled_from(UNCOMMON_PUNCTUATION),
    st.sampled_from("aZ .,\u017f\u00e9\u00c4\u0130\u212a"),
)
IUPAC_CHAR = st.sampled_from("".join(IUPAC_ORACLE) + "".join(IUPAC_ORACLE).lower() + "\u017f")


# ---------------------------------------------------------------- huffman


def test_binary_huffman_known_lengths():
    code = build_huffman({"a": 5, "b": 2, "c": 1, "d": 1}, arity=2)
    lengths = {ch: len(w) for ch, w in code.codebook.items()}
    assert lengths == {"a": 1, "b": 2, "c": 3, "d": 3}


def test_quaternary_four_symbols_all_length_one():
    code = build_huffman({"a": 4, "b": 3, "c": 2, "d": 1}, arity=4)
    assert sorted(code.codebook.values()) == ["0", "1", "2", "3"]


def test_quaternary_five_symbols_lengths():
    code = build_huffman({"a": 10, "b": 8, "c": 6, "d": 4, "e": 2}, arity=4)
    lengths = {ch: len(w) for ch, w in code.codebook.items()}
    # two dummy leaves pad the first merge, so the two lightest go deep
    assert lengths == {"a": 1, "b": 1, "c": 1, "d": 2, "e": 2}


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_huffman_is_optimal_on_tiny_alphabets(arity):
    tables = [
        {"a": 5, "b": 2, "c": 1, "d": 1},
        {"a": 1, "b": 1, "c": 1},
        {"a": 9, "b": 7, "c": 5, "d": 3, "e": 1},
        {"a": 1, "b": 100},
    ]
    for freqs in tables:
        code = build_huffman(freqs, arity=arity)
        assert code_expected_length(code, freqs) == pytest.approx(
            optimal_expected_length(freqs, arity)
        )


def test_build_huffman_validation():
    with pytest.raises(ValueError):
        build_huffman({})
    with pytest.raises(ValueError):
        build_huffman({"a": 1})
    with pytest.raises(ValueError):
        build_huffman({"a": 1, "b": 0})
    with pytest.raises(ValueError):
        build_huffman({"a": 1, "b": 1}, arity=1)


def test_code_validation():
    with pytest.raises(ValueError, match="prefix"):
        HuffmanCode(codebook={"a": "0", "b": "01"}, arity=2)
    with pytest.raises(ValueError, match="digits"):
        HuffmanCode(codebook={"a": "0", "b": "2"}, arity=2)
    with pytest.raises(ValueError, match="arity"):
        HuffmanCode(codebook={"a": "0"}, arity=1)
    with pytest.raises(ValueError):
        HuffmanCode(codebook={}, arity=2)
    code = HuffmanCode(codebook={"a": "0", "b": "10", "c": "11"}, arity=2)
    assert code.kraft_sum() == pytest.approx(1.0)
    assert code.max_len() == 2


def test_corpus_frequencies():
    assert corpus_frequencies(["aab", "bc"]) == {"a": 2, "b": 2, "c": 1}
    assert list(corpus_frequencies(["cab", "ba"])) == ["a", "b", "c"]
    assert corpus_frequencies(iter(["", "a\U0010ffff"])) == {"a": 1, "\U0010ffff": 1}


def test_clean_text():
    assert clean_text("Héllo <W>orld!") == "hllo world"
    assert clean_text("AbC") == "abc"
    assert clean_text('a"b#c') == "abc"


@settings(max_examples=200, deadline=None)
@given(text=st.text(ANY_CHAR, max_size=60))
def test_clean_text_matches_oracle(text):
    assert clean_text(text) == clean_text_oracle(text)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.text(ANY_CHAR, max_size=40), max_size=5))
def test_corpus_frequencies_matches_oracle(texts):
    freqs = corpus_frequencies(texts)
    assert freqs == corpus_frequencies_oracle(texts)
    assert all(type(n) is int for n in freqs.values())
    assert list(freqs) == sorted(freqs)  # code-point order


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.text(ANY_CHAR, min_size=2, max_size=40), min_size=1, max_size=4))
def test_codebook_does_not_depend_on_count_order(texts):
    freqs = corpus_frequencies(texts)
    if len(freqs) >= 2:
        assert build_huffman(freqs).codebook == build_huffman(corpus_frequencies_oracle(texts)).codebook


# ---------------------------------------------------------------- round trips


def test_encode_decode_round_trip():
    text = "the quick brown fox jumps over the lazy dog"
    code = build_huffman(corpus_frequencies([text]))
    symbols = encode_text(text, code)
    assert symbols.dtype == np.int8
    assert decode_symbols(symbols, code) == text


def test_encode_text_missing_character():
    code = build_huffman({"a": 1, "b": 1}, arity=2)
    with pytest.raises(ValueError, match="missing"):
        encode_text("abc", code)
    with pytest.raises(ValueError):
        encode_text("", code)


@settings(max_examples=200, deadline=None)
@given(
    corpus=st.lists(st.text(ANY_CHAR, min_size=1, max_size=30), min_size=1, max_size=3),
    data=st.data(),
)
def test_encode_text_and_symbolic_match_oracles(corpus, data):
    freqs = corpus_frequencies_oracle(corpus + ["ab"])
    code = build_huffman(freqs)
    known = st.sampled_from(sorted(freqs))
    text = data.draw(st.text(st.one_of(known, known, known, ANY_CHAR), max_size=60))
    cutoff = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=80)))
    assert outcome(encode_text, text, code) == outcome(encode_text_oracle, text, code)
    # empty documents, documents below the cutoff, and characters missing anywhere
    texts = [text] + data.draw(
        st.lists(st.text(st.one_of(known, known, known, ANY_CHAR), max_size=60), max_size=3)
    )
    assert corpus_outcome(texts, code, cutoff) == encode_corpus_oracle(texts, code, cutoff)


def test_encode_corpus_codes_characters_above_the_bmp():
    code = build_huffman({"a": 3, "\U0001f600": 2, "b": 1, "\U0010ffff": 1, "\ud800": 1})
    texts = ["a\U0001f600b\ud800" * 20, "\U0010ffff" * 30, "b\U0001f600"]
    assert max(map(ord, code.codebook)) > 0xFFFF
    for cutoff in (None, 1, 7, 40):
        assert corpus_outcome(texts, code, cutoff) == encode_corpus_oracle(texts, code, cutoff)
    for text in texts:
        assert outcome(encode_text, text, code) == outcome(encode_text_oracle, text, code)
    missing = texts + ["ab\U0001f601"]
    assert corpus_outcome(missing, code, 1) == (ValueError, "character '\U0001f601' missing from codebook")
    assert corpus_outcome(missing, code, 1) == encode_corpus_oracle(missing, code, 1)


def test_encode_symbolic_checks_characters_past_the_cutoff():
    code = build_huffman({"a": 1, "b": 1}, arity=2)
    for text, shown in (("ab" * 10 + "c", "'c' missing"), ("ab" * 10 + "dcd", "'d' missing")):
        with pytest.raises(ValueError, match=shown):
            encode_corpus([text], ["t"], code, cutoff=5)
        assert encode_corpus_oracle([text], code, 5) == (ValueError, f"character {shown} from codebook")
    # the first document holding a missing character raises, whatever documents come before
    with pytest.raises(ValueError, match="'c' missing"):
        encode_corpus(["", "a", "ab" * 10, "abc"], ["e", "s", "x", "y"], code, cutoff=5)


def test_decode_scans_the_codebook_once(monkeypatch):
    code = build_huffman({"a": 3, "b": 2, "c": 1, "d": 1, "e": 1}, arity=2)
    symbols = encode_text("abcde" * 20, code)
    calls = []
    original = HuffmanCode.max_len
    monkeypatch.setattr(HuffmanCode, "max_len", lambda self: calls.append(1) or original(self))
    assert decode_symbols(symbols, code) == "abcde" * 20
    assert len(calls) == 1


def test_decode_rejects_unmatched_and_trailing():
    code = HuffmanCode(codebook={"a": "0", "b": "10"}, arity=2)
    with pytest.raises(ValueError, match="does not match"):
        decode_symbols([1, 1, 1], code)
    with pytest.raises(ValueError, match="trailing"):
        decode_symbols([0, 1], code)


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=8),
    arity=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_random_tables_round_trip_and_kraft(weights, arity, data):
    alphabet = string.ascii_lowercase[: len(weights)]
    code = build_huffman(dict(zip(alphabet, weights)), arity=arity)
    assert code.kraft_sum() <= 1.0 + 1e-12
    text = data.draw(st.text(alphabet=alphabet, min_size=1, max_size=40))
    assert decode_symbols(encode_text(text, code), code) == text


# ---------------------------------------------------------------- one-hot, corpus


def test_one_hot_layout():
    out = one_hot([0, 3, 1], arity=4)
    expected = np.zeros((4, 3))
    expected[0, 0] = expected[3, 1] = expected[1, 2] = 1.0
    assert np.array_equal(out, expected)


def test_one_hot_validation():
    with pytest.raises(ValueError):
        one_hot([], arity=4)
    with pytest.raises(ValueError):
        one_hot([[0, 1]], arity=4)
    with pytest.raises(ValueError):
        one_hot([0, 4], arity=4)
    with pytest.raises(ValueError):
        one_hot([-1], arity=4)


def test_encode_symbolic_cutoff():
    code = build_huffman({"a": 1, "b": 1}, arity=2)
    (seq,) = encode_corpus(["ab" * 30], ["t"], code, cutoff=50).sequences
    assert seq.shape == (2, 50)
    assert np.array_equal(seq.sum(axis=0), np.ones(50))
    with pytest.raises(ValueError, match="no document reached the cutoff length"):
        encode_corpus(["ab"], ["t"], code, cutoff=50)
    (full,) = encode_corpus(["ab"], ["t"], code, cutoff=None).sequences
    assert full.shape[1] == encode_text("ab", code).size
    for cutoff in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            encode_corpus(["ab" * 30], ["t"], code, cutoff=cutoff)


def test_encode_corpus_drops_short_documents():
    code = build_huffman({"a": 1, "b": 1}, arity=2)
    texts = ["ab" * 40, "a", "ba" * 40]
    with pytest.warns(UserWarning, match=r"dropped 1 document\(s\) coded to fewer than 60 symbols: y$"):
        coll = encode_corpus(texts, ids=["x", "y", "z"], code=code, labels=[0, 1, 2], cutoff=60)
    assert tuple(coll.ids) == ("x", "z")
    assert tuple(coll.labels) == (0, 2)
    assert coll.kind == "probability-simplex"
    assert all(seq.shape == (2, 60) for seq in coll.sequences)


def test_encode_corpus_warning_names_the_first_five_dropped():
    code = build_huffman({"a": 1, "b": 1}, arity=2)
    ids = [f"d{i}" for i in range(8)]
    with pytest.warns(UserWarning, match=r"dropped 7 document\(s\).*: d1, d2, d3, d4, d5, \.\.\.$"):
        encode_corpus(["ab" * 10] + ["a"] * 7, ids=ids, code=code, cutoff=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        encode_corpus(["ab" * 10, "ba" * 10], ids=["x", "y"], code=code, cutoff=10)


def test_encode_corpus_drops_empty_documents():
    code = build_huffman({"a": 1, "b": 1}, arity=2)
    for cutoff, least in ((10, 10), (None, 1)):
        shown = rf"dropped 1 document\(s\) coded to fewer than {least} symbols: e$"
        with pytest.warns(UserWarning, match=shown):
            coll = encode_corpus(["ab" * 10, ""], ids=["x", "e"], code=code, cutoff=cutoff)
        assert tuple(coll.ids) == ("x",)


@pytest.mark.parametrize(
    "ids, labels, shown",
    [
        (["x", "y"], None, "2 ids for 3 texts"),
        (["x", "y", "z", "w"], None, "4 ids for 3 texts"),
        (["x", "y", "z"], [0, 1], "2 labels for 3 texts"),
    ],
    ids=["ids-short", "ids-long", "labels-short"],
)
def test_encode_corpus_rejects_ids_or_labels_of_another_length(ids, labels, shown):
    code = build_huffman({"a": 1, "b": 1}, arity=2)
    with pytest.raises(ValueError, match=shown):
        encode_corpus(["ab" * 10, "ba" * 10, "ab" * 10], ids, code, labels=labels, cutoff=10)


def test_encode_corpus_all_short_raises():
    code = build_huffman({"a": 1, "b": 1}, arity=2)
    with pytest.raises(ValueError, match="cutoff"):
        encode_corpus(["a", "b"], ids=["x", "y"], code=code, cutoff=100)


# ---------------------------------------------------------------- nucleotides


def test_nucleotide_channel_order():
    out = encode_nucleotides("ACTG")
    assert np.array_equal(out, np.eye(4))


def test_nucleotide_ambiguity_codes():
    out = encode_nucleotides("NRU")
    assert np.array_equal(out[:, 0], [0.25, 0.25, 0.25, 0.25])
    # R = A or G, channels are ordered A, C, T, G
    assert np.array_equal(out[:, 1], [0.5, 0.0, 0.0, 0.5])
    assert np.array_equal(out[:, 2], [0.0, 0.0, 1.0, 0.0])


def test_nucleotide_case_and_errors():
    assert np.array_equal(encode_nucleotides("acgt"), encode_nucleotides("ACGT"))
    with pytest.raises(ValueError, match="non-IUPAC"):
        encode_nucleotides("ACX")
    with pytest.raises(ValueError):
        encode_nucleotides("")


@settings(max_examples=200, deadline=None)
@given(
    genome=st.text(IUPAC_CHAR, max_size=50),
    insert=st.one_of(st.none(), st.tuples(st.integers(min_value=0), ANY_CHAR)),
)
def test_encode_nucleotides_matches_oracle(genome, insert):
    if insert is not None:
        at = insert[0] % (len(genome) + 1)
        genome = genome[:at] + insert[1] + genome[at:]
    assert outcome(encode_nucleotides, genome) == outcome(encode_nucleotides_oracle, genome)


def test_nucleotide_columns_sum_to_one(rng):
    letters = "ACGTURYSWKMBDHVN"
    text = "".join(rng.choice(list(letters), size=200))
    out = encode_nucleotides(text)
    assert np.allclose(out.sum(axis=0), 1.0, atol=1e-15)


def test_encode_genomes_collection():
    coll = encode_genomes(["ACGT", "TTAA"], ids=["g1", "g2"], labels=[0, 1])
    assert coll.kind == "probability-simplex"
    assert coll.n_sequences == 2
    assert tuple(coll.labels) == (0, 1)


# ---------------------------------------------------------------- signals


def signal_oracle(series, normalize=True):
    """(2, T) channels of one series, one reduction per channel row, as encode_signals once did."""
    x = np.asarray(series, dtype=float)
    out = np.stack([x, np.concatenate([[0.0], np.diff(x)])])
    if not normalize:
        return out
    centred = out - out.mean(axis=1, keepdims=True)
    std = np.sqrt(np.mean(centred * centred, axis=1, keepdims=True))
    flat = (out == out[:, :1]).all(axis=1, keepdims=True)
    return centred / np.where(flat, 1.0, std)


def encode_one(series, normalize=True):
    return encode_signals([series], ids=["s"], normalize=normalize).sequences[0]


def test_signal_with_diff_channels():
    out = encode_one([1.0, 2.0, 4.0, 7.0], normalize=False)
    assert np.array_equal(out[0], [1.0, 2.0, 4.0, 7.0])
    assert np.array_equal(out[1], [0.0, 1.0, 2.0, 3.0])


def test_signal_normalization():
    out = encode_one([1.0, 2.0, 4.0, 7.0])
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-12)


def test_signal_zero_variance_warns():
    with pytest.warns(UserWarning, match="zero-variance"):
        out = encode_one([3.0, 3.0, 3.0])
    assert np.array_equal(out[0], np.zeros(3))


def _ragged_from_padded_rows(rng):
    """Rows of a NaN-padded archive file, trimmed as read_ucr_file trims them."""
    rows = rng.standard_normal((9, 40)) * rng.uniform(0.1, 50.0, size=(9, 1))
    for i, keep in enumerate([40, 17, 40, 2, 17, 33, 40, 2, 9]):
        rows[i, keep:] = np.nan
    return [row[np.isfinite(row)] for row in rows]


@pytest.mark.parametrize("case", ["equal-length", "ragged", "not-normalized", "constant-series"])
def test_encode_signals_equals_the_per_series_oracle_bit_for_bit(case):
    rng = np.random.default_rng(30)
    if case == "ragged":
        series = _ragged_from_padded_rows(rng)
    else:
        series = list(rng.standard_normal((12, 64)) * 7.0 + 3.0)
    if case == "constant-series":
        series[4] = np.full(64, 0.1)  # its computed spread is about 1.4e-17, not 0
    normalize = case != "not-normalized"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coll = encode_signals(series, ids=[str(i) for i in range(len(series))], normalize=normalize)
    for got, x in zip(coll.sequences, series):
        want = signal_oracle(x, normalize=normalize)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_encode_signals_warns_once_per_call_counting_flat_series():
    series = [np.full(5, 2.0), np.arange(5.0), np.full(3, -1.0), np.arange(3.0) ** 2]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        encode_signals(series, ids=["a", "b", "c", "d"])
    assert [str(w.message) for w in caught] == [
        "zero-variance channel left unscaled in 2 of 4 series"
    ]


def test_znormalize_reduces_each_row_of_a_block_as_it_would_alone():
    block = np.random.default_rng(3).standard_normal((5, 2, 37)) * 11.0
    out = znormalize(block)
    for got, seq in zip(out, block):
        assert got.tobytes() == znormalize(seq).tobytes()


def test_znormalize_centres_constant_rows_without_scaling():
    # a row of 0.1s has a computed spread of about 1.4e-17, not 0
    rows = np.stack([np.full(128, 0.1), np.arange(128.0)])
    with pytest.warns(UserWarning, match="zero-variance"):
        out = znormalize(rows)
    assert np.all(np.abs(out[0]) <= 1e-15)
    assert out[1].std() == pytest.approx(1.0, rel=1e-12)


def test_study_znorm_is_the_shared_normalisation():
    ramp = np.sqrt(np.arange(50.0) + 6)  # the spread of its centred copy differs in the last bit
    coll = SequenceCollection(sequences=[np.full(50, 2.5), ramp], ids=["flat", "ramp"])
    with pytest.warns(UserWarning, match="zero-variance"):
        out = znorm(coll)
    assert np.array_equal(out.sequences[0], np.zeros((1, 50)))
    # bit for bit the per-sequence standardisation the study has always used
    assert np.array_equal(out.sequences[1][0], (ramp - ramp.mean()) / ramp.std())


def test_signal_length_check():
    with pytest.raises(ValueError, match="length at least 2"):
        encode_one([1.0])


def test_encode_signals_collection():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coll = encode_signals([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]], ids=["a", "b"])
    assert coll.kind == "real"
    assert all(seq.shape == (2, 3) for seq in coll.sequences)


def test_module_constants():
    assert HUFFMAN_ARITY == 4
    assert DEFAULT_SYMBOL_CUTOFF == 1000
