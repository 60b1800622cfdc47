"""Encoders turning raw text, genomes, and signals into sequence collections.

Three encoding families:

* character text -> 4-ary Huffman symbol stream -> one-hot simplex channels.
  clean_text drops non-ASCII characters and UNCOMMON_PUNCTUATION and
  lower-cases; build_huffman codes the corpus character counts; with a
  cutoff, each document keeps its first `cutoff` symbols, and
  encode_corpus drops empty and shorter documents with a warning,
* nucleotide text -> 4 channels (A, C, T, G order) with ambiguity codes
  spreading equiprobable mass over their nucleotide sets,
* univariate real signal -> 2 channels (signal, first difference).

Text and genomes go through str and numpy operations that run in C; the
tests keep per-character loops as their reference.

Symbolic outputs are probability columns, so downstream models can use the
softmax link; the collections carry kind="probability-simplex" accordingly.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from lowrank_ar.model import SequenceCollection

HUFFMAN_ARITY = 4
DEFAULT_SYMBOL_CUTOFF = 1000
_DROPPED_IDS_SHOWN = 5  # ids named by encode_corpus's warning about dropped documents

# Stripped by clean_text along with non-ASCII characters.
UNCOMMON_PUNCTUATION = '<>`=|?&[]*~!#@"'

_PUNCTUATION_DELETION = str.maketrans("", "", UNCOMMON_PUNCTUATION)

_NUCLEOTIDE_ORDER = "ACTG"

# Ambiguity codes expand to equiprobable mass over their nucleotide sets.
_IUPAC_SETS = {
    "A": "A", "C": "C", "G": "G", "T": "T", "U": "T",
    "R": "AG", "Y": "CT", "S": "CG", "W": "AT", "K": "GT", "M": "AC",
    "B": "CGT", "D": "AGT", "H": "ACT", "V": "ACG", "N": "ACGT",
}


def _iupac_table() -> np.ndarray:
    """(4, 128) channel masses per ASCII code point; all-zero columns are not IUPAC."""
    table = np.zeros((4, 128))
    for code, members in _IUPAC_SETS.items():
        for letter in (code, code.lower()):
            for base in members:
                table[_NUCLEOTIDE_ORDER.index(base), ord(letter)] = 1.0 / len(members)
    return table


_IUPAC_TABLE = _iupac_table()
_IUPAC_VALID = _IUPAC_TABLE.any(axis=0)
_NOT_IUPAC = 127  # DEL: a column of _IUPAC_TABLE that is all zero


def _code_points(text: str) -> np.ndarray:
    """Read-only uint32 code points of text, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


class SequenceTooShortError(ValueError):
    """Input produced fewer coded symbols than the configured cutoff."""


@dataclass(frozen=True)
class HuffmanCode:
    """Prefix-free code over symbols {0..arity-1}, one codeword per character."""

    codebook: dict
    frequency_table: dict
    arity: int = HUFFMAN_ARITY

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise ValueError("arity must be at least 2")
        if not self.codebook:
            raise ValueError("codebook must be nonempty")
        words = sorted(self.codebook.values())
        digits = set("".join(words))
        allowed = {str(i) for i in range(self.arity)}
        if not digits <= allowed:
            raise ValueError(f"codewords use digits outside {sorted(allowed)}")
        for shorter, longer in zip(words, words[1:]):
            if longer.startswith(shorter):
                raise ValueError(f"codeword {shorter!r} is a prefix of {longer!r}")
        if self.kraft_sum() > 1.0 + 1e-12:
            raise ValueError("Kraft inequality violated")

    def kraft_sum(self) -> float:
        return sum(self.arity ** -len(w) for w in self.codebook.values())

    def max_len(self) -> int:
        return max(len(w) for w in self.codebook.values())


def corpus_frequencies(texts) -> dict:
    """Character counts over an iterable of documents, keyed in code-point order.

    Each document is counted on its own, so the transient buffer is one
    document's code points, not the joined corpus's.
    """
    total = np.zeros(0, dtype=np.int64)
    for text in texts:
        counts = np.bincount(_code_points(text))
        if counts.size > total.size:
            counts[: total.size] += total
            total = counts
        else:
            total[: counts.size] += counts
    present = np.flatnonzero(total)
    return dict(zip(map(chr, present.tolist()), total[present].tolist()))


def clean_text(text: str) -> str:
    """Drop non-ASCII characters and the uncommon punctuation list, and lower-case."""
    return text.encode("ascii", "ignore").decode("ascii").translate(_PUNCTUATION_DELETION).lower()


def build_huffman(freqs: dict, arity: int = HUFFMAN_ARITY) -> HuffmanCode:
    """Standard k-ary Huffman code with deterministic tie-breaking.

    Zero-weight dummy leaves pad the alphabet so every merge is full. Ties
    are broken by (weight, lexicographically smallest character in the
    subtree), so equal-weight characters earlier in sort order merge first
    and end up with the longer codewords.
    """
    if not freqs:
        raise ValueError("frequency table must be nonempty")
    if len(freqs) < 2:
        raise ValueError("need at least 2 characters to build a code")
    if any(w <= 0 for w in freqs.values()):
        raise ValueError("weights must be positive")
    if arity < 2:
        raise ValueError("arity must be at least 2")

    # (weight, tie_key, children_or_char); leaves carry their character.
    heap: list = [(float(w), ch, ch) for ch, w in freqs.items()]
    n_dummy = 0
    if arity > 2:
        n_dummy = (arity - 1 - (len(heap) - 1) % (arity - 1)) % (arity - 1)
    for i in range(n_dummy):
        heap.append((0.0, "\U0010ffff" + str(i), None))
    heapq.heapify(heap)

    while len(heap) > 1:
        children = [heapq.heappop(heap) for _ in range(min(arity, len(heap)))]
        weight = sum(c[0] for c in children)
        tie_key = min(c[1] for c in children)
        heapq.heappush(heap, (weight, tie_key, children))

    codebook: dict = {}

    def walk(node, prefix: str) -> None:
        payload = node[2]
        if payload is None:
            return  # dummy leaf, codeword slot unused
        if isinstance(payload, str):
            codebook[payload] = prefix or "0"
            return
        for digit, child in enumerate(payload):
            walk(child, prefix + str(digit))

    walk(heap[0], "")
    return HuffmanCode(codebook=codebook, frequency_table=dict(freqs), arity=arity)


def _check_codable(text: str, code: HuffmanCode) -> None:
    """ValueError naming the first character of text, in text order, without a codeword."""
    if not text:
        raise ValueError("text must be nonempty")
    missing = text.translate(dict.fromkeys(map(ord, code.codebook)))
    if missing:
        raise ValueError(f"character {missing[0]!r} missing from codebook")


def _symbols(text: str, code: HuffmanCode) -> np.ndarray:
    """Concatenated codewords of text, every character of which has one."""
    coded = text.translate(str.maketrans(code.codebook))
    return np.frombuffer(coded.encode("ascii"), dtype=np.int8) - ord("0")


def encode_text(text: str, code: HuffmanCode) -> np.ndarray:
    """Concatenated codewords as an int8 symbol array."""
    _check_codable(text, code)
    return _symbols(text, code)


def decode_symbols(symbols, code: HuffmanCode) -> str:
    """Inverse of encode_text on complete codeword streams."""
    reverse = {w: ch for ch, w in code.codebook.items()}
    max_len = code.max_len()
    out: list = []
    word = ""
    for s in np.asarray(symbols).tolist():
        word += str(int(s))
        if word in reverse:
            out.append(reverse[word])
            word = ""
        elif len(word) > max_len:
            raise ValueError("symbol stream does not match any codeword")
    if word:
        raise ValueError("trailing partial codeword")
    return "".join(out)


def one_hot(symbols, arity: int = HUFFMAN_ARITY) -> np.ndarray:
    """(arity, T) matrix with a single 1 per column."""
    sym = np.asarray(symbols, dtype=int)
    if sym.ndim != 1 or sym.size == 0:
        raise ValueError("symbols must be a nonempty 1-D array")
    if sym.min() < 0 or sym.max() >= arity:
        raise ValueError(f"symbols must lie in [0, {arity})")
    out = np.zeros((arity, sym.size))
    out[sym, np.arange(sym.size)] = 1.0
    return out


def encode_symbolic(
    text: str, code: HuffmanCode, cutoff: int | None = DEFAULT_SYMBOL_CUTOFF
) -> np.ndarray:
    """One-hot channel matrix of the Huffman-coded text.

    Empty text, and with a cutoff any stream shorter than cutoff symbols,
    raises SequenceTooShortError; longer streams are truncated to exactly
    cutoff columns, so accepted outputs share one length. Every codeword has at
    least one symbol, so only the first cutoff characters are coded; every
    character of the text must still have a codeword.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError("cutoff must be a positive symbol count")
    if not text:
        raise SequenceTooShortError("text must be nonempty")
    _check_codable(text, code)
    symbols = _symbols(text if cutoff is None else text[:cutoff], code)
    if cutoff is not None:
        if symbols.size < cutoff:
            raise SequenceTooShortError(
                f"coded length {symbols.size} below cutoff {cutoff}"
            )
        symbols = symbols[:cutoff]
    return one_hot(symbols, code.arity)


def encode_corpus(
    texts,
    ids,
    code: HuffmanCode,
    labels=None,
    cutoff: int | None = DEFAULT_SYMBOL_CUTOFF,
) -> SequenceCollection:
    """Encode documents, dropping empty ones and ones below the cutoff with one warning."""
    kept_seqs, kept_ids, kept_labels, dropped = [], [], [], []
    for i, (text, doc_id) in enumerate(zip(texts, ids)):
        try:
            seq = encode_symbolic(text, code, cutoff=cutoff)
        except SequenceTooShortError:
            dropped.append(doc_id)
            continue
        kept_seqs.append(seq)
        kept_ids.append(doc_id)
        if labels is not None:
            kept_labels.append(labels[i])
    if not kept_seqs:
        raise ValueError("no document reached the cutoff length")
    if dropped:
        shown = ", ".join(map(str, dropped[:_DROPPED_IDS_SHOWN]))
        more = ", ..." if len(dropped) > _DROPPED_IDS_SHOWN else ""
        warnings.warn(
            f"dropped {len(dropped)} document(s) coded to fewer than {cutoff or 1} symbols: "
            f"{shown}{more}",
            stacklevel=2,
        )
    return SequenceCollection(
        sequences=tuple(kept_seqs),
        ids=tuple(kept_ids),
        labels=tuple(kept_labels) if labels is not None else None,
        kind="probability-simplex",
    )


def encode_nucleotides(genome_text: str) -> np.ndarray:
    """(4, T) probability columns in channel order A, C, T, G.

    Exact bases give one-hot columns; ambiguity codes spread equal mass
    over their sets, so every column sums to 1. Case-insensitive.
    """
    if not genome_text:
        raise ValueError("genome text must be nonempty")
    points = _code_points(genome_text)
    columns = np.minimum(points, _NOT_IUPAC)
    # a non-ASCII character counts when its upper case is a code, as U+017F is "S"
    for t in np.flatnonzero(points > _NOT_IUPAC).tolist():
        upper = genome_text[t].upper()
        columns[t] = ord(upper) if upper in _IUPAC_SETS else _NOT_IUPAC
    valid = _IUPAC_VALID[columns]
    if not valid.all():
        t = int(np.argmin(valid))
        raise ValueError(f"non-IUPAC character {genome_text[t]!r} at position {t}")
    return np.take(_IUPAC_TABLE, columns, axis=1)


def encode_genomes(genomes, ids, labels=None) -> SequenceCollection:
    """Batch nucleotide encoding into a simplex collection."""
    seqs = tuple(encode_nucleotides(g) for g in genomes)
    return SequenceCollection(
        sequences=seqs,
        ids=tuple(ids),
        labels=tuple(labels) if labels is not None else None,
        kind="probability-simplex",
    )


def znormalize(channels) -> np.ndarray:
    """Each row of a (C, T) array centred to mean 0 and scaled to unit variance.

    A constant row is centred but left unscaled, with a warning, since
    dividing by zero spread (or by the rounding left of it) is meaningless.
    """
    x = np.asarray(channels, dtype=float)
    centred = x - x.mean(axis=1, keepdims=True)
    # x.std(axis=1) bit for bit, without computing the mean a second time
    std = np.sqrt(np.mean(centred * centred, axis=1, keepdims=True))
    flat = (x == x[:, :1]).all(axis=1, keepdims=True)
    if flat.any():
        warnings.warn("zero-variance channel left unscaled", stacklevel=2)
        std = np.where(flat, 1.0, std)
    return centred / std


def encode_signal_with_diff(series, normalize: bool = True) -> np.ndarray:
    """(2, T) channels: the signal and its first difference (first entry 0).

    Each channel is z-normalized by znormalize unless disabled.
    """
    x = np.asarray(series, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("series must have length at least 2")
    out = np.stack([x, np.concatenate([[0.0], np.diff(x)])])
    return znormalize(out) if normalize else out


def encode_signals(series_list, ids, labels=None, normalize: bool = True) -> SequenceCollection:
    """Batch signal+difference encoding into a real-valued collection."""
    seqs = tuple(encode_signal_with_diff(s, normalize=normalize) for s in series_list)
    return SequenceCollection(
        sequences=seqs,
        ids=tuple(ids),
        labels=tuple(labels) if labels is not None else None,
        kind="real",
    )
