"""Encoders turning raw text, genomes, and signals into sequence collections.

Three encoding families:

* character text -> 4-ary Huffman symbol stream -> one-hot simplex channels,
* nucleotide text -> 4 channels (A, C, T, G order) with ambiguity codes
  spreading equiprobable mass over their nucleotide sets,
* univariate real signal -> 2 channels (signal, first difference).

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

# Stripped by clean_text along with non-ASCII characters.
UNCOMMON_PUNCTUATION = '<>`=|?&[]*~!#@"'

_NUCLEOTIDE_ORDER = "ACTG"

# Ambiguity codes expand to equiprobable mass over their nucleotide sets.
_IUPAC_SETS = {
    "A": "A", "C": "C", "G": "G", "T": "T", "U": "T",
    "R": "AG", "Y": "CT", "S": "CG", "W": "AT", "K": "GT", "M": "AC",
    "B": "CGT", "D": "AGT", "H": "ACT", "V": "ACG", "N": "ACGT",
}


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
    """Character counts over an iterable of documents."""
    counts: dict = {}
    for text in texts:
        for ch in text:
            counts[ch] = counts.get(ch, 0) + 1
    return counts


def clean_text(text: str, lowercase: bool = True) -> str:
    """Drop non-ASCII characters and the uncommon punctuation list."""
    out = [ch for ch in text if ord(ch) < 128 and ch not in UNCOMMON_PUNCTUATION]
    cleaned = "".join(out)
    return cleaned.lower() if lowercase else cleaned


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


def encode_text(text: str, code: HuffmanCode) -> np.ndarray:
    """Concatenated codewords as an int8 symbol array."""
    if not text:
        raise ValueError("text must be nonempty")
    try:
        coded = "".join(code.codebook[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"character {exc.args[0]!r} missing from codebook") from None
    return np.frombuffer(coded.encode("ascii"), dtype=np.int8) - ord("0")


def decode_symbols(symbols, code: HuffmanCode) -> str:
    """Inverse of encode_text on complete codeword streams."""
    reverse = {w: ch for ch, w in code.codebook.items()}
    out: list = []
    word = ""
    for s in np.asarray(symbols).tolist():
        word += str(int(s))
        if word in reverse:
            out.append(reverse[word])
            word = ""
        elif len(word) > code.max_len():
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

    With a cutoff, streams shorter than cutoff symbols raise
    SequenceTooShortError and longer ones are truncated to exactly cutoff
    columns, so accepted outputs share one length.
    """
    symbols = encode_text(text, code)
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
    """Encode documents, silently dropping ones below the cutoff."""
    kept_seqs, kept_ids, kept_labels = [], [], []
    for i, (text, doc_id) in enumerate(zip(texts, ids)):
        try:
            seq = encode_symbolic(text, code, cutoff=cutoff)
        except SequenceTooShortError:
            continue
        kept_seqs.append(seq)
        kept_ids.append(doc_id)
        if labels is not None:
            kept_labels.append(labels[i])
    if not kept_seqs:
        raise ValueError("no document reached the cutoff length")
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
    channel_of = {ch: i for i, ch in enumerate(_NUCLEOTIDE_ORDER)}
    out = np.zeros((4, len(genome_text)))
    for t, raw in enumerate(genome_text):
        members = _IUPAC_SETS.get(raw.upper())
        if members is None:
            raise ValueError(f"non-IUPAC character {raw!r} at position {t}")
        mass = 1.0 / len(members)
        for base in members:
            out[channel_of[base], t] = mass
    return out


def encode_genomes(genomes, ids, labels=None) -> SequenceCollection:
    """Batch nucleotide encoding into a simplex collection."""
    seqs = tuple(encode_nucleotides(g) for g in genomes)
    return SequenceCollection(
        sequences=seqs,
        ids=tuple(ids),
        labels=tuple(labels) if labels is not None else None,
        kind="probability-simplex",
    )


def encode_signal_with_diff(series, normalize: bool = True) -> np.ndarray:
    """(2, T) channels: the signal and its first difference (first entry 0).

    Each channel is z-normalized to mean 0 and unit variance unless
    disabled. A zero-variance channel is centered but left unscaled, with a
    warning, since dividing by zero spread is meaningless.
    """
    x = np.asarray(series, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("series must have length at least 2")
    diff = np.concatenate([[0.0], np.diff(x)])
    out = np.stack([x, diff])
    if normalize:
        out = out - out.mean(axis=1, keepdims=True)
        std = out.std(axis=1)
        flat = std == 0
        if flat.any():
            warnings.warn("zero-variance channel left unscaled")
            std = np.where(flat, 1.0, std)
        out = out / std[:, None]
    return out


def encode_signals(series_list, ids, labels=None, normalize: bool = True) -> SequenceCollection:
    """Batch signal+difference encoding into a real-valued collection."""
    seqs = tuple(encode_signal_with_diff(s, normalize=normalize) for s in series_list)
    return SequenceCollection(
        sequences=seqs,
        ids=tuple(ids),
        labels=tuple(labels) if labels is not None else None,
        kind="real",
    )
