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
tests keep per-character loops as their reference. Every Huffman stream
comes from one coder: a code's codebook as arrays indexed by each
character's rank among its sorted code points, reached through one
str.translate per document, so encode_corpus codes all documents in one
gather and one-hot encodes the kept ones with one comparison.

Symbolic outputs are probability columns, so downstream models can use the
softmax link; the collections carry kind="probability-simplex" accordingly.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from lowrank_ar.model import SequenceCollection

HUFFMAN_ARITY = 4
DEFAULT_SYMBOL_CUTOFF = 1000
_DROPPED_IDS_SHOWN = 5  # ids named by encode_corpus's warning about dropped documents

# Stripped by clean_text along with non-ASCII characters.
UNCOMMON_PUNCTUATION = '<>`=|?&[]*~!#@"'

_PUNCTUATION_BYTES = UNCOMMON_PUNCTUATION.encode("ascii")

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


class _Ranks(dict):
    """Code point -> rank of its character among a codebook's sorted code points; any other
    code point -> len(self), the one rank no character has."""

    def __missing__(self, point: int) -> int:
        return len(self)


@dataclass(frozen=True)
class _Codewords:
    """A codebook as arrays, row k holding the codeword of the character of rank k."""

    ranks: _Ranks
    widths: np.ndarray  # (K,) codeword lengths
    digits: np.ndarray  # (K, max_len) int8 codeword digits, -1 past each width


@dataclass(frozen=True)
class HuffmanCode:
    """Prefix-free code over symbols {0..arity-1}, one codeword per character."""

    codebook: dict
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

    @cached_property
    def _codewords(self) -> _Codewords:
        chars = sorted(self.codebook)
        words = [self.codebook[ch] for ch in chars]
        widths = np.array([len(w) for w in words])
        filled = np.arange(widths.max()) < widths[:, np.newaxis]
        digits = np.full(filled.shape, -1, dtype=np.int8)
        digits[filled] = np.frombuffer("".join(words).encode("ascii"), dtype=np.int8) - ord("0")
        return _Codewords(_Ranks(zip(map(ord, chars), range(len(chars)))), widths, digits)


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
    ascii_bytes = text.encode("ascii", "ignore").translate(None, _PUNCTUATION_BYTES)
    return ascii_bytes.lower().decode("ascii")


def build_huffman(freqs: dict, arity: int = HUFFMAN_ARITY) -> HuffmanCode:
    """Standard k-ary Huffman code with deterministic tie-breaking.

    Zero-weight dummy leaves pad the alphabet so every merge is full. Ties
    are broken by (weight, lexicographically smallest character in the
    subtree), so equal-weight characters earlier in sort order merge first
    and end up with the longer codewords.
    """
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
    return HuffmanCode(codebook=codebook, arity=arity)


def _code_heads(texts: list, code: HuffmanCode, cutoff: int | None) -> tuple:
    """The codewords of each text's first cutoff characters (all of them for None), as one
    int8 symbol stream, and the (len(texts) + 1,) offsets of each text's symbols in it.

    Every character of every text, past the cutoff too, must have a codeword: the first
    text that has one without raises ValueError naming its first such character.
    """
    lookup = code._codewords
    missing = chr(len(lookup.ranks))
    heads = []
    for text in texts:
        ranked = text.translate(lookup.ranks)
        first = ranked.find(missing)
        if first >= 0:
            raise ValueError(f"character {text[first]!r} missing from codebook")
        heads.append(ranked[:cutoff])
    ranks = np.frombuffer("".join(heads).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    ranks = ranks.astype(np.intp)  # the index type of the two gathers below
    ends = np.zeros(ranks.size + 1, dtype=np.int64)
    np.cumsum(np.take(lookup.widths, ranks), out=ends[1:])
    offsets = ends[np.cumsum([0] + [len(head) for head in heads])]
    padded = np.take(lookup.digits, ranks, axis=0).ravel()
    return padded[padded >= 0], offsets


def encode_text(text: str, code: HuffmanCode) -> np.ndarray:
    """Concatenated codewords as an int8 symbol array."""
    if not text:
        raise ValueError("text must be nonempty")
    return _code_heads([text], code, None)[0]


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
    """(arity, T) boolean matrix with a single True per column, in the row of its symbol."""
    sym = np.asarray(symbols, dtype=int)
    if sym.ndim != 1 or sym.size == 0:
        raise ValueError("symbols must be a nonempty 1-D array")
    if sym.min() < 0 or sym.max() >= arity:
        raise ValueError(f"symbols must lie in [0, {arity})")
    return sym == np.arange(arity)[:, np.newaxis]


def encode_corpus(
    texts,
    ids,
    code: HuffmanCode,
    labels=None,
    cutoff: int | None = DEFAULT_SYMBOL_CUTOFF,
) -> SequenceCollection:
    """Simplex collection of the documents' one-hot Huffman symbol channels.

    With a cutoff, each document keeps exactly its first cutoff symbols, so
    the kept documents share one length; every codeword has at least one
    symbol, so only the first cutoff characters are coded. Empty documents,
    and with a cutoff those coding to fewer symbols, are dropped with one
    warning. Every character of a document must still have a codeword.
    """
    texts, ids = list(texts), list(ids)
    if len(ids) != len(texts):
        raise ValueError(f"{len(ids)} ids for {len(texts)} texts")
    if labels is not None and len(labels) != len(texts):
        raise ValueError(f"{len(labels)} labels for {len(texts)} texts")
    if cutoff is not None and cutoff < 1:
        raise ValueError("cutoff must be a positive symbol count")
    stream, offsets = _code_heads(texts, code, cutoff)
    least = cutoff or 1
    counts = np.diff(offsets)
    kept = np.flatnonzero(counts >= least)
    if kept.size == 0:
        raise ValueError("no document reached the cutoff length")
    if kept.size < len(texts):
        dropped = [doc_id for doc_id, n in zip(ids, counts.tolist()) if n < least]
        shown = ", ".join(map(str, dropped[:_DROPPED_IDS_SHOWN]))
        more = ", ..." if len(dropped) > _DROPPED_IDS_SHOWN else ""
        warnings.warn(
            f"dropped {len(dropped)} document(s) coded to fewer than {least} symbols: "
            f"{shown}{more}",
            stacklevel=2,
        )
    # boolean columns: the collection copies them into float64
    if cutoff is None:
        columns = one_hot(stream, code.arity)
        # a dropped document is empty, so holds none of the stream
        spans = zip(offsets[kept].tolist(), offsets[kept + 1].tolist())
        sequences = [columns[:, a:b] for a, b in spans]
    else:
        heads = stream[offsets[kept][:, np.newaxis] + np.arange(cutoff)]
        sequences = list(heads[:, np.newaxis, :] == np.arange(code.arity)[:, np.newaxis])
    return SequenceCollection(
        sequences=sequences,
        ids=[ids[i] for i in kept.tolist()],
        labels=[labels[i] for i in kept.tolist()] if labels is not None else None,
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


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """znormalize's kernel: the standardized block and its (..., C, 1) mask of flat channels."""
    centred = x - x.mean(axis=-1, keepdims=True)
    # x.std(axis=-1) bit for bit, without computing the mean a second time
    std = np.sqrt(np.mean(centred * centred, axis=-1, keepdims=True))
    flat = (x == x[..., :1]).all(axis=-1, keepdims=True)
    return centred / np.where(flat, 1.0, std), flat


def znormalize(channels) -> np.ndarray:
    """Each channel of a (C, T) array, or of a (..., C, T) block, centred and scaled.

    Every reduction runs along the last axis, so each (C, T) sequence of a
    block comes out bit for bit as it would on its own. A constant channel
    is centred but left unscaled, with one warning per call, since dividing
    by zero spread (or by the rounding left of it) is meaningless.
    """
    out, flat = _standardize(np.asarray(channels, dtype=float))
    if flat.any():
        warnings.warn("zero-variance channel left unscaled", stacklevel=2)
    return out


def encode_signals(series_list, ids, labels=None, normalize: bool = True) -> SequenceCollection:
    """Real-valued collection of (2, T) sequences: each signal and its first difference.

    The difference channel starts at 0. Series of equal length are encoded
    as one (n, 2, T) block, one block per length, and each channel is
    z-normalized (znormalize's kernel) unless disabled. A constant channel
    is left centred but unscaled, with one warning per call that counts the
    series holding one. A series shorter than 2 raises ValueError.
    """
    arrays = [np.asarray(s, dtype=float).ravel() for s in series_list]
    lengths = [x.size for x in arrays]
    if min(lengths, default=2) < 2:
        raise ValueError("series must have length at least 2")
    seqs = [None] * len(arrays)
    flat_series = 0
    for length in sorted(set(lengths)):
        members = [i for i, size in enumerate(lengths) if size == length]
        block = np.zeros((len(members), 2, length))
        block[:, 0] = [arrays[i] for i in members]
        np.subtract(block[:, 0, 1:], block[:, 0, :-1], out=block[:, 1, 1:])
        if normalize:
            block, flat = _standardize(block)
            flat_series += int(flat.any(axis=(1, 2)).sum())
        for i, seq in zip(members, block):
            seqs[i] = seq
    if flat_series:
        warnings.warn(
            f"zero-variance channel left unscaled in {flat_series} of {len(seqs)} series",
            stacklevel=2,
        )
    return SequenceCollection(sequences=seqs, ids=ids, labels=labels, kind="real")
