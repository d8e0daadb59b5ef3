"""Lexical-similarity vectors: per-word cosine profiles over entity types.

A word's LS vector has one component per inventory label: the cosine
between the word's embedding and that type's embedding, MinMax-scaled to
[-1, +1] across the word's own components. Tables are built offline over a
fixed vocabulary; words outside it fall back to on-the-fly computation
through the subword-composed embedding, scaled the same way.

A build works through the vocabulary a chunk of words at a time: one
batched subword composition (`EmbeddingTable.word_vectors`), one cosine
product against the type matrix and one row-wise MinMax per chunk. The
composition adds a chunk's n-gram rows column by column, first n-gram
first, which is the order a per-word mean adds them in; at dim == 1 it
keeps numpy's pairwise sum, as the per-word mean does there. The cosine
product is formed a cache-sized block of words at a time. The fallback
(`LSTable.vectors`, one batch of misses) and the one-word paths (`ls_raw`,
`top_k_types`, `LSTable.vector`) are the same code, and every reduction
runs along a single row, so a word gets the same bits whatever batch or
block it is computed in.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import binfile
from .corpus import TypeInventory
from .embed import EmbeddingTable
from .errors import DataError, FormatError

LS_MAGIC = b"LSTB"
LS_VERSION = 1


def _type_matrix(table: EmbeddingTable, inventory: TypeInventory) -> tuple[np.ndarray, np.ndarray]:
    """Stacked type embeddings and their norms; all labels must be known."""
    for label in inventory:
        if label not in table:
            raise DataError(f"type embedding missing from table: {label!r}")
    t = table.word_vectors(inventory.labels).astype(np.float64)
    return t, _row_norms(t)


def _row_norms(m: np.ndarray) -> np.ndarray:
    # summed per row, so a row's norm does not depend on the rows beside it
    return np.sqrt((m * m).sum(axis=1))


def _profiles(
    words: Sequence[str], table: EmbeddingTable, types: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Raw cosine profiles, one row per word; zero where either vector is zero.

    Every product is reduced along its own row, so a word's profile is the
    same whatever batch it is computed in.
    """
    t, tnorms = types
    v = table.word_vectors(words).astype(np.float64)
    dots = np.empty((len(v), len(t)))
    step = max(1, _LS_BLOCK_VALUES // t.size)
    for s in range(0, len(v), step):
        np.sum(v[s : s + step, None, :] * t, axis=2, out=dots[s : s + step])
    norms = _row_norms(v)[:, None]
    live = (norms != 0.0) & (tnorms != 0.0)
    return np.divide(dots, norms * tnorms, out=np.zeros_like(dots), where=live)


def _scaled(
    words: Sequence[str], table: EmbeddingTable, types: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """LS vectors of words: each raw profile scaled as minmax_scale does, as float32 rows."""
    raw = _profiles(words, table, types)
    lo = raw.min(axis=1, keepdims=True)
    span = raw.max(axis=1, keepdims=True) - lo
    out = np.divide(2.0 * (raw - lo), span, out=np.zeros_like(raw), where=span != 0.0)
    return np.subtract(out, 1.0, out=out, where=span != 0.0).astype(np.float32)


def ls_raw(word: str, table: EmbeddingTable, inventory: TypeInventory) -> np.ndarray:
    """Unscaled cosine profile of a word against every inventory type."""
    return _profiles([word], table, _type_matrix(table, inventory))[0]


def minmax_scale(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Rescale so min maps to -1 and max to +1; a flat vector maps to zeros."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DataError("cannot scale an empty vector")
    lo = v.min()
    hi = v.max()
    if hi == lo:
        return np.zeros_like(v)
    return 2.0 * (v - lo) / (hi - lo) - 1.0


class LSTable:
    """Precomputed LS vectors plus an optional embedding-table fallback.

    entries maps word -> float32 vector of len(inventory) components. The
    fallback is consulted for words absent from entries; without one, an
    unknown word gets the zero vector (no preference).
    """

    def __init__(
        self,
        inventory: TypeInventory,
        entries: dict[str, np.ndarray] | None = None,
        fallback: EmbeddingTable | None = None,
    ):
        self.inventory = inventory
        self.entries: dict[str, np.ndarray] = {}
        for w, vec in (entries or {}).items():
            vec = np.asarray(vec, dtype=np.float32)
            if vec.shape != (len(inventory),):
                raise DataError(
                    f"LS entry for {w!r} has shape {vec.shape}, expected ({len(inventory)},)"
                )
            self.entries[w] = vec
        self.fallback = fallback
        self._type_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return len(self.inventory)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.entries

    def vector(self, word: str) -> np.ndarray:
        return self.vectors([word])[0]

    def vectors(self, words: Sequence[str]) -> np.ndarray:
        """LS vectors of many words, one float32 row each.

        A word's row is the entry of its lowercased form; the words without
        one are composed through the fallback in one batch (or get zero rows
        without it).
        """
        words = [w.lower() for w in words]
        rows = [self.entries.get(w) for w in words]
        misses = list(dict.fromkeys(w for w, row in zip(words, rows) if row is None))
        if misses:
            if self.fallback is None:
                composed = np.zeros((len(misses), self.dim), dtype=np.float32)
            else:
                if self._type_cache is None:
                    self._type_cache = _type_matrix(self.fallback, self.inventory)
                composed = _scaled(misses, self.fallback, self._type_cache)
            found = dict(zip(misses, composed))
            rows = [found[w] if row is None else row for w, row in zip(words, rows)]
        return np.array(rows, dtype=np.float32).reshape(len(words), self.dim)

    def content_hash(self) -> str:
        """Order-sensitive digest of entries; stable across save/load."""
        import hashlib

        h = hashlib.sha256()
        for label in self.inventory:
            h.update(label.encode("utf-8") + b"\0")
        for w, vec in self.entries.items():
            h.update(w.encode("utf-8") + b"\0")
            h.update(np.ascontiguousarray(vec, dtype="<f4").tobytes())
        return h.hexdigest()


# float64 values of the (words, types, dim) cosine product per chunk of a
# table build, which bounds its peak memory; a chunk forms the product a
# block of words at a time, sized to stay in cache
_LS_CHUNK_VALUES = 1 << 21
_LS_BLOCK_VALUES = 1 << 16


def build_ls_table(
    vocab: Iterable[str], table: EmbeddingTable, inventory: TypeInventory
) -> LSTable:
    """Scale the raw cosine profile of every vocab word into an LSTable.

    Words are lowercased and deduplicated, first occurrence wins the
    position, so the table iterates (and serializes) in a stable order.
    Profiles are computed a chunk of words at a time, each chunk with one
    batched composition, one cosine product and one row-wise MinMax.
    """
    types = _type_matrix(table, inventory)
    words = list(dict.fromkeys(w.lower() for w in vocab))
    out = LSTable(inventory, fallback=table)
    step = max(1, _LS_CHUNK_VALUES // (len(inventory) * table.dim))
    for s in range(0, len(words), step):
        part = words[s : s + step]
        out.entries.update(zip(part, _scaled(part, table, types)))
    return out


def top_k_types(
    word: str, k: int, table: EmbeddingTable, inventory: TypeInventory
) -> list[tuple[str, float]]:
    """Types most similar to a word, by raw (unscaled) cosine, descending.

    Ties keep inventory order; stable sort over the negated values does it.
    """
    if not (1 <= k <= len(inventory)):
        raise DataError(f"k must be in [1, {len(inventory)}], got {k}")
    raw = ls_raw(word, table, inventory)
    order = np.argsort(-raw, kind="stable")[:k]
    return [(inventory.labels[i], float(raw[i])) for i in order]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_ls_table(table: LSTable, path: str | Path) -> None:
    """Binary format: magic, version, dim, the inventory labels in order,
    record count, then one (word, dim x float32) record per entry.

    Every entry's values are converted to float32 bytes at once, and the
    records are joined in one pass, word and values alternating."""
    n, width = len(table.entries), 4 * table.dim
    values = np.array(list(table.entries.values()), dtype="<f4").reshape(n, table.dim).tobytes()
    records = [b""] * (2 * n)
    records[0::2] = binfile.strings(table.entries)
    records[1::2] = [values[i : i + width] for i in range(0, len(values), width)]
    with open(path, "wb") as fh:
        fh.write(binfile.header(LS_MAGIC, LS_VERSION, "I", table.dim))
        fh.write(b"".join(binfile.strings(table.inventory)))
        fh.write(binfile.pack("Q", n))
        fh.write(b"".join(records))


def load_ls_table(path: str | Path) -> LSTable:
    r = binfile.Reader(Path(path).read_bytes())
    (dim,) = r.header(LS_MAGIC, LS_VERSION, "LS table", "I")
    inventory = TypeInventory([r.string(f"label {i}") for i in range(dim)])
    (count,) = r.unpack("Q", "record count")
    words: list[str] = []
    starts: list[int] = []
    values: list[memoryview] = []
    for i in range(count):
        starts.append(r.at)
        words.append(r.string(f"record {i} word"))
        values.append(r.take(4 * dim, f"record {i} values"))
    r.end("last record")
    vectors = np.frombuffer(b"".join(values), dtype="<f4").reshape(count, dim)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FormatError(f"record {i} ({words[i]!r}) has a non-finite value", starts[i])
    table = LSTable(inventory)
    table.entries = dict(zip(words, vectors.astype(np.float32)))
    return table

