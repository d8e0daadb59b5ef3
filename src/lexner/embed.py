"""Subword skipgram embeddings trained with negative sampling.

The trainer consumes plain text lines (one sentence per line, tokens
separated by spaces) and learns one vector per vocabulary word plus a shared
table of hashed character-n-gram buckets. Type-label tokens (leading "/")
are atomic: they get no character n-grams and bypass the frequency cutoff,
so rare labels survive into the vocabulary.
"""
from __future__ import annotations

import io
import math
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import binfile
from .errors import DataError, FormatError, NumericalError

FNV_OFFSET = 0x811C9DC5
FNV_PRIME = 0x01000193

SUBWORD_MAGIC = b"SUBV"
SUBWORD_VERSION = 1
_SUBWORD_FIELDS = "BBIIQ"  # n-gram min and max, bucket count, dim, seed
_SUBWORD_HEADER_SIZE = binfile.header_size(SUBWORD_MAGIC, _SUBWORD_FIELDS)
_SPACE = re.compile(rb"\s*")  # the bytes that bytes.split separates at


def is_type_token(word: str) -> bool:
    return word.startswith("/")


def fnv1a(s: str) -> int:
    """32-bit FNV-1a over the UTF-8 bytes of s."""
    h = FNV_OFFSET
    for b in s.encode("utf-8"):
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFF
    return h


def hash_ngram(ngram: str, bucket_count: int) -> int:
    return fnv1a(ngram) % bucket_count


def char_ngrams(word: str, nmin: int = 3, nmax: int = 6) -> list[str]:
    """Character n-grams of "<word>" plus the whole boundary-marked form.

    Atomic type-label tokens have no subword structure and return [].
    Order is deterministic (shorter first, then left to right); the full
    form is appended unless it already occurred as a regular n-gram.
    """
    if not word or is_type_token(word):
        return []
    marked = f"<{word}>"
    grams: list[str] = []
    for n in range(nmin, nmax + 1):
        for i in range(0, len(marked) - n + 1):
            grams.append(marked[i : i + n])
    if marked not in grams:
        grams.append(marked)
    return grams


# marked code points per hashing chunk; bounds the memory of a batched pass
_CHUNK_CHARS = 4096
_UTF8_LEAD = np.array([0, 0, 0xC0, 0xE0, 0xF0], dtype=np.uint32)


def _utf8_bytes(cp: np.ndarray) -> tuple[list[np.ndarray], np.ndarray | None]:
    """UTF-8 encoding of an array of code points, computed arithmetically.

    Returns byte k of every code point for k below the longest encoding
    (bytes past a code point's own length are garbage) and the lengths,
    which are None when every code point is ASCII.
    """
    if cp.max() < 0x80:
        return [cp], None
    nbytes = 1 + (cp >= 0x80).astype(np.uint32) + (cp >= 0x800) + (cp >= 0x10000)
    shift = 6 * (nbytes - 1)
    out = [_UTF8_LEAD[nbytes] | (cp >> shift)]
    for k in range(1, int(nbytes.max())):
        out.append(0x80 | ((cp >> np.maximum(shift, 6 * k) - 6 * k) & 0x3F))
    return out, nbytes


def _hash_same_length(words: Sequence[str], nmin: int, nmax: int) -> np.ndarray:
    """FNV-1a of every n-gram of words that share one length, in char_ngrams order.

    One row per word. Column block n holds the hashes of the n-grams starting
    at 0, 1, ...; the full form follows when it is not a regular n-gram.
    """
    marked = "".join(f"<{w}>" for w in words).encode("utf-32-le")
    marked = np.frombuffer(marked, dtype="<u4").reshape(len(words), -1)
    m = marked.shape[1]
    seq, nbytes = _utf8_bytes(marked)
    prime = np.uint32(FNV_PRIME)
    h = np.full((len(words), m), FNV_OFFSET, dtype=np.uint32)
    blocks = []
    # after step k, h[:, i] is the hash of marked[i : i + k + 1]; past nmax
    # only the full form starting at 0 is still being extended
    for k in range(m):
        width = m - k if k < nmax else 1
        h = h[:, :width]
        for j, byte in enumerate(seq):
            stepped = h ^ byte[:, k : k + width]
            stepped *= prime
            h = stepped if j == 0 else np.where(nbytes[:, k : k + width] > j, stepped, h)
        if nmin <= k + 1 <= nmax:
            blocks.append(h)
    if not nmin <= m <= nmax:
        blocks.append(h[:, :1])
    return np.concatenate(blocks, axis=1)


def _ngram_id_chunks(
    words: Sequence[str], bucket_count: int, nmin: int, nmax: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (positions, ids) for every word that has n-grams.

    Words are grouped by length, so one chunk is a rectangular (B, G) block of
    bucket ids with rows in char_ngrams order; a chunk holds at most
    _CHUNK_CHARS marked characters (one word when a word is longer).
    """
    by_length: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        if w and not is_type_token(w):
            by_length.setdefault(len(w), []).append(i)
    for length, positions in by_length.items():
        step = max(1, _CHUNK_CHARS // (length + 2))
        for s in range(0, len(positions), step):
            part = positions[s : s + step]
            hashes = _hash_same_length([words[i] for i in part], nmin, nmax)
            yield np.array(part, dtype=np.int64), hashes.astype(np.int64) % bucket_count


def ngram_bucket_ids(
    words: Sequence[str], bucket_count: int, nmin: int = 3, nmax: int = 6
) -> list[np.ndarray]:
    """Bucket ids of each word's n-grams, equal to
    [hash_ngram(g, bucket_count) for g in char_ngrams(w, nmin, nmax)],
    computed for all words in one batched pass."""
    out = [np.empty(0, dtype=np.int64)] * len(words)
    for positions, ids in _ngram_id_chunks(words, bucket_count, nmin, nmax):
        for p, row in zip(positions.tolist(), ids):
            out[p] = row
    return out


@dataclass
class EmbedConfig:
    dim: int = 100
    window: int = 5
    min_count: int = 5
    ngram_min: int = 3
    ngram_max: int = 6
    bucket_count: int = 100_000
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    subsample_threshold: float = 1e-4
    seed: int = 1

    def __post_init__(self):
        if self.dim <= 0:
            raise DataError("dim must be positive")
        if self.window <= 0 or self.negatives <= 0 or self.epochs <= 0:
            raise DataError("window, negatives and epochs must be positive")
        if not (0 < self.ngram_min <= self.ngram_max):
            raise DataError(f"bad n-gram range [{self.ngram_min}, {self.ngram_max}]")
        if self.bucket_count <= 0:
            raise DataError("bucket_count must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise DataError("learning_rate must be positive and finite")
        if not 0 <= self.subsample_threshold < math.inf:
            raise DataError("subsample_threshold must be non-negative and finite")
        if self.seed < 0:
            raise DataError("seed must be non-negative")


def lowercase_index(words: Sequence[str], start: int = 0) -> dict[str, int]:
    """Each lowercased word's row, `start` plus its position in `words`; of
    a word's case variants the first is the one indexed."""
    lowered = [w.lower() for w in words]
    # built from the last row back, so a word's first case variant is kept
    return dict(zip(reversed(lowered), range(start + len(lowered) - 1, start - 1, -1)))


class EmbeddingTable:
    """Trained vectors: one row per vocabulary word plus n-gram buckets.

    `word_vectors` composes the query form used everywhere downstream
    (`word_vector` is its one-word case):

    * in-vocabulary word: stored row plus the mean of its n-gram buckets
    * out-of-vocabulary word: mean of its n-gram buckets alone
    * type-label token: stored row only (atomic, no n-grams)
    * no usable pieces at all: a zero vector

    Queries are lowercased; the training corpus is lowercased to match.
    `word_index` maps lowercased words to rows, a word's first case variant's.
    A table loaded from a plain text file has no bucket vectors and falls
    back to stored rows only.
    """

    def __init__(
        self,
        words: Sequence[str],
        vectors: np.ndarray,
        bucket_vectors: np.ndarray | None = None,
        ngram_min: int = 3,
        ngram_max: int = 6,
        seed: int = 0,
    ):
        vectors = np.asarray(vectors, dtype=np.float32)
        if len(words) != vectors.shape[0]:
            raise DataError(f"{len(words)} words but {vectors.shape[0]} vector rows")
        self.words = list(words)
        self.word_index = lowercase_index(self.words)
        if len(self.word_index) < len(self.words) and len(set(self.words)) < len(self.words):
            raise DataError("duplicate words in embedding table")
        self.vectors = vectors
        self.bucket_vectors = (
            None if bucket_vectors is None else np.asarray(bucket_vectors, dtype=np.float32)
        )
        self.ngram_min = ngram_min
        self.ngram_max = ngram_max
        self.seed = seed
        self.epoch_losses: list[float] = []

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.word_index

    def __len__(self) -> int:
        return len(self.words)

    def word_vector(self, word: str) -> np.ndarray:
        return self.word_vectors([word])[0]

    def word_vectors(self, words: Sequence[str]) -> np.ndarray:
        """Composed vectors of many words at once, one float32 row per word.

        Each n-gram mean is a sum divided by the count, exactly as
        bucket_vectors[ids].mean(axis=0) computes it, then added to the
        word's stored row (or to zeros when it has none). A chunk's sums run
        column by column: zeros, then its first n-gram's rows added, then
        each next n-gram's, which is the order mean() adds a word's rows in
        when dim >= 2 (starting from zero, so a -0.0 sum reads +0.0 as it
        does there). At dim == 1 mean() reduces one contiguous column and
        sums it pairwise, so that case keeps numpy's own sum.
        """
        words = [w.lower() for w in words]
        rows = np.array([self.word_index.get(w, -1) for w in words], dtype=np.int64)
        known = rows >= 0
        out = np.zeros((len(words), self.dim), dtype=np.float32)
        out[known] = self.vectors[rows[known]]
        if self.bucket_vectors is not None:
            bv = self.bucket_vectors
            for pos, ids in _ngram_id_chunks(words, bv.shape[0], self.ngram_min, self.ngram_max):
                if self.dim == 1:
                    acc = bv[ids].sum(axis=1)
                else:
                    acc = np.zeros((len(ids), self.dim), dtype=np.float32)
                    for col in np.ascontiguousarray(ids.T):
                        acc += bv.take(col, axis=0)
                # the float32 quotient equals mean()'s float64 one rounded to float32
                out[pos] += acc / ids.shape[1]
        return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so the
    # exp never overflows. e = exp(-|x|) <= 1, so the numerator max(e, x >= 0)
    # is 1 or e; minimum and maximum return a nan operand as it is
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def negative_sampling_loss(
    h: np.ndarray, rows: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores and gradients of the binary logistic loss of output rows
    against one composed input.

    rows is (n, dim), y is (n,) with 1 for observed context rows and 0 for
    noise rows. The loss is the sum of softplus(-s) over observed rows and
    softplus(s) over noise rows, s = rows @ h; this returns (s, dloss/dh,
    dloss/drows) and leaves the loss to the caller, which the trainer takes
    for a whole line's scores at once. No exp here can overflow.
    """
    s = rows.dot(h)
    dscore = sigmoid(s) - y
    # a column times a row is dscore[:, None] * h but for the sign of a zero
    return s, dscore.dot(rows), dscore[:, None].dot(h[None, :])


def _build_vocab(lines: Sequence[str], cfg: EmbedConfig) -> tuple[list[str], np.ndarray]:
    counts: dict[str, int] = {}
    for line in lines:
        for w in line.split():
            counts[w] = counts.get(w, 0) + 1
    kept = [(w, c) for w, c in counts.items() if c >= cfg.min_count or is_type_token(w)]
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    words = [w for w, _ in kept]
    freqs = np.array([c for _, c in kept], dtype=np.float64)
    return words, freqs


class _Trainer:
    """Skipgram with negative sampling, line by line, window by window.

    A line draws every window's negatives up front (`_negatives`); each
    window then updates vout, its centre's row and n-gram buckets in place,
    and the line's loss is one pass over its windows' scores. The bits equal
    those of drawing and updating context by context.
    """

    def __init__(self, lines: Sequence[str], cfg: EmbedConfig):
        self.cfg = cfg
        self.words, self.counts = _build_vocab(lines, cfg)
        if len(self.words) < 2:
            # with one word every noise draw equals the context word
            raise DataError(
                f"{len(self.words)} words survive the frequency cutoff; "
                "negative sampling needs at least two")
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self.lines = [
            np.array(
                [self.word_index[w] for w in line.split() if w in self.word_index],
                dtype=np.int64,
            )
            for line in lines
        ]

        total = self.counts.sum()
        if cfg.subsample_threshold > 0:
            ratio = cfg.subsample_threshold * total / self.counts
            self.keep_prob = np.minimum(1.0, np.sqrt(ratio) + ratio)
        else:
            self.keep_prob = np.ones(len(self.words))

        noise = self.counts ** 0.75
        self.noise_cdf = np.cumsum(noise / noise.sum())
        self.noise_cdf[-1] = 1.0

        rng = np.random.default_rng(cfg.seed)
        bound = 1.0 / cfg.dim
        self.vin = rng.uniform(-bound, bound, (len(self.words), cfg.dim))
        self.gin = rng.uniform(-bound, bound, (cfg.bucket_count, cfg.dim))
        self.vout = np.zeros((len(self.words), cfg.dim))

        # bucket ids per vocab word, fixed for the whole run
        self.ngram_ids = ngram_bucket_ids(self.words, cfg.bucket_count, cfg.ngram_min, cfg.ngram_max)
        # with no bucket repeated, a word's ufunc.at scatter into gin subtracts
        # once per bucket, which a plain assignment does with the same bits
        self.distinct_ngrams = [np.unique(ids).size == ids.size for ids in self.ngram_ids]
        # labels of the widest window's rows: 1 for a context word, 0 for a negative
        labels = np.zeros((2 * cfg.window, 1 + cfg.negatives))
        labels[:, 0] = 1.0
        self.labels = labels.ravel()
        self.dim_range = np.arange(cfg.dim)

        self.total_tokens = int(sum(len(l) for l in self.lines)) * cfg.epochs
        self.processed = 0
        self.epoch_losses: list[float] = []

    def _lr(self) -> float:
        frac = self.processed / max(1, self.total_tokens)
        return self.cfg.learning_rate * max(0.0, 1.0 - frac)

    def _negatives(self, rng: np.random.Generator, ctx: np.ndarray) -> np.ndarray:
        """k noise words for each context word of a line, none equal to it.

        Consumes the generator exactly as drawing k per context in turn
        would, each draw followed by redraws of the entries equal to that
        context word. The line's n * k draws come in one block; when one
        equals its context word, the line is replayed in lists, the bad
        entries replaced in order by the draws after them, and the stream
        extended only by draws the replay is sure to consume.
        """
        k = self.cfg.negatives
        n = ctx.size
        cdf = self.noise_cdf
        block = cdf.searchsorted(rng.random(n * k)).reshape(n, k)
        if not np.count_nonzero(block == ctx[:, None]):
            return block
        draws = block.ravel().tolist()
        out = []
        pos = 0  # next unread draw
        for j, c in enumerate(ctx.tolist()):
            row = draws[pos : pos + k]
            pos += k
            bad = row.count(c)
            while bad:
                # this sweep reads `bad` draws, and every later context k
                short = pos + bad + (n - 1 - j) * k - len(draws)
                if short > 0:
                    draws += cdf.searchsorted(rng.random(short)).tolist()
                fresh = iter(draws[pos : pos + bad])
                pos += bad
                row = [next(fresh) if v == c else v for v in row]
                bad = row.count(c)
            out.append(row)
        return np.array(out, dtype=np.int64)

    def _train_line(self, rng: np.random.Generator, ids: np.ndarray) -> tuple[float, int]:
        cfg = self.cfg
        self.processed += len(ids)
        if len(ids) == 0:
            return 0.0, 0
        kept = ids[rng.random(len(ids)) < self.keep_prob[ids]]
        n = len(kept)
        if n < 2:
            return 0.0, 0
        lr = self._lr()
        radii = rng.integers(1, cfg.window + 1, size=n)

        # every window's context words, left then right of its centre, in centre
        # order; ends[i] closes window i's rows: each context word, then its negatives
        per = 1 + cfg.negatives
        words = kept.tolist()
        context: list[int] = []
        ends = []
        for pos, r in enumerate(radii.tolist()):
            context += words[max(0, pos - r) : pos]
            context += words[pos + 1 : pos + 1 + r]
            ends.append(len(context) * per)
        ctx = np.array(context, dtype=np.int64)

        rows_idx = np.concatenate((ctx[:, None], self._negatives(rng, ctx)), axis=1).ravel()
        dim = cfg.dim
        flat_idx = (rows_idx[:, None] * dim + self.dim_range).ravel()
        vin, vout, gin = self.vin, self.vout, self.gin
        vout_flat = vout.reshape(-1)
        ngram_ids, distinct = self.ngram_ids, self.distinct_ngrams
        y = self.labels
        scores = []  # each window's rows @ h
        for center, a, b in zip(words, [0, *ends], ends):
            ngrams = ngram_ids[center]
            size = ngrams.size
            row = vin[center]
            if size:
                g = gin.take(ngrams, axis=0)
                h = row + np.add.reduce(g, axis=0) / size
            else:
                h = row  # read by the kernel before row is updated
            rows = vout.take(rows_idx[a:b], axis=0)
            s, dh, drows = negative_sampling_loss(h, rows, y[: b - a])
            scores.append(s)
            drows *= lr  # the sign of a zero is lost on vout, which never holds -0.0
            # flat offsets visit the rows' elements in the order the
            # row-wise scatter would, so repeated rows accumulate alike
            np.subtract.at(vout_flat, flat_idx[a * dim : b * dim], drows.ravel())
            row -= lr * dh
            if size:
                upd = (lr / size) * dh
                if distinct[center]:
                    gin[ngrams] = g - upd
                else:
                    np.subtract.at(gin, ngrams, upd)
        # the loss half, once for the line: softplus of -s for a context word
        # and of s for a negative, summed window by window (x * -1.0 is -x;
        # numpy 2.4's np.negative from a strided view into itself misreads)
        losses = np.concatenate(scores)
        losses[::per] *= -1.0
        np.logaddexp(0.0, losses, out=losses)
        loss_sum = 0.0
        for a, b in zip([0, *ends], ends):
            loss_sum += float(np.add.reduce(losses[a:b]))
        return loss_sum, len(context)

    def run(self) -> None:
        cfg = self.cfg
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng((cfg.seed, epoch))
            loss = 0.0
            pairs = 0
            for ids in self.lines:
                l, p = self._train_line(rng, ids)
                loss += l
                pairs += p
            mean = loss / pairs if pairs else 0.0
            if not math.isfinite(mean):
                raise NumericalError(f"non-finite training loss in epoch {epoch}")
            self.epoch_losses.append(mean)


def train_skipgram(lines: Iterable[str], config: EmbedConfig | None = None) -> EmbeddingTable:
    """Train input vectors for every vocabulary word and n-gram bucket.

    Deterministic: a fixed config and seed give bitwise-identical vectors.
    """
    cfg = config or EmbedConfig()
    trainer = _Trainer(list(lines), cfg)
    trainer.run()
    table = EmbeddingTable(
        trainer.words,
        trainer.vin.astype(np.float32),
        trainer.gin.astype(np.float32),
        ngram_min=cfg.ngram_min,
        ngram_max=cfg.ngram_max,
        seed=cfg.seed,
    )
    table.epoch_losses = trainer.epoch_losses
    return table


# ---------------------------------------------------------------------------
# Persistence: text vectors, optional binary subword section appended
# ---------------------------------------------------------------------------

def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write "count dim" then one "word v1 .. v_dim" row per word.

    %.9g keeps float32 exact across a round trip. When the table carries
    n-gram buckets, a binary section follows the text rows so composed
    out-of-vocabulary vectors survive reloading.
    """
    with open(path, "wb") as fh:
        fh.write(f"{len(table.words)} {table.dim}\n".encode("utf-8"))
        for i, w in enumerate(table.words):
            row = " ".join(f"{x:.9g}" for x in table.vectors[i])
            fh.write(f"{w} {row}\n".encode("utf-8"))
        if table.bucket_vectors is not None:
            fh.write(binfile.header(
                SUBWORD_MAGIC, SUBWORD_VERSION, _SUBWORD_FIELDS, table.ngram_min, table.ngram_max,
                table.bucket_vectors.shape[0], table.dim, table.seed,
            ))
            fh.write(binfile.floats(table.bucket_vectors))


def _parse_row(fields: list[bytes], dim: int, row: int, offset: int) -> tuple[str, list[float]]:
    if not fields:
        raise FormatError(f"row {row} is a blank line", offset)
    if len(fields) != dim + 1:
        raise FormatError(f"row {row} has {len(fields) - 1} values, expected {dim}", offset)
    try:
        word = fields[0].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"row {row} word is not valid UTF-8", offset) from None
    try:
        return word, [float(x) for x in fields[1:]]
    except ValueError:
        raise FormatError(f"row {row} has a non-numeric value", offset) from None


def _finite_rows(rows: list[list[float]], offsets: list[int]) -> np.ndarray:
    """Stack parsed rows as float32, refusing nan, inf and float32 overflow."""
    with np.errstate(over="ignore"):  # overflow shows up as inf just below
        vectors = np.array(rows, dtype=np.float32)
    if not np.isfinite(vectors).all():
        i = int(np.flatnonzero(~np.isfinite(vectors).all(axis=1))[0])
        raise FormatError(f"row {i} has a non-finite value", offsets[i])
    return vectors


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a vector file back into a table.

    Accepts three layouts: our own format (header plus optional subword
    section), plain headered text (word2vec style), and headerless text
    (one "word v1 .. v_dim" row per line) as produced by some third-party
    pretrained-embedding releases. A headerless file's rows run to its end,
    where blank lines may trail; a blank line before a row is a bad row. In
    either layout, only whitespace after the rows means no subword section.
    A subword matrix is read from the file straight into a read-only array
    of its own, so no copy of the text rows stays alive with it. A path that
    cannot seek, such as a pipe, is read whole first.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return _read_embeddings(fh, info.st_size)
        data = fh.read()
    with io.BytesIO(data) as fh:
        return _read_embeddings(fh, len(data))


def _read_embeddings(fh: BinaryIO, file_size: int) -> EmbeddingTable:
    """`load_embeddings` from a seekable file object of `file_size` bytes."""
    head_fields = fh.readline().split()
    if not head_fields:
        raise FormatError("empty embedding file", 0)
    headered = len(head_fields) == 2 and head_fields[0].isdigit() and head_fields[1].isdigit()
    # a headerless file's first row gives the dimension
    dim = int(head_fields[1]) if headered else len(head_fields) - 1
    if dim < 1:
        raise FormatError(f"embedding dimension must be at least 1, got {dim}", 0)
    count = int(head_fields[0]) if headered else None
    if not headered:
        fh.seek(0)
    words: list[str] = []
    rows: list[list[float]] = []
    offsets: list[int] = []
    while len(rows) != count:
        at = fh.tell()
        line = fh.readline()
        if headered and not line:
            raise FormatError(f"truncated embedding file: row {len(rows)} missing", at)
        if not headered and _SPACE.fullmatch(line) and _SPACE.fullmatch(fh.read()):
            break  # only whitespace is left
        offsets.append(at)
        w, vec = _parse_row(line.split(), dim, len(rows), at)
        words.append(w)
        rows.append(vec)
    vectors = _finite_rows(rows, offsets)
    section = fh.tell()
    r = binfile.Reader(fh.read(_SUBWORD_HEADER_SIZE), origin=section)
    if _SPACE.fullmatch(r.data) and _SPACE.fullmatch(fh.read()):
        return EmbeddingTable(words, vectors)  # whitespace after the rows
    nmin, nmax, nbuckets, sdim, seed = r.header(
        SUBWORD_MAGIC, SUBWORD_VERSION, "subword section", _SUBWORD_FIELDS)
    if sdim != dim or not nbuckets or not 0 < nmin <= nmax:
        raise FormatError(
            f"bad subword header: dim {sdim} for vectors of dim {dim}, {nbuckets} buckets, "
            f"n-grams [{nmin}, {nmax}]", section)
    at = fh.tell()
    if file_size - at < 4 * nbuckets * dim:  # checked before anything is allocated
        raise FormatError("truncated subword bucket data", file_size)
    buckets = np.empty((nbuckets, dim), dtype="<f4")
    if fh.readinto(memoryview(buckets).cast("B")) < buckets.nbytes:  # the file shrank
        raise FormatError("truncated subword bucket data", fh.tell())
    binfile.finite(buckets, at, "subword bucket data")
    if fh.read(1):
        raise FormatError("trailing bytes after the subword bucket data", at + buckets.nbytes)
    buckets.flags.writeable = False
    return EmbeddingTable(words, vectors, buckets, ngram_min=nmin, ngram_max=nmax, seed=seed)
