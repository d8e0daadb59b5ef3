"""The BiLSTM-CRF tagger: feature assembly, forward/backward, checkpoints.

Everything numerical runs in float64; checkpoints store float32 (matching
the embedding files). The LS block is a frozen lookup: it contributes
features but never receives gradient, and its table bytes are untouched by
training.

Feature blocks sit side by side in a fixed order (word embedding, char
BiLSTM representation, capitalization embedding, LS vector, gazetteer
bits), each at the columns `TaggerModel.slices` fixes; disabled blocks are
omitted and every downstream dimension shrinks to match. Sentences reach the network through `TaggerModel.encode`,
which looks up each distinct surface of a data set once; a training batch
is a selection of encoded sentences, and every tagging request is encoded
on its own.

Parameters live in a `ParamStore`: named tensors that are views into one
contiguous float64 buffer. Names iterate in `TaggerModel.shapes` order,
which is also the checkpoint order. In the buffer each `{prefix}_fwd.{k}`
tensor sits directly before its `{prefix}_bwd.{k}` twin, so both
directions of a BiLSTM read their weights as one stacked (2, ...) view
without a copy. Gradients and SGD momentum use stores of the same layout,
so zeroing, clipping and the update are whole-buffer operations.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .. import binfile
from ..corpus import CapClass, Sentence, TagScheme, capitalization_class, split_tag
from ..embed import EmbeddingTable, lowercase_index
from ..errors import DataError, FormatError, NumericalError, SchemeError
from ..lexsim import LSTable
from .crf import (
    bilou_allowed_transitions,
    crf_nll_and_grad,
    viterbi_decode_batched,
)
from .gazetteer import Gazetteer, gazetteer_features
from .lstm import glorot, init_lstm_params, lstm_backward, lstm_forward, padded_reversal

CHECKPOINT_MAGIC = b"LXNR"
CHECKPOINT_VERSION = 2

FEATURE_NAMES = ("word_emb", "char", "cap", "ls", "gazetteer")
N_CAP_CLASSES = len(CapClass)


@dataclass
class TaggerConfig:
    word_hidden: int = 128
    char_emb_dim: int = 25
    char_hidden: int = 50
    cap_emb_dim: int = 25
    dropout_prob: float = 0.5
    batch_size: int = 10
    learning_rate: float = 0.009
    momentum: float = 0.9
    clip_norm: float = 5.0
    max_epochs: int = 50
    decay_rate: float = 0.95
    patience: int = 5
    seed: int = 1
    features: tuple[str, ...] = ("word_emb", "char", "cap", "ls")

    def __post_init__(self):
        if isinstance(self.features, (list, set)):
            self.features = tuple(self.features)
        for f in self.features:
            if f not in FEATURE_NAMES:
                raise DataError(
                    f"unknown feature block: {f!r}; known: {', '.join(FEATURE_NAMES)}")
        if len(set(self.features)) != len(self.features):
            raise DataError("duplicate feature blocks")
        if not self.features:
            raise DataError("at least one feature block is required")
        for name in ("word_hidden", "char_emb_dim", "char_hidden", "cap_emb_dim",
                     "batch_size", "max_epochs", "patience"):
            if not getattr(self, name) > 0:  # rejects nan, which `<= 0` lets through
                raise DataError(f"{name} must be positive")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise DataError("dropout_prob must be in [0, 1)")
        if not (0.0 < self.decay_rate <= 1.0):
            raise DataError("decay_rate must be in (0, 1]")
        if not (0 < self.learning_rate < math.inf and 0 < self.clip_norm < math.inf):
            raise DataError("learning_rate and clip_norm must be positive and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise DataError("momentum must be in [0, 1)")
        if self.seed < 0:
            raise DataError("seed must be non-negative")

    def uses(self, feature: str) -> bool:
        return feature in self.features


@lru_cache(maxsize=16)
def _layout(shapes: tuple[tuple[str, tuple[int, ...]], ...]) -> tuple[dict, int, dict]:
    """Where each tensor of a `ParamStore` sits in its flat buffer.

    Returns (slice of the buffer by name, in `shapes` order; buffer size;
    stacked pairs by prefix, each {short name: (offset, (2, *shape))}).
    Every `{prefix}_fwd.{k}` tensor must have a `{prefix}_bwd.{k}` twin of
    its shape, placed right after it. Cached: every store of the same
    shapes shares the result, read only.
    """
    shape_of = dict(shapes)
    offsets: dict[str, int] = {}
    pairs: dict[str, dict[str, tuple[int, tuple[int, ...]]]] = {}
    at = 0
    for name, shape in shapes:
        if name in offsets:
            continue
        prefix, fwd, k = name.partition("_fwd.")
        group = [name]
        if fwd:
            twin = f"{prefix}_bwd.{k}"
            if shape_of.get(twin) != shape or twin in offsets:
                raise DataError(f"{name!r} has no {twin!r} of its shape after it")
            pairs.setdefault(prefix, {})[k] = (at, (2, *shape))
            group.append(twin)
        for g in group:
            offsets[g] = at
            at += math.prod(shape_of[g])
    spans = {name: slice(offsets[name], offsets[name] + math.prod(shape)) for name, shape in shapes}
    return spans, at, pairs


class ParamStore(Mapping):
    """Named float64 tensors that are views into one flat buffer, `flat`.

    Names iterate in the order of `shapes`. In `flat`, each `{p}_fwd.{k}`
    tensor is followed directly by its `{p}_bwd.{k}` twin, and `stacked`
    exposes the pair as one (2, ...) view, and `spans` gives each tensor's
    slice of `flat` in name order (shared by every store of the layout, read
    only). Assigning to a name copies the values into that tensor's view, so
    `flat` stays the home of every tensor.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        self.shapes = {k: tuple(v) for k, v in shapes.items()}
        self.spans, size, self._pairs = _layout(tuple(self.shapes.items()))
        self.flat = np.zeros(size)
        self._views = {k: self.flat[span].reshape(self.shapes[k]) for k, span in self.spans.items()}
        self._stacked: dict[str, dict[str, np.ndarray]] = {}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ParamStore":
        store = cls({k: np.shape(v) for k, v in arrays.items()})
        for k, v in arrays.items():
            store[k] = v
        return store

    def zeros_like(self) -> "ParamStore":
        """A zero-filled store with the same names and layout."""
        return ParamStore(self.shapes)

    def stacked(self, prefix: str) -> dict[str, np.ndarray]:
        """`{prefix}_fwd.*` and `{prefix}_bwd.*` as (2, ...) views, by short name."""
        if prefix not in self._stacked:
            self._stacked[prefix] = {k: self.flat[at : at + math.prod(shape)].reshape(shape)
                                     for k, (at, shape) in self._pairs[prefix].items()}
        return self._stacked[prefix]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        view = self._views[name]
        value = np.asarray(value)
        if value.shape != view.shape:
            raise DataError(f"{name!r} holds shape {view.shape}, not {value.shape}")
        view[...] = value

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


# padded positions (sentences times the longest) tagged at once; bounds the
# working set of `tag_batch`, which is about 6.3 KiB per padded position at
# the default TaggerConfig (tracemalloc peak of a run of 4,096 positions)
_TAG_CHUNK_POSITIONS = 4096


def _runs(lengths: Sequence[int], limit: int) -> Iterator[slice]:
    """Consecutive runs of sentences of these lengths, of at most `limit`
    padded positions each; a sentence longer than `limit` is a run of its own.
    `tag_batch` passes them longest first when its input needs more than one
    run, and in input order when it fits in one; it returns tags in input order.
    """
    start, longest = 0, 0
    for i, n in enumerate(lengths):
        longest = max(longest, n)
        if (i + 1 - start) * longest > limit and i > start:
            yield slice(start, i)
            start, longest = i, n
    if start < len(lengths):
        yield slice(start, len(lengths))


@dataclass(frozen=True)
class Encoded:
    """Sentences as rows of a table of their distinct surfaces; see
    `TaggerModel.encode`.

    Per-token arrays list the tokens sentence by sentence; sentence k holds
    tokens `bounds[k]` to `bounds[k + 1]`. `table` has one row per surface
    for what the surface feeds the tagger wherever it occurs: "word_ids",
    "caps", "ls" (float64 rows) and its characters' ids,
    `char_ids[char_start[j] : char_start[j] + char_len[j]]`, each present
    when its block is used. `take` selects sentences and shares the table.
    """

    sentences: list[Sentence]
    bounds: np.ndarray                # (sentences + 1,) token offsets
    surface_ids: np.ndarray           # per token, its row of `table`
    gold: np.ndarray | None           # per token, its tag id
    gazetteer: np.ndarray | None      # per token, its gazetteer bits (tokens, names)
    table: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.sentences)

    def take(self, which: Sequence[int]) -> "Encoded":
        which = np.asarray(which, dtype=np.int64)
        lengths = self.bounds[which + 1] - self.bounds[which]
        bounds = np.zeros(len(which) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        at = np.arange(bounds[-1]) + np.repeat(self.bounds[which] - bounds[:-1], lengths)

        def pick(per_token):
            return None if per_token is None else per_token[at]

        return Encoded([self.sentences[i] for i in which.tolist()], bounds, self.surface_ids[at],
                       pick(self.gold), pick(self.gazetteer), self.table)


def _row_sums(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """`np.add.at(np.zeros((n_rows, d)), index, values)`: each row's sum of
    the `values` rows sent to it, added in order of appearance, through one
    bincount."""
    d = values.shape[1]
    return np.bincount((index[:, None] * d + np.arange(d)).ravel(), weights=values.ravel(),
                       minlength=n_rows * d).reshape(n_rows, d)


def _first_occurrences(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of `ids` in order of first occurrence, and the
    index of each element's value among them."""
    index: dict[int, int] = {}
    inverse = [index.setdefault(i, len(index)) for i in ids.tolist()]
    return np.fromiter(index, np.int64, len(index)), np.array(inverse, dtype=np.int64)


def _positions(T: int, B: int) -> np.ndarray:
    """The (T, B) row index of a batch that has one row per position."""
    return np.arange(T * B).reshape(T, B)


def _lstm_shapes(prefix: str, input_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The `init_lstm_params` tensors of both directions of a BiLSTM."""
    one = {"wx": (input_dim, 4 * hidden), "wh": (hidden, 4 * hidden), "b": (4 * hidden,)}
    return {f"{prefix}_{d}.{k}": shape for d in ("fwd", "bwd") for k, shape in one.items()}


class TaggerModel:
    """The tensor layout plus the frozen lookups.

    `shapes` is the name and shape of every trainable tensor in build order,
    which is also the checkpoint order; the config, the tag, char and word
    lists, the pretrained width `word_dim` and the frozen tables fix it.
    `slices` is each used feature block's columns of the word BiLSTM's
    input. Only the tables the config's blocks read are kept: the word list,
    `ls_table` and `gazetteer` of a block that is off are dropped, so they
    reach neither the input nor a checkpoint. `params`, a `ParamStore` of
    that layout, is filled by `build` or `load_checkpoint`.
    """

    params: ParamStore

    def __init__(
        self,
        config: TaggerConfig,
        tags: list[str],
        chars: list[str],
        words: list[str],
        word_dim: int,
        ls_table: LSTable | None,
        gazetteer: Gazetteer | None,
    ):
        self.config = config
        self.tags = list(tags)
        if not self.tags:
            raise DataError("empty tag set")
        self.tag_index = {t: i for i, t in enumerate(self.tags)}
        self.chars = list(chars)
        self.char_index = {c: i + 1 for i, c in enumerate(self.chars)}  # 0 = UNK
        self.words = list(words) if config.uses("word_emb") else []  # row 0 of word_emb is UNK
        # the table's lowercased index, so the model reads the row the table does
        self.word_index = lowercase_index(self.words, start=1)
        self.word_dim = word_dim if config.uses("word_emb") else 0
        self.ls_table = ls_table if config.uses("ls") else None
        self.gazetteer = gazetteer if config.uses("gazetteer") else None
        if config.uses("ls") and ls_table is None:
            raise DataError("config enables the ls block but no LS table was given")
        if config.uses("gazetteer") and gazetteer is None:
            raise DataError("config enables the gazetteer block but none was given")
        width = {"word_emb": self.word_dim, "char": 2 * config.char_hidden,
                 "cap": config.cap_emb_dim,
                 "ls": 0 if self.ls_table is None else self.ls_table.dim,
                 "gazetteer": 0 if self.gazetteer is None else len(self.gazetteer)}
        self.slices: dict[str, slice] = {}
        at = 0
        for f in filter(config.uses, FEATURE_NAMES):
            if width[f] < 1:
                raise DataError(f"feature block {f} has input width 0")
            self.slices[f] = slice(at, at + width[f])
            at += width[f]
        self.input_dim = at

        shapes: dict[str, tuple[int, ...]] = {}
        if config.uses("word_emb"):
            shapes["word_emb"] = (len(self.words) + 1, word_dim)
        if config.uses("char"):
            shapes["char_emb"] = (len(self.chars) + 1, config.char_emb_dim)
            shapes.update(_lstm_shapes("char", config.char_emb_dim, config.char_hidden))
        if config.uses("cap"):
            shapes["cap_emb"] = (N_CAP_CLASSES, config.cap_emb_dim)
        shapes.update(_lstm_shapes("word", self.input_dim, config.word_hidden))
        n_tags = len(self.tags)
        shapes.update(proj_w=(2 * config.word_hidden, n_tags), proj_b=(n_tags,),
                      trans=(n_tags + 2, n_tags + 2))
        self.shapes = shapes
        self.allowed = bilou_allowed_transitions(self.tags)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        config: TaggerConfig,
        tags: Sequence[str],
        charset: Sequence[str],
        pretrained: EmbeddingTable | None = None,
        ls_table: LSTable | None = None,
        gazetteer: Gazetteer | None = None,
    ) -> "TaggerModel":
        if config.uses("word_emb") and pretrained is None:
            raise DataError("word_emb block needs a pretrained embedding table")
        words, word_dim = ([], 0) if pretrained is None else (pretrained.words, pretrained.dim)
        model = cls(config, sorted(set(tags)), sorted(set(charset)), words, word_dim,
                    ls_table, gazetteer)
        params = model.params = ParamStore(model.shapes)  # zeros: the UNK row, proj_b, trans

        rng = np.random.default_rng(config.seed)

        def lstm(prefix: str, input_dim: int, hidden: int) -> None:
            for d in ("fwd", "bwd"):
                for k, v in init_lstm_params(rng, input_dim, hidden).items():
                    params[f"{prefix}_{d}.{k}"] = v

        if config.uses("word_emb"):
            params["word_emb"][1:] = pretrained.vectors
        if config.uses("char"):
            params["char_emb"] = glorot(rng, model.shapes["char_emb"])
            lstm("char", config.char_emb_dim, config.char_hidden)
        if config.uses("cap"):
            params["cap_emb"] = glorot(rng, model.shapes["cap_emb"])
        lstm("word", model.input_dim, config.word_hidden)
        params["proj_w"] = glorot(rng, model.shapes["proj_w"])
        return model

    # -- feature assembly ---------------------------------------------------

    def word_id(self, surface: str) -> int:
        return self.word_index.get(surface.lower(), 0)

    def char_ids(self, surface: str) -> list[int]:
        return [self.char_index.get(c, 0) for c in surface]

    def encode(self, sentences: Sequence[Sentence], gold: bool = False) -> Encoded:
        """What each distinct surface of `sentences` feeds the tagger, looked
        up once, with each sentence as rows of that table; with `gold`, also
        each sentence's tags as ids.

        Every per-token feature except the gazetteer bits depends on the
        surface alone; the gazetteer bits depend on the context, so they are
        kept per token.
        """
        cfg = self.config
        sentences = list(sentences)
        bounds = np.add.accumulate([0] + [len(s) for s in sentences])
        tag_ids = None
        if gold:
            if any(s.tags is None for s in sentences):
                raise DataError("training sentences must carry gold tags")
            try:
                tag_ids = np.array([self.tag_index[t] for s in sentences for t in s.tags],
                                   dtype=np.int64)
            except KeyError as exc:
                raise DataError(f"tag {exc.args[0]!r} not in the model tag set") from None
        # plain dict, not np.unique: fixed-width numpy strings drop trailing NULs
        index: dict[str, int] = {}
        ids = np.array([index.setdefault(w, len(index))
                        for s in sentences for w in s.words], dtype=np.int64)
        surfaces = list(index)
        table: dict[str, np.ndarray] = {}
        n = len(surfaces)
        if cfg.uses("word_emb"):
            table["word_ids"] = np.array([self.word_id(w) for w in surfaces], dtype=np.int64)
        if cfg.uses("char"):
            lens = np.fromiter(map(len, surfaces), np.int64, n)
            table.update(char_len=lens, char_start=np.cumsum(lens) - lens,
                         char_ids=np.array(self.char_ids("".join(surfaces)) + [0], dtype=np.int64))
        if cfg.uses("cap"):
            table["caps"] = np.fromiter(map(capitalization_class, surfaces), np.int64, n)
        if cfg.uses("ls"):
            table["ls"] = self.ls_table.vectors(surfaces).astype(np.float64)
        gaz = None
        if cfg.uses("gazetteer"):
            gaz = np.concatenate([np.zeros((0, len(self.gazetteer)))]
                                 + [gazetteer_features(s, self.gazetteer) for s in sentences])
        return Encoded(sentences, bounds, ids, tag_ids, gaz, table)

    def _bilstm(
        self, prefix: str, x: np.ndarray, rows: np.ndarray, lengths: np.ndarray,
        mask: np.ndarray, backward: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """`{prefix}_fwd` over a batch and `{prefix}_bwd` over it reversed
        within `lengths`, as one stacked recurrence.

        The batch is given as input rows x (N, D) and the (T, B) index
        `rows` of the row at each position, in reading order, so each
        direction projects a row once, however many positions it feeds. Returns
        h_seq (2, T, B, H) and h_final (2, B, H), direction 1 in its own
        (reversed) time order, plus the context for `_bilstm_backward`,
        whose "rev" index reverses any (T, B, ...) array of this batch
        within `lengths`. Without `backward` the context holds no LSTM cache.
        """
        rev = padded_reversal(lengths, rows.shape[0])
        p = self.params.stacked(prefix)
        h_seq, h_final, _, cache = lstm_forward(p, x, mask, rows=np.array((rows, rows[rev])),
                                                keep_cache=backward)
        return h_seq, h_final, {"prefix": prefix, "params": p, "cache": cache, "rev": rev}

    def _bilstm_backward(
        self, ctx: dict, grads: ParamStore, dh_seq: np.ndarray | None,
        dh_final: np.ndarray | None = None,
    ) -> np.ndarray:
        """Backprop through `_bilstm`, gradients in the layout it returned.

        Adds the parameter gradients into the stacked fwd/bwd views of
        `grads` and returns dx (T, B, D), per position, in reading order.
        """
        dx, g = lstm_backward(ctx["params"], ctx["cache"], dh_seq, dh_final=dh_final)
        for k, v in grads.stacked(ctx["prefix"]).items():
            v += g[k]
        return dx[0] + dx[1][ctx["rev"]]

    def _char_reps(
        self, cids: np.ndarray, clens: np.ndarray, backward: bool = True
    ) -> tuple[np.ndarray, dict]:
        """BiLSTM over the characters of n words: char ids (lmax, n), zero
        past each word, and lengths (n,), at least 1 each.

        Returns reps (n, 2*char_hidden) plus the cache needed for the
        backward pass.
        """
        cmask = (np.arange(len(cids))[:, None] < clens[None, :]).astype(np.float64)
        # padding reads the UNK row, as every position of an empty word does
        _, h_final, bictx = self._bilstm("char", self.params["char_emb"], cids, clens, cmask,
                                         backward)
        return np.concatenate(h_final, axis=1), {"n": len(clens), "cids": cids, "cmask": cmask,
                                                 "bilstm": bictx}

    def _char_backward(self, d_reps: np.ndarray, ctx: dict, grads: ParamStore) -> None:
        d_final = np.swapaxes(d_reps.reshape(len(d_reps), 2, -1), 0, 1)  # (2, n, char_hidden)
        dxe = self._bilstm_backward(ctx["bilstm"], grads, None, dh_final=d_final)
        real = ctx["cmask"].astype(bool)
        grads["char_emb"] = _row_sums(ctx["cids"][real], dxe[real], len(self.chars) + 1)

    def _assemble(
        self, batch: Encoded, backward: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
        """The word BiLSTM's input: rows x (N, D_in) and the (T, B) index
        `rows` of the row at each position, so x[rows] is the (T, B, D_in)
        batch of concatenated feature blocks.

        Also returns lengths (B,), mask (T, B), and the assembly context
        used to route gradients back into the trainable blocks; without
        `backward`, the char BiLSTM keeps no cache for them.

        There is one row per distinct surface of the batch, in order of
        first occurrence, gathered from the encoding's table, plus an
        all-zero last row that every padded position reads. With the
        gazetteer block every position gets a row of its own.
        """
        cfg = self.config
        B = len(batch)
        lengths = batch.bounds[1:] - batch.bounds[:-1]
        if lengths.min() < 1:
            raise DataError("cannot process an empty sentence in a batch")
        T = int(lengths.max())
        mask = (np.arange(T)[:, None] < lengths[None, :]).astype(np.float64)
        real = mask.astype(bool)

        types, inverse = _first_occurrences(batch.surface_ids)
        rows = np.full((B, T), len(types), dtype=np.int64)
        rows[real.T] = inverse  # surfaces are listed sentence by sentence
        rows = rows.T
        type_at = rows[real]  # type of each real position, in (t, b) order
        ctx: dict = {"real": real, "type_at": type_at}

        table = batch.table
        sl = self.slices
        x = np.zeros((len(types) + 1, self.input_dim))
        if cfg.uses("word_emb"):
            ctx["wids"] = table["word_ids"][types]
            x[:-1, sl["word_emb"]] = self.params["word_emb"][ctx["wids"]]
        if cfg.uses("char"):
            lens = table["char_len"][types]
            pos = np.arange(max(1, int(lens.max())))[:, None]
            cids = np.where(pos < lens, table["char_ids"].take(table["char_start"][types] + pos,
                                                               mode="clip"), 0)
            x[:-1, sl["char"]], ctx["char"] = self._char_reps(cids, np.maximum(lens, 1), backward)
        if cfg.uses("cap"):
            ctx["caps"] = table["caps"][types]
            x[:-1, sl["cap"]] = self.params["cap_emb"][ctx["caps"]]
        if cfg.uses("ls"):
            x[:-1, sl["ls"]] = table["ls"][types]
        if cfg.uses("gazetteer"):
            x = x[rows]
            np.swapaxes(x, 0, 1)[real.T, sl["gazetteer"]] = batch.gazetteer
            x, rows = x.reshape(T * B, self.input_dim), _positions(T, B)
        return x, rows, lengths, mask, ctx

    # -- forward/backward ---------------------------------------------------

    def _word_bilstm(
        self, x: np.ndarray, rows: np.ndarray, lengths: np.ndarray, mask: np.ndarray,
        backward: bool = True,
    ) -> tuple[np.ndarray, dict]:
        """Word BiLSTM states (T, B, 2*word_hidden), both halves in reading order."""
        h_seq, _, bictx = self._bilstm("word", x, rows, lengths, mask, backward)
        h = np.concatenate([h_seq[0], h_seq[1][bictx["rev"]]], axis=2)
        return h, bictx

    def nll_and_gradients(
        self,
        batch: Encoded,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, ParamStore]:
        """Batch NLL and gradients for every trainable parameter tensor.

        `batch` is sentences as `encode(..., gold=True)` gives them.
        Training mode applies fresh per-timestep dropout masks to the word
        BiLSTM's input and output vectors; rng is required then. The
        gradient of each trainable block is read from its `slices` columns
        of the word BiLSTM's input gradient.
        """
        cfg = self.config
        if batch.gold is None:
            raise DataError("training sentences must carry gold tags")
        x, rows, lengths, mask, ctx = self._assemble(batch)
        T, B = rows.shape

        drop_in = drop_out_mask = None
        if train and cfg.dropout_prob > 0.0:
            if rng is None:
                raise DataError("training mode needs a random generator for dropout")
            keep = 1.0 - cfg.dropout_prob
            # the mask is drawn per position, so each position gets a row
            drop_in = (rng.random((T, B, x.shape[1])) < keep) / keep
            x, rows = (x[rows] * drop_in).reshape(T * B, -1), _positions(T, B)

        h, wctx = self._word_bilstm(x, rows, lengths, mask)
        if train and cfg.dropout_prob > 0.0:
            keep = 1.0 - cfg.dropout_prob
            drop_out_mask = (rng.random(h.shape) < keep) / keep
            h = h * drop_out_mask

        em = h @ self.params["proj_w"] + self.params["proj_b"]

        gold = np.zeros((B, T), dtype=np.int64)
        gold[ctx["real"].T] = batch.gold
        nll, dem, dtrans = crf_nll_and_grad(em, lengths, gold.T, self.params["trans"])

        grads = self.params.zeros_like()
        grads["trans"] = dtrans
        flat_h = h.reshape(T * B, -1)
        flat_dem = dem.reshape(T * B, -1)
        grads["proj_w"] = flat_h.T @ flat_dem
        grads["proj_b"] = flat_dem.sum(axis=0)
        dh = dem @ self.params["proj_w"].T
        if drop_out_mask is not None:
            dh = dh * drop_out_mask

        hc = cfg.word_hidden
        dh_seq = np.array((dh[:, :, :hc], dh[:, :, hc:][wctx["rev"]]))
        dx = self._bilstm_backward(wctx, grads, dh_seq)
        if drop_in is not None:
            dx = dx * drop_in

        sl = self.slices
        type_at = ctx["type_at"]
        dx_real = dx[ctx["real"]]
        # each gradient below starts at zero, so its row sums set it
        if cfg.uses("word_emb"):
            # only the batch's words, not the whole vocabulary
            words, local = _first_occurrences(ctx["wids"])
            grads["word_emb"][words] = _row_sums(local[type_at], dx_real[:, sl["word_emb"]],
                                                 len(words))
        if cfg.uses("char"):
            # a word's rep feeds every position it occupies
            d_reps = _row_sums(type_at, dx_real[:, sl["char"]], ctx["char"]["n"])
            self._char_backward(d_reps, ctx["char"], grads)
        if cfg.uses("cap"):
            grads["cap_emb"] = _row_sums(ctx["caps"][type_at], dx_real[:, sl["cap"]], N_CAP_CLASSES)
        # ls and gazetteer blocks are frozen: no gradient routes to them
        return nll, grads

    # -- inference ----------------------------------------------------------

    def emissions(self, batch: Encoded) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode emission scores (T, B, L) and lengths; no backward pass
        follows, so neither BiLSTM keeps a cache."""
        x, rows, lengths, mask, _ = self._assemble(batch, backward=False)
        h, _ = self._word_bilstm(x, rows, lengths, mask, backward=False)
        em = h @ self.params["proj_w"] + self.params["proj_b"]
        return em, lengths

    def tag_batch(self, batch: Sequence[Sentence] | Encoded) -> list[list[str]]:
        """Tags of every sentence, in input order. Input that fits in one run
        of `_TAG_CHUNK_POSITIONS` padded positions is decoded as it is; larger
        input in runs of its sentences ordered by length, longest first (a
        stable sort), so that each run pads little."""
        data = batch if isinstance(batch, Encoded) else self.encode(batch)
        lengths = (data.bounds[1:] - data.bounds[:-1]).tolist()
        tagged = [i for i, n in enumerate(lengths) if n > 0]
        if len(tagged) > 1 and len(tagged) * max(lengths) > _TAG_CHUNK_POSITIONS:
            tagged.sort(key=lengths.__getitem__, reverse=True)
        paths: dict[int, list[int]] = {}
        for part in _runs([lengths[i] for i in tagged], _TAG_CHUNK_POSITIONS):
            which = tagged[part]
            em, em_lengths = self.emissions(data if len(which) == len(data) else data.take(which))
            decoded = viterbi_decode_batched(em, em_lengths, self.params["trans"], self.allowed)[0]
            paths.update(zip(which, decoded))
        return [[self.tags[j] for j in paths.get(i, [])] for i in range(len(lengths))]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

HEADER_OFFSET = len(binfile.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "I", 0))  # JSON start
HEADER_KEYS = ("version", "config", "tags", "chars", "words", "word_dim", "ls_hash", "gazetteer")
# JSON types a config value may have, by the type of the field's default
_CONFIG_JSON_TYPES = {int: (int,), float: (int, float), tuple: (list,)}


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _read_header(blob: bytes) -> dict:
    """Decode the JSON header and check its schema; "config" comes back as
    a `TaggerConfig`. Any defect is a FormatError at the header's offset."""

    def bad(what: str) -> FormatError:
        return FormatError(f"bad checkpoint header: {what}", HEADER_OFFSET)

    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise bad(str(exc)) from None
    if not isinstance(header, dict):
        raise bad("not a JSON object")
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise bad(f"missing {', '.join(missing)}")
    config = header["config"]
    if not isinstance(config, dict):
        raise bad("config is not an object")
    known = {f.name: type(f.default) for f in fields(TaggerConfig)}
    unknown = [k for k in config if k not in known]
    absent = [k for k in known if k not in config]
    if unknown or absent:
        raise bad(f"config fields unknown {unknown}, missing {absent}")
    mistyped = [k for k, t in known.items() if type(config[k]) not in _CONFIG_JSON_TYPES[t]]
    if mistyped:
        raise bad(f"config fields of the wrong type {mistyped}")
    try:
        header["config"] = TaggerConfig(**config)
    except DataError as exc:  # a value out of its range
        raise bad(str(exc)) from None
    for key in ("tags", "chars", "words"):
        if not _is_str_list(header[key]):
            raise bad(f"{key} is not a list of strings")
    try:  # every tag is a state of the CRF's BILOU grammar
        for i, tag in enumerate(header["tags"]):
            split_tag(tag, TagScheme.BILOU, i)
    except SchemeError as exc:
        raise bad(f"tags {exc}") from None
    if type(header["word_dim"]) is not int or header["word_dim"] < 0:
        raise bad("word_dim is not a non-negative integer")
    if not isinstance(header["ls_hash"], str):
        raise bad("ls_hash is not a string")
    gaz = header["gazetteer"]
    if gaz is not None and not (isinstance(gaz, dict) and all(_is_str_list(v) for v in gaz.values())):
        raise bad("gazetteer is not an object of string lists")
    return header


def float32_flat(params: ParamStore, context: str = "") -> np.ndarray:
    """`params.flat` as little-endian float32. A value that is not finite
    there (a diverged fit) is a NumericalError naming the first parameter,
    in name order, that holds one; `context` leads its message."""
    with np.errstate(over="ignore"):
        flat32 = params.flat.astype("<f4")
    if not np.isfinite(flat32).all():
        bad = next(k for k, span in params.spans.items() if not np.isfinite(flat32[span]).all())
        raise NumericalError(f"{context}parameter {bad!r} does not fit in float32; the fit diverged")
    return flat32


def save_checkpoint(model: TaggerModel, path: str | Path) -> None:
    """Single binary file: magic, version, JSON header, float32 tensors in
    `model.shapes` order. A parameter that overflows float32 (a diverged
    fit) is a NumericalError, raised before the file is opened."""
    flat32 = float32_flat(model.params)
    tensors = [flat32[span].tobytes() for span in model.params.spans.values()]
    gaz = model.gazetteer
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "tags": model.tags,
        "chars": model.chars,
        "words": model.words,
        "word_dim": model.word_dim,
        "ls_hash": model.ls_table.content_hash() if model.ls_table is not None else "",
        "gazetteer": None if gaz is None else {
            name: sorted(" ".join(e) for e in gaz.entries[name]) for name in gaz.names},
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(binfile.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "I", len(blob)) + blob)
        fh.writelines(tensors)


def load_checkpoint(path: str | Path, ls_table: LSTable | None = None) -> TaggerModel:
    """Rebuild a model from its checkpoint.

    The header builds the model, whose `shapes` say how many values each
    tensor reads; a header that sizes tensors beyond the file is a
    truncation, checked before any store is allocated. A model that uses
    the LS block needs the same table it was trained with; the stored
    content hash guards against a silent swap.
    """
    r = binfile.Reader(Path(path).read_bytes())
    (blob_len,) = r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", "I")
    header = _read_header(bytes(r.take(blob_len, "checkpoint metadata")))
    cfg = header["config"]
    gaz = None if header["gazetteer"] is None else Gazetteer(header["gazetteer"])
    model = TaggerModel(cfg, header["tags"], header["chars"], header["words"], header["word_dim"],
                        ls_table, gaz)
    ls = model.ls_table
    if ls is not None and header["ls_hash"] and ls.content_hash() != header["ls_hash"]:
        raise DataError("LS table content hash does not match the checkpoint")
    values = {name: r.floats(math.prod(shape), f"tensor {name!r}")
              for name, shape in model.shapes.items()}
    r.end("last tensor")
    model.params = ParamStore(model.shapes)
    for name, v in values.items():
        model.params[name] = v.reshape(model.shapes[name])
    return model
