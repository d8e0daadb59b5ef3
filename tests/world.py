"""Small hand-built worlds shared by the tagger test modules, and the
synthetic-world helpers that only tests use."""
import json
import struct

import numpy as np

from lexner.corpus import Mention, Sentence, TypeInventory, mentions_to_tags
from lexner.embed import EmbeddingTable
from lexner.lexsim import build_ls_table
from lexner.synth import SynthWorld
from lexner.tagger.model import TaggerConfig

TYPES3 = ["/color", "/animal", "/metal"]

VOCAB = [
    "the", "a", "saw", "ran", "is", "old", "red", "fox", "crow", "iron",
    "gold", "rust", "barn", "sky",
]


def tiny_embeddings(dim=6, seed=0, types=TYPES3, vocab=VOCAB):
    rng = np.random.default_rng(seed)
    words = list(types) + list(vocab)
    vecs = rng.normal(size=(len(words), dim)).astype(np.float32)
    return EmbeddingTable(words, vecs), TypeInventory(types)


def tiny_world(dim=6, seed=0):
    table, inv = tiny_embeddings(dim=dim, seed=seed)
    ls = build_ls_table(VOCAB, table, inv)
    return table, inv, ls


def tiny_config(**kw):
    base = dict(
        word_hidden=4,
        char_emb_dim=3,
        char_hidden=2,
        cap_emb_dim=2,
        dropout_prob=0.5,
        batch_size=2,
        learning_rate=0.01,
        max_epochs=5,
        seed=3,
    )
    base.update(kw)
    return TaggerConfig(**base)


def tagged_sentences():
    rows = [
        (["the", "red", "fox", "ran"], ["O", "O", "U-animal", "O"]),
        (["a", "crow", "saw", "the", "barn"], ["O", "U-animal", "O", "O", "O"]),
        (["old", "iron", "rust", "is", "red"], ["O", "B-metal", "L-metal", "O", "O"]),
        (["gold", "is", "old"], ["U-metal", "O", "O"]),
        (["the", "sky", "is", "red"], ["O", "O", "O", "U-color"]),
        (["red", "gold", "saw", "a", "fox"], ["B-metal", "L-metal", "O", "O", "U-animal"]),
    ]
    return [Sentence.from_words(w, tags=t) for w, t in rows]


def edit_checkpoint_header(raw: bytes, edit) -> bytes:
    """Checkpoint bytes with the JSON header replaced by `edit(header)`.

    `edit` gets the decoded header dict and returns either a dict, which is
    re-encoded as JSON, or raw header bytes, which are used as they are.
    """
    (n,) = struct.unpack("<I", raw[5:9])
    header = edit(json.loads(raw[9 : 9 + n].decode("utf-8")))
    blob = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    return raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + n :]


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


# name -> header edit that load_checkpoint must reject at the header offset
BAD_CHECKPOINT_HEADERS = {
    "invalid_utf8": lambda h: b"\xff" + json.dumps(h).encode("utf-8")[1:],
    "invalid_json": lambda h: json.dumps(h).encode("utf-8")[:-1],
    "not_an_object": lambda h: [h],
    "missing_key": lambda h: _without(h, "tags"),
    "config_not_an_object": lambda h: {**h, "config": [1, 2]},
    "unknown_config_field": lambda h: {**h, "config": {**h["config"], "bogus": 1}},
    "missing_config_field": lambda h: {**h, "config": _without(h["config"], "seed")},
    "mistyped_config_value": lambda h: {**h, "config": {**h["config"], "word_hidden": "big"}},
    "mistyped_tags": lambda h: {**h, "tags": "O"},
    "fractional_config_int": lambda h: {**h, "config": {**h["config"], "word_hidden": 2.5}},
    "missing_word_dim": lambda h: _without(h, "word_dim"),
    "mistyped_word_dim": lambda h: {**h, "word_dim": "6"},
    "negative_word_dim": lambda h: {**h, "word_dim": -1},
    "mistyped_gazetteer": lambda h: {**h, "gazetteer": {"metals": "iron"}},
    "config_value_out_of_range": lambda h: {**h, "config": {**h["config"], "batch_size": 0}},
    "config_probability_out_of_range": lambda h: {**h, "config": {**h["config"], "dropout_prob": 2.0}},
    "negative_config_seed": lambda h: {**h, "config": {**h["config"], "seed": -1}},
}


def resize_header(header: dict, key: str, how: str, arg) -> dict:
    """Edit a header list or int field, in the header or its config:
    "extra" appends `arg` new items, "fewer" drops the last `arg` items and
    "set" replaces the value with `arg`."""
    target = header["config"] if key in header["config"] else header
    if how == "extra":
        target[key] = target[key] + [f"extra{i}" for i in range(arg)]
    elif how == "fewer":
        target[key] = target[key][:-arg]
    else:
        target[key] = arg
    return header


# name -> (key, how, arg) header edit of a consistent length that changes the
# tensor layout the header implies; loading must end in a LexnerError
RESIZING_HEADER_EDITS = {
    "one_more_tag": ("tags", "extra", 1),
    "one_tag_fewer": ("tags", "fewer", 1),
    "two_more_chars": ("chars", "extra", 2),
    "one_more_word": ("words", "extra", 1),
    "huge_word_hidden": ("word_hidden", "set", 2**40),
}


def planted_counts(world: SynthWorld, sentences: list[Sentence]) -> dict[str, int]:
    """How often each planted entity surface occurs (for corpus sanity checks)."""
    counts = {w: 0 for w in world.all_planted()}
    for s in sentences:
        for tok in s.tokens:
            if tok.lower in counts:
                counts[tok.lower] += 1
    return counts


def overfit_dataset(world: SynthWorld, n: int = 20, seed: int = 4) -> list[Sentence]:
    """A small fully in-vocabulary tagged set for memorization checks.

    Entity tokens form the majority of every sentence and only three types
    appear, so even the first epochs of a stock configuration move decoded
    tags off the all-outside baseline; that matters because stock early
    stopping tolerates only short plateaus.
    """
    rng = np.random.default_rng((seed, 44))
    labels = list(world.inventory)[:3]
    out: list[Sentence] = []
    for i in range(n):
        t1 = labels[int(rng.integers(len(labels)))]
        t2 = labels[int(rng.integers(len(labels)))]
        w1 = world.planted(t1)[int(rng.integers(2))]
        w2 = world.planted(t2)[int(rng.integers(2))]
        c = world.contexts[t1][int(rng.integers(3))]
        words = [w1, c, w2]
        mentions = [Mention(0, 1, t1), Mention(2, 3, t2)]
        out.append(Sentence.from_words(
            words, mentions=mentions, tags=mentions_to_tags(mentions, len(words))))
    return out
