"""Small hand-built worlds shared by the tagger test modules."""
import json
import struct

import numpy as np

from lexner.corpus import Sentence, TypeInventory
from lexner.embed import EmbeddingTable
from lexner.lexsim import build_ls_table
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
    "mistyped_param_shape": lambda h: {**h, "params": [{"name": "trans", "shape": "2x2"}]},
    "renamed_param": lambda h: {**h, "params": [{**s, "name": s["name"].replace("proj_b", "proj_c")}
                                                for s in h["params"]]},
    "zero_dimension_shape": lambda h: {**h, "params": [{**s, "shape": [0, 2**62]} if s["name"] == "trans"
                                                       else s for s in h["params"]]},
}
