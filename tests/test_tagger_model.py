"""Model-level tests: feature assembly, full-network gradients, SGD
arithmetic, the training loop, and checkpoint round trips.
"""
import importlib
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexner.corpus import (
    CapClass,
    Mention,
    Sentence,
    TagScheme,
    Token,
    TypeInventory,
    build_dual_corpus,
    format_column,
    load_column_file,
    parse_column_text,
    tags_to_mentions,
)
from lexner.embed import EmbeddingTable, load_embeddings
from lexner.errors import DataError, FormatError, LexnerError, NumericalError
from lexner.evaluation import evaluate
from lexner.lexsim import LSTable, build_ls_table
from lexner.synth import make_world, ner_dataset
from lexner.tagger import (
    Gazetteer,
    TaggerConfig,
    TaggerModel,
    gazetteer_features,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
)
from lexner.tagger import model as model_module
from lexner.tagger.gradcheck import gradient_check
from lexner.tagger.model import HEADER_KEYS, HEADER_OFFSET, ParamStore, _row_sums, _runs
from lexner.tagger.train import global_norm

from per_batch import PerBatchTagger, ref_train
from per_position import PerPositionTagger
from world import (
    BAD_CHECKPOINT_HEADERS,
    RESIZING_HEADER_EDITS,
    TYPES3,
    VOCAB,
    edit_checkpoint_header,
    resize_header,
    tagged_sentences,
    tiny_config,
    tiny_embeddings,
    tiny_world,
)


def build_tiny_model(features=("word_emb", "char", "cap", "ls"), gazetteer=None, **cfg_kw):
    table, inv, ls = tiny_world()
    cfg = tiny_config(features=features, **cfg_kw)
    sents = tagged_sentences()
    tags = sorted({t for s in sents for t in s.tags})
    charset = sorted({c for s in sents for tok in s.tokens for c in tok.surface})
    model = TaggerModel.build(cfg, tags, charset, pretrained=table,
                              ls_table=ls, gazetteer=gazetteer)
    return model, sents, ls


# ---------------------------------------------------------------------------
# feature assembly
# ---------------------------------------------------------------------------

def batch_input(model, words):
    """The word BiLSTM's (T, 1, D) input for one sentence."""
    x, rows = model._assemble(model.encode([Sentence.from_words(words)]))[:2]
    return x[rows]


class TestAssembly:
    def test_input_dim_all_blocks(self):
        # 100-dim words + 2*50 char + 25 cap + 120 ls = 345
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        table = EmbeddingTable(words, rng.normal(size=(30, 100)).astype(np.float32))
        inv = TypeInventory([f"/t{i:03d}" for i in range(120)])
        ls = LSTable(inv, entries={w: np.zeros(120, dtype=np.float32) for w in words})
        cfg = TaggerConfig(features=("word_emb", "char", "cap", "ls"))
        model = TaggerModel.build(cfg, ["O", "U-x"], list("abcw0123456789"),
                                  pretrained=table, ls_table=ls)
        assert model.input_dim == 345

        cfg2 = TaggerConfig(features=("word_emb", "char", "cap"))
        model2 = TaggerModel.build(cfg2, ["O", "U-x"], list("abcw0123456789"),
                                   pretrained=table)
        assert model2.input_dim == 225

        cfg3 = TaggerConfig(features=("word_emb",))
        model3 = TaggerModel.build(cfg3, ["O", "U-x"], [], pretrained=table)
        assert model3.input_dim == 100

    def test_input_dim_tiny(self):
        model, _, ls = build_tiny_model()
        cfg = model.config
        expect = 6 + 2 * cfg.char_hidden + cfg.cap_emb_dim + ls.dim
        assert model.input_dim == expect

    def test_assemble_single_token_blocks(self):
        model, _, ls = build_tiny_model()
        cfg = model.config
        vec = batch_input(model, ["fox"])[0, 0]
        d_w = 6
        word_part = vec[:d_w]
        np.testing.assert_allclose(
            word_part, model.params["word_emb"][model.word_index["fox"]])
        ls_part = vec[-ls.dim:]
        np.testing.assert_allclose(ls_part, ls.vector("fox"), rtol=1e-6, atol=1e-7)
        # unknown word hits the UNK row (zeros at init)
        unk = batch_input(model, ["zzzz"])[0, 0]
        np.testing.assert_array_equal(unk[:d_w], model.params["word_emb"][0])

    def test_cap_block_distinguishes_case(self):
        model, _, ls = build_tiny_model()
        cfg = model.config
        lo = 6 + 2 * cfg.char_hidden
        hi = lo + cfg.cap_emb_dim
        x = batch_input(model, ["fox", "Fox"])
        a, b = x[0, 0, lo:hi], x[1, 0, lo:hi]
        np.testing.assert_allclose(a, model.params["cap_emb"][1])  # all lower
        np.testing.assert_allclose(b, model.params["cap_emb"][2])  # upper first

    def test_cap_embedding_has_a_row_per_cap_class(self):
        model, _, _ = build_tiny_model()
        assert model.params["cap_emb"].shape == (len(CapClass), model.config.cap_emb_dim)

    def test_word_lookup_ignores_case(self):
        # the pretrained vocabulary is lowercased, as the dual corpus is
        model, _, _ = build_tiny_model()
        assert model.word_id("The") == model.word_id("THE") == model.word_id("the") != 0
        encoded = model.encode([Sentence.from_words(["The", "Fox", "saw", "THE", "fox"])])
        lower = model.encode([Sentence.from_words(["the", "fox", "saw", "the", "fox"])])
        at = encoded.table["word_ids"][encoded.surface_ids]
        assert at.tolist() == lower.table["word_ids"][lower.surface_ids].tolist()
        assert at.tolist() == [model.word_id(w) for w in ["the", "fox", "saw", "the", "fox"]]

    def test_cased_vocabulary_is_read_lowercased(self, tmp_path):
        # a cased vector file: "Paris" is read by any case of it, and of
        # "Paris" and "paris" the first row wins
        p = tmp_path / "cased.vec"
        p.write_text("Paris 1 2\nthe 3 4\nparis 5 6\nUSA 7 8\n")
        table = load_embeddings(p)
        model = TaggerModel.build(tiny_config(features=("word_emb",)), ["O"], ["a"],
                                  pretrained=table)
        assert [model.word_id(w) for w in ["Paris", "paris", "PARIS", "the", "usa", "USA"]] \
            == [1, 1, 1, 2, 4, 4]
        assert model.params["word_emb"][model.word_id("paris")].tolist() == [1.0, 2.0]

    def test_unknown_ids_map_to_zero(self):
        model, _, _ = build_tiny_model()
        assert model.word_id("never-seen") == 0
        assert model.word_id("the") == model.word_index["the"]
        assert model.char_ids("t@") == [model.char_index["t"], 0]

    def test_empty_sentence_in_batch_rejected(self):
        model, sents, _ = build_tiny_model()
        with pytest.raises(DataError):
            model.nll_and_gradients(model.encode([Sentence.from_words([], tags=[])], gold=True))

    def test_build_errors(self):
        table, inv, ls = tiny_world()
        with pytest.raises(DataError):
            TaggerModel.build(tiny_config(), ["O"], ["a"])  # no pretrained
        with pytest.raises(DataError):
            TaggerModel.build(tiny_config(features=("word_emb", "ls")), ["O"], ["a"],
                              pretrained=table)  # no ls table
        with pytest.raises(DataError):
            tiny_config(features=("word_emb", "bogus"))
        with pytest.raises(DataError):
            tiny_config(features=())
        with pytest.raises(DataError):
            tiny_config(features=("word_emb", "word_emb"))

    @pytest.mark.parametrize("name", ["learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite_floats(self, name, value):
        with pytest.raises(DataError, match="must be positive and finite"):
            TaggerConfig(**{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("dropout_prob", 1.0, "dropout_prob must be in [0, 1)"),
        ("decay_rate", 0.0, "decay_rate must be in (0, 1]"),
        ("momentum", -0.1, "momentum must be in [0, 1)"),
        ("patience", 0, "patience must be positive"),
        ("word_hidden", float("nan"), "word_hidden must be positive"),
        ("seed", -1, "seed must be non-negative"),
    ])
    def test_config_names_the_field_out_of_range(self, name, value, message):
        with pytest.raises(DataError, match=re.escape(message)):
            TaggerConfig(**{name: value})

    @pytest.mark.parametrize("feature, message", [
        ("ls", "config enables the ls block but no LS table was given"),
        ("gazetteer", "config enables the gazetteer block but none was given"),
    ])
    def test_build_needs_the_table_of_each_frozen_block(self, feature, message):
        table, _, _ = tiny_world()
        with pytest.raises(DataError, match=message):
            TaggerModel.build(tiny_config(features=("word_emb", feature)), ["O"], ["a"],
                              pretrained=table)

    @pytest.mark.parametrize("features, inputs", [
        (("gazetteer",), dict(gazetteer=Gazetteer({}))),
        (("word_emb", "cap"), dict(pretrained=EmbeddingTable(["a"], np.zeros((1, 0))))),
    ])
    def test_zero_width_block_rejected(self, features, inputs):
        with pytest.raises(DataError, match=f"block {features[0]} has input width 0"):
            TaggerModel.build(tiny_config(features=features), ["O"], ["a"], **inputs)


# Surfaces repeat within and across sentences, in three casings, and
# "foxes" is absent from the LS table, so its LS row comes from the subword
# fallback of the embedding table.
REPEATS = [
    (["the", "Fox", "saw", "the", "fox"], ["O", "U-animal", "O", "O", "U-animal"]),
    (["FOX", "foxes", "saw", "the", "crow"], ["U-animal", "U-animal", "O", "O", "U-animal"]),
    (["the", "foxes", "ran"], ["O", "U-animal", "O"]),
]


def repeated_surface_model():
    table, inv = tiny_embeddings()
    rng = np.random.default_rng(11)
    table = EmbeddingTable(table.words, table.vectors,
                           bucket_vectors=rng.normal(size=(64, table.dim)).astype(np.float32))
    ls = build_ls_table(VOCAB, table, inv)
    sents = [Sentence.from_words(w, tags=t) for w, t in REPEATS]
    charset = sorted({c for s in sents for tok in s.tokens for c in tok.surface})
    model = TaggerModel.build(tiny_config(), ["O", "U-animal"], charset,
                              pretrained=table, ls_table=ls)
    return model, sents, ls


class TestRepeatedSurfaces:
    def test_emissions_match_one_sentence_at_a_time(self):
        model, sents, ls = repeated_surface_model()
        assert "foxes" not in ls and np.any(ls.vector("foxes") != 0.0)  # subword fallback
        em, lengths = model.emissions(model.encode(sents))
        for b, s in enumerate(sents):
            solo, _ = model.emissions(model.encode([s]))
            np.testing.assert_allclose(em[: lengths[b], b], solo[:, 0], rtol=1e-12, atol=1e-12)

    def test_one_ls_lookup_per_distinct_surface(self, monkeypatch):
        model, sents, ls = repeated_surface_model()
        seen = []
        lookup = ls.vectors

        def counted(words):
            seen.extend(words)
            return lookup(words)

        monkeypatch.setattr(ls, "vectors", counted)
        model.emissions(model.encode(sents))
        surfaces = [tok.surface for s in sents for tok in s.tokens]
        assert sorted(seen) == sorted(set(surfaces))

    def test_gradient_check(self):
        model, sents, _ = repeated_surface_model()
        report = gradient_check(model, sents)
        assert {"char_emb", "char_fwd.wx", "char_bwd.wh"} <= set(report)
        for name, err in report.items():
            assert err <= 1e-4, f"{name}: {err:.3e}"


# ---------------------------------------------------------------------------
# input rows against the per-position path
# ---------------------------------------------------------------------------

# Surfaces repeat and differ only in case; "a" and "x" are one character
# long, "zq" and "Crow" are outside the vocabulary, "zq" outside the charset.
ORACLE_WORDS = ["the", "The", "fox", "a", "iron", "rust", "gold", "zq", "Crow", "x"]
ORACLE_FEATURES = {
    "all": ("word_emb", "char", "cap", "ls"),
    "no_char": ("word_emb", "cap", "ls"),
    "gazetteer": ("word_emb", "char", "cap", "ls", "gazetteer"),
    "char_only": ("char",),
}
ORACLE_SENTENCES = st.lists(
    st.lists(st.tuples(st.sampled_from(ORACLE_WORDS), st.sampled_from(["O", "U-animal"])),
             min_size=1, max_size=6),
    min_size=1, max_size=5)


class TestPerPositionOracle:
    """Projecting each distinct input row once keeps every bit of the
    per-position path (`tests/per_position.py`): the word BiLSTM's input
    at every position, emissions, loss, every gradient and the dropout
    generator's state."""

    @given(st.sampled_from(sorted(ORACLE_FEATURES)), st.booleans(), ORACLE_SENTENCES,
           st.integers(0, 2**16))
    @example("all", False, [[("fox", "U-animal")]], 0)          # one position
    @example("all", True, [[("a", "O")], [("a", "O")]], 1)       # one character, repeated
    @example("gazetteer", True, [[("iron", "O"), ("rust", "O"), ("gold", "U-animal")]], 2)
    @example("char_only", False, [[("x", "O")]], 3)
    @settings(max_examples=60, deadline=None)
    def test_row_path_equals_per_position_path(self, features, dropout, sentences, seed):
        gaz = Gazetteer({"metalish": ["iron rust", "gold"], "beasts": ["fox", "crow"]})
        model, _, _ = build_tiny_model(features=ORACLE_FEATURES[features], gazetteer=gaz,
                                       seed=seed)
        ref = PerPositionTagger.of(model)
        batch = [Sentence.from_words([w for w, _ in s], tags=[t for _, t in s]) for s in sentences]

        x, rows = model._assemble(model.encode(batch))[:2]
        assert np.array_equal(x[rows], ref._assemble(batch)[0])  # padding reads zeros
        em, lengths = model.emissions(model.encode(batch))
        r_em, r_lengths = ref.emissions(batch)
        assert np.array_equal(em, r_em) and np.array_equal(lengths, r_lengths)

        rng, r_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        nll, grads = model.nll_and_gradients(model.encode(batch, gold=True), train=dropout,
                                             rng=rng)
        r_nll, r_grads = ref.nll_and_gradients(batch, train=dropout, rng=r_rng)
        assert nll == r_nll
        for k in r_grads:
            assert np.array_equal(grads[k], r_grads[k]), k
        assert rng.bit_generator.state == r_rng.bit_generator.state


# ---------------------------------------------------------------------------
# each data set encoded once against per-batch assembly
# ---------------------------------------------------------------------------

# ORACLE_WORDS plus "qj" and "ZQ", which are outside the vocabulary, the
# charset and the LS table in every casing
ENCODED_WORDS = ORACLE_WORDS + ["qj", "ZQ"]
ENCODED_SETS = st.lists(
    st.lists(st.tuples(st.sampled_from(ENCODED_WORDS), st.sampled_from(["O", "U-animal"])),
             min_size=1, max_size=6),
    min_size=1, max_size=6)
ORACLE_GAZETTEER = {"metalish": ["iron rust", "gold"], "beasts": ["fox", "crow"]}


def as_sentences(rows):
    return [Sentence.from_words([w for w, _ in s], tags=[t for _, t in s]) for s in rows]


class TestEncodedOracle:
    """Encoding a data set once and selecting batches from it keeps every
    bit of assembling each batch from its sentences (`tests/per_batch.py`):
    the word BiLSTM's input, emissions, loss, every gradient, the dropout
    generator's state and the tags."""

    @given(st.sampled_from(sorted(ORACLE_FEATURES)), st.booleans(), ENCODED_SETS,
           st.lists(st.integers(0, 99), min_size=1, max_size=5), st.integers(0, 2**16))
    @example("all", False, [[("qj", "O"), ("ZQ", "U-animal")]], [0], 0)  # every surface new
    @example("all", True, [[("a", "O")], [("x", "O"), ("a", "O")]], [1, 0, 1], 1)  # one character
    @example("gazetteer", True, [[("fox", "O")], [("iron", "O"), ("rust", "O")]], [1], 2)
    @example("char_only", False, [[("the", "O"), ("The", "O"), ("the", "O")]], [0], 3)
    @settings(max_examples=60, deadline=None)
    def test_encoded_batch_equals_per_batch_assembly(self, features, dropout, rows, picks, seed):
        model, _, _ = build_tiny_model(features=ORACLE_FEATURES[features],
                                       gazetteer=Gazetteer(ORACLE_GAZETTEER), seed=seed)
        ref = PerBatchTagger.of(model)
        data = as_sentences(rows)
        which = [p % len(data) for p in picks]  # repeats and any order, as a batch may have
        batch = [data[i] for i in which]
        encoded = model.encode(data, gold=True).take(which)

        got, want = model._assemble(encoded), ref._assemble(batch)
        for a, b in zip(got[:4], want[:4]):  # x, rows, lengths, mask
            assert np.array_equal(a, b)
        em, lengths = model.emissions(encoded)
        r_em, r_lengths = ref.emissions(batch)
        assert np.array_equal(em, r_em) and np.array_equal(lengths, r_lengths)

        rng, r_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        nll, grads = model.nll_and_gradients(encoded, train=dropout, rng=rng)
        r_nll, r_grads = ref.nll_and_gradients(batch, train=dropout, rng=r_rng)
        assert nll == r_nll
        for k in r_grads:
            assert np.array_equal(grads[k], r_grads[k]), k
        assert rng.bit_generator.state == r_rng.bit_generator.state

        tags = ref.tag_batch(batch)
        assert model.tag_batch(encoded) == tags and model.tag_batch(batch) == tags

    @pytest.mark.parametrize("features", ["all", "gazetteer"])
    def test_train_equals_a_loop_over_per_batch_assembly(self, features):
        table, _, ls = tiny_world()
        dev = as_sentences([[("the", "O"), ("qj", "O"), ("fox", "U-animal")],
                            [("Gold", "U-metal"), ("is", "O"), ("ZQ", "O")],
                            [("a", "O")]])
        cfg = tiny_config(features=ORACLE_FEATURES[features], max_epochs=5, patience=2,
                          batch_size=4, learning_rate=0.5)
        gaz = Gazetteer(ORACLE_GAZETTEER) if features == "gazetteer" else None
        model, history = train(tagged_sentences(), dev, cfg, pretrained=table, ls_table=ls,
                               gazetteer=gaz)
        ref, r_history = ref_train(tagged_sentences(), dev, cfg, table, ls, gaz)
        assert history == r_history
        assert np.array_equal(model.params.flat, ref.params.flat)

    def test_dev_gold_mentions_are_decoded_once_per_fit(self, monkeypatch):
        table, _, ls = tiny_world()
        dev = as_sentences([[("the", "O"), ("qj", "O"), ("fox", "U-animal")],
                            [("Gold", "U-metal"), ("is", "O"), ("ZQ", "O")]])
        modes = []

        def counted(tags, scheme=TagScheme.BILOU, strict=True):
            modes.append(strict)
            return tags_to_mentions(tags, scheme, strict)

        for module in ("lexner.evaluation", "lexner.tagger.train"):
            monkeypatch.setattr(importlib.import_module(module), "tags_to_mentions", counted)
        train_set = tagged_sentences()
        _, history = train(train_set, dev, tiny_config(max_epochs=3, patience=3),
                           pretrained=table, ls_table=ls)
        assert len(history) == 3
        # the gold tags, once per fit: the training tags by the BILOU check,
        # the dev tags into the mentions every epoch is scored against
        assert modes.count(True) == len(train_set) + len(dev)
        assert modes.count(False) == 3 * len(dev)  # the predicted tags, once per epoch

    def test_each_surface_is_looked_up_once_per_data_set(self, monkeypatch):
        model, sents, ls = repeated_surface_model()
        seen = []
        lookup = ls.vectors
        monkeypatch.setattr(ls, "vectors", lambda words: seen.extend(words) or lookup(words))
        encoded = model.encode(sents, gold=True)
        for part in ([0, 1], [2, 0], [1]):
            model.nll_and_gradients(encoded.take(part))
        model.tag_batch(encoded)
        assert sorted(seen) == sorted({tok.surface for s in sents for tok in s.tokens})

    def test_unknown_tag_is_refused_when_encoding(self):
        model, _, _ = build_tiny_model()
        with pytest.raises(DataError, match="tag 'B-nothere' not in the model tag set"):
            model.encode([Sentence.from_words(["the"], tags=["B-nothere"])], gold=True)


class TestWordsOnly:
    def test_reading_building_and_encoding_make_no_token(self, monkeypatch, tmp_path):
        """Sentences hold their words; only `Sentence.tokens` makes `Token`s."""
        model, sents, _ = build_tiny_model(features=ORACLE_FEATURES["gazetteer"],
                                           gazetteer=Gazetteer(ORACLE_GAZETTEER))
        text = format_column(sents)
        (tmp_path / "train.txt").write_text(text, encoding="utf-8")

        def no_token(token):
            raise AssertionError(f"a Token was built for {token.surface!r}")

        monkeypatch.setattr(Token, "__post_init__", no_token)
        with pytest.raises(AssertionError, match="for 'the'"):
            sents[0].tokens
        loaded = load_column_file(tmp_path / "train.txt")
        assert loaded == parse_column_text(text) == sents
        again = [Sentence.from_words(s.words, tags=s.tags) for s in loaded]
        encoded = model.encode(again, gold=True)
        assert encoded.gazetteer is not None and len(encoded.gold) == sum(map(len, again))
        assert [len(tags) for tags in model.tag_batch(encoded)] == [len(s) for s in again]
        dual = Sentence.from_words(["the", "Fox"], mentions=[Mention(1, 2, "/animal")])
        assert list(build_dual_corpus([dual], TypeInventory(["/animal"]))) == ["the fox", "the /animal"]


class TestRowSums:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40), st.integers(1, 5),
           st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_equal_to_add_at_into_zeros(self, index, width, seed):
        rng = np.random.default_rng(seed)
        index = np.array(index)
        values = rng.normal(size=(len(index), width)) * 10.0 ** rng.uniform(-8, 8, (len(index), 1))
        want = np.zeros((7, width))
        np.add.at(want, index, values)
        got = _row_sums(index, values, 7)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# gradients of the full network
# ---------------------------------------------------------------------------

class TestGradients:
    def test_gradient_check_all_blocks(self):
        model, sents, _ = build_tiny_model()
        report = gradient_check(model, sents[:3])
        assert set(report) == set(model.params)
        for name, err in report.items():
            assert err <= 1e-4, f"{name}: {err:.3e}"

    def test_gradient_check_with_gazetteer(self):
        gaz = Gazetteer({"metalish": ["iron rust", "gold"], "beasts": ["fox", "crow"]})
        model, sents, _ = build_tiny_model(
            features=("word_emb", "char", "cap", "ls", "gazetteer"), gazetteer=gaz)
        report = gradient_check(model, sents[:2])
        for name, err in report.items():
            assert err <= 1e-4, f"{name}: {err:.3e}"

    def test_gradient_check_flags_corruption(self, monkeypatch):
        model, sents, _ = build_tiny_model()
        exact = model.nll_and_gradients

        def damaged(batch, train=False):
            loss, grads = exact(batch, train=train)
            grads["proj_w"] = grads["proj_w"] + 1e-2 * (np.abs(grads["proj_w"]) + 1.0)
            return loss, grads

        monkeypatch.setattr(model, "nll_and_gradients", damaged)
        report = gradient_check(model, sents[:2])
        assert report["proj_w"] > 1e-4
        assert {name for name, err in report.items() if err > 1e-4} == {"proj_w"}

    def test_eval_mode_is_pure(self):
        model, sents, _ = build_tiny_model()
        batch = model.encode(sents[:3], gold=True)
        l1, g1 = model.nll_and_gradients(batch)
        l2, g2 = model.nll_and_gradients(batch)
        assert l1 == l2
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_dropout_needs_rng_and_perturbs(self):
        model, sents, _ = build_tiny_model()
        batch = model.encode(sents[:2], gold=True)
        with pytest.raises(DataError):
            model.nll_and_gradients(batch, train=True)
        base, _ = model.nll_and_gradients(batch)
        rng = np.random.default_rng(7)
        noisy, _ = model.nll_and_gradients(batch, train=True, rng=rng)
        assert noisy != base

    def test_missing_gold_tags_rejected(self):
        model, _, _ = build_tiny_model()
        with pytest.raises(DataError, match="must carry gold tags"):
            model.encode([Sentence.from_words(["the", "fox"])], gold=True)
        with pytest.raises(DataError, match="must carry gold tags"):  # encoded without gold
            model.nll_and_gradients(model.encode([Sentence.from_words(["the"], tags=["O"])]))


# ---------------------------------------------------------------------------
# SGD arithmetic
# ---------------------------------------------------------------------------

def plain_config(**kw):
    base = dict(momentum=0.0, learning_rate=1.0, decay_rate=1.0, clip_norm=5.0)
    base.update(kw)
    return tiny_config(**base)


def one_tensor(values):
    """A store holding one tensor, "w", with a copy of values."""
    return ParamStore.from_arrays({"w": np.array(values, dtype=np.float64)})


class TestSgd:
    def test_global_clip_halves_norm_ten(self):
        cfg = plain_config()
        g = np.zeros(4)
        g[0] = 6.0
        g[1] = 8.0  # norm 10 -> scale 0.5
        params = one_tensor(np.zeros(4))
        sgd_step(params, one_tensor(g), one_tensor(np.zeros(4)), cfg, epoch=0)
        np.testing.assert_allclose(params["w"], -0.5 * g)

    def test_no_clip_below_threshold(self):
        cfg = plain_config()
        g = np.array([0.3, -0.4])  # norm 0.5
        params = one_tensor(np.zeros(2))
        sgd_step(params, one_tensor(g), one_tensor(np.zeros(2)), cfg, epoch=0)
        np.testing.assert_allclose(params["w"], -g)

    def test_momentum_accumulates(self):
        cfg = plain_config(momentum=0.9)
        g = np.array([0.1, -0.2])
        params = one_tensor(np.zeros(2))
        vel = one_tensor(np.zeros(2))
        sgd_step(params, one_tensor(g), vel, cfg, epoch=0)
        np.testing.assert_allclose(vel["w"], g)
        np.testing.assert_allclose(params["w"], -g)
        sgd_step(params, one_tensor(g), vel, cfg, epoch=0)
        np.testing.assert_allclose(vel["w"], 1.9 * g)
        np.testing.assert_allclose(params["w"], -g - 1.9 * g)

    def test_lr_decay_schedule(self):
        cfg = plain_config(learning_rate=0.5, decay_rate=0.9)
        g = np.array([1.0])
        params = one_tensor(np.zeros(1))
        sgd_step(params, one_tensor(g), one_tensor(np.zeros(1)), cfg, epoch=3)
        np.testing.assert_allclose(params["w"], -0.5 * 0.9 ** 3 * g)

    def test_non_finite_gradient_raises(self):
        cfg = plain_config()
        params = one_tensor(np.zeros(2))
        with pytest.raises(NumericalError):
            sgd_step(params, one_tensor([1.0, np.nan]), one_tensor(np.zeros(2)), cfg, epoch=0)
        with pytest.raises(NumericalError):
            sgd_step(params, one_tensor([np.inf, 0.0]), one_tensor(np.zeros(2)), cfg, epoch=0)

    def test_global_norm(self):
        grads = ParamStore.from_arrays({"a": np.array([3.0]), "b": np.array([4.0])})
        assert global_norm(grads) == pytest.approx(5.0)


def ref_global_norm(grads):
    """The norm summed tensor by tensor, each tensor's squares on their own."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def ref_sgd_step(params, grads, velocities, config, epoch):
    """The tensor-by-tensor update: every step runs once per tensor."""
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in parameter {k!r}")
    norm = ref_global_norm(grads)
    scale = config.clip_norm / norm if norm > config.clip_norm else 1.0
    clipped = {k: g * scale for k, g in grads.items()}
    lr = config.learning_rate * config.decay_rate ** epoch
    for k in params:
        velocities[k] = config.momentum * velocities[k] + clipped[k]
        params[k] -= lr * velocities[k]


class TestFlatSgd:
    """`sgd_step` over whole `ParamStore` buffers gives the per-tensor bits."""

    @pytest.mark.parametrize("grad_scale, clipped", [(10.0, True), (1e-3, False)])
    def test_matches_per_tensor_reference_bitwise(self, grad_scale, clipped):
        model, _, _ = build_tiny_model(momentum=0.9, decay_rate=0.95)
        cfg, params = model.config, model.params
        ref_params = {k: v.copy() for k, v in params.items()}
        vel = params.zeros_like()
        ref_vel = {k: np.zeros_like(v) for k, v in params.items()}
        rng = np.random.default_rng(7)
        for epoch in range(4):  # momentum carries over the steps
            grads = params.zeros_like()
            grads.flat[:] = rng.normal(size=grads.flat.size) * grad_scale
            assert (global_norm(grads) > cfg.clip_norm) == clipped
            ref_grads = {k: v.copy() for k, v in grads.items()}
            sgd_step(params, grads, vel, cfg, epoch)
            ref_sgd_step(ref_params, ref_grads, ref_vel, cfg, epoch)
            for k in ref_params:
                assert np.array_equal(params[k], ref_params[k]), k
                assert np.array_equal(vel[k], ref_vel[k]), k
                assert np.array_equal(grads[k], ref_grads[k]), k  # grads are not modified

    def test_non_finite_error_names_the_tensor(self):
        model, _, _ = build_tiny_model()
        grads = model.params.zeros_like()
        grads["char_bwd.wh"][1, 2] = np.inf
        before = model.params.flat.copy()
        with pytest.raises(NumericalError, match="'char_bwd.wh'"):
            sgd_step(model.params, grads, model.params.zeros_like(), model.config, 0)
        assert np.array_equal(model.params.flat, before)


class TestSpanNorm:
    """`global_norm` sums spans of the squared `flat` in name order, which
    gives the tensor-by-tensor bits; fwd/bwd twins sit side by side in
    `flat`, so its memory order is another summation order."""

    def store(self):
        model, _, _ = build_tiny_model()
        grads = model.params.zeros_like()
        rng = np.random.default_rng(5)
        for k, v in grads.items():  # scales that differ per tensor expose the order
            v[...] = rng.normal(size=v.shape) * 10.0 ** rng.uniform(-3, 3)
        return grads

    def test_equals_the_per_tensor_norm_bitwise(self):
        grads = self.store()
        norm = global_norm(grads)
        assert norm == ref_global_norm(grads)
        in_memory_order = sorted(grads.spans.values(), key=lambda span: span.start)
        assert in_memory_order != list(grads.spans.values())
        walked = 0.0
        for span in in_memory_order:
            walked += float(np.sum(grads.flat[span] ** 2))
        assert float(np.sqrt(walked)) != norm  # this store tells the two orders apart

    def test_clip_decision_on_both_sides_of_clip_norm(self):
        grads = self.store()
        norm = ref_global_norm(grads)
        for clip_norm, clipped in ((np.nextafter(norm, 0.0), True), (norm, False)):
            params = grads.zeros_like()
            sgd_step(params, grads, grads.zeros_like(), plain_config(clip_norm=clip_norm), 0)
            want = -(grads.flat * (clip_norm / norm)) if clipped else -grads.flat
            assert np.array_equal(params.flat, want), clipped


class TestParamStore:
    def test_names_keep_build_order_and_twins_sit_together(self):
        model, _, _ = build_tiny_model()
        lstm = [f"{p}_{d}.{k}" for p in ("char", "word") for d in ("fwd", "bwd")
                for k in ("wx", "wh", "b")]
        assert list(model.params) == (["word_emb", "char_emb"] + lstm[:6] + ["cap_emb"]
                                      + lstm[6:] + ["proj_w", "proj_b", "trans"])
        for prefix in ("char", "word"):
            for k, both in model.params.stacked(prefix).items():
                assert np.shares_memory(both, model.params.flat)
                assert np.array_equal(both[0], model.params[f"{prefix}_fwd.{k}"])
                assert np.array_equal(both[1], model.params[f"{prefix}_bwd.{k}"])
                both[1] += 1.0  # a write through the stack lands in the named tensor
                assert np.array_equal(both[1], model.params[f"{prefix}_bwd.{k}"])
        assert model.params.flat.size == sum(v.size for v in model.params.values())

    def test_assignment_copies_into_the_buffer(self):
        store = ParamStore.from_arrays({"a": np.zeros((2, 3)), "b": np.ones(4)})
        store["a"] = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(store.flat, [0, 1, 2, 3, 4, 5, 1, 1, 1, 1])
        with pytest.raises(DataError):
            store["b"] = np.ones(3)

    @pytest.mark.parametrize("shapes", [
        {"x_fwd.w": (2,), "x_bwd.w": (3,)},  # twins differ in shape
        {"x_fwd.w": (2,), "y": (1,)},        # no twin
        {"x_bwd.w": (2,), "x_fwd.w": (2,)},  # twin placed before
    ])
    def test_every_forward_tensor_needs_its_twin(self, shapes):
        with pytest.raises(DataError):
            ParamStore(shapes)


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

# one default-config fit on a synthetic split; prints the SHA-256 of its parameter bytes
_THREAD_FIT = """
import hashlib
import numpy as np
from lexner import EmbeddingTable, build_ls_table, synth
from lexner.tagger import TaggerConfig, train
world = synth.make_world(1)
splits = synth.ner_dataset(world, seed=3, n_train=100, n_dev=30, n_test=0)
vocab = sorted({tok.lower for s in splits.train + splits.dev for tok in s.tokens})
words = list(world.inventory.labels) + vocab
table = EmbeddingTable(words, np.random.default_rng(0).normal(size=(len(words), 50)).astype(np.float32))
ls = build_ls_table(vocab, table, world.inventory)
model, _ = train(splits.train, splits.dev, TaggerConfig(max_epochs=2), pretrained=table, ls_table=ls)
print(hashlib.sha256(b"".join(v.tobytes() for v in model.params.values())).hexdigest())
"""


class TestTraining:
    def test_deterministic_history_and_params(self):
        table, inv, ls = tiny_world()
        sents = tagged_sentences()
        cfg = tiny_config(max_epochs=3, patience=10)
        m1, h1 = train(sents, sents, cfg, pretrained=table, ls_table=ls)
        m2, h2 = train(sents, sents, cfg, pretrained=table, ls_table=ls)
        assert h1 == h2
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k], m2.params[k])

    def test_params_do_not_depend_on_the_blas_thread_count(self):
        """Two fits at the default config (two epochs), one at one OpenBLAS
        thread and one at two, each in its own process, give equal parameter
        bytes. At `batch_size` >= 100 they need not: a weight-gradient product
        that reduces over that many rows takes the thread split into its bits."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        digests = [
            subprocess.run([sys.executable, "-c", _THREAD_FIT], env=dict(env, OPENBLAS_NUM_THREADS=n),
                           capture_output=True, text=True, check=True).stdout.strip()
            for n in ("1", "2")
        ]
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_a_diverged_fit_stops_at_its_first_bad_epoch(self):
        """At a learning rate of 1e300 the first epoch leaves parameters
        beyond float32: the fit stops there, before any dev pass reports."""
        splits = ner_dataset(make_world(1), seed=3, n_train=60, n_dev=20, n_test=1)
        cfg = TaggerConfig(features=("char", "cap"), learning_rate=1e300, max_epochs=3)
        said = []
        with pytest.raises(NumericalError, match=r"^epoch 0: parameter 'char_emb' does not fit "
                                                 r"in float32; the fit diverged$"):
            train(splits.train, splits.dev, cfg, progress=said.append)
        assert said == []

    def test_overfits_small_set(self):
        table, inv, ls = tiny_world()
        sents = tagged_sentences()
        cfg = tiny_config(
            word_hidden=12, char_emb_dim=6, char_hidden=5, cap_emb_dim=4,
            dropout_prob=0.0, learning_rate=0.1, max_epochs=80, patience=80,
            batch_size=3, seed=5,
        )
        model, history = train(sents, sents, cfg, pretrained=table, ls_table=ls)
        pred = model.tag_batch(sents)
        rep = evaluate(sents, pred)
        assert rep.f1 == pytest.approx(100.0)
        assert any(h["dev_f1"] == pytest.approx(100.0) for h in history)

    def test_ls_table_frozen_through_training(self):
        table, inv, ls = tiny_world()
        sents = tagged_sentences()
        before_hash = ls.content_hash()
        before_bytes = b"".join(
            np.ascontiguousarray(v, dtype="<f4").tobytes() for v in ls.entries.values())
        cfg = tiny_config(max_epochs=2, patience=10)
        model, _ = train(sents, sents, cfg, pretrained=table, ls_table=ls)
        after_bytes = b"".join(
            np.ascontiguousarray(v, dtype="<f4").tobytes() for v in ls.entries.values())
        assert ls.content_hash() == before_hash
        assert after_bytes == before_bytes
        # and no trainable tensor shadows the ls block
        assert not any("ls" in k for k in model.params)

    def test_empty_train_set_rejected(self):
        table, inv, ls = tiny_world()
        with pytest.raises(DataError, match="empty training set"):
            train([], [], tiny_config(), pretrained=table, ls_table=ls)
        with pytest.raises(DataError, match="has no gold tags"):
            train([Sentence.from_words(["a"])], tagged_sentences()[:1], tiny_config(),
                  pretrained=table, ls_table=ls)

    @pytest.mark.parametrize("tags,position", [
        (["B-X", "I-X", "O"], 2),  # IOB2: the mention is never closed
        (["I-X", "I-X", "O"], 0),  # IOB1
        (["U-X", "O", "B-X"], 2),  # open at the sentence end
    ])
    def test_train_tags_must_be_strict_bilou(self, tags, position):
        table, inv, ls = tiny_world()
        bad = Sentence.from_words(["the", "fox", "ran"], tags)
        with pytest.raises(DataError, match=re.escape(f"training sentence 1 is not strict BILOU: "
                                                      f"position {position}: ")):
            train([tagged_sentences()[0], bad], tagged_sentences(), tiny_config(),
                  pretrained=table, ls_table=ls)

    def test_empty_dev_set_rejected(self):
        table, inv, ls = tiny_world()
        with pytest.raises(DataError, match="empty dev set"):
            train(tagged_sentences(), [], tiny_config(max_epochs=8, patience=2),
                  pretrained=table, ls_table=ls)

    def test_best_dev_epoch_is_restored(self):
        table, inv, ls = tiny_world()
        sents = tagged_sentences()
        # a learning rate this high makes dev F1 jump around between epochs
        cfg = tiny_config(word_hidden=12, char_emb_dim=6, char_hidden=5, cap_emb_dim=4,
                          dropout_prob=0.0, learning_rate=1.0, max_epochs=6, patience=6,
                          batch_size=3, seed=3)
        model, history = train(sents, sents, cfg, pretrained=table, ls_table=ls)
        dev_f1 = [h["dev_f1"] for h in history]
        assert len(dev_f1) == 6 and dev_f1[-1] < max(dev_f1)
        assert evaluate(sents, model.tag_batch(sents)).f1 == max(dev_f1)

    def test_early_stopping_cuts_epochs(self):
        table, inv, ls = tiny_world()
        sents = tagged_sentences()
        cfg = tiny_config(max_epochs=30, patience=2, learning_rate=1e-5)
        _, history = train(sents, sents, cfg, pretrained=table, ls_table=ls)
        assert len(history) < 30


# ---------------------------------------------------------------------------
# decoding contracts
# ---------------------------------------------------------------------------

class TestTagging:
    def test_empty_sentence_gets_empty_tags(self):
        model, sents, _ = build_tiny_model()
        empty = Sentence.from_words([])
        batch = [sents[0], empty, sents[1]]
        out = model.tag_batch(batch)
        assert out[1] == []
        assert len(out[0]) == len(sents[0])
        assert len(out[2]) == len(sents[1])

    def test_masked_decode_is_structurally_valid(self):
        model, sents, _ = build_tiny_model()
        for s in sents:
            tags = model.tag_batch([s])[0]
            tags_to_mentions(tags, TagScheme.BILOU, strict=True)

    def test_tagging_is_deterministic(self):
        model, sents, _ = build_tiny_model()
        assert model.tag_batch(sents) == model.tag_batch(sents)

    def test_batch_matches_single(self):
        model, sents, _ = build_tiny_model()
        batched = model.tag_batch(sents[:4])
        singles = [model.tag_batch([s])[0] for s in sents[:4]]
        assert batched == singles

    def test_ragged_batch_with_empty_and_one_token_sentences(self):
        model, sents, _ = build_tiny_model()
        rng = np.random.default_rng(6)
        # random scores, so the decoded paths are not all "O"
        model.params["trans"] = rng.normal(size=model.params["trans"].shape) * 2
        model.params["proj_w"] = rng.normal(size=model.params["proj_w"].shape) * 3
        empty = Sentence.from_words([])
        batch = ([empty, Sentence.from_words(["fox"])] + sents
                 + [Sentence.from_words(["Gold"]), empty, empty, Sentence.from_words(["zzq"])])
        singles = [model.tag_batch([s])[0] for s in batch]
        assert model.tag_batch(batch) == singles
        assert len({tuple(t) for t in singles}) > 4
        assert model.tag_batch([]) == []
        assert model.tag_batch([empty, empty]) == [[], []]

    def test_runs_of_bounded_size_give_the_one_batch_tags(self, monkeypatch):
        model, sents, _ = build_tiny_model()
        rng = np.random.default_rng(6)
        model.params["trans"] = rng.normal(size=model.params["trans"].shape) * 2
        model.params["proj_w"] = rng.normal(size=model.params["proj_w"].shape) * 3
        batch = sents + [Sentence.from_words([])] + sents[::-1] + [Sentence.from_words(["fox"])]
        whole = model.tag_batch(batch)
        assert len({tuple(t) for t in whole}) > 4
        shapes = []
        emissions = model.emissions

        def recorded(part):
            shapes.append((len(part), max(len(s) for s in part.sentences)))
            return emissions(part)

        monkeypatch.setattr(model, "emissions", recorded)
        monkeypatch.setattr(model_module, "_TAG_CHUNK_POSITIONS", 11)
        assert model.tag_batch(batch) == whole
        assert len(shapes) > 3 and all(b * t <= 11 or b == 1 for b, t in shapes)

    @given(st.lists(st.integers(1, 9), max_size=12), st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_runs_are_greedy_consecutive_and_bounded(self, lengths, limit):
        runs = [lengths[part] for part in _runs(lengths, limit)]
        assert [n for r in runs for n in r] == lengths and all(runs)
        size = [len(r) * max(r) for r in runs]
        assert all(n <= limit or len(r) == 1 for n, r in zip(size, runs))
        for r, nxt in zip(runs, runs[1:]):  # the next sentence would not have fitted
            assert (len(r) + 1) * max(r + nxt[:1]) > limit


def recording_emissions(model, monkeypatch):
    """Patch model.emissions to note, per call, each sentence's rows of the
    emissions and the number of sentences in the call."""
    calls = []
    emissions = model.emissions

    def recorded(part):
        em, lengths = emissions(part)
        calls.append([(s, em[:n, b], len(part)) for b, (s, n) in enumerate(zip(part.sentences,
                                                                               lengths.tolist()))])
        return em, lengths

    monkeypatch.setattr(model, "emissions", recorded)
    return calls


def consecutive_run_tags(model, data):
    """Tags from decoding runs of consecutive sentences in input order."""
    lengths = (data.bounds[1:] - data.bounds[:-1]).tolist()
    tagged = [i for i, n in enumerate(lengths) if n > 0]
    paths = {}
    for part in _runs([lengths[i] for i in tagged], model_module._TAG_CHUNK_POSITIONS):
        which = tagged[part]
        em, em_lengths = model.emissions(data.take(which))
        paths.update(zip(which, model_module.viterbi_decode_batched(
            em, em_lengths, model.params["trans"], model.allowed)[0]))
    return [[model.tags[j] for j in paths[i]] if i in paths else [] for i in range(len(lengths))]


RUN_WORDS = ["the", "Fox", "saw", "Gold", "iron", "zq", "a"]


class TestRunOrder:
    """Input that needs more than one run is decoded in runs of sentences
    ordered by length; the tags come back in input order and equal those of
    runs of consecutive sentences. A sentence's emissions keep their bits
    wherever it shares its run with another sentence; a run of one sentence
    makes one-row products, which round differently."""

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=14), st.integers(16, 40),
           st.booleans(), st.integers(0, 2**16))
    @example([5] * 12, 20, False, 0)               # all sentences of one length
    @example([3, 2, 30, 4, 1, 2, 6], 16, False, 1)  # one sentence longer than the limit
    @example([4, 0, 7, 0, 0, 2, 9, 0, 3], 18, False, 2)  # empty sentences in between
    @example([6, 1, 8, 3, 8, 2, 5, 7], 24, True, 3)      # an Encoded input
    @settings(max_examples=40, deadline=None)
    def test_tags_in_input_order_and_emissions_bitwise(self, lengths, limit, encoded, seed):
        model, _, _ = build_tiny_model()
        rng = np.random.default_rng(seed)
        # random scores, so the decoded paths are not all "O"
        model.params["trans"] = rng.normal(size=model.params["trans"].shape) * 2
        model.params["proj_w"] = rng.normal(size=model.params["proj_w"].shape) * 3
        batch = [Sentence.from_words(rng.choice(RUN_WORDS, size=n).tolist()) for n in lengths]
        data = model.encode(batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_module, "_TAG_CHUNK_POSITIONS", limit)
            calls = recording_emissions(model, mp)
            got = model.tag_batch(data if encoded else batch)
            sorted_calls = list(calls)
            calls.clear()
            want = consecutive_run_tags(model, data)
        assert got == want
        assert [len(t) for t in got] == lengths

        def by_sentence(records):
            return {id(s): (em, size) for call in records for s, em, size in call}

        ordered, consecutive = by_sentence(sorted_calls), by_sentence(calls)
        assert sorted(ordered) == sorted(consecutive) == sorted(id(s) for s in batch if len(s))
        for key, (em, size) in ordered.items():
            r_em, r_size = consecutive[key]
            if size > 1 and r_size > 1:
                assert em.tobytes() == r_em.tobytes()
        if len(sorted_calls) > 1:  # runs in length order, longest first, ties in input order
            at = {id(s): i for i, s in enumerate(batch)}
            order = [at[id(s)] for call in sorted_calls for s, _, _ in call]
            assert order == sorted(order, key=lambda i: (-lengths[i], i))


# ---------------------------------------------------------------------------
# gazetteer features
# ---------------------------------------------------------------------------

class TestGazetteer:
    def test_ngram_bits(self):
        gaz = Gazetteer({"org": ["Bank of Norway"], "loc": ["norway"]})
        s = Sentence.from_words(["the", "Bank", "of", "Norway", "opened"])
        feats = gazetteer_features(s, gaz)
        assert feats.shape == (5, 2)
        # columns sort alphabetically: loc, org
        np.testing.assert_array_equal(feats[:, 0], [0, 0, 0, 1, 0])
        np.testing.assert_array_equal(feats[:, 1], [0, 1, 1, 1, 0])

    def test_max_n_filters_long_entries(self):
        gaz = Gazetteer({"x": ["a b c d e", "a b c d"]})
        assert gaz.entries["x"] == {("a", "b", "c", "d")}

    def test_no_match_is_all_zero(self):
        gaz = Gazetteer({"org": ["acme corp"]})
        s = Sentence.from_words(["nothing", "here"])
        np.testing.assert_array_equal(gazetteer_features(s, gaz), np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# header fields that size a tensor of `build_tiny_model`'s feature set
SIZE_FIELDS = {"word_dim", "word_hidden", "char_emb_dim", "char_hidden", "cap_emb_dim"}


class TestCheckpoint:
    def train_briefly(self, tmp_path):
        table, inv, ls = tiny_world()
        sents = tagged_sentences()
        cfg = tiny_config(max_epochs=2, patience=10)
        model, _ = train(sents, sents, cfg, pretrained=table, ls_table=ls)
        path = tmp_path / "model.lxnr"
        save_checkpoint(model, path)
        return model, ls, sents, path

    def test_round_trip(self, tmp_path):
        model, ls, sents, path = self.train_briefly(tmp_path)
        loaded = load_checkpoint(path, ls_table=ls)
        assert loaded.tags == model.tags
        assert loaded.chars == model.chars
        assert loaded.words == model.words
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for k in model.params:
            np.testing.assert_allclose(
                loaded.params[k], model.params[k], rtol=1e-6, atol=1e-6)
        assert loaded.tag_batch(sents) == model.tag_batch(sents)

    @pytest.mark.parametrize("value", [1e39, -np.inf, np.nan])
    def test_a_diverged_model_is_not_saved(self, tmp_path, value):
        model, _, _ = build_tiny_model()
        model.params["trans"][0, 0] = value  # no float32 holds it
        path = tmp_path / "model.lxnr"
        with pytest.raises(NumericalError, match="parameter 'trans' does not fit in float32"):
            save_checkpoint(model, path)
        assert not path.exists()
        path.write_bytes(b"an earlier file")
        with pytest.raises(NumericalError):
            save_checkpoint(model, path)
        assert path.read_bytes() == b"an earlier file"

    def test_ls_hash_guard(self, tmp_path):
        model, ls, sents, path = self.train_briefly(tmp_path)
        with pytest.raises(DataError):
            load_checkpoint(path)  # table missing entirely
        other = LSTable(ls.inventory,
                        entries={"the": np.ones(ls.dim, dtype=np.float32)})
        with pytest.raises(DataError):
            load_checkpoint(path, ls_table=other)

    @pytest.mark.parametrize("block", ["word_emb", "ls", "gazetteer"])
    def test_a_table_for_a_block_that_is_off_is_not_kept(self, tmp_path, block):
        # the fit, its tags and its checkpoint equal those of a model never
        # given the table, whose header holds no words, no hash, no gazetteer
        table, _, ls = tiny_world()
        tables = {"pretrained": table, "ls_table": ls,
                  "gazetteer": Gazetteer({"beasts": ["fox", "crow"]})}
        key = {"word_emb": "pretrained", "ls": "ls_table", "gazetteer": "gazetteer"}[block]
        features = tuple(f for f in ("word_emb", "char", "cap", "ls", "gazetteer") if f != block)
        cfg = tiny_config(features=features, max_epochs=2)
        sents = tagged_sentences()
        given_it, _ = train(sents, sents, cfg, **tables)
        without, _ = train(sents, sents, cfg, **{k: v for k, v in tables.items() if k != key})
        assert given_it.params.flat.tobytes() == without.params.flat.tobytes()
        assert given_it.tag_batch(sents) == without.tag_batch(sents)
        save_checkpoint(given_it, tmp_path / "given.lxnr")
        save_checkpoint(without, tmp_path / "without.lxnr")
        assert (tmp_path / "given.lxnr").read_bytes() == (tmp_path / "without.lxnr").read_bytes()

    def test_frozen_tables_are_required(self, tmp_path):
        gaz = Gazetteer({"metalish": ["iron rust", "gold"]})
        model, sents, ls = build_tiny_model(
            features=("word_emb", "cap", "ls", "gazetteer"), gazetteer=gaz)
        path = tmp_path / "model.lxnr"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="ls block but no LS table was given"):
            load_checkpoint(path)
        bad = tmp_path / "no_gazetteer.lxnr"
        bad.write_bytes(edit_checkpoint_header(path.read_bytes(), lambda h: {**h, "gazetteer": None}))
        with pytest.raises(DataError, match="gazetteer block but none was given"):
            load_checkpoint(bad, ls_table=ls)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_truncated_tensor(self, tmp_path):
        model, ls, sents, path = self.train_briefly(tmp_path)
        raw = path.read_bytes()
        clipped = tmp_path / "clipped.lxnr"
        clipped.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(FormatError) as err:
            load_checkpoint(clipped, ls_table=ls)
        assert err.value.offset is not None

    def test_non_finite_tensor_rejected_at_its_offset(self, tmp_path):
        model, ls, sents, path = self.train_briefly(tmp_path)
        raw = bytearray(path.read_bytes())
        at = len(raw) - 4 * model.params["trans"].size  # trans is the last tensor
        raw[at + 8 : at + 12] = np.float32(np.nan).tobytes()
        bad = tmp_path / "nan.lxnr"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="'trans' has a non-finite value") as err:
            load_checkpoint(bad, ls_table=ls)
        assert err.value.offset == at + 8

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_HEADERS))
    def test_bad_header_is_format_error_at_header_offset(self, tmp_path, case):
        model, sents, ls = build_tiny_model()
        path = tmp_path / "model.lxnr"
        save_checkpoint(model, path)
        bad = tmp_path / "bad.lxnr"
        bad.write_bytes(edit_checkpoint_header(path.read_bytes(), BAD_CHECKPOINT_HEADERS[case]))
        with pytest.raises(FormatError) as err:
            load_checkpoint(bad, ls_table=ls)
        assert err.value.offset == HEADER_OFFSET

    def test_header_config_lists_every_field_in_order(self, tmp_path):
        model, sents, ls = build_tiny_model()
        path = tmp_path / "model.lxnr"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[5:9])
        header = json.loads(raw[9 : 9 + n])
        assert list(header) == list(HEADER_KEYS)
        assert list(header["config"]) == [f.name for f in fields(TaggerConfig)]
        assert load_checkpoint(path, ls_table=ls).config == model.config

    def test_version_1_is_refused(self, tmp_path):
        model, sents, ls = build_tiny_model()
        path = tmp_path / "model.lxnr"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported checkpoint version 1") as err:
            load_checkpoint(path, ls_table=ls)
        assert err.value.offset == 4

    @pytest.mark.parametrize("case", sorted(RESIZING_HEADER_EDITS))
    def test_resizing_header_edit_is_format_error_without_allocating(self, tmp_path, case):
        model, sents, ls = build_tiny_model()
        path = tmp_path / "model.lxnr"
        save_checkpoint(model, path)
        path.write_bytes(edit_checkpoint_header(
            path.read_bytes(), lambda h: resize_header(h, *RESIZING_HEADER_EDITS[case])))
        expect = "trailing bytes" if case == "one_tag_fewer" else "truncated tensor"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=expect):
                load_checkpoint(path, ls_table=ls)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    @given(st.one_of(
        st.tuples(st.sampled_from(["tags", "chars", "words"]), st.sampled_from(["extra", "fewer"]),
                  st.integers(1, 3)),
        st.tuples(st.sampled_from(["tags", "chars", "words"]), st.just("set"),
                  st.lists(st.text(max_size=3), max_size=8)),
        st.tuples(st.sampled_from(["word_dim"] + [f.name for f in fields(TaggerConfig)
                                                  if type(f.default) is int]),
                  st.just("set"), st.integers(-2, 40) | st.integers(2**30, 2**70)),
    ))
    @settings(max_examples=120, deadline=None)
    def test_header_edits_only_raise_lexner_errors(self, tmp_path_factory, edit):
        """Edits of the fields that fix the tensor layout, of any length."""
        model, sents, ls = build_tiny_model()
        path = tmp_path_factory.mktemp("edit") / "model.lxnr"
        save_checkpoint(model, path)
        path.write_bytes(edit_checkpoint_header(path.read_bytes(), lambda h: resize_header(h, *edit)))
        key, how, arg = edit
        huge = how == "set" and key in SIZE_FIELDS and arg >= 2**30
        try:
            load_checkpoint(path, ls_table=ls).tag_batch(sents[:2] + [Sentence.from_words(["é"])])
        except LexnerError as exc:
            assert not huge or (isinstance(exc, FormatError) and "truncated tensor" in str(exc))
        else:
            assert not huge

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_byte_flip_or_truncation_only_raises_lexner_errors(self, tmp_path_factory, data):
        model, sents, ls = build_tiny_model()
        path = tmp_path_factory.mktemp("fuzz") / "model.lxnr"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        (n,) = struct.unpack("<I", raw[5:9])
        # one branch aims at the JSON header, which holds most of the structure
        at = data.draw(st.integers(0, 9 + n - 1) | st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw[at] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path, ls_table=ls).tag_batch(sents[:2])
        except LexnerError:
            pass

    def test_trailing_bytes_rejected(self, tmp_path):
        model, sents, ls = build_tiny_model()
        path = tmp_path / "model.lxnr"
        save_checkpoint(model, path)
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(FormatError, match="trailing bytes") as err:
            load_checkpoint(path, ls_table=ls)
        assert err.value.offset == end

    def test_gazetteer_round_trip(self, tmp_path):
        gaz = Gazetteer({"metalish": ["iron rust", "gold"]})
        model, sents, ls = build_tiny_model(
            features=("word_emb", "cap", "ls", "gazetteer"), gazetteer=gaz)
        path = tmp_path / "gaz.lxnr"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, ls_table=ls)
        assert loaded.gazetteer.names == ["metalish"]
        assert loaded.gazetteer.entries["metalish"] == gaz.entries["metalish"]
        assert loaded.tag_batch(sents) == model.tag_batch(sents)
