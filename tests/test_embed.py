import os
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexner import embed
from lexner.embed import (
    EmbedConfig,
    EmbeddingTable,
    char_ngrams,
    fnv1a,
    hash_ngram,
    is_type_token,
    load_embeddings,
    negative_sampling_loss,
    ngram_bucket_ids,
    save_embeddings,
    train_skipgram,
)
from lexner.errors import DataError, FormatError, LexnerError


class TestCharNgrams:
    def test_short_word(self):
        assert char_ngrams("ab", 3, 6) == ["<ab", "ab>", "<ab>"]

    def test_single_char(self):
        assert char_ngrams("a", 3, 6) == ["<a>"]

    def test_longer_word(self):
        grams = char_ngrams("cats", 3, 6)
        # "<cats>" has length 6: four 3-grams, three 4-grams, two 5-grams,
        # one 6-gram; the full form is that 6-gram already
        assert grams[:4] == ["<ca", "cat", "ats", "ts>"]
        assert grams[-1] == "<cats>"
        assert len(grams) == 4 + 3 + 2 + 1

    def test_type_token_atomic(self):
        assert char_ngrams("/person", 3, 6) == []
        assert char_ngrams("/person/musician", 3, 6) == []

    def test_empty(self):
        assert char_ngrams("", 3, 6) == []


class TestHashing:
    def test_fnv1a_reference_values(self):
        # published FNV-1a 32-bit test vectors
        assert fnv1a("") == 0x811C9DC5
        assert fnv1a("a") == 0xE40C292C
        assert fnv1a("foobar") == 0xBF9CF968

    def test_stable_and_bounded(self):
        assert hash_ngram("<ab", 977) == hash_ngram("<ab", 977)
        for g in char_ngrams("representation"):
            assert 0 <= hash_ngram(g, 977) < 977

    def test_load_distribution(self):
        rng = np.random.default_rng(7)
        buckets = np.zeros(1000, dtype=int)
        letters = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(10_000):
            n = rng.integers(3, 7)
            g = "".join(letters[i] for i in rng.integers(0, 26, n))
            buckets[hash_ngram(g, 1000)] += 1
        assert buckets.max() <= 10 * buckets.mean()


# words for the batched-path properties: arbitrary text (no lone surrogates,
# which UTF-8 cannot encode), astral-plane characters, 0-2 character words,
# words longer than any n-gram, and type tokens
_astral = st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF, categories=["Lo", "So", "Lu", "Ll", "Co"])
_words = st.one_of(
    st.text(max_size=12),
    st.text(max_size=2),
    st.text(st.one_of(_astral, st.characters(max_codepoint=0x7F)), max_size=8),
    st.text(min_size=7, max_size=30),
    st.text(max_size=6).map(lambda s: "/" + s),
    st.sampled_from(["café", "東京都", "naïve", "𝒳yz", "a𝄞b", "😀", "ǅemal", "İstanbul"]),
)


class TestBatchedHashing:
    @given(st.lists(_words, max_size=12), st.integers(1, 5), st.integers(0, 4),
           st.sampled_from([1, 7, 977, 100_000, 2**31 - 1, 2**32]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_gram_hashing(self, words, nmin, extra, nbuckets):
        nmax = nmin + extra
        got = ngram_bucket_ids(words, nbuckets, nmin, nmax)
        assert len(got) == len(words)
        for w, ids in zip(words, got):
            assert ids.dtype == np.int64
            assert ids.tolist() == [hash_ngram(g, nbuckets) for g in char_ngrams(w, nmin, nmax)]

    def test_full_hash_range(self):
        # with 2**32 buckets an id is the raw 32-bit FNV-1a of its n-gram
        words = ["cats", "東京都", "a𝄞b", "x" * 25]
        for w, ids in zip(words, ngram_bucket_ids(words, 2**32)):
            assert ids.tolist() == [fnv1a(g) for g in char_ngrams(w)]

    def test_chunks_split_long_groups(self):
        words = [f"w{i:05d}" for i in range(300)] + ["é" * 40, "ab"]
        with mock.patch.object(embed, "_CHUNK_CHARS", 50):
            got = ngram_bucket_ids(words, 977)
        for w, ids in zip(words, got):
            assert ids.tolist() == [hash_ngram(g, 977) for g in char_ngrams(w)]

    def test_lone_surrogate_raises(self):
        with pytest.raises(UnicodeEncodeError):
            ngram_bucket_ids(["ok", "a\ud800b"], 977)


def reference_word_vector(table: EmbeddingTable, word: str) -> np.ndarray:
    """Per-word composition: stored row plus bucket_vectors[ids].mean(0)."""
    word = word.lower()
    row = table.word_index.get(word)
    parts = [] if row is None else [table.vectors[row]]
    if table.bucket_vectors is not None and not is_type_token(word):
        nbuckets = table.bucket_vectors.shape[0]
        ids = np.array([hash_ngram(g, nbuckets) for g in char_ngrams(word, table.ngram_min, table.ngram_max)],
                       dtype=np.int64)
        if ids.size:
            parts.append(table.bucket_vectors[ids].mean(0))
    if not parts:
        return np.zeros(table.dim, dtype=np.float32)
    out = parts[0].astype(np.float32, copy=True)
    for p in parts[1:]:
        out += p
    return out


class TestBatchedComposition:
    @given(st.lists(_words, max_size=10), st.integers(1, 9), st.integers(0, 2**32 - 1),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    # at dim 1 the reference mean sums a word's 47 n-grams pairwise
    @example(words=["000000000000"], dim=1, seed=0, small_chunks=False)
    def test_bitwise_equal_to_per_word_reference(self, words, dim, seed, small_chunks):
        rng = np.random.default_rng(seed)
        vocab = list(dict.fromkeys(w.lower() for w in words[::2])) + ["/known"]
        table = EmbeddingTable(vocab, rng.normal(size=(len(vocab), dim)).astype(np.float32),
                               rng.normal(size=(61, dim)).astype(np.float32), ngram_min=2, ngram_max=5)
        queries = words + ["/known", "/unknown", ""]
        with mock.patch.object(embed, "_CHUNK_CHARS", 12 if small_chunks else embed._CHUNK_CHARS):
            got = table.word_vectors(queries)
        assert got.dtype == np.float32 and got.shape == (len(queries), dim)
        for w, row in zip(queries, got):
            assert row.tobytes() == reference_word_vector(table, w).tobytes(), w
            assert table.word_vector(w).tobytes() == row.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_many_ngrams_match_reference(self, dim):
        # 16 and more n-grams: past the 8-way unrolled blocks of numpy's
        # pairwise sum, whose order differs from adding rows one by one
        rng = np.random.default_rng(dim)
        table = EmbeddingTable(["known"], rng.normal(size=(1, dim)).astype(np.float32),
                               rng.normal(size=(53, dim)).astype(np.float32))
        words = ["abcdefghijklmnop", "known", "KNOWNKNOWNKNOWN", "xyz", "qrstuvwxyzabcdefghij"]
        assert all(len(char_ngrams(w)) >= 16 for w in words[::2])
        for w, row in zip(words, table.word_vectors(words)):
            assert row.tobytes() == reference_word_vector(table, w).tobytes(), w

    def test_sum_of_negative_zeros_is_positive_zero(self):
        # numpy's sum starts from +0.0, so -0.0 rows sum to +0.0, and a
        # stored -0.0 plus that mean is +0.0 too
        table = EmbeddingTable(["known"], np.full((1, 2), -0.0, dtype=np.float32),
                               np.full((7, 2), -0.0, dtype=np.float32))
        for w, row in zip(["known", "fresh"], table.word_vectors(["known", "fresh"])):
            assert row.tobytes() == reference_word_vector(table, w).tobytes(), w
            assert not np.signbit(row).any()

    def test_trained_table_matches_reference(self):
        table = train_skipgram(tiny_corpus(), small_config())
        words = ["aaa", "AAAS", "zzzqqq", "/t1", "/nothere", "", "a", "bbb", "café"]
        for w, row in zip(words, table.word_vectors(words)):
            assert row.tobytes() == reference_word_vector(table, w).tobytes()

    def test_plain_table_uses_stored_rows(self):
        plain = EmbeddingTable(["x", "/t"], np.arange(8, dtype=np.float32).reshape(2, 4))
        np.testing.assert_array_equal(plain.word_vectors(["X", "y", "/t"]),
                                      [[0, 1, 2, 3], [0, 0, 0, 0], [4, 5, 6, 7]])

    def test_empty_batch(self):
        table = train_skipgram(tiny_corpus(), small_config())
        assert table.word_vectors([]).shape == (0, table.dim)

    def test_lone_surrogate_raises(self):
        table = train_skipgram(tiny_corpus(), small_config())
        with pytest.raises(UnicodeEncodeError):
            table.word_vectors(["aaa", "b\udc00"])
        with pytest.raises(UnicodeEncodeError):
            table.word_vector("\ud800")


class TestConfig:
    def test_defaults(self):
        cfg = EmbedConfig()
        assert cfg.dim == 100 and cfg.window == 5 and cfg.min_count == 5
        assert cfg.ngram_min == 3 and cfg.ngram_max == 6
        assert cfg.bucket_count == 100_000 and cfg.negatives == 5
        assert cfg.subsample_threshold == 1e-4

    @pytest.mark.parametrize("kw", [
        {"dim": 0},
        {"window": 0},
        {"ngram_min": 4, "ngram_max": 3},
        {"bucket_count": 0},
        {"learning_rate": 0.0},
        {"subsample_threshold": -1.0},
        {"epochs": 0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"subsample_threshold": float("nan")},
        {"subsample_threshold": float("inf")},
        {"seed": -1},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(DataError):
            EmbedConfig(**kw)


def window_loss(s, y):
    """The logistic loss of a window's scores: softplus(-s) where y is 1, softplus(s) where 0."""
    return float(np.sum(np.logaddexp(0.0, np.where(y > 0, -s, s))))


class TestNegativeSamplingLoss:
    def window(self, seed=3, dim=7, n=12):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=dim)
        rows = rng.normal(size=(n, dim))
        y = (rng.random(n) < 0.3).astype(float)
        y[0] = 1.0
        return h, rows, y

    def test_gradients_match_finite_differences(self):
        h, rows, y = self.window()
        s, dh, drows = negative_sampling_loss(h, rows, y)
        assert s.tobytes() == (rows @ h).tobytes()

        def loss(h, rows):
            return window_loss(negative_sampling_loss(h, rows, y)[0], y)

        eps = 1e-6
        for i in range(h.size):
            hp, hm = h.copy(), h.copy()
            hp[i] += eps
            hm[i] -= eps
            num = (loss(hp, rows) - loss(hm, rows)) / (2 * eps)
            assert abs(num - dh[i]) <= 1e-4 * max(1.0, abs(num))
        for i in range(rows.shape[0]):
            for j in range(h.size):
                rp, rm = rows.copy(), rows.copy()
                rp[i, j] += eps
                rm[i, j] -= eps
                num = (loss(h, rp) - loss(h, rm)) / (2 * eps)
                assert abs(num - drows[i, j]) <= 1e-4 * max(1.0, abs(num))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_equal_the_reference_kernel(self, seed):
        # equal values; only the sign of a zero row gradient may differ
        h, rows, y = self.window(seed, dim=16, n=36)
        rows[3] = 0.0
        s, dh, drows = negative_sampling_loss(h, rows, y)
        loss, ref_dh, ref_drows = ref_negative_sampling_loss(h, rows, y)
        assert window_loss(s, y) == loss
        assert dh.tobytes() == ref_dh.tobytes()
        np.testing.assert_array_equal(drows, ref_drows)

    def test_no_overflow_on_large_scores(self):
        h = np.full(4, 100.0)
        rows = np.vstack([np.full(4, 100.0), np.full(4, -100.0)])
        y = np.array([1.0, 0.0])
        with np.errstate(over="raise", invalid="raise"):
            s, dh, drows = negative_sampling_loss(h, rows, y)
        assert np.isfinite(window_loss(s, y)) and np.all(np.isfinite(dh))
        assert np.all(np.isfinite(drows))


def tiny_corpus() -> list[str]:
    # aaa lives with /t1 contexts, bbb with /t2; enough repeats to clear
    # min_count and give the sampler something to chew on
    lines = []
    for i in range(300):
        lines.append(f"aaa /t1 ctx{i % 3}")
        lines.append(f"bbb /t2 ctx{i % 3}")
    return lines


def small_config(**kw) -> EmbedConfig:
    base = dict(dim=16, window=2, epochs=3, bucket_count=997,
                subsample_threshold=0.0, seed=11, learning_rate=0.05)
    base.update(kw)
    return EmbedConfig(**base)


def ref_sigmoid(x: np.ndarray) -> np.ndarray:
    """The masked form: each sign's half computed on its own compacted array."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_negative_sampling_loss(h, rows, y):
    s = rows @ h
    signed = np.where(y > 0, -s, s)
    loss = float(np.sum(np.logaddexp(0.0, signed)))
    dscore = ref_sigmoid(s) - y
    return loss, rows.T @ dscore, np.outer(dscore, h)


class RefTrainer(embed._Trainer):
    """The per-context trainer: k draws (plus redraws) per context word and a
    row block built context by context, with ufunc.at scatters into vout and
    the buckets."""

    redraws = 0

    def _draw_negatives(self, rng, target, k):
        negs = np.searchsorted(self.noise_cdf, rng.random(k))
        while True:
            bad = negs == target
            if not bad.any():
                return negs
            self.redraws += 1
            negs[bad] = np.searchsorted(self.noise_cdf, rng.random(int(bad.sum())))

    def _train_line(self, rng, ids):
        cfg = self.cfg
        self.processed += len(ids)
        if len(ids) == 0:
            return 0.0, 0
        kept = ids[rng.random(len(ids)) < self.keep_prob[ids]]
        if len(kept) < 2:
            return 0.0, 0
        lr = self._lr()
        loss_sum = 0.0
        pairs = 0
        radii = rng.integers(1, cfg.window + 1, size=len(kept))
        for pos in range(len(kept)):
            center = int(kept[pos])
            r = int(radii[pos])
            ctx = np.concatenate([kept[max(0, pos - r) : pos], kept[pos + 1 : pos + 1 + r]])
            if ctx.size == 0:
                continue
            ngrams = self.ngram_ids[center]
            h = self.vin[center].copy()
            if ngrams.size:
                h += self.gin[ngrams].mean(axis=0)
            rows_idx = np.empty(ctx.size * (1 + cfg.negatives), dtype=np.int64)
            y = np.zeros(rows_idx.size)
            for j, c in enumerate(ctx):
                base = j * (1 + cfg.negatives)
                rows_idx[base] = c
                y[base] = 1.0
                rows_idx[base + 1 : base + 1 + cfg.negatives] = self._draw_negatives(
                    rng, int(c), cfg.negatives
                )
            loss, dh, drows = ref_negative_sampling_loss(h, self.vout[rows_idx], y)
            loss_sum += loss
            pairs += int(ctx.size)
            np.subtract.at(self.vout, rows_idx, lr * drows)
            self.vin[center] -= lr * dh
            if ngrams.size:
                np.subtract.at(self.gin, ngrams, (lr / ngrams.size) * dh)
        return loss_sum, pairs


def run_recorded(cls, lines, cfg):
    """Train with cls; also return (loss, pairs, generator state) per line."""
    record = []

    class Recording(cls):
        def _train_line(self, rng, ids):
            out = super()._train_line(rng, ids)
            record.append((out, rng.bit_generator.state))
            return out

    trainer = Recording(lines, cfg)
    trainer.run()
    return trainer, record


def assert_same_training(lines, cfg, ref_cls=RefTrainer):
    got, got_record = run_recorded(embed._Trainer, lines, cfg)
    ref, ref_record = run_recorded(ref_cls, lines, cfg)
    assert got.vin.tobytes() == ref.vin.tobytes()
    assert got.gin.tobytes() == ref.gin.tobytes()
    assert got.vout.tobytes() == ref.vout.tobytes()
    assert got.epoch_losses == ref.epoch_losses
    assert got_record == ref_record
    return got, ref


class TestSigmoid:
    def test_special_values_bitwise_equal_to_masked_form(self):
        nan = np.float64("nan")
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e4, -1e4,
                      np.inf, -np.inf, nan, -nan, 36.0, -36.0, 745.2, -745.2])
        assert embed.sigmoid(x).tobytes() == ref_sigmoid(x).tobytes()
        assert embed.sigmoid(x).dtype == np.float64

    def test_dense_grid_bitwise_equal_to_masked_form(self):
        x = np.linspace(-800.0, 800.0, 400_001)
        assert embed.sigmoid(x).tobytes() == ref_sigmoid(x).tobytes()

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=70))
    @settings(max_examples=200, deadline=None)
    def test_any_float64_bitwise_equal_to_masked_form(self, values):
        x = np.array(values, dtype=np.float64)
        assert embed.sigmoid(x).tobytes() == ref_sigmoid(x).tobytes()


# words for the trainer oracle: repeated letters give repeated n-grams, type
# tokens have none, and 1-2 letter words have few
_train_words = st.one_of(
    st.text("ab", min_size=1, max_size=9),
    st.sampled_from(["aaaaaa", "abab", "abababab", "x", "yz", "/t1", "/t2", "café"]),
)


@st.composite
def _training_setups(draw):
    words = draw(st.lists(_train_words, min_size=2, max_size=8, unique=True))
    line = st.lists(st.sampled_from(words), max_size=12).map(" ".join)
    lines = draw(st.lists(line, min_size=1, max_size=12))
    nmin = draw(st.integers(1, 3))
    cfg = EmbedConfig(
        dim=draw(st.integers(1, 8)),
        window=draw(st.integers(1, 6)),
        negatives=draw(st.integers(1, 8)),
        min_count=draw(st.integers(1, 2)),
        ngram_min=nmin,
        ngram_max=nmin + draw(st.integers(0, 3)),
        bucket_count=draw(st.sampled_from([1, 2, 5, 31, 997])),
        epochs=draw(st.integers(1, 2)),
        learning_rate=draw(st.sampled_from([0.05, 0.5])),
        subsample_threshold=draw(st.sampled_from([0.0, 0.05, 0.3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return lines, cfg


class TestExactTrainer:
    """The window-batched trainer against the per-context reference: `==` on
    every array, every epoch loss and the generator state after every line."""

    @given(_training_setups())
    @settings(max_examples=150, deadline=None)
    @example((["", "a", "a b", "b a a", ""], small_config(min_count=1, window=1, negatives=1)))
    # "a" is most noise draws: contexts redraw in many rounds, mid-line and at its end
    @example((["a a a a a b a a", "b a"], small_config(min_count=1, window=2, negatives=3)))
    def test_bitwise_equal_to_per_context_reference(self, setup):
        lines, cfg = setup
        try:
            vocab = embed._Trainer(lines, cfg).words
        except DataError:
            vocab = []  # nothing survives the cutoff
        # a one-word vocabulary has no negative that differs from a context
        assume(len(vocab) >= 2)
        assert_same_training(lines, cfg)

    def test_tiny_corpus_seeds(self):
        for seed in range(3):
            assert_same_training(tiny_corpus(), small_config(seed=seed))

    def test_wide_window_many_negatives_no_subsampling(self):
        lines = [" ".join(f"w{(i * 7 + j) % 23}" for j in range(i % 17)) for i in range(120)]
        for dim, window, k in [(8, 7, 8), (16, 3, 1)]:
            assert_same_training(lines, small_config(dim=dim, window=window, negatives=k,
                                                     min_count=1, epochs=2))

    def test_redraws_and_repeated_buckets_are_exercised(self):
        # two words: about half of the first draws equal their context word
        lines = ["aaaaaa ab aaaaaa ab ab", "ab aaaaaa", "aaaaaa"] * 10
        cfg = small_config(min_count=1, bucket_count=5, negatives=8, window=4, epochs=1)
        trainer, ref = assert_same_training(lines, cfg)
        assert ref.redraws > 0
        assert not all(trainer.distinct_ngrams)
        assert any(trainer.distinct_ngrams)

    def test_context_redrawn_in_many_rounds(self):
        # "a" is about nine noise draws in ten, so a context "a" redraws most
        # of its k entries round after round; every redraw reads past the
        # line's first block of n * k draws, and so do the contexts after it
        rounds = []

        class Rounds(RefTrainer):
            def _draw_negatives(self, rng, target, k):
                before = self.redraws
                negs = super()._draw_negatives(rng, target, k)
                rounds.append(self.redraws - before)
                return negs

        lines = ["a a a a a a a a a b"] * 3
        assert_same_training(lines, small_config(min_count=1, negatives=4, window=2, epochs=1),
                             ref_cls=Rounds)
        assert max(rounds) > 10 and rounds.count(0) > 0

    def test_one_and_no_token_lines_consume_what_the_reference_does(self):
        lines = ["", "aaa", "aaa bbb", "bbb", "  ", "aaa bbb aaa"] * 4
        assert_same_training(lines, small_config(min_count=1))
        assert_same_training(lines, small_config(min_count=1, subsample_threshold=0.3))


class TestTraining:
    def test_type_cooccurrence_ordering(self):
        table = train_skipgram(tiny_corpus(), small_config())

        def cos(a, b):
            u, v = table.word_vector(a), table.word_vector(b)
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        assert cos("aaa", "/t1") > cos("aaa", "/t2")
        assert cos("bbb", "/t2") > cos("bbb", "/t1")

    def test_determinism_single_worker(self):
        t1 = train_skipgram(tiny_corpus(), small_config())
        t2 = train_skipgram(tiny_corpus(), small_config())
        assert t1.words == t2.words
        np.testing.assert_array_equal(t1.vectors, t2.vectors)
        np.testing.assert_array_equal(t1.bucket_vectors, t2.bucket_vectors)
        assert t1.epoch_losses == t2.epoch_losses

    def test_loss_non_increasing(self):
        table = train_skipgram(tiny_corpus(), small_config(epochs=5))
        losses = table.epoch_losses
        assert len(losses) == 5
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev * 1.01

    def test_min_count_cutoff_and_type_exemption(self):
        lines = ["common word pair"] * 10 + ["rare /seldom common word"] * 4
        table = train_skipgram(lines, small_config(min_count=5))
        assert "rare" not in table.word_index
        assert "/seldom" in table.word_index
        # OOV word still composes a subword vector
        assert np.linalg.norm(table.word_vector("rare")) > 0

    def test_vocab_sorted_by_frequency_then_word(self):
        lines = ["b a b a b"] * 5 + ["c c c c c"] * 3
        table = train_skipgram(lines, small_config(min_count=5))
        counts = Counter(w for line in lines for w in line.split())
        assert table.words == sorted(table.words, key=lambda w: (-counts[w], w))

    def test_empty_vocab_rejected(self):
        with pytest.raises(DataError):
            train_skipgram(["one two", "three four"], small_config(min_count=50))

    def test_one_word_vocabulary_rejected(self):
        # every noise draw would equal the only context word, for ever
        with pytest.raises(DataError, match="at least two"):
            train_skipgram(["a a"], EmbedConfig(min_count=1, subsample_threshold=0))


class TestWordVector:
    def setup_method(self):
        self.table = train_skipgram(tiny_corpus(), small_config())

    def test_type_token_is_stored_row_only(self):
        i = self.table.word_index["/t1"]
        np.testing.assert_array_equal(
            self.table.word_vector("/t1"), self.table.vectors[i])

    def test_in_vocab_composes_word_plus_ngram_mean(self):
        i = self.table.word_index["aaa"]
        ids = ngram_bucket_ids(["aaa"], self.table.bucket_vectors.shape[0])[0]
        expect = self.table.vectors[i] + self.table.bucket_vectors[ids].mean(axis=0)
        np.testing.assert_allclose(self.table.word_vector("aaa"), expect, rtol=1e-6)

    def test_oov_morphological_neighbor(self):
        v_known = self.table.word_vector("aaa")
        v_oov = self.table.word_vector("aaas")
        v_far = self.table.word_vector("zzzqqq")

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        assert cos(v_known, v_oov) > cos(v_known, v_far)

    def test_query_lowercased(self):
        np.testing.assert_array_equal(
            self.table.word_vector("AAA"), self.table.word_vector("aaa"))

    def test_unknown_type_token_zero(self):
        assert np.all(self.table.word_vector("/nothere") == 0)

    def test_empty_word_zero(self):
        assert np.all(self.table.word_vector("") == 0)

    def test_plain_table_oov_zero(self):
        plain = EmbeddingTable(["x"], np.ones((1, 4), dtype=np.float32))
        assert np.all(plain.word_vector("y") == 0)
        np.testing.assert_array_equal(plain.word_vector("x"), np.ones(4))

    def test_cased_file_rows_are_read(self, tmp_path):
        p = tmp_path / "cased.txt"
        p.write_text("Paris 1 2\nparis 3 4\nBERLIN 5 6\n", encoding="utf-8")
        table = load_embeddings(p)
        np.testing.assert_array_equal(table.word_vector("Paris"), [1, 2])
        # of a word's case variants the first row is read, whatever the query's case
        np.testing.assert_array_equal(table.word_vector("paris"), [1, 2])
        np.testing.assert_array_equal(table.word_vectors(["berlin", "Berlin"]), [[5, 6], [5, 6]])
        assert "Paris" in table and "PARIS" in table and "berlin" in table
        assert "rome" not in table

    def test_case_variants_are_not_duplicates(self):
        EmbeddingTable(["Paris", "paris"], np.ones((2, 2), dtype=np.float32))
        with pytest.raises(DataError, match="duplicate words"):
            EmbeddingTable(["Paris", "paris", "Paris"], np.ones((3, 2), dtype=np.float32))


class TestPersistence:
    def test_round_trip_with_subword(self, tmp_path):
        table = train_skipgram(tiny_corpus(), small_config())
        p = tmp_path / "vec.bin"
        save_embeddings(table, p)
        back = load_embeddings(p)
        assert back.words == table.words
        np.testing.assert_array_equal(back.vectors, table.vectors)
        np.testing.assert_array_equal(back.bucket_vectors, table.bucket_vectors)
        assert (back.ngram_min, back.ngram_max) == (table.ngram_min, table.ngram_max)
        # composed OOV queries survive the round trip bit for bit
        np.testing.assert_array_equal(
            back.word_vector("aaas"), table.word_vector("aaas"))

    def test_round_trip_text_only(self, tmp_path):
        table = train_skipgram(tiny_corpus(), small_config())
        p = tmp_path / "vec.txt"
        save_embeddings(EmbeddingTable(table.words, table.vectors), p)
        back = load_embeddings(p)
        assert back.bucket_vectors is None
        np.testing.assert_array_equal(back.vectors, table.vectors)

    def test_headerless_third_party_format(self, tmp_path):
        p = tmp_path / "glove.txt"
        p.write_text("the 0.1 0.2 0.3\ncat -1 0.5 2\n", encoding="utf-8")
        table = load_embeddings(p)
        assert table.words == ["the", "cat"]
        assert table.dim == 3
        np.testing.assert_allclose(table.vectors[1], [-1, 0.5, 2])

    @pytest.mark.parametrize("text", ["a 1 2", "a 1 2\n\n\n", "a 1 2\r\n \r\n\t"])
    def test_headerless_trailing_blank_lines_accepted(self, tmp_path, text):
        p = tmp_path / "glove.txt"
        p.write_text(text, encoding="utf-8")
        table = load_embeddings(p)
        assert table.words == ["a"]
        np.testing.assert_array_equal(table.vectors, [[1, 2]])

    @pytest.mark.parametrize("head", ["2 2\n", ""])  # headered, headerless
    @pytest.mark.parametrize("tail", ["\n", "\n\n", " \t\r\n\x0b\x0c"])
    def test_whitespace_after_the_rows_is_no_subword_section(self, tmp_path, head, tail):
        p = tmp_path / "vec.txt"
        p.write_text(f"{head}a 1 2\nb 3 4\n{tail}", encoding="utf-8")
        table = load_embeddings(p)
        assert table.words == ["a", "b"] and table.bucket_vectors is None
        np.testing.assert_array_equal(table.vectors, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("text, offset", [
        ("a 1 2\n\nb 3 4\n", 6),           # headerless: once stopped at the blank line
        ("2 2\na 1 2\n\nb 3 4\n", 10),     # headered
    ])
    def test_row_after_a_blank_line_rejected(self, tmp_path, text, offset):
        p = tmp_path / "vec.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="row 1 is a blank line") as err:
            load_embeddings(p)
        assert err.value.offset == offset

    def test_headered_plain_format(self, tmp_path):
        p = tmp_path / "w2v.txt"
        p.write_text("2 3\nthe 0.1 0.2 0.3\ncat -1 0.5 2\n", encoding="utf-8")
        table = load_embeddings(p)
        assert table.words == ["the", "cat"] and table.dim == 3

    def test_inconsistent_dims_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("the 0.1 0.2 0.3\ncat -1 0.5\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_embeddings(p)

    @pytest.mark.parametrize("text", ["2 0\nthe\ncat\n", "the\ncat\n"])  # headered, headerless
    def test_zero_dimension_rejected_at_offset_zero(self, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="dimension must be at least 1, got 0") as err:
            load_embeddings(p)
        assert err.value.offset == 0

    def test_truncated_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("5 3\nthe 0.1 0.2 0.3\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_embeddings(p)

    @pytest.mark.parametrize("text, offset", [
        ("2 3\nthe 0.1 0.2 0.3\ncat -1 nan 2\n", 20),   # headered
        ("the 0.1 0.2 0.3\ncat -1 0.5 -inf\n", 16),      # headerless
        ("the 0.1 0.2 0.3\ncat -1 1e39 2\n", 16),        # overflows float32
    ])
    def test_non_finite_row_rejected_at_its_offset(self, tmp_path, text, offset):
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="row 1 has a non-finite value") as err:
            load_embeddings(p)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text, offset", [
        (b"2 3\nthe 0.1 0.2 0.3\nc\xffat -1 0.5 2\n", 20),   # headered
        (b"the 0.1 0.2 0.3\nc\xffat -1 0.5 2\n", 16),         # headerless
    ])
    def test_non_utf8_word_rejected_at_its_row(self, tmp_path, text, offset):
        p = tmp_path / "bad.txt"
        p.write_bytes(text)
        with pytest.raises(FormatError, match="row 1 word is not valid UTF-8") as err:
            load_embeddings(p)
        assert err.value.offset == offset

    def test_truncated_subword_section_rejected(self, tmp_path):
        table = train_skipgram(tiny_corpus(), small_config())
        p = tmp_path / "vec.bin"
        save_embeddings(table, p)
        data = p.read_bytes()
        (tmp_path / "cut.bin").write_bytes(data[: len(data) - 32])
        with pytest.raises(FormatError) as err:
            load_embeddings(tmp_path / "cut.bin")
        assert err.value.offset is not None


def subword_file(path, buckets=31, dim=4):
    """A small vector file with a subword section; returns its bytes and the
    section's offset. Section layout: magic (4 bytes), version (1), n-gram
    min (1) and max (1), bucket count (4), dim (4), seed (8), then floats."""
    rng = np.random.default_rng(5)
    words = ["/t1", "aaa", "bbb"]
    table = EmbeddingTable(words, rng.normal(size=(3, dim)), rng.normal(size=(buckets, dim)), seed=9)
    save_embeddings(table, path)
    data = path.read_bytes()
    return bytearray(data), data.index(embed.SUBWORD_MAGIC)


def load_through_pipe(tmp_path, data):
    """load_embeddings on a FIFO that another thread fills with data."""
    fifo = tmp_path / "vec.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return load_embeddings(fifo)
    finally:
        writer.join(timeout=10)


class TestSubwordSection:
    def test_huge_bucket_count_is_truncation_not_an_allocation(self, tmp_path):
        p = tmp_path / "vec.bin"
        raw, at = subword_file(p)
        raw[at + 7 : at + 11] = (2**32 - 1).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated subword bucket data") as err:
            load_embeddings(p)
        assert err.value.offset == len(raw)

    @pytest.mark.parametrize("field, value", [
        (5, 0),       # n-gram min 0
        (6, 2),       # n-gram max below the min of 3
        (7, 0),       # no buckets (the count's low byte; 31 fits in it)
        (11, 5),      # dim 5 for vectors of dim 4
    ])
    def test_bad_header_field_rejected_at_the_section(self, tmp_path, field, value):
        p = tmp_path / "vec.bin"
        raw, at = subword_file(p)
        raw[at + field] = value
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bad subword header") as err:
            load_embeddings(p)
        assert err.value.offset == at

    def test_non_finite_bucket_value_rejected_at_its_offset(self, tmp_path):
        p = tmp_path / "vec.bin"
        for k, bad in ((17, np.inf), (30, np.nan)):
            raw, at = subword_file(p)
            value = at + 23 + 4 * k
            raw[value : value + 4] = np.float32(bad).tobytes()
            p.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match="subword bucket data has a non-finite value") as err:
                load_embeddings(p)
            assert err.value.offset == value

    def test_loaded_matrix_is_read_only_and_owns_its_data(self, tmp_path):
        # no view over the file's bytes, which would keep the text rows alive
        p = tmp_path / "vec.bin"
        subword_file(p)
        buckets = load_embeddings(p).bucket_vectors
        assert buckets.shape == (31, 4) and buckets.dtype == np.float32
        assert buckets.flags.owndata and buckets.flags.aligned and not buckets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            buckets[0, 0] = 1.0

    def test_loads_through_a_pipe(self, tmp_path):
        subword_file(tmp_path / "vec.bin")
        data = (tmp_path / "vec.bin").read_bytes()
        want = load_embeddings(tmp_path / "vec.bin")
        got = load_through_pipe(tmp_path, data)
        assert got.words == want.words
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.bucket_vectors.tobytes() == want.bucket_vectors.tobytes()
        assert not got.bucket_vectors.flags.writeable

    def test_truncated_pipe_rejected_at_the_offset_of_a_file(self, tmp_path):
        p = tmp_path / "vec.bin"
        raw, _ = subword_file(p)
        cut = bytes(raw[:-32])
        p.write_bytes(cut)
        with pytest.raises(FormatError, match="truncated subword bucket data") as want:
            load_embeddings(p)
        with pytest.raises(FormatError, match="truncated subword bucket data") as got:
            load_through_pipe(tmp_path, cut)
        assert got.value.offset == want.value.offset == len(cut)

    def test_reloaded_word_vectors_are_bitwise_equal(self, tmp_path):
        table = train_skipgram(tiny_corpus(), small_config())
        p = tmp_path / "vec.bin"
        save_embeddings(table, p)
        queries = table.words + ["aaas", "AAA", "zzzqqq", "/nothere", ""]
        assert load_embeddings(p).word_vectors(queries).tobytes() == \
            table.word_vectors(queries).tobytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "vec.bin"
        raw, _ = subword_file(p)
        p.write_bytes(bytes(raw) + b"\0")
        with pytest.raises(FormatError, match="trailing bytes") as err:
            load_embeddings(p)
        assert err.value.offset == len(raw)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_flip_or_truncation_only_raises_lexner_errors(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("fuzz") / "vec.bin"
        raw, section = subword_file(p)
        # one branch aims at the section header
        at = data.draw(st.integers(0, len(raw) - 1) | st.integers(section, section + 22))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw[at] = data.draw(st.integers(0, 255))
        p.write_bytes(bytes(raw))
        try:
            load_embeddings(p).word_vectors(["aaa", "aaab", "/t1", "zz"])
        except LexnerError:
            pass
