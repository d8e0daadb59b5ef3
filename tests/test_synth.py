"""The synthetic corpus generators feeding the end-to-end checks."""
import pytest

from lexner.corpus import Mention, Sentence, TagScheme, mentions_to_tags, tags_to_mentions
from lexner.errors import DataError
from lexner.synth import (
    FILLERS,
    PLANT_SUFFIX,
    VARIANT_SUFFIX,
    NerSplits,
    distant_sentences,
    make_world,
    ner_dataset,
)

from world import overfit_dataset, planted_counts


@pytest.fixture(scope="module")
def world():
    return make_world(seed=1)


@pytest.fixture(scope="module")
def splits(world):
    return ner_dataset(world, seed=3)


class TestWorld:
    def test_reproducible_by_seed(self, world):
        again = make_world(seed=1)
        assert again.stems == world.stems
        assert again.contexts == world.contexts
        other = make_world(seed=2)
        assert other.stems != world.stems

    def test_shape_and_suffixes(self, world):
        assert len(world.inventory) == 6
        planted = world.all_planted()
        variants = world.all_variants()
        assert len(planted) == 6 * 12
        assert len(variants) == 6 * 12
        assert all(w.endswith(PLANT_SUFFIX) for w in planted)
        assert all(w.endswith(VARIANT_SUFFIX) for w in variants)
        assert not set(planted) & set(variants)
        assert all(w.islower() and w.isalpha() for w in planted)

    def test_vocabulary_pools_disjoint(self, world):
        stems = [s for label in world.inventory for s in world.stems[label]]
        contexts = [c for label in world.inventory for c in world.contexts[label]]
        assert len(set(stems)) == len(stems)
        assert len(set(contexts)) == len(contexts)
        assert not set(stems) & set(contexts)
        assert not set(stems) & set(FILLERS)
        assert not set(contexts) & set(FILLERS)


class TestDistantSentences:
    def test_one_typed_mention_in_type_true_context(self, world):
        sentences = distant_sentences(world, 400, seed=2)
        assert len(sentences) == 400
        planted = world.all_planted()
        for s in sentences:
            assert s.mentions is not None and len(s.mentions) == 1
            m = s.mentions[0]
            assert m.length == 1
            surface = s.tokens[m.start].lower
            assert planted[surface] == m.etype
            ctx = set(world.contexts[m.etype])
            assert s.tokens[m.start - 1].lower in ctx
            assert s.tokens[m.start + 1].lower in ctx

    def test_planted_counts_near_uniform(self, world):
        sentences = distant_sentences(world, 500, seed=2)
        counts = planted_counts(world, sentences)
        assert sum(counts.values()) == 500
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_deterministic(self, world):
        a = distant_sentences(world, 80, seed=9)
        b = distant_sentences(world, 80, seed=9)
        assert [s.words for s in a] == [s.words for s in b]
        assert [s.mentions for s in a] == [s.mentions for s in b]


class TestNerDataset:
    def test_split_sizes_and_valid_tags(self, splits):
        assert (len(splits.train), len(splits.dev), len(splits.test)) == (800, 300, 500)
        for part in (splits.train, splits.dev, splits.test):
            for s in part:
                tags_to_mentions(s.tags, TagScheme.BILOU, strict=True)
                assert s.tags == mentions_to_tags(s.mentions, len(s))

    def test_test_variants_never_seen_in_training(self, splits):
        train_surfaces = {t.lower for s in splits.train for t in s.tokens}
        test_variants = {
            s.tokens[i].lower
            for s in splits.test
            for m in s.mentions
            for i in range(m.start, m.end)
            if s.tokens[i].lower.endswith(VARIANT_SUFFIX)
        }
        assert test_variants
        assert not test_variants & train_surfaces

    def test_oov_entity_rate_clears_the_bar(self, splits):
        assert splits.oov_entity_token_rate() >= 0.30

    def test_junk_words_tagged_outside_in_every_split(self, splits):
        for part in (splits.train, splits.dev, splits.test):
            junk = sum(
                1
                for s in part
                for tok, tag in zip(s.tokens, s.tags)
                if tag == "O" and tok.lower.endswith(VARIANT_SUFFIX)
            )
            # at least one look-alike O token per sentence by construction
            assert junk >= len(part)

    def test_deterministic(self, world):
        a = ner_dataset(world, seed=5, n_train=40, n_dev=10, n_test=10)
        b = ner_dataset(world, seed=5, n_train=40, n_dev=10, n_test=10)
        assert [s.words for s in a.train] == [s.words for s in b.train]
        assert [s.tags for s in a.test] == [s.tags for s in b.test]

    def test_holding_out_every_stem_is_rejected(self, world):
        with pytest.raises(DataError, match="held-out"):
            ner_dataset(world, dev_held_out_per_type=6, test_held_out_per_type=6)


class TestOverfitDataset:
    def test_shape(self, world):
        data = overfit_dataset(world, 20, seed=4)
        assert len(data) == 20
        planted = world.all_planted()
        seen_types = set()
        for s in data:
            assert len(s) == 3
            assert [m.length for m in s.mentions] == [1, 1]
            assert s.tags == mentions_to_tags(s.mentions, 3)
            for m in s.mentions:
                assert planted[s.tokens[m.start].lower] == m.etype
                seen_types.add(m.etype)
        assert len(seen_types) == 3

    def test_deterministic(self, world):
        a = overfit_dataset(world, 12, seed=7)
        b = overfit_dataset(world, 12, seed=7)
        assert [s.words for s in a] == [s.words for s in b]


class TestOovEntityTokenRate:
    def _splits(self, train_words, test_words, mention):
        train = [Sentence.from_words(train_words, tags=["O"] * len(train_words))]
        test = [Sentence.from_words(test_words, mentions=[mention],
                                    tags=mentions_to_tags([mention], len(test_words)))]
        return NerSplits(train=train, dev=[], test=test)

    def test_unseen_surface_counts(self):
        s = self._splits(["a", "b"], ["x"], Mention(0, 1, "/t"))
        assert s.oov_entity_token_rate() == 1.0

    def test_seen_surface_counts(self):
        s = self._splits(["a", "b"], ["a"], Mention(0, 1, "/t"))
        assert s.oov_entity_token_rate() == 0.0

    def test_no_entities_raises(self):
        empty = NerSplits(
            train=[Sentence.from_words(["a"], tags=["O"])],
            dev=[],
            test=[Sentence.from_words(["a"], tags=["O"], mentions=[])],
        )
        with pytest.raises(DataError, match="no entity tokens"):
            empty.oov_entity_token_rate()
