"""Synthetic annotated corpora for end-to-end verification and demos.

One seeded "world" fixes a small type system: each type owns a set of
invented entity stems and a set of context words that only ever appear
around that type's entities. Two generators build on it:

* `distant_sentences` emits a mention-annotated corpus in the style of a
  distantly supervised dump, suitable for dual-corpus embedding training.
  Every entity surface is a stem plus a fixed suffix, so morphological
  variants (same stem, different suffix) exist that never occur in the
  corpus; composing those through subword n-grams is the property the
  pipeline is supposed to deliver.

* `ner_dataset` emits tagged train/dev/test splits engineered so the LS
  block is the only signal that can type part of the test entities: test
  mentions drawn from held-out stems appear as unseen variant surfaces in
  deliberately uninformative (all-lowercase, filler-only) contexts, while
  look-alike junk words tagged O teach the tagger that unknown surfaces
  are, by default, not entities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Mention, Sentence, TypeInventory, mentions_to_tags
from .errors import DataError

TYPE_LABELS = ("/animal", "/color", "/fruit", "/metal", "/city", "/tool")

FILLERS = (
    "the", "a", "of", "and", "to", "in", "it", "was", "had", "with",
    "near", "very",
)

STEMS_PER_TYPE = 12
CONTEXTS_PER_TYPE = 8
STEM_SYLLABLES = 3

PLANT_SUFFIX = "et"
VARIANT_SUFFIX = "ix"

# `ner_dataset`'s shares of variant entities, second junk words and entity-free sentences
VARIANT_RATE = 0.45
EXTRA_JUNK_RATE = 0.3
NO_MENTION_RATE = 0.15

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _stem(rng: np.random.Generator) -> str:
    out = []
    for _ in range(STEM_SYLLABLES):
        out.append(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))])
        out.append(_VOWELS[int(rng.integers(len(_VOWELS)))])
    return "".join(out)


def _fresh_stems(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        s = _stem(rng)
        if s in taken:
            continue
        taken.add(s)
        out.append(s)
    return out


@dataclass
class SynthWorld:
    """Fixed vocabulary of a synthetic domain."""

    inventory: TypeInventory
    stems: dict[str, list[str]]      # type label -> entity stems
    contexts: dict[str, list[str]]   # type label -> type-specific context words

    def planted(self, label: str) -> list[str]:
        return [s + PLANT_SUFFIX for s in self.stems[label]]

    def variant(self, stem: str) -> str:
        return stem + VARIANT_SUFFIX

    def all_planted(self) -> dict[str, str]:
        """surface -> type label for every in-corpus entity word."""
        return {w: t for t in self.inventory for w in self.planted(t)}

    def all_variants(self) -> dict[str, str]:
        """surface -> type label for the held-out morphological variants."""
        return {self.variant(s): t for t in self.inventory for s in self.stems[t]}


def make_world(seed: int = 1) -> SynthWorld:
    rng = np.random.default_rng((seed, 11))
    taken: set[str] = set(FILLERS)
    stems: dict[str, list[str]] = {}
    contexts: dict[str, list[str]] = {}
    for label in TYPE_LABELS:
        stems[label] = _fresh_stems(rng, STEMS_PER_TYPE, taken)
        # context words carry no entity suffix; make them a little longer so
        # their character n-grams stay clear of the stems'
        contexts[label] = [w + "on" for w in _fresh_stems(rng, CONTEXTS_PER_TYPE, taken)]
    return SynthWorld(TypeInventory(list(TYPE_LABELS)), stems, contexts)


def distant_sentences(
    world: SynthWorld, n_sentences: int = 20_000, seed: int = 2
) -> list[Sentence]:
    """Mention-annotated sentences: one entity each, in type-true context.

    Entity words cycle through the world's planted surfaces so every one of
    them appears near-uniformly often; context slots around the entity are
    filled from its type's context vocabulary, the rest with shared fillers.
    """
    rng = np.random.default_rng((seed, 22))
    labels = list(world.inventory)
    out: list[Sentence] = []
    surfaces = [(w, t) for t in labels for w in world.planted(t)]
    order = rng.permutation(len(surfaces))
    for i in range(n_sentences):
        word, label = surfaces[order[i % len(surfaces)]]
        if i % len(surfaces) == len(surfaces) - 1:
            order = rng.permutation(len(surfaces))
        ctx = world.contexts[label]
        c_before = ctx[int(rng.integers(len(ctx)))]
        c_after = ctx[int(rng.integers(len(ctx)))]
        pre = [FILLERS[int(rng.integers(len(FILLERS)))]
               for _ in range(int(rng.integers(1, 3)))]
        post = [FILLERS[int(rng.integers(len(FILLERS)))]
                for _ in range(int(rng.integers(1, 4)))]
        words = pre + [c_before, word, c_after] + post
        start = len(pre) + 1
        out.append(Sentence.from_words(
            words, mentions=[Mention(start, start + 1, label)]))
    return out


@dataclass
class NerSplits:
    train: list[Sentence]
    dev: list[Sentence]
    test: list[Sentence]

    def oov_entity_token_rate(self) -> float:
        """Fraction of test entity tokens whose surface never occurs in train."""
        seen = {w.lower() for s in self.train for w in s.words}
        total = 0
        oov = 0
        for s in self.test:
            for m in s.mentions or []:
                for i in range(m.start, m.end):
                    total += 1
                    if s.words[i].lower() not in seen:
                        oov += 1
        if total == 0:
            raise DataError("test split has no entity tokens")
        return oov / total


def ner_dataset(
    world: SynthWorld,
    seed: int = 3,
    n_train: int = 800,
    n_dev: int = 300,
    n_test: int = 500,
    dev_held_out_per_type: int = 2,
    test_held_out_per_type: int = 3,
) -> NerSplits:
    """Tagged splits where unseen-surface entities are typable only by LS.

    Stems split per type three ways: set A appears in training (as the
    planted surface or its variant; the variant slots teach that unknown
    surfaces can be entities), set C supplies dev-only variants so model
    selection tracks unseen-stem generalization, and set B supplies
    test-only variants. Held-out variants are absent from the embedding
    vocabulary and sit in contexts made of shared fillers only, so neither
    the word lookup, the characters, nor the context can type them; their
    stems' n-grams can. Junk words (fresh stems wearing the same variant
    suffix, tagged O) appear in every split so that "unknown surface" alone
    never implies "entity".
    """
    held = dev_held_out_per_type + test_held_out_per_type
    if not (0 < held < min(len(v) for v in world.stems.values())):
        raise DataError("held-out stems must leave every stem set non-empty")
    rng = np.random.default_rng((seed, 33))
    labels = list(world.inventory)
    set_a = {t: world.stems[t][:-held] for t in labels}
    set_c = {t: world.stems[t][-held:-test_held_out_per_type] for t in labels}
    set_b = {t: world.stems[t][-test_held_out_per_type:] for t in labels}

    taken = {s for t in labels for s in world.stems[t]} | set(FILLERS)
    junk_pools = {
        "train": [j + VARIANT_SUFFIX for j in _fresh_stems(rng, 60, taken)],
        "dev": [j + VARIANT_SUFFIX for j in _fresh_stems(rng, 30, taken)],
        "test": [j + VARIANT_SUFFIX for j in _fresh_stems(rng, 30, taken)],
    }
    variant_stems = {"train": set_a, "dev": set_c, "test": set_b}

    def pick(pool: list[str]) -> str:
        return pool[int(rng.integers(len(pool)))]

    def sentence(split: str) -> Sentence:
        junk = junk_pools[split]
        words = [pick(list(FILLERS)) for _ in range(int(rng.integers(5, 9)))]
        spots = list(rng.permutation(len(words)))
        words[spots[0]] = pick(junk)
        if rng.random() < EXTRA_JUNK_RATE:
            words[spots[1]] = pick(junk)
        mentions: list[Mention] = []
        if rng.random() >= NO_MENTION_RATE:
            label = pick(labels)
            variant = rng.random() < VARIANT_RATE
            rng.random()  # once chose two-token mentions; still drawn so that splits stay the same
            stem = pick(variant_stems[split][label] if variant else set_a[label])
            surface = world.variant(stem) if variant else stem + PLANT_SUFFIX
            at = int(rng.integers(1, len(words)))
            words.insert(at, surface)
            mentions = [Mention(at, at + 1, label)]
        tags = mentions_to_tags(mentions, len(words))
        return Sentence.from_words(words, mentions=mentions, tags=tags)

    return NerSplits(
        train=[sentence("train") for _ in range(n_train)],
        dev=[sentence("dev") for _ in range(n_dev)],
        test=[sentence("test") for _ in range(n_test)],
    )
