"""Input generation for the three workloads.

Every input comes from lexner.synth's `make_world(seed=1)` world and the
run's `--seed`. Generation is never timed. Inputs that do not depend on the
seed and cost seconds to make (the pretrained embeddings and the tag
workload's trained model) are built once per source tree with lexner's own
public API and cached under `.bench/cache/<key>/`, where the key hashes
`src/lexner` and the settings below, so a checkout of other code never
reads another's artefacts.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lexner
from lexner import synth
from lexner.tagger import TaggerConfig

WORLD_SEED = 1
DISTANT_SENTENCES = 2000          # features corpus and pretrained-embedding corpus
PRETRAIN_CORPUS_SEED = 2
EMBED = dict(dim=50, window=5, min_count=5, epochs=3, learning_rate=0.05,
             subsample_threshold=1e-3, seed=7)
FRESH_LS_WORDS = 8000             # features: LS words absent from the corpus
N_TRAIN, N_DEV, N_TEST = 800, 300, 500
TEST_PARTS = 4                    # train: test split pooled from this many generator seeds
TAGGER = dict(word_hidden=32, char_emb_dim=16, char_hidden=12, cap_emb_dim=8,
              dropout_prob=0.15, batch_size=10, learning_rate=0.01,
              features=("word_emb", "char", "cap", "ls"))
TRAIN_EPOCHS = 4                  # train workload: fixed work per fit
SERVE_EPOCHS = 6                  # tag workload: the served model
SERVE_DATA_SEED = 3
STREAM_CHUNK = 256                # tag stream sentences generated at a time
STREAM_FRESH_RATE = 0.05          # share of filler tokens replaced by a never-seen word
MAX_REQUEST = 64

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def tagger_config(seed: int, epochs: int) -> TaggerConfig:
    return TaggerConfig(seed=seed, max_epochs=epochs, patience=epochs, **TAGGER)


def world() -> synth.SynthWorld:
    return synth.make_world(seed=WORLD_SEED)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def write_column_file(path: Path, sentences) -> None:
    """CoNLL-style columns: `token tag` per line, a blank line after each sentence."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            for tok, tag in zip(s.words, s.tags):
                fh.write(f"{tok} {tag}\n")
            fh.write("\n")


def write_words(path: Path, words) -> None:
    path.write_text("".join(w + "\n" for w in words), encoding="utf-8")


def read_words(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split()


def with_tags(sentences):
    """Attach BILOU tags derived from the gold mentions."""
    return [lexner.Sentence.from_words(
        s.words, tags=lexner.mentions_to_tags(s.mentions or [], len(s)))
        for s in sentences]


def source_key(root: Path, settings: dict) -> str:
    h = hashlib.sha256(json.dumps(settings, sort_keys=True, default=str).encode())
    for path in sorted((root / "src" / "lexner").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cached_dir(root: Path, name: str, settings: dict, build) -> Path:
    """Directory `build(tmp)` fills once; later calls reuse it."""
    final = root / ".bench" / "cache" / f"{name}-{source_key(root, settings)}"
    if final.is_dir():
        return final
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    try:
        os.replace(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)   # another run finished first
    return final


# ---------------------------------------------------------------------------
# Fresh surfaces
# ---------------------------------------------------------------------------

def fresh_word(rng: np.random.Generator, taken: set[str]) -> str:
    """A new lowercase consonant-vowel word that is not in `taken` (added to it)."""
    while True:
        n = int(rng.integers(3, 5))
        w = "".join(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
                    + _VOWELS[int(rng.integers(len(_VOWELS)))] for _ in range(n))
        w += "ok"
        if w not in taken:
            taken.add(w)
            return w


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

@dataclass
class FeaturesFiles:
    corpus: Path
    vocab: Path
    props: dict


def features_inputs(work: Path, seed: int) -> FeaturesFiles:
    w = world()
    sentences = synth.distant_sentences(w, DISTANT_SENTENCES, seed=seed)
    corpus_words = {t.lower for s in sentences for t in s.tokens}
    planted, variants = w.all_planted(), w.all_variants()
    rng = np.random.default_rng((seed, 501))
    taken = corpus_words | set(planted) | set(variants)
    fresh = [fresh_word(rng, taken) for _ in range(FRESH_LS_WORDS)]
    vocab = list(planted) + list(variants) + fresh
    work.mkdir(parents=True, exist_ok=True)
    files = FeaturesFiles(work / "distant.conll", work / "ls_vocab.txt", {})
    write_column_file(files.corpus, with_tags(sentences))
    write_words(files.vocab, vocab)
    tokens = sum(len(s) for s in sentences)
    mention_tokens = sum(m.end - m.start for s in sentences for m in s.mentions)
    n_mentions = sum(len(s.mentions) for s in sentences)
    files.props = {
        "sentences": len(sentences),
        "tokens": tokens,
        "dual_tokens": 2 * tokens - mention_tokens + n_mentions,
        "ls_words": len(vocab),
        "ls_words_in_corpus_vocab": sum(v in corpus_words for v in vocab),
        "ls_words_fresh": len(fresh),
        "planted": len(planted),
        "variants": len(variants),
        "embed_epochs": EMBED["epochs"],
    }
    return files


# ---------------------------------------------------------------------------
# shared pretrained embeddings (train and tag)
# ---------------------------------------------------------------------------

def pretrained_embeddings(root: Path) -> Path:
    settings = {"what": "embeddings", "n": DISTANT_SENTENCES,
                "corpus_seed": PRETRAIN_CORPUS_SEED, "embed": EMBED}

    def build(out: Path) -> None:
        w = world()
        sentences = synth.distant_sentences(w, DISTANT_SENTENCES, seed=PRETRAIN_CORPUS_SEED)
        lines = list(lexner.build_dual_corpus(sentences, w.inventory))
        table = lexner.train_skipgram(lines, lexner.EmbedConfig(**EMBED))
        lexner.save_embeddings(table, out / "embeddings.vec")

    return _cached_dir(root, "embeddings", settings, build) / "embeddings.vec"


def _split_vocab(splits) -> list[str]:
    return sorted({t.lower for part in (splits.train, splits.dev, splits.test)
                   for s in part for t in s.tokens})


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass
class TrainFiles:
    train: Path
    dev: Path
    test: Path
    embeddings: Path
    ls_table: Path
    props: dict


def train_inputs(root: Path, work: Path, seed: int) -> TrainFiles:
    """Train and dev from the seed; test pooled from TEST_PARTS derived seeds.

    Each generator seed draws only 30 test junk words, and which 30 moves
    test F1 by several points; pooling keeps the F1 a property of the fit.
    """
    emb_path = pretrained_embeddings(root)
    w = world()
    splits = synth.ner_dataset(w, seed=seed, n_train=N_TRAIN, n_dev=N_DEV, n_test=0)
    splits.test = [s for k in range(TEST_PARTS)
                   for s in synth.ner_dataset(w, seed=seed * 1000 + k, n_train=0, n_dev=0,
                                              n_test=N_TEST).test]
    work.mkdir(parents=True, exist_ok=True)
    files = TrainFiles(work / "train.conll", work / "dev.conll", work / "test.conll",
                       emb_path, work / "ls.bin", {})
    for path, part in ((files.train, splits.train), (files.dev, splits.dev),
                       (files.test, splits.test)):
        write_column_file(path, part)
    vocab = _split_vocab(splits)
    table = lexner.load_embeddings(emb_path)
    lexner.save_ls_table(lexner.build_ls_table(vocab, table, w.inventory), files.ls_table)
    train_tokens = [t.lower for s in splits.train for t in s.tokens]
    test_tokens = [t.lower for s in splits.test for t in s.tokens]
    files.props = {
        "train_sentences": len(splits.train),
        "dev_sentences": len(splits.dev),
        "test_sentences": len(splits.test),
        "train_tokens": len(train_tokens),
        "dev_tokens": sum(len(s) for s in splits.dev),
        "test_tokens": len(test_tokens),
        "epochs_per_fit": TRAIN_EPOCHS,
        "test_oov_entity_token_rate": splits.oov_entity_token_rate(),
        "train_tokens_in_embedding_vocab": _share(train_tokens, set(table.word_index)),
        "ls_words": len(vocab),
    }
    return files


def _share(tokens: list[str], vocab: set[str]) -> float:
    return sum(t in vocab for t in tokens) / max(1, len(tokens))


# ---------------------------------------------------------------------------
# tag
# ---------------------------------------------------------------------------

def served_model(root: Path) -> tuple[Path, Path]:
    """Checkpoint and LS table of the model the tag workload serves."""
    emb_path = pretrained_embeddings(root)
    settings = {"what": "served", "embeddings": str(emb_path.parent.name),
                "tagger": TAGGER, "epochs": SERVE_EPOCHS, "data_seed": SERVE_DATA_SEED,
                "sizes": (N_TRAIN, N_DEV, N_TEST)}

    def build(out: Path) -> None:
        w = world()
        splits = synth.ner_dataset(w, seed=SERVE_DATA_SEED, n_train=N_TRAIN,
                                   n_dev=N_DEV, n_test=N_TEST)
        table = lexner.load_embeddings(emb_path)
        ls = lexner.build_ls_table(_split_vocab(splits), table, w.inventory)
        lexner.save_ls_table(ls, out / "ls.bin")
        ls = lexner.load_ls_table(out / "ls.bin")
        train_mod = importlib.import_module("lexner.tagger.train")
        model, _ = train_mod.train(splits.train, splits.dev,
                                   tagger_config(1, SERVE_EPOCHS), table, ls)
        lexner.tagger.save_checkpoint(model, out / "model.ckpt")

    d = _cached_dir(root, "served", settings, build)
    return d / "model.ckpt", d / "ls.bin"


class SentenceStream:
    """Fresh gold-tagged sentences for the tag workload, made on demand.

    Chunks come from `ner_dataset`'s test-split generator under seeds
    derived from the run seed; a share of the filler tokens is replaced by
    words never seen before in the stream and absent from the LS table.
    """

    def __init__(self, seed: int, ls_words: set[str]):
        self.seed = seed
        self.world = world()
        self.ls_words = ls_words
        self.rng = np.random.default_rng((seed, 601))
        self.taken = set(ls_words)
        self.fillers = set(synth.FILLERS)
        self.chunk = 0
        self.seen: set[str] = set()
        self.tokens = 0
        self.new_type_tokens = 0
        self.in_ls_tokens = 0
        self.fresh_tokens = 0

    def next_chunk(self) -> list:
        splits = synth.ner_dataset(self.world, seed=self.seed * 100_003 + self.chunk,
                                   n_train=0, n_dev=0, n_test=STREAM_CHUNK)
        self.chunk += 1
        out = []
        for s in splits.test:
            words = list(s.words)
            for i, w in enumerate(words):
                if w in self.fillers and self.rng.random() < STREAM_FRESH_RATE:
                    words[i] = fresh_word(self.rng, self.taken)
                    self.fresh_tokens += 1
            for w in words:
                lw = w.lower()
                self.tokens += 1
                self.in_ls_tokens += lw in self.ls_words
                if lw not in self.seen:
                    self.seen.add(lw)
                    self.new_type_tokens += 1
            out.append(lexner.Sentence.from_words(words, tags=s.tags))
        return out

    def props(self) -> dict:
        n = max(1, self.tokens)
        return {
            "stream_tokens_generated": self.tokens,
            "new_type_token_share": self.new_type_tokens / n,
            "fresh_word_token_share": self.fresh_tokens / n,
            "ls_table_token_share": self.in_ls_tokens / n,
        }


def request_sizes(seed: int, n: int) -> list[int]:
    """Log-uniform request sizes from 1 to MAX_REQUEST sentences."""
    rng = np.random.default_rng((seed, 701))
    top = np.log2(MAX_REQUEST)
    return [int(2 ** x) for x in rng.uniform(0.0, top + 1e-9, size=n)]
