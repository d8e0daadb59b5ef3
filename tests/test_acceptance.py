"""Ten end-to-end acceptance checks, one per test, run in numbered order.

Each test prints exactly one `criterion NN: PASS/FAIL` line with the measured
numbers, then asserts. The heavier checks share one module-scoped synthetic
world and its trained embedding table; the embedding training time is charged
to criterion 6's budget.
"""
import itertools
import statistics
import time

import numpy as np
import pytest

from lexner.corpus import (
    Mention,
    Sentence,
    TagScheme,
    build_dual_corpus,
    convert_scheme,
    mentions_to_tags,
    tags_to_mentions,
)
from lexner.embed import EmbedConfig, train_skipgram
from lexner.evaluation import evaluate
from lexner.lexsim import build_ls_table, minmax_scale, save_ls_table, top_k_types
from lexner.synth import (
    distant_sentences,
    make_world,
    ner_dataset,
)
from lexner.tagger import TaggerConfig, TaggerModel, crf_log_partition, train, viterbi_decode
from lexner.tagger.gradcheck import gradient_check

from world import overfit_dataset, planted_counts, tiny_embeddings


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ---------------------------------------------------------------------------
# Shared synthetic world: 6 types x 12 planted stems, 20k distant sentences
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def world():
    return make_world(seed=1)


@pytest.fixture(scope="module")
def embeddings(world):
    """Distant corpus + dual views + subword skipgram, timed for criterion 6."""
    t0 = time.time()
    sentences = distant_sentences(world, 20_000, seed=2)
    counts = planted_counts(world, sentences)
    lines = list(build_dual_corpus(sentences, world.inventory))
    config = EmbedConfig(
        dim=50, window=5, min_count=5, epochs=6,
        learning_rate=0.05, subsample_threshold=1e-3, seed=7,
    )
    table = train_skipgram(lines, config)
    return {
        "table": table,
        "counts": counts,
        "n_sentences": len(sentences),
        "seconds": time.time() - t0,
    }


# ---------------------------------------------------------------------------
# 1. CRF equivalence against brute-force enumeration
# ---------------------------------------------------------------------------

def test_01_crf_matches_brute_force():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_gap = 0.0
    checked = 0
    ok = True
    for _ in range(200):
        T = int(rng.integers(1, 7))
        L = int(rng.integers(1, 6))
        emissions = rng.normal(size=(T, L))
        # augmented matrix: interior tags plus the start and stop states
        transitions = rng.normal(size=(L + 2, L + 2))
        start, stop = L, L + 1

        def manual_score(p):
            s = transitions[start, p[0]] + transitions[p[-1], stop]
            s += sum(emissions[t, p[t]] for t in range(T))
            s += sum(transitions[p[t], p[t + 1]] for t in range(T - 1))
            return s

        paths = list(itertools.product(range(L), repeat=T))
        scores = np.array([manual_score(p) for p in paths])
        m = scores.max()
        brute_log_z = m + np.log(np.exp(scores - m).sum())
        # ties go to the first enumerated path, which is the lowest index one
        brute_best = paths[int(np.argmax(scores))]

        log_z = crf_log_partition(emissions, transitions)
        best_path, _ = viterbi_decode(emissions, transitions)

        worst_gap = max(worst_gap, abs(log_z - brute_log_z))
        if abs(log_z - brute_log_z) > 1e-8 or tuple(best_path) != brute_best:
            ok = False
        checked += 1
    elapsed = time.time() - t0
    report(
        1,
        ok and elapsed < 10.0,
        f"{checked} instances, max |logZ gap| {worst_gap:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Analytic gradients against central finite differences
# ---------------------------------------------------------------------------

def test_02_tagger_gradients_match_finite_differences():
    t0 = time.time()
    table, inv = tiny_embeddings(dim=6, seed=0)
    sents = [
        Sentence.from_words(["the", "red", "Fox", "ran"], tags=["O", "O", "U-animal", "O"]),
        Sentence.from_words(["old", "iron", "Rust"], tags=["O", "B-metal", "L-metal"]),
        Sentence.from_words(["a", "crow"], tags=["O", "U-animal"]),
    ]
    vocab = sorted({t.lower for s in sents for t in s.tokens})
    ls = build_ls_table(vocab, table, inv)
    config = TaggerConfig(
        word_hidden=5, char_emb_dim=4, char_hidden=3, cap_emb_dim=3,
        dropout_prob=0.0, seed=2,
    )
    tags = sorted({t for s in sents for t in s.tags})
    charset = sorted({c for s in sents for tok in s.tokens for c in tok.surface})
    model = TaggerModel.build(config, tags, charset, table, ls)

    errors = gradient_check(model, sents, step=1e-5)
    worst_block = max(errors, key=errors.get)
    worst = errors[worst_block]
    elapsed = time.time() - t0
    report(
        2,
        all(e <= 1e-4 for e in errors.values()) and elapsed < 60.0,
        f"{len(errors)} blocks, worst {worst_block} {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. MinMax scaling reproduces the printed example
# ---------------------------------------------------------------------------

def test_03_minmax_printed_example():
    scaled = minmax_scale([0.095, 0.20, 0.76])
    # exact arithmetic gives -0.6842; the reference prints -0.67, so the
    # +-0.01 tolerance is checked at the printed two-decimal precision
    hundredths = round(float(scaled[1]) * 100)
    ok = (
        scaled[0] == -1.0
        and scaled[2] == 1.0
        and abs(hundredths - (-67)) <= 1
        and abs(scaled[1] - (-0.6842105263157895)) < 1e-12
    )
    report(3, ok, f"[0.095, 0.20, 0.76] -> [{scaled[0]:.0f}, {scaled[1]:.4f}, {scaled[2]:.0f}]")


# ---------------------------------------------------------------------------
# 4. Score parity with the reference chunk evaluation script
# ---------------------------------------------------------------------------

def _fixture_scores(gold_rows, pred_rows):
    gold = [Sentence.from_words(w, tags=t) for w, t in gold_rows]
    pred = [t for _, t in pred_rows]
    r = evaluate(gold, pred)
    return round(r.precision, 2), round(r.recall, 2), round(r.f1, 2)


def test_04_conlleval_parity():
    w2 = ["iron", "rust"]
    w3 = ["the", "red", "fox"]
    fixtures = [
        (
            "exact match",
            [(w3, ["O", "O", "U-/a"]), (w2, ["B-/b", "L-/b"])],
            [(w3, ["O", "O", "U-/a"]), (w2, ["B-/b", "L-/b"])],
            (100.0, 100.0, 100.0),
        ),
        (
            "type mismatch",
            [(w3, ["O", "O", "U-/a"]), (w2, ["U-/b", "O"])],
            [(w3, ["O", "O", "U-/a"]), (w2, ["U-/c", "O"])],
            (50.0, 50.0, 50.0),
        ),
        (
            "boundary mismatch",
            [(w3, ["B-/a", "L-/a", "O"]), (w2, ["U-/b", "U-/c"])],
            [(w3, ["O", "B-/a", "L-/a"]), (w2, ["U-/b", "O"])],
            (50.0, 33.33, 40.0),
        ),
        (
            "lenient orphan repair",
            [(w3, ["B-/a", "L-/a", "O"]), (w2, ["O", "U-/b"])],
            [(w3, ["I-/a", "I-/a", "O"]), (w2, ["O", "I-/b"])],
            (100.0, 100.0, 100.0),
        ),
        (
            "empty prediction",
            [(w3, ["O", "O", "U-/a"]), (w2, ["B-/b", "L-/b"])],
            [(w3, ["O", "O", "O"]), (w2, ["O", "O"])],
            (0.0, 0.0, 0.0),
        ),
    ]
    failures = []
    for name, gold_rows, pred_rows, expected in fixtures:
        got = _fixture_scores(gold_rows, pred_rows)
        if got != expected:
            failures.append(f"{name}: {got} != {expected}")
    report(4, not failures, "; ".join(failures) or f"{len(fixtures)} fixtures exact at 2 decimals")


# ---------------------------------------------------------------------------
# 5. Scheme conversions round-trip random mention sets
# ---------------------------------------------------------------------------

def _random_mentions(rng, length):
    mentions = []
    pos = 0
    while pos < length:
        if rng.random() < 0.4:
            span = int(rng.integers(1, min(4, length - pos) + 1))
            etype = f"/t{int(rng.integers(4))}"
            mentions.append(Mention(pos, pos + span, etype))
            pos += span
        else:
            pos += 1
    return mentions


def test_05_scheme_round_trips():
    rng = np.random.default_rng(505)
    bad = 0
    for _ in range(1000):
        length = int(rng.integers(1, 13))
        mentions = _random_mentions(rng, length)

        bilou = mentions_to_tags(mentions, length, TagScheme.BILOU)
        if tags_to_mentions(bilou, TagScheme.BILOU) != mentions:
            bad += 1
            continue
        iob2 = mentions_to_tags(mentions, length, TagScheme.IOB2)
        via_bilou = convert_scheme(iob2, TagScheme.IOB2, TagScheme.BILOU)
        if convert_scheme(via_bilou, TagScheme.BILOU, TagScheme.IOB2) != iob2:
            bad += 1
    report(5, bad == 0, f"1000 mention sets, {bad} round-trip failures")


# ---------------------------------------------------------------------------
# 6. Distant supervision to type knowledge, including unseen variants
# ---------------------------------------------------------------------------

def test_06_distant_supervision_end_to_end(world, embeddings):
    table = embeddings["table"]
    counts = embeddings["counts"]
    planted = world.all_planted()
    variants = world.all_variants()

    assert embeddings["n_sentences"] >= 20_000
    assert len(world.inventory) == 6
    assert len(planted) >= 60
    assert min(counts.values()) >= 20
    # the variant surfaces must be genuinely out of vocabulary
    assert all(v not in table.word_index for v in variants)

    def top1(words):
        hits = sum(
            1
            for w, label in words.items()
            if top_k_types(w, 1, table, world.inventory)[0][0] == label
        )
        return hits / len(words)

    acc_planted = top1(planted)
    acc_variants = top1(variants)
    elapsed = embeddings["seconds"]
    report(
        6,
        acc_planted >= 0.90 and acc_variants >= 0.80 and elapsed < 900.0,
        f"top-1 planted {acc_planted:.3f} (n={len(planted)}), "
        f"variants {acc_variants:.3f} (n={len(variants)}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Ablation: the similarity features must carry real weight
# ---------------------------------------------------------------------------

ABLATION_CONFIG = dict(
    word_hidden=32, char_emb_dim=16, char_hidden=12, cap_emb_dim=8,
    dropout_prob=0.15, batch_size=10, learning_rate=0.01,
    max_epochs=50, patience=12,
)


def test_07_ls_ablation_gap(world, embeddings):
    t0 = time.time()
    table = embeddings["table"]
    splits = ner_dataset(world, seed=3)
    oov = splits.oov_entity_token_rate()
    assert oov >= 0.30, f"test split OOV entity token rate {oov:.3f}"

    vocab = sorted({
        t.lower
        for part in (splits.train, splits.dev, splits.test)
        for s in part
        for t in s.tokens
    })
    ls = build_ls_table(vocab, table, world.inventory)

    scores: dict[bool, list[float]] = {True: [], False: []}
    for seed in range(5):
        for with_ls in (True, False):
            feats = ("word_emb", "char", "cap") + (("ls",) if with_ls else ())
            config = TaggerConfig(seed=seed, features=feats, **ABLATION_CONFIG)
            model, _ = train(
                splits.train, splits.dev, config,
                pretrained=table, ls_table=ls if with_ls else None,
            )
            f1 = evaluate(splits.test, model.tag_batch(splits.test)).f1
            scores[with_ls].append(f1)

    mean_with = statistics.fmean(scores[True])
    mean_without = statistics.fmean(scores[False])
    sd_with = statistics.pstdev(scores[True])
    sd_without = statistics.pstdev(scores[False])
    elapsed = time.time() - t0
    report(
        7,
        mean_with >= mean_without + 2.0
        and sd_with <= 1.0
        and sd_without <= 1.0
        and elapsed < 1800.0,
        f"OOV {oov:.2f}; with LS {mean_with:.2f}±{sd_with:.2f}, "
        f"without {mean_without:.2f}±{sd_without:.2f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Default configuration memorizes a 20-sentence set
# ---------------------------------------------------------------------------

def test_08_overfit_small_set(world, embeddings):
    table = embeddings["table"]
    data = overfit_dataset(world, 20, seed=4)
    assert len(data) == 20
    vocab = sorted({t.lower for s in data for t in s.tokens})
    ls = build_ls_table(vocab, table, world.inventory)

    model, history = train(data, data, TaggerConfig(), pretrained=table, ls_table=ls)
    best = max(h["dev_f1"] for h in history)
    first_hit = next((h["epoch"] for h in history if h["dev_f1"] == 100.0), None)
    memorized = all(model.tag_batch([s])[0] == s.tags for s in data)
    report(
        8,
        best == 100.0 and first_hit is not None and first_hit < 50 and memorized,
        f"training F1 100 at epoch {first_hit} (default config), "
        f"tags reproduced: {memorized}",
    )


# ---------------------------------------------------------------------------
# 9. Fixed seed means identical artifacts and loss curves
# ---------------------------------------------------------------------------

def test_09_seeded_runs_are_identical(world, tmp_path):
    lines = list(
        build_dual_corpus(distant_sentences(world, 2000, seed=5), world.inventory)
    )
    config = EmbedConfig(
        dim=16, epochs=3, learning_rate=0.05, subsample_threshold=1e-3, seed=11,
    )
    vocab = sorted(world.all_planted()) + sorted(world.all_variants())

    files = []
    losses = []
    for run in range(2):
        table = train_skipgram(lines, config)
        ls = build_ls_table(vocab, table, world.inventory)
        path = tmp_path / f"run{run}.lstb"
        save_ls_table(ls, path)
        files.append(path.read_bytes())
        losses.append(list(table.epoch_losses))

    same_files = files[0] == files[1]
    same_losses = losses[0] == losses[1]
    report(
        9,
        same_files and same_losses,
        f"LS tables bitwise identical: {same_files}; "
        f"per-epoch losses identical: {same_losses} ({len(losses[0])} epochs)",
    )


# ---------------------------------------------------------------------------
# 10. The similarity table is read-only to training
# ---------------------------------------------------------------------------

def test_10_ls_table_frozen_through_training(world, embeddings, tmp_path):
    table = embeddings["table"]
    data = overfit_dataset(world, 20, seed=4)
    vocab = sorted({t.lower for s in data for t in s.tokens})
    ls = build_ls_table(vocab, table, world.inventory)

    path = tmp_path / "frozen.lstb"
    save_ls_table(ls, path)
    hash_before = ls.content_hash()
    bytes_before = path.read_bytes()

    config = TaggerConfig(
        word_hidden=8, char_emb_dim=4, char_hidden=3, cap_emb_dim=3,
        max_epochs=5, patience=5, seed=6,
    )
    model, _ = train(data, data, config, pretrained=table, ls_table=ls)
    assert "ls" not in model.params

    hash_after = ls.content_hash()
    save_ls_table(ls, path)
    same_hash = hash_before == hash_after
    same_bytes = bytes_before == path.read_bytes()
    report(
        10,
        same_hash and same_bytes,
        f"content hash {hash_before[:16]} unchanged: {same_hash}; "
        f"file bytes unchanged: {same_bytes}",
    )
