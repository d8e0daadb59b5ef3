"""The three workloads: set-up, timed work and correctness checks.

Each workload times lexner's public calls from outside with
`time.perf_counter` and checks the outputs. Functions are looked up on
their modules at call time, so the tracer's wrappers see every call when a
traced run installs them.

Every workload reports the same five end-to-end metrics (see `E2E`), each
mapped onto what the workload serves; the per-workload names below
(`embed_tokens_per_s`, `tag_latency_ms_p95`, ...) are printed beside them.
"""
from __future__ import annotations

import gc
import importlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import lexner
import inputs
from speed import SpeedProbe
from tracing import Tracer, default_targets

corpus = importlib.import_module("lexner.corpus")
embed = importlib.import_module("lexner.embed")
lexsim = importlib.import_module("lexner.lexsim")
evaluation = importlib.import_module("lexner.evaluation")
model_mod = importlib.import_module("lexner.tagger.model")
# `lexner.tagger.train` the attribute is the re-exported function; the module
# is only reachable through the import system.
train_mod = importlib.import_module("lexner.tagger.train")

SETUP_REPEATS = 11
PROBE_CALLS = 20                   # speed probe calls around set-up and features pieces
EPOCH_PROBE_CALLS = 10             # train: probe calls after each epoch and piece
TAG_BLOCK = 50                     # tag: requests between two speed probes
TAG_PROBE_CALLS = 10               # tag: probe calls between two blocks
MIN_FITS = 5                       # quality_pct of train averages the first MIN_FITS fits
TRACE_REQUESTS = 200
MIN_LATENCY_SAMPLES = 200          # so that at least ten lie beyond p95


def wall_limit(seconds: float) -> float:
    """Deadline after which a run stops adding work, however little it timed,
    so a program that fails fast cannot keep the benchmark looping."""
    return time.perf_counter() + 3 * seconds + 60

E2E = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "aux_per_s": "1/s",
    "latency_ms_p50": "ms",
    "quality_pct": "%",
}


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails on any failed check."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def op(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[: max(0, 20 - len(self.messages))])


def guarded(tally: Tally, fn: Callable[[], dict]) -> dict | None:
    """Run one operation; an exception counts as its failure."""
    try:
        return fn()
    except Exception as exc:   # the run goes on and reports the failure
        traceback.print_exc(file=sys.stderr)
        tally.op([f"{type(exc).__name__}: {exc}"])
        return None


@dataclass
class Outcome:
    """Metrics of one run. `named` maps the per-workload names onto
    (speed-scaled value, raw value, unit); `e2e` holds the scaled values
    under the shared end-to-end names."""

    e2e: dict[str, float]
    named: dict[str, tuple[float, float, str]]
    props: dict
    layers: dict[str, float] = field(default_factory=dict)


def _outcome(named: dict[str, tuple[float, float, str]], e2e_names: dict[str, str],
             props: dict) -> Outcome:
    """`e2e_names` maps each shared end-to-end name to a per-workload name."""
    return Outcome(e2e={k: named[v][0] for k, v in e2e_names.items()}, named=named,
                   props=props)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _checking(tracer: Tracer | None) -> None:
    """Keep the spans of a unit's own checks apart from its timed work."""
    if tracer is not None:
        tracer.begin_run("check")


def timed_setup(load: Callable[[], object], probe: SpeedProbe) -> tuple[object, float, float]:
    """Load the inputs SETUP_REPEATS times.

    Returns the last load, and the median load time scaled by the speed
    probes around the repeats and raw.
    """
    times = []
    state = None
    before = probe.measure(PROBE_CALLS)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        state = load()
        times.append(time.perf_counter() - t0)
    scale = probe.factor(before, probe.measure(PROBE_CALLS))
    return state, _median(times) * scale, _median(times)


class Segments:
    """Timed pieces of one unit of work, separated by speed probes.

    `mark(name)` ends the piece running since the previous mark and files
    its time under `name`, then runs a probe when there is one. Probe time
    never falls inside a piece.
    """

    def __init__(self, probe: SpeedProbe | None, calls: int):
        self.probe = probe
        self.calls = calls
        self.pieces: list[tuple[str, float]] = []
        self.probes: list[float] = []
        self._start = time.perf_counter()

    def mark(self, name: str) -> None:
        self.pieces.append((name, time.perf_counter() - self._start))
        if self.probe is not None:
            self.probes.append(self.probe.measure(self.calls))
        self._start = time.perf_counter()

    def raw(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, dt in self.pieces:
            out[name] = out.get(name, 0.0) + dt
        return out

    def scaled(self, before: float) -> dict[str, float]:
        """Each piece scaled by the probes just before and just after it."""
        points = [before, *self.probes]
        out: dict[str, float] = {}
        for i, (name, dt) in enumerate(self.pieces):
            out[name] = out.get(name, 0.0) + dt * SpeedProbe.factor(points[i], points[i + 1])
        return out


def probed_units(probe: SpeedProbe, tally: Tally, unit: Callable[[int], dict],
                 seconds: float, key: str, min_units: int = 1) -> list[dict]:
    """Run at least `min_units` units of work, then more while their timed
    seconds (`unit[key]`) stay short of `seconds` by over half a unit.

    Each unit returns its `Segments`; this adds the piece times scaled by
    the speed probes around them (`scaled`) and unscaled (`raw`).
    """
    units: list[dict] = []
    deadline = wall_limit(seconds)

    def more() -> bool:
        if time.perf_counter() > deadline:
            return False
        if len(units) < min_units:
            return True
        spent = sum(u[key] for u in units)
        return spent + units[-1][key] / 2 < seconds

    before = probe.measure(PROBE_CALLS)
    while more():
        gc.collect()
        u = guarded(tally, lambda: unit(len(units)))
        if u is None:
            break
        seg = u.pop("segments")
        u["scaled"], u["raw"] = seg.scaled(before), seg.raw()
        before = seg.probes[-1]
        units.append(u)
    return units


def _scaled(units: list[dict], value: Callable[[dict[str, float]], float]) -> tuple[float, float]:
    """Median of `value(piece_times)` over the units, scaled and raw."""
    return (_median([value(u["scaled"]) for u in units]),
            _median([value(u["raw"]) for u in units]))


def bilou_failures(sentences, predicted) -> list[str]:
    if len(predicted) != len(sentences):
        return [f"{len(predicted)} tag sequences for {len(sentences)} sentences"]
    out = []
    for i, (s, tags) in enumerate(zip(sentences, predicted)):
        if len(tags) != len(s):
            out.append(f"sentence {i}: {len(tags)} tags for {len(s)} tokens")
            continue
        try:
            lexner.tags_to_mentions(tags, lexner.TagScheme.BILOU, strict=True)
        except lexner.LexnerError as exc:
            out.append(f"sentence {i}: invalid BILOU sequence {tags}: {exc}")
    return out


# ---------------------------------------------------------------------------
# features: distant corpus -> dual corpus -> skipgram -> LS table -> disk
# ---------------------------------------------------------------------------

def _load_features(files: inputs.FeaturesFiles):
    sentences = [
        lexner.Sentence.from_words(s.words, mentions=lexner.tags_to_mentions(s.tags))
        for s in corpus.load_column_file(files.corpus)
    ]
    return sentences, inputs.read_words(files.vocab)


def _features_unit(state, work: Path, tally: Tally, probe: SpeedProbe | None = None,
                   tracer: Tracer | None = None) -> dict:
    sentences, vocab, w = state
    out_path = work / "ls_out.bin"
    seg = Segments(probe, PROBE_CALLS)
    lines = list(corpus.build_dual_corpus(sentences, w.inventory))
    table = embed.train_skipgram(lines, lexner.EmbedConfig(**inputs.EMBED))
    seg.mark("embed")
    ls = lexsim.build_ls_table(vocab, table, w.inventory)
    lexsim.save_ls_table(ls, out_path)
    seg.mark("ls")

    _checking(tracer)
    failures = []
    loaded = lexsim.load_ls_table(out_path)
    if loaded.content_hash() != ls.content_hash():
        failures.append("LS table content hash changed across save/load")
    words = list(dict.fromkeys(v.lower() for v in vocab))
    if len(loaded) != len(words):
        failures.append(f"LS table holds {len(loaded)} entries for {len(words)} words")
    vecs = np.stack([loaded.vector(v) for v in words])
    if not (np.all(np.isfinite(vecs)) and vecs.min() >= -1.0 and vecs.max() <= 1.0):
        failures.append("LS entries outside [-1, +1]")
    labels = list(loaded.inventory)

    def top1(gold: dict[str, str]) -> float:
        return sum(labels[int(np.argmax(loaded.vector(x)))] == t for x, t in gold.items()) / len(gold)

    planted, variant = top1(w.all_planted()), top1(w.all_variants())
    if planted < 0.90:
        failures.append(f"planted top-1 {planted:.3f} < 0.90")
    if variant < 0.80:
        failures.append(f"variant top-1 {variant:.3f} < 0.80")
    tally.op(failures)
    return {"segments": seg, "unit_s": sum(seg.raw().values()),
            "planted": planted, "variant": variant}


def run_features(root: Path, work: Path, seed: int, seconds: float, tracer: Tracer | None,
                 tally: Tally, probe: SpeedProbe) -> Outcome:
    files = inputs.features_inputs(work, seed)
    w = inputs.world()
    loaded, setup_s, setup_raw = timed_setup(lambda: _load_features(files), probe)
    state = (*loaded, w)
    props = files.props
    dual_work = props["dual_tokens"] * props["embed_epochs"]
    words = len(set(v.lower() for v in state[1]))

    if tracer is not None:
        return _traced(tracer, lambda: _load_features(files),
                       lambda t=None: _features_unit(state, work, tally, tracer=t), props, "unit_s")

    units = probed_units(probe, tally, lambda k: _features_unit(state, work, tally, probe),
                         seconds, "unit_s")
    planted = units[0]["planted"] if units else 0.0
    variant = units[0]["variant"] if units else 0.0
    named = {
        "setup_s": (setup_s, setup_raw, "s"),
        "embed_tokens_per_s": (*_scaled(units, lambda t: dual_work / t["embed"]), "1/s"),
        "ls_words_per_s": (*_scaled(units, lambda t: words / t["ls"]), "1/s"),
        "feature_build_ms_p50": (*_scaled(units, lambda t: (t["embed"] + t["ls"]) * 1000), "ms"),
        "planted_top1": (planted, planted, "frac"),
        "variant_top1": (variant, variant, "frac"),
        "variant_top1_pct": (100.0 * variant, 100.0 * variant, "%"),
    }
    return _outcome(named, {"setup_s": "setup_s", "work_per_s": "embed_tokens_per_s",
                            "aux_per_s": "ls_words_per_s", "latency_ms_p50": "feature_build_ms_p50",
                            "quality_pct": "variant_top1_pct"},
                    {**props, "units": len(units),
                     "unit_seconds": [round(u["unit_s"], 4) for u in units],
                     "unit_seconds_scaled": [round(sum(u["scaled"].values()), 4) for u in units]})


# ---------------------------------------------------------------------------
# train: fit the BiLSTM-CRF for a fixed number of epochs
# ---------------------------------------------------------------------------

def _load_train(files: inputs.TrainFiles):
    return (corpus.load_column_file(files.train), corpus.load_column_file(files.dev),
            corpus.load_column_file(files.test), embed.load_embeddings(files.embeddings),
            lexsim.load_ls_table(files.ls_table))


def _train_unit(state, fit_seed: int, tally: Tally, probe: SpeedProbe | None = None,
                tracer: Tracer | None = None) -> dict:
    train_set, dev_set, test_set, table, ls = state
    config = inputs.tagger_config(fit_seed, inputs.TRAIN_EPOCHS)
    seg = Segments(probe, EPOCH_PROBE_CALLS)
    # train() reports after every epoch: a probe there keeps the scale close
    # to each epoch's own machine speed
    model, history = train_mod.train(train_set, dev_set, config, pretrained=table, ls_table=ls,
                                     progress=lambda msg: seg.mark("fit"))
    seg.mark("fit")
    predicted = model.tag_batch(test_set)
    seg.mark("test")
    _checking(tracer)
    failures = bilou_failures(test_set, predicted)
    if len(history) != inputs.TRAIN_EPOCHS:
        failures.append(f"fit ran {len(history)} epochs, expected {inputs.TRAIN_EPOCHS}")
    f1 = evaluation.evaluate(test_set, predicted).f1
    tally.op(failures)
    raw = seg.raw()
    return {"segments": seg, "fit_s": raw["fit"], "f1": f1}


def run_train(root: Path, work: Path, seed: int, seconds: float, tracer: Tracer | None,
              tally: Tally, probe: SpeedProbe) -> Outcome:
    files = inputs.train_inputs(root, work, seed)
    state, setup_s, setup_raw = timed_setup(lambda: _load_train(files), probe)
    props = files.props
    fit_work = props["train_sentences"] * inputs.TRAIN_EPOCHS

    if tracer is not None:
        return _traced(tracer, lambda: _load_train(files),
                       lambda t=None: _train_unit(state, 0, tally, tracer=t), props, "fit_s")

    # a fixed minimum of fits, so quality_pct always averages the same seeds
    units = probed_units(probe, tally, lambda k: _train_unit(state, k, tally, probe),
                         seconds, "fit_s", MIN_FITS)
    test_tokens = props["test_tokens"] * len(units)
    f1 = statistics.fmean(u["f1"] for u in units[:MIN_FITS]) if units else 0.0
    named = {
        "setup_s": (setup_s, setup_raw, "s"),
        "train_sentences_per_s": (*_scaled(units, lambda t: fit_work / t["fit"]), "1/s"),
        # pooled over fits: one test pass is too short to time alone
        "test_tag_tokens_per_s": tuple(
            test_tokens / max(1e-12, sum(u[kind]["test"] for u in units))
            for kind in ("scaled", "raw")) + ("1/s",),
        "fit_ms_p50": (*_scaled(units, lambda t: t["fit"] * 1000), "ms"),
        "test_f1": (f1, f1, "%"),
    }
    return _outcome(named, {"setup_s": "setup_s", "work_per_s": "train_sentences_per_s",
                            "aux_per_s": "test_tag_tokens_per_s", "latency_ms_p50": "fit_ms_p50",
                            "quality_pct": "test_f1"},
                    {**props, "fits": len(units),
                     "fit_seconds": [round(u["fit_s"], 4) for u in units],
                     "fit_seconds_scaled": [round(u["scaled"]["fit"], 4) for u in units],
                     "fit_test_f1": [round(u["f1"], 3) for u in units]})


# ---------------------------------------------------------------------------
# tag: one closed-loop caller sends tag_batch requests of 1..64 sentences
# ---------------------------------------------------------------------------

class _Requests:
    """Cuts the sentence stream into requests and records what was served."""

    def __init__(self, stream: inputs.SentenceStream, head: list):
        self.stream = stream
        self.queue = list(head)
        self.gold: list = []
        self.pred: list = []

    def take(self, n: int) -> list:
        while len(self.queue) < n:
            self.queue.extend(self.stream.next_chunk())
        batch, self.queue = self.queue[:n], self.queue[n:]
        return batch


def _serve(model, requests: _Requests, sizes: list[int], tally: Tally) -> tuple[list, list]:
    """Send one request per size; return (latencies in s, tokens per request)."""
    latencies, tokens = [], []
    for n in sizes:
        batch = requests.take(n)
        t0 = time.perf_counter()
        tags = model.tag_batch(batch)
        dt = time.perf_counter() - t0
        tally.op(bilou_failures(batch, tags))
        latencies.append(dt)
        tokens.append(sum(len(s) for s in batch))
        requests.gold.extend(batch)
        requests.pred.extend(tags)
    return latencies, tokens


def _load_tag(ckpt: Path, ls_path: Path, head_path: Path):
    ls = lexsim.load_ls_table(ls_path)
    return model_mod.load_checkpoint(ckpt, ls), ls, corpus.load_column_file(head_path)


def run_tag(root: Path, work: Path, seed: int, seconds: float, tracer: Tracer | None,
            tally: Tally, probe: SpeedProbe) -> Outcome:
    ckpt, ls_path = inputs.served_model(root)
    ls_words = set(lexsim.load_ls_table(ls_path).entries)
    stream = inputs.SentenceStream(seed, ls_words)
    work.mkdir(parents=True, exist_ok=True)
    head_path = work / "stream_head.conll"
    inputs.write_column_file(head_path, stream.next_chunk())
    (model, _, head), setup_s, setup_raw = timed_setup(
        lambda: _load_tag(ckpt, ls_path, head_path), probe)
    requests = _Requests(stream, head)

    if tracer is not None:
        sizes = inputs.request_sizes(seed, TRACE_REQUESTS)
        return _traced(tracer, lambda: _load_tag(ckpt, ls_path, head_path),
                       lambda t=None: {"s": sum(_serve(model, requests, sizes, tally)[0])},
                       stream.props(), "s")

    latencies, scales, tokens = [], [], []
    block = 0
    before = probe.measure(TAG_PROBE_CALLS)
    deadline = wall_limit(seconds)
    while ((sum(latencies) < seconds or len(latencies) < MIN_LATENCY_SAMPLES)
           and time.perf_counter() < deadline):
        sizes = inputs.request_sizes(seed * 1000 + block, TAG_BLOCK)
        block += 1
        lat, tok = _serve(model, requests, sizes, tally)
        after = probe.measure(TAG_PROBE_CALLS)
        scales += [probe.factor(before, after)] * len(lat)
        before = after
        latencies += lat
        tokens += tok

    sample = head[: min(len(head), len(requests.pred))]
    bulk = model.tag_batch(sample)
    tally.op([] if bulk == requests.pred[: len(sample)]
             else ["grouped requests and one bulk call disagree on the fixed sample"])
    f1 = evaluation.evaluate(requests.gold, requests.pred).f1

    def stats(scaled: list[float]) -> dict[str, float]:
        ms = sorted(x * 1000 for x in scaled)
        return {"tok": sum(tokens) / sum(scaled), "req": len(scaled) / sum(scaled),
                "p50": _median(ms), "p95": float(np.percentile(ms, 95))}

    sc = stats([x * f for x, f in zip(latencies, scales)])
    raw = stats(latencies)
    named = {
        "setup_s": (setup_s, setup_raw, "s"),
        "tag_tokens_per_s": (sc["tok"], raw["tok"], "1/s"),
        "tag_requests_per_s": (sc["req"], raw["req"], "1/s"),
        "tag_latency_ms_p50": (sc["p50"], raw["p50"], "ms"),
        "tag_latency_ms_p95": (sc["p95"], raw["p95"], "ms"),
        "test_f1": (f1, f1, "%"),
    }
    return _outcome(named, {"setup_s": "setup_s", "work_per_s": "tag_tokens_per_s",
                            "aux_per_s": "tag_requests_per_s",
                            "latency_ms_p50": "tag_latency_ms_p50", "quality_pct": "test_f1"},
                    {**stream.props(), "requests": len(latencies),
                     "requests_beyond_p95": sum(x * 1000 > raw["p95"] for x in latencies),
                     "sentences_tagged": len(requests.gold), "tokens_tagged": sum(tokens),
                     "request_size_max": inputs.MAX_REQUEST, "callers": 1, "loop": "closed"})


WORKLOADS = {"features": run_features, "train": run_train, "tag": run_tag}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _traced(tracer: Tracer, setup: Callable[[], object], unit: Callable[..., dict],
            props: dict, time_key: str) -> Outcome:
    """Run the unit of work untraced, traced, and untraced again.

    The overhead compares the traced unit with the faster untraced one, so
    a first unit slowed by warm-up does not hide the tracer's cost.
    """
    before = unit()
    tracer.install(default_targets(char_width=inputs.TAGGER["char_emb_dim"]))
    try:
        tracer.begin_run("setup")
        setup()
        tracer.begin_run("work")
        traced = unit(tracer)
    finally:
        tracer.uninstall()
    after = unit()
    plain = min(before[time_key], after[time_key])
    return Outcome(e2e={}, named={}, props=props,
                   layers=layer_metrics(tracer, traced[time_key] / plain - 1.0))


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    setup = tracer.summary("setup")
    work = tracer.summary("work")
    counts = work.counts
    vec_calls = counts["lexsim.LSTable.vector.calls"]

    def pad(label: str) -> float:
        padded = counts[f"tagger.lstm.{label}.padded"]
        return counts[f"tagger.lstm.{label}.real"] / padded if padded else 0.0

    return {
        "corpus.build_dual_corpus.s": work.total["corpus.build_dual_corpus"],
        "corpus.load_column_file.s": setup.total["corpus.load_column_file"],
        "embed.train_skipgram.self_s": work.self_time["embed.train_skipgram"],
        "embed.negative_sampling_loss.calls": work.calls["embed.negative_sampling_loss"],
        "embed.negative_sampling_loss.s": work.total["embed.negative_sampling_loss"],
        "embed.EmbeddingTable.word_vector.calls": work.calls["embed.EmbeddingTable.word_vector"],
        "embed.EmbeddingTable.word_vector.s": work.total["embed.EmbeddingTable.word_vector"],
        "embed.load_embeddings.s": setup.total["embed.load_embeddings"],
        "lexsim.build_ls_table.self_s": work.self_time["lexsim.build_ls_table"],
        "lexsim.save_ls_table.s": work.total["lexsim.save_ls_table"],
        "lexsim.load_ls_table.s": setup.total["lexsim.load_ls_table"],
        "lexsim.LSTable.vector.calls": vec_calls,
        "lexsim.LSTable.vector.hit_frac":
            counts["lexsim.LSTable.vector.hits"] / vec_calls if vec_calls else 0.0,
        "tagger.model.nll_and_gradients.self_s": work.self_time["tagger.model.nll_and_gradients"],
        "tagger.model.emissions.self_s": work.self_time["tagger.model.emissions"],
        "tagger.model.tag_batch.self_s": work.self_time["tagger.model.tag_batch"],
        "tagger.model.load_checkpoint.s": setup.total["tagger.model.load_checkpoint"],
        "tagger.lstm.forward.char.s": work.total["tagger.lstm.forward.char"],
        "tagger.lstm.forward.word.s": work.total["tagger.lstm.forward.word"],
        "tagger.lstm.backward.char.s": work.total["tagger.lstm.backward.char"],
        "tagger.lstm.backward.word.s": work.total["tagger.lstm.backward.word"],
        "tagger.lstm.backward.calls": work.calls_with_prefix("tagger.lstm.backward."),
        "tagger.lstm.char.pad_efficiency": pad("char"),
        "tagger.lstm.word.pad_efficiency": pad("word"),
        "tagger.crf.crf_nll_and_grad.calls": work.calls["tagger.crf.crf_nll_and_grad"],
        "tagger.crf.crf_nll_and_grad.s": work.total["tagger.crf.crf_nll_and_grad"],
        "tagger.crf.viterbi_decode.calls": work.calls["tagger.crf.viterbi_decode"],
        "tagger.crf.viterbi_decode.s": work.total["tagger.crf.viterbi_decode"],
        "tagger.train.sgd_step.calls": work.calls["tagger.train.sgd_step"],
        "tagger.train.sgd_step.s": work.total["tagger.train.sgd_step"],
        "tagger.train.dev_eval.s": work.dev_eval,
        "tagger.spans": work.calls_with_prefix("tagger."),
        "evaluation.evaluate.s": work.total["evaluation.evaluate"],
        "trace.spans": sum(work.calls.values()) + sum(setup.calls.values()),
        "trace.absent_targets": len(tracer.absent),
        "trace.overhead_frac": overhead,
    }


def split_failures(workload: str, layers: dict[str, float]) -> list[str]:
    """The traced run's check that each workload runs only its own layers."""
    must_be_zero = {
        "features": ["tagger.spans"],
        "train": ["embed.negative_sampling_loss.calls"],
        "tag": ["embed.negative_sampling_loss.calls", "tagger.lstm.backward.calls",
                "tagger.crf.crf_nll_and_grad.calls", "tagger.train.sgd_step.calls"],
    }[workload]
    return [f"{workload}: {name} = {layers[name]}, expected 0"
            for name in must_be_zero if layers[name] != 0]
