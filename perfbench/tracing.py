"""In-memory span tracing of lexner's layers, installed from outside.

The tracer wraps public functions and methods at the names their callers
look them up, records one span per call (name, start, end, parent span,
run id) and keeps them in memory until the run writes them out. Nothing in
`src/` knows about it: a function that a later commit renames or removes is
reported as absent, never as a crash.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrap site: `module` is imported, `attr` may be `Class.method`."""

    span: str
    module: str
    attr: str
    namer: Callable[..., str] | None = None   # per-call span name from the arguments
    materialize: bool = False                 # drain a returned generator inside the span
    count_only: bool = False                  # count calls and hits, record no span


def _lstm_namer(kind: str, char_width: int) -> Callable[..., str]:
    """Label an LSTM call `char` or `word` from the width of its input."""

    def name(args, kwargs) -> str:
        try:
            if kind == "forward":
                x = kwargs.get("x", args[1] if len(args) > 1 else None)
                width = x.shape[-1]
            else:
                width = args[0]["wx"].shape[0]
        except (AttributeError, IndexError, KeyError, TypeError):
            return f"tagger.lstm.{kind}.other"
        return f"tagger.lstm.{kind}.{'char' if width == char_width else 'word'}"

    return name


def default_targets(char_width: int) -> list[Target]:
    """Every layer boundary the benchmark reports on.

    Module functions are listed where they are defined; `Tracer.install`
    rebinds every lexner module global that refers to the same object, so
    callers such as `lexner.tagger.model.lstm_forward` or
    `lexner.tagger.train.evaluate` see the wrapper too.
    """
    return [
        Target("corpus.build_dual_corpus", "lexner.corpus", "build_dual_corpus", materialize=True),
        Target("corpus.load_column_file", "lexner.corpus", "load_column_file"),
        Target("embed.train_skipgram", "lexner.embed", "train_skipgram"),
        Target("embed.negative_sampling_loss", "lexner.embed", "negative_sampling_loss"),
        Target("embed.EmbeddingTable.word_vector", "lexner.embed", "EmbeddingTable.word_vector"),
        Target("embed.load_embeddings", "lexner.embed", "load_embeddings"),
        Target("lexsim.build_ls_table", "lexner.lexsim", "build_ls_table"),
        Target("lexsim.save_ls_table", "lexner.lexsim", "save_ls_table"),
        Target("lexsim.load_ls_table", "lexner.lexsim", "load_ls_table"),
        Target("lexsim.LSTable.vector", "lexner.lexsim", "LSTable.vector", count_only=True),
        Target("tagger.model.nll_and_gradients", "lexner.tagger.model", "TaggerModel.nll_and_gradients"),
        Target("tagger.model.emissions", "lexner.tagger.model", "TaggerModel.emissions"),
        Target("tagger.model.tag_batch", "lexner.tagger.model", "TaggerModel.tag_batch"),
        Target("tagger.model.load_checkpoint", "lexner.tagger.model", "load_checkpoint"),
        Target("tagger.lstm.forward", "lexner.tagger.lstm", "lstm_forward",
               namer=_lstm_namer("forward", char_width)),
        Target("tagger.lstm.backward", "lexner.tagger.lstm", "lstm_backward",
               namer=_lstm_namer("backward", char_width)),
        Target("tagger.crf.crf_nll_and_grad", "lexner.tagger.crf", "crf_nll_and_grad"),
        Target("tagger.crf.viterbi_decode", "lexner.tagger.crf", "viterbi_decode"),
        Target("tagger.train.sgd_step", "lexner.tagger.train", "sgd_step"),
        Target("tagger.train.train", "lexner.tagger.train", "train"),
        Target("evaluation.evaluate", "lexner.evaluation", "evaluate"),
    ]


def _lexner_modules() -> list[types.ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lexner" or name.startswith("lexner."))]


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Spans are lists `[name, start, end, parent_index, run]`; `run` is the
    label set with `begin_run`, so the set-up repetition and the timed unit
    of work can be told apart.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, Counter[str]] = {}
        self.absent: list[str] = []
        self.run = "none"
        self.begin_run(self.run)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin_run(self, run: str) -> None:
        self.run = run
        self.counts.setdefault(run, Counter())

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        if target.count_only:
            calls, hits = f"{target.span}.calls", f"{target.span}.hits"

            def counted(obj, word, *args, **kwargs):
                counts = tracer.counts[tracer.run]
                counts[calls] += 1
                if word in obj:
                    counts[hits] += 1
                return fn(obj, word, *args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.span
            if name.startswith("tagger.lstm."):
                _count_padding(tracer.counts[tracer.run], name, args, kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if target.materialize and isinstance(out, types.GeneratorType):
                    out = list(out)
                return out
            finally:
                tracer.close(idx)

        return traced

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.span)
                continue
            owner_name, _, meth = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = None if owner is None else owner.__dict__.get(meth)
                if not callable(fn):
                    self.absent.append(target.span)
                    continue
                self._set(owner, meth, self._wrapper(target, fn))
                continue
            fn = getattr(module, target.attr, None)
            if not callable(fn):
                self.absent.append(target.span)
                continue
            wrapped = self._wrapper(target, fn)
            for mod in _lexner_modules():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapped)

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reporting ----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def summary(self, run: str) -> "SpanSummary":
        return SpanSummary(self, run)


def _count_padding(counts: Counter, name: str, args, kwargs) -> None:
    """Real and padded positions of an LSTM call, read from its mask."""
    if ".forward." not in name:
        return
    label = name.rsplit(".", 1)[1]
    mask = kwargs.get("mask", args[2] if len(args) > 2 else None)
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    try:
        padded = int(mask.size) if mask is not None else int(x.shape[0] * x.shape[1])
        real = float(mask.sum()) if mask is not None else padded
    except AttributeError:
        return
    counts[f"tagger.lstm.{label}.real"] += real
    counts[f"tagger.lstm.{label}.padded"] += padded


class SpanSummary:
    """Totals, self times and counts over the spans of one run label."""

    def __init__(self, tracer: Tracer, run: str):
        spans = tracer.spans
        self.counts = tracer.counts.get(run, Counter())
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        child_time = [0.0] * len(spans)
        for name, start, end, parent, span_run in spans:
            if span_run == run and parent >= 0:
                child_time[parent] += end - start
        self.dev_eval = 0.0
        for i, (name, start, end, parent, span_run) in enumerate(spans):
            if span_run != run:
                continue
            dur = end - start
            self.total[name] += dur
            self.self_time[name] += dur - child_time[i]
            self.calls[name] += 1
            if parent >= 0 and spans[parent][0] == "tagger.train.train" and name in (
                "tagger.model.tag_batch", "evaluation.evaluate"
            ):
                self.dev_eval += dur

    def calls_with_prefix(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))
