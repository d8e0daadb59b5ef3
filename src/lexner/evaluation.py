"""Mention-level scoring with the reference chunk-evaluation semantics.

A predicted mention counts iff both its span and its type exactly match a
gold mention. Gold tags must be strictly valid; predicted tags are repaired
leniently (an orphan continuation opens a new mention), mirroring how the
classic evaluation script treats model output.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .corpus import Mention, Sentence, TagScheme, tags_to_mentions
from .errors import DataError


@dataclass
class TypeScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def found(self) -> int:
        return self.tp + self.fp

    @property
    def gold(self) -> int:
        return self.tp + self.fn

    @property
    def precision(self) -> float:
        return 100.0 * self.tp / self.found if self.found else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.tp / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


@dataclass
class EvalReport(TypeScore):
    tokens: int = 0
    correct_tokens: int = 0
    per_type: dict[str, TypeScore] = field(default_factory=dict)
    per_group: dict[str, "EvalReport"] | None = None

    @property
    def accuracy(self) -> float:
        return 100.0 * self.correct_tokens / self.tokens if self.tokens else 0.0

    def text(self) -> str:
        """Report in the reference script's layout, two decimals."""
        lines = [
            "processed %d tokens with %d phrases; found: %d phrases; correct: %d."
            % (self.tokens, self.gold, self.found, self.tp),
            "accuracy: %6.2f%%; precision: %6.2f%%; recall: %6.2f%%; FB1: %6.2f"
            % (self.accuracy, self.precision, self.recall, self.f1),
        ]
        width = max((len(t) for t in self.per_type), default=0)
        for etype in sorted(self.per_type):
            s = self.per_type[etype]
            lines.append(
                "%*s: precision: %6.2f%%; recall: %6.2f%%; FB1: %6.2f  %d"
                % (width + 9, etype, s.precision, s.recall, s.f1, s.found)
            )
        return "\n".join(lines)

    def machine(self) -> str:
        """Flat key-value rendering for scripts."""
        rows = [
            ("tokens", self.tokens),
            ("gold_phrases", self.gold),
            ("found_phrases", self.found),
            ("correct_phrases", self.tp),
            ("accuracy", f"{self.accuracy:.6f}"),
            ("precision", f"{self.precision:.6f}"),
            ("recall", f"{self.recall:.6f}"),
            ("f1", f"{self.f1:.6f}"),
        ]
        for etype in sorted(self.per_type):
            s = self.per_type[etype]
            rows += [
                (f"type.{etype}.precision", f"{s.precision:.6f}"),
                (f"type.{etype}.recall", f"{s.recall:.6f}"),
                (f"type.{etype}.f1", f"{s.f1:.6f}"),
                (f"type.{etype}.found", s.found),
                (f"type.{etype}.gold", s.gold),
            ]
        return "\n".join(f"{k} = {v}" for k, v in rows)


def _pred_tags(pred, index: int, n_tokens: int) -> Sequence[str]:
    if isinstance(pred, Sentence):
        if pred.tags is None:
            raise DataError(f"prediction sentence {index} has no tags")
        tags = pred.tags
    else:
        tags = list(pred)
    if len(tags) != n_tokens:
        raise DataError(
            f"sentence {index}: {len(tags)} predicted tags for {n_tokens} tokens"
        )
    return tags


def _gold_mentions(sentence: Sentence, index: int, scheme: TagScheme) -> list[Mention]:
    if sentence.mentions is not None:
        return sorted(sentence.mentions)
    if sentence.tags is None:
        raise DataError(f"gold sentence {index} has neither tags nor mentions")
    return tags_to_mentions(sentence.tags, scheme, strict=True)


def evaluate(
    gold: Sequence[Sentence],
    pred: Sequence[Sentence | Sequence[str]],
    scheme: TagScheme = TagScheme.BILOU,
) -> EvalReport:
    """Micro-averaged exact-match mention scores over aligned sentences.

    `pred` items may be Sentence objects carrying tags or bare tag lists.
    """
    if len(gold) != len(pred):
        raise DataError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    report = EvalReport()
    for i, gs in enumerate(gold):
        ptags = _pred_tags(pred[i], i, len(gs))
        gm = set(_gold_mentions(gs, i, scheme))
        pm = set(tags_to_mentions(ptags, scheme, strict=False))

        report.tokens += len(gs)
        if gs.tags is not None:
            report.correct_tokens += sum(
                1 for a, b in zip(gs.tags, ptags) if a == b
            )

        for m in pm:
            slot = report.per_type.setdefault(m.etype, TypeScore())
            if m in gm:
                report.tp += 1
                slot.tp += 1
            else:
                report.fp += 1
                slot.fp += 1
        for m in gm - pm:
            report.fn += 1
            report.per_type.setdefault(m.etype, TypeScore()).fn += 1
    return report


def evaluate_by_group(
    gold: Sequence[Sentence],
    pred: Sequence[Sentence | Sequence[str]],
    group_of: Callable[[Sentence], str],
    scheme: TagScheme = TagScheme.BILOU,
) -> EvalReport:
    """Overall report plus one sub-report per group label."""
    overall = evaluate(gold, pred, scheme)
    buckets: dict[str, tuple[list[Sentence], list]] = {}
    for gs, ps in zip(gold, pred):
        g, p = buckets.setdefault(str(group_of(gs)), ([], []))
        g.append(gs)
        p.append(ps)
    overall.per_group = {
        name: evaluate(g, p, scheme) for name, (g, p) in sorted(buckets.items())
    }
    return overall
