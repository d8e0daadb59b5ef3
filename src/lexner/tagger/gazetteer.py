"""Binary gazetteer-membership features, the classic baseline the LS block
is measured against. Each named list contributes one bit per token: 1 iff
the token sits inside any n-gram of the sentence that matches a list entry.
Entries longer than `MAX_N` words are dropped.
"""
from __future__ import annotations

import numpy as np

from ..corpus import Sentence

MAX_N = 4


class Gazetteer:
    """Named word-n-gram lists with case-insensitive matching."""

    def __init__(self, lists: dict[str, list[str]]):
        self.names = sorted(lists)
        self.entries: dict[str, set[tuple[str, ...]]] = {}
        for name in self.names:
            entryset = set()
            for entry in lists[name]:
                toks = tuple(t.lower() for t in entry.split())
                if toks and len(toks) <= MAX_N:
                    entryset.add(toks)
            self.entries[name] = entryset

    def __len__(self) -> int:
        return len(self.names)


def gazetteer_features(sentence: Sentence, gazetteer: Gazetteer) -> np.ndarray:
    """Per-token bit vector, one column per list, as float64 (T, lists)."""
    words = [w.lower() for w in sentence.words]
    T = len(words)
    out = np.zeros((T, len(gazetteer.names)))
    for col, name in enumerate(gazetteer.names):
        entryset = gazetteer.entries[name]
        if not entryset:
            continue
        for n in range(1, MAX_N + 1):
            for start in range(0, T - n + 1):
                if tuple(words[start : start + n]) in entryset:
                    out[start : start + n, col] = 1.0
    return out
