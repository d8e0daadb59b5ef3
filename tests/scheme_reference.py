"""The per-scheme tag codecs and the hand-written CRF mask: the oracles for
`corpus.tags_to_mentions`, `corpus.mentions_to_tags` and
`crf.bilou_allowed_transitions`.

`reference_tags_to_mentions` decodes tags as the corpus module did before one
rule served every scheme: it hand-codes one state machine each for BILOU,
IOB2 and IOB1, with the same open/close bookkeeping in each. Tests require
the decoder to give the same mentions, or the same exception class,
position and message, on any input.

`reference_mentions_to_tags` encodes with one branch per scheme, and
`reference_bilou_allowed_transitions` builds the transition mask from its
own tag parser and prefix sets, as both did before the grammar was stated
once in the corpus module. Tests require equal tags and equal mask bytes.
"""
from typing import Sequence

import numpy as np

from lexner.corpus import Mention, TagScheme, split_tag
from lexner.errors import DataError, SchemeError


def reference_tags_to_mentions(
    tags: Sequence[str], scheme: TagScheme = TagScheme.BILOU, strict: bool = True
) -> list[Mention]:
    mentions: list[Mention] = []
    open_start: int | None = None
    open_type: str | None = None

    def close(end: int) -> None:
        nonlocal open_start, open_type
        if open_start is not None:
            mentions.append(Mention(open_start, end, open_type))
            open_start = open_type = None

    for i, tag in enumerate(tags):
        prefix, etype = split_tag(tag, scheme, i)

        if scheme is TagScheme.BILOU:
            if prefix == "O":
                if open_start is not None and strict:
                    raise SchemeError("O inside an open mention", i)
                close(i)
            elif prefix == "U":
                if open_start is not None and strict:
                    raise SchemeError("U inside an open mention", i)
                close(i)
                mentions.append(Mention(i, i + 1, etype))
            elif prefix == "B":
                if open_start is not None and strict:
                    raise SchemeError("B inside an open mention", i)
                close(i)
                open_start, open_type = i, etype
            elif prefix == "I":
                if open_start is None or open_type != etype:
                    if strict:
                        raise SchemeError(f"orphan I-{etype}", i)
                    close(i)
                    open_start, open_type = i, etype
            else:  # L
                if open_start is not None and open_type == etype:
                    close(i + 1)
                else:
                    if strict:
                        raise SchemeError(f"orphan L-{etype}", i)
                    close(i)
                    mentions.append(Mention(i, i + 1, etype))

        elif scheme is TagScheme.IOB2:
            if prefix == "O":
                close(i)
            elif prefix == "B":
                close(i)
                open_start, open_type = i, etype
            else:  # I
                if open_start is not None and open_type == etype:
                    pass
                else:
                    if strict:
                        raise SchemeError(f"orphan I-{etype}", i)
                    close(i)
                    open_start, open_type = i, etype

        else:  # IOB1
            if prefix == "O":
                close(i)
            elif prefix == "I":
                if open_start is not None and open_type == etype:
                    pass
                else:
                    close(i)
                    open_start, open_type = i, etype
            else:  # B: legal only to split two adjacent same-type mentions
                if open_start is not None and open_type == etype:
                    close(i)
                    open_start, open_type = i, etype
                else:
                    if strict:
                        raise SchemeError(
                            f"B-{etype} without preceding {etype} mention", i
                        )
                    close(i)
                    open_start, open_type = i, etype

    if open_start is not None:
        if scheme is TagScheme.BILOU and strict:
            raise SchemeError("mention not closed at sentence end", len(tags) - 1)
        close(len(tags))
    return mentions


def reference_mentions_to_tags(
    mentions: Sequence[Mention], length: int, scheme: TagScheme = TagScheme.BILOU
) -> list[str]:
    ordered = sorted(mentions)
    prev: Mention | None = None
    for m in ordered:
        if m.end > length:
            raise DataError(f"mention ({m.start}, {m.end}) exceeds length {length}")
        if prev is not None and m.start < prev.end:
            raise DataError(
                f"overlapping mentions ({prev.start}, {prev.end}) and ({m.start}, {m.end})"
            )
        prev = m

    tags = ["O"] * length
    prev = None
    for m in ordered:
        if scheme is TagScheme.BILOU:
            if m.length == 1:
                tags[m.start] = f"U-{m.etype}"
            else:
                tags[m.start] = f"B-{m.etype}"
                for i in range(m.start + 1, m.end - 1):
                    tags[i] = f"I-{m.etype}"
                tags[m.end - 1] = f"L-{m.etype}"
        elif scheme is TagScheme.IOB2:
            tags[m.start] = f"B-{m.etype}"
            for i in range(m.start + 1, m.end):
                tags[i] = f"I-{m.etype}"
        else:  # IOB1
            adjacent_same = prev is not None and prev.end == m.start and prev.etype == m.etype
            tags[m.start] = f"B-{m.etype}" if adjacent_same else f"I-{m.etype}"
            for i in range(m.start + 1, m.end):
                tags[i] = f"I-{m.etype}"
        prev = m
    return tags


def reference_bilou_allowed_transitions(tags: list[str]) -> np.ndarray:
    """START behaves like "outside" on the left (O, B-, U- may follow), STOP
    like "outside" on the right (only O, L-, U- may precede it)."""
    L = len(tags)
    start, stop = L, L + 1
    allowed = np.zeros((L + 2, L + 2), dtype=bool)

    def kind(tag: str) -> tuple[str, str | None]:
        if tag == "O":
            return "O", None
        return tag[:1], tag[2:]  # an empty tag has no kind

    opens = {"O", "B", "U"}  # may follow an outside-like state
    closes = {"O", "L", "U"}  # may precede an outside-like state
    for j, tj in enumerate(tags):
        kj, _ = kind(tj)
        if kj in opens:
            allowed[start, j] = True
    for i, ti in enumerate(tags):
        ki, _ = kind(ti)
        if ki in closes:
            allowed[i, stop] = True
    for i, ti in enumerate(tags):
        ki, ei = kind(ti)
        for j, tj in enumerate(tags):
            kj, ej = kind(tj)
            if ki in closes:
                allowed[i, j] = kj in opens
            else:  # open mention of type ei: must continue or close it
                allowed[i, j] = kj in {"I", "L"} and ej == ei
    return allowed
