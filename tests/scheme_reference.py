"""The per-scheme tag decoder: the oracle for `corpus.tags_to_mentions`.

`reference_tags_to_mentions` decodes tags as the corpus module did before one
rule served every scheme: it hand-codes one state machine each for BILOU,
IOB2 and IOB1, with the same open/close bookkeeping in each. Tests require
the decoder to give the same mentions, or the same exception class,
position and message, on any input.
"""
from typing import Sequence

from lexner.corpus import Mention, TagScheme, split_tag
from lexner.errors import SchemeError


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
