"""Column-format NER data, tag schemes, mentions, and the dual-view corpus.

All functions here are pure; sentences are cheap immutable-ish records that
can be processed in parallel batches without shared state.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, FormatError, ParseError, SchemeError

DOCSTART = "-DOCSTART-"

_TYPE_LABEL_RE = re.compile(r"/[^/\s]+(/[^/\s]+)?")


@dataclass(frozen=True)
class Token:
    """A single whitespace-free surface token."""

    surface: str

    def __post_init__(self):
        # str.split breaks at exactly the characters str.isspace accepts
        if self.surface.split() != [self.surface]:
            raise DataError(f"invalid token surface: {self.surface!r}")

    @property
    def lower(self) -> str:
        return self.surface.lower()

    def __str__(self) -> str:
        return self.surface


def _trusted_tokens(words: Iterable[str]) -> list[Token]:
    """Tokens of surfaces already known to be valid, built without `Token`'s
    per-token check."""
    tokens = []
    for w in words:
        t = object.__new__(Token)
        object.__setattr__(t, "surface", w)  # as the frozen __init__ does
        tokens.append(t)
    return tokens


@dataclass(frozen=True, order=True)
class Mention:
    """Typed token span [start, end) within one sentence."""

    start: int
    end: int
    etype: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise DataError(f"invalid mention span ({self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class Sentence:
    """Tokenized sentence with optional gold mentions and/or a tag sequence.

    When both tags and mentions are present the caller is responsible for
    keeping them consistent; parsing and decoding paths in this module always
    populate exactly one of the two.
    """

    tokens: list[Token]
    mentions: list[Mention] | None = None
    tags: list[str] | None = None
    doc_index: int = 0

    def __post_init__(self):
        if self.tags is not None and len(self.tags) != len(self.tokens):
            raise DataError(
                f"tag count {len(self.tags)} != token count {len(self.tokens)}"
            )

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def words(self) -> list[str]:
        return [t.surface for t in self.tokens]

    @classmethod
    def from_words(
        cls,
        words: Sequence[str],
        tags: Sequence[str] | None = None,
        mentions: Sequence[Mention] | None = None,
        doc_index: int = 0,
    ) -> "Sentence":
        words = list(words)
        if " ".join(words).split() == words:  # no word is empty or holds whitespace
            tokens = _trusted_tokens(words)
        else:
            tokens = [Token(w) for w in words]  # raises at the first bad surface
        return cls(
            tokens=tokens,
            tags=list(tags) if tags is not None else None,
            mentions=list(mentions) if mentions is not None else None,
            doc_index=doc_index,
        )

    def with_tags(self, tags: Sequence[str]) -> "Sentence":
        return replace(self, tags=list(tags), mentions=None)


class TagScheme(str, Enum):
    IOB1 = "iob1"
    IOB2 = "iob2"
    BILOU = "bilou"

    @classmethod
    def parse(cls, name: str) -> "TagScheme":
        try:
            return cls(name.lower())
        except ValueError:
            raise DataError(f"unknown tag scheme: {name!r}") from None


class CapClass(IntEnum):
    """Coarse orthographic shape of a token; ids are stable."""

    ALL_UPPER = 0
    ALL_LOWER = 1
    UPPER_FIRST = 2
    UPPER_NOT_FIRST = 3
    NUMERIC = 4
    NO_ALPHANUM = 5


class TypeInventory:
    """Ordered set of entity-type labels; line order fixes feature dimensions.

    Labels look like "/person" or "/person/musician" (one or two levels).
    The position of a label in the inventory is its feature dimension and
    must never change once similarity tables have been built against it.
    """

    def __init__(self, labels: Sequence[str]):
        labels = list(labels)
        seen: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not _TYPE_LABEL_RE.fullmatch(label):
                raise DataError(f"malformed type label: {label!r}")
            if label in seen:
                raise DataError(f"duplicate type label: {label!r}")
            seen[label] = i
        if not labels:
            raise DataError("type inventory is empty")
        self.labels: tuple[str, ...] = tuple(labels)
        self.index: dict[str, int] = seen

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, TypeInventory) and self.labels == other.labels

    @classmethod
    def load(cls, path: str | Path) -> "TypeInventory":
        return cls([ln.strip() for ln in read_lines(path) if ln.strip()])

    def save(self, path: str | Path) -> None:
        Path(path).write_text("".join(f"{l}\n" for l in self.labels), encoding="utf-8")


# ---------------------------------------------------------------------------
# Text and column format I/O
# ---------------------------------------------------------------------------

def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: str | Path) -> str:
    """A UTF-8 text file with newlines translated, as Path.read_text gives it.

    Bytes that are not UTF-8 raise FormatError naming the file, the line and
    the byte offset of the first bad byte.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = _universal_newlines(data[: e.start].decode("utf-8")).count("\n") + 1
        raise FormatError(f"{path}: line {line} is not UTF-8 text", e.start) from None
    return _universal_newlines(text)


def read_lines(path: str | Path) -> list[str]:
    """The lines of a `read_text` file. As in column files, lines end at
    newlines only, and a final newline adds no empty line."""
    text = read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


def _column_sentences(
    lines: Iterable[str], require_tags: bool = True
) -> Iterator[tuple[int, Sentence]]:
    """(line number of its first token, sentence) per sentence of column lines."""
    words: list[str] = []
    tags: list[str] = []
    doc = 0
    started = False
    first = 0
    # a blank line after the last one ends the last sentence
    for lineno, raw in enumerate(chain(lines, ("",)), start=1):
        fields = raw.split()
        if fields and fields[0] != DOCSTART:
            if not words:
                first = lineno
            words.append(fields[0])
            if len(fields) > 1:
                tags.append(fields[-1])
            elif require_tags:
                line = raw.rstrip("\n").rstrip("\r")
                raise ParseError(f"missing tag column in {line!r}", lineno)
            else:
                tags.append("O")
            started = True
            continue
        if words:
            # split fields are non-empty and hold no whitespace
            yield first, Sentence(_trusted_tokens(words), tags=tags, doc_index=doc)
            words, tags = [], []
        if fields:  # -DOCSTART-
            if started:
                doc += 1
            started = True


def iter_column_sentences(
    lines: Iterable[str], require_tags: bool = True
) -> Iterator[Sentence]:
    """Stream sentences out of column-format lines.

    Each non-blank line is `token<sep>tag` (whitespace separator, the last
    field is the tag); a blank line ends a sentence; a line whose first field
    is "-DOCSTART-" starts a new document group and is not itself emitted.
    """
    return (s for _, s in _column_sentences(lines, require_tags))


def parse_column_text(text: str, require_tags: bool = True) -> list[Sentence]:
    """Sentences of column text; lines end at "\n", "\r\n" or "\r" only."""
    return list(iter_column_sentences(_universal_newlines(text).split("\n"), require_tags))


def load_column_file(path: str | Path, require_tags: bool = True) -> list[Sentence]:
    return parse_column_text(read_text(path), require_tags)


def format_column(sentences: Iterable[Sentence], extra_tags: Sequence[Sequence[str]] | None = None) -> str:
    """Render sentences back to column format.

    With `extra_tags` (one tag list per sentence, e.g. predictions) an extra
    final column is appended to every token line.
    """
    out: list[str] = []
    prev_doc = None
    for i, s in enumerate(sentences):
        if prev_doc is not None and s.doc_index != prev_doc:
            out.append(f"{DOCSTART} O")
            out.append("")
        prev_doc = s.doc_index
        tags = s.tags if s.tags is not None else ["O"] * len(s)
        extra = None
        if extra_tags is not None:
            extra = extra_tags[i]
            if len(extra) != len(s):
                raise DataError(f"sentence {i}: {len(extra)} extra tags for {len(s)} tokens")
        for j, (tok, tag) in enumerate(zip(s.tokens, tags)):
            if extra is not None:
                out.append(f"{tok.surface} {tag} {extra[j]}")
            else:
                out.append(f"{tok.surface} {tag}")
        out.append("")
    if out and out[-1] == "":
        out.pop()
    return "\n".join(out) + ("\n" if out else "")


def write_column_file(path: str | Path, sentences: Iterable[Sentence], extra_tags=None) -> None:
    Path(path).write_text(format_column(sentences, extra_tags), encoding="utf-8")


# ---------------------------------------------------------------------------
# Tag scheme machinery
# ---------------------------------------------------------------------------

_PREFIXES = {
    TagScheme.IOB1: "IB",
    TagScheme.IOB2: "IB",
    TagScheme.BILOU: "BILU",
}


def split_tag(tag: str, scheme: TagScheme, position: int) -> tuple[str, str | None]:
    """Split "B-PER" into ("B", "PER"); "O" into ("O", None)."""
    if tag == "O":
        return "O", None
    if len(tag) < 3 or tag[1] != "-" or tag[0] not in _PREFIXES[scheme]:
        raise SchemeError(f"malformed {scheme.value} tag {tag!r}", position)
    return tag[0], tag[2:]


def _refusal(prefix: str, etype: str | None, scheme: TagScheme, open_type: str | None) -> str | None:
    """Why strict decoding refuses a tag that does not continue the open
    mention (`open_type` is None when none is open), or None if it may."""
    if scheme is TagScheme.IOB1:
        if prefix == "B" and open_type != etype:
            return f"B-{etype} without preceding {etype} mention"
    elif prefix in "IL":
        return f"orphan {prefix}-{etype}"
    elif scheme is TagScheme.BILOU and open_type is not None:
        return f"{prefix} inside an open mention"
    return None


def tags_to_mentions(
    tags: Sequence[str], scheme: TagScheme = TagScheme.BILOU, strict: bool = True
) -> list[Mention]:
    """Decode a tag sequence into its mention spans.

    One rule serves every scheme. An I or L tag of the open mention's type
    continues it, and L also closes it. Any other tag closes the open
    mention, and any tag but O opens a new one, which U and L close at once.

    Strict mode (used for gold data) raises `SchemeError` on a sequence the
    scheme does not license: in IOB1, a B with no open mention of its type;
    in IOB2 and BILOU, an I or L that does not continue; in BILOU also an O,
    B or U while a mention is open, or a mention still open at the sentence
    end. Lenient mode applies the rule as it stands, which repairs such
    sequences the way the classic chunk evaluation script does.
    """
    mentions: list[Mention] = []
    start = 0
    open_type: str | None = None  # None: no mention is open
    for i, tag in enumerate(tags):
        if tag == "O" and open_type is None:  # legal in every scheme, and changes nothing
            continue
        prefix, etype = split_tag(tag, scheme, i)
        if prefix in "IL" and etype == open_type:
            if prefix == "L":
                mentions.append(Mention(start, i + 1, etype))
                open_type = None
            continue
        if strict:
            problem = _refusal(prefix, etype, scheme, open_type)
            if problem:
                raise SchemeError(problem, i)
        if open_type is not None:
            mentions.append(Mention(start, i, open_type))
        start, open_type = i, etype
        if prefix in "UL":
            mentions.append(Mention(i, i + 1, etype))
            open_type = None
    if open_type is not None:
        if strict and scheme is TagScheme.BILOU:
            raise SchemeError("mention not closed at sentence end", len(tags) - 1)
        mentions.append(Mention(start, len(tags), open_type))
    return mentions


def bilou_grammar(tags: Sequence[str]) -> tuple[list[bool], list[list[bool]], list[bool]]:
    """Strict BILOU decoding's grammar over a tag set: which tags may open a
    sentence, which may follow each one (row i, column j: may j follow i),
    and after which a sentence may end. The next tag continues the open
    mention or is one `_refusal` lets stand; B and I leave a mention open."""
    parsed = [split_tag(tag, TagScheme.BILOU, i) for i, tag in enumerate(tags)]

    def may_follow(open_type: str | None) -> list[bool]:
        return [(prefix in "IL" and etype == open_type)
                or _refusal(prefix, etype, TagScheme.BILOU, open_type) is None
                for prefix, etype in parsed]

    left_open = [etype if prefix in "BI" else None for prefix, etype in parsed]
    rows = {open_type: may_follow(open_type) for open_type in {None, *left_open}}
    return rows[None], [rows[t] for t in left_open], [t is None for t in left_open]


def mentions_to_tags(
    mentions: Sequence[Mention], length: int, scheme: TagScheme = TagScheme.BILOU
) -> list[str]:
    """Encode non-overlapping mentions as a tag sequence of the given length,
    by one rule for every scheme: each token of a mention gets I; its first
    gets B, but in IOB1 only after a mention of its type that ends right
    there; in BILOU its last gets L, or U when it is one token long."""
    tags = ["O"] * length
    prev: Mention | None = None
    for m in sorted(mentions):
        if m.end > length:
            raise DataError(f"mention ({m.start}, {m.end}) exceeds length {length}")
        if prev is not None and m.start < prev.end:
            raise DataError(
                f"overlapping mentions ({prev.start}, {prev.end}) and ({m.start}, {m.end})"
            )
        tags[m.start : m.end] = [f"I-{m.etype}"] * m.length
        if scheme is not TagScheme.IOB1 or (prev is not None and prev.end == m.start
                                            and prev.etype == m.etype):
            tags[m.start] = f"B-{m.etype}"
        if scheme is TagScheme.BILOU:
            tags[m.end - 1] = f"{'U' if m.length == 1 else 'L'}-{m.etype}"
        prev = m
    return tags


def convert_scheme(
    tags: Sequence[str], src: TagScheme, dst: TagScheme, strict: bool = True
) -> list[str]:
    """Re-encode a tag sequence from one scheme to another, mention set intact."""
    return mentions_to_tags(tags_to_mentions(tags, src, strict), len(tags), dst)


# ---------------------------------------------------------------------------
# Capitalization classes
# ---------------------------------------------------------------------------

_ASCII_DIGITS = frozenset("0123456789")


def capitalization_class(token: Token | str) -> CapClass:
    """Classify a token into exactly one orthographic shape class.

    Precedence: no alphanumerics at all; then digit-bearing tokens without
    letters; then the four letter-case classes.
    """
    s = token.surface if isinstance(token, Token) else token
    if s.isascii():
        # every ASCII letter is cased, so whole-string case tests decide it
        if s.islower():
            return CapClass.ALL_LOWER
        if s.isupper():
            return CapClass.ALL_UPPER
        if s.lower() == s:  # no letters at all
            return CapClass.NO_ALPHANUM if _ASCII_DIGITS.isdisjoint(s) else CapClass.NUMERIC
        return CapClass.UPPER_FIRST if s[0].isupper() else CapClass.UPPER_NOT_FIRST
    if not any(c.isalnum() for c in s):
        return CapClass.NO_ALPHANUM
    letters = [c for c in s if c.isalpha()]
    if not letters and any(c.isdigit() for c in s):
        return CapClass.NUMERIC
    if all(c.isupper() for c in letters):
        return CapClass.ALL_UPPER
    if all(c.islower() for c in letters):
        return CapClass.ALL_LOWER
    if s[0].isalpha() and s[0].isupper():
        return CapClass.UPPER_FIRST
    return CapClass.UPPER_NOT_FIRST


# ---------------------------------------------------------------------------
# Dual-view corpus
# ---------------------------------------------------------------------------

def build_dual_corpus(
    sentences: Iterable[Sentence], inventory: TypeInventory
) -> Iterator[str]:
    """Emit, per sentence, the lowercased token line followed by its variant
    with every mention span collapsed to its single type-label token.

    The two variants sit on adjacent lines so they stay inside one shuffling
    unit downstream. Tokens outside mentions are identical in both lines.
    """
    for n, s in enumerate(sentences):
        if s.mentions is None:
            mentions: list[Mention] = []
        else:
            mentions = sorted(s.mentions)
        prev_end = 0
        for m in mentions:
            if m.start < prev_end:
                raise DataError(f"sentence {n}: overlapping mentions at token {m.start}")
            if m.end > len(s):
                raise DataError(f"sentence {n}: mention ({m.start}, {m.end}) out of range")
            if m.etype not in inventory:
                raise DataError(f"sentence {n}: unknown entity type {m.etype!r}")
            prev_end = m.end

        lowered = [t.lower for t in s.tokens]
        yield " ".join(lowered)

        v2: list[str] = []
        pos = 0
        for m in mentions:
            v2.extend(lowered[pos : m.start])
            v2.append(m.etype)
            pos = m.end
        v2.extend(lowered[pos:])
        yield " ".join(v2)
