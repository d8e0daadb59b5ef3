"""The per-line column reader: the oracle for `corpus.iter_column_sentences`.

`reference_column_sentences` reads column lines as the reader did before it
split each line only once: it strips the line end, tests blankness with
`strip`, builds every token through the validating `Token` constructor and
flushes a sentence through a closure. Tests require the reader to give the
same sentences, or the same exception, on any input.
"""
from lexner.corpus import DOCSTART, Sentence, Token
from lexner.errors import ParseError


def reference_column_sentences(lines, require_tags=True):
    words = []
    tags = []
    doc = 0
    started = False

    def flush():
        nonlocal words, tags
        if not words:
            return None
        s = Sentence([Token(w).surface for w in words], tags=list(tags), doc_index=doc)
        words, tags = [], []
        return s

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            s = flush()
            if s is not None:
                yield s
            continue
        fields = line.split()
        if fields[0] == DOCSTART:
            s = flush()
            if s is not None:
                yield s
            if started:
                doc += 1
            started = True
            continue
        started = True
        if len(fields) < 2:
            if require_tags:
                raise ParseError(f"missing tag column in {line!r}", lineno)
            words.append(fields[0])
            tags.append("O")
            continue
        words.append(fields[0])
        tags.append(fields[-1])
    s = flush()
    if s is not None:
        yield s
