"""The per-line column reader: the oracle for the column reader of `corpus`.

`reference_column_sentences` reads column lines as the reader did before it
split each line only once: it strips the line end, so it also reads the
lines of a text-mode file, tests blankness with `strip`, builds every token
through the validating `Token` constructor and flushes a sentence through a
closure. Tests require `parse_column_text` and `load_column_file` to give the
same sentences, or the same exception, on any input; only `load_column_file`
names the file in the exception's text.
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
