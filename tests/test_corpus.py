import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexner.corpus import (
    CapClass,
    Mention,
    Sentence,
    TagScheme,
    Token,
    TypeInventory,
    build_dual_corpus,
    capitalization_class,
    convert_scheme,
    format_column,
    iter_column_sentences,
    load_column_file,
    mentions_to_tags,
    parse_column_text,
    read_text,
    tags_to_mentions,
)
from lexner.errors import DataError, FormatError, LexnerError, ParseError, SchemeError
from lexner.tagger.crf import bilou_allowed_transitions

from column_reference import reference_column_sentences
from scheme_reference import (
    reference_bilou_allowed_transitions,
    reference_mentions_to_tags,
    reference_tags_to_mentions,
)

SAMPLE = """\
EU B-ORG
rejects O
German B-MISC
call O

Peter B-PER
Blackburn I-PER
"""


class TestColumnFormat:
    def test_parse_two_sentences(self):
        sents = parse_column_text(SAMPLE)
        assert len(sents) == 2
        assert sents[0].words == ["EU", "rejects", "German", "call"]
        assert sents[0].tags == ["B-ORG", "O", "B-MISC", "O"]
        assert sents[1].words == ["Peter", "Blackburn"]
        assert sents[1].tags == ["B-PER", "I-PER"]

    def test_last_field_is_tag(self):
        sents = parse_column_text("EU NNP I-NP B-ORG\n")
        assert sents[0].words == ["EU"]
        assert sents[0].tags == ["B-ORG"]

    def test_missing_tag_column(self):
        with pytest.raises(ParseError) as err:
            parse_column_text("EU\n")
        assert "line 1" in str(err.value)
        assert err.value.line == 1

    def test_missing_tag_column_later_line(self):
        with pytest.raises(ParseError) as err:
            parse_column_text("EU B-ORG\nrejects\n")
        assert err.value.line == 2

    def test_untagged_mode(self):
        sents = parse_column_text("hello\nworld\n", require_tags=False)
        assert sents[0].words == ["hello", "world"]
        assert sents[0].tags == ["O", "O"]

    def test_docstart_separates_documents(self):
        text = "-DOCSTART- O\n\na O\n\n-DOCSTART- O\n\nb O\n"
        sents = parse_column_text(text)
        assert [s.words for s in sents] == [["a"], ["b"]]
        assert [s.doc_index for s in sents] == [0, 1]

    def test_only_newlines_end_lines(self):
        # NEL, LS and FF are whitespace inside a line, not line ends
        sents = parse_column_text("a\x85b O\n")
        assert sents[0].words == ["a"] and sents[0].tags == ["O"]
        assert [s.words for s in parse_column_text("a O\r\nb\u2028c\x0cd O\re O\n")] == [
            ["a", "b", "e"]]

    def test_blank_line_runs_collapse(self):
        sents = parse_column_text("a O\n\n\n\nb O\n")
        assert len(sents) == 2

    def test_format_round_trip(self, tmp_path):
        sents = parse_column_text(SAMPLE)
        assert format_column(sents) == SAMPLE
        p = tmp_path / "col.txt"
        p.write_text(SAMPLE, encoding="utf-8")
        assert format_column(load_column_file(p)) == SAMPLE

    def test_format_with_prediction_column(self):
        sents = parse_column_text("a B-PER\nb O\n")
        out = format_column(sents, extra_tags=[["O", "B-LOC"]])
        assert out == "a B-PER O\nb O B-LOC\n"


def _load_by_file_iteration(path):
    """load_column_file as a text-mode file iterator: universal newlines."""
    with open(path, encoding="utf-8") as fh:
        return list(iter_column_sentences(fh))


def _outcome(load, path):
    try:
        return [(s.words, s.tags, s.doc_index) for s in load(path)]
    except LexnerError as e:
        return type(e), str(e)


# column text with every line break str.splitlines knows
COLUMN_TEXT = st.lists(st.sampled_from(["a", "É", "東", "O", "B-X", "U-X", " ", "\t", "\n", "\r",
                                        "\x85", "\u2028", "\x0c", "\x1e", "-DOCSTART-"]),
                       max_size=40).map("".join)


class TestReadText:
    def test_newlines_translated_like_path_read_text(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes("\ufeffa\r\nb\rc\n\r\nd\x85e\u2028f\x0cg\r".encode("utf-8"))
        assert read_text(p) == p.read_text(encoding="utf-8")

    def test_bad_byte_names_file_line_and_offset(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"a O\r\nb O\rca\xcc\xa7\xe9 O\n")
        with pytest.raises(FormatError, match=r"t\.txt: line 3 is not UTF-8 text") as err:
            read_text(p)
        assert err.value.offset == 13

    def test_truncated_multibyte_character_at_end(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes("a O\n\nb O\n東".encode("utf-8")[:-1])
        with pytest.raises(FormatError, match="line 4") as err:
            read_text(p)
        assert err.value.offset == 9

    def test_inventory_load_uses_it(self, tmp_path):
        p = tmp_path / "types.txt"
        p.write_bytes(b"/person\n/aw\xffard\n")
        with pytest.raises(FormatError, match="line 2") as err:
            TypeInventory.load(p)
        assert err.value.offset == 11

    @given(COLUMN_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_column_file_parses_as_file_iteration_did(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("col") / "c.txt"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(load_column_file, p) == _outcome(_load_by_file_iteration, p)

    @given(COLUMN_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_text_parses_as_its_file_does(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("col") / "c.txt"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(lambda _: parse_column_text(text), p) == _outcome(load_column_file, p)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_flip_or_truncation_only_raises_lexner_errors(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("fuzz") / "c.txt"
        raw = bytearray((SAMPLE + "\nZürich U-LOC\n東京 U-LOC\n\n-DOCSTART- O\n").encode("utf-8"))
        at = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw[at] = data.draw(st.integers(0, 255))
        p.write_bytes(bytes(raw))
        try:
            bytes(raw).decode("utf-8")
        except UnicodeDecodeError as e:
            with pytest.raises(FormatError) as err:
                load_column_file(p)
            assert err.value.offset == e.start
            return
        try:
            load_column_file(p)
        except LexnerError:
            pass


# whitespace that str.split breaks at, beyond the ASCII set
WHITESPACE = [" ", "\t", "\x85", "\x1c", "\u2028", "\u3000"]
# lines as a file handle or a split text gives them; "\r\n", "\r" and "\n"
# may end a line or sit inside it
COLUMN_LINES = st.lists(
    st.lists(st.sampled_from(["a", "東", "O", "B-X", "-DOCSTART-", "\r\n", "\r", "\n",
                              *WHITESPACE]), max_size=6).map("".join),
    max_size=12)


def _reader_outcome(read, lines, require_tags):
    try:
        return list(read(lines, require_tags))
    except LexnerError as e:
        return type(e), str(e)


class TestColumnReaderOracle:
    @pytest.mark.parametrize("require_tags", [True, False])
    @given(lines=COLUMN_LINES)
    @settings(max_examples=400, deadline=None)
    def test_lines_read_as_the_per_line_reader_did(self, require_tags, lines):
        assert (_reader_outcome(iter_column_sentences, lines, require_tags)
                == _reader_outcome(reference_column_sentences, lines, require_tags))

    @pytest.mark.parametrize("require_tags", [True, False])
    @given(lines=COLUMN_LINES)
    @settings(max_examples=200, deadline=None)
    def test_text_reads_as_the_per_line_reader_did(self, require_tags, lines):
        text = "".join(lines)
        split = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert (_reader_outcome(parse_column_text, text, require_tags)
                == _reader_outcome(reference_column_sentences, split, require_tags))

    @pytest.mark.parametrize("word", ["", *(f"a{c}b" for c in [*WHITESPACE, "\r", "\n"])])
    def test_from_words_raises_as_token_does(self, word):
        with pytest.raises(DataError) as expected:
            Token(word)
        with pytest.raises(DataError) as got:
            Sentence.from_words(["ok", word, "x y"])
        assert str(got.value) == str(expected.value)

    @given(st.lists(st.text(st.sampled_from(["a", "東", "\r", "\n", *WHITESPACE]), max_size=3),
                    max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_from_words_builds_what_token_builds(self, words):
        def outcome(build):
            try:
                return build()
            except DataError as e:
                return str(e)

        assert (outcome(lambda: Sentence.from_words(words).tokens)
                == outcome(lambda: [Token(w) for w in words]))


class TestSchemes:
    def test_iob2_to_bilou(self):
        tags = ["B-ORG", "O", "B-MISC", "O"]
        assert convert_scheme(tags, TagScheme.IOB2, TagScheme.BILOU) == [
            "U-ORG", "O", "U-MISC", "O"]
        tags = ["B-PER", "I-PER", "I-PER", "O"]
        assert convert_scheme(tags, TagScheme.IOB2, TagScheme.BILOU) == [
            "B-PER", "I-PER", "L-PER", "O"]
        tags = ["B-PER", "I-PER"]
        assert convert_scheme(tags, TagScheme.IOB2, TagScheme.BILOU) == [
            "B-PER", "L-PER"]

    def test_iob1_to_bilou(self):
        # IOB1 opens chunks with I; B marks a same-type split
        tags = ["I-PER", "I-PER", "B-PER"]
        assert convert_scheme(tags, TagScheme.IOB1, TagScheme.BILOU) == [
            "B-PER", "L-PER", "U-PER"]

    def test_bilou_to_iob1_adjacent_same_type(self):
        tags = ["U-PER", "B-PER", "L-PER"]
        assert convert_scheme(tags, TagScheme.BILOU, TagScheme.IOB1) == [
            "I-PER", "B-PER", "I-PER"]

    def test_bilou_to_iob1_adjacent_different_type(self):
        tags = ["U-PER", "U-ORG"]
        assert convert_scheme(tags, TagScheme.BILOU, TagScheme.IOB1) == [
            "I-PER", "I-ORG"]

    def test_bilou_strict_decode(self):
        tags = ["B-ORG", "I-ORG", "L-ORG", "O", "U-PER"]
        assert tags_to_mentions(tags, TagScheme.BILOU) == [
            Mention(0, 3, "ORG"), Mention(4, 5, "PER")]

    def test_bilou_orphan_rejected_strict(self):
        with pytest.raises(SchemeError) as err:
            tags_to_mentions(["O", "I-ORG", "L-ORG"], TagScheme.BILOU)
        assert err.value.position == 1

    def test_bilou_orphan_repaired_lenient(self):
        got = tags_to_mentions(["I-ORG", "L-ORG"], TagScheme.BILOU, strict=False)
        assert got == [Mention(0, 2, "ORG")]

    def test_bilou_unclosed_rejected_strict(self):
        with pytest.raises(SchemeError):
            tags_to_mentions(["B-ORG", "I-ORG"], TagScheme.BILOU)

    def test_bilou_unclosed_closed_lenient(self):
        got = tags_to_mentions(["B-ORG", "I-ORG"], TagScheme.BILOU, strict=False)
        assert got == [Mention(0, 2, "ORG")]

    def test_bilou_lone_l_lenient(self):
        got = tags_to_mentions(["O", "L-PER"], TagScheme.BILOU, strict=False)
        assert got == [Mention(1, 2, "PER")]

    def test_iob1_bare_b_rejected_strict(self):
        with pytest.raises(SchemeError):
            tags_to_mentions(["B-PER", "I-PER"], TagScheme.IOB1)

    def test_iob2_orphan_i_lenient_opens_mention(self):
        got = tags_to_mentions(["O", "I-LOC"], TagScheme.IOB2, strict=False)
        assert got == [Mention(1, 2, "LOC")]

    def test_iob2_type_change_without_b(self):
        # I-ORG directly after I-PER is an orphan in IOB2 terms
        with pytest.raises(SchemeError):
            tags_to_mentions(["B-PER", "I-ORG"], TagScheme.IOB2)
        got = tags_to_mentions(["B-PER", "I-ORG"], TagScheme.IOB2, strict=False)
        assert got == [Mention(0, 1, "PER"), Mention(1, 2, "ORG")]

    def test_malformed_tag(self):
        with pytest.raises(SchemeError):
            tags_to_mentions(["Q-PER"], TagScheme.BILOU)
        with pytest.raises(SchemeError):
            tags_to_mentions(["L-PER"], TagScheme.IOB2)

    def test_mentions_to_tags_rejects_overlap(self):
        with pytest.raises(DataError):
            mentions_to_tags([Mention(0, 2, "A"), Mention(1, 3, "A")], 4)

    def test_mentions_to_tags_rejects_out_of_range(self):
        with pytest.raises(DataError):
            mentions_to_tags([Mention(0, 5, "A")], 4)


TYPE_NAMES = ["PER", "ORG", "LOC", "MISC"]


@st.composite
def mention_layouts(draw):
    """Sentence length plus a random set of disjoint typed spans.

    Built by cutting [0, n) into segments and promoting some segments to
    mentions, so adjacent same-type mentions (the IOB1 B case) do occur.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=n - 1), unique=True,
                         max_size=n - 1) if n > 1 else st.just([]))
    bounds = [0] + sorted(cuts) + [n]
    mentions = []
    for a, b in zip(bounds, bounds[1:]):
        if draw(st.booleans()):
            mentions.append(Mention(a, b, draw(st.sampled_from(TYPE_NAMES))))
    return n, mentions


@given(mention_layouts())
@settings(max_examples=300, deadline=None)
def test_mention_round_trip_all_schemes(layout):
    n, mentions = layout
    for scheme in TagScheme:
        tags = mentions_to_tags(mentions, n, scheme)
        assert tags_to_mentions(tags, scheme, strict=True) == mentions


@given(mention_layouts())
@settings(max_examples=300, deadline=None)
def test_scheme_conversion_round_trip(layout):
    n, mentions = layout
    iob2 = mentions_to_tags(mentions, n, TagScheme.IOB2)
    bilou = convert_scheme(iob2, TagScheme.IOB2, TagScheme.BILOU)
    assert convert_scheme(bilou, TagScheme.BILOU, TagScheme.IOB2) == iob2
    iob1 = convert_scheme(bilou, TagScheme.BILOU, TagScheme.IOB1)
    assert convert_scheme(iob1, TagScheme.IOB1, TagScheme.BILOU) == bilou


# every prefix of both schemes' letters, two types, and two malformed tags
DECODER_ALPHABET = ["O", "B-A", "I-A", "L-A", "U-A", "B-B", "I-B", "L-B", "U-B", "X-A", "B-"]


def _decode_outcome(decode, tags, scheme, strict):
    try:
        return decode(tags, scheme, strict)
    except LexnerError as e:
        return type(e), e.position, str(e)


class TestSchemeDecoderOracle:
    """`tags_to_mentions` against the per-scheme decoder it replaced: the
    same mentions, or the same exception class, position and message."""

    def test_every_short_sequence(self):
        cases = 0
        for n in range(5):
            for tags in itertools.product(DECODER_ALPHABET, repeat=n):
                for scheme in TagScheme:
                    for strict in (True, False):
                        assert (_decode_outcome(tags_to_mentions, tags, scheme, strict)
                                == _decode_outcome(reference_tags_to_mentions, tags, scheme, strict))
                        cases += 1
        assert cases == 96_630

    @given(st.lists(st.sampled_from(DECODER_ALPHABET), max_size=12),
           st.sampled_from(list(TagScheme)), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, tags, scheme, strict):
        assert (_decode_outcome(tags_to_mentions, tags, scheme, strict)
                == _decode_outcome(reference_tags_to_mentions, tags, scheme, strict))

    @given(st.lists(st.sampled_from(DECODER_ALPHABET[:9]), min_size=1, max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_strict_bilou_is_the_crf_grammar(self, tags):
        """Strict BILOU decoding accepts a sequence of well-formed tags iff
        `bilou_allowed_transitions` allows every move of its path from START
        to STOP, which is what keeps constrained decoding strictly valid."""
        labels = sorted(set(tags))
        allowed = bilou_allowed_transitions(labels)
        path = [len(labels)] + [labels.index(t) for t in tags] + [len(labels) + 1]
        try:
            tags_to_mentions(tags, TagScheme.BILOU, strict=True)
            decodes = True
        except SchemeError:
            decodes = False
        assert decodes == all(allowed[a, b] for a, b in zip(path, path[1:]))


def every_mention_layout(max_length):
    """(n, mentions) for n = 0..max_length, built as `mention_layouts` builds
    them: every way to cut [0, n) into segments, each segment O, A or B."""
    yield 0, []
    for n in range(1, max_length + 1):
        for cut in itertools.product((False, True), repeat=n - 1):
            bounds = [0] + [i for i, c in enumerate(cut, start=1) if c] + [n]
            segments = list(zip(bounds, bounds[1:]))
            for types in itertools.product((None, "A", "B"), repeat=len(segments)):
                yield n, [Mention(a, b, t) for (a, b), t in zip(segments, types) if t]


class TestSchemeEncoderOracle:
    """`mentions_to_tags` and the CRF mask against the per-scheme encoder
    and the hand-written mask they replaced."""

    def test_every_short_layout(self):
        cases = 0
        for n, mentions in every_mention_layout(7):
            for scheme in TagScheme:
                assert (mentions_to_tags(mentions, n, scheme)
                        == reference_mentions_to_tags(mentions, n, scheme))
                cases += 1
        assert cases == 49_152

    def test_every_small_tag_set(self):
        """Mask bytes for every list of up to five distinct well-formed tags."""
        cases = 0
        for k in range(6):
            for tags in itertools.permutations(DECODER_ALPHABET[:9], k):
                got = bilou_allowed_transitions(list(tags))
                assert got.dtype == bool
                assert got.tobytes() == reference_bilou_allowed_transitions(list(tags)).tobytes()
                cases += 1
        assert cases == 18_730

    @pytest.mark.parametrize("tags", [["O", "X-A"], ["B-"], [""]])
    def test_mask_refuses_malformed_tags(self, tags):
        with pytest.raises(SchemeError, match="malformed bilou tag"):
            bilou_allowed_transitions(tags)


class TestCapClass:
    @pytest.mark.parametrize("word,expect", [
        ("USA", CapClass.ALL_UPPER),
        ("U.S.A.", CapClass.ALL_UPPER),
        ("rome", CapClass.ALL_LOWER),
        ("Roma", CapClass.UPPER_FIRST),
        ("iPad", CapClass.UPPER_NOT_FIRST),
        ("McDonald", CapClass.UPPER_FIRST),
        ("3.14", CapClass.NUMERIC),
        ("1990s", CapClass.ALL_LOWER),
        ("A4", CapClass.ALL_UPPER),
        ("--", CapClass.NO_ALPHANUM),
        ("...", CapClass.NO_ALPHANUM),
    ])
    def test_classes(self, word, expect):
        assert capitalization_class(word) is expect

    def test_accepts_token(self):
        assert capitalization_class(Token("Oslo")) is CapClass.UPPER_FIRST

    def test_ids_are_stable(self):
        assert [c.value for c in CapClass] == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("word", [
        "", "½", "²", "東京", "東京Ab", "ǅemal", "Σίσυφος", "straße", "ÉCOLE", "x²", "½a",
        "İstanbul", "ǅ", "ß", "Ⅻ", "ⅻ", "١٢٣", "ꜳ", "ʰ", "ªb", "\x00", " ", "9a", "Z9",
    ])
    def test_matches_reference_on_edge_cases(self, word):
        assert capitalization_class(word) is reference_capitalization_class(word)

    @given(st.text(max_size=12) | st.text(st.characters(max_codepoint=0x7F), max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, s):
        assert capitalization_class(s) is reference_capitalization_class(s)


def reference_capitalization_class(s: str) -> CapClass:
    """The original three-pass classifier, kept as the oracle."""
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


class TestTypeInventory:
    def test_order_and_index(self):
        inv = TypeInventory(["/person", "/person/musician", "/location"])
        assert list(inv) == ["/person", "/person/musician", "/location"]
        assert inv.index["/location"] == 2
        assert "/person" in inv and "/building" not in inv

    def test_rejects_malformed(self):
        with pytest.raises(DataError):
            TypeInventory(["person"])
        with pytest.raises(DataError):
            TypeInventory(["/a/b/c"])
        with pytest.raises(DataError):
            TypeInventory(["/a", "/a"])
        with pytest.raises(DataError, match="malformed type label"):
            TypeInventory(["/a\n"])  # `$` alone would match before the newline

    def test_save_load(self, tmp_path):
        inv = TypeInventory(["/person", "/award"])
        p = tmp_path / "types.txt"
        inv.save(p)
        assert TypeInventory.load(p) == inv


class TestDualCorpus:
    def setup_method(self):
        self.inv = TypeInventory(["/person", "/date", "/organization"])

    def test_basic_pair(self):
        s = Sentence.from_words(
            ["Obama", "won", "in", "2009", "."],
            mentions=[Mention(0, 1, "/person"), Mention(3, 4, "/date")])
        lines = list(build_dual_corpus([s], self.inv))
        assert lines == [
            "obama won in 2009 .",
            "/person won in /date .",
        ]

    def test_multi_token_mention_collapses(self):
        s = Sentence.from_words(
            ["the", "United", "Nations", "said"],
            mentions=[Mention(1, 3, "/organization")])
        v1, v2 = build_dual_corpus([s], self.inv)
        assert v1 == "the united nations said"
        assert v2 == "the /organization said"
        assert len(v2.split()) == len(v1.split()) - 1

    def test_no_mentions_gives_identical_lines(self):
        s = Sentence.from_words(["Nothing", "here"])
        v1, v2 = build_dual_corpus([s], self.inv)
        assert v1 == v2 == "nothing here"

    def test_pair_adjacency(self):
        sents = [Sentence.from_words(["a"]), Sentence.from_words(["b"])]
        lines = list(build_dual_corpus(sents, self.inv))
        assert lines == ["a", "a", "b", "b"]

    def test_unknown_type_rejected(self):
        s = Sentence.from_words(["x"], mentions=[Mention(0, 1, "/building")])
        with pytest.raises(DataError):
            list(build_dual_corpus([s], self.inv))

    def test_overlap_rejected(self):
        s = Sentence.from_words(
            ["a", "b", "c"],
            mentions=[Mention(0, 2, "/person"), Mention(1, 3, "/date")])
        with pytest.raises(DataError):
            list(build_dual_corpus([s], self.inv))


class TestSentence:
    def test_tag_length_checked(self):
        with pytest.raises(DataError):
            Sentence.from_words(["a", "b"], tags=["O"])

    def test_token_rejects_whitespace(self):
        with pytest.raises(DataError):
            Token("two words")
        with pytest.raises(DataError):
            Token("")

    def test_with_tags_replaces(self):
        s = Sentence.from_words(["a", "b"], mentions=[Mention(0, 1, "X")])
        t = s.with_tags(["O", "O"])
        assert t.tags == ["O", "O"] and t.mentions is None
        assert s.mentions == [Mention(0, 1, "X")]
