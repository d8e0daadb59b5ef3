import struct
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lexner import lexsim
from lexner.corpus import TypeInventory
from lexner.embed import EmbeddingTable
from lexner.errors import DataError, FormatError, LexnerError
from lexner.lexsim import (
    LSTable,
    build_ls_table,
    load_ls_table,
    ls_raw,
    minmax_scale,
    save_ls_table,
    top_k_types,
)


class TestMinMax:
    def test_reference_triple(self):
        out = minmax_scale([0.095, 0.20, 0.76])
        np.testing.assert_allclose(out, [-1.0, -0.6842105263157896, 1.0], atol=1e-12)
        assert round(out[1], 2) == -0.68

    def test_constant_vector(self):
        np.testing.assert_array_equal(minmax_scale([0.3, 0.3, 0.3]), [0, 0, 0])

    def test_fixed_points(self):
        np.testing.assert_allclose(minmax_scale([-1, 0, 1]), [-1, 0, 1], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            minmax_scale([])

    @given(hnp.arrays(np.float64, st.integers(2, 30),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)))
    @settings(max_examples=200, deadline=None)
    def test_properties(self, v):
        out = minmax_scale(v)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)
        if v.max() > v.min():
            assert out[np.argmin(v)] == -1.0
            assert out[np.argmax(v)] == 1.0
            # monotone: sorting the input sorts the output (ties may merge
            # under rounding, so compare values, not permutations)
            order = np.argsort(v, kind="stable")
            assert np.all(np.diff(out[order]) >= 0)
        else:
            assert np.all(out == 0.0)


def toy_table() -> tuple[EmbeddingTable, TypeInventory]:
    # hand-placed vectors: "north" points at /t1, "south" at /t2,
    # "flat" sits between, "ghost" is all zeros
    inv = TypeInventory(["/t1", "/t2", "/t3"])
    words = ["/t1", "/t2", "/t3", "north", "south", "flat", "ghost"]
    vecs = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.9, 0.1, 0.0],
            [0.1, 0.9, 0.0],
            [0.5, 0.5, 0.5],
            [0.0, 0.0, 0.0],
        ],
        dtype=np.float32,
    )
    return EmbeddingTable(words, vecs), inv


class TestLsRaw:
    def test_self_similarity_maximal(self):
        table, inv = toy_table()
        raw = ls_raw("/t1", table, inv)
        assert raw[0] == pytest.approx(1.0)
        assert int(np.argmax(raw)) == 0

    def test_planted_direction(self):
        table, inv = toy_table()
        raw = ls_raw("north", table, inv)
        assert int(np.argmax(raw)) == inv.index["/t1"]

    def test_zero_vector_word(self):
        table, inv = toy_table()
        np.testing.assert_array_equal(ls_raw("ghost", table, inv), np.zeros(3))

    def test_missing_type_embedding(self):
        table, _ = toy_table()
        bad = TypeInventory(["/t1", "/absent"])
        with pytest.raises(DataError):
            ls_raw("north", table, bad)

    def test_cased_type_label_is_found(self):
        table = EmbeddingTable(["/Person", "/place", "Paris"],
                               np.array([[1, 0], [0, 1], [0, 2]], dtype=np.float32))
        inv = TypeInventory(["/Person", "/place"])
        np.testing.assert_allclose(ls_raw("Paris", table, inv), [0.0, 1.0])
        np.testing.assert_allclose(ls_raw("/person", table, inv), [1.0, 0.0])

    def test_matches_per_word_cosines(self):
        # row-wise reductions reorder the sums of the BLAS dot products
        table, inv = subword_table()
        t = np.stack([table.word_vector(label) for label in inv]).astype(np.float64)
        for w in ["north", "Southern", "ab", "x", "/t2", "東京都"]:
            v = table.word_vector(w).astype(np.float64)
            expect = (t @ v) / (np.linalg.norm(t, axis=1) * np.linalg.norm(v))
            np.testing.assert_allclose(ls_raw(w, table, inv), expect, rtol=1e-13, atol=1e-15)

    def test_scale_invariance(self):
        table, inv = toy_table()
        scaled = EmbeddingTable(table.words, table.vectors * 7.0)
        np.testing.assert_allclose(
            ls_raw("north", table, inv), ls_raw("north", scaled, inv), atol=1e-12)


class TestBuildTable:
    def test_entries_match_per_word_path(self):
        table, inv = toy_table()
        ls = build_ls_table(["north", "south", "flat"], table, inv)
        for w in ["north", "south", "flat"]:
            expect = minmax_scale(ls_raw(w, table, inv)).astype(np.float32)
            np.testing.assert_array_equal(ls.entries[w], expect)

    def test_deterministic(self):
        table, inv = toy_table()
        a = build_ls_table(["north", "south"], table, inv)
        b = build_ls_table(["north", "south"], table, inv)
        assert list(a.entries) == list(b.entries)
        for w in a.entries:
            np.testing.assert_array_equal(a.entries[w], b.entries[w])

    def test_bounds_and_extremes(self):
        table, inv = toy_table()
        ls = build_ls_table(["north", "south", "flat"], table, inv)
        for vec in ls.entries.values():
            assert np.all(vec >= -1.0) and np.all(vec <= 1.0)
        # nonzero raw range pins the extremes exactly
        for w in ["north", "south"]:
            assert ls.entries[w].min() == -1.0 and ls.entries[w].max() == 1.0
        # "flat" is equidistant from every type: zero range scales to zeros
        np.testing.assert_array_equal(ls.entries["flat"], np.zeros(3, dtype=np.float32))

    def test_vocab_lowercased_and_deduplicated(self):
        table, inv = toy_table()
        ls = build_ls_table(["North", "north", "SOUTH"], table, inv)
        assert list(ls.entries) == ["north", "south"]

    def test_fallback_for_unknown_word(self):
        table, inv = toy_table()
        ls = build_ls_table(["north"], table, inv)
        # "ghost" is not in the table entries; fallback computes on the fly
        np.testing.assert_array_equal(ls.vector("ghost"), np.zeros(3, dtype=np.float32))
        got = ls.vector("south")
        expect = minmax_scale(ls_raw("south", table, inv)).astype(np.float32)
        np.testing.assert_array_equal(got, expect)

    def test_no_fallback_unknown_is_zero(self):
        _, inv = toy_table()
        bare = LSTable(inv)
        np.testing.assert_array_equal(bare.vector("anything"), np.zeros(3))

    def test_build_speed_10k_words(self):
        rng = np.random.default_rng(5)
        labels = [f"/t{i}" for i in range(12)]
        inv = TypeInventory(labels)
        letters = "abcdefghijklmnopqrstuvwxyz"
        vocab = []
        seen = set()
        while len(vocab) < 10_000:
            w = "".join(letters[i] for i in rng.integers(0, 26, 7))
            if w not in seen:
                seen.add(w)
                vocab.append(w)
        words = labels + vocab
        vecs = rng.normal(size=(len(words), 50)).astype(np.float32)
        table = EmbeddingTable(words, vecs)
        t0 = time.monotonic()
        ls = build_ls_table(vocab, table, inv)
        elapsed = time.monotonic() - t0
        assert len(ls) == 10_000
        assert elapsed < 10.0


def subword_table(seed: int = 3, dim: int = 8) -> tuple[EmbeddingTable, TypeInventory]:
    """Random table with n-gram buckets, so OOV words compose nonzero vectors."""
    rng = np.random.default_rng(seed)
    inv = TypeInventory(["/t1", "/t2", "/t3", "/t4"])
    words = list(inv) + ["north", "south", "ab", "x"]
    return EmbeddingTable(words, rng.normal(size=(len(words), dim)).astype(np.float32),
                          rng.normal(size=(997, dim)).astype(np.float32)), inv


class TestBatchedBuild:
    def test_matches_per_word_path_across_a_chunk_boundary(self):
        table, inv = subword_table()
        rng = np.random.default_rng(11)
        letters = list("abcdefghijklmnopqrstuvwxyzéü東")
        fresh = ["".join(rng.choice(letters, int(rng.integers(1, 14)))) for _ in range(400)]
        extra = ["North", "north", "NORTH", "x", "Ab", "/t2", "/T3", "", "𝒳yz", "café", "CAFÉ"]
        vocab = extra + fresh + extra
        words = list(dict.fromkeys(w.lower() for w in vocab))
        chunk = 64  # words per chunk
        assert len(words) > 4 * chunk
        with mock.patch.object(lexsim, "_LS_CHUNK_VALUES", chunk * len(inv) * table.dim):
            ls = build_ls_table(vocab, table, inv)
        assert list(ls.entries) == words
        for w in words:
            expect = minmax_scale(ls_raw(w, table, inv)).astype(np.float32)
            assert ls.entries[w].tobytes() == expect.tobytes(), w

    def test_matches_per_word_path_across_product_blocks(self):
        table, inv = subword_table()
        rng = np.random.default_rng(12)
        letters = list("abcdefghijklmnopqrstuvwxyzéü東𝒳")
        vocab = ["".join(rng.choice(letters, int(rng.integers(1, 14)))) for _ in range(300)]
        words = list(dict.fromkeys(w.lower() for w in vocab))
        # 7-word product blocks inside 64-word chunks: block boundaries fall
        # mid-chunk, and a chunk's last block is a short one
        with mock.patch.object(lexsim, "_LS_CHUNK_VALUES", 64 * len(inv) * table.dim), \
                mock.patch.object(lexsim, "_LS_BLOCK_VALUES", 7 * len(inv) * table.dim):
            ls = build_ls_table(vocab, table, inv)
        assert list(ls.entries) == words and len(words) % 64 % 7 != 0
        for w in words:
            expect = minmax_scale(ls_raw(w, table, inv)).astype(np.float32)
            assert ls.entries[w].tobytes() == expect.tobytes(), w

    def test_vectors_equal_one_word_lookups(self):
        table, inv = subword_table()
        ls = build_ls_table(["north", "ab"], table, inv)
        words = ["North", "southern", "SOUTHERN", "x", "", "/t2", "café", "ab", "north"]
        got = ls.vectors(words)
        assert got.dtype == np.float32 and got.shape == (len(words), len(inv))
        full = build_ls_table(words, table, inv)
        for w, row in zip(words, got):
            assert row.tobytes() == ls.vector(w).tobytes() == full.entries[w.lower()].tobytes(), w
        assert list(ls.entries) == ["north", "ab"]

    def test_vectors_without_fallback(self):
        table, inv = subword_table()
        bare = LSTable(inv, build_ls_table(["north"], table, inv).entries)
        got = bare.vectors(["ghost", "NORTH", "ghost"])
        assert got.tobytes() == np.stack(
            [np.zeros(len(inv), np.float32), bare.entries["north"], np.zeros(len(inv), np.float32)]
        ).tobytes()
        assert bare.vectors([]).shape == (0, len(inv))

    def test_fallback_equals_table_entry(self):
        table, inv = subword_table()
        built = build_ls_table(["southern", "x", "ab", "café"], table, inv)
        bare = LSTable(inv, fallback=table)
        for w, vec in built.entries.items():
            assert bare.vector(w).tobytes() == vec.tobytes()

    def test_fallback_vectors_stay_out_of_entries(self):
        table, inv = subword_table()
        ls = build_ls_table(["north"], table, inv)
        before = ls.content_hash()
        first = ls.vector("Northern")
        np.testing.assert_array_equal(ls.vector("northern"), first)
        assert list(ls.entries) == ["north"] and "northern" not in ls
        assert ls.content_hash() == before

    def test_lone_surrogate_raises(self):
        table, inv = subword_table()
        with pytest.raises(UnicodeEncodeError):
            build_ls_table(["north", "a\ud800"], table, inv)


class TestTopK:
    def test_full_permutation(self):
        table, inv = toy_table()
        ranked = top_k_types("north", 3, table, inv)
        assert sorted(t for t, _ in ranked) == sorted(inv.labels)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0][0] == "/t1"

    def test_ties_break_by_inventory_order(self):
        inv = TypeInventory(["/a", "/b"])
        vecs = np.array([[1, 0], [1, 0], [1, 0]], dtype=np.float32)
        table = EmbeddingTable(["/a", "/b", "w"], vecs)
        ranked = top_k_types("w", 2, table, inv)
        assert [t for t, _ in ranked] == ["/a", "/b"]

    def test_k_out_of_range(self):
        table, inv = toy_table()
        with pytest.raises(DataError):
            top_k_types("north", 4, table, inv)
        with pytest.raises(DataError):
            top_k_types("north", 0, table, inv)


def reference_save(table: LSTable, path) -> None:
    """The LS file format written field by field and record by record."""

    def string(s: str) -> bytes:
        b = s.encode("utf-8")
        return struct.pack("<H", len(b)) + b

    with open(path, "wb") as fh:
        fh.write(b"LSTB" + struct.pack("<BI", 1, table.dim))
        for label in table.inventory:
            fh.write(string(label))
        fh.write(struct.pack("<Q", len(table.entries)))
        for w, vec in table.entries.items():
            fh.write(string(w))
            fh.write(struct.pack(f"<{table.dim}f", *vec.tolist()))


# record words: non-ASCII, outside the Basic Multilingual Plane, empty
_record_words = st.one_of(
    st.text(max_size=8),
    st.text(st.characters(min_codepoint=0x10000, categories=["Lo", "So", "Lu", "Ll", "Co"]),
            max_size=4),
    st.sampled_from(["café", "東京都", "𝒳yz", "a𝄞b", ""]),
)


class TestPersistence:
    @given(st.lists(_record_words, unique=True, max_size=12), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    @example(words=[], dim=1, seed=0)
    def test_save_equals_per_record_writer(self, tmp_path_factory, words, dim, seed):
        rng = np.random.default_rng(seed)
        inv = TypeInventory([f"/t{i}" for i in range(dim - 1)] + ["/東𝒳"])
        values = (rng.normal(size=(len(words), dim)) * 10.0 ** rng.uniform(-30, 30, (len(words), 1)))
        values[rng.random(values.shape) < 0.1] = -0.0
        ls = LSTable(inv, dict(zip(words, values)))
        d = tmp_path_factory.mktemp("ls")
        save_ls_table(ls, d / "fast.ls")
        reference_save(ls, d / "slow.ls")
        assert (d / "fast.ls").read_bytes() == (d / "slow.ls").read_bytes()
        assert load_ls_table(d / "fast.ls").content_hash() == ls.content_hash()

    def test_round_trip(self, tmp_path):
        table, inv = toy_table()
        ls = build_ls_table(["north", "south", "flat"], table, inv)
        p = tmp_path / "table.ls"
        save_ls_table(ls, p)
        back = load_ls_table(p)
        assert back.inventory == inv
        assert list(back.entries) == list(ls.entries)
        for w in ls.entries:
            np.testing.assert_array_equal(back.entries[w], ls.entries[w])
        assert back.content_hash() == ls.content_hash()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ls"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FormatError) as err:
            load_ls_table(p)
        assert err.value.offset == 0

    def test_truncated_record_has_offset(self, tmp_path):
        table, inv = toy_table()
        ls = build_ls_table(["north", "south"], table, inv)
        p = tmp_path / "table.ls"
        save_ls_table(ls, p)
        data = p.read_bytes()
        cut = tmp_path / "cut.ls"
        cut.write_bytes(data[: len(data) - 5])
        with pytest.raises(FormatError) as err:
            load_ls_table(cut)
        assert err.value.offset is not None
        assert "truncated" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_at_its_record(self, tmp_path, bad):
        table, inv = toy_table()
        ls = build_ls_table(["north", "south", "flat"], table, inv)
        p = tmp_path / "table.ls"
        save_ls_table(ls, p)
        data = bytearray(p.read_bytes())
        # header, three labels, record count, then (word, 3 floats) records
        header = 4 + 5 + sum(2 + len(label) for label in inv) + 8
        south = header + 2 + len("north") + 3 * 4
        value = south + 2 + len("south") + 4
        data[value : value + 4] = struct.pack("<f", bad)
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError) as err:
            load_ls_table(p)
        assert err.value.offset == south
        assert "record 1" in str(err.value) and "non-finite" in str(err.value)

    def test_invalid_utf8_word_rejected_at_its_string(self, tmp_path):
        table, inv = toy_table()
        ls = build_ls_table(["north", "south"], table, inv)
        p = tmp_path / "table.ls"
        save_ls_table(ls, p)
        data = bytearray(p.read_bytes())
        header = 4 + 5 + sum(2 + len(label) for label in inv) + 8
        south = header + 2 + len("north") + 3 * 4
        data[south + 2] = 0xFF  # first byte of the word "south"
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="record 1 word is not valid UTF-8") as err:
            load_ls_table(p)
        assert err.value.offset == south + 2

    def test_trailing_bytes_rejected(self, tmp_path):
        table, inv = toy_table()
        p = tmp_path / "table.ls"
        save_ls_table(build_ls_table(["north"], table, inv), p)
        end = p.stat().st_size
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing bytes") as err:
            load_ls_table(p)
        assert err.value.offset == end

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_byte_flip_or_truncation_only_raises_lexner_errors(self, tmp_path_factory, data):
        table, inv = toy_table()
        p = tmp_path_factory.mktemp("fuzz") / "table.ls"
        save_ls_table(build_ls_table(["north", "south", "flat"], table, inv), p)
        raw = bytearray(p.read_bytes())
        at = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw[at] = data.draw(st.integers(0, 255))
        p.write_bytes(bytes(raw))
        try:
            load_ls_table(p)
        except LexnerError:
            pass

    def test_label_with_a_trailing_newline_rejected(self, tmp_path):
        # a one-type table with no records, whose label is "/a\n"
        p = tmp_path / "table.ls"
        p.write_bytes(lexsim.LS_MAGIC + struct.pack("<BI", lexsim.LS_VERSION, 1)
                      + struct.pack("<H", 3) + b"/a\n" + struct.pack("<Q", 0))
        with pytest.raises(LexnerError, match="malformed type label"):
            load_ls_table(p)
