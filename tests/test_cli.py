"""End-to-end command-line tests; every command runs in process via main()."""
import io
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexner.cli import (
    PipelineConfig,
    _load_gazetteer,
    apply_config_pair,
    load_pipeline_config,
    main,
    parse_config_text,
)
from lexner.corpus import TagScheme, TypeInventory, load_column_file, tags_to_mentions, write_column_file
from lexner.embed import SUBWORD_MAGIC, EmbedConfig, EmbeddingTable, load_embeddings, save_embeddings
from lexner.errors import DataError, LexnerError, UsageError
from lexner.lexsim import load_ls_table
from lexner.tagger.model import load_checkpoint

from world import (
    BAD_CHECKPOINT_HEADERS,
    RESIZING_HEADER_EDITS,
    VOCAB,
    edit_checkpoint_header,
    resize_header,
    tagged_sentences,
    tiny_embeddings,
)

# ---------------------------------------------------------------------------
# Config document parsing
# ---------------------------------------------------------------------------

class TestConfigParsing:
    def test_sections_reach_their_configs(self):
        cfg = PipelineConfig()
        parse_config_text(
            "# comment\n"
            "\n"
            "embed.window = 3\n"
            "embed.learning_rate = 0.04\n"
            "tagger.dropout_prob = 0.2\n"
            "paths.embeddings = some/file.vec\n",
            cfg,
        )
        assert cfg.embed.window == 3
        assert cfg.embed.learning_rate == 0.04
        assert cfg.tagger.dropout_prob == 0.2
        assert cfg.paths["embeddings"] == "some/file.vec"

    def test_root_seed_sets_both_sections(self):
        cfg = PipelineConfig()
        apply_config_pair(cfg, "seed", "4")
        assert cfg.embed.seed == 4 and cfg.tagger.seed == 4
        apply_config_pair(cfg, "tagger.seed", "9")
        assert cfg.embed.seed == 4 and cfg.tagger.seed == 9

    def test_features_list_parsed_and_checked(self):
        cfg = PipelineConfig()
        apply_config_pair(cfg, "tagger.features", "word_emb, char")
        assert cfg.tagger.features == ("word_emb", "char")
        with pytest.raises(UsageError, match="unknown feature.*; known: word_emb, char"):
            apply_config_pair(cfg, "tagger.features", "word_emb,bogus")
        for bad in ("char,char", ""):
            with pytest.raises(UsageError):
                apply_config_pair(cfg, "tagger.features", bad)
        assert cfg.tagger.features == ("word_emb", "char")

    @pytest.mark.parametrize(
        "line",
        [
            "embed.widnow = 5",
            "bogus = 1",
            "paths.bogus = x",
            "tagger = 1",
            "embed.dim 5",
        ],
    )
    def test_bad_lines_rejected(self, line):
        with pytest.raises(UsageError):
            parse_config_text(line, PipelineConfig())

    def test_embed_workers_is_unknown(self):
        # the threaded trainer is gone; training is single-threaded only
        with pytest.raises(UsageError, match="unknown config key: 'embed.workers'"):
            parse_config_text("embed.workers = 2", PipelineConfig())

    def test_nul_in_a_path_is_usage_error(self):
        # a config file is the one source of paths that can hold one
        with pytest.raises(UsageError, match="paths.embeddings: a path cannot contain a NUL"):
            parse_config_text("paths.embeddings = vec\x00tors.vec", PipelineConfig())

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        start = readme.index("# pipeline.cfg\n")
        cfg = PipelineConfig()
        parse_config_text(readme[start : readme.index("```", start)], cfg)
        assert cfg.embed.seed == cfg.tagger.seed == 7
        assert cfg.tagger.features == ("word_emb", "char", "cap", "ls")
        assert cfg.paths["embeddings"] == "corpus/vectors.vec"

    def test_type_errors_name_the_key(self):
        with pytest.raises(UsageError, match="embed.dim"):
            parse_config_text("embed.dim = wide", PipelineConfig())
        with pytest.raises(UsageError, match="tagger.dropout_prob: expected a number"):
            parse_config_text("tagger.dropout_prob = high", PipelineConfig())


# ---------------------------------------------------------------------------
# prepare-dual
# ---------------------------------------------------------------------------

FIGURE_ROWS = [
    ("On", "O"),
    ("October", "B-/date"),
    ("9", "I-/date"),
    (",", "I-/date"),
    ("2009", "L-/date"),
    (",", "O"),
    ("the", "O"),
    ("Norwegian", "B-/organization/government_agency"),
    ("Nobel", "I-/organization/government_agency"),
    ("Committee", "L-/organization/government_agency"),
    ("announced", "O"),
    ("that", "O"),
    ("Obama", "U-/person/politician"),
    ("had", "O"),
    ("won", "O"),
    ("the", "O"),
    ("2009", "B-/award"),
    ("Nobel", "I-/award"),
    ("Peace", "I-/award"),
    ("Prize", "L-/award"),
    (".", "O"),
]

FIGURE_TYPES = "/date /organization/government_agency /person/politician /award".split()


class TestPrepareDual:
    def test_announcement_sentence_dual_views(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("".join(f"{w} {t}\n" for w, t in FIGURE_ROWS))
        inv = tmp_path / "types.txt"
        inv.write_text("".join(t + "\n" for t in FIGURE_TYPES))
        out = tmp_path / "dual.txt"
        assert main(["prepare-dual", "--input", str(src), "--inventory", str(inv),
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines == [
            "on october 9 , 2009 , the norwegian nobel committee announced "
            "that obama had won the 2009 nobel peace prize .",
            "on /date , the /organization/government_agency announced that "
            "/person/politician had won the /award .",
        ]

    def test_empty_input_empty_output(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("")
        inv = tmp_path / "types.txt"
        inv.write_text("/date\n")
        out = tmp_path / "dual.txt"
        assert main(["prepare-dual", "--input", str(src), "--inventory", str(inv),
                     "--output", str(out)]) == 0
        assert out.read_text() == ""

    def test_unknown_type_label_names_the_line(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("the O\nfox U-/animal\n\niron U-/bogus\n")
        inv = tmp_path / "types.txt"
        inv.write_text("/animal\n")
        out = tmp_path / "dual.txt"
        rc = main(["prepare-dual", "--input", str(src), "--inventory", str(inv),
                   "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "/bogus" in err

    def test_broken_tag_sequence_names_the_line(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("the O\n\niron I-/animal\n")
        inv = tmp_path / "types.txt"
        inv.write_text("/animal\n")
        rc = main(["prepare-dual", "--input", str(src), "--inventory", str(inv),
                   "--output", str(tmp_path / "dual.txt")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        # a sentence after a document start and a run of blank lines
        ("-DOCSTART- O\n\nthe O\n\n\n\n-DOCSTART- O\n\nfox O\niron I-/animal\n",
         "sentence starting at line 9: position 1: orphan I-/animal"),
        ("the O\n\nfox U-/animal\n\n\nthe O\nred\n", "line 7: missing tag column in 'red'"),
    ])
    def test_errors_give_absolute_line_numbers(self, tmp_path, capsys, text, message):
        src = tmp_path / "in.txt"
        src.write_text(text)
        inv = tmp_path / "types.txt"
        inv.write_text("/animal\n")
        rc = main(["prepare-dual", "--input", str(src), "--inventory", str(inv),
                   "--output", str(tmp_path / "dual.txt")])
        assert rc == 2
        assert capsys.readouterr().err == f"lexner: {message}\n"


# ---------------------------------------------------------------------------
# The composed pipeline on a generated corpus
# ---------------------------------------------------------------------------

TRAIN_FLAGS = [
    "--set", "tagger.word_hidden=16", "--set", "tagger.char_emb_dim=8",
    "--set", "tagger.char_hidden=6", "--set", "tagger.cap_emb_dim=4",
    "--set", "tagger.dropout_prob=0.15",
]


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """synth -> prepare-dual -> train-embed -> build-ls -> train-ner -> tag."""
    d = tmp_path_factory.mktemp("pipe")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("synth", "--output", d, "--sentences", 4000, "--train-size", 120,
        "--dev-size", 60, "--test-size", 80, "--seed", 1)
    run("prepare-dual", "--input", d / "distant.txt",
        "--inventory", d / "inventory.txt", "--output", d / "dual.txt")
    run("train-embed", "--input", d / "dual.txt", "--output", d / "vectors.vec",
        "--set", "embed.dim=24", "--set", "embed.epochs=3",
        "--set", "embed.learning_rate=0.05", "--set", "embed.subsample_threshold=1e-3",
        "--seed", 7)
    run("build-ls", "--embeddings", d / "vectors.vec",
        "--inventory", d / "inventory.txt", "--vocab", d / "vocab.txt",
        "--output", d / "table.lstb")
    run("train-ner", "--train", d / "train.txt", "--dev", d / "dev.txt",
        "--output", d / "model.ckpt", "--history", d / "history.tsv",
        "--embeddings", d / "vectors.vec", "--ls-table", d / "table.lstb",
        *TRAIN_FLAGS, "--set", "tagger.max_epochs=8",
        "--set", "tagger.patience=4", "--set", "tagger.seed=0")
    run("tag", "--checkpoint", d / "model.ckpt", "--input", d / "test.txt",
        "--output", d / "pred.txt", "--ls-table", d / "table.lstb")
    return d


class TestPipeline:
    def test_synth_corpus_shape(self, pipe):
        manifest = dict(
            ln.split(" = ")
            for ln in (pipe / "manifest.txt").read_text().splitlines()
            if " = " in ln
        )
        assert manifest["seed"] == "1"
        assert manifest["distant_sentences"] == "4000"
        assert float(manifest["test_oov_entity_token_rate"]) >= 0.30
        assert len(load_column_file(pipe / "train.txt")) == 120

    def test_eval_closes_the_loop(self, pipe, capsys):
        assert main(["eval", "--gold", str(pipe / "test.txt"),
                     "--pred", str(pipe / "pred.txt")]) == 0
        out = capsys.readouterr().out
        assert "FB1:" in out and "precision:" in out

    def test_eval_machine_output(self, pipe, capsys):
        assert main(["eval", "--gold", str(pipe / "test.txt"),
                     "--pred", str(pipe / "pred.txt"), "--machine"]) == 0
        pairs = dict(
            ln.split(" = ") for ln in capsys.readouterr().out.splitlines() if " = " in ln
        )
        assert 0.0 <= float(pairs["f1"]) <= 100.0
        assert int(pairs["gold_phrases"]) > 0

    def test_tagged_output_appends_column(self, pipe):
        gold = load_column_file(pipe / "test.txt")
        pred = load_column_file(pipe / "pred.txt")
        assert len(pred) == len(gold)
        for g, p in zip(gold, pred):
            assert [t.surface for t in p.tokens] == [t.surface for t in g.tokens]
            tags_to_mentions(p.tags, TagScheme.BILOU, strict=True)

    def test_predictions_match_library_tagging(self, pipe):
        ls = load_ls_table(pipe / "table.lstb")
        model = load_checkpoint(pipe / "model.ckpt", ls)
        sentences = load_column_file(pipe / "test.txt")
        assert model.tag_batch(sentences) == [s.tags for s in load_column_file(pipe / "pred.txt")]

    def test_history_log_layout(self, pipe):
        lines = (pipe / "history.tsv").read_text().splitlines()
        assert lines[0] == "# seed = 0"
        assert lines[1].startswith("# features = word_emb,char,cap,ls")
        assert lines[2] == "epoch\tloss\tdev_f1"
        rows = [ln.split("\t") for ln in lines[3:]]
        assert 1 <= len(rows) <= 8
        losses = [float(r[1]) for r in rows]
        assert losses[0] > losses[-1] > 0
        assert max(float(r[2]) for r in rows) > 0

    def test_inspect_prints_ranked_types(self, pipe, capsys):
        word = (pipe / "vocab.txt").read_text().split()[0]
        assert main(["inspect", "--embeddings", str(pipe / "vectors.vec"),
                     "--inventory", str(pipe / "inventory.txt"),
                     "--word", word, "-k", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"# word = {word}"
        assert len(out) == 4
        assert [ln.split()[0] for ln in out[1:]] == ["1", "2", "3"]

    def test_inspect_k_beyond_inventory_is_data_error(self, pipe):
        assert main(["inspect", "--embeddings", str(pipe / "vectors.vec"),
                     "--inventory", str(pipe / "inventory.txt"),
                     "--word", "anything", "-k", "99"]) == 2

    def test_train_embed_byte_identical_reruns(self, pipe, tmp_path):
        argv = ["train-embed", "--input", str(pipe / "dual.txt"),
                "--set", "embed.dim=8", "--set", "embed.epochs=1", "--seed", "3"]
        assert main(argv + ["--output", str(tmp_path / "a.vec")]) == 0
        assert main(argv + ["--output", str(tmp_path / "b.vec")]) == 0
        assert (tmp_path / "a.vec").read_bytes() == (tmp_path / "b.vec").read_bytes()

    def test_synth_reruns_identical(self, pipe, tmp_path):
        for name in ("x", "y"):
            assert main(["synth", "--output", str(tmp_path / name),
                         "--sentences", "300", "--train-size", "40",
                         "--dev-size", "20", "--test-size", "20", "--seed", "5"]) == 0
        for f in ("distant.txt", "train.txt", "dev.txt", "test.txt", "vocab.txt"):
            assert (tmp_path / "x" / f).read_bytes() == (tmp_path / "y" / f).read_bytes()

    def test_tag_reads_untagged_input(self, pipe, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        words = [t.surface for t in load_column_file(pipe / "test.txt")[0].tokens]
        plain.write_text("".join(w + "\n" for w in words))
        assert main(["tag", "--checkpoint", str(pipe / "model.ckpt"),
                     "--input", str(plain), "--ls-table", str(pipe / "table.lstb")]) == 0
        out = [ln.split() for ln in capsys.readouterr().out.splitlines() if ln]
        assert [r[0] for r in out] == words
        assert all(r[1] == "O" and len(r) == 3 for r in out)

    def test_tag_without_ls_table_is_data_error(self, pipe, capsys):
        assert main(["tag", "--checkpoint", str(pipe / "model.ckpt"),
                     "--input", str(pipe / "test.txt")]) == 2
        assert "ls block but no LS table was given" in capsys.readouterr().err

    def test_tag_rejects_non_finite_checkpoint(self, pipe, tmp_path, capsys):
        raw = bytearray((pipe / "model.ckpt").read_bytes())
        raw[-4:] = np.float32(np.inf).tobytes()
        bad = tmp_path / "inf.ckpt"
        bad.write_bytes(bytes(raw))
        assert main(["tag", "--checkpoint", str(bad), "--input", str(pipe / "test.txt"),
                     "--ls-table", str(pipe / "table.lstb")]) == 2
        assert "non-finite value" in capsys.readouterr().err


    def test_tag_rejects_non_finite_ls_table(self, pipe, tmp_path, capsys):
        raw = bytearray((pipe / "table.lstb").read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        bad = tmp_path / "nan.lstb"
        bad.write_bytes(bytes(raw))
        assert main(["tag", "--checkpoint", str(pipe / "model.ckpt"),
                     "--input", str(pipe / "test.txt"), "--ls-table", str(bad)]) == 2
        assert "non-finite value" in capsys.readouterr().err

    def test_tag_rejects_invalid_utf8_in_ls_table(self, pipe, tmp_path, capsys):
        ls = load_ls_table(pipe / "table.lstb")
        raw = bytearray((pipe / "table.lstb").read_bytes())
        # the last record is (word length, word, dim float32 values)
        word = list(ls.entries)[-1].encode("utf-8")
        raw[len(raw) - 4 * ls.dim - len(word)] = 0xFF
        bad = tmp_path / "utf8.lstb"
        bad.write_bytes(bytes(raw))
        assert main(["tag", "--checkpoint", str(pipe / "model.ckpt"),
                     "--input", str(pipe / "test.txt"), "--ls-table", str(bad)]) == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_HEADERS))
    def test_tag_rejects_bad_checkpoint_header(self, pipe, tmp_path, capsys, case):
        raw = (pipe / "model.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(edit_checkpoint_header(raw, BAD_CHECKPOINT_HEADERS[case]))
        assert main(["tag", "--checkpoint", str(bad), "--input", str(pipe / "test.txt"),
                     "--ls-table", str(pipe / "table.lstb")]) == 2
        assert "bad checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(RESIZING_HEADER_EDITS))
    def test_tag_rejects_resized_checkpoint_header(self, pipe, tmp_path, capsys, case):
        raw = (pipe / "model.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(edit_checkpoint_header(
            raw, lambda h: resize_header(h, *RESIZING_HEADER_EDITS[case])))
        assert main(["tag", "--checkpoint", str(bad), "--input", str(pipe / "test.txt"),
                     "--ls-table", str(pipe / "table.lstb")]) == 2
        err = capsys.readouterr().err
        assert "truncated tensor" in err or "trailing bytes" in err

    def test_tag_rejects_a_version_1_checkpoint(self, pipe, tmp_path, capsys):
        raw = bytearray((pipe / "model.ckpt").read_bytes())
        raw[4] = 1
        old = tmp_path / "v1.ckpt"
        old.write_bytes(bytes(raw))
        assert main(["tag", "--checkpoint", str(old), "--input", str(pipe / "test.txt"),
                     "--ls-table", str(pipe / "table.lstb")]) == 2
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def _with_bad_byte(src: Path, dst: Path) -> int:
    """Copy src to dst with a 0xff byte opening its second line; return its offset."""
    data = src.read_bytes()
    cut = data.index(b"\n") + 1
    dst.write_bytes(data[:cut] + b"\xff" + data[cut:])
    return cut


TRAIN_ARGS = ["--embeddings", "{d}/vectors.vec", "--ls-table", "{d}/table.lstb", *TRAIN_FLAGS]
ABLATE_ARGS = ["--feature-sets", "char", "--runs", "1"]

# every text file argument: (argv, the pipeline file whose corrupted copy is
# {bad}); {d} is the pipeline directory and {out} a path that must not appear
BAD_BYTE_CASES = {
    "prepare-dual --input": (["prepare-dual", "--input", "{bad}", "--inventory", "{d}/inventory.txt",
                              "--output", "{out}"], "distant.txt"),
    "prepare-dual --inventory": (["prepare-dual", "--input", "{d}/distant.txt", "--inventory", "{bad}",
                                  "--output", "{out}"], "inventory.txt"),
    "train-embed --input": (["train-embed", "--input", "{bad}", "--output", "{out}"], "dual.txt"),
    "train-embed --config": (["train-embed", "--input", "{d}/dual.txt", "--output", "{out}",
                              "--config", "{bad}"], None),
    "build-ls --vocab": (["build-ls", "--embeddings", "{d}/vectors.vec", "--inventory",
                          "{d}/inventory.txt", "--vocab", "{bad}", "--output", "{out}"], "vocab.txt"),
    "build-ls --inventory": (["build-ls", "--embeddings", "{d}/vectors.vec", "--inventory", "{bad}",
                              "--vocab", "{d}/vocab.txt", "--output", "{out}"], "inventory.txt"),
    "inspect --inventory": (["inspect", "--embeddings", "{d}/vectors.vec", "--inventory", "{bad}",
                             "--word", "paris"], "inventory.txt"),
    "train-ner --train": (["train-ner", "--train", "{bad}", "--dev", "{d}/dev.txt",
                           "--output", "{out}", *TRAIN_ARGS], "train.txt"),
    "train-ner --dev": (["train-ner", "--train", "{d}/train.txt", "--dev", "{bad}",
                         "--output", "{out}", *TRAIN_ARGS], "dev.txt"),
    "train-ner --gazetteer": (["train-ner", "--train", "{d}/train.txt", "--dev", "{d}/dev.txt",
                               "--output", "{out}", *TRAIN_ARGS, "--gazetteer", "places={bad}"],
                              "vocab.txt"),
    "tag --input": (["tag", "--checkpoint", "{d}/model.ckpt", "--ls-table", "{d}/table.lstb",
                     "--input", "{bad}", "--output", "{out}"], "test.txt"),
    "eval --gold": (["eval", "--gold", "{bad}", "--pred", "{d}/pred.txt"], "test.txt"),
    "eval --pred": (["eval", "--gold", "{d}/test.txt", "--pred", "{bad}"], "pred.txt"),
    "ablate --train": (["ablate", "--train", "{bad}", "--dev", "{d}/dev.txt", "--test", "{d}/test.txt",
                        *ABLATE_ARGS], "train.txt"),
    "ablate --dev": (["ablate", "--train", "{d}/train.txt", "--dev", "{bad}", "--test", "{d}/test.txt",
                      *ABLATE_ARGS], "dev.txt"),
    "ablate --test": (["ablate", "--train", "{d}/train.txt", "--dev", "{d}/dev.txt", "--test", "{bad}",
                       *ABLATE_ARGS], "test.txt"),
    "ablate --gazetteer": (["ablate", "--train", "{d}/train.txt", "--dev", "{d}/dev.txt",
                            "--test", "{d}/test.txt", *ABLATE_ARGS, "--gazetteer", "places={bad}"],
                           "vocab.txt"),
}


class TestNonUtf8Inputs:
    @pytest.mark.parametrize("case", sorted(BAD_BYTE_CASES))
    def test_bad_byte_is_data_error_naming_file_line_and_offset(self, pipe, tmp_path, capsys, case):
        argv, source = BAD_BYTE_CASES[case]
        if source is None:  # a config file of our own
            src = tmp_path / "config.txt"
            src.write_text("embed.dim = 8\nembed.epochs = 1\n")
        else:
            src = pipe / source
        bad = tmp_path / ("bad-" + src.name)
        offset = _with_bad_byte(src, bad)
        out = tmp_path / "out"
        assert main([a.format(d=pipe, bad=bad, out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lexner: ") and "Traceback" not in err
        assert f"{bad}: line 2 is not UTF-8 text (at byte offset {offset})" in err
        assert not out.exists()


TINY_FLAGS = ["--set", "tagger.word_hidden=4", "--set", "tagger.char_emb_dim=3",
              "--set", "tagger.char_hidden=2", "--set", "tagger.cap_emb_dim=2",
              "--set", "tagger.max_epochs=1", "--set", "tagger.batch_size=3"]


@pytest.fixture(scope="module")
def bins(tmp_path_factory):
    """Tiny binary files (vectors with a subword section, LS table, checkpoint)
    and the text files the commands read beside them."""
    d = tmp_path_factory.mktemp("bins")
    table, inventory = tiny_embeddings()
    buckets = np.random.default_rng(3).normal(size=(31, table.dim))
    save_embeddings(EmbeddingTable(table.words, table.vectors, buckets), d / "vectors.vec")
    inventory.save(d / "inventory.txt")
    (d / "vocab.txt").write_text("".join(w + "\n" for w in VOCAB))
    write_column_file(d / "train.txt", tagged_sentences())
    assert main(["build-ls", "--embeddings", str(d / "vectors.vec"), "--inventory",
                 str(d / "inventory.txt"), "--vocab", str(d / "vocab.txt"),
                 "--output", str(d / "table.lstb")]) == 0
    assert main(["train-ner", "--train", str(d / "train.txt"), "--dev", str(d / "train.txt"),
                 "--output", str(d / "model.ckpt"), "--embeddings", str(d / "vectors.vec"),
                 "--ls-table", str(d / "table.lstb"), *TINY_FLAGS]) == 0
    return d


_TINY_FIT = ["--train", "{d}/train.txt", "--dev", "{d}/train.txt", *TINY_FLAGS]

# every binary file argument: (argv, the file whose corrupted copy is {bad})
BINARY_CASES = {
    "tag --checkpoint": (["tag", "--checkpoint", "{bad}", "--ls-table", "{d}/table.lstb",
                          "--input", "{d}/train.txt", "--output", "{out}"], "model.ckpt"),
    "tag --ls-table": (["tag", "--checkpoint", "{d}/model.ckpt", "--ls-table", "{bad}",
                        "--input", "{d}/train.txt", "--output", "{out}"], "table.lstb"),
    "train-ner --ls-table": (["train-ner", *_TINY_FIT, "--output", "{out}",
                              "--embeddings", "{d}/vectors.vec", "--ls-table", "{bad}"], "table.lstb"),
    "train-ner --embeddings": (["train-ner", *_TINY_FIT, "--output", "{out}",
                                "--embeddings", "{bad}", "--ls-table", "{d}/table.lstb"], "vectors.vec"),
    "ablate --ls-table": (["ablate", *_TINY_FIT, "--test", "{d}/train.txt", "--runs", "1",
                           "--feature-sets", "ls", "--ls-table", "{bad}"], "table.lstb"),
    "ablate --embeddings": (["ablate", *_TINY_FIT, "--test", "{d}/train.txt", "--runs", "1",
                             "--feature-sets", "word_emb", "--embeddings", "{bad}"], "vectors.vec"),
    "build-ls --embeddings": (["build-ls", "--embeddings", "{bad}", "--inventory", "{d}/inventory.txt",
                               "--vocab", "{d}/vocab.txt", "--output", "{out}"], "vectors.vec"),
    "inspect --embeddings": (["inspect", "--embeddings", "{bad}", "--inventory", "{d}/inventory.txt",
                              "--word", "rusty"], "vectors.vec"),
}


def _run_on_copy(d: Path, case: str, raw: bytes) -> tuple[int, str]:
    """Run a BINARY_CASES command with raw as its bad file; (exit code, stderr)."""
    argv, name = BINARY_CASES[case]
    bad = d / ("bad-" + name)
    bad.write_bytes(raw)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([a.format(d=d, bad=bad, out=d / "out") for a in argv])
    return code, err.getvalue()


# every text file build-ls reads besides its vector file: (argv, the file in
# the bins directory whose corrupted copy is {bad}, the exit codes it may give);
# a config file's unknown key or bad value is a usage error, exit 1
TEXT_CASES = {
    "build-ls --inventory": (["build-ls", "--embeddings", "{d}/vectors.vec", "--inventory", "{bad}",
                              "--vocab", "{d}/vocab.txt", "--output", "{out}"], "inventory.txt", (0, 2)),
    "build-ls --vocab": (["build-ls", "--embeddings", "{d}/vectors.vec", "--inventory",
                          "{d}/inventory.txt", "--vocab", "{bad}", "--output", "{out}"], "vocab.txt", (0, 2)),
    "build-ls --config": (["build-ls", "--config", "{bad}", "--vocab", "{d}/vocab.txt",
                           "--output", "{out}"], "config.txt", (0, 1, 2)),
}


def text_source(d: Path, name: str) -> bytes:
    """The uncorrupted bytes of a TEXT_CASES file."""
    if name != "config.txt":
        return (d / name).read_bytes()
    return (f"# build-ls inputs\npaths.embeddings = {d}/vectors.vec\n"
            f"paths.inventory = {d}/inventory.txt\nseed = 3\nembed.window = 2\n"
            "tagger.features = word_emb, char\n").encode()


def try_reader(read) -> None:
    """Call a reader of a corrupted file: it may return or raise a LexnerError."""
    try:
        read()
    except LexnerError:
        pass


def _run_text_case(d: Path, case: str) -> tuple[int, str]:
    argv, name, _ = TEXT_CASES[case]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([a.format(d=d, bad=d / ("bad-" + name), out=d / "out") for a in argv])
    return code, err.getvalue()


class TestCorruptedBinaryInputs:
    @pytest.mark.parametrize("case", sorted(BINARY_CASES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_byte_flip_or_truncation_is_a_clean_error(self, bins, case, data):
        raw = bytearray((bins / BINARY_CASES[case][1]).read_bytes())
        # one branch aims at the binary header (a vector file's is after its text rows)
        hot = max(0, raw.find(SUBWORD_MAGIC))
        at = data.draw(st.integers(0, len(raw) - 1) | st.integers(hot, min(len(raw), hot + 32) - 1))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw[at] = data.draw(st.integers(0, 255))
        code, err = _run_on_copy(bins, case, bytes(raw))
        # a flip inside a stored float can leave a valid file
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code:
            assert err.splitlines()[-1].startswith("lexner: ")

    @pytest.mark.parametrize("case", sorted(TEXT_CASES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_text_reader_byte_flip_or_truncation_is_a_clean_error(self, bins, case, data):
        argv, name, codes = TEXT_CASES[case]
        raw = bytearray(text_source(bins, name))
        at = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw[at] = data.draw(st.integers(0, 255) | st.sampled_from(b"\x00\n/=.#"))
        bad = bins / ("bad-" + name)
        bad.write_bytes(bytes(raw))
        if name == "inventory.txt":
            try_reader(lambda: TypeInventory.load(bad))
        if name == "config.txt":
            try_reader(lambda: load_pipeline_config(Namespace(config=str(bad), seed=None, set=None)))
        code, err = _run_text_case(bins, case)
        assert code in codes
        assert "Traceback" not in err
        if code:
            assert err.splitlines()[-1].startswith("lexner: ")

    @pytest.mark.parametrize("case", [c for c in sorted(BINARY_CASES) if c.endswith("--embeddings")])
    def test_huge_subword_bucket_count(self, bins, case):
        raw = bytearray((bins / "vectors.vec").read_bytes())
        at = raw.index(SUBWORD_MAGIC) + 7  # after magic, version and the n-gram range
        raw[at : at + 4] = (2**32 - 1).to_bytes(4, "little")
        code, err = _run_on_copy(bins, case, bytes(raw))
        assert code == 2
        assert err.startswith("lexner: truncated subword bucket data")


class TestAblate:
    def test_combined_features_beat_each_alone(self, pipe, capsys):
        rc = main(["ablate", "--train", str(pipe / "train.txt"),
                   "--dev", str(pipe / "dev.txt"), "--test", str(pipe / "test.txt"),
                   "--feature-sets", "word_emb;ls;word_emb,ls", "--runs", "1",
                   "--embeddings", str(pipe / "vectors.vec"),
                   "--ls-table", str(pipe / "table.lstb"),
                   "--set", "tagger.word_hidden=16", "--set", "tagger.dropout_prob=0.15",
                   "--set", "tagger.max_epochs=16", "--set", "tagger.patience=16",
                   "--set", "tagger.seed=0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# ablate: runs = 1, seeds = 0..0"
        assert lines[1] == "features\tmean_f1\tstdev\truns"
        rows = {r[0]: r for r in (ln.split("\t") for ln in lines[2:])}
        assert list(rows) == ["word_emb", "ls", "word_emb+ls"]
        means = {name: float(r[1]) for name, r in rows.items()}
        assert means["word_emb+ls"] > means["word_emb"]
        assert means["word_emb+ls"] > means["ls"]
        # one run per row: stdev is exactly zero
        assert all(r[2] == "0.00" for r in rows.values())

    def test_unknown_feature_is_usage_error(self, pipe, capsys):
        rc = main(["ablate", "--train", str(pipe / "train.txt"),
                   "--dev", str(pipe / "dev.txt"), "--test", str(pipe / "test.txt"),
                   "--feature-sets", "word_emb,bogus"])
        assert rc == 1
        assert "unknown feature" in capsys.readouterr().err

    def test_zero_runs_is_usage_error(self, pipe):
        assert main(["ablate", "--train", str(pipe / "train.txt"),
                     "--dev", str(pipe / "dev.txt"), "--test", str(pipe / "test.txt"),
                     "--feature-sets", "ls", "--runs", "0"]) == 1


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

class TestExitCodes:
    def test_missing_required_flag(self, capsys):
        assert main(["tag", "--input", "x.txt"]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["frobnicate", "gradcheck"])
    def test_unknown_command(self, command):
        assert main([command]) == 1

    def test_train_embed_on_one_word_vocabulary(self, tmp_path, capsys):
        src = tmp_path / "one.txt"
        src.write_text("a a\n")
        assert main(["train-embed", "--input", str(src), "--output", str(tmp_path / "v.vec"),
                     "--set", "embed.min_count=1", "--set", "embed.subsample_threshold=0"]) == 2
        assert "negative sampling needs at least two" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tagger.clip_norm", "tagger.learning_rate",
                                     "embed.learning_rate", "embed.subsample_threshold"])
    def test_non_finite_setting(self, tmp_path, capsys, key):
        src = tmp_path / "in.txt"
        src.write_text("a b\n")
        assert main(["train-embed", "--input", str(src), "--output", str(tmp_path / "v.vec"),
                     "--set", f"{key}=nan"]) == 2
        assert "must be" in capsys.readouterr().err and not (tmp_path / "v.vec").exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--set", "embed.seed=-5"]])
    def test_negative_embed_seed(self, tmp_path, capsys, flags):
        src = tmp_path / "in.txt"
        src.write_text("a b\n")
        assert main(["train-embed", "--input", str(src), "--output", str(tmp_path / "v.vec"),
                     *flags]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "v.vec").exists()

    def test_negative_synth_seed(self, tmp_path, capsys):
        assert main(["synth", "--output", str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--sentences", "--train-size", "--dev-size", "--test-size"])
    def test_negative_synth_size(self, tmp_path, capsys, flag):
        assert main(["synth", "--output", str(tmp_path / "out"), flag, "-3"]) == 1
        assert f"{flag} must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_gazetteer_name(self, bins, tmp_path, capsys):
        lists = []
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text(f"{name}\n")
            lists.append(f"animals={tmp_path / name}")
        with pytest.raises(UsageError, match="--gazetteer names 'animals' twice"):
            _load_gazetteer(lists)
        out = tmp_path / "model.ckpt"
        assert main(["train-ner", "--train", str(bins / "train.txt"), "--dev", str(bins / "train.txt"),
                     "--output", str(out), "--embeddings", str(bins / "vectors.vec"),
                     "--ls-table", str(bins / "table.lstb"), *TINY_FLAGS,
                     "--gazetteer", lists[0], "--gazetteer", lists[1]]) == 1
        assert "'animals' twice" in capsys.readouterr().err and not out.exists()

    def test_negative_tagger_seed(self, bins, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        assert main(["train-ner", "--train", str(bins / "train.txt"), "--dev", str(bins / "train.txt"),
                     "--output", str(out), "--embeddings", str(bins / "vectors.vec"),
                     "--ls-table", str(bins / "table.lstb"), *TINY_FLAGS,
                     "--set", "tagger.seed=-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("command,target,flags", [
        ("train-embed", "lexner.cli.train_skipgram", ["--input", "{d}/vocab.txt"]),
        ("tag", "lexner.tagger.model.TaggerModel.tag_batch",
         ["--checkpoint", "{d}/model.ckpt", "--ls-table", "{d}/table.lstb", "--input", "{d}/train.txt"]),
    ], ids=["train-embed", "tag"])
    def test_out_of_memory_names_the_command(self, bins, tmp_path, capsys, monkeypatch,
                                             command, target, flags):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(target, no_memory)
        out = tmp_path / "out"
        assert main([command, *(f.format(d=bins) for f in flags), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"lexner: {command}: out of memory: Unable to allocate 72.8 TiB" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("rate,diverges", [
        pytest.param("1e300", True, marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered in matmul:RuntimeWarning")),
        ("1e38", True), ("1e20", False), ("1e5", False)])
    def test_a_written_checkpoint_loads(self, bins, tmp_path, capsys, rate, diverges):
        """A fit writes a checkpoint that `tag` loads, or it diverged: then it
        exits 3 and leaves the file at its output path as it was."""
        out = tmp_path / "model.ckpt"
        out.write_bytes(b"an earlier file")
        rc = main(["train-ner", "--train", str(bins / "train.txt"), "--dev", str(bins / "train.txt"),
                   "--output", str(out), "--embeddings", str(bins / "vectors.vec"),
                   "--ls-table", str(bins / "table.lstb"), *TINY_FLAGS,
                   "--set", f"tagger.learning_rate={rate}", "--set", "tagger.max_epochs=2"])
        if diverges:
            assert rc == 3 and "does not fit in float32; the fit diverged" in capsys.readouterr().err
            assert out.read_bytes() == b"an earlier file"
        else:
            assert rc == 0
            assert main(["tag", "--checkpoint", str(out), "--ls-table", str(bins / "table.lstb"),
                         "--input", str(bins / "train.txt"), "--output", str(tmp_path / "tags.txt")]) == 0

    def test_train_ner_with_an_empty_dev_set(self, bins, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "model.ckpt"
        assert main(["train-ner", "--train", str(bins / "train.txt"), "--dev", str(empty),
                     "--output", str(out), "--embeddings", str(bins / "vectors.vec"),
                     "--ls-table", str(bins / "table.lstb"), *TINY_FLAGS]) == 2
        assert "empty dev set" in capsys.readouterr().err and not out.exists()

    def test_zero_dimension_vector_file(self, tmp_path, capsys):
        vec = tmp_path / "zero.vec"
        vec.write_text("2 0\n/t\nfox\n")
        inv = tmp_path / "inv.txt"
        inv.write_text("/t\n")
        assert main(["inspect", "--embeddings", str(vec), "--inventory", str(inv),
                     "--word", "fox"]) == 2
        assert "lexner: " in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert main(["eval", "--gold", str(tmp_path / "nope.txt"),
                     "--pred", str(tmp_path / "nope.txt")]) == 2

    def test_unknown_config_key_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("embed.widnow = 5\n")
        assert main(["train-embed", "--input", str(tmp_path / "in.txt"),
                     "--output", str(tmp_path / "out.vec"),
                     "--config", str(cfg)]) == 1
        assert "embed.widnow" in capsys.readouterr().err

    def test_mismatched_eval_files(self, tmp_path):
        gold = tmp_path / "gold.txt"
        gold.write_text("a O\n\nb O\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("a O\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 2

    def test_output_into_missing_directory(self, pipe):
        assert main(["train-embed", "--input", str(pipe / "dual.txt"),
                     "--output", str(pipe / "no" / "dir" / "out.vec")]) == 2


class TestLineEndings:
    """Text inputs end lines at newlines only, as column files do."""

    def test_train_embed_keeps_nel_inside_a_line(self, tmp_path, capsys):
        src = tmp_path / "nel.txt"
        src.write_text("aa\x85bb cc\n" * 3, encoding="utf-8")
        assert main(["train-embed", "--input", str(src), "--output", str(tmp_path / "v.vec"),
                     "--set", "embed.min_count=1", "--set", "embed.dim=4",
                     "--set", "embed.epochs=1", "--set", "embed.bucket_count=50"]) == 0
        assert "train-embed: 3 lines" in capsys.readouterr().err

    def test_config_gazetteer_and_inventory_readers(self, tmp_path):
        cfg = PipelineConfig()
        parse_config_text("# note\x85embed.window = 3\n", cfg)
        assert cfg.embed.window == EmbedConfig().window  # the whole line is a comment
        gaz = tmp_path / "gaz.txt"
        gaz.write_text("new\u2028york\n", encoding="utf-8")
        assert _load_gazetteer([f"places={gaz}"]).entries["places"] == {("new", "york")}
        inv = tmp_path / "inv.txt"
        inv.write_text("/a\x85/b\n", encoding="utf-8")
        with pytest.raises(DataError, match="malformed type label"):
            TypeInventory.load(inv)


class TestConfigPrecedence:
    def test_flags_override_file_and_seed_lands_in_artifacts(self, pipe, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("embed.dim = 12\nembed.epochs = 1\nseed = 5\n")
        out = tmp_path / "out.vec"
        assert main(["train-embed", "--input", str(pipe / "dual.txt"),
                     "--output", str(out), "--config", str(cfg),
                     "--set", "embed.dim=16"]) == 0
        table = load_embeddings(out)
        assert table.dim == 16  # flag beat the file
        assert table.seed == 5  # root seed from the file reached the artifact

    def test_seed_flag_overrides_file_seed(self, pipe, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 5\nembed.dim = 8\nembed.epochs = 1\n")
        out = tmp_path / "out.vec"
        assert main(["train-embed", "--input", str(pipe / "dual.txt"),
                     "--output", str(out), "--config", str(cfg), "--seed", "9"]) == 0
        assert load_embeddings(out).seed == 9
