"""Command-line driver wiring the pipeline stages together.

Stages compose through files: prepare-dual writes the two-view token stream,
train-embed fits vectors on it, build-ls precomputes the per-word type
similarity table, train-ner fits the tagger, tag and eval close the loop.
ablate compares feature sets; synth generates the bundled synthetic corpus
the whole chain can be exercised on.

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure. Progress
lines go to standard error; machine output to standard out or files only.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .corpus import (
    TagScheme,
    TypeInventory,
    convert_scheme,
    dual_views,
    format_column,
    iter_column_file,
    load_column_file,
    mentions_to_tags,
    read_lines,
    read_text,
    tags_to_mentions,
    write_column_file,
)
from .embed import EmbedConfig, load_embeddings, save_embeddings, train_skipgram
from .errors import DataError, LexnerError, NumericalError, UsageError
from .evaluation import evaluate
from .lexsim import (
    build_ls_table,
    load_ls_table,
    save_ls_table,
    top_k_types,
)
from .synth import distant_sentences, make_world, ner_dataset
from .tagger import Gazetteer, TaggerConfig, train
from .tagger.model import load_checkpoint, save_checkpoint

_PATH_KEYS = ("embeddings", "ls_table", "inventory")


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

@dataclass
class PipelineConfig:
    """Everything a command run depends on besides its input files.

    Built from an optional flat key-value config file plus flag overrides.
    Keys use section prefixes: `embed.window = 5`, `tagger.dropout_prob = 0.5`,
    `paths.embeddings = vectors.vec`. The bare key `seed` is the root seed; it
    sets both `embed.seed` and `tagger.seed`, with the specific keys winning
    when given in the same layer.
    """

    embed: EmbedConfig = field(default_factory=EmbedConfig)
    tagger: TaggerConfig = field(default_factory=TaggerConfig)
    paths: dict[str, str] = field(default_factory=dict)


def _with_features(tcfg: TaggerConfig, features) -> TaggerConfig:
    """tcfg with another feature set; a bad set is a usage error."""
    try:
        return replace(tcfg, features=features)
    except DataError as e:
        raise UsageError(str(e)) from None


def _coerce(key: str, raw: str, template):
    """`raw` as the type of `template`: an int, a float or a tuple of words."""
    if isinstance(template, int):
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"{key}: expected an integer, got {raw!r}") from None
    if isinstance(template, float):
        try:
            return float(raw)
        except ValueError:
            raise UsageError(f"{key}: expected a number, got {raw!r}") from None
    return tuple(p for p in raw.replace(",", " ").split() if p)


def apply_config_pair(cfg: PipelineConfig, key: str, raw: str) -> None:
    key = key.strip()
    if key == "seed":
        value = _coerce(key, raw, 0)
        cfg.embed = replace(cfg.embed, seed=value)
        cfg.tagger = replace(cfg.tagger, seed=value)
        return
    section, dot, name = key.partition(".")
    if dot and section == "paths":
        if name not in _PATH_KEYS:
            raise UsageError(f"unknown config key: {key!r}")
        if "\0" in raw:  # no file system takes it; open() would raise ValueError
            raise UsageError(f"{key}: a path cannot contain a NUL character")
        cfg.paths[name] = raw.strip()
        return
    if dot and section in ("embed", "tagger"):
        target = cfg.embed if section == "embed" else cfg.tagger
        known = {f.name: getattr(target, f.name) for f in fields(target)}
        if name not in known:
            raise UsageError(f"unknown config key: {key!r}")
        value = _coerce(key, raw, known[name])
        if key == "tagger.features":
            cfg.tagger = _with_features(cfg.tagger, value)
        elif section == "embed":
            cfg.embed = replace(cfg.embed, **{name: value})
        else:
            cfg.tagger = replace(cfg.tagger, **{name: value})
        return
    raise UsageError(f"unknown config key: {key!r}")


def parse_config_text(text: str, cfg: PipelineConfig) -> None:
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {line!r}")
        apply_config_pair(cfg, key.strip(), value.strip())


def load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """File first, then flags: `--seed`, then each `--set KEY=VALUE` in order."""
    cfg = PipelineConfig()
    path = getattr(args, "config", None)
    if path:
        parse_config_text(read_text(path), cfg)
    seed = getattr(args, "seed", None)
    if seed is not None:
        apply_config_pair(cfg, "seed", str(seed))
    for pair in getattr(args, "set", None) or []:
        key, eq, value = pair.partition("=")
        if not eq:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        apply_config_pair(cfg, key.strip(), value.strip())
    return cfg


def _flag_or_path(args, cfg: PipelineConfig, attr: str, key: str, required: bool = True):
    value = getattr(args, attr, None) or cfg.paths.get(key)
    if required and not value:
        flag = "--" + attr.replace("_", "-")
        raise UsageError(f"missing {flag} (or paths.{key} in the config file)")
    return value


def _check_output_dir(path: str) -> None:
    # catch a bad destination before a long training stage, not after
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise DataError(f"output directory does not exist: {parent}")


# ---------------------------------------------------------------------------
# Shared input handling
# ---------------------------------------------------------------------------

def progress_to_stderr(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _load_tagged(path: str, scheme: TagScheme) -> list:
    """The sentences of a column file, their tags decoded strictly, in BILOU."""
    return load_column_file(path, check=lambda s: s.with_tags(
        convert_scheme(s.tags, scheme, TagScheme.BILOU)))


def _decoded(scheme: TagScheme):
    """A column-file check: the sentence with the mentions its tags strictly decode to."""
    return lambda s: replace(s, mentions=tags_to_mentions(s.tags, scheme, strict=True))


def _load_gazetteer(pairs: list[str] | None) -> Gazetteer | None:
    if not pairs:
        return None
    lists: dict[str, list[str]] = {}
    for pair in pairs:
        name, eq, path = pair.partition("=")
        if not eq or not name:
            raise UsageError(f"--gazetteer expects NAME=PATH, got {pair!r}")
        if name in lists:
            raise UsageError(f"--gazetteer names {name!r} twice")
        lists[name] = [ln.strip() for ln in read_lines(path) if ln.strip()]
    return Gazetteer(lists)


def _load_tagger_inputs(args, cfg: PipelineConfig, feats):
    """Embeddings / LS table / gazetteer, as far as the feature set needs them."""
    pretrained = None
    if "word_emb" in feats:
        pretrained = load_embeddings(_flag_or_path(args, cfg, "embeddings", "embeddings"))
    ls = None
    if "ls" in feats:
        ls = load_ls_table(_flag_or_path(args, cfg, "ls_table", "ls_table"))
    gaz = _load_gazetteer(getattr(args, "gazetteer", None))
    if "gazetteer" in feats and gaz is None:
        raise UsageError("feature set includes gazetteer but no --gazetteer NAME=PATH given")
    return pretrained, ls, gaz


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_prepare_dual(args) -> int:
    inventory = TypeInventory.load(args.inventory)
    decode = _decoded(TagScheme.parse(args.scheme))
    views = iter_column_file(args.input, check=lambda s: dual_views(decode(s), inventory))
    n = 0
    with open(args.output, "w", encoding="utf-8") as out:
        for raw, typed in views:
            out.write(f"{raw}\n{typed}\n")
            n += 1
    progress_to_stderr(f"prepare-dual: {n} sentences -> {args.output}")
    return 0


def cmd_train_embed(args) -> int:
    cfg = load_pipeline_config(args)
    _check_output_dir(args.output)
    lines = read_lines(args.input)
    progress_to_stderr(
        f"train-embed: {len(lines)} lines, dim {cfg.embed.dim}, "
        f"{cfg.embed.epochs} epochs, seed {cfg.embed.seed}"
    )
    t0 = time.time()
    table = train_skipgram(lines, cfg.embed)
    losses = " ".join(f"{x:.4f}" for x in table.epoch_losses)
    progress_to_stderr(
        f"train-embed: {len(table.words)} words in {time.time() - t0:.1f}s, "
        f"epoch losses {losses}"
    )
    save_embeddings(table, args.output)
    return 0


def cmd_build_ls(args) -> int:
    cfg = load_pipeline_config(args)
    table = load_embeddings(_flag_or_path(args, cfg, "embeddings", "embeddings"))
    inventory = TypeInventory.load(_flag_or_path(args, cfg, "inventory", "inventory"))
    vocab = read_text(args.vocab).split()
    if not vocab:
        raise DataError(f"empty vocabulary file: {args.vocab}")
    ls = build_ls_table(vocab, table, inventory)
    save_ls_table(ls, args.output)
    progress_to_stderr(
        f"build-ls: {len(ls)} words x {ls.dim} types -> {args.output} "
        f"(hash {ls.content_hash()[:16]})"
    )
    return 0


def cmd_inspect(args) -> int:
    table = load_embeddings(args.embeddings)
    inventory = TypeInventory.load(args.inventory)
    k = args.k if args.k is not None else min(5, len(inventory))
    rows = top_k_types(args.word, k, table, inventory)
    width = max(len(label) for label, _ in rows)
    print(f"# word = {args.word}")
    for rank, (label, cos) in enumerate(rows, start=1):
        print(f"{rank:2d}  {label:<{width}}  {cos:+.4f}")
    return 0


def _write_history(path: str, tcfg: TaggerConfig, history: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# seed = {tcfg.seed}\n")
        fh.write(f"# features = {','.join(tcfg.features)}\n")
        fh.write("epoch\tloss\tdev_f1\n")
        for h in history:
            fh.write(f"{h['epoch']}\t{h['loss']:.6f}\t{h['dev_f1']:.2f}\n")


def cmd_train_ner(args) -> int:
    cfg = load_pipeline_config(args)
    scheme = TagScheme.parse(args.scheme)
    _check_output_dir(args.output)
    if args.history:
        _check_output_dir(args.history)
    train_set = _load_tagged(args.train, scheme)
    dev_set = _load_tagged(args.dev, scheme)
    pretrained, ls, gaz = _load_tagger_inputs(args, cfg, cfg.tagger.features)
    progress_to_stderr(
        f"train-ner: {len(train_set)} train / {len(dev_set)} dev sentences, "
        f"features {'+'.join(cfg.tagger.features)}, seed {cfg.tagger.seed}"
    )
    model, history = train(
        train_set, dev_set, cfg.tagger, pretrained, ls, gaz,
        progress=progress_to_stderr,
    )
    save_checkpoint(model, args.output)
    if args.history:
        _write_history(args.history, cfg.tagger, history)
    best = max(h["dev_f1"] for h in history)
    progress_to_stderr(f"train-ner: best dev F1 {best:.2f} -> {args.output}")
    return 0


def cmd_tag(args) -> int:
    ls = load_ls_table(args.ls_table) if args.ls_table else None
    model = load_checkpoint(args.checkpoint, ls)
    sentences = load_column_file(args.input, require_tags=False)
    predicted = model.tag_batch(sentences)
    text = format_column(sentences, extra_tags=predicted)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    progress_to_stderr(f"tag: {len(sentences)} sentences")
    return 0


def cmd_eval(args) -> int:
    scheme = TagScheme.parse(args.scheme)
    gold = load_column_file(args.gold, check=_decoded(scheme))
    pred = load_column_file(args.pred)
    report = evaluate(gold, pred, scheme)
    print(report.machine() if args.machine else report.text())
    return 0


def _parse_feature_sets(spec: str, tcfg: TaggerConfig) -> list[tuple[str, ...]]:
    groups = [g for g in (part.strip() for part in spec.split(";")) if g]
    if not groups:
        raise UsageError("empty --feature-sets")
    return [_with_features(tcfg, _coerce("feature set", g, ())).features for g in groups]


def cmd_ablate(args) -> int:
    cfg = load_pipeline_config(args)
    scheme = TagScheme.parse(args.scheme)
    feature_sets = _parse_feature_sets(args.feature_sets, cfg.tagger)
    if args.runs < 1:
        raise UsageError(f"--runs must be >= 1, got {args.runs}")
    train_set = _load_tagged(args.train, scheme)
    dev_set = _load_tagged(args.dev, scheme)
    test_set = _load_tagged(args.test, scheme)

    # load once against the union so every row sees identical inputs
    union = {f for fs in feature_sets for f in fs}
    pretrained, ls, gaz = _load_tagger_inputs(args, cfg, union)

    base = cfg.tagger.seed
    print(f"# ablate: runs = {args.runs}, seeds = {base}..{base + args.runs - 1}")
    print("features\tmean_f1\tstdev\truns")
    for feats in feature_sets:
        scores = []
        for r in range(args.runs):
            tcfg = replace(cfg.tagger, seed=base + r, features=feats)
            model, _ = train(train_set, dev_set, tcfg, pretrained, ls, gaz)
            f1 = evaluate(test_set, model.tag_batch(test_set)).f1
            scores.append(f1)
            progress_to_stderr(
                f"ablate: {'+'.join(feats)} seed {base + r}: test F1 {f1:.2f}"
            )
        mean = statistics.fmean(scores)
        stdev = statistics.pstdev(scores)
        print(
            f"{'+'.join(feats)}\t{mean:.2f}\t{stdev:.2f}\t"
            + " ".join(f"{x:.2f}" for x in scores)
        )
    return 0


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else 1
    if seed < 0:
        raise DataError("seed must be non-negative")
    for flag in ("sentences", "train_size", "dev_size", "test_size"):
        if getattr(args, flag) < 0:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 0, got {getattr(args, flag)}")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    world = make_world(seed=seed)
    progress_to_stderr(f"synth: generating {args.sentences} distant sentences")
    distant = distant_sentences(world, args.sentences, seed=seed + 1)
    tagged = [
        s.with_tags(mentions_to_tags(s.mentions, len(s)))
        for s in distant
    ]
    write_column_file(out / "distant.txt", tagged)
    world.inventory.save(out / "inventory.txt")

    splits = ner_dataset(
        world, seed=seed + 2,
        n_train=args.train_size, n_dev=args.dev_size, n_test=args.test_size,
    )
    write_column_file(out / "train.txt", splits.train)
    write_column_file(out / "dev.txt", splits.dev)
    write_column_file(out / "test.txt", splits.test)
    vocab = sorted({
        w.lower()
        for part in (splits.train, splits.dev, splits.test)
        for s in part
        for w in s.words
    })
    (out / "vocab.txt").write_text("".join(w + "\n" for w in vocab), encoding="utf-8")

    oov = splits.oov_entity_token_rate()
    manifest = [
        "# synthetic corpus manifest",
        f"seed = {seed}",
        f"distant_sentences = {args.sentences}",
        f"train_sentences = {len(splits.train)}",
        f"dev_sentences = {len(splits.dev)}",
        f"test_sentences = {len(splits.test)}",
        f"test_oov_entity_token_rate = {oov:.4f}",
        f"vocabulary = {len(vocab)}",
    ]
    (out / "manifest.txt").write_text("".join(l + "\n" for l in manifest), encoding="utf-8")
    progress_to_stderr(f"synth: corpus written under {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; usage errors are 1 here
    def error(self, message):
        raise UsageError(message)


def _add_config_flags(p) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="flat key-value config file, e.g. 'embed.window = 5'")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--seed", type=int,
                   help="root seed; sets embed.seed and tagger.seed")


def _add_scheme_flag(p) -> None:
    p.add_argument("--scheme", default="bilou", choices=["iob1", "iob2", "bilou"],
                   help="tag scheme of the column files (default bilou)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexner", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prepare-dual",
                       help="emit each sentence raw and with mentions replaced by type tokens")
    p.add_argument("--input", required=True, help="annotated column file")
    p.add_argument("--inventory", required=True, help="entity type labels, one per line")
    p.add_argument("--output", required=True)
    _add_scheme_flag(p)
    p.set_defaults(func=cmd_prepare_dual)

    p = sub.add_parser("train-embed", help="fit subword skipgram vectors on a token stream")
    p.add_argument("--input", required=True, help="one sentence per line")
    p.add_argument("--output", required=True, help="vector file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_embed)

    p = sub.add_parser("build-ls", help="precompute per-word type similarity vectors")
    p.add_argument("--embeddings", help="vector file from train-embed")
    p.add_argument("--inventory", help="entity type labels, one per line")
    p.add_argument("--vocab", required=True, help="words to cover, one per line")
    p.add_argument("--output", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_build_ls)

    p = sub.add_parser("inspect", help="print a word's top-k most similar entity types")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--inventory", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("-k", type=int, help="rows to print (default min(5, types))")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("train-ner", help="train the tagger; writes checkpoint and history")
    p.add_argument("--train", required=True, help="tagged column file")
    p.add_argument("--dev", required=True, help="tagged column file steering early stopping")
    p.add_argument("--output", required=True, help="checkpoint file")
    p.add_argument("--history", help="per-epoch loss/F1 log")
    p.add_argument("--embeddings", help="vector file (word_emb feature)")
    p.add_argument("--ls-table", help="similarity table file (ls feature)")
    p.add_argument("--gazetteer", action="append", metavar="NAME=PATH",
                   help="named entry list, one entry per line (repeatable)")
    _add_scheme_flag(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_ner)

    p = sub.add_parser("tag", help="tag a column file with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="column file; tag column optional")
    p.add_argument("--output", help="default: standard out")
    p.add_argument("--ls-table", help="similarity table the checkpoint was trained with")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="mention-level precision/recall/F1")
    p.add_argument("--gold", required=True, help="tagged column file")
    p.add_argument("--pred", required=True, help="column file whose last column is the prediction")
    p.add_argument("--machine", action="store_true", help="flat key = value output")
    _add_scheme_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="mean and stdev test F1 per feature set over seeded runs")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--feature-sets", required=True,
                   help="semicolon-separated sets, e.g. 'word_emb,char,cap;word_emb,char,cap,ls'")
    p.add_argument("--runs", type=int, default=5, help="runs per set, seeds seed..seed+runs-1")
    p.add_argument("--embeddings")
    p.add_argument("--ls-table")
    p.add_argument("--gazetteer", action="append", metavar="NAME=PATH")
    _add_scheme_flag(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth", help="generate the bundled synthetic corpus and NER splits")
    p.add_argument("--output", required=True, help="directory to write into")
    p.add_argument("--sentences", type=int, default=20_000,
                   help="distantly annotated sentence count")
    p.add_argument("--train-size", type=int, default=800)
    p.add_argument("--dev-size", type=int, default=300)
    p.add_argument("--test-size", type=int, default=500)
    p.add_argument("--seed", type=int, help="world seed; stage seeds derive from it")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"lexner: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"lexner: numerical failure: {e}", file=sys.stderr)
        return 3
    except (LexnerError, OSError) as e:
        print(f"lexner: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"lexner: {args.command}: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
