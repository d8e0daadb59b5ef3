"""SGD training loop: momentum, gradient clipping, decay, early stopping."""
from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from ..corpus import Sentence, tags_to_mentions
from ..embed import EmbeddingTable
from ..errors import DataError, NumericalError, SchemeError
from ..evaluation import evaluate
from ..lexsim import LSTable
from .gazetteer import Gazetteer
from .model import ParamStore, TaggerConfig, TaggerModel, float32_flat


def global_norm(grads: ParamStore) -> float:
    """The L2 norm of every tensor of the store together.

    `flat` is squared once and each tensor's span of it summed, in name
    order, which gives the bits of summing each tensor's squares tensor by
    tensor. The order of `flat` would not: each fwd tensor sits beside its
    bwd twin there.
    """
    squares = grads.flat * grads.flat
    total = 0.0
    for span in grads.spans.values():
        total += float(np.add.reduce(squares[span]))  # np.sum without its wrapper
    return float(np.sqrt(total))


def sgd_step(
    params: ParamStore,
    grads: ParamStore,
    velocities: ParamStore,
    config: TaggerConfig,
    epoch: int,
) -> None:
    """One in-place update of three stores of one layout: global-norm clip,
    momentum, decayed learning rate, each a single operation on the `flat`
    buffers.

    A non-finite gradient makes the norm non-finite, so the buffer is
    searched for one only then.
    """
    g = grads.flat
    norm = global_norm(grads)
    if not math.isfinite(norm) and not np.isfinite(g).all():
        bad = next(k for k, v in grads.items() if not np.isfinite(v).all())
        raise NumericalError(f"non-finite gradient in parameter {bad!r}")
    if norm > config.clip_norm:
        g = g * (config.clip_norm / norm)
    lr = config.learning_rate * config.decay_rate ** epoch
    v = velocities.flat
    v *= config.momentum
    v += g
    params.flat -= lr * v


def train(
    train_set: Sequence[Sentence],
    dev_set: Sequence[Sentence],
    config: TaggerConfig,
    pretrained: EmbeddingTable | None = None,
    ls_table: LSTable | None = None,
    gazetteer: Gazetteer | None = None,
    progress: Callable[[str], None] | None = None,
) -> tuple[TaggerModel, list[dict]]:
    """Fit a tagger; returns (best model, per-epoch history).

    The dev set steers early stopping: the best-dev parameters are kept and
    restored at the end. History rows carry epoch index, mean train NLL per
    sentence, and dev F1. Each set's surfaces are encoded once, before the
    first epoch, and so are the dev set's gold mentions. An epoch that
    leaves a parameter beyond float32, which a checkpoint stores, ends the
    fit with a NumericalError before its dev pass.
    """
    if not train_set:
        raise DataError("empty training set")
    if not dev_set:
        raise DataError("empty dev set: early stopping has no dev F1 to follow")
    for i, s in enumerate(train_set):
        if s.tags is None:
            raise DataError(f"training sentence {i} has no gold tags")
        try:  # the CRF's grammar admits strict BILOU paths only
            tags_to_mentions(s.tags)
        except SchemeError as e:
            raise DataError(f"training sentence {i} is not strict BILOU: {e}") from None
    tags = sorted({t for s in train_set for t in s.tags})
    charset = sorted({c for s in train_set for tok in s.tokens for c in tok.surface})
    model = TaggerModel.build(config, tags, charset, pretrained, ls_table, gazetteer)
    train_data = model.encode(train_set, gold=True)
    dev_data = model.encode(dev_set)
    # gold mentions decoded once, not by `evaluate` after every epoch
    dev_gold = [s if s.mentions is not None or s.tags is None
                else replace(s, mentions=tags_to_mentions(s.tags)) for s in dev_data.sentences]

    rng = np.random.default_rng(config.seed)
    velocities = model.params.zeros_like()
    history: list[dict] = []
    best_f1 = -1.0
    best_flat: np.ndarray | None = None
    best_epoch = -1
    since_best = 0

    say = progress or (lambda msg: None)
    n = len(train_set)
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            batch = train_data.take(order[lo : lo + config.batch_size])
            loss, grads = model.nll_and_gradients(batch, train=True, rng=rng)
            sgd_step(model.params, grads, velocities, config, epoch)
            total += loss
        mean_loss = total / n
        float32_flat(model.params, f"epoch {epoch}: ")  # stop once the fit has diverged

        dev_f1 = evaluate(dev_gold, model.tag_batch(dev_data)).f1
        history.append({"epoch": epoch, "loss": mean_loss, "dev_f1": dev_f1})
        say(f"epoch {epoch}: loss {mean_loss:.4f} dev_f1 {dev_f1:.2f}")

        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best_epoch = epoch
            best_flat = model.params.flat.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                say(f"early stop after epoch {epoch} (best epoch {best_epoch})")
                break

    if best_flat is not None:
        model.params.flat[...] = best_flat
    return model, history


def progress_to_stderr(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
