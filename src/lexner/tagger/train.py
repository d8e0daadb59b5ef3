"""SGD training loop: momentum, gradient clipping, decay, early stopping."""
from __future__ import annotations

import sys
from collections.abc import Mapping
from typing import Callable, Sequence

import numpy as np

from ..corpus import Sentence
from ..embed import EmbeddingTable
from ..errors import DataError, NumericalError
from ..evaluation import evaluate
from ..lexsim import LSTable
from .gazetteer import Gazetteer
from .model import ParamStore, TaggerConfig, TaggerModel


def global_norm(grads: Mapping[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
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

    The global norm is summed tensor by tensor in `grads` order.
    """
    if not np.isfinite(grads.flat).all():
        bad = next(k for k, g in grads.items() if not np.isfinite(g).all())
        raise NumericalError(f"non-finite gradient in parameter {bad!r}")
    g = grads.flat
    norm = global_norm(grads)
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
    sentence, and dev F1.
    """
    if not train_set:
        raise DataError("empty training set")
    for i, s in enumerate(train_set):
        if s.tags is None:
            raise DataError(f"training sentence {i} has no gold tags")
    tags = sorted({t for s in train_set for t in s.tags})
    charset = sorted({c for s in train_set for tok in s.tokens for c in tok.surface})
    model = TaggerModel.build(config, tags, charset, pretrained, ls_table, gazetteer)

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
            batch = [train_set[i] for i in order[lo : lo + config.batch_size]]
            loss, grads = model.nll_and_gradients(batch, train=True, rng=rng)
            sgd_step(model.params, grads, velocities, config, epoch)
            total += loss
        mean_loss = total / n

        dev_tags = model.tag_batch(list(dev_set))
        dev_f1 = evaluate(list(dev_set), dev_tags).f1
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
