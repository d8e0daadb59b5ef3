"""The tagger's per-batch assembly: the oracle for encoding each data set once.

`PerBatchTagger` assembles every batch from its sentences, as the model did
before `TaggerModel.encode`: the word ids, capitalization classes, LS rows,
char ids and gazetteer bits of a batch's distinct surfaces are looked up
for that batch, its gold tags are turned into ids token by token, and
gradient rows are summed with `np.add.at`.
`ref_train` is the training loop that drives it. Everything else is the
model's own code, so tests can require the encoded path to match it bit
for bit.
"""
import numpy as np

from lexner.corpus import Sentence, capitalization_class
from lexner.errors import DataError
from lexner.evaluation import evaluate
from lexner.tagger.crf import crf_nll_and_grad, viterbi_decode_batched
from lexner.tagger.gazetteer import gazetteer_features
from lexner.tagger.model import TaggerModel, _positions
from lexner.tagger.train import sgd_step


def _runs(batch, limit):
    """Consecutive runs of `batch` of at most `limit` padded positions each."""
    start, longest = 0, 0
    for i, s in enumerate(batch):
        longest = max(longest, len(s))
        if (i + 1 - start) * longest > limit and i > start:
            yield batch[start:i]
            start, longest = i, len(s)
    if start < len(batch):
        yield batch[start:]


class PerBatchTagger(TaggerModel):
    @classmethod
    def of(cls, model: TaggerModel) -> "PerBatchTagger":
        """The same model, sharing its parameters and tables."""
        ref = cls(model.config, model.tags, model.chars, model.words, model.word_dim,
                  model.ls_table, model.gazetteer)
        ref.params = model.params
        return ref

    def _assemble(self, batch: list[Sentence]):
        cfg = self.config
        B = len(batch)
        lengths = np.array([len(s) for s in batch], dtype=np.int64)
        if np.any(lengths < 1):
            raise DataError("cannot process an empty sentence in a batch")
        T = int(lengths.max())
        mask = (np.arange(T)[:, None] < lengths[None, :]).astype(np.float64)
        real = mask.astype(bool)

        index: dict[str, int] = {}
        inverse = [index.setdefault(tok.surface, len(index)) for s in batch for tok in s.tokens]
        types = list(index)
        rows = np.full((B, T), len(types), dtype=np.int64)
        rows[real.T] = inverse
        rows = rows.T
        type_at = rows[real]
        ctx: dict = {"real": real, "type_at": type_at}

        blocks: dict[str, np.ndarray] = {}
        if cfg.uses("word_emb"):
            ctx["wids"] = np.array([self.word_id(w) for w in types], dtype=np.int64)
            blocks["word_emb"] = self.params["word_emb"][ctx["wids"]]
        if cfg.uses("char"):
            clens = np.array([max(1, len(w)) for w in types])
            cids = np.zeros((int(clens.max()), len(types)), dtype=np.int64)
            for j, w in enumerate(types):
                cids[: len(w), j] = self.char_ids(w)
            blocks["char"], ctx["char"] = self._char_reps(cids, clens)
        if cfg.uses("cap"):
            ctx["caps"] = np.array([int(capitalization_class(w)) for w in types], dtype=np.int64)
            blocks["cap"] = self.params["cap_emb"][ctx["caps"]]
        if cfg.uses("ls"):
            blocks["ls"] = np.array([self.ls_table.vector(w) for w in types], dtype=np.float64)

        widths = {name: r.shape[1] for name, r in blocks.items()}
        if cfg.uses("gazetteer"):
            widths["gazetteer"] = len(self.gazetteer)
        ctx["slices"] = {}
        at = 0
        for name, d in widths.items():
            ctx["slices"][name] = slice(at, at + d)
            at += d
        x = np.zeros((len(types) + 1, at))
        if blocks:
            surface = np.concatenate(list(blocks.values()), axis=1)
            x[:-1, : surface.shape[1]] = surface
        if cfg.uses("gazetteer"):
            x = x[rows]
            gaz = ctx["slices"]["gazetteer"]
            for b, s in enumerate(batch):
                x[: len(s), b, gaz] = gazetteer_features(s, self.gazetteer)
            x, rows = x.reshape(T * B, at), _positions(T, B)
        return x, rows, lengths, mask, ctx

    def _char_backward(self, d_reps, ctx, grads):
        d_final = np.array(np.split(d_reps, 2, axis=1))
        dxe = self._bilstm_backward(ctx["bilstm"], grads, None, dh_final=d_final)
        real = ctx["cmask"].astype(bool)
        np.add.at(grads["char_emb"], ctx["cids"][real], dxe[real])

    def nll_and_gradients(self, batch, train=False, rng=None):
        cfg = self.config
        for s in batch:
            if s.tags is None:
                raise DataError("training sentences must carry gold tags")
        x, rows, lengths, mask, ctx = self._assemble(batch)
        T, B = rows.shape

        drop_in = drop_out_mask = None
        if train and cfg.dropout_prob > 0.0:
            keep = 1.0 - cfg.dropout_prob
            drop_in = (rng.random((T, B, x.shape[1])) < keep) / keep
            x, rows = (x[rows] * drop_in).reshape(T * B, -1), _positions(T, B)

        h, wctx = self._word_bilstm(x, rows, lengths, mask)
        if train and cfg.dropout_prob > 0.0:
            keep = 1.0 - cfg.dropout_prob
            drop_out_mask = (rng.random(h.shape) < keep) / keep
            h = h * drop_out_mask

        em = h @ self.params["proj_w"] + self.params["proj_b"]

        gold = np.zeros((T, B), dtype=np.int64)
        for b, s in enumerate(batch):
            for t, tag in enumerate(s.tags):
                try:
                    gold[t, b] = self.tag_index[tag]
                except KeyError:
                    raise DataError(f"tag {tag!r} not in the model tag set") from None

        nll, dem, dtrans = crf_nll_and_grad(em, lengths, gold, self.params["trans"])

        grads = self.params.zeros_like()
        grads["trans"] = dtrans
        flat_h = h.reshape(T * B, -1)
        flat_dem = dem.reshape(T * B, -1)
        grads["proj_w"] = flat_h.T @ flat_dem
        grads["proj_b"] = flat_dem.sum(axis=0)
        dh = dem @ self.params["proj_w"].T
        if drop_out_mask is not None:
            dh = dh * drop_out_mask

        hc = cfg.word_hidden
        dh_seq = np.array((dh[:, :, :hc], dh[:, :, hc:][wctx["rev"]]))
        dx = self._bilstm_backward(wctx, grads, dh_seq)
        if drop_in is not None:
            dx = dx * drop_in

        sl = ctx["slices"]
        type_at = ctx["type_at"]
        dx_real = dx[ctx["real"]]
        if cfg.uses("word_emb"):
            np.add.at(grads["word_emb"], ctx["wids"][type_at], dx_real[:, sl["word_emb"]])
        if cfg.uses("char"):
            d_reps = np.zeros((ctx["char"]["n"], 2 * cfg.char_hidden))
            np.add.at(d_reps, type_at, dx_real[:, sl["char"]])
            self._char_backward(d_reps, ctx["char"], grads)
        if cfg.uses("cap"):
            np.add.at(grads["cap_emb"], ctx["caps"][type_at], dx_real[:, sl["cap"]])
        return nll, grads

    def emissions(self, batch):
        x, rows, lengths, mask, _ = self._assemble(batch)
        h, _ = self._word_bilstm(x, rows, lengths, mask)
        return h @ self.params["proj_w"] + self.params["proj_b"], lengths

    def tag_batch(self, batch, limit=4096):
        paths = []
        for part in _runs([s for s in batch if len(s) > 0], limit):
            em, lengths = self.emissions(part)
            paths += viterbi_decode_batched(em, lengths, self.params["trans"], self.allowed)[0]
        tagged = iter(paths)
        return [[self.tags[j] for j in next(tagged)] if len(s) > 0 else [] for s in batch]


def ref_train(train_set, dev_set, config, pretrained=None, ls_table=None, gazetteer=None):
    """`train` with every batch and every dev pass assembled per batch."""
    tags = sorted({t for s in train_set for t in s.tags})
    charset = sorted({c for s in train_set for tok in s.tokens for c in tok.surface})
    model = PerBatchTagger.of(
        TaggerModel.build(config, tags, charset, pretrained, ls_table, gazetteer))
    rng = np.random.default_rng(config.seed)
    velocities = model.params.zeros_like()
    history, best_f1, best_flat, since_best = [], -1.0, None, 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_set))
        total = 0.0
        for lo in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in order[lo : lo + config.batch_size]]
            loss, grads = model.nll_and_gradients(batch, train=True, rng=rng)
            sgd_step(model.params, grads, velocities, config, epoch)
            total += loss
        dev_f1 = evaluate(list(dev_set), model.tag_batch(list(dev_set))).f1
        history.append({"epoch": epoch, "loss": total / len(train_set), "dev_f1": dev_f1})
        if dev_f1 > best_f1:
            best_f1, best_flat, since_best = dev_f1, model.params.flat.copy(), 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    model.params.flat[...] = best_flat
    return model, history
