"""The tagger's per-position path: the oracle for projecting input rows.

`PerPositionTagger` runs both BiLSTMs as the model did before their input
projections ran once per distinct row: every padded position gets its own
copy of its input vector (a character's embedding, a token's concatenated
feature blocks), both directions are stacked as one (2, T, B, D) batch and
the projection runs over all of it. Everything else is the model's own
code, so tests can require the row path to match it bit for bit.
"""
import numpy as np

from lexner.corpus import Sentence, capitalization_class
from lexner.errors import DataError
from lexner.tagger.crf import crf_nll_and_grad
from lexner.tagger.gazetteer import gazetteer_features
from lexner.tagger.lstm import lstm_forward, padded_reversal
from lexner.tagger.model import ParamStore, TaggerModel


class PerPositionTagger(TaggerModel):
    @classmethod
    def of(cls, model: TaggerModel) -> "PerPositionTagger":
        """The same model, sharing its parameters and tables."""
        ref = cls(model.config, model.tags, model.chars, model.words, model.word_dim,
                  model.ls_table, model.gazetteer)
        ref.params = model.params
        return ref

    def _bilstm(self, prefix, x, lengths, mask):
        rev = padded_reversal(lengths, x.shape[0])
        p = self.params.stacked(prefix)
        h_seq, h_final, _, cache = lstm_forward(p, np.array((x, x[rev])), mask)
        return h_seq, h_final, {"prefix": prefix, "params": p, "cache": cache, "rev": rev}

    def _char_reps(self, cids, clens):
        cmask = (np.arange(len(cids))[:, None] < clens[None, :]).astype(np.float64)
        emb = self.params["char_emb"][cids]  # (lmax, n, char_emb_dim)
        _, h_final, bictx = self._bilstm("char", emb, clens, cmask)
        return np.concatenate(h_final, axis=1), {"n": len(clens), "cids": cids, "cmask": cmask,
                                                 "bilstm": bictx}

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
        type_grid = np.zeros((B, T), dtype=np.int64)
        type_grid[real.T] = inverse
        type_at = type_grid.T[real]
        ctx: dict = {"real": real, "type_at": type_at}

        rows: dict[str, np.ndarray] = {}
        if cfg.uses("word_emb"):
            ctx["wids"] = np.array([self.word_id(w) for w in types], dtype=np.int64)
            rows["word_emb"] = self.params["word_emb"][ctx["wids"]]
        if cfg.uses("char"):
            clens = np.array([max(1, len(w)) for w in types])
            cids = np.zeros((int(clens.max()), len(types)), dtype=np.int64)
            for j, w in enumerate(types):
                cids[: len(w), j] = self.char_ids(w)
            rows["char"], ctx["char"] = self._char_reps(cids, clens)
        if cfg.uses("cap"):
            ctx["caps"] = np.array([int(capitalization_class(w)) for w in types], dtype=np.int64)
            rows["cap"] = self.params["cap_emb"][ctx["caps"]]
        if cfg.uses("ls"):
            rows["ls"] = np.array([self.ls_table.vector(w) for w in types], dtype=np.float64)

        widths = {name: r.shape[1] for name, r in rows.items()}
        if cfg.uses("gazetteer"):
            widths["gazetteer"] = len(self.gazetteer)
        ctx["slices"] = {}
        at = 0
        for name, d in widths.items():
            ctx["slices"][name] = slice(at, at + d)
            at += d
        x = np.zeros((T, B, at))
        if rows:
            surface = np.concatenate(list(rows.values()), axis=1)
            x[real, : surface.shape[1]] = surface[type_at]
        if cfg.uses("gazetteer"):
            gaz = ctx["slices"]["gazetteer"]
            for b, s in enumerate(batch):
                x[: len(s), b, gaz] = gazetteer_features(s, self.gazetteer)
        return x, lengths, mask, ctx

    def _word_bilstm(self, x, lengths, mask):
        h_seq, _, bictx = self._bilstm("word", x, lengths, mask)
        h = np.concatenate([h_seq[0], h_seq[1][bictx["rev"]]], axis=2)
        return h, bictx

    def nll_and_gradients(self, batch, train=False, rng=None):
        cfg = self.config
        for s in batch:
            if s.tags is None:
                raise DataError("training sentences must carry gold tags")
        x, lengths, mask, ctx = self._assemble(batch)
        T, B, _ = x.shape

        drop_in = drop_out_mask = None
        if train and cfg.dropout_prob > 0.0:
            if rng is None:
                raise DataError("training mode needs a random generator for dropout")
            keep = 1.0 - cfg.dropout_prob
            drop_in = (rng.random(x.shape) < keep) / keep
            x = x * drop_in

        h, wctx = self._word_bilstm(x, lengths, mask)
        if train and cfg.dropout_prob > 0.0:
            keep = 1.0 - cfg.dropout_prob
            drop_out_mask = (rng.random(h.shape) < keep) / keep
            h = h * drop_out_mask

        em = h @ self.params["proj_w"] + self.params["proj_b"]

        gold = np.zeros((T, B), dtype=np.int64)
        for b, s in enumerate(batch):
            for t, tag in enumerate(s.tags):
                gold[t, b] = self.tag_index[tag]

        nll, dem, dtrans = crf_nll_and_grad(em, lengths, gold, self.params["trans"])

        grads: ParamStore = self.params.zeros_like()
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
        x, lengths, mask, _ = self._assemble(batch)
        h, _ = self._word_bilstm(x, lengths, mask)
        return h @ self.params["proj_w"] + self.params["proj_b"], lengths
