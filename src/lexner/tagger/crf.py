"""Linear-chain CRF: log-space forward algorithm, Viterbi, and gradients.

Transitions live in an (L+2, L+2) matrix over the tag set plus two virtual
states, START = L and STOP = L+1. Row i, column j scores the move i -> j.
The batched negative log-likelihood backpropagates through the stored
forward variables and each step's stored log-sum-exp, which reproduces the
forward-backward marginals without a separate backward recursion.

The batched Viterbi decoder lays each step's scores out as (B, to, from),
from the transposed pair block made contiguous once, so the argmax runs
over the contiguous last axis, and the best score is gathered with one
`take` at that argmax: the max is that element. Back-pointers are flat
indices into a (B, L) block. A sentence that has ended gets identity
back-pointers and keeps its best score, so the backtrace starts every
sentence at the last step from its best final tag and makes one `take`
per step; the carry runs only on steps where some sentence has ended.
"""
from __future__ import annotations

import numpy as np

from ..errors import DataError


def logsumexp(a: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    hi = a.max(axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    out = np.log(np.exp(a - hi).sum(axis=axis), out=out)
    out += hi.squeeze(axis)
    return out


def crf_log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """log sum over all tag paths of exp(path score), one sentence."""
    T, L = emissions.shape
    if T < 1:
        raise DataError("log partition needs at least one position")
    if transitions.shape != (L + 2, L + 2):
        raise DataError(
            f"transition matrix {transitions.shape} does not fit {L} tags")
    logz, _, _ = crf_forward_batched(emissions[:, None], np.array([T]), transitions)
    return float(logz[0])


def path_score(emissions: np.ndarray, transitions: np.ndarray, path: np.ndarray) -> float:
    T, L = emissions.shape
    start, stop = L, L + 1
    path = np.asarray(path)
    s = transitions[start, path[0]] + emissions[np.arange(T), path].sum()
    s += transitions[path[:-1], path[1:]].sum()
    return float(s + transitions[path[-1], stop])


def viterbi_decode_batched(
    emissions: np.ndarray,
    lengths: np.ndarray,
    transitions: np.ndarray,
    allowed: np.ndarray | None = None,
) -> tuple[list[list[int]], np.ndarray]:
    """Best-scoring path of every sentence in a (T, B, L) batch.

    Positions at or past a sentence's length are ignored. Ties break toward
    the lowest tag index. `allowed` is an optional (L+2, L+2) boolean
    matrix; forbidden moves score -inf, so a path takes one only when its
    score is -inf.
    Returns (one tag-id path per sentence, path scores (B,)).
    """
    T, B, L = emissions.shape
    if T < 1 or np.any(lengths < 1):
        raise DataError("cannot decode an empty sentence")
    start, stop = L, L + 1
    trans = transitions if allowed is None else np.where(allowed, transitions, -np.inf)
    pair = np.ascontiguousarray(trans[:L, :L].T)  # (to, from)
    best = trans[start, :L] + emissions[0]  # (B, L)
    # flat indices of (b, 0) and (b, to) in a (B, L) block and of (b, to, 0)
    # in a (B, to, from) one; `take` clips instead of checking them
    first = np.arange(B) * L
    at = first[:, None] + np.arange(L)
    at_row = at * L
    back = np.empty((T, B, L), dtype=np.intp)  # back[t, b, to]: the flat (b, from)
    scores = np.empty((B, L, L))
    for t, full in enumerate(_every_sequence_active(lengths, T)[1:], start=1):
        np.add(best[:, None, :], pair, out=scores)
        # argmax returns the first (lowest-index) maximizer
        ptr = np.argmax(scores, axis=2, out=back[t])
        kept, best = best, scores.take(ptr + at_row, mode="clip")  # the max is that element
        best += emissions[t]
        ptr += first[:, None]
        if not full:  # ended sentences pass their tag and score through
            ended = (t >= lengths)[:, None]
            np.copyto(ptr, at, where=ended)
            np.copyto(best, kept, where=ended)
    final = best + trans[:L, stop]
    paths = np.empty((T, B), dtype=np.intp)
    paths[T - 1] = np.argmax(final, axis=1) + first
    score = final.take(paths[T - 1])
    for t in range(T - 1, 0, -1):
        back[t].take(paths[t], out=paths[t - 1], mode="clip")
    paths -= first
    return [path[:n] for path, n in zip(paths.T.tolist(), lengths.tolist())], score


def viterbi_decode(
    emissions: np.ndarray,
    transitions: np.ndarray,
    allowed: np.ndarray | None = None,
) -> tuple[list[int], float]:
    """Best-scoring path of one (T, L) sentence; see viterbi_decode_batched."""
    paths, score = viterbi_decode_batched(
        emissions[:, None], np.array([len(emissions)]), transitions, allowed)
    return paths[0], float(score[0])


def _every_sequence_active(lengths: np.ndarray, T: int) -> list[bool]:
    """Per step of a (T, B) batch, whether every sequence is still running."""
    return (np.arange(T) < lengths.min(initial=T)).tolist()


def crf_forward_batched(
    emissions: np.ndarray, lengths: np.ndarray, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched log partition. emissions (T, B, L); returns (logZ (B,), alphas, lse).

    alphas (T, B, L) are the forward variables; lse (T, B, L) holds each
    step's log-sum-exp over the previous tag, lse[t, b, j] =
    logsumexp_i(alphas[t-1, b, i] + transitions[i, j]) for t >= 1 (row 0 is
    unused), which the gradient reuses.
    """
    T, B, L = emissions.shape
    start, stop = L, L + 1
    alphas = np.empty((T, B, L))
    lse = np.zeros((T, B, L))
    np.add(transitions[start, :L], emissions[0], out=alphas[0])
    pair = transitions[None, :L, :L]
    for t, full in enumerate(_every_sequence_active(lengths, T)[1:], start=1):
        logsumexp(alphas[t - 1][:, :, None] + pair, axis=1, out=lse[t])
        np.add(lse[t], emissions[t], out=alphas[t])
        if not full:  # ended sequences keep their last alpha
            np.copyto(alphas[t], alphas[t - 1], where=(t >= lengths)[:, None])
    logz = logsumexp(alphas[T - 1] + transitions[:L, stop][None, :], axis=1)
    return logz, alphas, lse


def crf_nll_and_grad(
    emissions: np.ndarray,
    lengths: np.ndarray,
    gold: np.ndarray,
    transitions: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of per-sentence NLLs and gradients w.r.t. emissions/transitions.

    emissions (T, B, L) with padding rows ignored per `lengths`; gold is
    (T, B) int tag ids (values on padding ignored). The emission gradient
    is zero on padding.
    """
    T, B, L = emissions.shape
    start, stop = L, L + 1
    if np.any(lengths < 1):
        raise DataError("every sequence must have at least one position")

    logz, alphas, lse = crf_forward_batched(emissions, lengths, transitions)

    # gold path scores
    t_idx = np.arange(T)[:, None]
    real = t_idx < lengths[None, :]
    em_gold = np.where(real, emissions[t_idx, np.arange(B)[None, :], gold], 0.0)
    gold_score = em_gold.sum(axis=0)
    gold_score += transitions[start, gold[0]]
    last = gold[lengths - 1, np.arange(B)]
    gold_score += transitions[last, stop]
    pair_real = (t_idx[1:] < lengths[None, :])
    pairs_from = gold[:-1]
    pairs_to = gold[1:]
    if T > 1:
        pair_scores = np.where(pair_real, transitions[pairs_from, pairs_to], 0.0)
        gold_score += pair_scores.sum(axis=0)

    nll = float(np.sum(logz - gold_score))

    # d logZ: backprop through the stored alphas
    dem = np.zeros_like(emissions)
    dtrans = np.zeros_like(transitions)

    final = alphas[T - 1] + transitions[:L, stop][None, :]
    w = np.exp(final - logz[:, None])  # softmax over tags
    dalpha = w
    dtrans[:L, stop] += w.sum(axis=0)
    # every step's normalised pair scores (T - 1, B, from, to) in one pass
    pairs = alphas[:-1, :, :, None] + transitions[None, None, :L, :L]
    pairs -= lse[1:, :, None, :]
    np.exp(pairs, out=pairs)
    every = _every_sequence_active(lengths, T)
    for t in range(T - 1, 0, -1):
        full = every[t]  # then every masking below is the identity
        active = None if full else (t < lengths)[:, None]
        dem[t] = dalpha if full else np.where(active, dalpha, 0.0)
        dm = np.multiply(pairs[t - 1], dalpha[:, None, :], out=pairs[t - 1])
        if not full:
            dm = np.where(active[:, :, None], dm, 0.0)
        dtrans[:L, :L] += dm.sum(axis=0)
        dalpha_prev = dm.sum(axis=2)
        dalpha = dalpha_prev if full else np.where(active, dalpha_prev, dalpha)
    dem[0] = dalpha
    dtrans[start, :L] += dalpha.sum(axis=0)

    # minus the gold path: one-hot emissions (each position once) and
    # transition counts
    dem[(*np.nonzero(real), gold[real])] -= 1.0
    # the three groups of moves touch disjoint cells, so one call subtracts
    # each cell's ones in the order separate calls would
    np.subtract.at(dtrans, (np.concatenate((np.full(B, start), last, pairs_from[pair_real])),
                            np.concatenate((gold[0], np.full(B, stop), pairs_to[pair_real]))), 1.0)
    return nll, dem, dtrans


def bilou_allowed_transitions(tags: list[str]) -> np.ndarray:
    """Boolean (L+2, L+2) matrix of scheme-valid moves for a BILOU tag set.

    START behaves like "outside" on the left (O, B-, U- may follow), STOP
    like "outside" on the right (only O, L-, U- may precede it).
    """
    L = len(tags)
    start, stop = L, L + 1
    allowed = np.zeros((L + 2, L + 2), dtype=bool)

    def kind(tag: str) -> tuple[str, str | None]:
        if tag == "O":
            return "O", None
        return tag[:1], tag[2:]  # an empty tag has no kind

    opens = {"O", "B", "U"}  # may follow an outside-like state
    closes = {"O", "L", "U"}  # may precede an outside-like state
    for j, tj in enumerate(tags):
        kj, _ = kind(tj)
        if kj in opens:
            allowed[start, j] = True
    for i, ti in enumerate(tags):
        ki, _ = kind(ti)
        if ki in closes:
            allowed[i, stop] = True
    for i, ti in enumerate(tags):
        ki, ei = kind(ti)
        for j, tj in enumerate(tags):
            kj, ej = kind(tj)
            if ki in closes:
                allowed[i, j] = kj in opens
            else:  # open mention of type ei: must continue or close it
                allowed[i, j] = kj in {"I", "L"} and ej == ei
    return allowed
