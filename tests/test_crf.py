"""CRF against exhaustive enumeration: the oracle family for the chain."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexner.errors import DataError
from lexner.tagger.crf import (
    bilou_allowed_transitions,
    crf_forward_batched,
    crf_log_partition,
    crf_nll_and_grad,
    logsumexp,
    path_score,
    viterbi_decode,
    viterbi_decode_batched,
)

BILOU_X = ["B-X", "I-X", "L-X", "O", "U-X"]


def brute_force_logz(em: np.ndarray, trans: np.ndarray) -> float:
    T, L = em.shape
    scores = [path_score(em, trans, np.array(p))
              for p in itertools.product(range(L), repeat=T)]
    scores = np.array(scores)
    hi = scores.max()
    return float(hi + np.log(np.exp(scores - hi).sum()))

def brute_force_best(em: np.ndarray, trans: np.ndarray) -> tuple[list[int], float]:
    T, L = em.shape
    best_p, best_s = None, -np.inf
    for p in itertools.product(range(L), repeat=T):
        s = path_score(em, trans, np.array(p))
        if s > best_s:
            best_p, best_s = list(p), s
    return best_p, best_s


def ref_viterbi(emissions, transitions, allowed=None):
    """The per-sentence step-loop decoder: one argmax per step, then backtrack."""
    T, L = emissions.shape
    start, stop = L, L + 1
    trans = transitions.astype(np.float64, copy=True)
    if allowed is not None:
        trans = np.where(allowed, trans, -np.inf)
    best = trans[start, :L] + emissions[0]
    back = []
    for t in range(1, T):
        scores = best[:, None] + trans[:L, :L]
        ptr = np.argmax(scores, axis=0)
        back.append(ptr)
        best = scores[ptr, np.arange(L)] + emissions[t]
    final = best + trans[:L, stop]
    tag = int(np.argmax(final))
    score = float(final[tag])
    path = [tag]
    for ptr in reversed(back):
        tag = int(ptr[tag])
        path.append(tag)
    path.reverse()
    return path, score


class TestLogPartition:
    def test_single_position_analytic(self):
        em = np.array([[0.3, -1.2]])
        trans = np.zeros((4, 4))
        expect = np.log(np.exp(0.3) + np.exp(-1.2))
        assert crf_log_partition(em, trans) == pytest.approx(expect, abs=1e-12)

    def test_all_zero_scores_counts_paths(self):
        em = np.zeros((2, 3))
        trans = np.zeros((5, 5))
        assert crf_log_partition(em, trans) == pytest.approx(np.log(9.0), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            T = int(rng.integers(1, 5))
            L = int(rng.integers(2, 4))
            em = rng.normal(size=(T, L))
            trans = rng.normal(size=(L + 2, L + 2))
            assert crf_log_partition(em, trans) == pytest.approx(
                brute_force_logz(em, trans), abs=1e-8)

    def test_no_overflow_large_scores(self):
        em = np.full((4, 3), 50.0)
        trans = np.full((5, 5), 50.0)
        z = crf_log_partition(em, trans)
        assert np.isfinite(z)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            crf_log_partition(np.zeros((0, 3)), np.zeros((5, 5)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            crf_log_partition(np.zeros((2, 3)), np.zeros((4, 4)))


class TestViterbi:
    def test_zero_transitions_factorizes(self):
        rng = np.random.default_rng(0)
        em = rng.normal(size=(6, 4))
        trans = np.zeros((6, 6))
        path, _ = viterbi_decode(em, trans)
        assert path == list(np.argmax(em, axis=1))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            T = int(rng.integers(1, 6))
            L = int(rng.integers(2, 5))
            em = rng.normal(size=(T, L))
            trans = rng.normal(size=(L + 2, L + 2))
            path, score = viterbi_decode(em, trans)
            bpath, bscore = brute_force_best(em, trans)
            assert path == bpath
            assert score == pytest.approx(bscore, abs=1e-10)
            assert score == pytest.approx(path_score(em, trans, np.array(path)), abs=1e-10)

    def test_symmetric_tie_takes_lowest_indices(self):
        # every path ties: the all-zeros path must win
        em = np.zeros((3, 4))
        trans = np.zeros((6, 6))
        path, score = viterbi_decode(em, trans)
        assert path == [0, 0, 0]
        assert score == 0.0

    def test_mask_forbids_transitions(self):
        tags = ["B-X", "I-X", "L-X", "O", "U-X"]
        allowed = bilou_allowed_transitions(tags)
        rng = np.random.default_rng(3)
        for _ in range(25):
            em = rng.normal(size=(int(rng.integers(1, 6)), 5)) * 3
            trans = rng.normal(size=(7, 7))
            path, _ = viterbi_decode(em, trans, allowed)
            labels = [tags[i] for i in path]
            # strict BILOU validity: decode through the strict extractor
            from lexner.corpus import TagScheme, tags_to_mentions
            tags_to_mentions(labels, TagScheme.BILOU, strict=True)

    def test_single_token_mask_allows_only_u_or_o(self):
        tags = ["B-X", "I-X", "L-X", "O", "U-X"]
        allowed = bilou_allowed_transitions(tags)
        rng = np.random.default_rng(5)
        for _ in range(20):
            em = rng.normal(size=(1, 5)) * 5
            path, _ = viterbi_decode(em, np.zeros((7, 7)), allowed)
            assert tags[path[0]] in ("O", "U-X")


    def test_rejects_empty(self):
        with pytest.raises(DataError):
            viterbi_decode(np.zeros((0, 3)), np.zeros((5, 5)))


class TestViterbiBatched:
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.integers(0, 2),
           st.integers(1, 5), st.booleans(),
           st.sampled_from([None, "bilou", "random", "row", "column"]), st.booleans(),
           st.integers(0, 2**16))
    @example([2, 4, 1], 1, 3, False, "bilou", False, 0)  # every sentence shorter than T
    @example([5], 0, 4, True, "row", True, 1)  # B = 1
    @example([3, 3, 3], 0, 1, True, "column", True, 2)  # all lengths equal, L = 1
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, lengths, pad, L, ties, mask, neg_inf, seed):
        rng = np.random.default_rng(seed)
        if mask == "bilou":
            L = len(BILOU_X)
        T, B = max(lengths) + pad, len(lengths)
        if ties:  # small integers: many equal-scoring paths
            em = rng.integers(-2, 3, size=(T, B, L)).astype(float)
            trans = rng.integers(-1, 2, size=(L + 2, L + 2)).astype(float)
        else:
            em = rng.normal(size=(T, B, L))
            trans = rng.normal(size=(L + 2, L + 2))
        if neg_inf:
            em[rng.random(em.shape) < 0.2] = -np.inf
        allowed = None
        if mask == "bilou":
            allowed = bilou_allowed_transitions(BILOU_X)
        elif mask is not None:
            allowed = rng.random((L + 2, L + 2)) < 0.7
            if mask == "row":  # every move out of one state is forbidden
                allowed[rng.integers(L + 2)] = False
            elif mask == "column":  # every move into one state is forbidden
                allowed[:, rng.integers(L + 2)] = False
        paths, scores = viterbi_decode_batched(em, np.array(lengths), trans, allowed)
        assert scores.shape == (B,)
        for b, n in enumerate(lengths):
            path, score = ref_viterbi(em[:n, b], trans, allowed)
            assert paths[b] == path
            assert scores[b].tobytes() == np.float64(score).tobytes()

    def test_padding_values_are_ignored(self):
        rng = np.random.default_rng(4)
        em = rng.normal(size=(5, 2, 3))
        trans = rng.normal(size=(5, 5))
        lengths = np.array([5, 2])
        paths, scores = viterbi_decode_batched(em, lengths, trans)
        em[2:, 1] = 1e6
        assert viterbi_decode_batched(em, lengths, trans)[0] == paths
        assert len(paths[1]) == 2

    @pytest.mark.parametrize("lengths, T", [([2, 0], 2), ([], 0), ([1], 0)])
    def test_rejects_empty(self, lengths, T):
        with pytest.raises(DataError):
            viterbi_decode_batched(np.zeros((T, len(lengths), 3)), np.array(lengths, dtype=int),
                                   np.zeros((5, 5)))


class TestBilouMask:
    def test_structure(self):
        tags = ["B-A", "B-B", "I-A", "I-B", "L-A", "L-B", "O", "U-A", "U-B"]
        idx = {t: i for i, t in enumerate(tags)}
        L = len(tags)
        allowed = bilou_allowed_transitions(tags)
        start, stop = L, L + 1
        assert allowed[start, idx["O"]] and allowed[start, idx["B-A"]] and allowed[start, idx["U-B"]]
        assert not allowed[start, idx["I-A"]] and not allowed[start, idx["L-A"]]
        assert allowed[idx["O"], stop] and allowed[idx["L-A"], stop] and allowed[idx["U-A"], stop]
        assert not allowed[idx["B-A"], stop] and not allowed[idx["I-B"], stop]
        assert allowed[idx["B-A"], idx["I-A"]] and allowed[idx["B-A"], idx["L-A"]]
        assert not allowed[idx["B-A"], idx["I-B"]]
        assert not allowed[idx["B-A"], idx["O"]]
        assert allowed[idx["L-A"], idx["B-B"]] and allowed[idx["U-A"], idx["O"]]
        assert not allowed[idx["I-A"], idx["B-A"]]


class TestNllAndGrad:
    def batch(self, rng, T, B, L):
        em = rng.normal(size=(T, B, L))
        lengths = rng.integers(1, T + 1, size=B)
        lengths[0] = T
        gold = rng.integers(0, L, size=(T, B))
        trans = rng.normal(size=(L + 2, L + 2)) * 0.3
        return em, lengths, gold, trans

    def test_nll_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            em, lengths, gold, trans = self.batch(rng, 5, 3, 4)
            nll, _, _ = crf_nll_and_grad(em, lengths, gold, trans)
            assert nll >= -1e-10

    def test_nll_zero_when_gold_is_certain(self):
        # huge margin for the gold path makes its probability ~1
        L, T = 3, 4
        gold = np.array([[0], [2], [1], [0]])
        em = np.full((T, 1, L), -100.0)
        for t in range(T):
            em[t, 0, gold[t, 0]] = 100.0
        nll, _, _ = crf_nll_and_grad(em, np.array([T]), gold, np.zeros((L + 2, L + 2)))
        assert nll == pytest.approx(0.0, abs=1e-8)

    def test_matches_single_sentence_quantities(self):
        rng = np.random.default_rng(12)
        T, L = 4, 3
        em = rng.normal(size=(T, 1, L))
        gold = rng.integers(0, L, size=(T, 1))
        trans = rng.normal(size=(L + 2, L + 2))
        nll, _, _ = crf_nll_and_grad(em, np.array([T]), gold, trans)
        logz = crf_log_partition(em[:, 0], trans)
        gold_score = path_score(em[:, 0], trans, gold[:, 0])
        assert nll == pytest.approx(logz - gold_score, abs=1e-10)

    def test_emission_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        em, lengths, gold, trans = self.batch(rng, 4, 3, 3)
        _, dem, _ = crf_nll_and_grad(em, lengths, gold, trans)
        eps = 1e-6
        for t in range(em.shape[0]):
            for b in range(em.shape[1]):
                for l in range(em.shape[2]):
                    up, down = em.copy(), em.copy()
                    up[t, b, l] += eps
                    down[t, b, l] -= eps
                    fu = crf_nll_and_grad(up, lengths, gold, trans)[0]
                    fd = crf_nll_and_grad(down, lengths, gold, trans)[0]
                    num = (fu - fd) / (2 * eps)
                    assert abs(num - dem[t, b, l]) < 1e-6, (t, b, l)

    def test_transition_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        em, lengths, gold, trans = self.batch(rng, 4, 3, 3)
        _, _, dtrans = crf_nll_and_grad(em, lengths, gold, trans)
        eps = 1e-6
        for i in range(trans.shape[0]):
            for j in range(trans.shape[1]):
                up, down = trans.copy(), trans.copy()
                up[i, j] += eps
                down[i, j] -= eps
                fu = crf_nll_and_grad(em, lengths, gold, up)[0]
                fd = crf_nll_and_grad(em, lengths, gold, down)[0]
                num = (fu - fd) / (2 * eps)
                assert abs(num - dtrans[i, j]) < 1e-6, (i, j)

    def test_padding_rows_get_zero_gradient(self):
        rng = np.random.default_rng(15)
        em = rng.normal(size=(5, 2, 3))
        lengths = np.array([5, 2])
        gold = rng.integers(0, 3, size=(5, 2))
        _, dem, _ = crf_nll_and_grad(em, lengths, gold, rng.normal(size=(5, 5)))
        assert np.all(dem[2:, 1, :] == 0.0)

    def test_padding_values_do_not_change_loss(self):
        rng = np.random.default_rng(16)
        em = rng.normal(size=(5, 2, 3))
        lengths = np.array([5, 3])
        gold = rng.integers(0, 3, size=(5, 2))
        trans = rng.normal(size=(5, 5))
        n1 = crf_nll_and_grad(em, lengths, gold, trans)[0]
        em2 = em.copy()
        em2[3:, 1, :] = 999.0
        n2 = crf_nll_and_grad(em2, lengths, gold, trans)[0]
        assert n1 == pytest.approx(n2, abs=1e-10)

    def test_batch_equals_sum_of_singles(self):
        rng = np.random.default_rng(17)
        T, B, L = 4, 3, 3
        em, lengths, gold, trans = self.batch(rng, T, B, L)
        total, _, _ = crf_nll_and_grad(em, lengths, gold, trans)
        singles = 0.0
        for b in range(B):
            lb = lengths[b]
            nb, _, _ = crf_nll_and_grad(
                em[:lb, b : b + 1], np.array([lb]), gold[:lb, b : b + 1], trans)
            singles += nb
        assert total == pytest.approx(singles, abs=1e-9)


def ref_crf_nll_and_grad(emissions, lengths, gold, transitions):
    """The gradient loop that recomputes each step's log-sum-exp from the
    stored alphas instead of reusing the forward pass's."""
    T, B, L = emissions.shape
    start, stop = L, L + 1
    logz, alphas, _ = crf_forward_batched(emissions, lengths, transitions)
    t_idx = np.arange(T)[:, None]
    real = t_idx < lengths[None, :]
    em_gold = np.where(real, emissions[t_idx, np.arange(B)[None, :], gold], 0.0)
    gold_score = em_gold.sum(axis=0)
    gold_score += transitions[start, gold[0]]
    last = gold[lengths - 1, np.arange(B)]
    gold_score += transitions[last, stop]
    pair_real = t_idx[1:] < lengths[None, :]
    if T > 1:
        gold_score += np.where(pair_real, transitions[gold[:-1], gold[1:]], 0.0).sum(axis=0)
    nll = float(np.sum(logz - gold_score))

    dem = np.zeros_like(emissions)
    dtrans = np.zeros_like(transitions)
    final = alphas[T - 1] + transitions[:L, stop][None, :]
    dalpha = np.exp(final - logz[:, None])
    dtrans[:L, stop] += dalpha.sum(axis=0)
    for t in range(T - 1, 0, -1):
        active = (t < lengths)[:, None]
        dem[t] = np.where(active, dalpha, 0.0)
        m = alphas[t - 1][:, :, None] + transitions[None, :L, :L]
        m = np.exp(m - logsumexp(m, axis=1)[:, None, :])
        dm = np.where(active[:, :, None], m * dalpha[:, None, :], 0.0)
        dtrans[:L, :L] += dm.sum(axis=0)
        dalpha = np.where(active, dm.sum(axis=2), dalpha)
    dem[0] = dalpha
    dtrans[start, :L] += dalpha.sum(axis=0)
    b_idx = np.arange(B)
    np.subtract.at(dem, (t_idx.repeat(B, 1)[real], b_idx[None, :].repeat(T, 0)[real], gold[real]), 1.0)
    np.subtract.at(dtrans, (np.full(B, start), gold[0]), 1.0)
    np.subtract.at(dtrans, (last, np.full(B, stop)), 1.0)
    if T > 1:
        np.subtract.at(dtrans, (gold[:-1][pair_real], gold[1:][pair_real]), 1.0)
    return nll, dem, dtrans


class TestReusedLogSumExp:
    """The gradient reuses the forward's log-sum-exp: the same bits as recomputing it."""

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.integers(0, 2),
           st.integers(1, 5), st.integers(0, 2**16))
    @example([1], 0, 3, 0)  # T = 1, B = 1
    @example([4], 0, 2, 1)  # B = 1
    @example([1, 1, 1], 0, 4, 2)  # T = 1
    @example([5, 5], 0, 3, 3)  # no padding
    @settings(max_examples=80, deadline=None)
    def test_exactly_equal_to_recomputing(self, lengths, pad, L, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths)
        T, B = int(lengths.max()) + pad, len(lengths)
        em = rng.normal(size=(T, B, L)) * 3
        gold = rng.integers(0, L, size=(T, B))
        trans = rng.normal(size=(L + 2, L + 2))
        nll, dem, dtrans = crf_nll_and_grad(em, lengths, gold, trans)
        r_nll, r_dem, r_dtrans = ref_crf_nll_and_grad(em, lengths, gold, trans)
        assert nll == r_nll
        assert np.array_equal(dem, r_dem)
        assert np.array_equal(dtrans, r_dtrans)

    def test_stored_lse_is_the_step_log_sum_exp(self):
        rng = np.random.default_rng(18)
        em = rng.normal(size=(4, 2, 3))
        trans = rng.normal(size=(5, 5))
        _, alphas, lse = crf_forward_batched(em, np.array([4, 2]), trans)
        for t in range(1, 4):
            want = logsumexp(alphas[t - 1][:, :, None] + trans[None, :3, :3], axis=1)
            assert np.array_equal(lse[t], want)
