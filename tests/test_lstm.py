import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexner.tagger.lstm import (
    _sigmoid,
    _swap_time,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    padded_reversal,
)


def make_params(rng, d, h):
    return init_lstm_params(rng, d, h)


class TestForward:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        p = make_params(rng, 5, 4)
        x = rng.normal(size=(6, 3, 5))
        h_seq, h, c, cache = lstm_forward(p, x)
        assert h_seq.shape == (6, 3, 4)
        assert h.shape == (3, 4) and c.shape == (3, 4)
        assert cache["gates"].shape == (6, 3, 16)

    def test_empty_sequence(self):
        rng = np.random.default_rng(0)
        p = make_params(rng, 5, 4)
        h_seq, h, c, cache = lstm_forward(p, np.zeros((0, 2, 5)))
        assert h_seq.shape == (0, 2, 4)
        assert np.all(h == 0) and np.all(c == 0)

    def test_zero_weights_zero_inputs_give_zero_states(self):
        p = {"wx": np.zeros((3, 16)), "wh": np.zeros((4, 16)), "b": np.zeros(16)}
        h_seq, h, c, _ = lstm_forward(p, np.zeros((5, 2, 3)))
        assert np.all(h_seq == 0) and np.all(h == 0) and np.all(c == 0)

    def test_forget_bias_initialized_to_one(self):
        p = init_lstm_params(np.random.default_rng(0), 3, 4)
        assert np.all(p["b"][4:8] == 1.0)
        assert np.all(p["b"][:4] == 0.0) and np.all(p["b"][8:] == 0.0)

    def test_mask_carries_state_through_padding(self):
        rng = np.random.default_rng(1)
        p = make_params(rng, 4, 3)
        x = rng.normal(size=(5, 2, 4))
        lengths = np.array([5, 2])
        mask = (np.arange(5)[:, None] < lengths[None, :]).astype(float)
        h_seq, h_fin, _, _ = lstm_forward(p, x, mask)
        # short sequence: final state equals its state at the last real step
        np.testing.assert_array_equal(h_seq[1, 1], h_fin[1])
        np.testing.assert_array_equal(h_seq[4, 1], h_seq[1, 1])

    def test_masked_batch_matches_unbatched(self):
        rng = np.random.default_rng(2)
        p = make_params(rng, 4, 3)
        x = rng.normal(size=(5, 2, 4))
        lengths = np.array([5, 3])
        mask = (np.arange(5)[:, None] < lengths[None, :]).astype(float)
        h_seq, _, _, _ = lstm_forward(p, x, mask)
        solo, _, _, _ = lstm_forward(p, x[:3, 1:2])
        np.testing.assert_allclose(h_seq[:3, 1], solo[:, 0], atol=1e-12)


class TestBackward:
    def check_param_gradients(self, lengths, dims=(4, 3), T=5):
        d, h = dims
        rng = np.random.default_rng(7)
        p = make_params(rng, d, h)
        B = len(lengths)
        x = rng.normal(size=(T, B, d))
        mask = (np.arange(T)[:, None] < np.array(lengths)[None, :]).astype(float)
        r_seq = rng.normal(size=(T, B, h))
        r_h = rng.normal(size=(B, h))
        r_c = rng.normal(size=(B, h))

        def loss(params, inputs):
            h_seq, hf, cf, _ = lstm_forward(params, inputs, mask)
            return float((h_seq * r_seq).sum() + (hf * r_h).sum() + (cf * r_c).sum())

        _, hf, cf, cache = lstm_forward(p, x, mask)
        dx, grads = lstm_backward(p, cache, r_seq, dh_final=r_h, dc_final=r_c)

        eps = 1e-6
        for name in ("wx", "wh", "b"):
            flat = p[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                up = loss(p, x)
                flat[i] = keep - eps
                down = loss(p, x)
                flat[i] = keep
                num = (up - down) / (2 * eps)
                assert abs(num - gflat[i]) <= 1e-4 * max(1.0, abs(num)), (name, i)
        xflat = x.reshape(-1)
        dxflat = dx.reshape(-1)
        for i in range(0, xflat.size, 7):  # stride keeps it quick
            keep = xflat[i]
            xflat[i] = keep + eps
            up = loss(p, x)
            xflat[i] = keep - eps
            down = loss(p, x)
            xflat[i] = keep
            num = (up - down) / (2 * eps)
            assert abs(num - dxflat[i]) <= 1e-4 * max(1.0, abs(num)), i

    def test_gradients_full_batch(self):
        self.check_param_gradients([5, 5, 5])

    def test_gradients_with_padding(self):
        self.check_param_gradients([5, 2, 3])

    def test_final_state_only_loss(self):
        rng = np.random.default_rng(8)
        p = make_params(rng, 3, 2)
        x = rng.normal(size=(4, 2, 3))
        lengths = np.array([4, 2])
        mask = (np.arange(4)[:, None] < lengths[None, :]).astype(float)
        r = rng.normal(size=(2, 2))

        _, hf, _, cache = lstm_forward(p, x, mask)
        dx, _ = lstm_backward(p, cache, None, dh_final=r)

        eps = 1e-6
        for t in range(4):
            for b in range(2):
                for j in range(3):
                    up, down = x.copy(), x.copy()
                    up[t, b, j] += eps
                    down[t, b, j] -= eps
                    fu = float((lstm_forward(p, up, mask)[1] * r).sum())
                    fd = float((lstm_forward(p, down, mask)[1] * r).sum())
                    num = (fu - fd) / (2 * eps)
                    assert abs(num - dx[t, b, j]) <= 1e-6, (t, b, j)
        # padded inputs cannot influence the final state
        assert np.all(dx[2:, 1] == 0.0)


class TestReversal:
    def test_simple_reverse(self):
        x = np.arange(12, dtype=float).reshape(4, 1, 3)
        out = x[padded_reversal(np.array([4]), 4)]
        np.testing.assert_array_equal(out[0, 0], x[3, 0])
        np.testing.assert_array_equal(out[3, 0], x[0, 0])

    def test_padding_stays_in_place(self):
        x = np.arange(10, dtype=float).reshape(5, 2)
        out = x[padded_reversal(np.array([3, 5]), 5)]
        np.testing.assert_array_equal(out[:, 0], [4, 2, 0, 6, 8])
        np.testing.assert_array_equal(out[:, 1], [9, 7, 5, 3, 1])

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.integers(6, 9))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, lengths, T):
        rng = np.random.default_rng(0)
        B = len(lengths)
        x = rng.normal(size=(T, B, 2))
        lens = np.array(lengths)
        rev = padded_reversal(lens, T)
        np.testing.assert_array_equal(x[rev][rev], x)

    def test_tied_weights_reversal_symmetry(self):
        # running the same parameters forward over "Roma" and backward over
        # "amoR" must land on the same final state
        rng = np.random.default_rng(9)
        p = make_params(rng, 4, 3)
        chars = rng.normal(size=(4, 1, 4))  # stands in for R, o, m, a
        rev = chars[::-1].copy()
        _, fwd_final, _, _ = lstm_forward(p, chars)
        _, bwd_final_of_rev, _, _ = lstm_forward(p, rev[padded_reversal(np.array([4]), 4)])
        np.testing.assert_allclose(fwd_final, bwd_final_of_rev, atol=1e-12)


# ---------------------------------------------------------------------------
# per-step reference kernels
# ---------------------------------------------------------------------------
# The kernels as they were before the input projection and the parameter
# gradients moved out of the time loop: one small product per step and a
# sigmoid that splits on sign. The batched kernels must reproduce them.

def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm_forward(params, x, mask=None):
    T, B, D = x.shape
    H = params["wh"].shape[0]
    if mask is None:
        mask = np.ones((T, B))
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    h_seq = np.zeros((T, B, H))
    cache = []
    wx, wh, b = params["wx"], params["wh"], params["b"]
    for t in range(T):
        m = mask[t][:, None]
        a = x[t] @ wx + h @ wh + b
        i = ref_sigmoid(a[:, :H])
        f = ref_sigmoid(a[:, H : 2 * H])
        g = np.tanh(a[:, 2 * H : 3 * H])
        o = ref_sigmoid(a[:, 3 * H :])
        c_cand = f * c + i * g
        tanh_c = np.tanh(c_cand)
        h_cand = o * tanh_c
        cache.append((x[t], h, c, i, f, g, o, tanh_c, m))
        h = m * h_cand + (1.0 - m) * h
        c = m * c_cand + (1.0 - m) * c
        h_seq[t] = h
    return h_seq, h, c, cache


def ref_lstm_backward(params, cache, dh_seq, dh_final=None, dc_final=None):
    wx, wh = params["wx"], params["wh"]
    T = len(cache)
    H = wh.shape[0]
    grads = {"wx": np.zeros_like(wx), "wh": np.zeros_like(wh), "b": np.zeros_like(params["b"])}
    if T == 0:
        return np.zeros((0, 0, wx.shape[0])), grads
    B = cache[0][1].shape[0]
    dx = np.zeros((T, B, wx.shape[0]))
    dh = np.zeros((B, H)) if dh_final is None else dh_final.copy()
    dc = np.zeros((B, H)) if dc_final is None else dc_final.copy()
    for t in range(T - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, tanh_c, m = cache[t]
        if dh_seq is not None:
            dh = dh + dh_seq[t]
        dh_cand = m * dh
        dh_pass = (1.0 - m) * dh
        dc_cand = m * dc
        dc_pass = (1.0 - m) * dc
        do = dh_cand * tanh_c
        dc_total = dc_cand + dh_cand * o * (1.0 - tanh_c ** 2)
        di = dc_total * g
        df = dc_total * c_prev
        dg = dc_total * i
        dc = dc_total * f + dc_pass
        da = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g ** 2), do * o * (1.0 - o)],
            axis=1,
        )
        dx[t] = da @ wx.T
        grads["wx"] += x_t.T @ da
        grads["wh"] += h_prev.T @ da
        grads["b"] += da.sum(axis=0)
        dh = da @ wh.T + dh_pass
    return dx, grads


def assert_close(got, want):
    """rtol 1e-12 with an absolute floor of 1e-12 times the largest entry.

    The kernels sum the same float64 terms in another order, which moves a
    result by a few ulps of its largest terms: a large relative error on an
    entry whose terms cancel to near zero.
    """
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=0.0))


def check_against_reference(lengths, T, d=5, h=4, seed=0, seq_grad=True):
    rng = np.random.default_rng(seed)
    p = make_params(rng, d, h)
    B = len(lengths)
    x = rng.normal(size=(T, B, d))
    mask = (np.arange(T)[:, None] < np.array(lengths)[None, :]).astype(float)
    dh_seq = rng.normal(size=(T, B, h)) if seq_grad else None
    dh_fin, dc_fin = rng.normal(size=(B, h)), rng.normal(size=(B, h))

    h_seq, h_fin, c_fin, cache = lstm_forward(p, x, mask)
    r_seq, r_h, r_c, r_cache = ref_lstm_forward(p, x, mask)
    for got, want in ((h_seq, r_seq), (h_fin, r_h), (c_fin, r_c)):
        assert_close(got, want)

    dx, grads = lstm_backward(p, cache, dh_seq, dh_final=dh_fin, dc_final=dc_fin)
    r_dx, r_grads = ref_lstm_backward(p, r_cache, dh_seq, dh_final=dh_fin, dc_final=dc_fin)
    assert dx.shape == x.shape
    if T > 0:  # the reference returns (0, 0, D) for an empty batch
        assert_close(dx, r_dx)
    for k in ("wx", "wh", "b"):
        assert_close(grads[k], r_grads[k])


class TestMatchesPerStepReference:
    @pytest.mark.parametrize("lengths, T", [
        ([7, 3, 1, 5], 7),   # ragged
        ([6, 6, 6], 6),      # no padding
        ([4], 4),            # B = 1
        ([1], 1),            # one step
        ([2, 0, 3], 3),      # a sequence with no real step
        ([0, 0], 0),         # T = 0
        ([0], 0),            # T = 0, B = 1
    ])
    def test_ragged_batches(self, lengths, T):
        check_against_reference(lengths, T)

    def test_final_state_only(self):
        check_against_reference([5, 2, 4], 5, seq_grad=False)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(0, 2),
           st.integers(0, 2**16))
    @example([0, 6, 0, 6], 0, 6)  # a d_b entry that cancels to 3e-6
    @settings(max_examples=60, deadline=None)
    def test_random_ragged(self, lengths, pad, seed):
        check_against_reference(lengths, max(lengths) + pad, d=3, h=2, seed=seed)


# ---------------------------------------------------------------------------
# stacked directions
# ---------------------------------------------------------------------------

def check_stacked(lengths, T, d=5, h=4, seed=0):
    """One stacked call over two parameter sets equals two separate calls."""
    rng = np.random.default_rng(seed)
    ps = [make_params(rng, d, h) for _ in range(2)]
    stacked = {k: np.stack([ps[0][k], ps[1][k]]) for k in ps[0]}
    B = len(lengths)
    x = rng.normal(size=(2, T, B, d))
    mask = (np.arange(T)[:, None] < np.array(lengths)[None, :]).astype(float)
    dh_seq = rng.normal(size=(2, T, B, h))
    dh_fin, dc_fin = rng.normal(size=(2, B, h)), rng.normal(size=(2, B, h))

    h_seq, h_fin, c_fin, cache = lstm_forward(stacked, x, mask)
    dx, grads = lstm_backward(stacked, cache, dh_seq, dh_final=dh_fin, dc_final=dc_fin)
    assert h_seq.shape == (2, T, B, h) and dx.shape == x.shape
    for s in range(2):
        s_seq, s_fin, s_c, s_cache = lstm_forward(ps[s], x[s], mask)
        for got, want in ((h_seq[s], s_seq), (h_fin[s], s_fin), (c_fin[s], s_c)):
            assert_close(got, want)
        s_dx, s_grads = lstm_backward(ps[s], s_cache, dh_seq[s],
                                      dh_final=dh_fin[s], dc_final=dc_fin[s])
        assert_close(dx[s], s_dx)
        for k in ("wx", "wh", "b"):
            assert_close(grads[k][s], s_grads[k])


class TestStackedDirections:
    @pytest.mark.parametrize("lengths, T", [
        ([7, 3, 1, 5], 7),   # ragged
        ([4], 4),            # B = 1
        ([2, 0, 3], 3),      # an all-padding column
        ([0, 0], 0),         # T = 0
    ])
    def test_matches_two_calls(self, lengths, T):
        check_stacked(lengths, T)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_random_ragged(self, lengths, seed):
        check_stacked(lengths, max(lengths), d=3, h=2, seed=seed)


# ---------------------------------------------------------------------------
# masking on every step
# ---------------------------------------------------------------------------

def _shift_in_zero(seq):
    """seq[t - 1] at position t, zeros at t = 0: the state entering each step."""
    prev = np.zeros_like(seq)
    prev[1:] = seq[:-1]
    return prev


def where_lstm_forward(params, x, mask):
    """The kernel's forward with the carry selected by np.where on every step."""
    *stack, T, B, D = x.shape
    wh = params["wh"]
    H = wh.shape[-2]
    real = mask[:, :, None] != 0
    a_x = x.reshape(*stack, T * B, D) @ params["wx"] + params["b"][..., None, :]
    a_x = _swap_time(a_x.reshape(*stack, T, B, 4 * H)).copy()
    h = np.zeros((*stack, B, H))
    c = np.zeros((*stack, B, H))
    h_seq, c_seq, tanh_c = (np.empty((T, *stack, B, H)) for _ in range(3))
    gates = np.empty((T, *stack, B, 4 * H))
    for t in range(T):
        a = h @ wh
        a += a_x[t]
        act = _sigmoid(a, out=gates[t])
        i, f, g, o = act[..., :H], act[..., H : 2 * H], act[..., 2 * H : 3 * H], act[..., 3 * H :]
        np.tanh(a[..., 2 * H : 3 * H], out=g)
        c_cand = f * c
        c_cand += i * g
        np.tanh(c_cand, out=tanh_c[t])
        h_seq[t] = np.where(real[t], o * tanh_c[t], h)
        c_seq[t] = np.where(real[t], c_cand, c)
        h, c = h_seq[t], c_seq[t]
    cache = {"x": x, "real": real, "h": h_seq, "c": c_seq, "gates": gates, "tanh_c": tanh_c}
    return _swap_time(h_seq), h, c, cache


def where_lstm_backward(params, cache, dh_seq, dh_final, dc_final):
    """The kernel's backward with the carry selected by np.where on every step."""
    wx, wh = params["wx"], params["wh"]
    x, real, gates, tanh_c = cache["x"], cache["real"], cache["gates"], cache["tanh_c"]
    *stack, T, B, D = x.shape
    H = wh.shape[-2]
    h_prev = _shift_in_zero(cache["h"])
    c_prev = _shift_in_zero(cache["c"])
    i, f, g, o = (gates[..., k * H : (k + 1) * H] for k in range(4))
    do_dc = o * (1.0 - tanh_c ** 2)
    local = np.empty_like(gates)
    local[..., :H] = g * (i * (1.0 - i))
    local[..., H : 2 * H] = c_prev * (f * (1.0 - f))
    local[..., 2 * H : 3 * H] = i * (1.0 - g ** 2)
    local[..., 3 * H :] = tanh_c * (o * (1.0 - o))
    local = local.reshape(T, *stack, B, 4, H)
    dh_seq = _swap_time(dh_seq)
    da = np.empty((T, *stack, B, 4, H))
    dh, dc = dh_final.copy(), dc_final.copy()
    wh_t = np.swapaxes(wh, -1, -2)
    for t in range(T - 1, -1, -1):
        dh = dh + dh_seq[t]
        dh_cand = np.where(real[t], dh, 0.0)
        dc_total = np.where(real[t], dc, 0.0) + dh_cand * do_dc[t]
        da_t = da[t]
        da_t[..., :3, :] = dc_total[..., None, :]
        da_t[..., 3, :] = dh_cand
        da_t *= local[t]
        dc = np.where(real[t], dc_total * f[t], dc)
        dh = np.where(real[t], da_t.reshape(*stack, B, 4 * H) @ wh_t, dh)
    da = _swap_time(da.reshape(T, *stack, B, 4 * H)).reshape(*stack, T * B, 4 * H)
    h_prev = _swap_time(h_prev).reshape(*stack, T * B, H)
    grads = {
        "wx": np.swapaxes(x.reshape(*stack, T * B, D), -1, -2) @ da,
        "wh": np.swapaxes(h_prev, -1, -2) @ da,
        "b": da.sum(axis=-2),
    }
    return (da @ np.swapaxes(wx, -1, -2)).reshape(*stack, T, B, D), grads


class TestSkippedCarryMasking:
    """Steps where every sequence is running skip the carry selection; the
    result keeps every bit of selecting on every step."""

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(0, 2),
           st.booleans(), st.integers(0, 2**16))
    @example([4, 4, 4], 0, False, 0)  # every step full
    @example([5, 1, 3], 0, True, 1)  # one sequence ends at once
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_masking_every_step(self, lengths, pad, stacked, seed):
        rng = np.random.default_rng(seed)
        d, h, B, T = 3, 2, len(lengths), max(lengths) + pad
        stack = (2,) if stacked else ()
        ps = [make_params(rng, d, h) for _ in range(2)]
        p = {k: np.stack([ps[0][k], ps[1][k]]) for k in ps[0]} if stacked else ps[0]
        x = rng.normal(size=(*stack, T, B, d))
        mask = (np.arange(T)[:, None] < np.array(lengths)[None, :]).astype(float)
        dh_seq = rng.normal(size=(*stack, T, B, h))
        dh_fin, dc_fin = rng.normal(size=(*stack, B, h)), rng.normal(size=(*stack, B, h))

        got = lstm_forward(p, x, mask)
        want = where_lstm_forward(p, x, mask)
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        for k in want[3]:
            assert np.array_equal(got[3][k], want[3][k]), k
        for k in ("h", "c"):  # the states entering each step, without a shifted copy
            assert np.array_equal(got[3][f"{k}_prev"], _shift_in_zero(want[3][k])), k
        dx, grads = lstm_backward(p, got[3], dh_seq, dh_final=dh_fin, dc_final=dc_fin)
        r_dx, r_grads = where_lstm_backward(p, want[3], dh_seq, dh_fin, dc_fin)
        assert np.array_equal(dx, r_dx)
        for k in ("wx", "wh", "b"):
            assert np.array_equal(grads[k], r_grads[k]), k


class TestSaturatedGates:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_exact_zeros_and_ones_as_the_reference_sigmoid(self, stacked):
        # |pre-activation| >= 43 on every gate: x @ wx and h @ wh stay under
        # 6 and 1 against a bias of 50 to 80, so tanh(x / 2) is exactly +-1
        # and the finishing +1, x0.5 gives exact 0 and 1
        rng = np.random.default_rng(7)
        d, h, T, B = 3, 2, 5, 4
        stack = (2,) if stacked else ()
        p = {"wx": rng.uniform(-0.5, 0.5, size=(*stack, d, 4 * h)),
             "wh": rng.uniform(-0.5, 0.5, size=(*stack, h, 4 * h)),
             "b": rng.choice([-1.0, 1.0], size=(*stack, 4 * h)) * rng.uniform(50, 80, size=4 * h)}
        x = np.clip(rng.normal(size=(*stack, T, B, d)), -4, 4)
        mask = (np.arange(T)[:, None] < np.array([5, 3, 5, 1])[None, :]).astype(float)
        got = lstm_forward(p, x, mask)
        want = where_lstm_forward(p, x, mask)
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        for k in ("h", "c", "gates", "tanh_c"):
            assert np.array_equal(got[3][k], want[3][k]), k
        gates = got[3]["gates"].reshape(T, *stack, B, 4, h)
        sig = gates[..., [0, 1, 3], :]
        assert np.all((sig == 0.0) | (sig == 1.0)) and np.any(sig == 0.0) and np.any(sig == 1.0)
        assert np.all(np.abs(gates[..., 2, :]) == 1.0)


class TestSigmoid:
    def test_matches_logistic(self):
        x = np.linspace(-40.0, 40.0, 160001)
        np.testing.assert_allclose(_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=1e-15)

    def test_saturates_exactly_without_overflow(self):
        with np.errstate(all="raise"):
            out = _sigmoid(np.array([-1e4, 1e4]))
        assert out[0] == 0.0 and out[1] == 1.0


# ---------------------------------------------------------------------------
# input rows shared by positions
# ---------------------------------------------------------------------------

class TestRowIndex:
    """Projecting a table of rows once and gathering the results keeps every
    bit of projecting each position's copy of its row."""

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(0, 2),
           st.integers(1, 8), st.booleans(), st.integers(0, 2**16))
    @example([3, 1, 2], 0, 4, True, 0)       # ended sequences, fewer rows than positions
    @example([2, 2], 0, 1, True, 1)          # one row feeds every position
    @example([1], 0, 5, True, 2)             # B = 1, one position
    @example([6], 1, 2, False, 3)            # B = 1, unstacked, padding
    @example([0, 0], 0, 3, True, 4)          # T = 0
    @example([5, 5, 5], 0, 3, False, 5)      # every step full, rows repeat
    @settings(max_examples=80, deadline=None)
    def test_equals_per_position_call(self, lengths, pad, n_rows, stacked, seed):
        rng = np.random.default_rng(seed)
        d, h, B, T = 3, 2, len(lengths), max(lengths) + pad
        stack = (2,) if stacked else ()
        ps = [make_params(rng, d, h) for _ in range(2)]
        p = {k: np.stack([ps[0][k], ps[1][k]]) for k in ps[0]} if stacked else ps[0]
        x = rng.normal(size=(n_rows, d))
        rows = rng.integers(0, n_rows, size=(*stack, T, B))
        mask = (np.arange(T)[:, None] < np.array(lengths)[None, :]).astype(float)
        dh_seq = rng.normal(size=(*stack, T, B, h))
        dh_fin, dc_fin = rng.normal(size=(*stack, B, h)), rng.normal(size=(*stack, B, h))

        got = lstm_forward(p, x, mask, rows=rows)
        want = lstm_forward(p, x[rows], mask)
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        for k in ("real", "h", "c", "gates", "tanh_c"):
            assert np.array_equal(got[3][k], want[3][k]), k
        cache = got[3]
        at = cache["x"] if cache["rows"] is None else cache["x"][cache["rows"]]
        assert np.array_equal(at, x[rows])
        dx, grads = lstm_backward(p, got[3], dh_seq, dh_final=dh_fin, dc_final=dc_fin)
        r_dx, r_grads = lstm_backward(p, want[3], dh_seq, dh_final=dh_fin, dc_final=dc_fin)
        assert np.array_equal(dx, r_dx)
        for k in ("wx", "wh", "b"):
            assert np.array_equal(grads[k], r_grads[k]), k

    @pytest.mark.parametrize("n_rows, T, B, by_row", [
        (3, 6, 4, True),     # fewer rows than positions
        (24, 6, 4, False),   # as many rows as positions
        (1, 6, 4, False),    # one row
        (2, 1, 1, False),    # one position
    ])
    def test_the_fewer_of_rows_and_positions_is_projected(self, n_rows, T, B, by_row):
        rng = np.random.default_rng(0)
        ps = [make_params(rng, 3, 2) for _ in range(2)]
        p = {k: np.stack([ps[0][k], ps[1][k]]) for k in ps[0]}
        x = rng.normal(size=(n_rows, 3))
        rows = rng.integers(0, n_rows, size=(2, T, B))
        cache = lstm_forward(p, x, rows=rows)[3]
        if by_row:
            assert cache["x"] is x and np.array_equal(cache["rows"], rows)
        else:
            assert cache["rows"] is None and np.array_equal(cache["x"], x[rows])


# ---------------------------------------------------------------------------
# the cache-free forward used for tagging
# ---------------------------------------------------------------------------

class TestCacheFree:
    """Without a cache the forward runs the same step loop, so its outputs
    keep every bit of the cached call's."""

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(0, 2),
           st.integers(0, 8), st.booleans(), st.integers(0, 2**16))
    @example([7, 3, 1, 5], 0, 4, True, 0)    # ragged, fewer rows than positions
    @example([2, 0, 3], 0, 0, True, 1)       # an all-padding column, no rows
    @example([0, 0], 0, 3, False, 2)         # T = 0
    @example([0], 1, 0, False, 3)            # B = 1, padding only
    @example([6], 0, 2, False, 4)            # B = 1, unstacked, rows
    @example([4, 4, 4], 0, 0, False, 5)      # every step full, no rows
    @example([1, 1], 0, 3, True, 6)          # T = 1
    @example([1, 4, 3], 0, 5, True, 7)       # stacked, padding from step 1
    @settings(max_examples=80, deadline=None)
    def test_equals_cached_call(self, lengths, pad, n_rows, stacked, seed):
        rng = np.random.default_rng(seed)
        d, h, B, T = 3, 2, len(lengths), max(lengths) + pad
        stack = (2,) if stacked else ()
        ps = [make_params(rng, d, h) for _ in range(2)]
        p = {k: np.stack([ps[0][k], ps[1][k]]) for k in ps[0]} if stacked else ps[0]
        mask = (np.arange(T)[:, None] < np.array(lengths)[None, :]).astype(float)
        if n_rows:  # 0 stands for a call without `rows`
            x, rows = rng.normal(size=(n_rows, d)), rng.integers(0, n_rows, size=(*stack, T, B))
        else:
            x, rows = rng.normal(size=(*stack, T, B, d)), None

        want = lstm_forward(p, x, mask, rows=rows)
        got = lstm_forward(p, x, mask, rows=rows, keep_cache=False)
        assert got[3] is None and want[3] is not None
        for a, b in zip(got[:3], want[:3]):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_peak_memory_under_half_of_cached(self):
        # a tagging-sized stacked call: 100 sentences, the longest 124 tokens
        rng = np.random.default_rng(0)
        T, B, d, h, n_rows = 124, 100, 8, 16, 500
        ps = [make_params(rng, d, h) for _ in range(2)]
        p = {k: np.stack([ps[0][k], ps[1][k]]) for k in ps[0]}
        x = rng.normal(size=(n_rows, d))
        rows = rng.integers(0, n_rows, size=(2, T, B))
        lengths = rng.integers(1, T + 1, size=B)
        lengths[0] = T
        mask = (np.arange(T)[:, None] < lengths[None, :]).astype(float)

        def peak(keep_cache):
            tracemalloc.start()
            try:
                lstm_forward(p, x, mask, rows=rows, keep_cache=keep_cache)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cached, free = peak(True), peak(False)
        assert free < cached / 2, (free, cached)
