"""Batched LSTM forward/backward in plain numpy (float64).

Positions are laid out time-major, (T, B), with a (T, B) mask that is 1 on
real positions and 0 on padding. Masked steps carry the previous hidden
and cell state through unchanged, so the final row of the hidden sequence
always holds each sequence's true last state, and a reversed-and-padded
batch runs through the same kernel for the backward direction.

The input is a table of rows, x (N, D), plus a (T, B) index `rows` that
says which row feeds each position; many positions may share a row (a
word's characters are rows of the character embedding, a sentence's
tokens rows of the distinct surfaces). Without `rows`, x is the (T, B, D)
batch itself, one row per position.

Gate layout along the last axis of the parameter matrices: input, forget,
candidate, output. Sigmoid on i/f/o, tanh on the candidate. Each call
multiplies the i/f/o columns of wx, wh and b by 0.5: halving every term of
a sum halves it exactly, in any order of addition, so one tanh over a
step's (..., 4H) block gives tanh(x / 2) on i/f/o, which +1 and x0.5 finish
into `_sigmoid(x)` bit for bit, and tanh(x) on the candidate. The candidate
is kept aside during that finish and copied back when there is a cache.

Only the recurrent product h @ wh runs inside the time loop. The input
projection x @ wx + b runs before the loop, once per row, and each step
gathers the projected rows of its own positions as it runs, so no
(T, B, 4H) copy of the projection is made. When there are no more positions
than rows, the positions are projected instead. The backward pass collects
the pre-activation gradients of every step so that dx, d_wx, d_wh and d_b
are one product (or sum) each after it; dx is per position, and only d_wx
needs the inputs, so the backward pass gathers them per position there.

Projecting rows gives every position the bits that projecting the
positions would: the matrix product computes each output row from its
input row alone, whatever else is in the batch. The exception is a product
with one row, which numpy runs as a matrix-vector product that rounds
differently, so a one-row table is projected per position too.

Both kernels also take one leading stack axis: wx (S, D, 4H), wh (S, H, 4H)
and b (S, 4H) run S independent recurrences (the two directions of a
BiLSTM) over one shared (T, B) mask, so they share each step's numpy-call
overhead. `rows` is then (S, T, B), one index per recurrence, over the
shared table x (N, D); without `rows`, x is (S, T, B, D). Outputs and
gradients carry S in front; inside, per-step arrays are (T, S, B, .) so
each step's slice is contiguous.

Each forward step writes its states straight into buffers of T + 1 rows
whose row 0 is the zero initial state, so the state entering step t is row
t of the same buffer. On a step where every sequence is still running, both
passes skip the carry selection, which would pick the fresh values
everywhere.

Tagging runs no backward pass, so `lstm_forward(..., keep_cache=False)`
keeps only what its outputs need: the hidden states, one slot that each
step's gates and tanh of the cell state overwrite, and two slots that the
cell state alternates between. The views a step uses (its gates block,
that block's i/f/g/o columns and its tanh(c) slot) are made before the
loop, one set per slot, so with one slot they are made once. Each step
writes h @ wh straight into its gates slot and i * g over the candidate's
buffer. Its outputs equal the cached call's bit for bit, since both run
the same step loop. At the default tagger configuration, dropping the
cache lowers the tracemalloc peak of `tag_batch` from 25.8 to 5.7 MiB on
100 sentences that include a 124-token one, and from 104 to 25 MiB on one
run of 4,096 padded positions.

The forward cache is a dict: "x" the rows projected and "rows" ([S,] T, B)
the index into them, or None when "x" holds the positions ([S,] T, B, D)
themselves, "real" (T, B, 1) bool, "h" and "c" (T, [S,] B, H) holding the
carried states after each step, "h_prev" and "c_prev" the states entering
each step (views of the same buffers, one row earlier), "gates"
(T, [S,] B, 4H) holding the activated i/f/g/o and "tanh_c" (T, [S,] B, H)
holding tanh of the candidate cell state.
"""
from __future__ import annotations

import numpy as np


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, shape)


def init_lstm_params(rng: np.random.Generator, input_dim: int, hidden: int) -> dict[str, np.ndarray]:
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0  # forget-gate bias
    return {
        "wx": glorot(rng, (input_dim, 4 * hidden)),
        "wh": glorot(rng, (hidden, 4 * hidden)),
        "b": b,
    }


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 0.5 * (1 + tanh(x / 2)) in place; tanh saturates to exactly +-1
    # instead of overflowing, so no masks. The forward's gates are tested
    # against it (see the module notes)
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def lstm_forward(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    mask: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray] | None]:
    """Run the recurrence over the rows of x that `rows` places at each
    (T, B) position, or over a (T, B, D) batch when `rows` is None.

    Returns (h_seq (T, B, H), h_final (B, H), c_final (B, H), cache), each
    with the stack axis in front when the parameters have one. Initial
    states are zero. With T == 0 everything is empty/zero. The cache is for
    `lstm_backward`; without `keep_cache` it is None, and the step
    arrays that only the backward pass reads are not kept.
    """
    wh = params["wh"]
    *stack, H, _ = wh.shape
    if rows is not None and not 1 < len(x) < rows.shape[-2] * rows.shape[-1]:
        # projecting the positions is no more work (see the module notes for
        # the one-row table)
        x, rows = x.take(rows, axis=0), None
    if rows is None:  # one row per position
        *lead, T, B, D = x.shape
        table, at = x.reshape(*lead, T * B, D), np.arange(T * B).reshape(T, B)
    else:
        T, B = rows.shape[-2:]
        table, at = x, rows
    real = np.ones((T, B, 1), dtype=bool) if mask is None else mask[:, :, None] != 0
    half = np.full(4 * H, 0.5)  # halves the i/f/o columns (see the module notes)
    half[2 * H : 3 * H] = 1.0
    wh = wh * half
    b = (params["b"] * half)[..., None, :]
    a_rows = (table @ (params["wx"] * half) + b).reshape(-1, 4 * H)  # ([S *] N, 4H)
    if stack:  # row numbers in the flattened a_rows, time-major
        at = np.swapaxes(at + table.shape[-2] * np.arange(stack[0])[:, None, None], 0, 1)
    pad = ~real
    full = real.all(axis=(1, 2)).tolist()  # steps where every sequence is running
    # without a cache, every step writes its gates and tanh(c) to one slot and
    # its cell state to the one of two slots that does not hold the state it reads
    steps = T if keep_cache else 1
    h_buf = np.empty((T + 1, *stack, B, H))
    c_buf = np.empty((steps + 1, *stack, B, H))
    h, c = h_buf[0], c_buf[0]
    h[...] = c[...] = 0.0  # the initial state
    tanh_c = np.empty((steps, *stack, B, H))
    gates = np.empty((steps, *stack, B, 4 * H))
    # each slot's gates, their i/f/g/o columns and its tanh(c), made before the loop
    slots = [(a, a[..., :H], a[..., H : 2 * H], a[..., 2 * H : 3 * H], a[..., 3 * H :], tc)
             for a, tc in zip(gates, tanh_c)]
    g = np.empty((*stack, B, H))  # the candidate, kept aside while i/f/o are finished; then i * g
    for t in range(T):
        act, i, f, cand, o, tanh_c_t = slots[t % steps]
        np.matmul(h, wh, out=act)
        act += a_rows.take(at[t], axis=0)
        np.tanh(act, out=act)  # tanh(x / 2) on i/f/o, tanh(x) on g
        g[...] = cand
        act += 1.0
        act *= 0.5
        if keep_cache:  # the backward pass reads the candidate from the cache
            cand[...] = g
        c_t = np.multiply(f, c, out=c_buf[(t + 1) % len(c_buf)])
        c_t += np.multiply(i, g, out=g)
        np.tanh(c_t, out=tanh_c_t)
        h_t = np.multiply(o, tanh_c_t, out=h_buf[t + 1])
        if not full[t]:  # ended sequences carry their states
            np.copyto(h_t, h, where=pad[t])
            np.copyto(c_t, c, where=pad[t])
        h, c = h_t, c_t
    cache = None
    if keep_cache:
        cache = {"x": x, "rows": rows, "real": real, "h": h_buf[1:], "c": c_buf[1:],
                 "h_prev": h_buf[:-1], "c_prev": c_buf[:-1], "gates": gates, "tanh_c": tanh_c}
    return _swap_time(h_buf[1:]), h, c, cache


def _swap_time(a: np.ndarray) -> np.ndarray:
    """View of a (S, T, B, K) array as (T, S, B, K) and back; (T, B, K) as is."""
    return np.swapaxes(a, 0, -3)


def lstm_backward(
    params: dict[str, np.ndarray],
    cache: dict[str, np.ndarray],
    dh_seq: np.ndarray | None,
    dh_final: np.ndarray | None = None,
    dc_final: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backprop through lstm_forward, stacked or not.

    dh_seq matches h_seq (may be None when only the final state feeds the
    loss); dh_final/dc_final inject gradients arriving at the last carried
    states. Returns (dx (T, B, D), parameter gradients), with the stack
    axis in front as in the forward call; dx is per position, not per row.
    """
    wx, wh = params["wx"], params["wh"]
    x, rows, real, gates, tanh_c = (cache[k] for k in ("x", "rows", "real", "gates", "tanh_c"))
    T, *stack, B, _ = gates.shape
    D = x.shape[-1]
    H = wh.shape[-2]
    i, f, g, o = (gates[..., k * H : (k + 1) * H] for k in range(4))
    # Per-step factors that do not depend on the incoming gradient. Step t's
    # pre-activation gradient is [dc*i', dc*f', dc*g', dh*o'] times these.
    do_dc = o * (1.0 - tanh_c ** 2)
    local = np.subtract(1.0, gates)
    local *= gates  # the sigmoid slope s * (1 - s); the candidate's is replaced below
    local = local.reshape(T, *stack, B, 4, H)
    local[..., 0, :] *= g
    local[..., 1, :] *= cache["c_prev"]
    local[..., 2, :] = i * (1.0 - g ** 2)
    local[..., 3, :] *= tanh_c

    dh_seq = None if dh_seq is None else _swap_time(dh_seq)
    pad = ~real
    full = real.all(axis=(1, 2)).tolist()
    da = np.empty((T, *stack, B, 4, H))
    dh = np.zeros((*stack, B, H)) if dh_final is None else dh_final.copy()
    dc = np.zeros((*stack, B, H)) if dc_final is None else dc_final.copy()
    wh_t = np.swapaxes(wh, -1, -2)
    for t in range(T - 1, -1, -1):
        if dh_seq is not None:
            dh += dh_seq[t]
        if full[t]:
            dh_cand, dc_in = dh, dc
        else:
            dh_cand, dc_in = np.where(real[t], dh, 0.0), np.where(real[t], dc, 0.0)
        dc_total = dh_cand * do_dc[t]
        dc_total += dc_in
        da_t = da[t]
        da_t[..., :3, :] = dc_total[..., None, :]
        da_t[..., 3, :] = dh_cand
        da_t *= local[t]
        dc_t = dc_total * f[t]
        dh_t = da_t.reshape(*stack, B, 4 * H) @ wh_t
        if not full[t]:  # ended sequences pass their gradients through untouched
            np.copyto(dc_t, dc, where=pad[t])
            np.copyto(dh_t, dh, where=pad[t])
        dc, dh = dc_t, dh_t

    da = _swap_time(da.reshape(T, *stack, B, 4 * H)).reshape(*stack, T * B, 4 * H)
    h_prev = _swap_time(cache["h_prev"]).reshape(*stack, T * B, H)
    x_at = x if rows is None else x.take(rows, axis=0)  # the input at each position
    grads = {
        "wx": np.swapaxes(x_at.reshape(*stack, T * B, D), -1, -2) @ da,
        "wh": np.swapaxes(h_prev, -1, -2) @ da,
        "b": da.sum(axis=-2),
    }
    dx = (da @ np.swapaxes(wx, -1, -2)).reshape(*stack, T, B, D)
    return dx, grads


def padded_reversal(lengths: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The (time, batch) index pair that reverses each sequence of a
    time-major batch within its true length: x[index] for (T, B) and
    (T, B, D) arrays alike.

    Padding stays in place, so applying it twice is the identity.
    """
    t = np.arange(T)[:, None]
    return np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))[None, :]
