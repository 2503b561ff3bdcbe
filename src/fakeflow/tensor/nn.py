"""Differentiable layers built on the engine primitives.

Fused ops (conv1d, pooling, segment max, embedding lookup, pairwise
attention scores) carry hand-derived backward rules; composite layers
(dense, bigru) are wired from engine primitives so their gradients come
for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError, UsageError
from . import engine
from .engine import DTYPE, Parameter, Tensor, _coerce, _record, activation


def embedding_lookup(ids, table) -> Tensor:
    """Gather rows of `table` (V x D) for an integer id array of any shape.

    Output shape is ids.shape + (D,). Row 0 is reserved: no token maps to
    it, but it is trainable like any other row.
    """
    if not isinstance(table, Tensor):
        raise UsageError("embedding_lookup requires the table as a tape Tensor; use tape.read()")
    tape = table.tape
    table = _coerce(tape, table)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.value.shape}")
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ShapeError(f"ids must be integers, got dtype {ids.dtype}")
    vocab, dim = table.value.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(
            f"token id out of range: ids span [{ids.min()}, {ids.max()}], vocab size {vocab}"
        )

    def vjp(g):
        gt = np.zeros((vocab, dim), dtype=DTYPE)
        np.add.at(gt, ids.ravel(), g.reshape(-1, dim))
        return (gt,)

    return _record(tape, table.value[ids], (table,), vjp, "embedding_lookup")


def conv1d(x, filters, bias) -> Tensor:
    """Valid 1-D convolution over a (L, D) sequence, stride 1.

    filters: (K, w, D); bias: (K,). Output (L - w + 1, K) with
    out[t, k] = bias[k] + sum_{i, d} x[t + i, d] * filters[k, i, d].
    """
    tape = x.tape
    x, filters, bias = _coerce(tape, x), _coerce(tape, filters), _coerce(tape, bias)
    xv, fv, bv = x.value, filters.value, bias.value
    if xv.ndim != 2 or fv.ndim != 3 or bv.ndim != 1:
        raise ShapeError(
            f"conv1d: expected x (L,D), filters (K,w,D), bias (K,), "
            f"got {xv.shape}, {fv.shape}, {bv.shape}"
        )
    length, dim = xv.shape
    n_filters, width, fdim = fv.shape
    if fdim != dim or bv.shape[0] != n_filters:
        raise ShapeError(f"conv1d: filters {fv.shape} / bias {bv.shape} do not match x {xv.shape}")
    if length < width:
        raise ShapeError(f"conv1d: sequence length {length} shorter than filter width {width}")

    windows = sliding_window_view(xv, width, axis=0)  # (L', D, w)
    out = np.einsum("tdi,kid->tk", windows, fv, optimize=True) + bv

    def vjp(g):
        gf = np.einsum("tdi,tk->kid", windows, g, optimize=True)
        gb = g.sum(axis=0)
        padded = np.zeros((g.shape[0] + 2 * (width - 1), n_filters), dtype=DTYPE)
        if width > 1:
            padded[width - 1 : width - 1 + g.shape[0]] = g
        else:
            padded = g
        gwin = sliding_window_view(padded, width, axis=0)  # (L, K, w)
        gx = np.einsum("skj,kjd->sd", gwin, fv[:, ::-1, :], optimize=True)
        return np.ascontiguousarray(gx), np.ascontiguousarray(gf), gb

    return _record(tape, out, (x, filters, bias), vjp, "conv1d")


def maxpool1d(x, pool: int) -> Tensor:
    """Windowed max over a (L, K) sequence; the last window may be short.

    Output has ceil(L / pool) rows. The subgradient routes to the first
    maximal index within each window.
    """
    x = _coerce(x.tape, x)
    xv = x.value
    if xv.ndim != 2:
        raise ShapeError(f"maxpool1d: expected (L, K), got {xv.shape}")
    if pool < 1:
        raise ShapeError(f"maxpool1d: pool size must be >= 1, got {pool}")
    length, channels = xv.shape
    n_out = -(-length // pool)
    padded = np.full((n_out * pool, channels), -np.inf, dtype=DTYPE)
    padded[:length] = xv
    blocks = padded.reshape(n_out, pool, channels)
    arg = blocks.argmax(axis=1)  # first maximal index per window
    out = np.take_along_axis(blocks, arg[:, None, :], axis=1)[:, 0, :]
    rows = arg + (np.arange(n_out) * pool)[:, None]

    def vjp(g):
        gx = np.zeros((length, channels), dtype=DTYPE)
        cols = np.broadcast_to(np.arange(channels), rows.shape)
        np.add.at(gx, (rows.ravel(), cols.ravel()), g.ravel())
        return (gx,)

    return _record(x.tape, out, (x,), vjp, "maxpool1d")


def global_maxpool(x) -> Tensor:
    """Columnwise max of a (L, K) sequence, producing (K,).

    Ties route the gradient to the first maximal row.
    """
    x = _coerce(x.tape, x)
    xv = x.value
    if xv.ndim != 2 or xv.shape[0] < 1:
        raise ShapeError(f"global_maxpool: expected non-empty (L, K), got {xv.shape}")
    arg = xv.argmax(axis=0)
    cols = np.arange(xv.shape[1])
    out = xv[arg, cols]

    def vjp(g):
        gx = np.zeros_like(xv)
        np.add.at(gx, (arg, cols), g)
        return (gx,)

    return _record(x.tape, out.copy(), (x,), vjp, "global_maxpool")


def segment_max(x, starts, counts) -> Tensor:
    """Columnwise max of each segment of rows of a (L, K) sequence.

    starts, counts: integer arrays of one shape S; segment s is rows
    [starts[s], starts[s] + counts[s]). Output S + (K,): each segment's
    max, or zeros for a segment with no rows. Ties route the gradient to
    the first maximal row of the segment, as global_maxpool does.
    """
    x = _coerce(x.tape, x)
    xv = x.value
    starts, counts = np.asarray(starts), np.asarray(counts)
    if (xv.ndim != 2 or starts.shape != counts.shape
            or starts.dtype.kind not in "iu" or counts.dtype.kind not in "iu"):
        raise ShapeError(
            f"segment_max: expected x (L, K) and integer starts/counts of one shape, "
            f"got {xv.shape}, {starts.shape} {starts.dtype}, {counts.shape} {counts.dtype}"
        )
    length, channels = xv.shape
    live = counts.ravel() > 0
    first_row, n_rows = starts.ravel()[live], counts.ravel()[live]
    if np.any(counts < 0) or np.any(first_row < 0) or np.any(first_row + n_rows > length):
        raise ShapeError(f"segment_max: segments fall outside the {length} rows of x")
    # gather every live segment's rows into one block; segment i then
    # starts at row `begin[i]` of the block
    begin = np.cumsum(n_rows) - n_rows
    rows = np.repeat(first_row - begin, n_rows) + np.arange(n_rows.sum())
    block = xv[rows]
    best = np.maximum.reduceat(block, begin, axis=0)
    hit = block == np.repeat(best, n_rows, axis=0)
    position = np.where(hit, np.arange(len(rows))[:, None], len(rows))
    arg = rows[np.minimum.reduceat(position, begin, axis=0)]  # first maximal row
    out = np.zeros((live.size, channels), dtype=DTYPE)
    out[live] = best

    def vjp(g):
        gx = np.zeros_like(xv)
        cols = np.broadcast_to(np.arange(channels), arg.shape)
        np.add.at(gx, (arg, cols), g.reshape(-1, channels)[live])
        return (gx,)

    return _record(x.tape, out.reshape(starts.shape + (channels,)), (x,), vjp, "segment_max")


def dense(x, w, b, act: str = "identity") -> Tensor:
    """Fully connected layer: act(x @ w.T + b)."""
    return activation(act)(engine.add_bias(engine.linear(x, w), b))


def softmax(x) -> Tensor:
    """Max-subtracted stable softmax along the last axis."""
    x = _coerce(x.tape, x)
    v = x.value
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ShapeError(f"softmax: need at least one element on last axis, got {v.shape}")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _record(x.tape, out, (x,), vjp, "softmax")


def cross_entropy(probs, gold) -> Tensor:
    """Mean negative log-likelihood of the gold classes.

    probs: (..., C) rows of class probabilities; gold: matching integer
    index array (or a single int for a 1-D probs vector). Returns a scalar.
    A zero gold-class probability produces an infinite loss and raises.
    """
    probs = _coerce(probs.tape, probs)
    pv = probs.value
    if pv.ndim < 1 or pv.shape[-1] < 2:
        raise ShapeError(f"cross_entropy: need at least 2 classes, got shape {pv.shape}")
    classes = pv.shape[-1]
    flat = pv.reshape(-1, classes)
    gold_arr = np.asarray(gold)
    if gold_arr.dtype.kind not in "iu":
        raise ShapeError(f"gold labels must be integers, got dtype {gold_arr.dtype}")
    if gold_arr.shape != pv.shape[:-1]:
        raise ShapeError(
            f"gold shape {gold_arr.shape} does not match probs leading shape {pv.shape[:-1]}"
        )
    gold_flat = gold_arr.reshape(-1)
    if gold_flat.size and (gold_flat.min() < 0 or gold_flat.max() >= classes):
        raise IndexError(f"gold class out of range for {classes} classes")
    n = flat.shape[0]
    picked = flat[np.arange(n), gold_flat]
    with np.errstate(divide="ignore"):
        out = np.asarray(-np.log(picked).mean())

    def vjp(g):
        gp = np.zeros_like(flat)
        gp[np.arange(n), gold_flat] = -float(g) / (n * picked)
        return (gp.reshape(pv.shape),)

    return _record(probs.tape, out, (probs,), vjp, "cross_entropy")


def dropout(x, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero entries with probability `rate` during
    training and scale survivors by 1/(1-rate); identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ShapeError("dropout in training mode requires an rng")
    x = _coerce(x.tape, x)
    keep = (rng.random(x.value.shape) >= rate) / (1.0 - rate)

    def vjp(g):
        return (g * keep,)

    return _record(x.tape, x.value * keep, (x,), vjp, "dropout")


def additive_pair_scores(a, b, bias, v) -> Tensor:
    """All-pairs additive attention scores of each sequence.

    a, b: (..., N, d) projected queries/keys; bias: (d,); v: (d,). Returns
    the (..., N, N) matrices s[t, u] = v . tanh(a[t] + b[u] + bias).
    """
    tape = a.tape
    a, b = _coerce(tape, a), _coerce(tape, b)
    bias, v = _coerce(tape, bias), _coerce(tape, v)
    av, bv, cv, vv = a.value, b.value, bias.value, v.value
    if av.ndim < 2 or bv.shape != av.shape or cv.shape != (av.shape[-1],) or vv.shape != cv.shape:
        raise ShapeError(
            f"additive_pair_scores: got a {av.shape}, b {bv.shape}, bias {cv.shape}, v {vv.shape}"
        )
    hidden = np.tanh(av[..., :, None, :] + bv[..., None, :, :] + cv)  # (..., N, N, d)
    out = hidden @ vv

    def vjp(g):
        gh = g[..., None] * vv * (1.0 - hidden * hidden)
        ga = gh.sum(axis=-2)
        gb = gh.sum(axis=-3)
        gbias = gh.sum(axis=tuple(range(gh.ndim - 1)))
        gv = np.einsum("...tu,...tud->d", g, hidden, optimize=True)
        return ga, gb, gbias, gv

    return _record(tape, out, (a, b, bias, v), vjp, "additive_pair_scores")


# ---------------------------------------------------------------------------
# recurrent layer


@dataclass
class GRUCellParams:
    """Weights for one GRU direction; all Parameters."""

    w_z: Parameter
    u_z: Parameter
    b_z: Parameter
    w_r: Parameter
    u_r: Parameter
    b_r: Parameter
    w_h: Parameter
    u_h: Parameter
    b_h: Parameter

    def all(self):
        return [
            self.w_z, self.u_z, self.b_z,
            self.w_r, self.u_r, self.b_r,
            self.w_h, self.u_h, self.b_h,
        ]


@dataclass
class BiGRUParams:
    fwd: GRUCellParams
    bwd: GRUCellParams
    units: int

    def all(self):
        return self.fwd.all() + self.bwd.all()


def _gru_direction(x: Tensor, cell: GRUCellParams, units: int, reverse: bool):
    """Run one GRU direction over (..., N, F); returns hidden state per step.

    Gates: z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
    htilde = tanh(Wh x + Uh (r * h) + bh), h' = (1 - z) * h + z * htilde,
    with h_0 = 0.
    """
    tape = x.tape
    steps = x.value.shape[-2]
    lead = x.value.shape[:-2]
    h = tape.constant(np.zeros(lead + (units,), dtype=DTYPE))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    outputs = [None] * steps
    for t in order:
        x_t = engine.select(x, -2, t)
        z = sigmoid_gate(tape, x_t, h, cell.w_z, cell.u_z, cell.b_z)
        r = sigmoid_gate(tape, x_t, h, cell.w_r, cell.u_r, cell.b_r)
        cand = engine.tanh(
            engine.add(
                engine.add_bias(engine.linear(x_t, cell.w_h), cell.b_h),
                engine.linear(engine.mul(r, h), cell.u_h),
            )
        )
        h = engine.add(engine.mul(engine.one_minus(z), h), engine.mul(z, cand))
        outputs[t] = h
    return outputs


def sigmoid_gate(tape, x_t, h, w, u, b) -> Tensor:
    return engine.sigmoid(
        engine.add(engine.add_bias(engine.linear(x_t, w), b), engine.linear(h, u))
    )


def bigru(x, params: BiGRUParams) -> Tensor:
    """Bidirectional GRU over (..., N, F) returning (..., N, 2H).

    At each step the forward hidden state is concatenated with the backward
    hidden state for the same position.
    """
    x = _coerce(x.tape, x)
    if x.value.ndim < 2 or x.value.shape[-2] < 1:
        raise ShapeError(f"bigru: expected (..., N, F) with N >= 1, got {x.value.shape}")
    if x.value.shape[-1] != params.fwd.w_z.value.shape[1]:
        raise ShapeError(
            f"bigru: input feature dim {x.value.shape[-1]} does not match "
            f"weights {params.fwd.w_z.value.shape}"
        )
    fwd = _gru_direction(x, params.fwd, params.units, reverse=False)
    bwd = _gru_direction(x, params.bwd, params.units, reverse=True)
    per_step = [engine.concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]
    return engine.stack(per_step, axis=-2)
