"""Differentiable layers built on the engine primitives.

Each layer is one fused op with a hand-derived backward rule: conv1d,
pooling, embedding lookup, the topic branch's
embedding-convolution-max, pairwise attention scores and the
bidirectional GRU here, the dense layer in the engine. No op copies a
sliding-window view: conv1d sums one matrix product per filter tap over
shifted row slices of its input. embedding_conv_max runs the lookup, every
filter width and the per-segment max as one op over the filters of every
width stacked tap by tap in one array, over segments that tile one id
array and a table that is a Parameter or a frozen array: it multiplies
each distinct token id's row by the filters once, and its backward
reaches only each segment's max window; per segment, embedding_lookup,
conv1d, maxpool1d and global_maxpool stay as its reference. Its forward
gathers, sums and masks the windows and takes their maxima in blocks of
ROWS filter rows, one block after another on the calling thread, so a
block's arrays stay in cache; no op starts a thread (BLAS may run its
own). A block writes only its own rows, and each element takes the same
ops in the same order in any block, so the bits do not depend on ROWS.
The op's large scratch arrays come from a per-thread workspace
(_Workspace) that keeps each between calls, grown to the largest call
the thread has run, so they are not faulted in again on every call; only
arrays that no VJP reads after it returns come from it. Its np.take calls
that write into an `out` pass mode="clip" (every index is in range by
construction): in the default mode numpy gathers into a temporary of
`out`'s size first. Its VJP writes the table rows' gradient into the rows
its forward gathered, which nothing reads after it. Without these two, a
topic training step's heap rose to within about 100 KB of glibc's trim
threshold, so a small change in what a step allocates could make every
step give pages back and fault them in again.
additive_pair_scores' VJP works in place: it turns its forward's hidden
array into 1 - hidden^2, as a tape is backpropagated once, and takes its
(..., N, N, d) product from the workspace's "windows" role, which only
embedding_conv_max's forward and VJP use while they run.
bigru runs its two directions as one stacked recurrence, records one
tape entry for it and backpropagates through time in its own backward;
it takes the two cells as four arrays stacked on a direction axis, with
the gates in the order z, r, h (see bigru).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..errors import ShapeError, UsageError
from .engine import (
    DTYPE,
    Parameter,
    RowGradient,
    Tensor,
    _check_finite,
    _on_tape,
    _record,
    sigmoid_array,
)


def embedding_lookup(ids, table) -> Tensor:
    """Gather rows of `table` (V x D) for an integer id array of any shape.

    Output shape is ids.shape + (D,). Row 0 is reserved: no token maps to
    it, but it is trainable like any other row. A Parameter table is read
    onto the tape like any other input (alone, it has no tape: UsageError).
    """
    tape, (table,) = _on_tape(table)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.value.shape}")
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ShapeError(f"ids must be integers, got dtype {ids.dtype}")
    vocab, dim = table.value.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ShapeError(
            f"token id out of range: ids span [{ids.min()}, {ids.max()}], vocab size {vocab}"
        )

    def vjp(g):
        # np.add.at's sums, in its order; intp, as uint64 * int64 is float64
        cells = ids.astype(np.intp).reshape(-1, 1) * dim + np.arange(dim)
        gt = np.bincount(cells.ravel(), weights=g.ravel(), minlength=vocab * dim)
        return (gt.astype(DTYPE, copy=False).reshape(vocab, dim),)  # empty: int64

    return _record(tape, table.value[ids], (table,), vjp, "embedding_lookup")


def conv1d(x, filters, bias) -> Tensor:
    """Valid 1-D convolution over a (L, D) sequence, stride 1.

    filters: (K, w, D); bias: (K,). Output (L' = L - w + 1, K) with
    out[t, k] = bias[k] + sum_{i, d} x[t + i, d] * filters[k, i, d], computed
    as bias + sum_i x[i:i + L'] @ filters[:, i].T: one matrix product per
    tap over a shifted slice of x, so no (L', D, w) window is copied.
    """
    tape, (x, filters, bias) = _on_tape(x, filters, bias)
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
    steps = length - width + 1

    out = bv + sum(xv[i : i + steps] @ fv[:, i].T for i in range(width))

    def vjp(g):
        gx = np.zeros_like(xv)
        gf = np.empty_like(fv)
        for i in range(width):
            gf[:, i] = g.T @ xv[i : i + steps]
            gx[i : i + steps] += g @ fv[:, i]
        return gx, gf, g.sum(axis=0)

    return _record(tape, out, (x, filters, bias), vjp, "conv1d")


def maxpool1d(x, pool: int) -> Tensor:
    """Windowed max over a (L, K) sequence; the last window may be short.

    Output has ceil(L / pool) rows. The subgradient routes to the first
    maximal index within each window.
    """
    tape, (x,) = _on_tape(x)
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

    return _record(tape, out, (x,), vjp, "maxpool1d")


def global_maxpool(x) -> Tensor:
    """Columnwise max of a (L, K) sequence, producing (K,).

    Ties route the gradient to the first maximal row.
    """
    tape, (x,) = _on_tape(x)
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

    return _record(tape, out.copy(), (x,), vjp, "global_maxpool")


# embedding_conv_max runs its window stage in blocks of ROWS filter rows on
# the calling thread, so a block's windows and buffer stay in cache: one
# block of all K = 16 rows ran 2-3% slower at T = 12,960 ids.
ROWS = 8
# embedding_conv_max computes its response table in near-equal row blocks
# of R_CELLS to 2 * R_CELLS cells, to a row (one block below 2 * R_CELLS
# cells): a block stays in cache, and a block of up to about 1,200 cells
# took OpenBLAS's small-matrix kernel, whose bits differ from the whole
# product's, on the build measured.
R_CELLS = 1 << 15


class _Workspace(threading.local):
    """Scratch arrays kept by each thread that runs the topic branch.

    take(role, shape, dtype) hands out a C-contiguous array over the
    role's bytes, which grow to the largest call seen and are sliced to
    this one; their values are what the role's last user left. So an op's
    large temporaries are not handed back to the allocator, and faulted in
    again, on every call. Only scratch that no VJP reads after its op or
    VJP returns comes from here: a tape may be backpropagated after later
    calls. embedding_conv_max's forward and VJP take every role, and
    additive_pair_scores' VJP borrows "windows", dead outside those two.
    One workspace per thread keeps concurrent callers apart, and a forked
    child gets a copy-on-write copy of the forking thread's workspace.
    """

    def __init__(self):
        self.held = {}

    def take(self, role: str, shape: tuple, dtype=DTYPE) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        held = self.held.get(role)
        if held is None or held.size < size:
            held = self.held[role] = np.empty(size, dtype=np.uint8)
        return held[:size].view(dtype).reshape(shape)


_workspace = _Workspace()


def _response_table(rows: np.ndarray, w_all: np.ndarray) -> np.ndarray:
    """(rows @ w_all.T).T, embedding_conv_max's transposed response table,
    in the workspace's "response" role. The product is taken in row blocks
    (see R_CELLS) through the "spare" role, each block checked for
    non-finite values and transposed into its columns, so no whole R is
    built. A row block keeps the whole product's bits while BLAS runs both
    in its general kernel."""
    n_types, n_resp = len(rows), len(w_all)
    table = _workspace.take("response", (n_resp, n_types))
    blocks = max(1, n_types * n_resp // R_CELLS)
    block = _workspace.take("spare", (-(-n_types // blocks), n_resp))  # unused until the windows
    for p in range(blocks):
        a, b = n_types * p // blocks, n_types * (p + 1) // blocks
        np.matmul(rows[a:b], w_all.T, out=block[: b - a])
        _check_finite(block[: b - a], "embedding_conv_max")
        table[:, a:b] = block[: b - a].T
    return table


def embedding_conv_max(ids, table, taps, bias, widths, lengths) -> Tensor:
    """Each segment's max over its windows of a convolution over embedded ids.

    ids: (T,) integer ids into table (V, D); taps: (sum_j w_j, K, D), the K
    filters of each width w_j of `widths` stacked tap by tap in width order,
    so that width j's bank is F_j = taps[t_j : t_j + w_j].transpose(1, 0, 2)
    with t_j = sum_{i<j} w_i; bias: (n * K,) for n widths, width j's being
    b_j = bias[j * K : (j + 1) * K]; lengths: integers >= 0 of a shape S
    that add up to T, the segments tiling ids in their C order. Output
    S + (n * K,): width j's columns of segment s are global_maxpool(conv1d(
    embedding_lookup(segment s, table), F_j, b_j)), the max over the
    windows that lie inside the segment, or zeros for a segment shorter
    than w_j; ties route the gradient to the first maximal window.

    A convolution is linear in each token's embedding row, so each distinct
    id's row meets every tap once, in one (U, sum_j w_j K) response table
    R = rows @ taps.reshape(-1, D).T, kept transposed, and a window sums
    its taps' columns of R in conv1d's order. A width's windows are one
    reused (K, T) array, a filter per row: one np.take per tap fills it
    through one reused buffer, then the bias is added, and each segment's
    max and first maximal window are found along its contiguous rows, so
    the backward keeps only those windows' positions. The gradient reaches
    one window per (segment, filter), so the VJP is one np.add.at of those
    windows' taps into R's zeroed gradient (the bits of a bincount) and two
    matrix products: no (T, D) embedded sequence is built,
    and the table's gradient is its U rows, handed to backward as a
    RowGradient. So the table is a Parameter (read onto the tape like any
    other input) or its leaf, whose gradient takes those rows (an op output
    is a UsageError), or a plain array when frozen, which is not bound and
    gets no gradient. On a tape that records no ops, only the maxima are
    taken: the search for each (filter, segment)'s first maximal window,
    and the arrays it fills, are skipped.

    From the windows' gather to that search, each filter row is independent
    of the others, so that stretch runs on filter rows [lo, hi) of every
    width in blocks of ROWS rows, one block after another on the calling
    thread, so that a block's windows and buffer stay in cache. Threads
    would not pay here: numpy's take, ufunc and reduceat calls at these
    sizes take 10-50 us each, and on a 2-vCPU VM two threads that each ran
    3,000 of take, flatnonzero or reduceat took 1.9-2.6 times as long as
    one thread, though numpy releases the interpreter lock inside them
    (two processes: 1.0-1.8 times). BLAS may
    split R's and the VJP's products. R is taken in row blocks, each
    transposed into its columns of the table the windows read
    (_response_table): blocks of R_CELLS cells or more kept R's bits at
    every shape and BLAS thread count measured, but blocks of up to about
    1,200 cells did not, nor did R computed transposed (w_all @ rows.T).
    Each element takes the same ops in the same order in any block, so the
    output and every gradient keep their bits at any ROWS.

    The transposed R, the windows, their buffer and the mask of maximal
    windows are scratch of the calling thread's workspace (_Workspace),
    kept from call to call; so, in the VJP, are R's gradient, in R's role,
    and the (sum_j w_j K, live segments) gathers of the max windows, in
    the windows' and the buffer's roles, all dead by then. What the VJP
    reads (the types, their rows, the padded type array and where the
    maxima are) is allocated per call, so tapes may be backpropagated in
    any order.
    """
    frozen = not isinstance(table, (Tensor, Parameter))
    tape, inputs = _on_tape(*([] if frozen else [table]), taps, bias)
    taps, bias = inputs[-2:]
    if not frozen and inputs[0].param is None:
        raise UsageError("embedding_conv_max: the table must be a Parameter, its tape leaf "
                         "or a plain array, not an op output")
    tv = np.asarray(table, dtype=DTYPE) if frozen else inputs[0].value
    ids, lengths = np.asarray(ids), np.asarray(lengths)
    if (tv.ndim != 2 or ids.ndim != 1 or ids.dtype.kind not in "iu"
            or lengths.dtype.kind not in "iu"):
        raise ShapeError(
            f"embedding_conv_max: expected table (V, D), ids (T,) and integer lengths, "
            f"got {tv.shape}, {ids.shape} {ids.dtype}, {lengths.shape} {lengths.dtype}"
        )
    vocab, dim = tv.shape
    shape = taps.value.shape
    if (not widths or min(widths) < 1 or len(shape) != 3
            or shape[::2] != (sum(widths), dim) or bias.value.shape != (len(widths) * shape[1],)):
        raise ShapeError(
            f"embedding_conv_max: taps {shape} and bias {bias.value.shape} do not match "
            f"widths {widths} over a (V, D) = {tv.shape} table"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ShapeError(
            f"token id out of range: ids span [{ids.min()}, {ids.max()}], vocab size {vocab}"
        )
    if np.any(lengths < 0) or lengths.sum() != len(ids):
        raise ShapeError(f"embedding_conv_max: segment lengths do not tile the {len(ids)} ids")
    live = lengths.ravel() > 0
    n_rows = lengths.ravel()[live]

    count = shape[1]
    firsts = count * np.arange(len(widths))  # each width's first output column
    n_out = count * len(widths)
    w_all = taps.value.reshape(-1, dim)  # R's columns: per width, per tap, that tap of every filter

    # the distinct ids in increasing order, and each id's index among them
    present = np.zeros(vocab, dtype=bool)
    present[ids] = True
    types = np.flatnonzero(present)
    index = np.cumsum(present, dtype=np.intp)
    index -= 1
    rows_of_types = tv[types]
    response = _response_table(rows_of_types, w_all)  # R.T: a tap of a width is K rows of U
    # the window at token t sums its taps' R columns at tokens t .. t + w - 1;
    # live segment i starts at `begin[i]`. A window that runs past its
    # segment's end is -inf (it may read the padding after the last token,
    # which holds type 0).
    begin = np.cumsum(n_rows) - n_rows
    room = np.repeat(begin + n_rows, n_rows) - np.arange(len(ids))  # tokens left in the segment
    padded = np.zeros(len(ids) + max(widths) - 1, dtype=np.intp)
    np.take(index, ids, out=padded[: len(ids)], mode="clip")
    under = [padded[i : i + len(ids)] for i in range(max(widths))]  # the type under tap i
    n_live, n_windows = len(n_rows), len(ids)
    windows = _workspace.take("windows", (count, n_windows))  # one width's
    spare = _workspace.take("spare", (count, n_windows))
    best = np.empty((n_out, n_live), dtype=DTYPE)
    records = tape.records  # only the VJP reads where the maxima are
    if records:
        segment = np.repeat(np.arange(n_live), n_rows)  # each window's
        hit = _workspace.take("hit", windows.shape, bool)
        # where each filter's row, and each (filter, segment)'s windows,
        # start in a width's flattened windows
        row_start = np.arange(count)[:, None] * n_windows
        seek = row_start + begin
        max_at = np.empty((n_out, n_live), dtype=np.intp)  # where the gradient's window starts
    dead = [np.flatnonzero(room < w) for w in widths]  # windows past the segment's end

    def fill(lo, hi):  # filter rows [lo, hi) of every width
        block = 0  # R's rows of each tap, in order
        for w, o, past in zip(widths, firsts, dead):
            acc, buf = windows[lo:hi], spare[lo:hi]
            np.take(response[block + lo : block + hi], under[0], axis=1, out=acc, mode="clip")
            for i in range(1, w):
                block += count
                np.take(response[block + lo : block + hi], under[i], axis=1, out=buf,
                        mode="clip")
                acc += buf
            block += count
            acc += bias.value[o + lo : o + hi, None]  # conv1d's bias + taps: addition commutes
            acc[:, past] = -np.inf
            np.maximum.reduceat(acc, begin, axis=1, out=best[o + lo : o + hi])
            if records:  # each (filter, segment)'s first maximal window
                np.take(best[o + lo : o + hi], segment, axis=1, out=buf, mode="clip")
                np.equal(acc, buf, out=hit[lo:hi])
                found = np.flatnonzero(hit[lo:hi])  # increasing
                max_at[o + lo : o + hi] = (found[np.searchsorted(found, seek[: hi - lo])]
                                           - row_start[: hi - lo])

    for lo in range(0, count, ROWS):
        fill(lo, min(lo + ROWS, count))
    # the segment holds a window of that width
    has = n_rows >= np.repeat(widths, count)[:, None]
    out = np.zeros((live.size, n_out), dtype=DTYPE)
    out[live] = np.where(has, best, 0.0).T

    def vjp(g):
        g_live = np.where(has.T, g.reshape(-1, n_out)[live], 0.0)
        # R column c is tap tap[c] of output column out_col[c]: the type
        # under that tap of each max window (a segment with no window of a
        # width has zero gradient there). Cell (u, c) of R's gradient adds
        # its windows in segment order.
        out_col = np.concatenate([np.tile(np.arange(count) + o, w) for w, o in zip(widths, firsts)])
        tap = np.repeat(np.concatenate([np.arange(w) for w in widths]), count)
        # in the forward's roles, dead by now: R.T's for R's gradient, and
        # the windows' and spare's for the (n_resp, n_live) gathers
        n_resp = len(tap)
        at = _workspace.take("spare", (n_resp, n_live), np.intp)
        np.take(max_at, out_col, axis=0, out=at, mode="clip")
        at += tap[:, None]
        under_max = _workspace.take("windows", at.shape, np.intp)
        np.take(padded, at, out=under_max, mode="clip")
        under_max *= n_resp
        under_max += np.arange(n_resp)[:, None]
        weights = _workspace.take("spare", at.shape)
        np.take(g_live.T, out_col, axis=0, out=weights, mode="clip")
        g_response = _workspace.take("response", (len(types), n_resp))
        g_response.fill(0.0)
        np.add.at(g_response.reshape(-1), under_max.reshape(-1), weights.reshape(-1))
        g_taps = (g_response.T @ rows_of_types).reshape(shape)
        # summed width by width: one sum over every column rounds differently
        g_bias = np.concatenate([g_live[:, o : o + count].sum(axis=0) for o in firsts])
        if frozen:
            return [g_taps, g_bias]
        # the rows' gradient goes into the gathered rows, dead after this VJP
        return [RowGradient(types, np.matmul(g_response, w_all, out=rows_of_types)), g_taps, g_bias]

    return _record(tape, out.reshape(lengths.shape + (n_out,)), inputs, vjp, "embedding_conv_max")


def softmax_array(v: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax of an array along its last axis, off
    the tape."""
    v = np.asarray(v, dtype=DTYPE)
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ShapeError(f"softmax: need at least one element on last axis, got {v.shape}")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x) -> Tensor:
    """Max-subtracted stable softmax along the last axis."""
    tape, (x,) = _on_tape(x)
    out = softmax_array(x.value)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _record(tape, out, (x,), vjp, "softmax")


def _gold_rows(op: str, scores: np.ndarray, gold) -> np.ndarray:
    """The gold class of each row of (..., C) scores, as a flat index array."""
    if scores.ndim < 1 or scores.shape[-1] < 2:
        raise ShapeError(f"{op}: need at least 2 classes, got shape {scores.shape}")
    classes = scores.shape[-1]
    gold_arr = np.asarray(gold)
    if gold_arr.dtype.kind not in "iu":
        raise ShapeError(f"gold labels must be integers, got dtype {gold_arr.dtype}")
    if gold_arr.shape != scores.shape[:-1]:
        raise ShapeError(
            f"gold shape {gold_arr.shape} does not match {op} leading shape {scores.shape[:-1]}"
        )
    gold_flat = gold_arr.reshape(-1)
    if gold_flat.size and (gold_flat.min() < 0 or gold_flat.max() >= classes):
        raise ShapeError(f"gold class out of range for {classes} classes")
    return gold_flat


def cross_entropy(probs, gold) -> Tensor:
    """Mean negative log-likelihood of the gold classes.

    probs: (..., C) rows of class probabilities; gold: matching integer
    index array (or a single int for a 1-D probs vector). Returns a scalar.
    A zero gold-class probability produces an infinite loss and raises.
    """
    tape, (probs,) = _on_tape(probs)
    pv = probs.value
    gold_flat = _gold_rows("cross_entropy", pv, gold)
    flat = pv.reshape(-1, pv.shape[-1])
    n = flat.shape[0]
    picked = flat[np.arange(n), gold_flat]
    with np.errstate(divide="ignore"):
        out = np.asarray(-np.log(picked).mean())

    def vjp(g):
        gp = np.zeros_like(flat)
        gp[np.arange(n), gold_flat] = -float(g) / (n * picked)
        return (gp.reshape(pv.shape),)

    return _record(tape, out, (probs,), vjp, "cross_entropy")


def softmax_cross_entropy(logits, gold) -> Tensor:
    """cross_entropy(softmax(logits), gold) as one op that stays finite.

    Each row's log-softmax is shifted - log(sum(exp(shifted))) with the row
    max subtracted, so the loss is finite whenever the logits are, even
    where the gold probability underflows to 0. Gradient (softmax - onehot) / n.
    """
    tape, (logits,) = _on_tape(logits)
    lv = logits.value
    gold_flat = _gold_rows("softmax_cross_entropy", lv, gold)
    flat = lv.reshape(-1, lv.shape[-1])
    n = flat.shape[0]
    rows = np.arange(n)
    shifted = flat - flat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    out = np.asarray((np.log(total) - shifted[rows, gold_flat]).mean())

    def vjp(g):
        gl = e / total[:, None]
        gl[rows, gold_flat] -= 1.0
        return ((gl * (float(g) / n)).reshape(lv.shape),)

    return _record(tape, out, (logits,), vjp, "softmax_cross_entropy")


def dropout(x, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero entries with probability `rate` during
    training and scale survivors by 1/(1-rate); identity at inference,
    where it returns its input as bound to the tape, as every op binds it."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    tape, (x,) = _on_tape(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ShapeError("dropout in training mode requires an rng")
    keep = (rng.random(x.value.shape) >= rate) / (1.0 - rate)
    return _record(tape, x.value * keep, (x,), lambda g: (g * keep,), "dropout")


def additive_pair_scores(a, b, bias, v) -> Tensor:
    """All-pairs additive attention scores of each sequence.

    a, b: (..., N, d) projected queries/keys; bias: (d,); v: (d,). Returns
    the (..., N, N) matrices s[t, u] = v . tanh(a[t] + b[u] + bias).
    """
    tape, (a, b, bias, v) = _on_tape(a, b, bias, v)
    av, bv, cv, vv = a.value, b.value, bias.value, v.value
    if av.ndim < 2 or bv.shape != av.shape or cv.shape != (av.shape[-1],) or vv.shape != cv.shape:
        raise ShapeError(
            f"additive_pair_scores: got a {av.shape}, b {bv.shape}, bias {cv.shape}, v {vv.shape}"
        )
    # one (..., N, N, d) array per call, as a second one pushed the heap of a
    # process that only predicts past the allocator's trim threshold, so its
    # pages were faulted in again on every call
    hidden = av[..., :, None, :] + bv[..., None, :, :]
    hidden += cv
    np.tanh(hidden, out=hidden)
    out = hidden @ vv

    def vjp(g):
        gv = np.einsum("...tu,...tud->d", g, hidden, optimize=True)
        # g[..., None] * vv * (1.0 - hidden * hidden), in that order, with no
        # temporary: a tape is backpropagated once, so hidden is not read again
        np.multiply(hidden, hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        gh = _workspace.take("windows", hidden.shape)
        np.multiply(g[..., None], vv, out=gh)
        gh *= hidden
        ga = gh.sum(axis=-2)
        gb = gh.sum(axis=-3)
        gbias = gh.sum(axis=tuple(range(gh.ndim - 1)))
        return ga, gb, gbias, gv

    return _record(tape, out, (a, b, bias, v), vjp, "additive_pair_scores")


# ---------------------------------------------------------------------------
# recurrent layer


def gru_shapes(units: int, feat: int) -> tuple[tuple[int, ...], ...]:
    """The shapes of bigru's w, b, u_zr and u_h for H = units over F = feat."""
    return (2, 3 * units, feat), (2, 3 * units), (2, 2 * units, units), (2, units, units)


def stack_gru(cells) -> tuple[np.ndarray, ...]:
    """bigru's w, b, u_zr and u_h from two GRU cells given gate by gate.

    cells: the forward and then the reverse direction, each the nine
    arrays W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h of shapes (H, F),
    (H, H) and (H,). Their values are copied unchanged.
    """
    return (np.stack([np.concatenate(cell[0::3]) for cell in cells]),
            np.stack([np.concatenate(cell[2::3]) for cell in cells]),
            np.stack([np.concatenate(cell[1:6:3]) for cell in cells]),
            np.stack([cell[7] for cell in cells]))


def _gru_forward(x, w, b, u_zr, u_h, keep: bool):
    """Run both GRU directions over the (M, N, F) array x as one recurrence.

    w, b, u_zr and u_h are the cells as bigru takes them. Every step's
    input terms W x + b are taken at once, one product per direction, and
    laid out step-major with the reverse direction's flipped in time, so
    step s reads position s forward and position N-1-s in reverse. Each
    step is then one product per gate group over the (2, M, H) state.

    Returns `states`, (N+1, 2, M, H) in step order with row 0 holding h_0 =
    0, so row s is step s's previous state; and, for the backward pass,
    step s's sigmoid gates [z, r], r * h_prev and candidate in `zr`
    (N, 2, M, 2H), `rh` and `cand` (N, 2, M, H). Unless `keep`, those
    three hold only the last step.
    """
    steps, units = x.shape[1], u_h.shape[-1]
    proj = np.empty((steps, 2, len(x), w.shape[1]), dtype=DTYPE)
    np.matmul(x, w[0].T, out=proj[:, 0].swapaxes(0, 1))
    # a time-flipped out= would have a negative stride, which numpy's
    # matmul does not pass to BLAS (other bits), so this one is copied in
    proj[::-1, 1] = np.swapaxes(x @ w[1].T, 0, 1)
    proj += b[:, None]
    _check_finite(proj, "bigru")
    u_zr_t, u_h_t = np.swapaxes(u_zr, 1, 2), np.swapaxes(u_h, 1, 2)
    if x.shape[0] > 1:
        # faster as contiguous stacks, with the same bits; a one-row product
        # is BLAS's matrix-vector kernel, whose bits follow the matrix's
        # layout, so there the transposed views stay
        u_zr_t, u_h_t = np.ascontiguousarray(u_zr_t), np.ascontiguousarray(u_h_t)
    states = np.zeros((steps + 1,) + proj.shape[1:-1] + (units,), dtype=DTYPE)
    kept = steps if keep else 1
    zr = np.empty((kept,) + states.shape[1:-1] + (2 * units,), dtype=DTYPE)
    rh = np.empty((kept,) + states.shape[1:], dtype=DTYPE)
    cand = np.empty_like(rh)
    proj_zr, proj_h = proj[..., : 2 * units], proj[..., 2 * units :]
    z_all, r_all = zr[..., :units], zr[..., units:]
    for t in range(steps):
        k = t if keep else 0
        h = states[t]
        gates = proj_zr[t] + np.matmul(h, u_zr_t)
        _check_finite(gates, "bigru")
        sigmoid_array(gates, out=zr[k])
        z = z_all[k]
        np.multiply(r_all[k], h, out=rh[k])
        pre = proj_h[t] + np.matmul(rh[k], u_h_t)
        _check_finite(pre, "bigru")
        np.tanh(pre, out=cand[k])
        np.add((1.0 - z) * h, z * cand[k], out=states[t + 1])
    return states, zr, rh, cand


def _gru_backward(g, u_zr, u_h, states, zr, cand):
    """Backpropagate the step-major (N, 2, M, H) state gradient g of both
    directions through time in one loop, mirroring _gru_forward's layout.
    Returns the (N, 2, M, 3H) gradient of each step's gate and candidate
    pre-activations."""
    units = u_h.shape[-1]
    steps = len(g)
    grad_pre = np.empty(g.shape[:-1] + (3 * units,), dtype=DTYPE)
    gh = np.zeros(g.shape[1:], dtype=DTYPE)
    z_all, r_all = zr[..., :units], zr[..., units:]
    g_zr, g_z_all, g_r_all, g_cand_all = (grad_pre[..., i * units : j * units]
                                          for i, j in ((0, 2), (0, 1), (1, 2), (2, 3)))
    for t in reversed(range(steps)):
        gh = gh + g[t]
        zt, rt, ct, ht = z_all[t], r_all[t], cand[t], states[t]
        g_z, g_r, g_cand = g_z_all[t], g_r_all[t], g_cand_all[t]
        keep_z = 1.0 - zt
        np.multiply(gh * zt, 1.0 - ct * ct, out=g_cand)
        g_rh = np.matmul(g_cand, u_h)
        np.multiply(gh * (ct - ht) * zt, keep_z, out=g_z)
        np.multiply(g_rh * ht * rt, 1.0 - rt, out=g_r)
        gh = gh * keep_z + g_rh * rt + np.matmul(g_zr[t], u_zr)
    return grad_pre


def bigru(x, w, b, u_zr, u_h) -> Tensor:
    """Bidirectional GRU over (..., N, F) returning (..., N, 2H), as one op.

    Gates: z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
    htilde = tanh(Wh x + Uh (r * h) + bh), h' = (1 - z) * h + z * htilde,
    with h_0 = 0. At each step the forward hidden state is concatenated
    with the backward hidden state for the same position. The cells, and
    their gradients, are stacked on a leading direction axis (0 forward,
    1 reverse): w = [W_z; W_r; W_h] (2, 3H, F), b = [b_z; b_r; b_h]
    (2, 3H), u_zr = [U_z; U_r] (2, 2H, H) and u_h (2, H, H), H being u_h's
    last axis; stack_gru builds them from per-gate arrays. The two
    directions run as one recurrence over the leading axes flattened to M
    rows, with the reverse direction's inputs flipped in time (see
    _gru_forward); the input terms W x + b are one product over all N
    steps per direction, and the backward pass is one hand-written
    backpropagation through time for both. Non-finite input terms, gate or
    candidate pre-activations raise NumericsError. On a tape that records
    no ops, only the last step's gate values are kept.
    """
    tape, (x, *leaves) = _on_tape(x, w, b, u_zr, u_h)
    xv = x.value
    if xv.ndim < 2 or xv.shape[-2] < 1:
        raise ShapeError(f"bigru: expected (..., N, F) with N >= 1, got {xv.shape}")
    w, b, u_zr, u_h = values = [leaf.value for leaf in leaves]
    units, feat = (u_h.shape[-1] if u_h.ndim else 0), xv.shape[-1]
    want = gru_shapes(units, feat)
    for i in (3, 0, 1, 2):  # u_h first: the others are checked against its units
        if values[i].shape != want[i]:
            raise ShapeError(
                f"bigru: {('w', 'b', 'u_zr', 'u_h')[i]} has shape {values[i].shape}, expected "
                f"{want[i]} for input feature dim {feat} and {units} units (u_h's last axis)"
            )
    lead, steps = xv.shape[:-2], xv.shape[-2]
    xs = xv.reshape((-1, steps, feat))
    states, zr, rh, cand = _gru_forward(xs, w, b, u_zr, u_h, tape.records)
    out = np.empty((len(xs), steps, 2 * units), dtype=DTYPE)  # in time order
    out[..., :units] = np.swapaxes(states[1:, 0], 0, 1)
    out[..., units:] = np.swapaxes(states[:0:-1, 1], 0, 1)
    out = out.reshape(lead + (steps, 2 * units))

    def vjp(g):
        g = np.moveaxis(g.reshape((-1, steps, 2 * units)), 1, 0)
        grad_pre = _gru_backward(np.stack([g[..., :units], g[::-1, :, units:]], axis=1),
                                 u_zr, u_h, states, zr, cand)
        x_rows = np.moveaxis(xs, 1, 0).reshape(-1, feat)  # time-major, as the rows below
        gx = 0.0
        gw, gb, gu_zr, gu_h = (np.empty_like(v) for v in values)
        for d, time in enumerate((slice(None), slice(None, None, -1))):
            # the direction's values in time order, so every sum below runs in the same order
            pre_d = np.ascontiguousarray(grad_pre[time, d])
            flat = pre_d.reshape(-1, 3 * units)
            gw[d] = flat.T @ x_rows
            gu_zr[d] = flat[:, : 2 * units].T @ states[:-1][time, d].reshape(-1, units)
            gu_h[d] = flat[:, 2 * units :].T @ rh[time, d].reshape(-1, units)
            gx = gx + np.moveaxis(pre_d.reshape((steps,) + lead + (3 * units,)) @ w[d], 0, -2)
            gb[d] = flat.sum(axis=0)
        return gx, gw, gb, gu_zr, gu_h

    return _record(tape, out, [x] + leaves, vjp, "bigru")
