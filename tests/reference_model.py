"""The segment-flow classifier written again from its equations in plain
numpy: the model-level reference of FakeFlowModel.

It reads a model's parameter values by name and runs each document, and
each of the document's segments, on its own with explicit loops. Nothing
here is fused, batched or taken from `fakeflow.tensor`. It computes in
np.longdouble (80-bit extended precision on x86-64 Linux), so the central
differences of its loss resolve gradients far below float64's noise floor
of about 1e-11 at a step of 1e-5:

- topic branch, per segment and filter width: the embedding rows, every
  window's dot product with each filter plus its bias, a windowed max of
  `pool_size` windows, then the max over those (zeros for a segment
  shorter than the width); the topic dense layer;
- fusion: the topic row joined with the segment's affect row (mode
  `full`), then the fusion dense layer;
- attention: the score v . tanh(W1 f_t + W2 f_u + b) of every pair (t, u),
  a softmax over each row, and the weighted mix of the fused rows;
- flow: each GRU direction step by step, in the gate layout of
  `tz.bigru` (w = [W_z; W_r; W_h], b = [b_z; b_r; b_h], u_zr = [U_z; U_r],
  u_h = U_h, direction 0 forward and 1 reverse);
- the flow states times the contexts averaged over segments (`full`), or
  whichever of the two the mode has averaged; the output dense layer, the
  classifier and the mean log-softmax loss.
"""

from __future__ import annotations

import numpy as np

FLOAT = np.longdouble
SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717


def activate(name: str, v: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.where(v > 0.0, v, 0.0)
    if name == "tanh":
        return np.tanh(v)
    if name == "elu":
        return np.where(v > 0.0, v, np.exp(v) - 1.0)
    if name == "selu":
        return SELU_LAMBDA * np.where(v > 0.0, v, SELU_ALPHA * (np.exp(v) - 1.0))
    assert name == "identity", name
    return v


def sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def dense(p: dict, name: str, x: np.ndarray) -> np.ndarray:
    """w x + b for the dense layer `name`, one output unit at a time."""
    w, b = p[f"{name}_w"], p[f"{name}_b"]
    return np.array([b[i] + w[i] @ x for i in range(len(b))])


def topic_vector(p: dict, c, ids: np.ndarray) -> np.ndarray:
    """One segment's CNN max features through the topic dense layer."""
    rows = p["embedding"][ids]
    k = c.cnn_filter_count
    features, first = [], 0
    for j, width in enumerate(c.cnn_filter_widths):
        taps = p["conv_taps"][first : first + width]  # taps[i, f]: tap i of filter f
        bias = p["conv_bias"][j * k : (j + 1) * k]
        first += width
        n_windows = len(ids) - width + 1
        if n_windows < 1:
            features.append(np.zeros(k, dtype=FLOAT))
            continue
        conv = np.empty((n_windows, k), dtype=FLOAT)
        for t in range(n_windows):
            for f in range(k):
                conv[t, f] = bias[f] + sum(rows[t + i] @ taps[i, f] for i in range(width))
        pooled = [conv[s : s + c.pool_size].max(axis=0) for s in range(0, n_windows, c.pool_size)]
        features.append(np.max(pooled, axis=0))
    return activate(c.activation, dense(p, "topic_dense", np.concatenate(features)))


def attention(p: dict, fused: np.ndarray) -> np.ndarray:
    """The context vector of every segment."""
    n = len(fused)
    queries = [p["att_w1"] @ fused[t] for t in range(n)]
    keys = [p["att_w2"] @ fused[u] for u in range(n)]
    contexts = np.empty_like(fused)
    for t in range(n):
        scores = np.array([p["att_v"] @ np.tanh(queries[t] + keys[u] + p["att_b"])
                           for u in range(n)])
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        contexts[t] = sum(weights[u] * fused[u] for u in range(n))
    return contexts


def gru_flow(p: dict, x: np.ndarray) -> np.ndarray:
    """Both GRU directions over the (N, F) rows x, joined per segment."""
    n = len(x)
    halves = []
    for d, steps in ((0, range(n)), (1, reversed(range(n)))):
        u_h = p["gru_u_h"][d]
        units = len(u_h)
        w_z, w_r, w_h = np.split(p["gru_w"][d], 3)
        b_z, b_r, b_h = np.split(p["gru_b"][d], 3)
        u_z, u_r = np.split(p["gru_u_zr"][d], 2)
        h = np.zeros(units, dtype=FLOAT)
        states = np.empty((n, units), dtype=FLOAT)
        for t in steps:
            z = sigmoid(w_z @ x[t] + u_z @ h + b_z)
            r = sigmoid(w_r @ x[t] + u_r @ h + b_r)
            candidate = np.tanh(w_h @ x[t] + u_h @ (r * h) + b_h)
            h = (1.0 - z) * h + z * candidate
            states[t] = h
        halves.append(states)
    return np.concatenate(halves, axis=1)


def document_logits(p: dict, c, example) -> np.ndarray:
    """The class logits of one document."""
    affect = np.asarray(example.affect, dtype=FLOAT)
    offsets = np.asarray(example.offsets)
    if c.mode != "affect_only":
        fused = []
        for s in range(c.n_segments):
            row = topic_vector(p, c, np.asarray(example.ids)[offsets[s] : offsets[s + 1]])
            if c.mode == "full":
                row = np.concatenate([row, affect[s]])
            fused.append(activate(c.activation, dense(p, "fuse_dense", row)))
        contexts = attention(p, np.array(fused))
    if c.mode != "topic_only":
        flow = gru_flow(p, affect)
    if c.mode == "full":
        mixed = flow * contexts
    else:
        mixed = contexts if c.mode == "topic_only" else flow
    compact = sum(mixed) / c.n_segments
    final = activate(c.activation, dense(p, "out_dense", compact))
    return dense(p, "softmax", final)


def batch_logits(model, examples) -> np.ndarray:
    """(B, C) logits, each document run on its own, read from the model's
    parameter values as they are at the call."""
    p = {param.name: param.value.astype(FLOAT) for param in model.params}
    return np.array([document_logits(p, model.config, e) for e in examples])


def batch_loss(model, examples, gold) -> float:
    """The mean over documents of -log softmax(logits)[gold]."""
    total = FLOAT(0.0)
    for logits, g in zip(batch_logits(model, examples), gold):
        top = logits.max()
        total += top + np.log(np.sum(np.exp(logits - top))) - logits[g]
    return total / len(examples)
