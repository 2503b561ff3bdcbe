"""The segment-flow classifier.

Two branches per document: a CNN-over-embeddings topic encoder applied to
each segment, and a bidirectional GRU over the per-segment affect features.
Per-segment topic and affect vectors are fused, re-weighted with an
all-pairs additive self-attention, multiplied elementwise with the flow
states, averaged over segments, and classified.

Modes: "full" wires both branches; "topic_only" drops the affect features
(the flow GRU disappears and the attention contexts are averaged
directly); "affect_only" drops the token branch entirely and averages the
GRU states.

Every mode has one forward pass, `FakeFlowModel.batch_logits`, and it runs
each layer once over the whole batch: the topic branch over the batch's
concatenated segments, everything after it over (B, N, ...) arrays. A
single document is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as tz
from .corpus import LABELS
from .errors import ConfigError, NumericsError, ShapeError, UsageError
from .lexicon import N_FEATURES

MODES = ("full", "topic_only", "affect_only")
SIZES = ("n_segments", "vocab_size", "max_seg_len", "embed_dim", "cnn_filter_count", "pool_size",
         "topic_dense_dim", "gru_units", "fused_dense_dim", "final_dense_dim")


def _whole(value) -> bool:
    """Whether a size is a whole number >= 1. int() cannot take an infinite
    or NaN float, and json reads Infinity and NaN as floats. A bool is an
    int to Python, but json's true is no size."""
    if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
        return False
    return int(value) == value and value >= 1


@dataclass
class FakeFlowConfig:
    n_segments: int
    vocab_size: int
    max_seg_len: int = 800
    embed_dim: int = 300
    cnn_filter_widths: tuple = (3, 4, 5)
    cnn_filter_count: int = 16
    # The windowed max before the global max per segment cannot change the
    # result (a max of window maxes is the max), so the forward ignores it;
    # it stays because checkpoints and the search space carry it.
    pool_size: int = 2
    topic_dense_dim: int = 16
    gru_units: int = 16
    fused_dense_dim: int | None = None  # derived as 2 * gru_units when None
    final_dense_dim: int = 16
    dropout_rate: float = 0.3
    activation: str = "relu"
    optimizer: str = "adam"
    mode: str = "full"
    classes: tuple = LABELS
    train_embeddings: bool = True

    def __post_init__(self):
        if self.fused_dense_dim is None:
            self.fused_dense_dim = 2 * self.gru_units
        self.cnn_filter_widths = tuple(self.cnn_filter_widths)
        self.classes = tuple(self.classes)
        self.validate()
        for name in SIZES:  # 5.0 passes as 5, and is stored so
            setattr(self, name, int(getattr(self, name)))
        self.cnn_filter_widths = tuple(int(w) for w in self.cnn_filter_widths)

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.fused_dense_dim != 2 * self.gru_units:
            raise ConfigError(
                f"fused_dense_dim must equal 2 * gru_units for the elementwise "
                f"fusion; got {self.fused_dense_dim} vs 2*{self.gru_units}"
            )
        for name in SIZES:
            value = getattr(self, name)
            if not _whole(value):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        widths = self.cnn_filter_widths
        if not widths or not all(_whole(w) for w in widths) or len(set(widths)) != len(widths):
            raise ConfigError(f"cnn_filter_widths must be distinct integers >= 1, got {widths}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.activation not in tz.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.optimizer not in tz.ALGORITHMS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not all(isinstance(name, str) for name in self.classes):
            raise ConfigError(f"class names must be strings, got {self.classes}")
        if len(self.classes) < 2 or len(set(self.classes)) != len(self.classes):
            raise ConfigError(f"need at least 2 distinct classes, got {self.classes}")
        # before any draw: numpy refuses such a shape with a ValueError, not a MemoryError
        most = np.iinfo(np.intp).max // np.dtype(tz.DTYPE).itemsize
        for name, shape in parameter_shapes(self).items():
            if math.prod(int(n) for n in shape) > most:
                raise ConfigError(f"parameter {name!r} of shape {shape} is larger than "
                                  f"an array can be")

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["cnn_filter_widths"] = list(self.cnn_filter_widths)
        payload["classes"] = list(self.classes)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "FakeFlowConfig":
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:  # unknown, missing or mistyped fields
            raise ConfigError(f"bad model config: {exc}") from exc


@dataclass
class Example:
    """One prepared document: its token ids, the N + 1 segment boundaries
    into them (segment i is ids[offsets[i]:offsets[i + 1]]), and its affect
    matrix. The topic branch reads ids and offsets, the flow reads affect:
    "full" reads all three, "topic_only" never reads affect and
    "affect_only" never reads ids or offsets."""

    doc_id: str
    ids: np.ndarray  # (offsets[-1],) int64
    offsets: np.ndarray  # (N + 1,) int64
    affect: np.ndarray  # (N, 23) float64
    label: str | None = None


@dataclass
class ForwardTrace:
    """Every intermediate representation of one document's forward pass.

    Fields not produced by the active mode are None.
    """

    probabilities: np.ndarray
    v_topic: np.ndarray | None = None
    v_affect: np.ndarray | None = None
    v_concat: np.ndarray | None = None
    v_fc: np.ndarray | None = None
    attention_weights: np.ndarray | None = None
    l_t: np.ndarray | None = None
    v_flow: np.ndarray | None = None
    v_compact: np.ndarray | None = None
    v_final: np.ndarray | None = None
    mode: str = "full"
    doc_id: str | None = None

    def predicted_index(self) -> int:
        return int(np.argmax(self.probabilities))

    def to_json(self) -> dict:
        """Every field, each array as nested lists."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values}


def _batch_names(examples: list[Example]) -> str:
    """The first five doc ids of a batch, and how many there are."""
    names = ", ".join(repr(e.doc_id) for e in examples[:5])
    more = f" and {len(examples) - 5} more" if len(examples) > 5 else ""
    return f"{names}{more} ({len(examples)} in the batch)"


def context_self_attention(v_fc, w1, w2, b_att, v_att):
    """Context-aware self-attention over segments.

    score(t, u) = v_att . tanh(w1 @ v_fc[t] + w2 @ v_fc[u] + b_att);
    each row of the score matrix is softmaxed and the weights mix the
    v_fc rows into context vectors. Returns (l_t, weights).
    """
    queries = tz.dense(v_fc, w1)
    keys = tz.dense(v_fc, w2)
    scores = tz.additive_pair_scores(queries, keys, b_att, v_att)
    weights = tz.softmax(scores)
    contexts = tz.bmatmul(weights, v_fc)
    return contexts, weights


def combine(v_flow, l_t):
    """Elementwise product of flow states and attention contexts, averaged
    over the segment axis."""
    return tz.mean_axis(tz.mul(v_flow, l_t), axis=-2)


GRU_NAMES = ("gru_w", "gru_b", "gru_u_zr", "gru_u_h")  # tz.bigru's w, b, u_zr, u_h


def parameter_shapes(c: FakeFlowConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of a model of config `c`, in the
    model's order: the model is built, and a checkpoint checked, from these.
    The CNN and the bi-GRU are the arrays embedding_conv_max and bigru take."""
    shapes = {}
    if c.mode != "affect_only":
        cnn_dim = c.cnn_filter_count * len(c.cnn_filter_widths)
        shapes.update(embedding=(c.vocab_size, c.embed_dim),
                      conv_taps=(sum(c.cnn_filter_widths), c.cnn_filter_count, c.embed_dim),
                      conv_bias=(cnn_dim,))
        concat_dim = c.topic_dense_dim + (N_FEATURES if c.mode == "full" else 0)
        d = c.fused_dense_dim
        shapes.update(topic_dense_w=(c.topic_dense_dim, cnn_dim), topic_dense_b=(c.topic_dense_dim,),
                      fuse_dense_w=(d, concat_dim), fuse_dense_b=(d,),
                      att_w1=(d, d), att_w2=(d, d), att_b=(d,), att_v=(d,))
    if c.mode != "topic_only":
        shapes.update(zip(GRU_NAMES, tz.gru_shapes(c.gru_units, N_FEATURES)))
    n_classes = len(c.classes)
    shapes.update(out_dense_w=(c.final_dense_dim, 2 * c.gru_units),
                  out_dense_b=(c.final_dense_dim,),
                  softmax_w=(n_classes, c.final_dense_dim), softmax_b=(n_classes,))
    return shapes


def _gru_gates(units: int, feat: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each per-gate bi-GRU array, in the order
    tz.stack_gru takes them (gru_fwd_wz, gru_fwd_uz, gru_fwd_bz, gru_fwd_wr,
    ... gru_bwd_bh), as checkpoints held them before it was stored stacked."""
    kinds = (("w", (units, feat)), ("u", (units, units)), ("b", (units,)))
    return [(f"gru_{d}_{k}{g}", shape) for d in ("fwd", "bwd") for g in "zrh" for k, shape in kinds]


def _checked_state(state: dict, c: FakeFlowConfig, where: str = "checkpoint") -> dict:
    """`state` (name -> array) in the layout of a model of config `c`, after
    a ConfigError for the first parameter it lacks or holds in another
    shape, or for any it holds that the model has not. Where `state` holds
    any array of a historical layout, that part is checked and stacked
    first, values unchanged: the CNN as older checkpoints held it, width by
    width in conv{w}_filters (K, w, D) and conv{w}_bias (K,), and the bi-GRU
    gate by gate in gru_fwd_wz, gru_fwd_uz, gru_fwd_bz, ... gru_bwd_bh."""

    def check(name, shape):
        if name not in state:
            raise ConfigError(f"{where} is missing parameter {name!r}")
        if state[name].shape != shape:
            raise ConfigError(f"{where} has parameter {name!r} of shape {state[name].shape}, "
                              f"but its config implies {shape}")

    shapes, widths, k = parameter_shapes(c), c.cnn_filter_widths, c.cnn_filter_count
    n = len(widths)
    per_width = ([(f"conv{w}_filters", (k, w, c.embed_dim)) for w in widths]
                 + [(f"conv{w}_bias", (k,)) for w in widths])
    historical = [  # the stored arrays, the historical ones in order, and how they stack
        (("conv_taps", "conv_bias"), per_width, lambda a: (
            np.concatenate([f.transpose(1, 0, 2) for f in a[:n]]), np.concatenate(a[n:]))),
        (GRU_NAMES, _gru_gates(c.gru_units, N_FEATURES), lambda a: tz.stack_gru([a[:9], a[9:]])),
    ]
    state = dict(state)
    for names, pieces, stack in historical:
        if names[0] in shapes and any(name in state for name, _ in pieces):
            for name, shape in pieces:
                check(name, shape)
            state.update(zip(names, stack([state.pop(name) for name, _ in pieces])))
    for name, shape in shapes.items():
        check(name, shape)
    unexpected = sorted(set(state) - set(shapes))
    if unexpected:
        raise ConfigError(f"{where} has parameters this model does not have: {unexpected}")
    return state


class FakeFlowModel:
    """Owns the parameters and wires the forward pass for one config."""

    def __init__(self, config: FakeFlowConfig, seed: int = 0,
                 pretrained: dict[int, np.ndarray] | None = None):
        """Draw every parameter from `seed`. `pretrained` maps vocabulary ids
        to (embed_dim,) rows that replace the drawn embedding rows; a key
        that is not an id in [0, vocab_size) or a row of another shape is a
        ConfigError naming the key."""
        rng = np.random.default_rng(seed)
        c = config
        shapes = parameter_shapes(c)
        drawn = {}  # in draw order; every parameter not drawn starts at zero

        if c.mode != "affect_only":
            table = tz.embedding_table(rng, *shapes["embedding"])
            for idx, row in (pretrained or {}).items():
                if not isinstance(idx, (int, np.integer)) or not 0 <= idx < c.vocab_size:
                    raise ConfigError(f"pretrained row key {idx!r} is not a vocabulary id "
                                      f"in [0, {c.vocab_size})")
                if np.shape(row) != (c.embed_dim,):
                    raise ConfigError(f"pretrained row for id {idx} has shape {np.shape(row)}, "
                                      f"expected ({c.embed_dim},)")
                table[idx] = row
            drawn["embedding"] = table
            drawn["conv_taps"] = np.concatenate([  # each width's bank, drawn as (K, w, D)
                tz.conv_filters(rng, c.cnn_filter_count, w, c.embed_dim).transpose(1, 0, 2)
                for w in c.cnn_filter_widths])
            for name in ("topic_dense_w", "fuse_dense_w", "att_w1", "att_w2"):
                drawn[name] = tz.dense_weight(rng, *shapes[name])
            drawn["att_v"] = tz.dense_weight(rng, 1, *shapes["att_v"])[0]

        if c.mode != "topic_only":  # drawn gate by gate: W_z, U_z, W_r, U_r, W_h, U_h
            cells = [tz.dense_weight(rng, *shape) if len(shape) == 2 else tz.zeros(shape)
                     for _, shape in _gru_gates(c.gru_units, N_FEATURES)]
            drawn.update(zip(GRU_NAMES, tz.stack_gru([cells[:9], cells[9:]])))

        for name in ("out_dense_w", "softmax_w"):
            drawn[name] = tz.dense_weight(rng, *shapes[name])
        self._wire(config, {name: drawn[name] if name in drawn else tz.zeros(shape)
                            for name, shape in shapes.items()})

    def _wire(self, config: FakeFlowConfig, state: dict[str, np.ndarray]) -> None:
        """Make the parameters of `config` from `state`, which holds each of
        `parameter_shapes(config)` in its shape, and name them for the
        forward pass. Each is a view, in that order, of `self.buffers`: the
        value buffer that `state` is copied into and the gradient buffer."""
        self.config = c = config
        shapes = parameter_shapes(c)
        values = np.concatenate([np.ravel(state[name]) for name in shapes], dtype=tz.DTYPE)
        self.buffers = values, np.zeros(values.size)
        cuts = np.cumsum([state[name].size for name in shapes])[:-1]
        self.params = [tz.Parameter(name, value.reshape(shape), grad.reshape(shape))
                       for (name, shape), value, grad
                       in zip(shapes.items(), *(np.split(b, cuts) for b in self.buffers))]
        p = {param.name: param for param in self.params}
        if c.mode != "affect_only":
            self.embedding = p["embedding"]
            self.conv_taps, self.conv_bias = p["conv_taps"], p["conv_bias"]
            self.topic_w, self.topic_b = p["topic_dense_w"], p["topic_dense_b"]
            self.fuse_w, self.fuse_b = p["fuse_dense_w"], p["fuse_dense_b"]
            self.att_w1, self.att_w2, self.att_b = p["att_w1"], p["att_w2"], p["att_b"]
            self.att_v = p["att_v"]
        if c.mode != "topic_only":
            self.gru = [p[name] for name in GRU_NAMES]
        self.out_w, self.out_b = p["out_dense_w"], p["out_dense_b"]
        self.cls_w, self.cls_b = p["softmax_w"], p["softmax_b"]

    # ------------------------------------------------------------------
    # branches

    def topic_branch(self, tape, ids: np.ndarray, lengths: np.ndarray):
        """CNN topic vectors of every segment of a batch: (B, N, topic_dense_dim).

        The batch's ids come concatenated, with its (B, N) segment lengths,
        as `_batch` joins them. One embedding_conv_max takes, for every filter
        width, each segment's max over the convolution windows that lie
        inside it; windows that straddle two segments are never read. It
        takes every width's filters as the one conv_taps array, multiplies
        each distinct id's embedding by them once, and its backward reaches
        only each segment's max window. A segment shorter than a filter width
        contributes zeros for that width, so an empty segment's topic row is
        the activated dense bias.
        """
        c = self.config
        # a frozen table is a plain array: no (V, D) gradient is built for it
        table = tape.read(self.embedding) if c.train_embeddings else self.embedding.value
        cnn_v = tz.embedding_conv_max(ids, table, tape.read(self.conv_taps), self.conv_bias,
                                      c.cnn_filter_widths, lengths)
        return tz.dense(cnn_v, self.topic_w, self.topic_b, c.activation)

    def fuse(self, v_topic, v_affect, training: bool, rng):
        """Concatenate topic and affect rows (when both exist) and project
        through the shared dense layer. Dropout hits the concatenation."""
        v_concat = v_topic if v_affect is None else tz.concat([v_topic, v_affect], axis=-1)
        dropped = tz.dropout(v_concat, self.config.dropout_rate, training, rng)
        v_fc = tz.dense(dropped, self.fuse_w, self.fuse_b, self.config.activation)
        return v_concat, v_fc

    def affect_flow(self, v_affect):
        """Bi-GRU over the segment-level affect vectors; keeps the full
        per-segment output."""
        return tz.bigru(v_affect, *self.gru)

    def classify(self, v_compact, training: bool, rng):
        """Output dense layer with activation, then the linear layer whose
        softmax gives the class probabilities; returns (v_final, logits)."""
        dropped = tz.dropout(v_compact, self.config.dropout_rate, training, rng)
        v_final = tz.dense(dropped, self.out_w, self.out_b, self.config.activation)
        return v_final, tz.dense(v_final, self.cls_w, self.cls_b)

    # ------------------------------------------------------------------
    # forward

    def forward(self, example: Example) -> ForwardTrace:
        """Run one document as a batch of one at inference (no dropout) and
        capture every intermediate representation."""
        nodes = {}
        logits = self.batch_logits(tz.Tape(records=False), [example], training=False, rng=None,
                                   nodes=nodes)
        rows = {key: np.array(node.value[0]) for key, node in nodes.items()}
        rows["probabilities"] = tz.softmax_array(logits.value[0])
        return ForwardTrace(**rows, mode=self.config.mode, doc_id=example.doc_id)

    def batch_logits(self, tape, examples: list[Example], training: bool,
                     rng: np.random.Generator | None, nodes: dict | None = None):
        """Class logits for a batch as one (B, C) tensor.

        This is the forward pass of every mode. The batch is joined and
        checked once, for only the Example fields its mode reads; a field
        that fails is a ShapeError naming the first document at fault. When
        `nodes` is a dict, each intermediate (B, ...) tensor the mode
        produces is stored in it under its ForwardTrace field name. A
        NumericsError raised on the way is raised again naming the batch's
        documents.
        """
        if not examples:
            raise UsageError("empty batch")
        c = self.config
        ids, lengths, affect = self._batch(examples)
        found = {}
        v_affect = None
        try:
            if c.mode != "topic_only":
                v_affect = found["v_affect"] = tape.constant(affect)
            if c.mode == "affect_only":
                v_flow = found["v_flow"] = self.affect_flow(v_affect)
                v_compact = tz.mean_axis(v_flow, axis=-2)
            else:
                v_topic = self.topic_branch(tape, ids, lengths)
                v_concat, v_fc = self.fuse(v_topic, v_affect, training, rng)
                l_t, weights = context_self_attention(
                    v_fc, self.att_w1, self.att_w2, self.att_b, self.att_v
                )
                found.update(v_topic=v_topic, v_concat=v_concat, v_fc=v_fc,
                             l_t=l_t, attention_weights=weights)
                if c.mode == "full":
                    v_flow = found["v_flow"] = self.affect_flow(v_affect)
                    v_compact = combine(v_flow, l_t)
                else:
                    v_compact = tz.mean_axis(l_t, axis=-2)
            v_final, logits = self.classify(v_compact, training, rng)
        except NumericsError as exc:
            raise NumericsError(f"{exc} in documents {_batch_names(examples)}") from exc
        if nodes is not None:
            nodes.update(found, v_compact=v_compact, v_final=v_final)
        return logits

    def _batch(self, examples: list[Example]):
        """The batch's (ids, segment lengths, affect), joined and checked in
        one pass, None where the mode does not read it: the (B, N + 1) offsets
        cut each document's own integer ids, all in the vocabulary, into N
        segments of at most max_seg_len ids, and the affect is (B, N, 23).
        Only when the batch cannot be joined or fails is each document checked
        alone, so the ShapeError names the first one at fault."""
        c = self.config
        want = (c.n_segments, N_FEATURES)

        def join(docs):
            """`docs`' fields joined, and the first to fail ("segments" or "affect") or None."""
            ids = lengths = affect = field = None
            try:
                if c.mode != "affect_only":
                    field = "segments"
                    ids = np.concatenate([e.ids for e in docs])
                    offsets = np.stack([e.offsets for e in docs])
                    lengths = np.diff(offsets, axis=1)
                    if not (ids.ndim == 1 and ids.dtype.kind in "iu" and offsets.dtype.kind in "iu"
                            and lengths.shape[1:] == (c.n_segments,) and (offsets[:, 0] == 0).all()
                            and (offsets[:, -1] == [len(e.ids) for e in docs]).all()
                            and lengths.min() >= 0 and lengths.max() <= c.max_seg_len
                            and (not ids.size or (ids.min() >= 0 and ids.max() < c.vocab_size))):
                        return None, field
                if c.mode != "topic_only":
                    field = "affect"
                    affect = np.stack([e.affect for e in docs])
                    if affect.shape[1:] != want or affect.dtype.kind not in "biuf":
                        return None, field
            except (TypeError, ValueError):  # ranks or shapes that differ, offsets not numbers
                return None, field
            return (ids, lengths, affect), None

        joined, field = join(examples)
        if field is None:
            return joined
        for e in examples:
            field = join([e])[1]
            if field == "segments":
                ids = np.asarray(e.ids)
                raise ShapeError(f"document {e.doc_id!r}: segment offsets "
                                 f"{np.asarray(e.offsets).tolist()} do not cut {ids.shape} "
                                 f"{ids.dtype} ids in [0, {c.vocab_size}) into {c.n_segments} "
                                 f"segments of at most {c.max_seg_len} tokens")
            if field == "affect":
                affect = np.asarray(e.affect)
                raise ShapeError(f"document {e.doc_id!r}: affect matrix shape {affect.shape} "
                                 f"{affect.dtype} does not match {want} real numbers")
        # each document passes alone: numpy joined int64 and uint64 ids into floats
        raise ShapeError(f"documents {_batch_names(examples)}: ids and offsets do not "
                         f"join into integer arrays")

    def batch_loss(self, tape, examples: list[Example], gold: np.ndarray,
                   training: bool, rng: np.random.Generator | None):
        """Mean cross-entropy over a batch; returns (loss, probs array).

        The loss is fused with its softmax, so it is finite whenever the
        logits are.
        """
        logits = self.batch_logits(tape, examples, training, rng)
        loss = tz.softmax_cross_entropy(logits, np.asarray(gold))
        return loss, tz.softmax_array(logits.value)

    def predict_logits(self, examples: list[Example], batch_size: int = 64) -> np.ndarray:
        """(len(examples), C) inference logits; (0, C) for no examples."""
        if batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {batch_size}")
        if not examples:
            return np.zeros((0, len(self.config.classes)))
        out = []
        for start in range(0, len(examples), batch_size):
            batch = examples[start : start + batch_size]
            logits = self.batch_logits(tz.Tape(records=False), batch, training=False, rng=None)
            out.append(np.array(logits.value))
        return np.concatenate(out, axis=0)

    def predict_proba(self, examples: list[Example], batch_size: int = 64) -> np.ndarray:
        """(len(examples), C) class probabilities; (0, C) for no examples."""
        return tz.softmax_array(self.predict_logits(examples, batch_size))

    def predict(self, examples: list[Example], batch_size: int = 64) -> list[str]:
        probs = self.predict_proba(examples, batch_size=batch_size)
        return [self.config.classes[i] for i in probs.argmax(axis=1)]

    def trainable_params(self) -> list[tz.Parameter]:
        """The optimizer's one parameter: the model's buffers, past a frozen table."""
        frozen = self.config.mode != "affect_only" and not self.config.train_embeddings
        start = self.embedding.value.size if frozen else 0
        return [tz.Parameter("trainable", *(b[start:] for b in self.buffers))]

    # ------------------------------------------------------------------
    # persistence

    def state(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self.params}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Assign every parameter from `state` (name -> array), which may
        hold the CNN width by width and the bi-GRU gate by gate, as older
        checkpoints do. A non-finite array is a NumericsError naming it,
        raised before any parameter is written."""
        state = _checked_state(state, self.config)
        bad = [name for name, array in state.items() if not np.isfinite(array).all()]
        if bad:
            raise NumericsError(f"parameter {bad[0]!r} assigned non-finite values")
        for p in self.params:
            p.assign(state[p.name])

    def save(self, path) -> None:
        tz.save_checkpoint(path, self.params, config=self.config.to_json())

    @classmethod
    def load(cls, path) -> "FakeFlowModel":
        config_json, arrays = tz.load_checkpoint(path)
        config = FakeFlowConfig.from_json(config_json)
        # before the model is built: a config at odds with its arrays may not fit in memory
        state = _checked_state(arrays, config, f"checkpoint {path}")
        model = cls.__new__(cls)  # the checkpoint's arrays are copied in; nothing is drawn
        model._wire(config, state)
        return model

