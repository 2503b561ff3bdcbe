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

Every mode has one forward pass, `FakeFlowModel.batch_probs`, and it runs
each layer once over the whole batch: the topic branch over the batch's
concatenated segments, everything after it over (B, N, ...) arrays. A
single document is a batch of one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as tz
from .errors import ConfigError, ShapeError, UsageError
from .lexicon import N_FEATURES

MODES = ("full", "topic_only", "affect_only")


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
    classes: tuple = ("real", "fake")
    train_embeddings: bool = True

    def __post_init__(self):
        if self.fused_dense_dim is None:
            self.fused_dense_dim = 2 * self.gru_units
        self.cnn_filter_widths = tuple(int(w) for w in self.cnn_filter_widths)
        self.classes = tuple(self.classes)
        self.validate()

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.fused_dense_dim != 2 * self.gru_units:
            raise ConfigError(
                f"fused_dense_dim must equal 2 * gru_units for the elementwise "
                f"fusion; got {self.fused_dense_dim} vs 2*{self.gru_units}"
            )
        positive = {
            "n_segments": self.n_segments,
            "vocab_size": self.vocab_size,
            "max_seg_len": self.max_seg_len,
            "embed_dim": self.embed_dim,
            "cnn_filter_count": self.cnn_filter_count,
            "pool_size": self.pool_size,
            "topic_dense_dim": self.topic_dense_dim,
            "gru_units": self.gru_units,
            "final_dense_dim": self.final_dense_dim,
        }
        for name, value in positive.items():
            if int(value) != value or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not self.cnn_filter_widths or any(w < 1 for w in self.cnn_filter_widths):
            raise ConfigError(f"bad cnn_filter_widths {self.cnn_filter_widths}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.activation not in tz.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.optimizer not in tz.ALGORITHMS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if len(self.classes) < 2:
            raise ConfigError("need at least 2 classes")

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["cnn_filter_widths"] = list(self.cnn_filter_widths)
        payload["classes"] = list(self.classes)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "FakeFlowConfig":
        try:
            payload = dict(payload)
            payload["cnn_filter_widths"] = tuple(payload.get("cnn_filter_widths", (3, 4, 5)))
            payload["classes"] = tuple(payload.get("classes", ("real", "fake")))
            return cls(**payload)
        except (TypeError, ValueError) as exc:  # unknown, missing or mistyped fields
            raise ConfigError(f"bad model config: {exc}") from exc


@dataclass
class Example:
    """One prepared document: its token ids, the N + 1 segment boundaries
    into them (segment i is ids[offsets[i]:offsets[i + 1]]), and its affect
    matrix."""

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
        def conv(x):
            return None if x is None else np.asarray(x).tolist()

        return {
            "doc_id": self.doc_id,
            "mode": self.mode,
            "probabilities": conv(self.probabilities),
            "v_topic": conv(self.v_topic),
            "v_affect": conv(self.v_affect),
            "v_concat": conv(self.v_concat),
            "v_fc": conv(self.v_fc),
            "attention_weights": conv(self.attention_weights),
            "l_t": conv(self.l_t),
            "v_flow": conv(self.v_flow),
            "v_compact": conv(self.v_compact),
            "v_final": conv(self.v_final),
        }


def context_self_attention(v_fc, w1, w2, b_att, v_att):
    """Context-aware self-attention over segments.

    score(t, u) = v_att . tanh(w1 @ v_fc[t] + w2 @ v_fc[u] + b_att);
    each row of the score matrix is softmaxed and the weights mix the
    v_fc rows into context vectors. Returns (l_t, weights).
    """
    queries = tz.linear(v_fc, w1)
    keys = tz.linear(v_fc, w2)
    scores = tz.additive_pair_scores(queries, keys, b_att, v_att)
    weights = tz.softmax(scores)
    contexts = tz.bmatmul(weights, v_fc)
    return contexts, weights


def combine(v_flow, l_t):
    """Elementwise product of flow states and attention contexts, averaged
    over the segment axis."""
    if v_flow.value.shape != l_t.value.shape:
        raise ShapeError(
            f"combine: v_flow {v_flow.value.shape} and l_t {l_t.value.shape} differ"
        )
    return tz.mean_axis(tz.mul(v_flow, l_t), axis=-2)


class FakeFlowModel:
    """Owns the parameters and wires the forward pass for one config."""

    def __init__(self, config: FakeFlowConfig, seed: int = 0,
                 pretrained: dict[str, np.ndarray] | None = None,
                 vocab_tokens: dict[str, int] | None = None):
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: list[tz.Parameter] = []
        c = config

        if c.mode != "affect_only":
            table = tz.embedding_table(rng, c.vocab_size, c.embed_dim)
            if pretrained:
                if vocab_tokens is None:
                    raise UsageError("pretrained vectors need the vocabulary token map")
                hits = 0
                for token, idx in vocab_tokens.items():
                    vec = pretrained.get(token)
                    if vec is not None:
                        if vec.shape != (c.embed_dim,):
                            raise ConfigError(
                                f"pretrained vector for {token!r} has dim {vec.shape}, "
                                f"expected {c.embed_dim}"
                            )
                        table[idx] = vec
                        hits += 1
                self.pretrained_hits = hits
            self.embedding = self._param("embedding", table)
            self.conv = []
            for w in c.cnn_filter_widths:
                self.conv.append(
                    (
                        self._param(f"conv{w}_filters", tz.conv_filters(rng, c.cnn_filter_count, w, c.embed_dim)),
                        self._param(f"conv{w}_bias", tz.zeros(c.cnn_filter_count)),
                    )
                )
            cnn_dim = c.cnn_filter_count * len(c.cnn_filter_widths)
            self.topic_w = self._param("topic_dense_w", tz.dense_weight(rng, c.topic_dense_dim, cnn_dim))
            self.topic_b = self._param("topic_dense_b", tz.zeros(c.topic_dense_dim))
            concat_dim = c.topic_dense_dim + (N_FEATURES if c.mode == "full" else 0)
            self.fuse_w = self._param("fuse_dense_w", tz.dense_weight(rng, c.fused_dense_dim, concat_dim))
            self.fuse_b = self._param("fuse_dense_b", tz.zeros(c.fused_dense_dim))
            d = c.fused_dense_dim
            self.att_w1 = self._param("att_w1", tz.dense_weight(rng, d, d))
            self.att_w2 = self._param("att_w2", tz.dense_weight(rng, d, d))
            self.att_b = self._param("att_b", tz.zeros(d))
            self.att_v = self._param("att_v", tz.dense_weight(rng, 1, d)[0])

        if c.mode != "topic_only":
            self.gru = tz.BiGRUParams(
                fwd=self._gru_cell(rng, "gru_fwd", c.gru_units),
                bwd=self._gru_cell(rng, "gru_bwd", c.gru_units),
                units=c.gru_units,
            )

        self.out_w = self._param("out_dense_w", tz.dense_weight(rng, c.final_dense_dim, 2 * c.gru_units))
        self.out_b = self._param("out_dense_b", tz.zeros(c.final_dense_dim))
        self.cls_w = self._param("softmax_w", tz.dense_weight(rng, len(c.classes), c.final_dense_dim))
        self.cls_b = self._param("softmax_b", tz.zeros(len(c.classes)))

    def _param(self, name, value) -> tz.Parameter:
        p = tz.Parameter(name, value)
        self.params.append(p)
        return p

    def _gru_cell(self, rng, prefix, units) -> tz.GRUCellParams:
        def w(g):
            return self._param(f"{prefix}_w{g}", tz.dense_weight(rng, units, N_FEATURES))

        def u(g):
            return self._param(f"{prefix}_u{g}", tz.dense_weight(rng, units, units))

        def b(g):
            return self._param(f"{prefix}_b{g}", tz.zeros(units))

        return tz.GRUCellParams(
            w_z=w("z"), u_z=u("z"), b_z=b("z"),
            w_r=w("r"), u_r=u("r"), b_r=b("r"),
            w_h=w("h"), u_h=u("h"), b_h=b("h"),
        )

    # ------------------------------------------------------------------
    # branches

    def topic_branch(self, tape, examples: list[Example]):
        """CNN topic vectors of every segment of a batch: (B, N, topic_dense_dim).

        The batch's ids are concatenated into one sequence and embedded with
        one lookup. Per filter width, one conv1d runs over the whole
        sequence and segment_max keeps each segment's max over the windows
        that lie inside it; windows that straddle two segments are never
        read. A segment shorter than a filter width contributes zeros for
        that width, so an empty segment's topic row is the activated dense
        bias.
        """
        c = self.config
        for e in examples:
            ids, offsets = np.asarray(e.ids), np.asarray(e.offsets)
            ok = (ids.ndim == 1 and ids.dtype.kind in "iu"
                  and offsets.shape == (c.n_segments + 1,) and offsets.dtype.kind in "iu")
            if ok:
                lengths = np.diff(offsets)
                ok = (offsets[0] == 0 and offsets[-1] == len(ids)
                      and lengths.min() >= 0 and lengths.max() <= c.max_seg_len
                      and (not ids.size or (ids.min() >= 0 and ids.max() < c.vocab_size)))
            if not ok:
                raise ShapeError(
                    f"document {e.doc_id!r}: segment offsets {offsets.tolist()} do not cut "
                    f"{ids.shape} {ids.dtype} ids in [0, {c.vocab_size}) into "
                    f"{c.n_segments} segments of at most {c.max_seg_len} tokens"
                )
        ids = np.concatenate([e.ids for e in examples])
        sizes = np.array([len(e.ids) for e in examples])
        offsets = np.stack([e.offsets for e in examples]) + (np.cumsum(sizes) - sizes)[:, None]
        starts, lengths = offsets[:, :-1], np.diff(offsets, axis=1)
        if c.train_embeddings:
            emb = tz.embedding_lookup(ids, tape.read(self.embedding))
        else:
            # a frozen table is a constant: no (V, D) gradient is built for it
            emb = tape.constant(self.embedding.value[ids])
        pieces = []
        for (filters, bias), width in zip(self.conv, c.cnn_filter_widths):
            if len(ids) >= width:
                conv = tz.conv1d(emb, filters, bias)
                pieces.append(tz.segment_max(conv, starts, np.maximum(lengths - width + 1, 0)))
            else:  # no window of this width fits anywhere in the batch
                pieces.append(tape.constant(np.zeros(starts.shape + (c.cnn_filter_count,))))
        cnn_v = tz.concat(pieces, axis=-1)
        return tz.dense(cnn_v, self.topic_w, self.topic_b, c.activation)

    def fuse(self, v_topic, v_affect, training: bool, rng):
        """Concatenate topic and affect rows (when both exist) and project
        through the shared dense layer. Dropout hits the concatenation."""
        if v_affect is not None:
            if v_topic.value.shape[-2] != v_affect.value.shape[-2]:
                raise ShapeError(
                    f"fuse: row counts differ: {v_topic.value.shape} vs {v_affect.value.shape}"
                )
            v_concat = tz.concat([v_topic, v_affect], axis=-1)
        else:
            v_concat = v_topic
        dropped = tz.dropout(v_concat, self.config.dropout_rate, training, rng)
        v_fc = tz.dense(dropped, self.fuse_w, self.fuse_b, self.config.activation)
        return v_concat, v_fc

    def affect_flow(self, v_affect):
        """Bi-GRU over the segment-level affect vectors; keeps the full
        per-segment output."""
        return tz.bigru(v_affect, self.gru)

    def classify(self, v_compact, training: bool, rng):
        """Output dense layer with activation, then a linear softmax layer."""
        dropped = tz.dropout(v_compact, self.config.dropout_rate, training, rng)
        v_final = tz.dense(dropped, self.out_w, self.out_b, self.config.activation)
        logits = tz.add_bias(tz.linear(v_final, self.cls_w), self.cls_b)
        return v_final, tz.softmax(logits)

    # ------------------------------------------------------------------
    # forward

    def forward(self, example: Example, training: bool = False,
                rng: np.random.Generator | None = None) -> ForwardTrace:
        """Run one document as a batch of one and capture every
        intermediate representation."""
        nodes = {}
        self.batch_probs(tz.Tape(), [example], training, rng, nodes=nodes)
        rows = {key: np.array(node.value[0]) for key, node in nodes.items()}
        return ForwardTrace(**rows, mode=self.config.mode, doc_id=example.doc_id)

    def batch_probs(self, tape, examples: list[Example], training: bool,
                    rng: np.random.Generator | None, nodes: dict | None = None):
        """Class probabilities for a batch as one (B, C) tensor.

        This is the forward pass of every mode. When `nodes` is a dict, each
        intermediate (B, ...) tensor the mode produces is stored in it under
        its ForwardTrace field name.
        """
        if not examples:
            raise UsageError("empty batch")
        c = self.config
        for e in examples:
            if np.shape(e.affect) != (c.n_segments, N_FEATURES):
                raise ShapeError(
                    f"document {e.doc_id!r}: affect matrix shape {np.shape(e.affect)} "
                    f"does not match ({c.n_segments}, {N_FEATURES})"
                )
        found = {}
        v_affect = None
        if c.mode != "topic_only":
            v_affect = found["v_affect"] = tape.constant(
                np.stack([np.asarray(e.affect, dtype=np.float64) for e in examples])
            )
        if c.mode == "affect_only":
            v_flow = found["v_flow"] = self.affect_flow(v_affect)
            v_compact = tz.mean_axis(v_flow, axis=-2)
        else:
            v_topic = self.topic_branch(tape, examples)
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
        v_final, probs = self.classify(v_compact, training, rng)
        if nodes is not None:
            nodes.update(found, v_compact=v_compact, v_final=v_final, probabilities=probs)
        return probs

    def batch_loss(self, tape, examples: list[Example], gold: np.ndarray,
                   training: bool, rng: np.random.Generator | None):
        """Mean cross-entropy over a batch; returns (loss, probs array)."""
        probs = self.batch_probs(tape, examples, training, rng)
        loss = tz.cross_entropy(probs, np.asarray(gold))
        return loss, np.array(probs.value)

    def predict_proba(self, examples: list[Example], batch_size: int = 64) -> np.ndarray:
        """(len(examples), C) class probabilities; (0, C) for no examples."""
        if not examples:
            return np.zeros((0, len(self.config.classes)))
        out = []
        for start in range(0, len(examples), batch_size):
            batch = examples[start : start + batch_size]
            probs = self.batch_probs(tz.Tape(), batch, training=False, rng=None)
            out.append(np.array(probs.value))
        return np.concatenate(out, axis=0)

    def predict(self, examples: list[Example], batch_size: int = 64) -> list[str]:
        probs = self.predict_proba(examples, batch_size=batch_size)
        return [self.config.classes[i] for i in probs.argmax(axis=1)]

    def trainable_params(self) -> list[tz.Parameter]:
        """Parameters the optimizer may update; excludes the embedding table
        when the config freezes it."""
        if self.config.mode != "affect_only" and not self.config.train_embeddings:
            return [p for p in self.params if p.name != "embedding"]
        return list(self.params)

    # ------------------------------------------------------------------
    # persistence

    def state(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self.params}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        unexpected = sorted(set(state) - {p.name for p in self.params})
        if unexpected:
            raise ConfigError(f"checkpoint has parameters this model does not have: {unexpected}")
        for p in self.params:
            if p.name not in state:
                raise ConfigError(f"checkpoint is missing parameter {p.name!r}")
            p.assign(state[p.name])

    def save(self, path) -> None:
        tz.save_checkpoint(path, self.params, config=self.config.to_json())

    @classmethod
    def load(cls, path) -> "FakeFlowModel":
        config_json, arrays = tz.load_checkpoint(path)
        model = cls(FakeFlowConfig.from_json(config_json), seed=0)
        model.load_state(arrays)
        return model


def config_for_mode(base: FakeFlowConfig, mode: str) -> FakeFlowConfig:
    """Same hyperparameters, different wiring."""
    return replace(base, mode=mode)
