import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fakeflow
import fakeflow.tensor as tz
from conftest import gru_gates, max_relative_error, numeric_gradient, overflowing
from fakeflow.errors import ConfigError, NumericsError, ShapeError, UsageError
from fakeflow.model import (
    MODES,
    SIZES,
    Example,
    FakeFlowConfig,
    FakeFlowModel,
    combine,
    context_self_attention,
    parameter_shapes,
)
from fakeflow.tensor import nn as tnn
from fakeflow.train import TrainConfig, train


def tiny_config(mode="full", n_segments=3, **overrides):
    defaults = dict(
        n_segments=n_segments,
        vocab_size=12,
        max_seg_len=6,
        embed_dim=4,
        cnn_filter_widths=(2, 3),
        cnn_filter_count=3,
        pool_size=2,
        topic_dense_dim=4,
        gru_units=3,
        fused_dense_dim=6,
        final_dense_dim=4,
        dropout_rate=0.0,
        activation="tanh",
        optimizer="adam",
        mode=mode,
    )
    defaults.update(overrides)
    return FakeFlowConfig(**defaults)


def random_example(config, rng, doc_id="d0", label="real"):
    n, L = config.n_segments, config.max_seg_len
    lengths = rng.integers(0, L + 1, size=n)
    lengths[0] = max(lengths[0], 1)  # at least one real token somewhere
    ids = np.concatenate([rng.integers(2, config.vocab_size, size=n_real) for n_real in lengths])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    affect = rng.uniform(0.0, 0.5, size=(n, 23))
    return Example(doc_id=doc_id, ids=ids, offsets=offsets, affect=affect, label=label)


class TestConfig:
    def test_fused_dim_derived(self):
        cfg = FakeFlowConfig(n_segments=2, vocab_size=5, gru_units=8)
        assert cfg.fused_dense_dim == 16

    def test_fused_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            FakeFlowConfig(n_segments=2, vocab_size=5, gru_units=8, fused_dense_dim=10)

    def test_round_trip_json(self):
        cfg = tiny_config()
        assert FakeFlowConfig.from_json(cfg.to_json()) == cfg

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(mode="both")

    @pytest.mark.parametrize("widths", [(3, 3), (2, 3, 2), (3.7,), (3, 4.5), ()])
    def test_repeated_or_fractional_widths_rejected(self, widths):
        # a repeated width would share one filter bank; 3.7 was cut to 3
        with pytest.raises(ConfigError, match="cnn_filter_widths must be distinct integers"):
            FakeFlowConfig(n_segments=2, vocab_size=5, cnn_filter_widths=widths)
        with pytest.raises(ConfigError, match="cnn_filter_widths"):
            FakeFlowConfig.from_json({**tiny_config().to_json(), "cnn_filter_widths": widths})

    def test_repeated_classes_rejected(self):
        # every label of a repeated class mapped to its last index
        with pytest.raises(ConfigError, match="distinct classes"):
            FakeFlowConfig(n_segments=2, vocab_size=10, classes=("real", "real"))

    def test_integral_sizes_are_stored_as_ints(self):
        cfg = tiny_config(n_segments=3.0, vocab_size=12.0, cnn_filter_widths=(2.0, np.int64(3)),
                          gru_units=np.int64(3), fused_dense_dim=None)
        assert all(type(getattr(cfg, name)) is int for name in SIZES)
        assert [type(w) for w in cfg.cnn_filter_widths] == [int, int]
        assert cfg == tiny_config() and json.dumps(cfg.to_json()) == json.dumps(
            tiny_config().to_json())
        model = FakeFlowModel(cfg, seed=1)
        assert model.embedding.shape == (12, 4)


class TestAttention:
    def test_single_segment_identity(self):
        rng = np.random.default_rng(0)
        d = 4
        tape = tz.Tape()
        v_fc = tape.constant(rng.normal(size=(1, d)))
        w1 = tz.Parameter("w1", rng.normal(size=(d, d)))
        w2 = tz.Parameter("w2", rng.normal(size=(d, d)))
        b = tz.Parameter("b", rng.normal(size=d))
        v = tz.Parameter("v", rng.normal(size=d))
        contexts, weights = context_self_attention(v_fc, w1, w2, b, v)
        assert weights.value.tolist() == [[1.0]]
        assert np.allclose(contexts.value, v_fc.value)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        d, n = 5, 7
        tape = tz.Tape()
        v_fc = tape.constant(rng.normal(size=(n, d)))
        w1 = tz.Parameter("w1", rng.normal(size=(d, d)))
        w2 = tz.Parameter("w2", rng.normal(size=(d, d)))
        b = tz.Parameter("b", rng.normal(size=d))
        v = tz.Parameter("v", rng.normal(size=d))
        _, weights = context_self_attention(v_fc, w1, w2, b, v)
        assert np.max(np.abs(weights.value.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(weights.value > 0.0) and np.all(weights.value < 1.0)

    def test_hand_formula_n2_d1(self):
        # direct evaluation of the additive score formula on a 2x1 instance
        tape = tz.Tape()
        v_fc = tape.constant(np.array([[0.5], [-0.25]]))
        w1 = tz.Parameter("w1", np.array([[2.0]]))
        w2 = tz.Parameter("w2", np.array([[-1.0]]))
        b = tz.Parameter("b", np.array([0.1]))
        v = tz.Parameter("v", np.array([3.0]))
        contexts, weights = context_self_attention(v_fc, w1, w2, b, v)

        f = np.array([0.5, -0.25])
        scores = np.empty((2, 2))
        for t in range(2):
            for u in range(2):
                scores[t, u] = 3.0 * np.tanh(2.0 * f[t] - 1.0 * f[u] + 0.1)
        expected_weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        expected_weights /= expected_weights.sum(axis=1, keepdims=True)
        expected_contexts = expected_weights @ f.reshape(2, 1)
        assert np.allclose(weights.value, expected_weights, atol=1e-12)
        assert np.allclose(contexts.value, expected_contexts, atol=1e-12)


class TestCombine:
    def test_single_segment(self):
        tape = tz.Tape()
        v_flow = tape.constant(np.array([[1.0, 2.0]]))
        l_t = tape.constant(np.array([[3.0, 0.5]]))
        out = combine(v_flow, l_t)
        assert out.value.tolist() == [3.0, 1.0]

    def test_ones_weights_average(self):
        tape = tz.Tape()
        v_flow = tape.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        l_t = tape.constant(np.ones((2, 2)))
        assert combine(v_flow, l_t).value.tolist() == [2.0, 3.0]

    def test_hand_2x2(self):
        tape = tz.Tape()
        v_flow = tape.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        l_t = tape.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert combine(v_flow, l_t).value.tolist() == [0.5, 2.0]

    def test_dim_mismatch_raises(self):
        tape = tz.Tape()
        with pytest.raises(ShapeError):
            combine(tape.constant(np.ones((2, 4))), tape.constant(np.ones((2, 6))))


class TestForward:
    def test_full_mode_trace_shapes(self):
        cfg = tiny_config(n_segments=4)
        model = FakeFlowModel(cfg, seed=0)
        example = random_example(cfg, np.random.default_rng(0))
        trace = model.forward(example)
        assert trace.v_topic.shape == (4, cfg.topic_dense_dim)
        assert trace.v_concat.shape == (4, cfg.topic_dense_dim + 23)
        assert trace.v_fc.shape == (4, cfg.fused_dense_dim)
        assert trace.attention_weights.shape == (4, 4)
        assert trace.l_t.shape == (4, cfg.fused_dense_dim)
        assert trace.v_flow.shape == (4, 2 * cfg.gru_units)
        assert trace.v_compact.shape == (2 * cfg.gru_units,)
        assert trace.v_final.shape == (cfg.final_dense_dim,)
        assert trace.probabilities.shape == (2,)
        assert abs(trace.probabilities.sum() - 1.0) < 1e-12
        assert np.max(np.abs(trace.attention_weights.sum(axis=1) - 1.0)) < 1e-12

    def test_cnn_concat_arithmetic(self):
        # widths (3,4,5) x 16 filters -> cnn_v length 48, v_topic unaffected
        cfg = tiny_config(
            n_segments=2, max_seg_len=8, cnn_filter_widths=(3, 4, 5), cnn_filter_count=16
        )
        model = FakeFlowModel(cfg, seed=1)
        assert model.topic_w.value.shape == (cfg.topic_dense_dim, 48)

    def test_all_pad_segment_topic_row_is_activated_bias(self):
        cfg = tiny_config(n_segments=3)
        model = FakeFlowModel(cfg, seed=2)
        example = random_example(cfg, np.random.default_rng(1))
        example.ids = example.ids[: example.offsets[2]]  # segment 2 empty
        example.offsets[3] = example.offsets[2]
        trace = model.forward(example)
        expected = np.tanh(model.topic_b.value)  # the tanh of the bias
        assert np.allclose(trace.v_topic[2], expected, atol=1e-12)

    def test_identical_segments_identical_topic_rows(self):
        cfg = tiny_config(n_segments=2)
        model = FakeFlowModel(cfg, seed=3)
        example = random_example(cfg, np.random.default_rng(2))
        first = example.ids[: example.offsets[1]]
        example.ids = np.concatenate([first, first])
        example.offsets[2] = 2 * example.offsets[1]
        trace = model.forward(example)
        assert np.array_equal(trace.v_topic[0], trace.v_topic[1])

    def test_segment_shorter_than_filter_width_not_an_error(self):
        cfg = tiny_config(n_segments=2, cnn_filter_widths=(2, 5), max_seg_len=6)
        model = FakeFlowModel(cfg, seed=4)
        example = random_example(cfg, np.random.default_rng(3))
        # segment 1 is one token: shorter than both widths
        example.ids = np.concatenate([example.ids[: example.offsets[1]], [3]])
        example.offsets[2] = example.offsets[1] + 1
        trace = model.forward(example)
        assert np.all(np.isfinite(trace.probabilities))

    @pytest.mark.parametrize("offsets", [
        [0, 2, 4],  # N entries instead of N + 1
        [1, 2, 3, 4],  # does not start at 0
        [0, 3, 2, 4],  # decreases
        [0, 1, 2, 3],  # ends before len(ids)
        [0, 1, 2, 5],  # ends past len(ids)
        [0, 0, 0, 4],  # one segment longer than max_seg_len
        [0.0, 1.0, 2.0, 4.0],  # not integers
    ])
    def test_malformed_offsets_raise(self, offsets):
        cfg = tiny_config(n_segments=3, max_seg_len=3)
        model = FakeFlowModel(cfg, seed=0)
        example = Example(doc_id="bad", ids=np.array([2, 3, 4, 5]), offsets=np.array(offsets),
                          affect=np.zeros((3, 23)))
        with pytest.raises(ShapeError):
            model.forward(example)

    @pytest.mark.parametrize("train_embeddings", [True, False])
    @pytest.mark.parametrize("bad_id", [-1, 12])
    def test_token_id_outside_vocabulary_raises(self, train_embeddings, bad_id):
        cfg = tiny_config(train_embeddings=train_embeddings)  # vocab_size 12
        example = random_example(cfg, np.random.default_rng(0))
        example.ids[0] = bad_id
        with pytest.raises(ShapeError, match="ids in"):
            FakeFlowModel(cfg, seed=0).forward(example)

    def test_affect_row_count_mismatch_raises(self):
        cfg = tiny_config()
        model = FakeFlowModel(cfg, seed=0)
        example = random_example(cfg, np.random.default_rng(0))
        example.affect = example.affect[:-1]
        with pytest.raises(ShapeError):
            model.forward(example)

    def test_zero_output_weights_give_uniform_probabilities(self):
        cfg = tiny_config()
        model = FakeFlowModel(cfg, seed=5)
        model.cls_w.assign(np.zeros_like(model.cls_w.value))
        model.cls_b.assign(np.zeros_like(model.cls_b.value))
        example = random_example(cfg, np.random.default_rng(5))
        trace = model.forward(example)
        assert np.allclose(trace.probabilities, [0.5, 0.5], atol=1e-15)


class TestAblations:
    def test_affect_only_is_segment_order_sensitive(self):
        cfg = tiny_config(mode="affect_only", n_segments=4)
        model = FakeFlowModel(cfg, seed=8)
        rng = np.random.default_rng(8)
        example = random_example(cfg, rng)
        base = model.forward(example).probabilities
        flipped = Example(
            doc_id=example.doc_id,
            ids=example.ids,
            offsets=example.offsets,
            affect=example.affect[::-1].copy(),
            label=example.label,
        )
        assert not np.allclose(model.forward(flipped).probabilities, base)

    @pytest.mark.parametrize("affect", [
        lambda a: a + 5.0,  # other values
        lambda a: a[:-1],  # a row short
        lambda a: a[:, :-1],  # a feature short
        lambda a: a[None],  # another rank
        lambda a: np.full(a.shape, "x"),  # not numbers
        lambda a: None,
    ], ids=["values", "rows", "features", "rank", "strings", "none"])
    def test_topic_only_ignores_affect(self, affect):
        cfg = tiny_config(mode="topic_only")
        model = FakeFlowModel(cfg, seed=6)
        examples = edge_batch(cfg, 4, seed=6)
        base = model.predict_logits(examples)
        examples[2].affect = affect(examples[2].affect)
        assert model.predict_logits(examples).tobytes() == base.tobytes()

    @pytest.mark.parametrize("segments", [
        lambda ids, offsets: (np.concatenate([ids[:offsets[1]][::-1], ids[offsets[1]:]]),
                              offsets),  # token order inside segment 0
        lambda ids, offsets: ((ids + 1) % 12, offsets),  # other values
        lambda ids, offsets: (ids + 12, offsets),  # outside the vocabulary (12 ids)
        lambda ids, offsets: (-ids, offsets),  # negative
        lambda ids, offsets: (ids, offsets[:-1]),  # offsets of another length
        lambda ids, offsets: (ids, offsets + 1),  # offsets that do not cut the ids
        lambda ids, offsets: (ids.astype(float), offsets / 2),  # not integers
        lambda ids, offsets: (None, None),
    ], ids=["order", "values", "vocabulary", "negative", "length", "cut", "floats", "none"])
    def test_affect_only_ignores_ids_and_offsets(self, segments):
        cfg = tiny_config(mode="affect_only")
        model = FakeFlowModel(cfg, seed=7)
        examples = edge_batch(cfg, 4, seed=7)
        base = model.predict_logits(examples)
        examples[2].ids, examples[2].offsets = segments(examples[2].ids, examples[2].offsets)
        assert model.predict_logits(examples).tobytes() == base.tobytes()

    def test_mode_trace_fields(self):
        cfg = tiny_config(mode="affect_only")
        trace = FakeFlowModel(cfg, seed=9).forward(random_example(cfg, np.random.default_rng(9)))
        assert trace.attention_weights is None
        assert trace.v_topic is None
        assert trace.v_flow is not None

        cfg = tiny_config(mode="topic_only")
        trace = FakeFlowModel(cfg, seed=9).forward(random_example(cfg, np.random.default_rng(9)))
        assert trace.v_flow is None
        assert trace.attention_weights is not None
        assert trace.v_affect is None


class TestBatchAndDeterminism:
    def test_batch_probs_match_per_document(self):
        for mode in MODES:
            cfg = tiny_config(mode=mode)
            model = FakeFlowModel(cfg, seed=10)
            rng = np.random.default_rng(10)
            examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(5)]
            batched = model.predict_proba(examples)
            singles = np.stack([model.forward(e).probabilities for e in examples])
            assert np.allclose(batched, singles, atol=1e-12), mode

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1),
           n_others=st.integers(0, 7), batch_size=st.integers(1, 9), data=st.data())
    def test_probabilities_independent_of_batch(self, mode, seed, n_others, batch_size, data):
        # a document's probabilities agree within 1e-12 whatever the documents
        # batched with it, its place in the batch or the batch size; not bit
        # for bit, since a batch of one takes BLAS's matrix-vector kernel
        cfg = tiny_config(mode=mode, n_segments=3, cnn_filter_widths=(2, 4))
        model = FakeFlowModel(cfg, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        target = random_example(cfg, rng, doc_id="target")
        batch = [random_example(cfg, rng, doc_id=f"other{i}") for i in range(n_others)]
        position = data.draw(st.integers(0, n_others))
        batch.insert(position, target)
        alone = model.forward(target).probabilities
        batched = model.predict_proba(batch, batch_size=batch_size)[position]
        assert np.max(np.abs(batched - alone)) <= 1e-12

    def test_frozen_embeddings_are_a_constant(self):
        # no gradient reaches the frozen table; every other parameter's
        # gradient and update is bit-identical to the trainable-table model
        updated = {}
        for trainable in (True, False):
            cfg = tiny_config(mode="full", dropout_rate=0.3, train_embeddings=trainable)
            model = FakeFlowModel(cfg, seed=16)
            examples = [random_example(cfg, np.random.default_rng(i)) for i in range(4)]
            table, table_grad = model.embedding.value.copy(), model.embedding.grad
            tape = tz.Tape()
            loss, _ = model.batch_loss(tape, examples, np.array([0, 1, 1, 0]), training=True,
                                       rng=np.random.default_rng(17))
            tz.backward(tape, loss)
            grads = {p.name: p.grad.copy() for p in model.params if p.name != "embedding"}
            tz.step(tz.make_optimizer("adam"), model.trainable_params())
            updated[trainable] = grads, {p.name: p.value for p in model.params}
            if not trainable:
                assert model.embedding.grad is table_grad and not table_grad.any()
                assert np.array_equal(model.embedding.value, table)
        (grads_t, values_t), (grads_f, values_f) = updated[True], updated[False]
        for name, grad in grads_t.items():
            assert np.array_equal(grad, grads_f[name]), name
            assert np.array_equal(values_t[name], values_f[name]), name
        assert not np.array_equal(values_t["embedding"], values_f["embedding"])

    def test_predict_proba_of_no_examples(self):
        for mode in ("full", "affect_only"):
            model = FakeFlowModel(tiny_config(mode=mode), seed=10)
            assert model.predict_proba([]).shape == (0, 2)
            assert model.predict([]) == []

    def test_forward_deterministic(self):
        cfg = tiny_config()
        model = FakeFlowModel(cfg, seed=11)
        example = random_example(cfg, np.random.default_rng(11))
        p1 = model.forward(example).probabilities
        p2 = model.forward(example).probabilities
        assert np.array_equal(p1, p2)

    def test_same_seed_same_init(self):
        cfg = tiny_config()
        m1 = FakeFlowModel(cfg, seed=12)
        m2 = FakeFlowModel(cfg, seed=12)
        for p1, p2 in zip(m1.params, m2.params):
            assert np.array_equal(p1.value, p2.value)


def edge_batch(cfg, size, seed):
    """`size` documents whose first has a segment shorter than every filter
    width and an empty one; the rest are random_example draws."""
    rng = np.random.default_rng(seed)
    first = Example(doc_id="edge", ids=np.array([3, 4, 5, 6, 7, 8, 9]),
                    offsets=np.array([0, 1, 1, 7]), affect=rng.uniform(size=(3, 23)))
    return [first] + [random_example(cfg, rng, doc_id=f"d{i}") for i in range(1, size)]


class TestInferenceTape:
    """Inference runs on a tape that records no ops; it must give the bits
    of a recording tape in every mode and batch size."""

    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("mode", MODES)
    def test_logits_bytes_equal_on_both_tapes(self, mode, size):
        cfg = tiny_config(mode=mode)
        model = FakeFlowModel(cfg, seed=30)
        examples = edge_batch(cfg, size, seed=size)
        values = {}
        for records in (True, False):
            nodes = {}
            tape = tz.Tape(records=records)
            logits = model.batch_logits(tape, examples, training=False, rng=None, nodes=nodes)
            assert (len(tape) > 0) == records
            values[records] = [logits.value] + [nodes[k].value for k in sorted(nodes)]
        for recorded, unrecorded in zip(values[True], values[False]):
            assert np.array_equal(recorded, unrecorded)
        assert np.array_equal(model.predict_logits(examples), values[True][0])
        trace = model.forward(examples[0])
        assert np.array_equal(trace.probabilities, tz.softmax_array(values[True][0][0]))

    def test_predict_logits_records_nothing(self, monkeypatch):
        cfg = tiny_config()
        model = FakeFlowModel(cfg, seed=31)
        tapes = []
        batch_logits = model.batch_logits

        def spy(tape, *args, **kwargs):
            tapes.append(tape)
            return batch_logits(tape, *args, **kwargs)

        monkeypatch.setattr(model, "batch_logits", spy)
        model.predict_logits(edge_batch(cfg, 7, seed=31), batch_size=3)
        model.forward(edge_batch(cfg, 1, seed=32)[0])
        assert len(tapes) == 4
        assert all(not tape.records and len(tape) == 0 for tape in tapes)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        cfg = tiny_config()
        model = FakeFlowModel(cfg, seed=36)
        examples = edge_batch(cfg, 3, seed=36)
        for predict in (model.predict_logits, model.predict_proba, model.predict):
            with pytest.raises(UsageError, match=f"batch_size must be >= 1, got {batch_size}"):
                predict(examples, batch_size=batch_size)
            with pytest.raises(UsageError, match="batch_size"):
                predict([], batch_size=batch_size)

    def test_first_bad_document_is_named(self):
        cfg = tiny_config()
        model = FakeFlowModel(cfg, seed=33)
        examples = edge_batch(cfg, 7, seed=33)
        examples[2].ids = examples[2].ids.copy()
        examples[2].ids[0] = cfg.vocab_size  # outside the vocabulary
        examples[4].offsets = examples[4].offsets[:-1]  # one boundary short
        with pytest.raises(ShapeError, match="document 'd2'.* ids in"):
            model.predict_logits(examples)
        examples[2] = edge_batch(cfg, 3, seed=34)[2]
        with pytest.raises(ShapeError, match="document 'd4'"):
            model.predict_logits(examples)
        examples[4] = edge_batch(cfg, 5, seed=35)[4]
        examples[5].affect = examples[5].affect[:, :-1]
        with pytest.raises(ShapeError, match="document 'd5': affect matrix shape"):
            model.predict_logits(examples)

    DEFECTS = {  # a defect, the modes that read its field, and the start of its message
        "vocabulary": (("full", "topic_only"), "segment offsets"),
        "cut": (("full", "topic_only"), "segment offsets"),
        "length": (("full", "topic_only"), "segment offsets"),  # cannot be joined
        "affect": (("full", "affect_only"), "affect matrix shape"),
    }

    @settings(max_examples=80, deadline=None)
    @given(defect=st.sampled_from(sorted(DEFECTS)), size=st.integers(1, 9), data=st.data())
    def test_one_defect_names_exactly_its_document(self, defect, size, data):
        modes, message = self.DEFECTS[defect]
        cfg = tiny_config(mode=data.draw(st.sampled_from(modes)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(size)]
        at = data.draw(st.integers(0, size - 1))
        bad = examples[at]
        if defect == "vocabulary":
            bad.ids[data.draw(st.integers(0, bad.ids.size - 1))] = data.draw(
                st.sampled_from([-1, cfg.vocab_size]))
        elif defect == "cut":
            # the first or last boundary: moving an inner one may still cut the ids
            bad.offsets[data.draw(st.sampled_from([0, cfg.n_segments]))] += data.draw(
                st.sampled_from([-1, 1]))
        elif defect == "length":
            bad.offsets = data.draw(st.sampled_from([bad.offsets[:-1],
                                                     np.append(bad.offsets, bad.offsets[-1])]))
        else:
            a = bad.affect  # a row short, a feature short, another rank, not numbers
            bad.affect = data.draw(st.sampled_from([a[:-1], a[:, :-1], a[None],
                                                    np.full(a.shape, "x")]))
        with pytest.raises(ShapeError) as info:
            FakeFlowModel(cfg, seed=37).predict_logits(examples)
        assert str(info.value).startswith(f"document 'd{at}': {message}")
        assert [i for i in range(size) if f"'d{i}'" in str(info.value)] == [at]

    def test_overflow_names_the_batch_documents(self):
        cfg = tiny_config()
        model = overflowing(FakeFlowModel(cfg, seed=34))
        with np.errstate(over="ignore"), pytest.raises(NumericsError) as info:
            model.predict_proba(edge_batch(cfg, 7, seed=34))
        assert str(info.value) == (
            "op 'dense' produced non-finite values in documents "
            "'edge', 'd1', 'd2', 'd3', 'd4' and 2 more (7 in the batch)"
        )
        assert isinstance(info.value.__cause__, NumericsError)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match=r"'edge' \(1 in"):
            model.forward(edge_batch(cfg, 1, seed=35)[0])


def per_gate(model, params):
    """`params` with the bi-GRU as checkpoints held it before it was
    stored stacked: in place of its four stacked arrays, each direction's
    18 per-gate arrays gru_fwd_wz, gru_fwd_uz, gru_fwd_bz, ... gru_bwd_bh,
    sliced from them."""
    out = []
    for p in params:
        if p.name == "gru_w":
            for d, direction in enumerate(("fwd", "bwd")):
                names = [f"gru_{direction}_{k}{g}" for g in "zrh" for k in "wub"]
                out += [tz.Parameter(name, gate)
                        for name, gate in zip(names, gru_gates(model.gru, d))]
        elif p.name not in ("gru_b", "gru_u_zr", "gru_u_h"):
            out.append(p)
    return out


def per_width(model, params):
    """`params` with the CNN as checkpoints held it before it was stored
    stacked: in place of conv_taps and conv_bias, each width's filter bank
    conv{w}_filters (K, w, D) and bias conv{w}_bias (K,), sliced from them."""
    widths, count = model.config.cnn_filter_widths, model.config.cnn_filter_count
    out = []
    for p in params:
        if p.name == "conv_taps":
            for j, w in enumerate(widths):
                first = sum(widths[:j])
                bank = p.value[first : first + w].transpose(1, 0, 2)
                bias = model.conv_bias.value[j * count : (j + 1) * count]
                out += [tz.Parameter(f"conv{w}_filters", bank), tz.Parameter(f"conv{w}_bias", bias)]
        elif p.name != "conv_bias":
            out.append(p)
    return out


def save_per_gate(model, path):
    """Save `model` as checkpoints were written before the bi-GRU was
    stored stacked: the CNN width by width and the bi-GRU gate by gate."""
    tz.save_checkpoint(path, per_gate(model, per_width(model, model.params)),
                       config=model.config.to_json())


def save_per_width(model, path):
    """Save `model` as checkpoints were written before the CNN was stored
    stacked: the CNN width by width, the bi-GRU as it is stored."""
    tz.save_checkpoint(path, per_width(model, model.params), config=model.config.to_json())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config()
        model = FakeFlowModel(cfg, seed=13)
        path = tmp_path / "model.bin"
        model.save(path)
        loaded = FakeFlowModel.load(path)
        assert loaded.config == cfg
        for p1, p2 in zip(model.params, loaded.params):
            assert p1.name == p2.name
            assert np.array_equal(p1.value, p2.value)
        example = random_example(cfg, np.random.default_rng(13))
        assert np.array_equal(
            model.forward(example).probabilities, loaded.forward(example).probabilities
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_load_draws_nothing_and_keeps_every_byte(self, tmp_path, monkeypatch, mode):
        cfg = tiny_config(mode)
        model = FakeFlowModel(cfg, seed=13)
        model.save(tmp_path / "model.bin")

        def no_draw(*args, **kwargs):
            raise AssertionError("load drew from a random generator")

        with monkeypatch.context() as patched:
            patched.setattr(np.random, "default_rng", no_draw)
            loaded = FakeFlowModel.load(tmp_path / "model.bin")
        assert [p.name for p in loaded.params] == [p.name for p in model.params]
        for p1, p2 in zip(model.params, loaded.params):
            assert p1.value.tobytes() == p2.value.tobytes(), p1.name
            assert p2.value.flags.c_contiguous and p2.value.flags.writeable
            assert not p2.grad.any()
        rng = np.random.default_rng(14)
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(5)]
        assert loaded.predict_proba(examples).tobytes() == model.predict_proba(examples).tobytes()

    def test_unexpected_parameter_is_config_error(self, tmp_path):
        model = FakeFlowModel(tiny_config(), seed=13)
        extra = tz.Parameter("unused", np.zeros(2))
        tz.save_checkpoint(tmp_path / "model.bin", model.params + [extra],
                           config=model.config.to_json())
        with pytest.raises(ConfigError, match="unused"):
            FakeFlowModel.load(tmp_path / "model.bin")

    @pytest.mark.parametrize("mode", MODES)
    def test_parameters_are_built_from_parameter_shapes(self, mode):
        cfg = tiny_config(mode)
        model = FakeFlowModel(cfg, seed=13)
        assert [(p.name, p.shape) for p in model.params] == list(parameter_shapes(cfg).items())
        defaults = FakeFlowConfig(n_segments=10, vocab_size=20, mode=mode)
        assert len(parameter_shapes(defaults)) == {"full": 19, "topic_only": 15,
                                                   "affect_only": 8}[mode]

    @staticmethod
    def load_saved_as(save, mode, tmp_path):
        """The arrays `save` writes for a model of `mode` with every gate,
        filter and bias different, after a check that the checkpoint loads
        with its bytes and its predict_proba."""
        cfg = tiny_config(mode)
        model = FakeFlowModel(cfg, seed=13)
        rng = np.random.default_rng(14)
        for p in model.gru if mode != "topic_only" else []:
            p.assign(rng.normal(size=p.shape) * 0.5)
        if mode != "affect_only":
            model.conv_bias.assign(rng.normal(size=model.conv_bias.shape))
        save(model, tmp_path / "old.bin")
        loaded = FakeFlowModel.load(tmp_path / "old.bin")
        assert [p.name for p in loaded.params] == [p.name for p in model.params]
        for p1, p2 in zip(model.params, loaded.params):
            assert p1.value.tobytes() == p2.value.tobytes(), p1.name
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(5)]
        assert loaded.predict_proba(examples).tobytes() == model.predict_proba(examples).tobytes()
        return tz.load_checkpoint(tmp_path / "old.bin")[1], len(model.params)

    @pytest.mark.parametrize("mode", ["full", "affect_only"])
    def test_per_gate_checkpoint_loads_byte_identically(self, tmp_path, mode):
        arrays, n_params = self.load_saved_as(save_per_gate, mode, tmp_path)
        assert len(arrays) == n_params + 14 + (2 if mode == "full" else 0)
        assert "gru_bwd_bh" in arrays and ("conv3_filters" in arrays) == (mode == "full")

    @pytest.mark.parametrize("mode", ["full", "topic_only"])
    def test_per_width_checkpoint_loads_byte_identically(self, tmp_path, mode):
        # the CNN width by width, the bi-GRU stacked (or absent)
        arrays, n_params = self.load_saved_as(save_per_width, mode, tmp_path)
        assert len(arrays) == n_params + 2 and "conv3_filters" in arrays
        assert "gru_bwd_bh" not in arrays and ("gru_w" in arrays) == (mode == "full")

    @pytest.mark.parametrize("missing", ["gru_fwd_wz", "gru_bwd_ur", "gru_bwd_bh"])
    def test_per_gate_checkpoint_missing_a_gate_is_config_error(self, tmp_path, missing):
        model = FakeFlowModel(tiny_config("affect_only"), seed=13)
        save_per_gate(model, tmp_path / "old.bin")
        _, arrays = tz.load_checkpoint(tmp_path / "old.bin")
        kept = [tz.Parameter(name, value) for name, value in arrays.items() if name != missing]
        tz.save_checkpoint(tmp_path / "cut.bin", kept, config=model.config.to_json())
        with pytest.raises(ConfigError, match=f"missing parameter '{missing}'"):
            FakeFlowModel.load(tmp_path / "cut.bin")

    @pytest.mark.parametrize("save", [save_per_width, save_per_gate])
    @pytest.mark.parametrize("missing", ["conv2_filters", "conv3_bias"])
    def test_per_width_checkpoint_missing_a_width_is_config_error(self, tmp_path, save, missing):
        model = FakeFlowModel(tiny_config(), seed=13)
        save(model, tmp_path / "old.bin")
        _, arrays = tz.load_checkpoint(tmp_path / "old.bin")
        kept = [tz.Parameter(name, value) for name, value in arrays.items() if name != missing]
        tz.save_checkpoint(tmp_path / "cut.bin", kept, config=model.config.to_json())
        with pytest.raises(ConfigError, match=f"missing parameter '{missing}'"):
            FakeFlowModel.load(tmp_path / "cut.bin")

    @pytest.mark.parametrize("mode, change, name", [
        ("full", {"vocab_size": 10**15}, "embedding"),
        ("affect_only", {"gru_units": 10**8, "fused_dense_dim": 2 * 10**8}, "gru_w"),
    ])
    def test_config_that_disagrees_with_the_arrays_is_config_error(self, tmp_path, mode, change,
                                                                    name):
        # sizes no address space holds: the check must come before any draw
        model = FakeFlowModel(tiny_config(mode), seed=13)
        tz.save_checkpoint(tmp_path / "model.bin", model.params,
                           config={**model.config.to_json(), **change})
        with pytest.raises(ConfigError, match=f"parameter '{name}' of shape"):
            FakeFlowModel.load(tmp_path / "model.bin")

    def test_checkpoint_with_repeated_classes_is_config_error(self, tmp_path):
        model = FakeFlowModel(tiny_config(), seed=13)
        tz.save_checkpoint(tmp_path / "model.bin", model.params,
                           config={**model.config.to_json(), "classes": ["real", "real"]})
        with pytest.raises(ConfigError, match="distinct classes"):
            FakeFlowModel.load(tmp_path / "model.bin")

    @pytest.mark.parametrize("change", [
        {"n_segmentz": 3},  # unknown field
        {"cnn_filter_widths": 3},  # not a list
        {"n_segments": "three"},  # not a number
        {"vocab_size": 12.5},  # not an integer
    ])
    def test_bad_config_is_config_error(self, change):
        payload = tiny_config().to_json()
        payload.update(change)
        with pytest.raises(ConfigError):
            FakeFlowConfig.from_json(payload)

    @pytest.mark.parametrize("name", ["embedding", "att_b", "softmax_b"])
    def test_load_state_of_non_finite_values_is_numerics_error(self, name):
        model = FakeFlowModel(tiny_config(), seed=13)
        before = model.buffers[0].copy()
        state = FakeFlowModel(tiny_config(), seed=14).state()
        state[name][0] = np.nan
        with pytest.raises(NumericsError, match=f"'{name}'"):
            model.load_state(state)
        assert model.buffers[0].tobytes() == before.tobytes()  # nothing was written


def offset(view: np.ndarray, buffer: np.ndarray) -> int:
    """Where `view` starts in `buffer`, in elements."""
    return (view.ctypes.data - buffer.ctypes.data) // buffer.itemsize


def assert_buffer_views(model):
    """Every parameter's value and grad are C-ordered views of the model's
    value and gradient buffers, back to back in parameter_shapes order."""
    values, grads = model.buffers
    assert [(p.name, p.shape) for p in model.params] == list(parameter_shapes(model.config).items())
    start = 0
    for p in model.params:
        for view, buffer in ((p.value, values), (p.grad, grads)):
            assert np.shares_memory(view, buffer) and view.flags.c_contiguous, p.name
            assert offset(view, buffer) == start, p.name
        start += p.value.size
    assert start == values.size == grads.size


class TestParameterBuffers:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_parameter_stays_a_view_of_the_buffers(self, tmp_path, mode):
        cfg = tiny_config(mode)
        model = FakeFlowModel(cfg, seed=50)
        assert_buffer_views(model)
        rng = np.random.default_rng(50)
        for p in model.params:
            value = p.value
            p.assign(rng.normal(size=p.shape))
            assert p.value is value
        assert_buffer_views(model)
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(12)]
        train(model, examples[:8], examples[8:],
              TrainConfig(max_epochs=2, patience=1, batch_size=4, seed=50))  # restores an epoch
        assert_buffer_views(model)
        assert not model.buffers[1].any()
        model.load_state(FakeFlowModel(cfg, seed=51).state())
        assert_buffer_views(model)
        for save in (FakeFlowModel.save, save_per_width, save_per_gate):
            save(model, tmp_path / "model.bin")
            loaded = FakeFlowModel.load(tmp_path / "model.bin")
            assert_buffer_views(loaded)
            assert loaded.buffers[0].tobytes() == model.buffers[0].tobytes()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("trained", [True, False])
    def test_trainable_params_is_one_span_past_a_frozen_table(self, mode, trained):
        model = FakeFlowModel(tiny_config(mode, train_embeddings=trained), seed=52)
        (span,) = model.trainable_params()
        skip = model.embedding.value.size if mode != "affect_only" and not trained else 0
        for view, buffer in zip((span.value, span.grad), model.buffers):
            assert view.shape == (buffer.size - skip,) and offset(view, buffer) == skip
        if skip:
            assert not np.shares_memory(span.value, model.embedding.value)
            assert not np.shares_memory(span.grad, model.embedding.grad)

    @pytest.mark.parametrize("algorithm", tz.ALGORITHMS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("trained", [True, False])
    def test_stepping_the_buffer_gives_the_bits_of_stepping_each_view(self, algorithm, mode,
                                                                      trained):
        cfg = tiny_config(mode, train_embeddings=trained, dropout_rate=0.3, optimizer=algorithm)
        whole, views = FakeFlowModel(cfg, seed=53), FakeFlowModel(cfg, seed=53)
        frozen = mode != "affect_only" and not trained
        runs = [(whole, whole.trainable_params(), tz.make_optimizer(algorithm)),
                (views, [p for p in views.params if not (frozen and p.name == "embedding")],
                 tz.make_optimizer(algorithm))]
        rng = np.random.default_rng(53)
        for t in range(4):
            examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(4)]
            gold = rng.integers(0, 2, size=4)
            for model, params, opt in runs:
                tape = tz.Tape()
                loss, _ = model.batch_loss(tape, examples, gold, training=True,
                                           rng=np.random.default_rng(t))
                tz.backward(tape, loss)
                tz.step(opt, params)
            assert whole.buffers[0].tobytes() == views.buffers[0].tobytes(), t
            assert not whole.buffers[1].any() and not views.buffers[1].any()

    def test_one_optimizer_for_a_trained_and_a_frozen_table_is_usage_error(self):
        opt = tz.make_optimizer("adam")
        trained = FakeFlowModel(tiny_config(), seed=54)
        tz.step(opt, trained.trainable_params())
        frozen = FakeFlowModel(tiny_config(train_embeddings=False), seed=54)
        before = frozen.buffers[0].copy()
        size = trained.buffers[0].size
        with pytest.raises(UsageError, match=rf"'trainable'.*\({size},\).*"
                                             rf"\({size - frozen.embedding.value.size},\)"):
            tz.step(opt, frozen.trainable_params())
        assert frozen.buffers[0].tobytes() == before.tobytes()


class TestPretrainedEmbeddings:
    def test_rows_injected_by_id_and_fallback(self):
        cfg = tiny_config()
        vec = np.arange(cfg.embed_dim, dtype=float)
        drawn = FakeFlowModel(cfg, seed=14)
        model = FakeFlowModel(cfg, seed=14, pretrained={2: vec, np.int64(11): -vec})
        assert np.array_equal(model.embedding.value[2], vec)
        assert np.array_equal(model.embedding.value[11], -vec)
        # every other row, and every other parameter, is as drawn without rows
        kept = np.ones(cfg.vocab_size, bool)
        kept[[2, 11]] = False
        assert np.array_equal(model.embedding.value[kept], drawn.embedding.value[kept])
        n_table = drawn.embedding.value.size
        assert model.buffers[0][n_table:].tobytes() == drawn.buffers[0][n_table:].tobytes()
        assert np.all(np.abs(model.embedding.value[3]) <= 0.05)

    @pytest.mark.parametrize("key, shape, message", [
        ("hello", (4,), "key 'hello' is not a vocabulary id in [0, 12)"),  # keyed by token
        (12, (4,), "key 12 is not a vocabulary id in [0, 12)"),
        (-1, (4,), "key -1 is not a vocabulary id in [0, 12)"),
        (3, (5,), "row for id 3 has shape (5,), expected (4,)"),
        (3, (1, 4), "row for id 3 has shape (1, 4), expected (4,)"),
    ], ids=["token", "past-the-table", "negative", "long-row", "matrix-row"])
    def test_a_bad_key_or_row_is_config_error_naming_the_key(self, key, shape, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            FakeFlowModel(tiny_config(), seed=14, pretrained={2: np.zeros(4), key: np.ones(shape)})


class TestEndToEndGradient:
    @pytest.mark.parametrize("mode", ["full", "topic_only", "affect_only"])
    def test_two_document_batch(self, mode):
        cfg = tiny_config(mode=mode)
        model = FakeFlowModel(cfg, seed=15)
        rng = np.random.default_rng(15)
        if mode != "affect_only":
            # condition the instance: unit-scale embeddings keep the topic
            # signal, and hence the checked gradients, away from the
            # finite-difference noise floor
            model.embedding.assign(rng.uniform(-1.0, 1.0, model.embedding.shape))
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(2)]
        gold = np.array([0, 1])

        def build_loss(tape):
            loss, _ = model.batch_loss(tape, examples, gold, training=False, rng=None)
            return loss

        tape = tz.Tape()
        loss = build_loss(tape)
        tz.backward(tape, loss)
        analytic = {p.name: p.grad.copy() for p in model.params}
        for p in model.params:
            p.zero_grad()
        worst = 0.0
        for p in model.params:
            numeric = numeric_gradient(
                lambda: float(build_loss(tz.Tape()).value), p.value, 1e-5
            )
            worst = max(worst, max_relative_error(analytic[p.name], numeric))
        assert worst < 1e-4, f"worst rel err {worst:.2e}"


def sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def blas_thread_digests() -> dict[str, str]:
    """sha256 of predict_proba in each mode, and of the parameters after
    eight Adam steps of an affect_only model, at bench-like sizes."""
    sizes = dict(n_segments=10, vocab_size=3000, max_seg_len=40, embed_dim=32,
                 dropout_rate=0.3, activation="relu")
    digests = {}
    for mode in MODES:
        cfg = FakeFlowConfig(mode=mode, **sizes)
        rng = np.random.default_rng(41)
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(96)]
        digests[mode] = sha([FakeFlowModel(cfg, seed=41).predict_proba(examples)])
    cfg = FakeFlowConfig(mode="affect_only", **sizes)
    model = FakeFlowModel(cfg, seed=42)
    rng = np.random.default_rng(42)
    opt = tz.make_optimizer("adam")
    params = model.trainable_params()
    for _ in range(8):
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(32)]
        tape = tz.Tape()
        loss, _ = model.batch_loss(tape, examples, rng.integers(0, 2, size=32),
                                   training=True, rng=rng)
        tz.backward(tape, loss)
        tz.step(opt, params)
    digests["affect_only-adam"] = sha([p.value for p in params])
    return digests


class TestBlasThreads:
    """Inference in every mode and affect_only training give the same bits
    with one BLAS thread as with two. The thread count is fixed when numpy
    loads, so each count runs in its own interpreter."""

    def test_digests_independent_of_thread_count(self):
        tests_dir = Path(__file__).resolve().parent
        src_dir = Path(fakeflow.__file__).resolve().parent.parent
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
            done = subprocess.run(
                [sys.executable, "-c",
                 "import json, test_model; print(json.dumps(test_model.blas_thread_digests()))"],
                env=env, cwd=tests_dir, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        assert sorted(runs[0]) == ["affect_only", "affect_only-adam", "full", "topic_only"]
        assert runs[0] == runs[1]


def block_digests(batch_sizes=(1, 7, 64)) -> dict[str, str]:
    """sha256 of predict_proba in topic_only and full at each batch size,
    and of the parameters after three Adam steps in each, at topic-v2k's
    sizes, where each width has K = 16 filter rows."""
    sizes = dict(n_segments=10, vocab_size=2000, max_seg_len=40, embed_dim=32,
                 dropout_rate=0.3, activation="relu")
    digests = {}
    for mode in ("topic_only", "full"):
        cfg = FakeFlowConfig(mode=mode, **sizes)
        rng = np.random.default_rng(43)
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(64)]
        model = FakeFlowModel(cfg, seed=43)
        for size in batch_sizes:
            digests[f"{mode}-{size}"] = sha([model.predict_proba(examples, batch_size=size)])
        model = FakeFlowModel(cfg, seed=44)
        rng = np.random.default_rng(44)
        opt = tz.make_optimizer("adam")
        params = model.trainable_params()
        for _ in range(3):
            examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(32)]
            tape = tz.Tape()
            loss, _ = model.batch_loss(tape, examples, rng.integers(0, 2, size=32),
                                       training=True, rng=rng)
            tz.backward(tape, loss)
            tz.step(opt, params)
        digests[f"{mode}-adam"] = sha([p.value for p in params])
    return digests


class TestTopicBlocks:
    """The topic forward runs embedding_conv_max's window stage in blocks of
    ROWS filter rows on the calling thread: no result depends on ROWS, and
    no mode starts a thread."""

    def test_every_block_size_gives_the_same_bytes(self, monkeypatch):
        runs = []
        for rows in (8, 1, 16):  # the default, one row, and every row of a width
            monkeypatch.setattr(tnn, "ROWS", rows)
            runs.append(block_digests())
        assert sorted(runs[0]) == ["full-1", "full-64", "full-7", "full-adam", "topic_only-1",
                                   "topic_only-64", "topic_only-7", "topic_only-adam"]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("mode", MODES)
    def test_training_and_inference_start_no_thread(self, monkeypatch, mode):
        # at these sizes a batch of 32 has about 6,400 windows per filter row
        def start(thread):
            raise AssertionError(f"{mode} started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        cfg = FakeFlowConfig(mode=mode, n_segments=10, vocab_size=2000, max_seg_len=40,
                             embed_dim=32)
        rng = np.random.default_rng(45)
        examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(72)]
        model = FakeFlowModel(cfg, seed=45)
        train(model, examples[:64], examples[64:],
              TrainConfig(max_epochs=2, patience=1, batch_size=32, seed=45))
        model.predict_proba(examples)


class TestTopicFaults:
    """The topic branch keeps its scratch between calls, so a steady stream
    of topic forwards, or of training steps, does not fault its pages in
    again."""

    @staticmethod
    def faults_per_call(setup: str, call: str) -> float:
        """ru_minflt per `call` in a fresh process, over ten calls after
        three warm-up calls, once `setup` has run."""
        try:
            import resource  # noqa: F401
        except ImportError:
            pytest.skip("needs the resource module")
        tests_dir = Path(__file__).resolve().parent
        src_dir = Path(fakeflow.__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
        script = (f"import resource, numpy as np, test_model\n"
                  f"import fakeflow.tensor as tz\n"
                  f"from fakeflow.model import FakeFlowConfig, FakeFlowModel\n"
                  f"{setup}\n"
                  f"def call():\n"
                  f"    {call}\n"
                  f"for _ in range(3):\n"
                  f"    call()\n"
                  f"start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  f"for _ in range(10):\n"
                  f"    call()\n"
                  f"print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 10)\n")
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tests_dir,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return float(done.stdout.splitlines()[-1])

    @staticmethod
    def model_setup(mode: str, max_seg_len: int, n_docs: int) -> str:
        """A model at topic-v2k's sizes and n_docs documents of segments of
        0 to max_seg_len ids."""
        return (f"cfg = FakeFlowConfig(mode={mode!r}, n_segments=10, vocab_size=2000,\n"
                f"                     max_seg_len={max_seg_len}, embed_dim=32, activation='relu')\n"
                f"rng = np.random.default_rng(46)\n"
                f"docs = [test_model.random_example(cfg, rng, doc_id=f'd{{i}}')\n"
                f"        for i in range({n_docs})]\n"
                f"model = FakeFlowModel(cfg, seed=46)\n"
                f"opt, params = tz.make_optimizer('adam'), model.trainable_params()\n"
                f"gold = rng.integers(0, 2, size={n_docs})")

    def test_steady_inference_takes_few_minor_faults(self):
        per_call = self.faults_per_call(self.model_setup("topic_only", 40, 64),
                                        "model.predict_proba(docs)")
        assert per_call < 100, per_call

    @pytest.mark.parametrize("max_seg_len", [40, 80])
    @pytest.mark.parametrize("mode", ["topic_only", "full"])
    def test_steady_training_takes_few_minor_faults(self, mode, max_seg_len):
        # a step is a forward, a backward and an Adam step on 32 documents
        step = ("tape = tz.Tape(); "
                "tz.backward(tape, model.batch_loss(tape, docs, gold, training=True, rng=rng)[0]); "
                "tz.step(opt, params)")
        per_step = self.faults_per_call(self.model_setup(mode, max_seg_len, 32), step)
        assert per_step < 100, per_step
