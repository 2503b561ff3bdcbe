import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fakeflow.tensor as tz
from conftest import max_relative_error, numeric_gradient
from fakeflow.errors import ConfigError, ShapeError
from fakeflow.model import (
    MODES,
    Example,
    FakeFlowConfig,
    FakeFlowModel,
    combine,
    config_for_mode,
    context_self_attention,
)


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
        expected = np.tanh(model.topic_b.value)  # activation("tanh") of the bias
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
    def test_topic_only_ignores_affect(self):
        cfg = tiny_config(mode="topic_only")
        model = FakeFlowModel(cfg, seed=6)
        rng = np.random.default_rng(6)
        example = random_example(cfg, rng)
        base = model.forward(example).probabilities
        example.affect = rng.uniform(5.0, 9.0, size=example.affect.shape)
        assert np.array_equal(model.forward(example).probabilities, base)

    def test_affect_only_ignores_token_order(self):
        cfg = tiny_config(mode="affect_only")
        model = FakeFlowModel(cfg, seed=7)
        rng = np.random.default_rng(7)
        example = random_example(cfg, rng)
        base = model.forward(example).probabilities
        # permute tokens inside segment 0 (affect matrix untouched)
        n_real = int(example.offsets[1])
        if n_real > 1:
            example.ids[:n_real] = example.ids[:n_real][::-1]
        assert np.array_equal(model.forward(example).probabilities, base)

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
        # a document's probabilities do not depend on the documents batched
        # with it, on its place in the batch, or on the batch size
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

    def test_unexpected_parameter_is_config_error(self, tmp_path):
        model = FakeFlowModel(tiny_config(), seed=13)
        extra = tz.Parameter("unused", np.zeros(2))
        tz.save_checkpoint(tmp_path / "model.bin", model.params + [extra],
                           config=model.config.to_json())
        with pytest.raises(ConfigError, match="unused"):
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


class TestPretrainedEmbeddings:
    def test_vectors_injected_and_fallback(self):
        cfg = tiny_config()
        vocab_tokens = {"hello": 2, "world": 3}
        vec = np.arange(cfg.embed_dim, dtype=float)
        model = FakeFlowModel(cfg, seed=14, pretrained={"hello": vec},
                              vocab_tokens=vocab_tokens)
        assert np.array_equal(model.embedding.value[2], vec)
        assert model.pretrained_hits == 1
        # row 3 fell back to the uniform initializer
        assert np.all(np.abs(model.embedding.value[3]) <= 0.05)


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
