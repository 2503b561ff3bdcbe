"""FakeFlowModel against the plain-numpy reference in reference_model.py:
its logits, and every parameter gradient of its loss, on tiny configs of
every mode, and its logits at the bench's topic sizes and at paper scale;
at the bench's topic size, central differences of its own loss check a
few coordinates of the topic branch's gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fakeflow.tensor as tz
import reference_model as ref
from conftest import max_relative_error, numeric_gradient
from fakeflow.lexicon import N_FEATURES
from fakeflow.model import MODES, Example, FakeFlowConfig, FakeFlowModel
from fakeflow.tensor import nn as tnn


@st.composite
def cases(draw):
    """A tiny config's sizes and a seed for its values and its batch of 1
    to 5 documents. Widths run to 4 and segments from 0 to 6 ids, so
    empty segments and segments shorter than a width are common."""
    sizes = dict(
        n_segments=draw(st.integers(1, 4)),
        vocab_size=draw(st.integers(1, 8)),
        max_seg_len=draw(st.integers(1, 6)),
        embed_dim=draw(st.integers(1, 3)),
        cnn_filter_widths=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3,
                                              unique=True))),
        cnn_filter_count=draw(st.integers(1, 3)),
        pool_size=draw(st.integers(1, 3)),
        topic_dense_dim=draw(st.integers(1, 3)),
        gru_units=draw(st.integers(1, 3)),
        final_dense_dim=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(sorted(tz.ACTIVATIONS))),
        classes=tuple(f"c{i}" for i in range(draw(st.integers(2, 3)))),
        train_embeddings=draw(st.booleans()),
    )
    return sizes, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 5))


def build(mode, sizes, seed, batch):
    """The model, with every parameter drawn from U(-1, 1) so no
    activation sits at a kink, its batch and the gold classes."""
    config = FakeFlowConfig(mode=mode, dropout_rate=0.3, **sizes)
    model = FakeFlowModel(config, seed=seed)
    rng = np.random.default_rng(seed)
    for param in model.params:
        param.assign(rng.uniform(-1.0, 1.0, param.shape))
    examples = []
    for i in range(batch):
        lengths = rng.integers(0, config.max_seg_len + 1, size=config.n_segments)
        examples.append(Example(
            doc_id=f"d{i}", ids=rng.integers(0, config.vocab_size, size=lengths.sum()),
            offsets=np.concatenate([[0], np.cumsum(lengths)]),
            affect=rng.uniform(0.0, 0.5, size=(config.n_segments, N_FEATURES))))
    return model, examples, rng.integers(0, len(config.classes), size=batch), rng


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_logits_match_the_reference(mode, case):
    model, examples, _, _ = build(mode, *case)
    logits = model.batch_logits(tz.Tape(), examples, training=False, rng=None).value
    assert max_relative_error(logits, ref.batch_logits(model, examples)) < 1e-12


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(cases())
def test_gradients_match_central_differences_of_the_reference(mode, case):
    # every coordinate of an array of 10 or fewer elements, a seeded sample
    # of 5 of a larger one
    model, examples, gold, rng = build(mode, *case)
    tape = tz.Tape()
    loss, _ = model.batch_loss(tape, examples, gold, training=False, rng=None)
    tz.backward(tape, loss)
    for param in model.params:
        if param.name == "embedding" and not model.config.train_embeddings:
            assert not param.grad.any()
            continue
        flat = param.value.reshape(-1)
        coords = np.arange(flat.size) if flat.size <= 10 else rng.choice(flat.size, 5,
                                                                           replace=False)
        numeric = np.concatenate([
            numeric_gradient(lambda: ref.batch_loss(model, examples, gold), flat[i : i + 1])
            for i in coords])
        err = max_relative_error(param.grad.reshape(-1)[coords], numeric)
        assert err < 1e-4, f"{param.name}: rel err {err:.2e}"


@pytest.mark.parametrize("mode, sizes, n_docs", [
    ("topic_only", dict(n_segments=10, vocab_size=2000, max_seg_len=40, embed_dim=32), 32),
    ("full", dict(n_segments=10, vocab_size=20289, max_seg_len=80, embed_dim=300), 8),
], ids=["bench-topic_only", "paper-full"])
def test_logits_match_the_reference_at_real_sizes(monkeypatch, mode, sizes, n_docs):
    # sizes where R is taken in several row blocks (R_CELLS), the window
    # stage in several blocks of ROWS filter rows, and BLAS picks the
    # kernels of a real batch
    config = FakeFlowConfig(mode=mode, **sizes)
    model = FakeFlowModel(config, seed=47)
    rng = np.random.default_rng(47)
    examples = []
    for i in range(n_docs):
        lengths = rng.integers(0, config.max_seg_len + 1, size=config.n_segments)
        examples.append(Example(
            doc_id=f"d{i}", ids=rng.integers(0, config.vocab_size, size=lengths.sum()),
            offsets=np.concatenate([[0], np.cumsum(lengths)]),
            affect=rng.uniform(0.0, 0.5, size=(config.n_segments, N_FEATURES))))
    want = ref.batch_logits(model, examples)
    for rows in (tnn.ROWS, 1):
        monkeypatch.setattr(tnn, "ROWS", rows)
        logits = model.batch_logits(tz.Tape(), examples, training=False, rng=None).value
        assert max_relative_error(logits, want) < 1e-12, rows


def test_topic_gradients_match_central_differences_at_the_bench_size():
    # a few coordinates of conv_taps, conv_bias and the embedding rows under
    # a max window, where R and the row gradient are taken in several blocks;
    # the loss is the model's own, whose logits the test above holds to the
    # reference at this size
    config = FakeFlowConfig(mode="topic_only", n_segments=10, vocab_size=2000, max_seg_len=40,
                            embed_dim=32)
    model = FakeFlowModel(config, seed=48)
    rng = np.random.default_rng(48)
    examples = []
    for i in range(32):
        lengths = rng.integers(0, config.max_seg_len + 1, size=config.n_segments)
        examples.append(Example(
            doc_id=f"d{i}", ids=rng.integers(0, config.vocab_size, size=lengths.sum()),
            offsets=np.concatenate([[0], np.cumsum(lengths)]),
            affect=np.zeros((config.n_segments, N_FEATURES))))
    gold = rng.integers(0, 2, size=len(examples))
    tape = tz.Tape()
    loss, _ = model.batch_loss(tape, examples, gold, training=False, rng=None)
    tz.backward(tape, loss)

    def loss_value():
        return float(model.batch_loss(tz.Tape(records=False), examples, gold, training=False,
                                      rng=None)[0].value)

    for param in (model.conv_taps, model.conv_bias, model.embedding):
        flat, grad = param.value.reshape(-1), param.grad.reshape(-1)
        # among the 50 largest gradients, so rounding in the loss stays far below 1e-4
        coords = rng.choice(np.argsort(-np.abs(grad))[:50], 4, replace=False)
        numeric = np.concatenate([numeric_gradient(loss_value, flat[i : i + 1]) for i in coords])
        err = max_relative_error(grad[coords], numeric)
        assert err < 1e-4, f"{param.name}: rel err {err:.2e}"
