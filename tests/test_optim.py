import tracemalloc

import numpy as np
import pytest

import fakeflow.tensor as tz
from fakeflow.errors import ConfigError, UsageError


def _param(value=1.0, grad=0.5):
    p = tz.Parameter("theta", np.array([value]))
    p.grad[:] = grad
    return p


class TestStep:
    def test_sgd_textbook(self):
        p = _param(1.0, 0.5)
        opt = tz.make_optimizer("sgd", 0.1)
        tz.step(opt, [p])
        assert p.value[0] == pytest.approx(0.95, abs=1e-15)

    def test_adam_first_step_bias_corrected(self):
        # step 1, g=1, lr=0.001: update = lr * 1 / (1 + eps)
        p = _param(1.0, 1.0)
        opt = tz.make_optimizer("adam")
        tz.step(opt, [p])
        assert p.value[0] == pytest.approx(1.0 - 0.001 / (1.0 + 1e-8), abs=1e-15)

    def test_rmsprop_frozen_values(self):
        # hand-applied update rule: theta=1, g=0.5 for two steps
        p = _param(1.0, 0.5)
        opt = tz.make_optimizer("rmsprop")
        tz.step(opt, [p])
        assert p.value[0] == pytest.approx(0.9968377243398303, abs=1e-15)
        p.grad[:] = 0.5
        tz.step(opt, [p])
        assert p.value[0] == pytest.approx(0.9945435680537558, abs=1e-15)

    def test_adadelta_frozen_value(self):
        p = _param(1.0, 0.5)
        opt = tz.make_optimizer("adadelta")
        tz.step(opt, [p])
        assert p.value[0] == pytest.approx(0.9955280429197062, abs=1e-15)

    @pytest.mark.parametrize("algorithm", tz.ALGORITHMS)
    def test_zero_gradient_leaves_parameter_unchanged(self, algorithm):
        p = _param(3.5, 0.0)
        opt = tz.make_optimizer(algorithm)
        tz.step(opt, [p])
        assert p.value[0] == 3.5

    @pytest.mark.parametrize("algorithm", tz.ALGORITHMS)
    def test_gradients_zeroed_after_step(self, algorithm):
        p = _param(1.0, 0.7)
        tz.step(opt := tz.make_optimizer(algorithm), [p])
        assert np.all(p.grad == 0.0)
        assert opt.step_count == 1

    def test_default_learning_rates(self):
        assert tz.make_optimizer("sgd").learning_rate == 0.01
        assert tz.make_optimizer("adam").learning_rate == 0.001
        assert tz.make_optimizer("rmsprop").learning_rate == 0.001
        assert tz.make_optimizer("adadelta").learning_rate == 1.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(UsageError):
            tz.make_optimizer("lion")

    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_learning_rate_must_be_finite_and_not_negative(self, lr):
        with pytest.raises(ConfigError, match="learning rate"):
            tz.make_optimizer("sgd", lr)

    def test_zero_learning_rate_holds_parameters(self):
        p = _param()
        tz.step(tz.make_optimizer("adam", 0.0), [p])
        assert p.value.tolist() == [1.0]

    def test_duplicate_names_rejected(self):
        p1 = _param()
        p2 = _param()
        with pytest.raises(UsageError):
            tz.step(tz.make_optimizer("sgd"), [p1, p2])

    def test_buffers_track_parameter_shapes(self):
        p = tz.Parameter("w", np.zeros((3, 2)))
        p.grad[:] = 1.0
        opt = tz.make_optimizer("adam")
        tz.step(opt, [p])
        assert opt.slots[("w", "m")].shape == (3, 2)
        assert opt.slots[("w", "v")].shape == (3, 2)

    @pytest.mark.parametrize("algorithm", ["adam", "rmsprop", "adadelta"])
    def test_slot_of_another_shape_is_usage_error_before_any_update(self, algorithm):
        opt = tz.make_optimizer(algorithm)
        first = _param(1.0, 0.5)
        tz.step(opt, [first, tz.Parameter("w", np.zeros(3))])
        value = first.value.copy()
        first.grad[:] = 0.5
        with pytest.raises(UsageError, match=r"'w'.*\(3,\).*\(4,\)"):
            tz.step(opt, [first, tz.Parameter("w", np.zeros(4))])
        assert first.value.tobytes() == value.tobytes() and first.grad.tolist() == [0.5]
        assert opt.step_count == 1

    def test_steps_a_view_of_a_shared_buffer_in_place(self):
        values, grads = np.arange(6.0), np.full(6, 0.5)
        p = tz.Parameter("mid", values[1:5].reshape(2, 2), grads[1:5].reshape(2, 2))
        tz.step(tz.make_optimizer("sgd", 1.0), [p])
        assert values.tolist() == [0.0, 0.5, 1.5, 2.5, 3.5, 5.0]
        assert grads.tolist() == [0.5, 0.0, 0.0, 0.0, 0.0, 0.5]


def _textbook_step(algorithm, lr, t, p, g, slots):
    """One whole-array update, as the optimizer wrote it before it ran
    in blocks: the reference for every bit of the blocked update."""
    from fakeflow.tensor.optim import (
        ADA_EPS, ADA_RHO, ADAM_EPS, BETA1, BETA2, RMS_EPS, RMS_RHO,
    )
    if algorithm == "sgd":
        p -= lr * g
    elif algorithm == "adam":
        m, v = slots
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    elif algorithm == "rmsprop":
        (acc,) = slots
        acc *= RMS_RHO
        acc += (1.0 - RMS_RHO) * g * g
        p -= lr * g / (np.sqrt(acc) + RMS_EPS)
    else:
        acc, acc_delta = slots
        acc *= ADA_RHO
        acc += (1.0 - ADA_RHO) * g * g
        delta = -np.sqrt(acc_delta + ADA_EPS) / np.sqrt(acc + ADA_EPS) * g
        acc_delta *= ADA_RHO
        acc_delta += (1.0 - ADA_RHO) * delta * delta
        p += lr * delta


SLOT_NAMES = {"sgd": (), "adam": ("m", "v"), "rmsprop": ("acc",), "adadelta": ("acc", "acc_delta")}


class TestBlockedUpdate:
    @pytest.mark.parametrize("algorithm", tz.ALGORITHMS)
    def test_byte_identical_to_the_textbook_expression(self, algorithm):
        # rows of 33 entries: a block boundary falls inside a row, and the
        # last block is short
        block = tz.optim.BLOCK
        shape = (2 * block // 33 + 5, 33)
        assert (shape[0] * shape[1]) % block
        rng = np.random.default_rng(7)
        start = rng.normal(size=shape)
        params = [tz.Parameter("table", start), tz.Parameter("bias", rng.normal(size=3)),
                  tz.Parameter("scalar", np.array(0.25))]
        ref = [p.value.copy() for p in params]
        ref_slots = [[np.zeros_like(p.value) for _ in SLOT_NAMES[algorithm]] for p in params]
        opt = tz.make_optimizer(algorithm)
        for t in range(1, 5):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 2) for p in params]
            table_grad = grads[0]
            table_grad[rng.random(shape) < 0.2] = -0.0
            table_grad[rng.integers(0, shape[0], size=shape[0] // 3)] = 0.0  # rows never read
            table_grad[rng.integers(0, shape[0], size=4)] = -0.0
            for p, g in zip(params, grads):
                p.grad[...] = g
            tz.step(opt, params)
            for value, g, slots in zip(ref, grads, ref_slots):
                _textbook_step(algorithm, opt.learning_rate, t, value, g, slots)
            for p, value, slots in zip(params, ref, ref_slots):
                assert p.value.tobytes() == value.tobytes(), (p.name, t)
                for name, slot in zip(SLOT_NAMES[algorithm], slots):
                    assert opt.slots[(p.name, name)].tobytes() == slot.tobytes(), (p.name, name, t)
                assert not p.grad.any()

    @pytest.mark.parametrize("algorithm", tz.ALGORITHMS)
    def test_a_step_after_the_first_allocates_almost_nothing(self, algorithm):
        # the whole-array form peaked at 2.0 MB for adam here, four times
        # the parameter
        rng = np.random.default_rng(8)
        p = tz.Parameter("table", rng.normal(size=(2_000, 32)))
        opt = tz.make_optimizer(algorithm)
        p.grad[...] = rng.normal(size=p.shape)
        tz.step(opt, [p])
        p.grad[...] = rng.normal(size=p.shape)
        tracemalloc.start()
        try:
            tz.step(opt, [p])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.value.nbytes / 4, peak


class TestCheckpointRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = [
            tz.Parameter("a", rng.normal(size=(4, 3))),
            tz.Parameter("b", rng.normal(size=7)),
            tz.Parameter("c", np.array(2.5)),
        ]
        path = tmp_path / "ckpt.bin"
        tz.save_checkpoint(path, params, config={"note": "test", "dim": 4})
        config, arrays = tz.load_checkpoint(path)
        assert config == {"note": "test", "dim": 4}
        for p in params:
            assert arrays[p.name].shape == p.value.shape
            assert np.array_equal(arrays[p.name], p.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        from fakeflow.errors import ParseError

        with pytest.raises(ParseError):
            tz.load_checkpoint(path)


class TestWordVectors:
    def test_load_and_fallback(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("hello 0.1 0.2 0.3\nworld 1.0 -1.0 0.5\n")
        vectors = tz.load_word_vectors(path, dim=3)
        assert set(vectors) == {"hello", "world"}
        assert vectors["hello"].tolist() == [0.1, 0.2, 0.3]

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nhello 0.1 0.2 0.3\nworld 1.0 -1.0 0.5\n")
        assert len(tz.load_word_vectors(path, dim=3)) == 2

    @pytest.mark.parametrize("content, dim, expected", [
        ("hello 0.5\nworld 0.7\n", 1, {"hello": [0.5], "world": [0.7]}),
        ("2 3\nhello 0.1 0.2 0.3 \nworld 1.0 -1.0 0.5 \n", 3,
         {"hello": [0.1, 0.2, 0.3], "world": [1.0, -1.0, 0.5]}),
    ], ids=["dim-1-first-line", "word2vec-trailing-space"])
    def test_loads_every_vector(self, tmp_path, content, dim, expected):
        path = tmp_path / "vectors.txt"
        path.write_text(content)
        vectors = tz.load_word_vectors(path, dim=dim)
        assert {word: v.tolist() for word, v in vectors.items()} == expected

    @pytest.mark.parametrize("content, line", [
        ("hello 0.1 0.2 0.3\ncaf\xe9 1 2 3\n".encode("latin-1"), 2),
        (b"hello nan 0.2 0.3\n", 1),
        (b"hello 0.1 0.2 0.3\nworld 1.0 -inf 0.5\n", 2),
        (b"2 3\nhello 0.1 inf 0.3 \n", 2),
        (b"2 3\nhello 0.1 0.2 0.3 \nworld 1.0 0.5 \n", 3),
        (b"hello 0.5\n", 1),
    ], ids=["latin-1", "nan", "inf", "trailing-space-inf", "trailing-space-short",
            "two-fields-not-a-header"])
    def test_bad_line_is_parse_error_naming_it(self, tmp_path, content, line):
        from fakeflow.errors import ParseError

        path = tmp_path / "vectors.txt"
        path.write_bytes(content)
        with pytest.raises(ParseError) as err:
            tz.load_word_vectors(path, dim=3)
        assert f"{path}:{line}: " in str(err.value)

    def test_wrong_dim_rejected(self, tmp_path):
        from fakeflow.errors import ParseError

        path = tmp_path / "vectors.txt"
        path.write_text("hello 0.1 0.2\n")
        with pytest.raises(ParseError):
            tz.load_word_vectors(path, dim=3)
