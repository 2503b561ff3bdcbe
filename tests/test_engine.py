import ast
import gc
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fakeflow.tensor as tz
from conftest import (
    bigru_params,
    gru_gates,
    max_relative_error,
    numeric_gradient,
)
from fakeflow.errors import NumericsError, ShapeError, UsageError
from fakeflow.tensor import engine
from fakeflow.tensor import nn as tnn


def _add(a, b):
    """a + b as a tape op whose VJP hands both inputs the one array g, the
    case backward's copy of a first gradient is for."""
    return engine._record(a.tape, a.value + b.value, (a, b), lambda g: (g, g), "add")


def check_gradients(build_loss, params, step=1e-5, tol=1e-4):
    """Analytic gradients of build_loss() (fresh tape each call) against
    central finite differences on every parameter."""
    tape = tz.Tape()
    loss = build_loss(tape)
    tz.backward(tape, loss)
    analytic = {p.name: p.grad.copy() for p in params}
    for p in params:
        p.zero_grad()
    for p in params:
        numeric = numeric_gradient(lambda: float(build_loss(tz.Tape()).value), p.value, step)
        err = max_relative_error(analytic[p.name], numeric)
        assert err < tol, f"{p.name}: rel err {err:.2e}"


class TestForwardExamples:
    def test_conv1d_hand_example(self):
        # x = [[1],[2],[3]], single filter [1, 1], bias 0 -> [[3],[5]]
        tape = tz.Tape()
        x = tape.constant(np.array([[1.0], [2.0], [3.0]]))
        f = tz.Parameter("f", np.array([[[1.0], [1.0]]]))
        b = tz.Parameter("b", np.zeros(1))
        out = tz.conv1d(x, f, b)
        assert out.value.tolist() == [[3.0], [5.0]]

    def test_conv1d_zero_filters_constant_bias(self):
        tape = tz.Tape()
        x = tape.constant(np.arange(12, dtype=float).reshape(4, 3))
        f = tz.Parameter("f", np.zeros((2, 2, 3)))
        b = tz.Parameter("b", np.array([0.5, -1.5]))
        out = tz.conv1d(x, f, b)
        assert np.array_equal(out.value, np.tile([0.5, -1.5], (3, 1)))

    def test_conv1d_too_short_raises(self):
        tape = tz.Tape()
        x = tape.constant(np.ones((2, 3)))
        f = tz.Parameter("f", np.zeros((1, 4, 3)))
        b = tz.Parameter("b", np.zeros(1))
        with pytest.raises(ShapeError):
            tz.conv1d(x, f, b)

    def test_maxpool1d(self):
        tape = tz.Tape()
        x = tape.constant(np.array([[1.0], [3.0], [2.0]]))
        out = tz.maxpool1d(x, 2)
        assert out.value.tolist() == [[3.0], [2.0]]

    def test_global_maxpool(self):
        tape = tz.Tape()
        x = tape.constant(np.array([[1.0], [3.0], [2.0]]))
        assert tz.global_maxpool(x).value.tolist() == [3.0]

    def test_maxpool_tie_routes_to_first(self):
        tape = tz.Tape()
        x = tape.constant(np.array([[2.0], [2.0]]))
        out = tz.global_maxpool(x)
        loss = tz.mean_all(out)
        tz.backward(tape, loss)
        # gradient must flow to index 0 only
        entry = tape._entries[0]
        assert entry[1][0].grad.tolist() == [[1.0], [0.0]]

    def test_dense_identity_weights_tanh(self):
        tape = tz.Tape()
        x = tape.constant(np.array([0.0, 0.5, -0.5]))
        w = tz.Parameter("w", np.eye(3))
        b = tz.Parameter("b", np.zeros(3))
        out = tz.dense(x, w, b, "tanh")
        assert np.allclose(out.value, np.tanh([0.0, 0.5, -0.5]))

    def test_dense_relu_values_and_gradient(self):
        tape = tz.Tape()
        x = tape.constant(np.array([-1.0, 2.0]))
        out = tz.dense(x, tz.Parameter("w", np.eye(2)), act="relu")
        assert out.value.tolist() == [0.0, 2.0]
        loss = tz.mean_all(out)
        tz.backward(tape, loss)
        assert tape._entries[0][1][0].grad.tolist() == [0.0, 0.5]

    def test_softmax_symmetry(self):
        tape = tz.Tape()
        out = tz.softmax(tape.constant(np.array([0.0, 0.0])))
        assert out.value.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("shape", [(), (2, 0)], ids=["scalar", "no-classes"])
    def test_softmax_array_needs_an_element_on_the_last_axis(self, shape):
        with pytest.raises(ShapeError, match="softmax: need at least one element"):
            tz.softmax_array(np.zeros(shape))

    def test_softmax_stability(self):
        tape = tz.Tape()
        out = tz.softmax(tape.constant(np.array([1000.0, 0.0])))
        assert np.all(np.isfinite(out.value))
        assert out.value[0] == pytest.approx(1.0)

    def test_cross_entropy_closed_form(self):
        tape = tz.Tape()
        p = tape.constant(np.array([0.5, 0.5]))
        loss = tz.cross_entropy(p, 0)
        assert float(loss.value) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_embedding_basic_and_out_of_range(self):
        tape = tz.Tape()
        table = tz.Parameter("emb", np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
        out = tz.embedding_lookup(np.array([[0]]), tape.read(table))
        assert out.value.tolist() == [[[0.0, 0.0]]]
        with pytest.raises(ShapeError, match="token id out of range"):
            tz.embedding_lookup(np.array([[5]]), tape.read(table))

    def test_embedding_gradient_counts_occurrences(self):
        table = tz.Parameter("emb", np.ones((4, 2)))
        tape = tz.Tape()
        ids = np.array([[1, 1, 3], [2, 1, 3]])
        out = tz.embedding_lookup(ids, tape.read(table))
        # sum of all outputs: d/d table[r] = occurrences of r (per column)
        loss = tz.mul(tz.mean_all(out), tape.constant(out.value.size))
        tz.backward(tape, loss)
        assert table.grad[:, 0].tolist() == [0.0, 3.0, 1.0, 2.0]

    def test_bigru_zero_weights_zero_output(self):
        units = 3
        params = bigru_params(np.zeros, units, 2)
        tape = tz.Tape()
        x = tape.constant(np.ones((4, 2)))
        out = tz.bigru(x, *params)
        assert out.value.shape == (4, 2 * units)
        assert np.all(out.value == 0.0)

    def test_bigru_single_step_uses_same_input_both_directions(self):
        rng = np.random.default_rng(0)
        units, feat = 2, 3
        fwd = [rng.normal(size=shape) for shape in [(units, feat), (units, units), (units,)] * 3]
        draws = iter(fwd * 2)  # shared weights: the reverse cell repeats the forward cell
        params = bigru_params(lambda shape: next(draws), units, feat)
        tape = tz.Tape()
        x = tape.constant(rng.normal(size=(1, feat)))
        out = tz.bigru(x, *params)
        # with shared weights and one step, both halves are identical
        assert np.allclose(out.value[0, :units], out.value[0, units:])

    def test_dropout_rate_zero_and_inference_identity(self):
        tape = tz.Tape()
        x = tape.constant(np.arange(5.0))
        assert tz.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x
        assert tz.dropout(x, 0.5, training=False) is x

    @pytest.mark.parametrize("rate, training", [(0.5, False), (0.0, True)])
    def test_dropout_binds_its_input_even_where_it_records_nothing(self, rate, training):
        # a Parameter alone has no tape, and an array or a string is no input
        rng = np.random.default_rng(0)
        for bad in (tz.Parameter("p", np.ones(3)), np.ones(3), "x"):
            with pytest.raises(UsageError):
                tz.dropout(bad, rate, training, rng)
        with pytest.raises(ShapeError, match="rate"):  # the rate is checked first
            tz.dropout("x", 1.0, training, rng)

    def test_dropout_expectation_preserved(self):
        rng = np.random.default_rng(42)
        tape = tz.Tape()
        x = tape.constant(np.ones(100_000))
        out = tz.dropout(x, 0.4, training=True, rng=rng)
        assert abs(out.value.mean() - 1.0) < 0.01

    def test_finite_guard_raises(self):
        tape = tz.Tape()
        p = tape.constant(np.array([1.0, 0.0]))
        with pytest.raises(NumericsError):
            tz.cross_entropy(p, 1)  # -log(0)


class TestParameter:
    def test_assign_writes_in_place(self):
        values = np.zeros(5)
        p = tz.Parameter("w", values[1:4], np.zeros(3))
        value = p.value
        p.assign([1.0, 2.0, 3.0])
        assert p.value is value and values.tolist() == [0.0, 1.0, 2.0, 3.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_assign_of_non_finite_values_is_numerics_error(self, bad):
        p = tz.Parameter("w", np.zeros(3))
        with pytest.raises(NumericsError, match="'w'"):
            p.assign([bad, 1.0, 2.0])
        assert p.value.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_values_are_numerics_errors(self, bad):
        with pytest.raises(NumericsError, match="parameter 'v' initialized with non-finite"):
            tz.Parameter("v", [1.0, bad])
        with pytest.raises(NumericsError, match="constant input contains non-finite"):
            tz.Tape().constant([bad, 1.0])

    def test_assign_of_another_shape_is_shape_error(self):
        p = tz.Parameter("w", np.zeros(3))
        with pytest.raises(ShapeError, match=r"parameter 'w' has shape \(3,\)"):
            p.assign(np.ones(4))
        assert p.value.tolist() == [0.0, 0.0, 0.0]


# every recording op, called on inputs of valid shapes that make(shape) gives
_OP_CALLS = {
    "mul": lambda make: tz.mul(make((2, 3)), make((2, 3))),
    "dense": lambda make: tz.dense(make((2, 3)), make((4, 3)), make((4,)), "relu"),
    "bmatmul": lambda make: tz.bmatmul(make((2, 2, 3)), make((2, 3, 4))),
    "concat": lambda make: tz.concat([make((2, 3)), make((2, 1))]),
    "mean_axis": lambda make: tz.mean_axis(make((2, 3)), -1),
    "mean_all": lambda make: tz.mean_all(make((2, 3))),
    "tanh": lambda make: tz.tanh(make((2, 3))),
    "embedding_lookup": lambda make: tz.embedding_lookup(np.array([0, 2]), make((4, 3))),
    "conv1d": lambda make: tz.conv1d(make((5, 3)), make((2, 2, 3)), make((2,))),
    "maxpool1d": lambda make: tz.maxpool1d(make((4, 3)), 2),
    "global_maxpool": lambda make: tz.global_maxpool(make((4, 3))),
    "embedding_conv_max": lambda make: tz.embedding_conv_max(
        np.arange(4), make((4, 2)), make((2, 1, 2)), make((1,)), [2], np.array([2, 2])),
    "softmax": lambda make: tz.softmax(make((2, 3))),
    "cross_entropy": lambda make: tz.cross_entropy(make((2, 3)), np.array([0, 2])),
    "softmax_cross_entropy": lambda make: tz.softmax_cross_entropy(make((2, 3)),
                                                                   np.array([0, 2])),
    "dropout": lambda make: tz.dropout(make((2, 3)), 0.5, True, np.random.default_rng(0)),
    "additive_pair_scores": lambda make: tz.additive_pair_scores(
        make((2, 3, 4)), make((2, 3, 4)), make((4,)), make((4,))),
    "bigru": lambda make: tz.bigru(make((1, 3, 2)), *(make(s) for s in tz.gru_shapes(2, 2))),
}

# each op's shape and input checks: a call _OP_CALLS makes, changed so
# that the op must refuse it, the error and the start of its message
_BAD_CALLS = {
    "mul-string": (lambda make: tz.mul(make((2, 3)), "x"), UsageError,
                   "expected Tensor or Parameter, got str"),
    "bmatmul-ranks": (lambda make: tz.bmatmul(make((2, 3)), make((2, 3, 4))), ShapeError,
                      "bmatmul: ranks 2 and 3"),
    "bmatmul-shapes": (lambda make: tz.bmatmul(make((2, 2, 3)), make((2, 2, 4))), ShapeError,
                       "bmatmul: shapes (2, 2, 3) and (2, 2, 4)"),
    "concat": (lambda make: tz.concat([make((2, 3)), make((3, 1))]), ShapeError,
               "concat: shape (3, 1) incompatible"),
    "mean_axis-empty": (lambda make: tz.mean_axis(make((2, 0)), -1), ShapeError,
                        "mean_axis over empty axis"),
    "mean_all-empty": (lambda make: tz.mean_all(make((0, 3))), ShapeError,
                       "mean_all of empty tensor"),
    "embedding_lookup-table-rank": (
        lambda make: tz.embedding_lookup(np.array([0, 2]), make((4,))), ShapeError,
        "embedding table must be 2-D"),
    "embedding_lookup-float-ids": (
        lambda make: tz.embedding_lookup(np.array([0.0, 2.0]), make((4, 3))), ShapeError,
        "ids must be integers"),
    "conv1d-ranks": (lambda make: tz.conv1d(make((5,)), make((2, 2, 3)), make((2,))),
                     ShapeError, "conv1d: expected x (L,D)"),
    "conv1d-dims": (lambda make: tz.conv1d(make((5, 3)), make((2, 2, 4)), make((2,))),
                    ShapeError, "conv1d: filters (2, 2, 4)"),
    "maxpool1d-rank": (lambda make: tz.maxpool1d(make((4,)), 2), ShapeError,
                       "maxpool1d: expected (L, K)"),
    "maxpool1d-pool": (lambda make: tz.maxpool1d(make((4, 3)), 0), ShapeError,
                       "maxpool1d: pool size must be >= 1"),
    "global_maxpool-empty": (lambda make: tz.global_maxpool(make((0, 3))), ShapeError,
                             "global_maxpool: expected non-empty"),
    "cross_entropy-one-class": (lambda make: tz.cross_entropy(make((2, 1)), np.array([0, 0])),
                                ShapeError, "cross_entropy: need at least 2 classes"),
    "dropout-no-rng": (lambda make: tz.dropout(make((2, 3)), 0.5, True, None), ShapeError,
                       "dropout in training mode requires an rng"),
    "additive_pair_scores": (lambda make: tz.additive_pair_scores(
        make((2, 3, 4)), make((2, 3, 4)), make((3,)), make((4,))), ShapeError,
        "additive_pair_scores: got a (2, 3, 4)"),
    "bigru-no-steps": (lambda make: tz.bigru(make((0, 2)),
                                             *(make(s) for s in tz.gru_shapes(2, 2))),
                       ShapeError, "bigru: expected (..., N, F) with N >= 1"),
}


class TestTapeMechanics:
    def test_second_backward_raises(self):
        tape = tz.Tape()
        w = tz.Parameter("w", np.array([2.0]))
        loss = tz.mean_all(tape.read(w))
        tz.backward(tape, loss)
        with pytest.raises(UsageError):
            tz.backward(tape, loss)

    def test_constant_loss_leaves_zero_gradients(self):
        tape = tz.Tape()
        w = tz.Parameter("w", np.array([2.0, 3.0]))
        tape.read(w)  # on the tape but unused by the loss
        loss = tz.mean_all(tape.constant(np.array([1.0])))
        tz.backward(tape, loss)
        assert np.all(w.grad == 0.0)

    def test_dense_matmul_gradient_analytic(self):
        # loss = sum(Wx): dW = x broadcast to each row
        w = tz.Parameter("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        tape = tz.Tape()
        x = tape.constant(np.array([5.0, 7.0]))
        out = tz.dense(x, w)
        loss = tz.mul(tz.mean_all(out), tape.constant(out.value.size))
        tz.backward(tape, loss)
        assert w.grad.tolist() == [[5.0, 7.0], [5.0, 7.0]]

    def test_first_gradient_is_copied_from_the_vjp(self):
        # _add's VJP returns one array for both inputs; adopting it as the
        # inner sum's gradient would let u's later accumulation change the
        # inner sum's, and so v's, as well
        a, b = tz.Parameter("a", np.array([1.0, 2.0])), tz.Parameter("b", np.array([3.0, 4.0]))
        tape = tz.Tape()
        ones = tape.constant(np.ones(2))
        u, v = tz.mul(tape.read(a), ones), tz.mul(tape.read(b), ones)
        loss = tz.mean_all(_add(_add(u, v), u))
        tz.backward(tape, loss)
        assert a.grad.tolist() == [1.0, 1.0]
        assert b.grad.tolist() == [0.5, 0.5]

    def test_first_gradient_of_negative_zero_is_positive_zero(self):
        # mul by zero after mul by -1 sends w a gradient of -0.0
        tape = tz.Tape()
        w = tz.Parameter("w", np.array([1.0, 2.0]))
        zero = tape.constant(np.zeros(2))
        tz.backward(tape, tz.mean_all(tz.mul(tz.mul(tape.read(w), zero),
                                             tape.constant(np.full(2, -1.0)))))
        assert w.grad.tolist() == [0.0, 0.0]
        assert not np.signbit(w.grad).any()

    def test_a_read_parameter_as_the_loss_gets_one(self):
        w = tz.Parameter("w", np.array(2.0))
        w.grad[...] = 0.25
        tape = tz.Tape()
        tz.backward(tape, tape.read(w))
        assert w.grad.tolist() == 1.25

    def test_leaves_hold_no_gradient(self):
        # a read twice, through one mul: its two gradients go into a.grad
        a = tz.Parameter("a", np.array([1.0, 2.0]))
        tape = tz.Tape()
        leaf = tape.read(a)
        tz.backward(tape, tz.mean_all(tz.mul(leaf, leaf)))
        assert a.grad.tolist() == [1.0, 2.0]
        assert all(read.grad is None for read in tape._reads.values())

    def test_shape_safety_no_silent_broadcast(self):
        tape = tz.Tape()
        a = tape.constant(np.ones((2, 3)))
        b = tape.constant(np.ones((2, 1)))
        with pytest.raises(ShapeError):
            tz.mul(a, b)

    def test_mixed_tapes_rejected(self):
        t1, t2 = tz.Tape(), tz.Tape()
        with pytest.raises(UsageError):
            tz.mul(t1.constant(np.ones(2)), t2.constant(np.ones(2)))

    def test_dropped_tape_is_freed_without_the_cycle_collector(self):
        w = tz.Parameter("w", np.ones((3, 3)))
        tape = tz.Tape()
        out = tz.dense(tape.constant(np.ones((2, 3))), w)
        tz.backward(tape, tz.mean_all(out))
        alive = weakref.ref(tape)
        gc.disable()
        try:
            del tape
            assert alive() is None
        finally:
            gc.enable()
        with pytest.raises(UsageError):
            tz.tanh(out)

    @pytest.mark.parametrize("op", sorted(_OP_CALLS))
    @pytest.mark.parametrize("kind", ["parameter", "array"])
    def test_ops_without_a_tape_tensor_are_usage_errors(self, op, kind):
        # every input that would be a Tensor is a Parameter, or a plain array
        rng = np.random.default_rng(80)
        tape = tz.Tape()
        _OP_CALLS[op](lambda shape: tape.read(tz.Parameter("p", rng.uniform(0.1, 1.0, shape))))
        recorded = len(tape)
        assert recorded == 1  # the shapes are valid

        def make(shape):
            value = rng.uniform(0.1, 1.0, size=shape)
            return tz.Parameter("p", value) if kind == "parameter" else value

        with pytest.raises(UsageError):
            _OP_CALLS[op](make)
        assert len(tape) == recorded

    @pytest.mark.parametrize("case", sorted(_BAD_CALLS))
    def test_bad_inputs_raise_before_recording(self, case):
        call, error, message = _BAD_CALLS[case]
        rng = np.random.default_rng(82)
        tape = tz.Tape()
        with pytest.raises(error) as info:
            call(lambda shape: tape.constant(rng.uniform(0.1, 1.0, shape)))
        assert str(info.value).startswith(message)
        assert len(tape) == 0

    @pytest.mark.parametrize("case", ["foreign-loss", "vector-loss"])
    def test_backward_needs_a_scalar_loss_of_its_tape(self, case):
        w = tz.Parameter("w", np.array([2.0, 3.0]))
        tape, other = tz.Tape(), tz.Tape()
        read = tape.read(w)
        loss = tz.mean_all(other.read(w)) if case == "foreign-loss" else tz.mul(read, read)
        message = "loss was not produced" if case == "foreign-loss" else "loss must be scalar"
        with pytest.raises(UsageError, match=message):
            tz.backward(tape, loss)
        assert np.all(w.grad == 0.0)

    def test_the_op_table_names_every_recording_op(self):
        # so every op is held to the input-binding checks above
        recorded = []
        for path in sorted(Path(engine.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record":
                    op = node.args[-1]
                    assert isinstance(op, ast.Constant) and isinstance(op.value, str), path.name
                    recorded.append(op.value)
        assert sorted(recorded) == sorted(_OP_CALLS)

    @pytest.mark.parametrize("case", ["concat", "conv1d", "additive_pair_scores", "mul"])
    def test_a_parameter_reads_onto_the_tape_in_any_position(self, case):
        # a Parameter, wherever it stands, gives the bits of its tape.read
        got = []
        for bind in (False, True):
            rng = np.random.default_rng(81)
            params = {name: tz.Parameter(name, rng.normal(size=shape)) for name, shape in {
                "concat": [("a", (2, 3)), ("b", (2, 1))],
                "conv1d": [("x", (5, 3)), ("filters", (2, 2, 3)), ("bias", (2,))],
                "additive_pair_scores": [("a", (2, 3, 4)), ("b", (2, 3, 4)), ("bias", (4,)),
                                         ("v", (4,))],
                "mul": [("a", (2, 3)), ("b", (2, 3))],
            }[case]}
            tape = tz.Tape()
            read = {name: tape.read(p) if bind else p for name, p in params.items()}
            if case == "concat":
                out = tz.concat([read["a"], tape.read(params["b"])])
            elif case == "conv1d":
                out = tz.conv1d(read["x"], tape.read(params["filters"]), read["bias"])
            elif case == "additive_pair_scores":
                out = tz.additive_pair_scores(read["a"], tape.read(params["b"]), read["bias"],
                                              read["v"])
            else:
                out = tz.mul(read["a"], tape.constant(params["b"].value))
            weights = tape.constant(rng.normal(size=out.shape))
            tz.backward(tape, tz.mean_all(tz.mul(out, weights)))
            got.append([out.value.tobytes()] + [p.grad.tobytes() for p in params.values()])
        assert got[0] == got[1]

    @pytest.mark.parametrize("call", [
        lambda x: tz.mean_axis(x, 3),
        lambda x: tz.mean_axis(x, -3),
        lambda x: tz.concat([x, x.tape.constant(np.ones((2, 1)))], axis=5),
        lambda x: tz.mean_axis(x.tape.constant(2.0), 0),
    ], ids=["mean_axis-3", "mean_axis-minus-3", "concat-5", "mean_axis-of-a-scalar"])
    def test_an_axis_out_of_range_is_shape_error(self, call):
        # numpy's .mean(axis=3) raises too; axis % ndim would wrap it, or
        # divide by zero on a scalar
        tape = tz.Tape()
        x = tape.constant(np.arange(6.0).reshape(2, 3))
        with pytest.raises(ShapeError, match=r"axis -?\d is out of range for rank [02]"):
            call(x)
        assert len(tape) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_softmax_rows_sum_to_one(self, n, seed):
        rng = np.random.default_rng(seed)
        tape = tz.Tape()
        out = tz.softmax(tape.constant(rng.normal(scale=5.0, size=(n, n))))
        assert np.all(out.value > 0.0)
        assert np.max(np.abs(out.value.sum(axis=-1) - 1.0)) < 1e-12


def _three_ops(xv, wv, bv, act, g):
    """The output and the x, w and b gradients of the linear -> add_bias ->
    activation ops that dense replaced, as they computed them, with the
    +0.0 that backward added to each gradient between two of them."""
    v = xv @ wv.T
    if bv is not None:
        v = v + bv
    neg = v <= 0.0
    ev = np.exp(np.minimum(v, 0.0))
    lam, alpha = engine.SELU_LAMBDA, engine.SELU_ALPHA
    out, slope = {
        "relu": lambda: (np.maximum(v, 0.0), v > 0.0),
        "tanh": lambda: (np.tanh(v), None),
        "elu": lambda: (np.where(neg, ev - 1.0, v), np.where(neg, ev, 1.0)),
        "selu": lambda: (lam * np.where(neg, alpha * (ev - 1.0), v),
                         lam * np.where(neg, alpha * ev, 1.0)),
        "identity": lambda: (v, None),
    }[act]()
    if act == "tanh":
        g = g * (1.0 - out * out) + 0.0
    elif act != "identity":
        g = g * slope + 0.0
    gb = None
    if bv is not None:
        axes = tuple(range(g.ndim - 1))
        gb = g.sum(axis=axes) if axes else g.copy()
        g = g + 0.0
    gx = g @ wv
    gw = g.reshape(-1, wv.shape[0]).T @ xv.reshape(-1, wv.shape[1])
    return out, gx, gw, gb


class TestEngineImports:
    def test_the_engine_imports_only_errors_and_atomic_from_the_application(self):
        # read from the source: fakeflow/__init__ imports every module, so
        # sys.modules cannot show what the engine itself imports
        allowed = {"fakeflow.errors", "fakeflow.atomic"}
        for path in sorted(Path(engine.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = ".".join(["fakeflow", "tensor"][:3 - node.level]) if node.level else ""
                    module = ".".join(filter(None, [base, node.module]))
                    targets = ([f"{module}.{alias.name}" for alias in node.names]
                               if node.module is None else [module])
                else:
                    continue
                for target in targets:
                    inside = target == "fakeflow" or target.startswith("fakeflow.")
                    assert (not inside or target in allowed
                            or target.startswith("fakeflow.tensor.")), (path.name, target)


class TestDenseOp:
    @pytest.mark.parametrize("act", sorted(tz.ACTIVATIONS))
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["1d", "2d", "3d"])
    def test_bytes_equal_the_three_ops_it_replaced(self, act, bias, lead):
        rng = np.random.default_rng(90)
        xp = tz.Parameter("x", rng.normal(size=lead + (6,)))
        w = tz.Parameter("w", rng.normal(size=(4, 6)))
        b = tz.Parameter("b", rng.normal(size=4)) if bias else None
        weights = rng.normal(size=lead + (4,))
        weights.reshape(-1)[::3] = 0.0  # gradients of exactly zero, and of -0.0
        weights.reshape(-1)[1::5] *= -0.0
        tape = tz.Tape()
        out = tz.dense(tape.read(xp), w, b, act)
        assert len(tape) == 1
        tz.backward(tape, tz.mean_all(tz.mul(out, tape.constant(weights))))
        g = (np.full(weights.shape, 1.0 / weights.size) + 0.0) * weights + 0.0
        want = _three_ops(xp.value, w.value, None if b is None else b.value, act, g)
        got = [out.value, xp.grad, w.grad, None if b is None else b.grad]
        for name, a, r in zip(["out", "gx", "gw", "gb"], got, want):
            if r is not None:  # a gradient that reaches a Parameter lands on +0.0
                r = r if name == "out" else 0.0 + r
                assert a.tobytes() == r.tobytes(), name
        inference = tz.Tape(records=False)
        assert tz.dense(inference.read(xp), w, b, act).value.tobytes() == out.value.tobytes()

    @pytest.mark.parametrize("act", ["tanh", "relu", "elu"])
    def test_an_overflowing_pre_activation_is_numerics_error(self, act):
        # the activation alone would hide it: -1, 0 and -1 at -inf
        tape = tz.Tape()
        x = tape.constant(np.full((2, 3), 1e300))
        w = tz.Parameter("w", np.full((4, 3), -1e300))
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="op 'dense'"):
            tz.dense(x, w, tz.Parameter("b", np.zeros(4)), act)
        assert len(tape) == 0

    @pytest.mark.parametrize("x, w, b", [
        ((2, 3), (4, 2), None), ((2, 3), (4, 3, 1), None), ((2, 3), (4, 3), (3,)),
        ((2, 3), (4, 3), (4, 1)), ((), (4, 3), None),
    ], ids=["inner", "weight-rank", "bias-length", "bias-rank", "scalar-x"])
    def test_mismatched_shapes_are_shape_errors(self, x, w, b):
        tape = tz.Tape()
        with pytest.raises(ShapeError, match="dense: "):
            tz.dense(tape.constant(np.ones(x)), tz.Parameter("w", np.ones(w)),
                     None if b is None else tz.Parameter("b", np.ones(b)), "relu")
        assert len(tape) == 0

    def test_an_unknown_activation_is_usage_error(self):
        tape = tz.Tape()
        with pytest.raises(UsageError, match="unknown activation 'swish'; choose from"):
            tz.dense(tape.constant(np.ones((2, 3))), tz.Parameter("w", np.ones((4, 3))),
                     act="swish")
        assert len(tape) == 0


def _relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _vjp_of_last_op(tape, g):
    return tape._entries[-1][2](g)


class TestConv1dReference:
    """conv1d values and all three VJP outputs against a per-window loop."""

    @staticmethod
    def naive(x, filters, bias, g):
        n_filters, width, _ = filters.shape
        steps = len(x) - width + 1
        out = np.zeros((steps, n_filters))
        gx, gf = np.zeros_like(x), np.zeros_like(filters)
        for t in range(steps):
            window = x[t : t + width]
            for k in range(n_filters):
                out[t, k] = bias[k] + np.sum(window * filters[k])
                gf[k] += g[t, k] * window
                gx[t : t + width] += g[t, k] * filters[k]
        return out, gx, gf, g.sum(axis=0)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("extra", [0, 1, None])
    def test_matches_per_window_loop(self, width, extra):
        rng = np.random.default_rng(100 + width)
        length = 37 if extra is None else width + extra
        x = rng.normal(size=(length, 6))
        filters = tz.Parameter("f", rng.normal(size=(4, width, 6)))
        bias = tz.Parameter("b", rng.normal(size=4))
        tape = tz.Tape()
        out = tz.conv1d(tape.constant(x), filters, bias)
        g = rng.normal(size=out.value.shape)
        want = self.naive(x, filters.value, bias.value, g)
        got = (out.value,) + tuple(_vjp_of_last_op(tape, g))
        for name, a, b in zip(("out", "gx", "gf", "gb"), got, want):
            assert a.shape == b.shape and a.dtype == np.float64, name
            assert _relative_error(a, b) < 1e-12, name


def _topic_chain(tape, ids, table, filters, biases, lengths, pool):
    """The composite embedding_conv_max replaces, segment by segment: one
    embedding_lookup, then per filter width conv1d, maxpool1d(pool) and
    global_maxpool (zeros where the segment is shorter than the width),
    every segment's pieces joined by one concat into a flat vector."""
    leaf = tape.read(table)
    starts = np.cumsum(lengths) - lengths.ravel()  # the segments tile the ids
    pieces = []
    for start, length in zip(starts, lengths.ravel()):
        emb = tz.embedding_lookup(ids[start : start + length], leaf)
        for f, b in zip(filters, biases):
            n_filters, width, _ = f.shape
            if length >= width:
                pieces.append(tz.global_maxpool(tz.maxpool1d(tz.conv1d(emb, f, b), pool)))
            else:
                pieces.append(tape.constant(np.zeros(n_filters)))
    return tz.concat(pieces, axis=0)


def _stack(filters, biases):
    """The taps (sum_j w_j, K, D) and bias (n * K,) arrays embedding_conv_max
    takes for per-width (K, w_j, D) filter banks and (K,) biases."""
    return (np.concatenate([f.transpose(1, 0, 2) for f in filters]),
            np.concatenate(biases))


def _stacked_params(filters, biases):
    """The taps and bias Parameters stacked from per-width filter and bias
    Parameters, and the widths."""
    taps, bias = _stack([f.value for f in filters], [b.value for b in biases])
    return tz.Parameter("taps", taps), tz.Parameter("bias", bias), [f.shape[1] for f in filters]


class TestEmbeddingConvMaxReference:
    """embedding_conv_max against the per-segment embedding_lookup ->
    conv1d -> maxpool1d -> global_maxpool chain at pool sizes 1 to 3 (a max
    of window maxes is the max): values and every gradient, the chain's
    per-width filter and bias gradients stacked as the op's."""

    @staticmethod
    def run(fused, ids, table, filters, biases, lengths, weights, pool=1):
        taps, bias, widths = _stacked_params(filters, biases)
        params = [table, taps, bias] if fused else [table] + filters + biases
        for p in params:
            p.zero_grad()
        tape = tz.Tape()
        if fused:
            out = tz.embedding_conv_max(ids, tape.read(table), taps, bias, widths, lengths)
        else:
            out = _topic_chain(tape, ids, table, filters, biases, lengths, pool)
            weights = weights.reshape(-1)
        tz.backward(tape, tz.mean_all(tz.mul(out, tape.constant(weights))))
        grads = [p.grad.copy() for p in params]
        if not fused:
            grads[1:] = _stack(grads[1 : 1 + len(filters)], grads[1 + len(filters) :])
        return [out.value.reshape(lengths.shape + (-1,))] + grads

    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_float_inputs_within_1e_12(self, pool):
        rng = np.random.default_rng(60)
        # empty, shorter than every width, between the widths, longer
        lengths = np.array([[0, 1, 2, 7], [5, 12, 4, 3]])
        ids = rng.integers(0, 9, size=int(lengths.sum()))  # 9 ids: many repeats
        table = tz.Parameter("table", rng.normal(size=(9, 6)))
        filters = [tz.Parameter(f"f{w}", rng.normal(size=(3, w, 6))) for w in (3, 4, 5)]
        biases = [tz.Parameter(f"b{w}", rng.normal(size=3)) for w in (3, 4, 5)]
        weights = rng.normal(size=lengths.shape + (9,))
        args = (ids, table, filters, biases, lengths, weights)
        want = self.run(False, *args, pool)
        got = self.run(True, *args)
        for name, a, b in zip(["out", "table", "taps", "bias"], got, want):
            assert a.shape == b.shape and a.dtype == np.float64, name
            assert _relative_error(a, b) < 1e-12, name

        # a frozen table: the same values and filter and bias gradients,
        # and no table gradient
        table.zero_grad()
        taps, bias, widths = _stacked_params(filters, biases)
        tape = tz.Tape()
        out = tz.embedding_conv_max(ids, table.value, tape.read(taps), bias, widths, lengths)
        tz.backward(tape, tz.mean_all(tz.mul(out, tape.constant(weights))))
        assert np.array_equal(out.value, got[0])
        assert np.array_equal(taps.grad, got[2]) and np.array_equal(bias.grad, got[3])
        assert not table.grad.any() and len(tape._reads) == 2

    @pytest.mark.parametrize("pool", [1, 2, 3])
    @pytest.mark.parametrize("lengths", [
        [[0, 1, 2, 3], [5, 8, 3, 11]],  # empty, shorter than each width, longer
        [[0, 2], [1, 0]],  # three ids: shorter than the widest filter
        [[0, 0], [0, 0]],  # no ids at all
    ], ids=["segments", "short-batch", "empty-batch"])
    def test_integer_inputs_bit_exact(self, lengths, pool):
        rng = np.random.default_rng(61)
        lengths = np.array(lengths)
        # three levels of integer values: many exact ties, and sums that are
        # exact in any order; 5 ids, so most repeat
        ids = rng.integers(0, 5, size=int(lengths.sum()))
        table = tz.Parameter("table", rng.integers(-1, 2, size=(5, 3)))
        widths = (2, 3, 4, 5)
        filters = [tz.Parameter(f"f{w}", rng.integers(-1, 2, size=(2, w, 3))) for w in widths]
        biases = [tz.Parameter(f"b{w}", rng.integers(-1, 2, size=2)) for w in widths]
        # integer weights over 32 or 64 outputs: every gradient is exact
        weights = rng.integers(-3, 4, size=lengths.shape + (8,)).astype(float)
        args = (ids, table, filters, biases, lengths, weights)
        want = self.run(False, *args, pool)
        got = self.run(True, *args)
        for name, a, b in zip(["out", "table", "taps", "bias"], got, want):
            assert a.shape == b.shape and np.array_equal(a, b), name

    def test_bad_inputs_raise(self):
        table = tz.Parameter("table", np.zeros((4, 2)))
        taps, bias = tz.Parameter("taps", np.zeros((2, 1, 2))), tz.Parameter("bias", np.zeros(1))
        tape = tz.Tape()
        leaf = tape.read(table)
        ids, lengths = np.array([0, 1, 2, 3]), np.array([2, 2])
        with pytest.raises(ShapeError, match="token id out of range"):
            tz.embedding_conv_max(np.array([0, 1, 2, 4]), leaf, taps, bias, [2], lengths)
        with pytest.raises(ShapeError):
            tz.embedding_conv_max(ids[:3], leaf, taps, bias, [2], lengths)
        for bad_taps, bad_bias, widths in [
            (tz.Parameter("t", np.zeros((2, 1, 3))), bias, [2]),  # taps over another dim
            (taps, tz.Parameter("b", np.zeros(2)), [2]),  # one bias too many
            (taps, bias, [3]),  # taps for a width of 2
            (taps, bias, [1, 1]),  # two widths, one filter each: two biases
            (taps, bias, []),
            (tz.Parameter("t", np.zeros((2, 2))), bias, [2]),  # taps not (sum w, K, D)
        ]:
            with pytest.raises(ShapeError):
                tz.embedding_conv_max(ids, leaf, bad_taps, bad_bias, widths, lengths)
        with pytest.raises(UsageError):
            tz.embedding_conv_max(ids, table.value, taps, bias, [2], lengths)

    @pytest.mark.parametrize("lengths", [
        [5, -1],  # a negative length
        [2, 3],  # more ids than there are
        [1, 2],  # fewer
        [2.0, 2.0],  # not integers
        3,  # one segment of another count
    ])
    def test_rejects_lengths_that_do_not_tile_the_ids(self, lengths):
        tape = tz.Tape()
        taps, bias = tz.Parameter("taps", np.zeros((2, 1, 2))), tz.Parameter("bias", np.zeros(1))
        with pytest.raises(ShapeError):
            tz.embedding_conv_max(np.arange(4), tape.read(tz.Parameter("table", np.zeros((4, 2)))),
                                  taps, bias, [2], np.array(lengths))


def _with_dense_table_gradient(tape):
    """Make each embedding_conv_max on `tape` hand its table the dense
    (V, D) gradient it built before row gradients: zeros, then its rows."""
    for i, (out, inputs, vjp) in enumerate(tape._entries):
        def dense(g, vjp=vjp, value=inputs[0].value):
            grads = list(vjp(g))
            if isinstance(grads[0], tz.RowGradient):
                full = np.zeros_like(value)
                full[grads[0].index] = grads[0].rows
                grads[0] = full
            return grads
        tape._entries[i] = (out, inputs, dense)


class TestTableRowGradient:
    """embedding_conv_max hands the table its U rows; param.grad must hold
    the bytes the dense (V, D) gradient gave."""

    @staticmethod
    def batch(rng, vocab=40, dim=5):
        lengths = np.array([[0, 3, 7, 1], [6, 2, 9, 4]])
        ids = rng.integers(1, vocab // 2, size=int(lengths.sum()))  # rows past V/2 get no gradient
        table = tz.Parameter("table", rng.normal(size=(vocab, dim)))
        taps = tz.Parameter("taps", rng.normal(size=(5, 3, dim)))  # widths 2 and 3
        bias = tz.Parameter("bias", rng.normal(size=6))
        weights = rng.normal(size=lengths.shape + (6,))
        weights[0, :2] = -0.0
        return ids, lengths, table, taps, bias, weights

    @staticmethod
    def loss(tape, uses, ids, lengths, table, taps, bias, weights):
        terms = []
        for use in uses:
            if use == "lookup":
                terms.append(tz.mean_all(tz.embedding_lookup(ids[:7], tape.read(table))))
            else:
                out = tz.embedding_conv_max(ids, tape.read(table), taps, bias, (2, 3), lengths)
                terms.append(tz.mean_all(tz.mul(out, tape.constant(weights))))
        total = terms[0]
        for term in terms[1:]:
            total = _add(total, term)
        return total

    # index-added one row, two rows and every row at a time
    @pytest.mark.parametrize("row_cells", [5, 10, engine.ROW_CELLS])
    @pytest.mark.parametrize("uses", [
        ("conv",), ("lookup", "conv"), ("conv", "lookup"), ("conv", "conv"),
        ("lookup", "conv", "lookup"),
    ])
    def test_param_grad_bytes_equal_the_dense_path(self, uses, row_cells):
        got, want = [], []
        for dense, grads in ((False, got), (True, want)):
            args = self.batch(np.random.default_rng(70))
            params = args[2:5]
            for _ in range(2):  # the second pass accumulates without zero_grad
                tape = tz.Tape()
                loss = self.loss(tape, uses, *args)
                if dense:
                    _with_dense_table_gradient(tape)
                with mock.patch.object(engine, "ROW_CELLS", row_cells):
                    tz.backward(tape, loss)
                grads.append([p.grad.tobytes() for p in params])
        assert got == want
        table_grad = np.frombuffer(got[0][0]).reshape(40, 5)
        assert not table_grad[20:].any() and not np.signbit(table_grad[table_grad == 0]).any()

    def test_a_table_read_only_by_the_op_gets_rows(self):
        ids, lengths, table, taps, bias, weights = self.batch(np.random.default_rng(71))
        tape = tz.Tape()
        leaf = tape.read(table)
        loss = self.loss(tape, ("conv",), ids, lengths, table, taps, bias, weights)
        out, inputs, vjp = tape._entries[0]
        handed = []

        def recorded(g):
            handed.append(vjp(g))
            return handed[-1]

        tape._entries[0] = (out, inputs, recorded)
        tz.backward(tape, loss)
        rows = handed[0][0]
        assert isinstance(rows, tz.RowGradient)
        assert rows.index.tolist() == np.unique(ids).tolist()
        assert rows.rows.shape == (len(np.unique(ids)), 5)
        # used up at the leaf: its rows are the table's whole gradient
        want = np.zeros_like(table.value)
        want[rows.index] = rows.rows
        assert leaf.grad is None and table.grad.tobytes() == want.tobytes()

    def test_an_op_output_table_is_usage_error(self):
        # a RowGradient is index-added only at a Parameter's leaf
        ids, lengths, table, taps, bias, _ = self.batch(np.random.default_rng(74))
        tape = tz.Tape()
        scaled = tz.mul(tape.read(table), tape.constant(np.full(table.shape, 0.5)))
        recorded = len(tape)
        with pytest.raises(UsageError, match="not an op output"):
            tz.embedding_conv_max(ids, scaled, taps, bias, (2, 3), lengths)
        assert len(tape) == recorded

    def test_documents_get_the_bits_of_their_own_call(self):
        # each document's output rows are the same alone and in a batch
        rng = np.random.default_rng(72)
        table = rng.normal(size=(300, 8))
        taps = tz.Parameter("taps", rng.normal(size=(12, 4, 8)))  # widths 3, 4 and 5
        bias = tz.Parameter("bias", rng.normal(size=12))
        sizes = rng.integers(0, 60, size=32)
        docs = [rng.integers(0, 300, size=n) for n in sizes]
        offsets = [np.minimum(np.arange(11) * -(-n // 10), n) for n in sizes]

        def call(ids, offsets):
            tape = tz.Tape()
            return tz.embedding_conv_max(ids, table, tape.read(taps), bias, (3, 4, 5),
                                         np.diff(offsets, axis=-1)).value

        batch = call(np.concatenate(docs), np.stack(offsets))
        for i, (ids, doc_offsets) in enumerate(zip(docs, offsets)):
            assert batch[i].tobytes() == call(ids, doc_offsets).tobytes(), i

    def test_backward_allocates_less_than_one_table(self):
        rng = np.random.default_rng(73)
        table = tz.Parameter("table", rng.normal(size=(20_000, 64)))  # 10 MB
        taps = tz.Parameter("taps", rng.normal(size=(12, 16, 64)))  # widths 3, 4 and 5
        bias = tz.Parameter("bias", np.zeros(48))
        ids = rng.integers(0, 20_000, size=3_000)
        lengths = np.full(10, 300)
        tape = tz.Tape()
        out = tz.embedding_conv_max(ids, tape.read(table), taps, bias, (3, 4, 5), lengths)
        loss = tz.mean_all(tz.mul(out, tape.constant(rng.normal(size=out.shape))))
        tracemalloc.start()
        try:
            tz.backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.value.nbytes, peak
        assert table.grad.any()


def _conv_case(seed, count, widths, lengths, dim=5, vocab=11):
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    ids = rng.integers(0, vocab, size=int(lengths.sum()))
    table = tz.Parameter("table", rng.normal(size=(vocab, dim)))
    taps = tz.Parameter("taps", rng.normal(size=(sum(widths), count, dim)))
    bias = tz.Parameter("bias", rng.normal(size=count * len(widths)))
    g = rng.normal(size=(len(lengths), count * len(widths)))
    return ids, table, taps, bias, widths, lengths, g


def _conv_bytes(ids, table, taps, bias, widths, lengths, g):
    """The output on both tapes and every gradient the VJP hands back: the
    table's RowGradient rows and index, then the taps' and bias'."""
    tape = tz.Tape()
    out = tz.embedding_conv_max(ids, tape.read(table), tape.read(taps), tape.read(bias), widths,
                                lengths)
    row_grad, *grads = _vjp_of_last_op(tape, g)
    quiet_tape = tz.Tape(records=False)
    quiet = tz.embedding_conv_max(ids, quiet_tape.read(table), taps, bias, widths, lengths)
    return ([out.value.tobytes(), quiet.value.tobytes(), row_grad.index.tobytes(),
             row_grad.rows.tobytes()] + [a.tobytes() for a in grads])


class TestEmbeddingConvMaxBlocks:
    """embedding_conv_max's window stage, run in blocks of ROWS filter rows
    on the calling thread: the bits of one block at any block size."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 16]),
           st.sampled_from([(3, 4, 5), (2,), (4, 6), (1, 3), (2, 3, 4)]),
           st.lists(st.integers(0, 9), min_size=1, max_size=6))
    def test_bytes_equal_at_every_block_size(self, seed, count, widths, lengths):
        # lengths 0 and below every width: empty and too-short segments
        case = _conv_case(seed, count, widths, lengths)
        with mock.patch.object(tnn, "ROWS", count):
            want = _conv_bytes(*case)
        for rows in (1, 2, 3, 8):
            with mock.patch.object(tnn, "ROWS", rows):
                assert _conv_bytes(*case) == want, rows

    def test_concurrent_callers_get_their_own_bits(self):
        # more callers than CPUs, with the interpreter switching threads as
        # often as it can
        cases = [_conv_case(seed, (2, 3, 16)[seed % 3], (3, 4, 5), [40, 0, 2, 60, 25])
                 for seed in range(9)]
        want = [_conv_bytes(*case) for case in cases]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                got = list(callers.map(lambda case: _conv_bytes(*case), cases * 3))
        finally:
            sys.setswitchinterval(switch)
        assert got == want * 3

    @pytest.mark.parametrize("records", [True, False])
    def test_overflow_raises_in_blocks_of_one_row(self, records):
        # each row times a filter is finite; a window's two taps overflow
        table = tz.Parameter("table", np.full((3, 1), 1e308))
        taps, bias = tz.Parameter("taps", np.ones((2, 4, 1))), tz.Parameter("bias", np.zeros(4))
        tape = tz.Tape(records=records)
        with mock.patch.object(tnn, "ROWS", 1), np.errstate(over="ignore"), \
                pytest.raises(NumericsError, match="'embedding_conv_max'"):
            tz.embedding_conv_max(np.array([1, 2, 1]), tape.read(table), taps, bias, [2],
                                  np.array([3]))
        assert len(tape) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_the_parents_bits(self):
        case = _conv_case(81, 16, (3, 4, 5), [50, 7, 0, 33])
        want = _conv_bytes(*case)  # the parent's workspace holds every role
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: one more forward and VJP, then exit
            code = 1
            try:
                os.close(read)
                with os.fdopen(write, "wb") as fh:
                    fh.write(b"".join(_conv_bytes(*case)))
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        with os.fdopen(read, "rb") as fh:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                ended, status = os.waitpid(pid, os.WNOHANG)
                if ended:
                    break
                time.sleep(0.01)
            else:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its forward in 10 s")
            got = fh.read()
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == b"".join(want)


def _in_a_new_thread(fn):
    """fn() on a thread of its own, which starts with an empty workspace."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive() and result, "fn raised or hung on its thread"
    return result[0]


def _held():
    """The calling thread's workspace: each role's address and size."""
    return {role: (held.ctypes.data, held.nbytes) for role, held in tnn._workspace.held.items()}


class _TakeLog(tnn._Workspace):
    """A workspace that lists every array it hands out, with its role."""

    def __init__(self):
        super().__init__()
        self.log = []

    def take(self, role, shape, dtype=tnn.DTYPE):
        out = super().take(role, shape, dtype)
        self.log.append((role, out))
        return out


class TestEmbeddingConvMaxWorkspace:
    """embedding_conv_max's scratch comes from a per-thread workspace:
    kept between calls, never read by a VJP, one per thread."""

    def test_calls_reuse_every_role(self):
        big = _conv_case(90, 16, (3, 4, 5), [60, 0, 7, 45])
        small = _conv_case(91, 3, (2, 3), [9, 2])

        def run():
            seen = []
            for case in (big, big, big, small):
                _conv_bytes(*case)  # a recorded forward, its VJP, an unrecorded forward
                seen.append(_held())
            return seen

        first, second, third, after_small = _in_a_new_thread(run)
        assert set(first) == {"response", "windows", "spare", "hit"}
        assert third == second and after_small == second

    @pytest.mark.parametrize("larger_first", [False, True])
    def test_tapes_backpropagate_in_any_order(self, larger_first):
        # the later, larger call grows every role; a later, smaller one reuses them
        small = _conv_case(92, 3, (2, 3), [5, 9, 0])
        large = _conv_case(93, 16, (3, 4, 5), [40, 2, 60, 25])
        cases = (large, small) if larger_first else (small, large)

        def record(case):
            ids, table, taps, bias, widths, lengths, _ = case
            tape = tz.Tape()
            tz.embedding_conv_max(ids, tape.read(table), tape.read(taps), tape.read(bias),
                                  widths, lengths)
            return tape

        def grads(tape, case):
            row_grad, *rest = _vjp_of_last_op(tape, case[-1])
            return [row_grad.index.tobytes(), row_grad.rows.tobytes()] + [a.tobytes() for a in rest]

        def run():
            alone = [grads(record(case), case) for case in cases]
            tapes = [record(case) for case in cases]
            return alone, [grads(tape, case) for tape, case in zip(tapes, cases)]

        alone, interleaved = _in_a_new_thread(run)
        assert interleaved == alone

    def test_two_threads_keep_their_own_workspaces(self):
        cases = [_conv_case(94, 16, (3, 4, 5), [50, 3, 0, 41]), _conv_case(95, 3, (2,), [30, 1])]
        want = [_conv_bytes(*case) for case in cases]
        barrier = threading.Barrier(2)

        def run(case):
            got = []
            for _ in range(10):
                barrier.wait(timeout=60.0)  # both threads call at once
                got.append(_conv_bytes(*case))
            return got, _held()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as callers:
                (got_a, held_a), (got_b, held_b) = callers.map(run, cases)
        finally:
            sys.setswitchinterval(switch)
        assert got_a == [want[0]] * 10 and got_b == [want[1]] * 10
        spans = sorted((a, a + n) for a, n in [*held_a.values(), *held_b.values()])
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.sampled_from([5, 32, 300]),
           st.sampled_from([6, 48, 192]), st.integers(1, 4))
    def test_row_blocks_keep_the_products_bits(self, seed, n_types, dim, n_resp, blocks):
        # blocks below about 1,200 cells may take BLAS's small-matrix kernel
        rng = np.random.default_rng(seed)
        rows, w_all = rng.normal(size=(n_types, dim)), rng.normal(size=(n_resp, dim))
        cells = max(n_types * n_resp // blocks, 2048)
        checks = []
        with mock.patch.object(tnn, "R_CELLS", cells), \
                mock.patch.object(tnn, "_check_finite", lambda a, op: checks.append(a.shape)):
            got = tnn._response_table(rows, w_all)
        assert got.tobytes() == (rows @ w_all.T).T.tobytes()
        assert len(checks) == max(1, n_types * n_resp // cells)
        assert sum(rows for rows, _ in checks) == n_types

    @pytest.mark.parametrize("n_types, dim, n_resp", [(2000, 32, 192), (3000, 300, 192),
                                                      (20_000, 4, 36)])
    def test_default_row_blocks_keep_the_products_bits(self, n_types, dim, n_resp):
        # topic-v2k's and the paper's table widths, and many blocks of few columns
        rng = np.random.default_rng(n_types)
        rows, w_all = rng.normal(size=(n_types, dim)), rng.normal(size=(n_resp, dim))
        assert n_types * n_resp >= 4 * tnn.R_CELLS  # in four blocks or more
        got = tnn._response_table(rows, w_all)
        assert got.tobytes() == (rows @ w_all.T).T.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 16]),
           st.sampled_from([(3, 4, 5), (2,), (1, 3)]),
           st.lists(st.integers(0, 9), min_size=1, max_size=6),
           st.sampled_from(["random", "too short", "one type"]))
    def test_add_at_into_zeros_equals_bincount(self, seed, count, widths, lengths, kind):
        if kind == "too short":  # every segment shorter than every width
            lengths = [min(n, min(widths) - 1) for n in lengths]
        ids, table, taps, bias, widths, lengths, g = _conv_case(seed, count, widths, lengths)
        if kind == "one type":
            ids = np.full_like(ids, 7)
        log = _TakeLog()
        with mock.patch.object(tnn, "_workspace", log):
            tape = tz.Tape()
            tz.embedding_conv_max(ids, tape.read(table), taps, bias, widths, lengths)
            log.log.clear()
            _vjp_of_last_op(tape, g)
        # the VJP's last three takes: R's cells under the max windows, their
        # gradients and R's gradient
        (_, cells), (_, weights), (role, g_response) = log.log[-3:]
        assert role == "response" and cells.dtype == np.intp and weights.dtype == np.float64
        want = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=g_response.size)
        assert g_response.tobytes() == want.astype(np.float64).tobytes()
        if kind == "too short":
            assert not g_response.any()


def _pair_case(seed, lead, n, d):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=lead + (n, d)), rng.normal(size=lead + (n, d))
    bias, v = rng.normal(size=d), rng.normal(size=d)
    return a, b, bias, v, rng.normal(size=lead + (n, n))


def _pair_grads(a, b, bias, v, g):
    """additive_pair_scores' ga, gb, gbias and gv for output gradient g,
    from a tape that records the op, and the tape's VJP."""
    tape = tz.Tape()
    tz.additive_pair_scores(*(tape.constant(x) for x in (a, b, bias, v)))
    return tape, lambda: [x.tobytes() for x in _vjp_of_last_op(tape, g)]


class TestAdditivePairScoresVjp:
    """additive_pair_scores' VJP turns the forward's hidden array into
    1 - hidden^2 in place and takes its (..., N, N, d) product from the
    workspace: the bits of the expression it replaces, on tapes
    backpropagated in any order."""

    @staticmethod
    def reference(a, b, bias, v, g):
        hidden = a[..., :, None, :] + b[..., None, :, :]
        hidden += bias
        np.tanh(hidden, out=hidden)
        gh = g[..., None] * v * (1.0 - hidden * hidden)
        return [x.tobytes() for x in (
            gh.sum(axis=-2), gh.sum(axis=-3), gh.sum(axis=tuple(range(gh.ndim - 1))),
            np.einsum("...tu,...tud->d", g, hidden, optimize=True))]

    @pytest.mark.parametrize("lead", [(), (32,), (2, 3)])
    def test_gradients_equal_the_reference_bytes(self, lead):
        case = _pair_case(100, lead, 10, 32)
        _, grads = _pair_grads(*case)
        assert grads() == self.reference(*case)

    @pytest.mark.parametrize("larger_first", [False, True])
    def test_tapes_backpropagate_in_any_order(self, larger_first):
        # the later call grows the borrowed role; an embedding_conv_max
        # call in between writes every role
        cases = [_pair_case(101, (2,), 4, 3), _pair_case(102, (16,), 10, 32)]
        if larger_first:
            cases.reverse()

        def run():
            alone = [_pair_grads(*case)[1]() for case in cases]
            recorded = [_pair_grads(*case)[1] for case in cases]
            _conv_bytes(*_conv_case(103, 16, (3, 4, 5), [60, 0, 7, 45]))
            return alone, [grads() for grads in recorded]

        alone, interleaved = _in_a_new_thread(run)
        assert interleaved == alone


def _gru_params(rng, units, feat, scale=0.5):
    return bigru_params(lambda shape: rng.normal(size=shape) * scale, units, feat)


class TestBiGRUReference:
    """The fused bigru against a per-document, per-step GRU written from
    the textbook equations in plain numpy."""

    @staticmethod
    def naive(x, params):
        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        units = params[3].shape[-1]

        def run(seq, direction, reverse):
            p = dict(zip(("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"),
                         gru_gates(params, direction)))
            h = np.zeros(units)
            states = np.zeros((len(seq), units))
            for t in reversed(range(len(seq))) if reverse else range(len(seq)):
                z = sigmoid(p["w_z"] @ seq[t] + p["u_z"] @ h + p["b_z"])
                r = sigmoid(p["w_r"] @ seq[t] + p["u_r"] @ h + p["b_r"])
                cand = np.tanh(p["w_h"] @ seq[t] + p["u_h"] @ (r * h) + p["b_h"])
                h = (1.0 - z) * h + z * cand
                states[t] = h
            return states

        docs = x.reshape((-1,) + x.shape[-2:])
        out = [np.concatenate([run(doc, 0, False), run(doc, 1, True)], axis=-1) for doc in docs]
        return np.array(out).reshape(x.shape[:-1] + (2 * units,))

    @pytest.mark.parametrize("lead, steps", [((), 4), ((1,), 4), ((5,), 4), ((2, 3), 4),
                                             ((), 1), ((3,), 1)])
    def test_matches_per_step_loop(self, lead, steps):
        rng = np.random.default_rng(200 + steps + len(lead))
        params = _gru_params(rng, units=3, feat=5)
        x = rng.normal(size=lead + (steps, 5))
        tape = tz.Tape()
        out = tz.bigru(tape.constant(x), *params)
        assert len(tape) == 1  # both recurrences are one tape entry
        want = self.naive(x, params)
        assert out.value.shape == want.shape == lead + (steps, 6)
        assert _relative_error(out.value, want) < 1e-12

    def test_leading_axes_gradients(self):
        rng = np.random.default_rng(210)
        params = _gru_params(rng, units=2, feat=3)
        xp = tz.Parameter("x", rng.normal(size=(2, 3, 3, 3)))
        weights = rng.normal(size=(2, 3, 3, 4))  # a distinct gradient per output

        def loss(tape):
            out = tz.bigru(tape.read(xp), *params)
            return tz.mean_all(tz.mul(out, tape.constant(weights)))

        check_gradients(loss, [xp] + params, tol=1e-5)

    def test_overflowing_input_term_raises(self):
        rng = np.random.default_rng(211)
        w, b, u_zr, u_h = _gru_params(rng, units=3, feat=4)
        w.value[0, :3] = 1e308  # forward W_z
        for tape in (tz.Tape(), tz.Tape(records=False)):
            with np.errstate(over="ignore"), pytest.raises(NumericsError, match="'bigru'"):
                tz.bigru(tape.constant(np.ones((2, 5, 4))), w, b, u_zr, u_h)

    def test_overflowing_recurrent_term_raises(self):
        # step 0 starts from h = 0, so U h is finite; h is then close to 1
        # in every unit, and at step 1 U_z h overflows
        rng = np.random.default_rng(212)
        w, b, u_zr, u_h = _gru_params(rng, units=3, feat=4)
        w.value[1, 6:] = 5.0  # reverse W_h
        b.value[1, :3] = 20.0  # reverse b_z
        u_zr.value[1, :3] = np.finfo(np.float64).max  # reverse U_z
        for tape in (tz.Tape(), tz.Tape(records=False)):
            with np.errstate(over="ignore"), pytest.raises(NumericsError, match="'bigru'"):
                tz.bigru(tape.constant(np.ones((2, 5, 4))), w, b, u_zr, u_h)

    @pytest.mark.parametrize("records", [True, False])
    @pytest.mark.parametrize("direction", [0, 1], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("term", ["u_z", "u_h"])
    def test_overflowing_recurrent_term_raises_in_each_direction(self, term, direction, records):
        # as above, in one direction only: z and r are close to 1, so after
        # step 0 h is close to 1 in every unit, and at step 1 the gate term
        # U_z h or the candidate term U_h (r * h) overflows; without the
        # check, sigmoid and tanh would map the inf back to a finite state
        rng = np.random.default_rng(214)
        w, b, u_zr, u_h = _gru_params(rng, units=3, feat=4)
        w.value[direction, 6:] = 5.0  # W_h
        b.value[direction, :6] = 20.0  # b_z and b_r
        gate = u_zr.value[direction, :3] if term == "u_z" else u_h.value[direction]
        gate[...] = np.finfo(np.float64).max
        tape = tz.Tape(records=records)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="'bigru'"):
            tz.bigru(tape.constant(np.ones((2, 5, 4))), w, b, u_zr, u_h)

    def test_parameter_shape_mismatch_raises(self):
        # each argument with a wrong direction axis, 3H (or 2H) and H or F;
        # the error names the argument
        cases = {
            "w": [(1, 9, 4), (2, 8, 4), (2, 9, 5)],
            "b": [(3, 9), (2, 8)],
            "u_zr": [(1, 6, 3), (2, 5, 3), (2, 6, 2)],
            "u_h": [(3, 3, 3), (2, 3, 2), (2, 2, 3)],
        }
        for index, (name, shapes) in enumerate(cases.items()):
            for shape in shapes:
                params = _gru_params(np.random.default_rng(213), units=3, feat=4)
                params[index] = tz.Parameter("bad", np.zeros(shape))
                tape = tz.Tape()
                with pytest.raises(ShapeError, match=rf"bigru: {name} has shape \({shape[0]}, "):
                    tz.bigru(tape.constant(np.ones((5, 4))), *params)


def _gru_forward_per_direction(x, w, b, u_zr, u_h, reverse):
    """One GRU direction as bigru ran it before its two directions were
    stacked: the byte oracle of TestBiGRUStackedBytes."""
    units = u_h.shape[0]
    proj = x @ w.T + b
    proj = np.moveaxis(proj, -2, 0)
    steps = len(proj)
    states = np.empty(proj.shape[:-1] + (units,))
    saved = np.empty((5,) + states.shape)
    h = np.zeros(states.shape[1:])
    for t in reversed(range(steps)) if reverse else range(steps):
        gates = proj[t, ..., : 2 * units] + h @ u_zr.T
        e = np.exp(-np.abs(gates))
        zr = np.where(gates >= 0, 1.0, e) / (1.0 + e)
        z, r = zr[..., :units], zr[..., units:]
        rh = r * h
        pre = proj[t, ..., 2 * units :] + rh @ u_h.T
        cand = np.tanh(pre)
        saved[0, t], saved[1, t], saved[2, t], saved[3, t], saved[4, t] = h, z, r, rh, cand
        h = (1.0 - z) * h + z * cand
        states[t] = h
    return np.moveaxis(states, 0, -2), saved


def _gru_backward_per_direction(g, x, w, u_zr, u_h, saved, reverse):
    h_prev, z, r, rh, cand = saved
    units = u_h.shape[0]
    steps = len(z)
    g = np.moveaxis(g, -2, 0)
    grad_pre = np.empty(z.shape[:-1] + (3 * units,))
    gh = np.zeros(z.shape[1:])
    for t in range(steps) if reverse else reversed(range(steps)):
        gh = gh + g[t]
        zt, rt, ct, ht = z[t], r[t], cand[t], h_prev[t]
        g_cand = gh * zt * (1.0 - ct * ct)
        g_rh = g_cand @ u_h
        grad_pre[t, ..., :units] = gh * (ct - ht) * zt * (1.0 - zt)
        grad_pre[t, ..., units : 2 * units] = g_rh * ht * rt * (1.0 - rt)
        grad_pre[t, ..., 2 * units :] = g_cand
        gh = gh * (1.0 - zt) + g_rh * rt + grad_pre[t, ..., : 2 * units] @ u_zr
    flat = grad_pre.reshape(-1, 3 * units)
    gw = flat.T @ np.moveaxis(x, -2, 0).reshape(-1, x.shape[-1])
    gu_zr = flat[:, : 2 * units].T @ h_prev.reshape(-1, units)
    gu_h = flat[:, 2 * units :].T @ rh.reshape(-1, units)
    return np.moveaxis(grad_pre @ w, 0, -2), gw, flat.sum(axis=0), gu_zr, gu_h


def _bigru_per_direction(x, gates, g):
    """Output, input gradient and the 18 per-gate parameter gradients of
    the per-direction bi-GRU; `gates` and the gradients are two cells'
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h, forward first."""
    units = len(gates[0][1])
    cells, runs = [], []
    for cell, reverse in ((gates[0], False), (gates[1], True)):
        w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = cell
        cells.append((np.concatenate([w_z, w_r, w_h]), np.concatenate([b_z, b_r, b_h]),
                      np.concatenate([u_z, u_r]), u_h))
        runs.append(_gru_forward_per_direction(x, *cells[-1], reverse))
    out = np.concatenate([states for states, _ in runs], axis=-1)
    gx, grads = 0.0, []
    for d, reverse in enumerate((False, True)):
        w, _, u_zr, u_h = cells[d]
        gx_d, gw, gb, gu_zr, gu_h = _gru_backward_per_direction(
            g[..., d * units : (d + 1) * units], x, w, u_zr, u_h, runs[d][1], reverse)
        gx = gx + gx_d
        (gw_z, gw_r, gw_h), (gb_z, gb_r, gb_h) = np.split(gw, 3), np.split(gb, 3)
        gu_z, gu_r = np.split(gu_zr, 2)
        grads += [gw_z, gu_z, gb_z, gw_r, gu_r, gb_r, gw_h, gu_h, gb_h]
    return out, gx, grads


class TestBiGRUStackedBytes:
    """bigru runs both directions as one stacked recurrence; its output
    and every gradient equal, byte for byte, those of the two separate
    per-direction recurrences it replaced."""

    @pytest.mark.parametrize("steps", [1, 4, 10])
    @pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)])
    def test_bytes_equal_per_direction(self, lead, steps):
        rng = np.random.default_rng(300 + steps + 7 * len(lead))
        params = _gru_params(rng, units=4, feat=6)
        x = rng.normal(size=lead + (steps, 6))
        g = rng.normal(size=lead + (steps, 8))
        out, gx, grads = _bigru_per_direction(x, [gru_gates(params, d) for d in (0, 1)], g)
        for records in (True, False):
            tape = tz.Tape(records=records)
            assert tz.bigru(tape.constant(x), *params).value.tobytes() == out.tobytes()
        tape = tz.Tape()
        tz.bigru(tape.constant(x), *params)
        got_gx, *got_grads = _vjp_of_last_op(tape, g)
        assert got_gx.shape == gx.shape and got_gx.tobytes() == gx.tobytes()
        assert len(got_grads) == 4 and len(grads) == 18
        for p, got_g, want in zip(params, got_grads, tz.stack_gru([grads[:9], grads[9:]])):
            assert got_g.shape == want.shape == p.value.shape, p.name
            assert got_g.tobytes() == want.tobytes(), p.name


class TestNonRecordingTape:
    """A tape made with records=False: ops give the bits of a recording
    tape and keep their finite checks, but nothing is recorded."""

    def test_backward_raises(self):
        tape = tz.Tape(records=False)
        p = tz.Parameter("p", np.array([1.0, 2.0]))
        loss = tz.mean_all(tz.mul(tape.read(p), p))
        assert not tape.records and tz.Tape().records
        with pytest.raises(UsageError, match="records no ops"):
            tz.backward(tape, loss)
        assert len(tape) == 0 and not p.grad.any()

    @staticmethod
    def conv_inputs(rng, lengths):
        # empty segments, segments shorter than each width, and longer ones
        lengths = np.array(lengths)
        ids = rng.integers(0, 9, size=int(lengths.sum()))
        table = tz.Parameter("table", rng.normal(size=(9, 6)))
        taps = tz.Parameter("taps", rng.normal(size=(10, 3, 6)))  # widths 2, 3 and 5
        bias = tz.Parameter("bias", rng.normal(size=9))
        return ids, table, taps, bias, lengths

    @pytest.mark.parametrize("lengths", [
        [[0, 1, 2, 7], [5, 12, 4, 3]],
        [[0, 2], [1, 0]],
        [[0, 0]],
    ], ids=["segments", "short-batch", "empty-batch"])
    def test_embedding_conv_max_bytes_equal(self, lengths):
        ids, table, taps, bias, lengths = self.conv_inputs(
            np.random.default_rng(70), lengths)
        outs = []
        for records in (True, False):
            tape = tz.Tape(records=records)
            out = tz.embedding_conv_max(ids, tape.read(table), taps, bias, (2, 3, 5), lengths)
            assert len(tape) == (1 if records else 0)
            outs.append(out.value)
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("lead, steps", [((), 4), ((7,), 3), ((2, 3), 1)])
    def test_bigru_bytes_equal(self, lead, steps):
        rng = np.random.default_rng(71)
        params = _gru_params(rng, units=3, feat=5)
        x = rng.normal(size=lead + (steps, 5))
        outs = []
        for records in (True, False):
            tape = tz.Tape(records=records)
            outs.append(tz.bigru(tape.constant(x), *params).value)
            assert len(tape) == (1 if records else 0)
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("records", [True, False])
    @pytest.mark.parametrize("scale, dim", [(1e308, 2), (1e308, 1)],
                             ids=["response", "window-sum"])
    def test_embedding_conv_max_overflow_raises(self, records, scale, dim):
        # dim 2: each row times a filter overflows; dim 1: each row times a
        # filter is finite, and a window's sum of two taps overflows
        table = tz.Parameter("table", np.full((3, dim), scale))
        taps, bias = tz.Parameter("taps", np.ones((2, 1, dim))), tz.Parameter("bias", np.zeros(1))
        tape = tz.Tape(records=records)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="'embedding_conv_max'"):
            tz.embedding_conv_max(np.array([1, 2, 1]), tape.read(table), taps, bias, [2],
                                  np.array([3]))


class TestEmbeddingGradient:
    """The table gradient against np.add.at into a zero table, bit for bit."""

    @pytest.mark.parametrize("ids", [
        np.array([3, 1, 3, 3, 0, 1, 3]),  # repeated ids
        np.array([[2, 4, 2], [4, 4, 1]]),  # 2-D ids
        np.array([5, 2, 5, 5, 0], dtype=np.uint32),
        np.array([5, 2, 5, 5, 0], dtype=np.uint64),
    ], ids=["repeated", "2-D", "uint32", "uint64"])
    def test_matches_add_at(self, ids):
        rng = np.random.default_rng(12)
        table = tz.Parameter("emb", rng.normal(size=(6, 3)))
        tape = tz.Tape()
        out = tz.embedding_lookup(ids, tape.read(table))
        g = rng.normal(size=out.value.shape)
        (got,) = _vjp_of_last_op(tape, g)
        want = np.zeros((6, 3))
        np.add.at(want, ids.ravel(), g.reshape(-1, 3))
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_empty_ids_give_float64_zeros(self):
        table = tz.Parameter("emb", np.ones((4, 2)))
        tape = tz.Tape()
        out = tz.embedding_lookup(np.zeros(0, dtype=np.int64), tape.read(table))
        (got,) = _vjp_of_last_op(tape, np.zeros(out.value.shape))
        assert got.dtype == np.float64 and got.shape == (4, 2) and not got.any()


class TestSoftmaxCrossEntropy:
    def test_matches_softmax_then_cross_entropy(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(scale=4.0, size=(2, 5, 3))
        gold = rng.integers(0, 3, size=(2, 5))
        tape = tz.Tape()
        fused = tz.softmax_cross_entropy(tape.constant(logits), gold)
        (g_fused,) = _vjp_of_last_op(tape, np.ones(()))
        ref_tape = tz.Tape()
        x = ref_tape.constant(logits)
        ref = tz.cross_entropy(tz.softmax(x), gold)
        tz.backward(ref_tape, ref)
        assert _relative_error(fused.value, ref.value) < 1e-12
        assert _relative_error(g_fused, x.grad) < 1e-12

    def test_finite_where_the_gold_probability_underflows(self):
        logits = tz.Parameter("logits", np.array([[0.0, 800.0]]))
        tape = tz.Tape()
        with pytest.raises(NumericsError):
            tz.cross_entropy(tz.softmax(tape.read(logits)), np.array([0]))
        tape = tz.Tape()
        loss = tz.softmax_cross_entropy(tape.read(logits), np.array([0]))
        tz.backward(tape, loss)
        assert float(loss.value) == 800.0
        assert logits.grad.tolist() == [[-1.0, 1.0]]

    @pytest.mark.parametrize("gold", [np.array([0, 2]), np.array([0.0, 1.0]), np.array([0])])
    def test_bad_gold_raises(self, gold):
        tape = tz.Tape()
        with pytest.raises(ShapeError):
            tz.softmax_cross_entropy(tape.constant(np.zeros((2, 2))), gold)


def _rand(rng, *shape):
    # keep magnitudes moderate and away from activation kinks
    return rng.uniform(0.2, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


class TestGradientChecks:
    """Central-difference verification for every differentiable op."""

    def test_conv1d(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(7, 3))
        f = tz.Parameter("f", _rand(rng, 2, 3, 3))
        b = tz.Parameter("b", _rand(rng, 2))
        xp = tz.Parameter("x", x0)

        def loss(tape):
            x = tape.read(xp)
            return tz.mean_all(tz.tanh(tz.conv1d(x, f, b)))

        check_gradients(loss, [xp, f, b], tol=1e-6)

    def test_pooling_chain(self):
        rng = np.random.default_rng(2)
        xp = tz.Parameter("x", rng.normal(size=(9, 4)))

        def loss(tape):
            pooled = tz.maxpool1d(tape.read(xp), 2)
            return tz.mean_all(tz.global_maxpool(pooled))

        check_gradients(loss, [xp])

    @pytest.mark.parametrize("act", ["relu", "tanh", "elu", "selu", "identity"])
    def test_dense_activations(self, act):
        rng = np.random.default_rng(3)
        w = tz.Parameter("w", _rand(rng, 4, 5))
        b = tz.Parameter("b", _rand(rng, 4))
        xp = tz.Parameter("x", _rand(rng, 6, 5))

        def loss(tape):
            return tz.mean_all(tz.dense(tape.read(xp), w, b, act))

        check_gradients(loss, [xp, w, b], tol=1e-5)

    def test_bigru_four_steps(self):
        rng = np.random.default_rng(4)
        units, feat, steps = 3, 4, 4
        params = bigru_params(lambda shape: _rand(rng, *shape), units, feat)
        xp = tz.Parameter("x", rng.normal(size=(steps, feat)))

        def loss(tape):
            return tz.mean_all(tz.bigru(tape.read(xp), *params))

        check_gradients(loss, [xp] + params, tol=1e-4)

    def test_embedding_conv_max(self):
        rng = np.random.default_rng(13)
        table = tz.Parameter("emb", rng.normal(size=(6, 3)))
        taps, bias, widths = _stacked_params(
            [tz.Parameter(f"f{w}", _rand(rng, 2, w, 3)) for w in (2, 3)],
            [tz.Parameter(f"b{w}", _rand(rng, 2)) for w in (2, 3)])
        ids = np.array([1, 4, 4, 0, 5, 2, 1, 3, 3, 5, 0, 2])  # repeated ids
        lengths = np.array([[2, 0, 5], [2, 3, 0]])  # empty, and shorter than a width

        def loss(tape):
            out = tz.embedding_conv_max(ids, tape.read(table), taps, bias, widths, lengths)
            return tz.mean_all(tz.tanh(out))

        check_gradients(loss, [table, taps, bias], tol=1e-6)

    def test_additive_pair_scores(self):
        rng = np.random.default_rng(5)
        n, d = 4, 3
        for lead in [(), (2,)]:  # one sequence, and a batch of two
            a = tz.Parameter("a", rng.normal(size=lead + (n, d)))
            b = tz.Parameter("b", rng.normal(size=lead + (n, d)))
            bias = tz.Parameter("bias", rng.normal(size=d))
            v = tz.Parameter("v", rng.normal(size=d))
            values = rng.normal(size=lead + (n, d))  # fixed mixing targets

            def loss(tape):
                scores = tz.additive_pair_scores(tape.read(a), tape.read(b), bias, v)
                mixed = tz.bmatmul(tz.softmax(scores), tape.constant(values))
                return tz.mean_all(tz.tanh(mixed))

            check_gradients(loss, [a, b, bias, v], tol=1e-5)

    def test_combine_pattern(self):
        rng = np.random.default_rng(6)
        a = tz.Parameter("a", rng.normal(size=(5, 4)))
        b = tz.Parameter("b", rng.normal(size=(5, 4)))

        def loss(tape):
            return tz.mean_all(tz.mean_axis(tz.mul(tape.read(a), tape.read(b)), axis=-2))

        check_gradients(loss, [a, b], tol=1e-6)

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = tz.Parameter("logits", rng.normal(size=(3, 4)))
        gold = np.array([1, 3, 0])

        def loss(tape):
            return tz.cross_entropy(tz.softmax(tape.read(logits)), gold)

        check_gradients(loss, [logits], tol=1e-6)

    def test_fused_softmax_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = tz.Parameter("logits", rng.normal(size=(3, 4)))
        gold = np.array([1, 3, 0])

        def loss(tape):
            return tz.softmax_cross_entropy(tape.read(logits), gold)

        check_gradients(loss, [logits], tol=1e-6)

    def test_structural_ops(self):
        rng = np.random.default_rng(8)
        a = tz.Parameter("a", rng.normal(size=(4, 3)))
        b = tz.Parameter("b", rng.normal(size=(4, 2)))

        def loss(tape):
            joined = tz.concat([tape.read(a), tape.read(b)], axis=-1)
            means = tz.concat([tz.mean_axis(joined, 0), tz.mean_axis(joined, 1)], axis=0)
            return tz.mean_all(tz.tanh(means))

        check_gradients(loss, [a, b], tol=1e-6)

    def test_bmatmul(self):
        rng = np.random.default_rng(9)
        a = tz.Parameter("a", rng.normal(size=(4, 4)))
        b = tz.Parameter("b", rng.normal(size=(4, 3)))

        def loss(tape):
            return tz.mean_all(tz.bmatmul(tape.read(a), tape.read(b)))

        check_gradients(loss, [a, b], tol=1e-6)

    def test_embedding_lookup_finite_difference(self):
        rng = np.random.default_rng(10)
        table = tz.Parameter("emb", rng.normal(size=(5, 3)))
        ids = np.array([[0, 2], [2, 4]])

        def loss(tape):
            return tz.mean_all(tz.tanh(tz.embedding_lookup(ids, tape.read(table))))

        check_gradients(loss, [table], tol=1e-6)

    def test_determinism_bit_exact(self):
        rng = np.random.default_rng(11)
        w = tz.Parameter("w", rng.normal(size=(4, 4)))
        b = tz.Parameter("b", rng.normal(size=4))
        x0 = rng.normal(size=(6, 4))

        def run():
            tape = tz.Tape()
            loss = tz.mean_all(tz.dense(tape.constant(x0), w, b, "selu"))
            tz.backward(tape, loss)
            g = (w.grad.copy(), b.grad.copy())
            w.zero_grad()
            b.zero_grad()
            return float(loss.value), g

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])
