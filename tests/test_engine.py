import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fakeflow.tensor as tz
from conftest import max_relative_error, numeric_gradient
from fakeflow.errors import NumericsError, ShapeError, UsageError


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

    def test_segment_max_rows_and_empty_segments(self):
        tape = tz.Tape()
        x = tape.constant(np.array([[1.0, 9.0], [4.0, 2.0], [3.0, 5.0], [0.0, 7.0]]))
        out = tz.segment_max(x, np.array([[0, 2, 3]]), np.array([[2, 2, 0]]))
        assert out.value.tolist() == [[[4.0, 9.0], [3.0, 7.0], [0.0, 0.0]]]

    @pytest.mark.parametrize("starts, counts", [
        ([0, 2], [2, 3]),  # runs past the last row
        ([-1, 0], [1, 1]),  # starts before the first row
        ([0, 1], [1, -1]),  # negative count
        ([0, 1], [1]),  # shapes differ
        ([0.0, 1.0], [1, 1]),  # not integers
    ])
    def test_segment_max_rejects_segments_outside_x(self, starts, counts):
        tape = tz.Tape()
        with pytest.raises(ShapeError):
            tz.segment_max(tape.constant(np.ones((4, 2))), np.array(starts), np.array(counts))

    def test_dense_identity_weights_tanh(self):
        tape = tz.Tape()
        x = tape.constant(np.array([0.0, 0.5, -0.5]))
        w = tz.Parameter("w", np.eye(3))
        b = tz.Parameter("b", np.zeros(3))
        out = tz.dense(x, w, b, "tanh")
        assert np.allclose(out.value, np.tanh([0.0, 0.5, -0.5]))

    def test_relu_values_and_gradient(self):
        tape = tz.Tape()
        x = tape.constant(np.array([-1.0, 2.0]))
        out = tz.relu(x)
        assert out.value.tolist() == [0.0, 2.0]
        loss = tz.mean_all(out)
        tz.backward(tape, loss)
        assert tape._entries[0][1][0].grad.tolist() == [0.0, 0.5]

    def test_softmax_symmetry(self):
        tape = tz.Tape()
        out = tz.softmax(tape.constant(np.array([0.0, 0.0])))
        assert out.value.tolist() == [0.5, 0.5]

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
        with pytest.raises(IndexError):
            tz.embedding_lookup(np.array([[5]]), tape.read(table))

    def test_embedding_gradient_counts_occurrences(self):
        table = tz.Parameter("emb", np.ones((4, 2)))
        tape = tz.Tape()
        ids = np.array([[1, 1, 3], [2, 1, 3]])
        out = tz.embedding_lookup(ids, tape.read(table))
        # sum of all outputs: d/d table[r] = occurrences of r (per column)
        loss = tz.scale(tz.mean_all(out), out.value.size)
        tz.backward(tape, loss)
        assert table.grad[:, 0].tolist() == [0.0, 3.0, 1.0, 2.0]

    def test_bigru_zero_weights_zero_output(self):
        units = 3
        cells = []
        for prefix in ("f", "b"):
            cells.append(
                tz.GRUCellParams(
                    *[tz.Parameter(f"{prefix}{i}", np.zeros((units, 2) if i % 3 == 0 else (units, units) if i % 3 == 1 else units))
                      for i in range(9)]
                )
            )
        params = tz.BiGRUParams(fwd=cells[0], bwd=cells[1], units=units)
        tape = tz.Tape()
        x = tape.constant(np.ones((4, 2)))
        out = tz.bigru(x, params)
        assert out.value.shape == (4, 2 * units)
        assert np.all(out.value == 0.0)

    def test_bigru_single_step_uses_same_input_both_directions(self):
        rng = np.random.default_rng(0)
        units, feat = 2, 3
        def cell(prefix):
            return tz.GRUCellParams(
                w_z=tz.Parameter(f"{prefix}wz", rng.normal(size=(units, feat))),
                u_z=tz.Parameter(f"{prefix}uz", rng.normal(size=(units, units))),
                b_z=tz.Parameter(f"{prefix}bz", rng.normal(size=units)),
                w_r=tz.Parameter(f"{prefix}wr", rng.normal(size=(units, feat))),
                u_r=tz.Parameter(f"{prefix}ur", rng.normal(size=(units, units))),
                b_r=tz.Parameter(f"{prefix}br", rng.normal(size=units)),
                w_h=tz.Parameter(f"{prefix}wh", rng.normal(size=(units, feat))),
                u_h=tz.Parameter(f"{prefix}uh", rng.normal(size=(units, units))),
                b_h=tz.Parameter(f"{prefix}bh", rng.normal(size=units)),
            )
        fwd = cell("f")
        params = tz.BiGRUParams(fwd=fwd, bwd=fwd, units=units)  # shared weights
        tape = tz.Tape()
        x = tape.constant(rng.normal(size=(1, feat)))
        out = tz.bigru(x, params)
        # with shared weights and one step, both halves are identical
        assert np.allclose(out.value[0, :units], out.value[0, units:])

    def test_dropout_rate_zero_and_inference_identity(self):
        tape = tz.Tape()
        x = tape.constant(np.arange(5.0))
        assert tz.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x
        assert tz.dropout(x, 0.5, training=False) is x

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

    def test_linear_matmul_gradient_analytic(self):
        # loss = sum(Wx): dW = x broadcast to each row
        w = tz.Parameter("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        tape = tz.Tape()
        x = tape.constant(np.array([5.0, 7.0]))
        out = tz.linear(x, w)
        loss = tz.scale(tz.mean_all(out), out.value.size)
        tz.backward(tape, loss)
        assert w.grad.tolist() == [[5.0, 7.0], [5.0, 7.0]]

    def test_shape_safety_no_silent_broadcast(self):
        tape = tz.Tape()
        a = tape.constant(np.ones((2, 3)))
        b = tape.constant(np.ones((2, 1)))
        with pytest.raises(ShapeError):
            tz.add(a, b)
        with pytest.raises(ShapeError):
            tz.mul(a, b)

    def test_mixed_tapes_rejected(self):
        t1, t2 = tz.Tape(), tz.Tape()
        with pytest.raises(UsageError):
            tz.add(t1.constant(np.ones(2)), t2.constant(np.ones(2)))

    def test_dropped_tape_is_freed_without_the_cycle_collector(self):
        w = tz.Parameter("w", np.ones((3, 3)))
        tape = tz.Tape()
        out = tz.linear(tape.constant(np.ones((2, 3))), w)
        tz.backward(tape, tz.mean_all(out))
        alive = weakref.ref(tape)
        gc.disable()
        try:
            del tape
            assert alive() is None
        finally:
            gc.enable()
        with pytest.raises(UsageError):
            tz.relu(out)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_softmax_rows_sum_to_one(self, n, seed):
        rng = np.random.default_rng(seed)
        tape = tz.Tape()
        out = tz.softmax(tape.constant(rng.normal(scale=5.0, size=(n, n))))
        assert np.all(out.value > 0.0)
        assert np.max(np.abs(out.value.sum(axis=-1) - 1.0)) < 1e-12


class TestSegmentMaxMatchesPoolingChain:
    """segment_max over one conv1d of concatenated segments against the
    per-segment chain global_maxpool(maxpool1d(conv1d(segment)))."""

    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_values_and_gradients_bit_exact(self, pool):
        rng = np.random.default_rng(40 + pool)
        width, dim, channels = 3, 2, 4
        # empty, shorter than the filter width, exactly the width, longer
        lengths = np.array([[0, 1, 2, 3], [5, 8, 3, 11]])
        starts = (np.cumsum(lengths) - lengths.ravel()).reshape(lengths.shape)
        # three levels of integer inputs and filters: many exact ties, and
        # conv sums that are exact in any order
        x = rng.integers(-1, 2, size=(int(lengths.sum()), dim)).astype(float)
        filters = tz.Parameter("f", rng.integers(-1, 2, size=(channels, width, dim)))
        bias = tz.Parameter("b", rng.integers(-1, 2, size=channels))
        weights = rng.normal(size=lengths.shape + (channels,))

        tape = tz.Tape()
        conv = tz.conv1d(tape.constant(x), filters, bias)
        fused = tz.segment_max(conv, starts, np.maximum(lengths - width + 1, 0))
        # 32 outputs: the mean's 1/32 is exact, as is the reference's 1/4 * 1/8
        tz.backward(tape, tz.mean_all(tz.mul(fused, tape.constant(weights))))

        covered = np.zeros(len(conv.value), dtype=bool)
        for (b, n), length in np.ndenumerate(lengths):
            start = starts[b, n]
            if length < width:
                assert not fused.value[b, n].any()
                continue
            ref_tape = tz.Tape()
            ref_conv = tz.conv1d(ref_tape.constant(x[start : start + length]), filters, bias)
            pooled = tz.global_maxpool(tz.maxpool1d(ref_conv, pool))
            loss = tz.scale(tz.mean_all(tz.mul(pooled, ref_tape.constant(weights[b, n]))), 1 / 8)
            tz.backward(ref_tape, loss)
            rows = slice(start, start + length - width + 1)
            assert np.array_equal(fused.value[b, n], pooled.value)
            assert np.array_equal(conv.grad[rows], ref_conv.grad)
            covered[rows] = True
        # windows that straddle two segments get no gradient
        assert not conv.grad[~covered].any()


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

    @pytest.mark.parametrize("act", ["relu", "tanh", "elu", "selu"])
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

        def cell(prefix):
            return tz.GRUCellParams(
                w_z=tz.Parameter(f"{prefix}wz", _rand(rng, units, feat)),
                u_z=tz.Parameter(f"{prefix}uz", _rand(rng, units, units)),
                b_z=tz.Parameter(f"{prefix}bz", _rand(rng, units)),
                w_r=tz.Parameter(f"{prefix}wr", _rand(rng, units, feat)),
                u_r=tz.Parameter(f"{prefix}ur", _rand(rng, units, units)),
                b_r=tz.Parameter(f"{prefix}br", _rand(rng, units)),
                w_h=tz.Parameter(f"{prefix}wh", _rand(rng, units, feat)),
                u_h=tz.Parameter(f"{prefix}uh", _rand(rng, units, units)),
                b_h=tz.Parameter(f"{prefix}bh", _rand(rng, units)),
            )

        params = tz.BiGRUParams(fwd=cell("f"), bwd=cell("b"), units=units)
        xp = tz.Parameter("x", rng.normal(size=(steps, feat)))

        def loss(tape):
            return tz.mean_all(tz.bigru(tape.read(xp), params))

        check_gradients(loss, [xp] + params.all(), tol=1e-4)

    def test_segment_max(self):
        rng = np.random.default_rng(12)
        xp = tz.Parameter("x", rng.normal(size=(10, 3)))
        starts = np.array([[0, 3, 3], [5, 9, 9]])
        counts = np.array([[3, 0, 2], [4, 1, 0]])  # two empty segments

        def loss(tape):
            return tz.mean_all(tz.tanh(tz.segment_max(tape.read(xp), starts, counts)))

        check_gradients(loss, [xp], tol=1e-6)

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

    def test_structural_ops(self):
        rng = np.random.default_rng(8)
        a = tz.Parameter("a", rng.normal(size=(4, 3)))
        b = tz.Parameter("b", rng.normal(size=(4, 2)))

        def loss(tape):
            joined = tz.concat([tape.read(a), tape.read(b)], axis=-1)
            first = tz.select(joined, 0, 1)
            prefix = tz.narrow(joined, 0, 0, 3)
            stacked = tz.stack([tz.mean_axis(prefix, 0), first], axis=0)
            return tz.mean_all(tz.sigmoid(stacked))

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
