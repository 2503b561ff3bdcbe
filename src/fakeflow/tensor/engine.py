"""Minimal reverse-mode differentiable array engine.

Everything is float64. Operations record themselves on a Tape; backward()
replays the tape in exact reverse execution order and accumulates gradients
into the Parameters that were read under that tape. A tape made with
Tape(records=False) is for inference: every op computes and checks its
output exactly as on a recording tape, but the tape keeps no entry, so
nothing an op saves for its backward outlives the op, and fused ops that
read `tape.records` skip the work only their backward uses. backward()
on such a tape raises UsageError. There is no implicit
broadcasting: each op validates its input shapes and raises ShapeError on
any mismatch. Every op output is checked for NaN/Inf and raises
NumericsError if found, so silent numerical blowups cannot propagate.

Op inputs, one rule for every op (_on_tape): it records on the tape of its
first Tensor input and reads each Parameter input onto that tape with
tape.read. No Tensor input, an input that is neither, a dead tape or
Tensors of two tapes are a UsageError.

Leading batch axes: ops documented with a core shape (e.g. ``(..., D)``)
accept any number of leading axes and treat them as independent instances.

Row gradients: a VJP may hand an input a RowGradient instead of an array
when its gradient is zero outside a few rows (embedding_conv_max does, for
the embedding table, which must be a Parameter or its leaf). It reaches
only the leaf of a Parameter, where backward index-adds its rows into
param.grad in blocks of about ROW_CELLS cells, so no (V, D) array, nor a
(U, D) gather of all U rows, is built. Every other op hands dense
gradients.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple

import numpy as np

from ..errors import NumericsError, ShapeError, UsageError

DTYPE = np.float64
# backward index-adds a RowGradient in blocks of about ROW_CELLS cells: one
# gather of all U rows was a (U, D) temporary that, in a topic training
# step, grew the heap past glibc's trim threshold, so its pages were
# faulted in again on every step
ROW_CELLS = 1 << 13


class Parameter:
    """A named, trainable array with a persistent gradient buffer.

    The gradient accumulates across backward passes and is zeroed by the
    optimizer after each step. Shape is fixed at creation, and so are both
    arrays, written only in place: either may be a view of a shared buffer.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value, grad: np.ndarray | None = None):
        self.name = name
        # C order: the optimizer updates value and grad through flat views
        self.value = np.asarray(value, dtype=DTYPE, order="C")
        if not np.all(np.isfinite(self.value)):
            raise NumericsError(f"parameter {name!r} initialized with non-finite values")
        self.grad = np.zeros_like(self.value) if grad is None else grad

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def assign(self, value):
        """Write `value` into the parameter's array in place; on a
        ShapeError or NumericsError the array is left as it was."""
        value = np.asarray(value, dtype=DTYPE)
        if value.shape != self.value.shape:
            raise ShapeError(
                f"parameter {self.name!r} has shape {self.value.shape}, "
                f"cannot assign shape {value.shape}"
            )
        if not np.all(np.isfinite(value)):
            raise NumericsError(f"parameter {self.name!r} assigned non-finite values")
        self.value[...] = value

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tensor:
    """A node in the computation recorded on a Tape.

    A tensor refers to its tape weakly. The tape's record refers to its
    tensors, so a strong reference back would make every tape a reference
    cycle, and the arrays it holds would wait for the cycle collector
    instead of being freed when the tape's owner drops it.

    backward fills `grad` of op outputs and constants. A Parameter's leaf
    (`param` set) keeps none: its gradients go into the Parameter's.
    """

    __slots__ = ("value", "grad", "_tape", "param")

    def __init__(self, value: np.ndarray, tape: "Tape", param: Parameter | None = None):
        self.value = value
        self.grad = None
        self._tape = weakref.ref(tape)
        self.param = param

    @property
    def tape(self) -> "Tape":
        tape = self._tape()
        if tape is None:
            raise UsageError("the tape this tensor was recorded on no longer exists")
        return tape

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


class Tape:
    """Ordered record of executed differentiable operations.

    One backward pass per tape; a second call raises UsageError. With
    records=False the tape records nothing: ops still check their outputs
    for non-finite values and return Tensors, but `len(tape)` stays 0 and
    backward raises UsageError.
    """

    def __init__(self, records: bool = True):
        self._entries = []  # (out Tensor, input Tensors, vjp)
        self._reads = {}  # id(Parameter) -> leaf Tensor
        self._spent = False
        self._records = records

    @property
    def records(self) -> bool:
        """Whether ops are recorded for a backward pass."""
        return self._records

    def read(self, param: Parameter) -> Tensor:
        """Bring a Parameter onto the tape. Repeated reads share one leaf,
        so gradients from all uses accumulate into param.grad once."""
        leaf = self._reads.get(id(param))
        if leaf is None:
            leaf = Tensor(param.value, self, param=param)
            self._reads[id(param)] = leaf
        return leaf

    def constant(self, value) -> Tensor:
        """A non-trainable input. backward stores the gradient reaching it in
        its `grad`; no optimizer steps it."""
        arr = np.asarray(value, dtype=DTYPE)
        if not np.all(np.isfinite(arr)):
            raise NumericsError("constant input contains non-finite values")
        return Tensor(arr, self)

    def __len__(self):
        return len(self._entries)


def _check_finite(value: np.ndarray, op: str) -> None:
    if not np.isfinite(value).all():
        raise NumericsError(f"op {op!r} produced non-finite values")


def _record(tape: Tape, out_value: np.ndarray, inputs, vjp, op: str) -> Tensor:
    _check_finite(out_value, op)
    out = Tensor(out_value, tape)
    if tape._records:
        tape._entries.append((out, tuple(inputs), vjp))
    return out


def _on_tape(*inputs) -> tuple[Tape, list[Tensor]]:
    """The tape an op records on, and its inputs as Tensors on it (see the
    module docstring). Plain loops: with a generator a call took twice as long."""
    for x in inputs:
        if isinstance(x, Tensor):
            tape = x.tape
            break
    else:
        raise UsageError("an op needs a Tensor among its inputs; use tape.read() or constant()")
    tensors = []
    for x in inputs:
        if isinstance(x, Tensor):
            if x.tape is not tape:
                raise UsageError("tensors from different tapes cannot be combined")
        elif isinstance(x, Parameter):
            x = tape.read(x)
        else:
            raise UsageError(f"expected Tensor or Parameter, got {type(x).__name__}")
        tensors.append(x)
    return tape, tensors


class RowGradient(NamedTuple):
    """A gradient that is zero outside the rows `index` (distinct) of its
    input; `rows[i]` is the gradient of row `index[i]`."""

    index: np.ndarray
    rows: np.ndarray


def _arrive(tensor: Tensor, grad) -> None:
    """Add `grad` into the Parameter of a leaf, or else into the tensor's
    own grad (see backward)."""
    param = tensor.param
    if param is not None:
        if isinstance(grad, RowGradient):
            # param.grad holds no -0.0, so adding a -0.0 row entry keeps
            # the bits of adding the +0.0 a dense gradient holds there; the
            # rows are distinct, so each cell takes one addition in any block
            step = max(1, ROW_CELLS // max(1, math.prod(grad.rows.shape[1:])))
            for a in range(0, len(grad.index), step):
                param.grad[grad.index[a : a + step]] += grad.rows[a : a + step]
        else:
            param.grad += grad
    elif tensor.grad is None:
        # a copy, not the VJP's array, which may be the op's own g;
        # adding +0.0 stores a -0.0 as +0.0
        tensor.grad = np.add(grad, 0.0, out=np.empty_like(tensor.value))
    else:
        tensor.grad += grad


def backward(tape: Tape, loss: Tensor) -> None:
    """Add the gradient of `loss` into every Parameter read under `tape`.

    `loss` must be a scalar produced on this tape. Traverses the op record
    in exact reverse execution order. A gradient that reaches a Parameter's
    leaf is added straight into its `grad`, in that order, and no leaf
    Tensor holds a gradient; a RowGradient is index-added there (see the
    module docstring). Every other tensor's gradients add up in that order
    from a +0.0 start. So a second backward without a step in between
    leaves (p + g1) + g2 in a Parameter's grad, not the p + (g1 + g2) of
    one leaf total added once.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape:
        raise UsageError("loss was not produced under this tape")
    if not tape._records:
        raise UsageError("backward on a tape that records no ops")
    if tape._spent:
        raise UsageError("backward already ran on this tape")
    if loss.value.shape != ():
        raise UsageError(f"loss must be scalar, got shape {loss.value.shape}")
    tape._spent = True

    _arrive(loss, np.ones((), dtype=DTYPE))
    for out, inputs, vjp in reversed(tape._entries):
        if out.grad is not None:
            for tensor, grad in zip(inputs, vjp(out.grad)):
                if grad is not None:
                    _arrive(tensor, grad)


# ---------------------------------------------------------------------------
# structural ops


def mul(a, b) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    tape, (a, b) = _on_tape(a, b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes {a.value.shape} and {b.value.shape} differ")
    av, bv = a.value, b.value
    return _record(tape, av * bv, (a, b), lambda g: (g * bv, g * av), "mul")


def add_bias(x, b) -> Tensor:
    """x + b where b is a vector applied along the last axis of x."""
    tape, (x, b) = _on_tape(x, b)
    if b.value.ndim != 1 or x.value.shape[-1] != b.value.shape[0]:
        raise ShapeError(
            f"add_bias: x last dim {x.value.shape} incompatible with bias {b.value.shape}"
        )

    def vjp(g):
        axes = tuple(range(g.ndim - 1))
        return g, g.sum(axis=axes) if axes else g.copy()

    return _record(tape, x.value + b.value, (x, b), vjp, "add_bias")


def linear(x, w) -> Tensor:
    """x @ w.T with w of shape (D_out, D_in); x is (..., D_in)."""
    tape, (x, w) = _on_tape(x, w)
    if w.value.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.value.shape}")
    if x.value.ndim < 1 or x.value.shape[-1] != w.value.shape[1]:
        raise ShapeError(
            f"linear: x shape {x.value.shape} incompatible with weight {w.value.shape}"
        )
    xv, wv = x.value, w.value

    def vjp(g):
        gx = g @ wv
        g2 = g.reshape(-1, wv.shape[0])
        x2 = xv.reshape(-1, wv.shape[1])
        gw = g2.T @ x2
        return gx, gw

    return _record(tape, xv @ wv.T, (x, w), vjp, "linear")


def bmatmul(a, b) -> Tensor:
    """Stacked matrix product: (..., M, K) @ (..., K, P), leading axes equal."""
    tape, (a, b) = _on_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2 or av.ndim != bv.ndim:
        raise ShapeError(f"bmatmul: ranks {av.ndim} and {bv.ndim} do not conform")
    if av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"bmatmul: shapes {av.shape} and {bv.shape} do not conform")

    def vjp(g):
        return g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g

    return _record(tape, av @ bv, (a, b), vjp, "bmatmul")


def _axis(op: str, axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} is out of range for rank {ndim}")
    return axis % ndim


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate along one axis; all other extents must match."""
    tape, tensors = _on_tape(*tensors)
    values = [t.value for t in tensors]
    ndim = values[0].ndim
    ax = _axis("concat", axis, ndim)
    ref = values[0].shape
    for v in values[1:]:
        if v.ndim != ndim or v.shape[:ax] + v.shape[ax + 1 :] != ref[:ax] + ref[ax + 1 :]:
            raise ShapeError(f"concat: shape {v.shape} incompatible with {ref}")
    splits = np.cumsum([v.shape[ax] for v in values])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=ax))

    return _record(tape, np.concatenate(values, axis=ax), tensors, vjp, "concat")


def mean_axis(x, axis: int) -> Tensor:
    """Arithmetic mean along one axis."""
    tape, (x,) = _on_tape(x)
    ax = _axis("mean_axis", axis, x.value.ndim)
    n = x.value.shape[ax]
    if n == 0:
        raise ShapeError("mean_axis over empty axis")

    def vjp(g):
        return (np.repeat(np.expand_dims(g / n, ax), n, axis=ax),)

    return _record(tape, x.value.mean(axis=ax), (x,), vjp, "mean_axis")


def mean_all(x) -> Tensor:
    """Mean of every element, producing a scalar."""
    tape, (x,) = _on_tape(x)
    n = x.value.size
    if n == 0:
        raise ShapeError("mean_all of empty tensor")
    xshape = x.value.shape

    def vjp(g):
        return (np.full(xshape, float(g) / n, dtype=DTYPE),)

    return _record(tape, x.value.mean(), (x,), vjp, "mean_all")


# ---------------------------------------------------------------------------
# elementwise nonlinearities

SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717


def sigmoid_array(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid of an array, off the tape: 1 / (1 + e^-v) for
    v >= 0 and e^v / (1 + e^v) below, so no exponential overflows. The
    quotient goes into `out` when given."""
    e = np.exp(-np.abs(v))
    return np.divide(np.where(v >= 0, 1.0, e), 1.0 + e, out=out)


def tanh(x) -> Tensor:
    tape, (x,) = _on_tape(x)
    out = np.tanh(x.value)
    return _record(tape, out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def relu(x) -> Tensor:
    tape, (x,) = _on_tape(x)
    v = x.value
    out = np.maximum(v, 0.0)
    return _record(tape, out, (x,), lambda g: (g * (v > 0.0),), "relu")


def elu(x) -> Tensor:
    """ELU with alpha = 1."""
    tape, (x,) = _on_tape(x)
    v = x.value
    neg = v <= 0.0
    ev = np.exp(np.minimum(v, 0.0))
    out = np.where(neg, ev - 1.0, v)
    dv = np.where(neg, ev, 1.0)
    return _record(tape, out, (x,), lambda g: (g * dv,), "elu")


def selu(x) -> Tensor:
    """Self-normalizing ELU with the standard (lambda, alpha) constants."""
    tape, (x,) = _on_tape(x)
    v = x.value
    neg = v <= 0.0
    ev = np.exp(np.minimum(v, 0.0))
    out = SELU_LAMBDA * np.where(neg, SELU_ALPHA * (ev - 1.0), v)
    dv = SELU_LAMBDA * np.where(neg, SELU_ALPHA * ev, 1.0)
    return _record(tape, out, (x,), lambda g: (g * dv,), "selu")


def identity(x) -> Tensor:
    return x


ACTIVATIONS = {
    "relu": relu,
    "tanh": tanh,
    "elu": elu,
    "selu": selu,
    "identity": identity,
}


def activation(name: str):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise UsageError(
            f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}"
        ) from None
