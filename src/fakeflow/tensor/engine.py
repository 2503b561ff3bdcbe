"""Minimal reverse-mode differentiable array engine.

Everything is float64. Operations record themselves on a Tape; backward()
replays the tape in exact reverse execution order and accumulates gradients
into the Parameters that were read under that tape. There is no implicit
broadcasting: each op validates its input shapes and raises ShapeError on
any mismatch. Every op output is checked for NaN/Inf and raises
NumericsError if found, so silent numerical blowups cannot propagate.

Leading batch axes: ops documented with a core shape (e.g. ``(..., D)``)
accept any number of leading axes and treat them as independent instances.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..errors import NumericsError, ShapeError, UsageError

DTYPE = np.float64


def _as_f64(value) -> np.ndarray:
    arr = np.asarray(value, dtype=DTYPE)
    return arr


class Parameter:
    """A named, trainable array with a persistent gradient buffer.

    The gradient accumulates across backward passes and is zeroed by the
    optimizer after each step. Shape is fixed at creation.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = _as_f64(value)
        if not np.all(np.isfinite(self.value)):
            raise NumericsError(f"parameter {name!r} initialized with non-finite values")
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def assign(self, value):
        value = _as_f64(value)
        if value.shape != self.value.shape:
            raise ShapeError(
                f"parameter {self.name!r} has shape {self.value.shape}, "
                f"cannot assign shape {value.shape}"
            )
        self.value = value.copy()

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tensor:
    """A node in the computation recorded on a Tape.

    A tensor refers to its tape weakly. The tape's record refers to its
    tensors, so a strong reference back would make every tape a reference
    cycle, and the arrays it holds would wait for the cycle collector
    instead of being freed when the tape's owner drops it.
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

    One backward pass per tape; a second call raises UsageError.
    """

    def __init__(self):
        self._entries = []  # (out Tensor, input Tensors, vjp)
        self._reads = {}  # id(Parameter) -> leaf Tensor
        self._spent = False

    def read(self, param: Parameter) -> Tensor:
        """Bring a Parameter onto the tape. Repeated reads share one leaf,
        so gradients from all uses accumulate into param.grad once."""
        leaf = self._reads.get(id(param))
        if leaf is None:
            leaf = Tensor(param.value, self, param=param)
            self._reads[id(param)] = leaf
        return leaf

    def constant(self, value) -> Tensor:
        """A non-trainable input. Gradients reaching it are discarded."""
        arr = _as_f64(value)
        if not np.all(np.isfinite(arr)):
            raise NumericsError("constant input contains non-finite values")
        return Tensor(arr, self)

    @property
    def spent(self) -> bool:
        return self._spent

    def __len__(self):
        return len(self._entries)


def _record(tape: Tape, out_value: np.ndarray, inputs, vjp, op: str) -> Tensor:
    if not np.all(np.isfinite(out_value)):
        raise NumericsError(f"op {op!r} produced non-finite values")
    out = Tensor(out_value, tape)
    tape._entries.append((out, tuple(inputs), vjp))
    return out


def _coerce(tape: Tape, x) -> Tensor:
    """Accept a Tensor or a Parameter wherever an op input is expected."""
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise UsageError("tensors from different tapes cannot be combined")
        return x
    if isinstance(x, Parameter):
        return tape.read(x)
    raise UsageError(f"expected Tensor or Parameter, got {type(x).__name__}")


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate gradients of every Parameter read under `tape`.

    `loss` must be a scalar produced on this tape. Traverses the op record
    in exact reverse execution order.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape:
        raise UsageError("loss was not produced under this tape")
    if tape._spent:
        raise UsageError("backward already ran on this tape")
    if loss.value.shape != ():
        raise UsageError(f"loss must be scalar, got shape {loss.value.shape}")
    tape._spent = True

    loss.grad = np.ones((), dtype=DTYPE)
    for out, inputs, vjp in reversed(tape._entries):
        if out.grad is None:
            continue
        grads = vjp(out.grad)
        for tensor, grad in zip(inputs, grads):
            if grad is None:
                continue
            if tensor.grad is None:
                tensor.grad = np.zeros_like(tensor.value)
            tensor.grad += grad
    for leaf in tape._reads.values():
        if leaf.grad is not None:
            leaf.param.grad += leaf.grad


# ---------------------------------------------------------------------------
# structural ops


def add(a, b) -> Tensor:
    """Elementwise sum; shapes must match exactly."""
    tape = a.tape if isinstance(a, Tensor) else b.tape
    a, b = _coerce(tape, a), _coerce(tape, b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes {a.value.shape} and {b.value.shape} differ")
    return _record(tape, a.value + b.value, (a, b), lambda g: (g, g), "add")


def mul(a, b) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    tape = a.tape if isinstance(a, Tensor) else b.tape
    a, b = _coerce(tape, a), _coerce(tape, b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes {a.value.shape} and {b.value.shape} differ")
    av, bv = a.value, b.value
    return _record(tape, av * bv, (a, b), lambda g: (g * bv, g * av), "mul")


def one_minus(x) -> Tensor:
    """1 - x, elementwise."""
    x = _coerce(x.tape, x)
    return _record(x.tape, 1.0 - x.value, (x,), lambda g: (-g,), "one_minus")


def scale(x, factor: float) -> Tensor:
    """Multiply by a compile-time scalar constant."""
    x = _coerce(x.tape, x)
    factor = float(factor)
    return _record(x.tape, x.value * factor, (x,), lambda g: (g * factor,), "scale")


def add_bias(x, b) -> Tensor:
    """x + b where b is a vector applied along the last axis of x."""
    tape = x.tape if isinstance(x, Tensor) else b.tape
    x, b = _coerce(tape, x), _coerce(tape, b)
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
    tape = x.tape if isinstance(x, Tensor) else w.tape
    x, w = _coerce(tape, x), _coerce(tape, w)
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
    tape = a.tape if isinstance(a, Tensor) else b.tape
    a, b = _coerce(tape, a), _coerce(tape, b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2 or av.ndim != bv.ndim:
        raise ShapeError(f"bmatmul: ranks {av.ndim} and {bv.ndim} do not conform")
    if av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"bmatmul: shapes {av.shape} and {bv.shape} do not conform")

    def vjp(g):
        return g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g

    return _record(tape, av @ bv, (a, b), vjp, "bmatmul")


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate along one axis; all other extents must match."""
    tensors = [t for t in tensors]
    if not tensors:
        raise UsageError("concat of zero tensors")
    tape = tensors[0].tape
    tensors = [_coerce(tape, t) for t in tensors]
    values = [t.value for t in tensors]
    ndim = values[0].ndim
    ax = axis % ndim
    ref = list(values[0].shape)
    for v in values[1:]:
        if v.ndim != ndim or [s for i, s in enumerate(v.shape) if i != ax] != [
            s for i, s in enumerate(ref) if i != ax
        ]:
            raise ShapeError(f"concat: shape {v.shape} incompatible with {tuple(ref)}")
    sizes = [v.shape[ax] for v in values]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=ax))

    return _record(tape, np.concatenate(values, axis=ax), tensors, vjp, "concat")


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack same-shaped tensors along a new axis."""
    tensors = [t for t in tensors]
    if not tensors:
        raise UsageError("stack of zero tensors")
    tape = tensors[0].tape
    tensors = [_coerce(tape, t) for t in tensors]
    shape = tensors[0].value.shape
    for t in tensors[1:]:
        if t.value.shape != shape:
            raise ShapeError(f"stack: shape {t.value.shape} differs from {shape}")
    out = np.stack([t.value for t in tensors], axis=axis)
    ax = axis % out.ndim

    def vjp(g):
        return tuple(np.ascontiguousarray(np.take(g, i, axis=ax)) for i in range(len(tensors)))

    return _record(tape, out, tensors, vjp, "stack")


def select(x, axis: int, index: int) -> Tensor:
    """Take a single slice along `axis`, removing that axis."""
    x = _coerce(x.tape, x)
    ax = axis % x.value.ndim
    n = x.value.shape[ax]
    if not (0 <= index < n):
        raise ShapeError(f"select: index {index} out of range for axis extent {n}")
    xshape = x.value.shape

    def vjp(g):
        gx = np.zeros(xshape, dtype=DTYPE)
        idx = [slice(None)] * len(xshape)
        idx[ax] = index
        gx[tuple(idx)] = g
        return (gx,)

    return _record(x.tape, np.take(x.value, index, axis=ax).copy(), (x,), vjp, "select")


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    x = _coerce(x.tape, x)
    ax = axis % x.value.ndim
    n = x.value.shape[ax]
    if start < 0 or length < 0 or start + length > n:
        raise ShapeError(f"narrow: [{start}, {start + length}) out of range for extent {n}")
    xshape = x.value.shape
    idx = [slice(None)] * len(xshape)
    idx[ax] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        gx = np.zeros(xshape, dtype=DTYPE)
        gx[idx] = g
        return (gx,)

    return _record(x.tape, x.value[idx].copy(), (x,), vjp, "narrow")


def mean_axis(x, axis: int) -> Tensor:
    """Arithmetic mean along one axis."""
    x = _coerce(x.tape, x)
    ax = axis % x.value.ndim
    n = x.value.shape[ax]
    if n == 0:
        raise ShapeError("mean_axis over empty axis")

    def vjp(g):
        return (np.repeat(np.expand_dims(g / n, ax), n, axis=ax),)

    return _record(x.tape, x.value.mean(axis=ax), (x,), vjp, "mean_axis")


def mean_all(x) -> Tensor:
    """Mean of every element, producing a scalar."""
    x = _coerce(x.tape, x)
    n = x.value.size
    if n == 0:
        raise ShapeError("mean_all of empty tensor")
    xshape = x.value.shape

    def vjp(g):
        return (np.full(xshape, float(g) / n, dtype=DTYPE),)

    return _record(x.tape, x.value.mean(), (x,), vjp, "mean_all")


# ---------------------------------------------------------------------------
# elementwise nonlinearities

SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717


def sigmoid(x) -> Tensor:
    x = _coerce(x.tape, x)
    v = x.value
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return _record(x.tape, out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def tanh(x) -> Tensor:
    x = _coerce(x.tape, x)
    out = np.tanh(x.value)
    return _record(x.tape, out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def relu(x) -> Tensor:
    x = _coerce(x.tape, x)
    v = x.value
    out = np.maximum(v, 0.0)
    return _record(x.tape, out, (x,), lambda g: (g * (v > 0.0),), "relu")


def elu(x) -> Tensor:
    """ELU with alpha = 1."""
    x = _coerce(x.tape, x)
    v = x.value
    neg = v <= 0.0
    ev = np.exp(np.minimum(v, 0.0))
    out = np.where(neg, ev - 1.0, v)
    dv = np.where(neg, ev, 1.0)
    return _record(x.tape, out, (x,), lambda g: (g * dv,), "elu")


def selu(x) -> Tensor:
    """Self-normalizing ELU with the standard (lambda, alpha) constants."""
    x = _coerce(x.tape, x)
    v = x.value
    neg = v <= 0.0
    ev = np.exp(np.minimum(v, 0.0))
    out = SELU_LAMBDA * np.where(neg, SELU_ALPHA * (ev - 1.0), v)
    dv = SELU_LAMBDA * np.where(neg, SELU_ALPHA * ev, 1.0)
    return _record(x.tape, out, (x,), lambda g: (g * dv,), "selu")


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
