"""Gradient-descent optimizers: sgd, adam, rmsprop, adadelta.

All updates are the textbook forms. Their hyperparameters are the module
constants BETA1, BETA2 and ADAM_EPS (adam), RMS_RHO and RMS_EPS (rmsprop),
and ADA_RHO and ADA_EPS (adadelta); only the learning rate is set per
optimizer. Auxiliary buffers are keyed by parameter name, so names must be
unique within one optimizer. An update runs in place over blocks of BLOCK
elements, with the bits of the whole-array expression, and zeroes each
gradient block after it (see `step`), so one parameter can span a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, UsageError
from .engine import DTYPE, Parameter

DEFAULT_LEARNING_RATES = {
    "sgd": 0.01,
    "adam": 0.001,
    "rmsprop": 0.001,
    "adadelta": 1.0,
}

ALGORITHMS = tuple(DEFAULT_LEARNING_RATES)

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
RMS_RHO = 0.9
RMS_EPS = 1e-7
ADA_RHO = 0.95
ADA_EPS = 1e-6

# elements per pass of an update: a block of each array it touches (at most
# six, 128 KB each) stays in a core's L2 cache between its operations
BLOCK = 16384


@dataclass
class OptimizerState:
    algorithm: str
    learning_rate: float
    step_count: int = 0
    slots: dict = field(default_factory=dict)
    scratch: np.ndarray | None = field(default=None, repr=False)

    def slot(self, param: Parameter, name: str) -> np.ndarray:
        key = (param.name, name)
        buf = self.slots.get(key)
        if buf is None:
            buf = self.slots[key] = np.zeros_like(param.value)
        elif buf.shape != param.value.shape:
            raise UsageError(f"optimizer holds {name!r} of parameter {param.name!r} in shape "
                             f"{buf.shape}, but the parameter has shape {param.value.shape}")
        return buf


def make_optimizer(algorithm: str, learning_rate: float | None = None) -> OptimizerState:
    """Optimizer state for one algorithm. The learning rate defaults to the
    algorithm's; it must be finite and not negative (0 holds every
    parameter where it is)."""
    if algorithm not in ALGORITHMS:
        raise UsageError(f"unknown optimizer {algorithm!r}; choose from {ALGORITHMS}")
    if learning_rate is None:
        learning_rate = DEFAULT_LEARNING_RATES[algorithm]
    learning_rate = float(learning_rate)
    if not (math.isfinite(learning_rate) and learning_rate >= 0.0):
        raise ConfigError(f"learning rate must be finite and not negative, got {learning_rate}")
    return OptimizerState(algorithm=algorithm, learning_rate=learning_rate)


def step(opt: OptimizerState, params: list[Parameter]) -> None:
    """Apply one update to every parameter from its accumulated gradient,
    zeroing each gradient block right after its update, while in cache.

    Each update runs its algorithm's textbook expression, operation by
    operation in Python's evaluation order, in place over consecutive
    blocks of BLOCK elements: every intermediate lands in one of two
    block-sized scratch rows that the optimizer keeps, so a step allocates
    nothing after the first and gives the bits of the whole-array form.
    A slot held in another shape than its parameter's is a UsageError.
    """
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise UsageError("parameter names must be unique within an optimizer step")
    try:
        update, slot_names = _UPDATES[opt.algorithm]
    except KeyError:  # make_optimizer validates; a hand-built state may not be
        raise UsageError(f"unknown optimizer {opt.algorithm!r}") from None
    work = [[p.value, p.grad] + [opt.slot(p, name) for name in slot_names] for p in params]
    opt.step_count += 1
    if opt.scratch is None:
        opt.scratch = np.empty((2, BLOCK), dtype=DTYPE)
    lr, t = opt.learning_rate, opt.step_count
    a, b = opt.scratch
    for arrays in work:
        flat = [x.reshape(-1) for x in arrays]
        for lo in range(0, flat[0].size, BLOCK):
            blocks = [x[lo : lo + BLOCK] for x in flat]
            n = blocks[0].size
            update(*blocks, a[:n], b[:n], lr, t)
            blocks[1].fill(0.0)


# Each update takes one block of the parameter, its gradient and its slots,
# then the scratch rows a and b. The comment above each is the whole-array
# expression it computes, bit for bit.


def _sgd(p, g, a, b, lr, t):
    # p -= lr * g
    np.multiply(lr, g, out=a)
    p -= a


def _adam(p, g, m, v, a, b, lr, t):
    # m *= BETA1; m += (1 - BETA1) * g; v *= BETA2; v += (1 - BETA2) * g * g
    # p -= lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + ADAM_EPS)
    m *= BETA1
    np.multiply(1.0 - BETA1, g, out=a)
    m += a
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=a)
    a *= g
    v += a
    np.divide(m, 1.0 - BETA1 ** t, out=a)
    np.multiply(lr, a, out=a)
    np.divide(v, 1.0 - BETA2 ** t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    p -= a


def _rmsprop(p, g, acc, a, b, lr, t):
    # acc *= RMS_RHO; acc += (1 - RMS_RHO) * g * g
    # p -= lr * g / (sqrt(acc) + RMS_EPS)
    acc *= RMS_RHO
    np.multiply(1.0 - RMS_RHO, g, out=a)
    a *= g
    acc += a
    np.multiply(lr, g, out=a)
    np.sqrt(acc, out=b)
    b += RMS_EPS
    a /= b
    p -= a


def _adadelta(p, g, acc, acc_delta, a, b, lr, t):
    # acc *= ADA_RHO; acc += (1 - ADA_RHO) * g * g
    # delta = -sqrt(acc_delta + ADA_EPS) / sqrt(acc + ADA_EPS) * g
    # acc_delta *= ADA_RHO; acc_delta += (1 - ADA_RHO) * delta * delta
    # p += lr * delta
    acc *= ADA_RHO
    np.multiply(1.0 - ADA_RHO, g, out=a)
    a *= g
    acc += a
    np.add(acc_delta, ADA_EPS, out=a)
    np.sqrt(a, out=a)
    np.negative(a, out=a)
    np.add(acc, ADA_EPS, out=b)
    np.sqrt(b, out=b)
    a /= b
    a *= g  # delta
    acc_delta *= ADA_RHO
    np.multiply(1.0 - ADA_RHO, a, out=b)
    b *= a
    acc_delta += b
    np.multiply(lr, a, out=a)
    p += a


_UPDATES = {
    "sgd": (_sgd, ()),
    "adam": (_adam, ("m", "v")),
    "rmsprop": (_rmsprop, ("acc",)),
    "adadelta": (_adadelta, ("acc", "acc_delta")),
}
