"""Gradient-descent optimizers: sgd, adam, rmsprop, adadelta.

All updates are the textbook forms. Their hyperparameters are the module
constants BETA1, BETA2 and ADAM_EPS (adam), RMS_RHO and RMS_EPS (rmsprop),
and ADA_RHO and ADA_EPS (adadelta); only the learning rate is set per
optimizer. Auxiliary buffers are keyed by parameter name, so names must be
unique within one optimizer. Gradients are zeroed after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, UsageError
from .engine import Parameter

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


@dataclass
class OptimizerState:
    algorithm: str
    learning_rate: float
    step_count: int = 0
    slots: dict = field(default_factory=dict)

    def slot(self, param: Parameter, name: str) -> np.ndarray:
        key = (param.name, name)
        buf = self.slots.get(key)
        if buf is None:
            buf = np.zeros_like(param.value)
            self.slots[key] = buf
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
    then zero the gradients."""
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise UsageError("parameter names must be unique within an optimizer step")
    opt.step_count += 1
    lr = opt.learning_rate
    for p in params:
        g = p.grad
        if opt.algorithm == "sgd":
            p.value -= lr * g
        elif opt.algorithm == "adam":
            m = opt.slot(p, "m")
            v = opt.slot(p, "v")
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** opt.step_count)
            v_hat = v / (1.0 - BETA2 ** opt.step_count)
            p.value -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        elif opt.algorithm == "rmsprop":
            acc = opt.slot(p, "acc")
            acc *= RMS_RHO
            acc += (1.0 - RMS_RHO) * g * g
            p.value -= lr * g / (np.sqrt(acc) + RMS_EPS)
        elif opt.algorithm == "adadelta":
            acc = opt.slot(p, "acc")
            acc_delta = opt.slot(p, "acc_delta")
            acc *= ADA_RHO
            acc += (1.0 - ADA_RHO) * g * g
            delta = -np.sqrt(acc_delta + ADA_EPS) / np.sqrt(acc + ADA_EPS) * g
            acc_delta *= ADA_RHO
            acc_delta += (1.0 - ADA_RHO) * delta * delta
            p.value += lr * delta
        else:  # unreachable; make_optimizer validates
            raise UsageError(f"unknown optimizer {opt.algorithm!r}")
    for p in params:
        p.zero_grad()
