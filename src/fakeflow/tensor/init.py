"""Weight initializers. All draws come from a caller-supplied Generator so
model construction is reproducible from a single seed."""

from __future__ import annotations

import numpy as np

from .engine import DTYPE


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(DTYPE, copy=False)


def dense_weight(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    return glorot_uniform(rng, (out_dim, in_dim), fan_in=in_dim, fan_out=out_dim)


def conv_filters(rng: np.random.Generator, n_filters: int, width: int, in_dim: int) -> np.ndarray:
    return glorot_uniform(
        rng, (n_filters, width, in_dim), fan_in=width * in_dim, fan_out=width * n_filters
    )


def embedding_table(rng: np.random.Generator, vocab: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=(vocab, dim)).astype(DTYPE, copy=False)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)
