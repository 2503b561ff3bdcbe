"""A fixed calibration load that tracks how fast the machine runs right now.

On a shared host the same code runs up to twice as fast in one second as
in the next, because other tenants contend for the same cores, caches
and memory. The benchmark runs this calibration load before and after
every unit of work, and divides each timing sample by the machine's
slowness around it: the calibration's mean time before and after the
unit over NOMINAL_S. A metric then reads as it would on a machine that
runs the calibration in NOMINAL_S, and slow and fast stretches of the
host largely cancel out.

The load uses only the standard library and numpy, never fakeflow, so a
change to the program cannot move it. It mirrors what the program spends
its time on, because code of different kinds slows by different amounts
when the host is busy: interpreter arithmetic, tokenizing and dict
counting, numpy scalar indexing in a list comprehension (as in
corpus.encode), chains of small-array numpy calls (as in a forward pass
on the tape), dict lookups and array passes over a working set larger
than the caches. The first part runs once, as the program's code runs,
after whatever ran before; the second runs twice and is timed the second
time, so it sees its own cache misses rather than the program's. The
collector is off while it runs, so the size of the program's heap does
not show. Its arrays and tables hold about 12 MB.
"""

from __future__ import annotations

import gc
import re
import time

import numpy as np

# The calibration's typical time on the machine the benchmark was tuned on
# (2-vCPU VM, Python 3.11, numpy 2.4). Any constant would do: it only sets
# the scale in which the corrected metrics read.
NOMINAL_S = 0.017

_rng = np.random.default_rng(0)
_WORDS = [f"w{i:05d}" for i in range(20_000)]
_TABLE = {w: i for i, w in enumerate(_WORDS)}
_TEXT = " ".join(_WORDS[int(j)] + ("," if j % 13 == 0 else "")
                 for j in _rng.integers(0, len(_WORDS), 1_500)).title()
_TOKEN = re.compile(r"[a-z0-9]+")
_A = _rng.standard_normal((32, 32)) * 0.1
_X = _rng.standard_normal((8, 32))
_H = np.empty_like(_X)
_Y = np.empty_like(_X)
_MASK = _rng.random((10, 800)) < 0.5
_ROWS = [[f"t{i}" for i in range(800)] for _ in range(10)]
_W = _rng.standard_normal((32, 16))
_XS = [_rng.standard_normal((n, 32)) for n in (3, 7, 12, 20)]
_BIG = {int(k): i for i, k in enumerate(_rng.permutation(100_000) * 7)}
_KEYS = [int(k) * 7 for k in _rng.integers(0, 100_000, 10_000)]
_ARRAY = np.zeros(1 << 19)


def _program_like() -> None:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    counts: dict[int, int] = {}
    for tok in _TOKEN.findall(_TEXT.lower()):
        k = _TABLE.get(tok, 1)
        counts[k] = counts.get(k, 0) + 1
    h = _X
    for _ in range(150):
        h = np.tanh(h @ _A) + _X
    for i, row in enumerate(_ROWS):
        [7 if _MASK[i, j] else 0 for j, _tok in enumerate(row)]
    for _ in range(40):
        for x in _XS:
            h = np.maximum(x @ _W, 0.0)
            m = h.max(axis=0)
            z = np.concatenate([m, m[::-1]])
            e = np.exp(z - z.max())
            e /= e.sum()
            np.where(e > 0.05, e, 0.0).reshape(2, -1).sum(axis=1)


def _working_set() -> None:
    s = 0
    for i in range(5_000):
        s ^= i & 255
    for k in _KEYS:
        s ^= _BIG[k]
    h, y = _H, _Y
    h[...] = _X
    for _ in range(75):
        np.matmul(h, _A, out=y)
        np.tanh(y, out=y)
        np.add(y, _X, out=h)
    np.add(_ARRAY, 1.0, out=_ARRAY)


def load() -> float:
    """Run the calibration load; return its timed wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _program_like()
        total = time.perf_counter() - start
        _working_set()
        start = time.perf_counter()
        _working_set()
        return total + time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
