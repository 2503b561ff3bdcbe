"""Shared fixtures: toy lexicons, synthetic corpora, and the central
finite-difference gradient oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

import fakeflow.tensor as tz
from fakeflow.lexicon import (
    EMOTION_CATEGORIES,
    MORALITY_CATEGORIES,
    SENTIMENT_CATEGORIES,
    CategoryLexicon,
    LexiconSet,
    RatingLexicon,
)


def numeric_gradient(func, array: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. `array`,
    mutating it in place element by element and restoring it."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = func()
        flat[i] = orig - step
        lo = func()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def bigru_params(draw, units: int, feat: int) -> list:
    """tz.bigru's four stacked Parameters (w, b, u_zr, u_h), drawn gate by
    gate: draw(shape) gives each direction's W_z, U_z, b_z, W_r, U_r, b_r,
    W_h, U_h, b_h in that order, the forward direction first."""
    shapes = [(units, feat), (units, units), (units,)] * 3
    cells = [[draw(shape) for shape in shapes] for _ in range(2)]
    return [tz.Parameter(name, value)
            for name, value in zip(("gru_w", "gru_b", "gru_u_zr", "gru_u_h"), tz.stack_gru(cells))]


def gru_gates(params, direction: int) -> list:
    """One direction's nine per-gate views W_z, U_z, b_z, W_r, U_r, b_r,
    W_h, U_h, b_h of bigru's stacked (w, b, u_zr, u_h) Parameters."""
    w, b, u_zr, u_h = (p.value[direction] for p in params)
    units = len(u_h)
    gates = []
    for i in range(3):
        rows = slice(i * units, (i + 1) * units)
        gates += [w[rows], u_zr[rows] if i < 2 else u_h, b[rows]]
    return gates


def segment_tokens(seg) -> list[list[str]]:
    """The token list of every segment of a SegmentedDocument."""
    bounds = seg.offsets.tolist()
    return [seg.tokens[a:b] for a, b in zip(bounds, bounds[1:])]


# any JSON value, for fuzzing the files the toolkit reads
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def overflowing(model):
    """Give `model` finite weights whose class logits overflow: every
    v_final entry is act(1) > 0.7 and every softmax weight 1e308."""
    model.out_w.assign(np.zeros(model.out_w.shape))
    model.out_b.assign(np.ones(model.out_b.shape))
    model.cls_w.assign(np.full(model.cls_w.shape, 1e308))
    return model


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.abs(numeric) + 1e-8
    return float(np.max(np.abs(analytic - numeric) / denom))


def build_lexicon_set(
    emotions: dict | None = None,
    sentiment: dict | None = None,
    morality: dict | None = None,
    imageability: dict | None = None,
    abstractness: dict | None = None,
    hyperbolic: set | None = None,
) -> LexiconSet:
    """A full LexiconSet with every expected category present; unspecified
    categories are empty."""
    emo = {c: set() for c in EMOTION_CATEGORIES}
    emo.update(emotions or {})
    sen = {c: set() for c in SENTIMENT_CATEGORIES}
    sen.update(sentiment or {})
    mor = {c: set() for c in MORALITY_CATEGORIES}
    mor.update(morality or {})
    return LexiconSet(
        emotions=CategoryLexicon(name="emotions", categories=emo),
        sentiment=CategoryLexicon(name="sentiment", categories=sen),
        morality=CategoryLexicon(name="morality", categories=mor),
        imageability=RatingLexicon(name="imageability", ratings=dict(imageability or {})),
        abstractness=RatingLexicon(name="abstractness", ratings=dict(abstractness or {})),
        hyperbolic=CategoryLexicon(
            name="hyperbolic", categories={"hyperbolic": set(hyperbolic or set())}
        ),
    )


@pytest.fixture
def toy_lexicons() -> LexiconSet:
    return build_lexicon_set(
        emotions={
            "fear": {"attack", "kill", "panic", "terror"},
            "joy": {"smile", "cheer", "delight"},
            "sadness": {"kill", "grief"},
        },
        sentiment={"positive": {"smile", "cheer"}, "negative": {"attack", "kill"}},
        morality={"harm": {"kill", "attack"}, "care": {"nurse"}},
        imageability={"dog": 0.9, "smile": 0.5},
        abstractness={"idea": 0.8, "terror": 0.3},
        hyperbolic={"terrifying", "breathtakingly"},
    )


FEAR_WORDS = tuple(f"fearword{i}" for i in range(6))
JOY_WORDS = tuple(f"joyword{i}" for i in range(6))
FILLER_WORDS = tuple(f"filler{i}" for i in range(20))


def flow_lexicons() -> LexiconSet:
    """Lexicons for the synthetic flow corpus."""
    return build_lexicon_set(
        emotions={"fear": set(FEAR_WORDS), "joy": set(JOY_WORDS)},
    )


def make_flow_document(rng: np.random.Generator, label: str, n_segments: int = 10,
                       seg_tokens: int = 24) -> list[str]:
    """One synthetic document with exactly n_segments * seg_tokens tokens.

    Label "fake" concentrates fear words in the first 3 segments and joy
    words in the last 3; label "real" spreads both uniformly. The per-class
    distributions of total fear/joy counts are identical, so only the
    position signal separates the classes.
    """
    n_fear = int(rng.integers(18, 31))
    n_joy = int(rng.integers(18, 31))
    if label == "fake":
        fear_weights = np.array([4.0] * 3 + [0.3] * (n_segments - 3))
        joy_weights = np.array([0.3] * (n_segments - 3) + [4.0] * 3)
    else:
        fear_weights = np.ones(n_segments)
        joy_weights = np.ones(n_segments)
    fear_weights = fear_weights / fear_weights.sum()
    joy_weights = joy_weights / joy_weights.sum()

    capacity = np.full(n_segments, seg_tokens)
    fear_counts = rng.multinomial(n_fear, fear_weights)
    joy_counts = rng.multinomial(n_joy, joy_weights)
    # clamp pathological draws so a segment never overflows
    while np.any(fear_counts + joy_counts > capacity):
        over = np.argmax(fear_counts + joy_counts - capacity)
        if fear_counts[over] > 0:
            fear_counts[over] -= 1
        else:
            joy_counts[over] -= 1

    tokens = []
    for s in range(n_segments):
        seg = (
            [str(rng.choice(FEAR_WORDS)) for _ in range(fear_counts[s])]
            + [str(rng.choice(JOY_WORDS)) for _ in range(joy_counts[s])]
        )
        seg += [str(rng.choice(FILLER_WORDS)) for _ in range(seg_tokens - len(seg))]
        rng.shuffle(seg)
        tokens.extend(seg)
    return tokens


def make_flow_corpus(n_docs: int, seed: int = 0, n_segments: int = 10,
                     seg_tokens: int = 24) -> list[tuple[str, list[str], str]]:
    """Balanced corpus of (doc_id, tokens, label) with the positional
    affect signal."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        label = "fake" if i % 2 == 0 else "real"
        tokens = make_flow_document(rng, label, n_segments, seg_tokens)
        docs.append((f"doc{i:04d}", tokens, label))
    return docs
