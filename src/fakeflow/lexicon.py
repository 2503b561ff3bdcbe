"""Affect lexicons and the 23-dimensional per-segment feature matrix.

Feature layout (fixed): 8 emotion categories, 2 sentiment polarities,
10 moral foundation categories, imageability, abstractness, hyperbolic.
Categorical features are token-occurrence counts divided by the original
document length; the two rating features are rating sums divided by the
same length. Tokens may belong to several categories and contribute to
each of them.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import SegmentedDocument
from .errors import ConfigError, ParseError, UsageError

logger = logging.getLogger(__name__)

EMOTION_CATEGORIES = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "sadness",
    "surprise",
    "trust",
)
SENTIMENT_CATEGORIES = ("positive", "negative")
MORALITY_CATEGORIES = (
    "care",
    "harm",
    "fairness",
    "unfairness",
    "loyalty",
    "betrayal",
    "authority",
    "subversion",
    "sanctity",
    "degradation",
)
RATING_FEATURES = ("imageability", "abstractness")
HYPERBOLIC_FEATURE = "hyperbolic"

FEATURE_NAMES = (
    EMOTION_CATEGORIES + SENTIMENT_CATEGORIES + MORALITY_CATEGORIES
    + RATING_FEATURES + (HYPERBOLIC_FEATURE,)
)
N_FEATURES = len(FEATURE_NAMES)  # 23

_IMAGEABILITY_IDX = FEATURE_NAMES.index("imageability")
_ABSTRACTNESS_IDX = FEATURE_NAMES.index("abstractness")


def feature_names() -> tuple[str, ...]:
    """The 23 feature labels in their fixed order."""
    return FEATURE_NAMES


@dataclass
class CategoryLexicon:
    """Named category -> word-set map; a word may appear in several
    categories."""

    name: str
    categories: dict[str, set]

    def words(self) -> set:
        out = set()
        for members in self.categories.values():
            out |= members
        return out


@dataclass
class RatingLexicon:
    """Word -> non-negative rating."""

    name: str
    ratings: dict[str, float]


@dataclass
class LexiconSet:
    emotions: CategoryLexicon
    sentiment: CategoryLexicon
    morality: CategoryLexicon
    imageability: RatingLexicon
    abstractness: RatingLexicon
    hyperbolic: CategoryLexicon
    # token -> (category feature indices, imageability rating, abstractness rating)
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        for lex, expected in (
            (self.emotions, EMOTION_CATEGORIES),
            (self.sentiment, SENTIMENT_CATEGORIES),
            (self.morality, MORALITY_CATEGORIES),
        ):
            missing = set(expected) - set(lex.categories)
            if missing:
                raise ConfigError(
                    f"lexicon {lex.name!r} is missing categories: {sorted(missing)}"
                )
        self._index = {}
        offset = 0
        for lex, order in (
            (self.emotions, EMOTION_CATEGORIES),
            (self.sentiment, SENTIMENT_CATEGORIES),
            (self.morality, MORALITY_CATEGORIES),
        ):
            for k, category in enumerate(order):
                for word in lex.categories[category]:
                    self._entry(word)[0].append(offset + k)
            offset += len(order)
        for word, rating in self.imageability.ratings.items():
            self._entry(word)[1] = rating
        for word, rating in self.abstractness.ratings.items():
            self._entry(word)[2] = rating
        hyper_idx = FEATURE_NAMES.index(HYPERBOLIC_FEATURE)
        for members in self.hyperbolic.categories.values():
            for word in members:
                self._entry(word)[0].append(hyper_idx)

    def _entry(self, word: str):
        entry = self._index.get(word)
        if entry is None:
            entry = [[], None, None]
            self._index[word] = entry
        return entry

    def token_categories(self, token: str) -> list[str]:
        """All emotion/morality/hyperbolic category names the token matches
        (used for text highlighting; sentiment and ratings excluded)."""
        entry = self._index.get(token)
        if entry is None:
            return []
        skip = set(range(len(EMOTION_CATEGORIES), len(EMOTION_CATEGORIES) + 2))
        return [FEATURE_NAMES[i] for i in entry[0] if i not in skip]


@dataclass
class AffectFeatureMatrix:
    values: np.ndarray  # (N, 23) float64
    feature_names: tuple[str, ...] = FEATURE_NAMES


def load_category_lexicon(path, fmt: str = "nrc", name: str | None = None) -> CategoryLexicon:
    """Load a categorical lexicon.

    fmt="nrc": TSV rows `word<TAB>category<TAB>flag`, flag in {0,1}; only
    flag=1 rows are ingested. fmt="wordlist": one word per line, all
    assigned to a single category named after the lexicon.
    """
    if name is None:
        name = os.path.splitext(os.path.basename(str(path)))[0]
    categories: dict[str, set] = {}
    if fmt == "nrc":
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ParseError(f"{path}:{lineno}: expected word<TAB>category<TAB>flag")
                word, category, flag = parts
                if flag not in ("0", "1"):
                    raise ParseError(f"{path}:{lineno}: flag must be 0 or 1, got {flag!r}")
                if flag == "1":
                    categories.setdefault(category, set()).add(word.lower())
    elif fmt == "wordlist":
        members = set()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                word = line.strip().lower()
                if word:
                    members.add(word)
        if members:
            categories[name] = members
    else:
        raise ParseError(f"unknown category lexicon format {fmt!r}")
    if not categories:
        raise ParseError(f"{path}: lexicon contains no categories")
    return CategoryLexicon(name=name, categories=categories)


def load_rating_lexicon(path, name: str | None = None) -> RatingLexicon:
    """TSV rows `word<TAB>rating` with finite ratings >= 0.

    Duplicate words keep the last rating, with a warning.
    """
    if name is None:
        name = os.path.splitext(os.path.basename(str(path)))[0]
    ratings: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected word<TAB>rating")
            word, raw = parts
            try:
                rating = float(raw)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: rating {raw!r} is not a number") from None
            if not np.isfinite(rating) or rating < 0:
                raise ParseError(f"{path}:{lineno}: rating must be finite and >= 0, got {raw}")
            word = word.lower()
            if word in ratings:
                logger.warning("%s:%d: duplicate rating for %r, keeping the last", path, lineno, word)
            ratings[word] = rating
    return RatingLexicon(name=name, ratings=ratings)


def load_lexicon_set(manifest_path) -> LexiconSet:
    """Assemble the five lexicons from a JSON manifest.

    Manifest keys: emotions, sentiment, morality, imageability,
    abstractness, hyperbolic. Each value is a path string or an object
    {"path": ..., "format": ...}. Relative paths resolve against the
    manifest's directory. Category lexicons are filtered to their expected
    categories, so one NRC file can serve both emotions and sentiment.
    """
    import os

    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{manifest_path}: invalid manifest JSON: {exc}") from exc
    base = os.path.dirname(os.path.abspath(str(manifest_path)))

    def resolve(key, default_fmt):
        if key not in manifest:
            raise ConfigError(f"{manifest_path}: manifest is missing {key!r}")
        spec = manifest[key]
        if isinstance(spec, str):
            spec = {"path": spec}
        path = spec["path"]
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        return path, spec.get("format", default_fmt)

    def category(key, expected):
        path, fmt = resolve(key, "nrc")
        lex = load_category_lexicon(path, fmt=fmt, name=key)
        kept = {c: lex.categories[c] for c in expected if c in lex.categories}
        return CategoryLexicon(name=key, categories=kept)

    emotions = category("emotions", EMOTION_CATEGORIES)
    sentiment = category("sentiment", SENTIMENT_CATEGORIES)
    morality = category("morality", MORALITY_CATEGORIES)
    hyper_path, hyper_fmt = resolve("hyperbolic", "wordlist")
    hyperbolic = load_category_lexicon(hyper_path, fmt=hyper_fmt, name=HYPERBOLIC_FEATURE)
    if hyper_fmt == "wordlist":
        hyperbolic = CategoryLexicon(
            name=HYPERBOLIC_FEATURE,
            categories={HYPERBOLIC_FEATURE: hyperbolic.words()},
        )
    img_path, _ = resolve("imageability", "tsv")
    abs_path, _ = resolve("abstractness", "tsv")
    return LexiconSet(
        emotions=emotions,
        sentiment=sentiment,
        morality=morality,
        imageability=load_rating_lexicon(img_path, name="imageability"),
        abstractness=load_rating_lexicon(abs_path, name="abstractness"),
        hyperbolic=hyperbolic,
    )


def extract_affect(seg: SegmentedDocument, lex: LexiconSet) -> AffectFeatureMatrix:
    """Compute the N x 23 affect matrix for a segmented document.

    Row i depends only on the tokens of segment i; every value is divided
    by the original (pre-truncation) document token count.
    """
    if seg.doc_length < 1:
        raise UsageError("document length must be >= 1")
    values = np.zeros((seg.n_segments, N_FEATURES), dtype=np.float64)
    index = lex._index
    offsets = seg.offsets.tolist()
    for i in range(seg.n_segments):
        out = values[i]
        for tok in seg.tokens[offsets[i] : offsets[i + 1]]:
            entry = index.get(tok)
            if entry is None:
                continue
            for k in entry[0]:
                out[k] += 1.0
            if entry[1] is not None:
                out[_IMAGEABILITY_IDX] += entry[1]
            if entry[2] is not None:
                out[_ABSTRACTNESS_IDX] += entry[2]
    values /= seg.doc_length
    return AffectFeatureMatrix(values=values)
