"""Affect lexicons and the 23-dimensional per-segment feature matrix.

Feature layout (fixed): 8 emotion categories, 2 sentiment polarities,
10 moral foundation categories, imageability, abstractness, hyperbolic.
Categorical features are token-occurrence counts divided by the original
document length; the two rating features are rating sums divided by the
same length. Tokens may belong to several categories and contribute to
each of them.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .corpus import (
    UNK_ID,
    SegmentedDocument,
    SegmentedGroup,
    TokenizedDocument,
    read_json,
    read_text,
    segment_groups,
)
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

# the features a highlighted token is labeled with
_HIGHLIGHTED = [
    k for k, name in enumerate(FEATURE_NAMES)
    if name not in SENTIMENT_CATEGORIES + RATING_FEATURES
]


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
    """The five lexicons, compiled into one sparse word x feature weight
    matrix.

    `_rows` maps each lexicon word to a row r >= 1 of a (words + 1, 23)
    matrix; row 0 stands for every other word and is empty. A word's row
    holds what one occurrence of it adds to each feature: 1.0 per category
    it belongs to (a hyperbolic word counts once whatever its hyperbolic
    categories) and its imageability and abstractness ratings. The matrix
    is kept in compressed sparse row form: row r's nonzero weights, in
    feature order, are `_values[_indptr[r]:_indptr[r + 1]]`, for the
    features at the same positions of `_features`. A lexicon word has
    about two.

    `vocabulary_rows` keeps, for the last vocabulary token map it met, the
    lexicon row of each of its ids, so that preparation looks a token up
    by string only once, in the vocabulary. The map is recognised by its
    identity and length: do not edit a vocabulary's token map in place
    after preparing with it.
    """

    emotions: CategoryLexicon
    sentiment: CategoryLexicon
    morality: CategoryLexicon
    imageability: RatingLexicon
    abstractness: RatingLexicon
    hyperbolic: CategoryLexicon
    _rows: dict = field(init=False, repr=False, compare=False)
    _indptr: np.ndarray = field(init=False, repr=False, compare=False)
    _features: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _vocab_table: tuple = field(default=(None, 0, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = (
            (self.emotions, EMOTION_CATEGORIES),
            (self.sentiment, SENTIMENT_CATEGORIES),
            (self.morality, MORALITY_CATEGORIES),
        )
        for lex, expected in groups:
            missing = set(expected) - set(lex.categories)
            if missing:
                raise ConfigError(
                    f"lexicon {lex.name!r} is missing categories: {sorted(missing)}"
                )
        # one {word: weight} map per feature, in FEATURE_NAMES order
        columns = [dict.fromkeys(lex.categories[c], 1.0) for lex, order in groups for c in order]
        columns += [
            self.imageability.ratings,
            self.abstractness.ratings,
            dict.fromkeys(self.hyperbolic.words(), 1.0),
        ]
        words = dict.fromkeys(chain.from_iterable(columns))  # in order of first appearance
        self._rows = {word: row for row, word in enumerate(words, start=1)}
        rows = np.concatenate([np.fromiter(map(self._rows.__getitem__, column), np.intp,
                                           len(column)) for column in columns])
        features = np.repeat(np.arange(N_FEATURES), [len(column) for column in columns])
        values = np.concatenate([np.fromiter(column.values(), np.float64, len(column))
                                 for column in columns])
        nonzero = values != 0
        rows, features, values = rows[nonzero], features[nonzero], values[nonzero]
        order = np.argsort(rows, kind="stable")  # by row; each row's features stay in order
        self._features, self._values = features[order], values[order]
        self._indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=len(self._rows) + 1))))

    def token_rows(self, tokens: list[str]) -> np.ndarray:
        """The intp lexicon row of each token, one dict lookup per token."""
        return np.fromiter(map(self._rows.get, tokens, repeat(0)), dtype=np.intp,
                           count=len(tokens))

    def vocabulary_rows(self, token_to_id: dict[str, int]) -> np.ndarray:
        """The (max id + 1,) intp table of the lexicon row of each id of a
        vocabulary's token map, built from one lookup per type.

        -1 marks the ids whose tokens must still be looked up by string:
        UNK_ID, and an id the map gives to tokens with different rows. An
        id no token has reads 0. The table of the last map is kept, and
        returned again for the same map object at the same length.
        """
        known, size, table = self._vocab_table
        if known is token_to_id and size == len(token_to_id):
            return table
        ids = np.fromiter(token_to_id.values(), dtype=np.intp, count=len(token_to_id))
        if ids.size and ids.min() < 0:
            raise UsageError(f"vocabulary ids must be >= 0, got {int(ids.min())}")
        rows = self.token_rows(list(token_to_id))
        table = np.zeros(int(ids.max(initial=UNK_ID)) + 1, dtype=np.intp)
        table[ids] = rows
        table[ids[table[ids] != rows]] = -1
        table[UNK_ID] = -1
        self._vocab_table = (token_to_id, len(token_to_id), table)
        return table

    def token_categories(self, token: str) -> list[str]:
        """All emotion/morality/hyperbolic category names the token matches
        (used for text highlighting; sentiment and ratings excluded)."""
        row = self._rows.get(token, 0)
        features = self._features[self._indptr[row]:self._indptr[row + 1]].tolist()
        return [FEATURE_NAMES[k] for k in _HIGHLIGHTED if k in features]


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
        for lineno, line in enumerate(read_text(path).split("\n"), start=1):
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
        members = {line.strip().lower() for line in read_text(path).split("\n")} - {""}
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
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
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
    manifest = read_json(manifest_path, "manifest")
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: the manifest must be a JSON object")
    base = os.path.dirname(os.path.abspath(str(manifest_path)))

    def resolve(key, default_fmt):
        if key not in manifest:
            raise ConfigError(f"{manifest_path}: manifest is missing {key!r}")
        spec = manifest[key]
        if isinstance(spec, str):
            spec = {"path": spec}
        if not isinstance(spec, dict) or not isinstance(spec.get("path"), str):
            raise ConfigError(
                f"{manifest_path}: {key!r} must be a path or an object with a \"path\" string"
            )
        path = os.path.join(base, spec["path"])  # an absolute path replaces base
        if not os.path.isfile(path):
            raise ConfigError(f"{manifest_path}: {key!r} names {path}, which is not a file")
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


def group_affect(group: SegmentedGroup, lex: LexiconSet, rows: np.ndarray) -> np.ndarray:
    """The (D, N, 23) affect matrices of a group of D segmented documents.

    `rows` holds each of `group.tokens`' row of the lexicons' weight
    matrix, as `lex.token_rows` gives them (or, in preparation, as read
    from `lex.vocabulary_rows` by vocabulary id). Row i of document d sums
    what each token of its segment i adds and divides by the document's
    pre-truncation length. Only the lexicon words' nonzero weights are
    expanded, and one bincount over `segment * 23 + feature` adds them
    all, each cell's in token order. The weights left out are exact zeros,
    so the sums are those of a per-token loop over the dense rows of the
    matrix, bit for bit.
    """
    if (group.doc_lengths < 1).any():
        raise UsageError("document length must be >= 1")
    n_docs, n_segments = group.offsets.shape[0], group.offsets.shape[1] - 1
    hits = np.flatnonzero(rows)
    # each hit's segment among the group's D * N; an empty segment starts
    # where the next one does, so side="right" gives it nothing
    cells = np.searchsorted(group.offsets[:, :-1].ravel(), hits, side="right") - 1
    cells *= N_FEATURES
    # spent arrays are dropped and the entry-sized ones updated in place,
    # which keeps a group's transient memory, and so a run's peak RSS, down
    rows = rows[hits]
    del hits
    first = lex._indptr[rows]
    count = lex._indptr[rows + 1] - first
    del rows
    # the CSR positions of every hit's nonzero weights, hit after hit
    entries = np.repeat(first - np.cumsum(count) + count, count)
    entries += np.arange(len(entries))
    cells = np.repeat(cells, count)
    cells += lex._features[entries]
    values = np.bincount(cells, weights=lex._values[entries],
                         minlength=n_docs * n_segments * N_FEATURES)
    # an empty bincount is int64
    values = values.astype(np.float64, copy=False).reshape(n_docs, n_segments, N_FEATURES)
    values /= group.doc_lengths[:, None, None]
    return values


def affect_matrices(docs: list[TokenizedDocument], lex: LexiconSet, n_segments: int,
                    max_seg_len: int) -> np.ndarray:
    """The (D, N, 23) affect matrices of `docs`, segmented as `segment`
    does and computed by `group_affect` one group of documents at a time."""
    return np.concatenate(
        [group_affect(g, lex, lex.token_rows(g.tokens))
         for g in segment_groups(docs, n_segments, max_seg_len)]
        or [np.zeros((0, n_segments, N_FEATURES))])


def extract_affect(seg: SegmentedDocument, lex: LexiconSet) -> AffectFeatureMatrix:
    """The N x 23 affect matrix of one segmented document: `group_affect`
    of a group holding only it."""
    group = SegmentedGroup(tokens=seg.tokens, offsets=seg.offsets[None],
                           doc_lengths=np.array([seg.doc_length]))
    return AffectFeatureMatrix(values=group_affect(group, lex, lex.token_rows(seg.tokens))[0])
