"""Corpus handling: tokenization, segmentation, vocabulary, word vectors,
dataset ingestion, and construction of a domain-labeled news corpus from
source lists.

All operations are deterministic functions of their inputs and an explicit
seed, so any pipeline built from them is reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import string
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .atomic import atomic_open
from .errors import (
    ConfigError,
    EmptyDocument,
    ParseError,
    StratificationError,
    UsageError,
)

logger = logging.getLogger(__name__)

UNK_ID = 1

# The most kept tokens segment_groups puts in one group of documents.
GROUP_TOKENS = 1 << 15

LABELS = ("real", "fake")

# ASCII punctuation plus the common unicode quotes/dashes seen in news text.
_BOUNDARY_CHARS = string.punctuation + "‘’“”«»–—…¿¡"

# The most entries the token table holds; reaching it empties the table.
TOKEN_TABLE_BOUND = 1 << 17


@dataclass
class RawArticle:
    id: str
    text: str
    label: str | None = None
    domain: str | None = None
    year: int | None = None
    split_hint: str | None = None


@dataclass
class TokenizedDocument:
    tokens: list[str]

    @property
    def length(self) -> int:
        return len(self.tokens)


@dataclass
class SegmentedDocument:
    """A document cut into `n_segments` contiguous segments.

    `tokens` is the document truncated to n_segments * max_seg_len tokens
    and `offsets` holds the n_segments + 1 segment boundaries, so segment i
    is tokens[offsets[i]:offsets[i + 1]]. `doc_length` is the token count
    before any truncation.
    """

    n_segments: int
    max_seg_len: int
    tokens: list[str]
    offsets: np.ndarray  # (n_segments + 1,) int64
    doc_length: int


@dataclass
class Vocabulary:
    """Token to id map; id 0 is reserved, id 1 is the unknown token."""

    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_id) + 2

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def to_json(self) -> dict:
        return {"tokens": self.token_to_id}

    @classmethod
    def from_json(cls, payload) -> "Vocabulary":
        """The inverse of to_json. Raises ConfigError unless `payload` is
        {"tokens": {token: id}} whose ids are JSON integers forming exactly
        2..len + 1."""
        tokens = payload.get("tokens") if isinstance(payload, dict) else None
        if not (isinstance(tokens, dict) and all(type(i) is int for i in tokens.values())
                and sorted(tokens.values()) == list(range(2, len(tokens) + 2))):
            raise ConfigError('a vocabulary must be {"tokens": {token: id}} with the '
                              "integer ids 2..N+1, each once")
        return cls(token_to_id={str(k): v for k, v in tokens.items()})


@dataclass(frozen=True)
class SourceListEntry:
    domain: str
    list_name: str
    raw_category: str


@dataclass
class DomainVerdict:
    domain: str
    label: str
    supporting_lists: set = field(default_factory=set)


class _TokenTable(dict):
    """Lowercase whitespace piece -> its token, one shared `str` per token
    value ('' for a piece that is all boundary punctuation)."""

    def __missing__(self, raw: str) -> str:
        tok = raw.strip(_BOUNDARY_CHARS)
        if len(tok) != len(raw):
            tok = self[tok]  # the piece's token, shared with every piece that strips to it
        if len(self) >= TOKEN_TABLE_BOUND:
            self.clear()
        self[raw] = tok
        return tok


_TOKENS = _TokenTable()


def tokenize(text: str) -> TokenizedDocument:
    """Lowercase whitespace tokenization with boundary punctuation stripped.

    Tokens that are pure punctuation disappear. Raises EmptyDocument if
    nothing is left.

    Each whitespace piece is mapped through one process-wide table keyed on
    the raw piece, so a piece seen before costs one dict lookup and no
    strip, and equal tokens come back as one shared `str` object: a
    tokenized corpus holds one string per distinct token, not one per
    occurrence. The table empties itself when it reaches TOKEN_TABLE_BOUND
    entries, so it stays bounded on any input; tokens made after that are
    equal to, but not the same objects as, those made before. Two threads
    that miss on the same piece at once, or a forked process, can likewise
    only make an equal, distinct object, never a different token.
    """
    tokens = list(filter(None, map(_TOKENS.__getitem__, text.lower().split())))
    if not tokens:
        raise EmptyDocument("document has no tokens after tokenization")
    return TokenizedDocument(tokens=tokens)


def segment_offsets(lengths, n_segments: int, max_seg_len: int) -> np.ndarray:
    """The (D, n_segments + 1) int64 segment boundaries of D documents of
    `lengths` tokens.

    Each document is truncated to L' = min(L, n_segments * max_seg_len)
    tokens and cut into chunks of ceil(L'/N) tokens; trailing chunks may be
    shorter or empty.
    """
    # as many int64 offsets, or a segment of as many int64 ids, as an array can hold
    most = np.iinfo(np.intp).max // 8 - 1
    if not (1 <= n_segments <= most and 1 <= max_seg_len <= most):
        raise UsageError(f"n_segments and max_seg_len must be between 1 and {most}, "
                         f"got {n_segments} and {max_seg_len}")
    lengths = np.asarray(lengths, dtype=np.int64)
    # no longer than the longest document either, so a huge cap fits int64
    kept = np.minimum(lengths, min(n_segments * max_seg_len, lengths.max(initial=0)))
    chunk = -(-kept // n_segments)
    return np.minimum(np.arange(n_segments + 1, dtype=np.int64) * chunk[:, None], kept[:, None])


def segment(doc: TokenizedDocument, n_segments: int, max_seg_len: int) -> SegmentedDocument:
    """Split a document into exactly `n_segments` contiguous chunks, with
    the boundaries of `segment_offsets`."""
    offsets = segment_offsets([doc.length], n_segments, max_seg_len)[0]
    return SegmentedDocument(
        n_segments=n_segments,
        max_seg_len=max_seg_len,
        tokens=doc.tokens[: offsets[-1]],
        offsets=offsets,
        doc_length=doc.length,
    )


@dataclass
class SegmentedGroup:
    """Consecutive documents segmented in one pass.

    `tokens` concatenates the documents' kept (truncated) tokens, row d of
    `offsets` holds document d's n_segments + 1 boundaries into `tokens`,
    and `doc_lengths[d]` is its token count before truncation.
    """

    tokens: list[str]
    offsets: np.ndarray  # (D, n_segments + 1) int64
    doc_lengths: np.ndarray  # (D,) int64


def segment_groups(docs: list[TokenizedDocument], n_segments: int,
                   max_seg_len: int) -> Iterator[SegmentedGroup]:
    """Segment `docs` in order, as consecutive groups of at most
    GROUP_TOKENS kept tokens (a longer document is a group of its own), so
    that a pass over one group allocates a bounded amount of memory."""
    lengths = np.fromiter((doc.length for doc in docs), dtype=np.int64, count=len(docs))
    offsets = segment_offsets(lengths, n_segments, max_seg_len)
    kept = offsets[:, -1]
    ends = np.cumsum(kept)
    firsts = ends - kept  # each document's first kept token among all of them
    start = 0
    while start < len(docs):
        stop = max(start + 1,
                   int(np.searchsorted(ends, firsts[start] + GROUP_TOKENS, side="right")))
        tokens = []
        for doc, n_kept in zip(docs[start:stop], kept[start:stop].tolist()):
            tokens += doc.tokens[:n_kept]
        yield SegmentedGroup(
            tokens=tokens,
            offsets=offsets[start:stop] + (firsts[start:stop] - firsts[start])[:, None],
            doc_lengths=lengths[start:stop],
        )
        start = stop


def build_vocabulary(corpus: list[TokenizedDocument], min_count: int = 1) -> Vocabulary:
    """Assign ids to all tokens with frequency >= min_count.

    Ids start at 2 and follow frequency-descending order with lexicographic
    tie-breaking, so the result is deterministic.
    """
    if not corpus:
        raise UsageError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for doc in corpus:
        counts.update(doc.tokens)
    kept = sorted(tok for tok, cnt in counts.items() if cnt >= min_count)
    kept.sort(key=counts.__getitem__, reverse=True)  # stable: ties stay in lexicographic order
    return Vocabulary(token_to_id=dict(zip(kept, range(2, len(kept) + 2))))


def token_ids(tokens: list[str], vocab: Vocabulary) -> np.ndarray:
    """The int64 id vector of `tokens`; out-of-vocabulary tokens become
    UNK_ID."""
    return np.fromiter(map(vocab.token_to_id.get, tokens, repeat(UNK_ID)),
                       dtype=np.int64, count=len(tokens))


def encode(seg: SegmentedDocument, vocab: Vocabulary) -> np.ndarray:
    """The token ids of a segmented document, aligned with `seg.offsets`."""
    return token_ids(seg.tokens, vocab)


# ---------------------------------------------------------------------------
# dataset construction

# (list_name, raw_category) -> "real" | "fake" | "drop"
DEFAULT_CATEGORY_MAPPING = {
    ("OS", "reliable"): "real",
    ("OS", "fake"): "fake",
    ("OS", "bias"): "fake",
    ("OS", "hate"): "fake",
    ("OS", "satire"): "fake",
    ("OS", "conspiracy"): "fake",
    ("OS", "*"): "drop",
    ("POLITIFACT", "Some fake stories"): "drop",
    ("POLITIFACT", "*"): "fake",
    ("MBFC", "high"): "real",
    ("MBFC", "low"): "fake",
    ("MBFC", "medium"): "drop",
}


def merge_source_lists(
    entries: list[SourceListEntry],
    mapping: dict | None = None,
) -> tuple[list[DomainVerdict], list[str]]:
    """Project per-list categories to real/fake and keep only domains whose
    mapped labels agree across every list they appear on.

    Returns (verdicts sorted by domain, conflicting domains). A category
    with neither an explicit rule nor a ('LIST', '*') fallback raises
    ConfigError.
    """
    mapping = DEFAULT_CATEGORY_MAPPING if mapping is None else mapping
    by_domain: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for entry in entries:
        rule = mapping.get((entry.list_name, entry.raw_category))
        if rule is None:
            rule = mapping.get((entry.list_name, "*"))
        if rule is None:
            raise ConfigError(
                f"no mapping for category {entry.raw_category!r} on list {entry.list_name!r}"
            )
        if rule == "drop":
            continue
        if rule not in LABELS:
            raise ConfigError(f"mapping for {entry.list_name!r}/{entry.raw_category!r} "
                              f"must be real, fake, or drop; got {rule!r}")
        by_domain[entry.domain].append((entry.list_name, rule))

    verdicts = []
    conflicts = []
    for domain in sorted(by_domain):
        labels = {label for _, label in by_domain[domain]}
        if len(labels) > 1:
            conflicts.append(domain)
            logger.warning("domain %s excluded: conflicting labels %s", domain, sorted(labels))
            continue
        verdicts.append(
            DomainVerdict(
                domain=domain,
                label=labels.pop(),
                supporting_lists={name for name, _ in by_domain[domain]},
            )
        )
    return verdicts, conflicts


def load_source_lists(path) -> list[SourceListEntry]:
    """CSV with header `domain,list,category`; one entry per (domain, list),
    later duplicates rejected."""
    entries = []
    seen = set()
    required = ("domain", "list", "category")
    reader = csv.DictReader(io.StringIO(read_text(path)))
    try:
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise ParseError(f"{path}: expected CSV header domain,list,category")
        for row in reader:
            lineno = reader.line_num  # the record's last line; a quoted field may span lines
            if any(row[name] is None for name in required):
                raise ParseError(f"{path}:{lineno}: expected the fields domain,list,category")
            key = (row["domain"].strip(), row["list"].strip())
            if not key[0] or not key[1]:
                raise ParseError(f"{path}:{lineno}: empty domain or list")
            if key in seen:
                raise ParseError(f"{path}:{lineno}: duplicate entry for {key[0]} on {key[1]}")
            seen.add(key)
            entries.append(
                SourceListEntry(
                    domain=key[0],
                    list_name=key[1],
                    raw_category=row["category"].strip(),
                )
            )
    except csv.Error as exc:
        raise ParseError(f"{path}: invalid CSV after line {reader.line_num}: {exc}") from None
    return entries


def load_label_mapping(path) -> dict:
    """Mapping config: JSON object {"LIST": {"category": "real|fake|drop"}}."""
    payload = read_json(path, "mapping")
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: mapping must be a JSON object, got {type(payload).__name__}")
    mapping = {}
    for list_name, categories in payload.items():
        if not isinstance(categories, dict):
            raise ConfigError(f"{path}: mapping for list {list_name!r} must be an object")
        for category, rule in categories.items():
            if rule not in ("drop",) + LABELS:
                raise ConfigError(f"{path}: rule for list {list_name!r}, category {category!r} "
                                  f"must be real, fake, or drop; got {rule!r}")
            mapping[(list_name, category)] = rule
    return mapping


def load_vocabulary(path) -> Vocabulary:
    """A vocabulary file as written from Vocabulary.to_json."""
    payload = read_json(path, "vocabulary")
    try:
        return Vocabulary.from_json(payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_word_vectors(path, dim: int) -> dict[str, np.ndarray]:
    """Text embeddings: one line per word, `word v1 ... v_dim`.

    Lines whose vector length differs from `dim`, and entries that are not
    finite numbers, are rejected. A first line of two integers is a
    `count dim` header and is skipped. Spaces at the end of a line are
    ignored (the word2vec tool writes one after every vector).
    """
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        parts = line.rstrip(" ").split(" ")
        if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
            continue  # `count dim` header
        if len(parts) < 2:
            continue
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ParseError(
                f"{path}:{lineno}: expected {dim} values for {word!r}, got {len(values)}"
            )
        try:
            vector = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric vector entry: {exc}") from exc
        if not np.isfinite(vector).all():
            raise ParseError(f"{path}:{lineno}: non-finite vector entry for {word!r}")
        vectors[word] = vector
    return vectors


def project_and_sample(
    articles: list[RawArticle],
    verdicts: list[DomainVerdict],
    max_per_domain: int = 100,
    min_words: int = 30,
    seed: int = 0,
) -> list[RawArticle]:
    """Label articles from their domain's verdict and subsample.

    Articles shorter than `min_words` tokens are discarded, then at most
    `max_per_domain` articles per domain are kept by seeded uniform
    sampling without replacement. Articles whose domain has no verdict are
    skipped with a warning. Output is sorted by (domain, id).
    """
    if max_per_domain < 0:
        raise UsageError(f"max_per_domain must be >= 0, got {max_per_domain}")
    verdict_by_domain = {v.domain: v for v in verdicts}
    grouped: dict[str, list[RawArticle]] = defaultdict(list)
    for article in articles:
        verdict = verdict_by_domain.get(article.domain)
        if verdict is None:
            logger.warning("article %s skipped: domain %r has no verdict", article.id, article.domain)
            continue
        try:
            doc = tokenize(article.text)
        except EmptyDocument:
            continue
        if doc.length < min_words:
            continue
        grouped[article.domain].append(article)

    rng = np.random.default_rng(seed)
    sampled = []
    for domain in sorted(grouped):
        pool = sorted(grouped[domain], key=lambda a: a.id)
        if len(pool) > max_per_domain:
            keep = rng.choice(len(pool), size=max_per_domain, replace=False)
            pool = [pool[i] for i in sorted(keep)]
        label = verdict_by_domain[domain].label
        sampled.extend(replace(article, label=label) for article in pool)
    return sampled


def split_train_val(
    corpus: list[RawArticle], val_fraction: float = 0.20, seed: int = 0
) -> tuple[list[RawArticle], list[RawArticle]]:
    """Stratified split with |val| = round(val_fraction * |corpus|).

    Per-class validation counts are allocated by largest remainder so they
    sum to the total. Deterministic given the seed.
    """
    if not 0 <= val_fraction <= 1:
        raise UsageError(f"val_fraction must be in [0, 1], got {val_fraction}")
    if not corpus:
        raise UsageError("cannot split an empty corpus")
    by_label: dict[str, list[int]] = defaultdict(list)
    for idx, article in enumerate(corpus):
        if article.label is None:
            raise UsageError(f"article {article.id} has no label; split requires labels")
        by_label[article.label].append(idx)
    for label, members in by_label.items():
        if len(members) < 2:
            raise StratificationError(f"class {label!r} has fewer than 2 articles")

    total_val = int(round(val_fraction * len(corpus)))
    exact = {label: val_fraction * len(members) for label, members in by_label.items()}
    counts = {label: int(np.floor(x)) for label, x in exact.items()}
    leftover = total_val - sum(counts.values())
    for label in sorted(exact, key=lambda lb: (-(exact[lb] - np.floor(exact[lb])), lb)):
        if leftover <= 0:
            break
        counts[label] += 1
        leftover -= 1

    rng = np.random.default_rng(seed)
    val_idx = set()
    for label in sorted(by_label):
        members = by_label[label]
        chosen = rng.choice(len(members), size=counts[label], replace=False)
        val_idx.update(members[i] for i in chosen)
    train = [corpus[i] for i in range(len(corpus)) if i not in val_idx]
    val = [corpus[i] for i in range(len(corpus)) if i in val_idx]
    return train, val


def complement_test_with_real(
    train: list[RawArticle],
    n_real: int,
    seed: int = 0,
    remove_from_train: bool = True,
) -> tuple[list[RawArticle], list[RawArticle]]:
    """Move (default) or copy a seeded sample of `n_real` real-labeled
    articles from the training pool into a test complement."""
    if n_real < 0:
        raise UsageError(f"n_real (real test articles to sample) must be >= 0, got {n_real}")
    real_idx = [i for i, a in enumerate(train) if a.label == "real"]
    if len(real_idx) < n_real:
        raise UsageError(f"asked for {n_real} real articles but only {len(real_idx)} available")
    rng = np.random.default_rng(seed)
    chosen = {real_idx[i] for i in rng.choice(len(real_idx), size=n_real, replace=False)}
    sampled = [train[i] for i in sorted(chosen)]
    if remove_from_train:
        remaining = [a for i, a in enumerate(train) if i not in chosen]
        return remaining, sampled
    return list(train), sampled


def read_text(path) -> str:
    """The contents of a UTF-8 text file, every line ending read as a newline.

    Bytes that are not UTF-8 raise ParseError naming the file and the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path, what: str):
    """The JSON value a UTF-8 file holds. A malformed one raises ParseError
    `<path>: invalid <what> JSON: ...`."""
    try:
        return json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid {what} JSON: {exc}") from None


def load_corpus(path) -> list[RawArticle]:
    """Read a JSON Lines corpus: one object per article with fields
    {id, text, label?, domain?, year?, split?}."""
    articles = []
    seen_ids = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ParseError(f"{path}:{lineno}: expected a JSON object, "
                             f"got {type(record).__name__}")
        for field_name in ("id", "text"):
            if field_name not in record or record[field_name] in (None, ""):
                raise ParseError(f"{path}:{lineno}: missing field {field_name!r}")
        if not str(record["text"]).strip():
            raise ParseError(f"{path}:{lineno}: field 'text' is blank")
        article_id = str(record["id"])
        if article_id in seen_ids:
            raise ParseError(f"{path}:{lineno}: duplicate article id {article_id!r}")
        seen_ids.add(article_id)
        label = record.get("label")
        if label is not None and label not in LABELS:
            raise ParseError(f"{path}:{lineno}: label must be one of {LABELS}, got {label!r}")
        year = record.get("year")
        if year is not None and (not isinstance(year, int) or isinstance(year, bool)):
            raise ParseError(f"{path}:{lineno}: field 'year' is not an integer")
        for field_name in ("domain", "split"):
            if not isinstance(record.get(field_name), (str, type(None))):
                raise ParseError(f"{path}:{lineno}: field {field_name!r} is not a string")
        articles.append(
            RawArticle(
                id=article_id,
                text=str(record["text"]),
                label=label,
                domain=record.get("domain"),
                year=year,
                split_hint=record.get("split"),
            )
        )
    return articles


def save_corpus(path, articles: list[RawArticle]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for article in articles:
            record = {"id": article.id, "text": article.text}
            if article.label is not None:
                record["label"] = article.label
            if article.domain is not None:
                record["domain"] = article.domain
            if article.year is not None:
                record["year"] = article.year
            if article.split_hint is not None:
                record["split"] = article.split_hint
            fh.write(json.dumps(record, sort_keys=True) + "\n")
