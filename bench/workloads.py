"""Seeded synthetic workloads for the fakeflow benchmark.

A workload is a labelled corpus of Zipf-distributed word types split into
train, validation and test articles, plus a synthetic lexicon set over the
same word types. Everything is a function of the workload spec and a seed.
The generator checks its own output against the spec's targets, so a
workload cannot silently shrink; the program only ever sees the generated
articles and lexicons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPLITS = ("train", "val", "test")
REFERENCE_DOCS = 3  # documents per split whose clean tokens are kept for checks

# Light punctuation and casing, so tokenization has real work to undo.
_PUNCT_RATE = 0.08
_PUNCT = (",", ".", ";", "!", "?", '"', "(", ")")


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    mode: str
    embed_dim: int
    epochs: int
    n_train: int
    n_val: int
    n_test: int
    min_tokens: int
    max_tokens: int
    universe: int  # word types the corpus is drawn from
    zipf_s: float  # rank-frequency exponent
    type_range: tuple[int, int]  # accepted number of distinct types in the corpus
    lexicon_share: float  # share of word types in each lexicon category
    block: int  # documents per timing block; divides every split

    @property
    def n_docs(self) -> int:
        return self.n_train + self.n_val + self.n_test


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="topic-v2k",
            why="topic_only, 2k x 32 table, 5-400 tokens: per-document and "
                "per-segment Python overhead, short and empty segments",
            mode="topic_only", embed_dim=32, epochs=2,
            n_train=32, n_val=32, n_test=64, min_tokens=5, max_tokens=400,
            universe=2_150, zipf_s=1.0, type_range=(1_900, 2_100), lexicon_share=0.02,
            block=32,
        ),
        WorkloadSpec(
            name="affect-2k",
            why="affect_only, 2,000 documents, large lexicon: preparation "
                "dominates; the only batched forward path; no topic branch",
            mode="affect_only", embed_dim=300, epochs=2,
            n_train=1_600, n_val=200, n_test=200, min_tokens=200, max_tokens=800,
            universe=20_000, zipf_s=1.0, type_range=(19_000, 20_000), lexicon_share=0.08,
            block=50,
        ),
    )
}


class WorkloadError(RuntimeError):
    """The generated workload missed one of its spec's targets."""


@dataclass
class Workload:
    spec: WorkloadSpec
    # split -> list of (doc_id, text, label)
    docs: dict[str, list[tuple[str, str, str]]]
    # split -> clean tokens of its first REFERENCE_DOCS documents; the rest
    # are dropped so the harness adds little to the heap the program's
    # garbage collector walks
    reference: dict[str, list[list[str]]]
    present: set[str]  # word types that occur in the corpus
    # category name -> word set, for every categorical feature
    categories: dict[str, set[str]]
    imageability: dict[str, float]
    abstractness: dict[str, float]

    @property
    def types(self) -> int:
        return len(self.present)


def _word(rank: int) -> str:
    # Lowercase letters only, so the tokenizer returns the word unchanged.
    letters = "bcdfghjklmnpqrstvwxz"
    vowels = "aeiou"
    out = []
    n = rank
    while True:
        out.append(letters[n % 20] + vowels[(n // 20) % 5])
        n //= 100
        if n == 0:
            return "".join(out)


def generate(spec: WorkloadSpec, seed: int, category_names: tuple[str, ...]) -> Workload:
    """Build the corpus and lexicons of `spec` from `seed`.

    `category_names` are the program's categorical affect features (every
    emotion, sentiment and morality category plus "hyperbolic").
    """
    rng = np.random.default_rng([seed, spec.universe, spec.n_docs])
    vocab = np.array([_word(r) for r in range(spec.universe)], dtype=object)
    if len(set(vocab.tolist())) != spec.universe:
        raise WorkloadError("word generator produced duplicate types")
    rng.shuffle(vocab)  # rank is independent of lexicon membership
    ranks = np.arange(1, spec.universe + 1, dtype=np.float64)
    probs = ranks ** -spec.zipf_s
    probs /= probs.sum()

    docs: dict[str, list] = {split: [] for split in SPLITS}
    reference: dict[str, list] = {split: [] for split in SPLITS}
    seen: set[str] = set()
    i = 0
    for split, n in zip(SPLITS, (spec.n_train, spec.n_val, spec.n_test)):
        if n % spec.block:
            raise WorkloadError(f"{spec.name}: block {spec.block} does not divide {split}")
        # Every block of documents has the same lengths, evenly spread over
        # the range, in seeded order: each block (and each seed) carries the
        # same token count, so only the token draw varies and blocks can be
        # timed as interchangeable samples.
        block = np.round(np.linspace(spec.min_tokens, spec.max_tokens, spec.block)).astype(int)
        lengths = np.concatenate([rng.permutation(block) for _ in range(n // spec.block)])
        labels = np.array(["real", "fake"] * (n // 2 + 1))[:n]
        rng.shuffle(labels)
        for length, label in zip(lengths.tolist(), labels):
            toks = vocab[rng.choice(spec.universe, size=length, p=probs)].tolist()
            seen.update(toks)
            words = list(toks)
            for j in np.flatnonzero(rng.random(length) < _PUNCT_RATE):
                words[j] = words[j] + _PUNCT[int(j) % len(_PUNCT)]
                if j + 1 < length:
                    words[j + 1] = words[j + 1].capitalize()
            docs[split].append((f"{split}-{i:05d}", " ".join(words), str(label)))
            if len(reference[split]) < REFERENCE_DOCS:
                reference[split].append(toks)
            i += 1

    # Every category holds the stated share of the types that occur and the
    # same share of those that do not, as a real lexicon also lists words a
    # corpus never uses.
    present = sorted(seen)
    absent = sorted(set(vocab.tolist()) - seen)

    def members():
        out = set()
        for group in (present, absent):
            k = int(round(spec.lexicon_share * len(group)))
            out.update(group[j] for j in rng.choice(len(group), size=k, replace=False))
        return out

    def ratings():
        words = sorted(members())
        return dict(zip(words, np.round(rng.uniform(1.0, 7.0, len(words)), 3).tolist()))

    categories = {name: members() for name in category_names}
    workload = Workload(
        spec=spec, docs=docs, reference=reference, present=seen,
        categories=categories, imageability=ratings(), abstractness=ratings(),
    )
    check(workload)
    return workload


def check(workload: Workload) -> None:
    """Raise WorkloadError unless the workload meets its spec's targets."""
    spec = workload.spec
    lo, hi = spec.type_range
    if not lo <= workload.types <= hi:
        raise WorkloadError(
            f"{spec.name}: {workload.types} distinct types, outside [{lo}, {hi}]")
    sizes = {split: len(workload.docs[split]) for split in SPLITS}
    if sizes != {"train": spec.n_train, "val": spec.n_val, "test": spec.n_test}:
        raise WorkloadError(f"{spec.name}: split sizes {sizes} differ from the spec")
    for split in SPLITS:
        if {d[2] for d in workload.docs[split]} != {"real", "fake"}:
            raise WorkloadError(f"{spec.name}: split {split} lacks one of the labels")
    seen = workload.present
    for name, words in list(workload.categories.items()) + [
        ("imageability", workload.imageability), ("abstractness", workload.abstractness)
    ]:
        covered = len(seen.intersection(words))
        if abs(covered - spec.lexicon_share * len(seen)) > 1:
            raise WorkloadError(
                f"{spec.name}: lexicon category {name!r} covers {covered} of the "
                f"{len(seen)} corpus types, target share {spec.lexicon_share}")


def reference_affect(tokens: list[str], workload: Workload, feature_names: tuple[str, ...],
                     n_segments: int, max_seg_len: int) -> np.ndarray:
    """Affect matrix of one document, computed independently of the program:
    ceil(L'/N)-token chunks of the truncated document, category counts and
    rating sums per chunk, divided by the untruncated length."""
    kept = tokens[: n_segments * max_seg_len]
    chunk = -(-len(kept) // n_segments)
    column = {name: k for k, name in enumerate(feature_names)}
    out = np.zeros((n_segments, len(feature_names)))
    for i in range(n_segments):
        for tok in kept[i * chunk : (i + 1) * chunk]:
            for name, words in workload.categories.items():
                if tok in words:
                    out[i, column[name]] += 1.0
            if tok in workload.imageability:
                out[i, column["imageability"]] += workload.imageability[tok]
            if tok in workload.abstractness:
                out[i, column["abstractness"]] += workload.abstractness[tok]
    return out / len(tokens)
