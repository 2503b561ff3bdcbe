"""Analysis and interpretability outputs: per-segment attention profiles,
emotion highlighting of raw text, per-class feature-flow statistics, and
tabular plot data."""

from __future__ import annotations

import csv
import html
import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .corpus import LABELS, TokenizedDocument
from .errors import UnsupportedMode, UsageError
from .lexicon import FEATURE_NAMES, LexiconSet, affect_matrices
from .model import ForwardTrace


@dataclass
class AttentionProfile:
    doc_id: str | None
    weights: np.ndarray  # (N,) scalar weight per segment
    predicted_label: str | None
    probability: float


@dataclass
class Span:
    start: int  # token index, inclusive
    end: int  # token index, exclusive
    categories: tuple[str, ...]


@dataclass
class EmotionAnnotation:
    spans: list[Span]

    def to_json(self) -> list[dict]:
        return [
            {"start": s.start, "end": s.end, "categories": list(s.categories)}
            for s in self.spans
        ]


@dataclass
class FeatureFlow:
    mean_first_segment: float
    mean_last_segment: float
    mean_all_segments: float
    std_across_segments: float
    per_segment_means: list[float]


@dataclass
class FlowStatistics:
    n_segments: int
    classes: dict[str, dict[str, FeatureFlow]]  # class -> feature -> flow
    missing_classes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n_segments": self.n_segments,
            "missing_classes": sorted(self.missing_classes),
            "classes": {
                label: {feat: vars(flow) for feat, flow in feats.items()}
                for label, feats in sorted(self.classes.items())
            },
        }


def attention_profile(trace: ForwardTrace, classes: tuple = LABELS) -> AttentionProfile:
    """Collapse the N x N attention matrix to one scalar per segment: its
    column means, i.e. how much weight each segment receives. They sum to 1
    because the matrix is row-stochastic (its row means are always 1/N).
    """
    if trace.attention_weights is None:
        raise UnsupportedMode(
            f"mode {trace.mode!r} has no attention matrix; run full or topic_only"
        )
    weights = np.asarray(trace.attention_weights).mean(axis=0)
    pred = trace.predicted_index()
    label = classes[pred] if pred < len(classes) else None
    return AttentionProfile(
        doc_id=trace.doc_id,
        weights=weights,
        predicted_label=label,
        probability=float(trace.probabilities[pred]),
    )


def highlight_emotions(doc: TokenizedDocument, lex: LexiconSet) -> EmotionAnnotation:
    """Annotate every token that matches an emotion, morality, or
    hyperbolic category; one span per matching token, carrying all of its
    categories."""
    spans = []
    for i, token in enumerate(doc.tokens):
        categories = lex.token_categories(token)
        if categories:
            spans.append(Span(start=i, end=i + 1, categories=tuple(categories)))
    return EmotionAnnotation(spans=spans)


_HIGHLIGHT_CSS = """
.anger { background: #ffb3b3; } .anticipation { background: #ffd9b3; }
.disgust { background: #d9ffb3; } .fear { background: #b3c6ff; }
.joy { background: #fff7b3; } .sadness { background: #c2c2d6; }
.surprise { background: #ffb3ff; } .trust { background: #b3ffd9; }
.care { outline: 1px solid #2a9d8f; } .harm { outline: 1px solid #e76f51; }
.fairness { outline: 1px solid #457b9d; } .unfairness { outline: 1px solid #9d4457; }
.loyalty { outline: 1px solid #4f9d44; } .betrayal { outline: 1px solid #9d8f2a; }
.authority { outline: 1px solid #6a4c93; } .subversion { outline: 1px solid #934c6a; }
.sanctity { outline: 1px solid #118ab2; } .degradation { outline: 1px solid #b21833; }
.hyperbolic { font-weight: bold; text-decoration: underline; }
""".strip()


def annotation_to_html(doc: TokenizedDocument, annotation: EmotionAnnotation,
                       title: str = "affect highlighting") -> str:
    by_start = {s.start: s for s in annotation.spans}
    rendered = []
    for i, token in enumerate(doc.tokens):
        span = by_start.get(i)
        text = html.escape(token)
        if span:
            cls = " ".join(span.categories)
            rendered.append(f'<span class="{cls}" title="{cls}">{text}</span>')
        else:
            rendered.append(text)
    body = " ".join(rendered)
    return (
        "<!doctype html><html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_HIGHLIGHT_CSS}</style></head>"
        f"<body><p>{body}</p></body></html>"
    )


def flow_statistics(corpus: list[tuple[TokenizedDocument, str]], n_segments: int,
                    lex: LexiconSet, max_seg_len: int = 800) -> FlowStatistics:
    """Per class and per feature: the mean feature value in the first and
    last segments, the overall mean, and the population standard deviation
    of the per-segment means. Labels of LABELS with no document are listed
    as missing.

    First/last means use segments 1 and N even when trailing segments are
    empty; their features are legitimately zero. The overall mean
    is computed as the mean of the per-segment means, so the consistency
    identity holds exactly.
    """
    matrices = affect_matrices([doc for doc, _ in corpus], lex, n_segments, max_seg_len)
    by_class: dict[str, list[np.ndarray]] = {}
    for (_, label), matrix in zip(corpus, matrices):
        by_class.setdefault(label, []).append(matrix)

    classes: dict[str, dict[str, FeatureFlow]] = {}
    for label, matrices in sorted(by_class.items()):
        stacked = np.stack(matrices)  # (docs, N, 23)
        per_segment = stacked.mean(axis=0)  # (N, 23)
        mean_all = per_segment.mean(axis=0)  # (23,)
        std_all = np.sqrt(((per_segment - mean_all) ** 2).mean(axis=0))
        feats = {}
        for k, name in enumerate(FEATURE_NAMES):
            feats[name] = FeatureFlow(
                mean_first_segment=float(per_segment[0, k]),
                mean_last_segment=float(per_segment[-1, k]),
                mean_all_segments=float(mean_all[k]),
                std_across_segments=float(std_all[k]),
                per_segment_means=[float(v) for v in per_segment[:, k]],
            )
        classes[label] = feats
    missing = [c for c in LABELS if c not in classes]
    return FlowStatistics(n_segments=n_segments, classes=classes, missing_classes=missing)


# ---------------------------------------------------------------------------
# tabular emission

PLOT_KINDS = ("n_sweep", "flow_curve", "attention_bar")


def emit_plot_data(kind: str, inputs, path, command: str = "", config_hash: str = "") -> None:
    """Write plot-ready CSV tables.

    n_sweep: inputs iterable of (N, accuracy, f1) -> columns N,accuracy,f1.
    flow_curve: inputs FlowStatistics -> segment_index,class,feature,mean.
    attention_bar: inputs AttentionProfile -> segment_index,weight.
    Every file starts with a comment line naming the producing command and
    config hash.
    """
    if kind not in PLOT_KINDS:
        raise UsageError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# produced-by: {command or 'fakeflow'} config-hash: {config_hash or 'n/a'}\n")
        writer = csv.writer(fh)
        if kind == "n_sweep":
            writer.writerow(["N", "accuracy", "f1"])
            for n, accuracy, f1 in inputs:
                writer.writerow([n, repr(float(accuracy)), repr(float(f1))])
        elif kind == "flow_curve":
            writer.writerow(["segment_index", "class", "feature", "mean"])
            for label, feats in sorted(inputs.classes.items()):
                for name in FEATURE_NAMES:
                    for idx, value in enumerate(feats[name].per_segment_means, start=1):
                        writer.writerow([idx, label, name, repr(value)])
        else:
            writer.writerow(["segment_index", "weight"])
            for idx, weight in enumerate(inputs.weights, start=1):
                writer.writerow([idx, repr(float(weight))])


def annotation_to_standoff_json(doc: TokenizedDocument,
                                annotation: EmotionAnnotation) -> str:
    return json.dumps(
        {"tokens": doc.tokens, "spans": annotation.to_json()},
        sort_keys=True,
    )
