import csv

import numpy as np
import pytest

from conftest import build_lexicon_set
from fakeflow.corpus import TokenizedDocument
from fakeflow.errors import UnsupportedMode, UsageError
from fakeflow.lexicon import FEATURE_NAMES, affect_matrices, extract_affect
from fakeflow.model import ForwardTrace
from fakeflow.report import (
    annotation_to_html,
    annotation_to_standoff_json,
    attention_profile,
    emit_plot_data,
    flow_statistics,
    highlight_emotions,
)
from fakeflow import corpus as corpus_mod


def _flow(corpus, n_segments, lex, max_seg_len):
    """flow_statistics of (TokenizedDocument, label) pairs, featurized as
    `analyze` featurizes them."""
    matrices = affect_matrices([doc for doc, _ in corpus], lex, n_segments, max_seg_len)
    return flow_statistics(matrices, [label for _, label in corpus])


def _trace(weights, probs=(0.8, 0.2), mode="full"):
    return ForwardTrace(
        probabilities=np.array(probs),
        attention_weights=None if weights is None else np.array(weights),
        mode=mode,
        doc_id="doc1",
    )


class TestAttentionProfile:
    def test_single_segment(self):
        profile = attention_profile(_trace([[1.0]]))
        assert profile.weights.tolist() == [1.0]

    def test_uniform_matrix(self):
        n = 4
        profile = attention_profile(_trace(np.full((n, n), 1.0 / n)))
        assert np.allclose(profile.weights, [0.25] * 4, atol=1e-15)

    def test_hand_column_means(self):
        profile = attention_profile(_trace([[0.9, 0.1], [0.5, 0.5]]))
        assert np.allclose(profile.weights, [0.7, 0.3], atol=1e-15)

    def test_sums_to_one_for_row_stochastic_input(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 10, 20):
            raw = rng.uniform(0.01, 1.0, size=(n, n))
            matrix = raw / raw.sum(axis=1, keepdims=True)
            profile = attention_profile(_trace(matrix))
            assert abs(profile.weights.sum() - 1.0) < 1e-12

    def test_affect_only_unsupported(self):
        with pytest.raises(UnsupportedMode):
            attention_profile(_trace(None, mode="affect_only"))

    def test_prediction_metadata(self):
        profile = attention_profile(_trace([[1.0]], probs=(0.3, 0.7)))
        assert profile.predicted_label == "fake"
        assert profile.probability == 0.7


class TestHighlightEmotions:
    def test_multi_category_token_single_span(self, toy_lexicons):
        doc = TokenizedDocument(["kill"])
        annotation = highlight_emotions(doc, toy_lexicons)
        assert len(annotation.spans) == 1
        span = annotation.spans[0]
        assert (span.start, span.end) == (0, 1)
        assert set(span.categories) == {"fear", "sadness", "harm"}

    def test_kill_matches_harm(self, toy_lexicons):
        annotation = highlight_emotions(TokenizedDocument(["kill"]), toy_lexicons)
        assert "harm" in annotation.spans[0].categories

    def test_sentiment_not_highlighted(self, toy_lexicons):
        # "smile" is joy + positive; only the emotion category is annotated
        annotation = highlight_emotions(TokenizedDocument(["smile"]), toy_lexicons)
        assert set(annotation.spans[0].categories) == {"joy"}

    def test_no_matches_empty(self, toy_lexicons):
        assert highlight_emotions(TokenizedDocument(["nothing", "here"]), toy_lexicons).spans == []

    def test_spans_agree_with_extract_affect(self, toy_lexicons):
        # spans cover exactly the tokens extract_affect counts for the
        # emotion/morality/hyperbolic features
        tokens = ["kill", "dog", "smile", "x", "terrifying", "nurse", "y"]
        doc = TokenizedDocument(tokens)
        annotation = highlight_emotions(doc, toy_lexicons)
        highlighted = {s.start for s in annotation.spans}

        cols = [i for i, name in enumerate(FEATURE_NAMES)
                if name not in ("positive", "negative", "imageability", "abstractness")]
        counted = set()
        for i, tok in enumerate(tokens):
            seg = corpus_mod.segment(TokenizedDocument([tok]), 1, 1)
            row = extract_affect(seg, toy_lexicons).values[0]
            if row[cols].sum() > 0:
                counted.add(i)
        assert highlighted == counted

    def test_html_and_standoff_outputs(self, toy_lexicons):
        doc = TokenizedDocument(["kill", "x"])
        annotation = highlight_emotions(doc, toy_lexicons)
        page = annotation_to_html(doc, annotation)
        assert "<span class=" in page and "kill" in page
        payload = annotation_to_standoff_json(doc, annotation)
        assert '"spans"' in payload


class TestFlowStatistics:
    def test_reads_the_arrays_and_their_labels(self):
        matrices = np.zeros((3, 2, 23))
        matrices[:, :, 0] = [[1.0, 3.0], [3.0, 5.0], [8.0, 0.0]]
        stats = flow_statistics(matrices, ["fake", "fake", "real"])
        assert stats.n_segments == 2 and stats.missing_classes == []
        first = FEATURE_NAMES[0]
        assert stats.classes["fake"][first].per_segment_means == [2.0, 4.0]
        assert stats.classes["fake"][first].std_across_segments == 1.0
        assert stats.classes["real"][first].mean_all_segments == 4.0
        assert stats.classes["real"][FEATURE_NAMES[1]].per_segment_means == [0.0, 0.0]

    def test_no_documents_lists_both_labels_missing(self):
        stats = flow_statistics(np.zeros((0, 5, 23)), [])
        assert stats.to_json() == {"n_segments": 5, "missing_classes": ["fake", "real"],
                                   "classes": {}}

    def test_identical_documents_zero_std(self, toy_lexicons):
        tokens = ["attack", "x", "kill", "y", "smile", "z"] * 2
        corpus = [(TokenizedDocument(list(tokens)), "fake") for _ in range(3)]
        stats = _flow(corpus, 3, toy_lexicons, 4)
        fear = stats.classes["fake"]["fear"]
        # every document identical: per-segment means vary, but the std is
        # computed across segments, not documents
        assert fear.std_across_segments >= 0.0
        uniform = [(TokenizedDocument(["attack", "x"] * 6), "fake")] * 2
        stats2 = _flow(uniform, 3, toy_lexicons, 4)
        fear2 = stats2.classes["fake"]["fear"]
        assert fear2.std_across_segments == pytest.approx(0.0, abs=1e-15)

    def test_two_document_hand_oracle(self, toy_lexicons):
        # doc A: fear tokens only in segment 1; doc B: fear in both
        doc_a = TokenizedDocument(["attack", "attack", "x", "x"])  # seg1: 2 fear, seg2: 0
        doc_b = TokenizedDocument(["kill", "x", "kill", "x"])  # seg1: 1, seg2: 1
        corpus = [(doc_a, "fake"), (doc_b, "fake")]
        stats = _flow(corpus, 2, toy_lexicons, 2)
        fear = stats.classes["fake"]["fear"]
        # per-doc normalized: A = [2/4, 0/4], B = [1/4, 1/4]
        seg1 = (2 / 4 + 1 / 4) / 2
        seg2 = (0 / 4 + 1 / 4) / 2
        assert fear.mean_first_segment == pytest.approx(seg1, abs=1e-15)
        assert fear.mean_last_segment == pytest.approx(seg2, abs=1e-15)
        mean_all = (seg1 + seg2) / 2
        assert fear.mean_all_segments == pytest.approx(mean_all, abs=1e-15)
        std = np.sqrt(((seg1 - mean_all) ** 2 + (seg2 - mean_all) ** 2) / 2)
        assert fear.std_across_segments == pytest.approx(std, abs=1e-15)

    def test_mean_all_equals_mean_of_per_segment_means_exactly(self, toy_lexicons):
        rng = np.random.default_rng(3)
        vocab = ["attack", "kill", "smile", "dog", "x", "y"]
        corpus = []
        for i in range(6):
            tokens = [vocab[j] for j in rng.integers(0, len(vocab), 24)]
            corpus.append((TokenizedDocument(tokens), "fake" if i % 2 else "real"))
        stats = _flow(corpus, 4, toy_lexicons, 6)
        for feats in stats.classes.values():
            for flow in feats.values():
                assert flow.mean_all_segments == np.asarray(flow.per_segment_means).mean()

    def test_missing_class_reported(self, toy_lexicons):
        corpus = [(TokenizedDocument(["attack", "x"]), "fake")]
        stats = _flow(corpus, 1, toy_lexicons, 2)
        assert stats.missing_classes == ["real"]

    def test_first_last_use_padded_trailing_segments(self, toy_lexicons):
        # document shorter than N segments: the last segment is all padding
        corpus = [(TokenizedDocument(["attack", "x"]), "fake")]
        stats = _flow(corpus, 4, toy_lexicons, 2)
        assert stats.classes["fake"]["fear"].mean_last_segment == 0.0


class TestEmitPlotData:
    def test_n_sweep_rows(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_plot_data("n_sweep", [(1, 0.5, 0.4), (5, 0.7, 0.69), (10, 0.9, 0.88)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "N,accuracy,f1"
        assert len(lines) == 5

    def test_flow_curve_rows_and_bit_exact_round_trip(self, tmp_path, toy_lexicons):
        rng = np.random.default_rng(4)
        vocab = ["attack", "kill", "smile", "x"]
        corpus = []
        for i in range(4):
            tokens = [vocab[j] for j in rng.integers(0, len(vocab), 30)]
            corpus.append((TokenizedDocument(tokens), "fake" if i % 2 else "real"))
        stats = _flow(corpus, 10, toy_lexicons, 3)
        path = tmp_path / "curve.csv"
        emit_plot_data("flow_curve", stats, path)
        with open(path) as fh:
            fh.readline()  # comment
            rows = list(csv.DictReader(fh))
        # 10 segments x 2 classes x 23 features
        assert len(rows) == 10 * 2 * 23
        for row in rows[:80]:
            expected = stats.classes[row["class"]][row["feature"]].per_segment_means[
                int(row["segment_index"]) - 1
            ]
            assert float(row["mean"]) == expected  # repr round-trips exactly

    def test_attention_bar(self, tmp_path):
        profile = attention_profile(_trace([[0.9, 0.1], [0.5, 0.5]]))
        path = tmp_path / "bar.csv"
        emit_plot_data("attention_bar", profile, path)
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "segment_index,weight"
        assert len(lines) == 4

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(UsageError):
            emit_plot_data("pie_chart", [], tmp_path / "x.csv")
