import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_lexicon_set, json_values, segment_tokens
from fakeflow.corpus import UNK_ID, SegmentedDocument, TokenizedDocument, segment
from fakeflow.errors import ConfigError, FakeflowError, ParseError, UsageError
from fakeflow.lexicon import (
    FEATURE_NAMES,
    CategoryLexicon,
    LexiconSet,
    RatingLexicon,
    extract_affect,
    feature_names,
    load_category_lexicon,
    load_lexicon_set,
    load_rating_lexicon,
)


def brute_force_affect(tokens: list[str], segments: list[list[str]],
                       doc_length: int, lex: LexiconSet) -> np.ndarray:
    """Independent oracle: loop over tokens, loop over categories, divide
    by document length. Uses only the public lexicon dictionaries."""
    category_sets = []
    for cat in FEATURE_NAMES[:8]:
        category_sets.append(lex.emotions.categories[cat])
    for cat in FEATURE_NAMES[8:10]:
        category_sets.append(lex.sentiment.categories[cat])
    for cat in FEATURE_NAMES[10:20]:
        category_sets.append(lex.morality.categories[cat])
    hyper = set()
    for members in lex.hyperbolic.categories.values():
        hyper |= members

    out = np.zeros((len(segments), 23))
    for i, row in enumerate(segments):
        for tok in row:
            for k, members in enumerate(category_sets):
                if tok in members:
                    out[i, k] += 1
            if tok in lex.imageability.ratings:
                out[i, 20] += lex.imageability.ratings[tok]
            if tok in lex.abstractness.ratings:
                out[i, 21] += lex.abstractness.ratings[tok]
            if tok in hyper:
                out[i, 22] += 1
    out /= doc_length
    return out


class TestFeatureNames:
    def test_length_23(self):
        assert len(feature_names()) == 23

    def test_declared_order(self):
        names = feature_names()
        assert names[8] == "positive"
        assert names[9] == "negative"
        assert names[22] == "hyperbolic"
        assert names.index("fear") == 3
        assert names[20] == "imageability"
        assert names[21] == "abstractness"


class TestLoadCategoryLexicon:
    def test_nrc_flag_semantics(self, tmp_path):
        path = tmp_path / "nrc.tsv"
        path.write_text("abandon\tfear\t1\nabandon\tjoy\t0\n")
        lex = load_category_lexicon(path, fmt="nrc")
        assert "abandon" in lex.categories["fear"]
        assert "abandon" not in lex.categories.get("joy", set())

    def test_wordlist(self, tmp_path):
        path = tmp_path / "hyper.txt"
        path.write_text("terrifying\nbreathtakingly\n")
        lex = load_category_lexicon(path, fmt="wordlist", name="hyperbolic")
        assert lex.categories == {"hyperbolic": {"terrifying", "breathtakingly"}}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_category_lexicon(path, fmt="nrc")

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("word\tfear\t2\n")
        with pytest.raises(ParseError):
            load_category_lexicon(path, fmt="nrc")

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "words.csv"
        path.write_text("word,fear\n")
        with pytest.raises(ParseError, match="unknown category lexicon format 'csv'"):
            load_category_lexicon(path, fmt="csv")


class TestLoadRatingLexicon:
    def test_basic(self, tmp_path):
        path = tmp_path / "img.tsv"
        path.write_text("dog\t0.9\nidea\t0.2\n")
        lex = load_rating_lexicon(path)
        assert lex.ratings == {"dog": 0.9, "idea": 0.2}

    def test_large_file_size(self, tmp_path):
        # a ratings file with 1,156 rows loads 1,156 entries
        path = tmp_path / "img.tsv"
        path.write_text("".join(f"word{i}\t{(i % 7) / 7:.4f}\n" for i in range(1156)))
        assert len(load_rating_lexicon(path).ratings) == 1156

    def test_negative_rating_rejected(self, tmp_path):
        path = tmp_path / "img.tsv"
        path.write_text("dog\t-1\n")
        with pytest.raises(ParseError):
            load_rating_lexicon(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "img.tsv"
        path.write_text("dog\thigh\n")
        with pytest.raises(ParseError):
            load_rating_lexicon(path)

    def test_duplicate_last_wins(self, tmp_path):
        path = tmp_path / "img.tsv"
        path.write_text("dog\t0.9\ndog\t0.4\n")
        assert load_rating_lexicon(path).ratings == {"dog": 0.4}


MANIFEST = {"emotions": "nrc.tsv", "sentiment": "nrc.tsv", "morality": "moral.tsv",
            "imageability": "img.tsv", "abstractness": "abs.tsv", "hyperbolic": "hyper.txt"}


def write_lexicon_files(directory):
    """The five lexicon files MANIFEST names, and the manifest itself."""
    nrc = directory / "nrc.tsv"
    rows = []
    for cat in FEATURE_NAMES[:10]:  # 8 emotions + positive + negative
        rows.append(f"w_{cat}\t{cat}\t1\n")
    nrc.write_text("".join(rows))
    moral = directory / "moral.tsv"
    moral.write_text("".join(f"m_{cat}\t{cat}\t1\n" for cat in FEATURE_NAMES[10:20]))
    img = directory / "img.tsv"
    img.write_text("dog\t0.9\n")
    abst = directory / "abs.tsv"
    abst.write_text("idea\t0.8\n")
    hyper = directory / "hyper.txt"
    hyper.write_text("terrifying\n")
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(MANIFEST))
    return manifest


class TestLoadLexiconSet:
    def test_manifest_with_shared_nrc_file(self, tmp_path):
        manifest = write_lexicon_files(tmp_path)
        lex = load_lexicon_set(manifest)
        assert set(lex.emotions.categories) == set(FEATURE_NAMES[:8])
        assert set(lex.sentiment.categories) == {"positive", "negative"}
        assert lex.imageability.ratings == {"dog": 0.9}
        assert lex.hyperbolic == CategoryLexicon(name="hyperbolic",
                                                 categories={"hyperbolic": {"terrifying"}})

    def test_a_lexicon_missing_a_category_is_config_error(self, tmp_path):
        manifest = write_lexicon_files(tmp_path)
        nrc = tmp_path / "nrc.tsv"
        nrc.write_text(nrc.read_text().replace("w_trust\ttrust\t1\n", ""))
        with pytest.raises(ConfigError, match=r"'emotions' is missing categories: \['trust'\]"):
            load_lexicon_set(manifest)


class TestExtractAffect:
    def test_fear_count_normalized_by_doc_length(self, toy_lexicons):
        # 10-token doc; segment [attack, kill, attack]: fear count 3 -> 3/10
        doc = TokenizedDocument(
            ["attack", "kill", "attack", "x", "x", "x", "x", "x", "x", "x"]
        )
        seg = segment(doc, 2, 5)
        # the first segment holds exactly the three matches
        assert segment_tokens(seg) == [["attack", "kill", "attack", "x", "x"], ["x"] * 5]
        matrix = extract_affect(seg, toy_lexicons)
        fear = FEATURE_NAMES.index("fear")
        assert matrix.values[0, fear] == 3 / 10
        assert matrix.values[1, fear] == 0.0

    def test_fully_padded_segment_is_zero_row(self, toy_lexicons):
        seg = segment(TokenizedDocument(["attack"]), 3, 2)
        matrix = extract_affect(seg, toy_lexicons)
        assert np.all(matrix.values[1] == 0.0)
        assert np.all(matrix.values[2] == 0.0)

    def test_rating_sum_rule(self, toy_lexicons):
        # one "dog" with imageability 0.9 in a 9-token doc -> 0.1
        doc = TokenizedDocument(["dog"] + ["x"] * 8)
        seg = segment(doc, 1, 9)
        matrix = extract_affect(seg, toy_lexicons)
        assert matrix.values[0, FEATURE_NAMES.index("imageability")] == 0.9 / 9

    def test_multi_category_token_counts_everywhere(self, toy_lexicons):
        # "kill" is fear + sadness + negative + harm
        doc = TokenizedDocument(["kill", "x", "x", "x"])
        seg = segment(doc, 1, 4)
        row = extract_affect(seg, toy_lexicons).values[0]
        for cat in ("fear", "sadness", "negative", "harm"):
            assert row[FEATURE_NAMES.index(cat)] == 0.25

    def test_normalizer_is_pretruncation_length(self, toy_lexicons):
        # 8 tokens truncated to 4: counts divide by 8, not 4
        doc = TokenizedDocument(["attack"] * 8)
        seg = segment(doc, 2, 2)
        matrix = extract_affect(seg, toy_lexicons)
        fear = FEATURE_NAMES.index("fear")
        assert matrix.values[0, fear] == 2 / 8
        assert matrix.values[1, fear] == 2 / 8

    def test_matches_brute_force_oracle_bit_exact(self, toy_lexicons):
        rng = np.random.default_rng(7)
        vocab = ["attack", "kill", "smile", "dog", "idea", "terror", "nurse",
                 "terrifying", "x", "y", "z"]
        for trial in range(50):
            n_tokens = int(rng.integers(1, 60))
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), n_tokens)]
            n = int(rng.choice([1, 3, 10]))
            max_len = int(rng.integers(1, 12))
            seg = segment(TokenizedDocument(tokens), n, max_len)
            ours = extract_affect(seg, toy_lexicons).values
            oracle = brute_force_affect(tokens, segment_tokens(seg),
                                        seg.doc_length, toy_lexicons)
            assert np.array_equal(ours, oracle)

    def test_additivity_over_segments(self, toy_lexicons):
        tokens = ["attack", "kill", "smile", "attack", "x", "kill"] * 3
        doc = TokenizedDocument(tokens)
        seg = segment(doc, 3, 6)
        matrix = extract_affect(seg, toy_lexicons).values
        fear = FEATURE_NAMES.index("fear")
        total_matches = sum(t in {"attack", "kill", "panic", "terror"} for t in tokens)
        assert matrix[:, fear].sum() == pytest.approx(total_matches / len(tokens), abs=1e-15)

    def test_scale_bound(self, toy_lexicons):
        tokens = ["attack"] * 30
        seg = segment(TokenizedDocument(tokens), 3, 10)
        matrix = extract_affect(seg, toy_lexicons).values
        categorical = np.concatenate([matrix[:, :20].ravel(), matrix[:, 22:].ravel()])
        assert np.all(categorical >= 0.0)
        assert np.all(categorical <= 1.0)

    def test_rebinning_equivalence(self, toy_lexicons):
        # extracting per segment equals extracting over the whole truncated
        # document and re-binning its counts by the segment boundaries
        tokens = ["attack", "kill", "smile", "dog", "x", "terror", "y"] * 4
        doc = TokenizedDocument(tokens)
        n, max_len = 3, 8
        seg = segment(doc, n, max_len)
        ours = extract_affect(seg, toy_lexicons).values

        truncated = tokens[: n * max_len]
        whole = segment(TokenizedDocument(truncated), 1, len(truncated))
        whole_counts = extract_affect(whole, toy_lexicons).values[0] * whole.doc_length

        rebinned = np.zeros_like(ours)
        cursor = 0
        for i in range(n):
            n_real = int(seg.offsets[i + 1] - seg.offsets[i])
            piece = truncated[cursor : cursor + n_real]
            cursor += n_real
            if piece:
                sub = segment(TokenizedDocument(piece), 1, len(piece))
                rebinned[i] = extract_affect(sub, toy_lexicons).values[0] * len(piece)
        rebinned /= seg.doc_length

        assert np.allclose(ours, rebinned, atol=1e-12)
        assert np.allclose(ours.sum(axis=0) * seg.doc_length, whole_counts, atol=1e-12)

    def test_determinism_bit_exact(self, toy_lexicons):
        tokens = ["attack", "dog", "smile", "terror", "x"] * 5
        seg = segment(TokenizedDocument(tokens), 4, 7)
        first = extract_affect(seg, toy_lexicons).values
        second = extract_affect(seg, toy_lexicons).values
        assert np.array_equal(first, second)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_synthetic_all_category_word(self, n_tokens, seed):
        # a token present in every category contributes to all 21 count features
        lex = build_lexicon_set(
            emotions={c: {"omni"} for c in FEATURE_NAMES[:8]},
            sentiment={c: {"omni"} for c in FEATURE_NAMES[8:10]},
            morality={c: {"omni"} for c in FEATURE_NAMES[10:20]},
            hyperbolic={"omni"},
        )
        rng = np.random.default_rng(seed)
        tokens = ["omni" if rng.random() < 0.4 else "blank" for _ in range(n_tokens)]
        seg = segment(TokenizedDocument(tokens), 2, max(1, n_tokens))
        matrix = extract_affect(seg, lex).values
        count_cols = list(range(20)) + [22]
        expected = tokens.count("omni") / n_tokens
        for col in count_cols:
            assert matrix[:, col].sum() == pytest.approx(expected, abs=1e-15)


class TestWeightMatrix:
    def test_word_in_two_hyperbolic_categories_counts_once(self, toy_lexicons):
        lex = replace(toy_lexicons, hyperbolic=CategoryLexicon(
            name="hyperbolic", categories={"hyperbolic": {"huge"}, "intensifier": {"huge"}}))
        tokens = ["huge", "dog"]
        seg = segment(TokenizedDocument(tokens), 1, 2)
        values = extract_affect(seg, lex).values
        assert values[0, FEATURE_NAMES.index("hyperbolic")] == 0.5
        assert np.array_equal(values, brute_force_affect(tokens, segment_tokens(seg), 2, lex))
        assert lex.token_categories("huge") == ["hyperbolic"]

    def test_document_length_below_one_is_usage_error(self, toy_lexicons):
        seg = SegmentedDocument(n_segments=2, max_seg_len=2, tokens=[],
                                offsets=np.array([0, 0, 0]), doc_length=0)
        with pytest.raises(UsageError, match="document length must be >= 1"):
            extract_affect(seg, toy_lexicons)

    def test_document_without_lexicon_words_is_float64_zeros(self, toy_lexicons):
        values = extract_affect(segment(TokenizedDocument(["x", "y", "z"]), 4, 2),
                                toy_lexicons).values
        assert values.dtype == np.float64 and values.shape == (4, 23)
        assert not values.any()

    def test_zero_rating_and_empty_middle_segment(self, toy_lexicons):
        lex = replace(toy_lexicons, imageability=RatingLexicon(
            name="imageability", ratings={"dog": 0.9, "flat": 0.0}))
        # segment 1 is empty, so tokens 1 and 2 belong to segment 2
        seg = SegmentedDocument(n_segments=3, max_seg_len=2, tokens=["attack", "flat", "dog"],
                                offsets=np.array([0, 1, 1, 3]), doc_length=4)
        values = extract_affect(seg, lex).values
        expected = np.zeros((3, 23))
        for cat in ("fear", "negative", "harm"):
            expected[0, FEATURE_NAMES.index(cat)] = 1 / 4
        expected[2, FEATURE_NAMES.index("imageability")] = (0.0 + 0.9) / 4
        assert np.array_equal(values, expected)
        assert np.array_equal(values, brute_force_affect(seg.tokens, segment_tokens(seg), 4, lex))
        assert lex.token_categories("flat") == []
        assert lex.token_categories("attack") == ["fear", "harm"]


class TestVocabularyRows:
    def test_each_id_reads_its_tokens_row(self, toy_lexicons):
        token_to_id = {"x": 2, "kill": 3, "dog": 4, "terrifying": 5}
        table = toy_lexicons.vocabulary_rows(token_to_id)
        assert table.dtype == np.intp and table.shape == (6,)
        ids = list(token_to_id.values())
        assert table[ids].tolist() == toy_lexicons.token_rows(list(token_to_id)).tolist()
        assert table[0] == 0 and table[UNK_ID] == -1  # UNK_ID is looked up by string

    def test_an_id_gap_reads_no_lexicon_row(self, toy_lexicons):
        table = toy_lexicons.vocabulary_rows({"dog": 2, "kill": 9})
        assert table.shape == (10,)
        assert table[3:9].tolist() == [0] * 6
        assert table[[2, 9]].tolist() == toy_lexicons.token_rows(["dog", "kill"]).tolist()

    def test_an_id_shared_by_tokens_of_different_rows_is_looked_up_by_string(self,
                                                                             toy_lexicons):
        table = toy_lexicons.vocabulary_rows({"dog": 2, "kill": 2, "x": 3, "y": 3})
        assert table[2] == -1 and table[3] == 0

    def test_negative_id_is_a_usage_error(self, toy_lexicons):
        with pytest.raises(UsageError, match="-3"):
            toy_lexicons.vocabulary_rows({"dog": 2, "kill": -3})

    def test_table_is_kept_for_the_same_map_and_rebuilt_when_it_grows(self, toy_lexicons):
        token_to_id = {"dog": 2, "x": 3}
        table = toy_lexicons.vocabulary_rows(token_to_id)
        assert toy_lexicons.vocabulary_rows(token_to_id) is table
        assert toy_lexicons.vocabulary_rows(dict(token_to_id)) is not table
        token_to_id["kill"] = 4
        grown = toy_lexicons.vocabulary_rows(token_to_id)
        assert grown.shape == (5,) and grown[4] == toy_lexicons.token_rows(["kill"])[0]


def load_or_none(load, path):
    """load(path), or None if it raised a FakeflowError, the only exception allowed."""
    try:
        return load(path)
    except FakeflowError:
        return None


# a field of a lexicon row: words, flags, ratings and raw text
row_fields = st.one_of(
    st.sampled_from(["fear", "joy", "hyperbolic", "0", "1", "2", "0.5", "-1", "nan", "inf",
                     "1e400", "", " "]),
    st.text(max_size=6),
)
row_bytes = st.one_of(
    st.lists(row_fields, max_size=4).map(lambda fields: "\t".join(fields).encode()),
    st.binary(max_size=12),
)


class TestLexiconInputFailures:
    @pytest.mark.parametrize("load", [
        lambda p: load_category_lexicon(p, fmt="nrc"),
        lambda p: load_category_lexicon(p, fmt="wordlist", name="hyperbolic"),
        load_rating_lexicon,
        load_lexicon_set,
    ], ids=["nrc", "wordlist", "ratings", "manifest"])
    def test_non_utf8_file_is_parse_error_naming_it(self, tmp_path, load):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("caf\xe9\tfear\t1\n".encode("latin-1"))
        with pytest.raises(ParseError) as err:
            load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("entry", [
        5, None, ["img.tsv"], {"format": "tsv"}, {"path": 5}, "", "missing.tsv", ".",
    ])
    def test_bad_manifest_entry_is_config_error_naming_the_manifest(self, tmp_path, entry):
        manifest = write_lexicon_files(tmp_path)
        manifest.write_text(json.dumps(dict(MANIFEST, imageability=entry)))
        with pytest.raises(ConfigError) as err:
            load_lexicon_set(manifest)
        assert str(manifest) in str(err.value) and "imageability" in str(err.value)

    @pytest.mark.parametrize("text", ["5", "[]", '"emotions"', "[" * 100_000],
                             ids=["number", "list", "string", "deep-nesting"])
    def test_manifest_that_is_not_an_object_is_rejected(self, tmp_path, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        with pytest.raises((ConfigError, ParseError)) as err:
            load_lexicon_set(manifest)
        assert str(manifest) in str(err.value)

    def test_absolute_entry_path_loads(self, tmp_path):
        manifest = write_lexicon_files(tmp_path)
        manifest.write_text(json.dumps(dict(MANIFEST, imageability=str(tmp_path / "img.tsv"))))
        assert load_lexicon_set(manifest).imageability.ratings == {"dog": 0.9}

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(row_bytes, max_size=5))
    def test_any_rows_load_or_raise_a_fakeflow_error(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rows") / "lexicon.tsv"
        path.write_bytes(b"\n".join(rows))
        load_or_none(lambda p: load_category_lexicon(p, fmt="nrc"), path)
        load_or_none(
            lambda p: load_category_lexicon(p, fmt="wordlist", name="hyperbolic"), path)
        ratings = load_or_none(load_rating_lexicon, path)
        if ratings is not None:
            assert all(np.isfinite(r) and r >= 0 for r in ratings.ratings.values())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_manifest_loads_or_raises_a_fakeflow_error(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("manifest")
        manifest = write_lexicon_files(directory)
        paths = st.one_of(st.sampled_from(sorted(set(MANIFEST.values())) + [
            "", ".", "missing.tsv", "manifest.json", str(directory / "img.tsv")]), json_values)
        entries = st.one_of(
            paths,
            st.fixed_dictionaries({}, optional={
                "path": paths,
                "format": st.one_of(st.sampled_from(["nrc", "wordlist", "tsv"]), json_values),
            }),
        )
        fuzzed = st.dictionaries(st.sampled_from(sorted(MANIFEST)), entries)
        payload = data.draw(st.one_of(
            fuzzed.map(lambda entries: {**MANIFEST, **entries}), fuzzed, json_values))
        manifest.write_text(json.dumps(payload))
        load_or_none(load_lexicon_set, manifest)
