import json
import string
import sys
import threading
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values, segment_tokens
from fakeflow import corpus
from fakeflow.corpus import (
    DomainVerdict,
    RawArticle,
    SourceListEntry,
    TokenizedDocument,
    build_vocabulary,
    complement_test_with_real,
    encode,
    load_corpus,
    load_label_mapping,
    load_source_lists,
    load_vocabulary,
    load_word_vectors,
    merge_source_lists,
    project_and_sample,
    segment,
    split_train_val,
    tokenize,
)
from fakeflow.errors import (
    ConfigError,
    EmptyDocument,
    FakeflowError,
    ParseError,
    StratificationError,
    UsageError,
)
from fakeflow.lexicon import load_lexicon_set


_BOUNDARY = string.punctuation + "‘’“”«»–—…¿¡"


def _loop_tokens(text):
    """tokenize's tokens as its earlier per-token loop made them."""
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(_BOUNDARY)
        if tok:
            tokens.append(tok)
    return tokens


_WORDS = st.one_of(
    st.sampled_from(["the", "Wolf", "ATTACKS", "don't", "stop-me", "naïve", "Straße", "İstanbul",
                     "ǅemal", "u.s.a", "₂", "2016"]),
    st.text(alphabet="aZéÉßİσΣ0'-.,", min_size=1, max_size=6),  # mixed case, inner marks
)
_PIECES = st.one_of(
    _WORDS,
    st.text(alphabet=_BOUNDARY, min_size=1, max_size=3),
    st.tuples(st.text(alphabet=_BOUNDARY, max_size=3), _WORDS,
              st.text(alphabet=_BOUNDARY, max_size=3)).map("".join),
)
_SPACES = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000", min_size=1, max_size=3)
_TEXTS = st.tuples(st.text(alphabet=" \t\n", max_size=2),
                   st.lists(st.tuples(_PIECES, _SPACES).map("".join), max_size=25),
                   ).map(lambda parts: parts[0] + "".join(parts[1]))


class TestTokenize:
    def test_lowercase_split_and_boundary_punctuation(self):
        doc = tokenize("The WOLF attacks!")
        assert doc.tokens == ["the", "wolf", "attacks"]
        assert doc.length == 3

    def test_duplicates_preserved(self):
        assert tokenize("a a a").tokens == ["a", "a", "a"]

    def test_inner_punctuation_kept(self):
        assert tokenize("don't stop-me (now)").tokens == ["don't", "stop-me", "now"]

    def test_pure_punctuation_tokens_vanish(self):
        assert tokenize("hello -- world").tokens == ["hello", "world"]

    def test_length_matches_word_count(self):
        # a 422-word article reports length 422
        text = " ".join(f"word{i}" for i in range(422))
        assert tokenize(text).length == 422

    def test_empty_after_tokenization(self):
        with pytest.raises(EmptyDocument):
            tokenize("!!! ... ---")

    @settings(max_examples=300, deadline=None)
    @given(_TEXTS)
    def test_equals_the_per_token_loop(self, text):
        expected = _loop_tokens(text)
        if not expected:
            with pytest.raises(EmptyDocument):
                tokenize(text)
        else:
            assert tokenize(text).tokens == expected

    def test_equal_tokens_are_one_object(self):
        with patch.object(corpus, "_TOKENS", corpus._TokenTable()):
            first = tokenize("The wolf, the WOLF! wolf... «the» (wolf)")
            second = tokenize("wolf THE wolf")
            third = tokenize("“The” Wolf")
        # within a document, across documents and across calls
        shared = {}
        for tok in first.tokens + second.tokens + third.tokens:
            assert shared.setdefault(tok, tok) is tok
        assert sorted(shared) == ["the", "wolf"]

    def test_table_stays_within_its_bound(self):
        class Watched(corpus._TokenTable):
            most = 0

            def __setitem__(self, raw, tok):
                super().__setitem__(raw, tok)
                self.most = max(self.most, len(self))

        words = [f"{pre}Word{i}{post}" for i in range(300)
                 for pre, post in (("", ""), ("(", "),"), ("", "..."))]
        text = " ".join(words)
        with patch.object(corpus, "TOKEN_TABLE_BOUND", 8), \
                patch.object(corpus, "_TOKENS", Watched()) as table:
            assert tokenize(text).tokens == _loop_tokens(text)
            for word in words:
                assert tokenize(word).tokens == _loop_tokens(word)
                assert len(table) <= 8
        assert table.most == 8

    def test_threads_get_the_serial_tokens(self):
        texts = [" ".join(f"“Tok{(i * 7 + j) % 500}”, w{j}!" for j in range(60))
                 for i in range(40)]
        expected = [_loop_tokens(text) for text in texts]
        results = [None] * 4
        start = threading.Barrier(len(results))

        def work(k):
            start.wait(timeout=60)
            results[k] = [tokenize(text).tokens for text in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            # a small bound, so the threads also empty the table under each other
            with patch.object(corpus, "TOKEN_TABLE_BOUND", 64), \
                    patch.object(corpus, "_TOKENS", corpus._TokenTable()):
                threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * len(results)


class TestSegment:
    def test_exact_fit(self):
        doc = TokenizedDocument(tokens=[f"t{i}" for i in range(10)])
        seg = segment(doc, 2, 5)
        assert segment_tokens(seg) == [[f"t{i}" for i in range(5)],
                                       [f"t{i}" for i in range(5, 10)]]
        assert seg.offsets.tolist() == [0, 5, 10]
        assert seg.offsets.dtype == np.int64

    def test_equal_chunks_padded(self):
        # 9 tokens over 3 segments: chunks of ceil(9/3)=3, below the cap of 5
        doc = TokenizedDocument(tokens=[f"t{i}" for i in range(9)])
        seg = segment(doc, 3, 5)
        assert segment_tokens(seg) == [
            ["t0", "t1", "t2"], ["t3", "t4", "t5"], ["t6", "t7", "t8"],
        ]
        assert seg.offsets.tolist() == [0, 3, 6, 9]

    def test_single_segment_truncation(self):
        # 2000 tokens at N=1 with cap 1500: one segment, 500 dropped
        doc = TokenizedDocument(tokens=[f"t{i}" for i in range(2000)])
        seg = segment(doc, 1, 1500)
        assert seg.n_segments == 1
        assert seg.offsets.tolist() == [0, 1500]
        assert seg.tokens[-1] == "t1499"
        assert seg.doc_length == 2000

    def test_short_document_trailing_segments_padded(self):
        doc = TokenizedDocument(tokens=["a", "b"])
        seg = segment(doc, 4, 3)
        assert seg.offsets.tolist() == [0, 1, 2, 2, 2]
        assert segment_tokens(seg) == [["a"], ["b"], [], []]

    @settings(max_examples=60, deadline=None)
    @given(
        n_tokens=st.integers(min_value=1, max_value=60),
        n_segments=st.integers(min_value=1, max_value=7),
        max_seg_len=st.integers(min_value=1, max_value=9),
    )
    def test_reassembly_property(self, n_tokens, n_segments, max_seg_len):
        tokens = [f"w{i}" for i in range(n_tokens)]
        seg = segment(TokenizedDocument(tokens=tokens), n_segments, max_seg_len)
        kept = tokens[: n_segments * max_seg_len]
        assert seg.offsets.shape == (n_segments + 1,)
        assert seg.offsets[0] == 0 and seg.offsets[-1] == len(kept) == len(seg.tokens)
        lengths = np.diff(seg.offsets).tolist()
        assert all(0 <= n <= max_seg_len for n in lengths)
        # chunk rule: full ceil(L'/N) chunks, then the remainder, then empty segments
        chunk = -(-len(kept) // n_segments)
        full, rest = divmod(len(kept), chunk)
        tail = [rest] if rest else []
        assert lengths == [chunk] * full + tail + [0] * (n_segments - full - len(tail))
        rebuilt = [tok for part in segment_tokens(seg) for tok in part]
        assert rebuilt == kept


class TestVocabulary:
    def test_frequency_then_lexicographic(self):
        docs = [TokenizedDocument(["a", "b"]), TokenizedDocument(["a"])]
        vocab = build_vocabulary(docs, min_count=1)
        assert vocab.token_to_id == {"a": 2, "b": 3}

    def test_min_count_threshold(self):
        docs = [TokenizedDocument(["a", "b"]), TokenizedDocument(["a"])]
        vocab = build_vocabulary(docs, min_count=2)
        assert vocab.token_to_id == {"a": 2}
        assert vocab.id_of("b") == 1

    def test_deterministic(self):
        docs = [TokenizedDocument(["z", "m", "a", "m"]), TokenizedDocument(["z"])]
        assert build_vocabulary(docs).token_to_id == build_vocabulary(docs).token_to_id

    def test_empty_corpus_is_usage_error(self):
        with pytest.raises(UsageError, match="empty corpus"):
            build_vocabulary([])

    def test_tie_break_lexicographic(self):
        docs = [TokenizedDocument(["b", "a"])]
        vocab = build_vocabulary(docs)
        assert vocab.token_to_id == {"a": 2, "b": 3}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.text(alphabet="abAé", min_size=1, max_size=3), max_size=12),
                    min_size=1, max_size=8),
           st.integers(1, 4))
    def test_order_is_count_descending_then_lexicographic(self, token_lists, min_count):
        counts = Counter(tok for tokens in token_lists for tok in tokens)
        kept = sorted((tok for tok, cnt in counts.items() if cnt >= min_count),
                      key=lambda tok: (-counts[tok], tok))
        vocab = build_vocabulary([TokenizedDocument(t) for t in token_lists], min_count)
        assert list(vocab.token_to_id.items()) == [(tok, i + 2) for i, tok in enumerate(kept)]

    def test_file_round_trip(self, tmp_path):
        vocab = build_vocabulary([TokenizedDocument(["b", "a", "b", "c"])])
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(vocab.to_json()))
        assert load_vocabulary(path) == vocab

    @pytest.mark.parametrize("content, error", [
        ('{"tokens": {"caf\xe9": 2}}'.encode("latin-1"), ParseError),
        (b'{"tokens": ', ParseError),
        (b"[1, 2]", ConfigError),
        (b'{"words": {"a": 2}}', ConfigError),
        (b'{"tokens": {"a": "x"}}', ConfigError),
        (b'{"tokens": {"a": 2, "b": 4}}', ConfigError),
        (b'{"tokens": {"a": 2, "b": 2}}', ConfigError),
        (b'{"tokens": {"a": true}}', ConfigError),
        (b'{"tokens": {"a": 2.0}}', ConfigError),
    ], ids=["latin-1", "truncated", "list", "no-tokens", "string-id", "id-gap",
            "duplicate-id", "bool-id", "float-id"])
    def test_malformed_file_names_the_file(self, tmp_path, content, error):
        path = tmp_path / "vocab.json"
        path.write_bytes(content)
        with pytest.raises(error) as err:
            load_vocabulary(path)
        assert str(path) in str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(content=st.one_of(
        st.one_of(
            json_values,
            st.dictionaries(st.text(max_size=4), st.integers(-1, 6) | json_values,
                            max_size=4).map(lambda tokens: {"tokens": tokens}),
            st.lists(st.text(max_size=4), unique=True, max_size=5).flatmap(
                lambda toks: st.permutations(list(range(2, len(toks) + 2))).map(
                    lambda ids: {"tokens": dict(zip(toks, ids))})),
        ).map(lambda payload: json.dumps(payload).encode()),
        st.binary(max_size=24),
    ))
    def test_any_content_loads_or_raises_a_fakeflow_error(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("vocab") / "vocab.json"
        path.write_bytes(content)
        try:
            vocab = load_vocabulary(path)
        except FakeflowError as exc:
            assert str(path) in str(exc)
            return
        assert sorted(vocab.token_to_id.values()) == list(range(2, vocab.size))


class TestEncode:
    def test_basic_and_padding(self):
        # ids start at 2 and nothing pads the segment up to its cap of 3
        doc = TokenizedDocument(["a", "b"])
        seg = segment(doc, 1, 3)
        vocab = build_vocabulary([doc])
        ids = encode(seg, vocab)
        assert ids.dtype == np.int64
        assert ids.tolist() == [2, 3]
        assert seg.offsets.tolist() == [0, 2]

    def test_unknown_token(self):
        seg = segment(TokenizedDocument(["a", "zzz"]), 1, 2)
        vocab = build_vocabulary([TokenizedDocument(["a"])])
        assert encode(seg, vocab).tolist() == [2, 1]

    def test_fully_padded_segment_is_zero(self):
        # an empty trailing segment is an empty slice of the id vector
        seg = segment(TokenizedDocument(["a"]), 2, 2)
        vocab = build_vocabulary([TokenizedDocument(["a"])])
        ids = encode(seg, vocab)
        assert ids.tolist() == [2]
        assert ids[seg.offsets[1] : seg.offsets[2]].tolist() == []


class TestMergeSourceLists:
    def test_agreement_across_lists(self):
        entries = [
            SourceListEntry("good.com", "OS", "reliable"),
            SourceListEntry("good.com", "MBFC", "high"),
        ]
        verdicts, conflicts = merge_source_lists(entries)
        assert conflicts == []
        assert len(verdicts) == 1
        assert verdicts[0].label == "real"
        assert verdicts[0].supporting_lists == {"OS", "MBFC"}

    def test_conflict_excluded(self):
        entries = [
            SourceListEntry("shady.com", "OS", "reliable"),
            SourceListEntry("shady.com", "MBFC", "low"),
        ]
        verdicts, conflicts = merge_source_lists(entries)
        assert verdicts == []
        assert conflicts == ["shady.com"]

    def test_drop_categories_do_not_label(self):
        entries = [
            SourceListEntry("mixed.com", "MBFC", "medium"),
            SourceListEntry("mixed.com", "OS", "fake"),
            SourceListEntry("politi.com", "POLITIFACT", "Some fake stories"),
        ]
        verdicts, conflicts = merge_source_lists(entries)
        assert conflicts == []
        assert [v.domain for v in verdicts] == ["mixed.com"]
        assert verdicts[0].label == "fake"

    def test_politifact_fallback_maps_fake(self):
        entries = [SourceListEntry("imposter.com", "POLITIFACT", "imposter")]
        verdicts, _ = merge_source_lists(entries)
        assert verdicts[0].label == "fake"

    @pytest.mark.parametrize("mapping, error", [
        # the default OS mapping has a wildcard drop; a custom mapping without it fails
        ({("OS", "reliable"): "real"}, "no mapping for category 'weird'"),
        ({("OS", "*"): "maybe"}, "must be real, fake, or drop; got 'maybe'"),
    ], ids=["unmapped", "bad-rule"])
    def test_unmapped_category_raises(self, mapping, error):
        entries = [SourceListEntry("x.com", "OS", "weird")]
        with pytest.raises(ConfigError, match=error):
            merge_source_lists(entries, mapping=mapping)

    def test_surviving_count_emitted(self):
        entries = [
            SourceListEntry(f"site{i}.com", "OS", "reliable") for i in range(5)
        ] + [SourceListEntry("site0.com", "MBFC", "low")]
        verdicts, conflicts = merge_source_lists(entries)
        assert len(verdicts) == 4 and conflicts == ["site0.com"]

    def test_no_domain_with_two_labels(self):
        entries = [
            SourceListEntry("a.com", "OS", "reliable"),
            SourceListEntry("a.com", "POLITIFACT", "fake news"),
            SourceListEntry("b.com", "OS", "fake"),
            SourceListEntry("b.com", "MBFC", "low"),
        ]
        verdicts, conflicts = merge_source_lists(entries)
        labels = {}
        for v in verdicts:
            assert v.domain not in labels
            labels[v.domain] = v.label
        assert conflicts == ["a.com"]


def _articles_for_domain(domain: str, count: int, words: int = 40) -> list[RawArticle]:
    text = " ".join(f"w{i}" for i in range(words))
    return [RawArticle(id=f"{domain}-{i}", text=text, domain=domain) for i in range(count)]


class TestProjectAndSample:
    def test_per_domain_cap(self):
        articles = _articles_for_domain("fake.com", 150)
        verdicts = [DomainVerdict(domain="fake.com", label="fake")]
        sampled = project_and_sample(articles, verdicts, seed=3)
        assert len(sampled) == 100
        assert all(a.label == "fake" for a in sampled)

    def test_min_words_floor(self):
        short = RawArticle(id="s", text=" ".join(f"w{i}" for i in range(29)), domain="d.com")
        exact = RawArticle(id="e", text=" ".join(f"w{i}" for i in range(30)), domain="d.com")
        verdicts = [DomainVerdict(domain="d.com", label="real")]
        sampled = project_and_sample([short, exact], verdicts, seed=0)
        assert [a.id for a in sampled] == ["e"]

    def test_deterministic_given_seed(self):
        articles = _articles_for_domain("x.com", 130)
        verdicts = [DomainVerdict(domain="x.com", label="real")]
        first = [a.id for a in project_and_sample(articles, verdicts, seed=11)]
        second = [a.id for a in project_and_sample(articles, verdicts, seed=11)]
        third = [a.id for a in project_and_sample(articles, verdicts, seed=12)]
        assert first == second
        assert first != third

    def test_unknown_domain_skipped(self, caplog):
        articles = _articles_for_domain("unknown.com", 2)
        sampled = project_and_sample(articles, [DomainVerdict(domain="k.com", label="real")], seed=0)
        assert sampled == []

    def test_sampled_articles_keep_every_field_but_the_label(self):
        article = RawArticle(id="a", text=" ".join(f"w{i}" for i in range(30)), label="real",
                             domain="d.com", year=2016, split_hint="test")
        [sampled] = project_and_sample([article], [DomainVerdict(domain="d.com", label="fake")])
        assert vars(sampled) == {**vars(article), "label": "fake"}


class TestSplitTrainVal:
    def _corpus(self, n_real, n_fake):
        text = " ".join(f"w{i}" for i in range(35))
        return [
            RawArticle(id=f"r{i}", text=text, label="real") for i in range(n_real)
        ] + [RawArticle(id=f"f{i}", text=text, label="fake") for i in range(n_fake)]

    def test_stratified_counts(self):
        train, val = split_train_val(self._corpus(60, 40), val_fraction=0.2, seed=1)
        val_labels = [a.label for a in val]
        assert val_labels.count("real") == 12
        assert val_labels.count("fake") == 8
        assert len(train) == 80

    def test_deterministic(self):
        corpus = self._corpus(30, 20)
        first = [a.id for a in split_train_val(corpus, seed=5)[1]]
        second = [a.id for a in split_train_val(corpus, seed=5)[1]]
        assert first == second

    def test_paper_scale_split_size(self):
        # 9,708 training articles yield round(0.2 * 9708) = 1942 validation
        corpus = self._corpus(5994, 3714)
        assert len(corpus) == 9708
        _, val = split_train_val(corpus, val_fraction=0.2, seed=0)
        assert len(val) == 1942

    @pytest.mark.parametrize("corpus, error, match", [
        ([RawArticle(id="r", text="a", label="real")] * 5
         + [RawArticle(id="f", text="a", label="fake")], StratificationError, "fewer than 2"),
        ([], UsageError, "empty corpus"),
        ([RawArticle(id="r", text="a", label="real"), RawArticle(id="u", text="a")],
         UsageError, "article u has no label"),
    ], ids=["small-class", "empty", "unlabeled"])
    def test_small_class_raises(self, corpus, error, match):
        with pytest.raises(error, match=match):
            split_train_val(corpus, seed=0)


class TestComplementTestWithReal:
    def test_removal_default(self):
        text = " ".join(f"w{i}" for i in range(35))
        corpus = [RawArticle(id=f"r{i}", text=text, label="real") for i in range(10)]
        corpus += [RawArticle(id=f"f{i}", text=text, label="fake") for i in range(4)]
        remaining, sampled = complement_test_with_real(corpus, n_real=3, seed=2)
        assert len(sampled) == 3 and all(a.label == "real" for a in sampled)
        assert len(remaining) == 11
        assert {a.id for a in sampled}.isdisjoint({a.id for a in remaining})

    def test_keep_flag(self):
        text = " ".join(f"w{i}" for i in range(35))
        corpus = [RawArticle(id=f"r{i}", text=text, label="real") for i in range(5)]
        remaining, sampled = complement_test_with_real(corpus, 2, seed=0, remove_from_train=False)
        assert len(remaining) == 5 and len(sampled) == 2

    def test_more_than_available_is_usage_error(self):
        corpus = [RawArticle(id="r", text="a", label="real"), RawArticle(id="f", text="a",
                                                                          label="fake")]
        with pytest.raises(UsageError, match="asked for 2 real articles but only 1 available"):
            complement_test_with_real(corpus, 2)


class TestLoadCorpus:
    def test_round_trip_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "1", "text": "hello there", "label": "fake",
                                    "domain": "x.com"}) + "\n")
        articles = load_corpus(path)
        assert articles[0].id == "1"
        assert articles[0].label == "fake"
        assert articles[0].domain == "x.com"

    def test_missing_text_names_field_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "1", "text": "x y"}) + "\n"
                        + json.dumps({"id": "2"}) + "\n")
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert "text" in str(err.value)
        assert ":2" in str(err.value)

    def test_year_parsed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "1", "text": "a b", "year": 2013}) + "\n")
        assert load_corpus(path)[0].year == 2013

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "text": "a"}\n{"id": "1", "text": "b"}\n')
        with pytest.raises(ParseError):
            load_corpus(path)

    @pytest.mark.parametrize("line", [
        b"5",
        b'"id text"',
        b'["id", "text"]',
        b'{"id": "1", "text": "a", "year": 1e400}',
        b'{"id": "1", "text": "a", "year": 1' + b"0" * 5000 + b"}",
        b"[" * 100_000,
        '{"id": "1", "text": "caf\xe9"}'.encode("latin-1"),
    ], ids=["number", "string", "list", "year-1e400", "5001-digit-year", "deep-nesting",
            "latin-1"])
    def test_malformed_line_is_parse_error_naming_the_file(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "0", "text": "fine"}\n' + line + b"\n")
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert str(path) in str(err.value)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.one_of(
        st.fixed_dictionaries({}, optional={
            "id": json_values,
            "text": st.one_of(st.just("a b"), json_values),
            "label": st.one_of(st.sampled_from(["real", "fake"]), json_values),
            "year": st.one_of(st.integers(), st.floats(), json_values),
            "domain": json_values,
            "split": json_values,
        }).map(lambda record: json.dumps(record).encode()),
        json_values.map(lambda value: json.dumps(value).encode()),
        st.binary(max_size=16),
    ), min_size=1, max_size=4))
    def test_any_lines_load_or_raise_a_fakeflow_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        path.write_bytes(b"\n".join(lines))
        try:
            articles = load_corpus(path)
        except FakeflowError as exc:
            assert str(path) in str(exc)
            return
        for article in articles:
            assert isinstance(article.id, str) and article.text.strip()
            assert article.year is None or isinstance(article.year, int)
            assert all(isinstance(value, (str, type(None)))
                       for value in (article.domain, article.split_hint))


    @pytest.mark.parametrize("year", [2016.7, True, False, "2015", 2016.0, [2016]],
                             ids=["float", "true", "false", "string", "integral-float", "list"])
    def test_year_that_is_not_a_json_integer_is_parse_error(self, tmp_path, year):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "0", "text": "fine", "year": 2015}\n'
                        + json.dumps({"id": "1", "text": "a", "year": year}) + "\n")
        with pytest.raises(ParseError, match="year") as err:
            load_corpus(path)
        assert f"{path}:2:" in str(err.value)

    @pytest.mark.parametrize("value", [["x.com"], 5, True, {"x": "y"}],
                             ids=["list", "integer", "true", "object"])
    @pytest.mark.parametrize("name", ["domain", "split"])
    def test_domain_or_split_that_is_not_a_string_is_parse_error(self, tmp_path, name, value):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "0", "text": "fine", name: "x.com"}) + "\n"
                        + json.dumps({"id": "1", "text": "a", name: value}) + "\n")
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}:2: field {name!r} is not a string"

    @settings(max_examples=150, deadline=None)
    @given(year=st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=6),
                          json_values))
    def test_any_year_loads_as_itself_or_raises(self, tmp_path_factory, year):
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        path.write_text(json.dumps({"id": "1", "text": "a b", "year": year},
                                   allow_nan=True) + "\n")
        if year is None or (isinstance(year, int) and not isinstance(year, bool)):
            assert load_corpus(path)[0].year == year
        else:
            with pytest.raises(ParseError) as err:
                load_corpus(path)
            assert f"{path}:1:" in str(err.value)


class TestLoadSourceLists:
    def test_round_trip(self, tmp_path):
        from fakeflow.corpus import load_source_lists

        path = tmp_path / "lists.csv"
        path.write_text("domain,list,category\nx.com,OS,reliable\nx.com,MBFC,high\n")
        entries = load_source_lists(path)
        assert len(entries) == 2
        assert entries[0].domain == "x.com" and entries[0].raw_category == "reliable"

    def test_duplicate_domain_list_pair_rejected(self, tmp_path):
        from fakeflow.corpus import load_source_lists

        path = tmp_path / "lists.csv"
        path.write_text("domain,list,category\nx.com,OS,reliable\nx.com,OS,fake\n")
        with pytest.raises(ParseError):
            load_source_lists(path)

    def test_missing_header_rejected(self, tmp_path):
        from fakeflow.corpus import load_source_lists

        path = tmp_path / "lists.csv"
        path.write_text("site,source\nx.com,OS\n")
        with pytest.raises(ParseError):
            load_source_lists(path)

    @pytest.mark.parametrize("content, where", [
        (b"domain,list,category\nx.com,OS,reliable\na.com,L1\n", ":3:"),
        (b"domain,list,category\ncaf\xe9.com,OS,reliable\n", ":"),
        (b"domain,list,category\nx.com,OS," + b"a" * 200_000 + b"\n", ": invalid CSV"),
        (b"", ":"),
        (b'domain,list,category\n"x.com",OS,"two\nlines"\ny.com,OS,a\ny.com,OS,b\n', ":5:"),
        (b"domain,list,category\nx.com,OS,a\n0,\x0c,\n", ":3: empty domain or list"),
    ], ids=["short-row", "latin-1", "field-over-csv-limit", "empty", "after-multi-line-field",
            "blank-list"])
    def test_malformed_file_is_parse_error_naming_the_file(self, tmp_path, content, where):
        path = tmp_path / "lists.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError) as err:
            load_source_lists(path)
        assert f"{path}{where}" in str(err.value)

    @settings(max_examples=150, deadline=None)
    @given(header=st.sampled_from([b"domain,list,category", b"domain,list", b""]),
           rows=st.lists(st.one_of(
               st.lists(st.text(max_size=6), max_size=4).map(
                   lambda fields: ",".join(fields).encode()),
               st.binary(max_size=12),
           ), max_size=4))
    def test_any_rows_load_or_raise_a_fakeflow_error(self, tmp_path_factory, header, rows):
        path = tmp_path_factory.mktemp("lists") / "lists.csv"
        path.write_bytes(b"\n".join([header] + rows))
        try:
            entries = load_source_lists(path)
        except FakeflowError as exc:
            assert str(path) in str(exc)
            return
        for entry in entries:
            assert entry.domain and entry.list_name and isinstance(entry.raw_category, str)


@pytest.mark.parametrize("load, what", [
    (load_label_mapping, "mapping"), (load_vocabulary, "vocabulary"),
    (load_lexicon_set, "manifest"),
], ids=["mapping", "vocabulary", "manifest"])
@pytest.mark.parametrize("content", [b"{", b"[" * 100_000], ids=["truncated", "deep-nesting"])
def test_malformed_json_names_the_file_and_what_it_holds(tmp_path, load, what, content):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: invalid {what} JSON: ")


class TestLoadLabelMapping:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"OS": {"reliable": "real", "*": "drop"}}))
        assert load_label_mapping(path) == {("OS", "reliable"): "real", ("OS", "*"): "drop"}

    @pytest.mark.parametrize("content, error", [
        (b"[1, 2]", ConfigError),
        (b"5", ConfigError),
        (b"null", ConfigError),
        (b'{"OS": ["reliable"]}', ConfigError),
        ('{"OS": {"fiable": "real"}}'.replace("fiable", "fi\xe9").encode("latin-1"), ParseError),
        (b"{", ParseError),
        (b"[" * 100_000, ParseError),
        (b'{"OS": {"reliable": 5}}', ConfigError),
        (b'{"OS": {"reliable": "maybe"}}', ConfigError),
    ], ids=["list", "number", "null", "list-for-a-list", "latin-1", "truncated", "deep-nesting",
            "number-rule", "unknown-rule"])
    def test_malformed_file_names_the_file(self, tmp_path, content, error):
        path = tmp_path / "mapping.json"
        path.write_bytes(content)
        with pytest.raises(error) as err:
            load_label_mapping(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("rule", [5, None, "maybe", ["real"], {"real": 1}])
    def test_bad_rule_names_the_file_list_and_category(self, tmp_path, rule):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"OS": {"reliable": "real", "satire": rule}}))
        with pytest.raises(ConfigError) as err:
            load_label_mapping(path)
        assert all(part in str(err.value) for part in (str(path), "'OS'", "'satire'"))

    @settings(max_examples=150, deadline=None)
    @given(content=st.one_of(json_values.map(lambda value: json.dumps(value).encode()),
                             st.dictionaries(st.text(max_size=4), json_values, max_size=3).map(
                                 lambda value: json.dumps(value).encode()),
                             st.binary(max_size=16)))
    def test_any_content_loads_or_raises_a_fakeflow_error(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("mapping") / "mapping.json"
        path.write_bytes(content)
        try:
            mapping = load_label_mapping(path)
        except FakeflowError as exc:
            assert str(path) in str(exc)
            return
        assert all(isinstance(key, tuple) and len(key) == 2 for key in mapping)


class TestWordVectors:
    def test_load_and_fallback(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("hello 0.1 0.2 0.3\nworld 1.0 -1.0 0.5\n")
        vectors = load_word_vectors(path, dim=3)
        assert set(vectors) == {"hello", "world"}
        assert vectors["hello"].tolist() == [0.1, 0.2, 0.3]

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nhello 0.1 0.2 0.3\nworld 1.0 -1.0 0.5\n")
        assert len(load_word_vectors(path, dim=3)) == 2

    @pytest.mark.parametrize("content, dim, expected", [
        ("hello 0.5\nworld 0.7\n", 1, {"hello": [0.5], "world": [0.7]}),
        ("2 3\nhello 0.1 0.2 0.3 \nworld 1.0 -1.0 0.5 \n", 3,
         {"hello": [0.1, 0.2, 0.3], "world": [1.0, -1.0, 0.5]}),
    ], ids=["dim-1-first-line", "word2vec-trailing-space"])
    def test_loads_every_vector(self, tmp_path, content, dim, expected):
        path = tmp_path / "vectors.txt"
        path.write_text(content)
        vectors = load_word_vectors(path, dim=dim)
        assert {word: v.tolist() for word, v in vectors.items()} == expected

    @pytest.mark.parametrize("content, line", [
        ("hello 0.1 0.2 0.3\ncaf\xe9 1 2 3\n".encode("latin-1"), 2),
        (b"hello nan 0.2 0.3\n", 1),
        (b"hello 0.1 0.2 0.3\nworld 1.0 -inf 0.5\n", 2),
        (b"2 3\nhello 0.1 inf 0.3 \n", 2),
        (b"2 3\nhello 0.1 0.2 0.3 \nworld 1.0 0.5 \n", 3),
        (b"hello 0.5\n", 1),
        (b"hello 0.1 0.2 0.3\nworld 1.0 x 0.5\n", 2),
    ], ids=["latin-1", "nan", "inf", "trailing-space-inf", "trailing-space-short",
            "two-fields-not-a-header", "non-numeric"])
    def test_bad_line_is_parse_error_naming_it(self, tmp_path, content, line):
        path = tmp_path / "vectors.txt"
        path.write_bytes(content)
        with pytest.raises(ParseError) as err:
            load_word_vectors(path, dim=3)
        assert f"{path}:{line}: " in str(err.value)

    def test_wrong_dim_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("hello 0.1 0.2\n")
        with pytest.raises(ParseError):
            load_word_vectors(path, dim=3)
