import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_lexicon_set, flow_lexicons, make_flow_corpus, overflowing
from fakeflow import corpus
from fakeflow.corpus import (
    GROUP_TOKENS,
    UNK_ID,
    RawArticle,
    TokenizedDocument,
    Vocabulary,
    build_vocabulary,
    encode,
    load_vocabulary,
    segment,
)
from fakeflow.errors import NumericsError, UsageError
from fakeflow.lexicon import (
    EMOTION_CATEGORIES,
    FEATURE_NAMES,
    MORALITY_CATEGORIES,
    SENTIMENT_CATEGORIES,
    CategoryLexicon,
    LexiconSet,
    RatingLexicon,
    extract_affect,
)
from fakeflow.model import FakeFlowConfig, FakeFlowModel
from fakeflow.train import (
    EarlyStopper,
    SearchSpace,
    TrainConfig,
    prepare_examples,
    random_search,
    select_n_segments,
    tokenize_articles,
    train,
)
from test_lexicon import brute_force_affect


def _flow_examples(n_docs, seed=0, n_segments=10, seg_tokens=6, vocab=None, lex=None):
    docs = make_flow_corpus(n_docs, seed=seed, n_segments=n_segments, seg_tokens=seg_tokens)
    lex = lex or flow_lexicons()
    triples = [(d, TokenizedDocument(toks), lab) for d, toks, lab in docs]
    vocab = vocab or build_vocabulary([t[1] for t in triples])
    return prepare_examples(triples, vocab, lex, n_segments, seg_tokens), vocab, lex


def _affect_config(vocab, n_segments=10, max_seg_len=6, **overrides):
    defaults = dict(
        n_segments=n_segments,
        vocab_size=vocab.size,
        max_seg_len=max_seg_len,
        embed_dim=4,
        cnn_filter_widths=(2,),
        cnn_filter_count=2,
        topic_dense_dim=4,
        gru_units=4,
        final_dense_dim=4,
        dropout_rate=0.1,
        activation="relu",
        optimizer="adam",
        mode="affect_only",
    )
    defaults.update(overrides)
    return FakeFlowConfig(**defaults)


class TestEarlyStopper:
    def test_improve_then_plateau_stops_after_patience(self):
        # strictly improves for 10 epochs, then flat: stop at epoch 14,
        # best checkpoint is epoch 10
        stopper = EarlyStopper(patience=4, higher_is_better=True)
        metrics = [0.1 * e for e in range(1, 11)] + [1.0] * 10
        stopped_at = None
        for epoch, value in enumerate(metrics, start=1):
            if not stopper.update(epoch, value):
                stopped_at = epoch
                break
        assert stopped_at == 14
        assert stopper.best_epoch == 10
        assert stopper.best == pytest.approx(1.0)

    def test_lower_is_better(self):
        stopper = EarlyStopper(patience=2, higher_is_better=False)
        assert stopper.update(1, 0.9)
        assert stopper.update(2, 0.5)
        assert stopper.update(3, 0.6)
        assert not stopper.update(4, 0.7)
        assert stopper.best_epoch == 2

    def test_never_stops_while_improving(self):
        stopper = EarlyStopper(patience=1, higher_is_better=True)
        assert all(stopper.update(e, float(e)) for e in range(1, 51))


class TestTrainLoop:
    def test_empty_split_rejected(self):
        examples, vocab, _ = _flow_examples(4)
        model = FakeFlowModel(_affect_config(vocab), seed=0)
        with pytest.raises(UsageError):
            train(model, examples, [], TrainConfig(max_epochs=2, patience=1, seed=0))

    def test_patience_must_be_smaller_than_epochs(self):
        with pytest.raises(UsageError):
            TrainConfig(max_epochs=4, patience=4)

    def test_negative_patience_rejected(self):
        with pytest.raises(UsageError, match="-3"):
            TrainConfig(max_epochs=5, patience=-3)

    def test_unknown_label_rejected(self):
        examples, vocab, _ = _flow_examples(6)
        examples[0].label = "satire"
        model = FakeFlowModel(_affect_config(vocab), seed=0)
        with pytest.raises(UsageError):
            train(model, examples[:4], examples[4:], TrainConfig(max_epochs=2, patience=1, seed=0))

    def test_deterministic_given_seed(self):
        examples, vocab, _ = _flow_examples(24)
        cfg = TrainConfig(max_epochs=3, patience=1, batch_size=8, seed=11,
                          learning_rate=0.01)
        histories = []
        for _ in range(2):
            model = FakeFlowModel(_affect_config(vocab), seed=11)
            result = train(model, examples[:16], examples[16:], cfg)
            histories.append([(r.train_loss, r.val_loss, r.val_macro_f1) for r in result.history])
        assert histories[0] == histories[1]

    def test_best_epoch_parameters_restored(self):
        examples, vocab, _ = _flow_examples(24)
        model = FakeFlowModel(_affect_config(vocab), seed=3)
        cfg = TrainConfig(max_epochs=4, patience=2, batch_size=8, seed=3,
                          learning_rate=0.01, monitored_metric="val_loss")
        result = train(model, examples[:16], examples[16:], cfg)
        best = result.history[result.best_epoch - 1]
        assert result.best_val_metric == best.val_loss
        assert min(r.val_loss for r in result.history) == best.val_loss

    def test_best_epoch_bytes_restored_without_state_or_load_state(self, monkeypatch):
        # the best epoch is kept as one copy of the value buffer, not through
        # the checkpoint path
        examples, vocab, _ = _flow_examples(24)
        model = FakeFlowModel(_affect_config(vocab), seed=3)
        ends, validate = [], model.predict_logits

        def spy(val_set):  # once per epoch, after its steps
            ends.append(model.buffers[0].copy())
            return validate(val_set)

        def refuse(*args):
            raise AssertionError("train went through the checkpoint path")

        monkeypatch.setattr(model, "predict_logits", spy)
        monkeypatch.setattr(FakeFlowModel, "state", refuse)
        monkeypatch.setattr(FakeFlowModel, "load_state", refuse)
        cfg = TrainConfig(max_epochs=8, patience=2, batch_size=8, seed=3,
                          learning_rate=0.2, monitored_metric="val_loss")
        result = train(model, examples[:16], examples[16:], cfg)
        assert 1 < result.best_epoch < result.epochs_run == len(ends)
        assert model.buffers[0].tobytes() == ends[result.best_epoch - 1].tobytes()
        assert model.buffers[0].tobytes() != ends[-1].tobytes()

    def test_sgd_full_batch_loss_non_increasing(self):
        # smoke property: 5 full-batch sgd steps with a small rate
        examples, vocab, _ = _flow_examples(12)
        model = FakeFlowModel(_affect_config(vocab, dropout_rate=0.0, optimizer="sgd"), seed=4)
        cfg = TrainConfig(max_epochs=5, patience=4, batch_size=12, seed=4,
                          learning_rate=0.05, monitored_metric="val_loss")
        result = train(model, examples, examples[:4], cfg)
        losses = [r.train_loss for r in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestStableLoss:
    def test_underflowing_gold_probability_trains_at_a_finite_loss(self):
        # logits [0, 800] with gold "real" (class 0): softmax gives the gold
        # class probability 0, but the fused loss is log(1 + e^800) = 800
        examples, vocab, _ = _flow_examples(8)
        for e in examples:
            e.label = "real"
        model = FakeFlowModel(_affect_config(vocab, dropout_rate=0.0), seed=5)
        model.cls_w.assign(np.zeros(model.cls_w.shape))
        model.cls_b.assign(np.array([0.0, 800.0]))
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=5, learning_rate=0.01)
        result = train(model, examples, examples[:3], cfg)
        assert result.history[0].train_loss == 800.0
        assert all(np.isfinite(r.val_loss) and r.val_loss > 700.0 for r in result.history)

    def test_overflowing_logits_name_the_batch_documents(self):
        examples, vocab, _ = _flow_examples(8)
        model = overflowing(FakeFlowModel(_affect_config(vocab, dropout_rate=0.0), seed=7))
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=7, learning_rate=0.01)
        with np.errstate(over="ignore"), pytest.raises(NumericsError) as info:
            train(model, examples, examples[:3], cfg)
        message = str(info.value)
        assert message.startswith("op 'dense' produced non-finite values in documents ")
        assert message.endswith(" and 3 more (8 in the batch)")
        assert sum(f"'{e.doc_id}'" in message for e in examples) == 5
        assert isinstance(info.value.__cause__, NumericsError)

    def test_validation_loss_is_the_mean_loss_of_the_probabilities(self):
        examples, vocab, _ = _flow_examples(70)
        model = FakeFlowModel(_affect_config(vocab), seed=6)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=70, seed=6,
                          learning_rate=0.01, monitored_metric="val_loss")
        result = train(model, examples[:2], examples, cfg)
        # train() restores the best epoch's parameters
        probs = model.predict_proba(examples)
        gold = np.array([model.config.classes.index(e.label) for e in examples])
        expected = -np.log(probs[np.arange(len(examples)), gold]).mean()
        assert abs(result.best_val_metric - expected) <= 1e-12 * expected


class TestSearchSpace:
    def test_draws_stay_inside_declared_sets(self):
        space = SearchSpace()
        rng = np.random.default_rng(5)
        base = FakeFlowConfig(n_segments=3, vocab_size=10, max_seg_len=4)
        for _ in range(1000):
            cfg = space.sample(rng, base)
            assert 0.1 <= cfg.dropout_rate <= 0.6
            assert cfg.topic_dense_dim in space.dense_dims
            assert cfg.final_dense_dim in space.dense_dims
            assert cfg.activation in space.activations
            assert cfg.cnn_filter_widths in space.filter_width_tuples
            assert cfg.cnn_filter_count in space.filter_counts
            assert cfg.pool_size in space.pool_sizes
            assert cfg.gru_units in space.gru_units
            assert cfg.optimizer in space.optimizers
            assert cfg.fused_dense_dim == 2 * cfg.gru_units

    def test_same_seed_reproduces_sequence(self):
        space = SearchSpace()
        base = FakeFlowConfig(n_segments=3, vocab_size=10, max_seg_len=4)
        seq1 = [space.sample(np.random.default_rng(9), base) for _ in range(1)]
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        seq_a = [space.sample(rng_a, base) for _ in range(50)]
        seq_b = [space.sample(rng_b, base) for _ in range(50)]
        assert seq_a == seq_b


class TestRandomSearch:
    def test_single_trial_returned_as_best(self):
        examples, vocab, _ = _flow_examples(16)
        base = _affect_config(vocab)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=0,
                          learning_rate=0.01)
        result = random_search(SearchSpace(), 1, base, examples[:12], examples[12:], cfg, seed=0)
        assert len(result.trials) == 1
        assert result.best is result.trials[0]
        assert result.best.trial_index == 0

    def test_best_is_argmax_of_monitored_metric(self):
        examples, vocab, _ = _flow_examples(20)
        base = _affect_config(vocab)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=0,
                          learning_rate=0.01)
        result = random_search(SearchSpace(), 4, base, examples[:14], examples[14:], cfg, seed=3)
        best_metric = max(t.best_val_metric for t in result.trials)
        assert result.best.best_val_metric == best_metric

    def test_best_model_is_the_best_trial_trained_alone(self):
        examples, vocab, _ = _flow_examples(20)
        base = _affect_config(vocab)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=0,
                          learning_rate=0.01, monitored_metric="val_loss")
        result = random_search(SearchSpace(), 4, base, examples[:14], examples[14:], cfg, seed=2)
        assert result.best.trial_index == 2  # a trial whose seed differs from the search's
        trial_seed = 2 + result.best.trial_index
        alone = FakeFlowModel(result.best.config, seed=trial_seed)
        train(alone, examples[:14], examples[14:], replace(cfg, seed=trial_seed))
        assert result.best_model.config == result.best.config
        searched, separate = result.best_model.state(), alone.state()
        assert searched.keys() == separate.keys()
        for name, value in separate.items():
            assert searched[name].tobytes() == value.tobytes(), name

    def test_trials_must_be_positive(self):
        with pytest.raises(UsageError):
            random_search(SearchSpace(), 0, None, [], [], TrainConfig(seed=0), seed=0)


class TestSelectN:
    def test_single_candidate_trivial(self):
        docs = make_flow_corpus(20, seed=6, seg_tokens=6)
        lex = flow_lexicons()
        triples = [(d, TokenizedDocument(t), lab) for d, t, lab in docs]
        vocab = build_vocabulary([t[1] for t in triples])
        base = _affect_config(vocab, n_segments=10, max_seg_len=6)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=0, learning_rate=0.01)
        best_n, rows = select_n_segments([10], triples[:14], triples[14:], vocab, lex, base, cfg)
        assert best_n == 10
        assert len(rows) == 1

    def test_single_segment_uses_wide_cap(self):
        docs = make_flow_corpus(16, seed=7, seg_tokens=6)
        lex = flow_lexicons()
        triples = [(d, TokenizedDocument(t), lab) for d, t, lab in docs]
        vocab = build_vocabulary([t[1] for t in triples])
        base = _affect_config(vocab, n_segments=2, max_seg_len=40)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=0, learning_rate=0.01)
        best_n, rows = select_n_segments([1, 2], triples[:12], triples[12:], vocab, lex, base, cfg)
        by_n = {r.n_segments: r for r in rows}
        assert by_n[1].max_seg_len == 1500
        assert by_n[2].max_seg_len == 40
        assert best_n in (1, 2)

    def test_tie_breaks_to_smaller_n(self):
        # both runs of a constant-output model give identical metrics
        docs = make_flow_corpus(12, seed=8, seg_tokens=6)
        lex = flow_lexicons()
        triples = [(d, TokenizedDocument(t), lab) for d, t, lab in docs]
        vocab = build_vocabulary([t[1] for t in triples])
        base = _affect_config(vocab, n_segments=2, max_seg_len=40, dropout_rate=0.0)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=0,
                          learning_rate=0.0)  # lr 0: metrics identical across N
        best_n, rows = select_n_segments([2, 5], triples[:8], triples[8:], vocab, lex, base, cfg)
        assert {r.n_segments for r in rows} == {2, 5}
        if rows[0].macro_f1 == rows[1].macro_f1:
            assert best_n == 2


class TestDataPreparation:
    def test_prepare_example_shapes(self):
        examples, vocab, _ = _flow_examples(3, n_segments=5, seg_tokens=4)
        e = examples[0]
        assert e.ids.shape == (20,)
        assert e.offsets.tolist() == [0, 4, 8, 12, 16, 20]
        assert e.affect.shape == (5, 23)
        assert e.label in ("real", "fake")

    def test_tokenize_articles_drops_empty(self):
        articles = [
            RawArticle(id="a", text="good words here", label="real"),
            RawArticle(id="b", text="!!!", label="fake"),
        ]
        docs = tokenize_articles(articles)
        assert [d[0] for d in docs] == ["a"]


# word pool of the batched-preparation tests: "v*" words are in the
# vocabulary, "x*" words are in neither the vocabulary nor any lexicon
_POOL = tuple(f"w{i}" for i in range(8)) + ("v0", "v1", "x0", "x1")


@st.composite
def _lexicons(draw):
    words = st.sets(st.sampled_from(_POOL[:8]), max_size=3)
    ratings = st.dictionaries(
        st.sampled_from(_POOL[:8]),
        st.sampled_from([0.0, 0.3, 2.5]) | st.floats(0.0, 10.0, allow_nan=False),
        max_size=4)
    categories = {c: draw(words) for c in FEATURE_NAMES[:20]}
    # an NRC-format hyperbolic lexicon whose two categories share "w0"
    hyperbolic = {"big": draw(words) | {"w0"}, "huge": draw(words) | {"w0"}}
    group = lambda name, order: CategoryLexicon(name, {c: categories[c] for c in order})
    return LexiconSet(
        emotions=group("emotions", EMOTION_CATEGORIES),
        sentiment=group("sentiment", SENTIMENT_CATEGORIES),
        morality=group("morality", MORALITY_CATEGORIES),
        imageability=RatingLexicon("imageability", draw(ratings)),
        abstractness=RatingLexicon("abstractness", draw(ratings)),
        hyperbolic=CategoryLexicon("hyperbolic", hyperbolic),
    )


def _loop_reference(tokens, vocab, lex, n_segments, max_seg_len):
    """(ids, offsets, affect) of one document by per-token loops."""
    kept = tokens[: n_segments * max_seg_len]
    chunk = -(-len(kept) // n_segments)
    offsets = [min(i * chunk, len(kept)) for i in range(n_segments + 1)]
    segments = [kept[a:b] for a, b in zip(offsets, offsets[1:])]
    ids = [vocab.token_to_id.get(tok, UNK_ID) for tok in kept]
    return (np.array(ids, dtype=np.int64), np.array(offsets, dtype=np.int64),
            brute_force_affect(kept, segments, len(tokens), lex))


class TestBatchedPreparation:
    @settings(max_examples=150, deadline=None)
    @given(_lexicons(),
           st.lists(st.lists(st.sampled_from(_POOL), min_size=1, max_size=30),
                    min_size=1, max_size=6),
           st.integers(1, 12), st.integers(1, 8), st.sampled_from([1, 7, GROUP_TOKENS]))
    def test_equals_the_per_token_loop_byte_for_byte(self, lex, token_lists, n_segments,
                                                     max_seg_len, group_tokens):
        vocab = Vocabulary({"w1": 2, "w3": 3, "w5": 4, "v0": 5, "v1": 6})
        docs = [(f"d{i}", TokenizedDocument(tokens), "real")
                for i, tokens in enumerate(token_lists)]
        with patch.object(corpus, "GROUP_TOKENS", group_tokens):
            examples = prepare_examples(docs, vocab, lex, n_segments, max_seg_len)
        assert [e.doc_id for e in examples] == [d[0] for d in docs]
        for e, tokens in zip(examples, token_lists):
            ids, offsets, affect = _loop_reference(tokens, vocab, lex, n_segments, max_seg_len)
            assert e.ids.tobytes() == ids.tobytes()
            assert e.offsets.tobytes() == offsets.tobytes()
            assert e.affect.tobytes() == affect.tobytes()
            seg = segment(TokenizedDocument(tokens), n_segments, max_seg_len)
            assert extract_affect(seg, lex).values.tobytes() == affect.tobytes()
            assert encode(seg, vocab).tobytes() == ids.tobytes()

    def test_empty_list_gives_no_examples(self):
        lex = flow_lexicons()
        assert prepare_examples([], Vocabulary({}), lex, 10, 800) == []

    @pytest.mark.parametrize("n_segments, max_seg_len", [(0, 800), (3, 0)])
    def test_segment_count_and_length_must_be_positive(self, n_segments, max_seg_len):
        docs = [("a", TokenizedDocument(["w0"]), "real")]
        with pytest.raises(UsageError):
            prepare_examples(docs, Vocabulary({}), flow_lexicons(), n_segments, max_seg_len)

    def test_document_without_tokens_is_rejected(self):
        docs = [("a", TokenizedDocument(["w0"]), "real"), ("b", TokenizedDocument([]), "fake")]
        with pytest.raises(UsageError, match="document 'b' has no tokens"):
            prepare_examples(docs, Vocabulary({}), flow_lexicons(), 4, 5)

    @staticmethod
    def _assert_prepared_as_the_references(doc, vocab, lex, n_segments=2, max_seg_len=4):
        [e] = prepare_examples([("d", doc, "real")], vocab, lex, n_segments, max_seg_len)
        seg = segment(doc, n_segments, max_seg_len)
        assert e.ids.tolist() == [vocab.id_of(t) for t in seg.tokens]
        assert e.affect.tobytes() == extract_affect(seg, lex).values.tobytes()
        return e

    def test_out_of_vocabulary_lexicon_word_still_counts(self, toy_lexicons):
        # "terror" is a fear word with an abstractness rating, and not in the vocabulary
        doc = TokenizedDocument(["terror", "smile", "x", "dog", "terror", "x"])
        vocab = Vocabulary({"smile": 2, "x": 3, "dog": 4})
        e = self._assert_prepared_as_the_references(doc, vocab, toy_lexicons)
        assert e.ids[0] == UNK_ID
        assert e.affect[0, FEATURE_NAMES.index("fear")] == 1 / 6
        assert e.affect[0, FEATURE_NAMES.index("abstractness")] == 0.3 / 6

    def test_one_lexicon_set_serves_vocabularies_in_turn(self, toy_lexicons):
        # id 2 is "kill" in a and "smile" in b: a stale table would swap their rows
        doc = TokenizedDocument(["kill", "dog", "smile", "idea", "kill"])
        a = Vocabulary({"kill": 2, "dog": 3, "smile": 4})
        b = Vocabulary({"smile": 2, "idea": 3, "kill": 4, "x": 5})
        for vocab in (a, b, a):
            self._assert_prepared_as_the_references(doc, vocab, toy_lexicons)

    def test_vocab_file_with_keys_out_of_id_order(self, tmp_path, toy_lexicons):
        path = tmp_path / "vocab.json"
        path.write_text('{"tokens": {"smile": 4, "x": 2, "kill": 5, "dog": 3}}')
        vocab = load_vocabulary(path)
        doc = TokenizedDocument(["dog", "kill", "smile", "x", "idea"])
        self._assert_prepared_as_the_references(doc, vocab, toy_lexicons)

    def test_map_with_an_id_gap(self, toy_lexicons):
        doc = TokenizedDocument(["kill", "dog", "x", "dog"])
        self._assert_prepared_as_the_references(doc, Vocabulary({"kill": 2, "dog": 9}),
                                                toy_lexicons)

    def test_peak_memory_of_a_2000_document_call(self):
        # the groups bound the transient arrays: one pass over all 2,000
        # documents peaks at about 73 MB here, a loop over them at 13 MB
        rng = np.random.default_rng(0)
        words = [f"t{i}" for i in range(5_000)]
        lex = build_lexicon_set(
            emotions={c: set(words[i::12]) for i, c in enumerate(EMOTION_CATEGORIES)},
            imageability={w: 0.5 for w in words[::13]},
        )
        docs = [(f"d{i}", TokenizedDocument([words[j] for j in rng.integers(0, 5_000, n)]),
                 "real") for i, n in enumerate(rng.integers(200, 801, 2_000))]
        vocab = build_vocabulary([doc for _, doc, _ in docs])
        tracemalloc.start()
        try:
            examples = prepare_examples(docs, vocab, lex, 10, 800)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(examples) == 2_000
        assert peak <= 20e6


class TestHeldTokens:
    def test_a_tokenized_zipf_corpus_holds_one_string_per_token_value(self):
        # tokenized in 32-document blocks, as the CLI and the bench do
        rng = np.random.default_rng(3)
        words = [f"t{i}" for i in range(3_000)]
        decorations = ("{}", "{},", "“{}”", "({}).", "{}'s")
        articles = []
        for i, n in enumerate(rng.integers(20, 400, 200)):
            ranks = np.minimum(rng.zipf(1.2, n), len(words)) - 1
            pieces = [decorations[k].format(words[r].upper() if k == 2 else words[r])
                      for r, k in zip(ranks.tolist(), rng.integers(0, 5, n).tolist())]
            articles.append(RawArticle(id=f"d{i}", text=" ".join(pieces), label="real"))
        with patch.object(corpus, "_TOKENS", corpus._TokenTable()):
            docs = [doc for start in range(0, len(articles), 32)
                    for doc in tokenize_articles(articles[start:start + 32])]
        held = [tok for _, doc, _ in docs for tok in doc.tokens]
        assert len({id(tok) for tok in held}) == len(set(held)) < len(held) // 10

        lex = build_lexicon_set(
            emotions={c: set(words[i::12]) for i, c in enumerate(EMOTION_CATEGORIES)},
            imageability={w: 0.5 for w in words[::13]},
        )
        vocab = build_vocabulary([doc for _, doc, _ in docs], min_count=2)
        examples = prepare_examples(docs, vocab, lex, 10, 25)
        assert len(examples) == len(docs) == 200
        for e, (_, doc, _) in zip(examples, docs):
            seg = segment(doc, 10, 25)
            assert e.ids.tobytes() == encode(seg, vocab).tobytes()
            assert e.offsets.tobytes() == seg.offsets.tobytes()
            assert e.affect.tobytes() == extract_affect(seg, lex).values.tobytes()


class TestFrozenEmbeddings:
    def test_embedding_table_unchanged_when_frozen(self):
        examples, vocab, _ = _flow_examples(16)
        cfg = _affect_config(vocab, mode="full", train_embeddings=False)
        model = FakeFlowModel(cfg, seed=5)
        before = model.embedding.value.copy()
        train(model, examples[:12], examples[12:],
              TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=5,
                          learning_rate=0.05))
        assert np.array_equal(model.embedding.value, before)
        assert np.all(model.embedding.grad == 0.0)

    def test_embedding_table_moves_by_default(self):
        examples, vocab, _ = _flow_examples(16)
        cfg = _affect_config(vocab, mode="full")
        model = FakeFlowModel(cfg, seed=5)
        before = model.embedding.value.copy()
        train(model, examples[:12], examples[12:],
              TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=5,
                          learning_rate=0.05))
        assert not np.array_equal(model.embedding.value, before)
