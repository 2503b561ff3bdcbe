"""End-to-end acceptance suite.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`.
The numbered criteria cover gradient fidelity, oracle equivalence for
features and metrics, the synthetic flow-separability experiment, training
sanity, ablation and attention invariants, search-space conformance, the
cross-year harness, dataset-pipeline conformance, and bit-level
determinism.
"""

import copy
import json
import time

import numpy as np
import pytest

import fakeflow.tensor as tz
from conftest import (
    bigru_params,
    build_lexicon_set,
    flow_lexicons,
    make_flow_corpus,
    max_relative_error,
    numeric_gradient,
    segment_tokens,
)
from fakeflow.cli import main as cli_main
from fakeflow.corpus import (
    DomainVerdict,
    RawArticle,
    SourceListEntry,
    TokenizedDocument,
    build_vocabulary,
    merge_source_lists,
    project_and_sample,
    segment,
)
from fakeflow.evaluation import (
    compute_metrics,
    cross_year,
    majority_baseline,
    mcnemar_from_counts,
    off_diagonal_column_averages,
)
from fakeflow.lexicon import extract_affect
from fakeflow.model import Example, FakeFlowConfig, FakeFlowModel
from fakeflow.report import attention_profile
from fakeflow.train import (
    SearchSpace,
    TrainConfig,
    prepare_examples,
    random_search,
    train,
)
from test_evaluation import brute_force_metrics
from test_lexicon import brute_force_affect
from test_model import random_example, tiny_config


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity


def _grad_check(build_loss, params, step=1e-5):
    tape = tz.Tape()
    loss = build_loss(tape)
    tz.backward(tape, loss)
    analytic = {p.name: p.grad.copy() for p in params}
    for p in params:
        p.zero_grad()
    worst = 0.0
    for p in params:
        numeric = numeric_gradient(lambda: float(build_loss(tz.Tape()).value), p.value, step)
        worst = max(worst, max_relative_error(analytic[p.name], numeric))
    return worst


def test_criterion_01_gradient_fidelity():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = {}

    def rand(*shape):
        return rng.uniform(0.2, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    # conv1d
    f = tz.Parameter("f", rand(2, 3, 3))
    b = tz.Parameter("b", rand(2))
    x = tz.Parameter("x", rng.normal(size=(8, 3)))
    worst["conv1d"] = _grad_check(
        lambda tape: tz.mean_all(tz.tanh(tz.conv1d(tape.read(x), f, b))), [x, f, b]
    )

    # pooling (windowed + global)
    xp = tz.Parameter("xp", rng.normal(size=(9, 4)))
    worst["pooling"] = _grad_check(
        lambda tape: tz.mean_all(tz.global_maxpool(tz.maxpool1d(tape.read(xp), 2))), [xp]
    )

    # dense, all four activations
    for act in ("relu", "tanh", "elu", "selu"):
        w = tz.Parameter(f"w_{act}", rand(4, 5))
        bb = tz.Parameter(f"b_{act}", rand(4))
        xx = tz.Parameter(f"x_{act}", rand(6, 5))
        worst[f"dense_{act}"] = _grad_check(
            lambda tape: tz.mean_all(tz.dense(tape.read(xx), w, bb, act)), [xx, w, bb]
        )

    # Bi-GRU over 5 steps
    units, feat = 3, 4
    gru = bigru_params(lambda shape: rand(*shape), units, feat)
    xg = tz.Parameter("xg", rng.normal(size=(5, feat)))
    worst["bigru"] = _grad_check(
        lambda tape: tz.mean_all(tz.bigru(tape.read(xg), *gru)), [xg] + gru
    )

    # context self-attention scores through softmax mixing
    n, d = 4, 3
    a1 = tz.Parameter("a1", rng.normal(size=(n, d)))
    a2 = tz.Parameter("a2", rng.normal(size=(n, d)))
    ab = tz.Parameter("ab", rand(d))
    av = tz.Parameter("av", rand(d))
    mix = rng.normal(size=(n, d))
    worst["attention"] = _grad_check(
        lambda tape: tz.mean_all(
            tz.tanh(
                tz.bmatmul(
                    tz.softmax(tz.additive_pair_scores(tape.read(a1), tape.read(a2), ab, av)),
                    tape.constant(mix),
                )
            )
        ),
        [a1, a2, ab, av],
    )

    # combine (elementwise product + segment mean)
    c1 = tz.Parameter("c1", rng.normal(size=(5, 4)))
    c2 = tz.Parameter("c2", rng.normal(size=(5, 4)))
    worst["combine"] = _grad_check(
        lambda tape: tz.mean_all(tz.mean_axis(tz.mul(tape.read(c1), tape.read(c2)), -2)),
        [c1, c2],
    )

    # softmax + cross-entropy
    logits = tz.Parameter("logits", rng.normal(size=(3, 4)))
    gold = np.array([1, 3, 0])
    worst["softmax_ce"] = _grad_check(
        lambda tape: tz.cross_entropy(tz.softmax(tape.read(logits)), gold), [logits]
    )

    # the full composed model on a 2-document batch, every parameter
    cfg = tiny_config(mode="full")
    model = FakeFlowModel(cfg, seed=101)
    # unit-scale embeddings keep checked gradients above the FD noise floor
    model.embedding.assign(rng.uniform(-1.0, 1.0, model.embedding.shape))
    examples = [random_example(cfg, rng, doc_id=f"d{i}") for i in range(2)]
    batch_gold = np.array([0, 1])
    worst["full_model"] = _grad_check(
        lambda tape: model.batch_loss(tape, examples, batch_gold, False, None)[0],
        model.params,
    )

    elapsed = time.monotonic() - started
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    _report(
        1,
        "gradient fidelity",
        not bad and elapsed < 120.0,
        f"worst rel err {max(worst.values()):.2e}, {elapsed:.1f}s" + (f", failures {bad}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# criterion 2: feature-extraction oracle


def test_criterion_02_feature_extraction_oracle():
    lex = build_lexicon_set(
        emotions={
            "fear": {"attack", "kill", "omni"},
            "joy": {"smile", "omni"},
            "sadness": {"kill", "omni"},
        },
        sentiment={"positive": {"smile", "omni"}, "negative": {"kill", "omni"}},
        morality={"harm": {"kill", "omni"}, "care": {"nurse", "omni"}},
        imageability={"dog": 0.9, "omni": 0.35},
        abstractness={"idea": 0.8, "omni": 0.15},
        hyperbolic={"terrifying", "omni"},
    )
    pool = ["attack", "kill", "smile", "dog", "idea", "nurse", "terrifying",
            "omni", "plain1", "plain2", "plain3"]
    rng = np.random.default_rng(202)
    n_values = [1, 3, 10]
    checked = 0
    for trial in range(200):
        n_tokens = int(rng.integers(1, 90))
        tokens = [pool[i] for i in rng.integers(0, len(pool), n_tokens)]
        n = n_values[trial % 3]
        max_len = int(rng.integers(1, 9))  # small caps force truncation + empty segments
        seg = segment(TokenizedDocument(tokens), n, max_len)
        ours = extract_affect(seg, lex).values
        oracle = brute_force_affect(tokens, segment_tokens(seg), seg.doc_length, lex)
        if not np.array_equal(ours, oracle):
            _report(2, "feature-extraction oracle", False, f"mismatch on trial {trial}")
        checked += 1
    _report(2, "feature-extraction oracle", checked == 200,
            f"200 randomized documents, N in {{1,3,10}}, bit-exact")


# ---------------------------------------------------------------------------
# criterion 3: metric oracle


def test_criterion_03_metric_oracle():
    rng = np.random.default_rng(303)
    labels = ["real", "fake"]
    exact = True
    identity = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        gold = [labels[i] for i in rng.integers(0, 2, n)]
        pred = [labels[i] for i in rng.integers(0, 2, n)]
        report = compute_metrics(gold, pred)
        oracle = brute_force_metrics(gold, pred)
        if (report.accuracy != oracle["accuracy"]
                or report.macro_f1 != oracle["macro_f1"]
                or (report.weighted_precision, report.weighted_recall,
                    report.weighted_f1) != oracle["weighted"]):
            exact = False
            break
        if report.weighted_recall != report.accuracy:
            identity = False
            break

    train_labels = ["real"] * 59 + ["fake"] * 41
    baseline = majority_baseline(train_labels, train_labels)
    structure = baseline.accuracy == 0.59 and abs(baseline.macro_f1 - 0.37) < 0.01
    _report(3, "metric oracle", exact and identity and structure,
            f"1000 vectors exact, weighted recall == accuracy, majority 0.59/"
            f"{baseline.macro_f1:.3f}")


# ---------------------------------------------------------------------------
# criterion 4: McNemar


def test_criterion_04_mcnemar():
    significant = mcnemar_from_counts(15, 5)
    tied = mcnemar_from_counts(10, 10)
    zero = mcnemar_from_counts(0, 0)
    ok = (
        significant.statistic == (abs(15 - 5) - 1) ** 2 / 20
        and significant.statistic == pytest.approx(4.05, abs=1e-15)
        and significant.significant_at_05
        and tied.statistic == pytest.approx(0.05, abs=1e-15)
        and not tied.significant_at_05
        and zero.statistic == 0.0
        and not zero.significant_at_05
    )
    _report(4, "mcnemar", ok,
            f"(15,5) -> {significant.statistic} significant; (10,10) -> {tied.statistic}")


# ---------------------------------------------------------------------------
# criterion 5: synthetic flow separability


def _flow_split(n_docs, seed, n_segments, seg_tokens, max_seg_len, lex, vocab=None):
    docs = make_flow_corpus(n_docs, seed=seed, n_segments=10, seg_tokens=seg_tokens)
    triples = [(d, TokenizedDocument(toks), lab) for d, toks, lab in docs]
    vocab = vocab or build_vocabulary([t[1] for t in triples])
    examples = prepare_examples(triples, vocab, lex, n_segments, max_seg_len)
    held = int(0.8 * len(examples))
    return examples[:held], examples[held:], vocab


def test_criterion_05_synthetic_flow_separability():
    started = time.monotonic()
    lex = flow_lexicons()
    train_set, val_set, vocab = _flow_split(
        2000, seed=505, n_segments=10, seg_tokens=10, max_seg_len=10, lex=lex
    )
    train_cfg = TrainConfig(max_epochs=50, patience=4, batch_size=32, seed=505,
                            learning_rate=0.01, monitored_metric="val_loss")

    cfg10 = FakeFlowConfig(n_segments=10, vocab_size=vocab.size, max_seg_len=10,
                           gru_units=16, dropout_rate=0.2, activation="relu",
                           optimizer="adam", mode="affect_only")
    model10 = FakeFlowModel(cfg10, seed=505)
    result10 = train(model10, train_set, val_set, train_cfg)
    f1_10 = compute_metrics([e.label for e in val_set], model10.predict(val_set)).macro_f1

    # same documents, one segment: the positional signal disappears
    train1, val1, _ = _flow_split(
        2000, seed=505, n_segments=1, seg_tokens=10, max_seg_len=1500, lex=lex, vocab=vocab
    )
    cfg1 = FakeFlowConfig(n_segments=1, vocab_size=vocab.size, max_seg_len=1500,
                          gru_units=16, dropout_rate=0.2, activation="relu",
                          optimizer="adam", mode="affect_only")
    model1 = FakeFlowModel(cfg1, seed=505)
    train(model1, train1, val1, train_cfg)
    f1_1 = compute_metrics([e.label for e in val1], model1.predict(val1)).macro_f1

    elapsed = time.monotonic() - started
    ok = (f1_10 >= 0.95 and (f1_10 - f1_1) >= 0.10
          and result10.epochs_run <= 50 and elapsed < 300.0)
    _report(5, "synthetic flow separability", ok,
            f"N=10 macro-F1 {f1_10:.3f} in {result10.epochs_run} epochs, "
            f"N=1 macro-F1 {f1_1:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: overfit sanity


def test_criterion_06_overfit_sanity():
    docs = make_flow_corpus(8, seed=21, seg_tokens=10)
    lex = flow_lexicons()
    triples = [(d, TokenizedDocument(toks), lab) for d, toks, lab in docs]
    vocab = build_vocabulary([t[1] for t in triples])
    examples = prepare_examples(triples, vocab, lex, n_segments=10, max_seg_len=10)
    # monitoring set mirrors the training documents; memorization is the goal
    mirror = [copy.deepcopy(e) for e in examples]
    for i, e in enumerate(mirror):
        e.doc_id = f"mirror{i}"

    cfg = FakeFlowConfig(n_segments=10, vocab_size=vocab.size, max_seg_len=10,
                         embed_dim=8, cnn_filter_widths=(2, 3), cnn_filter_count=4,
                         pool_size=2, topic_dense_dim=8, gru_units=8,
                         final_dense_dim=8, dropout_rate=0.0, activation="selu",
                         optimizer="adam", mode="full")
    model = FakeFlowModel(cfg, seed=2)
    result = train(model, examples, mirror,
                   TrainConfig(max_epochs=50, patience=4, batch_size=8, seed=2,
                               learning_rate=0.02, monitored_metric="val_loss"))
    accuracy = compute_metrics([e.label for e in examples], model.predict(examples)).accuracy
    _report(6, "overfit sanity", accuracy == 1.0 and result.epochs_run <= 50,
            f"train accuracy {accuracy} after {result.epochs_run} epochs")


# ---------------------------------------------------------------------------
# criterion 7: ablation contracts


def test_criterion_07_ablation_contracts():
    rng = np.random.default_rng(707)

    cfg_t = tiny_config(mode="topic_only", n_segments=4)
    model_t = FakeFlowModel(cfg_t, seed=707)
    example = random_example(cfg_t, rng)
    base = model_t.forward(example).probabilities
    example.affect = rng.uniform(3.0, 9.0, size=example.affect.shape)
    topic_invariant = np.array_equal(model_t.forward(example).probabilities, base)

    cfg_a = tiny_config(mode="affect_only", n_segments=4)
    model_a = FakeFlowModel(cfg_a, seed=708)
    example_a = random_example(cfg_a, rng)
    base_a = model_a.forward(example_a).probabilities
    permuted = example_a.ids.copy()
    for i in range(cfg_a.n_segments):
        start, end = example_a.offsets[i], example_a.offsets[i + 1]
        permuted[start:end] = rng.permutation(permuted[start:end])
    example_a.ids = permuted
    affect_invariant = np.array_equal(model_a.forward(example_a).probabilities, base_a)

    _report(7, "ablation contracts", topic_invariant and affect_invariant,
            f"topic_only feature-invariant: {topic_invariant}, "
            f"affect_only permutation-invariant: {affect_invariant}")


# ---------------------------------------------------------------------------
# criterion 8: attention invariants


def test_criterion_08_attention_invariants():
    rng = np.random.default_rng(808)
    worst_row = 0.0
    worst_profile = 0.0
    runs = 0
    for n in (1, 2, 5, 10, 20):
        for _ in range(20):
            cfg = tiny_config(mode="full", n_segments=n)
            model = FakeFlowModel(cfg, seed=int(rng.integers(0, 10_000)))
            trace = model.forward(random_example(cfg, rng))
            rows = trace.attention_weights.sum(axis=1)
            worst_row = max(worst_row, float(np.max(np.abs(rows - 1.0))))
            profile = attention_profile(trace)
            worst_profile = max(worst_profile, abs(float(profile.weights.sum()) - 1.0))
            runs += 1
    ok = runs == 100 and worst_row < 1e-12 and worst_profile < 1e-12
    _report(8, "attention invariants", ok,
            f"100 forwards, worst row dev {worst_row:.1e}, worst profile dev {worst_profile:.1e}")


# ---------------------------------------------------------------------------
# criterion 9: search-space conformance


def test_criterion_09_search_space_conformance():
    space = SearchSpace()
    base = FakeFlowConfig(n_segments=10, vocab_size=40, max_seg_len=6,
                          gru_units=8, mode="affect_only")

    rng = np.random.default_rng(909)
    in_range = True
    for _ in range(1000):
        cfg = space.sample(rng, base)
        if not (0.1 <= cfg.dropout_rate <= 0.6
                and cfg.topic_dense_dim in space.dense_dims
                and cfg.activation in space.activations
                and cfg.cnn_filter_widths in space.filter_width_tuples
                and cfg.cnn_filter_count in space.filter_counts
                and cfg.pool_size in space.pool_sizes
                and cfg.gru_units in space.gru_units
                and cfg.optimizer in space.optimizers
                and cfg.fused_dense_dim == 2 * cfg.gru_units):
            in_range = False
            break

    seq_a = [space.sample(np.random.default_rng(77), base) for _ in range(100)]
    seq_b = [space.sample(np.random.default_rng(77), base) for _ in range(100)]
    reproducible = seq_a == seq_b

    docs = make_flow_corpus(130, seed=909, seg_tokens=6)
    lex = flow_lexicons()
    triples = [(d, TokenizedDocument(t), lab) for d, t, lab in docs]
    vocab = build_vocabulary([t[1] for t in triples])
    examples = prepare_examples(triples, vocab, lex, 10, 6)
    base = FakeFlowConfig(n_segments=10, vocab_size=vocab.size, max_seg_len=6,
                          gru_units=8, mode="affect_only")
    cfg = TrainConfig(max_epochs=5, patience=2, batch_size=16, seed=909,
                      monitored_metric="val_macro_f1")
    result = random_search(space, 35, base, examples[:100], examples[100:], cfg, seed=909)
    completed = len(result.trials) == 35
    is_max = result.best.best_val_metric == max(t.best_val_metric for t in result.trials)

    _report(9, "search-space conformance", in_range and reproducible and completed and is_max,
            f"1000 draws in-range: {in_range}, reproducible: {reproducible}, "
            f"35 trials, best metric {result.best.best_val_metric:.3f}")


# ---------------------------------------------------------------------------
# criterion 10: cross-year harness


def test_criterion_10_cross_year_harness():
    lex = flow_lexicons()
    years = [2013, 2014, 2015]
    datasets = {}
    for k, year in enumerate(years):
        docs = make_flow_corpus(24, seed=1000 + k, seg_tokens=6)
        text_articles = [
            RawArticle(id=f"{year}-{d}", text=" ".join(toks), label=lab, year=year)
            for d, toks, lab in docs
        ]
        datasets[year] = text_articles

    def model_builder(train_articles, seed):
        triples = [(a.id, TokenizedDocument(a.text.split()), a.label) for a in train_articles]
        vocab = build_vocabulary([t[1] for t in triples])
        cfg = FakeFlowConfig(n_segments=10, vocab_size=vocab.size, max_seg_len=6,
                             gru_units=8, dropout_rate=0.1, activation="relu",
                             optimizer="adam", mode="affect_only")
        model = FakeFlowModel(cfg, seed=seed)
        examples = prepare_examples(triples, vocab, lex, 10, 6)
        train(model, examples[:18], examples[18:],
              TrainConfig(max_epochs=3, patience=2, batch_size=8, seed=seed,
                          learning_rate=0.01, monitored_metric="val_loss"))

        def predict(articles):
            batch = prepare_examples(
                [(a.id, TokenizedDocument(a.text.split()), a.label) for a in articles],
                vocab, lex, 10, 6,
            )
            return model.predict(batch)

        return predict

    matrix = cross_year(datasets, model_builder, seed=10)
    shape_ok = (
        matrix.years == years
        and all(y not in matrix.accuracy[y] for y in years)
        and all(len(matrix.accuracy[y]) == 2 for y in years)
    )
    hand = {
        test_year: np.mean([
            matrix.accuracy[tr][test_year] for tr in years if tr != test_year
        ])
        for test_year in years
    }
    averages_ok = all(matrix.column_averages[y] == hand[y] for y in years)

    published_rows = {
        2013: {2014: 0.82, 2015: 0.74, 2016: 0.76, 2017: 0.78, 2018: 0.74},
        2014: {2013: 0.84, 2015: 0.79, 2016: 0.76, 2017: 0.81, 2018: 0.74},
        2015: {2013: 0.79, 2014: 0.81, 2016: 0.82, 2017: 0.80, 2018: 0.82},
        2016: {2013: 0.80, 2014: 0.76, 2015: 0.87, 2017: 0.85, 2018: 0.79},
        2017: {2013: 0.79, 2014: 0.82, 2015: 0.76, 2016: 0.80, 2018: 0.85},
        2018: {2013: 0.79, 2014: 0.75, 2015: 0.81, 2016: 0.83, 2017: 0.83},
    }
    averages = off_diagonal_column_averages(published_rows)
    published = {2013: 0.80, 2014: 0.79, 2015: 0.79, 2016: 0.79, 2017: 0.81, 2018: 0.79}
    published_ok = {y: round(v, 2) for y, v in averages.items()} == published

    _report(10, "cross-year harness", shape_ok and averages_ok and published_ok,
            f"3x3 matrix, diagonal undefined, column averages exact, "
            f"published table averages reproduced: {published_ok}")


# ---------------------------------------------------------------------------
# criterion 11: dataset-pipeline conformance


def test_criterion_11_dataset_pipeline_conformance():
    entries = [
        SourceListEntry("agree1.com", "OS", "reliable"),
        SourceListEntry("agree1.com", "MBFC", "high"),
        SourceListEntry("agree2.com", "OS", "fake"),
        SourceListEntry("agree2.com", "POLITIFACT", "fake news"),
        SourceListEntry("clash.com", "OS", "reliable"),
        SourceListEntry("clash.com", "MBFC", "low"),
        SourceListEntry("dropped.com", "MBFC", "medium"),
        SourceListEntry("politidrop.com", "POLITIFACT", "Some fake stories"),
    ]
    verdicts, conflicts = merge_source_lists(entries)
    merge_ok = (
        sorted(v.domain for v in verdicts) == ["agree1.com", "agree2.com"]
        and conflicts == ["clash.com"]
        and {v.domain: v.label for v in verdicts}
        == {"agree1.com": "real", "agree2.com": "fake"}
    )

    long_text = " ".join(f"w{i}" for i in range(45))
    articles = [RawArticle(id=f"a{i:03d}", text=long_text, domain="big.com")
                for i in range(150)]
    articles.append(RawArticle(id="short", text=" ".join(f"w{i}" for i in range(29)),
                               domain="big.com"))
    articles.append(RawArticle(id="floor", text=" ".join(f"w{i}" for i in range(30)),
                               domain="big.com"))
    verdict = [DomainVerdict(domain="big.com", label="fake")]
    first = project_and_sample(articles, verdict, max_per_domain=100, min_words=30, seed=42)
    second = project_and_sample(articles, verdict, max_per_domain=100, min_words=30, seed=42)
    sample_ok = (
        len(first) == 100
        and all(a.label == "fake" for a in first)
        and "short" not in {a.id for a in first}
        and [a.id for a in first] == [a.id for a in second]
    )
    _report(11, "dataset-pipeline conformance", merge_ok and sample_ok,
            f"merge fixture exact, 100-cap + 30-word floor deterministic")


# ---------------------------------------------------------------------------
# criterion 12: determinism


def test_criterion_12_determinism(tmp_path):
    from test_cli import TRAIN_FLAGS, write_flow_corpus, write_lexicon_fixture

    manifest = write_lexicon_fixture(tmp_path)
    corpus = write_flow_corpus(tmp_path, n_docs=20)
    outputs = []
    for run in ("run_a", "run_b"):
        out = tmp_path / run
        code = cli_main(["--seed", "17", "train", "--corpus", str(corpus),
                         "--lexicons", str(manifest), "--out", str(out)] + TRAIN_FLAGS)
        assert code == 0
        outputs.append(out)

    identical = {}
    for name in ("report.json", "history.json", "checkpoint.bin", "vocab.json"):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        identical[name] = a == b
    _report(12, "determinism", all(identical.values()),
            f"byte-identical: {sorted(k for k, v in identical.items() if v)}")
