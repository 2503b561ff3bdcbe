"""Command-line entry point.

Subcommands: build-dataset, extract-features, train, search, select-n,
evaluate, cross-year, mcnemar, analyze, attention. Every command accepts
--json for machine-readable stdout, honors a single --seed, and writes its
artifacts plus a manifest under --out. Exit codes: 0 success, 1 usage
error, 2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, replace

from . import corpus as corpus_mod
from . import evaluation, report
from .errors import ConfigError, FakeflowError, UsageError
from .lexicon import LexiconSet, extract_affect, load_lexicon_set
from .model import Example, FakeFlowConfig, FakeFlowModel
from .tensor import load_word_vectors
from .train import (
    SearchSpace,
    TrainConfig,
    prepare_examples,
    random_search,
    select_n_segments,
    tokenize_articles,
    train,
)

logger = logging.getLogger(__name__)

LEXICON_ENV_VAR = "FAKEFLOW_LEXICONS"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir, command: str, options: dict, config_hash: str,
                    outputs: list[str]) -> None:
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "command": command,
            "options": options,
            "config_hash": config_hash,
            "outputs": sorted(outputs),
        },
    )


def _ensure_out(args) -> str:
    out = args.out
    os.makedirs(out, exist_ok=True)
    return out


def _emit(args, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _lexicon_manifest_path(args) -> str:
    path = getattr(args, "lexicons", None) or os.environ.get(LEXICON_ENV_VAR)
    if not path:
        raise UsageError(
            f"no lexicon manifest given; pass --lexicons or set {LEXICON_ENV_VAR}"
        )
    return path


def _parse_widths(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise UsageError(f"bad filter widths {text!r}; expected e.g. 3,4,5") from None


def _model_config_from_args(args, vocab_size: int, n_classes: int = 2) -> FakeFlowConfig:
    gru = args.gru_units
    return FakeFlowConfig(
        n_segments=args.n_segments,
        vocab_size=vocab_size,
        max_seg_len=args.max_seg_len,
        embed_dim=args.embed_dim,
        cnn_filter_widths=_parse_widths(args.filter_widths),
        cnn_filter_count=args.filter_count,
        pool_size=args.pool_size,
        topic_dense_dim=args.topic_dim,
        gru_units=gru,
        fused_dense_dim=2 * gru,
        final_dense_dim=args.final_dim,
        dropout_rate=args.dropout,
        activation=args.activation,
        optimizer=args.optimizer,
        mode=args.mode,
        classes=("real", "fake") if n_classes == 2 else tuple(f"class{i}" for i in range(n_classes)),
        train_embeddings=not getattr(args, "freeze_embeddings", False),
    )


def _train_config_from_args(args) -> TrainConfig:
    return TrainConfig(
        max_epochs=args.epochs,
        patience=args.patience,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=args.seed,
        monitored_metric=args.monitor,
    )


def _load_labeled_corpus(path) -> list[corpus_mod.RawArticle]:
    articles = corpus_mod.load_corpus(path)
    unlabeled = [a.id for a in articles if a.label is None]
    if unlabeled:
        raise UsageError(
            f"{len(unlabeled)} articles have no label (first: {unlabeled[0]}); "
            "label the corpus or run build-dataset first"
        )
    return articles


@dataclass
class _Splits:
    """Tokenized training and validation documents, the vocabulary of the
    training part, and the lexicons that featurize both."""

    train_docs: list
    val_docs: list
    vocab: corpus_mod.Vocabulary
    lex: LexiconSet

    def examples(self, n_segments: int, max_seg_len: int) -> tuple[list[Example], list[Example]]:
        """Both parts featurized at one segment count: (train_set, val_set)."""
        return tuple(prepare_examples(docs, self.vocab, self.lex, n_segments, max_seg_len)
                     for docs in (self.train_docs, self.val_docs))


def _load_inputs(args) -> tuple[list[corpus_mod.RawArticle], LexiconSet]:
    """The labeled --corpus and the lexicons."""
    return _load_labeled_corpus(args.corpus), load_lexicon_set(_lexicon_manifest_path(args))


def _prepare_data(args, articles: list, lex: LexiconSet, seed: int) -> _Splits:
    """The data-preparation pipeline of train, search, select-n and
    cross-year: validate on --val-corpus when given, else on a stratified
    split of `articles`; tokenize; build the vocabulary on the training
    part. `_Splits.examples` featurizes the result."""
    if getattr(args, "val_corpus", None):
        parts = articles, _load_labeled_corpus(args.val_corpus)
    else:
        parts = corpus_mod.split_train_val(articles, val_fraction=args.val_fraction, seed=seed)
    train_docs, val_docs = (tokenize_articles(part) for part in parts)
    vocab = corpus_mod.build_vocabulary([doc for _, doc, _ in train_docs], min_count=args.min_count)
    return _Splits(train_docs, val_docs, vocab, lex)


def _pretrained_table(args, vocab) -> dict | None:
    if not getattr(args, "embeddings", None):
        return None
    return load_word_vectors(args.embeddings, args.embed_dim)


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_dataset(args) -> int:
    out = _ensure_out(args)
    entries = corpus_mod.load_source_lists(args.sources)
    mapping = corpus_mod.load_label_mapping(args.mapping) if args.mapping else None
    verdicts, conflicts = corpus_mod.merge_source_lists(entries, mapping)
    articles = corpus_mod.load_corpus(args.articles)
    sampled = corpus_mod.project_and_sample(
        articles, verdicts,
        max_per_domain=args.max_per_domain,
        min_words=args.min_words,
        seed=args.seed,
    )
    outputs = ["train.jsonl", "domains.json"]
    test_parts = []
    if args.test_fake:
        fake_test = corpus_mod.load_corpus(args.test_fake)
        for a in fake_test:
            a.label = "fake"
        test_parts.extend(fake_test)
    if args.test_real_sample:
        sampled, real_test = corpus_mod.complement_test_with_real(
            sampled,
            n_real=args.test_real_sample,
            seed=args.seed,
            remove_from_train=not args.keep_sampled_in_train,
        )
        test_parts.extend(real_test)
    corpus_mod.save_corpus(os.path.join(out, "train.jsonl"), sampled)
    if test_parts:
        corpus_mod.save_corpus(os.path.join(out, "test.jsonl"), test_parts)
        outputs.append("test.jsonl")
    _write_json(
        os.path.join(out, "domains.json"),
        {
            "surviving_domains": len(verdicts),
            "conflicting_domains": sorted(conflicts),
            "verdicts": {
                v.domain: {"label": v.label, "lists": sorted(v.supporting_lists)}
                for v in verdicts
            },
        },
    )
    config_hash = _config_hash({"seed": args.seed, "max_per_domain": args.max_per_domain,
                                "min_words": args.min_words})
    _write_manifest(out, "build-dataset", _options(args), config_hash, outputs)
    _emit(args, {
        "surviving_domains": len(verdicts),
        "conflicts": len(conflicts),
        "train_articles": len(sampled),
        "test_articles": len(test_parts),
        "out": out,
    })
    return 0


def cmd_extract_features(args) -> int:
    out = _ensure_out(args)
    articles = corpus_mod.load_corpus(args.corpus)
    lex = load_lexicon_set(_lexicon_manifest_path(args))
    docs = tokenize_articles(articles)
    path = os.path.join(out, "features.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, doc, label in docs:
            seg = corpus_mod.segment(doc, args.n_segments, args.max_seg_len)
            matrix = extract_affect(seg, lex)
            record = {"id": doc_id, "matrix": matrix.values.tolist()}
            if label is not None:
                record["label"] = label
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    config_hash = _config_hash({"n_segments": args.n_segments, "max_seg_len": args.max_seg_len})
    _write_manifest(out, "extract-features", _options(args), config_hash, ["features.jsonl"])
    _emit(args, {"documents": len(docs), "out": out})
    return 0


def cmd_train(args) -> int:
    out = _ensure_out(args)
    splits = _prepare_data(args, *_load_inputs(args), args.seed)
    train_set, val_set = splits.examples(args.n_segments, args.max_seg_len)
    vocab = splits.vocab
    model_cfg = _model_config_from_args(args, vocab.size)
    train_cfg = _train_config_from_args(args)
    pretrained = _pretrained_table(args, vocab)
    model = FakeFlowModel(model_cfg, seed=args.seed, pretrained=pretrained,
                          vocab_tokens=vocab.token_to_id if pretrained else None)
    result = train(model, train_set, val_set, train_cfg,
                   checkpoint_path=os.path.join(out, "checkpoint.bin"))

    config_hash = _config_hash({"model": model_cfg.to_json(),
                                "train": vars(train_cfg), "seed": args.seed})
    best = result.history[result.best_epoch - 1]
    report_payload = {
        "config_hash": config_hash,
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
        "best_val_metric": result.best_val_metric,
        "monitored_metric": train_cfg.monitored_metric,
        "val_accuracy": best.val_accuracy,
        "val_macro_f1": best.val_macro_f1,
        "val_loss": best.val_loss,
    }
    _write_json(os.path.join(out, "report.json"), report_payload)
    _write_json(os.path.join(out, "history.json"), result.history_json())
    _write_json(os.path.join(out, "vocab.json"), vocab.to_json())
    _write_manifest(out, "train", _options(args), config_hash,
                    ["checkpoint.bin", "report.json", "history.json", "vocab.json"])
    _emit(args, report_payload)
    return 0


def cmd_search(args) -> int:
    out = _ensure_out(args)
    splits = _prepare_data(args, *_load_inputs(args), args.seed)
    train_set, val_set = splits.examples(args.n_segments, args.max_seg_len)
    base_cfg = _model_config_from_args(args, splits.vocab.size)
    train_cfg = _train_config_from_args(args)
    result = random_search(SearchSpace(), args.trials, base_cfg, train_set, val_set,
                           train_cfg, seed=args.seed)

    trials_path = os.path.join(out, "trials.jsonl")
    with open(trials_path, "w", encoding="utf-8") as fh:
        for trial in result.trials:
            fh.write(json.dumps({
                "trial": trial.trial_index,
                "config": trial.config.to_json(),
                "best_val_metric": trial.best_val_metric,
                "best_epoch": trial.best_epoch,
                "epochs_run": trial.epochs_run,
            }, sort_keys=True) + "\n")

    best_cfg = result.best.config
    best_model = FakeFlowModel(best_cfg, seed=args.seed + result.best.trial_index)
    retrain_cfg = replace(train_cfg, seed=args.seed + result.best.trial_index)
    ckpt_name = f"trial_{result.best.trial_index:02d}_epoch{result.best.best_epoch:02d}.bin"
    train(best_model, train_set, val_set, retrain_cfg,
          checkpoint_path=os.path.join(out, ckpt_name))
    config_hash = _config_hash({"base": base_cfg.to_json(), "trials": args.trials,
                                "seed": args.seed})
    best_payload = {
        "config_hash": config_hash,
        "best_trial": result.best.trial_index,
        "best_val_metric": result.best.best_val_metric,
        "best_config": best_cfg.to_json(),
        "checkpoint": ckpt_name,
    }
    _write_json(os.path.join(out, "best.json"), best_payload)
    _write_json(os.path.join(out, "vocab.json"), splits.vocab.to_json())
    _write_manifest(out, "search", _options(args), config_hash,
                    ["trials.jsonl", "best.json", "vocab.json", ckpt_name])
    _emit(args, best_payload)
    return 0


def cmd_select_n(args) -> int:
    out = _ensure_out(args)
    candidates = [int(v) for v in args.candidates.split(",") if v]
    splits = _prepare_data(args, *_load_inputs(args), args.seed)
    base_cfg = _model_config_from_args(args, splits.vocab.size)
    train_cfg = _train_config_from_args(args)
    best_n, rows = select_n_segments(candidates, splits.train_docs, splits.val_docs,
                                     splits.vocab, splits.lex, base_cfg, train_cfg)
    config_hash = _config_hash({"candidates": candidates, "base": base_cfg.to_json(),
                                "seed": args.seed})
    report.emit_plot_data(
        "n_sweep",
        [(r.n_segments, r.accuracy, r.macro_f1) for r in rows],
        os.path.join(out, "n_sweep.csv"),
        command="select-n",
        config_hash=config_hash,
    )
    payload = {
        "config_hash": config_hash,
        "best_n": best_n,
        "rows": [vars(r) for r in rows],
    }
    _write_json(os.path.join(out, "select_n.json"), payload)
    _write_manifest(out, "select-n", _options(args), config_hash,
                    ["n_sweep.csv", "select_n.json"])
    _emit(args, {"best_n": best_n, "out": out})
    return 0


def _load_model_and_vocab(args) -> tuple[FakeFlowModel, corpus_mod.Vocabulary]:
    model = FakeFlowModel.load(args.checkpoint)
    with open(args.vocab, "r", encoding="utf-8") as fh:
        vocab = corpus_mod.Vocabulary.from_json(json.load(fh))
    if vocab.size != model.config.vocab_size:
        raise ConfigError(
            f"{args.vocab} has {vocab.size} ids but {args.checkpoint} was built for "
            f"vocab_size {model.config.vocab_size}"
        )
    return model, vocab


def _model_examples(model: FakeFlowModel, vocab, lex: LexiconSet,
                    articles: list) -> list[Example]:
    """Tokenize and featurize articles at a trained model's segment count."""
    cfg = model.config
    return prepare_examples(tokenize_articles(articles), vocab, lex,
                            cfg.n_segments, cfg.max_seg_len)


def cmd_evaluate(args) -> int:
    out = _ensure_out(args)
    model, vocab = _load_model_and_vocab(args)
    lex = load_lexicon_set(_lexicon_manifest_path(args))
    examples = _model_examples(model, vocab, lex, _load_labeled_corpus(args.corpus))
    if not examples:
        raise UsageError(f"{args.corpus}: no document has tokens left after tokenization")
    cfg = model.config
    predictions = model.predict(examples)
    gold = [e.label for e in examples]
    result = evaluation.compute_metrics(gold, predictions)
    payload = result.to_json()
    payload["config_hash"] = _config_hash({"model": cfg.to_json()})
    _write_json(os.path.join(out, "report.json"), payload)
    with open(os.path.join(out, "predictions.txt"), "w", encoding="utf-8") as fh:
        for example, label in zip(examples, predictions):
            fh.write(f"{example.doc_id}\t{label}\n")
    _write_manifest(out, "evaluate", _options(args), payload["config_hash"],
                    ["report.json", "predictions.txt"])
    _emit(args, {"accuracy": result.accuracy, "macro_f1": result.macro_f1,
                 "weighted_f1": result.weighted_f1, "n": result.n_examples})
    return 0


def cmd_cross_year(args) -> int:
    out = _ensure_out(args)
    articles, lex = _load_inputs(args)
    # predict() sees only articles with tokens; gold labels must come from
    # the same articles (tokenize_articles warns about each one it drops)
    articles = [a for a in articles if tokenize_articles([a])]
    by_year: dict[int, list] = {}
    for article in articles:
        if article.year is None:
            raise UsageError(f"article {article.id} has no year; cross-year needs years")
        by_year.setdefault(article.year, []).append(article)

    def model_builder(train_articles, seed):
        splits = _prepare_data(args, train_articles, lex, seed)
        cfg = _model_config_from_args(args, splits.vocab.size)
        model = FakeFlowModel(cfg, seed=seed)
        train(model, *splits.examples(cfg.n_segments, cfg.max_seg_len),
              _train_config_from_args(args))

        def predict(test_articles):
            return model.predict(_model_examples(model, splits.vocab, lex, test_articles))

        return predict

    matrix = evaluation.cross_year(by_year, model_builder, seed=args.seed)
    config_hash = _config_hash({"years": matrix.years, "seed": args.seed})
    _write_json(os.path.join(out, "cross_year.json"), matrix.to_json())
    evaluation.write_cross_year_csv(matrix, os.path.join(out, "cross_year.csv"))
    _write_manifest(out, "cross-year", _options(args), config_hash,
                    ["cross_year.json", "cross_year.csv"])
    _emit(args, {"years": ",".join(str(y) for y in matrix.years),
                 "column_averages": json.dumps(matrix.to_json()["column_averages"])})
    return 0


def _read_label_file(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def cmd_mcnemar(args) -> int:
    gold = _read_label_file(args.gold)
    pred_a = _read_label_file(args.a)
    pred_b = _read_label_file(args.b)
    result = evaluation.mcnemar(gold, pred_a, pred_b)
    _emit(args, {
        "b": result.b,
        "c": result.c,
        "statistic": result.statistic,
        "significant_at_05": result.significant_at_05,
    })
    return 0


def cmd_analyze(args) -> int:
    out = _ensure_out(args)
    articles = _load_labeled_corpus(args.corpus)
    lex = load_lexicon_set(_lexicon_manifest_path(args))
    docs = tokenize_articles(articles)
    corpus_pairs = [(doc, label) for _, doc, label in docs]
    stats = report.flow_statistics(corpus_pairs, args.n_segments, lex,
                                   max_seg_len=args.max_seg_len)
    config_hash = _config_hash({"n_segments": args.n_segments,
                                "max_seg_len": args.max_seg_len})
    _write_json(os.path.join(out, "flow_stats.json"), stats.to_json())
    report.emit_plot_data("flow_curve", stats, os.path.join(out, "flow_curve.csv"),
                          command="analyze", config_hash=config_hash)
    _write_manifest(out, "analyze", _options(args), config_hash,
                    ["flow_stats.json", "flow_curve.csv"])
    _emit(args, {"classes": ",".join(sorted(stats.classes)), "out": out})
    return 0


def cmd_attention(args) -> int:
    out = _ensure_out(args)
    model, vocab = _load_model_and_vocab(args)
    lex = load_lexicon_set(_lexicon_manifest_path(args))
    articles = corpus_mod.load_corpus(args.corpus)
    wanted = [a for a in articles if a.id == args.doc_id] if args.doc_id else articles[:1]
    if not wanted:
        raise UsageError(f"document id {args.doc_id!r} not found in {args.corpus}")
    article = wanted[0]
    examples = _model_examples(model, vocab, lex, [article])
    if not examples:
        raise UsageError(f"document {article.id} is empty after tokenization")
    cfg = model.config
    trace = model.forward(examples[0])
    profile = report.attention_profile(trace, classes=cfg.classes)
    doc = corpus_mod.tokenize(article.text)
    annotation = report.highlight_emotions(doc, lex)
    config_hash = _config_hash({"model": cfg.to_json()})
    report.emit_plot_data("attention_bar", profile, os.path.join(out, "attention_bar.csv"),
                          command="attention", config_hash=config_hash)
    with open(os.path.join(out, "highlight.html"), "w", encoding="utf-8") as fh:
        fh.write(report.annotation_to_html(doc, annotation,
                                           title=f"affect highlighting: {article.id}"))
    with open(os.path.join(out, "highlight.json"), "w", encoding="utf-8") as fh:
        fh.write(report.annotation_to_standoff_json(doc, annotation) + "\n")
    _write_json(os.path.join(out, "trace.json"), trace.to_json())
    _write_manifest(out, "attention", _options(args), config_hash,
                    ["attention_bar.csv", "highlight.html", "highlight.json", "trace.json"])
    _emit(args, {
        "doc_id": article.id,
        "predicted": profile.predicted_label,
        "probability": profile.probability,
        "out": out,
    })
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _options(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _add_data_flags(p, val_corpus: bool = True):
    p.add_argument("--corpus", required=True, help="labeled JSONL corpus")
    p.add_argument("--lexicons", help=f"lexicon manifest JSON (default: ${LEXICON_ENV_VAR})")
    if val_corpus:
        p.add_argument("--val-corpus", dest="val_corpus",
                       help="held-out validation corpus (default: split --corpus)")
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.2)
    p.add_argument("--min-count", dest="min_count", type=int, default=1,
                   help="vocabulary frequency threshold")


def _add_model_flags(p):
    p.add_argument("--n-segments", dest="n_segments", type=int, default=10)
    p.add_argument("--max-seg-len", dest="max_seg_len", type=int, default=800)
    p.add_argument("--embed-dim", dest="embed_dim", type=int, default=32)
    p.add_argument("--filter-widths", dest="filter_widths", default="3,4,5")
    p.add_argument("--filter-count", dest="filter_count", type=int, default=16)
    p.add_argument("--pool-size", dest="pool_size", type=int, default=2)
    p.add_argument("--topic-dim", dest="topic_dim", type=int, default=16)
    p.add_argument("--gru-units", dest="gru_units", type=int, default=16)
    p.add_argument("--final-dim", dest="final_dim", type=int, default=16)
    p.add_argument("--dropout", type=float, default=0.3)
    p.add_argument("--activation", default="relu",
                   choices=sorted(set(list(SearchSpace().activations) + ["identity"])))
    p.add_argument("--optimizer", default="adam",
                   choices=list(SearchSpace().optimizers))
    p.add_argument("--mode", default="full", choices=["full", "topic_only", "affect_only"])
    p.add_argument("--embeddings", help="pretrained word vectors (text format)")
    p.add_argument("--freeze-embeddings", dest="freeze_embeddings", action="store_true",
                   help="do not update the embedding table during training")


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=4)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--monitor", default="val_macro_f1",
                   choices=["val_macro_f1", "val_loss"])


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="fakeflow",
                             description="fake news detection from affective flow")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("build-dataset", help="project source-list labels onto articles")
    p.add_argument("--sources", required=True, help="CSV domain,list,category")
    p.add_argument("--articles", required=True, help="unlabeled JSONL articles")
    p.add_argument("--mapping", help="JSON category mapping (default: built-in)")
    p.add_argument("--max-per-domain", dest="max_per_domain", type=int, default=100)
    p.add_argument("--min-words", dest="min_words", type=int, default=30)
    p.add_argument("--test-fake", dest="test_fake",
                   help="JSONL of article-level fake test documents")
    p.add_argument("--test-real-sample", dest="test_real_sample", type=int, default=0,
                   help="move this many real training articles into the test set")
    p.add_argument("--keep-sampled-in-train", dest="keep_sampled_in_train",
                   action="store_true",
                   help="copy instead of move the sampled real test articles")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("extract-features", help="emit per-document affect matrices")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicons")
    p.add_argument("--n-segments", dest="n_segments", type=int, default=10)
    p.add_argument("--max-seg-len", dest="max_seg_len", type=int, default=800)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("train", help="train one model")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("search", help="random hyperparameter search")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--trials", type=int, default=35)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("select-n", help="sweep the segment count")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--candidates", required=True, help="comma-separated segment counts")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_n)

    p = sub.add_parser("evaluate", help="score a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicons")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cross-year", help="train on one year, test on the others")
    _add_data_flags(p, val_corpus=False)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cross_year)

    p = sub.add_parser("mcnemar", help="paired significance test of two prediction files")
    p.add_argument("--gold", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_mcnemar)

    p = sub.add_parser("analyze", help="per-class feature flow statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicons")
    p.add_argument("--n-segments", dest="n_segments", type=int, default=10)
    p.add_argument("--max-seg-len", dest="max_seg_len", type=int, default=800)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("attention", help="attention profile and emotion highlighting")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicons")
    p.add_argument("--doc-id", dest="doc_id")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attention)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        logging.basicConfig(
            level=logging.WARNING if args.quiet else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FakeflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
