"""Command-line entry point.

Subcommands: build-dataset, extract-features, train, search, select-n,
evaluate, cross-year, mcnemar, analyze, attention. Every command accepts
--json for machine-readable stdout and honors a single --seed. Each flag is
declared once, in a parent group that the subcommands taking it share.

Every command but mcnemar writes under --out through one `_Out`, which hands
out each artifact's path and records its name. A command returns its config
hash and a summary; `main` then writes manifest.json, whose `outputs` are
the recorded names and whose `environment` records the numpy and BLAS
builds and thread settings, and prints the summary. Exit codes: 0 success,
1 usage error, 2 data error or a size too large to allocate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import evaluation, report
from . import tensor as tz
from .atomic import atomic_open
from .errors import ConfigError, FakeflowError, UsageError
from .lexicon import LexiconSet, affect_matrices, load_lexicon_set
from .model import MODES, Example, FakeFlowConfig, FakeFlowModel
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


class _Out:
    """The --out directory of one run. `path` hands out an artifact's path
    and records its name, so the manifest lists exactly what the run wrote.
    The directory is made when the first path is handed out, so a run that
    fails before it writes anything leaves none behind; every command hands
    out one before `main` writes manifest.json there."""

    def __init__(self, directory: str):
        self.directory = directory
        self.names: list[str] = []

    def path(self, name: str) -> str:
        os.makedirs(self.directory, exist_ok=True)
        self.names.append(name)
        return os.path.join(self.directory, name)


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _write_json(path, payload) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _load_lexicons(args) -> LexiconSet:
    """The lexicons of --lexicons, else of the manifest the environment names."""
    path = args.lexicons or os.environ.get(LEXICON_ENV_VAR)
    if not path:
        raise UsageError(
            f"no lexicon manifest given; pass --lexicons or set {LEXICON_ENV_VAR}"
        )
    return load_lexicon_set(path)


def _parse_ints(text: str, flag: str) -> list[int]:
    """A comma-separated integer list given to `flag`; empty parts are skipped."""
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers such as 3,4,5, "
                         f"got {text!r}") from None


def _model_config_from_args(args, vocab_size: int) -> FakeFlowConfig:
    return FakeFlowConfig(
        n_segments=args.n_segments,
        vocab_size=vocab_size,
        max_seg_len=args.max_seg_len,
        embed_dim=args.embed_dim,
        cnn_filter_widths=_parse_ints(args.filter_widths, "--filter-widths"),
        cnn_filter_count=args.filter_count,
        pool_size=args.pool_size,
        topic_dense_dim=args.topic_dim,
        gru_units=args.gru_units,
        final_dense_dim=args.final_dim,
        dropout_rate=args.dropout,
        activation=args.activation,
        optimizer=args.optimizer,
        mode=args.mode,
        classes=corpus_mod.LABELS,
        train_embeddings=not args.freeze_embeddings,
    )


def _train_config_from_args(args) -> TrainConfig:
    # a run that cannot learn is a mistake on the command line
    if args.lr is not None and not (math.isfinite(args.lr) and args.lr > 0.0):
        raise ConfigError(f"--lr must be a finite positive number, got {args.lr}")
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


def _docs(articles: list, tokens: dict) -> list:
    """The tokenized documents of `articles`, in order, from `tokens`, their
    corpus's map of article id to `tokenize_articles` triple."""
    return [tokens[a.id] for a in articles if a.id in tokens]


def _fit_inputs(args) -> tuple[list, dict, LexiconSet, dict | None]:
    """What a fitting command reads, each once: the labeled --corpus, each
    of its articles' `tokenize_articles` triple by article id (none for an
    article that comes out empty), the lexicons and the --embeddings word
    vectors (None without the flag)."""
    vectors = (corpus_mod.load_word_vectors(args.embeddings, args.embed_dim)
               if args.embeddings else None)
    articles, lex = _load_labeled_corpus(args.corpus), _load_lexicons(args)
    return articles, {doc[0]: doc for doc in tokenize_articles(articles)}, lex, vectors


@dataclass
class _Fit:
    """What one model is fitted on: the tokenized training and validation
    documents, the training part's vocabulary, the lexicons that featurize
    both, the model and training configs, and the --embeddings rows keyed by
    vocabulary id as FakeFlowModel takes them (None without the flag)."""

    train_docs: list
    val_docs: list
    vocab: corpus_mod.Vocabulary
    lex: LexiconSet
    model_cfg: FakeFlowConfig
    train_cfg: TrainConfig
    pretrained: dict | None

    def examples(self) -> tuple[list[Example], list[Example]]:
        """Both parts featurized at the model's segment count: (train_set, val_set)."""
        cfg = self.model_cfg
        return tuple(prepare_examples(docs, self.vocab, self.lex, cfg.n_segments, cfg.max_seg_len)
                     for docs in (self.train_docs, self.val_docs))


def _fit(args, articles: list, tokens: dict, lex: LexiconSet, vectors: dict | None,
         seed: int) -> _Fit:
    """The data preparation of train, search, select-n and each cross-year
    training year: validate on --val-corpus when given, else on a stratified
    split of `articles`; take each part's documents from `tokens`; build the
    vocabulary on the training part and key the word vectors by its ids."""
    if getattr(args, "val_corpus", None):
        train_docs = _docs(articles, tokens)
        val_docs = tokenize_articles(_load_labeled_corpus(args.val_corpus))
    else:
        parts = corpus_mod.split_train_val(articles, val_fraction=args.val_fraction, seed=seed)
        train_docs, val_docs = (_docs(part, tokens) for part in parts)
    vocab = corpus_mod.build_vocabulary([doc for _, doc, _ in train_docs], min_count=args.min_count)
    pretrained = None if vectors is None else {
        idx: vectors[token] for token, idx in vocab.token_to_id.items() if token in vectors}
    return _Fit(train_docs, val_docs, vocab, lex, _model_config_from_args(args, vocab.size),
                _train_config_from_args(args), pretrained)


def _affect(args, articles: list) -> tuple[list, list[np.ndarray]]:
    """`articles` tokenized (`tokenize_articles`) and each document's affect
    matrix at --n-segments and --max-seg-len."""
    lex = _load_lexicons(args)
    docs = tokenize_articles(articles)
    return docs, affect_matrices([doc for _, doc, _ in docs], lex, args.n_segments,
                                 args.max_seg_len)


# ---------------------------------------------------------------------------
# subcommands: each returns (config hash, stdout summary)


def cmd_build_dataset(args, out: _Out) -> tuple[str, dict]:
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
    corpus_mod.save_corpus(out.path("train.jsonl"), sampled)
    if test_parts:
        corpus_mod.save_corpus(out.path("test.jsonl"), test_parts)
    _write_json(
        out.path("domains.json"),
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
    return config_hash, {
        "surviving_domains": len(verdicts),
        "conflicts": len(conflicts),
        "train_articles": len(sampled),
        "test_articles": len(test_parts),
        "out": args.out,
    }


def cmd_extract_features(args, out: _Out) -> tuple[str, dict]:
    docs, matrices = _affect(args, corpus_mod.load_corpus(args.corpus))
    with atomic_open(out.path("features.jsonl"), "w", encoding="utf-8") as fh:
        for (doc_id, _, label), matrix in zip(docs, matrices):
            record = {"id": doc_id, "matrix": matrix.tolist()}
            if label is not None:
                record["label"] = label
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    config_hash = _config_hash({"n_segments": args.n_segments, "max_seg_len": args.max_seg_len})
    return config_hash, {"documents": len(docs), "out": args.out}


def cmd_train(args, out: _Out) -> tuple[str, dict]:
    fit = _fit(args, *_fit_inputs(args), args.seed)
    model = FakeFlowModel(fit.model_cfg, seed=args.seed, pretrained=fit.pretrained)
    result = train(model, *fit.examples(), fit.train_cfg)
    model.save(out.path("checkpoint.bin"))

    config_hash = _config_hash({"model": fit.model_cfg.to_json(),
                                "train": vars(fit.train_cfg), "seed": args.seed})
    best = result.history[result.best_epoch - 1]
    report_payload = {
        "config_hash": config_hash,
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
        "best_val_metric": result.best_val_metric,
        "monitored_metric": fit.train_cfg.monitored_metric,
        "val_accuracy": best.val_accuracy,
        "val_macro_f1": best.val_macro_f1,
        "val_loss": best.val_loss,
    }
    _write_json(out.path("report.json"), report_payload)
    _write_json(out.path("history.json"), result.history_json())
    _write_json(out.path("vocab.json"), fit.vocab.to_json())
    return config_hash, report_payload


def cmd_search(args, out: _Out) -> tuple[str, dict]:
    fit = _fit(args, *_fit_inputs(args), args.seed)
    result = random_search(SearchSpace(), args.trials, fit.model_cfg, *fit.examples(),
                           fit.train_cfg, seed=args.seed, pretrained=fit.pretrained)

    with atomic_open(out.path("trials.jsonl"), "w", encoding="utf-8") as fh:
        for trial in result.trials:
            fh.write(json.dumps({
                "trial": trial.trial_index,
                "config": trial.config.to_json(),
                "best_val_metric": trial.best_val_metric,
                "best_epoch": trial.best_epoch,
                "epochs_run": trial.epochs_run,
            }, sort_keys=True) + "\n")

    best_cfg = result.best.config
    ckpt_name = f"trial_{result.best.trial_index:02d}_epoch{result.best.best_epoch:02d}.bin"
    result.best_model.save(out.path(ckpt_name))
    config_hash = _config_hash({"base": fit.model_cfg.to_json(), "trials": args.trials,
                                "seed": args.seed})
    best_payload = {
        "config_hash": config_hash,
        "best_trial": result.best.trial_index,
        "best_val_metric": result.best.best_val_metric,
        "best_config": best_cfg.to_json(),
        "checkpoint": ckpt_name,
    }
    _write_json(out.path("best.json"), best_payload)
    _write_json(out.path("vocab.json"), fit.vocab.to_json())
    return config_hash, best_payload


def cmd_select_n(args, out: _Out) -> tuple[str, dict]:
    candidates = _parse_ints(args.candidates, "--candidates")
    fit = _fit(args, *_fit_inputs(args), args.seed)
    best_n, rows = select_n_segments(candidates, fit.train_docs, fit.val_docs, fit.vocab,
                                     fit.lex, fit.model_cfg, fit.train_cfg, fit.pretrained)
    config_hash = _config_hash({"candidates": candidates, "base": fit.model_cfg.to_json(),
                                "seed": args.seed})
    report.emit_plot_data(
        "n_sweep",
        [(r.n_segments, r.accuracy, r.macro_f1) for r in rows],
        out.path("n_sweep.csv"),
        command="select-n",
        config_hash=config_hash,
    )
    payload = {
        "config_hash": config_hash,
        "best_n": best_n,
        "rows": [vars(r) for r in rows],
    }
    _write_json(out.path("select_n.json"), payload)
    return config_hash, {"best_n": best_n, "out": args.out}


def _load_model_and_vocab(args) -> tuple[FakeFlowModel, corpus_mod.Vocabulary]:
    model = FakeFlowModel.load(args.checkpoint)
    vocab = corpus_mod.load_vocabulary(args.vocab)
    if vocab.size != model.config.vocab_size:
        raise ConfigError(
            f"{args.vocab} has {vocab.size} ids but {args.checkpoint} was built for "
            f"vocab_size {model.config.vocab_size}"
        )
    return model, vocab


def _model_examples(model: FakeFlowModel, vocab, lex: LexiconSet, docs: list) -> list[Example]:
    """Featurize tokenized documents at a trained model's segment count."""
    cfg = model.config
    return prepare_examples(docs, vocab, lex, cfg.n_segments, cfg.max_seg_len)


def cmd_evaluate(args, out: _Out) -> tuple[str, dict]:
    model, vocab = _load_model_and_vocab(args)
    lex = _load_lexicons(args)
    examples = _model_examples(model, vocab, lex,
                               tokenize_articles(_load_labeled_corpus(args.corpus)))
    if not examples:
        raise UsageError(f"{args.corpus}: no document has tokens left after tokenization")
    cfg = model.config
    predictions = model.predict(examples)
    gold = [e.label for e in examples]
    result = evaluation.compute_metrics(gold, predictions)
    payload = result.to_json()
    payload["config_hash"] = _config_hash({"model": cfg.to_json()})
    _write_json(out.path("report.json"), payload)
    with atomic_open(out.path("predictions.txt"), "w", encoding="utf-8") as fh:
        for example, label in zip(examples, predictions):
            fh.write(f"{example.doc_id}\t{label}\n")
    return payload["config_hash"], {"accuracy": result.accuracy, "macro_f1": result.macro_f1,
                                    "weighted_f1": result.weighted_f1, "n": result.n_examples}


def cmd_cross_year(args, out: _Out) -> tuple[str, dict]:
    articles, tokens, lex, vectors = _fit_inputs(args)
    # predict() sees only articles with tokens; gold labels must come from
    # the same articles (tokenize_articles warned about each one it dropped)
    by_year: dict[int, list] = {}
    for article in (a for a in articles if a.id in tokens):
        if article.year is None:
            raise UsageError(f"article {article.id} has no year; cross-year needs years")
        by_year.setdefault(article.year, []).append(article)

    def model_builder(train_articles, seed):
        fit = _fit(args, train_articles, tokens, lex, vectors, seed)
        model = FakeFlowModel(fit.model_cfg, seed=seed, pretrained=fit.pretrained)
        train(model, *fit.examples(), fit.train_cfg)

        def predict(test_articles):
            return model.predict(_model_examples(model, fit.vocab, lex,
                                                 _docs(test_articles, tokens)))

        return predict

    matrix = evaluation.cross_year(by_year, model_builder, seed=args.seed)
    config_hash = _config_hash({"years": matrix.years, "seed": args.seed})
    _write_json(out.path("cross_year.json"), matrix.to_json())
    evaluation.write_cross_year_csv(matrix, out.path("cross_year.csv"))
    return config_hash, {"years": ",".join(str(y) for y in matrix.years),
                         "column_averages": json.dumps(matrix.to_json()["column_averages"])}


def _read_label_file(path) -> list[str]:
    return [line.strip() for line in corpus_mod.read_text(path).split("\n") if line.strip()]


def cmd_mcnemar(args, _out) -> tuple[None, dict]:
    gold = _read_label_file(args.gold)
    pred_a = _read_label_file(args.a)
    pred_b = _read_label_file(args.b)
    result = evaluation.mcnemar(gold, pred_a, pred_b)
    return None, {
        "b": result.b,
        "c": result.c,
        "statistic": result.statistic,
        "significant_at_05": result.significant_at_05,
    }


def cmd_analyze(args, out: _Out) -> tuple[str, dict]:
    docs, matrices = _affect(args, _load_labeled_corpus(args.corpus))
    stats = report.flow_statistics(matrices, [label for _, _, label in docs])
    config_hash = _config_hash({"n_segments": args.n_segments,
                                "max_seg_len": args.max_seg_len})
    _write_json(out.path("flow_stats.json"), stats.to_json())
    report.emit_plot_data("flow_curve", stats, out.path("flow_curve.csv"),
                          command="analyze", config_hash=config_hash)
    return config_hash, {"classes": ",".join(sorted(stats.classes)), "out": args.out}


def cmd_attention(args, out: _Out) -> tuple[str, dict]:
    model, vocab = _load_model_and_vocab(args)
    lex = _load_lexicons(args)
    articles = corpus_mod.load_corpus(args.corpus)
    if not articles:
        raise UsageError(f"corpus {args.corpus} has no articles")
    wanted = ([a for a in articles if a.id == args.doc_id] if args.doc_id is not None
              else articles[:1])
    if not wanted:
        raise UsageError(f"document id {args.doc_id!r} not found in {args.corpus}")
    article = wanted[0]
    docs = tokenize_articles([article])
    if not docs:
        raise UsageError(f"document {article.id} is empty after tokenization")
    cfg = model.config
    trace = model.forward(_model_examples(model, vocab, lex, docs)[0])
    profile = report.attention_profile(trace, classes=cfg.classes)
    doc = docs[0][1]
    annotation = report.highlight_emotions(doc, lex)
    config_hash = _config_hash({"model": cfg.to_json()})
    report.emit_plot_data("attention_bar", profile, out.path("attention_bar.csv"),
                          command="attention", config_hash=config_hash)
    with atomic_open(out.path("highlight.html"), "w", encoding="utf-8") as fh:
        fh.write(report.annotation_to_html(doc, annotation,
                                           title=f"affect highlighting: {article.id}"))
    with atomic_open(out.path("highlight.json"), "w", encoding="utf-8") as fh:
        fh.write(report.annotation_to_standoff_json(doc, annotation) + "\n")
    _write_json(out.path("trace.json"), trace.to_json())
    return config_hash, {
        "doc_id": article.id,
        "predicted": profile.predicted_label,
        "probability": profile.probability,
        "out": args.out,
    }


# ---------------------------------------------------------------------------
# parser assembly


def _options(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser() -> _ArgumentParser:
    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    out = group()
    out.add_argument("--out", required=True, help="directory for the artifacts and manifest.json")

    inputs = group()
    inputs.add_argument("--corpus", required=True, help="JSONL corpus")
    inputs.add_argument("--lexicons", help=f"lexicon manifest JSON (default: ${LEXICON_ENV_VAR})")

    segments = group()
    segments.add_argument("--n-segments", dest="n_segments", type=int, default=10)
    segments.add_argument("--max-seg-len", dest="max_seg_len", type=int, default=800)

    checkpoint = group()
    checkpoint.add_argument("--checkpoint", required=True)
    checkpoint.add_argument("--vocab", required=True)

    val_corpus = group()
    val_corpus.add_argument("--val-corpus", dest="val_corpus",
                            help="held-out validation corpus (default: split --corpus)")

    split = group()
    split.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.2)
    split.add_argument("--min-count", dest="min_count", type=int, default=1,
                       help="vocabulary frequency threshold")

    model = group()
    model.add_argument("--embed-dim", dest="embed_dim", type=int, default=32)
    model.add_argument("--filter-widths", dest="filter_widths", default="3,4,5")
    model.add_argument("--filter-count", dest="filter_count", type=int, default=16)
    model.add_argument("--pool-size", dest="pool_size", type=int, default=2)
    model.add_argument("--topic-dim", dest="topic_dim", type=int, default=16)
    model.add_argument("--gru-units", dest="gru_units", type=int, default=16)
    model.add_argument("--final-dim", dest="final_dim", type=int, default=16)
    model.add_argument("--dropout", type=float, default=0.3)
    model.add_argument("--activation", default="relu", choices=sorted(tz.ACTIVATIONS))
    model.add_argument("--optimizer", default="adam", choices=tz.ALGORITHMS)
    model.add_argument("--mode", default="full", choices=MODES)
    model.add_argument("--embeddings", help="pretrained word vectors (text format)")
    model.add_argument("--freeze-embeddings", dest="freeze_embeddings", action="store_true",
                       help="do not update the embedding table during training")

    training = group()
    training.add_argument("--epochs", type=int, default=50)
    training.add_argument("--patience", type=int, default=4)
    training.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    training.add_argument("--lr", type=float, default=None)
    training.add_argument("--monitor", default="val_macro_f1",
                          choices=["val_macro_f1", "val_loss"])

    fitting = (split, segments, model, training)

    parser = _ArgumentParser(prog="fakeflow",
                             description="fake news detection from affective flow")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command")

    def command(name: str, help: str, func, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(func=func)
        return p

    p = command("build-dataset", "project source-list labels onto articles",
                cmd_build_dataset, out)
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

    command("extract-features", "emit per-document affect matrices", cmd_extract_features,
            inputs, segments, out)
    command("train", "train one model", cmd_train, inputs, val_corpus, *fitting, out)
    p = command("search", "random hyperparameter search", cmd_search,
                inputs, val_corpus, *fitting, out)
    p.add_argument("--trials", type=int, default=35)
    p = command("select-n", "sweep the segment count", cmd_select_n,
                inputs, val_corpus, *fitting, out)
    p.add_argument("--candidates", required=True, help="comma-separated segment counts")
    command("evaluate", "score a checkpoint on a corpus", cmd_evaluate,
            checkpoint, inputs, out)
    command("cross-year", "train on one year, test on the others", cmd_cross_year,
            inputs, *fitting, out)

    p = command("mcnemar", "paired significance test of two prediction files", cmd_mcnemar)
    p.add_argument("--gold", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    command("analyze", "per-class feature flow statistics", cmd_analyze,
            inputs, segments, out)
    p = command("attention", "attention profile and emotion highlighting", cmd_attention,
                checkpoint, inputs, out)
    p.add_argument("--doc-id", dest="doc_id")

    return parser


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """What a run's bits depend on besides its seed and options: the
    fakeflow, numpy and BLAS builds and the BLAS thread settings (null where
    unset). No wall-clock field, so same-seed manifests compare equal."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 only prints its config
        blas = {}
    return {
        "fakeflow": __version__,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


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
        out = _Out(args.out) if "out" in args else None
        config_hash, summary = args.func(args, out)
        if out is not None:
            _write_json(os.path.join(out.directory, "manifest.json"), {
                "command": args.command,
                "options": _options(args),
                "config_hash": config_hash,
                "outputs": sorted(out.names),
                "environment": _environment(),
            })
        _emit(args, summary)
        return 0
    except (FakeflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2
    except MemoryError as exc:  # numpy's message names the shape it could not allocate
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
