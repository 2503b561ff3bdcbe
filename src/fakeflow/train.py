"""Training loop with early stopping, random hyperparameter search, and
validation-driven selection of the segment count."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tz
from .corpus import (
    RawArticle,
    TokenizedDocument,
    Vocabulary,
    segment_groups,
    token_ids,
    tokenize,
)
from .errors import EmptyDocument, UsageError
from .evaluation import compute_metrics
from .lexicon import LexiconSet, group_affect
from .model import Example, FakeFlowConfig, FakeFlowModel

logger = logging.getLogger(__name__)

SINGLE_SEGMENT_CAP = 1500  # max_seg_len override for n_segments == 1


@dataclass
class TrainConfig:
    max_epochs: int = 50
    patience: int = 4
    batch_size: int = 32
    learning_rate: float | None = None  # per-optimizer default when None
    seed: int = 0
    monitored_metric: str = "val_macro_f1"  # or "val_loss"

    def __post_init__(self):
        if self.max_epochs < 1:
            raise UsageError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise UsageError(f"patience must be >= 0, got {self.patience}")
        if self.patience >= self.max_epochs:
            raise UsageError(
                f"patience ({self.patience}) must be smaller than max_epochs ({self.max_epochs})"
            )
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.monitored_metric not in ("val_macro_f1", "val_loss"):
            raise UsageError(f"unknown monitored metric {self.monitored_metric!r}")

    @property
    def higher_is_better(self) -> bool:
        return self.monitored_metric == "val_macro_f1"


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    val_macro_f1: float


@dataclass
class TrialResult:
    config: FakeFlowConfig
    best_val_metric: float
    best_epoch: int
    epochs_run: int
    history: list[EpochRecord]
    trial_index: int | None = None

    def history_json(self) -> list[dict]:
        return [vars(r) for r in self.history]


class EarlyStopper:
    """Strict-improvement early stopping with a patience budget.

    update() returns True while training should continue; it returns False
    once `patience` consecutive epochs pass without improvement.
    """

    def __init__(self, patience: int, higher_is_better: bool):
        self.patience = patience
        self.higher_is_better = higher_is_better
        self.best = None
        self.best_epoch = None
        self.stale = 0

    def update(self, epoch: int, value: float) -> bool:
        improved = self.best is None or (
            value > self.best if self.higher_is_better else value < self.best
        )
        if improved:
            self.best = value
            self.best_epoch = epoch
            self.stale = 0
            return True
        self.stale += 1
        return self.stale < self.patience


def train(model: FakeFlowModel, train_set: list[Example], val_set: list[Example],
          cfg: TrainConfig) -> TrialResult:
    """Minimize cross-entropy with the configured optimizer; monitor the
    validation metric after every epoch; stop early and restore the best
    epoch's parameters. Deterministic given cfg.seed."""
    if not train_set or not val_set:
        raise UsageError("train and validation sets must be non-empty")
    classes = model.config.classes
    class_index = {label: i for i, label in enumerate(classes)}
    for e in train_set + val_set:
        if e.label not in class_index:
            raise UsageError(f"example {e.doc_id} has label {e.label!r}, not in {classes}")

    rng = np.random.default_rng(cfg.seed)
    opt = tz.make_optimizer(model.config.optimizer, cfg.learning_rate)
    trainable = model.trainable_params()
    gold_train = np.array([class_index[e.label] for e in train_set], dtype=np.int64)
    val_gold_labels = [e.label for e in val_set]
    gold_val = np.array([class_index[label] for label in val_gold_labels], dtype=np.int64)

    stopper = EarlyStopper(cfg.patience, cfg.higher_is_better)
    history: list[EpochRecord] = []
    best_values = model.buffers[0].copy()  # every parameter, as at the best epoch

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = [train_set[i] for i in idx]
            tape = tz.Tape()
            loss, _ = model.batch_loss(tape, batch, gold_train[idx], training=True, rng=rng)
            tz.backward(tape, loss)
            tz.step(opt, trainable)
            losses.append(float(loss.value))

        val_logits = model.predict_logits(val_set)
        tape = tz.Tape(records=False)
        val_loss = float(tz.softmax_cross_entropy(tape.constant(val_logits), gold_val).value)
        val_probs = tz.softmax_array(val_logits)
        val_pred_labels = [classes[i] for i in val_probs.argmax(axis=1)]
        report = compute_metrics(val_gold_labels, val_pred_labels)
        record = EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            val_loss=val_loss,
            val_accuracy=report.accuracy,
            val_macro_f1=report.macro_f1,
        )
        history.append(record)
        monitored = record.val_macro_f1 if cfg.monitored_metric == "val_macro_f1" else val_loss

        keep_going = stopper.update(epoch, monitored)
        if stopper.best_epoch == epoch:
            np.copyto(best_values, model.buffers[0])
        if not keep_going:
            break

    np.copyto(model.buffers[0], best_values)
    return TrialResult(
        config=model.config,
        best_val_metric=float(stopper.best),
        best_epoch=stopper.best_epoch,
        epochs_run=len(history),
        history=history,
    )


# ---------------------------------------------------------------------------
# hyperparameter search


class SearchSpace:
    """The hyperparameter ranges random_search draws from, fixed for the
    class: construct it as SearchSpace()."""

    dropout_low = 0.1
    dropout_high = 0.6
    dense_dims = (8, 16, 32, 64, 128)
    activations = ("selu", "relu", "tanh", "elu")
    filter_width_tuples = (
        (2, 3, 4), (3, 4, 5), (4, 5, 6), (3, 5), (2, 4), (4,), (5,), (3, 5, 7), (3, 6),
    )
    filter_counts = (4, 8, 16, 32, 64, 128)
    pool_sizes = (2, 3)
    gru_units = (8, 16, 32, 64, 128)
    optimizers = ("adam", "adadelta", "rmsprop", "sgd")

    def sample(self, rng: np.random.Generator, base: FakeFlowConfig) -> FakeFlowConfig:
        """One independent uniform draw per dimension. The fused dense width
        is derived from the sampled GRU size, never sampled."""

        def pick(seq):
            return seq[int(rng.integers(len(seq)))]

        dropout = float(rng.uniform(self.dropout_low, self.dropout_high))
        dense_dim = int(pick(self.dense_dims))
        gru = int(pick(self.gru_units))
        return replace(
            base,
            dropout_rate=dropout,
            topic_dense_dim=dense_dim,
            final_dense_dim=dense_dim,
            activation=pick(self.activations),
            cnn_filter_widths=tuple(pick(self.filter_width_tuples)),
            cnn_filter_count=int(pick(self.filter_counts)),
            pool_size=int(pick(self.pool_sizes)),
            gru_units=gru,
            fused_dense_dim=2 * gru,
            optimizer=pick(self.optimizers),
        )


@dataclass
class SearchResult:
    best: TrialResult
    trials: list[TrialResult]
    best_model: FakeFlowModel  # the best trial's model, at its best epoch


def random_search(space: SearchSpace, trials: int, base_config: FakeFlowConfig,
                  train_set: list[Example], val_set: list[Example],
                  train_cfg: TrainConfig, seed: int = 0,
                  pretrained: dict[str, np.ndarray] | None = None,
                  vocab_tokens: dict[str, int] | None = None) -> SearchResult:
    """Seeded random search: sample `trials` configs, train each with early
    stopping, return the trial with the best monitored metric and its
    trained model. `pretrained` and `vocab_tokens` seed every trial's
    embedding table, as in FakeFlowModel.

    Per-trial seeds are seed + trial_index so trials are independent and
    the whole search replays from one seed.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    configs = [space.sample(rng, base_config) for _ in range(trials)]
    results = []
    best = best_model = None
    for t, config in enumerate(configs):
        trial_seed = seed + t
        model = FakeFlowModel(config, seed=trial_seed, pretrained=pretrained,
                              vocab_tokens=vocab_tokens)
        cfg = replace(train_cfg, seed=trial_seed)
        result = train(model, train_set, val_set, cfg)
        result.trial_index = t
        results.append(result)
        logger.info("trial %d/%d: metric=%.4f epochs=%d", t + 1, trials,
                    result.best_val_metric, result.epochs_run)
        # strict comparison: earliest trial wins ties
        if best is None or ((result.best_val_metric > best.best_val_metric)
                            if train_cfg.higher_is_better
                            else (result.best_val_metric < best.best_val_metric)):
            best, best_model = result, model
    return SearchResult(best=best, trials=results, best_model=best_model)


# ---------------------------------------------------------------------------
# data preparation and segment-count selection


def prepare_examples(docs: list[tuple[str, TokenizedDocument, str | None]],
                     vocab: Vocabulary, lex: LexiconSet,
                     n_segments: int, max_seg_len: int) -> list[Example]:
    """Segment, encode and featurize tokenized documents.

    `docs` holds (doc_id, TokenizedDocument, label) triples. The documents
    are prepared in consecutive groups (`corpus.segment_groups`): each
    group's kept tokens get one vocabulary lookup (`corpus.token_ids`),
    their lexicon rows are read by id from `lex.vocabulary_rows` (only
    out-of-vocabulary tokens are looked up again, by string), and one
    sparse affect sum (`lexicon.group_affect`) follows. Each example's
    ids, offsets and affect are slices of the group's arrays. The result
    equals `segment`, `encode` and `extract_affect` applied to each
    document, bit for bit, as long as `vocab.token_to_id` is not edited in
    place once prepared with (see `LexiconSet`).
    """
    examples = []
    table = lex.vocabulary_rows(vocab.token_to_id)
    for group in segment_groups([doc for _, doc, _ in docs], n_segments, max_seg_len):
        empty = np.flatnonzero(group.doc_lengths < 1)
        if empty.size:
            raise UsageError(f"document {docs[len(examples) + empty[0]][0]!r} has no tokens")
        ids = token_ids(group.tokens, vocab)
        rows = table[ids]
        unknown = np.flatnonzero(rows < 0)
        if unknown.size:
            rows[unknown] = lex.token_rows([group.tokens[i] for i in unknown.tolist()])
        affect = group_affect(group, lex, rows)
        offsets = group.offsets - group.offsets[:, :1]
        bounds = group.offsets[:, [0, -1]].tolist()
        start = len(examples)
        for (doc_id, _, label), (a, b), doc_offsets, doc_affect in zip(
                docs[start:start + len(bounds)], bounds, offsets, affect):
            examples.append(Example(doc_id=doc_id, ids=ids[a:b], offsets=doc_offsets,
                                    affect=doc_affect, label=label))
    return examples


def tokenize_articles(articles: list[RawArticle],
                      ) -> list[tuple[str, TokenizedDocument, str | None]]:
    """Tokenize a corpus, dropping documents that come out empty."""
    docs = []
    for article in articles:
        try:
            doc = tokenize(article.text)
        except EmptyDocument:
            logger.warning("article %s dropped: empty after tokenization", article.id)
            continue
        docs.append((article.id, doc, article.label))
    return docs


@dataclass
class NSweepRow:
    n_segments: int
    max_seg_len: int
    accuracy: float
    macro_f1: float


def select_n_segments(candidates: list[int],
                      train_docs: list[tuple[str, TokenizedDocument, str | None]],
                      val_docs: list[tuple[str, TokenizedDocument, str | None]],
                      vocab: Vocabulary, lex: LexiconSet,
                      base_config: FakeFlowConfig, train_cfg: TrainConfig,
                      pretrained: dict[str, np.ndarray] | None = None,
                      ) -> tuple[int, list[NSweepRow]]:
    """Train one model per candidate segment count (same seed and
    hyperparameters) and pick the best validation macro-F1; ties go to the
    smaller count. Single-segment runs widen max_seg_len to 1500 so long
    documents are not cut short. `pretrained` word vectors seed each
    model's embedding table, as in FakeFlowModel."""
    if not candidates:
        raise UsageError("candidates must be non-empty")
    rows = []
    for n in sorted(set(int(c) for c in candidates)):
        max_len = SINGLE_SEGMENT_CAP if n == 1 else base_config.max_seg_len
        config = replace(base_config, n_segments=n, max_seg_len=max_len)
        train_set = prepare_examples(train_docs, vocab, lex, n, max_len)
        val_set = prepare_examples(val_docs, vocab, lex, n, max_len)
        model = FakeFlowModel(config, seed=train_cfg.seed, pretrained=pretrained,
                              vocab_tokens=vocab.token_to_id)
        result = train(model, train_set, val_set, train_cfg)
        final = result.history[result.best_epoch - 1]
        rows.append(
            NSweepRow(
                n_segments=n,
                max_seg_len=max_len,
                accuracy=final.val_accuracy,
                macro_f1=final.val_macro_f1,
            )
        )
    best = max(rows, key=lambda r: (r.macro_f1, -r.n_segments))
    return best.n_segments, rows
