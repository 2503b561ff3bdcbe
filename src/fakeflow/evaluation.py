"""Classification metrics, paired significance testing, the majority-class
baseline, and the cross-year train/test harness.

Metric aggregation runs in exact rational arithmetic and converts to float
once at the end, so identities like weighted recall == accuracy hold
bit-for-bit.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .atomic import atomic_open
from .errors import UsageError

logger = logging.getLogger(__name__)

# Chi-squared critical value, 1 degree of freedom, alpha = 0.05.
CHI2_CRITICAL_05 = 3.841


@dataclass
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvaluationReport:
    accuracy: float
    per_class: dict[str, ClassScores]
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    macro_f1: float
    confusion: dict[str, dict[str, int]]  # confusion[gold][pred] = count
    n_examples: int
    degenerate_classes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {
                label: vars(scores) for label, scores in sorted(self.per_class.items())
            },
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "macro_f1": self.macro_f1,
            "confusion": {g: dict(sorted(row.items())) for g, row in sorted(self.confusion.items())},
            "n_examples": self.n_examples,
            "degenerate_classes": sorted(self.degenerate_classes),
        }


def compute_metrics(gold: list, pred: list) -> EvaluationReport:
    """Accuracy, per-class P/R/F1, support-weighted and macro aggregates.

    0/0 ratios (a class never predicted, or absent from gold) are scored 0
    and the class is flagged as degenerate.
    """
    if len(gold) != len(pred):
        raise UsageError(f"gold has {len(gold)} labels but pred has {len(pred)}")
    if not gold:
        raise UsageError("cannot score an empty prediction list")
    classes = sorted(set(gold) | set(pred))
    confusion = {g: {p: 0 for p in classes} for g in classes}
    for g, p in zip(gold, pred):
        confusion[g][p] += 1

    n = len(gold)
    correct = sum(confusion[c][c] for c in classes)
    accuracy = Fraction(correct, n)

    per_class = {}
    degenerate = []
    weighted_p = Fraction(0)
    weighted_r = Fraction(0)
    weighted_f = Fraction(0)
    macro_f = Fraction(0)
    for c in classes:
        tp = confusion[c][c]
        fp = sum(confusion[g][c] for g in classes if g != c)
        fn = sum(confusion[c][p] for p in classes if p != c)
        support = tp + fn
        if tp + fp == 0 or support == 0:
            degenerate.append(c)
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, support) if support else Fraction(0)
        f1 = (
            Fraction(2) * precision * recall / (precision + recall)
            if precision + recall
            else Fraction(0)
        )
        per_class[c] = ClassScores(
            precision=float(precision), recall=float(recall), f1=float(f1), support=support
        )
        w = Fraction(support, n)
        weighted_p += w * precision
        weighted_r += w * recall
        weighted_f += w * f1
        macro_f += f1
    macro_f /= len(classes)

    return EvaluationReport(
        accuracy=float(accuracy),
        per_class=per_class,
        weighted_precision=float(weighted_p),
        weighted_recall=float(weighted_r),
        weighted_f1=float(weighted_f),
        macro_f1=float(macro_f),
        confusion=confusion,
        n_examples=n,
        degenerate_classes=degenerate,
    )


@dataclass
class McNemarResult:
    b: int  # first system correct, second wrong
    c: int  # first system wrong, second correct
    statistic: float
    significant_at_05: bool


def mcnemar_from_counts(b: int, c: int) -> McNemarResult:
    """Continuity-corrected McNemar statistic (|b-c| - 1)^2 / (b + c),
    compared against the alpha = 0.05 chi-squared critical value."""
    if b < 0 or c < 0:
        raise UsageError("discordant counts must be non-negative")
    if b + c == 0:
        return McNemarResult(b=b, c=c, statistic=0.0, significant_at_05=False)
    statistic = (abs(b - c) - 1) ** 2 / (b + c)
    return McNemarResult(b=b, c=c, statistic=statistic,
                         significant_at_05=statistic > CHI2_CRITICAL_05)


def mcnemar(gold: list, pred_a: list, pred_b: list) -> McNemarResult:
    """Paired comparison of two prediction vectors on the discordant
    counts."""
    if not (len(gold) == len(pred_a) == len(pred_b)):
        raise UsageError("gold, pred_a, and pred_b must have equal lengths")
    b = c = 0
    for g, a, bb in zip(gold, pred_a, pred_b):
        a_ok, b_ok = a == g, bb == g
        if a_ok and not b_ok:
            b += 1
        elif b_ok and not a_ok:
            c += 1
    return mcnemar_from_counts(b, c)


def majority_baseline(train_labels: list, test_gold: list) -> EvaluationReport:
    """Predict the most frequent training label everywhere; ties resolve to
    'real'."""
    if not train_labels:
        raise UsageError("majority baseline needs a non-empty training set")
    counts = Counter(train_labels)
    top = max(counts.values())
    winners = sorted(label for label, cnt in counts.items() if cnt == top)
    majority = "real" if "real" in winners else winners[0]
    return compute_metrics(test_gold, [majority] * len(test_gold))


# ---------------------------------------------------------------------------
# cross-year harness


@dataclass
class CrossYearMatrix:
    years: list[int]
    accuracy: dict[int, dict[int, float]]  # accuracy[train_year][test_year], diagonal absent
    column_averages: dict[int, float]

    def to_json(self) -> dict:
        return {
            "years": self.years,
            "accuracy": {
                str(tr): {str(te): v for te, v in sorted(row.items())}
                for tr, row in sorted(self.accuracy.items())
            },
            "column_averages": {str(y): v for y, v in sorted(self.column_averages.items())},
        }


def off_diagonal_column_averages(accuracy: dict[int, dict[int, float]]) -> dict[int, float]:
    """Per-test-year mean accuracy over every train year except itself."""
    years = sorted(accuracy)
    averages = {}
    for test_year in years:
        cells = [
            accuracy[train_year][test_year]
            for train_year in years
            if train_year != test_year and test_year in accuracy[train_year]
        ]
        if cells:
            averages[test_year] = sum(cells) / len(cells)
    return averages


def cross_year(datasets_by_year: dict[int, list], model_builder, seed: int = 0) -> CrossYearMatrix:
    """Train on each year and test on every other year.

    `model_builder(train_items, seed)` must return a predict function
    mapping a list of items to predicted labels; items carry their gold
    label in a `label` attribute. Years with fewer than two label classes
    are skipped with a warning.
    """
    if len(datasets_by_year) < 2:
        raise UsageError("cross-year evaluation needs at least 2 years")
    usable = {}
    for year in sorted(datasets_by_year):
        items = datasets_by_year[year]
        labels = {item.label for item in items}
        if len(labels) < 2:
            logger.warning("year %s skipped: only one label class present", year)
            continue
        usable[year] = items
    if len(usable) < 2:
        raise UsageError("fewer than 2 usable years after skipping single-class years")

    years = sorted(usable)
    accuracy: dict[int, dict[int, float]] = {y: {} for y in years}
    for train_year in years:
        predict = model_builder(usable[train_year], seed)
        for test_year in years:
            if test_year == train_year:
                continue
            items = usable[test_year]
            predicted = predict(items)
            report = compute_metrics([item.label for item in items], predicted)
            accuracy[train_year][test_year] = report.accuracy
    return CrossYearMatrix(
        years=years,
        accuracy=accuracy,
        column_averages=off_diagonal_column_averages(accuracy),
    )


def write_cross_year_csv(matrix: CrossYearMatrix, path) -> None:
    """Train years as rows, test years as columns, 0.00 on the diagonal,
    and a final Average row of off-diagonal column means."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["train\\test"] + [str(y) for y in matrix.years])
        for train_year in matrix.years:
            row = [str(train_year)]
            for test_year in matrix.years:
                if test_year == train_year:
                    row.append("0.00")
                else:
                    row.append(f"{matrix.accuracy[train_year].get(test_year, float('nan')):.2f}")
            writer.writerow(row)
        writer.writerow(
            ["Average"] + [f"{matrix.column_averages.get(y, float('nan')):.2f}" for y in matrix.years]
        )
