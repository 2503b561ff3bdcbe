from fractions import Fraction

import numpy as np
import pytest

from fakeflow.errors import UsageError
from fakeflow.evaluation import (
    CrossYearMatrix,
    compute_metrics,
    cross_year,
    majority_baseline,
    mcnemar,
    mcnemar_from_counts,
    off_diagonal_column_averages,
    write_cross_year_csv,
)


def brute_force_metrics(gold, pred):
    """Independent oracle: explicit loops over the confusion matrix, exact
    rational arithmetic, floats at the very end."""
    classes = sorted(set(gold) | set(pred))
    n = len(gold)
    cm = {g: {p: 0 for p in classes} for g in classes}
    for g, p in zip(gold, pred):
        cm[g][p] += 1
    correct = 0
    for c in classes:
        correct += cm[c][c]
    accuracy = Fraction(correct, n)
    out = {"accuracy": float(accuracy), "per_class": {}}
    wp = wr = wf = mf = Fraction(0)
    for c in classes:
        tp = cm[c][c]
        fp = 0
        fn = 0
        for other in classes:
            if other != c:
                fp += cm[other][c]
                fn += cm[c][other]
        p = Fraction(tp, tp + fp) if tp + fp > 0 else Fraction(0)
        r = Fraction(tp, tp + fn) if tp + fn > 0 else Fraction(0)
        f = 2 * p * r / (p + r) if p + r > 0 else Fraction(0)
        support = tp + fn
        out["per_class"][c] = (float(p), float(r), float(f), support)
        wp += Fraction(support, n) * p
        wr += Fraction(support, n) * r
        wf += Fraction(support, n) * f
        mf += f
    out["weighted"] = (float(wp), float(wr), float(wf))
    out["macro_f1"] = float(mf / len(classes))
    return out


class TestComputeMetrics:
    def test_perfect_predictions(self):
        report = compute_metrics(["real", "fake"], ["real", "fake"])
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.weighted_f1 == 1.0
        for scores in report.per_class.values():
            assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_hand_counted_confusion(self):
        # gold r,r,f,f / pred r,f,f,f
        report = compute_metrics(["real", "real", "fake", "fake"],
                                 ["real", "fake", "fake", "fake"])
        assert report.confusion == {
            "fake": {"fake": 2, "real": 0},
            "real": {"fake": 1, "real": 1},
        }
        assert report.accuracy == 0.75
        real = report.per_class["real"]
        fake = report.per_class["fake"]
        assert (real.precision, real.recall) == (1.0, 0.5)
        assert (fake.precision, fake.recall) == (2 / 3, 1.0)
        assert real.f1 == pytest.approx(2 / 3)
        assert fake.f1 == pytest.approx(0.8)
        # weighted: equal supports -> plain average
        assert report.weighted_f1 == pytest.approx((2 / 3 + 0.8) / 2)

    def test_majority_prediction_on_59_41(self):
        gold = ["real"] * 59 + ["fake"] * 41
        report = compute_metrics(gold, ["real"] * 100)
        assert report.accuracy == 0.59
        assert abs(report.macro_f1 - 0.37) < 0.01

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(0)
        labels = ["real", "fake"]
        for _ in range(300):
            n = int(rng.integers(1, 40))
            gold = [labels[i] for i in rng.integers(0, 2, n)]
            pred = [labels[i] for i in rng.integers(0, 2, n)]
            report = compute_metrics(gold, pred)
            oracle = brute_force_metrics(gold, pred)
            assert report.accuracy == oracle["accuracy"]
            assert report.macro_f1 == oracle["macro_f1"]
            assert (report.weighted_precision, report.weighted_recall,
                    report.weighted_f1) == oracle["weighted"]
            for c, scores in report.per_class.items():
                assert (scores.precision, scores.recall, scores.f1,
                        scores.support) == oracle["per_class"][c]

    def test_weighted_recall_equals_accuracy_exactly(self):
        rng = np.random.default_rng(1)
        labels = ["real", "fake", "satire"]
        for _ in range(200):
            n = int(rng.integers(1, 50))
            gold = [labels[i] for i in rng.integers(0, 3, n)]
            pred = [labels[i] for i in rng.integers(0, 3, n)]
            report = compute_metrics(gold, pred)
            assert report.weighted_recall == report.accuracy

    def test_degenerate_class_flagged(self):
        report = compute_metrics(["real", "real"], ["real", "fake"])
        assert "fake" in report.degenerate_classes
        assert report.per_class["fake"].precision == 0.0

    @pytest.mark.parametrize("gold, pred, error", [
        (["real"], ["real", "fake"], "gold has 1 labels but pred has 2"),
        ([], [], "empty prediction list"),
    ], ids=["length-mismatch", "empty"])
    def test_unscorable_lists_are_usage_errors(self, gold, pred, error):
        with pytest.raises(UsageError, match=error):
            compute_metrics(gold, pred)


class TestMcNemar:
    def test_significant_example(self):
        result = mcnemar_from_counts(15, 5)
        assert result.statistic == pytest.approx(4.05, abs=1e-12)
        assert result.significant_at_05

    def test_equal_counts_not_significant(self):
        result = mcnemar_from_counts(10, 10)
        assert result.statistic == pytest.approx(0.05, abs=1e-12)
        assert not result.significant_at_05

    def test_no_discordance(self):
        result = mcnemar_from_counts(0, 0)
        assert result.statistic == 0.0
        assert not result.significant_at_05

    def test_from_predictions(self):
        gold = ["r", "r", "r", "f", "f"]
        pred_a = ["r", "r", "r", "f", "r"]  # wrong on last
        pred_b = ["r", "f", "f", "f", "f"]  # wrong on 2nd, 3rd
        result = mcnemar(gold, pred_a, pred_b)
        assert (result.b, result.c) == (2, 1)

    def test_symmetry_preserves_statistic(self):
        gold = list("rrrrffff")
        a = list("rrffffrr")
        b = list("rfrfrfrf")
        r1 = mcnemar(gold, a, b)
        r2 = mcnemar(gold, b, a)
        assert (r1.b, r1.c) == (r2.c, r2.b)
        assert r1.statistic == r2.statistic
        assert r1.significant_at_05 == r2.significant_at_05

    def test_identical_predictions(self):
        gold = ["r", "f"]
        pred = ["r", "r"]
        result = mcnemar(gold, pred, list(pred))
        assert (result.b, result.c) == (0, 0)
        assert not result.significant_at_05

    @pytest.mark.parametrize("call, error", [
        (lambda: mcnemar_from_counts(-1, 3), "non-negative"),
        (lambda: mcnemar(["r", "f"], ["r", "f"], ["r"]), "equal lengths"),
    ], ids=["negative-count", "length-mismatch"])
    def test_bad_inputs_are_usage_errors(self, call, error):
        with pytest.raises(UsageError, match=error):
            call()


class TestMajorityBaseline:
    def test_predicts_training_majority(self):
        report = majority_baseline(["fake"] * 6 + ["real"] * 4, ["fake", "real", "fake"])
        assert report.accuracy == pytest.approx(2 / 3)

    def test_tie_predicts_real(self):
        report = majority_baseline(["real", "fake"], ["fake", "fake"])
        assert report.accuracy == 0.0  # predicted real everywhere

    def test_table2_structure(self):
        train = ["real"] * 59 + ["fake"] * 41
        test = ["real"] * 59 + ["fake"] * 41
        report = majority_baseline(train, test)
        assert report.accuracy == 0.59
        assert abs(report.macro_f1 - 0.37) < 0.01

    def test_empty_training_set_is_usage_error(self):
        with pytest.raises(UsageError, match="non-empty training set"):
            majority_baseline([], ["real"])


class _Item:
    def __init__(self, label):
        self.label = label


class TestCrossYear:
    def test_two_years_two_runs(self):
        data = {
            2013: [_Item("real"), _Item("fake")] * 3,
            2014: [_Item("real"), _Item("fake")] * 3,
        }

        def builder(train_items, seed):
            majority = "real"

            def predict(items):
                return [majority] * len(items)

            return predict

        matrix = cross_year(data, builder, seed=0)
        assert matrix.years == [2013, 2014]
        assert 2013 not in matrix.accuracy[2013]
        assert matrix.accuracy[2013][2014] == 0.5
        assert matrix.accuracy[2014][2013] == 0.5
        assert matrix.column_averages == {2013: 0.5, 2014: 0.5}

    def test_single_class_year_skipped(self):
        data = {
            2013: [_Item("real"), _Item("fake")] * 2,
            2014: [_Item("real"), _Item("fake")] * 2,
            2015: [_Item("real")] * 4,
        }

        def builder(train_items, seed):
            return lambda items: [i.label for i in items]  # perfect predictor

        matrix = cross_year(data, builder, seed=0)
        assert matrix.years == [2013, 2014]

    def test_published_column_averages_reproduced(self):
        # the published 6-year accuracy table; averaging must reproduce the
        # published per-column means after 2-decimal rounding
        years = [2013, 2014, 2015, 2016, 2017, 2018]
        rows = {
            2013: [None, 0.82, 0.74, 0.76, 0.78, 0.74],
            2014: [0.84, None, 0.79, 0.76, 0.81, 0.74],
            2015: [0.79, 0.81, None, 0.82, 0.80, 0.82],
            2016: [0.80, 0.76, 0.87, None, 0.85, 0.79],
            2017: [0.79, 0.82, 0.76, 0.80, None, 0.85],
            2018: [0.79, 0.75, 0.81, 0.83, 0.83, None],
        }
        accuracy = {
            tr: {te: v for te, v in zip(years, row) if v is not None}
            for tr, row in rows.items()
        }
        averages = off_diagonal_column_averages(accuracy)
        published = {2013: 0.80, 2014: 0.79, 2015: 0.79, 2016: 0.79, 2017: 0.81, 2018: 0.79}
        assert {y: round(v, 2) for y, v in averages.items()} == published

    def test_csv_layout(self, tmp_path):
        matrix = CrossYearMatrix(
            years=[2013, 2014],
            accuracy={2013: {2014: 0.825}, 2014: {2013: 0.5}},
            column_averages={2013: 0.5, 2014: 0.825},
        )
        path = tmp_path / "matrix.csv"
        write_cross_year_csv(matrix, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "train\\test,2013,2014"
        assert lines[1] == "2013,0.00,0.82"  # rounded display, 0.00 diagonal
        assert lines[2] == "2014,0.50,0.00"
        assert lines[3] == "Average,0.50,0.82"

    @pytest.mark.parametrize("data, error", [
        ({2013: [_Item("real"), _Item("fake")]}, "at least 2 years"),
        ({2013: [_Item("real"), _Item("fake")], 2014: [_Item("fake")] * 2}, "2 usable years"),
    ], ids=["one-year", "one-usable-year"])
    def test_needs_two_years(self, data, error):
        with pytest.raises(UsageError, match=error):
            cross_year(data, lambda t, s: None)
