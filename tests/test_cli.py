import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FEAR_WORDS, FILLER_WORDS, JOY_WORDS, make_flow_corpus
from fakeflow import cli
from fakeflow.cli import main
from fakeflow.lexicon import EMOTION_CATEGORIES, MORALITY_CATEGORIES


def write_lexicon_fixture(tmp_path):
    """Six lexicon files plus a manifest, with the flow fear/joy words."""
    lex_dir = tmp_path / "lexicons"
    lex_dir.mkdir(exist_ok=True)
    rows = []
    for w in FEAR_WORDS:
        rows.append(f"{w}\tfear\t1")
    for w in JOY_WORDS:
        rows.append(f"{w}\tjoy\t1")
    for cat in EMOTION_CATEGORIES:
        rows.append(f"dummy_{cat}\t{cat}\t1")
    (lex_dir / "emotions.tsv").write_text("\n".join(rows) + "\n")
    (lex_dir / "sentiment.tsv").write_text(
        "goodthing\tpositive\t1\nbadthing\tnegative\t1\n"
    )
    (lex_dir / "morality.tsv").write_text(
        "".join(f"moral_{cat}\t{cat}\t1\n" for cat in MORALITY_CATEGORIES)
    )
    (lex_dir / "imageability.tsv").write_text("dog\t0.9\n")
    (lex_dir / "abstractness.tsv").write_text("idea\t0.8\n")
    (lex_dir / "hyperbolic.txt").write_text("terrifying\n")
    manifest = lex_dir / "manifest.json"
    manifest.write_text(json.dumps({
        "emotions": "emotions.tsv",
        "sentiment": "sentiment.tsv",
        "morality": "morality.tsv",
        "imageability": "imageability.tsv",
        "abstractness": "abstractness.tsv",
        "hyperbolic": "hyperbolic.txt",
    }))
    return manifest


def write_flow_corpus(tmp_path, n_docs=16, name="corpus.jsonl", seed=0,
                      n_segments=4, seg_tokens=6, year_cycle=None):
    path = tmp_path / name
    docs = make_flow_corpus(n_docs, seed=seed, n_segments=n_segments, seg_tokens=seg_tokens)
    with open(path, "w") as fh:
        for i, (doc_id, tokens, label) in enumerate(docs):
            record = {"id": doc_id, "text": " ".join(tokens), "label": label,
                      "domain": f"site{i % 3}.com"}
            if year_cycle:
                record["year"] = year_cycle[i % len(year_cycle)]
            fh.write(json.dumps(record) + "\n")
    return path


TRAIN_FLAGS = [
    "--n-segments", "4", "--max-seg-len", "6", "--embed-dim", "4",
    "--filter-widths", "2,3", "--filter-count", "2", "--topic-dim", "4",
    "--gru-units", "4", "--final-dim", "4", "--dropout", "0.1",
    "--epochs", "3", "--patience", "2", "--batch-size", "8", "--lr", "0.01",
]


class TestMcnemarCommand:
    def test_stdout_and_exit_code(self, tmp_path, capsys):
        (tmp_path / "gold.txt").write_text("r\nr\nf\nf\n")
        (tmp_path / "a.txt").write_text("r\nr\nf\nr\n")
        (tmp_path / "b.txt").write_text("r\nf\nf\nf\n")
        code = main(["mcnemar", "--gold", str(tmp_path / "gold.txt"),
                     "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "statistic" in out

    def test_json_mode(self, tmp_path, capsys):
        (tmp_path / "gold.txt").write_text("r\nf\n")
        (tmp_path / "a.txt").write_text("r\nf\n")
        (tmp_path / "b.txt").write_text("r\nf\n")
        code = main(["--json", "mcnemar", "--gold", str(tmp_path / "gold.txt"),
                     "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["b"] == 0 and payload["c"] == 0
        assert payload["significant_at_05"] is False


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 1

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        code = main(["analyze", "--corpus", str(bad), "--lexicons", str(manifest),
                     "--n-segments", "2", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        code = main(["analyze", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--lexicons", str(manifest),
                     "--n-segments", "2", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_lexicons_from_environment(self, tmp_path, capsys, monkeypatch):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path)
        monkeypatch.setenv("FAKEFLOW_LEXICONS", str(manifest))
        code = main(["analyze", "--corpus", str(corpus),
                     "--n-segments", "2", "--out", str(tmp_path / "out")])
        assert code == 0

    def test_missing_lexicons_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FAKEFLOW_LEXICONS", raising=False)
        corpus = write_flow_corpus(tmp_path)
        code = main(["analyze", "--corpus", str(corpus),
                     "--n-segments", "2", "--out", str(tmp_path / "out")])
        assert code == 1


class TestTrainEvaluatePipeline:
    def test_artifacts_written(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=20)
        out = tmp_path / "run"
        code = main(["--seed", "3", "train", "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--out", str(out)] + TRAIN_FLAGS)
        assert code == 0
        for artifact in ("checkpoint.bin", "report.json", "history.json",
                         "vocab.json", "manifest.json"):
            assert (out / artifact).exists(), artifact
        report = json.loads((out / "report.json").read_text())
        assert "best_val_metric" in report and "config_hash" in report
        manifest_payload = json.loads((out / "manifest.json").read_text())
        assert manifest_payload["command"] == "train"
        assert manifest_payload["config_hash"] == report["config_hash"]

        # evaluate the checkpoint on the same corpus
        out2 = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                     "--vocab", str(out / "vocab.json"), "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--out", str(out2)])
        assert code == 0
        payload = json.loads((out2 / "report.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert (out2 / "predictions.txt").exists()

    def test_attention_command(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=16)
        out = tmp_path / "run"
        assert main(["--seed", "1", "train", "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--out", str(out)] + TRAIN_FLAGS) == 0
        att_out = tmp_path / "att"
        code = main(["attention", "--checkpoint", str(out / "checkpoint.bin"),
                     "--vocab", str(out / "vocab.json"), "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--doc-id", "doc0003",
                     "--out", str(att_out)])
        assert code == 0
        bar = (att_out / "attention_bar.csv").read_text().splitlines()
        assert bar[1] == "segment_index,weight"
        assert len(bar) == 2 + 4  # header comment + columns + 4 segments
        assert (att_out / "highlight.html").read_text().startswith("<!doctype html>")
        trace = json.loads((att_out / "trace.json").read_text())
        assert len(trace["attention_weights"]) == 4


class TestLoadedModelErrors:
    @pytest.fixture
    def trained(self, tmp_path):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=16)
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--out", str(out)] + TRAIN_FLAGS) == 0
        return manifest, corpus, out

    @pytest.mark.parametrize("command", ["evaluate", "attention"])
    def test_vocab_larger_than_checkpoint_is_config_error(self, trained, tmp_path, capsys,
                                                          command):
        manifest, corpus, out = trained
        vocab = json.loads((out / "vocab.json").read_text())
        size = len(vocab["tokens"]) + 2
        vocab["tokens"]["unseen"] = size
        (tmp_path / "big_vocab.json").write_text(json.dumps(vocab))
        capsys.readouterr()
        code = main([command, "--checkpoint", str(out / "checkpoint.bin"),
                     "--vocab", str(tmp_path / "big_vocab.json"), "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "scored")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{size + 1} ids" in err and f"vocab_size {size}" in err

    def test_damaged_checkpoint_exits_1_or_2(self, trained, tmp_path, capsys):
        manifest, corpus, out = trained
        original = (out / "checkpoint.bin").read_bytes()
        damaged = tmp_path / "damaged.bin"

        @settings(max_examples=25, deadline=None)
        @given(cut=st.integers(0, len(original) - 1), tail=st.binary(max_size=8))
        def check(cut, tail):
            # a proper prefix, or the whole file with bytes after it
            damaged.write_bytes(original[:cut] if not tail else original + tail)
            code = main(["evaluate", "--checkpoint", str(damaged),
                         "--vocab", str(out / "vocab.json"), "--corpus", str(corpus),
                         "--lexicons", str(manifest), "--out", str(tmp_path / "scored")])
            assert code in (1, 2)
            assert str(damaged) in capsys.readouterr().err

        check()

    def test_evaluate_corpus_without_tokens_is_usage_error(self, trained, tmp_path, capsys):
        manifest, _, out = trained
        empty = tmp_path / "punctuation.jsonl"
        empty.write_text(json.dumps({"id": "p0", "text": "!!! ...", "label": "fake"}) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                     "--vocab", str(out / "vocab.json"), "--corpus", str(empty),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "scored")])
        assert code == 1
        assert str(empty) in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_flow_outputs(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=12)
        out = tmp_path / "analysis"
        code = main(["analyze", "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--n-segments", "4", "--max-seg-len", "6", "--out", str(out)])
        assert code == 0
        stats = json.loads((out / "flow_stats.json").read_text())
        assert set(stats["classes"]) == {"real", "fake"}
        assert "fear" in stats["classes"]["fake"]
        with open(out / "flow_curve.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 2 * 23


class TestSelectNCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=16)
        out = tmp_path / "sweep"
        code = main(["--seed", "2", "select-n", "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--candidates", "2,4",
                     "--out", str(out)] + TRAIN_FLAGS)
        assert code == 0
        lines = (out / "n_sweep.csv").read_text().splitlines()
        assert lines[1] == "N,accuracy,f1"
        assert len(lines) == 4
        payload = json.loads((out / "select_n.json").read_text())
        assert payload["best_n"] in (2, 4)

    def test_val_corpus_is_the_validation_set(self, tmp_path, capsys, monkeypatch):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=16)
        val_corpus = write_flow_corpus(tmp_path, n_docs=6, name="val.jsonl", seed=9)
        seen = {}
        real_select = cli.select_n_segments

        def spy(candidates, train_docs, val_docs, *rest):
            seen["train"], seen["val"] = len(train_docs), len(val_docs)
            return real_select(candidates, train_docs, val_docs, *rest)

        monkeypatch.setattr(cli, "select_n_segments", spy)
        out = tmp_path / "sweep"
        code = main(["select-n", "--corpus", str(corpus), "--val-corpus", str(val_corpus),
                     "--lexicons", str(manifest), "--candidates", "2",
                     "--out", str(out)] + TRAIN_FLAGS)
        assert code == 0
        assert seen == {"train": 16, "val": 6}
        manifest_payload = json.loads((out / "manifest.json").read_text())
        assert manifest_payload["options"]["val_corpus"] == str(val_corpus)


class TestSearchCommand:
    def test_small_search(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=16)
        out = tmp_path / "search"
        code = main(["--seed", "4", "search", "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--trials", "2",
                     "--mode", "affect_only", "--out", str(out)] + TRAIN_FLAGS)
        assert code == 0
        trials = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
        assert len(trials) == 2
        best = json.loads((out / "best.json").read_text())
        assert best["best_trial"] in (0, 1)
        assert (out / best["checkpoint"]).exists()


class TestBuildDatasetCommand:
    def test_projection_and_outputs(self, tmp_path, capsys):
        sources = tmp_path / "sources.csv"
        sources.write_text(
            "domain,list,category\n"
            "good.com,OS,reliable\n"
            "good.com,MBFC,high\n"
            "bad.com,OS,fake\n"
            "clash.com,OS,reliable\n"
            "clash.com,MBFC,low\n"
        )
        articles = tmp_path / "articles.jsonl"
        text = " ".join(f"w{i}" for i in range(40))
        with open(articles, "w") as fh:
            for i in range(5):
                fh.write(json.dumps({"id": f"g{i}", "text": text, "domain": "good.com"}) + "\n")
            for i in range(5):
                fh.write(json.dumps({"id": f"b{i}", "text": text, "domain": "bad.com"}) + "\n")
            fh.write(json.dumps({"id": "c0", "text": text, "domain": "clash.com"}) + "\n")
            fh.write(json.dumps({"id": "short", "text": "too short", "domain": "good.com"}) + "\n")
        out = tmp_path / "dataset"
        code = main(["--json", "build-dataset", "--sources", str(sources),
                     "--articles", str(articles), "--max-per-domain", "3",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["surviving_domains"] == 2
        assert payload["conflicts"] == 1
        produced = [json.loads(line) for line in (out / "train.jsonl").read_text().splitlines()]
        assert len(produced) == 6  # 3 per domain cap
        labels = {r["domain"]: r["label"] for r in produced}
        assert labels == {"good.com": "real", "bad.com": "fake"}
        domains = json.loads((out / "domains.json").read_text())
        assert domains["conflicting_domains"] == ["clash.com"]


class TestExtractFeaturesCommand:
    def test_features_jsonl(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=6)
        out = tmp_path / "features"
        code = main(["extract-features", "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--n-segments", "4",
                     "--max-seg-len", "6", "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in (out / "features.jsonl").read_text().splitlines()]
        assert len(rows) == 6
        assert len(rows[0]["matrix"]) == 4
        assert len(rows[0]["matrix"][0]) == 23


class TestCrossYearCommand:
    def test_matrix_and_csv(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=24, year_cycle=[2013, 2013, 2014, 2014])
        out = tmp_path / "xyear"
        code = main(["--seed", "5", "cross-year", "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--mode", "affect_only",
                     "--out", str(out)] + TRAIN_FLAGS)
        assert code == 0
        payload = json.loads((out / "cross_year.json").read_text())
        assert payload["years"] == [2013, 2014]
        assert "2014" in payload["accuracy"]["2013"]
        lines = (out / "cross_year.csv").read_text().splitlines()
        assert lines[0] == "train\\test,2013,2014"
        assert lines[-1].startswith("Average,")

    def test_test_article_empty_after_tokenization_is_dropped(self, tmp_path, caplog):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=24, year_cycle=[2013, 2013, 2014, 2014])
        with open(corpus, "a") as fh:
            fh.write(json.dumps({"id": "punct", "text": "!!! ...", "label": "fake",
                                 "domain": "site0.com", "year": 2014}) + "\n")
        out = tmp_path / "xyear"
        code = main(["--seed", "5", "cross-year", "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--mode", "affect_only",
                     "--out", str(out)] + TRAIN_FLAGS)
        assert code == 0
        assert "article punct dropped" in caplog.text
        assert json.loads((out / "cross_year.json").read_text())["years"] == [2013, 2014]

    def test_val_corpus_rejected(self, tmp_path, capsys):
        # each year's model validates on a split of its own training year
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=24, year_cycle=[2013, 2013, 2014, 2014])
        code = main(["cross-year", "--corpus", str(corpus), "--val-corpus", str(corpus),
                     "--lexicons", str(manifest), "--mode", "affect_only",
                     "--out", str(tmp_path / "xyear")] + TRAIN_FLAGS)
        assert code == 1
        assert "--val-corpus" in capsys.readouterr().err
