import csv
import json
import logging
import os
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fakeflow
import fakeflow.corpus
import fakeflow.tensor as tz
from conftest import FEAR_WORDS, FILLER_WORDS, JOY_WORDS, make_flow_corpus, overflowing
from fakeflow import cli
from fakeflow.cli import main
from fakeflow.corpus import load_vocabulary
from fakeflow.lexicon import EMOTION_CATEGORIES, MORALITY_CATEGORIES
from fakeflow.model import FakeFlowConfig, FakeFlowModel
from fakeflow.train import TrainConfig


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


def _with_last_id(tokens, new_id) -> bytes:
    """A vocab.json payload whose highest id is replaced with `new_id`."""
    last = max(tokens, key=tokens.get)
    return json.dumps({"tokens": {**tokens, last: new_id}}).encode()


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

    @pytest.mark.parametrize("bad", ["gold", "a", "b"])
    def test_latin_1_label_file_exits_2_naming_it(self, tmp_path, capsys, bad):
        for name in ("gold", "a", "b"):
            (tmp_path / name).write_text("real\nfake\n")
        (tmp_path / bad).write_bytes("real\nfak\xe9\n".encode("latin-1"))
        code = main(["mcnemar", "--gold", str(tmp_path / "gold"),
                     "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b")])
        assert code == 2
        assert f"error: {tmp_path / bad}:2: " in capsys.readouterr().err


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

    def test_train_on_unlabeled_article_is_usage_error(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=16)
        with open(corpus, "a") as fh:
            fh.write(json.dumps({"id": "nolabel", "text": "a plain article"}) + "\n")
        capsys.readouterr()
        code = main(["train", "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--out", str(tmp_path / "run")] + TRAIN_FLAGS)
        assert code == 1
        assert "1 articles have no label (first: nolabel)" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("content", [
        b"5\n",
        '{"id": "1", "text": "a b", "year": 1e400}\n'.encode(),
        '{"id": "1", "text": "caf\xe9"}\n'.encode("latin-1"),
        b'{"id": "1", "text": "   "}\n',
        None,  # a directory
    ], ids=["number", "year-1e400", "latin-1", "blank-text", "directory"])
    def test_unreadable_corpus_is_data_error_naming_it(self, tmp_path, capsys, content):
        manifest = write_lexicon_fixture(tmp_path)
        bad = tmp_path / "bad.jsonl"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        code = main(["analyze", "--corpus", str(bad), "--lexicons", str(manifest),
                     "--n-segments", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [3, {"format": "tsv"}])
    def test_bad_manifest_entry_is_data_error_naming_it(self, tmp_path, capsys, entry):
        manifest = write_lexicon_fixture(tmp_path)
        manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()),
                                            abstractness=entry)))
        code = main(["analyze", "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest),
                     "--n-segments", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(manifest) in capsys.readouterr().err

    @pytest.mark.parametrize("content, line", [
        (f"{FEAR_WORDS[0]} 0 0 0 0\ncaf\xe9 0 0 0 0\n".encode("latin-1"), 2),
        (f"{FEAR_WORDS[0]} nan 0 0 0\n".encode(), 1),
    ], ids=["latin-1", "nan"])
    def test_bad_word_vectors_exit_2_naming_the_line(self, tmp_path, capsys, content, line):
        manifest = write_lexicon_fixture(tmp_path)
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(content)
        code = main(["train", "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--embeddings", str(vectors),
                     "--out", str(tmp_path / "out")] + TRAIN_FLAGS)
        assert code == 2
        assert f"error: {vectors}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, named", [
        ("train", ["--epochs", "0", "--patience", "-1"], "max_epochs"),
        ("train", ["--patience", "-1"], "patience"),
        ("train", ["--val-fraction", "1.5"], "val_fraction"),
        ("train", ["--val-fraction", "-0.5"], "val_fraction"),
        ("train", ["--val-fraction", "nan"], "val_fraction"),
        ("train", ["--filter-widths", "3,x"], "--filter-widths"),
        ("select-n", ["--candidates", "x"], "--candidates"),
    ], ids=["epochs-0", "patience-negative", "val-fraction-1.5", "val-fraction-negative", "val-fraction-nan",
            "filter-widths-x", "candidates-x"])
    def test_bad_training_flag_is_usage_error(self, tmp_path, capsys, command, flags, named):
        manifest = write_lexicon_fixture(tmp_path)
        extra = [] if command == "train" else ["--candidates", "2"]
        code = main([command, "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "out")]
                    + TRAIN_FLAGS + extra + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    def test_bad_learning_rate_is_config_error(self, tmp_path, capsys, lr):
        manifest = write_lexicon_fixture(tmp_path)
        code = main(["train", "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "out")]
                    + TRAIN_FLAGS + ["--lr", lr])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --lr must be a finite positive number")
        assert err.count("\n") == 1

    def test_repeated_filter_width_is_config_error(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        code = main(["train", "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "out")]
                    + TRAIN_FLAGS + ["--filter-widths", "3,3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cnn_filter_widths must be distinct integers >= 1, got (3, 3)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "search"])
    @pytest.mark.parametrize("flag, field", [("--n-segments", "n_segments"),
                                             ("--max-seg-len", "max_seg_len")])
    def test_zero_segment_size_is_config_error(self, tmp_path, capsys, command, flag, field):
        # the configs are built with the data, so the config refuses 0
        # before anything is featurized or written
        manifest = write_lexicon_fixture(tmp_path)
        extra = ["--trials", "1"] if command == "search" else []
        code = main([command, "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "out")]
                    + TRAIN_FLAGS + extra + [flag, "0"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {field} must be an integer >= 1, got 0"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--embed-dim"), ("train", "--filter-count"),
        ("train", "--topic-dim"),
    ])
    def test_a_size_too_large_to_allocate_exits_2(self, tmp_path, capsys, command, flag):
        # 10^15 makes arrays of petabytes, beyond the address space, so numpy
        # refuses them at once whatever the machine's overcommit policy
        manifest = write_lexicon_fixture(tmp_path)
        code = main([command, "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "out")]
                    + TRAIN_FLAGS + [flag, str(10**15)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}: out of memory: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, size, name", [
        ("train", "--embed-dim", 10**19, "embedding"),
        ("train", "--embed-dim", 10**17, "embedding"),
        ("train", "--filter-count", 10**19, "conv_taps"),
        ("train", "--filter-count", 10**17, "conv_taps"),
        ("train", "--filter-widths", 10**19, "conv_taps"),
        ("train", "--gru-units", 10**19, "fuse_dense_w"),
        ("train", "--gru-units", 10**15, "att_w1"),
        ("train", "--topic-dim", 10**19, "topic_dense_w"),
        ("search", "--embed-dim", 10**15, "conv_taps"),
    ], ids=lambda v: f"1e{len(str(v)) - 1}" if isinstance(v, int) else v)
    def test_a_size_no_array_can_hold_exits_2_naming_the_parameter(self, tmp_path, capsys,
                                                                    command, flag, size, name):
        # refused by the config before anything is drawn: numpy would raise
        # ValueError (a dimension past int64, or past its largest array)
        manifest = write_lexicon_fixture(tmp_path)
        code = main([command, "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "out")]
                    + TRAIN_FLAGS + [flag, str(size)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parameter {name!r} of shape (")
        assert err.endswith(" is larger than an array can be\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["extract-features", "analyze"])
    @pytest.mark.parametrize("flag", ["--n-segments", "--max-seg-len"])
    def test_a_segment_size_past_int64_is_usage_error(self, tmp_path, capsys, command, flag):
        manifest = write_lexicon_fixture(tmp_path)
        code = main([command, "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "out"),
                     flag, str(10**19)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_segments and max_seg_len must be between 1 and ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_embeddings_fail_alike_in_every_fitting_command(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=24, year_cycle=[2013, 2013, 2014, 2014])
        missing = tmp_path / "nonexistent.txt"
        errors = {}
        for command, extra in [("train", []), ("search", ["--trials", "1"]),
                               ("select-n", ["--candidates", "2"]), ("cross-year", [])]:
            code = main([command, "--corpus", str(corpus), "--lexicons", str(manifest),
                         "--embeddings", str(missing), "--out", str(tmp_path / command)]
                        + TRAIN_FLAGS + extra)
            assert code == 2, command
            errors[command] = capsys.readouterr().err
        assert str(missing) in errors["train"]
        assert set(errors.values()) == {errors["train"]}

    def test_search_seeds_the_table_with_embeddings(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        vector = [0.25, -0.5, 0.75, 1.0]
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"{FEAR_WORDS[0]} " + " ".join(map(str, vector)) + "\n")
        out = tmp_path / "out"
        code = main(["--json", "search", "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(manifest), "--embeddings", str(vectors),
                     "--freeze-embeddings", "--trials", "1", "--out", str(out)]
                    + TRAIN_FLAGS)
        assert code == 0
        checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
        model = FakeFlowModel.load(out / checkpoint)
        word_id = load_vocabulary(out / "vocab.json").token_to_id[FEAR_WORDS[0]]
        assert model.embedding.value[word_id].tolist() == vector

    @pytest.mark.parametrize("command, extra, built_on", [
        ("train", [], [0]), ("search", ["--trials", "2"], [0, 0]),
        ("select-n", ["--candidates", "2,4"], [0, 0]), ("cross-year", [], [0, 1]),
    ])
    def test_every_fitting_command_seeds_each_table_by_id(self, tmp_path, capsys, monkeypatch,
                                                          command, extra, built_on):
        # each model gets the --embeddings rows keyed by the ids of the
        # vocabulary its data was built on: cross-year builds one per year
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=24, year_cycle=[2013, 2013, 2014, 2014])
        words = {FEAR_WORDS[0]: [0.25, -0.5, 0.75, 1.0], JOY_WORDS[1]: [2.0, 0.0, -1.0, 0.5],
                 "unseenword": [9.0, 9.0, 9.0, 9.0]}
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("".join(f"{w} {' '.join(map(str, v))}\n" for w, v in words.items()))
        vocabs, models = [], []
        build, init = cli.corpus_mod.build_vocabulary, FakeFlowModel.__init__

        def record_vocab(*args, **kwargs):
            vocabs.append(build(*args, **kwargs))
            return vocabs[-1]

        def record_model(self, config, seed=0, pretrained=None):
            init(self, config, seed, pretrained)
            vocab = vocabs[-1]
            want = {vocab.token_to_id[w]: v for w, v in words.items() if w in vocab.token_to_id}
            assert len(want) == 2 and {i: row.tolist() for i, row in pretrained.items()} == want
            assert all(self.embedding.value[i].tolist() == v for i, v in want.items())
            models.append(len(vocabs) - 1)

        monkeypatch.setattr(cli.corpus_mod, "build_vocabulary", record_vocab)
        monkeypatch.setattr(FakeFlowModel, "__init__", record_model)
        code = main(["--seed", "3", command, "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--embeddings", str(vectors), "--out", str(tmp_path / "out")]
                    + TRAIN_FLAGS + extra)
        assert code == 0, capsys.readouterr().err
        assert models == built_on and len(vocabs) == built_on[-1] + 1

    def test_lexicons_from_environment(self, tmp_path, capsys, monkeypatch):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path)
        monkeypatch.setenv("FAKEFLOW_LEXICONS", str(manifest))
        code = main(["analyze", "--corpus", str(corpus),
                     "--n-segments", "2", "--out", str(tmp_path / "out")])
        assert code == 0

    def test_missing_lexicon_manifest_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "no-lexicons.json"
        code = main(["analyze", "--corpus", str(write_flow_corpus(tmp_path)),
                     "--lexicons", str(missing), "--n-segments", "2",
                     "--out", str(tmp_path / "an")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "an").exists()

    def test_missing_lexicons_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FAKEFLOW_LEXICONS", raising=False)
        corpus = write_flow_corpus(tmp_path)
        code = main(["analyze", "--corpus", str(corpus),
                     "--n-segments", "2", "--out", str(tmp_path / "out")])
        assert code == 1


class TestParserDefaults:
    def test_model_and_training_defaults_are_the_configs_own(self):
        # all but --embed-dim's: the config's 300 is the paper's size
        args = cli.build_parser().parse_args(["train", "--corpus", "c.jsonl", "--out", "o"])
        assert cli._model_config_from_args(args, vocab_size=7) == FakeFlowConfig(
            n_segments=10, vocab_size=7, embed_dim=32)
        assert cli._train_config_from_args(args) == TrainConfig()


class TestManifestEnvironment:
    def test_records_the_numpy_and_blas_builds_and_thread_settings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        corpus = write_flow_corpus(tmp_path, n_docs=6)
        out = tmp_path / "run"
        assert main(["analyze", "--corpus", str(corpus),
                     "--lexicons", str(write_lexicon_fixture(tmp_path)), "--out", str(out)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env == {
            "fakeflow": fakeflow.__version__,
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "cpu_count": os.cpu_count(),
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                        "MKL_NUM_THREADS": None},
        }


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

    @pytest.mark.parametrize("command", ["evaluate", "attention"])
    @pytest.mark.parametrize("payload", [
        lambda tokens: '{"tokens": {"caf\xe9": 2}}'.encode("latin-1"),
        lambda tokens: json.dumps({"tokens": tokens}).encode()[:-2],
        lambda tokens: json.dumps(list(tokens)).encode(),
        lambda tokens: json.dumps({"words": tokens}).encode(),
        lambda tokens: _with_last_id(tokens, "x"),
        lambda tokens: _with_last_id(tokens, 2),
        lambda tokens: _with_last_id(tokens, len(tokens) + 2),
    ], ids=["latin-1", "truncated", "list", "no-tokens", "string-id", "duplicate-id",
            "id-gap"])
    def test_malformed_vocab_exits_2_naming_it(self, trained, tmp_path, capsys, command,
                                               payload):
        manifest, corpus, out = trained
        tokens = json.loads((out / "vocab.json").read_text())["tokens"]
        bad = tmp_path / "bad_vocab.json"
        bad.write_bytes(payload(tokens))
        capsys.readouterr()
        code = main([command, "--checkpoint", str(out / "checkpoint.bin"),
                     "--vocab", str(bad), "--corpus", str(corpus),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "scored")])
        assert code == 2
        assert f"error: {bad}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("change, name", [
        ({"vocab_size": 10**15}, "embedding"),
        ({"gru_units": 10**8, "fused_dense_dim": 2 * 10**8}, "fuse_dense_w"),
    ], ids=["vocab_size", "gru_units"])
    def test_config_that_disagrees_with_the_arrays_exits_2(self, trained, tmp_path, capsys,
                                                           change, name):
        # sizes no address space holds: the check must come before any draw
        manifest, corpus, out = trained
        config, arrays = tz.load_checkpoint(out / "checkpoint.bin")
        bad = tmp_path / "bad.bin"
        tz.save_checkpoint(bad, [tz.Parameter(n, a) for n, a in arrays.items()],
                           config={**config, **change})
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(bad), "--vocab", str(out / "vocab.json"),
                     "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--out", str(tmp_path / "scored")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {bad} has parameter '{name}' of shape ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [
        ("embed_dim", float("inf")), ("vocab_size", float("-inf")), ("n_segments", float("nan")),
        ("cnn_filter_widths", [3, float("inf")]),
    ], ids=["embed_dim-inf", "vocab_size--inf", "n_segments-nan", "widths-inf"])
    def test_non_finite_size_in_the_checkpoint_exits_2(self, trained, tmp_path, capsys,
                                                        field, value):
        # json reads Infinity and NaN as floats, which int() cannot take
        manifest, corpus, out = trained
        config, arrays = tz.load_checkpoint(out / "checkpoint.bin")
        bad = tmp_path / "bad.bin"
        tz.save_checkpoint(bad, [tz.Parameter(n, a) for n, a in arrays.items()],
                           config={**config, field: value})
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(bad), "--vocab", str(out / "vocab.json"),
                     "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--out", str(tmp_path / "scored")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("field, value", [
        ("embed_dim", True), ("cnn_filter_count", False), ("cnn_filter_widths", [True, 4, 5]),
    ], ids=["embed_dim-true", "filter_count-false", "widths-true"])
    def test_boolean_size_in_the_checkpoint_exits_2(self, trained, tmp_path, capsys,
                                                   field, value):
        # bool is an int to Python, so true would otherwise read as a size of 1
        manifest, corpus, out = trained
        config, arrays = tz.load_checkpoint(out / "checkpoint.bin")
        bad = tmp_path / "bad.bin"
        tz.save_checkpoint(bad, [tz.Parameter(n, a) for n, a in arrays.items()],
                           config={**config, field: value})
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(bad), "--vocab", str(out / "vocab.json"),
                     "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--out", str(tmp_path / "scored")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("classes, error", [
        (["real", "real"], "need at least 2 distinct classes"),
        ([0, 1], "class names must be strings"),  # metrics would sort "real" with 0
    ], ids=["repeated", "integers"])
    def test_evaluate_checkpoint_with_repeated_classes_exits_2(self, trained, tmp_path, capsys,
                                                               classes, error):
        manifest, corpus, out = trained
        config, arrays = tz.load_checkpoint(out / "checkpoint.bin")
        bad = tmp_path / "bad.bin"
        tz.save_checkpoint(bad, [tz.Parameter(n, a) for n, a in arrays.items()],
                           config={**config, "classes": classes})
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(bad), "--vocab", str(out / "vocab.json"),
                     "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--out", str(tmp_path / "scored")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}, got ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "scored").exists()

    def test_evaluate_overflowing_model_exits_2_naming_documents(self, trained, tmp_path,
                                                                   capsys):
        manifest, corpus, out = trained
        overflowing(FakeFlowModel.load(out / "checkpoint.bin")).save(tmp_path / "overflowing.bin")
        first = json.loads(corpus.read_text().splitlines()[0])["id"]
        capsys.readouterr()
        with np.errstate(over="ignore"):
            code = main(["evaluate", "--checkpoint", str(tmp_path / "overflowing.bin"),
                         "--vocab", str(out / "vocab.json"), "--corpus", str(corpus),
                         "--lexicons", str(manifest), "--out", str(tmp_path / "scored")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error: op 'dense' produced non-finite values in documents ")
        assert f"'{first}'" in err[-1] and "(16 in the batch)" in err[-1]

    def test_attention_unknown_doc_id_is_usage_error(self, trained, tmp_path, capsys):
        manifest, corpus, out = trained
        for doc_id in ("no-such-doc", ""):  # an empty id names no article, not the first
            capsys.readouterr()
            code = main(["attention", "--checkpoint", str(out / "checkpoint.bin"),
                         "--vocab", str(out / "vocab.json"), "--corpus", str(corpus),
                         "--lexicons", str(manifest), "--doc-id", doc_id,
                         "--out", str(tmp_path / "att")])
            assert code == 1
            assert capsys.readouterr().err.strip().splitlines() == [
                f"error: document id {doc_id!r} not found in {corpus}"]
            assert not (tmp_path / "att").exists()

    @pytest.mark.parametrize("content, error, warnings", [
        ("\n", "corpus {} has no articles", []),
        (json.dumps({"id": "p0", "text": "!!! ..."}) + "\n",
         "document p0 is empty after tokenization",
         ["article p0 dropped: empty after tokenization"]),
    ], ids=["no-articles", "no-tokens"])
    def test_attention_on_a_corpus_without_articles_is_usage_error(
            self, trained, tmp_path, capsys, caplog, content, error, warnings):
        manifest, _, out = trained
        empty = tmp_path / "empty.jsonl"
        empty.write_text(content)
        capsys.readouterr()
        caplog.clear()
        code = main(["attention", "--checkpoint", str(out / "checkpoint.bin"),
                     "--vocab", str(out / "vocab.json"), "--corpus", str(empty),
                     "--lexicons", str(manifest), "--out", str(tmp_path / "att")])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == ["error: " + error.format(empty)]
        assert [r.getMessage() for r in caplog.records
                if r.levelno >= logging.WARNING] == warnings
        assert not (tmp_path / "att").exists()

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


_MODEL = ["--checkpoint", "run/checkpoint.bin", "--vocab", "run/vocab.json"]


class TestTokenizeOnce:
    """Every command that reads a corpus tokenizes each article it reads once."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        two_years = write_flow_corpus(root, n_docs=24, name="two.jsonl",
                                      year_cycle=[2013, 2013, 2014, 2014])
        with open(two_years, "a") as fh:  # dropped, but tokenized once to find that out
            fh.write(json.dumps({"id": "punct", "text": "!!! ...", "label": "fake",
                                 "year": 2014}) + "\n")
        write_flow_corpus(root, n_docs=32, name="four.jsonl", seed=3,
                          year_cycle=[2011, 2012, 2013, 2014, 2012, 2011, 2014, 2013])
        write_flow_corpus(root, n_docs=6, name="val.jsonl", seed=9)
        assert main(["train", "--corpus", str(two_years), "--lexicons",
                     str(write_lexicon_fixture(root)), "--out", str(root / "run")]
                    + TRAIN_FLAGS) == 0
        return root

    @pytest.mark.parametrize("argv, read", [
        (["train", "--corpus", "two.jsonl", *TRAIN_FLAGS], ["two.jsonl"]),
        (["train", "--corpus", "two.jsonl", "--val-corpus", "val.jsonl", *TRAIN_FLAGS],
         ["two.jsonl", "val.jsonl"]),
        (["search", "--corpus", "two.jsonl", "--trials", "2", *TRAIN_FLAGS], ["two.jsonl"]),
        (["select-n", "--corpus", "two.jsonl", "--candidates", "2,4", *TRAIN_FLAGS],
         ["two.jsonl"]),
        (["cross-year", "--corpus", "two.jsonl", *TRAIN_FLAGS], ["two.jsonl"]),
        (["cross-year", "--corpus", "four.jsonl", *TRAIN_FLAGS], ["four.jsonl"]),
        (["evaluate", "--corpus", "two.jsonl", *_MODEL], ["two.jsonl"]),
        (["attention", "--corpus", "two.jsonl", "--doc-id", "doc0003", *_MODEL], ["two.jsonl"]),
        (["extract-features", "--corpus", "two.jsonl", "--n-segments", "4"], ["two.jsonl"]),
        (["analyze", "--corpus", "two.jsonl", "--n-segments", "4"], ["two.jsonl"]),
    ], ids=["train", "train-val-corpus", "search", "select-n", "cross-year-2", "cross-year-4",
            "evaluate", "attention", "extract-features", "analyze"])
    def test_each_article_is_tokenized_once(self, root, tmp_path, capsys, monkeypatch,
                                            argv, read):
        calls = Counter()
        real_tokenize = fakeflow.corpus.tokenize

        def counted(text):
            calls[text] += 1
            return real_tokenize(text)

        # the attribute fakeflow.train is the train function, not the module
        for module in (fakeflow.corpus, sys.modules["fakeflow.train"]):
            monkeypatch.setattr(module, "tokenize", counted)
        monkeypatch.chdir(root)
        code = main(argv + ["--lexicons", "lexicons/manifest.json", "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        articles = [json.loads(line) for name in read
                    for line in (root / name).read_text().splitlines()]
        if "--doc-id" in argv:  # attention reads only the article it analyses
            articles = [a for a in articles if a["id"] == argv[argv.index("--doc-id") + 1]]
        assert calls == Counter(a["text"] for a in articles)


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

    def test_test_fake_articles_come_first_relabelled(self, tmp_path):
        (tmp_path / "sources.csv").write_text(
            "domain,list,category\ngood.com,OS,reliable\nbad.com,OS,fake\n")
        text = " ".join(f"w{i}" for i in range(40))
        with open(tmp_path / "articles.jsonl", "w") as fh:
            for i in range(6):
                fh.write(json.dumps({"id": f"g{i}", "text": text, "domain": "good.com"}) + "\n")
            for i in range(3):
                fh.write(json.dumps({"id": f"b{i}", "text": text, "domain": "bad.com"}) + "\n")
        # labelled real, unlabelled and fake: each is written as fake
        with open(tmp_path / "fake.jsonl", "w") as fh:
            for i, label in enumerate(["real", None, "fake"]):
                row = {"id": f"f{i}", "text": f"fake story {i}", "domain": "elsewhere.com"}
                if label:
                    row["label"] = label
                fh.write(json.dumps(row) + "\n")
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main(["--seed", "5", "build-dataset", "--sources", str(tmp_path / "sources.csv"),
                         "--articles", str(tmp_path / "articles.jsonl"),
                         "--test-fake", str(tmp_path / "fake.jsonl"),
                         "--test-real-sample", "2", "--out", str(out)]) == 0
        test = [json.loads(line) for line in (outs[0] / "test.jsonl").read_text().splitlines()]
        train = [json.loads(line) for line in (outs[0] / "train.jsonl").read_text().splitlines()]
        assert [(r["id"], r["label"]) for r in test[:3]] == [("f0", "fake"), ("f1", "fake"),
                                                              ("f2", "fake")]
        real = test[3:]
        assert len(real) == 2 and all(r["label"] == "real" and r["domain"] == "good.com"
                                      for r in real)
        assert not {r["id"] for r in real} & {r["id"] for r in train}
        assert len(train) == 7
        for name in ("test.jsonl", "train.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


    @pytest.mark.parametrize("flag, named", [("--max-per-domain", "max_per_domain"),
                                             ("--test-real-sample", "n_real")],
                             ids=["max-per-domain", "test-real-sample"])
    def test_negative_count_is_usage_error(self, tmp_path, capsys, flag, named):
        (tmp_path / "sources.csv").write_text("domain,list,category\nx.com,OS,reliable\n")
        text = " ".join(f"w{i}" for i in range(40))
        (tmp_path / "articles.jsonl").write_text(
            json.dumps({"id": "1", "text": text, "domain": "x.com"}) + "\n")
        code = main(["build-dataset", "--sources", str(tmp_path / "sources.csv"),
                     "--articles", str(tmp_path / "articles.jsonl"), flag, "-1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("sources, mapping, articles, named", [
        (b"domain,list,category\ncaf\xe9.com,OS,reliable\n", None, None, "sources"),
        (b"domain,list,category\nx.com,OS,reliable\na.com,L1\n", None, None, "sources"),
        (None, b'{"OS": {"fiable": "real"}}'.replace(b"fiable", b"fi\xe9"), None, "mapping"),
        (None, b"[1, 2]", None, "mapping"),
        (None, b'{"OS": {"reliable": 5}}', None, "mapping"),
        (None, None, b'{"id": "1", "text": "a b", "year": 2016.7}', "articles"),
        (None, None, b'{"id": "1", "text": "a b", "year": true}', "articles"),
        (None, None, b'{"id": "1", "text": "a b", "year": "2015"}', "articles"),
        # a domain is a key of the verdicts: a list one was a TypeError traceback
        (None, None, b'{"id": "1", "text": "a b", "domain": ["x.com"]}', "articles"),
        (None, None, b'{"id": "1", "text": "a b", "split": 1}', "articles"),
    ], ids=["sources-latin-1", "sources-short-row", "mapping-latin-1", "mapping-list",
            "mapping-bad-rule", "year-float", "year-true", "year-string", "domain-list",
            "split-integer"])
    def test_bad_input_exits_2_naming_the_file(self, tmp_path, capsys,
                                               sources, mapping, articles, named):
        files = {
            "sources": sources or b"domain,list,category\nx.com,OS,reliable\n",
            "mapping": mapping or b'{"OS": {"reliable": "real"}}',
            "articles": articles or b'{"id": "1", "text": "a b", "domain": "x.com"}',
        }
        for name, content in files.items():
            (tmp_path / name).write_bytes(content + b"\n")
        code = main(["build-dataset", "--sources", str(tmp_path / "sources"),
                     "--mapping", str(tmp_path / "mapping"),
                     "--articles", str(tmp_path / "articles"), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / named}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()


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

    def test_article_without_year_is_usage_error(self, tmp_path, capsys):
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=24, year_cycle=[2013, 2013, 2014, 2014])
        with open(corpus, "a") as fh:
            fh.write(json.dumps({"id": "noyear", "text": "a plain article",
                                 "label": "real", "domain": "site0.com"}) + "\n")
        capsys.readouterr()
        code = main(["cross-year", "--corpus", str(corpus), "--lexicons", str(manifest),
                     "--mode", "affect_only", "--out", str(tmp_path / "xyear")] + TRAIN_FLAGS)
        assert code == 1
        assert "article noyear has no year" in capsys.readouterr().err
        assert not (tmp_path / "xyear").exists()

    def test_val_corpus_rejected(self, tmp_path, capsys):
        # each year's model validates on a split of its own training year
        manifest = write_lexicon_fixture(tmp_path)
        corpus = write_flow_corpus(tmp_path, n_docs=24, year_cycle=[2013, 2013, 2014, 2014])
        code = main(["cross-year", "--corpus", str(corpus), "--val-corpus", str(corpus),
                     "--lexicons", str(manifest), "--mode", "affect_only",
                     "--out", str(tmp_path / "xyear")] + TRAIN_FLAGS)
        assert code == 1
        assert "--val-corpus" in capsys.readouterr().err


# the option names each command's manifest.json records, as argparse sets them
_RUN_OPTIONS = {"command", "json", "out", "quiet", "seed"}
_FIT_OPTIONS = _RUN_OPTIONS | {
    "corpus", "lexicons", "n_segments", "max_seg_len", "val_fraction", "min_count",
    "embed_dim", "filter_widths", "filter_count", "pool_size", "topic_dim", "gru_units",
    "final_dim", "dropout", "activation", "optimizer", "mode", "embeddings",
    "freeze_embeddings", "epochs", "patience", "batch_size", "lr", "monitor",
}
OPTION_NAMES = {
    "build-dataset": _RUN_OPTIONS | {"sources", "articles", "mapping", "max_per_domain",
                                     "min_words", "test_fake", "test_real_sample",
                                     "keep_sampled_in_train"},
    "extract-features": _RUN_OPTIONS | {"corpus", "lexicons", "n_segments", "max_seg_len"},
    "train": _FIT_OPTIONS | {"val_corpus"},
    "search": _FIT_OPTIONS | {"val_corpus", "trials"},
    "select-n": _FIT_OPTIONS | {"val_corpus", "candidates"},
    "evaluate": _RUN_OPTIONS | {"checkpoint", "vocab", "corpus", "lexicons"},
    "cross-year": _FIT_OPTIONS,
    "analyze": _RUN_OPTIONS | {"corpus", "lexicons", "n_segments", "max_seg_len"},
    "attention": _RUN_OPTIONS | {"checkpoint", "vocab", "corpus", "lexicons", "doc_id"},
}


class TestOutWriter:
    """Every command that writes files: the manifest lists exactly the files
    present, and two same-seed runs differ only in the --out path."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        corpus = str(write_flow_corpus(root, n_docs=24, year_cycle=[2013, 2013, 2014, 2014]))
        data = ["--corpus", corpus, "--lexicons", str(write_lexicon_fixture(root))]
        (root / "sources.csv").write_text(
            "domain,list,category\nsite0.com,OS,reliable\nsite1.com,OS,fake\n"
            "site2.com,OS,reliable\n")
        assert main(["train", "--out", str(root / "run")] + data + TRAIN_FLAGS) == 0
        model = ["--checkpoint", str(root / "run" / "checkpoint.bin"),
                 "--vocab", str(root / "run" / "vocab.json")]
        segments = ["--n-segments", "4", "--max-seg-len", "6"]
        return {
            "build-dataset": ["--sources", str(root / "sources.csv"), "--articles", corpus,
                              "--min-words", "5", "--test-real-sample", "1"],
            "extract-features": data + segments,
            "train": data + TRAIN_FLAGS,
            "search": data + TRAIN_FLAGS + ["--trials", "2"],
            "select-n": data + TRAIN_FLAGS + ["--candidates", "2,4"],
            "evaluate": model + data,
            "cross-year": data + TRAIN_FLAGS + ["--mode", "affect_only"],
            "analyze": data + segments,
            "attention": model + data,
        }

    @pytest.mark.parametrize("command", sorted(OPTION_NAMES))
    def test_manifest_lists_what_the_run_wrote(self, inputs, tmp_path, capsys, command):
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main(["--seed", "7", command, "--out", str(out)] + inputs[command]) == 0
        manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
        written = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert manifests[0]["outputs"] == written
        assert sorted(p.name for p in outs[1].iterdir()) == sorted(written + ["manifest.json"])
        for name in written:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert sorted(manifests[0]["options"]) == sorted(OPTION_NAMES[command])
        assert [m["options"].pop("out") for m in manifests] == [str(out) for out in outs]
        assert manifests[0] == manifests[1]
