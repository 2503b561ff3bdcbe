#!/usr/bin/env python3
"""fakeflow benchmark: preparation, training and inference on one workload.

    python3 bench/run.py --workload topic-v2k --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
./src. The workload is generated from --seed (see workloads.py). The run
first makes one untimed warm-up pass through the pipeline, then
interleaves four phases, each taking about its share of --seconds:

  prepare  tokenize_articles + prepare_examples, one block of documents
           at a time
  setup    build_vocabulary, LexiconSet index, FakeFlowModel, make_optimizer
  train    train.train on a fresh model, fixed epochs, no early stop
  infer    save the model, load it back, predict_proba on the test split

Between units of work it runs a fixed calibration load (calibrate.py)
and corrects each timing sample for the machine's speed around it.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced repetitions, prints the per-layer metrics
and writes every span to bench/out/. Either way the last stdout line is
one JSON object; the exit code is 1 when an output check fails or the
program raises, 2 when the program cannot be imported.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # one thread: steadier timings on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from spans import LAYERS, STEP, STEP_LAYERS, Tracer  # noqa: E402
from workloads import SPLITS, WORKLOADS, generate, reference_affect  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

BATCH_SIZE = 32
# Share of the run each phase gets, and its minimum repetitions after the
# warm-up, untraced and with --trace 1. Train needs two repetitions in all
# (warm-up included) to compare their digests.
PHASES = {"prepare": (0.25, 1, 2), "setup": (0.1, 1, 2), "train": (0.45, 1, 2),
          "infer": (0.2, 1, 2)}
# The calibration load runs once after a unit of work and once more for
# every further CALIBRATE_EVERY_S the unit took.
CALIBRATE_EVERY_S = 0.25

# End-to-end timing -> how the median corrected sample (seconds) reads.
TIMINGS = {
    "setup_s": "s",
    "prepare_docs_per_s": "rate",
    "train_docs_per_s": "rate",
    "train_step_ms_p50": "ms",
    "infer_docs_per_s": "rate",
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "prepare_docs_per_s, peak_rss_mb (affect-2k)": (
        "corpus.tokenize.s", "corpus.segment.s", "corpus.encode.s",
        "lexicon.extract_affect.s", "lexicon.extract_affect.tokens",
        "train.prepare_examples.s", "train.prepare_examples.bytes_per_example"),
    "setup_s (affect-2k)": (
        "corpus.build_vocabulary.s", "corpus.build_vocabulary.types", "model.init.s"),
    "train_step_ms_p50, infer_docs_per_s (topic-v2k)": (
        "model.topic_branch.s", "model.topic_branch.calls", "model.topic_branch.tape_ops",
        "tensor.embedding_lookup.s", "tensor.embedding_lookup.calls",
        "model.fuse.s", "model.fuse.tape_ops",
        "model.context_self_attention.s", "model.context_self_attention.tape_ops",
        "model.classify.s", "model.classify.tape_ops",
        "model.batch_loss.s", "model.batch_loss.tape_ops"),
    "train_step_ms_p50, infer_docs_per_s (affect-2k)": (
        "model.affect_flow.s", "model.affect_flow.tape_ops"),
    "train_step_ms_p50, train_docs_per_s, peak_rss_mb (topic-v2k)": (
        "tensor.backward.s", "tensor.backward.entries", "tensor.step.s",
        "tensor.step.elements", "model.state.s"),
    "infer_docs_per_s (all)": (
        "tensor.save_checkpoint.s", "tensor.save_checkpoint.bytes",
        "tensor.load_checkpoint.s", "model.predict_proba.s", "model.predict_proba.docs"),
    "train_step_ms_p50 tail (all)": (
        "train.step_ms.p50", "train.step_ms.tail", "train.step_ms.tail_q",
        "train.step_ms.samples"),
    "tracing itself": ("trace.overhead", "trace.step_gap_share"),
}


class ProgramMissing(Exception):
    pass


class Program:
    """The fakeflow modules the benchmark drives, imported from ./src."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "fakeflow" / "__init__.py").is_file():
            raise ProgramMissing(f"no fakeflow sources under {src}")
        sys.path.insert(0, str(src))
        self.corpus = importlib.import_module("fakeflow.corpus")
        self.lexicon = importlib.import_module("fakeflow.lexicon")
        self.model = importlib.import_module("fakeflow.model")
        self.train = importlib.import_module("fakeflow.train")
        self.tensor = importlib.import_module("fakeflow.tensor")
        if not Path(self.corpus.__file__).resolve().is_relative_to(src):
            raise ProgramMissing(f"fakeflow was imported from {self.corpus.__file__}")

    def category_names(self) -> tuple[str, ...]:
        lx = self.lexicon
        return (lx.EMOTION_CATEGORIES + lx.SENTIMENT_CATEGORIES
                + lx.MORALITY_CATEGORIES + (lx.HYPERBOLIC_FEATURE,))


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Bench:
    def __init__(self, program: Program, spec, seed: int, seconds: float, trace: bool):
        self.ff = program
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workload = generate(spec, seed, program.category_names())
        articles = [(split, [program.corpus.RawArticle(id=d[0], text=d[1], label=d[2])
                             for d in self.workload.docs[split]]) for split in SPLITS]
        self.blocks = [(split, arts[i : i + spec.block])
                       for split, arts in articles for i in range(0, len(arts), spec.block)]
        self.attempted = 0
        self.failed = 0
        self.pending = 0  # operations of the unit of work in progress
        self.problems: list[str] = []
        # metric -> seconds per sample, and the machine's slowness around
        # each sample (calibration time / calibrate.NOMINAL_S)
        self.times: dict[str, list[float]] = defaultdict(list)
        self.slowness: dict[str, list[float]] = defaultdict(list)
        self.work: dict[str, int] = {}  # documents per sample
        self.walls: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.tracers: dict[str, list[Tracer]] = defaultdict(list)
        self.digests: set[tuple[str, str]] = set()

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    # -- scheduling ------------------------------------------------------------

    def schedule(self) -> None:
        """Warm up with one repetition of each phase in pipeline order, then
        run units of work from the phases, interleaved so that each keeps
        close to its share of the time spent so far, until --seconds have
        passed and each phase has its minimum repetitions (once the time is
        up, only phases short of them go on). Each metric's samples then
        span the whole run. Each unit of work is followed by the
        calibration load, once per CALIBRATE_EVERY_S the unit took; the mean
        of the median calibration time just before and just after the unit
        is the machine's speed for the samples the unit gave."""
        calibrate.load()  # its first call pays for imports and caches
        self.reps = dict.fromkeys(PHASES, 0)
        self.live: dict[str, list] = {}
        for phase in PHASES:
            while not self.advance(phase)[0]:
                pass
        used = dict.fromkeys(PHASES, 0.0)
        before = [calibrate.load()]
        start = time.perf_counter()
        while True:
            short = [p for p in PHASES
                     if self.reps[p] < 1 + PHASES[p][2 if self.trace else 1]]
            over = time.perf_counter() - start >= self.seconds
            if over and not short:
                return
            phase = min(short if over else PHASES, key=lambda p: used[p] / PHASES[p][0])
            unit_s = self.advance(phase)[1]
            used[phase] += unit_s
            after = [calibrate.load() for _ in range(1 + int(unit_s / CALIBRATE_EVERY_S))]
            slowness = ((statistics.median(before) + statistics.median(after))
                        / 2 / calibrate.NOMINAL_S)
            before = after
            for name, samples in self.times.items():
                paired = self.slowness[name]
                paired.extend([slowness] * (len(samples) - len(paired)))

    def advance(self, phase) -> tuple[bool, float]:
        """Run the next unit of work of `phase`'s current repetition, under
        its tracer (if any). Return whether the repetition ended, and the
        unit's wall time. Repetition 0 of each phase is the warm-up: it
        gives no samples; with --trace 1 the odd ones after it are untraced
        and the even ones traced."""
        if phase not in self.live:
            rep = self.reps[phase]
            traced = self.trace and rep > 0 and rep % 2 == 0
            tracer = Tracer(LAYERS) if traced else None
            if phase == "train" and tracer is None:
                tracer = Tracer(STEP_LAYERS)
            body = getattr(self, phase)(rep, tracer, traced, rep > 0 and not traced)
            self.live[phase] = [body, tracer, traced, 0.0]
        entry = self.live[phase]
        body, tracer, traced, _ = entry
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            next(body)
            ended = False
        except StopIteration:
            ended = True
        finally:
            unit_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        entry[3] += unit_s
        if ended:
            del self.live[phase]
            if self.reps[phase] > 0:
                self.walls[phase, traced].append(entry[3])
                if traced:
                    self.tracers[phase].append(tracer)
            self.reps[phase] += 1
        return ended, unit_s

    # -- phases: generators that yield between units of work -------------------

    def prepare(self, rep, tracer, traced, sampled):
        """Tokenize and prepare one block of documents per unit; a block is
        one sample. The warm-up runs the whole pipeline in order instead."""
        if rep == 0:
            yield from self.pipeline()
            return
        ff, spec, config = self.ff, self.spec, self.config
        for split, block in self.blocks:
            self.pending = len(block)
            t0 = time.perf_counter()
            examples = ff.train.prepare_examples(ff.train.tokenize_articles(block), self.vocab,
                                                 self.lex, config.n_segments, config.max_seg_len)
            block_s = time.perf_counter() - t0
            self.attempted += len(block)
            self.pending = 0
            self.expect(len(examples) == len(block),
                        f"{split}: {len(examples)} examples for a block of {len(block)}")
            if sampled:
                self.times["prepare_docs_per_s"].append(block_s)
                self.work["prepare_docs_per_s"] = spec.block
            del examples
            yield

    def pipeline(self):
        """The warm-up: tokenize every block, set up, prepare every block,
        and check the result. Its vocabulary, lexicons, config and examples
        are the ones every later phase uses."""
        ff = self.ff
        docs = {s: [] for s in SPLITS}
        for split, block in self.blocks:
            self.pending = len(block)
            docs[split].append(ff.train.tokenize_articles(block))
            yield
        self.corpus = [d for s in SPLITS for block in docs[s] for _, d, _ in block]
        self.pending = 1
        self.vocab, self.lex, self.config = self.set_up()
        self.attempted += 1
        yield
        examples = {s: [] for s in SPLITS}
        for split in SPLITS:
            for block in docs[split]:
                self.pending = len(block)
                examples[split].extend(ff.train.prepare_examples(
                    block, self.vocab, self.lex, self.config.n_segments,
                    self.config.max_seg_len))
                self.attempted += len(block)
                self.pending = 0
                yield
        self.examples = examples
        self.check_prepared(self.vocab, examples)

    def set_up(self):
        ff, spec = self.ff, self.spec
        vocab = ff.corpus.build_vocabulary(self.corpus)
        lex = ff.lexicon.LexiconSet(**self.lexicons())
        config = ff.model.FakeFlowConfig(
            n_segments=10, vocab_size=vocab.size, embed_dim=spec.embed_dim, mode=spec.mode)
        ff.model.FakeFlowModel(config, seed=self.seed)
        ff.tensor.make_optimizer(config.optimizer)
        return vocab, lex, config

    def setup(self, rep, tracer, traced, sampled):
        """One set-up from the warm-up's tokenized corpus; one sample."""
        self.pending = 1
        t0 = time.perf_counter()
        vocab, _, _ = self.set_up()
        setup_s = time.perf_counter() - t0
        self.attempted += 1
        self.pending = 0
        self.expect(vocab.size == self.vocab.size,
                    f"set-up: vocabulary has {vocab.size} ids, the warm-up's {self.vocab.size}")
        if sampled:
            self.times["setup_s"].append(setup_s)
        return
        yield

    def lexicons(self) -> dict:
        lx, wl = self.ff.lexicon, self.workload
        cat = wl.categories

        def group(name, order):
            return lx.CategoryLexicon(name=name, categories={c: cat[c] for c in order})

        return {
            "emotions": group("emotions", lx.EMOTION_CATEGORIES),
            "sentiment": group("sentiment", lx.SENTIMENT_CATEGORIES),
            "morality": group("morality", lx.MORALITY_CATEGORIES),
            "imageability": lx.RatingLexicon(name="imageability", ratings=wl.imageability),
            "abstractness": lx.RatingLexicon(name="abstractness", ratings=wl.abstractness),
            "hyperbolic": group(lx.HYPERBOLIC_FEATURE, (lx.HYPERBOLIC_FEATURE,)),
        }

    def check_prepared(self, vocab, examples):
        wl = self.workload
        self.expect(vocab.size == wl.types + 2,
                    f"vocabulary has {vocab.size} ids, expected {wl.types} types + 2")
        names = self.ff.lexicon.feature_names()
        for split in SPLITS:
            docs = wl.docs[split]
            self.expect(len(examples[split]) == len(docs),
                        f"{split}: {len(examples[split])} examples for {len(docs)} documents")
            for (doc_id, _, label), toks, ex in zip(docs, wl.reference[split], examples[split]):
                want = reference_affect(toks, wl, names, self.config.n_segments,
                                        self.config.max_seg_len)
                self.expect(ex.doc_id == doc_id and ex.label == label,
                            f"{split}: example {ex.doc_id} out of order")
                self.expect(np.allclose(ex.affect, want, rtol=0.0, atol=1e-12),
                            f"{doc_id}: affect matrix differs from the reference")

    def train(self, rep, tracer, traced, sampled):
        ff, spec = self.ff, self.spec
        train_set, val_set, test_set = (self.examples[s] for s in SPLITS)
        model = ff.model.FakeFlowModel(self.config, seed=self.seed)
        cfg = ff.train.TrainConfig(max_epochs=spec.epochs, patience=spec.epochs - 1,
                                   batch_size=BATCH_SIZE, seed=self.seed)
        n_steps = spec.epochs * math.ceil(len(train_set) / BATCH_SIZE)
        self.pending = n_steps
        start = time.perf_counter()
        result = ff.train.train(model, train_set, val_set, cfg)
        wall = time.perf_counter() - start
        self.attempted += n_steps
        self.pending = len(test_set)
        probs = model.predict_proba(test_set)
        self.attempted += len(test_set)
        self.pending = 0

        losses = np.asarray(tracer.losses)
        steps = tracer.steps()
        self.expect(len(losses) == n_steps == len(steps),
                    f"train: {len(losses)} losses and {len(steps)} steps, expected {n_steps}")
        self.expect(bool(np.all(np.isfinite(losses))), "train: non-finite step loss")
        self.expect(all(math.isfinite(r.train_loss) and math.isfinite(r.val_loss)
                        for r in result.history), "train: non-finite epoch loss")
        self.expect(result.epochs_run == spec.epochs,
                    f"train: ran {result.epochs_run} epochs, expected {spec.epochs}")
        self.check_probs(probs, len(test_set), "trained model")
        self.digests.add((digest(losses), digest(probs)))
        self.expect(len(self.digests) == 1,
                    "train: repetitions with the same seed gave different losses or probabilities")
        if sampled:
            self.times["train_docs_per_s"].append(wall)
            self.work["train_docs_per_s"] = spec.epochs * len(train_set)
            self.times["train_step_ms_p50"].extend(s.end - s.start for s in steps)
        self.model, self.probs = model, probs
        return
        yield

    def check_probs(self, probs, n, what):
        self.expect(probs.shape == (n, len(self.config.classes)),
                    f"{what}: probabilities have shape {probs.shape}")
        self.expect(bool(np.all(np.isfinite(probs))), f"{what}: non-finite probability")
        self.expect(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)),
                    f"{what}: a probability row does not sum to 1 within 1e-12")

    def infer(self, rep, tracer, traced, sampled):
        ff = self.ff
        test_set = self.examples["test"]
        path = OUT_DIR / f"checkpoint-{os.getpid()}.ffcp"
        self.pending = len(test_set)
        try:
            self.model.save(path)
            loaded = ff.model.FakeFlowModel.load(path)
            start = time.perf_counter()
            probs = loaded.predict_proba(test_set)
            wall = time.perf_counter() - start
        finally:
            path.unlink(missing_ok=True)
        self.attempted += len(test_set)
        self.pending = 0
        self.check_probs(probs, len(test_set), "reloaded model")
        self.expect(probs.dtype == self.probs.dtype and np.array_equal(probs, self.probs),
                    "infer: reloaded checkpoint predicts differently from the trained model")
        if sampled:
            self.times["infer_docs_per_s"].append(wall)
            self.work["infer_docs_per_s"] = len(test_set)
        return
        yield

    def run(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        try:
            self.schedule()
        except Exception as exc:  # report the failed operations, then stop
            self.failed += self.pending
            self.attempted += self.pending
            self.problems.append(f"program raised {type(exc).__name__}: {exc}")

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Each timing is the median of its samples, each divided by the
        machine's slowness around it. self.measured keeps the uncorrected
        medians, self.machine_slowness the median slowness per metric."""
        self.measured, self.machine_slowness, out = {}, {}, {}
        for name, reads_as in TIMINGS.items():
            times, slowness = np.array(self.times[name]), np.array(self.slowness[name])
            self.machine_slowness[name] = float(np.median(slowness))
            for values, sample_s in ((self.measured, float(np.median(times))),
                                     (out, float(np.median(times / slowness)))):
                values[name] = {"s": sample_s, "ms": sample_s * 1e3,
                                "rate": self.work.get(name, 0) / sample_s}[reads_as]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["error_rate"] = self.failed / self.attempted
        return out

    def per_layer(self) -> dict[str, float]:
        # Totals per pipeline pass: the mean over each phase's traced
        # repetitions, summed over phases.
        total: dict[str, float] = defaultdict(float)
        for tracers in self.tracers.values():
            phase: dict[str, float] = defaultdict(float)
            for tracer in tracers:
                for span, self_s in zip(tracer.spans, tracer.self_times()):
                    if span.name == STEP:
                        phase["steps"] += 1
                        continue
                    phase[f"{span.name}.s"] += self_s
                    phase[f"{span.name}.calls"] += 1
                    for key, value in (span.counts or {}).items():
                        phase[f"{span.name}.{key}"] += value
                        if span.step >= 0:
                            phase[f"{span.name}.{key}/step"] += value
            for key, value in phase.items():
                total[key] += value / len(tracers)

        steps = total["steps"]
        out = {f"{name}.s": total[f"{name}.s"] for name, *_ in LAYERS}
        for name in ("model.topic_branch", "tensor.embedding_lookup"):
            out[f"{name}.calls"] = total[f"{name}.calls"]
        for name in ("model.topic_branch", "model.fuse", "model.context_self_attention",
                     "model.affect_flow", "model.classify", "model.batch_loss"):
            out[f"{name}.tape_ops"] = total[f"{name}.tape_ops/step"] / steps
        out["tensor.backward.entries"] = total["tensor.backward.entries/step"] / steps
        out["tensor.step.elements"] = total["tensor.step.elements/step"] / steps
        for name in ("lexicon.extract_affect.tokens", "tensor.save_checkpoint.bytes",
                     "model.predict_proba.docs"):
            out[name] = total[name]
        out["corpus.build_vocabulary.types"] = (
            total["corpus.build_vocabulary.types"] / total["corpus.build_vocabulary.calls"])
        out["train.prepare_examples.bytes_per_example"] = (
            total["train.prepare_examples.bytes"] / total["train.prepare_examples.examples"])

        # Step time percentiles come from the untraced repetitions.
        step_ms = np.array(self.times["train_step_ms_p50"]) * 1e3
        n = len(step_ms)
        q = max(0.5, 1.0 - 10.0 / n) if n >= 20 else 0.5
        out["train.step_ms.p50"] = quantile(step_ms, 0.5)
        out["train.step_ms.tail"] = quantile(step_ms, q)
        out["train.step_ms.tail_q"] = q
        out["train.step_ms.samples"] = n

        traced = sum(statistics.median(self.walls[p, True]) for p in PHASES)
        untraced = sum(statistics.median(self.walls[p, False]) for p in PHASES)
        out["trace.overhead"] = traced / untraced - 1.0
        # Share of the traced steps' time that no layer span covers.
        step_s = gap_s = 0.0
        for tracer in self.tracers["train"]:
            for span, self_s in zip(tracer.spans, tracer.self_times()):
                if span.name == STEP:
                    step_s += span.end - span.start
                    gap_s += self_s
        out["trace.step_gap_share"] = gap_s / step_s
        self.expect(out["trace.step_gap_share"] <= max(out["trace.overhead"], 0.0) + 0.01,
                    "trace: layer spans leave more of the step uncovered than the "
                    "tracing overhead explains")
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": self.spec.name, "seed": self.seed,
                                 "machine": machine(),
                                 "columns": ["name", "start", "end", "parent", "step",
                                             "counts"]}) + "\n")
            for phase, tracers in self.tracers.items():
                for rep, tracer in enumerate(tracers):
                    for span in tracer.spans:
                        fh.write(json.dumps([phase, rep] + span.row()) + "\n")


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def run(spec, seed: int, seconds: float, trace: bool) -> int:
    try:
        program = Program()
        specs = load_metric_specs()
    except (ProgramMissing, ImportError, OSError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    bench = Bench(program, spec, seed, seconds, trace)
    print(f"workload {spec.name}: {spec.why}")
    print("machine " + json.dumps(machine()))
    bench.run()

    wanted = specs["per_layer" if trace else "end_to_end"]
    metrics = {}
    if not bench.failed:
        values = bench.per_layer() if trace else bench.end_to_end()
        if not trace:
            print(f"error_rate {values.pop('error_rate')} ratio")
            for name, value in bench.measured.items():
                print(f"uncorrected.{name} {value} (machine slowness "
                      f"{bench.machine_slowness[name]})")
        names = [metric["name"] for metric in wanted]
        bench.expect(set(names) == set(values),
                     f"computed metrics {sorted(values)} differ from BENCHMARK.json's {names}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in values}
        if trace:
            bench.write_spans(OUT_DIR / f"spans-{spec.name}-{seed}.jsonl")
            for moves, names in LAYER_MAP.items():
                print(f"-- moves {moves}")
                for name in names:
                    m = metrics[name]
                    print(f"{name} {m['value']} {m['unit']}")
        else:
            for name, m in metrics.items():
                print(f"{name} {m['value']} {m['unit']}")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
