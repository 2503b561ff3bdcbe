"""Span recording around the public functions of fakeflow's layers.

A Tracer replaces each target function, wherever a fakeflow module or
class refers to it, with a wrapper that records a span (name, start, end,
parent, step id) and the counts its count hook derives from the call.
Nothing inside the program is changed; uninstall() puts every original
back. A training step is a synthetic span that opens when
`FakeFlowModel.batch_loss` is entered and closes when `tensor.step`
returns, so its children are the forward pass, `backward` and `step`.
"""

from __future__ import annotations

import functools
import os
import sys
import time

STEP = "train.step"


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "counts")

    def __init__(self, name, start, parent, step):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.step = step
        self.counts = None

    def row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.step, self.counts]


def _tape_of(args):
    """The tape an op-recording call works on: a Tape argument, or the tape
    of its first Tensor argument."""
    for arg in args:
        if hasattr(arg, "_entries"):
            return arg
        tape = getattr(arg, "tape", None)
        if tape is not None and hasattr(tape, "_entries"):
            return tape
    return None


def _array_bytes(examples) -> int:
    return sum(v.nbytes for e in examples for v in vars(e).values() if hasattr(v, "nbytes"))


def _kept_tokens(seg) -> int:
    return min(seg.doc_length, seg.n_segments * seg.max_seg_len)


# Count hook meaning "the ops this call records on its tape".
TAPE_OPS = "tape_ops"

# (layer name, module, attribute path, count hook). A count hook is None,
# TAPE_OPS, or a function of (args, result) returning a dict of counts.
LAYERS = (
    ("corpus.tokenize", "fakeflow.corpus", "tokenize", None),
    ("corpus.segment", "fakeflow.corpus", "segment", None),
    ("corpus.encode", "fakeflow.corpus", "encode", None),
    ("corpus.build_vocabulary", "fakeflow.corpus", "build_vocabulary",
     lambda a, r: {"types": r.size}),
    ("lexicon.extract_affect", "fakeflow.lexicon", "extract_affect",
     lambda a, r: {"tokens": _kept_tokens(a[0])}),
    ("train.prepare_examples", "fakeflow.train", "prepare_examples",
     lambda a, r: {"examples": len(r), "bytes": _array_bytes(r)}),
    ("model.init", "fakeflow.model", "FakeFlowModel.__init__", None),
    ("model.topic_branch", "fakeflow.model", "FakeFlowModel.topic_branch", TAPE_OPS),
    ("tensor.embedding_lookup", "fakeflow.tensor", "embedding_lookup", None),
    ("model.fuse", "fakeflow.model", "FakeFlowModel.fuse", TAPE_OPS),
    ("model.context_self_attention", "fakeflow.model", "context_self_attention", TAPE_OPS),
    ("model.affect_flow", "fakeflow.model", "FakeFlowModel.affect_flow", TAPE_OPS),
    ("model.classify", "fakeflow.model", "FakeFlowModel.classify", TAPE_OPS),
    ("model.batch_loss", "fakeflow.model", "FakeFlowModel.batch_loss", TAPE_OPS),
    ("tensor.backward", "fakeflow.tensor", "backward",
     lambda a, r: {"entries": len(a[0])}),
    ("tensor.step", "fakeflow.tensor", "step",
     lambda a, r: {"elements": sum(p.value.size for p in a[1])}),
    ("model.state", "fakeflow.model", "FakeFlowModel.state", None),
    ("model.predict_proba", "fakeflow.model", "FakeFlowModel.predict_proba",
     lambda a, r: {"docs": len(a[1])}),
    ("tensor.save_checkpoint", "fakeflow.tensor", "save_checkpoint",
     lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("tensor.load_checkpoint", "fakeflow.tensor", "load_checkpoint", None),
)

# The step clock: just enough to time training steps and read their losses.
STEP_LAYERS = tuple(
    layer for layer in LAYERS if layer[0] in ("model.batch_loss", "tensor.step")
)


class Tracer:
    """Records spans for `layers` between install() and uninstall()."""

    def __init__(self, layers):
        self.layers = layers
        self.spans: list[Span] = []
        self.losses: list[float] = []  # one per training step, in order
        self._stack: list[int] = []
        self._step = -1  # id of the open training step, -1 outside steps
        self._steps = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fakeflow"]
        for name, module_name, path, hook in self.layers:
            owner = sys.modules[module_name]
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            if class_path:
                self._patch(owner, attr, wrapper)
                continue
            # Functions are imported by name into other modules; patch every
            # reference so calls through any of them are seen.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ------------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._step))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, counts=None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.counts = counts
        self._stack.pop()

    def _wrap(self, name, original, hook):
        is_loss = name == "model.batch_loss"
        is_step = name == "tensor.step"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if is_loss and self._step < 0:
                self._step = self._steps
                self._steps += 1
                self._open(STEP)
            tape = _tape_of(args) if hook is TAPE_OPS else None
            before = len(tape) if tape is not None else 0
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(index)
                raise
            if tape is not None:
                counts = {TAPE_OPS: len(tape) - before}
            elif callable(hook):
                counts = hook(args, result)
            else:
                counts = None
            self._close(index, counts)
            if is_loss:
                self.losses.append(float(result[0].value))
            if is_step and self._step >= 0:
                self._close(self._stack[-1])
                self._step = -1
            return result

        return wrapper

    # -- reading --------------------------------------------------------

    def steps(self) -> list[Span]:
        return [s for s in self.spans if s.name == STEP and s.end > s.start]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]
