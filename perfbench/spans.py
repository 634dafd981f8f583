"""In-memory span tracer for the traced benchmark run.

The tracer wraps sercap's public functions from the outside: nothing in
``src/sercap`` knows about it.  A function imported by name into another
module (``decode_corpus``, the loss functions and ``clip_global_norm`` in
``harness``) is wrapped in the module that looks it up, because replacing
the original module attribute would not reach the imported name.

A span is ``(id, name, start, end, parent_id)``; ``parent_id`` is -1 at the
top.  Spans stay in memory until the run writes them out.  A span's self
time is its duration minus the durations of its direct children, which
cover disjoint parts of it because the program is single-threaded.
"""
from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from sercap import autodiff, data, decoding, harness, metrics, model, optim

AUTODIFF_OPS = ("matmul", "layer_norm", "softmax", "log_softmax", "gelu", "embedding_lookup", "dropout")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[tuple[int, str]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.tape_depth = 0

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else -1
        self._open.append((sid, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans.append((sid, name, start, end, parent))

    def parent_name(self) -> str | None:
        return self._open[-1][1] if self._open else None

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    @contextmanager
    def installed(self):
        """Wrap the instrumented functions for the duration of the block."""
        _instrument(self)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def totals(self) -> tuple[dict, dict, Counter]:
        """Total and self seconds per span name, and span count per name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, name, start, end, _ in self.spans:
            total[name] += end - start
            self_time[name] += end - start - child_time[sid]
            calls[name] += 1
        return total, self_time, calls


def _timed(tracer: Tracer, name: str, count=None):
    """Wrapper factory: one span per call, then ``count(counts, args, result)``."""

    def make(fn):
        def wrapper(*args, **kwargs):
            result = tracer.run(name, fn, *args, **kwargs)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    return make


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapped call spends in the tracer, from a no-op function:
    the part of the traced-minus-untraced difference that is not noise."""

    def noop():
        return None

    wrapped = _timed(Tracer(), "noop", lambda counts, args, result: None)(noop)
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = perf_counter()
    for _ in range(calls):
        noop()
    return (2 * t1 - t0 - perf_counter()) / calls


def _forward(tracer: Tracer, train_name: str, eval_name: str | None, inner_of: str | None = None):
    """Classify a model forward by whether a tape is recording.

    A call made directly inside an ``inner_of`` span (the decoder forward
    inside ``step_logits_batch``, the encoder body inside
    ``embed_tokens``) gets no span of its own; its time is that span's.
    """

    def make(fn):
        def wrapper(*args, **kwargs):
            if tracer.tape_depth:
                return tracer.run(train_name, fn, *args, **kwargs)
            if eval_name is None or (inner_of is not None and tracer.parent_name() == inner_of):
                return fn(*args, **kwargs)
            return tracer.run(eval_name, fn, *args, **kwargs)

        return wrapper

    return make


def _tape_scope(tracer: Tracer, delta: int):
    def make(fn):
        def wrapper(*args, **kwargs):
            tracer.tape_depth += delta
            return fn(*args, **kwargs)

        return wrapper

    return make


def _count_backward(counts, args, _result):
    counts["autodiff.backward_calls"] += 1
    counts["autodiff.tape_nodes_total"] += len(args[0])


def _count_embed(counts, _args, vectors):
    counts["model.sent_captions_embedded"] += 1 if vectors.ndim == 1 else vectors.shape[0]


def _count_step(counts, args, _result):
    prefixes = args[2]
    counts["model.step_rows"] += int(prefixes.shape[0])
    counts["model.step_prefix_tokens"] += int(prefixes.size)


def _count_decoded(counts, _args, hyps):
    counts["decoding.tokens_emitted"] += sum(len(h.emitted) for h in hyps)


def _count_checkpoint(counts, args, _result):
    counts["harness.checkpoint_bytes"] += os.path.getsize(args[0])


def _instrument(t: Tracer) -> None:
    cap, enc = model.CaptionerModel, model.SentenceEncoder
    t._patch(autodiff.Tape, "__enter__", _tape_scope(t, +1))
    t._patch(autodiff.Tape, "__exit__", _tape_scope(t, -1))
    t._patch(autodiff.Tape, "backward", _timed(t, "autodiff.backward", _count_backward))
    for op in AUTODIFF_OPS:
        t._patch(autodiff, op, _timed(t, f"autodiff.{op}"))

    t._patch(harness, "build_experiment", _timed(t, "harness.build_experiment"))
    t._patch(harness, "generate_split", _timed(t, "data.generate_split"))
    t._patch(harness, "build_vocab", _timed(t, "text.build_vocab"))
    t._patch(cap, "__init__", _timed(t, "model.init"))
    t._patch(enc, "__init__", _timed(t, "model.init"))
    t._patch(harness, "restore_model", _timed(t, "harness.restore_model"))
    t._patch(data, "load_clips", _timed(t, "data.load_clips"))

    t._patch(enc, "embed_tokens", _timed(t, "model.sent_embed_tokens", _count_embed))
    t._patch(enc, "embed_vectors", _forward(t, "model.ser_forward", None))
    t._patch(cap, "ser_project", _forward(t, "model.ser_forward", None))
    t._patch(cap, "encode_project", _forward(t, "model.train_forward", "model.eval_forward"))
    t._patch(cap, "decode_teacher_forced",
             _forward(t, "model.train_forward", "model.eval_forward", inner_of="model.step_logits_batch"))
    t._patch(cap, "step_logits_batch", _timed(t, "model.step_logits_batch", _count_step))

    t._patch(harness, "cross_entropy_smoothed", _timed(t, "losses.cross_entropy"))
    t._patch(harness, "ser_loss", _timed(t, "losses.ser_loss"))
    t._patch(harness, "clip_global_norm", _timed(t, "optim.clip"))
    t._patch(optim.AdamW, "step", _timed(t, "optim.step"))
    t._patch(optim.AdamW, "zero_grad", _timed(t, "optim.zero_grad"))
    t._patch(harness, "_validation_pass", _timed(t, "harness.validation"))
    t._patch(harness, "save_checkpoint", _timed(t, "harness.save_checkpoint", _count_checkpoint))

    t._patch(harness, "decode_corpus", _timed(t, "decoding.decode_corpus", _count_decoded))
    t._patch(decoding, "decode_corpus", _timed(t, "decoding.decode_corpus", _count_decoded))

    t._patch(metrics, "evaluate_corpus", _timed(t, "metrics.evaluate_corpus"))
    t._patch(metrics, "cider_d", _timed(t, "metrics.cider_d"))
    t._patch(metrics, "sbert_metric", _timed(t, "metrics.sbert"))
    t._patch(metrics, "has_fluency_error", _timed(t, "metrics.fluency"))
    t._patch(harness, "has_fluency_error", _timed(t, "metrics.fluency"))


# per-layer metric -> (kind, key, unit); "total"/"self"/"calls" read span
# aggregates by span name, "count" reads a counter
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "data.generate_split_s": ("total", "data.generate_split", "s"),
    "text.build_vocab_s": ("total", "text.build_vocab", "s"),
    "model.init_s": ("total", "model.init", "s"),
    "harness.build_experiment_s": ("total", "harness.build_experiment", "s"),
    "harness.restore_model_s": ("total", "harness.restore_model", "s"),
    "data.load_clips_s": ("total", "data.load_clips", "s"),
    "model.sent_embed_tokens_s": ("total", "model.sent_embed_tokens", "s"),
    "model.sent_embed_tokens_calls": ("calls", "model.sent_embed_tokens", "count"),
    "model.sent_captions_embedded": ("count", "model.sent_captions_embedded", "count"),
    "model.train_forward_s": ("total", "model.train_forward", "s"),
    "losses.cross_entropy_s": ("total", "losses.cross_entropy", "s"),
    "autodiff.backward_s": ("total", "autodiff.backward", "s"),
    "model.ser_forward_s": ("total", "model.ser_forward", "s"),
    "losses.ser_loss_s": ("total", "losses.ser_loss", "s"),
    **{f"autodiff.{op}_calls": ("calls", f"autodiff.{op}", "count") for op in AUTODIFF_OPS},
    **{f"autodiff.{op}_fwd_s": ("total", f"autodiff.{op}", "s") for op in AUTODIFF_OPS},
    "optim.clip_s": ("total", "optim.clip", "s"),
    "optim.step_s": ("total", "optim.step", "s"),
    "optim.zero_grad_s": ("total", "optim.zero_grad", "s"),
    "harness.validation_s": ("total", "harness.validation", "s"),
    "model.eval_forward_s": ("total", "model.eval_forward", "s"),
    "harness.save_checkpoint_s": ("total", "harness.save_checkpoint", "s"),
    "harness.checkpoint_bytes": ("count", "harness.checkpoint_bytes", "B"),
    "model.step_logits_batch_s": ("total", "model.step_logits_batch", "s"),
    "model.step_calls": ("calls", "model.step_logits_batch", "count"),
    "model.step_rows": ("count", "model.step_rows", "count"),
    "model.step_prefix_tokens": ("count", "model.step_prefix_tokens", "count"),
    "decoding.decode_corpus_s": ("total", "decoding.decode_corpus", "s"),
    "decoding.search_self_s": ("self", "decoding.decode_corpus", "s"),
    "decoding.tokens_emitted": ("count", "decoding.tokens_emitted", "count"),
    "metrics.evaluate_corpus_s": ("total", "metrics.evaluate_corpus", "s"),
    "metrics.cider_d_s": ("total", "metrics.cider_d", "s"),
    "metrics.sbert_self_s": ("self", "metrics.sbert", "s"),
    "metrics.fluency_s": ("total", "metrics.fluency", "s"),
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, dict]:
    """Every per-layer metric, per traced round (tape nodes per step)."""
    total, self_time, calls = tracer.totals()
    source = {"total": total, "self": self_time, "calls": calls, "count": tracer.counts}
    out = {
        name: {"value": source[kind].get(key, 0) / rounds, "unit": unit}
        for name, (kind, key, unit) in LAYER_METRICS.items()
    }
    steps = tracer.counts["autodiff.backward_calls"]
    nodes = tracer.counts["autodiff.tape_nodes_total"] / steps if steps else 0
    out["autodiff.tape_nodes"] = {"value": nodes, "unit": "count"}
    return out
