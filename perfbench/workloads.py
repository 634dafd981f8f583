"""The three sercap workloads, their timed rounds and their checks.

A run repeats whole rounds until ``--seconds`` have passed.  Every round of
a run does the same work from the same seed:

* ``study-ser`` and ``default-ce``: ``harness.train`` from scratch (set-up,
  then every epoch), then the test split decoded and scored.
* ``caption-long``: restore the checkpoint and load the test container
  (set-up), then decode and score the container.

Set-up and epochs are told apart inside ``harness.train`` by three probes:
``cosine_lr`` is called once at the start of every epoch, ``write_curve``
right after the last epoch's checkpoint write, and
``_embed_captions_batch`` hands back the SER targets for checking.
"""
from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from sercap import data, decoding, harness, metrics
from sercap.config import ExperimentConfig
from sercap.decoding import DecodeConfig
from sercap.model import SentenceEncoder
from sercap.text import detokenize, load_stopwords

from . import checks

E2E_UNITS = {
    "setup_s": "s",
    "epoch_s": "s",
    "decode_tokens_per_s": "tokens/s",
    "eval_items_per_s": "items/s",
    "peak_rss_mb": "MB",
}
CAPTION_MIN_LEN = 24
DEFAULT_CE_CAPTION_LEN = 8
# test clips decoded and scored per round, for each of 1, 2 and 3 events
SCORED_PER_COUNT = {"study-ser": 16, "default-ce": 5, "caption-long": 4}
GRAD_CLIPS = 8
SAMPLE_CLIPS = 2
SAMPLE_TARGETS = 8


def stratified(clips: list, per_count: int) -> list:
    """The first ``per_count`` clips with one, two and three events each, in
    split order: every seed then scores the same mix of caption lengths."""
    picked = []
    for n_events in (1, 2, 3):
        group = [i for i, c in enumerate(clips) if len(c.events) == n_events][:per_count]
        if len(group) < per_count:
            raise ValueError(f"split has {len(group)} clips with {n_events} events, need {per_count}")
        picked += group
    return [clips[i] for i in sorted(picked)]


def training_config(name: str, seed: int) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.seed = seed
    cfg.corpus.seed = seed
    if name == "study-ser":
        # the SER cell of the acceptance study, on the default 512-clip split
        m = cfg.model
        m.d_model, m.decoder_layers, m.heads, m.d_ff, m.d_sent, m.dropout = 96, 2, 4, 192, 128, 0.0
        cfg.loss.ser_weight = 100.0
        cfg.optim.weight_decay = 1e-6
        cfg.optim.epochs = 2
        cfg.corpus.n_test = 96  # ample for SCORED_PER_COUNT clips of each event count
        # the study model's captions are 3 words by now; pinning the length
        # keeps beam search from taking seed-dependent extra steps
        cfg.decode.max_len = cfg.decode.min_len
    elif name == "default-ce":
        # default-width captioner, SER off, one full batch of 64 per epoch
        cfg.loss.ser_weight = 0.0
        cfg.corpus.n_train = 64
        cfg.corpus.n_val = 8
        cfg.optim.epochs = 1
        # one step leaves no length preference worth measuring; a pinned
        # length makes validation and test decodes the same work on every seed
        cfg.decode.min_len = cfg.decode.max_len = DEFAULT_CE_CAPTION_LEN
    else:
        raise ValueError(f"not a training workload: {name}")
    return cfg


@dataclass
class RoundOutput:
    model: object
    encoder: object
    vocab: object
    clips: list
    decode_cfg: DecodeConfig
    memories: list
    hyps: list
    candidates: list[str]
    report: object
    embed: object
    train_result: object = None
    ser_targets: dict | None = None


class EpochProbe:
    """Time stamps of epoch boundaries inside ``harness.train``."""

    def __init__(self):
        self.starts: list[float] = []
        self.last_end = 0.0
        self.embedded: list[dict] = []

    def reset(self) -> None:
        self.starts, self.last_end, self.embedded = [], 0.0, []

    @contextmanager
    def installed(self):
        originals = {n: getattr(harness, n) for n in ("cosine_lr", "write_curve", "_embed_captions_batch")}

        def cosine_lr(*args):
            self.starts.append(perf_counter())
            return originals["cosine_lr"](*args)

        def write_curve(*args):
            self.last_end = perf_counter()
            return originals["write_curve"](*args)

        def embed_batch(*args, **kwargs):
            vectors = originals["_embed_captions_batch"](*args, **kwargs)
            self.embedded.append(vectors)
            return vectors

        harness.cosine_lr, harness.write_curve, harness._embed_captions_batch = cosine_lr, write_curve, embed_batch
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(harness, name, fn)


class Workload:
    """One workload's rounds; ``samples`` maps an end-to-end metric to its
    per-round (or per-epoch, per-repeat) values."""

    decode_repeats = 1
    score_repeats = 1

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.attempted = 0
        self.candidates: list[list[str]] = []  # per round, for the determinism check

    def prepare(self) -> None:
        """Untimed inputs the rounds read."""

    def _decode_and_score(self, samples, net, encoder, sent_vocab, vocab, clips, decode_cfg, lexicons, agg):
        net.eval_mode()
        for _ in range(self.decode_repeats):
            t0 = perf_counter()
            memories = [net.encode_project(c.features).data for c in clips]
            hyps = decoding.decode_corpus(memories, net, decode_cfg, vocab)
            seconds = perf_counter() - t0
            tokens = sum(len(h.emitted) for h in hyps)
            samples["decode_tokens_per_s"].append(tokens / seconds)
            samples["decode_tokens"].append(tokens)
        candidates = [detokenize(h.tokens, vocab) for h in hyps]
        items = [metrics.EvalItem(c, clip.captions) for c, clip in zip(candidates, clips)]
        for _ in range(self.score_repeats):
            t0 = perf_counter()
            embed = harness.sentence_embedder(encoder, sent_vocab)
            report = metrics.evaluate_corpus(items, embedder=embed, lexicons=lexicons, sbert_agg=agg)
            samples["eval_items_per_s"].append(len(items) / (perf_counter() - t0))
        self.attempted += self.decode_repeats * len(clips) + self.score_repeats * len(items)
        self.candidates.append(candidates)
        return RoundOutput(net, encoder, vocab, clips, decode_cfg, memories, hyps, candidates, report, embed)

    def check(self, last: RoundOutput) -> list[str]:
        rng = np.random.default_rng(self.seed)
        sample = sorted(int(i) for i in rng.choice(len(last.clips), size=SAMPLE_CLIPS, replace=False))
        problems = checks.check_decode(last.model, last.memories, last.hyps, last.decode_cfg, last.vocab, sample)
        problems += checks.check_scores(
            last.report.per_item, last.candidates, [c.captions for c in last.clips], last.embed
        )
        if any(c != last.candidates for c in self.candidates):
            problems.append("rounds of the same seed decoded different captions")
        return problems


class TrainingWorkload(Workload):
    def __init__(self, name: str, seed: int, work: Path):
        super().__init__(name, seed, work)
        self.probe = EpochProbe()
        self.rounds = 0
        self.curves: list[tuple] = []  # per round: curve, encoder hash before and after
        if name == "study-ser":
            self.decode_repeats = self.score_repeats = 3

    def round(self, samples) -> RoundOutput:
        cfg = training_config(self.name, self.seed)
        run_dir = self.work / f"round{self.rounds}"
        shutil.rmtree(self.work / f"round{self.rounds - 1}", ignore_errors=True)
        self.rounds += 1
        self.probe.reset()
        with self.probe.installed():
            t0 = perf_counter()
            result = harness.train(cfg, run_dir)
        marks = self.probe.starts + [self.probe.last_end]
        samples["setup_s"].append(marks[0] - t0)
        # epochs of one round differ on purpose (the first validation decodes
        # an untrained model's longer captions); rounds repeat exactly, so a
        # round's mean epoch is the sample
        epochs = cfg.optim.epochs
        samples["epoch_s"].append((marks[-1] - marks[0]) / epochs)
        self.attempted += epochs * (math.ceil(cfg.corpus.n_train / cfg.batch_size) + 1)

        self.curves.append((result.curve, result.encoder_hash_before, result.encoder_hash_after))
        exp = result.experiment
        clips = stratified(exp.test_clips, SCORED_PER_COUNT[self.name])
        out = self._decode_and_score(samples, exp.model, exp.encoder, exp.sent_vocab, exp.vocab,
                                     clips, exp.decode_cfg, exp.lexicons, cfg.sbert_agg)
        out.train_result = result
        train_caps = {c.captions[0] for c in exp.train_clips}
        out.ser_targets = next((v for v in self.probe.embedded if set(v) == train_caps), None)
        return out

    def check(self, last: RoundOutput) -> list[str]:
        problems = super().check(last)
        exp = last.train_result.experiment
        cfg = exp.config
        for curve, hash_before, hash_after in self.curves:
            problems += checks.check_curve(curve, cfg.optim.lr0, cfg.optim.epochs)
            if hash_before != hash_after:
                problems.append("encoder hash changed during training")
        m = cfg.model
        fresh = SentenceEncoder(exp.sent_vocab.size, d_sent=m.d_sent, layers=m.sent_layers,
                                heads=m.sent_heads, seed=m.sent_seed)
        problems += checks.check_frozen(exp.encoder, fresh)

        rng = np.random.default_rng(self.seed)
        targets = last.ser_targets if cfg.loss.ser_enabled else {}
        if cfg.loss.ser_enabled:
            if targets is None:
                return problems + ["SER targets were not computed"]
            caps = sorted(targets)
            sample = [caps[int(i)] for i in rng.choice(len(caps), size=SAMPLE_TARGETS, replace=False)]
            problems += checks.check_embeddings(targets, exp.encoder, exp.sent_vocab, sample)

        loss_fn = checks.training_step_loss(exp, list(range(GRAD_CLIPS)), targets)
        params = dict(exp.model.named_params())
        grads = checks.tape_gradients(loss_fn, params)
        names = ["enc_proj.W", "dec0.self.Wq", f"dec{m.decoder_layers - 1}.ff.W2", "classifier.W"]
        if cfg.loss.ser_enabled:
            names.append("ser.W")
        problems += checks.check_gradients(loss_fn, params, grads, checks.gradient_picks(grads, names, rng))
        return problems


class CaptionLong(Workload):
    def prepare(self) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        subprocess.run(
            [sys.executable, "-m", "perfbench.fixture", "--seed", str(self.seed), "--out", str(self.work)],
            cwd=root, env=env, check=True, timeout=150,
        )

    def round(self, samples) -> RoundOutput:
        t0 = perf_counter()
        net, encoder, vocab, sent_vocab, config = harness.restore_model(self.work / "model.ckpt")
        clips = data.load_clips(self.work / "test_features.bin", self.work / "test_captions.jsonl")
        decode_cfg = DecodeConfig(beam_size=config.decode.beam_size, min_len=CAPTION_MIN_LEN,
                                  max_len=config.decode.max_len, stopwords=load_stopwords())
        lexicons = metrics.FluencyLexicons.default()
        t1 = perf_counter()
        samples["setup_s"].append(t1 - t0)
        out = self._decode_and_score(samples, net, encoder, sent_vocab, vocab, clips, decode_cfg,
                                     lexicons, config.sbert_agg)
        # nothing trains here: an epoch is one decode-and-score pass over the container
        samples["epoch_s"].append(perf_counter() - t1)
        return out


def make_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "caption-long":
        return CaptionLong(name, seed, work)
    return TrainingWorkload(name, seed, work)


def end_to_end(samples: dict, peak_rss_mb: float) -> dict:
    out = {name: {"value": statistics.median(samples[name]), "unit": unit}
           for name, unit in E2E_UNITS.items() if name != "peak_rss_mb"}
    out["peak_rss_mb"] = {"value": peak_rss_mb, "unit": E2E_UNITS["peak_rss_mb"]}
    return out
