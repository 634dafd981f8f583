"""Training and experiment orchestration.

One run: generate the synthetic splits, build vocabularies and models,
train with the combined objective (clip, AdamW step, cosine epoch
schedule), validate every epoch (teacher-forced CE, beam-decoded
sentence similarity, FENSE), and retain the best-FENSE checkpoint plus
the final one.  Checkpoints are a self-contained binary container
(config manifest, vocabularies, validation FENSE history, every
parameter tensor, optimizer moments, RNG states), so split runs resume
bitwise-identically.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blas
from .autodiff import Tape, Tensor
from .config import ExperimentConfig, clone, from_manifest, save_manifest, to_manifest
from .data import CaptionedClip, EventGrammar, generate_split, read_exact
from .decoding import BeamHypothesis, DecodeConfig, decode_corpus
from .losses import combined_loss, cross_entropy_smoothed, ser_loss
from .metrics import (EvalItem, FluencyLexicons, MetricReport, evaluate_corpus, fense_compose,
                      has_fluency_error, sbert_metric)
from .model import CaptionerModel, ModelConfig, SentenceEncoder, pad_sequences
from .optim import AdamW, clip_global_norm, cosine_lr, make_param_groups
from .text import Vocabulary, build_vocab, detokenize, subword_tokenize, tokenize

CKPT_MAGIC = b"SCKP"
CKPT_VERSION = 1
CURVE_COLUMNS = ("epoch", "train_loss", "val_ce", "val_sbert", "lr")


class NanLossError(RuntimeError):
    """Training hit a non-finite loss or gradient and was halted."""


@dataclass
class CurveRow:
    epoch: int
    train_loss: float
    val_ce: float
    val_sbert: float
    lr: float


@dataclass
class Experiment:
    """Everything a run needs, built deterministically from the config."""

    config: ExperimentConfig
    grammar: EventGrammar
    train_clips: list[CaptionedClip]
    val_clips: list[CaptionedClip]
    test_clips: list[CaptionedClip]
    vocab: Vocabulary
    sent_vocab: Vocabulary
    model: CaptionerModel
    encoder: SentenceEncoder
    decode_cfg: DecodeConfig
    lexicons: FluencyLexicons


@dataclass
class TrainResult:
    experiment: Experiment
    curve: list[CurveRow]
    fense_history: list[float]
    best_epoch: int
    best_fense: float
    best_ckpt: Path
    last_ckpt: Path
    encoder_hash_before: str
    encoder_hash_after: str


def corpus_splits(config: ExperimentConfig) -> tuple[EventGrammar, dict[str, list[CaptionedClip]]]:
    """The grammar and the train/val/test splits that ``config`` describes:
    one reference per training clip, five per validation and test clip."""
    c = config.corpus
    grammar = EventGrammar(d_enc=config.model.d_enc, seed=c.grammar_seed)
    splits = {name: generate_split(grammar, c.seed + offset, n, refs, c.noise_sigma, c.frames, prefix=name)
              for name, offset, n, refs in (("train", 0, c.n_train, 1), ("val", 1000, c.n_val, 5),
                                            ("test", 2000, c.n_test, 5))}
    return grammar, splits


def build_experiment(config: ExperimentConfig) -> Experiment:
    config.validate()
    grammar, splits = corpus_splits(config)

    train_captions = [clip.captions[0] for clip in splits["train"]]
    vocab = build_vocab(train_captions, kind=config.tokenizer, target_size=config.subword_vocab_size)
    if config.tokenizer == "subword":
        sent_vocab = vocab
    else:
        sent_vocab = build_vocab(train_captions, kind="subword", target_size=config.subword_vocab_size)

    model, encoder = build_models(config, vocab, sent_vocab)
    return Experiment(
        config=config,
        grammar=grammar,
        train_clips=splits["train"],
        val_clips=splits["val"],
        test_clips=splits["test"],
        vocab=vocab,
        sent_vocab=sent_vocab,
        model=model,
        encoder=encoder,
        decode_cfg=config.decode,
        lexicons=FluencyLexicons.default(),
    )


def build_models(config: ExperimentConfig, vocab: Vocabulary,
                 sent_vocab: Vocabulary) -> tuple[CaptionerModel, SentenceEncoder]:
    """The captioner over ``vocab`` and its frozen sentence encoder over
    ``sent_vocab``, as ``config`` describes them; ``config`` is not changed."""
    return CaptionerModel(config.model, vocab.size, seed=config.seed), build_encoder(config.model, sent_vocab)


def build_encoder(m: ModelConfig, sent_vocab: Vocabulary) -> SentenceEncoder:
    """The frozen sentence encoder that ``m``'s ``d_sent`` and ``sent_*``
    fields describe, over ``sent_vocab``."""
    return SentenceEncoder(sent_vocab.size, d_sent=m.d_sent, layers=m.sent_layers,
                           heads=m.sent_heads, seed=m.sent_seed)


class SentenceEmbedder:
    """Caption -> embedding vector through the frozen encoder, memoized.

    This is the embedder contract ``metrics.sbert_metric`` relies on: the
    object is callable on one caption, and ``vectors`` embeds a list of
    captions, running every caption not seen before through one
    ``_embed_captions_batch`` call.
    """

    def __init__(self, encoder: SentenceEncoder, sent_vocab: Vocabulary):
        self.encoder, self.sent_vocab = encoder, sent_vocab
        self.cache: dict[str, np.ndarray] = {}

    def __call__(self, text: str) -> np.ndarray:
        return self.vectors([text])[0]

    def vectors(self, captions) -> list[np.ndarray]:
        missing = [c for c in captions if c not in self.cache]
        if missing:
            self.cache.update(_embed_captions_batch(self.encoder, self.sent_vocab, missing))
        return [self.cache[c] for c in captions]


def sentence_embedder(encoder: SentenceEncoder, sent_vocab: Vocabulary) -> SentenceEmbedder:
    """A memoizing ``SentenceEmbedder`` over ``encoder`` and its vocabulary."""
    return SentenceEmbedder(encoder, sent_vocab)


# the fixed cost of one embed_tokens call, in caption tokens: about what a
# call on the default 768-wide encoder spends outside its per-token work
_EMBED_CALL_TOKENS = 16


def _embed_captions_batch(encoder, sent_vocab, captions, chunk=64) -> dict[str, np.ndarray]:
    """Embed unique captions; returns a caption->vector map.

    Captions of equal subword length run together, at most ``chunk`` rows
    per ``embed_tokens`` call, so no row is padded.  A caption alone in
    its group is a one-row batch, which gives the same vector bit for bit
    as ``embed_tokens`` on its 1-D ids.  The groups are independent, so
    ``blas.split_run`` shares them between two CPUs by token count.
    """
    ids = {c: subword_tokenize(c, sent_vocab) for c in set(captions)}
    order = sorted(ids, key=lambda c: (len(ids[c]), c))
    groups = []
    for _, same_len in itertools.groupby(order, key=lambda c: len(ids[c])):
        same_len = list(same_len)
        groups += [same_len[i : i + chunk] for i in range(0, len(same_len), chunk)]
    vectors = blas.split_run(lambda group: encoder.embed_tokens([ids[c] for c in group]).data, groups,
                             weight=lambda group: len(group) * len(ids[group[0]]) + _EMBED_CALL_TOKENS)
    return {c: v for group, rows in zip(groups, vectors) for c, v in zip(group, rows)}


def _teacher_forcing_batch(token_seqs: list[list[int]]):
    """Framed sequences -> (input ids, target ids, loss mask) with padding."""
    inputs = [seq[:-1] for seq in token_seqs]
    targets = [seq[1:] for seq in token_seqs]
    in_ids, mask = pad_sequences(inputs)
    tgt_ids, _ = pad_sequences(targets)
    return in_ids, tgt_ids, mask


def param_l2(model: CaptionerModel, exempt: bool = False) -> float:
    """Global L2 norm over decayed (or exempt) parameter groups."""
    total = 0.0
    for group in make_param_groups(model.named_params()):
        if group.decay_exempt != exempt:
            continue
        for t in group.tensors:
            total += float(np.square(t.data).sum())
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    *,
    config: ExperimentConfig,
    model: CaptionerModel,
    optimizer: AdamW,
    vocab: Vocabulary,
    sent_vocab: Vocabulary,
    epoch: int,
    best_fense: float,
    best_epoch: int,
    rng_states: dict,
    fense_history: list[float] | tuple = (),
) -> None:
    arrays: list[tuple[str, np.ndarray]] = [
        ("param/" + name, t.data) for name, t in model.named_params()
    ]
    arrays += [("optim/" + k, a) for k, a in optimizer.state_arrays()]
    header = {
        "format_version": CKPT_VERSION,
        "config": to_manifest(config),
        "vocab": {"kind": vocab.kind, "tokens": vocab.id_to_token},
        "sent_vocab": {"kind": sent_vocab.kind, "tokens": sent_vocab.id_to_token},
        "epoch": epoch,
        "fense_history": [float(f) for f in fense_history],
        "best_fense": best_fense,
        "best_epoch": best_epoch,
        "step_count": optimizer.step_count,
        "rng": rng_states,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # written beside the target and renamed over it, so an interrupted write
    # leaves the previous checkpoint at ``path`` intact
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<IQ", CKPT_VERSION, len(blob)))
            fh.write(blob)
            for _, a in arrays:
                fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class CheckpointReader:
    """An open checkpoint, read in two phases.

    Opening it checks the magic, the version and the header, and the
    file's size against the array directory, so a short or over-long file
    is rejected (naming the file and the array) before any array is read,
    also when the damage lies in a section no caller asks for.
    ``read_into`` then reads each requested array straight into its
    destination buffer and seeks past the others.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self._fh = Path(path).open("rb")
        try:
            self.header, self._directory = self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _read_header(self) -> tuple[dict, dict[str, tuple[tuple[int, ...], int]]]:
        """The header, and each array's shape and file offset by name."""
        fh, path = self._fh, self.path
        if fh.read(4) != CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, header_len = struct.unpack("<IQ", read_exact(fh, 12, path, "header"))
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(read_exact(fh, header_len, path, "header").decode("utf-8"))
        header.setdefault("fense_history", [])  # absent from older checkpoints
        size = os.fstat(fh.fileno()).st_size
        offset = fh.tell()
        directory = {}
        for meta in header["arrays"]:
            shape = tuple(meta["shape"])
            nbytes = 8 * math.prod(shape)
            if offset + nbytes > size:
                raise ValueError(f"{path}: truncated array {meta['name']}: "
                                 f"expected {nbytes} bytes, got {size - offset}")
            directory[meta["name"]] = (shape, offset)
            offset += nbytes
        if size > offset:
            raise ValueError(f"{path}: {size - offset} unexpected bytes after the last array")
        return header, directory

    def read_into(self, dests: dict[str, np.ndarray]) -> None:
        """Fill each C-contiguous float64 buffer of ``dests`` with the array
        of that name; every name and shape is checked before any is read."""
        for name, dest in dests.items():
            if name not in self._directory:
                raise ValueError(f"{self.path}: no array {name}")
            shape = self._directory[name][0]
            if dest.shape != shape:
                raise ValueError(f"{self.path}: shape mismatch loading {name}: "
                                 f"{shape} in the file, {dest.shape} in memory")
            if dest.dtype != np.float64 or not dest.flags.c_contiguous or not dest.flags.writeable:
                raise ValueError(f"cannot read {name} into a non-contiguous or non-float64 buffer")
        for name, (_, offset) in self._directory.items():
            dest = dests.get(name)
            if dest is None:
                continue
            self._fh.seek(offset)
            got = self._fh.readinto(dest.reshape(-1).view(np.uint8))
            if got != dest.nbytes:
                raise ValueError(f"{self.path}: truncated array {name}: "
                                 f"expected {dest.nbytes} bytes, got {got}")
            if sys.byteorder != "little":  # stored as <f8
                dest.byteswap(inplace=True)


def load_checkpoint(path: str | Path) -> dict:
    """A checkpoint's header with every array, under ``"array_data"``."""
    with CheckpointReader(path) as ckpt:
        arrays = {m["name"]: np.empty(tuple(m["shape"])) for m in ckpt.header["arrays"]}
        ckpt.read_into(arrays)
    return ckpt.header | {"array_data": arrays}


def _param_buffers(model: CaptionerModel) -> dict[str, np.ndarray]:
    return {"param/" + name: t.data for name, t in model.named_params()}


def load_params(model: CaptionerModel, path: str | Path) -> None:
    """Read a checkpoint's captioner parameters into ``model``'s arrays, in place."""
    with CheckpointReader(path) as ckpt:
        ckpt.read_into(_param_buffers(model))


def restore_model(path: str | Path) -> tuple[CaptionerModel, SentenceEncoder, Vocabulary, Vocabulary, ExperimentConfig]:
    """Rebuild the trained captioner (and its frozen encoder) from a
    checkpoint, reading only its parameters."""
    with CheckpointReader(path) as ckpt:
        header = ckpt.header
        config = from_manifest(header["config"])
        vocab = Vocabulary(kind=header["vocab"]["kind"], id_to_token=list(header["vocab"]["tokens"]))
        sent_vocab = Vocabulary(kind=header["sent_vocab"]["kind"],
                                id_to_token=list(header["sent_vocab"]["tokens"]))
        model, encoder = build_models(config, vocab, sent_vocab)
        ckpt.read_into(_param_buffers(model))
    model.eval_mode()
    return model, encoder, vocab, sent_vocab, config


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _validation_pass(exp: Experiment, embed) -> tuple[float, float, float]:
    """Beam decode of every validation clip beside the eval-mode CE over
    every (clip, reference) pair, then the decoded captions'
    sentence-similarity and FENSE numbers."""
    model, cfg = exp.model, exp.config
    model.eval_mode()

    pairs = [
        tokenize(cap, exp.vocab)
        for clip in exp.val_clips
        for cap in clip.captions
    ]
    feats = np.stack([
        clip.features
        for clip in exp.val_clips
        for _ in clip.captions
    ])

    def decode() -> list[BeamHypothesis]:
        return decode_split(model, [clip.features for clip in exp.val_clips], exp.decode_cfg, exp.vocab)

    def teacher_forced_ce() -> float:
        ce_num, ce_den = 0.0, 0.0
        for i in range(0, len(pairs), cfg.batch_size):
            in_ids, tgt_ids, mask = _teacher_forcing_batch(pairs[i : i + cfg.batch_size])
            mem = model.encode_project(feats[i : i + cfg.batch_size])
            out = model.decode_teacher_forced(mem, in_ids, training=False)
            ce = cross_entropy_smoothed(out.logits, tgt_ids, mask, cfg.loss.label_smoothing)
            ce_num += ce.item() * mask.sum()
            ce_den += mask.sum()
        return ce_num / ce_den

    # the decode on the caller, the CE batches in order on the helper
    hyps, val_ce = blas.split_run(lambda task: task(), [decode, teacher_forced_ce], weight=lambda task: 1.0)

    candidates = [detokenize(h.tokens, exp.vocab) for h in hyps]
    items = [EvalItem(c, clip.captions) for c, clip in zip(candidates, exp.val_clips)]
    val_sbert, sbert_scores = sbert_metric(items, embed, agg=cfg.sbert_agg)
    flags = [has_fluency_error(c, exp.lexicons) for c in candidates]
    val_fense, _ = fense_compose(sbert_scores, flags)
    return float(val_ce), val_sbert, float(val_fense)


@dataclass
class _Part:
    """One part of a training batch, run through its own model replica."""

    net: CaptionerModel
    seqs: list[list[int]]
    feats: np.ndarray
    targets: np.ndarray | None  # the SER targets, None with the branch off
    token_share: float
    caption_share: float
    rng: np.random.Generator


def _batch_parts(seqs, feats, targets, replicas, rngs) -> list[_Part]:
    """A batch cut once, in order, into two parts whose real target tokens
    balance best (``blas.split_point``), each weighted by its share of the
    batch's target tokens and captions; a one-caption batch is one part.
    The cut depends on the batch alone."""
    tokens = [len(s) - 1 for s in seqs]
    cuts = [0, blas.split_point(tokens), len(seqs)] if len(seqs) > 1 else [0, 1]
    return [_Part(net, seqs[a:b], feats[a:b], None if targets is None else targets[a:b],
                  sum(tokens[a:b]) / sum(tokens), (b - a) / len(seqs), rng)
            for net, rng, a, b in zip(replicas, rngs, cuts, cuts[1:])]


def _part_backward(exp: Experiment, part: _Part) -> float:
    """One part's forward, weighted loss and backward, into its replica's
    gradients; returns the weighted loss.  The token CE is a mean over the
    part's tokens and the SER term over its captions, so the shares make
    the parts' losses, and their gradients, sum to the whole batch's."""
    cfg, net = exp.config, part.net
    in_ids, tgt_ids, mask = _teacher_forcing_batch(part.seqs)
    with Tape() as tape:
        out = net.decode_teacher_forced(net.encode_project(part.feats), in_ids, rng=part.rng, training=True)
        loss = cross_entropy_smoothed(out.logits, tgt_ids, mask, cfg.loss.label_smoothing) * part.token_share
        if part.targets is not None:
            pred = exp.encoder.embed_vectors(net.ser_project(out.token_embeddings), mask)
            reg = ser_loss(pred, Tensor(part.targets), cfg.loss.ser_kind, cfg.loss.beta) * part.caption_share
            loss = combined_loss(loss, reg, cfg.loss.ser_weight)
    tape.backward(loss)
    return loss.item()


def _sum_part_grads(model: CaptionerModel, replicas: list[CaptionerModel]) -> None:
    """Add each replica's gradient into the model's, in part order."""
    for name, t in model.named_params():
        for r in replicas:
            g = r.params[name].grad
            if g is None:
                continue
            if t.grad is None:
                t.grad = g
            else:
                t.grad += g


def train(
    config: ExperimentConfig,
    out_dir: str | Path,
    resume_from: str | Path | None = None,
    stop_after: int | None = None,
) -> TrainResult:
    """Train ``config``'s captioner into ``out_dir`` (``best.ckpt``,
    ``last.ckpt``, ``curve.csv``, ``fense_history.json``, ``manifest.json``).

    Each batch is cut in two by ``_batch_parts``; ``blas.split_run`` runs
    one part on the caller and the other on its helper thread (both in
    order on the caller where the process may use one CPU), each part
    through its own model replica with its own dropout generator, drawn
    from the run's dropout stream.  The model's gradient is part 1's plus
    part 2's.  The cut and the generators do not depend on the CPU count,
    so neither do the bits of a run.  Each epoch's validation decode runs
    beside its teacher-forced CE the same way.
    ``resume_from`` continues from a checkpoint's state, bit for bit as
    the straight run; ``stop_after`` ends after that many epochs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    exp = build_experiment(config)
    model, cfg = exp.model, exp.config
    hash_before = exp.encoder.param_hash()

    optimizer = AdamW(make_param_groups(model.named_params()), cfg.optim)
    shuffle_rng = np.random.default_rng([cfg.seed, 17])
    dropout_rng = np.random.default_rng([cfg.seed, 23])
    start_epoch = 0
    best_fense = -np.inf
    best_epoch = -1
    fense_history: list[float] = []

    if resume_from is not None:
        with CheckpointReader(resume_from) as ckpt:
            ckpt.read_into(_param_buffers(model)
                           | {"optim/" + k: a for k, a in optimizer.state_arrays()})
        header = ckpt.header
        optimizer.step_count = header["step_count"]
        shuffle_rng.bit_generator.state = header["rng"]["shuffle"]
        dropout_rng.bit_generator.state = header["rng"]["dropout"]
        start_epoch = header["epoch"]
        best_fense = header["best_fense"]
        best_epoch = header["best_epoch"]
        fense_history = list(header["fense_history"])

    train_seqs = [tokenize(clip.captions[0], exp.vocab) for clip in exp.train_clips]
    train_feats = [clip.features for clip in exp.train_clips]
    ser_on = cfg.loss.ser_enabled
    train_targets: dict[str, np.ndarray] = {}
    if ser_on:
        train_targets = _embed_captions_batch(
            exp.encoder, exp.sent_vocab, [c.captions[0] for c in exp.train_clips]
        )
    embed = sentence_embedder(exp.encoder, exp.sent_vocab)
    embed.vectors([cap for clip in exp.val_clips for cap in clip.captions])

    n_train = len(exp.train_clips)
    best_path = out_dir / "best.ckpt"
    last_path = out_dir / "last.ckpt"
    curve: list[CurveRow] = []
    if resume_from is not None and (out_dir / "curve.csv").exists():
        curve = [r for r in read_curve(out_dir / "curve.csv") if r.epoch < start_epoch]

    def checkpoint(path, epoch):
        save_checkpoint(
            path,
            config=cfg,
            model=model,
            optimizer=optimizer,
            vocab=exp.vocab,
            sent_vocab=exp.sent_vocab,
            epoch=epoch,
            best_fense=float(best_fense),
            best_epoch=best_epoch,
            rng_states={"shuffle": shuffle_rng.bit_generator.state, "dropout": dropout_rng.bit_generator.state},
            fense_history=fense_history,
        )

    end_epoch = cfg.optim.epochs if stop_after is None else min(stop_after, cfg.optim.epochs)
    for epoch in range(start_epoch, end_epoch):
        lr = cosine_lr(epoch, cfg.optim.epochs, cfg.optim.lr0)
        order = shuffle_rng.permutation(n_train)
        epoch_losses = []
        for i in range(0, n_train, cfg.batch_size):
            batch_idx = order[i : i + cfg.batch_size]
            targets = None
            if ser_on:
                targets = np.stack([train_targets[exp.train_clips[j].captions[0]] for j in batch_idx])
            # each part runs on its own tape through its own replica of the
            # model (the model's arrays, its own gradients), made each step so
            # that it reads the arrays the model holds now, and with its own
            # dropout generator, seeded from the run's stream
            replicas = [model.replica(), model.replica()]
            rngs = [np.random.default_rng(s) for s in dropout_rng.integers(2**63, size=2)]
            parts = _batch_parts([train_seqs[j] for j in batch_idx], np.stack([train_feats[j] for j in batch_idx]),
                                 targets, replicas, rngs)
            loss = sum(blas.split_run(functools.partial(_part_backward, exp), parts, weight=lambda part: 1.0))
            if not np.isfinite(loss):
                checkpoint(out_dir / "diagnostic.ckpt", epoch)
                raise NanLossError(f"non-finite loss at epoch {epoch}")
            _sum_part_grads(model, replicas)
            try:
                clip_global_norm(optimizer.grads(), cfg.optim.clip_norm)
            except FloatingPointError as err:
                checkpoint(out_dir / "diagnostic.ckpt", epoch)
                raise NanLossError(f"non-finite gradient at epoch {epoch}: {err}") from err
            optimizer.step(lr)
            optimizer.zero_grad()
            epoch_losses.append(loss)

        val_ce, val_sbert, val_fense = _validation_pass(exp, embed)
        curve.append(CurveRow(epoch, float(np.mean(epoch_losses)), val_ce, val_sbert, lr))
        fense_history.append(val_fense)
        if val_fense > best_fense:
            best_fense = val_fense
            best_epoch = epoch
            checkpoint(best_path, epoch + 1)

    checkpoint(last_path, end_epoch)
    write_curve(curve, out_dir / "curve.csv")
    (out_dir / "fense_history.json").write_text(
        json.dumps({"val_fense": fense_history, "best_epoch": best_epoch}, indent=2) + "\n"
    )
    save_manifest(cfg, out_dir / "manifest.json",
                  extra={"model.vocab_size": exp.vocab.size, "encoder_hash": exp.encoder.param_hash(),
                         **blas.runtime_info()})

    return TrainResult(
        experiment=exp,
        curve=curve,
        fense_history=fense_history,
        best_epoch=best_epoch,
        best_fense=float(best_fense),
        best_ckpt=best_path,
        last_ckpt=last_path,
        encoder_hash_before=hash_before,
        encoder_hash_after=exp.encoder.param_hash(),
    )


def write_curve(rows: list[CurveRow], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for r in rows:
            writer.writerow([
                r.epoch,
                repr(float(r.train_loss)),
                repr(float(r.val_ce)),
                repr(float(r.val_sbert)),
                repr(float(r.lr)),
            ])


def read_curve(path: str | Path) -> list[CurveRow]:
    rows = []
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != CURVE_COLUMNS:
            raise ValueError(f"{path}: unexpected curve columns {reader.fieldnames}")
        for rec in reader:
            rows.append(CurveRow(int(rec["epoch"]), float(rec["train_loss"]),
                                 float(rec["val_ce"]), float(rec["val_sbert"]), float(rec["lr"])))
    return rows


# ---------------------------------------------------------------------------
# evaluation and the ablation grid
# ---------------------------------------------------------------------------


def decode_split(model, features, decode_cfg, vocab, chunk: int = 64) -> list[BeamHypothesis]:
    """Beam-decode equal-shape clip features, ``chunk`` clips per batched search."""
    model.eval_mode()
    hyps = []
    for i in range(0, len(features), chunk):
        memories = [model.encode_project(f).data for f in features[i : i + chunk]]
        hyps.extend(decode_corpus(memories, model, decode_cfg, vocab))
    return hyps


def evaluate_split(exp: Experiment, clips, spice_per_item=None) -> tuple[MetricReport, list[str]]:
    hyps = decode_split(exp.model, [c.features for c in clips], exp.decode_cfg, exp.vocab)
    candidates = [detokenize(h.tokens, exp.vocab) for h in hyps]
    items = [EvalItem(candidate=c, references=clip.captions) for c, clip in zip(candidates, clips)]
    embed = sentence_embedder(exp.encoder, exp.sent_vocab)
    report = evaluate_corpus(items, embedder=embed, lexicons=exp.lexicons,
                             spice_per_item=spice_per_item, sbert_agg=exp.config.sbert_agg)
    return report, candidates


ABLATION_AXES = {
    "tokenizer": ("word", "subword"),
    "ser_weight": (0.0, 100.0),
    "weight_decay": (1e-6, 2.0),
}


def run_ablation(base: ExperimentConfig, out_dir: str | Path) -> dict:
    """Tokenizer x lambda x weight-decay grid, metrics averaged over
    ``base.n_seeds`` seeds.

    Every cell trains on the same corpus seeds; a failed cell is marked
    in the report rather than dropped.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = {}
    for tok in ABLATION_AXES["tokenizer"]:
        for lam in ABLATION_AXES["ser_weight"]:
            for wd in ABLATION_AXES["weight_decay"]:
                label = f"{tok}_lam{lam:g}_wd{wd:g}"
                per_seed = []
                status = "ok"
                error = None
                for s in range(base.n_seeds):
                    cfg = clone(
                        base,
                        loss={"ser_weight": lam},
                        optim={"weight_decay": wd},
                        tokenizer=tok,
                        seed=base.seed + s,
                    )
                    run_dir = out_dir / label / f"seed{s}"
                    try:
                        result = train(cfg, run_dir)
                        load_params(result.experiment.model, result.best_ckpt)
                        report, _ = evaluate_split(result.experiment, result.experiment.test_clips)
                        per_seed.append({
                            "seed": cfg.seed,
                            "metrics": report.to_dict() | {"per_item": None},
                            "best_epoch": result.best_epoch,
                            "param_l2": param_l2(result.experiment.model),
                            "bias_l2": param_l2(result.experiment.model, exempt=True),
                            "n_trainable": result.experiment.model.n_trainable(),
                        })
                    except Exception as err:  # cell marked, never dropped
                        status = "failed"
                        error = f"{type(err).__name__}: {err}"
                        break
                cell: dict = {"status": status}
                if error:
                    cell["error"] = error
                if per_seed:
                    keys = ("cider_d", "spider", "sbert", "flu_err", "fense", "n_words")
                    cell["mean"] = {
                        k: (None if any(r["metrics"][k] is None for r in per_seed)
                            else float(np.mean([r["metrics"][k] for r in per_seed])))
                        for k in keys
                    }
                    cell["mean"]["param_l2"] = float(np.mean([r["param_l2"] for r in per_seed]))
                    cell["n_trainable"] = per_seed[0]["n_trainable"]
                    cell["per_seed"] = per_seed
                cells[label] = cell

    report = {"axes": {k: list(v) for k, v in ABLATION_AXES.items()}, "n_seeds": base.n_seeds, "cells": cells}
    (out_dir / "ablation.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (out_dir / "ablation.md").write_text(_ablation_markdown(report))
    return report


def _ablation_markdown(report: dict) -> str:
    cols = ("cider_d", "spider", "sbert", "flu_err", "fense", "n_words", "param_l2")
    lines = [
        "| cell | " + " | ".join(cols) + " | trainable |",
        "|" + "---|" * (len(cols) + 2),
    ]
    for label, cell in sorted(report["cells"].items()):
        if cell["status"] != "ok":
            lines.append(f"| {label} | FAILED: {cell.get('error', '?')} |" + " |" * (len(cols)))
            continue
        vals = [
            "-" if cell["mean"].get(c) is None else f"{cell['mean'][c]:.3f}"
            for c in cols
        ]
        lines.append(f"| {label} | " + " | ".join(vals) + f" | {cell['n_trainable']} |")
    return "\n".join(lines) + "\n"


def plot_curves(curve_files: list[str | Path], out_csv: str | Path, out_png: str | Path | None = None) -> None:
    """Merge learning curves into one CSV; optionally render an overlay.

    Each run is named by its directory relative to the common parent of
    the run directories (``cell/seed0``).
    """
    dirs = [Path(p).resolve().parent for p in curve_files]
    base = Path(os.path.commonpath([d.parent for d in dirs]))
    runs = [(d.relative_to(base).as_posix(), read_curve(p)) for d, p in zip(dirs, curve_files)]
    with Path(out_csv).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("run",) + CURVE_COLUMNS)
        for name, rows in runs:
            for r in rows:
                writer.writerow([name, r.epoch, repr(r.train_loss), repr(r.val_ce),
                                 repr(r.val_sbert), repr(r.lr)])
    if out_png is not None:
        try:
            import matplotlib
        except ImportError as err:
            raise ImportError(
                f"cannot render {out_png}: matplotlib is missing; install the 'plot' extra "
                "(pip install 'sercap[plot]')"
            ) from err
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        fig, axes = plt.subplots(1, 2, figsize=(10, 4))
        for name, rows in runs:
            epochs = [r.epoch for r in rows]
            axes[0].plot(epochs, [r.val_ce for r in rows], label=name)
            axes[1].plot(epochs, [r.val_sbert for r in rows], label=name)
        axes[0].set_xlabel("epoch")
        axes[0].set_ylabel("validation CE")
        axes[1].set_xlabel("epoch")
        axes[1].set_ylabel("validation sentence cosine")
        axes[1].legend(fontsize=7)
        fig.tight_layout()
        fig.savefig(out_png, dpi=120)
        plt.close(fig)
