"""Training and experiment orchestration.

One run: generate the synthetic splits, build vocabularies and models,
train with the combined objective (clip, AdamW step, cosine epoch
schedule), validate every epoch (teacher-forced CE, beam-decoded
sentence similarity, FENSE), and retain the best-FENSE checkpoint plus
the final one.  Checkpoints are a self-contained binary container
(config manifest, vocabularies, every parameter tensor, optimizer
moments, RNG states), so split runs resume bitwise-identically.
"""
from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor
from .config import ExperimentConfig, clone, from_manifest, save_manifest, to_manifest
from .data import CaptionedClip, EventGrammar, expect_end, generate_split, read_exact
from .decoding import BeamHypothesis, DecodeConfig, decode_corpus
from .losses import combined_loss, cross_entropy_smoothed, ser_loss
from .metrics import (EvalItem, FluencyLexicons, MetricReport, evaluate_corpus, fense_compose,
                      has_fluency_error, sbert_metric)
from .model import CaptionerModel, SentenceEncoder, pad_sequences
from .optim import AdamW, clip_global_norm, cosine_lr, make_param_groups
from .text import Vocabulary, build_vocab, detokenize, load_stopwords, subword_tokenize, tokenize

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


def build_experiment(config: ExperimentConfig) -> Experiment:
    config.validate()
    grammar = EventGrammar(d_enc=config.model.d_enc, seed=config.corpus.grammar_seed)
    c = config.corpus
    train_clips = generate_split(grammar, c.seed, c.n_train, 1, c.noise_sigma, c.frames, prefix="train")
    val_clips = generate_split(grammar, c.seed + 1000, c.n_val, 5, c.noise_sigma, c.frames, prefix="val")
    test_clips = generate_split(grammar, c.seed + 2000, c.n_test, 5, c.noise_sigma, c.frames, prefix="test")

    train_captions = [clip.captions[0] for clip in train_clips]
    vocab = build_vocab(train_captions, kind=config.tokenizer, target_size=config.subword_vocab_size)
    if config.tokenizer == "subword":
        sent_vocab = vocab
    else:
        sent_vocab = build_vocab(train_captions, kind="subword", target_size=config.subword_vocab_size)

    model, encoder = build_models(config, vocab, sent_vocab)
    return Experiment(
        config=config,
        grammar=grammar,
        train_clips=train_clips,
        val_clips=val_clips,
        test_clips=test_clips,
        vocab=vocab,
        sent_vocab=sent_vocab,
        model=model,
        encoder=encoder,
        decode_cfg=build_decode_config(config),
        lexicons=FluencyLexicons.default(),
    )


def build_models(config: ExperimentConfig, vocab: Vocabulary,
                 sent_vocab: Vocabulary) -> tuple[CaptionerModel, SentenceEncoder]:
    """The captioner and its frozen sentence encoder for ``config``; sets
    ``config.model.vocab_size`` from ``vocab``."""
    m = config.model
    m.vocab_size = vocab.size
    m.validate()
    model = CaptionerModel(m, seed=config.seed)
    encoder = SentenceEncoder(sent_vocab.size, d_sent=m.d_sent, layers=m.sent_layers,
                              heads=m.sent_heads, seed=m.sent_seed)
    return model, encoder


def build_decode_config(config: ExperimentConfig) -> DecodeConfig:
    """The beam-search settings of ``config``, with its stopword list loaded."""
    d = config.decode
    return DecodeConfig(beam_size=d.beam_size, min_len=d.min_len, max_len=d.max_len,
                        stopwords=load_stopwords(d.stopwords_file or None))


def sentence_embedder(encoder: SentenceEncoder, sent_vocab: Vocabulary, captions=()):
    """Caption -> embedding vector through the frozen encoder, memoized.

    ``captions`` are embedded up front in batches; any other caption is
    embedded on its first use, on its own.
    """
    cache = _embed_captions_batch(encoder, sent_vocab, captions)

    def embed(text: str) -> np.ndarray:
        if text not in cache:
            cache.update(_embed_captions_batch(encoder, sent_vocab, [text]))
        return cache[text]

    return embed


def _embed_captions_batch(encoder, sent_vocab, captions, chunk=64) -> dict[str, np.ndarray]:
    """Embed unique captions; returns a caption->vector map.

    Captions are padded in chunks of similar subword length, so little of
    each chunk is padding.  A single caption is a one-row batch, which
    gives the same vector bit for bit as ``embed_tokens`` on its 1-D ids.
    """
    ids = {c: subword_tokenize(c, sent_vocab) for c in set(captions)}
    order = sorted(ids, key=lambda c: (len(ids[c]), c))
    out: dict[str, np.ndarray] = {}
    for i in range(0, len(order), chunk):
        group = order[i : i + chunk]
        tokens, mask = pad_sequences([ids[c] for c in group])
        out.update(zip(group, encoder.embed_tokens(tokens, mask).data))
    return out


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


def _rng_state(gen: np.random.Generator) -> dict:
    state = gen.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in state["state"].items()},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def _restore_rng(state: dict) -> np.random.Generator:
    gen = np.random.default_rng()
    gen.bit_generator.state = {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in state["state"].items()},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }
    return gen


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


def load_checkpoint(path: str | Path) -> dict:
    with Path(path).open("rb") as fh:
        if fh.read(4) != CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, header_len = struct.unpack("<IQ", read_exact(fh, 12, path, "header"))
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(read_exact(fh, header_len, path, "header").decode("utf-8"))
        arrays = {}
        for meta in header["arrays"]:
            shape = tuple(meta["shape"])
            n = int(np.prod(shape)) if shape else 1
            buf = read_exact(fh, n * 8, path, f"array {meta['name']}")
            arrays[meta["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        expect_end(fh, path)
    header["array_data"] = arrays
    return header


def load_params(model: CaptionerModel, ckpt: dict) -> None:
    """Copy a loaded checkpoint's captioner parameters into ``model``."""
    model.params.load_arrays(_section(ckpt, "param/"))


def _section(ckpt: dict, prefix: str) -> dict[str, np.ndarray]:
    return {n[len(prefix):]: a for n, a in ckpt["array_data"].items() if n.startswith(prefix)}


def restore_model(path: str | Path) -> tuple[CaptionerModel, SentenceEncoder, Vocabulary, Vocabulary, ExperimentConfig]:
    """Rebuild the trained captioner (and its frozen encoder) from a checkpoint."""
    ckpt = load_checkpoint(path)
    config = from_manifest(ckpt["config"])
    vocab = Vocabulary(kind=ckpt["vocab"]["kind"], id_to_token=list(ckpt["vocab"]["tokens"]))
    sent_vocab = Vocabulary(kind=ckpt["sent_vocab"]["kind"], id_to_token=list(ckpt["sent_vocab"]["tokens"]))
    model, encoder = build_models(config, vocab, sent_vocab)
    load_params(model, ckpt)
    model.eval_mode()
    return model, encoder, vocab, sent_vocab, config


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _validation_pass(exp: Experiment, embed) -> tuple[float, float, float]:
    """Eval-mode CE over every (clip, reference) pair, then beam decode
    for the sentence-similarity and FENSE numbers."""
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
    ce_num, ce_den = 0.0, 0.0
    for i in range(0, len(pairs), cfg.batch_size):
        in_ids, tgt_ids, mask = _teacher_forcing_batch(pairs[i : i + cfg.batch_size])
        mem = model.encode_project(feats[i : i + cfg.batch_size])
        out = model.decode_teacher_forced(mem, in_ids, training=False)
        ce = cross_entropy_smoothed(out.logits, tgt_ids, mask, cfg.loss.label_smoothing)
        ce_num += ce.item() * mask.sum()
        ce_den += mask.sum()
    val_ce = ce_num / ce_den

    hyps = decode_split(model, [clip.features for clip in exp.val_clips], exp.decode_cfg, exp.vocab)
    candidates = [detokenize(h.tokens, exp.vocab) for h in hyps]
    items = [EvalItem(c, clip.captions) for c, clip in zip(candidates, exp.val_clips)]
    val_sbert, sbert_scores = sbert_metric(items, embed, agg=cfg.sbert_agg)
    flags = [has_fluency_error(c, exp.lexicons) for c in candidates]
    val_fense, _ = fense_compose(sbert_scores, flags)
    return float(val_ce), val_sbert, float(val_fense)


def train(
    config: ExperimentConfig,
    out_dir: str | Path,
    resume_from: str | Path | None = None,
    stop_after: int | None = None,
) -> TrainResult:
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

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        load_params(model, ckpt)
        optimizer.load_state_arrays(_section(ckpt, "optim/"), ckpt["step_count"])
        shuffle_rng = _restore_rng(ckpt["rng"]["shuffle"])
        dropout_rng = _restore_rng(ckpt["rng"]["dropout"])
        start_epoch = ckpt["epoch"]
        best_fense = ckpt["best_fense"]
        best_epoch = ckpt["best_epoch"]

    train_seqs = [tokenize(clip.captions[0], exp.vocab) for clip in exp.train_clips]
    train_feats = [clip.features for clip in exp.train_clips]
    ser_on = cfg.loss.ser_enabled
    train_targets: dict[str, np.ndarray] = {}
    if ser_on:
        train_targets = _embed_captions_batch(
            exp.encoder, exp.sent_vocab, [c.captions[0] for c in exp.train_clips]
        )
    embed = sentence_embedder(
        exp.encoder, exp.sent_vocab, [cap for clip in exp.val_clips for cap in clip.captions]
    )

    n_train = len(exp.train_clips)
    best_path = out_dir / "best.ckpt"
    last_path = out_dir / "last.ckpt"
    curve: list[CurveRow] = []
    fense_history: list[float] = []
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
            rng_states={"shuffle": _rng_state(shuffle_rng), "dropout": _rng_state(dropout_rng)},
        )

    end_epoch = cfg.optim.epochs if stop_after is None else min(stop_after, cfg.optim.epochs)
    for epoch in range(start_epoch, end_epoch):
        lr = cosine_lr(epoch, cfg.optim.epochs, cfg.optim.lr0)
        model.train_mode()
        order = shuffle_rng.permutation(n_train)
        epoch_losses = []
        for i in range(0, n_train, cfg.batch_size):
            batch_idx = order[i : i + cfg.batch_size]
            seqs = [train_seqs[j] for j in batch_idx]
            feats = np.stack([train_feats[j] for j in batch_idx])
            in_ids, tgt_ids, mask = _teacher_forcing_batch(seqs)
            with Tape() as tape:
                memory = model.encode_project(feats)
                out = model.decode_teacher_forced(memory, in_ids, rng=dropout_rng)
                token_loss = cross_entropy_smoothed(
                    out.logits, tgt_ids, mask, cfg.loss.label_smoothing
                )
                if ser_on:
                    proj = model.ser_project(out.token_embeddings)
                    pred = exp.encoder.embed_vectors(proj, mask)
                    target = Tensor(np.stack(
                        [train_targets[exp.train_clips[j].captions[0]] for j in batch_idx]
                    ))
                    reg = ser_loss(pred, target, cfg.loss.ser_kind, cfg.loss.beta)
                    loss = combined_loss(token_loss, reg, cfg.loss.ser_weight)
                else:
                    loss = token_loss
            if not np.isfinite(loss.item()):
                checkpoint(out_dir / "diagnostic.ckpt", epoch)
                raise NanLossError(f"non-finite loss at epoch {epoch}")
            tape.backward(loss)
            try:
                clip_global_norm(optimizer.grads(), cfg.optim.clip_norm)
            except FloatingPointError as err:
                checkpoint(out_dir / "diagnostic.ckpt", epoch)
                raise NanLossError(f"non-finite gradient at epoch {epoch}: {err}") from err
            optimizer.step(lr)
            optimizer.zero_grad()
            epoch_losses.append(loss.item())

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
    save_manifest(cfg, out_dir / "manifest.json", extra={"encoder_hash": exp.encoder.param_hash()})

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
                        load_params(result.experiment.model, load_checkpoint(result.best_ckpt))
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
