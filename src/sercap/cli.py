"""Command-line entry points.

Subcommands: synth-data, train, decode, evaluate, ablate, gradcheck,
plot.  Every command exits nonzero on a failed invariant or a NaN
abort.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import ConfigError, apply_settings, parse_config
from .data import dataset_stats, load_features, save_captions, save_features
from .harness import (NanLossError, build_encoder, corpus_splits, decode_split, plot_curves,
                      restore_model, run_ablation, sentence_embedder, train)
from .metrics import EvalItem, FluencyLexicons, evaluate_corpus
from .text import build_vocab, detokenize


def _cmd_synth_data(args) -> int:
    _, splits = corpus_splits(parse_config(args.config, args.set))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, clips in splits.items():
        save_features(clips, out / f"{name}_features.bin")
        save_captions(clips, out / f"{name}_captions.jsonl")
        summary[name] = dataset_stats(clips)
    (out / "stats.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote train/val/test splits to {out}")
    return 0


def _cmd_train(args) -> int:
    config = parse_config(args.config, args.set)
    try:
        result = train(config, args.out, resume_from=args.resume)
    except NanLossError as err:
        print(f"training aborted: {err}", file=sys.stderr)
        return 2
    print(f"best epoch {result.best_epoch} (validation FENSE {result.best_fense:.6f})")
    print(f"checkpoints: {result.best_ckpt} {result.last_ckpt}")
    return 0


def _cmd_decode(args) -> int:
    model, _, vocab, _, config = restore_model(args.checkpoint)
    apply_settings(config, [("--set", raw) for raw in args.set], prefix="decode.")
    features = load_features(args.features)
    hyps = decode_split(model, features, config.decode, vocab)
    lines = [detokenize(h.tokens, vocab) for h in hyps]
    sidecar = [{"index": i, "caption": caption, "log_prob": h.log_prob, "tokens": h.tokens}
               for i, (caption, h) in enumerate(zip(lines, hyps))]
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")
    out.with_suffix(out.suffix + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"decoded {features.shape[0]} clips -> {out}")
    return 0


def _read_references(path: str | Path) -> list[list[str]]:
    groups = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        groups.append(list(rec["references"] if isinstance(rec, dict) else rec))
    return groups


def _cmd_evaluate(args) -> int:
    config = parse_config(args.config, args.set)
    candidates = [l for l in Path(args.candidates).read_text().splitlines() if l.strip()]
    references = _read_references(args.references)
    if len(candidates) != len(references):
        print(f"{len(candidates)} candidates vs {len(references)} reference groups", file=sys.stderr)
        return 1
    items = [EvalItem(c, refs) for c, refs in zip(candidates, references)]
    spice = None
    if args.spice_scores:
        payload = json.loads(Path(args.spice_scores).read_text())
        spice = payload["per_item"] if isinstance(payload, dict) else list(payload)

    # the references alone fix the encoder, so an item's score does not
    # depend on the other items' candidates
    vocab = build_vocab([r for refs in references for r in refs], kind="subword",
                        target_size=config.subword_vocab_size)
    embed = sentence_embedder(build_encoder(config.model, vocab), vocab)
    report = evaluate_corpus(items, embedder=embed, lexicons=FluencyLexicons.default(),
                             spice_per_item=spice, sbert_agg=config.sbert_agg)
    report.save(args.out)
    print(json.dumps({k: v for k, v in report.to_dict().items() if k != "per_item"}, indent=2))
    return 0


def _cmd_ablate(args) -> int:
    report = run_ablation(parse_config(args.config, args.set), args.out)
    failed = [k for k, c in report["cells"].items() if c["status"] != "ok"]
    print((Path(args.out) / "ablation.md").read_text())
    if failed:
        print(f"failed cells: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    failures = []
    for seed in range(args.seeds):
        for name, (f, inputs) in ad.gradcheck_cases(np.random.default_rng(seed)).items():
            report = ad.grad_check(f, inputs, eps=args.eps, rtol=args.rtol)
            worst = max(worst, report.max_rel_error)
            if not report.passed:
                failures.append((seed, name, report.max_rel_error))
    print(f"gradcheck over {args.seeds} seeds: max relative error {worst:.3e} (rtol {args.rtol})")
    if failures:
        for seed, name, err in failures:
            print(f"  FAIL seed={seed} op={name} err={err:.3e}", file=sys.stderr)
        return 1
    return 0


def _cmd_plot(args) -> int:
    try:
        plot_curves(args.curves, args.out_csv, args.out_png)
    except ImportError as err:
        print(err, file=sys.stderr)
        return 1
    print(f"wrote {args.out_csv}" + (f" and {args.out_png}" if args.out_png else ""))
    return 0


def _add_set(p, what: str = "a config key, applied after --config") -> None:
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help=f"override {what}; repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sercap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate the synthetic corpus splits")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    _add_set(p)
    p.set_defaults(func=_cmd_synth_data)

    p = sub.add_parser("train", help="train one run from a config file")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--resume")
    _add_set(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("decode", help="caption a feature container with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_set(p, "a decode.* config key, over the checkpoint's value")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("evaluate", help="score candidates against grouped references")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spice-scores")
    p.add_argument("--config")
    _add_set(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="run the tokenizer x lambda x wd grid")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    _add_set(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference checks over the op set")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--rtol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("plot", help="merge learning curves to CSV (and optional PNG)")
    p.add_argument("--curves", nargs="+", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-png")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"sercap {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
