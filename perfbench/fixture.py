"""Write the caption-long inputs: a default-width checkpoint and a test
feature container with its captions JSONL.

Run as ``python3 -m perfbench.fixture --seed N --out DIR`` with ``src`` and
the repository root importable.  It runs in its own process so that its
memory does not count towards the workload's peak.

The checkpoint holds the seed-initialised captioner and fresh AdamW
moments.  Decode cost depends on the weights' shapes and on caption
lengths, and ``decode.min_len`` fixes the lengths, so no training is
needed to give the decoder its full work.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from sercap import data, harness
from sercap.config import ExperimentConfig
from sercap.optim import AdamW, make_param_groups

from perfbench.workloads import SCORED_PER_COUNT, stratified


def make_fixture(seed: int, out: Path) -> None:
    cfg = ExperimentConfig()  # default width
    cfg.seed = cfg.corpus.seed = seed
    exp = harness.build_experiment(cfg)
    optimizer = AdamW(make_param_groups(exp.model.named_params()), cfg.optim)
    harness.save_checkpoint(
        out / "model.ckpt", config=cfg, model=exp.model, optimizer=optimizer, vocab=exp.vocab,
        sent_vocab=exp.sent_vocab, epoch=0, best_fense=float("-inf"), best_epoch=-1, rng_states={},
    )
    clips = stratified(exp.test_clips, SCORED_PER_COUNT["caption-long"])
    data.save_features(clips, out / "test_features.bin")
    data.save_captions(clips, out / "test_captions.jsonl")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    make_fixture(args.seed, args.out)
