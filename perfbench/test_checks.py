"""Each benchmark check accepts the program's output and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from sercap import decoding, harness, metrics  # noqa: E402
from sercap.config import ExperimentConfig  # noqa: E402
from sercap.model import SentenceEncoder  # noqa: E402
from sercap.text import detokenize  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import EpochProbe, stratified  # noqa: E402


def tiny_config() -> ExperimentConfig:
    cfg = ExperimentConfig()
    m = cfg.model
    m.d_model, m.decoder_layers, m.heads, m.d_ff, m.dropout, m.max_len = 16, 1, 2, 32, 0.1, 16
    m.d_sent, m.sent_layers, m.sent_heads = 16, 1, 2
    cfg.decode.max_len = 6
    cfg.corpus.n_train, cfg.corpus.n_val, cfg.corpus.n_test = 32, 4, 12
    cfg.batch_size = 16
    cfg.optim.epochs = 2
    cfg.seed = cfg.corpus.seed = 5
    return cfg


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    probe = EpochProbe()
    with probe.installed():
        result = harness.train(tiny_config(), tmp_path_factory.mktemp("run"))
    exp = result.experiment
    exp.model.eval_mode()
    clips = exp.test_clips
    memories = [exp.model.encode_project(c.features).data for c in clips]
    hyps = decoding.decode_corpus(memories, exp.model, exp.decode_cfg, exp.vocab)
    candidates = [detokenize(h.tokens, exp.vocab) for h in hyps]
    embed = harness.sentence_embedder(exp.encoder, exp.sent_vocab)
    items = [metrics.EvalItem(c, clip.captions) for c, clip in zip(candidates, clips)]
    report = metrics.evaluate_corpus(items, embedder=embed, lexicons=exp.lexicons)
    train_caps = {c.captions[0] for c in exp.train_clips}
    targets = next(v for v in probe.embedded if set(v) == train_caps)
    return dict(result=result, exp=exp, clips=clips, memories=memories, hyps=hyps,
                candidates=candidates, embed=embed, report=report, targets=targets, probe=probe)


def decode_problems(run, hyps):
    exp = run["exp"]
    return checks.check_decode(exp.model, run["memories"], hyps, exp.decode_cfg, exp.vocab, sample=[0, 1])


def test_decode_check_accepts_program_output(run):
    assert decode_problems(run, run["hyps"]) == []


def test_decode_check_rejects_flipped_token(run):
    hyps = copy.deepcopy(run["hyps"])
    toks = hyps[0].tokens
    toks[1] = 4 if toks[1] != 4 else 5
    assert decode_problems(run, hyps)


def test_decode_check_rejects_shifted_log_prob(run):
    hyps = copy.deepcopy(run["hyps"])
    hyps[1].log_prob += 1e-7
    assert decode_problems(run, hyps)


def test_decode_check_rejects_short_caption(run):
    hyps = copy.deepcopy(run["hyps"])
    hyps[2] = dataclasses.replace(hyps[2], tokens=hyps[2].tokens[:2] + hyps[2].tokens[-1:])
    assert any("outside" in p for p in decode_problems(run, hyps))


def score_problems(run, per_item):
    refs = [c.captions for c in run["clips"]]
    return checks.check_scores(per_item, run["candidates"], refs, run["embed"])


def test_score_check_accepts_program_output(run):
    assert score_problems(run, run["report"].per_item) == []


@pytest.mark.parametrize("key", ["cider_d", "sbert", "fense"])
def test_score_check_rejects_perturbed_score(run, key):
    per_item = copy.deepcopy(run["report"].per_item)
    per_item[key][3] += 1e-7
    assert score_problems(run, per_item)


def test_score_check_rejects_fense_without_its_flag(run):
    per_item = copy.deepcopy(run["report"].per_item)
    per_item["flu_err"][0] = 1.0 - per_item["flu_err"][0]
    assert score_problems(run, per_item)


def test_independent_cider_on_a_hand_example():
    # one item: every n-gram occurs in every item's references, so idf is 0
    assert checks.cider_d(["a dog barks"], [["a dog barks"]]) == [0.0]
    refs = [["a dog barks loudly", "a dog barks"], ["a cat meows"]]
    scores = checks.cider_d(["a dog barks", "a cat meows"], refs)
    assert scores[1] == pytest.approx(10.0 * (1 + 1 + 1 + 0) / 4)  # exact match, no 4-grams
    assert 0.0 < scores[0] < scores[1]


def test_curve_check(run):
    curve = run["result"].curve
    cfg = run["exp"].config
    assert checks.check_curve(curve, cfg.optim.lr0, cfg.optim.epochs) == []
    bad_lr = [dataclasses.replace(r, lr=r.lr * (1 + 1e-9)) for r in curve]
    assert checks.check_curve(bad_lr, cfg.optim.lr0, cfg.optim.epochs)
    bad_loss = [dataclasses.replace(curve[0], train_loss=float("nan"))] + curve[1:]
    assert checks.check_curve(bad_loss, cfg.optim.lr0, cfg.optim.epochs)


def test_frozen_check(run):
    exp = run["exp"]
    m = exp.config.model
    fresh = SentenceEncoder(exp.sent_vocab.size, d_sent=m.d_sent, layers=m.sent_layers,
                            heads=m.sent_heads, seed=m.sent_seed)
    assert checks.check_frozen(exp.encoder, fresh) == []
    fresh.params["proj.b"].data[0] += 1e-12
    assert checks.check_frozen(exp.encoder, fresh) == ["encoder parameter proj.b changed"]


def test_embedding_check(run):
    exp = run["exp"]
    targets = dict(run["targets"])
    sample = sorted(targets)[:4]
    assert checks.check_embeddings(targets, exp.encoder, exp.sent_vocab, sample) == []
    targets[sample[2]] = targets[sample[2]] + 1e-8
    assert len(checks.check_embeddings(targets, exp.encoder, exp.sent_vocab, sample)) == 1


def test_gradient_check(run):
    exp = run["exp"]
    loss_fn = checks.training_step_loss(exp, [0, 1, 2, 3], run["targets"])
    params = dict(exp.model.named_params())
    grads = checks.tape_gradients(loss_fn, params)
    picks = checks.gradient_picks(grads, ["dec0.self.Wq", "ser.W"], np.random.default_rng(0))
    assert checks.check_gradients(loss_fn, params, grads, picks) == []
    name, idx = picks[0]
    grads[name][idx] += 1e-3
    assert len(checks.check_gradients(loss_fn, params, grads, picks)) == 1


def test_epoch_probe_marks_every_epoch(run):
    assert len(run["probe"].starts) == run["exp"].config.optim.epochs
    assert run["probe"].last_end > run["probe"].starts[-1]


def test_stratified_takes_equal_counts(run):
    picked = stratified(run["clips"], 2)
    assert sorted(len(c.events) for c in picked) == [1, 1, 2, 2, 3, 3]
    with pytest.raises(ValueError):
        stratified(run["clips"], len(run["clips"]))


def test_self_time_subtracts_children():
    tracer = Tracer()

    def inner():
        return tracer.run("b", sum, range(1000))

    tracer.run("a", lambda: [inner(), inner()])
    total, self_time, calls = tracer.totals()
    assert calls == {"a": 1, "b": 2}
    assert self_time["a"] == pytest.approx(total["a"] - total["b"])
    assert self_time["b"] == total["b"]
