"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The training-based
criteria share one study fixture: three seeds by three cells (baseline,
regression-loss, large-weight-decay) on the default synthetic split,
with a reduced study model so the whole grid stays inside its runtime
budget on a small machine.
"""
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from sercap import autodiff as ad
from sercap.autodiff import Tape, Tensor
from sercap.config import ExperimentConfig, clone, parse_config, to_manifest
from sercap.data import EventGrammar, generate_split
from sercap.decoding import DecodeConfig, beam_search, exhaustive_search, greedy_search
from sercap.harness import evaluate_split, load_checkpoint, load_params, param_l2, train
from sercap.losses import combined_loss, cross_entropy_smoothed, smooth_l1, ser_loss
from sercap.metrics import EvalItem, cross_reference, fense_compose, spider
from sercap.model import CaptionerModel, ModelConfig, SentenceEncoder
from sercap.optim import AdamW, OptimConfig, cosine_lr, make_param_groups
from sercap.text import BOS_ID, EOS_ID, SPECIAL_TOKENS, Vocabulary


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def study_config(ser_weight: float, weight_decay: float, seed: int) -> ExperimentConfig:
    """The reduced study model (``configs/study.cfg``, dropout off) on the
    default synthetic split, at one lambda x weight-decay cell."""
    return parse_config(CONFIGS / "study.cfg", [
        f"loss.lambda={ser_weight!r}", f"optim.wd={weight_decay!r}", f"experiment.seed={seed}",
    ])


STUDY_SEEDS = (0, 1, 2)
STUDY_CELLS = {
    "baseline": (0.0, 1e-6),
    "ser": (100.0, 1e-6),
    "wd2": (0.0, 2.0),
}


def _hand_built_study_config(ser_weight: float, weight_decay: float, seed: int) -> ExperimentConfig:
    # the study cell's values, spelled out; configs/study.cfg must reproduce them
    cfg = ExperimentConfig()
    cfg.model.d_model = 96
    cfg.model.decoder_layers = 2
    cfg.model.heads = 4
    cfg.model.d_ff = 192
    cfg.model.d_enc = 64
    cfg.model.d_sent = 128
    cfg.model.dropout = 0.0
    cfg.optim.epochs = 40
    cfg.optim.weight_decay = weight_decay
    cfg.loss.ser_weight = ser_weight
    cfg.batch_size = 64
    cfg.seed = seed
    return cfg


def test_presets_match_hand_built_configs():
    # pins the runs the study fixture and the overfit criterion train, down
    # to the JSON types of the manifest values
    def manifest_json(cfg):
        return json.dumps(to_manifest(cfg), sort_keys=True)

    for lam, wd in STUDY_CELLS.values():
        for seed in STUDY_SEEDS:
            assert manifest_json(study_config(lam, wd, seed)) == \
                manifest_json(_hand_built_study_config(lam, wd, seed))
    overfit = _hand_built_study_config(0.0, 1e-6, seed=0)
    overfit.corpus.n_train = 32
    overfit.corpus.n_val = 8
    overfit.corpus.n_test = 8
    overfit.corpus.noise_sigma = 0.0
    overfit.optim.epochs = 100
    overfit.batch_size = 8
    overfit.loss.label_smoothing = 0.0
    assert manifest_json(parse_config(CONFIGS / "overfit.cfg")) == manifest_json(overfit)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Nine training runs plus test-split evaluation at the best epoch."""
    root = tmp_path_factory.mktemp("study")
    t0 = time.time()
    out = {"cells": {}, "elapsed": None}
    for label, (lam, wd) in STUDY_CELLS.items():
        runs = []
        for seed in STUDY_SEEDS:
            result = train(study_config(lam, wd, seed), root / label / f"seed{seed}")
            load_params(result.experiment.model, load_checkpoint(result.best_ckpt))
            report, _ = evaluate_split(result.experiment, result.experiment.test_clips)
            # final (post-training) norms come from the last checkpoint
            load_params(result.experiment.model, load_checkpoint(result.last_ckpt))
            runs.append({
                "seed": seed,
                "curve": result.curve,
                "test_report": report,
                "experiment": result.experiment,
                "final_param_l2": param_l2(result.experiment.model),
                "final_bias_l2": param_l2(result.experiment.model, exempt=True),
            })
        out["cells"][label] = runs
    out["elapsed"] = time.time() - t0
    return out


# ---------------------------------------------------------------------------
# criterion: gradient suite (< 1e-4 over >= 10 seeds, < 2 min)
# ---------------------------------------------------------------------------


def _composite_loss_fn(seed: int):
    cfg = ModelConfig(
        vocab_size=6, d_model=8, decoder_layers=1, heads=2, d_ff=12,
        dropout=0.0, d_enc=4, d_sent=8, max_len=6, sent_layers=1,
        sent_heads=2, sent_seed=seed + 100,
    )
    model = CaptionerModel(cfg, seed=seed)
    model.eval_mode()
    encoder = SentenceEncoder(6, d_sent=8, layers=1, heads=2, seed=seed + 200)
    rng = np.random.default_rng(seed + 300)
    feats = rng.normal(0, 1, (3, 4))
    tokens = np.array([[BOS_ID, 4, 5]])
    targets = np.array([[4, 5, EOS_ID]])
    ref_ids = np.array([[BOS_ID, 5, 4, EOS_ID]])
    target_vec = encoder.embed_tokens(ref_ids).detach()

    def loss_fn(*params):
        memory = model.encode_project(feats)
        out = model.decode_teacher_forced(memory, tokens)
        lt = cross_entropy_smoothed(out.logits, targets, label_smoothing=0.1)
        pred = encoder.embed_vectors(model.ser_project(out.token_embeddings))
        ls = ser_loss(pred, target_vec, "smooth_l1", 1.0)
        return combined_loss(lt, ls, 100.0)

    return loss_fn, [t for _, t in model.named_params()]


def test_acceptance_gradient_suite():
    with criterion("gradient-suite"):
        t0 = time.time()
        for seed in range(10):
            for name, (f, inputs) in ad.gradcheck_cases(np.random.default_rng(seed)).items():
                report = ad.grad_check(f, inputs, eps=1e-5, rtol=1e-4)
                assert report.passed, f"primitive {name} failed at seed {seed}: {report.max_rel_error:.2e}"

            loss_fn, params = _composite_loss_fn(seed)
            report = ad.grad_check(loss_fn, params, eps=1e-5, rtol=1e-4)
            assert report.passed, f"composite failed at seed {seed}: {report.max_rel_error:.2e}"
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# criterion: baseline recovery (lambda=0 bitwise equals branch-disabled)
# ---------------------------------------------------------------------------


def _tiny_config(**overrides):
    cfg = ExperimentConfig()
    cfg.model.d_model = 16
    cfg.model.decoder_layers = 1
    cfg.model.heads = 2
    cfg.model.d_ff = 32
    cfg.model.d_enc = 8
    cfg.model.d_sent = 16
    cfg.model.sent_heads = 2
    cfg.corpus.n_train = 8
    cfg.corpus.n_val = 4
    cfg.corpus.n_test = 4
    cfg.optim.epochs = 3
    cfg.batch_size = 4
    for key, value in overrides.items():
        obj = cfg
        parts = key.split("__")
        for part in parts[:-1]:
            obj = getattr(obj, part)
        setattr(obj, parts[-1], value)
    return cfg


def _params_bytes(model):
    return b"".join(t.data.tobytes() for _, t in model.named_params())


def test_acceptance_baseline_recovery(tmp_path):
    with criterion("baseline-recovery"):
        on = train(_tiny_config(loss__ser_weight=0.0, loss__ser_branch="on"), tmp_path / "on")
        off = train(_tiny_config(loss__ser_weight=0.0, loss__ser_branch="off"), tmp_path / "off")
        assert _params_bytes(on.experiment.model) == _params_bytes(off.experiment.model)
        assert [r.train_loss for r in on.curve] == [r.train_loss for r in off.curve]
        assert [r.val_ce for r in on.curve] == [r.val_ce for r in off.curve]


# ---------------------------------------------------------------------------
# criterion: smooth-L1 correctness
# ---------------------------------------------------------------------------


def test_acceptance_smooth_l1():
    with criterion("smooth-l1"):
        assert smooth_l1(Tensor([0.5]), Tensor([0.0]), beta=1.0).item() == 0.125
        assert smooth_l1(Tensor([2.0]), Tensor([0.0]), beta=1.0).item() == 1.5
        lo = smooth_l1(Tensor([1.0 - 1e-9]), Tensor([0.0]), beta=1.0).item()
        hi = smooth_l1(Tensor([1.0 + 1e-9]), Tensor([0.0]), beta=1.0).item()
        assert abs(hi - lo) < 1e-6
        grads = []
        for d in (1.0 - 1e-9, 1.0 + 1e-9):
            x = Tensor([d], requires_grad=True)
            with Tape() as tape:
                loss = smooth_l1(x, Tensor([0.0]), beta=1.0)
            tape.backward(loss)
            grads.append(x.grad[0])
        assert abs(grads[0] - grads[1]) < 1e-6


# ---------------------------------------------------------------------------
# criterion: overfit sanity (32 noise-free clips, CE < 0.1 within 100 epochs)
# ---------------------------------------------------------------------------


def test_acceptance_overfit_sanity(tmp_path):
    with criterion("overfit-sanity"):
        cfg = parse_config(CONFIGS / "overfit.cfg")
        t0 = time.time()
        result = train(cfg, tmp_path / "overfit")
        elapsed = time.time() - t0
        # dropout and the regression branch are off, so train_loss is the
        # teacher-forced CE in nats per token
        assert min(r.train_loss for r in result.curve) < 0.1
        assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# criteria from the shared study: regularization direction, wd mechanics,
# cross-referencing ceiling
# ---------------------------------------------------------------------------


def _rise(curve) -> float:
    ces = [r.val_ce for r in curve]
    return ces[-1] - min(ces)


def test_acceptance_regularization_direction(study):
    with criterion("regularization-direction"):
        rises = {
            label: float(np.mean([_rise(run["curve"]) for run in runs]))
            for label, runs in study["cells"].items()
        }
        assert rises["ser"] < rises["baseline"], rises
        assert rises["wd2"] < rises["baseline"], rises
        assert study["elapsed"] < 1800.0, f"study took {study['elapsed']:.0f}s"


def test_acceptance_weight_decay_mechanics(study):
    with criterion("weight-decay-mechanics"):
        for base_run, wd2_run in zip(study["cells"]["baseline"], study["cells"]["wd2"]):
            assert base_run["seed"] == wd2_run["seed"]
            assert wd2_run["final_param_l2"] < base_run["final_param_l2"]

        # exact geometric-contraction law under a zero-gradient probe
        cfg = OptimConfig(lr0=1e-3, weight_decay=2.0)
        weight = Tensor(np.array([0.75, -1.5]), requires_grad=True)
        bias = Tensor(np.array([0.25, 0.5]), requires_grad=True)
        opt = AdamW(make_param_groups([("w.W", weight), ("w.b", bias)]), cfg)
        expected = weight.data.copy()
        for _ in range(20):
            weight.grad = np.zeros(2)
            bias.grad = np.zeros(2)
            opt.step(lr=1e-3)
            expected = expected * (1.0 - 1e-3 * 2.0)
            np.testing.assert_array_equal(weight.data, expected)
            np.testing.assert_array_equal(bias.data, [0.25, 0.5])


def test_acceptance_cross_referencing(study):
    with criterion("cross-referencing"):
        runs = study["cells"]["baseline"]
        test_clips = runs[0]["experiment"].test_clips
        for clip in test_clips:
            assert len(clip.captions) == 5
            for i in range(5):
                fold_refs = [r for j, r in enumerate(clip.captions) if j != i]
                assert clip.captions[i] not in fold_refs

        from sercap.harness import sentence_embedder

        exp = runs[0]["experiment"]
        embed = sentence_embedder(exp.encoder, exp.sent_vocab)
        items = [EvalItem(candidate=c.captions[0], references=c.captions) for c in test_clips]
        ceiling = cross_reference(items, embedder=embed, lexicons=exp.lexicons)
        model_fenses = [
            run["test_report"].fense
            for cell in study["cells"].values()
            for run in cell
        ]
        assert all(f is not None for f in model_fenses)
        assert ceiling.fense > max(model_fenses), (ceiling.fense, model_fenses)


# ---------------------------------------------------------------------------
# criterion: beam-search oracle (100 random toy models)
# ---------------------------------------------------------------------------


class _ToyModel:
    def __init__(self, vocab_size: int, seed: int):
        self.vocab_size = vocab_size
        self.seed = seed

    def step_logits(self, memory, prefix):
        rng = np.random.default_rng([self.seed] + [int(t) for t in prefix])
        return rng.normal(0.0, 2.0, self.vocab_size)

    def step_logits_batch(self, memory, prefixes):
        return np.stack([self.step_logits(memory, p) for p in prefixes])


def test_acceptance_beam_search_oracle():
    with criterion("beam-search-oracle"):
        vocab = Vocabulary(
            kind="word",
            id_to_token=list(SPECIAL_TOKENS) + ["a", "dog", "cat", "man"],
        )
        stop = frozenset({"a"})
        for seed in range(100):
            max_len = 3 + seed % 3  # 3..5
            cfg_full = DecodeConfig(beam_size=vocab.size * max_len, min_len=1,
                                    max_len=max_len, stopwords=stop)
            model = _ToyModel(vocab.size, seed)
            beam = beam_search(None, model, cfg_full, vocab)
            exact = exhaustive_search(None, model, cfg_full, vocab)
            assert beam.tokens == exact.tokens, seed
            assert beam.log_prob == pytest.approx(exact.log_prob, abs=1e-12)

            cfg_one = DecodeConfig(beam_size=1, min_len=1, max_len=max_len, stopwords=stop)
            assert beam_search(None, model, cfg_one, vocab).tokens == \
                greedy_search(None, model, cfg_one, vocab).tokens

            for beam_size in (1, 2, cfg_full.beam_size):
                cfg = DecodeConfig(beam_size=beam_size, min_len=2, max_len=max_len, stopwords=stop)
                hyp = beam_search(None, model, cfg, vocab)
                emitted = hyp.emitted
                assert 2 <= len(emitted) <= max_len
                seen = set()
                for t in emitted:
                    if vocab.id_to_token[t] not in stop:
                        assert t not in seen
                        seen.add(t)


# ---------------------------------------------------------------------------
# criterion: CIDEr-D oracle
# ---------------------------------------------------------------------------


def test_acceptance_cider_oracle():
    with criterion("cider-oracle"):
        import random

        from sercap.metrics import cider_d, _metric_tokens
        from test_metrics import oracle_cider_d, random_item

        rng = random.Random(20240501)
        for _ in range(50):
            items = [random_item(rng, max_words=8) for _ in range(rng.randint(1, 5))]
            corpus, per_item = cider_d(items)
            o_corpus, o_items = oracle_cider_d(
                [_metric_tokens(i.candidate) for i in items],
                [[_metric_tokens(r) for r in i.references] for i in items],
            )
            np.testing.assert_allclose(per_item, o_items, atol=1e-9)
            np.testing.assert_allclose(corpus, o_corpus, atol=1e-9)

        identical = [
            EvalItem("a dog barks very loudly", ["a dog barks very loudly"]),
            EvalItem("rain falls on the roof", ["rain falls on the roof"]),
        ]
        corpus, per_item = cider_d(identical)
        np.testing.assert_allclose(per_item, 10.0, atol=1e-12)

        disjoint = [
            EvalItem("xylophone quartz", ["a dog barks loudly now"]),
            EvalItem("umbrella vortex", ["rain falls on a roof"]),
        ]
        corpus, per_item = cider_d(disjoint)
        assert per_item == [0.0, 0.0]


# ---------------------------------------------------------------------------
# criterion: FENSE composition and SPIDEr anchor arithmetic
# ---------------------------------------------------------------------------


def test_acceptance_fense_and_spider():
    with criterion("fense-composition"):
        scores = [0.6, 0.8, 0.31]
        flags = [False, True, False]
        _, per_item = fense_compose(scores, flags)
        assert per_item[0] == 0.6
        assert per_item[1] == 0.08
        assert per_item[2] == 0.31
        corpus, _ = spider([0.769], [0.181])
        assert round(corpus, 3) == 0.475


# ---------------------------------------------------------------------------
# criterion: cosine schedule endpoints (exact)
# ---------------------------------------------------------------------------


def test_acceptance_cosine_endpoints():
    with criterion("cosine-endpoints"):
        lr0 = 5e-4
        assert cosine_lr(0, 100, lr0) == lr0
        assert cosine_lr(100, 100, lr0) == 0.0
        assert cosine_lr(50, 100, lr0) == lr0 / 2


# ---------------------------------------------------------------------------
# criterion: resume determinism (split run bitwise equals straight run)
# ---------------------------------------------------------------------------


def test_acceptance_resume_determinism(tmp_path):
    with criterion("resume-determinism"):
        straight = train(_tiny_config(optim__epochs=4), tmp_path / "straight")
        train(_tiny_config(optim__epochs=4), tmp_path / "split", stop_after=2)
        resumed = train(
            _tiny_config(optim__epochs=4),
            tmp_path / "split",
            resume_from=tmp_path / "split" / "last.ckpt",
        )
        assert _params_bytes(straight.experiment.model) == _params_bytes(resumed.experiment.model)
