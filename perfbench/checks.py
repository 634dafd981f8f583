"""Output checks, each computed apart from the code path it checks.

Every function returns a list of problems; an empty list means the check
passed.  None of them runs inside a timed region.
"""
from __future__ import annotations

import math
import unicodedata
from collections import Counter

import numpy as np

from sercap.autodiff import Tape, Tensor
from sercap.decoding import beam_search
from sercap.losses import combined_loss, cross_entropy_smoothed, ser_loss
from sercap.model import pad_sequences
from sercap.text import BOS_ID, EOS_ID, subword_tokenize, tokenize

ABS_TOL = 1e-9
GRAD_EPS = 1e-5
GRAD_RTOL = 1e-4  # the gradient suite's tolerance


def _words(text: str) -> list[str]:
    kept = "".join(ch for ch in text.lower() if not unicodedata.category(ch).startswith("P"))
    return kept.split()


def _grams(words: list[str], n_max: int) -> Counter:
    return Counter(tuple(words[i : i + n]) for n in range(1, n_max + 1) for i in range(len(words) - n + 1))


def cider_d(candidates: list[str], references: list[list[str]], n_max: int = 4, sigma: float = 6.0) -> list[float]:
    """Per-item CIDEr-D (Vedantam et al. 2015, the coco-caption "D" variant).

    tf-idf weights use raw n-gram counts and log(N) - log(max(1, df)),
    where df counts the items whose reference set holds the n-gram; the
    candidate's weight is clipped by the reference's in the dot product,
    each reference pair is damped by a Gaussian length penalty, and the
    per-order mean is scaled by 10.
    """
    cand_grams = [_grams(_words(c), n_max) for c in candidates]
    ref_grams = [[_grams(_words(r), n_max) for r in refs] for refs in references]
    df: Counter = Counter()
    for grams in ref_grams:
        df.update(set().union(*grams))
    log_n = math.log(len(candidates))

    def weights(grams: Counter) -> tuple[dict, np.ndarray]:
        w = {g: tf * (log_n - math.log(max(1.0, df[g]))) for g, tf in grams.items()}
        norms = np.zeros(n_max)
        for g, x in w.items():
            norms[len(g) - 1] += x * x
        return w, np.sqrt(norms)

    scores = []
    for cand, c_grams, r_list, refs in zip(candidates, cand_grams, ref_grams, references):
        cw, cn = weights(c_grams)
        c_len = len(_words(cand))
        total = np.zeros(n_max)
        for ref, r_grams in zip(refs, r_list):
            rw, rn = weights(r_grams)
            dots = np.zeros(n_max)
            for g, x in cw.items():
                if g in rw:
                    dots[len(g) - 1] += min(x, rw[g]) * rw[g]
            denom = cn * rn
            cos = np.divide(dots, denom, out=np.zeros(n_max), where=denom != 0)
            total += cos * math.exp(-((c_len - len(_words(ref))) ** 2) / (2 * sigma * sigma))
        scores.append(10.0 * float(np.mean(total / len(refs))))
    return scores


def check_scores(per_item: dict, candidates: list[str], references: list[list[str]], embed) -> list[str]:
    """CIDEr-D against ``cider_d`` above, sbert against the mean cosine of
    the embedder's vectors, FENSE against sbert and the fluency flags."""
    problems = []
    expected = cider_d(candidates, references)
    for i, (got, want) in enumerate(zip(per_item["cider_d"], expected)):
        if not abs(got - want) <= ABS_TOL:
            problems.append(f"item {i}: cider_d {got!r}, independent {want!r}")
    for i, (cand, refs) in enumerate(zip(candidates, references)):
        c = embed(cand)
        cos = [float(np.dot(c, r) / (np.linalg.norm(c) * np.linalg.norm(r))) for r in map(embed, refs)]
        want = sum(cos) / len(cos)
        got = per_item["sbert"][i]
        if not abs(got - want) <= ABS_TOL:
            problems.append(f"item {i}: sbert {got!r}, mean cosine {want!r}")
        flagged = per_item["flu_err"][i] == 1.0
        want_fense = got / 10.0 if flagged else got
        if per_item["fense"][i] != want_fense:
            problems.append(f"item {i}: fense {per_item['fense'][i]!r}, want {want_fense!r} (flag {flagged})")
    if not len(per_item["cider_d"]) == len(per_item["sbert"]) == len(per_item["fense"]) == len(candidates):
        problems.append("per-item score lists do not align with the items")
    return problems


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def check_decode(model, memories, hyps, cfg, vocab, sample: list[int]) -> list[str]:
    """Constraints of the search, each log-prob recomputed with one
    teacher-forced pass, and the ``sample`` clips re-decoded one at a time
    through ``beam_search``."""
    problems = []
    model.eval_mode()
    for i, (memory, h) in enumerate(zip(memories, hyps)):
        toks = list(h.tokens)
        if toks[0] != BOS_ID or toks[-1] != EOS_ID or not h.finished:
            problems.append(f"clip {i}: not framed bos ... eos")
            continue
        emitted = toks[1:-1]
        if not cfg.min_len <= len(emitted) <= cfg.max_len:
            problems.append(f"clip {i}: {len(emitted)} tokens outside [{cfg.min_len}, {cfg.max_len}]")
        content = [t for t in emitted if vocab.id_to_token[t] not in cfg.stopwords]
        if len(content) != len(set(content)) or EOS_ID in emitted:
            problems.append(f"clip {i}: repeats a non-stopword or emits eos early")
        logits = model.decode_teacher_forced(memory, np.asarray(toks[:-1]), training=False).logits.data
        logp = _log_softmax(logits)
        want = float(logp[np.arange(len(toks) - 1), toks[1:]].sum())
        if not abs(h.log_prob - want) <= ABS_TOL:
            problems.append(f"clip {i}: log-prob {h.log_prob!r}, teacher-forced {want!r}")
    for i in sample:
        single = beam_search(memories[i], model, cfg, vocab)
        if single.tokens != hyps[i].tokens:
            problems.append(f"clip {i}: batched tokens differ from single-clip beam_search")
    return problems


def check_curve(curve, lr0: float, total_epochs: int) -> list[str]:
    """Finite training loss and the closed-form cosine learning rate."""
    problems = []
    for row in curve:
        want = 0.5 * (1.0 + math.cos(row.epoch * math.pi / total_epochs)) * lr0
        if not math.isfinite(row.train_loss):
            problems.append(f"epoch {row.epoch}: train_loss {row.train_loss!r}")
        if not abs(row.lr - want) <= 1e-12 * lr0:
            problems.append(f"epoch {row.epoch}: lr {row.lr!r}, cosine rule {want!r}")
    return problems


def check_frozen(encoder, fresh) -> list[str]:
    """The trained run's encoder parameters equal a newly built encoder's."""
    now = dict(encoder.params.named())
    return [
        f"encoder parameter {name} changed"
        for name, t in fresh.params.named()
        if not np.array_equal(t.data, now[name].data)
    ]


def check_embeddings(vectors: dict, encoder, sent_vocab, sample: list[str]) -> list[str]:
    """Batched embeddings equal the one-caption ``embed_tokens`` result."""
    problems = []
    for cap in sample:
        want = encoder.embed_tokens(np.asarray(subword_tokenize(cap, sent_vocab))).data
        err = float(np.max(np.abs(vectors[cap] - want)))
        if not err <= ABS_TOL:
            problems.append(f"embedding of {cap!r} is {err:.3g} from the one-caption result")
    return problems


def tape_gradients(loss_fn, params: dict) -> dict:
    """Gradients of ``loss_fn()`` with respect to ``params`` through the tape."""
    for t in params.values():
        t.grad = None
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    return {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy() for name, t in params.items()}


def check_gradients(loss_fn, params: dict, grads: dict, picks: list[tuple[str, tuple]]) -> list[str]:
    """Central differences at the picked coordinates; the error measure is
    the gradient suite's |a - n| / max(|a|, |n|, 1)."""
    problems = []
    for name, idx in picks:
        data = params[name].data
        orig = data[idx]
        data[idx] = orig + GRAD_EPS
        plus = loss_fn().item()
        data[idx] = orig - GRAD_EPS
        minus = loss_fn().item()
        data[idx] = orig
        numeric = (plus - minus) / (2 * GRAD_EPS)
        analytic = float(grads[name][idx])
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        if not err < GRAD_RTOL:
            problems.append(f"{name}{list(idx)}: tape {analytic!r}, central difference {numeric!r}")
    return problems


def training_step_loss(exp, clip_ids: list[int], targets: dict):
    """The training objective of one step on ``clip_ids``, rebuilt from the
    model's public pieces; dropout masks come from a fixed generator so
    every call evaluates the same function."""
    cfg, net = exp.config, exp.model
    seqs = [tokenize(exp.train_clips[j].captions[0], exp.vocab) for j in clip_ids]
    feats = np.stack([exp.train_clips[j].features for j in clip_ids])
    in_ids, mask = pad_sequences([s[:-1] for s in seqs])
    tgt_ids, _ = pad_sequences([s[1:] for s in seqs])
    target = Tensor(np.stack([targets[exp.train_clips[j].captions[0]] for j in clip_ids])) if targets else None

    def loss():
        net.train_mode()
        out = net.decode_teacher_forced(net.encode_project(feats), in_ids, rng=np.random.default_rng(0))
        value = cross_entropy_smoothed(out.logits, tgt_ids, mask, cfg.loss.label_smoothing)
        if target is not None:
            pred = exp.encoder.embed_vectors(net.ser_project(out.token_embeddings), mask)
            reg = ser_loss(pred, target, cfg.loss.ser_kind, cfg.loss.beta)
            value = combined_loss(value, reg, cfg.loss.ser_weight)
        return value

    return loss


def gradient_picks(grads: dict, names: list[str], rng: np.random.Generator) -> list[tuple[str, tuple]]:
    """Per tensor, its largest-magnitude coordinate and one random one."""
    picks = []
    for name in names:
        g = grads[name]
        picks.append((name, tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(g)), g.shape))))
        picks.append((name, tuple(int(rng.integers(s)) for s in g.shape)))
    return picks
