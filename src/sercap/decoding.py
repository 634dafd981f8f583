"""Constrained caption generation.

Beam search with three hard constraints: a minimum and maximum emitted
length, and a ban on repeating any non-stopword token.  Scores are raw
log-probability sums (no length normalization); ties break
lexicographically on token ids so decoding is fully deterministic.

``decode_corpus`` searches every clip in lockstep through one
incremental decoder state (``model.decoder_state``): each step feeds
only the newest token of every live hypothesis, with the row it extends
and its clip, and the state keeps each layer's attention keys and
values.  The bookkeeping of a step is a few array passes over all live
rows of all clips at once (after Seki et al., "Vectorized Beam Search
for CTC-Attention-based Speech Recognition", 2019).  Each row carries a
(rows, vocab) ban mask inherited from its parent; all rows share one
emitted length, so the eos rules apply to the whole array.  A row's
candidates score ``score + log_prob``; every clip's (row, token) slots
are laid out in one row of a key array, illegal slots last, and a
stable sort keeps the first ``beam_size``, which breaks ties by row and
then token.  Eos continuations only update the clip's best finished
hypothesis, and a clip stops once that strictly beats its best
survivor.

``allowed_tokens`` states the masks one prefix at a time.  It serves
``exhaustive_search``, which enumerates every mask-legal sequence
through the full-prefix ``model.step_logits`` and is the independent
test oracle, and the per-hypothesis reference search of the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import single_threaded
from .text import BOS_ID, EOS_ID, PAD_ID, Vocabulary, load_stopwords


@dataclass
class DecodeConfig:
    beam_size: int = 2
    min_len: int = 3
    max_len: int = 30
    stopwords: frozenset[str] = field(default_factory=load_stopwords)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if not self.stopwords:
            raise ValueError("stopword set must be nonempty")


@dataclass
class BeamHypothesis:
    tokens: list[int]  # framed: starts with bos; ends with eos once finished
    log_prob: float
    finished: bool

    @property
    def emitted(self) -> list[int]:
        end = -1 if self.finished else len(self.tokens)
        return self.tokens[1:end]


def allowed_tokens(prefix, cfg: DecodeConfig, vocab: Vocabulary) -> np.ndarray:
    """Boolean mask of legal next tokens for a live bos-framed prefix.

    eos is masked below min_len and forced at max_len; any non-stopword
    token already emitted is banned; pad and bos are never legal.
    """
    prefix = list(prefix)
    if not prefix or prefix[0] != BOS_ID:
        raise ValueError("prefix must be framed with bos")
    emitted = prefix[1:]
    n = len(emitted)
    mask = np.ones(vocab.size, dtype=bool)
    mask[PAD_ID] = False
    mask[BOS_ID] = False
    if n >= cfg.max_len:
        mask[:] = False
        mask[EOS_ID] = True
        return mask
    if n < cfg.min_len:
        mask[EOS_ID] = False
    for tok in emitted:
        if vocab.id_to_token[tok] not in cfg.stopwords:
            mask[tok] = False
    return mask


def _log_probs(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def beam_search(memory, model, cfg: DecodeConfig, vocab: Vocabulary) -> BeamHypothesis:
    """Highest log-prob finished hypothesis under the constraint masks:
    the one-clip case of ``decode_corpus``."""
    return decode_corpus([memory], model, cfg, vocab)[0]


def decode_corpus(memories, model, cfg: DecodeConfig, vocab: Vocabulary) -> list[BeamHypothesis]:
    """Beam-search every clip in lockstep through one decoder state.

    All live hypotheses share the same prefix length at each step, so
    one ``state.step`` call feeds every clip's newest tokens; each row
    names the row of the previous step it extends and the clip it
    belongs to.  The search runs with BLAS on one thread (``blas``).
    """
    memories = [np.asarray(m) for m in memories]
    if any(m.shape != memories[0].shape for m in memories):
        raise ValueError("decode_corpus requires equal-shape memories")
    n = len(memories)
    if n == 0:
        return []
    # a step's products are a few rows each: one BLAS thread keeps them
    # from stalling on a second thread whenever the other CPU is busy
    with single_threaded():
        return _search(np.stack(memories), model, cfg, vocab)


def _search(memories, model, cfg, vocab) -> list[BeamHypothesis]:
    n, size = len(memories), vocab.size
    state = model.decoder_state(memories)
    # an emitted token bans itself from its row unless it is a stopword
    bans_itself = np.array([tok not in cfg.stopwords for tok in vocab.id_to_token])
    # live rows, grouped by clip in clip order; the first step starts each
    # clip's empty prefix with bos
    tokens, parents, clips = np.full(n, BOS_ID), np.arange(n), np.arange(n)
    scores = np.zeros(n)
    history = np.empty((n, 0), dtype=np.int64)
    # pad and bos are never legal; eos continuations go to ``_finish``,
    # never to the survivors
    banned = np.zeros((n, size), dtype=bool)
    banned[:, [PAD_ID, BOS_ID, EOS_ID]] = True
    # each clip's best finished hypothesis so far
    best_lp = np.full(n, -np.inf)
    best_tokens: list[list[int] | None] = [None] * n
    while len(tokens):
        cand = scores[:, None] + _log_probs(state.step(tokens, parents, clips))
        emitted = history.shape[1]
        first = np.flatnonzero(np.r_[True, clips[1:] != clips[:-1]])
        counts = np.diff(np.r_[first, len(clips)])
        group = np.repeat(np.arange(len(first)), counts)
        if emitted >= cfg.min_len:
            _finish(cand[:, EOS_ID], history, clips, group, first, best_lp, best_tokens)
        if emitted >= cfg.max_len:
            break
        # key of every (row, token) slot of a clip, padded to its widest
        # clip: -score where legal, NaN (sorted last) elsewhere; a stable
        # sort breaks score ties by row, then token
        key = np.full((len(first), counts.max(), size), np.nan)
        key[group, np.arange(len(clips)) - first[group]] = np.where(banned, np.nan, -cand)
        key = key.reshape(len(first), -1)
        order = np.argsort(key, axis=1, kind="stable")[:, : cfg.beam_size]
        picked = np.take_along_axis(key, order, axis=1)
        # scores only decrease along a path, so once a clip's best finished
        # hypothesis strictly beats its best survivor, no extension can win
        kept = ~np.isnan(picked) & ~(best_lp[clips[first]] > -picked[:, 0])[:, None]
        g, rank = np.nonzero(kept)
        slot = order[g, rank]
        parents, tokens, clips = first[g] + slot // size, slot % size, clips[first[g]]
        scores = cand[parents, tokens]
        history = np.concatenate([history[parents], tokens[:, None]], axis=1)
        banned = banned[parents]
        banned[np.arange(len(tokens)), tokens] |= bans_itself[tokens]
    if any(t is None for t in best_tokens):
        raise RuntimeError("beam search ended with no finished hypothesis")
    return [BeamHypothesis(t, lp, True) for t, lp in zip(best_tokens, best_lp)]


def _finish(eos, history, clips, group, first, best_lp, best_tokens) -> None:
    """Offer each clip the eos continuation of its rows: the best by
    (-log_prob, tokens) replaces the clip's best finished hypothesis
    when it comes first in that order."""
    # lexsort's last key is the primary one: group, then -score, then tokens
    rows = np.lexsort((*history.T[::-1], -eos, group))[first]
    for row, ci in zip(rows.tolist(), clips[first].tolist()):
        lp, old = eos[row], best_tokens[ci]
        if old is None or lp >= best_lp[ci]:
            tokens = [BOS_ID, *history[row].tolist(), EOS_ID]
            if old is None or lp > best_lp[ci] or tokens < old:
                best_lp[ci], best_tokens[ci] = lp, tokens


def exhaustive_search(memory, model, cfg: DecodeConfig, vocab: Vocabulary,
                      guard: int = 1_000_000) -> BeamHypothesis:
    """Global argmax over all mask-legal sequences, by depth-first
    enumeration.  Ties break lexicographically on token ids.  Raises if
    the enumeration exceeds ``guard`` expansions."""
    best: list = [None]
    count = [0]

    def recurse(prefix: list[int], log_prob: float) -> None:
        mask = allowed_tokens(prefix, cfg, vocab)
        lp = _log_probs(model.step_logits(memory, np.array(prefix, dtype=np.int64)))
        for tok in np.flatnonzero(mask):
            count[0] += 1
            if count[0] > guard:
                raise RuntimeError(f"exhaustive search exceeded guard of {guard} expansions")
            tok = int(tok)
            score = log_prob + lp[tok]
            if tok == EOS_ID:
                cand = BeamHypothesis(prefix + [tok], score, True)
                if best[0] is None or (-cand.log_prob, cand.tokens) < (-best[0].log_prob, best[0].tokens):
                    best[0] = cand
            else:
                recurse(prefix + [tok], score)

    recurse([BOS_ID], 0.0)
    return best[0]
