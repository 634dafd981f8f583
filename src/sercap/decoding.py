"""Constrained caption generation.

Beam search with three hard constraints: a minimum and maximum emitted
length, and a ban on repeating any non-stopword token.  Scores are raw
log-probability sums (no length normalization); ties break
lexicographically on token ids so decoding is fully deterministic.

``decode_corpus`` searches every clip in lockstep through one
incremental decoder state (``model.decoder_state``): each step feeds
only the newest token of every live hypothesis, with the row it extends
and its clip, and the state keeps each layer's attention keys and
values.  ``exhaustive_search`` enumerates every mask-legal sequence
through the full-prefix ``model.step_logits`` and serves as the
independent test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

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


def _advance(live, logprobs, cfg, vocab, finished):
    """One beam step for one clip.

    Every legal eos continuation is set aside into the finished pool;
    the surviving live set is the top ``beam_size`` non-eos candidates
    (ties: earlier hypothesis, then lower token id).  Returns the
    survivors and, for each, the index of the live hypothesis it extends.
    """
    cands = []
    for hi, h in enumerate(live):
        mask = allowed_tokens(h.tokens, cfg, vocab)
        lp = logprobs[hi]
        for tok in np.flatnonzero(mask):
            tok = int(tok)
            score = h.log_prob + lp[tok]
            if tok == EOS_ID:
                finished.append(BeamHypothesis(h.tokens + [tok], score, True))
            else:
                cands.append((score, hi, tok))
    cands.sort(key=lambda c: (-c[0], c[1], c[2]))
    kept = cands[: cfg.beam_size]
    survivors = [BeamHypothesis(live[hi].tokens + [tok], score, False) for score, hi, tok in kept]
    return survivors, [hi for _, hi, _ in kept]


def _best(finished) -> BeamHypothesis:
    if not finished:
        raise RuntimeError("beam search ended with no finished hypothesis")
    return min(finished, key=lambda h: (-h.log_prob, h.tokens))


def _should_stop(live, finished) -> bool:
    if not live:
        return True
    if not finished:
        return False
    # scores only decrease along a path, so once the best finished
    # hypothesis strictly beats every live one, no extension can win
    return max(f.log_prob for f in finished) > max(h.log_prob for h in live)


def beam_search(memory, model, cfg: DecodeConfig, vocab: Vocabulary) -> BeamHypothesis:
    """Highest log-prob finished hypothesis under the constraint masks:
    the one-clip case of ``decode_corpus``."""
    return decode_corpus([memory], model, cfg, vocab)[0]


def greedy_search(memory, model, cfg: DecodeConfig, vocab: Vocabulary) -> BeamHypothesis:
    """Greedy decoding: the beam-size-1 special case of the same search."""
    return beam_search(memory, model, replace(cfg, beam_size=1), vocab)


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
    n = len(memories)
    state = model.decoder_state(memories)
    live: list[list[BeamHypothesis]] = [[BeamHypothesis([BOS_ID], 0.0, False)] for _ in range(n)]
    finished: list[list[BeamHypothesis]] = [[] for _ in range(n)]
    # the first step starts each clip's empty prefix with bos
    tokens, parents, clips = [BOS_ID] * n, list(range(n)), list(range(n))
    while tokens:
        logprobs = _log_probs(state.step(tokens, parents, clips))
        tokens, parents, clips = [], [], []
        row = 0
        for ci in range(n):
            k = len(live[ci])
            if k == 0:
                continue
            live[ci], picked = _advance(live[ci], logprobs[row : row + k], cfg, vocab, finished[ci])
            if _should_stop(live[ci], finished[ci]):
                live[ci] = []
            for h, hi in zip(live[ci], picked):
                tokens.append(h.tokens[-1])
                parents.append(row + hi)
                clips.append(ci)
            row += k
    return [_best(f) for f in finished]


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
