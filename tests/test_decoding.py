import numpy as np
import pytest

from sercap import blas, decoding
from sercap.decoding import (
    BeamHypothesis,
    DecodeConfig,
    allowed_tokens,
    beam_search,
    decode_corpus,
    exhaustive_search,
)
from sercap.text import BOS_ID, EOS_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID, Vocabulary


def toy_vocab(content=("dog", "cat", "man"), stop=("a", "the")):
    return Vocabulary(kind="word", id_to_token=list(SPECIAL_TOKENS) + list(stop) + list(content))


class PrefixReplayState:
    """Decoder state for the toy models: each row keeps its whole prefix
    and replays it through the toy's own ``step_logits``."""

    def __init__(self, model, memories):
        self.model, self.memories = model, memories
        self.prefixes = [[] for _ in memories]

    def step(self, tokens, parents, clips) -> np.ndarray:
        self.prefixes = [self.prefixes[p] + [int(t)] for t, p in zip(tokens, parents)]
        return np.stack([self.model.step_logits(self.memories[c], prefix)
                         for c, prefix in zip(clips, self.prefixes)])


class ToyModel:
    def decoder_state(self, memories):
        return PrefixReplayState(self, memories)


class RandomToyModel(ToyModel):
    """Deterministic pseudo-random next-token logits keyed on the prefix."""

    def __init__(self, vocab_size: int, seed: int):
        self.vocab_size = vocab_size
        self.seed = seed

    def step_logits(self, memory, prefix) -> np.ndarray:
        rng = np.random.default_rng([self.seed] + [int(t) for t in prefix])
        return rng.normal(0, 2.0, self.vocab_size)


class ForcedTokenModel(ToyModel):
    """Puts nearly all probability mass on one token, eos second."""

    def __init__(self, vocab_size: int, favorite: int):
        self.vocab_size = vocab_size
        self.favorite = favorite

    def step_logits(self, memory, prefix) -> np.ndarray:
        logits = np.full(self.vocab_size, -10.0)
        logits[self.favorite] = 5.0
        logits[EOS_ID] = 2.0
        return logits


class ClipToyModel(ToyModel):
    """Pseudo-random logits keyed on the clip (``memory[0, 0]``) and the
    prefix, rounded to ``step`` so that scores tie across rows; logits of
    ``-inf`` go to the tokens in ``never``."""

    def __init__(self, vocab_size: int, seed: int, step: float = 0.0, never=()):
        self.vocab_size, self.seed, self.step, self.never = vocab_size, seed, step, list(never)

    def step_logits(self, memory, prefix) -> np.ndarray:
        rng = np.random.default_rng([self.seed, int(memory[0, 0])] + [int(t) for t in prefix])
        logits = rng.normal(0, 2.0, self.vocab_size)
        if self.step:
            logits = np.round(logits / self.step) * self.step
        logits[self.never] = -np.inf
        return logits


def clip_memories(n):
    return [np.full((1, 1), float(c)) for c in range(n)]


def reference_search(memories, model, cfg, vocab) -> list[BeamHypothesis]:
    """The lockstep search one hypothesis and one token at a time, over
    ``allowed_tokens`` and Python lists: each clip's legal eos
    continuations join its finished pool, its survivors are the top
    ``beam_size`` other candidates by (-score, hypothesis, token), and it
    stops once its best finished hypothesis strictly beats every survivor."""
    n = len(memories)
    state = model.decoder_state(np.stack(memories))
    live = [[BeamHypothesis([BOS_ID], 0.0, False)] for _ in range(n)]
    finished = [[] for _ in range(n)]
    tokens, parents, clips = [BOS_ID] * n, list(range(n)), list(range(n))
    while tokens:
        logprobs = decoding._log_probs(state.step(tokens, parents, clips))
        tokens, parents, clips = [], [], []
        row = 0
        for ci in range(n):
            k = len(live[ci])
            if k == 0:
                continue
            cands = []
            for hi, h in enumerate(live[ci]):
                lp = logprobs[row + hi]
                for tok in np.flatnonzero(allowed_tokens(h.tokens, cfg, vocab)):
                    tok = int(tok)
                    score = h.log_prob + lp[tok]
                    if tok == EOS_ID:
                        finished[ci].append(BeamHypothesis(h.tokens + [tok], score, True))
                    else:
                        cands.append((score, hi, tok))
            cands.sort(key=lambda c: (-c[0], c[1], c[2]))
            kept = cands[: cfg.beam_size]
            live[ci] = [BeamHypothesis(live[ci][hi].tokens + [tok], score, False) for score, hi, tok in kept]
            if finished[ci] and kept and max(f.log_prob for f in finished[ci]) > kept[0][0]:
                live[ci], kept = [], []
            for score, hi, tok in kept:
                tokens.append(tok)
                parents.append(row + hi)
                clips.append(ci)
            row += k
    if not all(finished):
        raise RuntimeError("beam search ended with no finished hypothesis")
    return [min(f, key=lambda h: (-h.log_prob, h.tokens)) for f in finished]


def greedy_walk(memory, model, cfg, vocab) -> BeamHypothesis:
    """Beam size 1 as one live prefix over the full-prefix ``step_logits``
    and ``allowed_tokens``.  Each step offers the legal eos continuation to
    a finished pool ordered by (-log_prob, tokens), then extends the prefix
    by its best legal non-eos token, the lowest id on a tie.  The walk
    stops once the best finished entry strictly beats the live score, or
    at ``max_len``."""
    prefix, score, finished = [BOS_ID], 0.0, []
    while True:
        logits = model.step_logits(memory, np.array(prefix, dtype=np.int64))
        z = logits - logits.max()
        cand = score + z - np.log(np.exp(z).sum())
        legal = allowed_tokens(prefix, cfg, vocab)
        if legal[EOS_ID]:
            finished.append((-cand[EOS_ID], prefix + [EOS_ID]))
            legal[EOS_ID] = False
        if not legal.any():
            break
        tok = int(np.flatnonzero(legal)[np.argmax(cand[legal])])
        if min(finished, default=(np.inf,))[0] < -cand[tok]:
            break
        prefix, score = prefix + [tok], cand[tok]
    neg_log_prob, tokens = min(finished)
    return BeamHypothesis(tokens, -neg_log_prob, True)


def assert_same_hypotheses(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w  # tokens, log_prob (by ==) and finished
        assert type(g.log_prob) is type(w.log_prob)
        assert all(type(t) is int for t in g.tokens)


def small_cfg(vocab, **kw):
    base = dict(beam_size=2, min_len=2, max_len=4, stopwords=frozenset({"a", "the"}))
    base.update(kw)
    return DecodeConfig(**base)


class TestAllowedTokens:
    def test_eos_masked_below_min_len(self):
        v = toy_vocab()
        cfg = small_cfg(v, min_len=3)
        mask = allowed_tokens([BOS_ID], cfg, v)
        assert not mask[EOS_ID]
        assert not mask[PAD_ID] and not mask[BOS_ID]

    def test_non_stopword_banned_after_use(self):
        v = toy_vocab()
        cfg = small_cfg(v)
        dog = v.token_to_id["dog"]
        mask = allowed_tokens([BOS_ID, dog], cfg, v)
        assert not mask[dog]

    def test_stopword_allowed_again(self):
        v = toy_vocab()
        cfg = small_cfg(v)
        a = v.token_to_id["a"]
        mask = allowed_tokens([BOS_ID, a], cfg, v)
        assert mask[a]

    def test_max_len_forces_eos(self):
        v = toy_vocab()
        cfg = small_cfg(v, min_len=1, max_len=2)
        dog, cat = v.token_to_id["dog"], v.token_to_id["cat"]
        mask = allowed_tokens([BOS_ID, dog, cat], cfg, v)
        assert mask[EOS_ID]
        assert mask.sum() == 1

    def test_requires_bos(self):
        v = toy_vocab()
        with pytest.raises(ValueError):
            allowed_tokens([4, 5], small_cfg(v), v)


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        v = toy_vocab()
        cfg1 = small_cfg(v, beam_size=1)
        for seed in range(20):
            m = RandomToyModel(v.size, seed)
            b = beam_search(None, m, cfg1, v)
            g = greedy_walk(None, m, cfg1, v)
            assert b.tokens == g.tokens
            assert b.log_prob == pytest.approx(g.log_prob, abs=1e-12)

    def test_constraints_respected(self):
        v = toy_vocab()
        cfg = small_cfg(v, min_len=2, max_len=4)
        for seed in range(30):
            h = beam_search(None, RandomToyModel(v.size, seed), cfg, v)
            emitted = h.emitted
            assert cfg.min_len <= len(emitted) <= cfg.max_len
            assert h.tokens[0] == BOS_ID and h.tokens[-1] == EOS_ID
            seen = set()
            for t in emitted:
                surface = v.id_to_token[t]
                if surface not in cfg.stopwords:
                    assert t not in seen
                    seen.add(t)

    def test_forced_distribution(self):
        # favorite token until the repeat ban bites, then eos
        v = toy_vocab()
        cfg = small_cfg(v, min_len=1, max_len=4, beam_size=2)
        fav = v.token_to_id["dog"]
        h = beam_search(None, ForcedTokenModel(v.size, fav), cfg, v)
        assert h.emitted[0] == fav
        assert h.tokens[-1] == EOS_ID

    def test_matches_exhaustive_with_full_beam(self):
        v = toy_vocab()
        cfg_full = small_cfg(v, beam_size=v.size * 4, min_len=1, max_len=3)
        for seed in range(25):
            m = RandomToyModel(v.size, seed)
            b = beam_search(None, m, cfg_full, v)
            e = exhaustive_search(None, m, cfg_full, v)
            assert b.tokens == e.tokens
            assert b.log_prob == pytest.approx(e.log_prob, abs=1e-12)

    def test_monotone_in_beam_size(self):
        v = toy_vocab()
        for seed in range(25):
            m = RandomToyModel(v.size, seed)
            scores = []
            for beam in (1, 2, 4, 8):
                cfg = small_cfg(v, beam_size=beam, min_len=1, max_len=3)
                scores.append(beam_search(None, m, cfg, v).log_prob)
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_agrees_with_exhaustive_when_beam_covers_prefixes(self):
        v = toy_vocab(content=("dog",))
        cfg = small_cfg(v, beam_size=64, min_len=1, max_len=2)
        m = RandomToyModel(v.size, 3)
        assert beam_search(None, m, cfg, v).tokens == exhaustive_search(None, m, cfg, v).tokens


class TestExhaustive:
    def test_deterministic(self):
        v = toy_vocab()
        cfg = small_cfg(v, min_len=1, max_len=3)
        m = RandomToyModel(v.size, 11)
        a = exhaustive_search(None, m, cfg, v)
        b = exhaustive_search(None, m, cfg, v)
        assert a.tokens == b.tokens and a.log_prob == b.log_prob

    def test_guard(self):
        v = toy_vocab()
        cfg = small_cfg(v, min_len=1, max_len=4)
        with pytest.raises(RuntimeError):
            exhaustive_search(None, RandomToyModel(v.size, 0), cfg, v, guard=10)

    def test_tie_breaks_lexicographic(self):
        # uniform logits: every same-length sequence ties; want smallest ids
        class UniformModel(ToyModel):
            def __init__(self, n):
                self.n = n

            def step_logits(self, memory, prefix):
                return np.zeros(self.n)

        v = toy_vocab()
        cfg = small_cfg(v, min_len=1, max_len=2, beam_size=64)
        m = UniformModel(v.size)
        e = exhaustive_search(None, m, cfg, v)
        b = beam_search(None, m, cfg, v)
        # shortest legal sequence with the smallest legal token id (unk=3)
        from sercap.text import UNK_ID

        assert e.tokens == [BOS_ID, UNK_ID, EOS_ID]
        assert b.tokens == e.tokens


class TestDecodeCorpus:
    def test_steps_run_with_one_blas_thread(self):
        before = blas.thread_counts()
        seen = []

        class CountingToyModel(RandomToyModel):
            def step_logits(self, memory, prefix):
                seen.append(blas.thread_counts())
                return super().step_logits(memory, prefix)

        v = toy_vocab()
        decode_corpus([np.zeros((2, 4))] * 3, CountingToyModel(v.size, seed=3), small_cfg(v, beam_size=3), v)
        assert seen and all(c == [1] * len(before) for c in seen)
        assert blas.thread_counts() == before

    def test_matches_per_clip_beam_search(self):
        from sercap.model import CaptionerModel, ModelConfig

        cfg_m = ModelConfig(d_model=8, decoder_layers=1, heads=2,
                            d_ff=16, dropout=0.0, d_enc=4, d_sent=8, max_len=6,
                            sent_heads=2)
        model = CaptionerModel(cfg_m, 11, seed=2)
        model.eval_mode()
        v = toy_vocab(content=("dog", "cat", "man", "rain", "wind"))
        assert v.size == 11
        cfg = small_cfg(v, min_len=1, max_len=5)
        rng = np.random.default_rng(0)
        feats = [rng.normal(0, 1, (3, 4)) for _ in range(4)]
        memories = [model.encode_project(f).data for f in feats]
        batch = decode_corpus(memories, model, cfg, v)
        for mem, hyp in zip(memories, batch):
            solo = beam_search(mem, model, cfg, v)
            assert solo.tokens == hyp.tokens

    def test_cached_state_matches_full_prefix_replay(self):
        from sercap.model import CaptionerModel, ModelConfig

        v = toy_vocab(content=("dog", "cat", "man", "rain", "wind", "bird", "car", "bell"))
        cfg_m = ModelConfig(d_model=8, decoder_layers=2, heads=2,
                            d_ff=16, dropout=0.0, d_enc=4, d_sent=8, max_len=8,
                            sent_heads=2)
        model = CaptionerModel(cfg_m, v.size, seed=5)
        model.eval_mode()
        rng = np.random.default_rng(6)
        memories = [model.encode_project(rng.normal(0, 1, (3, 4))).data for _ in range(5)]
        cfg = small_cfg(v, beam_size=3, min_len=5, max_len=7)

        seen_parents = []
        make_state = model.decoder_state

        class RecordingState:
            def __init__(self, mems):
                self.inner = make_state(mems)

            def step(self, tokens, parents, clips):
                seen_parents.append(list(parents))
                return self.inner.step(tokens, parents, clips)

        model.decoder_state = RecordingState
        cached = decode_corpus(memories, model, cfg, v)
        # past the first two steps, beams were really reordered and duplicated
        assert any(p != sorted(p) for p in seen_parents[2:])
        assert any(len(set(p)) < len(p) for p in seen_parents[2:])

        class FullPrefix(ToyModel):
            def step_logits(self, memory, prefix):
                return model.step_logits(memory, np.array(prefix))

        replay = decode_corpus(memories, FullPrefix(), cfg, v)
        for a, b in zip(cached, replay):
            assert a.tokens == b.tokens
            assert a.log_prob == pytest.approx(b.log_prob, rel=0, abs=1e-10)

    def test_rejects_unequal_memories(self):
        v = toy_vocab()
        cfg = small_cfg(v)
        with pytest.raises(ValueError):
            decode_corpus([np.zeros((2, 3)), np.zeros((3, 3))], None, cfg, v)

    def test_side_effect_free_on_params(self):
        from sercap.model import CaptionerModel, ModelConfig

        cfg_m = ModelConfig(d_model=8, decoder_layers=1, heads=2,
                            d_ff=16, dropout=0.0, d_enc=4, d_sent=8, max_len=6,
                            sent_heads=2)
        model = CaptionerModel(cfg_m, 11, seed=4)
        model.eval_mode()
        before = model.params.sha256()
        v = toy_vocab(content=("dog", "cat", "man", "rain", "wind"))
        mem = model.encode_project(np.random.default_rng(1).normal(0, 1, (3, 4))).data
        beam_search(mem, model, small_cfg(v, min_len=1, max_len=4), v)
        assert model.params.sha256() == before


class TestMatchesReferenceSearch:
    """``decode_corpus`` against the per-hypothesis ``reference_search``:
    the same hypotheses, log-probs equal with ``==``."""

    LENGTHS = [(1, 1), (1, 3), (2, 4), (3, 3), (1, 6), (4, 6)]
    STOPWORDS = [frozenset({"a", "the"}), frozenset({"a"}), frozenset({"a", "the", "dog", "cat"}),
                 frozenset({"the", "<unk>"}), frozenset({"zzz"})]

    def check(self, model, v, n_clips, **kw):
        """Compare on ``n_clips`` clips; returns the number of distinct
        caption lengths, or 0 when both searches raised alike."""
        cfg = small_cfg(v, **kw)
        memories = clip_memories(n_clips)
        try:
            want = reference_search(memories, model, cfg, v)
        except RuntimeError as err:
            with pytest.raises(RuntimeError, match=str(err)):
                decode_corpus(memories, model, cfg, v)
            return 0
        assert_same_hypotheses(decode_corpus(memories, model, cfg, v), want)
        return len({len(h.tokens) for h in want})

    @pytest.mark.parametrize("beam", [1, 2, 3, 4, 5, 6])
    def test_beam_sizes_lengths_and_stopwords(self, beam):
        v = toy_vocab()
        spread = 0
        for i, (lo, hi) in enumerate(self.LENGTHS):
            for j, stop in enumerate(self.STOPWORDS):
                model = ClipToyModel(v.size, seed=100 * beam + 10 * i + j)
                spread = max(spread, self.check(model, v, 5, beam_size=beam, min_len=lo, max_len=hi,
                                                stopwords=stop))
        # some clips finished at a different step from their batch mates
        assert spread > 1

    def test_beams_of_at_least_the_vocabulary(self):
        v = toy_vocab()
        for beam in (v.size, v.size + 3, 2 * v.size):
            for seed, (lo, hi) in enumerate([(1, 3), (2, 4), (3, 3)]):
                self.check(ClipToyModel(v.size, seed), v, 3, beam_size=beam, min_len=lo, max_len=hi)

    def test_uniform_logits_tie_everywhere(self):
        v = toy_vocab()
        for beam in (1, 2, 3, 5, v.size):
            for lo, hi in self.LENGTHS:
                # rounded to steps of 1e6, every logit is 0
                self.check(ClipToyModel(v.size, 0, step=1e6), v, 3, beam_size=beam, min_len=lo, max_len=hi)

    def test_quantized_logits_tie_across_rows(self):
        v = toy_vocab()
        for seed in range(12):
            for beam in (2, 3, 4):
                self.check(ClipToyModel(v.size, seed, step=1.5), v, 4, beam_size=beam, min_len=1 + seed % 3,
                           max_len=4 + seed % 3)

    def test_minus_infinity_logits(self):
        v = toy_vocab()
        dog, a = v.token_to_id["dog"], v.token_to_id["a"]
        for seed in range(6):
            for never in ([dog], [a, dog], [EOS_ID]):
                self.check(ClipToyModel(v.size, seed, never=never), v, 3, beam_size=3, min_len=1, max_len=4)

    def test_finished_ties_a_survivor_that_goes_on_to_win(self):
        # after bos: unk or "a", even odds; after "a" only eos, after unk
        # only "the", then only eos (as after any other prefix).  [bos a
        # eos] ties the live [bos unk the] and must not stop the search:
        # [bos unk the eos] has the same score and comes first by token ids
        v = toy_vocab()
        a, the = v.token_to_id["a"], v.token_to_id["the"]
        script = {(BOS_ID,): [UNK_ID, a], (BOS_ID, UNK_ID): [the]}

        class Scripted(ToyModel):
            def step_logits(self, memory, prefix):
                logits = np.full(v.size, -np.inf)
                logits[script.get(tuple(prefix), [EOS_ID])] = 0.0
                return logits

        for beam in (2, 3):
            self.check(Scripted(), v, 2, beam_size=beam, min_len=1, max_len=4)
            hyp = decode_corpus(clip_memories(1), Scripted(), small_cfg(v, beam_size=beam, min_len=1,
                                                                        max_len=4), v)[0]
            assert hyp.tokens == [BOS_ID, UNK_ID, the, EOS_ID]
            assert hyp.log_prob == -np.log(2.0)

    def test_no_finished_hypothesis_raises_like_reference(self):
        # six legal tokens, none a stopword, each usable once: no caption reaches 7
        v = toy_vocab()
        assert self.check(ClipToyModel(v.size, 1), v, 2, beam_size=2, min_len=7, max_len=8,
                          stopwords=frozenset({"zzz"})) == 0

    def test_captioner_with_reordered_and_duplicated_beams(self):
        from sercap.model import CaptionerModel, ModelConfig

        v = toy_vocab(content=("dog", "cat", "man", "rain", "wind", "bird", "car", "bell"))
        cfg_m = ModelConfig(d_model=8, decoder_layers=2, heads=2,
                            d_ff=16, dropout=0.0, d_enc=4, d_sent=8, max_len=8,
                            sent_heads=2)
        model = CaptionerModel(cfg_m, v.size, seed=5)
        model.eval_mode()
        rng = np.random.default_rng(6)
        memories = [model.encode_project(rng.normal(0, 1, (3, 4))).data for _ in range(5)]
        seen_parents = []
        make_state = model.decoder_state

        class RecordingState:
            def __init__(self, mems):
                self.inner = make_state(mems)

            def step(self, tokens, parents, clips):
                seen_parents.append(list(parents))
                return self.inner.step(tokens, parents, clips)

        model.decoder_state = RecordingState
        for beam, lo, hi in [(3, 5, 7), (2, 1, 7), (4, 2, 5)]:
            cfg = small_cfg(v, beam_size=beam, min_len=lo, max_len=hi)
            seen_parents.clear()
            got = decode_corpus(memories, model, cfg, v)
            assert_same_hypotheses(got, reference_search(memories, model, cfg, v))
        seen_parents.clear()
        decode_corpus(memories, model, small_cfg(v, beam_size=3, min_len=5, max_len=7), v)
        assert any(p != sorted(p) for p in seen_parents[2:])
        assert any(len(set(p)) < len(p) for p in seen_parents[2:])


class TestDecodeConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.beam_size == 2
        assert cfg.min_len == 3 and cfg.max_len == 30
        assert "the" in cfg.stopwords

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ValueError):
            DecodeConfig(min_len=5, max_len=4)
        with pytest.raises(ValueError):
            DecodeConfig(stopwords=frozenset())
