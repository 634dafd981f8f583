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
    greedy_search,
)
from sercap.text import BOS_ID, EOS_ID, PAD_ID, SPECIAL_TOKENS, Vocabulary


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
            g = greedy_search(None, m, cfg1, v)
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

        cfg_m = ModelConfig(vocab_size=11, d_model=8, decoder_layers=1, heads=2,
                            d_ff=16, dropout=0.0, d_enc=4, d_sent=8, max_len=6,
                            sent_heads=2)
        model = CaptionerModel(cfg_m, seed=2)
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
        cfg_m = ModelConfig(vocab_size=v.size, d_model=8, decoder_layers=2, heads=2,
                            d_ff=16, dropout=0.0, d_enc=4, d_sent=8, max_len=8,
                            sent_heads=2)
        model = CaptionerModel(cfg_m, seed=5)
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

        cfg_m = ModelConfig(vocab_size=11, d_model=8, decoder_layers=1, heads=2,
                            d_ff=16, dropout=0.0, d_enc=4, d_sent=8, max_len=6,
                            sent_heads=2)
        model = CaptionerModel(cfg_m, seed=4)
        model.eval_mode()
        before = model.params.sha256()
        v = toy_vocab(content=("dog", "cat", "man", "rain", "wind"))
        mem = model.encode_project(np.random.default_rng(1).normal(0, 1, (3, 4))).data
        beam_search(mem, model, small_cfg(v, min_len=1, max_len=4), v)
        assert model.params.sha256() == before


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
