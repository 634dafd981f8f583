import numpy as np
import pytest
from scipy.special import erf

from sercap import autodiff as ad
from sercap import losses
from sercap.autodiff import Tape, Tensor
from sercap.model import (
    CaptionerModel,
    ModelConfig,
    SentenceEncoder,
    pad_sequences,
    sinusoidal_positions,
)
from sercap.text import BOS_ID, EOS_ID, PAD_ID


def tiny_config(**kw):
    base = dict(
        vocab_size=7, d_model=8, decoder_layers=2, heads=2, d_ff=16,
        dropout=0.0, d_enc=5, d_sent=12, max_len=10,
        sent_layers=1, sent_heads=2, sent_seed=5,
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def model():
    m = CaptionerModel(tiny_config(), seed=3)
    m.eval_mode()
    return m


def features(rng, t=3, d=5):
    return rng.normal(0, 1, (t, d))


class TestEncodeProject:
    def test_zero_features_give_bias_rows(self, model):
        model.params["enc_proj.b"].data[:] = np.arange(8.0)
        out = model.encode_project(np.zeros((4, 5)))
        for row in out.data:
            np.testing.assert_array_equal(row, np.arange(8.0))

    def test_identity_initialized_projection(self):
        m = CaptionerModel(tiny_config(d_enc=8), seed=0)
        m.params["enc_proj.W"].data = np.eye(8)
        m.params["enc_proj.b"].data = np.zeros(8)
        x = np.random.default_rng(0).normal(0, 1, (1, 8))
        np.testing.assert_array_equal(m.encode_project(x).data, x)

    def test_dim_mismatch(self, model):
        with pytest.raises(ValueError):
            model.encode_project(np.zeros((3, 4)))

    def test_grad_check(self, model):
        x = Tensor(np.random.default_rng(1).normal(0, 1, (3, 5)), requires_grad=True)
        f = lambda a: (model.encode_project(a) * model.encode_project(a)).sum()
        assert ad.grad_check(f, [x]).passed


class TestDecodeTeacherForced:
    def test_causality_exact(self, model):
        rng = np.random.default_rng(2)
        mem = model.encode_project(features(rng))
        tokens = np.array([BOS_ID, 4, 5, 6, 4])
        base = model.decode_teacher_forced(mem, tokens).logits.data
        for t in range(1, len(tokens)):
            perturbed = tokens.copy()
            perturbed[t] = (perturbed[t] + 1) % 7 or 4
            out = model.decode_teacher_forced(mem, perturbed).logits.data
            np.testing.assert_array_equal(out[: t], base[: t])

    def test_memory_connectivity(self, model):
        rng = np.random.default_rng(3)
        f = features(rng)
        tokens = np.array([BOS_ID, 4, 5])
        a = model.decode_teacher_forced(model.encode_project(f), tokens).logits.data
        b = model.decode_teacher_forced(model.encode_project(f + 0.5), tokens).logits.data
        assert np.abs(a - b).max() > 1e-8

    def test_requires_bos(self, model):
        mem = model.encode_project(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            model.decode_teacher_forced(mem, np.array([4, 5]))

    def test_over_length_rejected(self, model):
        mem = model.encode_project(np.zeros((2, 5)))
        tokens = np.array([BOS_ID] + [4] * (model.config.max_len + 1))
        with pytest.raises(ValueError):
            model.decode_teacher_forced(mem, tokens)

    def test_training_needs_rng(self):
        m = CaptionerModel(tiny_config(dropout=0.2), seed=0)
        mem = m.encode_project(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            m.decode_teacher_forced(mem, np.array([BOS_ID, 4]))

    def test_eval_deterministic_bitwise(self, model):
        rng = np.random.default_rng(4)
        mem = model.encode_project(features(rng))
        tokens = np.array([BOS_ID, 4, 5, 6])
        a = model.decode_teacher_forced(mem, tokens).logits.data
        b = model.decode_teacher_forced(mem, tokens).logits.data
        assert a.tobytes() == b.tobytes()

    def test_batched_matches_single(self, model):
        rng = np.random.default_rng(5)
        f1, f2 = features(rng), features(rng)
        mem = model.encode_project(np.stack([f1, f2]))
        tokens = np.array([[BOS_ID, 4, 5], [BOS_ID, 6, 4]])
        out = model.decode_teacher_forced(mem, tokens).logits.data
        for i, (f, t) in enumerate([(f1, tokens[0]), (f2, tokens[1])]):
            single = model.decode_teacher_forced(model.encode_project(f), t).logits.data
            np.testing.assert_allclose(out[i], single, atol=1e-12)

    def test_end_to_end_grad_check(self):
        cfg = tiny_config(decoder_layers=2, d_model=4, heads=2, d_ff=8, vocab_size=5, d_enc=3)
        m = CaptionerModel(cfg, seed=11)
        m.eval_mode()
        rng = np.random.default_rng(12)
        feats = rng.normal(0, 1, (2, 3))
        tokens = np.array([BOS_ID, 4, 3])
        targets = np.array([4, 3, EOS_ID])

        def loss_fn(*params):
            mem = m.encode_project(feats)
            out = m.decode_teacher_forced(mem, tokens)
            return losses.cross_entropy_smoothed(
                out.logits.reshape(1, 3, 5), targets[None], label_smoothing=0.1
            )

        tensors = [t for _, t in m.named_params()]
        report = ad.grad_check(loss_fn, tensors, eps=1e-5, rtol=1e-4)
        assert report.passed, report.max_rel_error


class TestStepLogits:
    def test_matches_last_teacher_forced_row(self, model):
        rng = np.random.default_rng(6)
        mem = model.encode_project(features(rng))
        prefix = np.array([BOS_ID, 4, 5])
        full = model.decode_teacher_forced(mem, prefix, training=False).logits.data
        np.testing.assert_array_equal(model.step_logits(mem, prefix), full[-1])

    def test_dropout_disabled_even_in_train_mode(self):
        m = CaptionerModel(tiny_config(dropout=0.5), seed=1)
        m.train_mode()
        mem = m.encode_project(np.zeros((2, 5)))
        prefix = np.array([BOS_ID, 4])
        a = m.step_logits(mem, prefix)
        b = m.step_logits(mem, prefix)
        np.testing.assert_array_equal(a, b)

    def test_batch_agrees_with_single(self, model):
        rng = np.random.default_rng(7)
        mems = model.encode_project(np.stack([features(rng), features(rng)]))
        prefixes = np.array([[BOS_ID, 4], [BOS_ID, 5]])
        batch = model.step_logits_batch(mems.data, prefixes)
        for i in range(2):
            single = model.step_logits(mems.data[i], prefixes[i])
            np.testing.assert_allclose(batch[i], single, atol=1e-12)

    def test_hand_computed_logits(self):
        """Independent plain-numpy forward of a 1-layer model."""
        cfg = tiny_config(decoder_layers=1, d_model=4, heads=2, d_ff=8,
                          vocab_size=5, d_enc=3)
        m = CaptionerModel(cfg, seed=21)
        m.eval_mode()
        p = {k: v.data for k, v in m.named_params()}
        rng = np.random.default_rng(22)
        feats = rng.normal(0, 1, (2, 3))
        tokens = np.array([BOS_ID, 4, 3])

        def ln(x, g, b, eps=1e-5):
            mu = x.mean(-1, keepdims=True)
            xc = x - mu
            return g * xc / np.sqrt((xc * xc).mean(-1, keepdims=True) + eps) + b

        def gelu(x):
            return 0.5 * x * (1 + erf(x / np.sqrt(2)))

        def mha(x, kv, w, mask):
            L, S, d, h = x.shape[0], kv.shape[0], 4, 2
            dh = d // h
            q = (x @ w["Wq"] + w["bq"]).reshape(L, h, dh).transpose(1, 0, 2)
            k = (kv @ w["Wk"] + w["bk"]).reshape(S, h, dh).transpose(1, 0, 2)
            v = (kv @ w["Wv"] + w["bv"]).reshape(S, h, dh).transpose(1, 0, 2)
            scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
            if mask is not None:
                scores = scores + mask
            e = np.exp(scores - scores.max(-1, keepdims=True))
            attn = e / e.sum(-1, keepdims=True)
            out = (attn @ v).transpose(1, 0, 2).reshape(L, d)
            return out @ w["Wo"] + w["bo"]

        # position table recomputed from the formula
        pos = np.arange(len(tokens))[:, None]
        i = np.arange(2)[None, :]
        ang = pos / np.power(10000.0, 2 * i / 4)
        pe = np.zeros((len(tokens), 4))
        pe[:, 0::2] = np.sin(ang)
        pe[:, 1::2] = np.cos(ang)

        mem = feats @ p["enc_proj.W"] + p["enc_proj.b"]
        x = p["embed.table"][tokens] * 2.0 + pe  # sqrt(d_model) = 2
        L = len(tokens)
        causal = np.zeros((L, L))
        causal[np.triu_indices(L, 1)] = -np.inf
        w_self = {k2.split(".")[-1]: p[f"dec0.self.{k2.split('.')[-1]}"]
                  for k2 in p if k2.startswith("dec0.self")}
        w_cross = {k2.split(".")[-1]: p[f"dec0.cross.{k2.split('.')[-1]}"]
                   for k2 in p if k2.startswith("dec0.cross")}
        x = ln(x + mha(x, x, w_self, causal), p["dec0.ln1.gamma"], p["dec0.ln1.beta"])
        x = ln(x + mha(x, mem, w_cross, None), p["dec0.ln2.gamma"], p["dec0.ln2.beta"])
        ff = gelu(x @ p["dec0.ff.W1"] + p["dec0.ff.b1"]) @ p["dec0.ff.W2"] + p["dec0.ff.b2"]
        x = ln(x + ff, p["dec0.ln3.gamma"], p["dec0.ln3.beta"])
        expected = (x @ p["classifier.W"] + p["classifier.b"])[-1]

        got = m.step_logits(m.encode_project(feats), tokens)
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestDecoderState:
    @staticmethod
    def memories(model, n, seed):
        rng = np.random.default_rng(seed)
        return model.encode_project(np.stack([features(rng) for _ in range(n)])).data

    def test_matches_last_teacher_forced_row_at_every_position(self, model):
        mems = self.memories(model, 3, 20)
        rng = np.random.default_rng(21)
        L = model.config.max_len + 1
        prefixes = np.concatenate([np.full((3, 1), BOS_ID), rng.integers(3, 7, (3, L - 1))], axis=1)
        state = model.decoder_state(mems)
        rows = np.arange(3)
        for t in range(L):
            got = state.step(prefixes[:, t], rows, rows)
            full = model.decode_teacher_forced(mems, prefixes[:, : t + 1], training=False)
            np.testing.assert_allclose(got, full.logits.data[:, -1], rtol=0, atol=1e-12)

    def test_permuted_and_duplicated_parents(self, model):
        mems = self.memories(model, 3, 22)
        state = model.decoder_state(mems)
        prefixes, clips = [[BOS_ID]] * 3, [0, 1, 2]
        state.step([BOS_ID] * 3, [0, 1, 2], clips)
        # each step: (tokens, parents); later steps reorder and repeat rows
        steps = [([4, 5, 6], [0, 1, 2]),
                 ([3, 4, 5, 6], [2, 0, 0, 1]),
                 ([6, 6, 4, 5, 3], [3, 1, 0, 2, 2]),
                 ([5, 4], [4, 0])]
        for tokens, parents in steps:
            prefixes = [prefixes[p] + [t] for t, p in zip(tokens, parents)]
            clips = [clips[p] for p in parents]
            got = state.step(tokens, parents, clips)
            full = model.decode_teacher_forced(mems[clips], np.array(prefixes), training=False)
            np.testing.assert_allclose(got, full.logits.data[:, -1], rtol=0, atol=1e-12)

    def test_dropout_disabled_even_in_train_mode(self):
        m = CaptionerModel(tiny_config(dropout=0.5), seed=1)
        m.train_mode()
        mem = m.encode_project(np.zeros((1, 2, 5))).data
        got = [m.decoder_state(mem).step([BOS_ID], [0], [0]) for _ in range(2)]
        np.testing.assert_array_equal(got[0], got[1])
        np.testing.assert_allclose(got[0][0], m.step_logits(mem[0], [BOS_ID]), rtol=0, atol=1e-12)

    def test_over_length_rejected_like_teacher_forced(self, model):
        state = model.decoder_state(self.memories(model, 1, 23))
        for _ in range(model.config.max_len + 1):
            state.step([BOS_ID if state.position == 0 else 4], [0], [0])
        with pytest.raises(ValueError, match="exceeds max_len"):
            state.step([4], [0], [0])

    def test_first_token_must_be_bos(self, model):
        state = model.decoder_state(self.memories(model, 2, 24))
        with pytest.raises(ValueError, match="bos"):
            state.step([BOS_ID, 4], [0, 1], [0, 1])


class TestSerProject:
    def test_zero_input_bias_rows(self, model):
        model.params["ser.b"].data[:] = np.arange(12.0)
        out = model.ser_project(Tensor(np.zeros((1, 4, 8))))
        for row in out.data[0]:
            np.testing.assert_array_equal(row, np.arange(12.0))

    def test_shapes(self, model):
        out = model.ser_project(Tensor(np.zeros((1, 6, 8))))
        assert out.shape == (1, 6, 12)

    def test_default_dims_match_published_sizes(self):
        cfg = ModelConfig(vocab_size=10)
        assert cfg.d_model == 256 and cfg.d_sent == 768
        assert cfg.decoder_layers == 6 and cfg.heads == 4
        assert cfg.dropout == 0.2 and cfg.max_len == 30

    def test_grad_check(self, model):
        x = Tensor(np.random.default_rng(8).normal(0, 1, (1, 3, 8)), requires_grad=True)
        f = lambda a: (model.ser_project(a) * model.ser_project(a)).sum()
        assert ad.grad_check(f, [x]).passed


@pytest.fixture
def encoder():
    return SentenceEncoder(vocab_size=9, d_sent=12, layers=1, heads=2, seed=5)


class TestSentenceEncoder:
    def test_deterministic(self, encoder):
        ids = np.array([1, 4, 5, 6, 2])
        a = encoder.embed_tokens(ids).data
        b = encoder.embed_tokens(ids).data
        assert a.tobytes() == b.tobytes()

    def test_same_seed_same_params(self):
        a = SentenceEncoder(9, d_sent=12, layers=1, heads=2, seed=5)
        b = SentenceEncoder(9, d_sent=12, layers=1, heads=2, seed=5)
        assert a.param_hash() == b.param_hash()

    def test_permutation_sensitive(self, encoder):
        a = encoder.embed_tokens(np.array([1, 4, 5, 6, 2])).data
        b = encoder.embed_tokens(np.array([1, 6, 5, 4, 2])).data
        assert np.abs(a - b).max() > 1e-8

    def test_bypass_identity_exact(self, encoder):
        ids = np.array([[1, 4, 5, 2]])
        full = encoder.embed_tokens(ids).data
        vectors = ad.embedding_lookup(encoder.params["embed.table"], ids)
        bypass = encoder.embed_vectors(vectors).data
        assert full.tobytes() == bypass.tobytes()

    def test_body_params_stay_frozen(self, encoder):
        x = Tensor(np.random.default_rng(9).normal(0, 1, (1, 3, 12)), requires_grad=True)
        with Tape() as tape:
            out = encoder.embed_vectors(x)
            loss = (out * out).sum()
        tape.backward(loss)
        assert x.grad is not None and np.abs(x.grad).max() > 0
        assert all(t.grad is None for _, t in encoder.params.named())

    def test_grad_check_wrt_inputs(self, encoder):
        x = Tensor(np.random.default_rng(10).normal(0, 1, (1, 3, 12)), requires_grad=True)
        f = lambda a: (encoder.embed_vectors(a) * encoder.embed_vectors(a)).sum()
        assert ad.grad_check(f, [x]).passed

    def test_padded_batch_matches_unpadded(self, encoder):
        ids, mask = pad_sequences([[1, 4, 5, 2], [1, 6, 2]])
        batch = encoder.embed_tokens(ids, mask).data
        solo = encoder.embed_tokens(np.array([1, 6, 2])).data
        np.testing.assert_allclose(batch[1], solo, atol=1e-12)

    def test_all_pad_pool_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.embed_vectors(Tensor(np.zeros((1, 2, 12))), np.zeros((1, 2)))


class TestHelpers:
    def test_pad_sequences(self):
        ids, mask = pad_sequences([[1, 2, 3], [1, 2]], pad_id=PAD_ID)
        np.testing.assert_array_equal(ids, [[1, 2, 3], [1, 2, 0]])
        np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 1, 0]])

    def test_positional_encoding_bounds(self):
        pe = sinusoidal_positions(16, 8)
        assert pe.shape == (16, 8)
        assert np.abs(pe).max() <= 1.0
        assert not np.allclose(pe[0], pe[1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(d_model=9).validate()  # not divisible by heads=2
        with pytest.raises(ValueError):
            tiny_config(dropout=1.0).validate()
        with pytest.raises(ValueError):
            tiny_config(vocab_size=0).validate()
