"""Captioning model and the frozen sentence encoder.

The captioner projects precomputed audio features to the decoder width,
runs a post-LN transformer decoder (causal self-attention over previous
tokens, cross-attention over the feature sequence, GELU feed-forward),
and exposes two heads: a token classifier producing logits and a linear
projection of the decoder output embeddings into the sentence-embedding
space used by the regression loss.  ``DecoderState`` runs the same
eval-mode decoder one position at a time for beam search, caching each
layer's attention keys and values.

The sentence encoder stands in for a pretrained sentence embedder: a
token-embedding table plus a small transformer encoder body with mean
pooling and a final projection.  Its parameters come from a fixed-seed
initializer and are never trained; the body accepts either token ids
(through its own table) or raw embedding-space vectors, which is what
lets gradients reach the captioner through the regression branch.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .text import BOS_ID, PAD_ID

NEG_INF = -np.inf


@dataclass
class ModelConfig:
    vocab_size: int = 0  # filled in once the vocabulary is built
    d_model: int = 256
    decoder_layers: int = 6
    heads: int = 4
    d_ff: int = 1024
    dropout: float = 0.2
    d_enc: int = 64
    d_sent: int = 768
    max_len: int = 30
    sent_layers: int = 2
    sent_heads: int = 4
    sent_seed: int = 9001

    def validate(self) -> None:
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.d_sent % self.sent_heads != 0:
            raise ValueError("d_sent must be divisible by sent_heads")
        for name in ("vocab_size", "d_model", "decoder_layers", "heads", "d_ff",
                     "d_enc", "d_sent", "max_len", "sent_layers", "sent_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


class ParamSet:
    """Ordered named parameters with trainable/frozen state."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray, requires_grad: bool = True) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name}")
        t = Tensor(data, requires_grad=requires_grad)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def named(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def n_elements(self) -> int:
        return sum(t.size for _, t in self._params.items())

    def sha256(self) -> str:
        h = hashlib.sha256()
        for name, t in self._params.items():
            h.update(name.encode())
            h.update(t.data.tobytes())
        return h.hexdigest()

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self._params.items():
            src = arrays[name]
            if src.shape != t.data.shape:
                raise ValueError(f"shape mismatch loading {name}")
            t.data = np.array(src, dtype=np.float64)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def sinusoidal_positions(n_positions: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos position table, one row per position."""
    pos = np.arange(n_positions)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((n_positions, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model - d_model // 2])
    return pe


def pad_sequences(seqs: list[list[int]], pad_id: int = PAD_ID) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length id lists into (ids, mask) with trailing pads."""
    max_len = max(len(s) for s in seqs)
    ids = np.full((len(seqs), max_len), pad_id, dtype=np.int64)
    mask = np.zeros((len(seqs), max_len), dtype=np.float64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = 1.0
    return ids, mask


def _causal_mask(n: int) -> np.ndarray:
    mask = np.zeros((n, n))
    mask[np.triu_indices(n, k=1)] = NEG_INF
    return mask


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.matmul(x, w) + b


def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, l, d = x.shape
    return x.reshape(b, l, heads, d // heads).transpose((0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, l, dh = x.shape
    return x.transpose((0, 2, 1, 3)).reshape(b, l, h * dh)


def _attention(q: Tensor, k: Tensor, v: Tensor, mask, p_drop, training, rng) -> Tensor:
    dh = q.shape[-1]
    scores = ad.matmul(q, k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    if mask is not None:
        scores = scores + Tensor(mask)
    attn = ad.softmax(scores, axis=-1)
    attn = ad.dropout(attn, p_drop, training, rng)
    return ad.matmul(attn, v)


@dataclass
class DecoderOutput:
    token_embeddings: Tensor  # (B, L, d_model)
    logits: Tensor  # (B, L, V)


class CaptionerModel:
    """Feature projection + transformer decoder + two output heads."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.training = True
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        c = config

        self.params.add("enc_proj.W", _glorot(rng, c.d_enc, c.d_model))
        self.params.add("enc_proj.b", np.zeros(c.d_model))
        self.params.add("embed.table", rng.normal(0, 1.0 / np.sqrt(c.d_model), (c.vocab_size, c.d_model)))
        for i in range(c.decoder_layers):
            for blk in ("self", "cross"):
                for proj in ("Wq", "Wk", "Wv", "Wo"):
                    self.params.add(f"dec{i}.{blk}.{proj}", _glorot(rng, c.d_model, c.d_model))
                for proj in ("bq", "bk", "bv", "bo"):
                    self.params.add(f"dec{i}.{blk}.{proj}", np.zeros(c.d_model))
            for ln in ("ln1", "ln2", "ln3"):
                self.params.add(f"dec{i}.{ln}.gamma", np.ones(c.d_model))
                self.params.add(f"dec{i}.{ln}.beta", np.zeros(c.d_model))
            self.params.add(f"dec{i}.ff.W1", _glorot(rng, c.d_model, c.d_ff))
            self.params.add(f"dec{i}.ff.b1", np.zeros(c.d_ff))
            self.params.add(f"dec{i}.ff.W2", _glorot(rng, c.d_ff, c.d_model))
            self.params.add(f"dec{i}.ff.b2", np.zeros(c.d_model))
        self.params.add("classifier.W", _glorot(rng, c.d_model, c.vocab_size))
        self.params.add("classifier.b", np.zeros(c.vocab_size))
        self.params.add("ser.W", _glorot(rng, c.d_model, c.d_sent))
        self.params.add("ser.b", np.zeros(c.d_sent))

        self._posenc = sinusoidal_positions(c.max_len + 2, c.d_model)

    # -- modes ------------------------------------------------------------
    def train_mode(self) -> None:
        self.training = True

    def eval_mode(self) -> None:
        self.training = False

    def named_params(self) -> list[tuple[str, Tensor]]:
        return self.params.named()

    def n_trainable(self) -> int:
        return self.params.n_elements()

    # -- forward ----------------------------------------------------------
    def encode_project(self, features) -> Tensor:
        """Per-frame linear projection of (.., T, d_enc) features to d_model."""
        features = features if isinstance(features, Tensor) else Tensor(features)
        if features.shape[-1] != self.config.d_enc:
            raise ValueError(
                f"feature dim {features.shape[-1]} != configured d_enc {self.config.d_enc}"
            )
        return _linear(features, self.params["enc_proj.W"], self.params["enc_proj.b"])

    def decode_teacher_forced(self, memory, tokens, rng=None, training=None) -> DecoderOutput:
        """Causal decode of bos-framed previous tokens over a feature memory.

        ``memory`` is the projected feature sequence, (T, d_model) or
        (B, T, d_model); ``tokens`` is (L,) or (B, L) int ids starting
        with bos (trailing pad allowed in batches).
        """
        training = self.training if training is None else training
        p = self.config.dropout
        if training and p > 0 and rng is None:
            raise ValueError("training-mode forward needs a dropout rng")
        tokens = np.asarray(tokens, dtype=np.int64)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None, :]
        if not isinstance(memory, Tensor):
            memory = Tensor(memory)
        if memory.ndim == 2:
            memory = memory.reshape(1, *memory.shape)
        L = tokens.shape[1]
        if L > self.config.max_len + 1:
            raise ValueError(f"sequence length {L} exceeds max_len+1")
        if not np.all(tokens[:, 0] == BOS_ID):
            raise ValueError("teacher-forced input must start with bos")

        x = ad.embedding_lookup(self.params["embed.table"], tokens) * np.sqrt(self.config.d_model)
        x = x + Tensor(self._posenc[:L])
        x = ad.dropout(x, p, training, rng)
        causal = _causal_mask(L)

        for i in range(self.config.decoder_layers):
            x = self._layer(i, x, memory, causal, p, training, rng)
        logits = _linear(x, self.params["classifier.W"], self.params["classifier.b"])
        if squeeze:
            return DecoderOutput(x.reshape(*x.shape[1:]), logits.reshape(*logits.shape[1:]))
        return DecoderOutput(x, logits)

    def _layer(self, i, x, memory, causal, p, training, rng, state=None) -> Tensor:
        """One post-LN decoder block.

        With a ``DecoderState``, ``x`` holds only each row's newest
        position: its self-attention keys and values join the state's
        cache, and cross-attention reads the state's per-clip projections
        instead of projecting ``memory``.
        """
        pp = self.params
        h = self.config.heads

        q = _split_heads(_linear(x, pp[f"dec{i}.self.Wq"], pp[f"dec{i}.self.bq"]), h)
        k, v = self._kv(i, "self", x)
        if state is not None:
            k, v = state._extend_self(i, k, v)
        sa = _merge_heads(_attention(q, k, v, causal, p, training, rng))
        sa = _linear(sa, pp[f"dec{i}.self.Wo"], pp[f"dec{i}.self.bo"])
        x = ad.layer_norm(x + ad.dropout(sa, p, training, rng),
                          pp[f"dec{i}.ln1.gamma"], pp[f"dec{i}.ln1.beta"])

        q = _split_heads(_linear(x, pp[f"dec{i}.cross.Wq"], pp[f"dec{i}.cross.bq"]), h)
        k, v = self._kv(i, "cross", memory) if state is None else state._cross_rows[i]
        ca = _merge_heads(_attention(q, k, v, None, p, training, rng))
        ca = _linear(ca, pp[f"dec{i}.cross.Wo"], pp[f"dec{i}.cross.bo"])
        x = ad.layer_norm(x + ad.dropout(ca, p, training, rng),
                          pp[f"dec{i}.ln2.gamma"], pp[f"dec{i}.ln2.beta"])

        ff = _linear(x, pp[f"dec{i}.ff.W1"], pp[f"dec{i}.ff.b1"])
        ff = ad.dropout(ad.gelu(ff), p, training, rng)
        ff = _linear(ff, pp[f"dec{i}.ff.W2"], pp[f"dec{i}.ff.b2"])
        return ad.layer_norm(x + ad.dropout(ff, p, training, rng),
                             pp[f"dec{i}.ln3.gamma"], pp[f"dec{i}.ln3.beta"])

    def _kv(self, i, blk: str, src: Tensor) -> tuple[Tensor, Tensor]:
        """Split-head keys and values of layer ``i``'s ``blk`` attention."""
        pp = self.params
        h = self.config.heads
        k = _split_heads(_linear(src, pp[f"dec{i}.{blk}.Wk"], pp[f"dec{i}.{blk}.bk"]), h)
        v = _split_heads(_linear(src, pp[f"dec{i}.{blk}.Wv"], pp[f"dec{i}.{blk}.bv"]), h)
        return k, v

    def decoder_state(self, memories) -> "DecoderState":
        """An incremental decoding state over (n, T, d_model) memories."""
        return DecoderState(self, memories)

    def step_logits(self, memory, prefix) -> np.ndarray:
        """Next-token logits for one bos-framed prefix, dropout disabled."""
        out = self.decode_teacher_forced(memory, np.asarray(prefix), training=False)
        return out.logits.data[-1]

    def step_logits_batch(self, memories, prefixes) -> np.ndarray:
        """Next-token logits for equal-length prefixes, one row each.

        ``memories`` is (n, T, d_model) aligned with ``prefixes`` (n, L).
        Each call reruns the whole prefixes; beam search feeds one token
        per step through ``decoder_state`` instead.
        """
        out = self.decode_teacher_forced(memories, prefixes, training=False)
        return out.logits.data[:, -1, :]

    def ser_project(self, token_embeddings: Tensor) -> Tensor:
        """Map decoder output embeddings into the sentence-embedding space."""
        return _linear(token_embeddings, self.params["ser.W"], self.params["ser.b"])


class DecoderState:
    """Incremental (KV-cached) decoding over a batch of clips.

    Built once from the stacked projected memories, it holds per layer
    the cross-attention keys and values, projected once per clip, and
    the self-attention keys and values of every position fed so far.
    Each ``step`` feeds one token per live row, so it costs one position
    through every layer however long the prefixes are.  The forward is
    the eval-mode decoder with dropout off, the same function as
    ``decode_teacher_forced``.  The design follows fairseq's
    ``incremental_state`` (Ott et al., 2019).
    """

    def __init__(self, model: CaptionerModel, memories):
        memory = memories if isinstance(memories, Tensor) else Tensor(memories)
        if memory.ndim != 3:
            raise ValueError(f"decoder state needs (n, T, d_model) memories, got {memory.shape}")
        self.model = model
        self.position = 0
        layers = range(model.config.decoder_layers)
        self._cross_kv = [tuple(t.data for t in model._kv(i, "cross", memory)) for i in layers]
        n, h = memory.shape[0], model.config.heads
        empty = np.zeros((n, h, 0, model.config.d_model // h))
        self._self_kv = [(empty, empty) for _ in layers]
        self._parents = self._clips = None
        self._cross_rows: list[tuple[Tensor, Tensor]] = []

    def step(self, tokens, parents, clips) -> np.ndarray:
        """Next-token logits, one row per fed token.

        Row r appends ``tokens[r]`` to row ``parents[r]`` of the previous
        step; at the first step, ``parents[r]`` names the clip whose empty
        prefix it starts, and the token must be bos.  ``clips[r]`` is the
        clip whose memory row r attends to.  A parent may be reordered or
        repeated, as beam search does.
        """
        model = self.model
        tokens = np.asarray(tokens, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        clips = np.asarray(clips, dtype=np.int64)
        if tokens.ndim != 1 or not tokens.shape == parents.shape == clips.shape:
            raise ValueError("tokens, parents and clips must be equal-length 1-D sequences")
        length = self.position + 1
        if length > model.config.max_len + 1:
            raise ValueError(f"sequence length {length} exceeds max_len+1")
        if self.position == 0 and not np.all(tokens == BOS_ID):
            raise ValueError("teacher-forced input must start with bos")
        self._parents = parents
        # rows keep their clips from step to step until a clip stops, so
        # the per-row gather of the cross-attention keys and values is
        # redone only when the row-to-clip map changes
        if self._clips is None or not np.array_equal(clips, self._clips):
            self._clips = clips
            self._cross_rows = [(Tensor(k[clips]), Tensor(v[clips])) for k, v in self._cross_kv]

        d = model.config.d_model
        x = ad.embedding_lookup(model.params["embed.table"], tokens[:, None]) * np.sqrt(d)
        x = x + Tensor(model._posenc[self.position : length])
        for i in range(model.config.decoder_layers):
            x = model._layer(i, x, None, None, 0.0, False, None, state=self)
        self.position = length
        logits = _linear(x, model.params["classifier.W"], model.params["classifier.b"])
        return logits.data[:, 0, :]

    def _extend_self(self, i, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        past_k, past_v = self._self_kv[i]
        k = np.concatenate([past_k[self._parents], k.data], axis=2)
        v = np.concatenate([past_v[self._parents], v.data], axis=2)
        self._self_kv[i] = (k, v)
        return Tensor(k), Tensor(v)


class SentenceEncoder:
    """Frozen deterministic sentence embedder.

    Structure: token-embedding table into the embedding space, sinusoidal
    positions, ``layers`` post-LN transformer encoder blocks, masked mean
    pooling, and a final linear projection.  All parameters are drawn
    from ``np.random.default_rng(seed)`` and never updated.
    """

    MAX_POSITIONS = 128

    def __init__(self, vocab_size: int, d_sent: int = 768, layers: int = 2,
                 heads: int = 4, seed: int = 9001):
        if d_sent % heads != 0:
            raise ValueError("d_sent must be divisible by heads")
        self.vocab_size = vocab_size
        self.d_sent = d_sent
        self.layers = layers
        self.heads = heads
        self.seed = seed
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        d = d_sent
        # unit-scale rows so token identity is not drowned out by the
        # position encoding under mean pooling
        self.params.add("embed.table", rng.normal(0, 1.0, (vocab_size, d)), requires_grad=False)
        for i in range(layers):
            for proj in ("Wq", "Wk", "Wv", "Wo"):
                self.params.add(f"enc{i}.{proj}", _glorot(rng, d, d), requires_grad=False)
            for proj in ("bq", "bk", "bv", "bo"):
                self.params.add(f"enc{i}.{proj}", rng.normal(0, 0.02, d), requires_grad=False)
            self.params.add(f"enc{i}.ln1.gamma", np.ones(d), requires_grad=False)
            self.params.add(f"enc{i}.ln1.beta", np.zeros(d), requires_grad=False)
            self.params.add(f"enc{i}.ff.W1", _glorot(rng, d, 2 * d), requires_grad=False)
            self.params.add(f"enc{i}.ff.b1", rng.normal(0, 0.02, 2 * d), requires_grad=False)
            self.params.add(f"enc{i}.ff.W2", _glorot(rng, 2 * d, d), requires_grad=False)
            self.params.add(f"enc{i}.ff.b2", rng.normal(0, 0.02, d), requires_grad=False)
            self.params.add(f"enc{i}.ln2.gamma", np.ones(d), requires_grad=False)
            self.params.add(f"enc{i}.ln2.beta", np.zeros(d), requires_grad=False)
        self.params.add("proj.W", _glorot(rng, d, d), requires_grad=False)
        self.params.add("proj.b", rng.normal(0, 0.02, d), requires_grad=False)
        self._posenc = sinusoidal_positions(self.MAX_POSITIONS, d)

    def param_hash(self) -> str:
        return self.params.sha256()

    def embed_vectors(self, x: Tensor, pad_mask=None) -> Tensor:
        """Encode (B, L, d_sent) vectors, the embedding layer bypassed.

        Differentiable with respect to ``x``; the frozen body never
        receives gradients.  ``pad_mask`` (B, L) excludes padding from
        both attention keys and the mean pool.
        """
        b, l, _ = x.shape
        if l > self.MAX_POSITIONS:
            raise ValueError(f"sequence of {l} exceeds encoder position table")
        if pad_mask is None:
            pad_mask = np.ones((b, l))
        pad_mask = np.asarray(pad_mask, dtype=np.float64)
        if np.any(pad_mask.sum(axis=1) == 0):
            raise ValueError("cannot pool an all-pad sequence")
        attn_mask = np.where(pad_mask[:, None, None, :] > 0, 0.0, NEG_INF)

        x = x + Tensor(self._posenc[:l])
        pp = self.params
        for i in range(self.layers):
            q = _split_heads(_linear(x, pp[f"enc{i}.Wq"], pp[f"enc{i}.bq"]), self.heads)
            k = _split_heads(_linear(x, pp[f"enc{i}.Wk"], pp[f"enc{i}.bk"]), self.heads)
            v = _split_heads(_linear(x, pp[f"enc{i}.Wv"], pp[f"enc{i}.bv"]), self.heads)
            sa = _merge_heads(_attention(q, k, v, attn_mask, 0.0, False, None))
            sa = _linear(sa, pp[f"enc{i}.Wo"], pp[f"enc{i}.bo"])
            x = ad.layer_norm(x + sa, pp[f"enc{i}.ln1.gamma"], pp[f"enc{i}.ln1.beta"])
            ff = _linear(ad.gelu(_linear(x, pp[f"enc{i}.ff.W1"], pp[f"enc{i}.ff.b1"])),
                         pp[f"enc{i}.ff.W2"], pp[f"enc{i}.ff.b2"])
            x = ad.layer_norm(x + ff, pp[f"enc{i}.ln2.gamma"], pp[f"enc{i}.ln2.beta"])

        counts = pad_mask.sum(axis=1, keepdims=True)
        pooled = (x * Tensor(pad_mask[:, :, None])).sum(axis=1) * Tensor(1.0 / counts)
        return _linear(pooled, pp["proj.W"], pp["proj.b"])

    def embed_tokens(self, tokens, pad_mask=None) -> Tensor:
        """Full path: id lookup through the frozen table, then the body."""
        tokens = np.asarray(tokens, dtype=np.int64)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None, :]
        vectors = ad.embedding_lookup(self.params["embed.table"], tokens)
        out = self.embed_vectors(vectors, pad_mask)
        return out.reshape(out.shape[1]) if squeeze else out
