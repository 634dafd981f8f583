"""AdamW with decoupled weight decay that skips every bias vector (linear
biases and layer-norm betas), the per-epoch cosine learning-rate rule,
and global-norm gradient clipping."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor


@dataclass
class OptimConfig:
    lr0: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-6
    clip_norm: float = 10.0
    epochs: int = 100

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.lr0 <= 0:
            raise ValueError("lr0 must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1/beta2 must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class ParamGroup:
    """Named parameters sharing one decay policy."""

    names: list[str]
    tensors: list[Tensor]
    decay_exempt: bool


def make_param_groups(named_params: list[tuple[str, Tensor]]) -> list[ParamGroup]:
    """Split parameters into decayed and exempt groups.

    A parameter is exempt when the last dot-separated component of its
    name starts with ``b``: every bias vector (``b``, ``bq``, ``bv``,
    ``bo``, ``b1``, ``b2``) and layer-norm ``beta``.  Weight matrices
    (``W*``), embedding tables and layer-norm gains decay.  Every
    trainable parameter lands in exactly one group.
    """
    decay = ParamGroup([], [], decay_exempt=False)
    exempt = ParamGroup([], [], decay_exempt=True)
    for name, t in named_params:
        group = exempt if name.rsplit(".", 1)[-1].startswith("b") else decay
        group.names.append(name)
        group.tensors.append(t)
    return [g for g in (decay, exempt) if g.tensors]


def cosine_lr(k: int, total_epochs: int, lr0: float) -> float:
    """lr_k = 0.5 * (1 + cos(k * pi / K)) * lr0, for epoch index k in [0, K]."""
    if not 0 <= k <= total_epochs:
        raise ValueError(f"epoch index {k} outside [0, {total_epochs}]")
    return 0.5 * (1.0 + np.cos(k * np.pi / total_epochs)) * lr0


def clip_global_norm(grads: list[np.ndarray], clip_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= clip_norm.

    Returns the applied scale factor.  Non-finite gradients abort with
    an error: training must halt rather than step on garbage.  The squares
    are summed by numpy, not by a BLAS dot, whose result moves with the
    BLAS thread count.
    """
    sq = 0.0
    # one scratch buffer for every square; a view with the gradient's
    # shape sums exactly as ``np.square(g).sum()`` does
    scratch = np.empty(max((g.size for g in grads), default=0))
    for g in grads:
        sq_g = np.square(g, out=scratch[: g.size].reshape(g.shape))
        sq += float(sq_g.sum())
    if not np.isfinite(sq):
        raise FloatingPointError("non-finite gradient encountered before clipping")
    norm = np.sqrt(sq)
    if norm <= clip_norm:
        return 1.0
    scale = clip_norm / norm
    for g in grads:
        g *= scale
    return scale


class AdamW:
    """Decoupled weight decay Adam.

    Update per step t:
        m <- b1 m + (1-b1) g          v <- b2 v + (1-b2) g^2
        mhat = m / (1-b1^t)           vhat = v / (1-b2^t)
        theta <- theta (1 - lr wd) - lr mhat/(sqrt(vhat)+eps)

    The decay factor is the multiplicative form of "theta minus lr wd
    theta", applied before the moment update and skipped for exempt
    groups; with zero gradients non-exempt parameters follow the exact
    contraction law theta' = theta (1 - lr wd).

    Moments and parameters are updated in place, with the operations of
    the formulas above in their order, so a parameter's array keeps its
    identity across steps; the temporaries live in one scratch buffer.
    A gradient of None counts as zero.
    """

    def __init__(self, groups: list[ParamGroup], config: OptimConfig):
        self.groups = groups
        self.config = config
        self.step_count = 0
        self.state: dict[str, dict[str, np.ndarray]] = {}
        for group in groups:
            for name, t in zip(group.names, group.tensors):
                if name in self.state:
                    raise ValueError(f"duplicate parameter name {name}")
                self.state[name] = {
                    "m": np.zeros_like(t.data),
                    "v": np.zeros_like(t.data),
                }
        size = max((t.data.size for g in groups for t in g.tensors), default=0)
        self._scratch = np.empty((2, size))

    def grads(self) -> list[np.ndarray]:
        """Gradient buffers of all parameters, for clipping."""
        out = []
        for group in self.groups:
            for name, t in zip(group.names, group.tensors):
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                out.append(t.grad)
        return out

    def step(self, lr: float) -> None:
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for group in self.groups:
            decay = not group.decay_exempt and cfg.weight_decay > 0
            for name, p in zip(group.names, group.tensors):
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                if g.shape != p.data.shape:
                    raise ValueError(f"gradient shape mismatch for {name}")
                st = self.state[name]
                m, v = st["m"], st["v"]
                s1, s2 = (s[: g.size].reshape(g.shape) for s in self._scratch)
                m *= cfg.beta1
                m += np.multiply(g, 1.0 - cfg.beta1, out=s1)
                v *= cfg.beta2
                s1 = np.multiply(g, g, out=s1)
                s1 *= 1.0 - cfg.beta2
                v += s1
                # s1 <- sqrt(vhat) + eps, s2 <- lr mhat / s1
                np.divide(v, bc2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += cfg.eps
                np.divide(m, bc1, out=s2)
                s2 /= s1
                s2 *= lr
                if decay:
                    p.data *= 1.0 - lr * cfg.weight_decay
                p.data -= s2

    def zero_grad(self) -> None:
        """Drop every gradient; the next backward starts a fresh buffer."""
        for group in self.groups:
            for t in group.tensors:
                t.grad = None

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Flat (key, array) view of the moment buffers, for checkpoints."""
        out = []
        for name in sorted(self.state):
            out.append((name + "/m", self.state[name]["m"]))
            out.append((name + "/v", self.state[name]["v"]))
        return out
