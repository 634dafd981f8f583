"""AdamW with bias-exempt decoupled weight decay, the per-epoch cosine
learning-rate rule, and global-norm gradient clipping."""
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

    Bias vectors only (linear ``.b`` and layer-norm ``.beta``) are
    exempt; weight matrices, embeddings, and layer-norm gains decay.
    Every trainable parameter lands in exactly one group.
    """
    decay = ParamGroup([], [], decay_exempt=False)
    exempt = ParamGroup([], [], decay_exempt=True)
    for name, t in named_params:
        group = exempt if name.endswith((".b", ".beta")) else decay
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
    for g in grads:
        sq += float(np.square(g).sum())
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
            for name, p in zip(group.names, group.tensors):
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                if g.shape != p.data.shape:
                    raise ValueError(f"gradient shape mismatch for {name}")
                st = self.state[name]
                st["m"] = cfg.beta1 * st["m"] + (1.0 - cfg.beta1) * g
                st["v"] = cfg.beta2 * st["v"] + (1.0 - cfg.beta2) * (g * g)
                mhat = st["m"] / bc1
                vhat = st["v"] / bc2
                if not group.decay_exempt and cfg.weight_decay > 0:
                    p.data = p.data * (1.0 - lr * cfg.weight_decay)
                p.data = p.data - lr * (mhat / (np.sqrt(vhat) + cfg.eps))

    def zero_grad(self) -> None:
        for group in self.groups:
            for t in group.tensors:
                t.zero_grad()

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Flat (key, array) view of the moment buffers, for checkpoints."""
        out = []
        for name in sorted(self.state):
            out.append((name + "/m", self.state[name]["m"]))
            out.append((name + "/v", self.state[name]["v"]))
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        self.step_count = step_count
        for name, st in self.state.items():
            st["m"] = np.array(arrays[name + "/m"], dtype=np.float64)
            st["v"] = np.array(arrays[name + "/v"], dtype=np.float64)
