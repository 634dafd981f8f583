"""Training objectives: label-smoothed cross-entropy over token logits,
the smooth-L1 sentence-embedding regression term, its alternatives, and
the weighted combination of the two."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class LossConfig:
    label_smoothing: float = 0.1
    ser_weight: float = 100.0  # lambda in the combined loss
    beta: float = 1.0
    ser_kind: str = "smooth_l1"  # smooth_l1 | mse | l1 | cosine
    ser_branch: str = "auto"  # auto = compute iff ser_weight > 0; on | off

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if self.ser_weight < 0:
            raise ValueError("ser_weight must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.ser_kind not in ("smooth_l1", "mse", "l1", "cosine"):
            raise ValueError(f"unknown SER criterion {self.ser_kind!r}")
        if self.ser_branch not in ("auto", "on", "off"):
            raise ValueError(f"ser_branch must be auto/on/off, got {self.ser_branch!r}")

    @property
    def ser_enabled(self) -> bool:
        if self.ser_branch == "auto":
            return self.ser_weight > 0
        return self.ser_branch == "on"


def cross_entropy_smoothed(logits: Tensor, targets, pad_mask=None, label_smoothing: float = 0.1) -> Tensor:
    """Mean over non-pad positions of -sum_c q_c log p_c.

    The smoothed target distribution spreads epsilon uniformly over all
    V classes (including the reference class), so ``label_smoothing=0``
    recovers the standard cross-entropy.  ``targets`` holds next-token
    ids aligned with the logit rows; ``pad_mask`` is 1 for real
    positions, 0 for padding.  Only the real positions' logit rows enter
    the log-softmax.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[:-1] != targets.shape:
        raise ValueError(f"logits {logits.shape} do not align with targets {targets.shape}")
    v = logits.shape[-1]
    if pad_mask is None:
        pad_mask = np.ones(targets.shape)
    pad_mask = np.asarray(pad_mask, dtype=np.float64)
    n_tokens = pad_mask.sum()
    if n_tokens == 0:
        raise ValueError("cross entropy over an all-pad batch")
    if not pad_mask.all():
        real = np.flatnonzero(pad_mask)
        logits = ad.gather_rows(logits, real)
        targets, pad_mask = targets.reshape(-1)[real], pad_mask.reshape(-1)[real]
    eps = label_smoothing
    logp = ad.log_softmax(logits, axis=-1)
    picked = ad.gather_last(logp, targets)
    per_pos = -(1.0 - eps) * picked - (eps / v) * logp.sum(axis=-1)
    return (per_pos * Tensor(pad_mask)).sum() * (1.0 / n_tokens)


def smooth_l1(pred: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """Piecewise regression loss, quadratic inside |d| < beta, linear outside.

    Per element: d^2 / (2 beta) if |d| < beta else |d| - beta / 2,
    reduced by mean over all elements.  Value and first derivative are
    continuous at |d| = beta.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    d = pred - target
    absd = ad.absolute(d)
    quad_zone = Tensor((np.abs(d.data) < beta).astype(np.float64))
    quadratic = (d * d) * (1.0 / (2.0 * beta))
    linear = absd - beta / 2.0
    return (quad_zone * quadratic + (1.0 - quad_zone) * linear).mean()


def ser_alternatives(pred: Tensor, target: Tensor, kind: str) -> Tensor:
    """The other regression criteria tried for the sentence-embedding term.

    ``pred`` and ``target`` are one vector or a ``(B, d)`` batch of them;
    ``cosine`` is 1 minus the mean of the per-row cosines.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    d = pred - target
    if kind == "mse":
        return (d * d).mean()
    if kind == "l1":
        return ad.absolute(d).mean()
    if kind == "cosine":
        # one cosine per caption (the last axis), so a caption's loss does
        # not depend on its batch mates
        if not (np.linalg.norm(pred.data, axis=-1).all() and np.linalg.norm(target.data, axis=-1).all()):
            raise ValueError("cosine criterion undefined for a zero-norm vector")
        cos = (pred * target).sum(axis=-1) / (ad.sqrt((pred * pred).sum(axis=-1))
                                              * ad.sqrt((target * target).sum(axis=-1)))
        return 1.0 - cos.mean()
    raise ValueError(f"unknown SER criterion {kind!r}")


def ser_loss(pred: Tensor, target: Tensor, kind: str = "smooth_l1", beta: float = 1.0) -> Tensor:
    if kind == "smooth_l1":
        return smooth_l1(pred, target, beta=beta)
    return ser_alternatives(pred, target, kind)


def combined_loss(token_loss: Tensor, ser_term: Tensor, ser_weight: float) -> Tensor:
    """Total training objective: token loss plus weighted regression term."""
    if token_loss.size != 1 or ser_term.size != 1:
        raise ValueError("combined_loss expects scalar terms")
    return token_loss + ser_weight * ser_term
