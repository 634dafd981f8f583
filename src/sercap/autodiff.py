"""Dense float64 tensors with reverse-mode automatic differentiation.

Eager execution: every op computes its result immediately and, while a
Tape is active, appends a vector-Jacobian callback to it.  The tape is
rebuilt on every forward pass; Tape.backward sweeps the recorded nodes
once in reverse execution order (which is a valid topological order for
an eagerly built graph) and accumulates gradients into ``Tensor.grad``.
A VJP computes an input's gradient only when that input requires one,
and each node is released as soon as its VJP has run.

A node keeps no Tensor.  It holds its output's gradient cell, one
gradient target per input (the producer's cell for an op output, the
Tensor for a leaf that requires a gradient, else None) and the VJP
closure.  The closure saves only the arrays its formula reads, and only
for inputs that need a gradient, in the manner of PyTorch's saved
tensors (Paszke et al., 2019): an activation that no gradient formula
reads is freed as soon as the forward drops its Tensor.

Broadcasting is supported only where the models need it: bias rows,
scalar coefficients, and batched matmul with 2-D weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class TapeError(RuntimeError):
    """Raised on backward() misuse (non-scalar loss, consumed tape)."""


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer.

    An op output recorded on a tape also points to its gradient cell.
    """

    __slots__ = ("data", "requires_grad", "grad", "_cell")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._cell: _Cell | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all routed through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes) -> "Tensor":
        return permute(self, axes)


_TAPE_STACK: list["Tape"] = []


class _Cell:
    """Gradient slot of one recorded op output.

    ``owner`` is the token of the tape that recorded the op: an op output
    used under another tape is a leaf there, as it always was.
    """

    __slots__ = ("grad", "owner")

    def __init__(self, owner: object):
        self.grad: np.ndarray | None = None
        self.owner = owner


@dataclass
class Tape:
    """Ordered record of primitive ops for one forward pass.

    Usable as a context manager; nodes survive exit so backward() may be
    called after the block.  A tape can be consumed exactly once.
    """

    _nodes: list = field(default_factory=list)
    _consumed: bool = False
    _token: object = field(default_factory=object, repr=False)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Populate grads of every reachable requires_grad leaf.

        A node is ``(cell, targets, vjp)``: the gradient cell of its
        output, one target per input (an op output's cell, a leaf Tensor
        that requires a gradient, or None), and a VJP closure holding
        only the arrays its formula reads.  Only leaves (parameters and
        user inputs) keep a ``grad``: an op output's gradient lives in its
        cell and is dropped once its VJP has run, and that node's slot is
        cleared so its saved arrays can be freed; ``len()`` still counts
        the recorded nodes.  No gradient is computed for an input without
        ``requires_grad`` (a frozen weight, a constant mask).  Gradients
        accumulate into existing ``grad`` buffers until explicitly zeroed,
        so parameter gradients survive across tapes.
        """
        if self._consumed:
            raise TapeError("tape already consumed; rebuild the forward pass")
        if loss.data.size != 1:
            raise TapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        self._consumed = True
        seed = np.ones_like(loss.data)
        if loss._cell is not None and loss._cell.owner is self._token:
            loss._cell.grad = seed
        else:
            _accumulate(loss, seed)
        nodes = self._nodes
        for i in range(len(nodes) - 1, -1, -1):
            cell, targets, vjp = nodes[i]
            nodes[i] = None
            g, cell.grad = cell.grad, None
            if g is None:
                continue
            for target, gi in zip(targets, vjp(g)):
                if gi is None or target is None:
                    continue
                if type(target) is _Cell:
                    # an op output's first gradient is stored without a
                    # copy: only its own VJP reads it, and no VJP writes
                    # into its arguments
                    target.grad = gi if target.grad is None else target.grad + gi
                else:
                    _accumulate(target, gi)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, recording it when a tape is active.

    ``vjp`` must not hold the input Tensors: the node records each
    input's gradient target instead, so an input array lives on only if
    the closure saved it.
    """
    out = Tensor(data)
    tape = _active_tape()
    if tape is None:
        return out
    token = tape._token
    targets = tuple(
        t._cell if t._cell is not None and t._cell.owner is token else t if t.requires_grad else None
        for t in inputs
    )
    if any(target is not None for target in targets):
        out.requires_grad = True
        out._cell = _Cell(token)
        tape._nodes.append((out._cell, targets, vjp))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast during the forward."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive ops
#
# A VJP closure reads only shapes, flags and the arrays it saved; it must
# never refer to an input Tensor, which would keep that input's array alive
# until the backward sweep.
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    ra, rb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g, sa) if ra else None,
            _unbroadcast(g, sb) if rb else None,
        )

    return _make(a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    ra, rb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g, sa) if ra else None,
            _unbroadcast(-g, sb) if rb else None,
        )

    return _make(a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    ra, rb = a.requires_grad, b.requires_grad
    # each operand's gradient reads only the other operand
    xa = a.data if rb else None
    xb = b.data if ra else None

    def vjp(g):
        return (
            _unbroadcast(g * xb, sa) if ra else None,
            _unbroadcast(g * xa, sb) if rb else None,
        )

    return _make(a.data * b.data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    ra, rb = a.requires_grad, b.requires_grad
    xa = a.data if rb else None
    xb = b.data

    def vjp(g):
        return (
            _unbroadcast(g / xb, sa) if ra else None,
            _unbroadcast(-g * xa / (xb * xb), sb) if rb else None,
        )

    return _make(a.data / xb, (a, b), vjp)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)
    return _make(np.abs(a.data), (a,), lambda g: (g * sign,))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * (0.5 / out),))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return _make(np.log(x), (a,), lambda g: (g / x,))


def _flat_product_vjp(x2, w, x_shape):
    """VJP of ``x2 @ w`` for rows ``x2`` flattened from an ``x_shape`` input.

    The caller passes ``w`` only when the input needs a gradient and ``x2``
    only when the weight does, and None otherwise.
    """

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = None if w is None else (g2 @ w.T).reshape(x_shape)
        gw = None if x2 is None else x2.T @ g2
        return gx, gw

    return vjp


def matmul(a, b) -> Tensor:
    """Matrix product; supports stacked leading dims on either side.

    A stacked ``(..., d)`` input against a 2-D ``(d, k)`` weight runs as
    one GEMM over the flattened rows, in the forward and for both
    gradients.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree {a.shape} @ {b.shape}")
    x, w = a.data, b.data
    ra, rb = a.requires_grad, b.requires_grad
    if b.ndim == 2:
        x2 = x.reshape(-1, x.shape[-1])
        vjp = _flat_product_vjp(x2 if rb else None, w if ra else None, x.shape)
        return _make((x2 @ w).reshape(x.shape[:-1] + w.shape[1:]), (a, b), vjp)

    sa, sb = x.shape, w.shape
    xa = x if rb else None
    xb = w if ra else None

    def batched_vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(xb, -1, -2)), sa) if ra else None
        gb = _unbroadcast(np.matmul(np.swapaxes(xa, -1, -2), g), sb) if rb else None
        return ga, gb

    return _make(np.matmul(x, w), (a, b), batched_vjp)


def linear(x, w, b) -> Tensor:
    """``matmul(x, w) + b`` as one node, for a 2-D weight and a bias row.

    The bias is added in place into the flat GEMM output, so the product
    is never a separate array; forward and gradients equal the two-op
    form bit for bit.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2:
        raise ValueError("linear requires an input with ndim >= 2 and a 2-D weight")
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear: inner dimensions disagree {x.shape} @ {w.shape}")
    xd = x.data
    x2 = xd.reshape(-1, xd.shape[-1])
    out = x2 @ w.data
    out += b.data
    product_vjp = _flat_product_vjp(
        x2 if w.requires_grad else None, w.data if x.requires_grad else None, xd.shape
    )
    sb, rb = b.data.shape, b.requires_grad

    def vjp(g):
        return (*product_vjp(g), _unbroadcast(g, sb) if rb else None)

    return _make(out.reshape(xd.shape[:-1] + w.data.shape[1:]), (x, w, b), vjp)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def permute(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), vjp)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _make(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.data.shape
    count = a.data.size if axis is None else np.prod(
        [shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, shape),)

    return _make(out, (a,), vjp)


def softmax(x, axis: int = -1) -> Tensor:
    """Max-stabilized softmax.

    Additive ``-inf`` entries (attention masks) are tolerated as long as
    every row keeps at least one finite entry; masked slots come out
    exactly zero.
    """
    x = _as_tensor(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _make(s, (x,), vjp)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    z = x.data - m
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse
    s = np.exp(out)

    def vjp(g):
        return (g - s * g.sum(axis=axis, keepdims=True),)

    return _make(out, (x,), vjp)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance along the last axis, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    n = x.data.shape[-1]
    if n < 2:
        raise ValueError("layer_norm: normalized axis length must be >= 2")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma.data * xhat + beta.data
    rx, rg, rb = x.requires_grad, gamma.requires_grad, beta.requires_grad
    scale = gamma.data if rx else None

    def vjp(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dx = dgamma = dbeta = None
        if rg:
            dgamma = (g * xhat).sum(axis=reduce_axes) if g.ndim > 1 else g * xhat
        if rb:
            dbeta = g.sum(axis=reduce_axes) if g.ndim > 1 else g
        if rx:
            dxhat = g * scale
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), vjp)


def gelu(x) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x), with Phi from ``scipy.special.ndtr``."""
    x = _as_tensor(x)
    xd = x.data
    phi_cdf = ndtr(xd)

    def vjp(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (phi_cdf + xd * pdf),)

    return _make(xd * phi_cdf, (x,), vjp)


def embedding_lookup(table, ids) -> Tensor:
    """Row-gather from a (V, d) table; gradient scatter-adds into it."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    v, d = table.data.shape
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"token id out of range for table of size {v}")

    def vjp(g):
        gt = np.zeros((v, d))
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, d))
        return (gt,)

    return _make(table.data[ids], (table,), vjp)


def gather_last(x, idx) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)[..., None]
    shape = x.data.shape

    def vjp(g):
        gx = np.zeros(shape)
        np.put_along_axis(gx, idx, g[..., None], axis=-1)
        return (gx,)

    return _make(np.take_along_axis(x.data, idx, axis=-1)[..., 0], (x,), vjp)


def dropout(x, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales survivors by 1/(1-p); eval is identity.

    The node keeps a boolean mask, not a float one; ``(x * scale) * mask``
    equals ``x * (mask / (1 - p))`` bit for bit.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = _as_tensor(x)
    if not training or p == 0.0:
        return x
    mask = rng.random(x.data.shape) >= p
    scale = 1.0 / (1.0 - p)
    return _make((x.data * scale) * mask, (x,), lambda g: ((g * scale) * mask,))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    rtol: float
    per_input: list[float]

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.rtol


def grad_check(f, inputs, eps: float = 1e-5, rtol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued ``f`` to central differences.

    ``f`` takes the given tensors and must be deterministic.  The error
    for each coordinate is |a - n| / max(|a|, |n|, 1).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    inputs = list(inputs)
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        out = f(*inputs)
    if out.data.size != 1:
        raise TapeError("grad_check requires a scalar-valued function")
    tape.backward(out)
    analytic = [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    per_input: list[float] = []
    for t, a in zip(inputs, analytic):
        worst = 0.0
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(*inputs).data)
            flat[i] = orig - eps
            f_minus = float(f(*inputs).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a_i = a.reshape(-1)[i]
            err = abs(a_i - numeric) / max(abs(a_i), abs(numeric), 1.0)
            worst = max(worst, err)
        per_input.append(worst)

    max_err = max(per_input) if per_input else 0.0
    return GradCheckReport(max_rel_error=max_err, rtol=rtol, per_input=per_input)


def gradcheck_cases(rng: np.random.Generator) -> dict[str, tuple]:
    """The op table the gradient checks run: name -> (scalar function, inputs).

    Inputs are drawn from ``rng``; several ops appear in two shapes or
    formulations.  New cases go at the end, so earlier cases keep their
    draws.
    """

    def t(shape, scale=1.0):
        return Tensor(rng.normal(0, scale, shape), requires_grad=True)

    def positive(shape):
        return Tensor(rng.uniform(0.5, 2, shape), requires_grad=True)

    def twice_looked_up(ids):
        return lambda tab: (embedding_lookup(tab, ids) * embedding_lookup(tab, ids)).sum()

    def through_frozen(w_frozen, b_frozen):
        def f(x, w, b):
            h = linear(linear(x, w, b), w_frozen, b_frozen)
            return (h * h).mean()

        return f

    return {
        "matmul": (lambda a, b: matmul(a, b).sum(), [t((3, 4)), t((4, 2))]),
        "matmul_batched": (lambda a, b: matmul(a, b).mean(), [t((2, 3, 4)), t((4, 2))]),
        "arith": (lambda a, b: (a * b + a - b).sum(), [t((3, 2)), t((3, 2))]),
        "div": (lambda a, b: (a / b).sum(), [t((2, 2)), positive((2, 2))]),
        "softmax": (lambda a: (softmax(a) * a).sum(), [t((3, 5))]),
        "log_softmax": (lambda a: (log_softmax(a) * a).sum(), [t((3, 5))]),
        "layer_norm": (
            lambda a, g, b: (layer_norm(a, g, b, 1e-5) * layer_norm(a, g, b, 1e-5)).sum(),
            [t((3, 4)), t((4,)), t((4,))],
        ),
        "gelu": (lambda a: gelu(a).sum(), [t((6,))]),
        "embedding": (twice_looked_up(np.array([0, 2, 2])), [t((4, 3))]),
        "dropout": (lambda a: dropout(a, 0.4, True, np.random.default_rng(7)).sum(), [t((5, 5))]),
        "gather": (lambda a: gather_last(a, np.array([1, 0, 2])).sum(), [t((3, 4))]),
        "abs": (lambda a: absolute(a).sum(), [Tensor(rng.normal(0, 1, (5,)) + 0.3, requires_grad=True)]),
        "sqrt": (lambda a: sqrt(a).sum(), [positive((4,))]),
        "exp_log": (lambda a: (exp(a) * log(exp(a))).sum(), [t((3,))]),
        "concat": (lambda a: concat([a, a * 2.0], axis=0).sum(), [t((2, 2))]),
        "reshape_permute": (lambda a: a.transpose((1, 0)).reshape(6).mean(), [t((2, 3))]),
        "matmul_square": (lambda a, b: matmul(a, b).sum(), [t((2, 3)), t((3, 2))]),
        "matmul_batched_square": (lambda a, b: matmul(a, b).mean(), [t((2, 2, 3)), t((3, 2))]),
        "softmax_mean": (lambda a: softmax(a, axis=-1).mean(), [t((2, 5))]),
        "log_softmax_2x5": (lambda a: (log_softmax(a) * a).sum(), [t((2, 5))]),
        "layer_norm_mean": (
            lambda a, g, b: (layer_norm(a, g, b, 1e-5) * layer_norm(a, g, b, 1e-5)).mean(),
            [t((2, 4)), t((4,)), t((4,))],
        ),
        "embedding_4ids": (twice_looked_up(np.array([0, 2, 2, 1])), [t((4, 3))]),
        "dropout_p03": (lambda a: dropout(a, 0.3, True, np.random.default_rng(9)).sum(), [t((4, 4))]),
        "gather_2x3": (lambda a: gather_last(a, np.array([1, 0])).sum(), [t((2, 3))]),
        "concat_axis1": (lambda a: concat([a, a * 2.0], axis=1).sum(axis=0).mean(), [t((2, 3))]),
        "reshape_permute_sum": (lambda a: a.transpose((1, 0)).reshape(6).sum(), [t((2, 3))]),
        "linear": (
            through_frozen(Tensor(rng.normal(0, 1, (3, 2))), Tensor(rng.normal(0, 1, (2,)))),
            [t((2, 3, 4)), t((4, 3)), t((3,))],
        ),
    }
