"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything downstream (sampling, embedding, encoder, scoring head, training)
is built from the primitives in this module. Arrays are double precision so
gradient checks against central finite differences are meaningful.

Tensors are treated as immutable values once created; the one sanctioned
mutation is the optimizer rewriting parameter data between tapes. Recording
is single-threaded: open a ``GradTape`` around the forward pass, then call
its ``backward`` on a scalar loss to populate ``.grad`` on every reachable
tensor with ``requires_grad=True``. Code that runs outside a tape performs
no recording and is safe to run in parallel over read-only tensors.

The module holds the ops the model calls, each taking ``Tensor``s (a
constant factor is ``mul`` by a ``Tensor``), plus ``bmm`` and
``gather_rows``, which ``perfbench/tracer.py`` still wraps. Leading axes
are samples: ``matmul``, ``affine`` and ``affine_gelu`` treat them as more
rows, and take every product, forward and backward, on the 2-D (-1, C)
row view; ``slice_cols`` and ``concat_cols`` work on the last axis, and
``permute_rows`` reorders every sample's rows (axis -2) alike. The
encoder's hot path uses three fused kernels (``attention``,
``residual_layer_norm``, ``affine_gelu``), one tape record each, bitwise
equal to the chains of plain ops that ``tests/unfused.py`` composes as
their reference. Both trainers take their optimizer steps through
``descend`` (one tape, the divergence check, ``adam_step``) and end with
``check_finite``. Parameters travel as a name -> tensor dict;
``adam_step`` reads each one's ``.grad`` and keeps its Adam moments under
the same name, which is also how a checkpoint stores them.
"""

from __future__ import annotations

import ctypes
import math
from typing import Sequence

import numpy as np

from .errors import ContractError, NumericalDivergenceError, ShapeError


def _pad_heap_top() -> None:
    # Each op frees temporaries of a few hundred KB; glibc then trims the
    # heap top and the next op faults the same pages back in (about 7,600
    # minor faults, ~30 MB, per desk training step). Keeping 64 MB of slack
    # above the top, sized from that working set, stops the trim. Setting
    # M_TOP_PAD also freezes glibc's mmap threshold (128 KB by default), so
    # the pad only keeps pages once the heap has grown past the temporaries;
    # until then a large one is mmapped and faulted in afresh. No benchmark
    # workload shows those faults. Skipped where there is no glibc mallopt.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-2, 64 << 20)  # M_TOP_PAD


_pad_heap_top()

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715
# Variance floor of residual_layer_norm; keeps constant rows finite.
_LN_EPS = 1e-8
# Adam's moment decays and denominator floor: Kingma & Ba's (arXiv:1412.6980).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

# Stack of currently recording tapes (innermost last). Single-writer.
_ACTIVE_TAPES: list["GradTape"] = []


class Tensor:
    """A dense double-precision array plus gradient bookkeeping.

    ``data`` is always a C-contiguous float64 ndarray, so the flat buffer is
    the row-major enumeration of the logical shape. ``grad`` stays ``None``
    until ``backward`` accumulates into it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if 0 in arr.shape:
            raise ShapeError(f"tensor extents must all be >= 1, got {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: GradTape | None = None

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
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class GradTape:
    """Ordered record of primitive operations for reverse replay.

    Used as a context manager around a forward pass. Replaying backward
    visits each recorded operation exactly once, in reverse recording order.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "GradTape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE_TAPES.pop()
        assert popped is self, "tape stack corrupted"

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Tensor, backprop) -> None:
        self._records.append((out, backprop))

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and propagate through the tape in reverse.

        Each record is dropped once replayed, so the graph is freed by
        reference counting as soon as the caller lets go of its tensors,
        not by the cyclic collector. A tape is therefore single-use.
        """
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ContractError("loss was not recorded on this tape, or the tape was replayed")
        loss.grad = np.ones_like(loss.data)
        records, self._records = self._records, []
        while records:
            out, backprop = records.pop()
            out._tape = None
            if out.grad is not None:
                backprop(out.grad)


def _active_tape() -> "GradTape | None":
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # The first gradient may be a view shared with another tensor (``add``
    # hands one array to both inputs, ``reshape`` hands on a view), so a
    # later one is never added into it in place.
    t.grad = g if t.grad is None else t.grad + g


def _make(out_data: np.ndarray, inputs: Sequence[Tensor], backprop) -> Tensor:
    """Wrap an op result; record it if a tape is open and gradients flow.

    ``backprop(g)`` must accumulate into each input that requires grad.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape.record(out, backprop)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape`` by summing."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise arithmetic (numpy broadcasting, gradient reduced to each input)
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out, (a, b), backprop)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out, (a, b), backprop)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), backprop)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out, (a, b), backprop)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` over the last axis of a, on its row view (``_row_product``)."""
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(
            f"matmul needs a rank >= 2 and a rank-2 tensor, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    return _make(_row_product(a.data, b.data), (a, b), lambda g: _affine_backprop(a, b, None, g))


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of the last two axes, batched over equal leading axes."""
    if a.ndim < 3 or a.ndim != b.ndim:
        raise ShapeError(f"bmm needs two tensors of one rank >= 3, got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"bmm extents incompatible: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            _accumulate(b, a.data.swapaxes(-1, -2) @ g)

    return _make(out, (a, b), backprop)


def _check_affine(x: Tensor, w: Tensor, b: Tensor) -> None:
    if x.ndim < 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"affine needs (>=2d, 2d, 1d), got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"affine extents incompatible: {x.shape} @ {w.shape} + {b.shape}")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused ``x @ w + b`` over the last axis of x, on its row view."""
    _check_affine(x, w, b)
    out = _row_product(x.data, w.data) + b.data
    return _make(out, (x, w, b), lambda g: _affine_backprop(x, w, b, g))


def _row_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` on x's 2-D row view, (-1, K): leading axes of x (a batch of
    samples) are more rows, and the product is shaped back to them."""
    return (x.reshape(-1, w.shape[0]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _affine_backprop(x: Tensor, w: Tensor, b: Tensor | None, g: np.ndarray) -> None:
    """Accumulate the gradients of ``x @ w + b`` (``b`` None: ``x @ w``) given
    the output's ``g``, every product on the 2-D row view."""
    rows = g.reshape(-1, g.shape[-1])
    if x.requires_grad:
        _accumulate(x, (rows @ w.data.T).reshape(x.shape))
    if w.requires_grad:
        _accumulate(w, x.data.reshape(-1, w.shape[0]).T @ rows)
    if b is not None and b.requires_grad:
        _accumulate(b, rows.sum(axis=0))


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute axes {axes} invalid for shape {x.shape}")
    inverse = sorted(range(len(axes)), key=axes.__getitem__)

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, np.ascontiguousarray(g.transpose(inverse)))

    return _make(np.ascontiguousarray(x.data.transpose(axes)), (x,), backprop)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, g.reshape(old))

    return _make(x.data.reshape(shape), (x,), backprop)


# ---------------------------------------------------------------------------
# Structural ops (slicing, gathering, concatenation)
# ---------------------------------------------------------------------------

def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of the last axis; leading axes are kept."""
    if x.ndim < 2 or not (0 <= start < stop <= x.shape[-1]):
        raise ShapeError(f"column slice [{start}:{stop}] invalid for shape {x.shape}")

    def backprop(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[..., start:stop] = g
            _accumulate(x, full)

    return _make(x.data[..., start:stop].copy(), (x,), backprop)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows by integer index; index ``-1`` yields an all-zero row."""
    if x.ndim != 2:
        raise ShapeError(f"gather_rows expects rank 2, got {x.shape}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather index must be rank 1, got {idx.shape}")
    if idx.max(initial=-1) >= x.shape[0] or idx.min(initial=0) < -1:
        raise ShapeError(f"gather index out of range for {x.shape[0]} rows")
    valid = idx >= 0
    out = np.zeros((idx.size, x.shape[1]), dtype=np.float64)
    out[valid] = x.data[idx[valid]]

    def backprop(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx[valid], g[valid])
            _accumulate(x, gx)

    return _make(out, (x,), backprop)


def permute_rows(x: Tensor, order: np.ndarray, inverse: np.ndarray) -> Tensor:
    """Reorder the rows of each sample: along axis -2, output row i is
    input row ``order[i]``.

    ``inverse`` must be the inverse permutation (``inverse[order[i]] == i``);
    the backward is then the gather by ``inverse``, with no scatter.
    """
    if x.ndim < 2:
        raise ShapeError(f"permute_rows expects rank >= 2, got {x.shape}")
    if order.shape != (x.shape[-2],) or inverse.shape != (x.shape[-2],):
        raise ShapeError(
            f"permutation shapes {order.shape} and {inverse.shape} do not match "
            f"{x.shape[-2]} rows")

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, g.take(inverse, axis=-2))

    return _make(x.data.take(order, axis=-2), (x,), backprop)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Tensors of one rank >= 2 and equal leading axes, joined on the last axis."""
    if not parts:
        raise ContractError("concat of zero parts")
    if any(p.ndim < 2 for p in parts):
        raise ShapeError("concat expects parts of rank >= 2")
    out = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])

    def backprop(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[..., a:b])

    return _make(out, parts, backprop)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def sum_axes(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Sum over the given axes, which are dropped from the shape."""
    total = x.data.sum(axis=axes, keepdims=True)
    kept = total.shape

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(g.reshape(kept), x.shape).copy())

    return _make(total.squeeze(axes), (x,), backprop)


def mean_all(x: Tensor) -> Tensor:
    n = x.size

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(g / n, x.shape).copy())

    return _make(np.asarray(x.data.mean()), (x,), backprop)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0.0))

    return _make(out, (x,), backprop)


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, g * out * (1.0 - out))

    return _make(out, (x,), backprop)


# ---------------------------------------------------------------------------
# Fused encoder kernels
#
# Each is one tape record standing for a chain of plain ops (composed in
# ``tests/unfused.py``), and each is bitwise equal to that chain, forward and
# backward: it evaluates the same expressions in the same order, only in place
# (``out=`` and augmented ufuncs) and without the per-op records. Where an
# unfused op multiplied or added in the other operand order, the fused one
# relies on IEEE ``*`` and ``+`` being commutative. Matrix products keep the
# unfused operand layouts, since a transposed view and a contiguous copy can
# take different BLAS paths. A backward writes only into arrays it made or
# saved itself, never into its incoming gradient or an input's data; it may
# consume its saved arrays, because the tape replays each record once.
# ---------------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, batch: int, heads: int,
              return_weights: bool = False):
    """Multi-head scaled dot-product attention as one tape record.

    ``q``, ``k`` and ``v`` are projections of one shape (..., d) whose rows
    form ``batch`` equal groups of tokens, group-major; each group attends
    within itself, and head h uses columns [h*d/heads, (h+1)*d/heads).
    Returns the attended rows in q's shape. With ``return_weights`` also a
    copy of the softmax weights, shape (batch, heads, tokens, tokens).

    Equal bit for bit to splitting heads, ``bmm(q, k^T)``, ``mul`` by
    1/sqrt(d/heads), ``softmax``, ``bmm`` with v and merging heads.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"attention q, k, v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[-1]
    rows = q.size // d
    if batch < 1 or rows % batch or heads < 1 or d % heads:
        raise ShapeError(
            f"attention over {q.shape} cannot split into {batch} groups of {heads} heads")
    tokens, head_dim = rows // batch, d // heads
    split = (batch, tokens, heads, head_dim)
    q4 = np.ascontiguousarray(q.data.reshape(split).transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(k.data.reshape(split).transpose(0, 2, 3, 1))
    v4 = np.ascontiguousarray(v.data.reshape(split).transpose(0, 2, 1, 3))
    c = 1.0 / math.sqrt(head_dim)
    weights = q4 @ kt
    weights *= c
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)

    def merge(t4):
        return np.ascontiguousarray(t4.transpose(0, 2, 1, 3)).reshape(q.shape)

    def backprop(g):
        g4 = np.ascontiguousarray(g.reshape(split).transpose(0, 2, 1, 3))
        if v.requires_grad:
            _accumulate(v, merge(weights.swapaxes(-1, -2) @ g4))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = g4 @ v4.swapaxes(-1, -2)
        dot = ds * weights
        ds -= dot.sum(axis=-1, keepdims=True)
        ds *= weights
        ds *= c
        if q.requires_grad:
            _accumulate(q, merge(ds @ kt.swapaxes(-1, -2)))
        if k.requires_grad:
            dk = q4.swapaxes(-1, -2) @ ds
            _accumulate(k, np.ascontiguousarray(dk.transpose(0, 3, 1, 2)).reshape(k.shape))

    out = _make(merge(weights @ v4), (q, k, v), backprop)
    return (out, weights.copy()) if return_weights else out


def residual_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``layer_norm(add(x, y), gain, bias)`` as one tape record.

    x and y receive one shared gradient array, as ``add`` hands them.
    """
    if x.shape != y.shape:
        raise ShapeError(f"residual_layer_norm shapes differ: {x.shape} and {y.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    # sum / d is np.mean's own arithmetic, without its Python wrapper
    xhat = x.data + y.data
    xhat -= xhat.sum(axis=-1, keepdims=True) / d
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv_std
    out = xhat * gain.data
    out += bias.data

    def backprop(g):
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape))
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * xhat, gain.shape))
        if x.requires_grad or y.requires_grad:
            gx = g * gain.data
            t = gx * xhat
            m2 = t.sum(axis=-1, keepdims=True) / d
            gx -= gx.sum(axis=-1, keepdims=True) / d
            gx -= np.multiply(xhat, m2, out=t)
            gx *= inv_std
            if x.requires_grad:
                _accumulate(x, gx)
            if y.requires_grad:
                _accumulate(y, gx)

    return _make(out, (x, y, gain, bias), backprop)


def affine_gelu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``gelu(affine(x, w, b))`` as one tape record.

    Saves ``tanh(u)``, ``0.5*h`` and ``h*h`` of the pre-activation h for
    the backward, and nothing else of the hidden width.
    """
    _check_affine(x, w, b)
    h = _row_product(x.data, w.data)
    h += b.data
    sq = h * h
    t = sq * h
    t *= _GELU_CUBIC
    t += h
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    half = np.multiply(h, 0.5, out=h)
    out = t + 1.0
    out *= half

    def backprop(g):
        du = np.multiply(sq, 3.0 * _GELU_CUBIC, out=sq)
        du += 1.0
        du *= _SQRT_2_OVER_PI
        local = t * t
        np.subtract(1.0, local, out=local)
        np.multiply(half, local, out=local)
        local *= du
        np.add(t, 1.0, out=du)
        du *= 0.5
        local += du
        _affine_backprop(x, w, b, np.multiply(g, local, out=local))

    return _make(out, (x, w, b), backprop)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moment buffers by parameter name, plus the step counter.

    A name's buffers are zero-initialized by the first ``adam_step`` that
    updates it.
    """

    def __init__(self):
        self.step: int = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One Adam update with bias correction from each parameter's ``.grad``
    (a missing grad counts as zero), applied in place.

    Weight decay is coupled L2 (classic Adam): ``weight_decay * p`` is added
    to the gradient before the moment updates, not decoupled AdamW-style.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - _ADAM_BETA1**t
    bc2 = 1.0 - _ADAM_BETA2**t
    for name, p in params.items():
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient {g.shape} does not match parameter {name} {p.shape}")
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        if state.m[name].shape != p.data.shape:
            raise ShapeError(
                f"moment buffer {state.m[name].shape} does not match parameter {name} {p.shape}")
        if weight_decay != 0.0:
            g = g + weight_decay * p.data
        state.m[name] = _ADAM_BETA1 * state.m[name] + (1.0 - _ADAM_BETA1) * g
        state.v[name] = _ADAM_BETA2 * state.v[name] + (1.0 - _ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def descend(params: dict[str, Tensor], loss_of, state: AdamState, lr: float,
            weight_decay: float, where: str) -> float:
    """One optimizer step: record ``loss_of()`` on a fresh tape, replay it
    and update ``params`` by ``adam_step``; returns the loss.

    A non-finite loss raises ``NumericalDivergenceError`` naming ``where``
    before any update, so the parameters stay those of the step before.
    """
    for p in params.values():
        p.zero_grad()
    with GradTape() as tape:
        loss = loss_of()
    value = loss.item()
    if not math.isfinite(value):
        raise NumericalDivergenceError(f"non-finite loss at {where}")
    tape.backward(loss)
    adam_step(params, state, lr, weight_decay)
    return value


def check_finite(params: dict[str, Tensor], where: str) -> None:
    """Raise ``NumericalDivergenceError`` naming the first non-finite parameter."""
    for name, p in params.items():
        if not np.isfinite(p.data).all():
            raise NumericalDivergenceError(f"parameter {name} is non-finite after {where}")


# ---------------------------------------------------------------------------
# Initialization helpers
# ---------------------------------------------------------------------------

def trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two sigmas."""
    out = rng.normal(0.0, std, size=shape)
    bound = 2.0 * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def init_params(shapes, rng: np.random.Generator, std: float) -> dict[str, Tensor]:
    """One trainable tensor per ``name -> shape`` entry, drawn in table
    order: matrices truncated-normal at ``std``, layer-norm gains (``*.g``)
    one, every other tensor zero."""
    params = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            data = trunc_normal(rng, shape, std=std)
        else:
            data = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params
