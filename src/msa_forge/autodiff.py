"""Reverse-mode automatic differentiation over numpy arrays.

The engine is intentionally small. A :class:`Tensor` wraps a float32 or
float64 numpy array. While a :class:`Tape` is active (used as a context
manager), every primitive records itself on the tape in execution order;
:func:`backward` replays the records in reverse and accumulates gradients
into the :class:`ParamSet` slots. Only first-order gradients are
supported, and broadcasting follows numpy with gradients reduced back to
each input's shape.

Typical use::

    params = ParamSet({"w": np.zeros((3, 1), dtype=np.float32)})
    w = params["w"]
    with Tape() as tape:
        loss = mse_loss(matmul(x, w), y)
    backward(tape, loss, params)   # fills w.grad

The stack of active tapes is a module-level list shared by the whole
process, so tapes are recorded from one thread only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import expit

from .errors import ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "TapeRecord",
    "ParamSet",
    "GradCheckReport",
    "backward",
    "grad_check",
    "add",
    "sub",
    "mul",
    "matmul",
    "concat",
    "slice_",
    "reshape",
    "transpose",
    "sigmoid",
    "tanh",
    "relu",
    "softmax",
    "dropout",
    "sum_",
    "mean_",
    "masked_mean",
    "l1_loss",
    "mse_loss",
    "lstm_cell_step",
    "lstm_sequence",
    "scaled_dot_attention",
    "outer_fusion",
]

MASK_BIAS = -1e9  # additive bias for masked attention positions

_TAPES: list["Tape"] = []  # active tapes, innermost last


def active_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """A shaped float array with an optional gradient slot.

    A tensor registered in a :class:`ParamSet` has a ``grad`` slot, which
    :func:`backward` fills; for everything else it stays ``None``.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # operator sugar; all routing through the recorded primitives
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

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


@dataclass
class TapeRecord:
    """One primitive application: the op name, its output node, and a
    closure mapping the output adjoint to (input tensor, adjoint) pairs."""

    op: str
    out: Tensor
    backward: Callable[[np.ndarray], Iterable[tuple[Tensor, np.ndarray]]]


class Tape:
    """Ordered record of primitive applications.

    Records are appended in execution order, which is by construction a
    topological order of the computation DAG (an op's inputs always exist
    before the op runs).
    """

    def __init__(self):
        self.records: list[TapeRecord] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def __len__(self) -> int:
        return len(self.records)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if like is not None and np.isscalar(x):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def _record(op: str, out: Tensor, backward_fn) -> None:
    tape = active_tape()
    if tape is not None:
        tape.records.append(TapeRecord(op, out, backward_fn))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient computed at broadcast shape back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data + b.data)
    if active_tape() is not None:
        def bwd(g):
            return ((a, _unbroadcast(g, a.data.shape)),
                    (b, _unbroadcast(g, b.data.shape)))
        _record("add", out, bwd)
    return out


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data - b.data)
    if active_tape() is not None:
        def bwd(g):
            return ((a, _unbroadcast(g, a.data.shape)),
                    (b, _unbroadcast(-g, b.data.shape)))
        _record("sub", out, bwd)
    return out


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data * b.data)
    if active_tape() is not None:
        ad_, bd = a.data, b.data
        def bwd(g):
            return ((a, _unbroadcast(g * bd, ad_.shape)),
                    (b, _unbroadcast(g * ad_, bd.shape)))
        _record("mul", out, bwd)
    return out


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's stacked-matmul broadcasting on leading
    dims. Both operands must be at least 2-D."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    if active_tape() is not None:
        ad_, bd = a.data, b.data
        def bwd(g):
            batch = g.shape[:-2]
            a_full = np.broadcast_to(ad_, batch + ad_.shape[-2:])
            b_full = np.broadcast_to(bd, batch + bd.shape[-2:])
            ga = _unbroadcast(g @ b_full.swapaxes(-1, -2), ad_.shape)
            gb = _unbroadcast(a_full.swapaxes(-1, -2) @ g, bd.shape)
            return ((a, ga), (b, gb))
        _record("matmul", out, bwd)
    return out


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    if active_tape() is not None:
        sizes = [t.data.shape[axis] for t in ts]
        splits = np.cumsum(sizes)[:-1]
        def bwd(g):
            pieces = np.split(g, splits, axis=axis)
            return tuple(zip(ts, pieces))
        _record("concat", out, bwd)
    return out


def slice_(x, key) -> Tensor:
    """Basic slicing (slices/ints only); the adjoint scatters into zeros."""
    x = _as_tensor(x)
    out = Tensor(x.data[key].copy())
    if active_tape() is not None:
        xd = x.data
        def bwd(g):
            gx = np.zeros_like(xd)
            gx[key] = g
            return ((x, gx),)
        _record("slice", out, bwd)
    return out


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    if active_tape() is not None:
        orig = x.data.shape
        def bwd(g):
            return ((x, g.reshape(orig)),)
        _record("reshape", out, bwd)
    return out


def transpose(x, axes: Sequence[int] | None = None) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.transpose(x.data, axes))
    if active_tape() is not None:
        if axes is None:
            inv = None
        else:
            inv = tuple(np.argsort(axes))
        def bwd(g):
            return ((x, np.transpose(g, inv)),)
        _record("transpose", out, bwd)
    return out


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = expit(x.data)
    out = Tensor(y)
    if active_tape() is not None:
        def bwd(g):
            return ((x, g * y * (1.0 - y)),)
        _record("sigmoid", out, bwd)
    return out


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y)
    if active_tape() is not None:
        def bwd(g):
            return ((x, g * (1.0 - y * y)),)
        _record("tanh", out, bwd)
    return out


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0))
    if active_tape() is not None:
        pos = x.data > 0
        def bwd(g):
            return ((x, g * pos),)
        _record("relu", out, bwd)
    return out


def softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)
    if active_tape() is not None:
        def bwd(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            return ((x, (g - dot) * y),)
        _record("softmax", out, bwd)
    return out


def dropout(x, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: at train time keep with prob 1-p and scale by
    1/(1-p); at eval time the op is the identity (returns ``x`` itself)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    x = _as_tensor(x)
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an explicit rng")
    keep = (rng.random(x.data.shape) >= p)
    scale = 1.0 / (1.0 - p)
    factor = keep.astype(x.data.dtype) * x.data.dtype.type(scale)
    out = Tensor(x.data * factor)
    if active_tape() is not None:
        def bwd(g):
            return ((x, g * factor),)
        _record("dropout", out, bwd)
    return out


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------

def sum_(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    if active_tape() is not None:
        shape = x.data.shape
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((x, np.broadcast_to(g, shape).astype(x.data.dtype, copy=False)),)
        _record("sum", out, bwd)
    return out


def mean_(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    if active_tape() is not None:
        shape = x.data.shape
        n = x.data.size if axis is None else shape[axis]
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((x, (np.broadcast_to(g, shape) / n).astype(x.data.dtype, copy=False)),)
        _record("mean", out, bwd)
    return out


def masked_mean(x, mask: np.ndarray) -> Tensor:
    """Mean over the time axis (second to last) counting only positions
    where ``mask`` is true. An all-false mask yields a zero vector (the
    convention models rely on when a modality is missing)."""
    x = _as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.data.shape[:-1]:
        raise ShapeError(f"masked_mean mask {mask.shape} does not match data {x.data.shape}")
    m = mask.astype(x.data.dtype)[..., None]
    counts = np.maximum(mask.sum(axis=-1), 1).astype(x.data.dtype)
    out = Tensor((x.data * m).sum(axis=-2) / counts[..., None])
    if active_tape() is not None:
        def bwd(g):
            gx = (m / counts[..., None, None]) * g[..., None, :]
            return ((x, gx.astype(x.data.dtype, copy=False)),)
        _record("masked_mean", out, bwd)
    return out


def l1_loss(pred, target) -> Tensor:
    pred = _as_tensor(pred)
    target = _as_tensor(target, like=pred)
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss shapes disagree: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    out = Tensor(np.abs(diff).mean())
    if active_tape() is not None:
        n = diff.size
        sign = np.sign(diff)
        def bwd(g):
            gd = g * sign / n
            return ((pred, gd.astype(pred.data.dtype, copy=False)),
                    (target, (-gd).astype(target.data.dtype, copy=False)))
        _record("l1_loss", out, bwd)
    return out


def mse_loss(pred, target) -> Tensor:
    pred = _as_tensor(pred)
    target = _as_tensor(target, like=pred)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes disagree: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    out = Tensor((diff * diff).mean())
    if active_tape() is not None:
        n = diff.size
        def bwd(g):
            gd = g * 2.0 * diff / n
            return ((pred, gd.astype(pred.data.dtype, copy=False)),
                    (target, (-gd).astype(target.data.dtype, copy=False)))
        _record("mse_loss", out, bwd)
    return out


# ---------------------------------------------------------------------------
# parameters, backward, gradient checking
# ---------------------------------------------------------------------------

class ParamSet:
    """Named parameter tensors of one dtype, stored flat.

    Every value lives in one array, ``data``, and every gradient slot in
    another, ``grad``, in the mapping's order; each is allocated once. Each
    parameter's ``Tensor.data`` and ``Tensor.grad`` are reshaped views into
    them, so a whole-set update is one operation on the flat arrays.
    """

    def __init__(self, values: Mapping[str, np.ndarray]):
        arrays = {name: np.asarray(value) for name, value in values.items()}
        dtypes = {a.dtype for a in arrays.values()}
        if len(dtypes) > 1 or not dtypes <= {np.dtype(np.float32), np.dtype(np.float64)}:
            raise ValueError(f"parameters are {sorted(map(str, dtypes))}; one ParamSet "
                             "holds one dtype, float32 or float64")
        size = sum(a.size for a in arrays.values())
        self.data = np.empty(size, dtype=dtypes.pop() if dtypes else np.float64)
        self.grad = np.zeros_like(self.data)
        self._params: dict[str, Tensor] = {}
        lo = 0
        for name, a in arrays.items():
            hi = lo + a.size
            t = Tensor(self.data[lo:hi].reshape(a.shape))
            t.data[...] = a
            t.grad = self.grad[lo:hi].reshape(a.shape)
            self._params[name] = t
            lo = hi

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __iter__(self):
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def num_values(self) -> int:
        return self.data.size


def backward(tape: Tape, loss: Tensor, params: ParamSet | None = None) -> None:
    """Walk the tape in reverse from ``loss`` and fill parameter gradient
    slots. Parameters the loss never touched receive zero gradients.

    Each gradient is copied into the parameter's own slot, its view of
    :attr:`ParamSet.grad`, so no two parameters ever share gradient memory
    and the slots may be scaled in place."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for rec in reversed(tape.records):
        g = grads.pop(id(rec.out), None)
        if g is None:
            continue
        for t, gt in rec.backward(g):
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gt
            else:
                grads[key] = gt
    if params is not None:
        for name, p in params.items():
            g = grads.pop(id(p), None)
            if g is None:
                p.grad.fill(0)
            else:
                np.copyto(p.grad, np.reshape(g, p.data.shape))


@dataclass
class GradCheckReport:
    """Per-parameter maximum relative error between reverse-mode and
    central-difference gradients."""

    per_param: dict[str, float]
    eps: float
    tol: float

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    def __repr__(self) -> str:
        worst = self.max_rel_error
        status = "ok" if self.passed else "FAIL"
        return f"GradCheckReport({status}, max_rel_error={worst:.3e}, tol={self.tol:.1e})"


def grad_check(f: Callable[[ParamSet], Tensor], params: ParamSet,
               eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` must be deterministic with dropout disabled, and the parameters
    must be float64. Relative error per element is
    ``|a - n| / max(|a|, |n|, 1e-8)``; the report carries the max per
    parameter and never raises.
    """
    if params.data.dtype != np.float64:
        raise ValueError(f"grad_check requires float64 parameters, not {params.data.dtype}")

    with Tape() as tape:
        loss = f(params)
    backward(tape, loss, params)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    report: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(params).data)
            flat[i] = orig - eps
            f_minus = float(f(params).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report[name] = worst
    return GradCheckReport(per_param=report, eps=eps, tol=tol)


# ---------------------------------------------------------------------------
# composite building blocks used by the fusion models
# ---------------------------------------------------------------------------

def _lstm_weights(params: Mapping[str, Tensor]) -> tuple[Tensor, Tensor, Tensor]:
    wx, wh, b = params["wx"], params["wh"], params["b"]
    hidden = wh.shape[0]
    if wx.shape[1] != 4 * hidden or b.shape[0] != 4 * hidden:
        raise ShapeError(
            f"lstm params disagree: wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    return wx, wh, b


def _lstm_gates(z: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Activate the pre-activations ``z`` (N, 4h) in place into the gates
    input, forget, cell, output, and return (h_t, c_t)."""
    hid = z.shape[1] // 4
    expit(z[:, :2 * hid], out=z[:, :2 * hid])
    np.tanh(z[:, 2 * hid:3 * hid], out=z[:, 2 * hid:3 * hid])
    expit(z[:, 3 * hid:], out=z[:, 3 * hid:])
    i, f, g, o = z[:, :hid], z[:, hid:2 * hid], z[:, 2 * hid:3 * hid], z[:, 3 * hid:]
    c_t = f * c_prev + i * g
    return o * np.tanh(c_t), c_t


def _lstm_gates_backward(gates: np.ndarray, c_prev: np.ndarray, tanh_c: np.ndarray,
                         dh: np.ndarray, dc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoints of one step: from the activated ``gates`` (N, 4h), c_{t-1},
    tanh(c_t) and the adjoints of h_t and c_t, return the adjoint of the
    pre-activations (N, 4h) and that of c_{t-1}."""
    hid = gates.shape[1] // 4
    i, f, g, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.empty_like(gates)
    dz[:, :hid] = dc * g * i * (1.0 - i)
    dz[:, hid:2 * hid] = dc * c_prev * f * (1.0 - f)
    dz[:, 2 * hid:3 * hid] = dc * i * (1.0 - g * g)
    dz[:, 3 * hid:] = dh * tanh_c * o * (1.0 - o)
    return dz, dc * f


def lstm_cell_step(x_t, h_prev, c_prev, params: Mapping[str, Tensor]) -> tuple[Tensor, Tensor]:
    """One LSTM step with standard gates.

    ``params`` maps ``wx`` (d, 4h), ``wh`` (h, 4h) and ``b`` (4h,); gate
    slices are ordered input, forget, cell, output. Returns (h_t, c_t).
    Under a tape the step is one record, plus one slice per returned state.
    """
    x_t = _as_tensor(x_t)
    h_prev = _as_tensor(h_prev)
    c_prev = _as_tensor(c_prev)
    wx, wh, b = _lstm_weights(params)
    z = x_t.data @ wx.data + h_prev.data @ wh.data + b.data
    h_t, c_t = _lstm_gates(z, c_prev.data)
    out = Tensor(np.stack([h_t, c_t], axis=1))
    if active_tape() is not None:
        def bwd(g):
            dz, dc_prev = _lstm_gates_backward(z, c_prev.data, np.tanh(c_t), g[:, 0], g[:, 1])
            return ((x_t, dz @ wx.data.T), (h_prev, dz @ wh.data.T), (c_prev, dc_prev),
                    (wx, x_t.data.T @ dz), (wh, h_prev.data.T @ dz), (b, dz.sum(axis=0)))
        _record("lstm_cell_step", out, bwd)
    return slice_(out, (slice(None), 0)), slice_(out, (slice(None), 1))


def lstm_sequence(x, mask: np.ndarray, params: Mapping[str, Tensor]) -> Tensor:
    """An LSTM (gates as in :func:`lstm_cell_step`) run from zero state
    over ``x`` (B, T, d).

    Step t updates only the rows where ``mask[:, t]`` is true; the other
    rows carry their state. Returns the state after every step as one
    (B, T, 2, h) tensor: ``[:, t, 0]`` is h_t and ``[:, t, 1]`` is c_t.
    Under a tape the whole pass is one record whose backward runs BPTT
    for x, ``wx``, ``wh`` and ``b``, and X @ Wx + b is one GEMM over all
    B*T rows. Without a tape x is projected one step at a time and
    nothing is kept for a backward.
    """
    x = _as_tensor(x)
    wx, wh, b = _lstm_weights(params)
    if x.ndim != 3 or x.shape[2] != wx.shape[0]:
        raise ShapeError(f"lstm_sequence input {x.shape} does not fit wx {wx.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[:2]:
        raise ShapeError(f"lstm_sequence mask {mask.shape} does not match input {x.shape}")
    n, steps, d = x.shape
    hid = wh.shape[0]
    xd, wxd, whd = x.data, wx.data, wh.data
    dtype = np.result_type(xd, wxd)
    states = np.empty((n, steps, 2, hid), dtype=dtype)
    taped = active_tape() is not None
    if taped:  # holds the activated gates for the backward
        gates = (xd.reshape(n * steps, d) @ wxd + b.data).reshape(n, steps, 4 * hid)
    h = c = np.zeros((n, hid), dtype=dtype)
    for t in range(steps):
        m = mask[:, t, None]
        if m.any():
            z = gates[:, t] if taped else xd[:, t] @ wxd + b.data
            z += h @ whd
            h_new, c_new = _lstm_gates(z, c)
            h, c = np.where(m, h_new, h), np.where(m, c_new, c)
        states[:, t, 0] = h
        states[:, t, 1] = c
    out = Tensor(states)
    if taped:
        def bwd(g):
            dz_all = np.zeros_like(gates)
            tanh_c = np.tanh(states[:, :, 1])
            dh = np.zeros_like(h)
            dc = np.zeros_like(c)
            for t in range(steps - 1, -1, -1):
                dh = dh + g[:, t, 0]
                dc = dc + g[:, t, 1]
                m = mask[:, t, None]
                if not m.any():
                    continue
                c_prev = states[:, t - 1, 1] if t else np.zeros_like(dc)
                dz, dc_prev = _lstm_gates_backward(gates[:, t], c_prev, tanh_c[:, t], dh, dc)
                dz = np.where(m, dz, 0.0)
                dz_all[:, t] = dz
                dh = np.where(m, dz @ whd.T, dh)
                dc = np.where(m, dc_prev, dc)
            dz_flat = dz_all.reshape(n * steps, 4 * hid)
            h_prev = np.zeros((n, steps, hid), dtype=states.dtype)
            h_prev[:, 1:] = states[:, :-1, 0]
            return ((x, (dz_flat @ wxd.T).reshape(xd.shape)),
                    (wx, xd.reshape(n * steps, d).T @ dz_flat),
                    (wh, h_prev.reshape(n * steps, hid).T @ dz_flat),
                    (b, dz_flat.sum(axis=0)))
        _record("lstm_sequence", out, bwd)
    return out


def scaled_dot_attention(q, k, v, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q kᵀ / sqrt(d) + mask_bias) v over the last two axes.

    ``mask`` marks valid key positions. It has shape (..., Tk), aligned
    with q's leading axes, and is broadcast over the query axis; masked
    positions receive a -1e9 additive bias. A row whose keys are all
    masked returns zeros, which is what the fusion models use when a whole
    modality has been dropped.
    """
    q = _as_tensor(q)
    k = _as_tensor(k)
    v = _as_tensor(v)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention q/k dims disagree: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention k/v lengths disagree: {k.shape} vs {v.shape}")
    k_t = transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = mul(matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1]))
    if mask is None:
        return matmul(softmax(scores, axis=-1), v)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[-1] != k.shape[-2]:
        raise ShapeError(f"attention mask {mask.shape} does not cover keys {k.shape}")
    mask = mask[..., None, :]  # the query axis
    bias = np.where(mask, 0.0, MASK_BIAS).astype(q.data.dtype)
    out = matmul(softmax(add(scores, bias), axis=-1), v)
    keep = mask.any(axis=-1, keepdims=True)
    if keep.all():
        return out
    return mul(out, keep.astype(q.data.dtype))


def outer_fusion(vectors: Sequence, augment: bool = True) -> Tensor:
    """Flattened m-way outer product of the given vectors, row-major in
    list order. With ``augment`` each vector is prepended with a constant
    1, which is what makes the lower-order interaction terms appear; the
    result has length prod(d_i + 1).

    Accepts 1-D vectors or batched (B, d_i) tensors. Under a tape the
    whole product is one record; its backward walks the factors in
    reverse with batched matmuls on the (B, p, q) view of the adjoint.
    """
    ts = [_as_tensor(v) for v in vectors]
    if len(ts) < 2:
        raise ShapeError(f"outer_fusion needs at least 2 vectors, got {len(ts)}")
    one_dim = all(t.ndim == 1 for t in ts)
    if not one_dim and any(t.ndim != 2 for t in ts):
        raise ShapeError("outer_fusion takes all 1-D vectors or all 2-D (batch, d) tensors")
    for t in ts:
        if t.shape[-1] == 0:
            raise ShapeError("outer_fusion got an empty vector")
    factors = [t.data.reshape(1, -1) if one_dim else t.data for t in ts]
    batch = factors[0].shape[0]
    if any(f.shape[0] != batch for f in factors):
        raise ShapeError(f"outer_fusion batch sizes disagree: {[t.shape for t in ts]}")
    if augment:
        ones = np.ones((batch, 1), dtype=factors[0].dtype)
        factors = [np.concatenate([ones, f], axis=1) for f in factors]
    prods = [factors[0]]  # prods[k]: product of factors[0..k], (B, p_k)
    for f in factors[1:]:
        p, q = prods[-1].shape[1], f.shape[1]
        prods.append((prods[-1].reshape(batch, p, 1) * f.reshape(batch, 1, q))
                     .reshape(batch, p * q))
    out = Tensor(prods[-1].reshape(-1) if one_dim else prods[-1])
    if active_tape() is not None:
        def bwd(g):
            g = g.reshape(batch, -1)
            adjoints = [None] * len(factors)
            for k in range(len(factors) - 1, 0, -1):
                prev, f = prods[k - 1], factors[k]
                g3 = g.reshape(batch, prev.shape[1], f.shape[1])
                adjoints[k] = (prev[:, None, :] @ g3)[:, 0]
                g = (g3 @ f[:, :, None])[:, :, 0]
            adjoints[0] = g
            return tuple((t, (gk[:, 1:] if augment else gk).reshape(t.shape))
                         for t, gk in zip(ts, adjoints))
        _record("outer_fusion", out, bwd)
    return out
