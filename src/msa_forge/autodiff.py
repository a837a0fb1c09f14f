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
    "linear",
    "concat",
    "slice_",
    "reshape",
    "transpose",
    "sigmoid",
    "tanh",
    "relu",
    "softmax",
    "dropout",
    "mean_",
    "masked_mean",
    "l1_loss",
    "mse_loss",
    "lstm_cell_step",
    "lstm_sequence",
    "linear_recurrence",
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

    def __init__(self, data):
        arr = np.asarray(data)
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
    """Append to the innermost tape; callers record only while one is active."""
    _TAPES[-1].records.append(TapeRecord(op, out, backward_fn))


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
            ga, gb = _matmul_adjoints(g, ad_, bd)
            return ((a, ga), (b, gb))
        _record("matmul", out, bwd)
    return out


def _matmul_adjoints(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjoints of a and b in a @ b, given the adjoint g of the product."""
    batch = g.shape[:-2]
    if a.shape[:-2] == batch and b.shape[:-2] == batch:  # nothing was broadcast
        return g @ b.swapaxes(-1, -2), a.swapaxes(-1, -2) @ g
    a_full = np.broadcast_to(a, batch + a.shape[-2:])
    b_full = np.broadcast_to(b, batch + b.shape[-2:])
    return (_unbroadcast(g @ b_full.swapaxes(-1, -2), a.shape),
            _unbroadcast(a_full.swapaxes(-1, -2) @ g, b.shape))


def linear(x, w, b) -> Tensor:
    """The affine layer x @ w + b, for x (..., d_in), w (d_in, d_out) and
    b (d_out,), as one record. x's leading axes are flattened into rows, so
    the product and each adjoint is one 2-D GEMM, and b's gradient is the
    matrix-vector product ones @ g over those rows."""
    x = _as_tensor(x)
    w = _as_tensor(w)
    b = _as_tensor(b)
    if w.ndim != 2:
        raise ShapeError(f"linear needs a 2-D weight, got x {x.shape} and w {w.shape}")
    if x.ndim == 0 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear input {x.shape} does not fit w {w.shape}")
    if b.shape != w.shape[1:]:
        raise ShapeError(f"linear bias {b.shape} does not fit w {w.shape}")
    d_in, d_out = w.shape
    x2, wd = x.data.reshape(-1, d_in), w.data
    out = Tensor((x2 @ wd + b.data).reshape(x.shape[:-1] + (d_out,)))
    if active_tape() is not None:
        def bwd(g):
            g2 = g.reshape(-1, d_out)
            return ((x, (g2 @ wd.T).reshape(x.shape)),
                    (w, x2.T @ g2), (b, np.ones(len(g2), dtype=g2.dtype) @ g2))
        _record("linear", out, bwd)
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


def transpose(x, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.transpose(x.data, axes))
    if active_tape() is not None:
        inv = tuple(np.argsort(axes))
        def bwd(g):
            return ((x, np.transpose(g, inv)),)
        _record("transpose", out, bwd)
    return out


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's dtype, written into ``out`` when given. For
    very negative x, exp(-x) overflows to inf and the result is its limit 0;
    callers silence that warning with ``np.errstate(over="ignore")``."""
    y = np.negative(x, out=out)
    np.exp(y, out=y)
    y += 1.0
    return np.divide(1.0, y, out=y)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(over="ignore"):
        y = _sigmoid(x.data)
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
    where ``mask`` is true. The masked sum is the batched matrix-vector
    product mᵀ x of the 0/1 mask and x. An all-false mask yields a zero
    vector (the convention models rely on when a modality is missing)."""
    x = _as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.data.shape[:-1]:
        raise ShapeError(f"masked_mean mask {mask.shape} does not match data {x.data.shape}")
    m = mask.astype(x.data.dtype)[..., None]
    counts = np.maximum(mask.sum(axis=-1), 1).astype(x.data.dtype)
    out = Tensor((m.swapaxes(-1, -2) @ x.data)[..., 0, :] / counts[..., None])
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


def lstm_cell_step(x_t, h_prev, c_prev, params: Mapping[str, Tensor]) -> tuple[Tensor, Tensor]:
    """One LSTM step with standard gates.

    ``params`` maps ``wx`` (d, 4h), ``wh`` (h, 4h) and ``b`` (4h,); gate
    slices are ordered input, forget, cell, output. Returns (h_t, c_t).
    Under a tape the step is one record, plus one slice per returned state.
    It shares no gate code with :func:`lstm_sequence` beyond the sigmoid,
    so it serves as that kernel's per-step reference.
    """
    x_t = _as_tensor(x_t)
    h_prev = _as_tensor(h_prev)
    c_prev = _as_tensor(c_prev)
    wx, wh, b = _lstm_weights(params)
    hid = wh.shape[0]
    z = x_t.data @ wx.data + h_prev.data @ wh.data + b.data
    with np.errstate(over="ignore"):
        i, f = _sigmoid(z[:, :hid]), _sigmoid(z[:, hid:2 * hid])
        g, o = np.tanh(z[:, 2 * hid:3 * hid]), _sigmoid(z[:, 3 * hid:])
    c_t = f * c_prev.data + i * g
    tanh_c = np.tanh(c_t)
    out = Tensor(np.stack([o * tanh_c, c_t], axis=1))
    if active_tape() is not None:
        def bwd(grad):
            dh = grad[:, 0]
            dc = grad[:, 1] + dh * o * (1.0 - tanh_c * tanh_c)
            dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev.data * f * (1.0 - f),
                                 dc * i * (1.0 - g * g), dh * tanh_c * o * (1.0 - o)], axis=1)
            return ((x_t, dz @ wx.data.T), (h_prev, dz @ wh.data.T), (c_prev, dc * f),
                    (wx, x_t.data.T @ dz), (wh, h_prev.data.T @ dz), (b, dz.sum(axis=0)))
        _record("lstm_cell_step", out, bwd)
    return slice_(out, (slice(None), 0)), slice_(out, (slice(None), 1))


def _lstm_cell(z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Activate a step's pre-activations ``z`` (4, N, H) in place into the
    gates input, forget, cell, output, and return (h_t, c_t) from c_{t-1}
    ``c``. The cell gate's tanh comes first, so that one sigmoid call covers
    the step."""
    cell = np.tanh(z[2])
    _sigmoid(z, out=z)
    z[2] = cell
    c_new = z[1] * c + z[0] * z[2]
    return z[3] * np.tanh(c_new), c_new


# The untaped pass steps only the rows still running, so a row meets GEMMs of
# other row counts and at another place than in a pass over all rows. OpenBLAS
# gives it the same bits there only with at least 8 rows, and only when every
# product's width 4h is a multiple of 16: a narrower tail tile of columns takes
# kernels whose bits depend on the row's place. So the pass never steps fewer
# than min(B, 8) rows, and with another hidden size it steps every row.
LSTM_MIN_ROWS = 8


def lstm_sequence(xs: Sequence, masks: Sequence[np.ndarray],
                  params: Sequence[Mapping[str, Tensor]], *, last_h: bool = False) -> Tensor:
    """Independent LSTMs (gates as in :func:`lstm_cell_step`), one per group
    (``xs[k]``, ``masks[k]``, ``params[k]``), run in lockstep from zero state.

    Every x is (B, T, d_k) and every mask (B, T); step t updates group k's
    state only in the rows where ``masks[k][:, t]`` is true, elsewhere the
    state carries. Returns the states after every step as one (B, T, 2, H)
    tensor, H the sum of the hidden sizes: ``[:, t, 0]`` holds each group's
    h_t and ``[:, t, 1]`` its c_t, side by side in group order. With
    ``last_h`` it returns only the (B, H) h after the final step.

    The gates live step-major, (4, B, H) per step, so each gate of a step is
    one contiguous (B, H) block and each elementwise step is one numpy call
    for all groups; each group keeps its own x @ Wx + b and h @ Wh GEMMs. A
    per-unit (T, B, H) mask, built once, blends the states; steps whose mask
    is true everywhere skip the blend. Under a tape the pass is one record:
    X @ Wx + b is one GEMM per group over all B*T rows, written into a
    (T, 4, B, H) gate cache. The backward (BPTT) forms each step's dz
    step-major and writes it into its group's batch-major (B, T, 4, h_k)
    buffer, which that group's dh GEMM reads at the step and its weight
    gradients read after the walk. It frees the gate cache, so the record
    is replayed once. With ``last_h`` the record's backward hands the BPTT
    a zero (B, T, 2, H) adjoint with g at ``[:, -1, 0]``.

    Without a tape nothing is kept for a backward, x is projected one step
    at a time, and the rows run in one order, sorted once by their last
    valid step: a step runs only the prefix of that order that still has a
    valid step at or after it, never fewer than ``min(B, LSTM_MIN_ROWS)``
    rows (:func:`_lstm_live_rows`). Each row meets the same arithmetic as
    in a pass over all rows, so the states keep their bits.
    """
    if not xs or not len(xs) == len(masks) == len(params):
        raise ShapeError(f"lstm_sequence needs one mask and one parameter set per input, got "
                         f"{len(xs)} inputs, {len(masks)} masks, {len(params)} parameter sets")
    xs = [_as_tensor(x) for x in xs]
    weights = [_lstm_weights(p) for p in params]
    for x, (wx, _, _) in zip(xs, weights):
        if x.ndim != 3 or x.shape[2] != wx.shape[0]:
            raise ShapeError(f"lstm_sequence input {x.shape} does not fit wx {wx.shape}")
    n, steps = xs[0].shape[:2]
    if any(x.shape[:2] != (n, steps) for x in xs):
        raise ShapeError(f"lstm_sequence inputs disagree on (batch, steps): "
                         f"{[x.shape for x in xs]}")
    masks = [np.asarray(m, dtype=bool) for m in masks]
    for x, m in zip(xs, masks):
        if m.shape != x.shape[:2]:
            raise ShapeError(f"lstm_sequence mask {m.shape} does not match input {x.shape}")
    hids = [wh.shape[0] for _, wh, _ in weights]
    bounds = np.cumsum([0] + hids).tolist()
    groups = [(x.data, wx.data, wh.data, b.data.reshape(4, hid), lo, lo + hid)
              for x, (wx, wh, b), hid, lo in zip(xs, weights, hids, bounds)]
    dtype = np.result_type(*(x.data for x in xs), *(wx.data for wx, _, _ in weights))
    if active_tape() is None:
        return Tensor(_lstm_live_rows(groups, masks, hids, dtype, last_h))

    width = bounds[-1]
    step_mask = np.stack([m.T for m in masks], axis=2)   # (T, B, groups)
    full_step = step_mask.all(axis=(1, 2))
    # (T, B, H): group k's mask repeated over its units; one group broadcasts
    unit_mask = step_mask if len(hids) == 1 else np.repeat(step_mask, hids, axis=2)
    states = np.empty((n, steps, 2, width), dtype=dtype)
    gates = np.empty((steps, 4, n, width), dtype=dtype)  # every step's, kept for the backward
    for xd, wxd, _, b4, lo, hi in groups:
        xw = xd.reshape(n * steps, wxd.shape[0]) @ wxd
        np.add(xw.reshape(n, steps, 4, hi - lo), b4, out=gates[..., lo:hi].transpose(2, 0, 1, 3))
    h = c = np.zeros((n, width), dtype=dtype)
    with np.errstate(over="ignore"):  # for _sigmoid
        for t in range(steps):
            z = gates[t]
            for _, _, whd, _, lo, hi in groups:
                z_k = z[..., lo:hi].transpose(1, 0, 2)  # (B, 4, h), as the GEMMs write
                z_k += (h[:, lo:hi] @ whd).reshape(n, 4, hi - lo)
            h_new, c_new = _lstm_cell(z, c)
            if full_step[t]:
                h, c = h_new, c_new
            else:
                m = unit_mask[t]
                h, c = np.where(m, h_new, h), np.where(m, c_new, c)
            states[:, t, 0] = h
            states[:, t, 1] = c
    out = Tensor(states[:, -1, 0].copy() if last_h else states)

    def bwd(g):
        nonlocal gates
        if gates is None:
            raise RuntimeError("lstm_sequence's backward frees its gate cache; "
                               "replay a tape once")
        if last_h:
            g_last, g = g, np.zeros_like(states)
            g[:, -1, 0] = g_last
        # in the per-step formula's order, the input, forget and output gates'
        # dz are ((a * p) * gate) * (1 - gate), with (a, p) = (dc, g), (dc,
        # c_{t-1}), (dh, tanh c_t), and the cell gate's is (dc * i) * (1 - g^2)
        tanh_c = np.tanh(states[:, :, 1].transpose(1, 0, 2), order="C")  # (T, B, H)
        one_minus_tanh2 = tanh_c * tanh_c
        np.subtract(1.0, one_minus_tanh2, out=one_minus_tanh2)
        c_zero = np.zeros((n, width), dtype=dtype)
        dz = np.empty((4, n, width), dtype=dtype)
        one_minus = np.empty_like(dz)
        dz_groups = [np.empty((n, steps, 4, hi - lo), dtype=dtype) for *_, lo, hi in groups]
        dh = np.zeros((n, width), dtype=dtype)
        dc = np.zeros_like(dh)
        for t in range(steps - 1, -1, -1):
            dh = dh + g[:, t, 0]
            dc = dc + g[:, t, 1]
            gates_t = gates[t]
            dc_in = dh * gates_t[3]
            dc_in *= one_minus_tanh2[t]
            np.add(dc, dc_in, out=dc_in)
            np.multiply(dc_in, gates_t[2::-2], out=dz[0:3:2])
            np.multiply(dc_in, states[:, t - 1, 1] if t else c_zero, out=dz[1])
            np.multiply(dh, tanh_c[t], out=dz[3])
            dz[:2] *= gates_t[:2]
            dz[3] *= gates_t[3]
            np.subtract(1.0, gates_t, out=one_minus)
            np.multiply(gates_t[2], gates_t[2], out=one_minus[2])
            np.subtract(1.0, one_minus[2], out=one_minus[2])
            dz_t = np.multiply(dz, one_minus, out=dz)
            if not full_step[t]:
                m = unit_mask[t]
                dz_t = np.where(m, dz_t, 0.0)
            dh_new = np.empty_like(dh)
            for dz_k, (_, _, whd, _, lo, hi) in zip(dz_groups, groups):
                dz_kt = dz_k[:, t]
                dz_kt[...] = dz_t[..., lo:hi].transpose(1, 0, 2)
                np.matmul(dz_kt.reshape(n, 4 * (hi - lo)), whd.T, out=dh_new[:, lo:hi])
            dc_prev = dc_in * gates_t[1]
            if full_step[t]:
                dh, dc = dh_new, dc_prev
            else:
                dh, dc = np.where(m, dh_new, dh), np.where(m, dc_prev, dc)
        # the weight gradients read only dz_groups and the states: free the rest
        del tanh_c, one_minus_tanh2, dz, one_minus
        gates = gates_t = None
        adjoints = []
        for x, (wx, wh, b), (xd, wxd, whd, _, lo, hi), dz_k in zip(xs, weights, groups,
                                                                  dz_groups):
            dz_flat = dz_k.reshape(n * steps, 4 * (hi - lo))
            h_prev = np.zeros((n, steps, hi - lo), dtype=dtype)
            h_prev[:, 1:] = states[:, :-1, 0, lo:hi]
            adjoints += [(x, (dz_flat @ wxd.T).reshape(xd.shape)),
                         (wx, xd.reshape(n * steps, wxd.shape[0]).T @ dz_flat),
                         (wh, h_prev.reshape(n * steps, hi - lo).T @ dz_flat),
                         (b, dz_flat.sum(axis=0))]
        return adjoints

    _record("lstm_sequence", out, bwd)
    return out


def _live_row_order(valid: np.ndarray, hids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The row order and the rows stepped at each step, (B,) and (T,), of
    the untaped pass for groups of hidden sizes ``hids``, where ``valid``
    (B, T) marks the steps a row takes in any group: rows sorted stably by
    their last valid step, latest first, and at step t the rows with a valid
    step at or after t, never fewer than ``min(B, LSTM_MIN_ROWS)``. All B
    rows in batch order at every step when a hidden size is not a multiple
    of 4 (see ``LSTM_MIN_ROWS``)."""
    n, steps = valid.shape
    if any(hid % 4 for hid in hids) or n <= LSTM_MIN_ROWS:
        return np.arange(n), np.full(steps, n)
    # one past each row's last valid step, 0 for a row with none
    ends = (valid * np.arange(1, steps + 1)).max(axis=1, initial=0)
    live = (ends[:, None] > np.arange(steps)).sum(axis=0)
    return np.argsort(-ends, kind="stable"), np.maximum(live, LSTM_MIN_ROWS)


def _lstm_live_rows(groups, masks: list[np.ndarray], hids: list[int], dtype,
                    last_h: bool) -> np.ndarray:
    """:func:`lstm_sequence`'s pass without a tape: ``groups`` and ``masks``
    (B, T) as it builds them. Returns the (B, T, 2, H) states, or with
    ``last_h`` the (B, H) h after the final step.

    The rows are ordered once, stably, by their last valid step in any
    group (:func:`_live_row_order`), and h and c are kept in that order
    from the first step. The rows that still have a valid step at or after
    step t are a prefix of it; only that prefix, and never fewer than
    ``min(B, LSTM_MIN_ROWS)`` rows, is stepped: x is projected one step at
    a time from its rows, gathered in that order, and each step's states
    are scattered back to batch order. Rows in the prefix whose mask is
    false at t blend as in the taped pass. When every step runs every row,
    the order is the batch's and the steps read views. Each row meets the
    same GEMMs and elementwise ops on the same values as in a pass over all
    rows, so the states keep their bits.
    """
    n, steps = masks[0].shape
    width = sum(hids)
    order, live = _live_row_order(np.logical_or.reduce(masks), hids)
    if (live == n).all():  # the order is the batch's: no gathers
        order = slice(None)
    step_mask = np.stack([m[order].T for m in masks], axis=2)   # (T, B, groups)
    unit_mask = step_mask if len(hids) == 1 else np.repeat(step_mask, hids, axis=2)
    # [t, r]: rows 0..r of the order all take step t in every group
    prefix_full = np.logical_and.accumulate(np.logical_and.reduce(masks)[order].T, axis=1)

    z_buf = np.empty(4 * n * width, dtype=dtype)
    h, c = np.zeros((n, width), dtype=dtype), np.zeros((n, width), dtype=dtype)
    states = None if last_h else np.empty((n, steps, 2, width), dtype=dtype)
    with np.errstate(over="ignore"):  # for _sigmoid
        for t in range(steps):
            k = live[t]
            stepped = order if k == n else order[:k]
            z = z_buf[:4 * k * width].reshape(4, k, width)
            for xd, wxd, whd, b4, lo, hi in groups:
                # (x @ Wx + b) + h @ Wh batch-major, then one transposed copy
                xw = (xd[stepped, t] @ wxd).reshape(k, 4, hi - lo)
                xw += b4
                xw += (h[:k, lo:hi] @ whd).reshape(k, 4, hi - lo)
                z[..., lo:hi].transpose(1, 0, 2)[...] = xw
            h_new, c_new = _lstm_cell(z, c[:k])
            if k and not prefix_full[t, k - 1]:   # k is 0 only in an empty batch
                m = unit_mask[t, :k]
                h_new, c_new = np.where(m, h_new, h[:k]), np.where(m, c_new, c[:k])
            if k == n:
                h, c = h_new, c_new
            else:
                h[:k], c[:k] = h_new, c_new
            if states is not None:
                states[order, t, 0] = h
                states[order, t, 1] = c
    if not last_h:
        return states
    out = np.empty_like(h)
    out[order] = h
    return out


def linear_recurrence(keep, write, u0) -> Tensor:
    """u_t = keep_t * u_{t-1} + write_t over the steps (axis 1) of ``keep``
    and ``write`` (B, T, D), from ``u0`` (B, D); returns u_T.

    The steps run over step-major copies, so every step reads contiguous
    (B, D) blocks. Under a tape the whole recurrence is one record; its
    backward walks the steps in reverse with the same products the stepped
    ``mul``/``add`` chain would form, into step-major adjoints.
    """
    keep = _as_tensor(keep)
    write = _as_tensor(write)
    u0 = _as_tensor(u0)
    if keep.ndim != 3 or write.shape != keep.shape or u0.shape != (keep.shape[0], keep.shape[2]):
        raise ShapeError(f"linear_recurrence shapes disagree: keep {keep.shape}, "
                         f"write {write.shape}, u0 {u0.shape}")
    kd = keep.data
    steps = kd.shape[1]
    keep_t, write_t = (np.ascontiguousarray(a.transpose(1, 0, 2)) for a in (kd, write.data))
    us = [u0.data]  # us[t] is u_{t-1} of step t
    for t in range(steps):
        us.append(keep_t[t] * us[-1] + write_t[t])
    del keep_t, write_t
    out = Tensor(us[-1])
    if active_tape() is not None:
        def bwd(g):
            d_keep = np.empty((steps, kd.shape[0], kd.shape[2]), dtype=kd.dtype)  # step-major
            d_write = np.empty_like(d_keep, dtype=write.data.dtype)
            for t in range(steps - 1, -1, -1):
                d_write[t] = g
                np.multiply(g, us[t], out=d_keep[t])
                g = g * kd[:, t]
            return ((keep, d_keep.transpose(1, 0, 2)), (write, d_write.transpose(1, 0, 2)),
                    (u0, g))
        _record("linear_recurrence", out, bwd)
    return out


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` from a key-major copy of a: one
    elementwise maximum per key over whole rows, not a short reduction per
    row. The bytes are the same, but for a row whose maximum is a zero,
    which may get the other zero's sign; exp(a - max) is the same then."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0)).max(axis=0)[..., None]


def scaled_dot_attention(q, k, v, mask: np.ndarray | None = None, *, heads: int = 1) -> Tensor:
    """softmax(q kᵀ / sqrt(d) + mask_bias) v over the last two axes, per head:
    the last axis of q, k and v splits into ``heads`` equal parts (d is q's
    part), and the heads' outputs join back along the last axis.

    ``mask`` marks valid key positions. It has shape (..., Tk), aligned
    with q's leading axes, and is broadcast over the head and query axes;
    masked positions receive a -1e9 additive bias. A row whose keys are all
    masked returns zeros, which is what the fusion models use when a whole
    modality has been dropped. Under a tape the whole attention is one
    record with a hand-written backward.

    The softmax's row max is taken key-major (:func:`_row_max`). Its
    denominator, and the backward's row dot of the weights with their
    adjoint, are matrix-vector products with a ones vector, so their bits
    depend on the BLAS core and thread count as a GEMM's do.
    """
    q = _as_tensor(q)
    k = _as_tensor(k)
    v = _as_tensor(v)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention q/k dims disagree: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention k/v lengths disagree: {k.shape} vs {v.shape}")
    if heads < 1 or q.shape[-1] % heads or v.shape[-1] % heads:
        raise ShapeError(f"attention cannot split q {q.shape} and v {v.shape} into {heads} heads")

    def split(a):  # (..., T, H·d) -> (..., H, T, d), a view
        return a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)).swapaxes(-2, -3)

    def join(a):  # (..., H, T, d) -> (..., T, H·d)
        return a.swapaxes(-2, -3).reshape(a.shape[:-3] + (a.shape[-2], heads * a.shape[-1]))

    qh, k_t, vh = split(q.data), split(k.data).swapaxes(-1, -2), split(v.data)
    keep = None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[-1] != k.shape[-2]:
            raise ShapeError(f"attention mask {mask.shape} does not cover keys {k.shape}")
        mask = mask[..., None, None, :]  # the head and query axes
        keep = mask.any(axis=-1, keepdims=True)
        keep = None if keep.all() else keep.astype(q.data.dtype)
    scores = qh @ k_t
    qk_shape = scores.shape
    scale = np.asarray(1.0 / math.sqrt(qh.shape[-1]), dtype=scores.dtype)
    scores *= scale
    if mask is not None:
        scores = scores + np.where(mask, 0.0, MASK_BIAS).astype(q.data.dtype)
    scores -= _row_max(scores)
    weights = np.exp(scores, out=scores)
    ones_k = np.ones(weights.shape[-1], dtype=weights.dtype)
    weights /= (weights @ ones_k)[..., None]
    att = weights @ vh
    out = Tensor(join(att if keep is None else att * keep))
    if active_tape() is not None:
        def bwd(g):
            g = split(g)
            if keep is not None:
                g = _unbroadcast(g * keep, att.shape)
            d_weights, dv = _matmul_adjoints(g, weights, vh)
            d_scores = (d_weights - ((d_weights * weights) @ ones_k)[..., None]) * weights
            d_qk = _unbroadcast(d_scores, qk_shape) * scale
            dq, dk_t = _matmul_adjoints(d_qk, qh, k_t)
            return ((q, join(dq)), (k, join(dk_t.swapaxes(-1, -2))), (v, join(dv)))
        _record("scaled_dot_attention", out, bwd)
    return out


def outer_fusion(vectors: Sequence, augment: bool = True) -> Tensor:
    """Flattened m-way outer product of the given vectors, row-major in
    list order. With ``augment`` each vector is prepended with a constant
    1, which is what makes the lower-order interaction terms appear; the
    result has length prod(d_i + 1).

    Accepts 1-D vectors or batched (B, d_i) tensors. Each partial product
    is one ``np.einsum("bi,bj->bij")``, or a broadcast product when a factor
    has its sign bit set or a NaN; both give the same bits. Under a tape the
    whole product is one record; its backward walks the factors in reverse
    with batched matmuls on the (B, p, q) view of the adjoint.
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
    # einsum writes +0.0 where the product is -0.0, and of two NaN operands it
    # may keep the other one. Only a factor with its sign bit set or a NaN can
    # give either, and then the broadcast product keeps the bits.
    plain = not any(np.signbit(f).any() or np.isnan(f).any() for f in factors)
    prods = [factors[0]]  # prods[k]: product of factors[0..k], (B, p_k)
    for f in factors[1:]:
        p, q = prods[-1].shape[1], f.shape[1]
        prod = (np.einsum("bi,bj->bij", prods[-1], f) if plain
                else prods[-1].reshape(batch, p, 1) * f.reshape(batch, 1, q))
        prods.append(prod.reshape(batch, p * q))
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
