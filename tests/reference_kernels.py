"""Reference formulations of the fused layer, recurrent and attention kernels.

Each function here is the plainer formulation that a fused primitive of
:mod:`msa_forge.autodiff` replaced: the affine layer as a ``matmul`` and an
``add`` record, one LSTM per call with its BPTT written gate by gate,
attention built from per-op tape records, and the gated memory stepped with
``slice_``/``mul``/``add``. The tests hold the fused kernels to them: f32
forwards bit for bit, f64 gradients within 1e-12. The LSTM reference shares
only the package's sigmoid helper with ``lstm_sequence``.

``sum_``, the differentiable sum that reduces a test's output to a scalar
loss, lives here too: no model calls it, so the package does not carry it.
"""

import math

import numpy as np

from msa_forge import autodiff as ad
from msa_forge.autodiff import MASK_BIAS, Tensor


def sum_(x, axis=None, keepdims=False):
    """The sum over ``axis`` (all axes by default) as one ``sum`` record."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    if ad.active_tape() is not None:
        shape = x.data.shape
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((x, np.broadcast_to(g, shape).astype(x.data.dtype, copy=False)),)
        ad._record("sum", out, bwd)
    return out


def affine_per_op(x, w, b):
    """x @ w + b as a ``matmul`` and an ``add`` record."""
    return ad.add(ad.matmul(x, w), b)


def _gates(z, c_prev):
    """Activate the pre-activations ``z`` (N, 4h) in place into the gates
    input, forget, cell, output, and return (h_t, c_t)."""
    hid = z.shape[1] // 4
    ad._sigmoid(z[:, :2 * hid], out=z[:, :2 * hid])
    np.tanh(z[:, 2 * hid:3 * hid], out=z[:, 2 * hid:3 * hid])
    ad._sigmoid(z[:, 3 * hid:], out=z[:, 3 * hid:])
    i, f, g, o = z[:, :hid], z[:, hid:2 * hid], z[:, 2 * hid:3 * hid], z[:, 3 * hid:]
    c_t = f * c_prev + i * g
    return o * np.tanh(c_t), c_t


def _gates_backward(gates, c_prev, tanh_c, dh, dc):
    """Adjoints of one step: the pre-activations' (N, 4h) and c_{t-1}'s."""
    hid = gates.shape[1] // 4
    i, f, g, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.empty_like(gates)
    dz[:, :hid] = dc * g * i * (1.0 - i)
    dz[:, hid:2 * hid] = dc * c_prev * f * (1.0 - f)
    dz[:, 2 * hid:3 * hid] = dc * i * (1.0 - g * g)
    dz[:, 3 * hid:] = dh * tanh_c * o * (1.0 - o)
    return dz, dc * f


def lstm_single(x, mask, params):
    """One LSTM over x (B, T, d) from zero state, a step applied where
    ``mask`` (B, T) is true; the (B, T, 2, h) states as one tape record."""
    x = Tensor(x) if not isinstance(x, Tensor) else x
    wx, wh, b = params["wx"], params["wh"], params["b"]
    n, steps, d = x.shape
    hid = wh.shape[0]
    xd, wxd, whd = x.data, wx.data, wh.data
    dtype = np.result_type(xd, wxd)
    states = np.empty((n, steps, 2, hid), dtype=dtype)
    taped = ad.active_tape() is not None
    if taped:
        gates = (xd.reshape(n * steps, d) @ wxd + b.data).reshape(n, steps, 4 * hid)
    h = c = np.zeros((n, hid), dtype=dtype)
    for t in range(steps):
        m = mask[:, t, None]
        if m.any():
            z = gates[:, t] if taped else xd[:, t] @ wxd + b.data
            z += h @ whd
            h_new, c_new = _gates(z, c)
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
                dz, dc_prev = _gates_backward(gates[:, t], c_prev, tanh_c[:, t], dh, dc)
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
        ad._record("lstm_single", out, bwd)
    return out


def attention_per_op(q, k, v, mask=None):
    """softmax(q kᵀ / sqrt(d) + mask_bias) v from transpose, matmul, mul,
    add, softmax and matmul records; rows with no valid key become zeros."""
    q, k, v = (t if isinstance(t, Tensor) else Tensor(t) for t in (q, k, v))
    k_t = ad.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = ad.mul(ad.matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1]))
    if mask is None:
        return ad.matmul(ad.softmax(scores, axis=-1), v)
    mask = np.asarray(mask, dtype=bool)[..., None, :]
    bias = np.where(mask, 0.0, MASK_BIAS).astype(q.data.dtype)
    out = ad.matmul(ad.softmax(ad.add(scores, bias), axis=-1), v)
    keep = mask.any(axis=-1, keepdims=True)
    if keep.all():
        return out
    return ad.mul(out, keep.astype(q.data.dtype))


def memory_stepped(keep, write, u):
    """u_t = keep_t * u_{t-1} + write_t stepped with slice_, mul and add."""
    for t in range(keep.shape[1]):
        u = ad.add(ad.mul(ad.slice_(keep, (slice(None), t)), u),
                   ad.slice_(write, (slice(None), t)))
    return u
