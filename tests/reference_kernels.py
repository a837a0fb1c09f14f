"""Reference formulations of the fused layer, recurrent and attention kernels.

Each function here is the plainer formulation that a fused primitive of
:mod:`msa_forge.autodiff` replaced: the affine layer as a ``matmul`` and an
``add`` record, one LSTM per call with its BPTT written gate by gate,
attention built from per-op tape records, and the gated memory stepped with
``slice_``/``mul``/``add``. The tests hold the fused kernels to them: f32
forwards bit for bit, f64 gradients within 1e-12. The LSTM reference shares
only the package's sigmoid helper with ``lstm_sequence``.
``lstm_sequence_batch_major`` is ``lstm_sequence`` as it was before its gate
cache went step-major, and ``outer_fusion_broadcast`` is ``outer_fusion`` as
it was before its partial products went through ``np.einsum``, and
``mult_multihead_presplit`` is mult's ``_multihead`` as it was before
``scaled_dot_attention`` split the heads itself; the package kernels must
equal them bit for bit.

``attention_per_op`` takes its softmax from ``softmax_matvec``, whose
denominators are products with a ones vector, as the fused record's are.

``sum_``, the differentiable sum that reduces a test's output to a scalar
loss, and ``lmf_full_tensor_expand``, LMF's fusion weights as one explicit
tensor, live here too: no model calls them, so the package does not carry
them.
"""

import math

import numpy as np

from msa_forge import autodiff as ad
from msa_forge.autodiff import MASK_BIAS, Tensor
from msa_forge.errors import ModelError
from msa_forge.models import LMF, Model


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


def lstm_sequence_batch_major(xs, masks, params):
    """``ad.lstm_sequence`` with its gate cache batch-major, (B, T, 4, H),
    and a per-unit mask repeated on every step: the layout the package
    kernel kept before its cache went step-major. x is projected one step
    at a time over all B rows, with and without a tape. Same GEMMs on the
    same operands and the same elementwise ops on the same values, so the
    package kernel must match it bit for bit, states and adjoints."""
    xs = [x if isinstance(x, Tensor) else Tensor(x) for x in xs]
    weights = [ad._lstm_weights(p) for p in params]
    n, steps = xs[0].shape[:2]
    masks = [np.asarray(m, dtype=bool) for m in masks]
    hids = [wh.shape[0] for _, wh, _ in weights]
    bounds = np.cumsum([0] + hids).tolist()
    groups = [(x.data, wx.data, wh.data, b.data.reshape(4, hid), lo, lo + hid)
              for x, (wx, wh, b), hid, lo in zip(xs, weights, hids, bounds)]
    width = bounds[-1]
    group_mask = np.stack(masks, axis=2)          # (B, T, groups)
    any_step = group_mask.any(axis=(0, 2))
    full_step = group_mask.all(axis=(0, 2))

    def unit_mask(t):  # (B, H): group k's mask repeated over its units; one group broadcasts
        return group_mask[:, t] if len(hids) == 1 else np.repeat(group_mask[:, t], hids, axis=1)

    dtype = np.result_type(*(x.data for x in xs), *(wx.data for wx, _, _ in weights))
    states = np.empty((n, steps, 2, width), dtype=dtype)
    taped = ad.active_tape() is not None
    if taped:  # zeros: a step no row takes leaves its gates unwritten
        gates = np.zeros((n, steps, 4, width), dtype=dtype)
    else:
        z = np.empty((n, 4, width), dtype=dtype)
    h = c = np.zeros((n, width), dtype=dtype)
    with np.errstate(over="ignore"):
        for t in range(steps):
            if any_step[t]:
                if taped:
                    z = gates[:, t]
                for xd, wxd, whd, b4, lo, hi in groups:
                    z_k = z[..., lo:hi]
                    np.add((xd[:, t] @ wxd).reshape(z_k.shape), b4, out=z_k)
                    z_k += (h[:, lo:hi] @ whd).reshape(z_k.shape)
                cell = np.tanh(z[:, 2])
                ad._sigmoid(z, out=z)
                z[:, 2] = cell
                c_new = z[:, 1] * c + z[:, 0] * z[:, 2]
                h_new = z[:, 3] * np.tanh(c_new)
                if full_step[t]:
                    h, c = h_new, c_new
                else:
                    m = unit_mask(t)
                    h, c = np.where(m, h_new, h), np.where(m, c_new, c)
            states[:, t, 0] = h
            states[:, t, 1] = c
    out = Tensor(states)
    if taped:
        def bwd(g):
            tanh_c = np.tanh(states[:, :, 1])
            one_minus_tanh2 = tanh_c * tanh_c
            np.subtract(1.0, one_minus_tanh2, out=one_minus_tanh2)
            dz_all = np.subtract(1.0, gates)
            cell = dz_all[:, :, 2]
            np.multiply(gates[:, :, 2], gates[:, :, 2], out=cell)
            np.subtract(1.0, cell, out=cell)
            c_zero = np.zeros((n, width), dtype=dtype)
            dz = np.empty((n, 4, width), dtype=dtype)
            dh = np.zeros((n, width), dtype=dtype)
            dc = np.zeros_like(dh)
            for t in range(steps - 1, -1, -1):
                dh = dh + g[:, t, 0]
                dc = dc + g[:, t, 1]
                if not any_step[t]:
                    dz_all[:, t] = 0.0
                    continue
                gates_t = gates[:, t]
                dc_in = dh * gates_t[:, 3]
                dc_in *= one_minus_tanh2[:, t]
                np.add(dc, dc_in, out=dc_in)
                np.multiply(dc_in[:, None], gates_t[:, 2::-2], out=dz[:, 0:3:2])
                np.multiply(dc_in, states[:, t - 1, 1] if t else c_zero, out=dz[:, 1])
                np.multiply(dh, tanh_c[:, t], out=dz[:, 3])
                dz[:, :2] *= gates_t[:, :2]
                dz[:, 3] *= gates_t[:, 3]
                dz_t = np.multiply(dz, dz_all[:, t], out=dz_all[:, t])
                dh_new = np.empty_like(dh)
                if not full_step[t]:
                    m = unit_mask(t)
                    dz_t[...] = np.where(m[:, None], dz_t, 0.0)
                for _, _, whd, _, lo, hi in groups:
                    np.matmul(dz_t[..., lo:hi].reshape(n, 4 * (hi - lo)), whd.T,
                              out=dh_new[:, lo:hi])
                dc_prev = dc_in * gates_t[:, 1]
                if full_step[t]:
                    dh, dc = dh_new, dc_prev
                else:
                    dh, dc = np.where(m, dh_new, dh), np.where(m, dc_prev, dc)
            adjoints = []
            for x, (wx, wh, b), (xd, wxd, whd, _, lo, hi) in zip(xs, weights, groups):
                dz_flat = dz_all[..., lo:hi].reshape(n * steps, 4 * (hi - lo))
                h_prev = np.zeros((n, steps, hi - lo), dtype=dtype)
                h_prev[:, 1:] = states[:, :-1, 0, lo:hi]
                adjoints += [(x, (dz_flat @ wxd.T).reshape(xd.shape)),
                             (wx, xd.reshape(n * steps, -1).T @ dz_flat),
                             (wh, h_prev.reshape(n * steps, hi - lo).T @ dz_flat),
                             (b, dz_flat.sum(axis=0))]
            return adjoints
        ad._record("lstm_sequence_batch_major", out, bwd)
    return out


def softmax_matvec(x):
    """The softmax over the last axis as one ``softmax`` record, its
    denominator and its backward's row dot taken as products with a ones
    vector, as :func:`msa_forge.autodiff.scaled_dot_attention` takes them
    (the package's generic ``softmax`` sums the rows)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    ones = np.ones(x.shape[-1], dtype=x.data.dtype)
    y = e / (e @ ones)[..., None]
    out = Tensor(y)
    if ad.active_tape() is not None:
        def bwd(g):
            return ((x, (g - ((g * y) @ ones)[..., None]) * y),)
        ad._record("softmax", out, bwd)
    return out


def attention_per_op(q, k, v, mask=None):
    """softmax(q kᵀ / sqrt(d) + mask_bias) v from transpose, matmul, mul,
    add, softmax and matmul records; rows with no valid key become zeros."""
    q, k, v = (t if isinstance(t, Tensor) else Tensor(t) for t in (q, k, v))
    k_t = ad.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = ad.mul(ad.matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1]))
    if mask is None:
        return ad.matmul(softmax_matvec(scores), v)
    mask = np.asarray(mask, dtype=bool)[..., None, :]
    bias = np.where(mask, 0.0, MASK_BIAS).astype(q.data.dtype)
    out = ad.matmul(softmax_matvec(ad.add(scores, bias)), v)
    keep = mask.any(axis=-1, keepdims=True)
    if keep.all():
        return out
    return ad.mul(out, keep.astype(q.data.dtype))


def mult_multihead_presplit(model, base, cur, src, src_mask):
    """mult's attention with the heads made a batch axis on the tape: each
    (B, T, hid) projection is reshaped to (B, T, H, d) and transposed to
    (B, H, T, d), one attention call takes a (B, 1, Tk) mask, and the output
    is transposed and reshaped back."""
    heads = model.config.attn_heads

    def split_heads(name, x):
        y = ad.reshape(ad.linear(x, model.params[f"{base}.{name}.w"],
                                 model.params[f"{base}.{name}.b"]), x.shape[:2] + (heads, -1))
        return ad.transpose(y, (0, 2, 1, 3))

    att = ad.scaled_dot_attention(split_heads("q", cur), split_heads("k", src),
                                  split_heads("v", src), mask=src_mask[:, None])
    return ad.reshape(ad.transpose(att, (0, 2, 1, 3)), cur.shape)


def memory_stepped(keep, write, u):
    """u_t = keep_t * u_{t-1} + write_t stepped with slice_, mul and add."""
    for t in range(keep.shape[1]):
        u = ad.add(ad.mul(ad.slice_(keep, (slice(None), t)), u),
                   ad.slice_(write, (slice(None), t)))
    return u


def outer_fusion_broadcast(vectors, augment=True):
    """``outer_fusion`` with every partial product a broadcast multiply of
    (B, p, 1) and (B, 1, q) views, and the same backward, as one
    ``outer_fusion_broadcast`` record."""
    ts = [t if isinstance(t, Tensor) else Tensor(t) for t in vectors]
    one_dim = all(t.ndim == 1 for t in ts)
    factors = [t.data.reshape(1, -1) if one_dim else t.data for t in ts]
    batch = factors[0].shape[0]
    if augment:
        ones = np.ones((batch, 1), dtype=factors[0].dtype)
        factors = [np.concatenate([ones, f], axis=1) for f in factors]
    prods = [factors[0]]
    for f in factors[1:]:
        p, q = prods[-1].shape[1], f.shape[1]
        prods.append((prods[-1].reshape(batch, p, 1) * f.reshape(batch, 1, q))
                     .reshape(batch, p * q))
    out = Tensor(prods[-1].reshape(-1) if one_dim else prods[-1])
    if ad.active_tape() is not None:
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
        ad._record("outer_fusion_broadcast", out, bwd)
    return out


def lmf_full_tensor_expand(model: Model) -> np.ndarray:
    """Reconstruct the explicit fusion weight tensor of an LMF model as a
    sum over rank of per-modality factor outer products.

    Contracting the 1-augmented encodings against the result (then adding
    the fusion bias) reproduces the LMF fusion output. The returned array
    has one axis of size h_m + 1 per modality plus a trailing output axis.
    """
    if not isinstance(model, LMF):
        raise ModelError(f"lmf_full_tensor_expand needs an LMF model, got {model.name!r}")
    mods = model.modalities()
    letters = "ijk"[:len(mods)]
    factors = [model.params[f"lmf.{m}.factor"].data.astype(np.float64) for m in mods]
    weights = model.params["lmf.weights"].data.astype(np.float64)[0]
    spec = ",".join(["r"] + [f"r{x}o" for x in letters]) + "->" + letters + "o"
    return np.einsum(spec, weights, *factors)
