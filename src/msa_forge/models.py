"""Benchmark fusion architectures over padded multimodal batches.

Every model consumes a :class:`Batch` (per-modality padded arrays plus
validity masks) and produces a :class:`ModelOutput` carrying a continuous
sentiment prediction, the fusion representation, and, where the
architecture has them, explicit unimodal representations. The registry
covers late fusion (lf_dnn), early fusion (ef_lstm), outer-product tensor
fusion (tfn), its low-rank factorization (lmf), a gated-memory multi-view
recurrent model (mfn), a lite directional cross-modal attention model
(mult), a lite shared/private subspace model (misa), and multi-task
variants (mlf_dnn, mtfn, mlmf) trained against unimodal labels, each its
base class with :class:`MultitaskWrapper` in front.

Sequences are never assumed to be word-aligned across modalities: models
pool or cross-attend per modality using the masks.

Checkpoints store ``params.bin`` with the named-block codec of
:mod:`msa_forge.bundle`; a malformed manifest raises ModelError, a
malformed ``params.bin`` BundleFormatError.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .bundle import (MODALITIES, FeatureBundle, extractor_record, read_json_object,
                     read_named_arrays, write_named_arrays)
from .errors import BundleFormatError, ModelError, ShapeError

__all__ = [
    "ModelConfig",
    "ModalityInput",
    "Batch",
    "ModelOutput",
    "Model",
    "build_model",
    "batch_from_bundle",
    "save_checkpoint",
    "load_checkpoint",
    "MODEL_REGISTRY",
    "MULTITASK_BASES",
    "OUT_OF_SCOPE_MODELS",
]

UNI_LABEL_KEYS = {"text": "t", "audio": "a", "vision": "v"}

# Rows (batch x time steps) that mfn's memory attention and gates take in one
# pass: a training batch runs all its steps at once, a large eval batch runs
# spans of steps, so its temporaries stay small.
MFN_MEMORY_ROWS = 1024


def coerce_scalar(current, value):
    """``value`` as the type of the scalar field now holding ``current``.
    A list, dict or None never fits, a bool fits only a bool field, a str
    never fits a number field, and a fraction never fits an int field."""
    if value is None or isinstance(value, (list, dict)):
        raise TypeError(f"expected {type(current).__name__}, not {type(value).__name__}")
    if isinstance(value, bool) and not isinstance(current, bool):
        raise TypeError(f"expected {type(current).__name__}, not a bool")
    if isinstance(value, str) and isinstance(current, (int, float)):
        raise TypeError(f"expected {type(current).__name__}, not a str")
    if isinstance(current, int) and isinstance(value, float) and not value.is_integer():
        raise TypeError(f"expected an integer, got {value!r}")
    return type(current)(value)


def _default_hidden() -> dict[str, int]:
    return {"text": 32, "audio": 16, "vision": 16}


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by the registry.

    ``feature_dims`` maps present modalities to their input feature dim.
    Defaults are plumbing choices except post_fusion_dim, which follows the
    published override example.
    """

    model_name: str
    feature_dims: dict[str, int] | None = None
    hidden_dims: dict[str, int] = field(default_factory=_default_hidden)
    post_fusion_dim: int = 32
    lmf_rank: int = 4
    mfn_mem_dim: int = 64
    attn_heads: int = 2
    attn_layers: int = 1
    mult_hidden: int = 16
    misa_sim_weight: float = 0.1
    misa_orth_weight: float = 0.1
    misa_recon_weight: float = 0.1
    multitask_uni_weight: float = 1.0
    dropout: float = 0.1
    seed: int = 1111
    dtype: str = "f32"

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "f64" else np.float32

    def modalities(self) -> list[str]:
        if self.feature_dims is None:
            raise ModelError(f"{self.model_name}: feature_dims not set "
                             "(derive them from a bundle or pass them explicitly)")
        return [m for m in MODALITIES if m in self.feature_dims]

    def validate(self) -> None:
        dims = self.feature_dims
        if dims is not None and not (isinstance(dims, dict) and dims):
            raise ModelError(f"feature_dims must map at least one modality to a size, got {dims!r}")
        for m, d in (dims or {}).items():
            if m not in MODALITIES:
                raise ModelError(f"unknown modality {m!r} in feature_dims")
            if d <= 0:
                raise ModelError(f"feature dim for {m!r} must be positive, got {d}")
            if self.hidden_dims.get(m, 0) <= 0:
                raise ModelError(f"hidden dim for {m!r} must be positive")
        if self.post_fusion_dim <= 0:
            raise ModelError("post_fusion_dim must be positive")
        if self.lmf_rank < 1:
            raise ModelError(f"lmf_rank must be >= 1, got {self.lmf_rank}")
        if self.mfn_mem_dim <= 0 or self.mult_hidden <= 0:
            raise ModelError("memory/attention hidden dims must be positive")
        for name in ("attn_heads", "attn_layers"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mult_hidden % self.attn_heads != 0:
            raise ModelError(
                f"mult_hidden {self.mult_hidden} not divisible by attn_heads {self.attn_heads}")
        for name in ("misa_sim_weight", "misa_orth_weight", "misa_recon_weight",
                     "multitask_uni_weight"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dtype not in ("f32", "f64"):
            raise ModelError(f"dtype must be 'f32' or 'f64', got {self.dtype!r}")


@dataclass
class ModalityInput:
    data: np.ndarray   # (B, T, d)
    mask: np.ndarray   # (B, T) bool


@dataclass
class Batch:
    modalities: dict[str, ModalityInput]
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    ids: list[str] | None = None

    @property
    def size(self) -> int:
        first = next(iter(self.modalities.values()))
        return first.data.shape[0]


def batch_from_bundle(bundle: FeatureBundle, indices=None,
                      dtype=np.float32) -> Batch:
    """Padded model input for the given sample indices (all by default).
    Only those rows are read: each mask comes from their lengths."""
    if indices is None:
        indices = np.arange(bundle.n)
    indices = np.asarray(indices, dtype=np.int64)
    mods = {}
    for name, block in bundle.blocks.items():
        mask = np.arange(block.max_len) < block.lengths[indices][:, None]
        mods[name] = ModalityInput(data=block.data[indices].astype(dtype, copy=False), mask=mask)
    every = bundle.manifest.samples
    samples = [every[i] for i in indices.tolist()]
    labels: dict[str, np.ndarray] = {
        "m": np.array([s.label_m for s in samples], dtype=np.float64)}
    for mod, key in UNI_LABEL_KEYS.items():
        if mod in bundle.blocks:
            vals = [getattr(s, f"label_{key}") for s in samples]
            if None not in vals:
                labels[key] = np.array(vals, dtype=np.float64)
    return Batch(modalities=mods, labels=labels, ids=[s.id for s in samples])


@dataclass
class ModelOutput:
    pred: Tensor                              # (B,)
    fusion_rep: Tensor                        # (B, d_f)
    uni_reps: dict[str, Tensor] | None = None
    aux_preds: dict[str, Tensor] | None = None
    aux_loss: Tensor | None = None


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def _affine(params: ParamSet, name: str, x: Tensor) -> Tensor:
    return ad.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def _lstm_params(params: ParamSet, name: str) -> dict[str, Tensor]:
    return {"wx": params[f"{name}.wx"], "wh": params[f"{name}.wh"], "b": params[f"{name}.b"]}


def _pad_to_common(batch: Batch, mods: list[str], dtype):
    """Each modality zero-padded to the longest length T: the (B, T, d_m)
    inputs, their (B, T) masks with the padded steps masked, and the union
    of the masks (the steps some modality takes)."""
    b = batch.size
    t_common = max(batch.modalities[m].data.shape[1] for m in mods)
    xs, masks = [], []
    for m in mods:
        mod = batch.modalities[m]
        t_m = mod.data.shape[1]
        x = np.zeros((b, t_common, mod.data.shape[2]), dtype=dtype)
        x[:, :t_m] = mod.data
        mask = np.zeros((b, t_common), dtype=bool)
        mask[:, :t_m] = mod.mask
        xs.append(x)
        masks.append(mask)
    return xs, masks, np.logical_or.reduce(masks)


class Model:
    """Base class: owns the config, the parameter table that a subclass's
    ``__init__`` declares through ``_param``/``_linear``/``_lstm``, its
    ParamSet, and the training loss."""

    needs_unimodal_labels = False

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.name = config.model_name
        # parameter name -> (shape, init bound), in declaration order
        self.param_table: dict[str, tuple[tuple[int, ...], float]] = {}
        self._params: ParamSet | None = None
        self._dropout_rng = np.random.default_rng([config.seed, 0xD0])

    @property
    def params(self) -> ParamSet:
        """Unless a checkpoint set them, the first use draws each row's values
        in declaration order from ``default_rng(config.seed)``."""
        if self._params is None:
            rng = np.random.default_rng(self.config.seed)
            self._params = ParamSet({
                name: rng.uniform(-bound, bound, size=shape).astype(self.dtype)
                for name, (shape, bound) in self.param_table.items()})
        return self._params

    @params.setter
    def params(self, params: ParamSet) -> None:
        self._params = params

    # -- shared building blocks ------------------------------------------
    @property
    def dtype(self):
        return self.config.np_dtype

    def _param(self, name: str, shape: tuple[int, ...], bound: float) -> None:
        self.param_table[name] = (shape, bound)

    def _linear(self, name: str, fan_in: int, fan_out: int) -> None:
        bound = 1.0 / math.sqrt(fan_in)
        self._param(f"{name}.w", (fan_in, fan_out), bound)
        self._param(f"{name}.b", (fan_out,), bound)

    def _lstm(self, name: str, d_in: int, hidden: int) -> None:
        bound = 1.0 / math.sqrt(hidden)
        self._param(f"{name}.wx", (d_in, 4 * hidden), bound)
        self._param(f"{name}.wh", (hidden, 4 * hidden), bound)
        self._param(f"{name}.b", (4 * hidden,), bound)

    def modalities(self) -> list[str]:
        return self.config.modalities()

    def _check_batch(self, batch: Batch) -> None:
        for m in self.modalities():
            if m not in batch.modalities:
                raise ShapeError(f"batch is missing modality {m!r}")
            d = batch.modalities[m].data.shape[-1]
            if d != self.config.feature_dims[m]:
                raise ShapeError(
                    f"modality {m!r}: batch dim {d} != config dim {self.config.feature_dims[m]}")

    def _init_encoder(self, prefix: str, m: str) -> None:
        d, h = self.config.feature_dims[m], self.config.hidden_dims[m]
        self._linear(f"{prefix}.{m}.l1", d, h)
        self._linear(f"{prefix}.{m}.l2", h, h)

    def _encode(self, prefix: str, m: str, batch: Batch, train: bool) -> Tensor:
        mod = batch.modalities[m]
        pooled = ad.masked_mean(Tensor(mod.data), mod.mask)
        h = ad.relu(_affine(self.params, f"{prefix}.{m}.l1", pooled))
        h = ad.dropout(h, self.config.dropout, train, self._dropout_rng)
        return ad.relu(_affine(self.params, f"{prefix}.{m}.l2", h))

    def _init_head(self, prefix: str, d_in: int, hidden: int) -> None:
        self._linear(f"{prefix}.l1", d_in, hidden)
        self._linear(f"{prefix}.l2", hidden, 1)

    def _head(self, prefix: str, x: Tensor, train: bool) -> tuple[Tensor, Tensor]:
        hidden = ad.relu(_affine(self.params, f"{prefix}.l1", x))
        hidden = ad.dropout(hidden, self.config.dropout, train, self._dropout_rng)
        pred = _affine(self.params, f"{prefix}.l2", hidden)
        return ad.reshape(pred, (-1,)), hidden

    # -- interface ---------------------------------------------------------
    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        raise NotImplementedError

    def loss(self, output: ModelOutput, batch: Batch) -> Tensor:
        target = Tensor(batch.labels["m"].astype(self.dtype))
        total = ad.l1_loss(output.pred, target)
        if output.aux_loss is not None:
            total = ad.add(total, output.aux_loss)
        return total


class LFDNN(Model):
    """Per-modality encoders (masked-mean pooling into a 2-layer MLP),
    concatenation, and an MLP head: late fusion."""

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        for m in self.modalities():
            self._init_encoder("enc", m)
        total = sum(config.hidden_dims[m] for m in self.modalities())
        self._init_head("head", total, config.post_fusion_dim)

    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        self._check_batch(batch)
        uni = {m: self._encode("enc", m, batch, train) for m in self.modalities()}
        fused_in = ad.concat([uni[m] for m in self.modalities()], axis=1)
        pred, hidden = self._head("head", fused_in, train)
        return ModelOutput(pred=pred, fusion_rep=hidden, uni_reps=uni)


class EFLSTM(Model):
    """Frame-level concatenation of all modalities into one LSTM: early
    fusion. Sequences are zero-padded to a common length; a sample's step
    is applied where any modality is valid, so the final state is the
    last-valid state."""

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        mods = self.modalities()
        d_total = sum(config.feature_dims[m] for m in mods)
        self.hidden = config.hidden_dims[mods[0]]
        self._lstm("lstm", d_total, self.hidden)
        self._init_head("head", self.hidden, config.post_fusion_dim)

    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        self._check_batch(batch)
        pieces, _, union = _pad_to_common(batch, self.modalities(), self.dtype)
        x = Tensor(np.concatenate(pieces, axis=2))
        del pieces
        h_last = ad.lstm_sequence([x], [union], [_lstm_params(self.params, "lstm")], last_h=True)
        pred, hidden = self._head("head", h_last, train)
        return ModelOutput(pred=pred, fusion_rep=hidden)


class TFN(Model):
    """Encoders feed a constant-augmented outer product capturing uni-,
    bi-, and tri-modal interaction terms, then a post-fusion MLP."""

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        mods = self.modalities()
        if len(mods) < 2:
            raise ModelError("tfn needs at least two modalities")
        for m in mods:
            self._init_encoder("enc", m)
        fused = 1
        for m in mods:
            fused *= config.hidden_dims[m] + 1
        self.fusion_tensor_len = fused
        self._init_head("post", fused, config.post_fusion_dim)

    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        self._check_batch(batch)
        uni = {m: self._encode("enc", m, batch, train) for m in self.modalities()}
        fused_in = ad.outer_fusion([uni[m] for m in self.modalities()], augment=True)
        pred, hidden = self._head("post", fused_in, train)
        return ModelOutput(pred=pred, fusion_rep=hidden, uni_reps=uni)


class LMF(Model):
    """Low-rank factorization of the tensor-fusion weight tensor: per
    modality, rank-many factor matrices over the 1-augmented encoding;
    fusion is the elementwise product of per-modality projections summed
    over rank with output weights."""

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        mods = self.modalities()
        if len(mods) < 2:
            raise ModelError("lmf needs at least two modalities")
        rank, out = config.lmf_rank, config.post_fusion_dim
        for m in mods:
            self._init_encoder("enc", m)
            h = config.hidden_dims[m]
            self._param(f"lmf.{m}.factor", (rank, h + 1, out), 1.0 / math.sqrt(h + 1))
        self._param("lmf.weights", (1, rank), 1.0 / math.sqrt(rank))
        self._param("lmf.bias", (out,), 1.0 / math.sqrt(rank))
        self._linear("out", out, 1)

    def _fuse(self, uni: dict[str, Tensor]) -> Tensor:
        b = next(iter(uni.values())).shape[0]
        ones = Tensor(np.ones((b, 1), dtype=self.dtype))
        prod = None
        for m in self.modalities():
            aug = ad.concat([ones, uni[m]], axis=1)                # (B, h+1)
            proj = ad.matmul(aug, self.params[f"lmf.{m}.factor"])  # (rank, B, out)
            prod = proj if prod is None else ad.mul(prod, proj)
        mixed = ad.matmul(self.params["lmf.weights"],
                          ad.transpose(prod, (1, 0, 2)))           # (B, 1, out)
        fused = ad.reshape(mixed, (b, -1))
        return ad.add(fused, self.params["lmf.bias"])

    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        self._check_batch(batch)
        uni = {m: self._encode("enc", m, batch, train) for m in self.modalities()}
        fused = self._fuse(uni)
        fused = ad.dropout(fused, self.config.dropout, train, self._dropout_rng)
        pred = ad.reshape(_affine(self.params, "out", fused), (-1,))
        return ModelOutput(pred=pred, fusion_rep=fused, uni_reps=uni)


class MFN(Model):
    """One LSTM per modality over the common length, all run in lockstep by
    one lstm_sequence call; at each step, attention over the memory delta
    [c_{t-1}; c_t] of the concatenated cell states writes a gated memory
    u_t = g1 * u_{t-1} + g2 * tanh(candidate)."""

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        mods = self.modalities()
        for m in mods:
            self._lstm(f"lstm.{m}", config.feature_dims[m], config.hidden_dims[m])
        delta = 2 * sum(config.hidden_dims[m] for m in mods)
        mem = config.mfn_mem_dim
        self._linear("att", delta, delta)
        self._linear("cand", delta, mem)
        self._linear("gate1", delta, mem)
        self._linear("gate2", delta, mem)
        total = sum(config.hidden_dims[m] for m in mods) + mem
        self._init_head("head", total, config.post_fusion_dim)

    def _memory(self, c_pad: Tensor, union: np.ndarray, start: int, stop: int,
                u: Tensor) -> Tensor:
        """Steps start..stop-1 of the gated memory, from u_{start-1}. The
        memory reads only the cell states, so attention and gates run over
        all these steps at once; only u_t = a_t * u_{t-1} + b_t is stepped,
        inside one linear_recurrence."""
        b, n = c_pad.shape[0], stop - start
        delta = ad.concat([ad.slice_(c_pad, (slice(None), slice(start, stop))),
                           ad.slice_(c_pad, (slice(None), slice(start + 1, stop + 1)))], axis=2)
        delta = ad.reshape(delta, (b * n, -1))
        attended = ad.mul(delta, ad.softmax(_affine(self.params, "att", delta), axis=-1))
        del delta
        cand = ad.tanh(_affine(self.params, "cand", attended))
        g1 = ad.sigmoid(_affine(self.params, "gate1", attended))
        g2 = ad.sigmoid(_affine(self.params, "gate2", attended))
        del attended
        # a step no modality takes keeps u: a_t = 1, b_t = 0
        step = union[:, start:stop].reshape(-1, 1).astype(self.dtype)
        keep = ad.reshape(ad.add(ad.mul(g1, step), 1.0 - step), (b, n, -1))
        del g1
        write = ad.reshape(ad.mul(ad.mul(g2, cand), step), (b, n, -1))
        del g2, cand
        return ad.linear_recurrence(keep, write, u)

    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        self._check_batch(batch)
        mods = self.modalities()
        b = batch.size
        # a shorter modality is padded with masked steps, so its state carries
        xs, masks, union = _pad_to_common(batch, mods, self.dtype)
        t_common = union.shape[1]
        # the modalities' LSTMs run in lockstep, their states side by side
        states = ad.lstm_sequence([Tensor(x) for x in xs], masks,
                                  [_lstm_params(self.params, f"lstm.{m}") for m in mods])
        del xs
        h_last = ad.slice_(states, (slice(None), -1, 0))                 # (B, sum h)
        h, lo = {}, 0
        for m in mods:
            hi = lo + self.config.hidden_dims[m]
            h[m] = ad.slice_(h_last, (slice(None), slice(lo, hi)))
            lo = hi
        c_all = ad.slice_(states, (slice(None), slice(None), 1))         # (B, T, sum h)
        del states
        # c_pad[:, t] is c_{t-1}, so the memory delta at step t is [c_pad[:, t]; c_pad[:, t + 1]]
        c_pad = ad.concat([Tensor(np.zeros((b, 1, c_all.shape[2]), dtype=self.dtype)), c_all],
                          axis=1)
        del c_all
        u = Tensor(np.zeros((b, self.config.mfn_mem_dim), dtype=self.dtype))
        span = max(1, MFN_MEMORY_ROWS // b)
        for start in range(0, t_common, span):
            u = self._memory(c_pad, union, start, min(start + span, t_common), u)

        rep = ad.concat([h[m] for m in mods] + [u], axis=1)
        pred, hidden = self._head("head", rep, train)
        return ModelOutput(pred=pred, fusion_rep=hidden, uni_reps=h)


class MulTLite(Model):
    """Directional pairwise cross-modal attention: for every ordered
    modality pair the target queries the source through multi-head scaled
    dot attention with residuals (no layer norm), then masked-mean pooled
    translated streams concatenate into the head. Each (pair, layer) is one
    scaled_dot_attention call, which splits the projections into heads."""

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        mods = self.modalities()
        if len(mods) < 2:
            raise ModelError("mult needs at least two modalities")
        hid = config.mult_hidden
        for m in mods:
            self._linear(f"proj.{m}", config.feature_dims[m], hid)
        self.pairs = [(tgt, src) for tgt in mods for src in mods if tgt != src]
        for tgt, src in self.pairs:
            for layer in range(config.attn_layers):
                base = f"x.{tgt}_{src}.l{layer}"
                self._linear(f"{base}.q", hid, hid)
                self._linear(f"{base}.k", hid, hid)
                self._linear(f"{base}.v", hid, hid)
        self._init_head("head", len(self.pairs) * hid, config.post_fusion_dim)

    def _multihead(self, base: str, cur: Tensor, src: Tensor,
                   src_mask: np.ndarray) -> Tensor:
        p = self.params
        return ad.scaled_dot_attention(
            _affine(p, f"{base}.q", cur), _affine(p, f"{base}.k", src),
            _affine(p, f"{base}.v", src), mask=src_mask, heads=self.config.attn_heads)

    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        self._check_batch(batch)
        mods = self.modalities()
        proj = {m: ad.relu(_affine(self.params, f"proj.{m}",
                                   Tensor(batch.modalities[m].data))) for m in mods}
        pooled = []
        for tgt, src in self.pairs:
            cur = proj[tgt]
            for layer in range(self.config.attn_layers):
                att = self._multihead(f"x.{tgt}_{src}.l{layer}", cur, proj[src],
                                      batch.modalities[src].mask)
                cur = ad.add(cur, att)
            pooled.append(ad.masked_mean(cur, batch.modalities[tgt].mask))
        fused_in = ad.concat(pooled, axis=1)
        fused_in = ad.dropout(fused_in, self.config.dropout, train, self._dropout_rng)
        pred, hidden = self._head("head", fused_in, train)
        uni = {m: ad.masked_mean(proj[m], batch.modalities[m].mask) for m in mods}
        return ModelOutput(pred=pred, fusion_rep=hidden, uni_reps=uni)


class MISALite(Model):
    """Shared-space and private-space projections per modality with
    similarity, orthogonality, and reconstruction auxiliary losses.

    Every encoder outputs a common width (the text hidden size) so one
    shared projection serves all modalities. Similarity is the mean
    pairwise squared distance between shared projections; orthogonality
    is the squared (mean-normalized) Frobenius inner product between each
    modality's shared and private projections; reconstruction decodes
    shared+private back to the encoder output under MSE.
    """

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        mods = self.modalities()
        if len(mods) < 2:
            raise ModelError("misa needs at least two modalities")
        self.common = config.hidden_dims[mods[0]]
        for m in mods:
            d = config.feature_dims[m]
            self._linear(f"enc.{m}.l1", d, self.common)
            self._linear(f"enc.{m}.l2", self.common, self.common)
            self._linear(f"priv.{m}", self.common, self.common)
        self._linear("shared", self.common, self.common)
        self._linear("dec", self.common, self.common)
        self._init_head("head", 2 * len(mods) * self.common, config.post_fusion_dim)

    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        self._check_batch(batch)
        mods = self.modalities()
        cfg = self.config
        base = {m: self._encode("enc", m, batch, train) for m in mods}
        shared = {m: ad.relu(_affine(self.params, "shared", base[m])) for m in mods}
        private = {m: ad.relu(_affine(self.params, f"priv.{m}", base[m])) for m in mods}

        sim_terms = []
        for i, m1 in enumerate(mods):
            for m2 in mods[i + 1:]:
                diff = ad.sub(shared[m1], shared[m2])
                sim_terms.append(ad.mean_(ad.mul(diff, diff)))
        sim = sim_terms[0]
        for term in sim_terms[1:]:
            sim = ad.add(sim, term)
        sim = ad.mul(sim, 1.0 / len(sim_terms))

        orth = None
        for m in mods:
            inner = ad.mean_(ad.mul(shared[m], private[m]))
            sq = ad.mul(inner, inner)
            orth = sq if orth is None else ad.add(orth, sq)

        recon = None
        for m in mods:
            dec = _affine(self.params, "dec", ad.add(shared[m], private[m]))
            term = ad.mse_loss(dec, base[m])
            recon = term if recon is None else ad.add(recon, term)
        recon = ad.mul(recon, 1.0 / len(mods))

        aux = ad.add(ad.add(ad.mul(sim, cfg.misa_sim_weight),
                            ad.mul(orth, cfg.misa_orth_weight)),
                     ad.mul(recon, cfg.misa_recon_weight))

        fused_in = ad.concat([shared[m] for m in mods] + [private[m] for m in mods], axis=1)
        pred, hidden = self._head("head", fused_in, train)
        return ModelOutput(pred=pred, fusion_rep=hidden, uni_reps=base, aux_loss=aux)


class MultitaskWrapper:
    """Mixin that goes before a base model class: ``mtfn`` is
    ``(MultitaskWrapper, TFN)``. Adds a linear head per modality on the
    base's unimodal representations (``config.hidden_dims[m]`` wide); total
    loss = the base's loss + multitask_uni_weight * sum of per-modality L1
    losses against the unimodal labels."""

    needs_unimodal_labels = True

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        for m in self.modalities():
            self._linear(f"aux.{m}", config.hidden_dims[m], 1)

    def forward(self, batch: Batch, train: bool = False) -> ModelOutput:
        out = super().forward(batch, train)
        out.aux_preds = {m: ad.reshape(_affine(self.params, f"aux.{m}", out.uni_reps[m]), (-1,))
                         for m in self.modalities()}
        return out

    def loss(self, output: ModelOutput, batch: Batch) -> Tensor:
        total = super().loss(output, batch)
        for m in self.modalities():
            key = UNI_LABEL_KEYS[m]
            if key not in batch.labels:
                raise ModelError(
                    f"model {self.name!r} trains on unimodal labels but the batch has no "
                    f"label_{key} (the bundle must provide them for every sample)")
            target = Tensor(batch.labels[key].astype(self.dtype))
            total = ad.add(total, ad.mul(ad.l1_loss(output.aux_preds[m], target),
                                         self.config.multitask_uni_weight))
        return total


MODEL_REGISTRY: dict[str, type] = {
    "lf_dnn": LFDNN,
    "ef_lstm": EFLSTM,
    "tfn": TFN,
    "lmf": LMF,
    "mfn": MFN,
    "mult": MulTLite,
    "misa": MISALite,
}

MULTITASK_BASES = {"mlf_dnn": "lf_dnn", "mtfn": "tfn", "mlmf": "lmf"}

# every buildable model; a multi-task variant is its base class with
# MultitaskWrapper in front (MLFDNN, MTFN, MLMF)
_MODEL_CLASSES: dict[str, type] = {
    **MODEL_REGISTRY,
    **{name: type(f"M{MODEL_REGISTRY[base].__name__}",
                  (MultitaskWrapper, MODEL_REGISTRY[base]), {})
       for name, base in MULTITASK_BASES.items()},
}

OUT_OF_SCOPE_MODELS = {
    "bert_mag": "not implemented: requires pretrained backbone",
    "graph_mfn": "not implemented: requires dynamic fusion-graph construction",
    "mfm": "not implemented: requires generative factorization",
    "self_mm": "not implemented: requires self-supervised label generation",
}


def check_model_name(name: str) -> None:
    """Raise ModelError unless ``name`` is a registered or multitask model."""
    if name in OUT_OF_SCOPE_MODELS:
        raise ModelError(f"{name}: {OUT_OF_SCOPE_MODELS[name]}")
    if name not in _MODEL_CLASSES:
        raise ModelError(f"unknown model {name!r}; known models: {sorted(_MODEL_CLASSES)}")


def build_model(config: ModelConfig) -> Model:
    """Construct a registered or multitask model with seeded
    uniform(+-1/sqrt(fan_in)) initialization."""
    check_model_name(config.model_name)
    return _MODEL_CLASSES[config.model_name](config)


# ---------------------------------------------------------------------------
# checkpoints: manifest.json + params.bin (named MSAB blocks, see bundle)
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path, extractors: dict[str, dict] | None = None) -> None:
    """Persist model_name, config, seed (the config's), the training bundle's
    extractor record (when it has one), and all parameters (float32)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "model_name": model.name,
        "config": asdict(model.config),
        "seed": model.config.seed,
        "params": [{"name": n, "shape": list(p.data.shape)} for n, p in model.params.items()],
    }
    if extractors is not None:
        manifest["extractors"] = extractors
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    write_named_arrays(root / "params.bin", {n: p.data for n, p in model.params.items()})


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild the model from a checkpoint directory with its weights from
    ``params.bin``; no initial values are drawn."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise ModelError(f"no checkpoint manifest under {root}")
    try:
        manifest = read_json_object(manifest_path)
    except ValueError as exc:
        raise ModelError(f"{manifest_path} {exc}") from exc
    try:
        # the top-level name wins: older multi-task checkpoints hold the base's
        # name in config.model_name; older checkpoints also hold seq_lens
        stored = dict(manifest["config"], model_name=manifest["model_name"])
        stored.pop("seq_lens", None)
        config = ModelConfig(**stored)
        for f in fields(config):
            value = getattr(config, f.name)
            if isinstance(f.default, (int, float, str)):
                setattr(config, f.name, coerce_scalar(f.default, value))
            elif isinstance(value, dict):  # modality -> size
                setattr(config, f.name, {m: coerce_scalar(0, d) for m, d in value.items()})
        if not isinstance(config.model_name, str):
            raise TypeError(f"model_name is not a string: {config.model_name!r}")
        config.validate()
        shapes = {entry["name"]: tuple(coerce_scalar(0, n) for n in entry["shape"])
                  for entry in manifest["params"]}
        extractor_record(manifest)
    except (AttributeError, KeyError, TypeError, ValueError, ModelError) as exc:
        raise ModelError(f"{manifest_path} is malformed: {exc!r}") from exc
    model = build_model(config)
    blocks = read_named_arrays(root / "params.bin")
    missing = [name for name in shapes if name not in blocks]
    if missing:
        raise BundleFormatError(f"{root / 'params.bin'}: no entry for parameters {missing}")
    declared = {name: shape for name, (shape, _) in model.param_table.items()}
    try:
        stored = {name: blocks[name].reshape(shape) for name, shape in shapes.items()}
        if shapes != declared:
            raise ValueError("the (name, shape) rows in only one of manifest and model: "
                             f"{sorted(shapes.items() ^ declared.items())}")
    except ValueError as exc:
        raise ModelError(f"{manifest_path} does not fit params.bin and model "
                         f"{model.name!r}: {exc}") from exc
    model.params = ParamSet({name: stored[name].astype(model.dtype, copy=False)
                             for name in declared})
    return model, manifest
