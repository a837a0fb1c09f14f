"""Model zoo tests: registry behavior, architecture oracles, the LMF/full
tensor equivalence, multitask wrapping, and checkpoint round-trips."""

import json

import numpy as np
import pytest

from msa_forge import autodiff as ad
from msa_forge import models
from msa_forge.autodiff import Tape, Tensor, backward, grad_check
from msa_forge.bundle import split_view
from msa_forge.errors import ModelError
from msa_forge.models import (
    Batch,
    ModalityInput,
    ModelConfig,
    MultitaskWrapper,
    batch_from_bundle,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from msa_forge.synthetic import make_synthetic_bundle
from reference_kernels import attention_per_op, lmf_full_tensor_expand, mult_multihead_presplit


TOY_SEQ_LENS = {"text": 4, "audio": 5, "vision": 3}


def toy_config(model_name, seed=7, dtype="f32", **overrides):
    base = dict(
        model_name=model_name,
        feature_dims={"text": 3, "audio": 2, "vision": 2},
        hidden_dims={"text": 4, "audio": 3, "vision": 3},
        post_fusion_dim=4,
        lmf_rank=2,
        mfn_mem_dim=4,
        mult_hidden=4,
        attn_heads=2,
        dropout=0.0,
        seed=seed,
        dtype=dtype,
    )
    base.update(overrides)
    return ModelConfig(**base)


def toy_batch(config, b=2, seed=3, with_uni_labels=True, seq_lens=TOY_SEQ_LENS):
    rng = np.random.default_rng(seed)
    dtype = config.np_dtype
    mods = {}
    for m, d in config.feature_dims.items():
        t = seq_lens[m]
        lengths = rng.integers(1, t + 1, size=b)
        data = np.zeros((b, t, d), dtype=dtype)
        mask = np.zeros((b, t), dtype=bool)
        for i, ln in enumerate(lengths):
            data[i, :ln] = rng.normal(size=(ln, d))
            mask[i, :ln] = True
        mods[m] = ModalityInput(data=data, mask=mask)
    labels = {"m": rng.uniform(-1, 1, size=b)}
    if with_uni_labels:
        for key in ("t", "a", "v"):
            labels[key] = rng.uniform(-1, 1, size=b)
    return Batch(modalities=mods, labels=labels, ids=[f"s{i}" for i in range(b)])


ALL_MODELS = ["lf_dnn", "ef_lstm", "tfn", "lmf", "mfn", "mult", "misa",
              "mlf_dnn", "mtfn", "mlmf"]


def per_sample_batch(bundle, indices, dtype):
    """batch_from_bundle's formulation over the whole split: every row's
    mask built, then indexed, and the labels read one sample at a time."""
    mods = {name: ModalityInput(data=block.data[indices].astype(dtype),
                                mask=block.mask()[indices])
            for name, block in bundle.blocks.items()}
    samples = [bundle.manifest.samples[i] for i in indices]
    labels = {"m": np.array([s.label_m for s in samples], dtype=np.float64)}
    for mod, key in models.UNI_LABEL_KEYS.items():
        vals = [s.unimodal_label(mod) for s in samples]
        if mod in bundle.blocks and all(v is not None for v in vals):
            labels[key] = np.array(vals, dtype=np.float64)
    return Batch(modalities=mods, labels=labels, ids=[s.id for s in samples])


def _batch_bytes(batch):
    mods = {m: (x.data.dtype, x.data.shape, x.data.tobytes(), x.mask.dtype, x.mask.shape,
                x.mask.tobytes()) for m, x in batch.modalities.items()}
    labels = {k: (v.dtype, v.shape, v.tobytes()) for k, v in batch.labels.items()}
    return mods, labels, batch.ids


class TestBatchFromBundle:
    @pytest.mark.parametrize("uni", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_identical_to_per_sample_formulation(self, uni, dtype):
        bundle = make_synthetic_bundle(n_train=40, n_valid=12, n_test=9, seq_len=7,
                                       feature_dim=3, with_unimodal_labels=uni)
        rng = np.random.default_rng(5)
        for split in ("train", "valid", "test"):
            view = split_view(bundle, split)
            for idx in (np.arange(view.n), rng.permutation(view.n)[:5], [view.n - 1], []):
                idx = np.asarray(idx, dtype=np.int64)
                got = batch_from_bundle(view, idx, dtype)
                assert _batch_bytes(got) == _batch_bytes(per_sample_batch(view, idx, dtype))
                assert ("t" in got.labels) == (uni or not idx.size)
            whole = batch_from_bundle(view, dtype=dtype)
            assert _batch_bytes(whole) == _batch_bytes(
                per_sample_batch(view, np.arange(view.n), dtype))

    def test_one_sample_without_a_label_drops_that_label(self):
        bundle = make_synthetic_bundle(n_train=6, n_valid=2, n_test=2, seq_len=4, feature_dim=2)
        bundle.manifest.samples[3].label_a = None
        for idx in ([0, 1, 2], [2, 3], [3]):
            got = batch_from_bundle(bundle, idx)
            assert _batch_bytes(got) == _batch_bytes(per_sample_batch(bundle, idx, np.float32))
            assert ("a" in got.labels) == (3 not in idx) and "t" in got.labels


class TestRegistry:
    def test_tfn_fusion_tensor_length(self):
        cfg = toy_config("tfn", hidden_dims={"text": 4, "audio": 3, "vision": 2})
        model = build_model(cfg)
        assert model.fusion_tensor_len == 5 * 4 * 3

    def test_same_seed_same_parameters(self):
        for name in ALL_MODELS:
            a = build_model(toy_config(name, seed=11))
            b = build_model(toy_config(name, seed=11))
            assert a.params.names() == b.params.names()
            for n in a.params.names():
                np.testing.assert_array_equal(a.params[n].data, b.params[n].data, err_msg=n)

    def test_different_seed_differs(self):
        a = build_model(toy_config("tfn", seed=1))
        b = build_model(toy_config("tfn", seed=2))
        assert any(not np.array_equal(a.params[n].data, b.params[n].data)
                   for n in a.params.names())

    def test_out_of_scope_models_say_why(self):
        with pytest.raises(ModelError, match="not implemented: requires pretrained backbone"):
            build_model(toy_config("bert_mag"))
        for name in ("graph_mfn", "mfm", "self_mm"):
            with pytest.raises(ModelError, match="not implemented"):
                build_model(toy_config(name))

    def test_unknown_model_lists_known(self):
        with pytest.raises(ModelError, match="tfn"):
            build_model(toy_config("transfusion"))

    def test_init_bound_follows_fan_in(self):
        cfg = toy_config("lf_dnn", hidden_dims={"text": 64, "audio": 64, "vision": 64},
                         feature_dims={"text": 100, "audio": 100, "vision": 100})
        model = build_model(cfg)
        w = model.params["enc.text.l1.w"].data
        bound = 1.0 / np.sqrt(100)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > bound * 0.9  # actually fills the range


class TestForward:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_shapes_and_finite(self, name):
        cfg = toy_config(name)
        model = build_model(cfg)
        batch = toy_batch(cfg, b=3)
        out = model.forward(batch)
        assert out.pred.shape == (3,)
        assert out.fusion_rep.ndim == 2 and out.fusion_rep.shape[0] == 3
        assert np.all(np.isfinite(out.pred.data))
        if name in ("mlf_dnn", "mtfn", "mlmf"):
            assert out.aux_preds is not None and len(out.aux_preds) == 3

    def test_zero_input_pred_equals_head_bias(self):
        cfg = toy_config("lf_dnn")
        model = build_model(cfg)
        for n in model.params.names():
            if n.endswith(".b"):
                model.params[n].data[...] = 0.0
        model.params["head.l2.b"].data[...] = 0.7
        mods = {m: ModalityInput(data=np.zeros((1, TOY_SEQ_LENS[m], d), dtype=np.float32),
                                 mask=np.ones((1, TOY_SEQ_LENS[m]), dtype=bool))
                for m, d in cfg.feature_dims.items()}
        out = model.forward(Batch(modalities=mods, labels={"m": np.zeros(1)}))
        np.testing.assert_allclose(out.pred.data, [0.7], rtol=1e-6)

    def test_mult_with_length_one_sequences(self):
        cfg = toy_config("mult")
        model = build_model(cfg)
        batch = toy_batch(cfg, b=2, seq_lens={"text": 1, "audio": 1, "vision": 1})
        out = model.forward(batch)
        assert out.pred.shape == (2,)
        assert np.all(np.isfinite(out.pred.data))

    def test_tfn_matches_staged_numpy_recomputation(self):
        cfg = toy_config("tfn", dtype="f64")
        model = build_model(cfg)
        batch = toy_batch(cfg, b=2)
        out = model.forward(batch)

        def relu(x):
            return np.maximum(x, 0)

        p = {n: model.params[n].data for n in model.params.names()}
        encs = []
        for m in model.modalities():
            mod = batch.modalities[m]
            counts = np.maximum(mod.mask.sum(1), 1)[:, None]
            pooled = (mod.data * mod.mask[:, :, None]).sum(1) / counts
            h = relu(pooled @ p[f"enc.{m}.l1.w"] + p[f"enc.{m}.l1.b"])
            encs.append(relu(h @ p[f"enc.{m}.l2.w"] + p[f"enc.{m}.l2.b"]))
        fused = []
        for i in range(2):
            vecs = [np.concatenate([[1.0], e[i]]) for e in encs]
            outer = np.einsum("i,j,k->ijk", *vecs).reshape(-1)
            fused.append(outer)
        fused = np.stack(fused)
        hidden = relu(fused @ p["post.l1.w"] + p["post.l1.b"])
        pred = hidden @ p["post.l2.w"] + p["post.l2.b"]
        np.testing.assert_allclose(out.pred.data, pred[:, 0], rtol=1e-10)
        np.testing.assert_allclose(out.fusion_rep.data, hidden, rtol=1e-10)

    @pytest.mark.parametrize("name", ["lf_dnn", "tfn", "lmf", "mfn", "mult", "misa"])
    def test_batch_permutation_permutes_preds(self, name):
        cfg = toy_config(name)
        model = build_model(cfg)
        batch = toy_batch(cfg, b=4)
        perm = np.array([2, 0, 3, 1])
        permuted = Batch(
            modalities={m: ModalityInput(v.data[perm], v.mask[perm])
                        for m, v in batch.modalities.items()},
            labels={k: v[perm] for k, v in batch.labels.items()},
        )
        base = model.forward(batch).pred.data
        swapped = model.forward(permuted).pred.data
        np.testing.assert_allclose(swapped, base[perm], rtol=1e-5, atol=1e-7)

    def test_eval_forward_is_deterministic(self):
        cfg = toy_config("misa", dropout=0.3)
        model = build_model(cfg)
        batch = toy_batch(cfg, b=3)
        a = model.forward(batch, train=False).pred.data
        b = model.forward(batch, train=False).pred.data
        assert a.tobytes() == b.tobytes()

    def test_train_dropout_changes_but_is_seeded(self):
        cfg = toy_config("lf_dnn", dropout=0.4)
        m1 = build_model(cfg)
        m2 = build_model(cfg)
        batch = toy_batch(cfg, b=3)
        out1 = m1.forward(batch, train=True).pred.data
        out2 = m2.forward(batch, train=True).pred.data
        np.testing.assert_array_equal(out1, out2)  # same seed, same dropout stream


class TestLmfEquivalence:
    def _contract(self, model, batch):
        out = model.forward(batch)
        uni = {m: out.uni_reps[m].data.astype(np.float64) for m in model.modalities()}
        full = lmf_full_tensor_expand(model)
        b = batch.size
        augmented = [np.concatenate([np.ones((b, 1)), uni[m]], axis=1)
                     for m in model.modalities()]
        letters = "ijk"[:len(augmented)]
        spec = ",".join(f"b{x}" for x in letters) + "," + letters + "o->bo"
        contraction = np.einsum(spec, *augmented, full)
        contraction += model.params["lmf.bias"].data.astype(np.float64)
        return out.fusion_rep.data, contraction

    def test_rank1_unit_dims(self):
        cfg = toy_config("lmf", lmf_rank=1, post_fusion_dim=1,
                         hidden_dims={"text": 1, "audio": 1, "vision": 1})
        model = build_model(cfg)
        full = lmf_full_tensor_expand(model)
        assert full.shape == (2, 2, 2, 1)
        fused, contraction = self._contract(model, toy_batch(cfg, b=2))
        np.testing.assert_allclose(fused, contraction, atol=1e-6)

    def test_mlmf_expands_like_lmf(self):
        # mlmf is an LMF with aux heads, so its fusion expands the same way
        cfg = toy_config("mlmf", dtype="f64")
        model = build_model(cfg)
        fused, contraction = self._contract(model, toy_batch(cfg, b=3))
        np.testing.assert_allclose(fused, contraction, atol=1e-10)

    def test_rank2_is_sum_of_rank1_expansions(self):
        cfg = toy_config("lmf", lmf_rank=2)
        model = build_model(cfg)
        full = lmf_full_tensor_expand(model)
        mods = model.modalities()
        pieces = []
        for r in range(2):
            w = model.params["lmf.weights"].data[0, r].astype(np.float64)
            fs = [model.params[f"lmf.{m}.factor"].data[r].astype(np.float64) for m in mods]
            pieces.append(w * np.einsum("io,jo,ko->ijko", *fs))
        np.testing.assert_allclose(full, pieces[0] + pieces[1], rtol=1e-6)

    def test_random_dims_rank3_f32(self):
        cfg = toy_config("lmf", lmf_rank=3,
                         hidden_dims={"text": 2, "audio": 2, "vision": 3})
        model = build_model(cfg)
        fused, contraction = self._contract(model, toy_batch(cfg, b=3))
        np.testing.assert_allclose(fused, contraction, atol=1e-5)

    def test_rejects_non_lmf(self):
        with pytest.raises(ModelError):
            lmf_full_tensor_expand(build_model(toy_config("tfn")))


class TestMisa:
    def test_orthogonality_loss_zero_when_private_is_zero_map(self):
        cfg = toy_config("misa", misa_sim_weight=0.0, misa_orth_weight=1.0,
                         misa_recon_weight=0.0)
        model = build_model(cfg)
        for m in model.modalities():
            model.params[f"priv.{m}.w"].data[...] = 0.0
            model.params[f"priv.{m}.b"].data[...] = 0.0
        out = model.forward(toy_batch(cfg, b=3))
        np.testing.assert_allclose(out.aux_loss.data, 0.0, atol=1e-12)

    def test_aux_loss_scales_with_weights(self):
        cfg0 = toy_config("misa", misa_sim_weight=0.0, misa_orth_weight=0.0,
                          misa_recon_weight=0.0)
        out0 = build_model(cfg0).forward(toy_batch(cfg0, b=3))
        np.testing.assert_allclose(out0.aux_loss.data, 0.0, atol=1e-12)


class TestMultitask:
    def test_wrap_produces_three_aux_preds(self):
        cfg = toy_config("mlf_dnn", multitask_uni_weight=0.5)
        model = build_model(cfg)
        assert isinstance(model, MultitaskWrapper) and model.name == cfg.model_name
        out = model.forward(toy_batch(cfg, b=2))
        assert set(out.aux_preds) == {"text", "audio", "vision"}

    def test_zero_uni_weight_equals_base_task_loss(self):
        base = build_model(toy_config("lf_dnn"))
        wrapped = build_model(toy_config("mlf_dnn", multitask_uni_weight=0.0))
        batch = toy_batch(base.config, b=3)
        base_loss = base.loss(base.forward(batch), batch)
        total = wrapped.loss(wrapped.forward(batch), batch)
        np.testing.assert_allclose(total.data, base_loss.data, rtol=1e-7)

    def test_missing_unimodal_labels_is_explicit_error(self):
        cfg = toy_config("mtfn")
        model = build_model(cfg)
        batch = toy_batch(cfg, b=2, with_uni_labels=False)
        out = model.forward(batch)
        with pytest.raises(ModelError, match="unimodal labels"):
            model.loss(out, batch)

    def test_shared_encoder_gets_gradient_from_both_terms(self):
        cfg = toy_config("mlf_dnn", dtype="f64")
        model = build_model(cfg)
        batch = toy_batch(cfg, b=2)

        def run(uni_weight):
            model.config.multitask_uni_weight = uni_weight
            with Tape() as tape:
                loss = model.loss(model.forward(batch), batch)
            backward(tape, loss, model.params)
            return model.params["enc.text.l1.w"].grad.copy()

        g_task_only = run(0.0)
        g_both = run(1.0)
        assert not np.allclose(g_task_only, g_both)

    @pytest.mark.parametrize("name, base", sorted(models.MULTITASK_BASES.items()))
    def test_base_parameters_equal_base_model(self, name, base):
        # the aux heads are drawn after the base's parameters, from the same stream
        variant = build_model(toy_config(name, seed=5))
        plain = build_model(toy_config(base, seed=5))
        assert variant.params.names()[:len(plain.params.names())] == plain.params.names()
        assert set(variant.params.names()) - set(plain.params.names()) == {
            f"aux.{m}.{p}" for m in ("text", "audio", "vision") for p in ("w", "b")}
        for n in plain.params.names():
            assert variant.params[n].data.tobytes() == plain.params[n].data.tobytes(), n

    def test_checkpoint_naming_base_in_config_still_loads(self, tmp_path):
        # checkpoints written while a variant wrapped a separately built base
        # hold the base's name in config.model_name
        cfg = toy_config("mtfn")
        model = build_model(cfg)
        save_checkpoint(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["config"]["model_name"] == manifest["model_name"] == "mtfn"
        manifest["config"]["model_name"] = "tfn"
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        restored, _ = load_checkpoint(tmp_path / "ckpt")
        assert restored.name == restored.config.model_name == "mtfn"
        assert type(restored) is type(model)
        batch = toy_batch(cfg, b=3)
        before, after = model.forward(batch), restored.forward(batch)
        assert before.pred.data.tobytes() == after.pred.data.tobytes()
        for m in model.modalities():
            assert before.aux_preds[m].data.tobytes() == after.aux_preds[m].data.tobytes()


class TestGradChecks:
    """End-to-end gradient checks on tiny f64 batches (dropout off)."""

    @pytest.mark.parametrize("name", ["lf_dnn", "lmf"])
    def test_fast_models(self, name):
        cfg = toy_config(name, dtype="f64",
                         feature_dims={"text": 2, "audio": 2, "vision": 2},
                         hidden_dims={"text": 2, "audio": 2, "vision": 2},
                         post_fusion_dim=2)
        model = build_model(cfg)
        batch = toy_batch(cfg, b=2, seq_lens={"text": 2, "audio": 2, "vision": 2})

        def f(params):
            return model.loss(model.forward(batch), batch)

        report = grad_check(f, model.params)
        assert report.passed, repr(report)


def _blend(new, old, step):
    return ad.add(ad.mul(new, step), ad.mul(old, 1.0 - step))


def _lstm(model, name):
    return {k: model.params[f"{name}.{k}"] for k in ("wx", "wh", "b")}


def stepped_ef_lstm_pred(model, batch):
    """ef_lstm as one lstm_cell_step and masked state blend per time step."""
    mods = model.modalities()
    b = batch.size
    t_common = max(batch.modalities[m].data.shape[1] for m in mods)
    pieces, union = [], np.zeros((b, t_common), dtype=bool)
    for m in mods:
        mod = batch.modalities[m]
        padded = np.zeros((b, t_common, mod.data.shape[2]))
        padded[:, :mod.data.shape[1]] = mod.data
        pieces.append(padded)
        union[:, :mod.data.shape[1]] |= mod.mask
    x = np.concatenate(pieces, axis=2)
    h = c = Tensor(np.zeros((b, model.hidden)))
    for t in range(t_common):
        h_new, c_new = ad.lstm_cell_step(Tensor(x[:, t]), h, c, _lstm(model, "lstm"))
        step = union[:, t].astype(np.float64)[:, None]
        h, c = _blend(h_new, h, step), _blend(c_new, c, step)
    return model._head("head", h, False)[0]


def stepped_mfn_pred(model, batch):
    """mfn with every modality's LSTM and the gated memory stepped in lockstep;
    a modality shorter than the common length skips its missing steps."""
    mods = model.modalities()
    cfg = model.config
    b = batch.size
    t_common = max(batch.modalities[m].data.shape[1] for m in mods)
    h = {m: Tensor(np.zeros((b, cfg.hidden_dims[m]))) for m in mods}
    c = dict(h)
    u = Tensor(np.zeros((b, cfg.mfn_mem_dim)))
    union = np.zeros((b, t_common), dtype=bool)
    for m in mods:
        union[:, :batch.modalities[m].mask.shape[1]] |= batch.modalities[m].mask

    def affine(name, x):
        return ad.add(ad.matmul(x, model.params[f"{name}.w"]), model.params[f"{name}.b"])

    for t in range(t_common):
        c_prev = [c[m] for m in mods]
        for m in mods:
            mod = batch.modalities[m]
            if t >= mod.data.shape[1]:
                continue
            h_new, c_new = ad.lstm_cell_step(Tensor(mod.data[:, t]), h[m], c[m],
                                             _lstm(model, f"lstm.{m}"))
            step = mod.mask[:, t].astype(np.float64)[:, None]
            h[m], c[m] = _blend(h_new, h[m], step), _blend(c_new, c[m], step)
        delta = ad.concat(c_prev + [c[m] for m in mods], axis=1)
        attended = ad.mul(delta, ad.softmax(affine("att", delta), axis=-1))
        cand = ad.tanh(affine("cand", attended))
        g1 = ad.sigmoid(affine("gate1", attended))
        g2 = ad.sigmoid(affine("gate2", attended))
        u_new = ad.add(ad.mul(g1, u), ad.mul(g2, cand))
        u = _blend(u_new, u, union[:, t].astype(np.float64)[:, None])
    rep = ad.concat([h[m] for m in mods] + [u], axis=1)
    return model._head("head", rep, False)[0]


class TestRecurrentModels:
    """ef_lstm runs its LSTM and mfn its lockstep LSTMs as one lstm_sequence
    call; they must equal the per-step formulation and keep their tapes short."""

    @staticmethod
    def ragged_batch(cfg):
        batch = toy_batch(cfg, b=4, seed=5, seq_lens={"text": 6, "audio": 3, "vision": 5})
        batch.modalities["text"].mask[1, 1] = False      # a gap inside a sequence
        batch.modalities["audio"].mask[2] = False        # a modality missing for one row
        batch.modalities["audio"].data[2] = 0.0
        return batch

    @pytest.mark.parametrize("name,reference,memory_rows", [
        ("ef_lstm", stepped_ef_lstm_pred, None),
        ("mfn", stepped_mfn_pred, None),
        ("mfn", stepped_mfn_pred, 8),       # the memory in spans of 2 steps
    ])
    def test_matches_stepped_formulation(self, name, reference, memory_rows, monkeypatch):
        if memory_rows is not None:
            monkeypatch.setattr(models, "MFN_MEMORY_ROWS", memory_rows)
        cfg = toy_config(name, dtype="f64")
        model = build_model(cfg)
        batch = self.ragged_batch(cfg)
        target = Tensor(batch.labels["m"])

        def run(forward):
            with Tape() as tape:
                pred = forward()
                loss = ad.l1_loss(pred, target)
            backward(tape, loss, model.params)
            return pred.data, {n: p.grad.copy() for n, p in model.params.items()}

        pred, grads = run(lambda: model.forward(batch).pred)
        ref_pred, ref_grads = run(lambda: reference(model, batch))
        np.testing.assert_allclose(pred, ref_pred, rtol=0, atol=1e-10)
        assert set(grads) == set(ref_grads)
        for n, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[n], rtol=1e-10, atol=1e-10, err_msg=n)
        assert any(np.abs(g).max() > 0 for n, g in grads.items() if ".wh" in n)

    @staticmethod
    def tape_length(name, t):
        cfg = toy_config(name)
        model = build_model(cfg)
        batch = toy_batch(cfg, b=3, seq_lens={"text": t, "audio": t, "vision": t})
        with Tape() as tape:
            model.loss(model.forward(batch, train=True), batch)
        return len(tape)

    def test_ef_lstm_tape_does_not_grow_with_length(self):
        assert self.tape_length("ef_lstm", 5) == self.tape_length("ef_lstm", 20)

    def test_mfn_tape_grows_at_most_four_records_per_step(self):
        # the LSTMs and, within one memory span, the gated memory are one
        # record each, so the tape does not grow with the length at all
        assert self.tape_length("mfn", 5) == self.tape_length("mfn", 20)


def per_head_multihead(model, base, cur, src, src_mask):
    """mult's attention with one per-op reference attention per head on
    column slices of q/k/v, the heads concatenated back."""
    def affine(name, x):
        return ad.add(ad.matmul(x, model.params[f"{base}.{name}.w"]),
                      model.params[f"{base}.{name}.b"])

    q, k, v = affine("q", cur), affine("k", src), affine("v", src)
    head_dim = model.config.mult_hidden // model.config.attn_heads
    outs = []
    for i in range(model.config.attn_heads):
        cols = (slice(None), slice(None), slice(i * head_dim, (i + 1) * head_dim))
        outs.append(attention_per_op(ad.slice_(q, cols), ad.slice_(k, cols),
                                     ad.slice_(v, cols), src_mask))
    return ad.concat(outs, axis=-1)


class TestMultAttention:
    """mult runs its heads inside one scaled_dot_attention call per (pair,
    layer); it must equal the per-head formulation and its former pre-split
    heads, and keep one tape for any head count."""

    @staticmethod
    def batch(cfg, drop_source):
        batch = toy_batch(cfg, b=4, seed=9)
        batch.modalities["text"].mask[1, 1] = False      # a gap inside a sequence
        if drop_source:                                  # no audio key for any row
            batch.modalities["audio"].mask[:] = False
        else:                                            # no audio key for one row
            batch.modalities["audio"].mask[2] = False
        batch.modalities["audio"].data[~batch.modalities["audio"].mask] = 0.0
        return batch

    @pytest.mark.parametrize("drop_source", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_formulation(self, heads, drop_source, monkeypatch):
        cfg = toy_config("mult", dtype="f64", attn_heads=heads, attn_layers=2)
        model = build_model(cfg)
        batch = self.batch(cfg, drop_source)
        target = Tensor(batch.labels["m"])

        def run():
            with Tape() as tape:
                pred = model.forward(batch).pred
                loss = ad.l1_loss(pred, target)
            backward(tape, loss, model.params)
            return pred.data, {n: p.grad.copy() for n, p in model.params.items()}

        pred, grads = run()
        monkeypatch.setattr(models.MulTLite, "_multihead", per_head_multihead)
        ref_pred, ref_grads = run()
        np.testing.assert_allclose(pred, ref_pred, rtol=0, atol=1e-10)
        assert set(grads) == set(ref_grads)
        for n, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[n], rtol=1e-10, atol=1e-10, err_msg=n)
        assert any(np.abs(g).max() > 0 for n, g in grads.items() if n.endswith(".k.w"))

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("drop_source", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_bit_equal_to_presplit_heads(self, heads, drop_source, dtype, monkeypatch):
        cfg = toy_config("mult", dtype=dtype, attn_heads=heads, attn_layers=2)
        model = build_model(cfg)
        batch = self.batch(cfg, drop_source)

        def run():
            with Tape() as tape:
                out = model.forward(batch, train=True)
                loss = model.loss(out, batch)
            backward(tape, loss, model.params)
            return out, model.params.grad.copy(), [r.op for r in tape.records]

        out, grads, ops = run()
        monkeypatch.setattr(models.MulTLite, "_multihead", mult_multihead_presplit)
        ref, ref_grads, ref_ops = run()
        for name in ("pred", "fusion_rep"):
            assert getattr(out, name).data.tobytes() == getattr(ref, name).data.tobytes(), name
        for m in out.uni_reps:
            assert out.uni_reps[m].data.tobytes() == ref.uni_reps[m].data.tobytes(), m
        assert grads.tobytes() == ref_grads.tobytes()
        assert grads.any()
        # 4 reshape and 4 transpose records per (pair, layer) are gone; the
        # one reshape left is the head's (B, 1) -> (B,)
        assert ops.count("transpose") == 0 and ops.count("reshape") == 1
        assert len(ref_ops) - len(ops) == 8 * len(model.pairs) * cfg.attn_layers

    def test_default_training_tape(self):
        # per (pair, layer): 3 linear, the attention and the residual add
        bundle = make_synthetic_bundle()
        cfg = ModelConfig("mult", feature_dims={m: b.feature_dim for m, b in bundle.blocks.items()})
        model = build_model(cfg)
        batch = batch_from_bundle(split_view(bundle, "train"), list(range(32)))
        with Tape() as tape:
            model.loss(model.forward(batch, train=True), batch)
        ops = [r.op for r in tape.records]
        assert len(ops) == 53 and ops.count("scaled_dot_attention") == 6
        assert "transpose" not in ops and ops.count("reshape") == 1

    def test_tape_length_does_not_depend_on_heads(self):
        lengths = set()
        for heads in (1, 2, 4):
            cfg = toy_config("mult", attn_heads=heads)
            model = build_model(cfg)
            batch = toy_batch(cfg, b=3)
            with Tape() as tape:
                model.loss(model.forward(batch, train=True), batch)
            lengths.add(len(tape))
        assert len(lengths) == 1


class TestCheckpoints:
    def test_round_trip_reproduces_forward(self, tmp_path):
        cfg = toy_config("mtfn")
        model = build_model(cfg)
        batch = toy_batch(cfg, b=2)
        before = model.forward(batch).pred.data
        save_checkpoint(model, tmp_path / "ckpt")
        restored, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest["model_name"] == "mtfn"
        after = restored.forward(batch).pred.data
        assert before.tobytes() == after.tobytes()

    def test_manifest_with_seq_lens_still_loads(self, tmp_path):
        # older checkpoints record the bundle's padded lengths, which no model reads
        cfg = toy_config("lf_dnn")
        model = build_model(cfg)
        save_checkpoint(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert "seq_lens" not in manifest["config"]
        manifest["config"]["seq_lens"] = TOY_SEQ_LENS
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        restored, _ = load_checkpoint(tmp_path / "ckpt")
        assert restored.config == model.config
        assert restored.params.data.tobytes() == model.params.data.tobytes()

    @pytest.mark.parametrize("name,dtype", [("mtfn", "f32"), ("mfn", "f64")])
    def test_load_draws_no_init_and_fills_the_flat_store(self, tmp_path, monkeypatch,
                                                         name, dtype):
        cfg = toy_config(name, dtype=dtype)
        model = build_model(cfg)
        model.params.data[...] = np.linspace(-1.0, 1.0, model.params.num_values())
        save_checkpoint(model, tmp_path / "ckpt")

        class NoDraws:
            def __init__(self, rng):
                self.rng = rng

            def uniform(self, *args, **kwargs):
                raise AssertionError("load_checkpoint drew an initial value")

            def __getattr__(self, attr):
                return getattr(self.rng, attr)

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: NoDraws(default_rng(*a, **k)))
        restored, _ = load_checkpoint(tmp_path / "ckpt")
        params = restored.params
        monkeypatch.undo()

        assert params.names() == model.params.names()
        saved = model.params.data.astype(np.float32).astype(params.data.dtype)
        assert params.data.dtype == model.params.data.dtype
        assert params.data.tobytes() == saved.tobytes()
        for n, p in params.items():
            assert p.data.base is params.data and p.grad.base is params.grad, n

    def test_missing_checkpoint_errors(self, tmp_path):
        with pytest.raises(ModelError):
            load_checkpoint(tmp_path / "none")
