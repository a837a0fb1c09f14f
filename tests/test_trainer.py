"""Trainer tests: config registry, overfit capability, determinism, early
stopping, checkpoint restore, and multi-seed aggregation."""

import json
import math

import numpy as np
import pytest

from msa_forge.autodiff import ParamSet, Tape, Tensor, add, backward, sum_
from msa_forge.errors import EmptySplitError, ModelError, ValidationError
from msa_forge.models import load_checkpoint, read_named_arrays
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import (
    DEFAULT_SEEDS,
    Adam,
    AdamConfig,
    clip_global_norm,
    get_config_regression,
    multi_seed_run,
    train_run,
)


def small_bundle(n_train=10, n_valid=4, n_test=4, seed=0):
    return make_synthetic_bundle(n_train=n_train, n_valid=n_valid, n_test=n_test,
                                 seq_len=6, feature_dim=4, seed=seed)


def fast_config(model="lf_dnn", **overrides):
    config = get_config_regression(model, "synthetic")
    config["dropout"] = 0.0
    config["max_epochs"] = overrides.pop("max_epochs", 30)
    config["patience"] = overrides.pop("patience", 30)
    config["hidden_dims"] = {"text": 8, "audio": 8, "vision": 8}
    config["post_fusion_dim"] = 8
    config["batch_size"] = 8
    for key, val in overrides.items():
        config[key] = val
    return config


class TestConfigRegistry:
    def test_tfn_config_contains_post_fusion_dim(self):
        config = get_config_regression("tfn", "mosi")
        assert config["post_fusion_dim"] == 32

    def test_default_seeds(self):
        config = get_config_regression("lf_dnn", "mosi")
        assert config.seeds == [1111, 1112, 1113, 1114, 1115]
        assert tuple(config.seeds) == DEFAULT_SEEDS

    def test_override_then_reread(self):
        config = get_config_regression("tfn", "mosi")
        config["post_fusion_dim"] = 64
        assert config["post_fusion_dim"] == 64
        config["optimizer.lr"] = 0.01
        assert config["lr"] == 0.01

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            get_config_regression("word2vec_fusion", "mosi")
        with pytest.raises(ModelError, match="pretrained backbone"):
            get_config_regression("bert_mag", "mosi")

    def test_unknown_key_rejected(self):
        config = get_config_regression("tfn", "mosi")
        with pytest.raises(KeyError):
            config["warp_speed"]

    def test_dims_values_follow_scalar_rule(self):
        config = get_config_regression("tfn", "mosi")
        config["hidden_dims"] = {"text": 6.0, "audio": 4, "vision": 4}
        assert config["hidden_dims"] == {"text": 6, "audio": 4, "vision": 4}
        assert type(config["hidden_dims"]["text"]) is int
        for bad in (2.5, True, "4"):
            with pytest.raises(TypeError):
                config["feature_dims"] = {"text": bad}
        assert config["feature_dims"] is None

    def test_validation_catches_bad_values(self):
        config = get_config_regression("tfn", "mosi")
        config["optimizer.lr"] = -1.0
        with pytest.raises(ValidationError):
            config.validate()
        config = get_config_regression("tfn", "mosi")
        config.seeds = []
        with pytest.raises(ValidationError):
            config.validate()


class TestAdam:
    """One step from zero moments, by hand: the gradient with coupled L2
    decay is g + wd * p; then m_hat = g', v_hat = g'^2 and
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)."""

    P0 = np.array([0.5, -2.0, 3.0])
    GRAD = np.array([0.1, 0.2, -0.3])

    def step(self, **config):
        params = ParamSet({"w": self.P0})
        params["w"].grad[...] = self.GRAD
        Adam(params, AdamConfig(**config)).step()
        return params["w"].data

    def by_hand(self, lr, eps, weight_decay):
        g = self.GRAD + weight_decay * self.P0
        m_hat = (1 - 0.9) * g / (1 - 0.9)
        v_hat = (1 - 0.999) * g * g / (1 - 0.999)
        return self.P0 - lr * m_hat / (np.sqrt(v_hat) + eps)

    def test_weight_decay_is_coupled_l2(self):
        # eps comparable to |g| keeps the step's size, not only its sign, in the check
        got = self.step(lr=0.1, eps=0.5, weight_decay=0.5)
        np.testing.assert_allclose(got, self.by_hand(0.1, 0.5, 0.5), rtol=1e-12)
        assert not np.allclose(got, self.by_hand(0.1, 0.5, 0.0))

    def test_zero_weight_decay_leaves_update_unchanged(self):
        got = self.step(lr=0.1, eps=0.5, weight_decay=0.0)
        np.testing.assert_allclose(got, self.by_hand(0.1, 0.5, 0.0), rtol=1e-12)


def reference_adam_step(params, m, v, t, cfg):
    """The allocating textbook step that ``Adam.step`` must equal bit for bit,
    over a name -> Tensor dict with per-name moments."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p.data
        m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
        v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        p.data -= (cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)).astype(p.data.dtype)


def reference_clip(params, max_norm):
    """The allocating clip that ``clip_global_norm`` must equal bit for bit."""
    total = 0.0
    for _, p in params.items():
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, p in params.items():
            p.grad = p.grad * scale
    return norm


class TestInPlaceOptimizer:
    # tfn's post.l1.w, larger than ADAM_CHUNK, is updated in chunks
    SHAPES = {"w": (9537, 32), "b": (4,), "s": (1,)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_matches_allocating_reference(self, dtype, weight_decay):
        rng = np.random.default_rng(40)
        init = {n: rng.normal(size=s).astype(dtype) for n, s in self.SHAPES.items()}
        new = ParamSet(init)
        ref = {n: Tensor(a.copy()) for n, a in init.items()}
        cfg = AdamConfig(lr=1e-2, weight_decay=weight_decay)
        opt = Adam(new, cfg)
        m = {n: np.zeros_like(a) for n, a in init.items()}
        v = {n: np.zeros_like(a) for n, a in init.items()}
        draws = [{n: rng.normal(size=s).astype(dtype) for n, s in self.SHAPES.items()}
                 for _ in range(3)]
        clipped = 0
        for t in range(1, 201):
            # odd steps stay under the clip norm, even steps go over it
            size = 0.1 if t % 2 == 0 else 1e-3
            for n in self.SHAPES:
                g = draws[t % 3][n] * size
                new[n].grad[...] = g
                ref[n].grad = g
            norm = clip_global_norm(new, 5.0)
            assert norm == reference_clip(ref, 5.0)
            clipped += norm > 5.0
            opt.step()
            reference_adam_step(ref, m, v, t, cfg)
        assert clipped == 100

        def flat(arrays):
            return np.concatenate([arrays[n].reshape(-1) for n in self.SHAPES])
        assert np.array_equal(new.data, flat({n: t.data for n, t in ref.items()}))
        assert np.array_equal(opt.m, flat(m))
        assert np.array_equal(opt.v, flat(v))

    def test_empty_param_set_steps(self):
        opt = Adam(ParamSet({}), AdamConfig())
        opt.step()
        assert opt.t == 1

    def test_gradients_live_in_their_own_slots(self):
        # d(sum(W1 + W2)) is the same ones array for W1 and W2; each slot
        # must get its own copy, or an in-place clip would scale it twice
        params = ParamSet({"w1": np.full((3, 4), 0.5), "w2": np.full((3, 4), -0.5)})
        w1, w2 = params["w1"], params["w2"]
        slots = {"w1": w1.grad, "w2": w2.grad}
        with Tape() as tape:
            loss = sum_(add(w1, w2))
        backward(tape, loss, params)
        assert w1.grad is slots["w1"] and w2.grad is slots["w2"]
        assert not np.shares_memory(w1.grad, w2.grad)
        norm = clip_global_norm(params, 1.0)
        assert norm == math.sqrt(24.0)
        scale = 1.0 / math.sqrt(24.0)
        np.testing.assert_array_equal(w1.grad, np.full((3, 4), scale))
        np.testing.assert_array_equal(w2.grad, np.full((3, 4), scale))


class TestTrainRun:
    def test_overfits_tiny_dataset(self, tmp_path):
        # valid split mirrors the 10 train samples so best-checkpoint
        # selection tracks train MAE: a pure overfit-capability check
        bundle = make_synthetic_bundle(n_train=10, n_valid=10, n_test=4,
                                       seq_len=6, feature_dim=4, seed=0)
        for m, block in bundle.blocks.items():
            block.data[10:20] = block.data[0:10]
            block.lengths[10:20] = block.lengths[0:10]
        for i in range(10):
            src, dst = bundle.manifest.samples[i], bundle.manifest.samples[10 + i]
            dst.label_m, dst.label_t = src.label_m, src.label_t
            dst.label_a, dst.label_v = src.label_a, src.label_v
        config = fast_config("lf_dnn", max_epochs=200, patience=200)
        config["optimizer.lr"] = 5e-3
        result = train_run(config, bundle, seed=1111, run_dir=tmp_path / "run")
        from msa_forge.bundle import split_view
        from msa_forge.trainer import _evaluate
        model, _ = load_checkpoint(result.checkpoint_path)
        metrics, _, _ = _evaluate(model, split_view(bundle, "train"))
        assert metrics.mae < 0.05

    def test_same_seed_identical_histories(self):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=8)
        a = train_run(config, bundle, seed=1111)
        b = train_run(config, bundle, seed=1111)
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert ra.to_json() == rb.to_json()

    def test_different_seeds_differ(self):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=5)
        a = train_run(config, bundle, seed=1111)
        b = train_run(config, bundle, seed=2222)
        assert any(ra.to_json() != rb.to_json() for ra, rb in zip(a.history, b.history))

    def test_early_stopping_with_patience_one(self):
        # lr = 0 means no parameter ever changes, so validation MAE can
        # never improve after the first epoch
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=50, patience=1)
        config["optimizer.lr"] = 1e-30
        result = train_run(config, bundle, seed=1111)
        assert result.best_epoch == 1
        assert len(result.history) == 2

    def test_early_stop_bound(self):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=40, patience=3)
        result = train_run(config, bundle, seed=1111)
        assert len(result.history) <= result.best_epoch + config.patience

    def test_run_dir_artifacts(self, tmp_path):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=4)
        result = train_run(config, bundle, seed=1111, run_dir=tmp_path / "run")
        assert (tmp_path / "run" / "config.json").exists()
        assert (tmp_path / "run" / "history.jsonl").exists()
        assert (tmp_path / "run" / "checkpoint" / "params.bin").exists()
        reps = read_named_arrays(tmp_path / "run" / "reps.bin")
        assert "fusion" in reps
        assert reps["fusion"].shape[-2] == 4  # test split size

    def test_checkpoint_restore_reproduces_test_metrics(self, tmp_path):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=6)
        result = train_run(config, bundle, seed=1111, run_dir=tmp_path / "run")
        model, _ = load_checkpoint(result.checkpoint_path)
        from msa_forge.bundle import split_view
        from msa_forge.trainer import _evaluate
        metrics, _, _ = _evaluate(model, split_view(bundle, "test"))
        assert metrics.mae == result.test_metrics.mae
        assert metrics.acc2 == result.test_metrics.acc2

    def test_missing_split_is_error(self):
        bundle = small_bundle()
        for s in bundle.manifest.samples:
            if s.split == "valid":
                s.split = "train"
        config = fast_config("lf_dnn")
        with pytest.raises(EmptySplitError):
            train_run(config, bundle, seed=1)

    def test_multitask_needs_unimodal_labels(self):
        bundle = make_synthetic_bundle(n_train=8, n_valid=4, n_test=4, seq_len=4,
                                       feature_dim=3, with_unimodal_labels=False)
        config = fast_config("mtfn", max_epochs=2)
        with pytest.raises(ModelError, match="unimodal labels"):
            train_run(config, bundle, seed=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_diagnostic_names_epoch(self):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=5)
        config["optimizer.lr"] = 1e30  # blow up immediately
        from msa_forge.errors import TrainingDivergedError
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_run(config, bundle, seed=1111)


class TestMultiSeed:
    def test_single_seed_mean_is_that_run(self, tmp_path):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=4)
        config.seeds = [1111]
        agg = multi_seed_run(config, bundle, run_dir=tmp_path / "runs")
        assert agg.metrics_mean["acc2"] == agg.per_seed[0].test_metrics.acc2
        assert agg.metrics_std["acc2"] == 0.0

    def test_mean_is_arithmetic_mean(self, tmp_path):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=3)
        config.seeds = [1, 2, 3]
        agg = multi_seed_run(config, bundle, run_dir=tmp_path / "runs")
        vals = [r.test_metrics.acc2 for r in agg.per_seed]
        assert abs(agg.metrics_mean["acc2"] - sum(vals) / 3) < 1e-12

    def test_aggregate_json_written(self, tmp_path):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=3)
        config.seeds = [7, 8]
        agg = multi_seed_run(config, bundle, run_dir=tmp_path / "runs")
        doc = json.loads((tmp_path / "runs" / "aggregate.json").read_text())
        assert doc["model"] == "lf_dnn"
        assert doc["seeds"] == [7, 8]
        assert set(doc["metrics"]) == {"acc2", "f1", "mae", "corr"}
        assert (tmp_path / "runs" / "seed_7" / "history.jsonl").exists()

    def test_rerun_aggregates_identically(self, tmp_path):
        bundle = small_bundle()
        config = fast_config("lf_dnn", max_epochs=3)
        config.seeds = [5, 6]
        a = multi_seed_run(config, bundle, run_dir=tmp_path / "a")
        b = multi_seed_run(config, bundle, run_dir=tmp_path / "b")
        assert a.metrics_mean == b.metrics_mean
        assert a.metrics_std == b.metrics_std
        for seed in (5, 6):
            ha = (tmp_path / "a" / f"seed_{seed}" / "history.jsonl").read_bytes()
            hb = (tmp_path / "b" / f"seed_{seed}" / "history.jsonl").read_bytes()
            assert ha == hb
