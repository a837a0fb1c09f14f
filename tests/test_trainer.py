"""Trainer tests: config registry, overfit capability, determinism, early
stopping, checkpoint restore, and multi-seed aggregation."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import msa_forge
from msa_forge import trainer
from msa_forge.autodiff import ParamSet, Tape, Tensor, add, backward
from msa_forge.errors import EmptySplitError, ModelError, ValidationError
from msa_forge.models import load_checkpoint, read_named_arrays
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import (
    DEFAULT_SEEDS,
    Adam,
    AdamConfig,
    _clip_if_needed,
    clip_global_norm,
    get_config_regression,
    multi_seed_run,
    train_run,
)
import golden_runs
from reference_kernels import sum_


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


def many_small_shapes():
    """Sixty parameters of odd sizes, so each parameter's slice of the flat
    store starts at an odd offset, plus an empty one."""
    rng = np.random.default_rng(41)
    shapes = {f"p{i}": (int(rng.integers(1, 40)), int(rng.integers(1, 9))) for i in range(60)}
    shapes["empty"] = (0, 3)
    return shapes


class TestInPlaceOptimizer:
    # tfn's post.l1.w, larger than ADAM_CHUNK, is updated in chunks
    SHAPES = {"w": (9537, 32), "b": (4,), "s": (1,)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_matches_allocating_reference(self, dtype, weight_decay):
        self.check_against_reference(self.SHAPES, dtype, weight_decay)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_many_small_params_match_allocating_reference(self, dtype):
        self.check_against_reference(many_small_shapes(), dtype, 0.0)

    @staticmethod
    def check_against_reference(shapes, dtype, weight_decay):
        rng = np.random.default_rng(40)
        init = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
        new = ParamSet(init)
        ref = {n: Tensor(a.copy()) for n, a in init.items()}
        cfg = AdamConfig(lr=1e-2, weight_decay=weight_decay)
        opt = Adam(new, cfg)
        m = {n: np.zeros_like(a) for n, a in init.items()}
        v = {n: np.zeros_like(a) for n, a in init.items()}
        draws = [{n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
                 for _ in range(3)]
        clipped = 0
        for t in range(1, 201):
            # odd steps stay under the clip norm, even steps go over it
            size = 0.1 if t % 2 == 0 else 1e-3
            for n in shapes:
                g = draws[t % 3][n] * size
                new[n].grad[...] = g
                ref[n].grad = g
            norm = clip_global_norm(new, 5.0)
            assert norm == reference_clip(ref, 5.0)
            assert all(new[n].grad.tobytes() == ref[n].grad.tobytes() for n in shapes)
            clipped += norm > 5.0
            opt.step()
            reference_adam_step(ref, m, v, t, cfg)
        assert clipped == 100

        def flat(arrays):
            return np.concatenate([arrays[n].reshape(-1) for n in shapes])
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


def _clip_calls():
    """A patch that counts ``clip_global_norm`` calls and keeps its behaviour."""
    return mock.patch.object(trainer, "clip_global_norm", wraps=clip_global_norm)


def _grad_set(sizes, dtype, values):
    params = ParamSet({f"p{i}": np.zeros(n, dtype=dtype) for i, n in enumerate(sizes)})
    params.grad[...] = values
    return params


@st.composite
def gradient_sets(draw):
    """Gradient sets of float32 or float64 values, from empty to ~3e5 values,
    at one scale from subnormal to 1e19, with NaN, +-inf and +-0 dropped in."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    sizes = draw(st.lists(st.integers(0, 3000), max_size=5)
                 | st.sampled_from([[300_000], [65_536, 1, 9537 * 32 - 65_537]]))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tiny = float(np.finfo(dtype).smallest_subnormal)
    scale = draw(st.sampled_from([tiny, 1e-300, 1e-40, 1e-20, 1e-6, 0.01, 1.0, 1e3, 1e19])
                 | st.floats(1e-45, 1e19))
    with np.errstate(all="ignore"):
        values = (rng.normal(size=n) * scale).astype(dtype)
        specials = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                           st.sampled_from([np.nan, np.inf, -np.inf,
                                                            0.0, -0.0, tiny, -tiny])),
                                 max_size=3 if n else 0))
    for i, v in specials:
        values[i] = v
    return sizes, dtype, values


class TestClipPrecheck:
    """``train_run``'s step skips ``clip_global_norm`` only when a dot product
    in the gradients' dtype proves that it would not clip, so the gradients
    are the same bytes either way, whatever the BLAS thread count."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(grads=gradient_sets(), k=st.integers(1, 16) | st.integers(1, 60),
           side=st.sampled_from([1, -1]),
           other=st.none() | st.sampled_from([0.0, -1.0, np.nan, np.inf, 5.0]))
    def test_matches_clip_global_norm(self, grads, k, side, other):
        sizes, dtype, values = grads
        exact = _grad_set(sizes, dtype, values)
        with np.errstate(all="ignore"):
            norm = clip_global_norm(_grad_set(sizes, dtype, values), np.inf)
            max_norm = norm * (1 + side * 2.0 ** -k) if other is None else other
            clip_global_norm(exact, max_norm)
            checked = _grad_set(sizes, dtype, values)
            with _clip_calls() as calls:
                _clip_if_needed(checked, max_norm)
        assert checked.grad.tobytes() == exact.grad.tobytes()
        if not calls.called and max_norm > 0:
            event("skipped")
            squares = values.astype(np.float64) ** 2
            assert norm <= max_norm and math.sqrt(math.fsum(squares)) <= max_norm

    def test_small_gradients_skip_the_float64_norm(self):
        params = _grad_set([9537 * 32, 4], np.float32,
                           np.random.default_rng(42).normal(size=9537 * 32 + 4) * 1e-3)
        before = params.grad.tobytes()
        with _clip_calls() as calls:
            _clip_if_needed(params, 5.0)
        assert not calls.called and params.grad.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_norm_at_the_threshold_takes_the_exact_path(self, dtype):
        values = np.random.default_rng(43).normal(size=1000)
        norm = clip_global_norm(_grad_set([1000], dtype, values), np.inf)
        for max_norm in (norm, norm * (1 + 2.0 ** -50), norm * (1 - 2.0 ** -50)):
            with _clip_calls() as calls:
                _clip_if_needed(_grad_set([1000], dtype, values), max_norm)
            assert calls.called

    def test_too_many_values_for_the_bound_take_the_exact_path(self):
        # n·u = 1/2 for 2**23 float32 values: γₙ bounds nothing there
        params = _grad_set([2 ** 23], np.float32, np.float32(1e-4))
        with _clip_calls() as calls:
            _clip_if_needed(params, 5.0)
        assert calls.called

    def test_an_overflowing_dot_product_warns_nothing(self):
        params = _grad_set([8], np.float32, np.float32(1e30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _clip_calls() as calls:
                _clip_if_needed(params, np.inf)
        assert calls.called and np.all(params.grad == np.float32(1e30))

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, np.nan])
    def test_no_positive_max_norm_returns_at_once(self, max_norm):
        params = _grad_set([3], np.float64, [np.inf, 1.0, 2.0])
        with _clip_calls() as calls:
            _clip_if_needed(params, max_norm)
        assert not calls.called and params.grad.tolist() == [np.inf, 1.0, 2.0]

    @pytest.mark.parametrize("model", ["tfn", "mfn"])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_forced_clipping_matches_clip_on_every_step(self, tmp_path, model, dtype):
        """With grad_clip 0.05 most steps clip: the artifacts equal a run that
        calls clip_global_norm on every step."""
        bundle = small_bundle(n_train=24)
        config = fast_config(model, max_epochs=3)
        config["grad_clip"] = 0.05
        config["dtype"] = dtype
        with _clip_calls() as calls:
            train_run(config, bundle, seed=1111, run_dir=tmp_path / "precheck")
        norms = []
        every_step = lambda params, max_norm: norms.append(clip_global_norm(params, max_norm))
        with mock.patch.object(trainer, "_clip_if_needed", every_step):
            train_run(config, bundle, seed=1111, run_dir=tmp_path / "always")
        clipped = sum(n > 0.05 for n in norms)
        assert clipped > len(norms) / 2 and calls.call_count >= clipped
        for name in ("history.jsonl", "checkpoint/params.bin", "reps.bin"):
            assert ((tmp_path / "precheck" / name).read_bytes()
                    == (tmp_path / "always" / name).read_bytes()), name


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

    def test_config_json_records_the_model_config_the_run_built(self, tmp_path):
        config = fast_config("lf_dnn", max_epochs=1)
        assert config.model.seed == 1111 and config.model.feature_dims is None
        train_run(config, small_bundle(), seed=7, run_dir=tmp_path / "run")
        recorded = json.loads((tmp_path / "run" / "config.json").read_text(encoding="utf-8"))
        manifest = json.loads((tmp_path / "run" / "checkpoint" / "manifest.json")
                              .read_text(encoding="utf-8"))
        assert recorded["model"] == manifest["config"]
        assert recorded["model"]["seed"] == recorded["seed"] == 7
        assert recorded["model"]["feature_dims"] == {"text": 4, "audio": 4, "vision": 4}
        assert config.model.seed == 1111 and config.model.feature_dims is None  # left as given

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


def _run_all_models(out, specs, threads):
    """Train all ten models per ``DTYPE:EPOCHS`` spec in a new interpreter at
    ``threads`` OpenBLAS threads (tests/golden_runs.py); its JSON result."""
    src = str(Path(msa_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("golden_runs.py")),
                           str(out), *specs], env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def one_thread_runs(tmp_path_factory):
    """One interpreter at one BLAS thread trains the golden runs and the
    one-epoch runs TestBlasThreadCount compares; its JSON result."""
    specs = [f"{dtype}:{golden_runs.GOLDEN_EPOCHS}" for dtype in ("f32", "f64")] + ["f32:1"]
    return _run_all_models(tmp_path_factory.mktemp("one_thread"), specs, "1")


class TestGoldenArtifacts:
    def test_hashes_equal_the_table(self, one_thread_runs):
        """All ten models, f32 and f64, 3 epochs at seed 1111 and one BLAS
        thread, write the history.jsonl, params.bin and reps.bin bytes
        tests/golden_artifacts.json holds for this numpy and OpenBLAS. A
        BLAS identity with no entry skips, printing the identity and the
        hashes to file under it (`python tests/golden_runs.py OUT f32:3
        f64:3 --write` does that)."""
        result = one_thread_runs
        found = {spec.split(":")[0]: hashes for spec, hashes in result["runs"].items()
                 if spec.endswith(f":{golden_runs.GOLDEN_EPOCHS}")}
        table = json.loads(golden_runs.TABLE.read_text())
        if result["blas"] not in table:
            pytest.skip(f"no golden entry for BLAS {result['blas']!r}; "
                        f"its hashes: {json.dumps(found, sort_keys=True)}")
        expected = table[result["blas"]]
        moved = [f"{dtype}/{model}/{name}" for dtype, models in found.items()
                 for model, hashes in models.items() for name, sha in hashes.items()
                 if expected.get(dtype, {}).get(model, {}).get(name) != sha]
        assert found == expected, f"moved against the golden table: {moved}"


class TestBlasThreadCount:
    def test_artifacts_equal_at_one_and_two_threads(self, one_thread_runs, tmp_path):
        """All ten models write the same history.jsonl, params.bin and
        reps.bin at 1 and at 2 OpenBLAS threads. The two interpreters run one
        after the other."""
        one = one_thread_runs["runs"]["f32:1"]
        two = _run_all_models(tmp_path, ["f32:1"], "2")["runs"]["f32:1"]
        for model in golden_runs.ALL_MODELS:
            assert one[model] == two[model], model

    def test_one_blas_thread_pins_and_restores(self):
        from msa_forge import _blas

        with _blas.one_blas_thread():   # the first use looks the libraries up
            pass
        if not _blas._libraries:
            pytest.skip("no loaded OpenBLAS exports the thread-count functions")
        before = [get() for get, _ in _blas._libraries]
        try:
            for _, set_ in _blas._libraries:
                set_(2)
            with _blas.one_blas_thread():
                assert [get() for get, _ in _blas._libraries] == [1] * len(before)
            assert [get() for get, _ in _blas._libraries] == [2] * len(before)
        finally:
            for (_, set_), threads in zip(_blas._libraries, before):
                set_(threads)
