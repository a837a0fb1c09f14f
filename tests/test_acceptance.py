"""Acceptance suite: every criterion runs at its stated tolerance and
reports one pass/fail line (collected in the terminal summary).

Run with ``pytest tests/test_acceptance.py -v`` (about 4-6 minutes on a
laptop CPU; criterion 6 trains the full model zoo over five seeds).
"""

import csv
import json
import math
import time

import numpy as np
import pytest
import scipy.io.wavfile

from msa_forge.analysis import compute_metrics, export_projection_csv, make_benchmark_report, pca_project
from msa_forge.autodiff import (
    ParamSet,
    Tensor,
    concat,
    dropout,
    grad_check,
    l1_loss,
    lstm_cell_step,
    lstm_sequence,
    masked_mean,
    matmul,
    mean_,
    mse_loss,
    mul,
    outer_fusion,
    relu,
    reshape,
    scaled_dot_attention,
    sigmoid,
    slice_,
    softmax,
    sub,
    sum_,
    tanh,
    transpose,
)
from msa_forge.bundle import (
    FeatureBundle,
    Manifest,
    ModalityBlock,
    SampleMeta,
    bundle_equal,
    read_bundle,
    split_view,
    write_bundle,
)
from msa_forge.cli import cli_main
from msa_forge.errors import BundleFormatError, BundleValidationError
from msa_forge.extractors import WaveBuffer, stft
from msa_forge.models import (
    ModalityInput,
    Batch,
    ModelConfig,
    batch_from_bundle,
    build_model,
    lmf_full_tensor_expand,
    load_checkpoint,
)
from msa_forge.robustness import PerturbationSpec, add_feature_noise, drop_modality, evaluate_tagged, render_tagged_reports
from msa_forge.synthetic import latent_readout_labels, make_synthetic_bundle
from msa_forge.trainer import get_config_regression, train_run


def _check(record, num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{status}] {desc}"
    if detail:
        line += f" ({detail})"
    record(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

ZOO = ["lf_dnn", "ef_lstm", "tfn", "lmf", "mfn", "mult", "misa", "mtfn"]


def tiny_model_config(name, dtype="f64", seed=5):
    return ModelConfig(
        model_name=name,
        feature_dims={"text": 2, "audio": 2, "vision": 2},
        hidden_dims={"text": 2, "audio": 2, "vision": 2},
        post_fusion_dim=2,
        lmf_rank=2,
        mfn_mem_dim=2,
        mult_hidden=2,
        attn_heads=2,
        attn_layers=1,
        dropout=0.0,
        seed=seed,
        dtype=dtype,
    )


def tiny_batch(config, b=2, seed=9, t=2):
    rng = np.random.default_rng(seed)
    dtype = config.np_dtype
    mods = {}
    for m, d in config.feature_dims.items():
        mask = np.zeros((b, t), dtype=bool)
        data = np.zeros((b, t, d), dtype=dtype)
        for i in range(b):
            ln = int(rng.integers(1, t + 1))
            data[i, :ln] = rng.normal(size=(ln, d))
            mask[i, :ln] = True
        mods[m] = ModalityInput(data=data, mask=mask)
    labels = {"m": rng.uniform(-1, 1, size=b)}
    for key in ("t", "a", "v"):
        labels[key] = rng.uniform(-1, 1, size=b)
    return Batch(modalities=mods, labels=labels)


@pytest.fixture(scope="module")
def synthetic_bundle():
    return make_synthetic_bundle(n_train=700, n_valid=150, n_test=150,
                                 seq_len=20, feature_dim=8, seed=0)


@pytest.fixture(scope="module")
def zoo_checkpoints(synthetic_bundle, tmp_path_factory):
    """Five-seed trained checkpoints of the full zoo (light budget)."""
    root = tmp_path_factory.mktemp("zoo")
    out = {}
    for name in ZOO:
        config = get_config_regression(name, "synthetic")
        config["max_epochs"] = 10
        config["patience"] = 10
        paths = []
        for seed in config.seeds:
            run_dir = root / name / f"seed_{seed}"
            result = train_run(config, synthetic_bundle, seed, run_dir=run_dir)
            paths.append(result.checkpoint_path)
        out[name] = paths
    return out


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_suite(acceptance_record):
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = {}

    def ps(**arrays):
        return ParamSet({k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()})

    const = Tensor(rng.normal(size=(2, 3)))
    mask23 = np.array([[True, True, False], [True, True, True]])
    attn_mask = np.array([[True, False, True], [True, True, True]])

    def drop_fn(p):
        r = np.random.default_rng(7)
        return sum_(dropout(p["x"], 0.4, train=True, rng=r))

    primitive_cases = {
        "add": (lambda p: sum_(mul((p["x"] + const), (p["x"] + const))),
                {"x": rng.normal(size=(2, 3))}),
        "sub": (lambda p: sum_(mul(sub(p["x"], const), sub(p["x"], const))),
                {"x": rng.normal(size=(2, 3))}),
        "mul": (lambda p: sum_(mul(p["x"], p["y"])),
                {"x": rng.normal(size=(2, 3)), "y": rng.normal(size=(3,))}),
        "matmul": (lambda p: sum_(matmul(p["x"], p["y"])),
                   {"x": rng.normal(size=(2, 3, 2)), "y": rng.normal(size=(2, 2))}),
        "concat": (lambda p: sum_(mul(concat([p["x"], p["y"]], axis=1),
                                      concat([p["x"], p["y"]], axis=1))),
                   {"x": rng.normal(size=(2, 2)), "y": rng.normal(size=(2, 3))}),
        "slice": (lambda p: sum_(mul(slice_(p["x"], (slice(None), slice(0, 2))),
                                     slice_(p["x"], (slice(None), slice(1, 3))))),
                  {"x": rng.normal(size=(2, 3))}),
        "reshape": (lambda p: sum_(mul(reshape(p["x"], (3, 2)), reshape(p["x"], (3, 2)))),
                    {"x": rng.normal(size=(2, 3))}),
        "transpose": (lambda p: sum_(mul(transpose(p["x"], (1, 0)), transpose(p["x"], (1, 0)))),
                      {"x": rng.normal(size=(2, 3))}),
        "sigmoid": (lambda p: sum_(sigmoid(p["x"])), {"x": rng.normal(size=(2, 3))}),
        "tanh": (lambda p: sum_(tanh(p["x"])), {"x": rng.normal(size=(2, 3))}),
        "relu": (lambda p: sum_(mul(relu(p["x"]), relu(p["x"]))),
                 {"x": rng.normal(size=(2, 3)) + np.sign(rng.normal(size=(2, 3)))}),
        "softmax": (lambda p: sum_(mul(softmax(p["x"], axis=-1), const)),
                    {"x": rng.normal(size=(2, 3))}),
        "dropout": (drop_fn, {"x": rng.normal(size=(2, 3))}),
        "sum": (lambda p: sum_(mul(sum_(p["x"], axis=1, keepdims=True), p["x"])),
                {"x": rng.normal(size=(2, 3))}),
        "mean": (lambda p: sum_(mul(mean_(p["x"], axis=0, keepdims=True), p["x"])),
                 {"x": rng.normal(size=(2, 3))}),
        "masked_mean": (lambda p: sum_(mul(masked_mean(p["x"], mask23),
                                           masked_mean(p["x"], mask23))),
                        {"x": rng.normal(size=(2, 3, 2))}),
        "l1_loss": (lambda p: l1_loss(p["x"], const),
                    {"x": rng.normal(size=(2, 3)) + 4.0}),
        "mse_loss": (lambda p: mse_loss(p["x"], const), {"x": rng.normal(size=(2, 3))}),
        "lstm_cell_step": (
            lambda p, _x=Tensor(rng.normal(size=(2, 2))),
            _h=Tensor(rng.normal(size=(2, 2))), _c=Tensor(rng.normal(size=(2, 2))):
                sum_(mul(*lstm_cell_step(_x, _h, _c, p))),
            {"wx": rng.normal(size=(2, 8)), "wh": rng.normal(size=(2, 8)),
             "b": rng.normal(size=(8,))}),
        "scaled_dot_attention": (
            lambda p: sum_(mul(scaled_dot_attention(p["q"], p["k"], p["v"], mask=attn_mask),
                               scaled_dot_attention(p["q"], p["k"], p["v"], mask=attn_mask))),
            {"q": rng.normal(size=(2, 2, 2)), "k": rng.normal(size=(2, 3, 2)),
             "v": rng.normal(size=(2, 3, 2))}),
        "outer_fusion": (
            lambda p: sum_(mul(outer_fusion([p["a"], p["b"]], augment=True),
                               outer_fusion([p["a"], p["b"]], augment=True))),
            {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=(2, 3))}),
        "lstm_sequence": (
            lambda p, _w=Tensor(rng.normal(size=(2, 3, 2, 2))):
                sum_(mul(lstm_sequence(p["x"], mask23, p), _w)),
            {"x": rng.normal(size=(2, 3, 2)), "wx": rng.normal(size=(2, 8)),
             "wh": rng.normal(size=(2, 8)), "b": rng.normal(size=(8,))}),
        "outer_fusion_3way": (
            lambda p: sum_(mul(outer_fusion([p["a"], p["b"], p["c"]], augment=True),
                               outer_fusion([p["a"], p["b"], p["c"]], augment=True))),
            {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=(2, 3)),
             "c": rng.normal(size=(2, 2))}),
    }
    for name, (fn, arrays) in primitive_cases.items():
        report = grad_check(fn, ps(**arrays), eps=1e-5, tol=1e-4)
        worst[f"primitive:{name}"] = report.max_rel_error

    for name in ZOO:
        config = tiny_model_config(name)
        model = build_model(config)
        batch = tiny_batch(config)

        def f(params):
            return model.loss(model.forward(batch), batch)

        report = grad_check(f, model.params, eps=1e-5, tol=1e-4)
        worst[f"model:{name}"] = report.max_rel_error

    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    _check(acceptance_record, 1,
           "gradient suite: primitives + full zoo, f64, eps 1e-5, rel err < 1e-4, < 60 s",
           not bad and elapsed < 60.0,
           f"{len(worst)} checks, worst {max(worst.values()):.2e}, {elapsed:.1f}s"
           + (f", failing: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# 2. LMF <-> full tensor equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_lmf_full_tensor_equivalence(acceptance_record):
    rng = np.random.default_rng(1)
    worst = {"f32": 0.0, "f64": 0.0}
    for trial in range(20):
        dims = {m: int(rng.integers(1, 4)) for m in ("text", "audio", "vision")}
        rank = int(rng.integers(1, 4))
        for dtype in ("f32", "f64"):
            config = ModelConfig(
                model_name="lmf",
                feature_dims={m: 2 for m in dims},
                hidden_dims=dims,
                post_fusion_dim=int(rng.integers(1, 4)),
                lmf_rank=rank,
                dropout=0.0,
                seed=trial,
                dtype=dtype,
            )
            model = build_model(config)
            batch = tiny_batch(config, b=2, seed=trial, t=3)
            out = model.forward(batch)
            full = lmf_full_tensor_expand(model)
            uni = [np.concatenate([np.ones((2, 1)),
                                   out.uni_reps[m].data.astype(np.float64)], axis=1)
                   for m in model.modalities()]
            spec = "bi,bj,bk,ijko->bo"
            contraction = np.einsum(spec, *uni, full)
            contraction += model.params["lmf.bias"].data.astype(np.float64)
            err = float(np.max(np.abs(out.fusion_rep.data - contraction)))
            worst[dtype] = max(worst[dtype], err)
    _check(acceptance_record, 2,
           "LMF fusion equals contraction against the expanded full tensor "
           "(20 random configs, 1e-5 f32 / 1e-10 f64)",
           worst["f32"] < 1e-5 and worst["f64"] < 1e-10,
           f"worst f32 {worst['f32']:.2e}, worst f64 {worst['f64']:.2e}")


# ---------------------------------------------------------------------------
# 3. outer-fusion oracle
# ---------------------------------------------------------------------------

def test_criterion_03_outer_fusion_oracle(acceptance_record):
    out = outer_fusion([Tensor([1.0]), Tensor([2.0]), Tensor([3.0])], augment=True)
    exact = np.array_equal(out.data, np.array([1, 3, 2, 6, 1, 3, 2, 6], dtype=out.dtype))
    rng = np.random.default_rng(2)
    sizes_ok = True
    for _ in range(50):
        m = int(rng.integers(2, 5))
        dims = [int(rng.integers(1, 6)) for _ in range(m)]
        vecs = [Tensor(rng.normal(size=d)) for d in dims]
        expect = int(np.prod([d + 1 for d in dims]))
        sizes_ok &= outer_fusion(vecs, augment=True).shape == (expect,)
    _check(acceptance_record, 3,
           "outer fusion: [1],[2],[3] augmented == [1,3,2,6,1,3,2,6]; size formula "
           "prod(d_i+1) on 50 random tuples",
           exact and sizes_ok)


# ---------------------------------------------------------------------------
# 4. metric oracle + verbatim benchmark row
# ---------------------------------------------------------------------------

def _metric_loop_oracle(preds, labels):
    n = len(preds)
    pc = [p >= 0 for p in preds]
    lc = [l >= 0 for l in labels]
    acc = sum(1 for a, b in zip(pc, lc) if a == b) / n

    def f1_class(cls):
        tp = sum(1 for a, b in zip(pc, lc) if a == cls and b == cls)
        fp = sum(1 for a, b in zip(pc, lc) if a == cls and b != cls)
        fn = sum(1 for a, b in zip(pc, lc) if a != cls and b == cls)
        return 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)

    f1 = sum((sum(1 for b in lc if b == cls) / n) * f1_class(cls) for cls in (False, True))
    mae = sum(abs(p - l) for p, l in zip(preds, labels)) / n
    pm, lm = sum(preds) / n, sum(labels) / n
    cov = sum((p - pm) * (l - lm) for p, l in zip(preds, labels))
    corr = cov / math.sqrt(sum((p - pm) ** 2 for p in preds)
                           * sum((l - lm) ** 2 for l in labels))
    return acc, f1, mae, corr


def test_criterion_04_metric_oracle_and_reference_row(acceptance_record):
    rng = np.random.default_rng(3)
    preds = rng.uniform(-3, 3, size=1000)
    labels = rng.uniform(-3, 3, size=1000)
    rep = compute_metrics(preds, labels)
    acc, f1, mae, corr = _metric_loop_oracle(list(preds), list(labels))
    metrics_ok = (abs(rep.acc2 - acc) < 1e-9 and abs(rep.f1 - f1) < 1e-9
                  and abs(rep.mae - mae) < 1e-9 and abs(rep.corr - corr) < 1e-9)

    text = make_benchmark_report(
        {"TFN": {"MOSI": {"acc2": 0.7802, "f1": 0.7809, "mae": 0.971, "corr": 0.652}}},
        fmt="markdown")
    row = next(line for line in text.splitlines() if line.startswith("| TFN"))
    cells = [c.strip() for c in row.strip("|").split("|")]
    row_ok = cells == ["TFN", "78.02", "78.09", "0.971", "0.652"]
    _check(acceptance_record, 4,
           "metrics match brute-force loop oracle on 1000 pairs (1e-9); "
           "reference benchmark row renders verbatim",
           metrics_ok and row_ok, f"rendered row: {' / '.join(cells[1:])}")


# ---------------------------------------------------------------------------
# 5. synthetic learnability
# ---------------------------------------------------------------------------

def test_criterion_05_synthetic_learnability(acceptance_record, synthetic_bundle):
    readout = latent_readout_labels(synthetic_bundle)
    labels = synthetic_bundle.labels()
    oracle_acc = float(np.mean((readout >= 0) == (labels >= 0)))
    assert oracle_acc == 1.0, "generator oracle broken: linear readout must be perfect"

    details = []
    ok = True
    for name in ("lf_dnn", "tfn"):
        config = get_config_regression(name, "synthetic")
        accs, corrs, times = [], [], []
        for seed in config.seeds:
            t0 = time.time()
            result = train_run(config, synthetic_bundle, seed)
            times.append(time.time() - t0)
            accs.append(result.test_metrics.acc2)
            corrs.append(result.test_metrics.corr)
        mean_acc = float(np.mean(accs))
        mean_corr = float(np.mean(corrs))
        ok &= mean_acc >= 0.95 and mean_corr >= 0.9 and max(times) < 180.0
        details.append(f"{name}: acc2 {mean_acc:.3f}, corr {mean_corr:.3f}, "
                       f"max {max(times):.0f}s/seed")
    _check(acceptance_record, 5,
           "default-config lf_dnn and tfn reach test Acc-2 >= 0.95 and Pearson >= 0.9 "
           "(5-seed means, < 3 min/seed); linear-readout oracle Acc-2 = 1.0",
           ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. robustness monotonicity
# ---------------------------------------------------------------------------

def _noised_test_view(view, snr_db, seed):
    blocks = {m: add_feature_noise(b, snr_db, seed + i)
              for i, (m, b) in enumerate(view.blocks.items())}
    return FeatureBundle(manifest=view.manifest, blocks=blocks)


def test_criterion_06_robustness_monotonicity(acceptance_record, synthetic_bundle,
                                              zoo_checkpoints):
    test = split_view(synthetic_bundle, "test")
    noised = _noised_test_view(test, 0.0, seed=42)
    labels = test.labels()

    def acc_with(model, view):
        preds = model.forward(batch_from_bundle(view, dtype=model.dtype)).pred.data
        return compute_metrics(preds, labels, strict_corr=False).acc2

    ok = True
    details = []
    reports = {}
    for name in ZOO:
        clean, noisy, dropped = [], [], []
        for i, ckpt in enumerate(zoo_checkpoints[name]):
            model, _ = load_checkpoint(ckpt)
            clean.append(acc_with(model, test))
            noisy.append(acc_with(model, noised))
            batch = batch_from_bundle(test, dtype=model.dtype)
            preds = model.forward(drop_modality(batch, "audio")).pred.data
            dropped.append(compute_metrics(preds, labels, strict_corr=False).acc2)
            if i == 0:
                reports[name] = evaluate_tagged(
                    model, test,
                    [PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=7),
                     PerturbationSpec("modality_missing", "audio")])
        c, n, d = (float(np.mean(v)) for v in (clean, noisy, dropped))
        ok &= n <= c and d <= c
        details.append(f"{name}: clean {c:.3f} >= noise {n:.3f}, missing {d:.3f}")

    table = render_tagged_reports(reports, fmt="markdown")
    rows_ok = all(f"| {label}" in table
                  for label in ("Easy", "Common", "Difficult", "Noise", "Missing"))
    avg_ok = "Avg (sample-weighted)" in table and "Avg (type-mean)" in table
    _check(acceptance_record, 6,
           "5-seed mean Acc-2: noise@0dB <= clean and one-modality-missing <= clean "
           "for the full zoo; robustness table renders all type rows with both Avg "
           "conventions",
           ok and rows_ok and avg_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. train determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_07_cli_train_determinism(acceptance_record, tmp_path):
    bundle = make_synthetic_bundle(n_train=24, n_valid=8, n_test=8, seq_len=6,
                                   feature_dim=4, seed=3)
    bundle_dir = tmp_path / "bundle"
    write_bundle(bundle, bundle_dir)
    argv = ["train", "--bundle", str(bundle_dir), "--model", "lf_dnn",
            "--seeds", "1111", "--set", "max_epochs=3", "--set", "patience=3",
            "--set", "batch_size=8"]
    assert cli_main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "b")]) == 0
    (dir_a,) = (tmp_path / "a" / "lf_dnn").iterdir()
    (dir_b,) = (tmp_path / "b" / "lf_dnn").iterdir()
    ha = (dir_a / "seed_1111" / "history.jsonl").read_bytes()
    hb = (dir_b / "seed_1111" / "history.jsonl").read_bytes()
    _check(acceptance_record, 7,
           "two `train` invocations with identical flags and seed produce "
           "byte-identical history.jsonl",
           ha == hb, f"{len(ha)} bytes")


# ---------------------------------------------------------------------------
# 8. PCA
# ---------------------------------------------------------------------------

def test_criterion_08_pca(acceptance_record, tmp_path):
    rng = np.random.default_rng(4)
    data = rng.normal(size=(80, 10)) * np.linspace(5, 0.1, 10)
    proj = pca_project(data, k=3)
    gram = proj.components @ proj.components.T
    ortho_err = float(np.max(np.abs(gram - np.eye(3))))
    ev = proj.explained_variance
    sorted_ok = ev[0] >= ev[1] >= ev[2] >= 0

    line = np.outer(rng.normal(size=60), rng.normal(size=6)) + rng.normal(size=6)
    rank1 = pca_project(line, k=3)
    rank1_ok = rank1.explained_variance[1] < 1e-8 and rank1.explained_variance[2] < 1e-8

    csv_path = tmp_path / "projection.csv"
    export_projection_csv(proj, [f"s{i}" for i in range(80)],
                          rng.uniform(-1, 1, 80), rng.uniform(-1, 1, 80), csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    csv_ok = rows[0] == ["id", "x", "y", "z", "label", "pred"] and len(rows) == 81
    _check(acceptance_record, 8,
           "PCA: orthonormal components (1e-6), non-increasing variance, rank-1 "
           "residual variances < 1e-8, 3-column projection CSV",
           ortho_err < 1e-6 and sorted_ok and rank1_ok and csv_ok,
           f"orthonormality error {ortho_err:.1e}, "
           f"rank-1 residuals {rank1.explained_variance[1]:.1e}/"
           f"{rank1.explained_variance[2]:.1e}")


# ---------------------------------------------------------------------------
# 9. STFT/MFCC formulas + predict STFT dump
# ---------------------------------------------------------------------------

SR = 16000


@pytest.fixture(scope="module")
def wav_checkpoint(tmp_path_factory):
    """Audio+text checkpoint trained on extracted toy data, for predict."""
    root = tmp_path_factory.mktemp("wav_ckpt")
    data = root / "data"
    data.mkdir()
    rng = np.random.default_rng(5)
    (data / "emb.txt").write_text("<unk> 0.0 0.0\nup 1.0 0.2\ndown -1.0 -0.2\n")
    rows = []
    for i in range(10):
        t = np.arange(SR // 5) / SR
        tone = 0.4 * np.sin(2 * np.pi * (180 + 70 * (i % 4)) * t)
        scipy.io.wavfile.write(data / f"s{i}.wav", SR, (tone * 32767).astype(np.int16))
        (data / f"s{i}.txt").write_text("up down up")
        split = "train" if i < 6 else ("valid" if i < 8 else "test")
        rows.append({"id": f"s{i}", "split": split,
                     "label_m": round(float(rng.uniform(-1, 1)), 3),
                     "audio_path": f"s{i}.wav", "text_path": f"s{i}.txt"})
    with open(root / "labels.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    extract_cfg = root / "extract.json"
    extract_cfg.write_text(json.dumps({
        "audio": {"kind": "mfcc", "params": {"n_fft": 256, "hop": 128,
                                             "n_mels": 12, "n_mfcc": 6}},
        "text": {"kind": "glove", "params": {"table": "emb.txt"}},
    }))
    assert cli_main(["extract", "--data", str(data), "--labels",
                     str(root / "labels.csv"), "--config", str(extract_cfg),
                     "--out", str(root / "bundle"), "--label-range=-1,1"]) == 0
    assert cli_main(["train", "--bundle", str(root / "bundle"), "--model", "lf_dnn",
                     "--seeds", "1111", "--out", str(root / "runs"),
                     "--set", "max_epochs=2", "--set", "patience=2",
                     "--set", "batch_size=4"]) == 0
    (stamped,) = (root / "runs" / "lf_dnn").iterdir()
    return {"root": root, "data": data, "extract_cfg": extract_cfg,
            "checkpoint": stamped / "seed_1111" / "checkpoint"}


def test_criterion_09_stft_mfcc_and_predict_dump(acceptance_record, wav_checkpoint,
                                                 tmp_path, capsys):
    rng = np.random.default_rng(6)
    frame_ok = True
    for _ in range(200):
        n_fft = int(2 ** rng.integers(4, 11))
        hop = int(rng.integers(1, n_fft + 1))
        length = int(rng.integers(n_fft, n_fft * 8))
        wave = WaveBuffer(SR, rng.normal(size=length))
        spec = stft(wave, n_fft, hop)
        frame_ok &= spec.shape == (1 + (length - n_fft) // hop, n_fft // 2 + 1)

    n_fft, hop = 512, 256
    x = rng.normal(size=3000)
    spec = stft(WaveBuffer(SR, x), n_fft, hop)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
    parseval_worst = 0.0
    for f in range(spec.shape[0]):
        frame = x[f * hop:f * hop + n_fft] * win
        e_time = float(np.sum(frame ** 2))
        mags = spec[f]
        e_freq = float(mags[0] ** 2 + 2 * np.sum(mags[1:-1] ** 2) + mags[-1] ** 2) / n_fft
        parseval_worst = max(parseval_worst, abs(e_freq - e_time) / e_time)

    setup = wav_checkpoint
    out = tmp_path / "pred"
    code = cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                     "--sample", str(setup["data"] / "s0.wav"),
                     "--tokens", "up down", "--embedding", str(setup["data"] / "emb.txt"),
                     "--config", str(setup["extract_cfg"]), "--out", str(out)])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rate, samples = scipy.io.wavfile.read(setup["data"] / "s0.wav")
    dumped = np.loadtxt(payload["stft_path"], delimiter=",")
    dump_ok = code == 0 and dumped.shape == (1 + (len(samples) - 256) // 128, 129)

    _check(acceptance_record, 9,
           "frame-count formula exact on 200 random triples; Parseval within 1e-3; "
           "`predict` STFT dump shape matches the formula",
           frame_ok and parseval_worst < 1e-3 and dump_ok,
           f"worst Parseval rel err {parseval_worst:.1e}, dump shape {dumped.shape}")


# ---------------------------------------------------------------------------
# 10. container round-trip and rejection
# ---------------------------------------------------------------------------

def _random_bundle(rng):
    n = int(rng.integers(1, 7))
    mods = list(rng.choice(["text", "audio", "vision"],
                           size=int(rng.integers(1, 4)), replace=False))
    blocks = {}
    for m in sorted(mods):
        d, t = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        lengths = rng.integers(1, t + 1, size=n).astype(np.int64)
        data = np.zeros((n, t, d), dtype=np.float32)
        for i, ln in enumerate(lengths):
            data[i, :ln] = rng.normal(size=(ln, d)).astype(np.float32)
        blocks[m] = ModalityBlock(d, t, data, lengths)
    samples = [SampleMeta(id=f"s{i}", split=("train", "valid", "test")[i % 3],
                          label_m=float(rng.uniform(-3, 3)))
               for i in range(n)]
    return FeatureBundle(Manifest("rand", (-3.0, 3.0), samples), blocks)


def test_criterion_10_container_round_trip_and_rejection(acceptance_record, tmp_path):
    rng = np.random.default_rng(7)
    round_trip_ok = True
    for trial in range(100):
        bundle = _random_bundle(rng)
        path = tmp_path / f"b{trial}"
        write_bundle(bundle, path)
        round_trip_ok &= bundle_equal(bundle, read_bundle(path))

    good = _random_bundle(rng)
    base = tmp_path / "fixtures"

    write_bundle(good, base / "header")
    mod = sorted(good.blocks)[0]
    blob = bytearray((base / "header" / f"{mod}.bin").read_bytes())
    blob[:4] = b"ZZZZ"
    (base / "header" / f"{mod}.bin").write_bytes(bytes(blob))
    try:
        read_bundle(base / "header")
        header_ok = False
    except BundleFormatError:
        header_ok = True

    write_bundle(good, base / "nan")
    blob = bytearray((base / "nan" / f"{mod}.bin").read_bytes())
    import struct
    blob[20:24] = struct.pack("<f", float("nan"))
    (base / "nan" / f"{mod}.bin").write_bytes(bytes(blob))
    try:
        read_bundle(base / "nan")
        nan_ok = False
    except BundleValidationError:
        nan_ok = True

    cli_header = cli_main(["train", "--bundle", str(base / "header"),
                           "--model", "lf_dnn", "--out", str(tmp_path / "r1")]) == 2
    cli_nan = cli_main(["train", "--bundle", str(base / "nan"),
                        "--model", "lf_dnn", "--out", str(tmp_path / "r2")]) == 2

    _check(acceptance_record, 10,
           "100 randomized bundles round-trip bit-exactly; corrupted header and NaN "
           "fixtures rejected with the documented error classes (CLI exit 2)",
           round_trip_ok and header_ok and nan_ok and cli_header and cli_nan)
