"""The benchmark's three workloads and their output checks.

Each workload has a ``setup()`` that builds its inputs (timed, repeated
by the caller) and a ``rep(i, clock)`` that runs one fixed unit of work,
timed with ``clock`` (see ``speed.Speedometer.clock``), and returns a
:class:`RepResult`. Everything runs closed-loop in this process: each
call starts when the previous one has returned.

Operations and output checks are both counted in a :class:`Ledger`, whose
totals become the result's ``attempted`` and ``failed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# Module-qualified calls only, so that the traced run's wrappers see them.
from msa_forge import analysis, bundle, cli, models, robustness, synthetic, trainer

from .rawdata import make_raw_dataset

POOLED_MODELS = ("lf_dnn", "lmf", "tfn", "misa", "mtfn")
RECURRENT_MODELS = ("ef_lstm", "mult", "mfn")
TRAIN_EPOCHS = {"train-pooled": 4, "train-recurrent": 2}
BATCH_SIZE = 32

PIPELINE_CLIPS = 150
PREDICTS_PER_REP = 40
MIN_PREDICTS = 100          # so that >= 10 calls lie beyond p90
PIPELINE_SETUP_TRAIN = {
    "tfn": ["--set", "max_epochs=10", "--set", "patience=10", "--set", "optimizer.lr=0.003"],
    "ef_lstm": ["--set", "max_epochs=1", "--set", "patience=1"],
}
PREDICT_TOL = 1e-5


@dataclass
class RepResult:
    wall_s: float                   # the whole repetition
    samples: int                    # what samples_per_s counts
    samples_s: float                # the time those samples took
    extract_clips_per_s: float = 0.0
    predict_ms: list[float] = field(default_factory=list)


class Ledger:
    """Attempted and failed operations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def train_seeds(seed: int) -> list[int]:
    return [1000 + 2 * seed, 1001 + 2 * seed]


def quality_band(reference: dict, key: str) -> tuple[float, float]:
    """Accepted test-MAE interval: the cross-seed range recorded at the
    reference commit, widened by half its width on each side."""
    lo, hi = reference[key]["min"], reference[key]["max"]
    pad = 0.5 * (hi - lo)
    return lo - pad, hi + pad


def untrained_test_mae(checkpoint, data) -> float:
    """Test MAE of the model a checkpoint started from: the same config
    and seed, freshly built, so before any training step."""
    trained, _ = models.load_checkpoint(checkpoint)
    model = models.build_model(trained.config)
    test = bundle.split_view(data, "test")
    pred = model.forward(models.batch_from_bundle(test, dtype=model.dtype), train=False).pred
    return analysis.compute_metrics(pred.data.astype(np.float64), test.labels(),
                                    strict_corr=False).mae


def check_gain(ledger: Ledger, what: str, reference: dict, key: str,
               untrained: float, trained: float) -> None:
    """Training must lower test MAE below the untrained model's by at least
    half the smallest gain recorded at the reference commit."""
    need = 0.5 * reference[key]["min_gain"]
    ledger.record(f"{what}: test MAE at least {need:.4f} below the untrained model's",
                  untrained - trained >= need,
                  f"untrained {untrained:.4f}, trained {trained:.4f}")


def _same(a, b) -> bool:
    """Equality of JSON-like values where NaN equals NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class TrainWorkload:
    """``multi_seed_run`` over a model list on ``make_synthetic_bundle``
    (700/150/150, T=20, d=8), fixed epochs, two seeds, batch 32, with
    run-directory artifacts."""

    def __init__(self, name: str, seed: int, tmp: Path, ledger: Ledger, reference: dict):
        self.name = name
        self.models = POOLED_MODELS if name == "train-pooled" else RECURRENT_MODELS
        self.epochs = TRAIN_EPOCHS[name]
        self.seed = seed
        self.seeds = train_seeds(seed)
        self.tmp = tmp
        self.ledger = ledger
        self.reference = reference
        self.first_history: dict[tuple[str, int], bytes] = {}
        self.untrained_mae: dict[tuple[str, int], float] = {}
        self.n_setups = 0
        self.bundle = None

    def setup(self) -> None:
        path = self.tmp / f"setup{self.n_setups}"
        self.n_setups += 1
        bundle.write_bundle(synthetic.make_synthetic_bundle(seed=self.seed), path)
        self.bundle = bundle.read_bundle(path)
        self.n_train = sum(s.split == "train" for s in self.bundle.manifest.samples)

    def config(self, model: str):
        cfg = trainer.get_config_regression(model, "synthetic")
        cfg.max_epochs = self.epochs
        cfg.patience = self.epochs        # early stopping cannot fire
        cfg.batch_size = BATCH_SIZE
        cfg.seeds = list(self.seeds)
        return cfg

    def rep(self, i: int, clock) -> RepResult:
        out = self.tmp / f"rep{i}"
        results = {}
        samples = 0
        t0 = clock()
        for model in self.models:
            try:
                res = trainer.multi_seed_run(self.config(model), self.bundle,
                                             run_dir=out / model)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                for seed in self.seeds:
                    self.ledger.record(f"train {model} seed {seed}", False, "raised")
                continue
            for run in res.per_seed:
                samples += len(run.history) * self.n_train
                results[(model, run.seed)] = run
        wall = clock() - t0

        for (model, seed), run in results.items():
            self.ledger.record(f"train {model} seed {seed}", True)
            self._check(model, seed, run)
        shutil.rmtree(out, ignore_errors=True)
        return RepResult(wall_s=wall, samples=samples, samples_s=wall)

    def _check(self, model: str, seed: int, run) -> None:
        rec = self.ledger.record
        history = (Path(run.run_dir) / "history.jsonl").read_bytes()
        first = self.first_history.setdefault((model, seed), history)
        rec(f"{model}/{seed}: history.jsonl identical across repetitions", history == first)
        rec(f"{model}/{seed}: ran all {self.epochs} epochs", len(run.history) == self.epochs,
            f"ran {len(run.history)}")
        rec(f"{model}/{seed}: validation MAE improved after the first epoch",
            run.best_epoch > 1, f"best epoch {run.best_epoch}")
        key = f"{self.name}.{model}"
        lo, hi = quality_band(self.reference, key)
        mae = run.test_metrics.mae
        rec(f"{model}/{seed}: test MAE in the reference band", lo <= mae <= hi,
            f"mae {mae:.4f} outside [{lo:.4f}, {hi:.4f}]")
        if (model, seed) not in self.untrained_mae:     # first repetition only
            self.untrained_mae[model, seed] = untrained_test_mae(run.checkpoint_path,
                                                                 self.bundle)
        check_gain(self.ledger, f"{model}/{seed}", self.reference, key,
                   self.untrained_mae[model, seed], mae)


def _cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_main([str(a) for a in argv])
    return code, buf.getvalue()


class PipelineWorkload:
    """Raw files -> ``extract`` -> ``perturb`` -> ``eval --tagged`` (tfn and
    ef_lstm checkpoints, clean and stressed bundles) -> repeated
    ``predict`` -> ``report``, all through ``cli_main`` in process."""

    EVAL_FLAGS = ["--split", "all", "--tagged", "--snr-db", "0", "--drop", "vision"]

    def __init__(self, name: str, seed: int, tmp: Path, ledger: Ledger, reference: dict):
        self.seed = seed
        self.tmp = tmp
        self.ledger = ledger
        self.reference = reference
        self.n_setups = 0
        self.first_digest: dict[str, str] = {}
        self.expected_pred: dict[str, float] = {}
        self.library_checked = False
        self.checkpoints: dict[str, Path] = {}
        self.setup_mae = None
        self.clock = perf_counter

    def _run(self, what: str, argv: list) -> tuple[bool, str, float]:
        t0 = self.clock()
        try:
            code, out = _cli(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code, out = -1, ""
        dt = self.clock() - t0
        return self.ledger.record(what, code == 0, f"exit {code}"), out, dt

    def _extract(self, out: Path) -> tuple[bool, str, float]:
        raw = self.raw
        return self._run("cli extract", ["extract", "--data", raw["root"], "--labels",
                                         raw["labels"], "--config", raw["config"],
                                         "--out", out, "--label-range=-3,3"])

    def setup(self) -> None:
        root = self.tmp / f"setup{self.n_setups}"
        self.n_setups += 1
        self.raw = make_raw_dataset(root / "raw", PIPELINE_CLIPS, self.seed)
        self.setup_bundle = root / "bundle"
        if self._extract(self.setup_bundle)[0]:
            self.ledger.record("extracted bundle bit-identical across set-ups and repetitions",
                               self._same_as_first("bundle", _dir_digest(self.setup_bundle)))
        self.checkpoints = {}
        self.setup_mae = None
        for model, flags in PIPELINE_SETUP_TRAIN.items():
            seed = train_seeds(self.seed)[0]
            ok, out, _ = self._run(f"cli train {model}", [
                "train", "--bundle", self.setup_bundle, "--model", model,
                "--seeds", seed, "--out", root / "runs", *flags])
            if ok:
                doc = json.loads(out.strip().splitlines()[-1])
                self.checkpoints[model] = Path(doc["run_dir"]) / f"seed_{seed}" / "checkpoint"
                if model == "tfn":
                    lo, hi = quality_band(self.reference, "pipeline.tfn")
                    mae = self.setup_mae = doc["metrics_mean"]["mae"]
                    self.ledger.record("set-up tfn: test MAE in the reference band",
                                       lo <= mae <= hi,
                                       f"mae {mae:.4f} outside [{lo:.4f}, {hi:.4f}]")

    def _expect_predictions(self) -> None:
        """Reference predictions: the tfn checkpoint's forward pass on each
        test clip's bundle features."""
        model, _ = models.load_checkpoint(self.checkpoints["tfn"])
        data = bundle.read_bundle(self.setup_bundle)
        for i, s in enumerate(data.manifest.samples):
            if s.split == "test":
                batch = models.batch_from_bundle(data, [i], model.dtype)
                self.expected_pred[s.id] = float(model.forward(batch, train=False).pred.data[0])

    def _predict_args(self, clip: dict, out: Path) -> list:
        root = self.raw["root"]
        return ["predict", "--checkpoint", self.checkpoints["tfn"],
                "--sample", root / clip["audio_path"], "--tokens", clip["tokens"],
                "--embedding", self.raw["embedding"],
                "--visual-csv", root / clip["vision_path"], "--config", self.raw["config"],
                "--out", out]

    def rep(self, i: int, clock) -> RepResult:
        rep_dir = self.tmp / f"rep{i}"
        clean, stressed = rep_dir / "clean", rep_dir / "stressed"
        test_clips = [c for c in self.raw["clips"] if c["split"] == "test"]
        evals = []
        predictions = []
        self.clock = clock
        t_start = clock()

        ok, out, t_extract = self._extract(clean)
        n_clips = json.loads(out.strip().splitlines()[-1])["n"] if ok else 0
        _, _, t_perturb = self._run("cli perturb", [
            "perturb", "--bundle", clean, "--out", stressed,
            "--snr-db", "0", "--target", "audio"])
        t_eval = 0.0
        for model in ("tfn", "ef_lstm"):
            for label, path in (("clean", clean), ("stressed", stressed)):
                out_dir = rep_dir / "eval" / label / model
                ok, out, dt = self._run(f"cli eval {model} {label}", [
                    "eval", "--checkpoint", self.checkpoints.get(model, "missing"),
                    "--bundle", path, "--out", out_dir, *self.EVAL_FLAGS])
                t_eval += dt
                if ok:
                    evals.append((model, label, path, out_dir))
        predict_ms = []
        for j in range(PREDICTS_PER_REP):
            clip = test_clips[(i * PREDICTS_PER_REP + j) % len(test_clips)]
            if "tfn" not in self.checkpoints:
                self.ledger.record("cli predict", False, "no tfn checkpoint")
                continue
            ok, out, dt = self._run("cli predict", self._predict_args(clip, rep_dir / "pred"))
            predict_ms.append(dt * 1e3)
            if ok:
                predictions.append((clip["id"], json.loads(out.strip().splitlines()[-1])))
        ok, report, _ = self._run("cli report", [
            "report", "--runs", rep_dir / "eval" / "clean", "--style", "table5"])
        wall = clock() - t_start

        scored = self._check(clean, evals, predictions, report if ok else None)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return RepResult(wall_s=wall, samples=scored, samples_s=t_perturb + t_eval,
                         extract_clips_per_s=n_clips / t_extract, predict_ms=predict_ms)

    def _same_as_first(self, key: str, digest: str) -> bool:
        return self.first_digest.setdefault(key, digest) == digest

    def _check(self, clean: Path, evals, predictions, report) -> int:
        rec = self.ledger.record
        if clean.is_dir():
            rec("extracted bundle bit-identical across set-ups and repetitions",
                self._same_as_first("bundle", _dir_digest(clean)))
        scored = 0
        for model, label, path, out_dir in evals:
            metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
            tagged = json.loads((out_dir / "tagged_report.json").read_text(encoding="utf-8"))
            scored += metrics["metrics"]["n"] + sum(
                row["n"] for row in tagged["report"]["rows"].values() if row)
            digest = hashlib.sha256((out_dir / "metrics.json").read_bytes()
                                    + (out_dir / "tagged_report.json").read_bytes()).hexdigest()
            rec(f"eval {model} {label}: outputs identical across repetitions",
                self._same_as_first(f"eval.{model}.{label}", digest))
            if not self.library_checked:
                self._check_against_library(model, label, path, metrics, tagged)
        if not self.library_checked and self.setup_mae is not None:
            untrained = untrained_test_mae(self.checkpoints["tfn"],
                                           bundle.read_bundle(self.setup_bundle))
            check_gain(self.ledger, "set-up tfn", self.reference, "pipeline.tfn",
                       untrained, self.setup_mae)
        self.library_checked = True
        if predictions and not self.expected_pred:
            self._expect_predictions()
        for clip_id, result in predictions:
            want = self.expected_pred.get(clip_id, math.nan)
            rec(f"predict {clip_id} matches the forward pass on bundle features",
                abs(result["pred"] - want) <= PREDICT_TOL,
                f"predict {result['pred']!r} vs forward {want!r}")
        if report is not None:
            rec("report table5 lists both models",
                "tfn Acc-2" in report and "ef_lstm Acc-2" in report)
        return scored

    def _check_against_library(self, model_name, label, bundle_path, metrics, tagged) -> None:
        model, _ = models.load_checkpoint(self.checkpoints[model_name])
        data = bundle.read_bundle(bundle_path)
        preds = model.forward(models.batch_from_bundle(data, dtype=model.dtype),
                              train=False).pred.data.astype(np.float64)
        direct = analysis.compute_metrics(preds, data.labels(), strict_corr=False).as_dict()
        self.ledger.record(f"eval {model_name} {label}: metrics equal compute_metrics",
                           _same(direct, metrics["metrics"]))
        specs = [robustness.PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=0),
                 robustness.PerturbationSpec("modality_missing", "vision", seed=0)]
        report = robustness.evaluate_tagged(model, data, specs).as_dict()
        self.ledger.record(f"eval {model_name} {label}: tagged report equals evaluate_tagged",
                           _same(json.loads(json.dumps(report)), tagged["report"]))


WORKLOADS = {
    "train-pooled": TrainWorkload,
    "train-recurrent": TrainWorkload,
    "pipeline": PipelineWorkload,
}
