"""Unified training pipeline: config registry, seeded single runs with
early stopping, and multi-seed aggregation.

Training minimizes L1 loss on the continuous label (plus any model
auxiliary losses) with Adam and global-norm gradient clipping; after each
epoch the validation split is scored and the run stops once validation
MAE has not improved for ``patience`` epochs. The best checkpoint is
restored before test evaluation and representation capture.

Run directory layout::

    <out>/<model>/<timestamp>/seed_<k>/   config.json
                                          history.jsonl   (one record per epoch)
                                          checkpoint/
                                          reps.bin
    <out>/<model>/<timestamp>/aggregate.json

history.jsonl is byte-identical across reruns with the same config and
seed.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from ._blas import one_blas_thread
from ._heap import keep_freed_memory
from .analysis import METRIC_KEYS, MetricReport, compute_metrics
from .bundle import FeatureBundle, split_view
from .errors import ModelError, MsaForgeError, TrainingDivergedError, ValidationError
from .models import (
    Model,
    ModelConfig,
    batch_from_bundle,
    build_model,
    check_model_name,
    coerce_scalar,
    save_checkpoint,
    write_named_arrays,
)

__all__ = [
    "AdamConfig",
    "TrainConfig",
    "EpochRecord",
    "RunResult",
    "MultiSeedResult",
    "get_config_regression",
    "train_run",
    "multi_seed_run",
    "Adam",
    "clip_global_norm",
]

DEFAULT_SEEDS = (1111, 1112, 1113, 1114, 1115)

# Rows per eval-mode forward pass. A constant: its metrics equal a whole-split
# forward's bit for bit, which some small sizes (7) do not give.
EVAL_BATCH_SIZE = 256


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


@dataclass
class TrainConfig:
    """Full training recipe; supports dict-style overrides so shell and
    script callers can poke single keys (config["post_fusion_dim"] = 32)."""

    model: ModelConfig
    dataset_name: str = "unspecified"
    optimizer: AdamConfig = field(default_factory=AdamConfig)
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 8
    seeds: list[int] = field(default_factory=lambda: list(DEFAULT_SEEDS))
    grad_clip: float = 5.0

    def validate(self) -> None:
        opt = self.optimizer
        if not (math.isfinite(opt.lr) and opt.lr > 0):
            raise ValidationError(f"lr must be finite and > 0, got {opt.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(opt, name) < 1.0:
                raise ValidationError(f"{name} must be in [0, 1), got {getattr(opt, name)}")
        if not (math.isfinite(opt.eps) and opt.eps > 0):
            raise ValidationError(f"eps must be finite and > 0, got {opt.eps}")
        if not (math.isfinite(opt.weight_decay) and opt.weight_decay >= 0):
            raise ValidationError(f"weight_decay must be finite and >= 0, got {opt.weight_decay}")
        if not self.grad_clip >= 0:  # NaN or negative; 0 turns clipping off
            raise ValidationError(f"grad_clip must be >= 0 (0 turns clipping off), "
                                  f"got {self.grad_clip}")
        if self.patience < 1:
            raise ValidationError(f"patience must be >= 1, got {self.patience}")
        if not self.seeds:
            raise ValidationError("seeds must be non-empty")
        for i, s in enumerate(self.seeds):
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0:
                raise ValidationError(f"seeds must be non-negative integers, got {s!r}")
            if s in self.seeds[:i]:
                raise ValidationError(f"seeds must be distinct, got {s} twice")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValidationError("batch_size and max_epochs must be >= 1")

    # -- dict-style access -------------------------------------------------
    def _resolve(self, key: str):
        if "." in key:
            owner_name, attr = key.split(".", 1)
            owner = getattr(self, owner_name, None)
            if owner is None or not hasattr(owner, attr):
                raise KeyError(key)
            return owner, attr
        for owner in (self, self.model, self.optimizer):
            if any(f.name == key for f in fields(owner)):
                return owner, key
        raise KeyError(key)

    def __getitem__(self, key: str):
        owner, attr = self._resolve(key)
        return getattr(owner, attr)

    def __setitem__(self, key: str, value) -> None:
        owner, attr = self._resolve(key)
        current = getattr(owner, attr)
        if is_dataclass(current):
            raise TypeError(f"{key!r} is a config section; set its fields, e.g. {key}.<field>")
        if current is None or isinstance(current, (dict, list)):
            # None marks a field resolved from the bundle (feature_dims)
            expected = dict if current is None else type(current)
            if not isinstance(value, expected):
                raise TypeError(f"expected a {expected.__name__}")
            if isinstance(value, dict):  # modality -> size
                value = {m: coerce_scalar(0, d) for m, d in value.items()}
        else:
            value = coerce_scalar(current, value)
        setattr(owner, attr, value)

    def as_dict(self) -> dict:
        return asdict(self)


def get_config_regression(model_name: str, dataset_name: str = "mosi") -> TrainConfig:
    """Fully-populated, overridable default config for a registered model.

    The dataset name is advisory (it labels reports and keys future
    defaults); feature dims are resolved from the bundle at train time.
    """
    check_model_name(model_name)
    model = ModelConfig(model_name=model_name)
    return TrainConfig(model=model, dataset_name=dataset_name)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid: MetricReport

    def to_json(self) -> str:
        return json.dumps({"epoch": self.epoch, "train_loss": self.train_loss,
                           "valid": self.valid.as_dict()})


@dataclass
class RunResult:
    seed: int
    best_epoch: int
    test_metrics: MetricReport
    history: list[EpochRecord]
    checkpoint_path: str | None
    reps: dict[str, np.ndarray]
    run_dir: str | None


# Elements per in-place Adam pass. The step walks the flat arrays one chunk
# at a time, so the dozen ufunc passes stay in cache and the scratch stays
# small (on a 2-vCPU Xeon VM, tfn's step took 2.1 ms per batch against
# 3.3 ms with whole-array passes).
ADAM_CHUNK = 1 << 16

# float64's unit roundoff and smallest normal, for _clip_if_needed's bound
_U64 = 2.0 ** -53
_TINY64 = float(np.finfo(np.float64).tiny)


class Adam:
    """Adam with bias correction over a :class:`~msa_forge.autodiff.ParamSet`.

    ``m`` and ``v`` are flat arrays aligned with ``params.data``. The step
    updates them and the parameters in place, chunk by chunk, in the same
    operation order as the textbook expression, so it is bit for bit that
    expression.
    """

    def __init__(self, params: ad.ParamSet, config: AdamConfig):
        self.params = params
        self.config = config
        self.t = 0
        # the gradient store comes with the moments, before the first step's
        # activations: allocated amid them, it left the heap 0.6 MB higher
        params.grad
        self.m = np.zeros_like(params.data)
        self.v = np.zeros_like(params.data)
        self._scratch = np.empty((2, min(params.data.size, ADAM_CHUNK)), dtype=params.data.dtype)

    def step(self) -> None:
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        data, grad = self.params.data, self.params.grad
        for lo in range(0, data.size, ADAM_CHUNK):
            chunk = slice(lo, lo + ADAM_CHUNK)
            p, g, m, v = data[chunk], grad[chunk], self.m[chunk], self.v[chunk]
            a, b = self._scratch[0, :p.size], self._scratch[1, :p.size]
            if cfg.weight_decay:
                np.multiply(p, cfg.weight_decay, out=b)
                b += g
                g = b
            np.multiply(g, g, out=a)
            a *= 1.0 - cfg.beta2
            v *= cfg.beta2
            v += a
            np.multiply(g, 1.0 - cfg.beta1, out=a)
            m *= cfg.beta1
            m += a
            np.divide(m, bc1, out=a)
            a *= cfg.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += cfg.eps
            a /= b
            p -= a


def clip_global_norm(params: ad.ParamSet, max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most
    max_norm. The norm sums per parameter in float64: the flat gradient
    is squared once, and each parameter's slice is summed pairwise and
    added in declaration order."""
    grad = params.grad
    squares = np.square(grad, dtype=np.float64)
    total = 0.0
    lo = 0
    for _, p in params.items():
        hi = lo + p.data.size
        total += float(np.add.reduce(squares[lo:hi]))
        lo = hi
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        grad *= max_norm / norm
    return norm


def _clip_if_needed(params: ad.ParamSet, max_norm: float) -> None:
    """``clip_global_norm(params, max_norm)``, skipped when a dot product in
    the gradients' own dtype proves that its float64 norm would not exceed
    ``max_norm``, so the gradients come out the same bytes either way.

    Bounds (Higham, Accuracy and Stability of Numerical Algorithms, §3.1):
    the dot product of n values with unit roundoff u is off the exact sum of
    squares s by at most γₙ·s, γₙ = n·u/(1 - n·u), in any summation order or
    BLAS thread split, as its terms are nonnegative. Each product and each
    addition that underflows loses less than the smallest normal number,
    which covers flush-to-zero too. clip_global_norm's float64 squares,
    their sums and its sqrt round at most as much again at u = 2⁻⁵³, and the
    2⁻⁴⁰ factors cover the rounding of the bound's own arithmetic. A NaN or
    inf dot product, n·u ≥ ½ or a norm near ``max_norm`` takes the exact path.
    """
    if not max_norm > 0:
        return
    grad = params.grad
    info = np.finfo(grad.dtype)
    n = grad.size
    nu = n * float(info.eps) / 2  # n·u, exact: u is a power of two
    if nu < 0.5:
        with np.errstate(over="ignore", invalid="ignore"):
            dot = float(np.dot(grad, grad))
        if math.isfinite(dot):
            gamma = nu / (1 - nu)
            # at least the exact sum of squares, then clip_global_norm's total
            squares = (dot + 2 * n * float(info.tiny) * (1 + gamma)) / (1 - gamma)
            nu64 = n * _U64
            total = ((squares * (1 + 2 * _U64) + 2 * n * _TINY64)
                     * (1 + nu64 / (1 - nu64)) * (1 + 2.0 ** -40))
            if math.sqrt(total) * (1 + 2.0 ** -40) <= max_norm:
                return
    clip_global_norm(params, max_norm)


def _batches(view: FeatureBundle, order: np.ndarray, batch_size: int, dtype):
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield batch_from_bundle(view, idx, dtype)


def _eval_outputs(model: Model, view: FeatureBundle, rows=None, perturb=None):
    """Eval-mode forward outputs for ``rows`` of ``view`` (all by default), one
    per batch_from_bundle batch of EVAL_BATCH_SIZE rows, which ``perturb`` may
    replace. Validation, eval, evaluate_tagged and predict all forward here."""
    for batch in _batches(view, np.arange(view.n) if rows is None else rows,
                          EVAL_BATCH_SIZE, model.dtype):
        if perturb is not None:
            batch = perturb(batch)  # rebound, so the clean arrays go before the forward
        with one_blas_thread():
            out = model.forward(batch, train=False)
        yield out


def _evaluate(model: Model, view: FeatureBundle, capture: bool = False):
    """Metrics, predictions and, with ``capture``, representations in the
    model's dtype, scored in batches of EVAL_BATCH_SIZE rows."""
    preds, reps = [], {}
    for out in _eval_outputs(model, view):
        preds.append(out.pred.data.astype(np.float64))
        if capture:
            uni = {f"uni.{m}": rep for m, rep in (out.uni_reps or {}).items()}
            for name, rep in {"fusion": out.fusion_rep, **uni}.items():
                reps.setdefault(name, []).append(rep.data)
    preds = np.concatenate(preds)
    metrics = compute_metrics(preds, view.labels(), strict_corr=False)
    return metrics, preds, {name: np.concatenate(chunks) for name, chunks in reps.items()}


def _diagnose_divergence(model: Model, epoch: int) -> TrainingDivergedError:
    for name, p in model.params.items():
        if not (np.all(np.isfinite(p.data)) and np.all(np.isfinite(p.grad))):
            return TrainingDivergedError(
                epoch, name, f"loss is non-finite at epoch {epoch}; "
                             f"first non-finite parameter/gradient: {name!r}")
    return TrainingDivergedError(
        epoch, None, f"loss is non-finite at epoch {epoch} (parameters still finite)")


def train_run(config: TrainConfig, bundle: FeatureBundle, seed: int,
              run_dir=None) -> RunResult:
    """One seeded training run: Adam on L1 (+ auxiliary) loss, early
    stopping on validation MAE, best-checkpoint restore, test evaluation,
    and representation capture. BLAS runs on one thread throughout, so the
    artifacts do not depend on the caller's BLAS thread count."""
    keep_freed_memory()
    with one_blas_thread():
        return _train_run(config, bundle, seed, run_dir)


def _train_run(config: TrainConfig, bundle: FeatureBundle, seed: int, run_dir) -> RunResult:
    config.validate()
    train = split_view(bundle, "train")
    valid = split_view(bundle, "valid")
    test = split_view(bundle, "test")

    model_cfg = config.model
    if model_cfg.feature_dims is None:
        model_cfg = replace(model_cfg,
                            feature_dims={m: b.feature_dim for m, b in bundle.blocks.items()})
    model_cfg = replace(model_cfg, seed=seed)
    model = build_model(model_cfg)
    if model.needs_unimodal_labels and not bundle.has_unimodal_labels():
        raise ModelError(
            f"model {model.name!r} trains on unimodal labels, but the bundle "
            "does not provide label_t/label_a/label_v for every sample")

    shuffle_rng = np.random.default_rng([seed, 1])
    optimizer = Adam(model.params, config.optimizer)

    history: list[EpochRecord] = []
    best_mae = math.inf
    best_epoch = 0
    best_state: np.ndarray | None = None
    bad_epochs = 0

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(train.n)
        total_abs = 0.0
        for batch in _batches(train, order, config.batch_size, model.dtype):
            with ad.Tape() as tape:
                out = model.forward(batch, train=True)
                loss = model.loss(out, batch)
            loss_val = float(loss.data)
            ad.backward(tape, loss, model.params)
            del tape, out, loss  # free the batch's activations before clip, Adam and eval
            if not math.isfinite(loss_val):
                raise _diagnose_divergence(model, epoch)
            _clip_if_needed(model.params, config.grad_clip)
            optimizer.step()
            total_abs += loss_val * batch.size
        train_loss = total_abs / train.n

        valid_metrics, _, _ = _evaluate(model, valid)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss, valid=valid_metrics))
        if valid_metrics.mae < best_mae:
            best_mae = valid_metrics.mae
            best_epoch = epoch
            best_state = model.params.data.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    if best_state is not None:
        model.params.data[...] = best_state
    test_metrics, test_preds, reps = _evaluate(model, test, capture=True)
    reps["pred"] = test_preds.astype(np.float32)

    checkpoint_path = None
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_dict = config.as_dict()
        cfg_dict["model"] = asdict(model.config)  # as built: the seed and bundle's dims
        cfg_dict["seed"] = seed
        (run_dir / "config.json").write_text(json.dumps(cfg_dict, indent=2) + "\n",
                                             encoding="utf-8")
        with open(run_dir / "history.jsonl", "w", encoding="utf-8") as fh:
            for rec in history:
                fh.write(rec.to_json() + "\n")
        checkpoint_path = str(run_dir / "checkpoint")
        save_checkpoint(model, checkpoint_path, extractors=bundle.manifest.extractors)
        write_named_arrays(run_dir / "reps.bin", reps)

    return RunResult(seed=seed, best_epoch=best_epoch, test_metrics=test_metrics,
                     history=history, checkpoint_path=checkpoint_path, reps=reps,
                     run_dir=str(run_dir) if run_dir is not None else None)


@dataclass
class MultiSeedResult:
    model_name: str
    dataset_name: str
    seeds: list[int]
    per_seed: list[RunResult]
    metrics_mean: dict[str, float]
    metrics_std: dict[str, float]
    run_dir: str | None

    def aggregate_dict(self) -> dict:
        per_seed_metrics = {
            key: [getattr(r.test_metrics, key) for r in self.per_seed]
            for key in METRIC_KEYS
        }
        def clean(x):
            return None if x is None or not math.isfinite(x) else x
        return {
            "model": self.model_name,
            "dataset": self.dataset_name,
            "seeds": self.seeds,
            "metrics": {
                key: {
                    "mean": clean(self.metrics_mean[key]),
                    "std": clean(self.metrics_std[key]),
                    "per_seed": [clean(v) for v in per_seed_metrics[key]],
                }
                for key in METRIC_KEYS
            },
        }


def _timestamp_dir(root: Path, model_name: str) -> Path:
    base = root / model_name / time.strftime("%Y%m%d-%H%M%S")
    candidate = base
    suffix = 1
    while candidate.exists():
        suffix += 1
        candidate = Path(f"{base}-{suffix}")
    return candidate


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _train_seeds(config: TrainConfig, bundle: FeatureBundle, runs: list) -> list[RunResult]:
    """Train each ``(seed, run_dir)`` of ``runs`` in slot ``i % slots``, slot 0
    in this process and the others in worker processes, and return the
    results in ``runs`` order; raise the lowest-index failure."""
    slots = min(len(runs), _usable_cpus())
    helpers = []
    if slots > 1:
        from . import _worker
        helpers = _worker.workers(slots - 1)
    outcomes = [None] * len(runs)
    try:
        for k, helper in enumerate(helpers, 1):
            try:
                helper.submit(_serve_seeds, config, bundle, runs[k::slots])
            except _worker.WorkerExited as exc:
                raise MsaForgeError(f"the worker process for seed {runs[k][0]} has exited "
                                    f"(code {exc.args[0]})") from None
        for i in range(0, len(runs), slots):
            seed, run_dir = runs[i]
            try:
                outcomes[i] = (True, train_run(config, bundle, seed, run_dir=run_dir))
            except Exception as exc:
                outcomes[i] = (False, exc)
                break
        for k, helper in enumerate(helpers, 1):
            outcomes[k::slots] = _collect_seeds(helper, runs[k::slots])
    except BaseException:
        for helper in helpers:  # partway through an exchange: unusable for the next run
            helper.kill()
        raise
    for outcome in outcomes:
        if outcome is not None and not outcome[0]:
            raise outcome[1]
    return [result for _, result in outcomes]


def _serve_seeds(exchange, config: TrainConfig, bundle: FeatureBundle, runs: list) -> None:
    """A worker's side of _train_seeds: send each seed as it starts training
    it, stop after the first seed that raises, then send the list of
    outcomes, ``(True, RunResult)`` or ``(False, exception)``, in ``runs``
    order. Outcomes come only at the end, so that the worker never waits on
    a caller still training its own seeds; the seed numbers are a few bytes
    each and name the seed a worker was training if it dies."""
    from ._worker import _picklable

    outcomes = []
    for seed, run_dir in runs:
        exchange.send(seed)
        try:
            outcomes.append((True, train_run(config, bundle, seed, run_dir=run_dir)))
        except Exception as exc:
            outcomes.append((False, _picklable(exc, f"seed {seed}")))
            break
    exchange.send(outcomes)


def _collect_seeds(helper, runs: list) -> list:
    """A worker's outcomes for ``runs``, in order, one per seed: ``(True,
    RunResult)``, ``(False, exception)``, or None for a seed not run (after a
    failure) or whose result died with the worker. A worker that dies gives
    its seed a MsaForgeError that names it."""
    from ._worker import WorkerExited

    outcomes = [None] * len(runs)
    started = 0
    try:
        while not isinstance(msg := helper.receive(), list):
            started = [seed for seed, _ in runs].index(msg)
    except WorkerExited as exc:
        outcomes[started] = (False, MsaForgeError(
            f"the worker process training seed {runs[started][0]} exited "
            f"with code {exc.args[0]} before returning its result"))
        return outcomes
    outcomes[:len(msg)] = msg
    return outcomes


def multi_seed_run(config: TrainConfig, bundle: FeatureBundle,
                   out_root=None, run_dir=None) -> MultiSeedResult:
    """Run every configured seed and aggregate per-metric mean/std.

    Seeds train side by side in ``min(len(seeds), CPUs)`` slots, the CPUs
    being those this process may run on (its affinity where the platform
    reports one). Slot 0 is this process; each other slot is a worker
    process (:mod:`msa_forge._worker`), started on the first run that needs
    it and kept until this interpreter exits. Seed ``i`` trains in slot
    ``i % slots``. BLAS runs one thread in every slot, so a seed writes the
    same bytes in any slot, and results, run directories and
    ``aggregate.json`` come in seed order. To train the seeds one after
    another in this process, restrict it to one CPU (``taskset -c 0``).

    A slot starts no further seed after one fails. The failure of the
    lowest-index failing seed is raised with its own class, and completed
    run directories stay on disk.
    """
    config.validate()
    if run_dir is not None:
        parent = Path(run_dir)
    elif out_root is not None:
        parent = _timestamp_dir(Path(out_root), config.model.model_name)
    else:
        parent = None
    if parent is not None:
        parent.mkdir(parents=True, exist_ok=True)

    seeds = list(config.seeds)
    results = _train_seeds(config, bundle, [
        (seed, None if parent is None else parent / f"seed_{seed}") for seed in seeds])

    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for key in METRIC_KEYS:
        vals = np.array([getattr(r.test_metrics, key) for r in results], dtype=np.float64)
        mean[key] = float(vals.mean())
        std[key] = float(vals.std())

    agg = MultiSeedResult(
        model_name=config.model.model_name,
        dataset_name=config.dataset_name,
        seeds=seeds,
        per_seed=results,
        metrics_mean=mean,
        metrics_std=std,
        run_dir=str(parent) if parent is not None else None,
    )
    if parent is not None:
        (parent / "aggregate.json").write_text(
            json.dumps(agg.aggregate_dict(), indent=2) + "\n", encoding="utf-8")
    return agg
