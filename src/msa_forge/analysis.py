"""Evaluation metrics, PCA projection of representations, and benchmark
report rendering.

Binary accuracy and F1 derive from the continuous predictions by
thresholding: the default convention is negative (< 0) vs non-negative
(>= 0) applied identically to predictions and labels; an alternative mode
excludes exact-zero labels and splits negative vs positive. F1 averaging
defaults to support-weighted over the two classes, with a positive-class
mode available. MAE and Pearson correlation always use the raw
continuous values.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ._csvtext import csv_text
from .errors import MetricError, ValidationError, parsing

__all__ = [
    "MetricReport",
    "ProjectionResult",
    "compute_metrics",
    "require_finite_rows",
    "pca_project",
    "make_benchmark_report",
    "export_curves",
    "export_projection_csv",
]

METRIC_KEYS = ("acc2", "f1", "mae", "corr")


@dataclass
class MetricReport:
    acc2: float
    f1: float
    mae: float
    corr: float
    n: int

    def as_dict(self) -> dict:
        corr = self.corr if math.isfinite(self.corr) else None
        return {"acc2": self.acc2, "f1": self.f1, "mae": self.mae, "corr": corr, "n": self.n}


def _binarize(preds: np.ndarray, labels: np.ndarray, mode: str):
    if mode == "non_negative":
        return preds >= 0, labels >= 0
    if mode == "exclude_zero":
        keep = labels != 0
        if not keep.any():
            raise MetricError("exclude_zero binarization removed every sample")
        return (preds[keep] > 0), (labels[keep] > 0)
    raise ValidationError(f"unknown binarization mode {mode!r}")


def _f1_for_class(pred_cls: np.ndarray, label_cls: np.ndarray, positive: bool) -> float:
    tp = int(np.sum((pred_cls == positive) & (label_cls == positive)))
    fp = int(np.sum((pred_cls == positive) & (label_cls != positive)))
    fn = int(np.sum((pred_cls != positive) & (label_cls == positive)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def compute_metrics(preds, labels, *, binarize: str = "non_negative",
                    f1_average: str = "weighted",
                    strict_corr: bool = True) -> MetricReport:
    """Acc-2, F1, MAE, and Pearson correlation for continuous predictions.

    MAE and correlation are computed on the raw vectors; classification
    metrics use the chosen binarization. With ``strict_corr`` a
    zero-variance input raises MetricError; otherwise corr is NaN.
    """
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValidationError(
            f"preds {preds.shape} and labels {labels.shape} must be equal-length vectors")
    n = preds.size
    if n < 2:
        raise ValidationError(f"need at least 2 samples for metrics, got {n}")
    if f1_average not in ("weighted", "positive"):
        raise ValidationError(f"unknown f1_average {f1_average!r}")

    pred_cls, label_cls = _binarize(preds, labels, binarize)
    acc2 = float(np.mean(pred_cls == label_cls))

    if f1_average == "positive":
        f1 = _f1_for_class(pred_cls, label_cls, True)
    else:
        f1 = 0.0
        m = label_cls.size
        for positive in (False, True):
            support = int(np.sum(label_cls == positive))
            if support:
                f1 += (support / m) * _f1_for_class(pred_cls, label_cls, positive)

    mae = float(np.mean(np.abs(preds - labels)))

    pc = preds - preds.mean()
    lc = labels - labels.mean()
    denom = math.sqrt(float(np.sum(pc * pc)) * float(np.sum(lc * lc)))
    if denom == 0.0:
        if strict_corr:
            raise MetricError("correlation undefined: zero variance in predictions or labels")
        corr = float("nan")
    else:
        corr = float(np.sum(pc * lc)) / denom

    return MetricReport(acc2=acc2, f1=float(f1), mae=mae, corr=corr, n=n)


def require_finite_rows(what: str, preds, reps=()) -> None:
    """Raise MetricError when a row's prediction, or its row of any captured
    representation, is not finite (a forward that overflowed on huge
    features, say): no metric or projection of such rows means anything.
    ``what`` names the rows (a split, a perturbation) in the message."""
    bad = ~np.isfinite(np.asarray(preds))
    for rep in reps:
        bad |= ~np.isfinite(rep.reshape(len(rep), -1)).all(axis=1)
    if bad.any():
        raise MetricError(f"{what}: {int(bad.sum())} of {bad.size} rows have a non-finite "
                          "prediction or representation")


@dataclass
class ProjectionResult:
    components: np.ndarray          # (k, d) orthonormal rows
    projected: np.ndarray           # (N, k)
    explained_variance: np.ndarray  # (k,) non-increasing


def pca_project(reps: np.ndarray, k: int = 3) -> ProjectionResult:
    """Top-k principal directions of the mean-centered representations via
    SVD. Sign convention: each component's largest-magnitude entry is
    positive. Explained variance uses the sample (N-1) convention; one past
    float64's range reads inf. Reps that are non-finite or too large to
    center raise MetricError."""
    reps = np.asarray(reps, dtype=np.float64)
    if reps.ndim != 2:
        raise ValidationError(f"reps must be an N x d matrix, got shape {reps.shape}")
    n, d = reps.shape
    if n < k:
        raise ValidationError(f"need at least k={k} samples, got {n}")
    if d < k:
        raise ValidationError(f"need at least k={k} feature dims, got {d}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = reps - reps.mean(axis=0)
    if not np.isfinite(centered).all():
        raise MetricError("reps are non-finite or too large to center in float64")
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for i in range(k):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    with np.errstate(over="ignore"):  # past float64's range they read inf
        projected = centered @ components.T
        explained = (s[:k] ** 2) / max(n - 1, 1)
    return ProjectionResult(components=components, projected=projected,
                            explained_variance=explained)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _fmt_cell(metrics: Mapping | None, key: str) -> str:
    if metrics is None:
        return "-"
    val = metrics.get(key)
    if val is None or (isinstance(val, float) and not math.isfinite(val)):
        return "-"
    if key in ("acc2", "f1"):
        return f"{val * 100:.2f}"
    return f"{val:.3f}"


def _normalize_results(results) -> dict[str, dict[str, Mapping | None]]:
    norm: dict[str, dict[str, Mapping | None]] = {}
    for model, per_dataset in results.items():
        norm[model] = {}
        for ds, metrics in per_dataset.items():
            if metrics is None:
                norm[model][ds] = None
            elif isinstance(metrics, MetricReport):
                norm[model][ds] = metrics.as_dict()
            else:
                norm[model][ds] = dict(metrics)
    return norm


def make_benchmark_report(results: Mapping[str, Mapping[str, object]],
                          fmt: str = "markdown") -> str:
    """Benchmark grid: one row per model, Acc-2(%) / F1(%) / MAE / Corr
    columns per dataset tag. Percentages render with 2 decimals; missing
    entries render "-". ``fmt`` is markdown, csv, or json (json carries
    the raw values and round-trips)."""
    if not results:
        raise ValidationError("empty results map")
    norm = _normalize_results(results)
    datasets: list[str] = []
    for per_dataset in norm.values():
        for ds in per_dataset:
            if ds not in datasets:
                datasets.append(ds)

    if fmt == "json":
        return json.dumps(norm, indent=2)

    header = ["Model"]
    for ds in datasets:
        header += [f"{ds} Acc-2", f"{ds} F1", f"{ds} MAE", f"{ds} Corr"]
    rows = []
    for model, per_dataset in norm.items():
        row = [model]
        for ds in datasets:
            metrics = per_dataset.get(ds)
            row += [_fmt_cell(metrics, key) for key in METRIC_KEYS]
        rows.append(row)

    return _render_table(header, rows, fmt)


def _render_table(header: list[str], rows: list[list[str]], fmt: str,
                  footnote: str | None = None) -> str:
    """csv or markdown grid of preformatted cells; ``footnote`` ends a markdown table."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        if footnote:
            lines += ["", footnote]
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown report format {fmt!r}")


def export_curves(history_path, out_path=None) -> str:
    """Flatten a history.jsonl into plot-ready CSV: epoch, loss, acc2, f1.
    A malformed history raises ValidationError."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epoch", "loss", "acc2", "f1"])
    with parsing(history_path):
        for line in Path(history_path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            valid = rec.get("valid", {})
            writer.writerow([rec["epoch"], rec["train_loss"],
                             valid.get("acc2"), valid.get("f1")])
    text = buf.getvalue()
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text


def export_projection_csv(proj: ProjectionResult, ids, labels, preds,
                          out_path=None) -> str:
    """Projection coordinates with ids, labels, and predictions:
    id, x, y, z, label, pred. Numbers are written ``%.6g`` by
    :func:`_csvtext.csv_text` (missing coordinates as 0), rows by
    ``csv.writer``."""
    n = proj.projected.shape[0]
    if not (len(ids) == n and len(labels) == n and len(preds) == n):
        raise ValidationError("ids/labels/preds lengths disagree with the projection")
    numeric = np.zeros((n, 5))
    k = min(3, proj.projected.shape[1])
    numeric[:, :k] = proj.projected[:, :k]
    numeric[:, 3] = labels
    numeric[:, 4] = preds
    cells = [line.split(",") for line in csv_text(numeric).splitlines()]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "x", "y", "z", "label", "pred"])
    writer.writerows([[i, *row] for i, row in zip(ids, cells)])
    text = buf.getvalue()
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text
