"""Generalization-ability testing: perturbation generators for the noise
and missing conditions plus tag-stratified evaluation.

Noise is additive zero-mean Gaussian on a modality's valid (unpadded)
frames scaled per sample to a target SNR, drawn per sample from an RNG
keyed on (seed, sample id), so a sample gets the same noise in a bundle
and in any batch; text-side token corruption lives in
extractors.corrupt_tokens since it acts before embedding. A missing
modality in a batch has zeroed features and an all-false mask (a bundle
keeps its lengths), so models must degrade gracefully rather than crash.
Easy/common/difficult rows are not synthesized but read from instance_type tags.

The tag-stratified report carries both Avg conventions: the unweighted
mean over type rows and the sample-weighted mean (the default).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .analysis import _render_table, compute_metrics, require_finite_rows
from .bundle import INSTANCE_TYPES, FeatureBundle, ModalityBlock, _number, _typed
from .errors import ValidationError
from .models import Batch, ModalityInput, Model
from .trainer import _eval_outputs

__all__ = [
    "PerturbationSpec",
    "TypeRow",
    "TaggedEvalReport",
    "add_feature_noise",
    "drop_modality",
    "apply_spec_to_bundle",
    "evaluate_tagged",
    "render_tagged_reports",
]

log = logging.getLogger(__name__)

NO_NOISE = math.inf  # snr_db sentinel: no-noise mode
_F32_OVERFLOW = 2.0 ** 128 - 2.0 ** 103  # the least magnitude that casts to float32 inf


@dataclass
class PerturbationSpec:
    """One robustness transformation: Gaussian feature noise at a target
    SNR or a dropped (zeroed + masked) modality."""

    kind: str                   # "feature_noise" | "modality_missing"
    modality: str
    snr_db: float | None = None
    seed: int = 0

    def validate(self, bundle_modalities) -> None:
        if self.kind not in ("feature_noise", "modality_missing"):
            raise ValidationError(f"unknown perturbation kind {self.kind!r}")
        if self.modality not in bundle_modalities:
            raise ValidationError(
                f"perturbation targets {self.modality!r}, which is not in the bundle")
        if self.kind == "feature_noise":
            if self.snr_db is None:
                raise ValidationError("feature_noise needs a finite snr_db (or +inf for none)")
            _check_snr_db(self.snr_db)
        if self.seed < 0:
            raise ValidationError(f"perturbation seed must be >= 0, got {self.seed}")

    @property
    def instance_type(self) -> str:
        return "noise" if self.kind == "feature_noise" else "missing"


def _check_snr_db(snr_db: float) -> None:
    """Reject an snr_db other than +inf (no noise) whose power ratio
    10 ** (snr_db / 10) is NaN, 0 or not finite: about -3233 dB or less, or
    3082 dB or more. No noise scale can be drawn from such a ratio."""
    if snr_db == NO_NOISE:
        return
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValidationError(f"snr_db {snr_db} has no finite, nonzero power ratio "
                              "10 ** (snr_db / 10); give +inf for no noise")


def _noisy_sample(frames: np.ndarray, snr_db: float, seed: int, sample_id) -> np.ndarray:
    """One sample's valid (frames, dim) slice plus Gaussian noise at the
    target SNR, drawn from an RNG keyed on (seed, sample id). The id enters
    through a digest because Python's hash() of a str changes per process.
    Noise that takes a frame past float32's range raises a ValidationError."""
    power = float(np.mean(frames.astype(np.float64) ** 2))
    if power == 0.0:
        log.warning("sample %s: all-zero features, SNR undefined; left unchanged", sample_id)
        return frames
    digest = hashlib.sha256(str(sample_id).encode("utf-8")).digest()
    rng = np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])
    sigma = math.sqrt(power / (10.0 ** (snr_db / 10.0)))
    noise = rng.normal(0.0, sigma, size=frames.shape)
    noisy = frames.astype(np.float64) + noise
    if not np.abs(noisy).max() < _F32_OVERFLOW:  # also false for NaN
        raise ValidationError(f"snr_db {snr_db}: the noise takes sample {sample_id}'s "
                              "features past the float32 range")
    return noisy.astype(np.float32)


def _add_noise_rows(data: np.ndarray, mask: np.ndarray, snr_db: float, seed: int, ids) -> None:
    """Noise on each row's valid frames of (N, T, d) ``data``, in place. Row
    i is keyed on ids[i] (default: i); a row with no valid frame is left alone."""
    for i, sid in enumerate(range(len(data)) if ids is None else ids):
        valid = mask[i]
        if valid.any():
            data[i, valid] = _noisy_sample(data[i, valid], snr_db, seed, sid)


def add_feature_noise(block: ModalityBlock, snr_db: float, seed: int,
                      ids=None) -> ModalityBlock:
    """New block with per-sample Gaussian noise on unpadded frames such
    that 10*log10(signal_power / noise_power) == snr_db. ``ids`` key each
    sample's noise (default: the row index). Padding stays zero; snr_db ==
    +inf is the identity; all-zero samples are skipped with a warning. An
    snr_db that yields no finite noise, or float32 frames that are not
    finite, is a ValidationError."""
    _check_snr_db(snr_db)
    data = block.data.copy()
    if snr_db != NO_NOISE:
        _add_noise_rows(data, block.mask(), snr_db, seed, ids)
    return ModalityBlock(feature_dim=block.feature_dim, max_len=block.max_len,
                         data=data, lengths=block.lengths.copy())


def drop_modality(batch: Batch, modality: str) -> Batch:
    """The batch with the modality's features zeroed and its mask all-false;
    idempotent. The other modalities' arrays, the labels and the ids are
    shared, not copied: no model writes to its inputs. Dropping the last
    modality that still has any valid frames is an error."""
    if modality not in batch.modalities:
        raise ValidationError(f"batch has no modality {modality!r}")
    others_valid = any(m != modality and v.mask.any()
                       for m, v in batch.modalities.items())
    if not others_valid:
        raise ValidationError(
            f"cannot drop {modality!r}: no other modality has valid frames "
            "(model input would be empty)")
    v = batch.modalities[modality]
    dropped = ModalityInput(data=np.zeros_like(v.data), mask=np.zeros_like(v.mask))
    return replace(batch, modalities={**batch.modalities, modality: dropped})


def perturb_batch(batch: Batch, spec: PerturbationSpec) -> Batch:
    """The batch under the spec; only the target modality is new, as in
    drop_modality. Noise is keyed on ``batch.ids`` (default: the row index),
    as in add_feature_noise."""
    spec.validate(batch.modalities)
    if spec.kind == "modality_missing":
        return drop_modality(batch, spec.modality)
    target = batch.modalities[spec.modality]
    data = target.data.copy()
    if spec.snr_db != NO_NOISE:
        _add_noise_rows(data, target.mask, spec.snr_db, spec.seed, batch.ids)
    noisy = ModalityInput(data=data, mask=target.mask)
    return replace(batch, modalities={**batch.modalities, spec.modality: noisy})


def apply_spec_to_bundle(bundle: FeatureBundle, spec: PerturbationSpec) -> FeatureBundle:
    """Bundle-level perturbation for persisting a stressed dataset.

    Noise perturbs a copy of the target block; missing zeroes the target
    block's features (lengths stay, since blocks cannot have zero-length
    samples; the strict masked variant applies at batch level). The other
    blocks are shared with ``bundle``. Samples are retagged with the
    perturbation's instance type; labels are never altered.
    """
    spec.validate(bundle.blocks)
    block = bundle.blocks[spec.modality]
    if spec.kind == "feature_noise":
        block = add_feature_noise(block, spec.snr_db, spec.seed, bundle.ids)
    else:
        block = ModalityBlock(block.feature_dim, block.max_len,
                              np.zeros_like(block.data), block.lengths.copy())
    blocks = {**bundle.blocks, spec.modality: block}  # the others are shared, not copied
    manifest = replace(
        bundle.manifest,
        samples=[replace(s, instance_type=spec.instance_type)
                 for s in bundle.manifest.samples],
    )
    return FeatureBundle(manifest=manifest, blocks=blocks)


# ---------------------------------------------------------------------------
# tag-stratified evaluation
# ---------------------------------------------------------------------------

@dataclass
class TypeRow:
    acc2: float
    f1: float
    n: int


@dataclass
class TaggedEvalReport:
    """Per-instance-type Acc-2/F1 with both Avg conventions and an
    optional per-scenario breakdown."""

    rows: dict[str, TypeRow]
    avg_by_type: TypeRow | None
    avg_by_sample: TypeRow | None
    scenarios: dict[str, TypeRow] = field(default_factory=dict)
    missing_types: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return sum(row.n for row in self.rows.values())

    def as_dict(self) -> dict:
        def row_dict(row):
            return None if row is None else {"acc2": row.acc2, "f1": row.f1, "n": row.n}
        return {
            "rows": {t: row_dict(r) for t, r in self.rows.items()},
            "avg_by_type": row_dict(self.avg_by_type),
            "avg_by_sample": row_dict(self.avg_by_sample),
            "scenarios": {s: row_dict(r) for s, r in self.scenarios.items()},
            "missing_types": list(self.missing_types),
        }


def tagged_report_from_dict(doc: Mapping) -> TaggedEvalReport:
    """Inverse of TaggedEvalReport.as_dict (for report rendering from disk)."""
    def row(entry):
        return None if entry is None else TypeRow(acc2=_number(entry["acc2"]),
                                                  f1=_number(entry["f1"]),
                                                  n=_typed(entry["n"], int))
    return TaggedEvalReport(
        rows={t: row(r) for t, r in doc["rows"].items()},
        avg_by_type=row(doc.get("avg_by_type")),
        avg_by_sample=row(doc.get("avg_by_sample")),
        scenarios={s: row(r) for s, r in doc.get("scenarios", {}).items()},
        missing_types=tuple(doc.get("missing_types", ())),
    )


def _predict(model: Model, bundle: FeatureBundle, idx: np.ndarray | None = None,
             spec: PerturbationSpec | None = None) -> np.ndarray:
    """Eval-mode predictions for samples ``idx`` (default all), perturbed by ``spec``."""
    perturb = None if spec is None else (lambda batch: perturb_batch(batch, spec))
    with np.errstate(over="ignore", invalid="ignore"):  # evaluate_tagged checks the rows
        return np.concatenate([out.pred.data.astype(np.float64)
                               for out in _eval_outputs(model, bundle, idx, perturb)])


def _type_row(preds, labels) -> TypeRow:
    rep = compute_metrics(np.asarray(preds), np.asarray(labels), strict_corr=False)
    return TypeRow(acc2=rep.acc2, f1=rep.f1, n=rep.n)


def evaluate_tagged(model: Model, bundle: FeatureBundle,
                    specs: Sequence[PerturbationSpec] | None = None,
                    clean_preds: np.ndarray | None = None) -> TaggedEvalReport:
    """Type-stratified evaluation.

    Samples with instance_type tags are scored per tag on clean features.
    Each spec synthesizes a noise/missing variant of every clean sample
    (instance_type not in {noise, missing}) and contributes to that type's
    row. Without tags, specs must be given. A type with no samples is
    reported missing and excluded from the type-mean Avg. It predicts
    through the trainer's eval pass, as ``eval`` does, in batches of
    EVAL_BATCH_SIZE rows; rows are scored with compute_metrics' defaults
    (non-negative Acc-2, weighted F1).
    ``clean_preds``, the model's eval-mode predictions for every sample in
    bundle order (as ``trainer._evaluate`` returns them), stand in for the
    clean pass.
    """
    if bundle.n < 2:
        raise ValidationError("need at least 2 samples to evaluate")
    tags = [s.instance_type for s in bundle.manifest.samples]
    if specs is None and all(t is None for t in tags):
        raise ValidationError(
            "samples carry no instance_type tags and no perturbation specs were given")

    labels = bundle.labels()
    per_type: dict[str, tuple[list, list]] = {t: ([], []) for t in INSTANCE_TYPES}

    # clean pass over everything (tag rows + scenario breakdown)
    if clean_preds is None:
        clean_preds = _predict(model, bundle)
    elif np.shape(clean_preds) != (bundle.n,):
        raise ValidationError(
            f"clean_preds has shape {np.shape(clean_preds)}, expected ({bundle.n},)")
    require_finite_rows("clean features", clean_preds)
    for i, tag in enumerate(tags):
        if tag is not None:
            per_type[tag][0].append(clean_preds[i])
            per_type[tag][1].append(labels[i])

    # synthesized variants from clean samples
    if specs:
        clean_idx = np.array([i for i, t in enumerate(tags)
                              if t not in ("noise", "missing")], dtype=np.int64)
        for spec in specs:
            spec.validate(bundle.blocks)
            if clean_idx.size == 0:
                continue
            preds = _predict(model, bundle, clean_idx, spec)
            noise = f" at snr_db {spec.snr_db}" if spec.kind == "feature_noise" else ""
            require_finite_rows(f"{spec.kind} on {spec.modality}{noise} (seed {spec.seed})", preds)
            per_type[spec.instance_type][0].extend(preds)
            per_type[spec.instance_type][1].extend(labels[clean_idx])

    rows = {t: _type_row(*per_type[t]) for t in INSTANCE_TYPES if len(per_type[t][0]) >= 2}
    if not rows:
        raise ValidationError("no instance type ended up with >= 2 samples")
    avg_by_type = TypeRow(
        acc2=float(np.mean([r.acc2 for r in rows.values()])),
        f1=float(np.mean([r.f1 for r in rows.values()])),
        n=sum(r.n for r in rows.values()),
    )
    total = avg_by_type.n
    avg_by_sample = TypeRow(
        acc2=sum(r.acc2 * r.n for r in rows.values()) / total,
        f1=sum(r.f1 * r.n for r in rows.values()) / total,
        n=total,
    )

    scenarios: dict[str, TypeRow] = {}
    scen_tags = [s.scenario for s in bundle.manifest.samples]
    for scen in sorted({s for s in scen_tags if s is not None}):
        idx = [i for i, s in enumerate(scen_tags) if s == scen]
        if len(idx) >= 2:
            scenarios[scen] = _type_row(clean_preds[idx], labels[idx])

    return TaggedEvalReport(rows=rows, avg_by_type=avg_by_type,
                            avg_by_sample=avg_by_sample, scenarios=scenarios,
                            missing_types=tuple(t for t in INSTANCE_TYPES if t not in rows))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_TYPE_LABELS = {"easy": "Easy", "common": "Common", "difficult": "Difficult",
                "noise": "Noise", "missing": "Missing"}


def _cell(row: TypeRow | None) -> str:
    if row is None:
        return "n/a"
    return f"{row.acc2 * 100:.1f} / {row.f1 * 100:.1f}"


def render_tagged_reports(reports: Mapping[str, TaggedEvalReport],
                          fmt: str = "markdown") -> str:
    """Robustness grid: rows Easy/Common/Difficult/Noise/Missing and both
    Avg rows, sample-weighted and type-mean, one "Acc-2 / F1" column per
    model (percentages, one decimal).
    """
    if not reports:
        raise ValidationError("empty reports map")
    models = list(reports)
    table: list[list[str]] = []
    any_missing = False
    for t in INSTANCE_TYPES:
        row = [_TYPE_LABELS[t]]
        for m in models:
            cell = _cell(reports[m].rows.get(t))
            any_missing |= cell == "n/a"
            row.append(cell)
        table.append(row)
    table.append(["Avg (sample-weighted)"] + [_cell(reports[m].avg_by_sample) for m in models])
    table.append(["Avg (type-mean)"] + [_cell(reports[m].avg_by_type) for m in models])

    if fmt == "json":
        return json.dumps({m: reports[m].as_dict() for m in models}, indent=2)
    header = ["Types"] + [f"{m} Acc-2 / F1" for m in models]
    note = "n/a: type with no samples, excluded from the type-mean Avg." if any_missing else None
    return _render_table(header, table, fmt, note)
