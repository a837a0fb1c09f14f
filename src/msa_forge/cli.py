"""Command-line entry point tying the pipeline together.

Subcommands::

    extract   run feature extraction over a dataset directory -> bundle
    train     multi-seed training of a registered model on a bundle
    eval      metrics + PCA projection (and optionally a tag-stratified
              robustness report) for a checkpoint on a bundle
    predict   single-sample forward pass through the checkpoint's recorded
              extractors, with an STFT feature dump
    perturb   write a noise/missing-perturbed copy of a bundle
    report    render benchmark (table4) or robustness (table5) documents
              from run directories

Exit codes are stable per error class: 1 usage, 2 validation, 3 runtime.
Every subcommand is a thin adapter over the library; outputs are
byte-identical to direct library calls with the same arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._csvtext import write_csv
from ._heap import keep_freed_memory
from .analysis import (
    export_curves,
    export_projection_csv,
    make_benchmark_report,
    pca_project,
    require_finite_rows,
)
from .bundle import _number, read_bundle, read_json_object, split_view, write_bundle
from .errors import MsaForgeError, UsageError, ValidationError, parsing
from .extractors import (
    EmbeddingTable,
    ExtractorConfig,
    _clip_bundle,
    _extract_one,
    filled_params,
    resolve_config,
    run_dataset,
)
from .models import load_checkpoint
from .robustness import (
    PerturbationSpec,
    apply_spec_to_bundle,
    drop_modality,
    evaluate_tagged,
    render_tagged_reports,
    tagged_report_from_dict,
)
from .trainer import _eval_outputs, _evaluate, get_config_regression, multi_seed_run

__all__ = ["main", "cli_main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_FMT = {"md": "markdown", "csv": "csv", "json": "json"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 natively; we reserve 2 for validation
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        # before Python 3.13, argparse drops a "--" value (--seed=--) and passes []
        if action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="msa-forge",
                     description="Multimodal sentiment analysis benchmark toolkit")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("extract", help="run feature extraction into a bundle")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--labels", required=True, help="label CSV (id,split,label_m,...)")
    p.add_argument("--config", required=True,
                   help="JSON: {modality: {kind, params}} extractor choices")
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.add_argument("--dataset-name", default=None)
    p.add_argument("--label-range", default="-3,3",
                   help="lo,hi (use the = form for negative values: --label-range=-3,3)")
    p.add_argument("--lenient", type=float, default=None, metavar="FRAC",
                   help="tolerate up to FRAC failed samples (default: strict)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="multi-seed training run")
    p.add_argument("--bundle", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", default=None, help="dataset tag for reports")
    p.add_argument("--config", default=None, help="JSON file of config overrides")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override, repeatable (e.g. --set post_fusion_dim=32)")
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.add_argument("--out", default="runs", help="run root directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a bundle")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=["train", "valid", "test", "all"])
    p.add_argument("--tagged", action="store_true",
                   help="also write a tag-stratified robustness report")
    p.add_argument("--snr-db", type=float, default=None,
                   help="with --tagged: synthesize a noise row at this SNR")
    p.add_argument("--drop", default=None, metavar="MODALITY",
                   help="with --tagged: synthesize a missing row for this modality")
    p.add_argument("--target", default="audio", metavar="MODALITY",
                   help="modality targeted by --snr-db (default audio)")
    p.add_argument("--seed", type=int, default=0, help="perturbation seed")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="single-sample prediction with STFT dump")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample", default=None, help="audio input file (a WAV for stft/mfcc/hsf)")
    p.add_argument("--tokens", default=None, help="whitespace-separated tokens (glove)")
    p.add_argument("--embedding", default=None, help="embedding table file (glove)")
    p.add_argument("--visual-csv", default=None, help="per-frame visual feature CSV")
    p.add_argument("--config", default=None,
                   help="JSON: {modality: {kind, params}}; needed only when the checkpoint "
                        "records no extractors, and must agree with the record")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("perturb", help="write a perturbed copy of a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--target", default=None, metavar="MODALITY",
                   help="modality receiving the noise")
    p.add_argument("--drop", default=None, metavar="MODALITY")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("report", help="render benchmark/robustness tables")
    p.add_argument("--runs", required=True, help="run root to scan")
    p.add_argument("--style", required=True, choices=["table4", "table5"])
    p.add_argument("--format", default="md", choices=sorted(_FMT))
    p.add_argument("--out", default=None, help="file to write (default: stdout only)")
    p.set_defaults(func=_cmd_report)

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _read_json(path, flag: str) -> dict:
    try:
        return read_json_object(path)
    except ValueError as exc:
        raise ValidationError(f"{flag} {path} {exc}") from exc


def _read_extractor_configs(path) -> list[ExtractorConfig]:
    doc = _read_json(path, "--config")
    try:
        return [ExtractorConfig(modality=m, kind=entry["kind"], params=entry.get("params", {}))
                for m, entry in doc.items()]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValidationError(
            f"--config must map modality -> {{kind, params}}: {exc!r}") from exc


def _cmd_extract(args) -> int:
    configs = _read_extractor_configs(args.config)
    try:
        lo, hi = (float(x) for x in args.label_range.split(","))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
    except ValueError:
        raise UsageError(f"--label-range must be lo,hi with finite ends, "
                         f"got {args.label_range!r}") from None
    bundle = run_dataset(
        args.data, configs, args.labels,
        dataset_name=args.dataset_name,
        label_range=(lo, hi),
        max_failure_fraction=args.lenient or 0.0,
    )
    write_bundle(bundle, args.out)
    print(json.dumps({"bundle": args.out, "n": bundle.n,
                      "modalities": sorted(bundle.blocks)}))
    return EXIT_OK


def _parse_set(pairs: list[str]) -> list[tuple[str, object]]:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set needs KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.append((key, value))
    return out


def _cmd_train(args) -> int:
    bundle = read_bundle(args.bundle)
    dataset = args.dataset or bundle.manifest.dataset_name
    config = get_config_regression(args.model, dataset)
    overrides = _read_json(args.config, "--config") if args.config else {}
    for key, value in [*overrides.items(), *_parse_set(args.set)]:
        try:
            config[key] = value
        except KeyError:
            raise UsageError(f"unknown config key {key!r}") from None
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value {value!r} for config key {key!r}: {exc}") from None
    if args.seeds:
        try:
            config.seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            raise UsageError(f"--seeds must be comma-separated ints, got {args.seeds!r}") from None
    result = multi_seed_run(config, bundle, out_root=args.out)
    means = {key: m["mean"] for key, m in result.aggregate_dict()["metrics"].items()}
    print(json.dumps({"run_dir": result.run_dir, "seeds": result.seeds,
                      "metrics_mean": means}, allow_nan=False))
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, manifest = load_checkpoint(args.checkpoint)
    bundle = read_bundle(args.bundle)
    view = bundle if args.split == "all" else split_view(bundle, args.split)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise below
        metrics, preds, reps = _evaluate(model, view, capture=True)
    require_finite_rows(f"split {args.split!r}", preds, reps.values())
    (out_dir / "metrics.json").write_text(
        json.dumps({"model": manifest["model_name"], "split": args.split,
                    "metrics": metrics.as_dict()}, indent=2) + "\n", encoding="utf-8")

    fusion = reps["fusion"]
    proj = pca_project(fusion, k=min(3, view.n, fusion.shape[1]))
    export_projection_csv(proj, view.ids, view.labels(), preds,
                          out_dir / "projection.csv")

    history = Path(args.checkpoint).parent / "history.jsonl"
    if history.exists():
        export_curves(history, out_dir / "curves.csv")

    written = {"metrics": str(out_dir / "metrics.json"),
               "projection": str(out_dir / "projection.csv")}
    if args.tagged:
        specs = []
        if args.snr_db is not None:
            specs.append(PerturbationSpec("feature_noise", args.target,
                                          snr_db=args.snr_db, seed=args.seed))
        if args.drop:
            specs.append(PerturbationSpec("modality_missing", args.drop, seed=args.seed))
        report = evaluate_tagged(model, view, specs or None, clean_preds=preds)
        (out_dir / "tagged_report.json").write_text(
            json.dumps({"model": manifest["model_name"], "report": report.as_dict()},
                       indent=2) + "\n", encoding="utf-8")
        written["tagged_report"] = str(out_dir / "tagged_report.json")
    print(json.dumps({"metrics": metrics.as_dict(), "files": written}))
    return EXIT_OK


def _served(config: ExtractorConfig) -> tuple[str, dict]:
    """The kind and the params, defaults filled in, that predict's features
    depend on: all but glove's ``table``, as predict reads --embedding."""
    params = filled_params(config)
    if config.kind == "glove":
        del params["table"]
    return config.kind, params


def _predict_configs(config_path, recorded) -> dict[str, ExtractorConfig]:
    """Each modality's extractor: the checkpoint's record, which --config
    must agree with (the same ``_served`` kind and params), or --config for a
    checkpoint without a record."""
    given = None
    if config_path:
        given = {c.modality: resolve_config(c) for c in _read_extractor_configs(config_path)}
    if recorded is None:
        if given is None:
            raise ValidationError("checkpoint records no extractor config; pass --config")
        return given
    record = {m: resolve_config(ExtractorConfig(m, e["kind"], e["params"]))
              for m, e in recorded.items()}
    for m, cfg in (given or {}).items():
        want = record.get(m)
        if want is None or _served(want) != _served(cfg):
            raise ValidationError(
                f"--config for modality {m!r} ({cfg.kind}, {cfg.params}) disagrees with the "
                f"checkpoint's recorded extractor {recorded.get(m)}")
    return record


def _cmd_predict(args) -> int:
    model, manifest = load_checkpoint(args.checkpoint)
    inputs = {"audio": (args.sample, "--sample"), "vision": (args.visual_csv, "--visual-csv"),
              "text": ((args.tokens or "").split(), "--tokens")}
    given = [*inputs.items(), ("text", (args.embedding, "--embedding"))]
    unused = [flag for m, (source, flag) in given if source and m not in model.config.feature_dims]
    if unused:
        raise ValidationError(f"{', '.join(unused)} given, but the checkpoint has only the "
                              f"modalities {', '.join(model.modalities())}")
    configs = _predict_configs(args.config, manifest.get("extractors"))
    table = EmbeddingTable.load(args.embedding) if args.embedding else None
    features: dict[str, np.ndarray] = {}
    spec = perturb = None
    for m, dim in model.config.feature_dims.items():
        source, flag = inputs[m]
        if not source and m == "vision":  # one zero frame, dropped as a missing modality
            features[m] = np.zeros((1, dim))
            perturb = functools.partial(drop_modality, modality=m)
            continue
        if not source:
            raise ValidationError(f"checkpoint expects a {m} modality; pass {flag}")
        if m not in configs:
            raise ValidationError(f"--config has no extractor for modality {m!r}")
        seq, spectrum = _extract_one(configs[m], source, table)
        if seq.shape[1] != dim:
            raise ValidationError(f"{m} features have dim {seq.shape[1]}, checkpoint expects {dim}")
        features[m] = seq
        if spectrum is not None:
            spec = spectrum

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise below
        (output,) = _eval_outputs(model, _clip_bundle(features), perturb=perturb)
    pred, fusion = output.pred.data, output.fusion_rep.data
    require_finite_rows("the clip", pred, [fusion])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"pred": float(pred[0]), "fusion_rep_path": str(out_dir / "fusion_rep.csv"),
              "stft_path": None if spec is None else str(out_dir / "stft.csv")}
    if spec is not None:
        write_csv(out_dir / "stft.csv", spec)
    write_csv(out_dir / "fusion_rep.csv", fusion)
    (out_dir / "prediction.json").write_text(json.dumps(result, indent=2) + "\n",
                                             encoding="utf-8")
    print(json.dumps(result))
    return EXIT_OK


def _cmd_perturb(args) -> int:
    bundle = read_bundle(args.bundle)
    if (args.snr_db is None) == (args.drop is None):
        raise UsageError("pass exactly one of --snr-db (with --target) or --drop")
    if args.snr_db is not None:
        if not args.target:
            raise UsageError("--snr-db needs --target MODALITY")
        spec = PerturbationSpec("feature_noise", args.target, snr_db=args.snr_db,
                                seed=args.seed)
    else:
        spec = PerturbationSpec("modality_missing", args.drop, seed=args.seed)
    write_bundle(apply_spec_to_bundle(bundle, spec), args.out)
    print(json.dumps({"bundle": args.out, "kind": spec.kind, "modality": spec.modality}))
    return EXIT_OK


def _cmd_report(args) -> int:
    root = Path(args.runs)
    fmt = _FMT[args.format]
    if args.style == "table4":
        results: dict[str, dict[str, dict]] = {}
        for path in sorted(root.rglob("aggregate.json")):
            with parsing(path):
                doc = read_json_object(path)
                metrics = {key: _number(doc["metrics"][key]["mean"], optional=True)
                           for key in doc["metrics"]}
                results.setdefault(doc["model"], {})[doc["dataset"]] = metrics
        if not results:
            raise ValidationError(f"no aggregate.json found under {root}")
        text = make_benchmark_report(results, fmt=fmt)
    else:
        reports = {}
        for path in sorted(root.rglob("tagged_report.json")):
            with parsing(path):
                doc = read_json_object(path)
                reports[doc["model"]] = tagged_report_from_dict(doc["report"])
        if not reports:
            raise ValidationError(f"no tagged_report.json found under {root}")
        text = render_tagged_reports(reports, fmt=fmt)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def cli_main(argv) -> int:
    """Dispatch argv (no program name) and map errors onto exit codes."""
    keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MsaForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> int:
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
