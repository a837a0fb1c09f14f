"""Per-layer metrics from the traced run.

Every figure describes one set-up followed by one repetition of the
workload: set-up spans count once, repetition spans are averaged over the
traced repetitions. Times named after a function are inclusive (a span
nested in a span of the same name counts once); ``<module>.self_s`` is
the module's self time. Counts are exact and repeat between runs of the
same seed.
"""

from __future__ import annotations

import statistics

from .tracing import MODULES, Span, module_self_times

OPS = ("add", "sub", "mul", "matmul", "concat", "slice", "reshape", "transpose",
       "sigmoid", "tanh", "relu", "softmax", "dropout", "sum", "mean", "masked_mean",
       "l1_loss", "mse_loss")
MODEL_NAMES = ("lf_dnn", "lmf", "tfn", "misa", "mtfn", "ef_lstm", "mult", "mfn")
CLI_COMMANDS = ("extract", "train", "eval", "predict", "perturb", "report")

# metric name -> span name whose inclusive time it reports
TIMES = {
    "autodiff.backward_s": "autodiff.backward",
    "models.forward_train_s": "models.forward_train",
    "models.forward_eval_s": "models.forward_eval",
    "models.batch_s": "models.batch",
    "models.checkpoint_save_s": "models.checkpoint_save",
    "models.checkpoint_load_s": "models.checkpoint_load",
    "trainer.clip_s": "trainer.clip",
    "trainer.adam_s": "trainer.adam",
    "extractors.read_wav_s": "extractors.read_wav",
    "extractors.stft_s": "extractors.stft",
    "extractors.mfcc_s": "extractors.mfcc",
    "extractors.embed_s": "extractors.embed",
    "extractors.csv_s": "extractors.csv",
    "bundle.write_s": "bundle.write",
    "bundle.read_s": "bundle.read",
    "robustness.evaluate_tagged_s": "robustness.evaluate_tagged",
    "robustness.perturb_batch_s": "robustness.perturb_batch",
    "robustness.apply_spec_s": "robustness.apply_spec",
    "analysis.metrics_s": "analysis.metrics",
    "analysis.pca_s": "analysis.pca",
    "synthetic.make_s": "synthetic.make",
    **{f"cli.{c}_s": f"cli.{c}" for c in CLI_COMMANDS},
}

COUNTS = ("models.batch_calls", "trainer.steps", "trainer.epochs", "extractors.clips",
          "extractors.failed", "bundle.bytes_written", "bundle.bytes_read",
          "robustness.perturbed_samples", "cli.nonzero_exits")

UNITS = {
    **{name: "s" for name in TIMES},
    **{f"{m}.self_s": "s" for m in MODULES},
    **{name: "count" for name in COUNTS},
    "bundle.bytes_written": "bytes",
    "bundle.bytes_read": "bytes",
    "trainer.artifacts_s": "s",
    "autodiff.tape_records_per_step": "records/step",
    **{f"autodiff.op.{op}": "count" for op in OPS},
    **{f"models.{m}.step_ms": "ms" for m in MODEL_NAMES},
    **{f"models.{m}.params": "count" for m in MODEL_NAMES},
    "stage.train_samples_per_s": "1/s",
    "stage.eval_samples_per_s": "1/s",
    "stage.extract_clips_per_s": "1/s",
    "stage.predict_ms_p50": "ms",
    "stage.predict_ms_p90": "ms",
    "stage.predict_calls": "count",
    "overhead.setup_s": "s",
    "overhead.job_s": "s",
    "overhead.samples_per_s": "1/s",
    "overhead.peak_rss_mb": "MB",
}


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out


def artifact_time(spans: list[Span]) -> float:
    """Time a run spends writing its run directory: the tail of each
    ``train_run`` after its last evaluation, and the tail of each
    ``multi_seed_run`` after its last seed."""
    last_child_end: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0 and (spans[s.parent].name, s.name) in (
                ("trainer.train_run", "trainer.evaluate"),
                ("trainer.multi_seed_run", "trainer.train_run")):
            last_child_end[s.parent] = max(last_child_end.get(s.parent, s.end), s.end)
    return sum(spans[i].end - end for i, end in last_child_end.items())


def step_times_ms(spans: list[Span]) -> dict[str, list[float]]:
    """Per model: from the start of a training forward pass to the end of
    the Adam step that follows it (forward + loss + backward + clip + Adam)."""
    out: dict[str, list[float]] = {}
    forward_start = None
    for s in spans:
        if s.name == "models.forward_train" and (
                s.parent < 0 or spans[s.parent].name != "models.forward_train"):
            forward_start = s.start
        elif s.name == "trainer.adam" and forward_start is not None:
            p = s.parent
            while p >= 0 and spans[p].name != "trainer.train_run":
                p = spans[p].parent
            model = spans[p].tag if p >= 0 else "unknown"
            out.setdefault(model, []).append((s.end - forward_start) * 1e3)
            forward_start = None
    return out


def _one_setup_one_rep(setup_value: dict, rep_values: list[dict]) -> dict[str, float]:
    keys = set(setup_value).union(*rep_values)
    n = len(rep_values)
    return {k: setup_value.get(k, 0.0) + sum(r.get(k, 0.0) for r in rep_values) / n
            for k in keys}


def per_layer(setup_trace, rep_traces, gauges: dict) -> dict[str, float]:
    setup_spans, setup_counts = setup_trace
    rep_spans = [spans for spans, _ in rep_traces]
    times = _one_setup_one_rep(inclusive_times(setup_spans),
                               [inclusive_times(s) for s in rep_spans])
    selfs = _one_setup_one_rep(module_self_times(setup_spans),
                               [module_self_times(s) for s in rep_spans])
    counts = _one_setup_one_rep(dict(setup_counts), [dict(c) for _, c in rep_traces])
    artifacts = _one_setup_one_rep({"a": artifact_time(setup_spans)},
                                   [{"a": artifact_time(s)} for s in rep_spans])["a"]
    steps: dict[str, list[float]] = {}
    for spans in [setup_spans] + rep_spans:
        for model, ms in step_times_ms(spans).items():
            steps.setdefault(model, []).extend(ms)

    metrics = {name: times.get(span, 0.0) for name, span in TIMES.items()}
    metrics.update({f"{m}.self_s": selfs[m] for m in MODULES})
    metrics.update({name: counts.get(name, 0.0) for name in COUNTS})
    metrics["trainer.artifacts_s"] = artifacts
    metrics["autodiff.tape_records_per_step"] = (
        counts.get("autodiff.tape_records", 0.0) / counts["trainer.steps"]
        if counts.get("trainer.steps") else 0.0)
    metrics.update({f"autodiff.op.{op}": counts.get(f"autodiff.op.{op}", 0.0) for op in OPS})
    for m in MODEL_NAMES:
        metrics[f"models.{m}.step_ms"] = statistics.median(steps[m]) if m in steps else 0.0
        metrics[f"models.{m}.params"] = float(gauges.get(f"models.{m}.params", 0))
    return metrics
