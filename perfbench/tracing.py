"""Spans around the public functions of each ``msa_forge`` module.

The traced run replaces module and class attributes (for example
``msa_forge.trainer.clip_global_norm``) with wrappers that record a span
per call; ``msa_forge`` itself is not modified on disk. A function that
other modules imported by name (``from .models import batch_from_bundle``)
is replaced under every name that refers to it. Untraced runs install
nothing, and :meth:`Sites.touched` proves it by identity.

Self time of a span is its duration minus the part of its interval that
its direct child spans cover; a module's self time sums that over the
module's spans. Work done by the autodiff primitives (``add``, ``matmul``,
...) is not wrapped, to keep the tracing cost low: their forward time
lands in the self time of the caller (mostly ``models``) and their
backward time in ``autodiff.backward``.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MODULES = ("synthetic", "bundle", "extractors", "autodiff", "models", "trainer",
           "analysis", "robustness", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at the top
    tag: str | None = None


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        inner = covered(s.start, s.end, [(spans[c].start, spans[c].end) for c in children[i]])
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - inner
    return out


def module_self_times(spans: list[Span]) -> dict[str, float]:
    per_name = self_times(spans)
    return {m: sum(v for k, v in per_name.items() if k.split(".", 1)[0] == m)
            for m in MODULES}


def check_self_time_arithmetic() -> str | None:
    """Self times on a hand-built tree, worked out by hand; returns what
    went wrong, or None.

        cli.eval          [0, 10]
          models.fwd      [1, 4]
            autodiff.x    [2, 3]
          analysis.pca    [3.5, 6]   overlaps models.fwd by 0.5
          analysis.pca    [8, 12]    sticks out of its parent by 2
    """
    spans = [Span("cli.eval", 0.0, 10.0, -1),
             Span("models.fwd", 1.0, 4.0, 0),
             Span("autodiff.x", 2.0, 3.0, 1),
             Span("analysis.pca", 3.5, 6.0, 0),
             Span("analysis.pca", 8.0, 12.0, 0)]
    got = self_times(spans)
    # cli: 10 - |[1,6] u [8,10]| = 10 - 7;  models: 3 - 1;  pca: 2.5 + 4
    want = {"cli.eval": 3.0, "models.fwd": 2.0, "autodiff.x": 1.0, "analysis.pca": 6.5}
    if got != want:
        return f"self times {got}, want {want}"
    mods = module_self_times(spans)
    if (mods["cli"], mods["models"], mods["autodiff"], mods["analysis"]) != (3.0, 2.0, 1.0, 6.5):
        return f"module roll-up {mods}"
    return None


class Tracer:
    """In-memory span list plus exact counters and last-value gauges.
    Spans are timed with ``clock``."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str, tag: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent, tag))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("span closed out of order")

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() with spans still open")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _dir_bytes(path) -> int:
    root = Path(path)
    return sum(p.stat().st_size for p in root.iterdir() if p.is_file()) if root.is_dir() else 0


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count(key: str, amount=lambda args, kwargs, result: 1):
    """A note that adds ``amount(args, kwargs, result)`` to counter ``key``."""
    def note(t: Tracer, args, kwargs, result) -> None:
        t.counts[key] += amount(args, kwargs, result)
    return note


def _note_backward(t: Tracer, args, kwargs, result) -> None:
    records = args[0].records
    t.counts["autodiff.tape_records"] += len(records)
    for rec in records:
        t.counts[f"autodiff.op.{rec.op}"] += 1


def _note_build(t: Tracer, args, kwargs, model) -> None:
    t.gauges[f"models.{model.name}.params"] = model.params.num_values()


def _forward_name(args, kwargs) -> str:
    train = _arg(args, kwargs, 2, "train", False)
    return "models.forward_train" if train else "models.forward_eval"


def _cli_name(args, kwargs) -> str:
    argv = list(args[0])
    return f"cli.{argv[0]}" if argv else "cli.none"


@dataclass
class Site:
    module: str
    path: str                           # attribute, or Class.attribute
    span: str | Callable                # span name, or span name from (args, kwargs)
    note: Callable | None = None        # note(tracer, args, kwargs, result) on return
    error_count: str | None = None      # counter bumped when the call raises
    tag: Callable | None = None         # tag(args, kwargs) kept on the span


def _site_table(msa) -> list[Site]:
    forward_classes = sorted({cls.__name__ for cls in msa.models.MODEL_REGISTRY.values()}
                             | {"MultitaskWrapper"})
    return [
        Site("synthetic", "make_synthetic_bundle", "synthetic.make"),
        Site("bundle", "write_bundle", "bundle.write",
             _count("bundle.bytes_written", lambda a, k, r: _dir_bytes(_arg(a, k, 1, "path")))),
        Site("bundle", "read_bundle", "bundle.read",
             _count("bundle.bytes_read", lambda a, k, r: _dir_bytes(_arg(a, k, 0, "path")))),
        Site("bundle", "split_view", "bundle.split_view"),
        Site("extractors", "run_dataset", "extractors.run_dataset",
             _count("extractors.clips", lambda a, k, r: r.n)),
        Site("extractors", "_extract_one", "extractors.extract_one",
             error_count="extractors.failed"),
        Site("extractors", "read_wav", "extractors.read_wav"),
        Site("extractors", "stft", "extractors.stft"),
        Site("extractors", "mfcc", "extractors.mfcc"),
        Site("extractors", "text_embed_lookup", "extractors.embed"),
        Site("extractors", "EmbeddingTable.load", "extractors.embed"),
        Site("extractors", "ingest_visual_csv", "extractors.csv"),
        Site("autodiff", "backward", "autodiff.backward", _note_backward),
        Site("autodiff", "lstm_cell_step", "autodiff.lstm_cell_step"),
        Site("autodiff", "scaled_dot_attention", "autodiff.scaled_dot_attention"),
        Site("autodiff", "outer_fusion", "autodiff.outer_fusion"),
        *[Site("models", f"{cls}.forward", _forward_name) for cls in forward_classes],
        Site("models", "Model.loss", "models.loss"),
        Site("models", "MultitaskWrapper.loss", "models.loss"),
        Site("models", "batch_from_bundle", "models.batch", _count("models.batch_calls")),
        Site("models", "build_model", "models.build", _note_build),
        Site("models", "save_checkpoint", "models.checkpoint_save"),
        Site("models", "load_checkpoint", "models.checkpoint_load"),
        Site("models", "write_named_arrays", "models.write_named_arrays"),
        Site("trainer", "multi_seed_run", "trainer.multi_seed_run"),
        Site("trainer", "train_run", "trainer.train_run",
             tag=lambda a, k: _arg(a, k, 0, "config").model.model_name),
        Site("trainer", "_evaluate", "trainer.evaluate",
             _count("trainer.epochs", lambda a, k, r: 0 if _arg(a, k, 3, "capture") else 1)),
        Site("trainer", "clip_global_norm", "trainer.clip"),
        Site("trainer", "Adam.step", "trainer.adam", _count("trainer.steps")),
        Site("analysis", "compute_metrics", "analysis.metrics"),
        Site("analysis", "pca_project", "analysis.pca"),
        Site("analysis", "export_projection_csv", "analysis.export_projection"),
        Site("analysis", "export_curves", "analysis.export_curves"),
        Site("analysis", "make_benchmark_report", "analysis.report"),
        Site("robustness", "evaluate_tagged", "robustness.evaluate_tagged"),
        Site("robustness", "perturb_batch", "robustness.perturb_batch",
             _count("robustness.perturbed_samples", lambda a, k, r: r.size)),
        Site("robustness", "apply_spec_to_bundle", "robustness.apply_spec",
             _count("robustness.perturbed_samples", lambda a, k, r: r.n)),
        Site("robustness", "add_feature_noise", "robustness.add_feature_noise"),
        Site("robustness", "render_tagged_reports", "robustness.render"),
        Site("cli", "cli_main", _cli_name,
             _count("cli.nonzero_exits", lambda a, k, code: int(code != 0))),
    ]


def _make_wrapper(tracer: Tracer, fn, site: Site):
    def wrapper(*args, **kwargs):
        name = site.span if isinstance(site.span, str) else site.span(args, kwargs)
        idx = tracer.open(name, site.tag(args, kwargs) if site.tag else None)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if site.error_count:
                tracer.counts[site.error_count] += 1
            raise
        finally:
            tracer.close(idx)
        if site.note is not None:
            site.note(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


class Sites:
    """Every attribute the traced run replaces, with its original object."""

    def __init__(self):
        msa = importlib.import_module("msa_forge")
        modules = [msa] + [importlib.import_module(f"msa_forge.{m}") for m in MODULES]
        # (owner, attribute, original object, site)
        self.entries: list[tuple] = []
        for site in _site_table(msa):
            owner = getattr(msa, site.module)
            if "." in site.path:
                cls_name, attr = site.path.split(".")
                cls = getattr(owner, cls_name)
                self.entries.append((cls, attr, vars(cls)[attr], site))
                continue
            original = getattr(owner, site.path)
            for mod in modules:
                self.entries.extend((mod, attr, original, site)
                                    for attr, value in vars(mod).items() if value is original)

    def install(self, tracer: Tracer) -> None:
        for owner, attr, original, site in self.entries:
            if isinstance(original, classmethod):
                wrapped = classmethod(_make_wrapper(tracer, original.__func__, site))
            else:
                wrapped = _make_wrapper(tracer, original, site)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.entries:
            setattr(owner, attr, original)

    def touched(self) -> list[str]:
        """Attributes that are not their original object (none while
        nothing is installed)."""
        return [f"{owner.__name__}.{attr}" for owner, attr, original, _ in self.entries
                if vars(owner)[attr] is not original]
