"""Record the test-MAE figures that the benchmark's quality checks accept.

    python3 perfbench/make_reference.py

Trains every benchmark model exactly as the workloads do (same bundle,
epochs, batch size and training seeds) for workload seeds 0..63 and
writes to ``perfbench/reference_mae.json``, per model, the minimum and
maximum test MAE and the smallest gain: how far the trained model's test
MAE lies below that of the same model freshly built, before training.
Run it only on a commit whose training results are known to be right;
the checks then flag a program whose models stop learning.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import run  # noqa: E402  (pins BLAS threads before numpy loads)

SEEDS = 64


def main() -> int:
    run.import_package()
    from msa_forge import bundle
    from msa_forge.trainer import multi_seed_run

    from perfbench import workloads

    maes: dict[str, list[float]] = {}
    gains: dict[str, list[float]] = {}

    def add(key: str, trained: float, untrained: float) -> None:
        maes.setdefault(key, []).append(trained)
        gains.setdefault(key, []).append(untrained - trained)

    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        for seed in range(SEEDS):
            for name in ("train-pooled", "train-recurrent"):
                wl = workloads.TrainWorkload(name, seed, tmp / name, workloads.Ledger(), {})
                wl.setup()
                for model in wl.models:
                    res = multi_seed_run(wl.config(model), wl.bundle,
                                         run_dir=tmp / name / "runs" / model)
                    for r in res.per_seed:
                        add(f"{name}.{model}", r.test_metrics.mae,
                            workloads.untrained_test_mae(r.checkpoint_path, wl.bundle))
            accept_all = {"pipeline.tfn": {"min": float("-inf"), "max": float("inf")}}
            wl = workloads.PipelineWorkload("pipeline", seed, tmp / f"pipeline{seed}",
                                            workloads.Ledger(), accept_all)
            wl.setup()
            add("pipeline.tfn", wl.setup_mae, workloads.untrained_test_mae(
                wl.checkpoints["tfn"], bundle.read_bundle(wl.setup_bundle)))
            print(seed, {k: (round(v[-1], 4), round(gains[k][-1], 4))
                         for k, v in maes.items()}, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    doc = {key: {"min": min(v), "max": max(v), "min_gain": min(gains[key])}
           for key, v in sorted(maes.items())}
    (HERE / "reference_mae.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
