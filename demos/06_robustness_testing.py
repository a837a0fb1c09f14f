"""Generalization-ability testing: feature noise at a target SNR, missing
modalities, and the tag-stratified robustness table.
"""

from pathlib import Path

import numpy as np

from msa_forge import (
    add_feature_noise,
    batch_from_bundle,
    drop_modality,
    evaluate_tagged,
    load_checkpoint,
    render_tagged_reports,
    split_view,
)
from msa_forge.robustness import PerturbationSpec
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import get_config_regression, train_run

OUT = Path("demo_output/robustness")
OUT.mkdir(parents=True, exist_ok=True)

bundle = make_synthetic_bundle(n_train=300, n_valid=60, n_test=80,
                               seq_len=12, feature_dim=6, seed=0)
test = split_view(bundle, "test")

# --- perturbation mechanics ---------------------------------------------
block = test.blocks["audio"]
noisy = add_feature_noise(block, snr_db=0.0, seed=7)
mask = block.mask()
sig = float(np.mean(block.data[mask] ** 2))
noise = float(np.mean((noisy.data - block.data)[mask] ** 2))
print(f"target SNR 0 dB, measured {10 * np.log10(sig / noise):+.2f} dB; "
      f"padding untouched: {bool(np.all(noisy.data[~mask] == 0))}")

batch = batch_from_bundle(test)
dropped = drop_modality(batch, "audio")
print(f"dropped audio: mask any valid = {dropped.modalities['audio'].mask.any()}, "
      f"other modalities intact = "
      f"{np.array_equal(dropped.modalities['text'].data, batch.modalities['text'].data)}")

# --- train two models and stress them ------------------------------------
reports = {}
for name in ("lf_dnn", "tfn"):
    config = get_config_regression(name, "synthetic")
    config["max_epochs"] = 10
    config["patience"] = 10
    run = train_run(config, bundle, seed=1111, run_dir=OUT / name)
    model, _ = load_checkpoint(run.checkpoint_path)
    reports[name] = evaluate_tagged(
        model, test,
        [PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=11),
         PerturbationSpec("modality_missing", "audio")])
    clean = run.test_metrics.acc2
    print(f"{name}: clean acc2 {clean:.3f}; "
          f"noise row {reports[name].rows['noise'].acc2:.3f}; "
          f"missing row {reports[name].rows['missing'].acc2:.3f}")

# --- the stratified table, with both Avg conventions ----------------------
table = render_tagged_reports(reports, fmt="markdown")
(OUT / "robustness_table.md").write_text(table)
print("\n" + table)
