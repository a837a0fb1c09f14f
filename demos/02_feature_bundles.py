"""Feature bundles: the on-disk container, round trips, splits, model-input masks.

The synthetic generator stands in for a real extraction run so everything
here is self-contained.
"""

from pathlib import Path

import numpy as np

from msa_forge import batch_from_bundle, bundle_equal, read_bundle, split_view, write_bundle
from msa_forge.synthetic import make_synthetic_bundle

OUT = Path("demo_output/bundles")
OUT.mkdir(parents=True, exist_ok=True)

bundle = make_synthetic_bundle(n_train=40, n_valid=10, n_test=10,
                               seq_len=12, feature_dim=6, seed=1)
print(f"{bundle.manifest.dataset_name}: N={bundle.n}, "
      f"label_range={bundle.manifest.label_range}")
for name, block in bundle.blocks.items():
    print(f"  {name}: data {block.data.shape}, lengths "
          f"{block.lengths.min()}..{block.lengths.max()}")

# round trip is bit-exact: manifest JSON + one little-endian f32 block per
# modality behind a magic/version/shape header
write_bundle(bundle, OUT / "demo_bundle")
back = read_bundle(OUT / "demo_bundle")
print("round trip bit-exact:", bundle_equal(bundle, back))
print("files:", sorted(p.name for p in (OUT / "demo_bundle").iterdir()))

# split views preserve manifest order and partition the ids
train = split_view(bundle, "train")
valid = split_view(bundle, "valid")
test = split_view(bundle, "test")
print(f"splits: train={train.n} valid={valid.n} test={test.n} "
      f"(disjoint: {not set(train.ids) & set(test.ids)})")

# model input: padded arrays plus validity masks derived from the lengths
audio = batch_from_bundle(bundle, np.arange(6)).modalities["audio"]
print(f"audio batch: data {audio.data.shape}, valid frames per sample "
      f"{audio.mask.sum(axis=1)}")
print("padding is exactly zero:", bool(np.all(audio.data[~audio.mask] == 0.0)))

# invalid containers are rejected with precise errors
bad = make_synthetic_bundle(n_train=2, n_valid=2, n_test=2, seq_len=4,
                            feature_dim=3, seed=2)
bad.manifest.samples[0].label_m = 99.0
try:
    write_bundle(bad, OUT / "rejected")
except Exception as exc:
    print(f"validation rejected the bad bundle: {exc}")
