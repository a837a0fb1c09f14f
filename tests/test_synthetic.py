"""The synthetic generator against its per-sample reference: the vectorized
draw must give byte-identical blocks and manifests. ``latent_readout_labels``
is the generator's linear-readout oracle, which acceptance criterion 5 uses."""

import numpy as np
import pytest

from msa_forge.bundle import (MODALITIES, SCENARIOS, FeatureBundle, Manifest, ModalityBlock,
                              SampleMeta)
from msa_forge.synthetic import make_synthetic_bundle


def latent_readout_labels(bundle: FeatureBundle) -> np.ndarray:
    """Recover the label from the features alone: read each modality's
    latent off feature dim 0 of the first valid frame and sum. This is the
    linear-readout oracle for the generator."""
    lo, hi = bundle.manifest.label_range
    total = np.zeros(bundle.n, dtype=np.float64)
    for block in bundle.blocks.values():
        total += block.data[:, 0, 0].astype(np.float64)
    return np.clip(total, lo, hi)


def reference_bundle(n_train=700, n_valid=150, n_test=150, seq_len=20, feature_dim=8, seed=0,
                     with_unimodal_labels=True, with_tags=True, label_range=(-3.0, 3.0)):
    """The generator as a loop over samples, one noise draw per sample."""
    rng = np.random.default_rng(seed)
    n = n_train + n_valid + n_test
    lo, hi = label_range
    latents = {m: rng.uniform(-1.0, 1.0, size=n) for m in MODALITIES}
    labels = np.clip(sum(latents.values()), lo, hi)
    blocks = {}
    for m in MODALITIES:
        lengths = rng.integers(max(1, seq_len // 2), seq_len + 1, size=n)
        data = np.zeros((n, seq_len, feature_dim), dtype=np.float32)
        for i in range(n):
            ln = int(lengths[i])
            data[i, :ln, 0] = latents[m][i]
            if feature_dim > 1:
                data[i, :ln, 1:] = rng.uniform(-0.5, 0.5, size=(ln, feature_dim - 1))
        blocks[m] = ModalityBlock(feature_dim=feature_dim, max_len=seq_len,
                                  data=data, lengths=lengths.astype(np.int64))
    samples = []
    for i in range(n):
        split = "train" if i < n_train else ("valid" if i < n_train + n_valid else "test")
        label = float(labels[i])
        mag = abs(label)
        samples.append(SampleMeta(
            id=f"syn{i:04d}", split=split, label_m=label,
            label_t=float(latents["text"][i]) if with_unimodal_labels else None,
            label_a=float(latents["audio"][i]) if with_unimodal_labels else None,
            label_v=float(latents["vision"][i]) if with_unimodal_labels else None,
            scenario=SCENARIOS[i % len(SCENARIOS)] if with_tags else None,
            instance_type=(("easy" if mag > 1.5 else ("difficult" if mag < 0.5 else "common"))
                           if with_tags else None),
        ))
    return FeatureBundle(Manifest("synthetic", label_range, samples), blocks)


def assert_same_bytes(got: FeatureBundle, want: FeatureBundle) -> None:
    assert got.manifest == want.manifest
    assert set(got.blocks) == set(want.blocks)
    for m, block in want.blocks.items():
        other = got.blocks[m]
        assert (other.feature_dim, other.max_len) == (block.feature_dim, block.max_len)
        assert other.data.dtype == block.data.dtype and other.data.shape == block.data.shape
        assert other.data.tobytes() == block.data.tobytes(), m
        assert other.lengths.dtype == block.lengths.dtype
        assert other.lengths.tobytes() == block.lengths.tobytes(), m


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("seq_len", [1, 3, 20])
@pytest.mark.parametrize("feature_dim", [1, 2, 8])
def test_matches_the_per_sample_reference(seed, seq_len, feature_dim):
    kwargs = dict(n_train=40, n_valid=9, n_test=11, seq_len=seq_len,
                  feature_dim=feature_dim, seed=seed)
    assert_same_bytes(make_synthetic_bundle(**kwargs), reference_bundle(**kwargs))


@pytest.mark.parametrize("with_unimodal_labels", [True, False])
@pytest.mark.parametrize("with_tags", [True, False])
def test_matches_the_reference_with_and_without_labels_and_tags(with_unimodal_labels,
                                                                 with_tags):
    kwargs = dict(n_train=30, n_valid=5, n_test=5, seq_len=6, feature_dim=4, seed=3,
                  with_unimodal_labels=with_unimodal_labels, with_tags=with_tags,
                  label_range=(-1.5, 2.0))
    assert_same_bytes(make_synthetic_bundle(**kwargs), reference_bundle(**kwargs))


def test_default_bundle_matches_the_reference():
    assert_same_bytes(make_synthetic_bundle(), reference_bundle())
