"""Synthetic multimodal dataset with a known, linearly-recoverable signal.

Each sample draws one latent scalar per modality from U(-1, 1); the label
is the clipped sum of the three latents. Every frame of a modality
carries its latent in feature dim 0 while the remaining dims hold
uniform noise, so masked-mean pooling recovers the latent exactly and a
linear readout of the latents reproduces the labels with binary accuracy
1.0. Unimodal labels are the per-modality latents.

Instance-type tags derive from label magnitude (easy when |label| > 1.5,
difficult when |label| < 0.5, common otherwise) and scenarios cycle
through the three supported values, so tag-stratified evaluation has all
its rows without human annotation.
"""

from __future__ import annotations

import numpy as np

from .bundle import MODALITIES, SCENARIOS, FeatureBundle, Manifest, ModalityBlock, SampleMeta

__all__ = ["make_synthetic_bundle"]


def make_synthetic_bundle(n_train: int = 700, n_valid: int = 150, n_test: int = 150,
                          seq_len: int = 20, feature_dim: int = 8, seed: int = 0,
                          with_unimodal_labels: bool = True,
                          with_tags: bool = True,
                          label_range: tuple[float, float] = (-3.0, 3.0)) -> FeatureBundle:
    rng = np.random.default_rng(seed)
    n = n_train + n_valid + n_test
    lo, hi = label_range

    latents = {m: rng.uniform(-1.0, 1.0, size=n) for m in MODALITIES}
    labels = np.clip(sum(latents.values()), lo, hi)

    blocks: dict[str, ModalityBlock] = {}
    for m in MODALITIES:
        lengths = rng.integers(max(1, seq_len // 2), seq_len + 1, size=n)
        valid = np.arange(seq_len)[None, :] < lengths[:, None]
        data = np.zeros((n, seq_len, feature_dim), dtype=np.float32)
        data[..., 0] = np.where(valid, latents[m][:, None], 0.0)
        if feature_dim > 1:
            # one draw in the mask's sample-then-frame order: the stream
            # that one draw per sample would consume, value for value
            data[valid, 1:] = rng.uniform(-0.5, 0.5, size=(int(lengths.sum()), feature_dim - 1))
        blocks[m] = ModalityBlock(feature_dim=feature_dim, max_len=seq_len,
                                  data=data, lengths=lengths.astype(np.int64))

    samples = []
    for i in range(n):
        split = "train" if i < n_train else ("valid" if i < n_train + n_valid else "test")
        label = float(labels[i])
        if with_tags:
            mag = abs(label)
            instance_type = "easy" if mag > 1.5 else ("difficult" if mag < 0.5 else "common")
            scenario = SCENARIOS[i % len(SCENARIOS)]
        else:
            instance_type = None
            scenario = None
        samples.append(SampleMeta(
            id=f"syn{i:04d}",
            split=split,
            label_m=label,
            label_t=float(latents["text"][i]) if with_unimodal_labels else None,
            label_a=float(latents["audio"][i]) if with_unimodal_labels else None,
            label_v=float(latents["vision"][i]) if with_unimodal_labels else None,
            scenario=scenario,
            instance_type=instance_type,
        ))

    return FeatureBundle(Manifest("synthetic", label_range, samples), blocks)

