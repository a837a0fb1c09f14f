"""Container round-trip, validation, mask, and split-view tests."""

import json
import struct

import numpy as np
import pytest

from msa_forge.bundle import (
    FeatureBundle,
    Manifest,
    ModalityBlock,
    SampleMeta,
    bundle_equal,
    read_bundle,
    split_view,
    validate_bundle,
    write_bundle,
)
from msa_forge.errors import BundleFormatError, BundleValidationError, EmptySplitError


def random_bundle(rng, n=None, modalities=None, label_range=(-3.0, 3.0)):
    """Small random bundle with correct zero padding."""
    n = n if n is not None else int(rng.integers(1, 7))
    if modalities is None:
        all_mods = ["text", "audio", "vision"]
        k = int(rng.integers(1, 4))
        modalities = list(rng.choice(all_mods, size=k, replace=False))
    blocks = {}
    for m in sorted(modalities):
        d = int(rng.integers(1, 5))
        t = int(rng.integers(1, 6))
        lengths = rng.integers(1, t + 1, size=n)
        data = np.zeros((n, t, d), dtype=np.float32)
        for i, ln in enumerate(lengths):
            data[i, :ln] = rng.normal(size=(ln, d)).astype(np.float32)
        blocks[m] = ModalityBlock(feature_dim=d, max_len=t, data=data,
                                  lengths=lengths.astype(np.int64))
    lo, hi = label_range
    splits = ["train", "valid", "test"]
    samples = [
        SampleMeta(
            id=f"s{i:03d}",
            split=splits[int(rng.integers(0, 3))],
            label_m=float(rng.uniform(lo, hi)),
            label_t=float(rng.uniform(lo, hi)) if rng.random() < 0.5 else None,
            scenario="Films(TV)" if rng.random() < 0.3 else None,
            instance_type="easy" if rng.random() < 0.3 else None,
        )
        for i in range(n)
    ]
    return FeatureBundle(Manifest("toy", label_range, samples), blocks)


def tiny_bundle(n=2, d=4, t=10):
    rng = np.random.default_rng(0)
    lengths = np.array([t, t - 3][:n] + [t] * max(0, n - 2), dtype=np.int64)
    data = np.zeros((n, t, d), dtype=np.float32)
    for i, ln in enumerate(lengths):
        data[i, :ln] = rng.normal(size=(ln, d)).astype(np.float32)
    samples = [SampleMeta(id=f"s{i}", split="train", label_m=0.5) for i in range(n)]
    return FeatureBundle(Manifest("toy", (-3.0, 3.0), samples),
                         {"audio": ModalityBlock(d, t, data, lengths)})


class TestRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        bundle = tiny_bundle()
        write_bundle(bundle, tmp_path / "b")
        assert (tmp_path / "b" / "manifest.json").exists()
        assert (tmp_path / "b" / "audio.bin").exists()
        back = read_bundle(tmp_path / "b")
        assert bundle_equal(bundle, back)

    def test_randomized_round_trips(self, tmp_path):
        rng = np.random.default_rng(42)
        for trial in range(25):
            bundle = random_bundle(rng)
            path = tmp_path / f"r{trial}"
            write_bundle(bundle, path)
            assert bundle_equal(bundle, read_bundle(path)), f"trial {trial}"

    def test_padding_survives_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        bundle = random_bundle(rng, n=5)
        write_bundle(bundle, tmp_path / "b")
        back = read_bundle(tmp_path / "b")
        for name, block in back.blocks.items():
            for i, ln in enumerate(block.lengths):
                assert np.all(block.data[i, int(ln):] == 0.0), (name, i)


class TestValidation:
    def test_label_out_of_range_names_sample(self, tmp_path):
        bundle = tiny_bundle()
        bundle.manifest.samples[1].label_m = 3.5
        with pytest.raises(BundleValidationError) as exc:
            write_bundle(bundle, tmp_path / "b")
        assert "s1" in str(exc.value)

    def test_shape_mismatch_detected_on_read(self, tmp_path):
        bundle = tiny_bundle()
        write_bundle(bundle, tmp_path / "b")
        doc = json.loads((tmp_path / "b" / "manifest.json").read_text())
        doc["samples"].append(dict(doc["samples"][0], id="extra"))
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(BundleFormatError) as exc:
            read_bundle(tmp_path / "b")
        assert "disagrees" in str(exc.value)

    def test_nan_reported_with_coordinates(self, tmp_path):
        bundle = tiny_bundle()
        write_bundle(bundle, tmp_path / "b")
        # inject a NaN into the binary payload at sample 1, frame 2, dim 3
        path = tmp_path / "b" / "audio.bin"
        raw = bytearray(path.read_bytes())
        n, t, d = bundle.blocks["audio"].data.shape
        offset = 20 + 4 * ((1 * t + 2) * d + 3)
        raw[offset:offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(BundleValidationError) as exc:
            read_bundle(tmp_path / "b")
        msg = str(exc.value)
        assert "s1" in msg and "frame 2" in msg and "dim 3" in msg

    def test_corrupted_magic_rejected(self, tmp_path):
        bundle = tiny_bundle()
        write_bundle(bundle, tmp_path / "b")
        path = tmp_path / "b" / "audio.bin"
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(BundleFormatError) as exc:
            read_bundle(tmp_path / "b")
        assert "magic" in str(exc.value)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(BundleFormatError):
            read_bundle(tmp_path / "nope")

    def test_nonzero_padding_rejected(self, tmp_path):
        bundle = tiny_bundle()
        bundle.blocks["audio"].data[1, -1, 0] = 1.0  # past length t-3
        with pytest.raises(BundleValidationError) as exc:
            write_bundle(bundle, tmp_path / "b")
        assert "padding" in str(exc.value)

    @pytest.mark.parametrize("first,second,expect", [
        ("padding", "length", "sample 's1', modality 'audio': nonzero padding past length 7"),
        ("length", "padding", "sample 's1', modality 'audio': length 11 outside [1, 10]"),
        ("both", "length", "sample 's1', modality 'audio': length 0 outside [1, 10]"),
    ])
    def test_first_of_two_bad_samples_reported(self, first, second, expect):
        bundle = tiny_bundle(n=4)
        block = bundle.blocks["audio"]
        block.lengths[3] = 7  # as sample 1: frames 7..9 are padding
        block.data[3, 7:] = 0.0
        validate_bundle(bundle)
        for i, fault in ((1, first), (3, second)):
            if fault in ("padding", "both"):
                block.data[i, -1, 0] = 1.0
            if fault == "length":
                block.lengths[i] = 11
            if fault == "both":
                block.lengths[i] = 0
        with pytest.raises(BundleValidationError) as exc:
            validate_bundle(bundle)
        assert str(exc.value) == expect

    def test_duplicate_id_rejected(self, tmp_path):
        bundle = tiny_bundle()
        bundle.manifest.samples[1].id = bundle.manifest.samples[0].id
        with pytest.raises(BundleValidationError):
            write_bundle(bundle, tmp_path / "b")

    def test_unknown_modality_rejected(self, tmp_path):
        bundle = tiny_bundle()
        bundle.blocks["smell"] = bundle.blocks.pop("audio")
        with pytest.raises(BundleValidationError):
            write_bundle(bundle, tmp_path / "b")


class TestModalityBlockMask:
    def test_hand_masks(self):
        block = ModalityBlock(
            feature_dim=1, max_len=3,
            data=np.array([[[1.0], [2.0], [0.0]], [[3.0], [4.0], [5.0]]], dtype=np.float32),
            lengths=np.array([2, 3]))
        mask = block.mask()
        np.testing.assert_array_equal(mask, [[True, True, False], [True, True, True]])
        assert np.all(block.data[~mask] == 0.0)


class TestSplitView:
    def _bundle_with_splits(self):
        rng = np.random.default_rng(3)
        bundle = random_bundle(rng, n=9, modalities=["audio", "text"])
        for i, s in enumerate(bundle.manifest.samples):
            s.split = ["train", "train", "train", "valid", "test"][i % 5]
        return bundle

    def test_counts(self):
        bundle = self._bundle_with_splits()
        n_train = sum(1 for s in bundle.manifest.samples if s.split == "train")
        assert split_view(bundle, "train").n == n_train

    def test_partition_is_disjoint_and_exhaustive(self):
        bundle = self._bundle_with_splits()
        ids = []
        for split in ("train", "valid", "test"):
            ids.extend(split_view(bundle, split).ids)
        assert sorted(ids) == sorted(bundle.ids)
        assert len(set(ids)) == len(ids)

    def test_view_preserves_manifest_order(self):
        bundle = self._bundle_with_splits()
        view = split_view(bundle, "train")
        expect = [s.id for s in bundle.manifest.samples if s.split == "train"]
        assert view.ids == expect
        # block rows follow along
        idx = [i for i, s in enumerate(bundle.manifest.samples) if s.split == "train"]
        np.testing.assert_array_equal(view.blocks["audio"].data,
                                      bundle.blocks["audio"].data[idx])

    def test_empty_split_errors(self):
        bundle = self._bundle_with_splits()
        for s in bundle.manifest.samples:
            s.split = "train"
        with pytest.raises(EmptySplitError):
            split_view(bundle, "test")

    def test_unknown_split_errors(self):
        with pytest.raises(BundleValidationError):
            split_view(self._bundle_with_splits(), "dev")
