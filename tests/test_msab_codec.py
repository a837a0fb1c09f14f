"""The MSAB block codec shared by bundle ``.bin`` files, checkpoint
``params.bin`` and run ``reps.bin``: byte layout, round trips, and the
rejection of every malformed container."""

import json
import struct

import numpy as np
import pytest

from msa_forge.bundle import (
    FeatureBundle,
    Manifest,
    ModalityBlock,
    SampleMeta,
    read_bundle,
    write_bundle,
)
from msa_forge.errors import BundleFormatError, BundleValidationError, ModelError
from msa_forge.models import (
    ModelConfig,
    build_model,
    load_checkpoint,
    read_named_arrays,
    save_checkpoint,
    write_named_arrays,
)


def pack_block(arr, version=None):
    """An MSAB block packed by hand: magic, u32 version, three u32 dims
    (leading ones for fewer), then the little-endian payload, float32 under
    version 1 and float64 under version 2. The version defaults to 2 for a
    float64 array and to 1 for any other."""
    arr = np.asarray(arr)
    if version is None:
        version = 2 if arr.dtype == np.float64 else 1
    dims = (1,) * (3 - arr.ndim) + arr.shape
    return (b"MSAB" + struct.pack("<IIII", version, *dims)
            + struct.pack(f"<{arr.size}{'fd'[version - 1]}", *arr.ravel().tolist()))


def pack_named(arrays, version=None):
    out = b""
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded + pack_block(arr, version)
    return out


def small_model(dtype="f32"):
    cfg = ModelConfig(model_name="lf_dnn", feature_dims={"text": 2, "audio": 2},
                      hidden_dims={"text": 2, "audio": 2, "vision": 2}, post_fusion_dim=2,
                      dtype=dtype)
    return build_model(cfg)


@pytest.fixture
def checkpoint(tmp_path):
    model = small_model()
    save_checkpoint(model, tmp_path / "ckpt")
    return tmp_path / "ckpt"


def sample_reps():
    rng = np.random.default_rng(3)
    return {
        "fusion": rng.normal(size=(4, 3)).astype(np.float32),
        "uni.text": rng.normal(size=(4, 2)).astype(np.float32),
        "pred": rng.normal(size=4).astype(np.float32),
    }


class TestByteLayout:
    def test_bundle_bin(self, tmp_path):
        data = np.zeros((2, 3, 2), dtype=np.float32)
        data[0, :3] = [[1.5, -2.0], [0.25, 3.0], [7.0, -0.5]]
        data[1, :1] = [[4.0, 8.0]]
        bundle = FeatureBundle(
            Manifest("toy", (-3.0, 3.0), [SampleMeta("a", "train", 0.5),
                                          SampleMeta("b", "test", -1.0)]),
            {"audio": ModalityBlock(2, 3, data, np.array([3, 1], dtype=np.int64))})
        write_bundle(bundle, tmp_path / "b")
        assert (tmp_path / "b" / "audio.bin").read_bytes() == pack_block(data)
        np.testing.assert_array_equal(read_bundle(tmp_path / "b").blocks["audio"].data, data)

    def test_params_bin(self, checkpoint):
        model = small_model()
        expected = {name: p.data for name, p in model.params.items()}
        assert (checkpoint / "params.bin").read_bytes() == pack_named(expected)
        restored, _ = load_checkpoint(checkpoint)
        for name, p in restored.params.items():
            np.testing.assert_array_equal(p.data, expected[name])

    def test_reps_bin(self, tmp_path):
        reps = sample_reps()
        write_named_arrays(tmp_path / "reps.bin", reps)
        assert (tmp_path / "reps.bin").read_bytes() == pack_named(reps)
        back = read_named_arrays(tmp_path / "reps.bin")
        assert list(back) == list(reps)
        for name, arr in reps.items():
            np.testing.assert_array_equal(back[name].reshape(arr.shape), arr)
        assert back["pred"].shape == (1, 1, 4)

    def test_f64_params_bin_keeps_the_weights(self, tmp_path):
        # an f64 model's parameters are version-2 blocks, so a reload gives
        # back its exact weights, not float32-rounded ones
        model = small_model("f64")
        save_checkpoint(model, tmp_path / "ckpt")
        expected = {name: p.data for name, p in model.params.items()}
        assert all(a.dtype == np.float64 for a in expected.values())
        assert any((a.astype(np.float32) != a).any() for a in expected.values())
        assert (tmp_path / "ckpt" / "params.bin").read_bytes() == pack_named(expected)
        restored, _ = load_checkpoint(tmp_path / "ckpt")
        assert restored.dtype == np.float64
        for name, p in restored.params.items():
            assert p.data.tobytes() == expected[name].tobytes(), name

    def test_version_1_params_bin_still_loads_into_f64(self, tmp_path):
        # a params.bin written before version 2 holds float32 values; an f64
        # model loads them widened, as it always did
        model = small_model("f64")
        save_checkpoint(model, tmp_path / "ckpt")
        expected = {name: p.data.astype(np.float32) for name, p in model.params.items()}
        (tmp_path / "ckpt" / "params.bin").write_bytes(pack_named(expected, version=1))
        restored, _ = load_checkpoint(tmp_path / "ckpt")
        for name, p in restored.params.items():
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, expected[name].astype(np.float64))

    def test_f64_reps_bin(self, tmp_path):
        reps = {name: a.astype(np.float64) / 3 for name, a in sample_reps().items()}
        reps["pred"] = reps["pred"].astype(np.float32)   # mixed versions in one file
        write_named_arrays(tmp_path / "reps.bin", reps)
        assert (tmp_path / "reps.bin").read_bytes() == pack_named(reps)
        back = read_named_arrays(tmp_path / "reps.bin")
        for name, arr in reps.items():
            assert back[name].dtype == arr.dtype, name
            assert back[name].tobytes() == arr.tobytes(), name

    def test_f64_bundle_is_refused(self, tmp_path):
        # bundles stay float32: a float64 block reads, and validation refuses it
        data = np.ones((1, 1, 1), dtype=np.float32)
        bundle = FeatureBundle(Manifest("toy", (-3.0, 3.0), [SampleMeta("a", "train", 0.0)]),
                               {"audio": ModalityBlock(1, 1, data, np.array([1]))})
        write_bundle(bundle, tmp_path / "b")
        (tmp_path / "b" / "audio.bin").write_bytes(pack_block(data.astype(np.float64)))
        with pytest.raises(BundleValidationError, match="float64, expected float32"):
            read_bundle(tmp_path / "b")

    def test_empty_named_container(self, tmp_path):
        write_named_arrays(tmp_path / "empty.bin", {})
        assert (tmp_path / "empty.bin").read_bytes() == b""
        assert read_named_arrays(tmp_path / "empty.bin") == {}


def entry_ends(arrays):
    """Byte offsets at which each named block of pack_named(arrays) ends."""
    ends, pos = [], 0
    for name, arr in arrays.items():
        pos += len(pack_named({name: arr}))
        ends.append(pos)
    return ends


class TestTruncation:
    def test_params_bin_every_prefix(self, checkpoint):
        path = checkpoint / "params.bin"
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(BundleFormatError, match="params.bin"):
                load_checkpoint(checkpoint)

    def test_reps_bin_every_prefix(self, tmp_path):
        reps = sample_reps()
        write_named_arrays(tmp_path / "full.bin", reps)
        raw = (tmp_path / "full.bin").read_bytes()
        ends = entry_ends(reps)
        path = tmp_path / "reps.bin"
        for cut in range(1, len(raw)):
            path.write_bytes(raw[:cut])
            if cut in ends:
                # the format carries no entry count: a cut between entries
                # reads back as the leading entries
                assert list(read_named_arrays(path)) == list(reps)[:ends.index(cut) + 1]
                continue
            with pytest.raises(BundleFormatError, match="reps.bin, entry"):
                read_named_arrays(path)

    def test_bundle_bin_every_prefix(self, tmp_path):
        data = np.ones((2, 2, 1), dtype=np.float32)
        bundle = FeatureBundle(
            Manifest("toy", (-3.0, 3.0), [SampleMeta("a", "train", 0.0),
                                          SampleMeta("b", "test", 0.0)]),
            {"audio": ModalityBlock(1, 2, data, np.array([2, 2], dtype=np.int64))})
        write_bundle(bundle, tmp_path / "b")
        path = tmp_path / "b" / "audio.bin"
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(BundleFormatError, match="audio.bin"):
                read_bundle(tmp_path / "b")


CORRUPTIONS = ["trailing byte", "flipped magic", "bad version", "name past end",
               "non-UTF-8 name"]


def corrupt(raw, kind):
    """A named container with one fault of the given kind."""
    blob = bytearray(raw)
    header = 4 + struct.unpack_from("<I", raw)[0]  # the first block's header
    if kind == "trailing byte":
        blob += b"\x00"
    elif kind == "flipped magic":
        blob[header] ^= 0xFF
    elif kind == "bad version":
        blob[header + 4:header + 8] = struct.pack("<I", 3)
    elif kind == "name past end":
        blob[:4] = struct.pack("<I", len(raw))
    elif kind == "non-UTF-8 name":
        blob[4] = 0xFF
    return bytes(blob)


class TestCorruption:
    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_params_bin(self, checkpoint, kind):
        path = checkpoint / "params.bin"
        path.write_bytes(corrupt(path.read_bytes(), kind))
        with pytest.raises(BundleFormatError, match="params.bin"):
            read_named_arrays(path)
        with pytest.raises(BundleFormatError, match="params.bin"):
            load_checkpoint(checkpoint)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_reps_bin(self, tmp_path, kind):
        path = tmp_path / "reps.bin"
        write_named_arrays(path, sample_reps())
        path.write_bytes(corrupt(path.read_bytes(), kind))
        with pytest.raises(BundleFormatError, match="reps.bin, entry"):
            read_named_arrays(path)

    def test_messages_name_the_entry(self, tmp_path):
        path = tmp_path / "reps.bin"
        raw = pack_named(sample_reps())
        first = len(pack_named({"fusion": sample_reps()["fusion"]}))
        path.write_bytes(raw[:first + 10])
        with pytest.raises(BundleFormatError, match="entry 1: name of 8 bytes"):
            read_named_arrays(path)
        path.write_bytes(raw[:first + 4 + 8 + 10])
        with pytest.raises(BundleFormatError, match="entry 'uni.text': truncated header"):
            read_named_arrays(path)

    def test_repeated_name(self, tmp_path):
        path = tmp_path / "reps.bin"
        path.write_bytes(pack_named({"a": [1.0]}) * 2)
        with pytest.raises(BundleFormatError, match="repeated name 'a'"):
            read_named_arrays(path)

    def test_bundle_bin_trailing_byte(self, tmp_path):
        data = np.ones((1, 1, 1), dtype=np.float32)
        bundle = FeatureBundle(Manifest("toy", (-3.0, 3.0), [SampleMeta("a", "train", 0.0)]),
                               {"audio": ModalityBlock(1, 1, data, np.array([1]))})
        write_bundle(bundle, tmp_path / "b")
        path = tmp_path / "b" / "audio.bin"
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(BundleFormatError, match="1 trailing bytes"):
            read_bundle(tmp_path / "b")


def edit_manifest(checkpoint, edit):
    path = checkpoint / "manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestManifest:
    def test_invalid_json(self, checkpoint):
        (checkpoint / "manifest.json").write_text("{not json")
        with pytest.raises(ModelError, match="not valid JSON"):
            load_checkpoint(checkpoint)

    @pytest.mark.parametrize("key", ["model_name", "config", "params"])
    def test_missing_key(self, checkpoint, key):
        edit_manifest(checkpoint, lambda doc: doc.pop(key))
        with pytest.raises(ModelError, match="malformed"):
            load_checkpoint(checkpoint)

    def test_unknown_config_key(self, checkpoint):
        edit_manifest(checkpoint, lambda doc: doc["config"].update(no_such_key=1))
        with pytest.raises(ModelError, match="no_such_key"):
            load_checkpoint(checkpoint)

    @pytest.mark.parametrize("value", ["32", {"a": 1}, None])
    def test_config_value_of_wrong_type(self, checkpoint, value):
        edit_manifest(checkpoint, lambda doc: doc["config"].update(post_fusion_dim=value))
        with pytest.raises(ModelError, match="malformed"):
            load_checkpoint(checkpoint)

    def test_stored_size_disagrees_with_shape(self, checkpoint):
        def grow(doc):
            doc["params"][0]["shape"] = [3, 2]
        edit_manifest(checkpoint, grow)
        with pytest.raises(ModelError, match="cannot reshape array of size 4"):
            load_checkpoint(checkpoint)

    def test_shape_disagrees_with_model(self, checkpoint):
        def flatten(doc):
            doc["params"][0]["shape"] = [4]
        edit_manifest(checkpoint, flatten)
        with pytest.raises(ModelError, match="does not fit"):
            load_checkpoint(checkpoint)

    def test_unlisted_model_parameter(self, checkpoint):
        edit_manifest(checkpoint, lambda doc: doc["params"].pop())
        with pytest.raises(ModelError, match="does not fit"):
            load_checkpoint(checkpoint)
