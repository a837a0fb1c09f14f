"""Feature bundles: the on-disk dataset container and its in-memory views.

A bundle is a directory holding ``manifest.json`` plus one ``<modality>.bin``
per modality. The manifest carries dataset name, label range, the modality
table, the extractor each modality was computed with (absent for bundles
that were not extracted), and per-sample metadata (labels, split, tags,
per-modality lengths).
Each ``.bin`` is one MSAB block: a header (magic ``MSAB``, version, then N,
T, d as little-endian u32) followed by the N x T x d float32 array,
row-major, little-endian. Positions past a sample's length are exactly zero.

The same block codec stores checkpoint ``params.bin`` and run ``reps.bin``
as named blocks (u32 name length, UTF-8 name, one MSAB block each). The
decoder checks every bound and raises BundleFormatError naming the file
and the entry.

Bundles are immutable after load and safe for concurrent reads.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import BundleFormatError, BundleValidationError, EmptySplitError, ShapeError

__all__ = [
    "MODALITIES",
    "SPLITS",
    "INSTANCE_TYPES",
    "SCENARIOS",
    "SampleMeta",
    "Manifest",
    "ModalityBlock",
    "FeatureBundle",
    "write_bundle",
    "read_bundle",
    "split_view",
    "take_view",
    "bundle_equal",
    "write_named_arrays",
    "read_named_arrays",
]

MODALITIES = ("text", "audio", "vision")
SPLITS = ("train", "valid", "test")
INSTANCE_TYPES = ("easy", "common", "difficult", "noise", "missing")
SCENARIOS = ("Films(TV)", "Variety Show", "Life(Vlog)")

_MAGIC = b"MSAB"
_VERSION = 1
_HEADER = struct.Struct("<4sIIII")  # magic, version, then the three dims
_NAME_LEN = struct.Struct("<I")


@dataclass
class SampleMeta:
    """Per-sample metadata: id, split, labels, and optional tags."""

    id: str
    split: str
    label_m: float
    label_t: float | None = None
    label_a: float | None = None
    label_v: float | None = None
    scenario: str | None = None
    instance_type: str | None = None

    def unimodal_label(self, modality: str) -> float | None:
        return {"text": self.label_t, "audio": self.label_a, "vision": self.label_v}[modality]


@dataclass
class Manifest:
    dataset_name: str
    label_range: tuple[float, float]
    samples: list[SampleMeta] = field(default_factory=list)
    # modality -> {"kind", "params"} as resolved at extraction; None when the
    # bundle was not extracted (synthetic data)
    extractors: dict[str, dict] | None = None


def extractor_record(doc: dict) -> dict[str, dict] | None:
    """The ``extractors`` entry of a bundle or checkpoint manifest, checked:
    modality -> {"kind": str, "params": dict}, or None when absent."""
    record = doc.get("extractors")
    if record is None:
        return None
    if not isinstance(record, dict) or not all(
            m in MODALITIES and isinstance(e, dict) and set(e) == {"kind", "params"}
            and isinstance(e["kind"], str) and isinstance(e["params"], dict)
            for m, e in record.items()):
        raise ValueError(f"extractors must map modality -> {{kind, params}}, got {record!r}")
    return record


@dataclass(eq=False)
class ModalityBlock:
    """One modality's padded sequences: (N, max_len, feature_dim) float32
    plus per-sample true lengths."""

    feature_dim: int
    max_len: int
    data: np.ndarray
    lengths: np.ndarray

    def mask(self) -> np.ndarray:
        """Boolean (N, max_len) validity mask derived from lengths."""
        return np.arange(self.max_len)[None, :] < self.lengths[:, None]


@dataclass(eq=False)
class FeatureBundle:
    manifest: Manifest
    blocks: dict[str, ModalityBlock]

    @property
    def n(self) -> int:
        return len(self.manifest.samples)

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.manifest.samples]

    def labels(self) -> np.ndarray:
        return np.array([s.label_m for s in self.manifest.samples], dtype=np.float64)

    def has_unimodal_labels(self) -> bool:
        """True when every sample carries a label for every present modality."""
        if not self.manifest.samples:
            return False
        for s in self.manifest.samples:
            for m in self.blocks:
                if s.unimodal_label(m) is None:
                    return False
        return True


def validate_bundle(bundle: FeatureBundle) -> None:
    """Check every container invariant; raise BundleValidationError naming
    the first offending sample/field."""
    man = bundle.manifest
    lo, hi = man.label_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BundleValidationError(f"label_range ({lo}, {hi}) must be finite with lo < hi")
    if not bundle.blocks:
        raise BundleValidationError("bundle has no modality blocks")
    for name in bundle.blocks:
        if name not in MODALITIES:
            raise BundleValidationError(
                f"unknown modality {name!r}; expected a subset of {MODALITIES}")
    n = len(man.samples)
    seen: set[str] = set()
    for s in man.samples:
        if s.id in seen:
            raise BundleValidationError(f"duplicate sample id {s.id!r}")
        seen.add(s.id)
        if s.split not in SPLITS:
            raise BundleValidationError(f"sample {s.id!r}: bad split {s.split!r}")
        if not lo <= s.label_m <= hi:
            raise BundleValidationError(
                f"sample {s.id!r}: label_m {s.label_m} outside label_range ({lo}, {hi})")
        for mod in bundle.blocks:
            uni = s.unimodal_label(mod)
            if uni is not None and not lo <= uni <= hi:
                raise BundleValidationError(
                    f"sample {s.id!r}: label_{mod[0]} {uni} outside label_range ({lo}, {hi})")
        if s.instance_type is not None and s.instance_type not in INSTANCE_TYPES:
            raise BundleValidationError(
                f"sample {s.id!r}: instance_type {s.instance_type!r} not in {INSTANCE_TYPES}")
        if s.scenario is not None and s.scenario not in SCENARIOS:
            raise BundleValidationError(
                f"sample {s.id!r}: scenario {s.scenario!r} not in {SCENARIOS}")
    for name, block in bundle.blocks.items():
        if block.feature_dim <= 0 or block.max_len <= 0:
            raise BundleValidationError(f"modality {name!r}: non-positive dims")
        expect = (n, block.max_len, block.feature_dim)
        if block.data.shape != expect:
            raise BundleValidationError(
                f"modality {name!r}: data shape {block.data.shape} != {expect}")
        if block.data.dtype != np.float32:
            raise BundleValidationError(
                f"modality {name!r}: dtype {block.data.dtype}, expected float32")
        if block.lengths.shape != (n,):
            raise BundleValidationError(
                f"modality {name!r}: lengths shape {block.lengths.shape} != ({n},)")
        bad = ~np.isfinite(block.data)
        if bad.any():
            i, t, d = map(int, np.argwhere(bad)[0])
            sid = man.samples[i].id if i < n else str(i)
            raise BundleValidationError(
                f"non-finite value at sample {sid!r}, modality {name!r}, frame {t}, dim {d}")
        bad_length = (block.lengths < 1) | (block.lengths > block.max_len)
        # a nonzero frame past the length; a bad length is reported instead
        bad_padding = np.any(np.any(block.data != 0, axis=2) & ~block.mask(), axis=1)
        bad = np.flatnonzero(bad_length | bad_padding)
        if bad.size:
            i = int(bad[0])
            length = int(block.lengths[i])
            what = (f"length {length} outside [1, {block.max_len}]" if bad_length[i]
                    else f"nonzero padding past length {length}")
            raise BundleValidationError(
                f"sample {man.samples[i].id!r}, modality {name!r}: {what}")


def _manifest_to_json(bundle: FeatureBundle) -> dict:
    man = bundle.manifest
    samples = []
    for i, s in enumerate(man.samples):
        entry: dict = {"id": s.id, "split": s.split, "label_m": float(s.label_m)}
        for key, val in (("label_t", s.label_t), ("label_a", s.label_a),
                         ("label_v", s.label_v)):
            if val is not None:
                entry[key] = float(val)
        for key, val in (("scenario", s.scenario), ("instance_type", s.instance_type)):
            if val is not None:
                entry[key] = val
        entry["lengths"] = {m: int(b.lengths[i]) for m, b in bundle.blocks.items()}
        samples.append(entry)
    doc = {
        "dataset_name": man.dataset_name,
        "label_range": [man.label_range[0], man.label_range[1]],
        "modalities": [
            {"name": m, "feature_dim": b.feature_dim, "max_len": b.max_len}
            for m, b in bundle.blocks.items()
        ],
        "samples": samples,
    }
    if man.extractors is not None:
        doc["extractors"] = man.extractors
    return doc


def write_bundle(bundle: FeatureBundle, path) -> None:
    """Validate and persist a bundle as a directory; read_bundle(path)
    reproduces it bit-exactly."""
    validate_bundle(bundle)
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BundleFormatError(f"cannot create bundle directory {root}: {exc}") from exc
    (root / "manifest.json").write_text(
        json.dumps(_manifest_to_json(bundle), indent=2) + "\n", encoding="utf-8")
    for name, block in bundle.blocks.items():
        with open(root / f"{name}.bin", "wb") as fh:
            _write_block(fh, block.data)


# ---------------------------------------------------------------------------
# MSAB block codec, shared by bundles, checkpoints and reps.bin
# ---------------------------------------------------------------------------

def _write_block(fh, arr: np.ndarray, name: str | None = None) -> None:
    """Append one block to ``fh``, prefixed by its name when given. Arrays
    of fewer than three dims are stored with leading ones."""
    arr = np.asarray(arr)
    if arr.ndim > 3:
        raise ShapeError(f"cannot store array {name!r} with ndim {arr.ndim}")
    if name is not None:
        encoded = name.encode("utf-8")
        fh.write(_NAME_LEN.pack(len(encoded)))
        fh.write(encoded)
    fh.write(_HEADER.pack(_MAGIC, _VERSION, *((1,) * (3 - arr.ndim) + arr.shape)))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _decode_block(raw: bytes, pos: int, where: str) -> tuple[np.ndarray, int]:
    """Decode the header and payload at ``raw[pos:]``; return the array and
    the offset just past it."""
    if len(raw) - pos < _HEADER.size:
        raise BundleFormatError(f"{where}: truncated header")
    magic, version, a, b, c = _HEADER.unpack_from(raw, pos)
    if magic != _MAGIC:
        raise BundleFormatError(f"{where}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise BundleFormatError(f"{where}: unsupported version {version}")
    pos += _HEADER.size
    size = 4 * a * b * c
    if len(raw) - pos < size:
        raise BundleFormatError(
            f"{where}: payload is {len(raw) - pos} bytes, header promises {size}")
    data = np.frombuffer(raw, dtype="<f4", count=a * b * c, offset=pos)
    return data.reshape(a, b, c), pos + size


def write_named_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Store named float arrays as consecutive named blocks (float32)."""
    with open(path, "wb") as fh:
        for name, arr in arrays.items():
            _write_block(fh, arr, name)


def read_named_arrays(path) -> dict[str, np.ndarray]:
    """Inverse of write_named_arrays; shapes come back 3-D (leading ones).
    A container cut between two entries reads back as the leading entries."""
    path = Path(path)
    raw = path.read_bytes()
    out: dict[str, np.ndarray] = {}
    pos = 0
    while pos < len(raw):
        where = f"{path}, entry {len(out)}"
        if len(raw) - pos < _NAME_LEN.size:
            raise BundleFormatError(f"{where}: truncated name length")
        (size,) = _NAME_LEN.unpack_from(raw, pos)
        pos += _NAME_LEN.size
        if len(raw) - pos < size:
            raise BundleFormatError(
                f"{where}: name of {size} bytes runs past the end of the file")
        try:
            name = raw[pos:pos + size].decode("utf-8")
        except UnicodeDecodeError:
            raise BundleFormatError(f"{where}: name is not UTF-8") from None
        if name in out:
            raise BundleFormatError(f"{where}: repeated name {name!r}")
        out[name], pos = _decode_block(raw, pos + size, f"{path}, entry {name!r}")
    return out


def _number(value, optional: bool = False) -> float | None:
    if optional and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _typed(value, kind: type, optional: bool = False):
    if optional and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, kind):  # a bool is no int
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def read_json_object(path) -> dict:
    """The JSON object a whole file holds, decoded as UTF-8. A file that is
    not UTF-8 text, not JSON, or whose top level is not an object raises
    ValueError; its message reads on from the file's name (``"is not valid
    JSON: ..."``)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"holds a JSON {type(doc).__name__}, not an object")
    return doc


def read_bundle(path) -> FeatureBundle:
    """Load and validate a bundle directory written by write_bundle."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise BundleFormatError(f"no manifest.json under {root}")
    try:
        doc = read_json_object(manifest_path)
    except ValueError as exc:
        raise BundleFormatError(f"manifest.json {exc}") from exc
    try:
        lo, hi = (_number(x) for x in doc["label_range"])
        samples = [
            SampleMeta(
                id=_typed(entry["id"], str),
                split=_typed(entry["split"], str),
                label_m=_number(entry["label_m"]),
                label_t=_number(entry.get("label_t"), optional=True),
                label_a=_number(entry.get("label_a"), optional=True),
                label_v=_number(entry.get("label_v"), optional=True),
                scenario=_typed(entry.get("scenario"), str, optional=True),
                instance_type=_typed(entry.get("instance_type"), str, optional=True),
            )
            for entry in doc["samples"]
        ]
        table = [(_typed(row["name"], str), _typed(row["max_len"], int),
                  _typed(row["feature_dim"], int)) for row in doc["modalities"]]
        lengths = {name: np.array([_typed(entry["lengths"][name], int)
                                   for entry in doc["samples"]], dtype=np.int64)
                   for name, _, _ in table}
        dataset_name = _typed(doc["dataset_name"], str)
        extractors = extractor_record(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleFormatError(f"manifest.json is malformed: {exc!r}") from exc

    n = len(samples)
    blocks: dict[str, ModalityBlock] = {}
    for name, max_len, feature_dim in table:
        bin_path = root / f"{name}.bin"
        if not bin_path.exists():
            raise BundleFormatError(f"manifest lists modality {name!r} but {name}.bin is missing")
        raw = bin_path.read_bytes()
        data, end = _decode_block(raw, 0, str(bin_path))
        if end != len(raw):
            raise BundleFormatError(f"{bin_path}: {len(raw) - end} trailing bytes after the block")
        if data.shape != (n, max_len, feature_dim):
            raise BundleFormatError(
                f"modality {name!r}: array shape {data.shape} disagrees with manifest "
                f"{(n, max_len, feature_dim)}")
        blocks[name] = ModalityBlock(feature_dim=feature_dim, max_len=max_len, data=data,
                                     lengths=lengths[name])

    bundle = FeatureBundle(
        manifest=Manifest(dataset_name=dataset_name, label_range=(lo, hi),
                          samples=samples, extractors=extractors),
        blocks=blocks,
    )
    validate_bundle(bundle)
    return bundle


def take_view(bundle: FeatureBundle, indices) -> FeatureBundle:
    """Sub-bundle with the given sample indices, order preserved."""
    indices = np.asarray(indices, dtype=np.int64)
    samples = [bundle.manifest.samples[i] for i in indices]
    blocks = {
        name: ModalityBlock(
            feature_dim=b.feature_dim,
            max_len=b.max_len,
            data=b.data[indices],
            lengths=b.lengths[indices],
        )
        for name, b in bundle.blocks.items()
    }
    return FeatureBundle(manifest=replace(bundle.manifest, samples=samples), blocks=blocks)


def split_view(bundle: FeatureBundle, split: str) -> FeatureBundle:
    """Bundle restricted to one split, manifest order preserved."""
    if split not in SPLITS:
        raise BundleValidationError(f"unknown split {split!r}; expected one of {SPLITS}")
    indices = [i for i, s in enumerate(bundle.manifest.samples) if s.split == split]
    if not indices:
        raise EmptySplitError(f"split {split!r} has no samples")
    return take_view(bundle, indices)


def bundle_equal(a: FeatureBundle, b: FeatureBundle) -> bool:
    """Bit-exact equality of manifests and arrays."""
    if a.manifest != b.manifest:
        return False
    if set(a.blocks) != set(b.blocks):
        return False
    for name, blk in a.blocks.items():
        other = b.blocks[name]
        if (blk.feature_dim, blk.max_len) != (other.feature_dim, other.max_len):
            return False
        if not np.array_equal(blk.lengths, other.lengths):
            return False
        if blk.data.tobytes() != other.data.tobytes():
            return False
    return True
