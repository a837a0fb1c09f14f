"""Reference feature extraction: audio DSP from WAV, utterance statistics,
text embedding lookup, visual CSV ingestion, and whole-dataset extraction.

Built-in extractors cover what can be computed locally (STFT, MFCC,
utterance-level statistics, static embedding lookup, landmark/AU CSV
columns). Features from pretrained backbones are not recomputed here;
they enter through the ``ingest_csv`` kind as precomputed per-sample
CSVs. The registry maps the short feature codes used in benchmark
configs (T1..T3, A1..A3, V1..V3) onto either a built-in extractor or an
ingestion kind.
"""

from __future__ import annotations

import csv
import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft
import scipy.io.wavfile

from .bundle import FeatureBundle, Manifest, ModalityBlock, SampleMeta, validate_bundle
from .errors import ExtractionError

__all__ = [
    "WaveBuffer",
    "ExtractorConfig",
    "EmbeddingTable",
    "read_wav",
    "stft",
    "mfcc",
    "mel_filterbank",
    "utterance_stats",
    "text_embed_lookup",
    "corrupt_tokens",
    "ingest_visual_csv",
    "run_dataset",
    "resolve_config",
    "FEATURE_CODES",
    "EXTRACTOR_KINDS",
    "WAV_KINDS",
]

log = logging.getLogger(__name__)

LOG_EPS = 1e-10


@dataclass
class WaveBuffer:
    """Mono audio in [-1, 1]."""

    sample_rate: int
    samples: np.ndarray


def read_wav(path, expected_rate: int | None = None) -> WaveBuffer:
    """Read a PCM WAV (int16/int32/float32), downmix stereo by averaging,
    and scale integer samples to [-1, 1]."""
    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError:
        raise ExtractionError(f"wav file not found: {path}") from None
    except ValueError as exc:
        raise ExtractionError(f"{path}: not a readable WAV ({exc})") from exc
    if data.size == 0:
        raise ExtractionError(f"{path}: zero-length audio")
    if data.ndim == 2:
        data = data.mean(axis=1)
    data = np.asarray(data)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
        peak = np.abs(samples).max()
        if peak > 1.0:
            samples = samples / peak
    else:
        raise ExtractionError(f"{path}: unsupported sample format {data.dtype}")
    if expected_rate is not None and rate != expected_rate:
        raise ExtractionError(
            f"{path}: sample rate {rate} Hz != expected {expected_rate} Hz "
            "(resampling is out of scope)")
    return WaveBuffer(sample_rate=int(rate), samples=samples)


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(wave: WaveBuffer, n_fft: int, hop: int) -> np.ndarray:
    """Hann-windowed magnitude spectrogram, frames x (n_fft/2 + 1).

    No padding or centering: F = 1 + floor((len - n_fft) / hop).
    """
    if n_fft <= 0 or (n_fft & (n_fft - 1)) != 0:
        raise ExtractionError(f"n_fft must be a power of two, got {n_fft}")
    if not 1 <= hop <= n_fft:
        raise ExtractionError(f"hop must be in [1, n_fft], got {hop}")
    x = wave.samples
    if len(x) < n_fft:
        raise ExtractionError(f"signal of {len(x)} samples is shorter than one {n_fft} window")
    n_frames = 1 + (len(x) - n_fft) // hop
    win = _hann(n_fft)
    frames = np.stack([x[i * hop:i * hop + n_fft] * win for i in range(n_frames)])
    return np.abs(np.fft.rfft(frames, axis=1))


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters (peak 1) on the rfft bin grid, n_mels x bins."""
    bins = n_fft // 2 + 1
    freqs = np.arange(bins) * sample_rate / n_fft
    points = _mel_to_hz(np.linspace(0.0, _hz_to_mel(sample_rate / 2.0), n_mels + 2))
    fb = np.zeros((n_mels, bins))
    for j in range(n_mels):
        left, center, right = points[j], points[j + 1], points[j + 2]
        up = (freqs - left) / (center - left)
        down = (right - freqs) / (right - center)
        fb[j] = np.maximum(0.0, np.minimum(up, down))
    return fb


def mfcc(wave: WaveBuffer, n_fft: int = 512, hop: int = 160,
         n_mels: int = 26, n_mfcc: int = 20) -> np.ndarray:
    """STFT -> mel filterbank -> log(x + eps) -> orthonormal DCT-II,
    keeping the first n_mfcc coefficients."""
    if not n_mfcc <= n_mels <= n_fft // 2 + 1:
        raise ExtractionError(
            f"need n_mfcc <= n_mels <= n_fft/2+1, got ({n_mfcc}, {n_mels}, {n_fft // 2 + 1})")
    spec = stft(wave, n_fft, hop)
    fb = mel_filterbank(n_mels, n_fft, wave.sample_rate)
    mel = (spec ** 2) @ fb.T
    logmel = np.log(mel + LOG_EPS)
    return scipy.fft.dct(logmel, type=2, axis=1, norm="ortho")[:, :n_mfcc]


def utterance_stats(seq: np.ndarray) -> np.ndarray:
    """Utterance-level summary of a T x d sequence: per-dim mean, std
    (population), min, max concatenated into a 4d vector."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ExtractionError(f"utterance_stats needs a non-empty T x d sequence, got {seq.shape}")
    return np.concatenate([seq.mean(axis=0), seq.std(axis=0), seq.min(axis=0), seq.max(axis=0)])


@dataclass
class EmbeddingTable:
    """Static token -> vector table; must contain the reserved "<unk>"."""

    vectors: dict[str, np.ndarray]
    dim: int

    def __post_init__(self):
        if "<unk>" not in self.vectors:
            raise ExtractionError('embedding table must contain the reserved token "<unk>"')
        for tok, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise ExtractionError(
                    f"embedding for {tok!r} has dim {vec.shape}, table dim is {self.dim}")

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        """Parse the text format: one token per line followed by the
        vector's decimal floats, space-separated."""
        vectors: dict[str, np.ndarray] = {}
        dim = None
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                tok, values = parts[0], parts[1:]
                if dim is None:
                    dim = len(values)
                elif len(values) != dim:
                    raise ExtractionError(
                        f"{path} line {lineno}: {len(values)} values, expected {dim}")
                try:
                    vectors[tok] = np.array([float(v) for v in values], dtype=np.float64)
                except ValueError as exc:
                    raise ExtractionError(f"{path} line {lineno}: {exc}") from exc
        if dim is None:
            raise ExtractionError(f"{path}: empty embedding table")
        return cls(vectors=vectors, dim=dim)


def text_embed_lookup(tokens: list[str], table: EmbeddingTable) -> np.ndarray:
    """T x d sequence; out-of-vocabulary tokens map to the "<unk>" vector."""
    if not tokens:
        raise ExtractionError("cannot embed an empty token list")
    unk = table.vectors["<unk>"]
    return np.stack([table.vectors.get(tok, unk) for tok in tokens])


def corrupt_tokens(tokens: list[str], rate: float, seed: int) -> list[str]:
    """Replace each token with "<unk>" with probability ``rate`` (the text
    analog of feature noise, before embedding), drawn from an RNG keyed on
    (seed, sentence digest): sentences differ, and extract and predict agree."""
    if not 0.0 <= rate <= 1.0:
        raise ExtractionError(f"corruption rate must be in [0, 1], got {rate}")
    digest = hashlib.sha256(" ".join(tokens).encode("utf-8")).digest()
    rng = np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])
    return ["<unk>" if rng.random() < rate else tok for tok in tokens]


def ingest_visual_csv(path, columns: list[str] | None = None) -> np.ndarray:
    """Read a per-frame feature CSV into a T x d float array.

    ``columns`` is a list of selectors applied in order; each selector
    matches a column by exact name or as a name prefix (so "AU" selects
    every AU column). None selects every column. Matches for each
    selector keep CSV order; selectors concatenate left to right.
    """
    path = Path(path)
    if not path.exists():
        raise ExtractionError(f"csv not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ExtractionError(f"{path}: empty csv") from None
        rows = [row for row in reader if row]
    if columns is None:
        selected = list(range(len(header)))
    else:
        selected = []
        for selector in columns:
            matches = [i for i, h in enumerate(header)
                       if h == selector or h.startswith(selector)]
            if not matches:
                raise ExtractionError(f"{path}: no column matches selector {selector!r}")
            selected.extend(matches)
    if not rows:
        raise ExtractionError(f"{path}: no data rows")
    out = np.empty((len(rows), len(selected)), dtype=np.float64)
    for r, row in enumerate(rows):
        for c, idx in enumerate(selected):
            try:
                out[r, c] = float(row[idx])
            except (ValueError, IndexError):
                cell = row[idx] if idx < len(row) else "<missing>"
                raise ExtractionError(
                    f"{path}: non-numeric cell {cell!r} at row {r + 2}, "
                    f"column {header[idx]!r}") from None
    return out


# ---------------------------------------------------------------------------
# extractor registry and whole-dataset runs
# ---------------------------------------------------------------------------

@dataclass
class ExtractorConfig:
    """One modality's extractor choice: a registry kind plus parameters."""

    modality: str
    kind: str
    params: dict = field(default_factory=dict)


# feature codes used in benchmark configs; external backbones resolve to
# ingestion of precomputed CSVs rather than local recomputation
FEATURE_CODES: dict[str, tuple[str, dict]] = {
    "T1": ("ingest_csv", {}),                         # pretrained contextual embeddings
    "T2": ("glove", {}),                              # static embedding lookup
    "T3": ("ingest_csv", {}),                         # pretrained contextual embeddings
    "A1": ("ingest_csv", {}),                         # toolkit LLDs
    "A2": ("mfcc", {"n_mfcc": 20}),                   # local cepstral features
    "A3": ("ingest_csv", {}),                         # pretrained acoustic embeddings
    "V1": ("ingest_csv", {"columns": ["AU"]}),        # action units
    "V2": ("ingest_csv", {"columns": ["x_", "y_"]}),  # facial landmarks
    "V3": ("ingest_csv", {"columns": ["x_", "y_", "AU"]}),  # landmarks + AUs
}

EXTRACTOR_KINDS = ("stft", "mfcc", "hsf", "glove", "ingest_csv")


def resolve_config(config: ExtractorConfig) -> ExtractorConfig:
    """Expand a feature code into its concrete kind; validate the kind."""
    if config.kind in FEATURE_CODES:
        kind, defaults = FEATURE_CODES[config.kind]
        params = dict(defaults)
        params.update(config.params)
        return ExtractorConfig(config.modality, kind, params)
    if config.kind not in EXTRACTOR_KINDS:
        raise ExtractionError(
            f"unknown extractor kind {config.kind!r}; "
            f"known kinds {EXTRACTOR_KINDS} and codes {tuple(FEATURE_CODES)}")
    return config


WAV_KINDS = ("stft", "mfcc", "hsf")


def _wav_framing(config: ExtractorConfig, path) -> tuple[WaveBuffer, int, int]:
    """The WAV a WAV-kind config reads, with its STFT size and hop."""
    p = config.params
    return read_wav(path, expected_rate=p.get("sample_rate")), p.get("n_fft", 512), p.get("hop", 160)


def _extract_one(config: ExtractorConfig, sample, table: EmbeddingTable | None) -> np.ndarray:
    """One sample's features. ``sample`` is the input file; glove also
    takes a token list in its place."""
    p = config.params
    if isinstance(sample, list) and config.kind != "glove":
        raise ExtractionError(f"extractor kind {config.kind!r} reads a file, not tokens")
    if config.kind in WAV_KINDS:
        wave, n_fft, hop = _wav_framing(config, sample)
        lld = p.get("lld", "mfcc") if config.kind == "hsf" else config.kind
        if lld == "mfcc":
            seq = mfcc(wave, n_fft, hop, p.get("n_mels", 26), p.get("n_mfcc", 20))
        elif lld == "stft":
            seq = stft(wave, n_fft, hop)
        else:
            raise ExtractionError(f"hsf lld must be 'mfcc' or 'stft', got {lld!r}")
        return utterance_stats(seq)[None, :] if config.kind == "hsf" else seq
    if config.kind == "glove":
        if table is None:
            raise ExtractionError("glove extractor needs an embedding table")
        tokens = sample if isinstance(sample, list) else Path(sample).read_text(
            encoding="utf-8").split()
        if p.get("corrupt_rate"):
            tokens = corrupt_tokens(tokens, p["corrupt_rate"], p.get("corrupt_seed", 0))
        return text_embed_lookup(tokens, table)
    if config.kind == "ingest_csv":
        return ingest_visual_csv(sample, p.get("columns"))
    raise ExtractionError(f"unhandled extractor kind {config.kind!r}")


def _read_label_csv(label_file, modalities: list[str]) -> list[tuple[SampleMeta, dict]]:
    """Each row's sample metadata and its ``<modality>_path`` cells, checked
    before any clip is read."""
    with open(label_file, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ExtractionError(f"{label_file}: no samples listed")
    required = {"id", "split", "label_m"} | {f"{m}_path" for m in modalities}
    missing = required - set(rows[0])
    if missing:
        raise ExtractionError(f"{label_file}: missing columns {sorted(missing)}")

    out = []
    for line, row in enumerate(rows, start=2):
        absent = sorted(key for key in required if row[key] is None)  # a short row
        if absent:
            raise ExtractionError(f"{label_file}: row {line} has no cell for column {absent[0]!r}")
        labels = {}
        for key in ("label_m", "label_t", "label_a", "label_v"):
            val = row.get(key)
            if key != "label_m" and val in (None, ""):
                labels[key] = None
                continue
            try:
                labels[key] = float(val)
            except ValueError:
                raise ExtractionError(f"{label_file}: non-numeric cell {val!r} at row {line}, "
                                      f"column {key!r}") from None
        meta = SampleMeta(id=row["id"], split=row["split"], **labels,
                          scenario=row.get("scenario") or None,
                          instance_type=row.get("instance_type") or None)
        out.append((meta, {m: row[f"{m}_path"] for m in modalities}))
    return out


def run_dataset(dataset_dir, configs: list[ExtractorConfig], label_file,
                *, dataset_name: str | None = None,
                label_range: tuple[float, float] = (-3.0, 3.0),
                max_failure_fraction: float = 0.0) -> FeatureBundle:
    """Apply the configured extractor per modality per sample and assemble
    a validated FeatureBundle.

    The label CSV must carry columns id, split, label_m, one ``<modality>_path``
    per configured modality, and may carry label_t/label_a/label_v,
    scenario, and instance_type. Failed samples are dropped and logged
    while their share of the rows is at most ``max_failure_fraction``;
    above it (by default, on any failure) the run aborts listing every
    failed id. The manifest records each modality's resolved extractor,
    params as given.
    """
    root = Path(dataset_dir)
    configs = [resolve_config(c) for c in configs]
    by_modality: dict[str, ExtractorConfig] = {}
    for cfg in configs:
        if cfg.modality in by_modality:
            raise ExtractionError(f"two extractor configs for modality {cfg.modality!r}")
        by_modality[cfg.modality] = cfg
    if not by_modality:
        raise ExtractionError("no extractor configs given")

    tables: dict[str, EmbeddingTable | None] = {}
    for m, cfg in by_modality.items():
        if cfg.kind == "glove":
            table_path = cfg.params.get("table")
            if not table_path:
                raise ExtractionError("glove extractor needs params['table'] = path")
            tables[m] = EmbeddingTable.load(
                table_path if Path(table_path).is_absolute() else root / table_path)
        else:
            tables[m] = None

    rows = _read_label_csv(label_file, list(by_modality))

    sequences: dict[str, list[np.ndarray]] = {m: [] for m in by_modality}
    samples: list[SampleMeta] = []
    failures: dict[str, str] = {}
    for meta, paths in rows:
        try:
            per_mod = {}
            for m, cfg in by_modality.items():
                rel = paths[m]
                sample_path = Path(rel) if Path(rel).is_absolute() else root / rel
                per_mod[m] = np.asarray(_extract_one(cfg, sample_path, tables[m]),
                                        dtype=np.float64)
        except ExtractionError as exc:
            failures[meta.id] = str(exc)
            continue
        for m, seq in per_mod.items():
            sequences[m].append(seq)
        samples.append(meta)

    if failures:
        listing = "; ".join(f"{sid}: {msg}" for sid, msg in failures.items())
        frac = len(failures) / len(rows)
        if frac > max_failure_fraction:
            raise ExtractionError(
                f"{len(failures)}/{len(rows)} samples failed "
                f"({frac:.2f} > allowed {max_failure_fraction}): {listing}")
        log.warning("dropped %d failed sample(s): %s", len(failures), listing)
    if not samples:
        raise ExtractionError("no samples survived extraction")

    blocks: dict[str, ModalityBlock] = {}
    for m, seqs in sequences.items():
        dims = {s.shape[1] for s in seqs}
        if len(dims) != 1:
            raise ExtractionError(f"modality {m!r}: inconsistent feature dims {sorted(dims)}")
        d = dims.pop()
        max_len = max(s.shape[0] for s in seqs)
        data = np.zeros((len(seqs), max_len, d), dtype=np.float32)
        lengths = np.empty(len(seqs), dtype=np.int64)
        for i, s in enumerate(seqs):
            data[i, :s.shape[0]] = s.astype(np.float32)
            lengths[i] = s.shape[0]
        blocks[m] = ModalityBlock(feature_dim=d, max_len=max_len, data=data, lengths=lengths)

    bundle = FeatureBundle(
        manifest=Manifest(dataset_name=dataset_name or root.name,
                          label_range=label_range, samples=samples,
                          extractors={m: {"kind": c.kind, "params": dict(c.params)}
                                      for m, c in by_modality.items()}),
        blocks=blocks,
    )
    validate_bundle(bundle)
    return bundle
