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
import functools
import hashlib
import io
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._blas import one_blas_thread
from .bundle import FeatureBundle, Manifest, ModalityBlock, SampleMeta, validate_bundle
from .errors import ExtractionError, MsaForgeError

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
    "filled_params",
    "FEATURE_CODES",
    "EXTRACTOR_PARAMS",
    "WAV_KINDS",
]

log = logging.getLogger(__name__)

LOG_EPS = 1e-10
_PCM_FULL_SCALE = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}


class Param(NamedTuple):
    """One extractor param: its default, the JSON type a config gives it,
    and, for a param read only under one value of another param, that
    (param, value) pair."""

    default: object
    json_type: str
    read_if: tuple[str, object] | None = None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# each JSON type's check on a value read from a config; null is allowed
# only where it is the param's default
_JSON_TYPES: dict[str, Callable[[object], bool]] = {
    "an integer": _is_int,
    "a number": lambda v: _is_int(v) or isinstance(v, float),
    "a string": lambda v: isinstance(v, str),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
}

_STFT_PARAMS = {"n_fft": Param(512, "an integer"), "hop": Param(160, "an integer"),
                "sample_rate": Param(None, "an integer")}
_MFCC_PARAMS = {**_STFT_PARAMS, "n_mels": Param(26, "an integer"),
                "n_mfcc": Param(20, "an integer")}

# every param each extractor kind reads; a config may set these and no others
# (a read_if param only under its setting)
EXTRACTOR_PARAMS: dict[str, dict[str, Param]] = {
    "stft": _STFT_PARAMS,
    "mfcc": _MFCC_PARAMS,
    "hsf": {**_MFCC_PARAMS,
            **{name: _MFCC_PARAMS[name]._replace(read_if=("lld", "mfcc"))
               for name in ("n_mels", "n_mfcc")},
            "lld": Param("mfcc", "a string")},
    "glove": {"table": Param(None, "a string"), "corrupt_rate": Param(0, "a number"),
              "corrupt_seed": Param(0, "an integer")},
    "ingest_csv": {"columns": Param(None, "a list of strings")},
}


def _read_text(path, newline: str | None = None) -> str:
    """A UTF-8 text input's contents; one that cannot be read as such is an
    ExtractionError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8, NUL in the path
        raise ExtractionError(f"{path}: not a readable UTF-8 text file ({exc})") from None


@dataclass
class WaveBuffer:
    """Mono audio in [-1, 1]."""

    sample_rate: int
    samples: np.ndarray


def read_wav(path, expected_rate: int | None = None) -> WaveBuffer:
    """Read a PCM WAV (int16/int32/float32), scale integer samples to
    [-1, 1] and downmix stereo by averaging."""
    import scipy.io.wavfile

    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError:
        raise ExtractionError(f"wav file not found: {path}") from None
    except ValueError as exc:
        raise ExtractionError(f"{path}: not a readable WAV ({exc})") from exc
    if data.size == 0:
        raise ExtractionError(f"{path}: zero-length audio")
    full_scale = _PCM_FULL_SCALE.get(data.dtype)
    if full_scale is not None:  # per channel, before the downmix; the division is exact
        data = data.astype(np.float64) / full_scale
    elif data.dtype not in (np.float32, np.float64):
        raise ExtractionError(f"{path}: unsupported sample format {data.dtype}")
    if data.ndim == 2:
        data = data.mean(axis=1)
    samples = data.astype(np.float64)
    if full_scale is None:
        if not np.isfinite(samples).all():
            bad = int(np.flatnonzero(~np.isfinite(samples))[0])
            raise ExtractionError(f"{path}: non-finite sample value at index {bad}")
        peak = np.abs(samples).max()
        if peak > 1.0:
            samples = samples / peak
    if expected_rate is not None and rate != expected_rate:
        raise ExtractionError(
            f"{path}: sample rate {rate} Hz != expected {expected_rate} Hz "
            "(resampling is out of scope)")
    return WaveBuffer(sample_rate=int(rate), samples=samples)


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _check_stft_dims(n_fft: int, hop: int) -> None:
    if n_fft <= 0 or (n_fft & (n_fft - 1)) != 0:
        raise ExtractionError(f"n_fft must be a power of two, got {n_fft}")
    if not 1 <= hop <= n_fft:
        raise ExtractionError(f"hop must be in [1, n_fft], got {hop}")


def stft(wave: WaveBuffer, n_fft: int, hop: int) -> np.ndarray:
    """Hann-windowed magnitude spectrogram, frames x (n_fft/2 + 1).

    No padding or centering: F = 1 + floor((len - n_fft) / hop).
    """
    _check_stft_dims(n_fft, hop)
    x = wave.samples
    if len(x) < n_fft:
        raise ExtractionError(f"signal of {len(x)} samples is shorter than one {n_fft} window")
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop] * _hann(n_fft)
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


@functools.cache
def _shared_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """mel_filterbank, built once per (n_mels, n_fft, rate) and read-only."""
    fb = mel_filterbank(n_mels, n_fft, sample_rate)
    fb.flags.writeable = False
    return fb


def _check_mfcc_dims(n_fft: int, n_mels: int, n_mfcc: int) -> None:
    if n_mfcc < 1:
        raise ExtractionError(f"n_mfcc must be at least 1, got {n_mfcc}")
    if not n_mfcc <= n_mels <= n_fft // 2 + 1:
        raise ExtractionError(
            f"need n_mfcc <= n_mels <= n_fft/2+1, got ({n_mfcc}, {n_mels}, {n_fft // 2 + 1})")


def _cepstra(spec: np.ndarray, n_fft: int, sample_rate: int, n_mels: int,
             n_mfcc: int) -> np.ndarray:
    """The MFCCs of a magnitude spectrogram made with ``n_fft``."""
    from scipy.fft import dct

    fb = _shared_filterbank(n_mels, n_fft, sample_rate)
    mel = (spec ** 2) @ fb.T
    logmel = np.log(mel + LOG_EPS)
    return dct(logmel, type=2, axis=1, norm="ortho")[:, :n_mfcc]


def mfcc(wave: WaveBuffer, n_fft: int = _MFCC_PARAMS["n_fft"].default,
         hop: int = _MFCC_PARAMS["hop"].default, n_mels: int = _MFCC_PARAMS["n_mels"].default,
         n_mfcc: int = _MFCC_PARAMS["n_mfcc"].default) -> np.ndarray:
    """STFT -> mel filterbank -> log(x + eps) -> orthonormal DCT-II,
    keeping the first n_mfcc coefficients."""
    _check_mfcc_dims(n_fft, n_mels, n_mfcc)
    return _cepstra(stft(wave, n_fft, hop), n_fft, wave.sample_rate, n_mels, n_mfcc)


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
        for lineno, line in enumerate(_read_text(path).split("\n"), 1):
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


def _check_corruption(rate: float, seed: int) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ExtractionError(f"corruption rate must be in [0, 1], got {rate}")
    if seed < 0:
        raise ExtractionError(f"corruption seed must be non-negative, got {seed}")


def corrupt_tokens(tokens: list[str], rate: float, seed: int) -> list[str]:
    """Replace each token with "<unk>" with probability ``rate`` (the text
    analog of feature noise, before embedding), drawn from an RNG keyed on
    (seed, sentence digest): sentences differ, and extract and predict agree."""
    _check_corruption(rate, seed)
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
    reader = csv.reader(io.StringIO(_read_text(path, newline=""), newline=""))
    try:
        header = [h.strip() for h in next(reader)]
        rows = [row for row in reader if row]
    except StopIteration:
        raise ExtractionError(f"{path}: empty csv") from None
    except csv.Error as exc:
        raise ExtractionError(f"{path}: not a readable csv ({exc})") from None
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

WAV_KINDS = ("stft", "mfcc", "hsf")


def filled_params(config: ExtractorConfig) -> dict:
    """Every param a resolved config reads: as given, else its default. A
    ``read_if`` param is left out unless its setting holds."""
    table = EXTRACTOR_PARAMS[config.kind]

    def value(name):
        return config.params.get(name, table[name].default)

    return {name: value(name) for name, param in table.items()
            if param.read_if is None or value(param.read_if[0]) == param.read_if[1]}


def resolve_config(config: ExtractorConfig) -> ExtractorConfig:
    """Expand a feature code into its concrete kind, and check the config
    before any clip is read: the kind reads every param under the given
    settings, each param has its JSON type, and the settings, defaults
    filled in, can be run. Params are returned as given."""
    where = f"modality {config.modality!r}"
    if not isinstance(config.params, dict):
        raise ExtractionError(f"{where}: params must be an object, got {config.params!r}")
    if not (isinstance(config.kind, str) and (config.kind in EXTRACTOR_PARAMS
                                              or config.kind in FEATURE_CODES)):
        raise ExtractionError(
            f"unknown extractor kind {config.kind!r}; "
            f"known kinds {tuple(EXTRACTOR_PARAMS)} and codes {tuple(FEATURE_CODES)}")
    kind, params = config.kind, config.params
    if kind in FEATURE_CODES:
        kind, code_params = FEATURE_CODES[kind]
        params = {**code_params, **params}
    table = EXTRACTOR_PARAMS[kind]
    for name, value in params.items():
        if name not in table:
            raise ExtractionError(f"{where}: param {name!r} is not read by extractor kind "
                                  f"{kind!r}, which takes {', '.join(table)}")
        param = table[name]
        if not (value is None and param.default is None or _JSON_TYPES[param.json_type](value)):
            raise ExtractionError(f"{where}: param {name!r} must be {param.json_type}, "
                                  f"got {value!r}")
    resolved = ExtractorConfig(config.modality, kind, params)
    s = filled_params(resolved)
    for name in params:
        if name not in s:
            setting, value = table[name].read_if
            raise ExtractionError(f"{where}: param {name!r} is read by extractor kind "
                                  f"{kind!r} only when {setting!r} is {value!r}")
    try:
        if kind in WAV_KINDS:
            _check_stft_dims(s["n_fft"], s["hop"])
            lld = s["lld"] if kind == "hsf" else kind
            if lld not in ("mfcc", "stft"):
                raise ExtractionError(f"param 'lld' must be 'mfcc' or 'stft', got {lld!r}")
            if lld == "mfcc":
                _check_mfcc_dims(s["n_fft"], s["n_mels"], s["n_mfcc"])
        elif kind == "glove":
            _check_corruption(s["corrupt_rate"], s["corrupt_seed"])
    except ExtractionError as exc:
        raise ExtractionError(f"{where}: {exc}") from None
    return resolved


def _wav_features(kind: str, s: dict, path) -> tuple[np.ndarray, np.ndarray]:
    """A WAV-kind sample's features and the magnitude spectrogram they were
    computed from, reading the WAV and running the STFT once."""
    wave = read_wav(path, expected_rate=s["sample_rate"])
    spec = stft(wave, s["n_fft"], s["hop"])
    if (s["lld"] if kind == "hsf" else kind) == "stft":
        seq = spec
    else:
        seq = _cepstra(spec, s["n_fft"], wave.sample_rate, s["n_mels"], s["n_mfcc"])
    return (utterance_stats(seq)[None, :] if kind == "hsf" else seq), spec


def _extract_one(config: ExtractorConfig, sample,
                 table: EmbeddingTable | None) -> tuple[np.ndarray, np.ndarray | None]:
    """One sample's features under a resolved config and, for a WAV kind,
    the magnitude spectrogram they were computed from (None otherwise).
    ``sample`` is the input file; glove also takes a token list in its place."""
    if isinstance(sample, list) and config.kind != "glove":
        raise ExtractionError(f"extractor kind {config.kind!r} reads a file, not tokens")
    s = filled_params(config)
    if config.kind in WAV_KINDS:
        return _wav_features(config.kind, s, sample)
    if config.kind == "glove":
        if table is None:
            raise ExtractionError("glove extractor needs an embedding table")
        tokens = sample if isinstance(sample, list) else _read_text(sample).split()
        if s["corrupt_rate"]:
            tokens = corrupt_tokens(tokens, s["corrupt_rate"], s["corrupt_seed"])
        return text_embed_lookup(tokens, table), None
    return ingest_visual_csv(sample, s["columns"]), None


def _pack_blocks(sequences: dict[str, list[np.ndarray]]) -> dict[str, ModalityBlock]:
    """Each modality's (T_i, d) sequences as one zero-padded float32 block:
    the one storage step every feature takes, in extract and predict alike."""
    blocks = {}
    for m, seqs in sequences.items():
        dims = {s.shape[1] for s in seqs}
        if len(dims) != 1:
            raise ExtractionError(f"modality {m!r}: inconsistent feature dims {sorted(dims)}")
        d = dims.pop()
        lengths = np.array([s.shape[0] for s in seqs], dtype=np.int64)
        data = np.zeros((len(seqs), lengths.max(), d), dtype=np.float32)
        for i, s in enumerate(seqs):
            data[i, :lengths[i]] = s.astype(np.float32)
        blocks[m] = ModalityBlock(feature_dim=d, max_len=data.shape[1], data=data,
                                  lengths=lengths)
    return blocks


def _clip_bundle(features: dict[str, np.ndarray]) -> FeatureBundle:
    """One clip's (T, d) features as a one-sample bundle, stored as extract stores them."""
    return FeatureBundle(Manifest("clip", (-1.0, 1.0), [SampleMeta("clip", "test", 0.0)]),
                         _pack_blocks({m: [seq] for m, seq in features.items()}))


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


def _stored(seq: np.ndarray) -> np.ndarray:
    """``seq`` cast to float32 as _pack_blocks casts it; ``seq`` itself where
    that cast overflows, so that _pack_blocks makes its cast, and its
    warning, in the same order as when it casts every sequence."""
    try:
        with np.errstate(over="raise"):
            return seq.astype(np.float32)
    except FloatingPointError:
        return seq


def _extract_rows(root: Path, by_modality: dict[str, ExtractorConfig],
                  tables: dict[str, EmbeddingTable | None], rows: list) -> list:
    """Each ``(sample id, paths)`` row's features, one array per modality
    stored as _pack_blocks stores it, or the message of the ExtractionError
    that failed the row. Any other exception is raised."""
    out = []
    for _, paths in rows:
        try:
            out.append({m: _stored(_extract_one(cfg, root / paths[m], tables[m])[0])
                        for m, cfg in by_modality.items()})
        except ExtractionError as exc:
            out.append(str(exc))
    return out


def _load_tables(root: Path, by_modality: dict[str, ExtractorConfig]
                 ) -> dict[str, EmbeddingTable | None]:
    """Each glove modality's embedding table; None for the other kinds."""
    tables: dict[str, EmbeddingTable | None] = {}
    for m, cfg in by_modality.items():
        if cfg.kind == "glove":
            table_path = filled_params(cfg)["table"]
            if not table_path:
                raise ExtractionError("glove extractor needs params['table'] = path")
            tables[m] = EmbeddingTable.load(root / table_path)  # an absolute path replaces root
        else:
            tables[m] = None
    return tables


# rows per chunk: a chunk's features cross a worker's stdout as one reply, so
# a few clips' worth keeps each reply small and the slots' shares even
_CHUNK_ROWS = 4
# chunks granted to a worker and not yet returned: with a second one queued,
# a worker goes on while this process is busy with its own chunk
_GRANTS = 2


def _serve_chunks(exchange, root: Path, by_modality: dict[str, ExtractorConfig]) -> None:
    """A worker's side of _extract_chunks. Once it has imported what
    extraction needs and loaded the embedding tables, the worker sends None:
    it asks for work. Then, for each chunk it is granted, ``(index, rows)``,
    it sends ``(index, outcomes)``, ``outcomes`` as _extract_rows returns
    them, or ``(index, exception)`` when the chunk raised; a grant of None
    ends the request."""
    from ._heap import keep_freed_memory
    from ._worker import _picklable

    keep_freed_memory()     # as cli_main does in the caller
    if any(cfg.kind in WAV_KINDS for cfg in by_modality.values()):
        import scipy.fft            # what read_wav and _cepstra import where used
        import scipy.io.wavfile     # noqa: F401
    tables = _load_tables(root, by_modality)
    exchange.send(None)
    while (grant := exchange.receive()) is not None:
        k, rows = grant
        try:
            exchange.send((k, _extract_rows(root, by_modality, tables, rows)))
        except Exception as exc:
            exchange.send((k, _picklable(exc, f"the chunk from clip {rows[0][0]!r}")))


def _extract_chunks(root: Path, by_modality: dict[str, ExtractorConfig],
                    tables: dict[str, EmbeddingTable | None], chunks: list) -> list:
    """Every chunk's _extract_rows, in chunk order, from ``min(chunks, CPUs)``
    slots: this process and, for the others, worker processes. This process
    takes the next unclaimed chunk, one at a time; between its chunks it
    reads the workers' replies and grants each worker that has asked for
    work more chunks, up to _GRANTS out at a time. A chunk that raises stops
    further claims, and once the claimed chunks are in, the lowest such
    chunk's exception is raised, as the sequential loop would raise it."""
    from . import trainer

    # replies are polled with select, which takes no pipe on Windows
    slots = min(len(chunks), trainer._usable_cpus()) if os.name == "posix" else 1
    helpers = []
    if slots > 1:
        from . import _worker
        helpers = _worker.workers(slots - 1)
    results: list = [None] * len(chunks)
    claims = iter(range(len(chunks)))
    out: dict = dict.fromkeys(helpers)  # each worker's chunks in grant order; None until it asks
    stop = False

    def take(helper) -> None:
        nonlocal stop
        reply = helper.receive()
        if reply is None:
            out[helper] = []
        else:
            k, results[k] = reply
            out[helper].remove(k)
            stop = stop or isinstance(results[k], Exception)

    helper = None
    try:
        for helper in helpers:
            helper.submit(_serve_chunks, root, by_modality)
        while True:
            for helper in helpers:
                while helper.ready():
                    take(helper)
                while out[helper] is not None and len(out[helper]) < _GRANTS and not stop:
                    k = next(claims, None)
                    if k is None:
                        break
                    out[helper].append(k)
                    helper.send((k, chunks[k]))
            k = None if stop else next(claims, None)
            if k is None:
                break
            try:
                with one_blas_thread():     # as in a worker, whose CPU a second thread would crowd
                    results[k] = _extract_rows(root, by_modality, tables, chunks[k])
            except Exception as exc:
                results[k] = exc
                stop = True
        for helper in helpers:
            while out[helper]:
                take(helper)
            if out[helper] is None:
                helper.unread += 1  # its ask, read before its next request
            helper.send(None)
    except BaseException as exc:
        for other in helpers:   # partway through an exchange: unusable for the next call
            other.kill()
        if helpers and isinstance(exc, _worker.WorkerExited):
            doing = (f"extracting the chunk from clip {chunks[out[helper][0]][0][0]!r}"
                     if out[helper] else "before extracting a chunk")
            raise MsaForgeError(f"the worker process exited with code {exc.args[0]} "
                                f"{doing}") from None
        raise
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


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
    failed id; a ``max_failure_fraction`` outside [0, 1] is rejected before
    any table or clip is read. The manifest records each modality's resolved
    extractor, params as given.

    Rows are extracted in chunks of a few, side by side in ``min(chunks,
    CPUs)`` slots, as :func:`msa_forge.trainer.multi_seed_run` trains seeds:
    this process and worker processes (:mod:`msa_forge._worker`), which get
    the dataset root, the rows' paths and the resolved configs. Rows keep
    the label CSV's order, and the failures, the bundle and its bytes are
    those of extracting every row here, one after another, which is what a
    process restricted to one CPU (``taskset -c 0``) does.
    """
    if not 0.0 <= max_failure_fraction <= 1.0:  # also false for NaN
        raise ExtractionError("max_failure_fraction (--lenient) must be in [0, 1], "
                              f"got {max_failure_fraction}")
    root = Path(dataset_dir)
    configs = [resolve_config(c) for c in configs]
    by_modality: dict[str, ExtractorConfig] = {}
    for cfg in configs:
        if cfg.modality in by_modality:
            raise ExtractionError(f"two extractor configs for modality {cfg.modality!r}")
        by_modality[cfg.modality] = cfg
    if not by_modality:
        raise ExtractionError("no extractor configs given")

    tables = _load_tables(root, by_modality)
    rows = _read_label_csv(label_file, list(by_modality))
    chunks = [[(meta.id, paths) for meta, paths in rows[lo:lo + _CHUNK_ROWS]]
              for lo in range(0, len(rows), _CHUNK_ROWS)]

    sequences: dict[str, list[np.ndarray]] = {m: [] for m in by_modality}
    samples: list[SampleMeta] = []
    failures: dict[str, str] = {}
    outcomes = [row for chunk in _extract_chunks(root, by_modality, tables, chunks)
                for row in chunk]
    for (meta, _), outcome in zip(rows, outcomes):
        if isinstance(outcome, str):
            failures[meta.id] = outcome
            continue
        for m, seq in outcome.items():
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

    bundle = FeatureBundle(
        manifest=Manifest(dataset_name=dataset_name or root.name,
                          label_range=label_range, samples=samples,
                          extractors={m: {"kind": c.kind, "params": dict(c.params)}
                                      for m, c in by_modality.items()}),
        blocks=_pack_blocks(sequences),
    )
    validate_bundle(bundle)
    return bundle
