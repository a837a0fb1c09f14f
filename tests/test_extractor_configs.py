"""Property tests for extractor configs: whatever `{modality: {kind, params}}`
document a user writes, `resolve_config` either rejects it with an
ExtractionError or returns a config whose every param its kind reads, with
the right JSON type; and `extract` exits 0 or 2, never with a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from msa_forge.cli import cli_main
from msa_forge.errors import ExtractionError
from msa_forge.extractors import FEATURE_CODES, ExtractorConfig, resolve_config
from test_extractors import build_toy_dataset

# derandomized, so every run draws the same examples; no example database
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def _int(value) -> bool:
    return type(value) is int


def _optional_int(value) -> bool:
    return value is None or _int(value)


# the params each kind reads and the JSON type each must hold, written out
# independently of the package's table
ORACLE = {
    "stft": {"n_fft": _int, "hop": _int, "sample_rate": _optional_int},
    "mfcc": {"n_fft": _int, "hop": _int, "sample_rate": _optional_int, "n_mels": _int,
             "n_mfcc": _int},
    "hsf": {"n_fft": _int, "hop": _int, "sample_rate": _optional_int, "n_mels": _int,
            "n_mfcc": _int, "lld": lambda v: type(v) is str},
    "glove": {"table": lambda v: v is None or type(v) is str,
              "corrupt_rate": lambda v: type(v) in (int, float), "corrupt_seed": _int},
    "ingest_csv": {"columns": lambda v: v is None or (
        type(v) is list and all(type(c) is str for c in v))},
}
KNOWN_NAMES = sorted({name for table in ORACLE.values() for name in table})

json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
# values a working config would hold, so that draws also reach the clips
plausible = st.one_of(
    st.sampled_from([1, 2, 4, 64, 128, 256, 512, 1024, 2048, 4096, 0, -1, 16000, 8000]),
    st.integers(min_value=-3, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(["mfcc", "stft", "emb.txt", "s0.wav", "labels.csv", ".", "", "AU",
                     "x_"]),
    st.lists(st.sampled_from(["AU", "x_", "", "great"]), max_size=3),
)
values = plausible | json_values
names = st.sampled_from(KNOWN_NAMES) | st.sampled_from(["nfft", "unknown", "N_FFT", ""]) \
    | st.text(max_size=6)
real_kinds = st.sampled_from(sorted(ORACLE) + sorted(FEATURE_CODES))
kinds = real_kinds | st.sampled_from([["mfcc"], {"kind": "mfcc"}, 3, None, ""]) \
    | st.text(max_size=6) | json_values
params = st.dictionaries(names, values, max_size=4) | json_values


def _near_valid(kind):
    """An entry of a real kind or code whose params are names that kind reads."""
    table = ORACLE[FEATURE_CODES[kind][0] if kind in FEATURE_CODES else kind]
    return st.fixed_dictionaries({"kind": st.just(kind), "params": st.dictionaries(
        st.sampled_from(sorted(table)), plausible, max_size=3)})


near_valid = real_kinds.flatmap(_near_valid)
entries = (near_valid | st.fixed_dictionaries({"kind": kinds}, optional={"params": params})
           | json_values)
# documents for the toy set's WAV and token files, many of which extract
toy_documents = st.fixed_dictionaries({}, optional={
    "audio": st.sampled_from(["stft", "mfcc", "hsf", "A2"]).flatmap(_near_valid) | near_valid,
    "text": near_valid | st.fixed_dictionaries(
        {"kind": st.sampled_from(["glove", "T2"]),
         "params": st.fixed_dictionaries({"table": st.just("emb.txt")}, optional={
             "corrupt_rate": st.sampled_from([0, 0.25, 1, 1.5]) | plausible,
             "corrupt_seed": st.sampled_from([0, 3, -1]) | plausible})}),
})
documents = toy_documents | st.dictionaries(
    st.sampled_from(["audio", "text"]) | st.text(max_size=5), entries, max_size=3)


@PROFILE
@given(modality=st.sampled_from(["audio", "text", "vision"]),
       entry=near_valid | st.fixed_dictionaries({"kind": kinds, "params": params}))
def test_resolve_config_rejects_or_returns_well_typed_params(modality, entry):
    kind, given_params = entry["kind"], entry["params"]
    try:
        cfg = resolve_config(ExtractorConfig(modality, kind, given_params))
    except ExtractionError:
        event("rejected")
        return
    event("accepted")
    code_params = FEATURE_CODES[kind][1] if kind in FEATURE_CODES else {}
    assert cfg.modality == modality and cfg.kind in ORACLE
    assert cfg.params == {**code_params, **given_params}  # returned as given
    for name, value in cfg.params.items():
        assert name in ORACLE[cfg.kind], (cfg.kind, name)
        assert ORACLE[cfg.kind][name](value), (cfg.kind, name, value)
    if cfg.kind == "hsf" and cfg.params.get("lld", "mfcc") != "mfcc":
        assert not {"n_mels", "n_mfcc"} & set(cfg.params), cfg.params  # read on MFCCs only


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    return build_toy_dataset(tmp_path_factory.mktemp("configs") / "data", n=2)


@settings(PROFILE, max_examples=120)
@given(doc=documents)
def test_extract_exits_0_or_2_without_a_traceback(toy_dataset, doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["extract", "--data", str(toy_dataset),
                             "--labels", str(toy_dataset / "labels.csv"),
                             "--config", str(config), "--out", str(Path(tmp) / "bundle")])
        event(f"exit {code}")
        assert code in (0, 2), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
