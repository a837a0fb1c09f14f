"""Property tests for the CLI's numeric flags and bundle manifests: whatever
number or string a user passes to `perturb`/`eval --tagged` `--snr-db`,
`--seed`, or `extract` `--lenient`/`--label-range`, and whatever JSON value of
another type a bundle's or a checkpoint's manifest, an `aggregate.json` or a
`tagged_report.json` holds in place of one of its fields, the command exits
0, 1, 2 or 3 and prints no traceback. Every
failure these found has a named regression test in test_cli.py,
test_robustness.py, test_extractors.py or test_bundle.py."""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from msa_forge.bundle import write_bundle
from msa_forge.cli import cli_main
from msa_forge.synthetic import make_synthetic_bundle
from test_extractors import build_toy_dataset

# derandomized, so every run draws the same examples; no example database
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# strings argparse may or may not read as a number
odd_text = st.sampled_from(["", " ", "1e999", "-1e999", "0x10", "1_0", "--", "abc", "1,",
                            "nan", "-nan", "+inf", "Infinity", "-0", "1e-400"]) \
    | st.text(max_size=6)
floats = st.floats()  # NaN, +-inf, subnormals and huge values included
numbers = st.one_of(st.floats(-60, 60).map(repr), floats.map(repr), st.integers().map(str),
                    odd_text)
seeds = st.one_of(st.integers(0, 2 ** 32).map(str), st.integers().map(str),
                  st.sampled_from(["-1", str(2 ** 64), str(2 ** 200)]), odd_text)


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def bundle_and_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_bundle(make_synthetic_bundle(n_train=12, n_valid=4, n_test=6, seq_len=4,
                                       feature_dim=3, seed=0), root / "bundle")
    assert cli_main(["train", "--bundle", str(root / "bundle"), "--model", "lf_dnn",
                     "--seeds", "7", "--out", str(root / "runs"), "--set", "max_epochs=1",
                     "--set", "batch_size=8"]) == 0
    (checkpoint,) = (root / "runs" / "lf_dnn").glob("*/seed_7/checkpoint")
    return root / "bundle", checkpoint


@PROFILE
@given(snr_db=numbers, seed=seeds)
def test_perturb_numeric_flags(bundle_and_checkpoint, snr_db, seed):
    bundle, _ = bundle_and_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        _run(["perturb", "--bundle", str(bundle), "--out", str(Path(tmp) / "out"),
              f"--snr-db={snr_db}", "--target", "audio", f"--seed={seed}"])


@PROFILE
@given(snr_db=numbers, seed=seeds, drop=st.booleans())
def test_eval_tagged_numeric_flags(bundle_and_checkpoint, snr_db, seed, drop):
    bundle, checkpoint = bundle_and_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        _run(["eval", "--checkpoint", str(checkpoint), "--bundle", str(bundle),
              "--out", str(Path(tmp) / "eval"), "--tagged", f"--snr-db={snr_db}",
              f"--seed={seed}", *(["--drop", "vision"] if drop else [])])


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    root = build_toy_dataset(tmp_path_factory.mktemp("fuzz_extract") / "data", n=3, corrupt=1)
    (root / "extract.json").write_text(json.dumps(
        {"audio": {"kind": "mfcc"}, "text": {"kind": "glove", "params": {"table": "emb.txt"}}}))
    return root


bounds = floats.map(repr) | st.sampled_from(["-1", "1", "-3", "3", "0"])
label_ranges = st.tuples(bounds, bounds).map(",".join) | odd_text


@PROFILE
@given(lenient=st.none() | numbers | st.sampled_from(["0", "0.34", "0.5", "1"]),
       label_range=st.none() | label_ranges)
def test_extract_numeric_flags(toy_dataset, lenient, label_range):
    flags = [*([f"--lenient={lenient}"] if lenient is not None else []),
             *([f"--label-range={label_range}"] if label_range is not None else [])]
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(["extract", "--data", str(toy_dataset),
                     "--labels", str(toy_dataset / "labels.csv"),
                     "--config", str(toy_dataset / "extract.json"),
                     "--out", str(Path(tmp) / "b"), *flags])
    try:
        ends = [float(x) for x in label_range.split(",")]
    except (AttributeError, ValueError):
        ends = []
    if len(ends) == 2 and not all(math.isfinite(x) for x in ends):
        assert code != 0, label_range
    try:
        fraction = float(lenient)
    except (TypeError, ValueError):
        return
    if not 0.0 <= fraction <= 1.0:  # NaN included
        assert code != 0, lenient


# any JSON value: scalars (NaN and +-inf included, which Python's json reads
# back) and small arrays and objects of them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _field_paths(node, path=()):
    """The path (keys and list indices) to every value in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


def _replace_field(data, doc, paths) -> None:
    """Replace the value at one of ``paths`` in ``doc`` with a drawn JSON
    value of another type."""
    path = data.draw(st.sampled_from(sorted(paths, key=str)), label="field")
    *parents, key = path
    owner = doc
    for step in parents:
        owner = owner[step]
    kind = _json_type(owner[key])
    owner[key] = data.draw(json_values.filter(lambda v: _json_type(v) != kind), label="value")


@settings(PROFILE, max_examples=300)  # each example runs in a few ms
@given(data=st.data())
def test_corrupt_manifest_fields(bundle_and_checkpoint, data):
    bundle, checkpoint = bundle_and_checkpoint
    doc = json.loads((bundle / "manifest.json").read_text())
    doc["extractors"] = {"audio": {"kind": "mfcc", "params": {"n_mfcc": 20}}}
    _replace_field(data, doc, _field_paths(doc))
    with tempfile.TemporaryDirectory() as tmp:
        corrupt = Path(tmp) / "bundle"
        shutil.copytree(bundle, corrupt)
        (corrupt / "manifest.json").write_text(json.dumps(doc))
        _run(["perturb", "--bundle", str(corrupt), "--out", str(Path(tmp) / "p"),
              "--drop", "vision"])
        _run(["eval", "--checkpoint", str(checkpoint), "--bundle", str(corrupt),
              "--out", str(Path(tmp) / "e"), "--split", "all", "--tagged", "--snr-db", "0",
              "--drop", "vision"])


@settings(PROFILE, max_examples=300)
@given(data=st.data())
def test_corrupt_checkpoint_manifest_fields(bundle_and_checkpoint, data):
    bundle, checkpoint = bundle_and_checkpoint
    doc = json.loads((checkpoint / "manifest.json").read_text())
    _replace_field(data, doc, [path for path in _field_paths(doc)
                               if path[0] in ("model_name", "config", "params")])
    with tempfile.TemporaryDirectory() as tmp:
        corrupt = Path(tmp) / "checkpoint"
        shutil.copytree(checkpoint, corrupt)
        (corrupt / "manifest.json").write_text(json.dumps(doc))
        _run(["eval", "--checkpoint", str(corrupt), "--bundle", str(bundle),
              "--out", str(Path(tmp) / "e")])


@pytest.fixture(scope="module")
def report_docs(bundle_and_checkpoint, tmp_path_factory):
    """The aggregate.json of the fixture's training run and a tagged_report.json
    of its checkpoint, by file name."""
    bundle, checkpoint = bundle_and_checkpoint
    out = tmp_path_factory.mktemp("fuzz_report") / "eval"
    assert cli_main(["eval", "--checkpoint", str(checkpoint), "--bundle", str(bundle),
                     "--out", str(out), "--split", "all", "--tagged", "--drop", "vision"]) == 0
    return {name: json.loads(path.read_text())
            for name, path in (("aggregate.json", checkpoint.parent.parent / "aggregate.json"),
                               ("tagged_report.json", out / "tagged_report.json"))}


@settings(PROFILE, max_examples=300)
@given(data=st.data())
def test_corrupt_report_fields(report_docs, data):
    style, name = data.draw(st.sampled_from([("table4", "aggregate.json"),
                                             ("table5", "tagged_report.json")]), label="input")
    doc = json.loads(json.dumps(report_docs[name]))
    _replace_field(data, doc, _field_paths(doc))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / name).write_text(json.dumps(doc))
        assert _run(["report", "--runs", tmp, "--style", style]) in (0, 2)
