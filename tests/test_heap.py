"""Heap reuse (``msa_forge._heap``): training steps keep their pages, the
helper steps aside for the caller's malloc settings and for C libraries
without ``mallopt``, importing the package changes nothing, and reused
(stale) memory never reaches a result."""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import msa_forge
from msa_forge import _heap

SRC = str(Path(msa_forge.__file__).resolve().parents[1])
MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_",
              "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES")
ZOO = ("lf_dnn", "ef_lstm", "tfn", "lmf", "mfn", "mult", "misa", "mlf_dnn", "mtfn", "mlmf")


def run_python(code: str, *args, **env) -> str:
    """Run ``code`` in a fresh interpreter at one BLAS thread, with no
    glibc malloc setting of the caller's, and return its stdout."""
    base = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    base.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **env)
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=base,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def mallopt_calls(monkeypatch):
    """The helper as a new process sees it, with ``mallopt`` recorded."""
    for name in MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(_heap, "_applied", False)
    calls = []
    monkeypatch.setattr(_heap, "_mallopt", lambda: lambda *a: calls.append(a))
    return calls


def test_sets_both_thresholds_once(mallopt_calls):
    _heap.keep_freed_memory()
    _heap.keep_freed_memory()
    assert mallopt_calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("name, value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TOP_PAD_", "0"),
    ("MALLOC_MMAP_MAX_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.check=3:glibc.malloc.mmap_threshold=4096"),
    ("GLIBC_TUNABLES", "glibc.malloc.top_pad=0"),
    ("GLIBC_TUNABLES", "glibc.malloc.mmap_max=0"),
])
def test_caller_malloc_settings_win(mallopt_calls, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    _heap.keep_freed_memory()
    assert mallopt_calls == []


def test_other_tunables_do_not_count_as_tuning(mallopt_calls, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.tcache_count=0:glibc.malloc.check=3")
    monkeypatch.setenv("MALLOC_PERTURB_", "165")
    _heap.keep_freed_memory()
    assert len(mallopt_calls) == 2


def no_symbol_table(name):
    raise OSError("cannot open the process's own symbol table")


@pytest.mark.parametrize("cdll", [lambda name: object(), no_symbol_table],
                         ids=["libc-without-mallopt", "no-symbol-table"])
def test_no_mallopt_is_a_silent_no_op(monkeypatch, cdll):
    for name in MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(_heap, "_applied", False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert _heap._mallopt() is None
    _heap.keep_freed_memory()
    assert _heap._applied


IMPORT_THEN_CLI = """
import contextlib, ctypes, io, json
calls = []
real_cdll = ctypes.CDLL
class Libc:
    def mallopt(self, param, value):
        calls.append([param, value])
        return 1
ctypes.CDLL = lambda name, *a, **k: Libc() if name is None else real_cdll(name, *a, **k)
import msa_forge, msa_forge.cli
after_import = list(calls)
with contextlib.redirect_stdout(io.StringIO()):
    msa_forge.cli.cli_main(["--help"])
    msa_forge.cli.cli_main(["--help"])
print(json.dumps([after_import, calls]))
"""


def test_import_leaves_the_allocator_alone():
    after_import, after_cli = json.loads(run_python(IMPORT_THEN_CLI).strip().splitlines()[-1])
    assert after_import == []
    assert after_cli == [[-3, 32 << 20], [-1, 64 << 20]]


MFN_STEP_FAULTS = """
import resource
from dataclasses import replace
import numpy as np
from msa_forge import autodiff as ad
from msa_forge.bundle import split_view
from msa_forge.models import build_model
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import Adam, _batches, clip_global_norm, get_config_regression, train_run

bundle = make_synthetic_bundle()
config = get_config_regression("mfn", "synthetic")
config["max_epochs"] = 1
train_run(config, bundle, 1111)     # the entry point applies the helper
train = split_view(bundle, "train")
model = build_model(replace(config.model, seed=1111,
                            feature_dims={m: b.feature_dim for m, b in bundle.blocks.items()}))
optimizer = Adam(model.params, config.optimizer)
order = np.random.default_rng(0).permutation(train.n)
for epoch in range(2):              # the first epoch warms up
    faults = steps = 0
    for batch in _batches(train, order, config.batch_size, model.dtype):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with ad.Tape() as tape:
            out = model.forward(batch, train=True)
            loss = model.loss(out, batch)
        ad.backward(tape, loss, model.params)
        del tape, out, loss
        clip_global_norm(model.params, config.grad_clip)
        optimizer.step()
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        steps += 1
print(faults / steps)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="minor-fault counts and mallopt are Linux/glibc specific")
def test_mfn_training_steps_reuse_their_pages():
    # ~1,470 minor faults per 32-row step when each step's activations go
    # back to the OS at the end of the step
    per_step = float(run_python(MFN_STEP_FAULTS).strip().splitlines()[-1])
    assert per_step < 50


ZOO_ONE_EPOCH = """
import sys
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import get_config_regression, train_run
bundle = make_synthetic_bundle(n_train=64, n_valid=16, n_test=16)
for model in {zoo!r}:
    config = get_config_regression(model, "synthetic")
    config["max_epochs"] = 1
    train_run(config, bundle, 1111, run_dir=f"{{sys.argv[1]}}/{{model}}")
"""


def test_stale_heap_bytes_never_reach_the_artifacts(tmp_path):
    """glibc fills every allocation with junk under MALLOC_PERTURB_, so a
    read of uninitialised memory would change the bytes written."""
    code = ZOO_ONE_EPOCH.format(zoo=ZOO)
    run_python(code, tmp_path / "plain")
    run_python(code, tmp_path / "perturbed", MALLOC_PERTURB_="165")
    for model in ZOO:
        for name in ("history.jsonl", "checkpoint/params.bin", "reps.bin"):
            plain, perturbed = (tmp_path / side / model / name
                                for side in ("plain", "perturbed"))
            assert plain.read_bytes() == perturbed.read_bytes(), (model, name)
