"""Train all ten models on the synthetic bundle and print the sha256 of each
run's ``history.jsonl``, ``params.bin`` and ``reps.bin``, with the identity
of the arithmetic that produced them.

    python tests/golden_runs.py OUT_DIR f32:3 f64:3 [--write]

Each ``DTYPE:EPOCHS`` spec trains every model for that many epochs at seed
1111 into ``OUT_DIR/DTYPE-EPOCHS/MODEL``. Training pins BLAS to one thread
itself; run it with ``OPENBLAS_NUM_THREADS=1`` all the same, so that nothing
else in the process starts BLAS threads. The JSON on stdout is
``{"blas": IDENTITY, "runs": {SPEC: {MODEL: {FILE: SHA256}}}}``.

``--write`` stores the ``*:3`` runs as the entry for IDENTITY in
``tests/golden_artifacts.json`` (identity -> dtype -> model -> file ->
sha256), which ``test_trainer.py::TestGoldenArtifacts`` holds every run to.
A change that moves any of these bytes rewrites the table in the same diff.
To record another OpenBLAS core of this machine, set ``OPENBLAS_CORETYPE``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
from pathlib import Path

ALL_MODELS = ("lf_dnn", "lmf", "tfn", "misa", "mtfn", "mlf_dnn", "mlmf", "ef_lstm", "mult",
              "mfn")
GOLDEN_SEED = 1111
GOLDEN_EPOCHS = 3
FILES = ("history.jsonl", "checkpoint/params.bin", "reps.bin")
TABLE = Path(__file__).with_name("golden_artifacts.json")


def blas_identity() -> str | None:
    """numpy's version and highest SIMD dispatch target, then the
    ``get_config`` string and core name of the OpenBLAS that numpy loaded;
    None where no loaded OpenBLAS exports them."""
    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:     # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    from msa_forge import _blas

    mode = getattr(os, "RTLD_NOLOAD", None)
    if mode is None:
        return None
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(site.glob("numpy.libs/*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path), mode=mode | os.RTLD_LAZY)
        except OSError:
            continue
        for prefix, suffix in _blas._SYMBOLS:
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            if config is not None and core is not None:
                config.argtypes = core.argtypes = []
                config.restype = core.restype = ctypes.c_char_p
                return (f"numpy {np.__version__} {simd[-1] if simd else 'baseline'}"
                        f" | {config().decode()} | {core().decode()}")
    return None


def digest(run_dir: Path) -> dict[str, str]:
    return {Path(name).name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in FILES}


def main(argv: list[str]) -> None:
    from msa_forge.synthetic import make_synthetic_bundle
    from msa_forge.trainer import get_config_regression, train_run

    write = "--write" in argv
    out, *specs = [a for a in argv if a != "--write"]
    bundle = make_synthetic_bundle()
    runs = {}
    for spec in specs:
        dtype, epochs = spec.split(":")
        runs[spec] = {}
        for model in ALL_MODELS:
            config = get_config_regression(model, "synthetic")
            config["max_epochs"] = int(epochs)
            config["dtype"] = dtype
            run_dir = Path(out) / f"{dtype}-{epochs}" / model
            train_run(config, bundle, GOLDEN_SEED, run_dir=run_dir)
            runs[spec][model] = digest(run_dir)
    result = {"blas": blas_identity(), "runs": runs}
    if write:
        if result["blas"] is None:
            sys.exit("no OpenBLAS identity to file the hashes under")
        table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
        table[result["blas"]] = {spec.split(":")[0]: hashes for spec, hashes in runs.items()
                                 if spec.endswith(f":{GOLDEN_EPOCHS}")}
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
