"""Start-up cost guard: importing the package, calling the sigmoid, and
training a pooled or a recurrent model through the CLI load no scipy
module. Each case runs in a fresh interpreter, since this process has
scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import msa_forge

SRC = str(Path(msa_forge.__file__).resolve().parents[1])

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def loaded_scipy(code: str, cwd) -> list[str]:
    """The scipy modules loaded after running ``code`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code + REPORT], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert loaded_scipy("import msa_forge, msa_forge.cli", tmp_path) == []


TRAIN = """
from msa_forge.bundle import write_bundle
from msa_forge.cli import cli_main
from msa_forge.synthetic import make_synthetic_bundle
write_bundle(make_synthetic_bundle(n_train=16, n_valid=8, n_test=8, seq_len=4,
                                   feature_dim=3), "bundle")
for model in {models!r}:
    assert cli_main(["train", "--bundle", "bundle", "--model", model, "--seeds", "1",
                     "--out", "runs", "--set", "max_epochs=1", "--set", "batch_size=8"]) == 0
"""


def test_pooled_training_through_the_cli_loads_no_scipy(tmp_path):
    assert loaded_scipy(TRAIN.format(models=["lf_dnn"]), tmp_path) == []
    assert list((tmp_path / "runs" / "lf_dnn").glob("*/seed_1/checkpoint/params.bin"))


def test_sigmoid_and_recurrent_training_load_no_scipy(tmp_path):
    code = ("import numpy as np\nfrom msa_forge import autodiff as ad\n"
            "ad.sigmoid(np.zeros(3))\n" + TRAIN.format(models=["ef_lstm", "mfn"]))
    assert loaded_scipy(code, tmp_path) == []
    for model in ("ef_lstm", "mfn"):
        assert list((tmp_path / "runs" / model).glob("*/seed_1/checkpoint/params.bin"))
