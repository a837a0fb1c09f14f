"""multi_seed_run's worker slots: the same bytes in every slot, failures
raised in seed order, errors that survive pickling, and worker processes
that end with their caller."""

import inspect
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import msa_forge
from msa_forge import _worker, errors, trainer
from msa_forge.bundle import write_bundle
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import get_config_regression, multi_seed_run

SRC = str(Path(msa_forge.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC)

two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and a second CPU for a worker slot")


def small_bundle():
    return make_synthetic_bundle(n_train=24, n_valid=8, n_test=8, seq_len=4, feature_dim=3)


def fast_config(model: str, seeds) -> trainer.TrainConfig:
    config = get_config_regression(model, "synthetic")
    config["max_epochs"] = 2
    config["batch_size"] = 8
    config.seeds = list(seeds)
    return config


def error_instances():
    """One instance of every exception class errors.py defines."""
    for name, cls in vars(errors).items():
        if inspect.isclass(cls) and issubclass(cls, BaseException) \
                and cls.__module__ == errors.__name__:
            if cls is errors.TrainingDivergedError:
                yield cls(3, "post.w", "loss is non-finite at epoch 3")
            else:
                yield cls(f"a {name}")


@pytest.mark.parametrize("exc", list(error_instances()), ids=lambda e: type(e).__name__)
def test_every_error_class_survives_pickling(exc):
    back = pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(back) is type(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


class TwoArgumentError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def test_an_error_that_does_not_unpickle_crosses_as_msa_forge_error():
    exc = _worker._picklable(TwoArgumentError(5, "bad"), 7)
    assert type(exc) is errors.MsaForgeError
    assert "seed 7" in str(exc) and "TwoArgumentError" in str(exc)
    done = errors.TrainingDivergedError(2, None, "loss is non-finite at epoch 2")
    assert _worker._picklable(done, 7) is done


# 3 seeds of a pooled and a recurrent model; prints whether a worker ran
SLOT_RUNS = """
import os, sys
cpus = sorted(os.sched_getaffinity(0))[:int(sys.argv[2])]
os.sched_setaffinity(0, cpus)
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import get_config_regression, multi_seed_run
bundle = make_synthetic_bundle(n_train=64, n_valid=16, n_test=16, seq_len=6, feature_dim=4)
for model in ("tfn", "mfn"):
    config = get_config_regression(model, "synthetic")
    config["max_epochs"] = 2
    config["batch_size"] = 16
    config.seeds = [1111, 1112, 1113]
    multi_seed_run(config, bundle, run_dir=os.path.join(sys.argv[1], model))
print("msa_forge._worker" in sys.modules)
"""


@two_cpus
def test_every_file_equal_in_one_and_two_slots(tmp_path):
    """On one CPU the seeds train one after another in the calling process;
    on two, seed 1112 trains in a worker. Every file is equal byte for byte,
    aggregate.json included."""
    used_worker = {}
    for cpus in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", SLOT_RUNS, str(tmp_path / cpus), cpus],
                              env=ENV, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        used_worker[cpus] = done.stdout.split()[-1]
    assert used_worker == {"1": "False", "2": "True"}
    files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*")
                   if p.is_file())
    assert len(files) == 2 * (1 + 3 * 5)    # aggregate.json, and 5 files per seed
    assert files == sorted(p.relative_to(tmp_path / "2") for p in (tmp_path / "2").rglob("*")
                           if p.is_file())
    for rel in files:
        assert (tmp_path / "1" / rel).read_bytes() == (tmp_path / "2" / rel).read_bytes(), rel


def _complete(run_dir: Path) -> bool:
    return all((run_dir / name).is_file()
               for name in ("config.json", "history.jsonl", "reps.bin", "checkpoint/params.bin"))


class TestFailingSeeds:
    """Seeds 0 and 2 train in this process and seed 1 in a worker (two slots).
    A file where a seed's run directory belongs fails that seed after its
    training, with FileExistsError; a directory where its history.jsonl
    belongs fails it with IsADirectoryError."""

    SEEDS = (21, 22, 23)

    @pytest.fixture(autouse=True)
    def two_slots(self, monkeypatch):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)

    def test_results_come_in_seed_order(self, tmp_path):
        agg = multi_seed_run(fast_config("lf_dnn", self.SEEDS), small_bundle(),
                             run_dir=tmp_path)
        assert [r.seed for r in agg.per_seed] == list(self.SEEDS)
        assert [r.run_dir for r in agg.per_seed] == [str(tmp_path / f"seed_{s}")
                                                     for s in self.SEEDS]

    def test_a_failure_in_this_process_is_raised_and_others_stay(self, tmp_path):
        (tmp_path / "seed_23").write_text("in the way")
        with pytest.raises(FileExistsError):
            multi_seed_run(fast_config("lf_dnn", self.SEEDS), small_bundle(), run_dir=tmp_path)
        assert _complete(tmp_path / "seed_21") and _complete(tmp_path / "seed_22")
        assert not (tmp_path / "aggregate.json").exists()

    def test_the_lowest_index_failure_is_raised_with_its_class(self, tmp_path):
        (tmp_path / "seed_22" / "history.jsonl").mkdir(parents=True)   # the worker's seed
        (tmp_path / "seed_23").write_text("in the way")                  # this process's
        with pytest.raises(IsADirectoryError, match="history.jsonl"):
            multi_seed_run(fast_config("lf_dnn", self.SEEDS), small_bundle(), run_dir=tmp_path)
        assert _complete(tmp_path / "seed_21")

    def test_a_worker_failure_leaves_the_worker_usable(self, tmp_path):
        (tmp_path / "a" / "seed_22" / "history.jsonl").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            multi_seed_run(fast_config("lf_dnn", self.SEEDS), small_bundle(),
                           run_dir=tmp_path / "a")
        agg = multi_seed_run(fast_config("lf_dnn", self.SEEDS), small_bundle(),
                             run_dir=tmp_path / "b")
        assert all(_complete(tmp_path / "b" / f"seed_{s}") for s in self.SEEDS)
        assert len(agg.per_seed) == 3

    def test_a_worker_trains_under_the_callers_warning_filters(self, tmp_path):
        # at this learning rate seed 1 trains without a warning and seed 20,
        # in the worker, overflows in its first epoch
        config = fast_config("lf_dnn", (1, 20))
        config["max_epochs"] = 3
        config["optimizer.lr"] = 4e8
        bundle = make_synthetic_bundle(n_train=16, n_valid=8, n_test=8, seq_len=4,
                                       feature_dim=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                multi_seed_run(config, bundle, run_dir=tmp_path / "a")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(errors.TrainingDivergedError, match="epoch 1"):
                multi_seed_run(config, bundle, run_dir=tmp_path / "b")

    def test_a_worker_that_dies_names_its_seed(self, tmp_path, monkeypatch):
        submit = _worker.Worker.submit

        def submit_and_die(worker, *args):
            submit(worker, *args)
            worker.proc.kill()

        monkeypatch.setattr(_worker.Worker, "submit", submit_and_die)
        with pytest.raises(errors.MsaForgeError, match="seed 22 exited"):
            multi_seed_run(fast_config("lf_dnn", self.SEEDS), small_bundle(),
                           run_dir=tmp_path / "a")
        monkeypatch.setattr(_worker.Worker, "submit", submit)
        multi_seed_run(fast_config("lf_dnn", self.SEEDS), small_bundle(), run_dir=tmp_path / "b")
        assert all(_complete(tmp_path / "b" / f"seed_{s}") for s in self.SEEDS)


@two_cpus
def test_divergence_in_a_worker_slot_exits_3_without_a_traceback(tmp_path):
    # at this learning rate seed 1 trains and seed 20 diverges in its first epoch
    bundle_dir = tmp_path / "bundle"
    write_bundle(make_synthetic_bundle(n_train=16, n_valid=8, n_test=8, seq_len=4,
                                       feature_dim=3), bundle_dir)
    done = subprocess.run(
        [sys.executable, "-m", "msa_forge.cli", "train", "--bundle", str(bundle_dir),
         "--model", "lf_dnn", "--seeds", "1,20", "--out", str(tmp_path / "runs"),
         "--set", "max_epochs=3", "--set", "batch_size=8", "--set", "optimizer.lr=4e8"],
        env=ENV, capture_output=True, text=True, timeout=300)
    assert done.returncode == 3, done.stderr
    assert "non-finite at epoch 1" in done.stderr
    assert "Traceback" not in done.stderr
    (run,) = (tmp_path / "runs" / "lf_dnn").iterdir()
    assert _complete(run / "seed_1")


@two_cpus
def test_worker_ends_with_its_caller():
    code = ("from msa_forge import _worker\n"
            "from msa_forge.synthetic import make_synthetic_bundle\n"
            "from msa_forge.trainer import get_config_regression, multi_seed_run\n"
            "config = get_config_regression('lf_dnn', 'synthetic')\n"
            "config['max_epochs'] = 1\n"
            "config.seeds = [1, 2]\n"
            "multi_seed_run(config, make_synthetic_bundle(n_train=16, n_valid=8, n_test=8,"
            " seq_len=4, feature_dim=3))\n"
            "print(_worker.workers(1)[0].proc.pid)\n")
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    pid = int(done.stdout.split()[-1])
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except FileNotFoundError:
        cmdline = b""
    assert b"msa_forge._worker" not in cmdline
