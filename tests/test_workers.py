"""The worker slots of multi_seed_run and run_dataset: the same bytes in
every slot, failures raised as the sequential loop raises them, errors that
survive pickling, and worker processes that end with their caller."""

import inspect
import logging
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile
from test_extractors import build_toy_dataset

import msa_forge
from msa_forge import _worker, errors, extractors, trainer
from msa_forge.bundle import read_bundle, write_bundle
from msa_forge.cli import cli_main
from msa_forge.extractors import ExtractorConfig, run_dataset
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
    exc = _worker._picklable(TwoArgumentError(5, "bad"), "seed 7")
    assert type(exc) is errors.MsaForgeError
    assert "seed 7" in str(exc) and "TwoArgumentError" in str(exc)
    done = errors.TrainingDivergedError(2, None, "loss is non-finite at epoch 2")
    assert _worker._picklable(done, "seed 7") is done


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


# ---------------------------------------------------------------------------
# run_dataset's slots
# ---------------------------------------------------------------------------

CONFIGS = [ExtractorConfig("audio", "mfcc", {"n_fft": 256, "hop": 128, "n_mels": 10,
                                             "n_mfcc": 4}),
           ExtractorConfig("text", "glove", {"table": "emb.txt"})]
EXTRACT_JSON = ('{"audio": {"kind": "mfcc", "params": {"n_fft": 256, "hop": 128, '
                '"n_mels": 10, "n_mfcc": 4}}, "text": {"kind": "glove", '
                '"params": {"table": "emb.txt"}}}')


def twelve_clips(root: Path, garbage=(), overflowing=(), stuck=()) -> Path:
    """build_toy_dataset's clips s0..s11: three chunks of four rows. The
    ``garbage`` clips' WAVs are unreadable; the ``overflowing`` clips' are
    stereo float64 at 1e308, whose downmix overflows (a RuntimeWarning) and
    then fails as non-finite; the ``stuck`` clips' are FIFOs that nothing
    writes, so opening one waits for ever."""
    build_toy_dataset(root, n=12)
    for i in garbage:
        (root / f"s{i}.wav").write_bytes(b"garbage")
    for i in overflowing:
        scipy.io.wavfile.write(root / f"s{i}.wav", 16000, np.full((4000, 2), 1e308))
    for i in stuck:
        (root / f"s{i}.wav").unlink()
        os.mkfifo(root / f"s{i}.wav")
    return root


class TestExtractionSlots:
    """One slot extracts every chunk here. With two, a warm worker takes
    chunk 1 (clips s4..s7) and one of chunks 0 and 2: this process holds its
    first chunk until the worker has asked for work, and a worker that asks
    is granted two chunks at once."""

    @pytest.fixture
    def slots(self, monkeypatch, tmp_path):
        """``slots(n)`` forces n slots, and returns the first clip id of
        each chunk this process extracts from then on."""
        warm = twelve_clips(tmp_path / "warm")
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        run_dataset(warm, CONFIGS, warm / "labels.csv")
        _worker.workers(1)      # reads its request for work: the worker is warm
        real = extractors._extract_rows

        def force(n: int) -> list:
            done = []

            def extract_rows(root, by_modality, tables, rows):
                if n > 1 and not done:
                    time.sleep(0.5)
                done.append(rows[0][0])
                return real(root, by_modality, tables, rows)

            monkeypatch.setattr(trainer, "_usable_cpus", lambda: n)
            monkeypatch.setattr(extractors, "_extract_rows", extract_rows)
            return done
        return force

    def test_bundle_bytes_equal_in_one_and_two_slots(self, tmp_path, slots):
        root = twelve_clips(tmp_path / "data")
        for n in (1, 2):
            done = slots(n)
            write_bundle(run_dataset(root, CONFIGS, root / "labels.csv"), tmp_path / str(n))
            assert done == ["s0", "s4", "s8"] if n == 1 else len(done) == 1 and done != ["s4"]
        files = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "2").iterdir()) and files
        for name in files:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_a_bad_clip_in_each_share_fails_as_in_one_slot(self, tmp_path, slots, capsys,
                                                           caplog):
        root = twelve_clips(tmp_path / "data", garbage=(1, 6, 9))    # one in each chunk
        (tmp_path / "extract.json").write_text(EXTRACT_JSON)
        outcomes = {}
        for n in (1, 2):
            runs = []
            for flags in ([], ["--lenient", "0.25"], ["--lenient", "0.2"]):
                slots(n)
                out = tmp_path / f"out{n}{len(runs)}"
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="msa_forge.extractors"):
                    code = cli_main(["extract", "--data", str(root), "--labels",
                                     str(root / "labels.csv"), "--config",
                                     str(tmp_path / "extract.json"), "--out", str(out), *flags])
                samples = read_bundle(out).manifest.samples if out.is_dir() else None
                runs.append((code, capsys.readouterr().err, caplog.text, samples))
            outcomes[n] = runs
        assert outcomes[1] == outcomes[2]
        (strict, strict_err, _, _), (lenient, _, log, samples), (too_strict, _, _, _) = outcomes[2]
        assert (strict, lenient, too_strict) == (2, 0, 2)
        assert strict_err.startswith("error: 3/12 samples failed")
        assert strict_err.index("s1: ") < strict_err.index("s6: ") < strict_err.index("s9: ")
        assert "Traceback" not in strict_err
        assert "dropped 3 failed sample(s)" in log
        assert [s.id for s in samples] == [f"s{i}" for i in range(12) if i not in (1, 6, 9)]

    def test_the_callers_warning_filters_hold_in_the_worker(self, tmp_path, slots):
        # tier-1 turns RuntimeWarning into an error (pyproject's filterwarnings)
        root = twelve_clips(tmp_path / "data", overflowing=(5,))
        done = slots(2)
        with pytest.raises(RuntimeWarning, match="overflow"):
            run_dataset(root, CONFIGS, root / "labels.csv")
        assert "s4" not in done
        slots(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(errors.ExtractionError, match="s5: .*non-finite"):
                run_dataset(root, CONFIGS, root / "labels.csv")

    def test_a_worker_killed_mid_chunk_names_the_chunks_first_clip(self, tmp_path, slots):
        # s5.wav is a FIFO with no writer: the worker that opens it, in chunk 1,
        # waits there until it is killed
        root = twelve_clips(tmp_path / "data", stuck=(5,))
        slots(2)
        kill = threading.Timer(1.2, _worker.workers(1)[0].proc.kill)
        kill.start()
        try:
            with pytest.raises(errors.MsaForgeError,
                               match="code -9 extracting the chunk from clip 's4'"):
                run_dataset(root, CONFIGS, root / "labels.csv")
        finally:
            kill.cancel()
        again = twelve_clips(tmp_path / "again")
        assert run_dataset(again, CONFIGS, again / "labels.csv").n == 12   # a new worker


# ``msa-forge extract`` with a worker killed while it waits in chunk 1's FIFO
KILLED_WORKER_CLI = """
import os, sys, threading, time
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from msa_forge import _worker, cli, extractors
from msa_forge.extractors import ExtractorConfig, run_dataset
warm, root = sys.argv[1:3]
run_dataset(warm, [ExtractorConfig("audio", "mfcc", {"n_fft": 256, "hop": 128, "n_mels": 10,
                                                      "n_mfcc": 4}),
                   ExtractorConfig("text", "glove", {"table": "emb.txt"})],
            os.path.join(warm, "labels.csv"))
threading.Timer(1.2, _worker.workers(1)[0].proc.kill).start()
extract_rows = extractors._extract_rows
def slow_extract_rows(*args):
    time.sleep(0.5)
    return extract_rows(*args)
extractors._extract_rows = slow_extract_rows
sys.argv[1:] = ["extract", "--data", root, "--labels", os.path.join(root, "labels.csv"),
                "--config", sys.argv[3], "--out", sys.argv[4]]
sys.exit(cli.main())
"""


@two_cpus
def test_a_killed_worker_makes_extract_exit_3_without_a_traceback(tmp_path):
    warm = twelve_clips(tmp_path / "warm")
    root = twelve_clips(tmp_path / "data", stuck=(5,))
    (tmp_path / "extract.json").write_text(EXTRACT_JSON)
    done = subprocess.run([sys.executable, "-c", KILLED_WORKER_CLI, str(warm), str(root),
                           str(tmp_path / "extract.json"), str(tmp_path / "out")],
                          env=ENV, capture_output=True, text=True, timeout=300)
    assert done.returncode == 3, done.stderr
    assert "exited with code -9 extracting the chunk from clip 's4'" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


# the worker sleeps through its start-up; this process extracts every chunk
SLOW_START = """
import os, sys, time
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
os.environ["MSA_FORGE_TEST_SLOW_START"] = "60"     # read by the worker's sitecustomize
from msa_forge import _worker, extractors
from msa_forge.extractors import ExtractorConfig, run_dataset
done = []
extract_rows = extractors._extract_rows
extractors._extract_rows = lambda *args: done.append(1) or extract_rows(*args)
root = sys.argv[1]
bundle = run_dataset(root, [ExtractorConfig("audio", "mfcc", {"n_fft": 256, "hop": 128,
                                                              "n_mels": 10, "n_mfcc": 4})],
                     os.path.join(root, "labels.csv"))
print(bundle.n, len(done), _worker._pool[0].proc.pid)
"""


@two_cpus
def test_exit_does_not_wait_on_a_worker_that_got_no_chunk(tmp_path):
    root = twelve_clips(tmp_path / "data")
    (tmp_path / "site").mkdir()
    (tmp_path / "site" / "sitecustomize.py").write_text(
        "import os, time\n"
        "time.sleep(float(os.environ.get('MSA_FORGE_TEST_SLOW_START', 0)))\n")
    env = dict(ENV, PYTHONPATH=os.pathsep.join([SRC, str(tmp_path / "site")]))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SLOW_START, str(root)], env=env,
                          capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    n, chunks, pid = map(int, done.stdout.split())
    assert (n, chunks) == (12, 3)
    assert elapsed < 30, elapsed    # the worker sleeps for 60 s
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except FileNotFoundError:
        cmdline = b""
    assert b"msa_forge._worker" not in cmdline
