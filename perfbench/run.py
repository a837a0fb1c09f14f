"""msa_forge benchmark.

    python3 perfbench/run.py --workload {train-pooled,train-recurrent,pipeline}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/msa_forge`` next to this directory, never from an installed copy.
All inputs are generated from ``--seed`` into a temporary directory under
``.perfbench_tmp/`` in the checkout, which the run removes again.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first repeats that measurement over half the time, then
installs span wrappers (see ``tracing.py``), sets up once and repeats
the workload over the other half, and reports per-layer metrics for one
set-up plus one repetition, the stage figures of the untraced half and
the tracing overhead (traced minus untraced value of each end-to-end
metric). The last line of standard output is the result object; the
lines before it carry the environment record, the checks that failed
and the full figures.

Every end-to-end time is normalised to a reference host speed: the wall
time of a phase (imports, set-ups, repetitions) divided by the host's
slowdown over it, which a calibration kernel interleaved with the work
measures (see ``speed.py``). The wall times and slowdowns are printed
with the full figures.

BLAS runs single-threaded (at most ``nproc`` as required, and steadier on
a shared machine). ``MSA_FORGE_THREADS`` is never set: whether the caller
set it is recorded, and it is removed from the environment so that
training stays on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
MSA_FORGE_THREADS_SET = os.environ.pop("MSA_FORGE_THREADS", None) is not None

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
IMPORTS = 5
SETUP_TICK_S = 0.02     # set-ups and imports are short: sample the host speed often
E2E_UNITS = {"setup_s": "s", "job_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}


def import_package() -> None:
    """Import msa_forge from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "msa_forge" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no msa_forge package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import msa_forge
    if Path(msa_forge.__file__).resolve().parent != (src / "msa_forge").resolve():
        raise SystemExit(f"benchmark: imported msa_forge from {msa_forge.__file__}")


IMPORT_PROBE = """
import sys
import numpy
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.speed import Speedometer
with Speedometer(float(sys.argv[3])) as speedo:
    t0 = speedo.clock()
    import msa_forge, msa_forge.cli
    wall = speedo.clock() - t0
print(wall, speedo.slowdown())
"""


def import_seconds(n: int) -> list[tuple[float, float]]:
    """Time ``import msa_forge`` (numpy already loaded) in ``n`` fresh
    interpreters, each waited for; return each one's wall time and the
    host's slowdown over it, which the interpreter measures itself."""
    times = []
    for _ in range(n):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT),
                                str(ROOT / "src"), str(SETUP_TICK_S)],
                               capture_output=True, text=True, check=True, timeout=60)
        wall, slowdown = probe.stdout.strip().splitlines()[-1].split()
        times.append((float(wall), float(slowdown)))
    return times


def environment() -> dict:
    threads = {}
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(site.glob("*.libs/*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for fn_name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[path.name] = fn()
                break

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "msa_forge_threads_set": MSA_FORGE_THREADS_SET,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def guarded(workload, what: str, fn):
    """Call ``fn``; if it raises, count a failure in the workload's ledger
    instead of ending the run."""
    try:
        return fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        workload.ledger.record(what, False, "raised")
        return None


def measure_setups(workload, n: int, clock) -> list[float]:
    times = []
    for _ in range(n):
        t0 = clock()
        guarded(workload, "set-up", workload.setup)
        times.append(clock() - t0)
    return times


def measure_reps(workload, budget_s: float, min_reps: int, clock, first_index: int = 0,
                 after_rep=None) -> list:
    """Repeat the workload's unit of work until the next repetition would
    end past ``budget_s`` (at least ``min_reps`` times)."""
    from perfbench.workloads import RepResult

    reps = []
    t0 = perf_counter()
    while True:
        i = first_index + len(reps)
        t_rep = clock()
        rep = guarded(workload, f"repetition {i}", lambda: workload.rep(i, clock))
        if rep is None:
            wall = clock() - t_rep
            rep = RepResult(wall_s=wall, samples=0, samples_s=wall)
        reps.append(rep)
        if after_rep is not None:
            after_rep()
        elapsed = perf_counter() - t0
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > budget_s:
            return reps


def end_to_end(import_s: float, setup_times: list[float], setup_slowdown: float,
               reps, rep_slowdown: float) -> dict[str, float]:
    """Set-up as a median; job time and throughput over all repetitions;
    times normalised by the host's slowdown over their phase."""
    return {
        "setup_s": import_s + statistics.median(setup_times) / setup_slowdown,
        "job_s": sum(r.wall_s for r in reps) / len(reps) / rep_slowdown,
        "samples_per_s": (sum(r.samples for r in reps) / sum(r.samples_s for r in reps)
                          * rep_slowdown),
        "peak_rss_mb": peak_rss_mb(),
    }


def stage_figures(workload_name: str, reps) -> dict[str, float]:
    """Per-stage figures of an untraced measurement (0 where the stage
    does not run)."""
    predict_ms = [ms for r in reps for ms in r.predict_ms]
    train = workload_name != "pipeline"
    rate = sum(r.samples for r in reps) / sum(r.samples_s for r in reps)
    return {
        "stage.train_samples_per_s": rate if train else 0.0,
        "stage.eval_samples_per_s": 0.0 if train else rate,
        "stage.extract_clips_per_s":
            0.0 if train else statistics.median(r.extract_clips_per_s for r in reps),
        "stage.predict_ms_p50": statistics.median(predict_ms) if predict_ms else 0.0,
        "stage.predict_ms_p90": percentile(predict_ms, 90) if len(predict_ms) > 1 else 0.0,
        "stage.predict_calls": float(len(predict_ms)),
    }


def traced_measurement(workload, sites, ledger, budget: float, min_reps: int,
                       first_rep: int, import_s: float):
    """Set up once and repeat the workload with every span wrapper
    installed; return the traced end-to-end figures, the per-layer metrics
    and the counters."""
    from perfbench import layers, tracing
    from perfbench.speed import Speedometer

    tracer = tracing.Tracer()
    setup_speedo, rep_speedo = Speedometer(SETUP_TICK_S), Speedometer()
    sites.install(tracer)
    try:
        tracer.clock = setup_speedo.clock       # spans leave out the kernel's time
        with setup_speedo:
            setup_times = measure_setups(workload, 1, setup_speedo.clock)
        setup_trace = tracer.take()
        rep_traces = []
        tracer.clock = rep_speedo.clock
        with rep_speedo:
            reps = measure_reps(workload, budget, max(2, min_reps), rep_speedo.clock,
                                first_rep, lambda: rep_traces.append(tracer.take()))
    finally:
        sites.uninstall()
    touched = sites.touched()
    ledger.record("tracing wrappers removed after the traced run", not touched,
                  ", ".join(touched))
    counts = [dict(c) for _, c in rep_traces]
    ledger.record("exact counters repeat across traced repetitions",
                  all(c == counts[0] for c in counts[1:]), json.dumps(counts))
    traced = end_to_end(import_s, setup_times, setup_speedo.slowdown(),
                        reps, rep_speedo.slowdown())
    metrics = layers.per_layer(setup_trace, rep_traces, tracer.gauges)
    counters = {"setup": dict(setup_trace[1]), "per_repetition": counts[0]}
    return traced, metrics, counters


def run(args) -> dict:
    import_package()
    from perfbench import tracing, workloads
    from perfbench.speed import Speedometer

    ledger = workloads.Ledger()
    error = tracing.check_self_time_arithmetic()
    ledger.record("self-time arithmetic on a hand-built span tree", error is None, error or "")
    sites = tracing.Sites()
    reference = json.loads((HERE / "reference_mae.json").read_text(encoding="utf-8"))
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, tmp,
                                                      ledger, reference)
        # the pipeline needs enough predict calls for its p90
        min_reps = (-(-workloads.MIN_PREDICTS // workloads.PREDICTS_PER_REP)
                    if args.workload == "pipeline" else 1)
        budget = args.seconds / 2 if args.trace else args.seconds
        import_times = import_seconds(IMPORTS)
        import_s = statistics.median(wall / slowdown for wall, slowdown in import_times)
        setup_speedo, rep_speedo = Speedometer(SETUP_TICK_S), Speedometer()
        with setup_speedo:
            setup_times = measure_setups(workload, SETUPS, setup_speedo.clock)
        with rep_speedo:
            reps = measure_reps(workload, budget, min_reps, rep_speedo.clock)
        untraced = end_to_end(import_s, setup_times, setup_speedo.slowdown(),
                              reps, rep_speedo.slowdown())
        stages = stage_figures(args.workload, reps)
        touched = sites.touched()
        ledger.record("untraced run replaced no msa_forge attribute", not touched,
                      ", ".join(touched))
        details = {"end_to_end": untraced, "stages": stages, "repetitions": len(reps),
                   "rep_wall_s": [r.wall_s for r in reps], "setup_times_s": setup_times,
                   "imports_wall_s_and_slowdown": import_times,
                   "slowdown": {"set-ups": setup_speedo.slowdown(),
                                "repetitions": rep_speedo.slowdown()},
                   "kernel_runs": setup_speedo.kernels + rep_speedo.kernels}
        metrics = dict(untraced)
        if args.trace:
            traced, metrics, counters = traced_measurement(
                workload, sites, ledger, budget, min_reps, len(reps), import_s)
            metrics.update(stages)
            metrics.update({f"overhead.{name}": traced[name] - untraced[name]
                            for name in E2E_UNITS})
            details.update({"traced_end_to_end": traced, "counters": counters})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()
    return {"metrics": metrics, "details": details, "ledger": ledger}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-pooled", "train-recurrent", "pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    args.seed %= 2 ** 32

    try:
        out = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    ledger = out["ledger"]
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"details": out["details"]}))
    print(json.dumps({"fail_ratio": ledger.failed / ledger.attempted,
                      "fail_ratio_base": ledger.attempted,
                      "failed_checks": ledger.failures[:50]}))
    from perfbench.layers import UNITS
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(value),
                           "unit": E2E_UNITS.get(name) or UNITS[name]}
                    for name, value in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
