"""Worker processes that train seeds for :func:`msa_forge.trainer.multi_seed_run`.

A worker is a new interpreter, ``python -m msa_forge._worker``, that imports
the calling process's ``msa_forge`` source (its root goes first on the
worker's ``PYTHONPATH``) and runs BLAS on one thread. It is started on the
first multi-seed run that needs it and reused by later runs; an ``atexit``
hook closes its stdin and waits for it, and a worker that reads end of file
exits. No ``multiprocessing`` start method is used: ``spawn`` and
``forkserver`` re-run the caller's main script, which fails in a script that
trains at top level without an ``if __name__ == "__main__"`` guard, and a
``fork`` after OpenBLAS has started its threads can hang.

Protocol, one exchange per run, ``pickle`` protocol 5 streamed over the
worker's stdin and stdout (large arrays are written straight to the pipe,
not copied into one in-memory pickle first):

- the caller sends ``(cwd, warning filters, config, bundle, runs)``,
  ``runs`` a list of ``(seed, run_dir)``, and the filters those of its
  ``warnings.filters`` whose category is a built-in warning class (a class
  from another module would have to be imported here), so that ``-W
  error::RuntimeWarning`` or pytest's ``filterwarnings`` hold in every slot;
- the worker changes to ``cwd``, trains under those filters, sends each
  seed as it starts training it, stops after the first seed that raises,
  and sends the list of outcomes, ``(True, RunResult)`` or ``(False,
  exception)``, in ``runs`` order.

Outcomes come only at the end, so a worker never blocks on a full pipe
while the caller is still training its own seeds; the seed numbers are a
few bytes each and name the seed a worker was training if it dies.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import sys
import warnings
from pathlib import Path

from .errors import MsaForgeError

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_EXIT_WAIT_S = 30.0     # at interpreter exit, then the worker is killed

_pool: list[Worker] = []     # the live workers, kept for later runs


class Worker:
    """One worker process and the caller's ends of its pipes."""

    def __init__(self):
        import subprocess   # only a run with more than one slot pays its import

        src = str(Path(__file__).resolve().parent.parent)
        env = dict(os.environ, **dict.fromkeys(_THREAD_ENV, "1"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, "-m", "msa_forge._worker"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self.runs: list = []

    def submit(self, config, bundle, runs: list) -> None:
        """Send one run's seeds; raise MsaForgeError if the worker is gone."""
        self.runs = runs
        filters = [f for f in warnings.filters if f[2].__module__ == "builtins"]
        try:
            pickle.dump((os.getcwd(), filters, config, bundle, runs), self.proc.stdin,
                        protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            self.kill()
            raise MsaForgeError(f"the worker process for seed {runs[0][0]} has exited "
                                f"(code {self.proc.returncode})") from exc

    def collect(self) -> list:
        """The submitted seeds' outcomes, in order, one per seed: ``(True,
        RunResult)``, ``(False, exception)``, or None for a seed not run (after
        a failure) or whose result died with the worker. A worker that dies
        gives its seed a MsaForgeError that names it."""
        outcomes = [None] * len(self.runs)
        started = 0
        try:
            while True:
                msg = pickle.load(self.proc.stdout)
                if isinstance(msg, list):
                    outcomes[:len(msg)] = msg
                    return outcomes
                started = [seed for seed, _ in self.runs].index(msg)
        except (EOFError, OSError, pickle.UnpicklingError):
            self.kill()
            outcomes[started] = (False, MsaForgeError(
                f"the worker process training seed {self.runs[started][0]} exited "
                f"with code {self.proc.returncode} before returning its result"))
            return outcomes

    def close(self) -> None:
        """Close the worker's stdin, so that it exits, and wait for it."""
        import subprocess

        self.proc.stdin.close()     # empty: every exchange flushes it
        try:
            self.proc.wait(timeout=_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        """End the worker now: it may be partway through a run's exchange."""
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(BrokenPipeError):  # a job half written to stdin
                pipe.close()


def workers(n: int) -> list[Worker]:
    """``n`` live workers, started as needed and kept for later runs."""
    for worker in [w for w in _pool if w.proc.poll() is not None]:
        worker.kill()   # reaped already; closes its pipes
        _pool.remove(worker)
    while len(_pool) < n:
        _pool.append(Worker())
    return _pool[:n]


@atexit.register
def shutdown() -> None:
    """End every worker: close its stdin and wait for it to exit."""
    for worker in _pool:
        worker.close()
    _pool.clear()


def _picklable(exc: Exception, seed: int) -> Exception:
    """``exc``, or a MsaForgeError naming it when it does not survive a pickle
    round trip (an exception class whose ``__init__`` takes other arguments
    than its ``args``, without a ``__reduce__``, fails only at the load)."""
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        return MsaForgeError(f"seed {seed} raised {exc!r}")


def main() -> None:
    """Serve runs from stdin until end of file."""
    import signal

    from . import trainer

    # an interrupt at a terminal reaches the whole process group: the caller
    # handles it and ends this process, which must not print a traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())  # stray prints go to stderr
    while True:
        try:
            cwd, filters, config, bundle, runs = pickle.load(requests)
        except EOFError:
            return
        os.chdir(cwd)
        outcomes = []
        with warnings.catch_warnings():
            warnings.resetwarnings()
            for action, message, category, module, lineno in reversed(filters):
                # a pattern is compiled, a string (the interpreter's defaults) or None
                warnings.filterwarnings(action, getattr(message, "pattern", message or ""),
                                        category, getattr(module, "pattern", module or ""),
                                        lineno)
            for seed, run_dir in runs:
                pickle.dump(seed, replies)
                replies.flush()
                try:
                    outcomes.append((True, trainer.train_run(config, bundle, seed,
                                                             run_dir=run_dir)))
                except Exception as exc:
                    outcomes.append((False, _picklable(exc, seed)))
                    break
        del config, bundle
        pickle.dump(outcomes, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()


if __name__ == "__main__":
    main()
