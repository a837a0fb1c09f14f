"""Worker processes: the other slots of :func:`msa_forge.trainer.multi_seed_run`
and :func:`msa_forge.extractors.run_dataset`.

A worker is a new interpreter, ``python -m msa_forge._worker``, that imports
the calling process's ``msa_forge`` source (its root goes first on the
worker's ``PYTHONPATH``) and runs BLAS on one thread. It is started on the
first call that needs it and reused by later calls until the caller's
interpreter exits, when an ``atexit`` hook kills it: by then it is idle or
still starting, and neither is worth a wait. No ``multiprocessing`` start
method is used: ``spawn`` and ``forkserver`` re-run the caller's main
script, which fails in a script that works at top level without an ``if
__name__ == "__main__"`` guard, and a ``fork`` after OpenBLAS has started
its threads can hang.

Protocol, ``pickle`` protocol 5 both ways:

- the caller writes a request, ``(cwd, warning filters, function, args)``,
  to the worker's stdin, streamed (large arrays go straight to the pipe, not
  into one in-memory pickle first). ``function`` is a module-level function,
  sent by name, and the filters are those of the caller's
  ``warnings.filters`` whose category is a built-in warning class (a class
  from another module would have to be imported here), so that ``-W
  error::RuntimeWarning`` or pytest's ``filterwarnings`` hold in every slot;
- the worker changes to ``cwd`` and calls ``function(exchange, *args)``
  under those filters. The function and its caller then trade messages:
  ``exchange.send`` writes a reply to stdout as one pickle with its length
  in front, so that the caller can tell without blocking whether a whole
  reply is waiting (:meth:`Worker.ready`), and ``exchange.receive`` reads
  the caller's next message (a grant of more work) from stdin. The request
  is over when the function returns.

Each request's function documents what it sends and expects.
"""

from __future__ import annotations

import atexit
import contextlib
import io
import os
import pickle
import select
import sys
import warnings
from pathlib import Path

from .errors import MsaForgeError

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_HEADER = 8             # bytes of a reply's length, little-endian
_PIPE_BYTES = 1 << 20   # Linux's default cap on a pipe an unprivileged process sizes

_pool: list[Worker] = []     # the live workers, kept for later calls


class WorkerExited(Exception):
    """The worker process ended partway through an exchange; its exit code
    is ``args[0]``."""


class Worker:
    """One worker process and the caller's ends of its pipes."""

    def __init__(self):
        import subprocess   # only a call with more than one slot pays its import

        src = str(Path(__file__).resolve().parent.parent)
        env = dict(os.environ, **dict.fromkeys(_THREAD_ENV, "1"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # unbuffered, so that select sees every reply byte not yet read
        self.proc = subprocess.Popen([sys.executable, "-m", "msa_forge._worker"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, bufsize=0)
        self._requests = io.BufferedWriter(self.proc.stdin)
        self.unread = 0     # replies of an ended request still to discard
        with contextlib.suppress(ImportError, AttributeError, OSError):
            import fcntl     # Linux: room for a reply the caller is not reading yet

            fcntl.fcntl(self.proc.stdout, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)

    def submit(self, function, *args) -> None:
        """Send a request: ``function(exchange, *args)`` runs in the worker."""
        filters = [f for f in warnings.filters if f[2].__module__ == "builtins"]
        self.send((os.getcwd(), filters, function, args))

    def send(self, message) -> None:
        """Write a request or a message of the current exchange."""
        try:
            pickle.dump(message, self._requests, protocol=pickle.HIGHEST_PROTOCOL)
            self._requests.flush()
        except (BrokenPipeError, ValueError) as exc:  # ValueError: killed, stdin closed
            self.kill()
            raise WorkerExited(self.proc.returncode) from exc

    def ready(self) -> bool:
        """Whether a reply (or the end of the worker's output) can be read now."""
        return bool(select.select([self.proc.stdout], [], [], 0)[0])

    def receive(self):
        """The next reply, waiting for it; WorkerExited, with the worker
        killed, if the worker ends first."""
        try:
            return pickle.loads(self._read(int.from_bytes(self._read(_HEADER), "little")))
        except (EOFError, OSError, ValueError) as exc:
            self.kill()
            raise WorkerExited(self.proc.returncode) from exc

    def _read(self, n: int) -> bytearray:
        buf = bytearray(n)
        view, got = memoryview(buf), 0
        while got < n:
            k = self.proc.stdout.readinto(view[got:])
            if not k:
                raise EOFError
            got += k
        return buf

    def kill(self) -> None:
        """End the worker now: it may be partway through an exchange."""
        self.proc.kill()
        self.proc.wait()
        for pipe in (self._requests, self.proc.stdout):
            with contextlib.suppress(BrokenPipeError):  # a message half written to stdin
                pipe.close()


def workers(n: int) -> list[Worker]:
    """``n`` live workers with no reply pending, started as needed and kept
    for later calls."""
    for worker in list(_pool):
        try:
            for _ in range(worker.unread):
                worker.receive()
            worker.unread = 0
        except WorkerExited:
            pass
        if worker.proc.poll() is not None:
            worker.kill()   # reaped already; closes its pipes
            _pool.remove(worker)
    while len(_pool) < n:
        _pool.append(Worker())
    return _pool[:n]


@atexit.register
def shutdown() -> None:
    """End every worker."""
    for worker in _pool:
        worker.kill()
    _pool.clear()


def _picklable(exc: Exception, where: str) -> Exception:
    """``exc``, or a MsaForgeError naming it and ``where`` it was raised when
    it does not survive a pickle round trip (an exception class whose
    ``__init__`` takes other arguments than its ``args``, without a
    ``__reduce__``, fails only at the load)."""
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        return MsaForgeError(f"{where} raised {exc!r}")


class _Exchange:
    """The worker's ends of its pipes, for the request being served."""

    def __init__(self, requests, replies):
        self._requests = requests
        self._replies = replies

    def send(self, message) -> None:
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self._replies.write(len(data).to_bytes(_HEADER, "little"))
        self._replies.write(data)
        self._replies.flush()

    def receive(self):
        return pickle.load(self._requests)


def main() -> None:
    """Serve requests from stdin until end of file."""
    import signal

    # an interrupt at a terminal reaches the whole process group: the caller
    # handles it and ends this process, which must not print a traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())  # stray prints go to stderr
    exchange = _Exchange(requests, replies)
    while True:
        try:
            cwd, filters, function, args = pickle.load(requests)
        except EOFError:
            return
        os.chdir(cwd)
        with warnings.catch_warnings():
            warnings.resetwarnings()
            for action, message, category, module, lineno in reversed(filters):
                # a pattern is compiled, a string (the interpreter's defaults) or None
                warnings.filterwarnings(action, getattr(message, "pattern", message or ""),
                                        category, getattr(module, "pattern", module or ""),
                                        lineno)
            function(exchange, *args)
        del function, args


if __name__ == "__main__":
    main()
