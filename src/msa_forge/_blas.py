"""Run BLAS on one thread around work whose bytes must not depend on the
caller's BLAS thread count.

OpenBLAS splits a product's rows between its threads, and a row's bits can
depend on that split: at two threads, tfn, mtfn, ef_lstm and mfn trained to
other ``history.jsonl`` bytes than at one. :func:`one_blas_thread` sets every
OpenBLAS that this process has loaded from a wheel's ``*.libs`` directory
next to numpy to one thread and restores each one's count on exit, so
training and the eval-mode forward give the one-thread bytes whatever the
caller's ``OPENBLAS_NUM_THREADS``, and a seed writes the same files in the
calling process and in a worker process.

The libraries are looked up once per process, on first use, never at
import. Only libraries already loaded are opened (``RTLD_NOLOAD``), so the
lookup loads no second BLAS. Where no such library exports the
``openblas_{get,set}_num_threads`` pair (a BLAS built another way, or a
platform without ``RTLD_NOLOAD``), the context manager does nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (prefix, suffix) of the thread-count symbols: plain OpenBLAS, and the
# scipy-openblas builds numpy and scipy wheels bundle (64-bit ints: "64_")
_SYMBOLS = (("openblas", ""), ("openblas", "64_"), ("scipy_openblas", "64_"),
            ("scipy_openblas", ""))

_libraries: list[tuple] | None = None   # [(get, set)], found on first use


def _find() -> list[tuple]:
    """The (get, set) thread-count functions of every loaded OpenBLAS that
    sits in a ``*.libs`` directory beside numpy's package."""
    mode = getattr(os, "RTLD_NOLOAD", None)
    if mode is None:
        return []
    site = Path(np.__file__).resolve().parent.parent
    found = []
    for path in sorted(site.glob("*.libs/*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path), mode=mode | os.RTLD_LAZY)
        except OSError:     # not loaded in this process
            continue
        for prefix, suffix in _SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread, then restore
    each one's thread count."""
    global _libraries
    if _libraries is None:
        _libraries = _find()
    changed = []
    for get, set_ in _libraries:
        threads = get()
        if threads != 1:
            set_(1)
            changed.append((set_, threads))
    try:
        yield
    finally:
        for set_, threads in changed:
            set_(threads)
