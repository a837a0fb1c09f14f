"""Keep freed heap memory in the process instead of handing it back to
the OS after every training step.

A training step allocates a few MB of activations (the LSTM gates and
states, the attention and memory arrays) and frees them when the tape is
dropped. glibc's malloc serves a block above its mmap threshold with a
fresh ``mmap`` and trims the top of the heap once more than its trim
threshold is free. Both thresholds start low and adapt to the largest
block freed so far, so whether a process churns depends on which large
block it happened to free first. When it does, every step faults the
same pages in again: ~1,500 minor faults per 32-row mfn step.

:func:`keep_freed_memory` fixes both thresholds at the values glibc's own
dynamic rule reaches after freeing one 32 MiB block, so freed memory up
to 64 MiB stays in the process and the next step reuses it. Peak RSS does
not change: the pages kept are pages the next step would fault in again.
It runs once per process, from the entry points that do heavy work
(``trainer.train_run`` and ``cli.cli_main``), never at import: importing
a library must not change its host's allocator. It sets nothing where the
caller has tuned glibc malloc itself, and does nothing where the C
library has no ``mallopt``.
"""

from __future__ import annotations

import ctypes
import os

# mallopt parameter numbers, from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# glibc's dynamic rule, after freeing one 32 MiB block (its largest mmap
# threshold on 64-bit hosts): serve blocks up to 32 MiB from the heap,
# trim the heap only once more than twice that is free at its top
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

# the caller's own glibc malloc settings, which win over ours
_MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
               "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")
_MALLOC_TUNABLES = ("glibc.malloc.trim_threshold", "glibc.malloc.mmap_threshold",
                    "glibc.malloc.top_pad", "glibc.malloc.mmap_max")

_applied = False


def _caller_tuned() -> bool:
    """True when the environment sets any glibc malloc threshold, as a
    variable or a ``GLIBC_TUNABLES`` entry."""
    if any(name in os.environ for name in _MALLOC_ENV):
        return True
    entries = os.environ.get("GLIBC_TUNABLES", "").split(":")
    return any(entry.partition("=")[0] in _MALLOC_TUNABLES for entry in entries)


def _mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        return getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):    # no process-wide symbol table to open
        return None


def keep_freed_memory() -> None:
    """Fix glibc's mmap and trim thresholds, once per process."""
    global _applied
    if _applied:
        return
    _applied = True
    if _caller_tuned():
        return
    mallopt = _mallopt()
    if mallopt is None:
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
