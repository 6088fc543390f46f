"""Hold the loaded OpenBLAS libraries at one thread while a corpus runs.

On a two-core machine OpenBLAS's default of one thread per core slows every
stage of a corpus run, also stages that make no BLAS call; idle workers that
spin after each threaded call are the likely cause (OpenBLAS FAQ on threads).
``one_blas_thread`` sets every OpenBLAS loaded in this process to one thread
and gives each library its previous count back on exit.  ``run_corpus``
holds it for its whole call; callers of ``run_wideband`` and the stage
functions keep the library's default count.

The libraries are found in the process's own ``/proc/self/maps``: every
mapped file whose name contains ``openblas`` and that exports a
``get_num_threads``/``set_num_threads`` pair under the prefix
``scipy_openblas_`` or ``openblas_``, with or without the ``64_`` suffix.
numpy's and scipy's wheels each load their own copy (numpy's with the
suffix), and both are set; so is a system OpenBLAS.  Where the file does not
exist (not Linux) or no loaded library exports such a pair (MKL, Accelerate,
a BLAS under another name) the managers do nothing.

The count is process-wide while it is held: another thread of the host
program that calls BLAS meanwhile runs on the held count, and changing the
count while another thread is inside BLAS is not safe.  Nested holds restore
in order, the innermost first.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple


# the thread-count pair's names, in the order they are probed
_THREAD_FUNCTIONS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


class OpenBLAS(NamedTuple):
    """One loaded OpenBLAS library and its thread-count functions."""

    path: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def loaded_openblas() -> list[OpenBLAS]:
    """Every OpenBLAS mapped into this process that exports a thread-count pair."""
    try:
        with open("/proc/self/maps") as maps:
            # the last field is the mapped file's path (the inode on anonymous lines)
            mapped = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return []
    paths = sorted(path for path in mapped if "openblas" in os.path.basename(path))
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_FUNCTIONS:
            get, set_ = name.format("get"), name.format("set")
            if hasattr(lib, get) and hasattr(lib, set_):
                found.append(OpenBLAS(path, lib[get], lib[set_]))
                break
    return found


@contextmanager
def blas_threads(count: int) -> Iterator[list[OpenBLAS]]:
    """Hold every loaded OpenBLAS at ``count`` threads; yield the libraries set."""
    libraries = loaded_openblas()
    previous = [lib.get_num_threads() for lib in libraries]
    try:
        for lib in libraries:
            lib.set_num_threads(count)
        yield libraries
    finally:
        for lib, n in zip(libraries, previous):
            lib.set_num_threads(n)


def one_blas_thread():
    """``blas_threads(1)``, the hold ``run_corpus`` keeps for its whole call."""
    return blas_threads(1)
