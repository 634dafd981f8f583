"""Thread control for the OpenBLAS libraries loaded in the process.

Incremental beam search runs one decoder position per step, so its
matrix products are a few dozen rows against a d_model-wide weight.  At
that size a second BLAS thread saves little, and each product waits for
it: when the other CPU is busy, every product in the step stalls for a
scheduler slice, which makes decoding time swing from run to run.
``single_threaded`` runs a block on the calling thread alone and
restores the previous thread count on exit.

Only OpenBLAS builds that export ``openblas_{get,set}_num_threads``
(plain, 64-bit-suffixed or scipy-openblas-prefixed) are controlled; with
any other BLAS, or where the loaded libraries cannot be listed, the
block runs unchanged.  The limit is process-wide, so it assumes no other
Python thread calls BLAS meanwhile, as holds for sercap.
"""
from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
            for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_")]


@functools.cache
def _controls() -> tuple[tuple[object, object], ...]:
    """(get, set) thread-count functions of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found.append((get, put))
                break
    return tuple(found)


def thread_counts() -> list[int]:
    """Current thread count of each controlled OpenBLAS."""
    return [get() for get, _ in _controls()]


@contextmanager
def single_threaded():
    """Run the block with every controlled OpenBLAS on one thread."""
    saved = thread_counts()
    for _, put in _controls():
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(_controls(), saved):
            put(n)
