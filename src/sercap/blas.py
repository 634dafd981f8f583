"""Thread control for the OpenBLAS libraries loaded in the process, and
a two-way split of independent work across the process's CPUs.

Incremental beam search runs one decoder position per step, so its
matrix products are a few dozen rows against a d_model-wide weight.  At
that size a second BLAS thread saves little, and each product waits for
it: when the other CPU is busy, every product in the step stalls for a
scheduler slice, which makes decoding time swing from run to run.
``single_threaded`` runs a block on the calling thread alone and
restores the previous thread count on exit.

Work made of independent items uses a second CPU better by items than
by GEMM blocks: ``split_run`` runs one part of the items on the caller
and the other on one helper thread, each with BLAS on one thread.  Its
users are the caption embedding's length groups
(``harness._embed_captions_batch``), the two parts of every training
batch, and each validation pass's beam decode beside its
teacher-forced CE.  With every training product on one BLAS thread, no
OpenBLAS worker is left spinning on the helper's CPU.  OpenBLAS shares a
product among its threads by blocks of the output, so a one-thread
product has the same bits and so do the split results.

Only OpenBLAS builds that export ``openblas_{get,set}_num_threads``
(plain, 64-bit-suffixed or scipy-openblas-prefixed) are controlled; with
any other BLAS, or where the loaded libraries cannot be listed, the
block runs unchanged.  The limit is process-wide: while it holds, the
only other thread that calls BLAS is ``split_run``'s helper, which runs
only while its caller is inside the limit.  A program that calls BLAS,
``single_threaded`` or ``split_run`` from threads of its own gets no
such guarantee.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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


def runtime_info() -> dict:
    """numpy's version, the BLAS numpy was built against, and the thread
    count of each controlled OpenBLAS (in library-path order), for run
    manifests."""
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 can only print its build
        build = {}
    return {"numpy": np.__version__,
            "blas": {"name": build.get("name"), "version": build.get("version"), "threads": thread_counts()}}


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


_helper_local = threading.local()


def _mark_helper() -> None:
    _helper_local.active = True


@functools.cache
def _helper() -> ThreadPoolExecutor:
    """The one helper thread, started on first use and kept for the process."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="sercap-split", initializer=_mark_helper)


if hasattr(os, "register_at_fork"):
    # a forked child has no helper thread, only the parent's executor object
    os.register_at_fork(after_in_child=_helper.cache_clear)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_point(weights: list[float]) -> int:
    """Index k in [1, n-1] at which the running weight of items[:k] comes
    closest to half the total (the earlier k on a tie); 1 for fewer than
    two weights."""
    half = sum(weights) / 2.0
    best, best_gap, running = 1, float("inf"), 0.0
    for k in range(1, len(weights)):
        running += weights[k - 1]
        if abs(running - half) < best_gap:
            best, best_gap = k, abs(running - half)
    return best


def split_run(run, items, weight) -> list:
    """``[run(x) for x in items]``, with the items split in two.

    The items are cut once, in order, where ``weight(x)`` is balanced
    best; the caller runs the first part while the helper thread runs the
    second, both inside ``single_threaded``.  The call returns, or raises
    the first part's error before the second's, only after both parts
    have finished.  It runs serially on the caller, BLAS threads
    untouched, when the process may use one CPU, when there are fewer
    than two items, or when it is made from the helper itself (so nested
    work never waits on the thread it runs on).
    """
    items = list(items)
    if len(items) < 2 or _cpu_count() < 2 or getattr(_helper_local, "active", False):
        return [run(x) for x in items]
    k = split_point([float(weight(x)) for x in items])
    with single_threaded():
        future = _helper().submit(lambda: [run(x) for x in items[k:]])
        try:
            head = [run(x) for x in items[:k]]
        finally:
            # the helper's part ends inside the BLAS limit, whatever
            # happened on the caller
            wait([future])
        return head + future.result()
