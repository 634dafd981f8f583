import multiprocessing
import threading
import time

import numpy as np
import pytest

from sercap import blas


def controlled_counts():
    counts = blas.thread_counts()
    if not counts:
        pytest.skip("no loaded OpenBLAS exports thread control")
    return counts


def test_single_threaded_limits_and_restores():
    before = controlled_counts()
    with blas.single_threaded():
        assert blas.thread_counts() == [1] * len(before)
    assert blas.thread_counts() == before


def test_single_threaded_restores_after_error():
    before = controlled_counts()
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            raise RuntimeError("inside")
    assert blas.thread_counts() == before


def two_cpus(monkeypatch):
    """Let split_run split even where the process may use one CPU."""
    monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def heavy(x):
    """A deterministic item that takes a few BLAS calls."""
    a = np.sin(np.arange(64 * 64, dtype=np.float64) + x).reshape(64, 64)
    return (a @ a.T @ a).sum(axis=0)


class TestSplitRun:
    def test_equals_serial_and_splits_the_same_way(self, monkeypatch):
        two_cpus(monkeypatch)
        items = list(range(9))
        want = [heavy(x) for x in items]
        placements = []
        for _ in range(3):
            where = {}

            def run(x):
                where[x] = threading.get_ident()
                return heavy(x)

            got = blas.split_run(run, items, weight=lambda x: x + 1)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert where[0] == threading.get_ident() != where[8]
            placements.append([where[x] == threading.get_ident() for x in items])
        assert placements[0] == placements[1] == placements[2]
        # the cut balances the weights 1..9: items 0-5 weigh 21, items 6-8 weigh 24
        assert placements[0] == [True] * 6 + [False] * 3

    @pytest.mark.parametrize("failing", [0, 4])
    def test_error_raised_after_both_parts(self, monkeypatch, failing):
        two_cpus(monkeypatch)
        before = blas.thread_counts()
        finished = []

        def run(x):
            if x == failing:
                raise ValueError(f"item {x}")
            time.sleep(0.05)
            finished.append(x)
            return x

        with pytest.raises(ValueError, match=f"item {failing}"):
            blas.split_run(run, range(5), weight=lambda x: 1.0)
        # the caller's part stops at its error; the other part runs to its end
        assert sorted(finished) == ([2, 3, 4] if failing == 0 else [0, 1, 2, 3])
        assert blas.thread_counts() == before

    def test_caller_error_wins_over_helper_error(self, monkeypatch):
        two_cpus(monkeypatch)

        def run(x):
            raise ValueError(f"item {x}")

        with pytest.raises(ValueError, match="item 0"):
            blas.split_run(run, range(2), weight=lambda x: 1.0)

    def test_call_from_helper_runs_inline(self, monkeypatch):
        two_cpus(monkeypatch)
        threads = {}

        def inner(pair):
            threads[pair] = threading.get_ident()
            return pair

        def outer(x):
            return blas.split_run(inner, [(x, 0), (x, 1)], weight=lambda p: 1.0)

        assert blas.split_run(outer, [0, 1], weight=lambda x: 1.0) == [[(0, 0), (0, 1)], [(1, 0), (1, 1)]]
        main = threading.get_ident()
        # the caller's item splits again; the helper's item runs on the helper alone
        assert threads[(0, 0)] == main != threads[(0, 1)]
        assert threads[(1, 0)] == threads[(1, 1)] != main

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def no_helper():
            raise AssertionError("helper thread requested with one CPU")

        monkeypatch.setattr(blas, "_helper", no_helper)
        running = threading.active_count()
        before = blas.thread_counts()
        seen = set()

        def run(x):
            seen.add(threading.get_ident())
            assert blas.thread_counts() == before  # BLAS threads untouched
            return heavy(x)

        got = blas.split_run(run, range(4), weight=lambda x: 1.0)
        assert [g.tobytes() for g in got] == [heavy(x).tobytes() for x in range(4)]
        assert seen == {threading.get_ident()}
        assert threading.active_count() == running

    def test_fewer_than_two_items_run_inline(self, monkeypatch):
        two_cpus(monkeypatch)
        seen = []
        assert blas.split_run(lambda x: seen.append(threading.get_ident()) or x, [7], weight=len) == [7]
        assert blas.split_run(lambda x: x, [], weight=len) == []
        assert seen == [threading.get_ident()]

    def test_forked_child_gets_its_own_helper(self, monkeypatch):
        two_cpus(monkeypatch)
        blas.split_run(heavy, range(2), weight=lambda x: 1.0)  # the parent's helper is running
        child = multiprocessing.get_context("fork").Process(
            target=lambda: blas.split_run(heavy, range(2), weight=lambda x: 1.0))
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive and child.exitcode == 0
