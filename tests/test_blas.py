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
