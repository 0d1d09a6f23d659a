"""Scoped single-threaded BLAS (repro.vectorized.blasthreads)."""

import threading

import numpy as np
import pytest

from repro.vectorized import blasthreads


def test_without_a_controllable_blas_it_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blasthreads, "_controls", [])
    with blasthreads.single_threaded():
        assert blasthreads.thread_counts() == []
        assert (np.eye(3) @ np.eye(3)).trace() == 3.0


def test_block_runs_at_one_thread_and_restores(two_threads):
    with blasthreads.single_threaded():
        assert blasthreads.thread_counts() == [1]
        with blasthreads.single_threaded():  # nested: shares the count
            assert blasthreads.thread_counts() == [1]
        assert blasthreads.thread_counts() == [1]
    assert blasthreads.thread_counts() == [2]
    assert two_threads["sets"] == [1, 2]


def test_restores_when_the_block_raises(two_threads):
    with pytest.raises(RuntimeError):
        with blasthreads.single_threaded():
            raise RuntimeError("sweep failed")
    assert blasthreads.thread_counts() == [2]


def test_last_concurrent_block_out_restores(two_threads):
    inside, leave = threading.Event(), threading.Event()

    def other():
        with blasthreads.single_threaded():
            inside.set()
            leave.wait(10)

    worker = threading.Thread(target=other)
    worker.start()
    assert inside.wait(10)
    with blasthreads.single_threaded():
        pass
    assert blasthreads.thread_counts() == [1]  # the other block is open
    leave.set()
    worker.join(10)
    assert blasthreads.thread_counts() == [2]


def test_finds_the_openblas_numpy_loaded():
    counts = blasthreads.thread_counts()
    if not counts:
        pytest.skip("numpy here is not linked against a controllable OpenBLAS")
    with blasthreads.single_threaded():
        assert set(blasthreads.thread_counts()) == {1}
    assert blasthreads.thread_counts() == counts
