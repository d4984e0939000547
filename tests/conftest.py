from concurrent.futures import ThreadPoolExecutor

import pytest

from symtrans import ops


@pytest.fixture
def backward_worker(monkeypatch):
    """conv3d's backward worker; a process that may use one CPU only has none,
    so the test gets its own."""
    if ops._BACKWARD_WORKER is not None:
        yield ops._BACKWARD_WORKER
        return
    own = ThreadPoolExecutor(1)
    monkeypatch.setattr(ops, "_BACKWARD_WORKER", own)
    yield own
    own.shutdown()


@pytest.fixture
def threaded_backward(backward_worker, monkeypatch):
    """Every conv3d backward runs its dx loop on the worker, whatever its size."""
    monkeypatch.setattr(ops, "BACKWARD_THREAD_VALUES", 0)
