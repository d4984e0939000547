from concurrent.futures import ThreadPoolExecutor

import pytest

from symtrans import ops, training


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
    """Every conv3d backward with a dx to compute hands its dw loop to the
    worker, whatever its size."""
    monkeypatch.setattr(ops, "BACKWARD_THREAD_VALUES", 0)


@pytest.fixture
def inline_training(monkeypatch):
    """One-CPU behaviour whatever the affinity: ``train`` generates every pair
    on the calling thread and conv3d's backward runs both of its loops there."""
    monkeypatch.setattr(ops, "_BACKWARD_WORKER", None)
    monkeypatch.setattr(training, "_FORK_PRODUCER", False)


@pytest.fixture
def forked_training(backward_worker, monkeypatch):
    """Two-CPU behaviour whatever the affinity: ``train`` generates pairs in a
    forked producer and conv3d's backward has its worker."""
    monkeypatch.setattr(training, "_FORK_PRODUCER", True)
