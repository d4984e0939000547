from concurrent.futures import ThreadPoolExecutor

import pytest

from symtrans import deformation, ops, training


@pytest.fixture
def worker(monkeypatch):
    """``ops``' worker thread; a process that may use one CPU only has none,
    so the test gets its own."""
    if ops._WORKER is not None:
        yield ops._WORKER
        return
    own = ThreadPoolExecutor(1)
    monkeypatch.setattr(ops, "_WORKER", own)
    yield own
    own.shutdown()


@pytest.fixture
def threaded_backward(worker, monkeypatch):
    """Every conv3d backward with a dx to compute hands its dw loop to the
    worker, whatever its size."""
    monkeypatch.setattr(ops, "BACKWARD_THREAD_VALUES", 0)


@pytest.fixture
def threaded_sample(worker, monkeypatch):
    """trilinear_sample uses the worker whatever the volume's size: its
    forward runs in one-depth slabs, the first half of the depths there, and
    its backward's field scatter runs there when the offsets need a gradient
    too. The backward gate is conv3d's too, so its dw goes there as well."""
    monkeypatch.setattr(deformation, "SAMPLE_SLAB_VOXELS", 1)
    monkeypatch.setattr(deformation, "SAMPLE_THREAD_VOXELS", 0)
    monkeypatch.setattr(ops, "BACKWARD_THREAD_VALUES", 0)


@pytest.fixture
def inline_training(monkeypatch):
    """One-CPU behaviour whatever the affinity: ``train`` generates every pair
    on the calling thread, and conv3d's backward and trilinear_sample run all
    of their loops there."""
    monkeypatch.setattr(ops, "_WORKER", None)
    monkeypatch.setattr(training, "_FORK_PRODUCER", False)


@pytest.fixture
def forked_training(worker, monkeypatch):
    """Two-CPU behaviour whatever the affinity: ``train`` generates pairs in a
    forked producer and ``ops`` has its worker."""
    monkeypatch.setattr(training, "_FORK_PRODUCER", True)
