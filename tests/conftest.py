import dataclasses
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from symtrans import cemsa, deformation, ops, training
from symtrans.model import load_checkpoint
from symtrans.tensor import _Node


def graph_nodes(t):
    """The graph nodes reachable from tensor ``t``, each once, ``t``'s own
    first: [] for a tensor that records no tape. A node's ``rule`` is its
    backward rule, and its ``parents`` hold nodes, leaf Tensors and None;
    the walk follows the nodes."""
    nodes, stack = {}, [t._node]
    while stack:
        node = stack.pop()
        if isinstance(node, _Node) and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    return list(nodes.values())


def checkpoint_sections(path):
    """The offsets in SYMT checkpoint ``path`` where its parameter records
    start (after the magic, version, config length and config blob) and
    where its Adam section starts; the sizes come from the loaded bag."""
    blob = Path(path).read_bytes()
    params = 12 + int.from_bytes(blob[8:12], "little")
    bag = load_checkpoint(path)[1]
    return params, params + sum(8 + len(name.encode()) + 4 * t.data.ndim + t.data.nbytes
                                for name, t in bag.items())


def closure_values(fn):
    """Every value ``fn``'s closure holds: its cells' contents, and in turn
    what the nested functions, tuples, lists, dicts and dataclass instances
    among them hold."""
    seen, stack = {id(fn)}, [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if callable(value) and getattr(value, "__closure__", None):
            stack.extend(cell.cell_contents for cell in value.__closure__)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            stack.extend(vars(value).values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)


def held_arrays(fn):
    """The arrays that own the memory of the ndarrays ``fn``'s closure
    holds, by id."""
    owners = {}
    for value in closure_values(fn):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value
    return owners


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
def threaded_attention(worker, monkeypatch):
    """multi_head_attention normalises every score block on the worker while
    the calling thread runs the next block's scores and the last block's
    product with V, whatever the call's size."""
    monkeypatch.setattr(cemsa, "ATTENTION_THREAD_SCORES", 0)


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
