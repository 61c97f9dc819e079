"""The task-table digest: a run's outcome, apart from what it cost.

A run's outcome is its task table: every row's ``start`` and ``end``
and the order rows finished in (``TaskStore.finished``).  A dispatch
digest or an event count also moves when the simulator reaches the same
outcome with fewer or differently numbered events, so those pin cost;
this digest pins the outcome alone.  Floats are written with
``float.hex``, so a pin holds only if every time is bit-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Iterator, List, Optional

import pytest

import repro.core.simulator as simulator_module
from repro.core.taskgraph import TaskStore


def _hex(value: Optional[float]) -> str:
    return "-" if value is None else float.hex(value)


def task_table_digest(store: TaskStore) -> str:
    """First 16 hex digits of the sha256 of *store*'s start/end columns
    and finish order."""
    sha = hashlib.sha256()
    for start, end in zip(store.start, store.end):
        sha.update(f"{_hex(start)} {_hex(end)};".encode())
    sha.update(",".join(map(str, store.finished)).encode())
    return sha.hexdigest()[:16]


@contextlib.contextmanager
def recorded_tables() -> Iterator[List[TaskStore]]:
    """Collect the task store of every simulator a ``TrioSim`` builds
    inside the block, in the order they were built."""
    stores: List[TaskStore] = []

    class Recorded(simulator_module.TaskGraphSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stores.append(self.store)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_module, "TaskGraphSimulator", Recorded)
        yield stores
