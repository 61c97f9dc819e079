"""Fixtures shared across test modules."""

from typing import Iterator, List

import pytest

from repro.core.taskgraph import TaskStore
from tests.task_table import recorded_tables


@pytest.fixture
def task_tables() -> Iterator[List[TaskStore]]:
    """The task store of every simulator a ``TrioSim`` builds during the
    test (see :func:`tests.task_table.recorded_tables`)."""
    with recorded_tables() as stores:
        yield stores
