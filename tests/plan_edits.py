"""Seeding defects into plans, and the plan file layout.

A plan is columns plus a backward dependency CSR (``dep_ptr`` /
``dep_idx``), so replacing one row's dependencies shifts every later row
pointer.  Tests that corrupt a plan do it here, on copies of those
arrays.  Plans are no longer written to disk; :func:`plan_file` rebuilds
the document old plan files held, for the pinned JSON digests and for
checking that such a file is rejected with a finding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.plan import ExtrapolationPlan
from repro.core.taskgraph import TASK_COLUMNS


def rewired(plan: ExtrapolationPlan, row: int,
            deps: Sequence[int]) -> ExtrapolationPlan:
    """A copy of *plan* whose *row* depends on *deps*, as a faulty
    extrapolator would record it."""
    ptr, idx = plan.dep_ptr, plan.dep_idx
    lo, hi = int(ptr[row]), int(ptr[row + 1])
    shift = len(deps) - (hi - lo)
    dep_ptr = np.concatenate([ptr[:row + 1], ptr[row + 1:] + shift])
    dep_idx = np.concatenate([idx[:lo], np.asarray(deps, dtype=np.int64),
                              idx[hi:]])
    return ExtrapolationPlan(plan.columns, dep_ptr, dep_idx)


def plan_file(plan: ExtrapolationPlan, key: str) -> dict:
    """The document a plan file held when plans were still written to
    disk (format version 2): the *key* it was stored under, every task
    column, then the dependency CSR."""
    return {
        "schema_version": 2,
        "key": key,
        "columns": {name: list(plan.columns[name]) for name in TASK_COLUMNS},
        "dep_ptr": plan.dep_ptr.tolist(),
        "dep_idx": plan.dep_idx.tolist(),
    }
