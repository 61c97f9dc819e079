"""Seeding defects into serialized plans.

A plan is columns plus a backward dependency CSR (``dep_ptr`` /
``dep_idx``), so replacing one row's dependencies shifts every later row
pointer.  Tests that corrupt a plan do it here, on a ``to_dict()`` copy.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.plan import ExtrapolationPlan


def set_deps(data: dict, row: int, deps: Sequence) -> dict:
    """Replace *row*'s dependency indices in the plan dict *data*."""
    ptr, idx = data["dep_ptr"], data["dep_idx"]
    lo, hi = ptr[row], ptr[row + 1]
    idx[lo:hi] = list(deps)
    shift = len(deps) - (hi - lo)
    data["dep_ptr"] = ptr[:row + 1] + [p + shift for p in ptr[row + 1:]]
    return data


def rewired(plan: ExtrapolationPlan, row: int,
            deps: Sequence[int]) -> ExtrapolationPlan:
    """A copy of *plan* whose *row* depends on *deps*, built without the
    load-time checks, as a faulty extrapolator would record it."""
    data = set_deps(plan.to_dict(), row, deps)
    return ExtrapolationPlan(data["columns"], data["dep_ptr"],
                             data["dep_idx"], plan.key)
