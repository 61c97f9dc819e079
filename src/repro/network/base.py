"""The minimal network-model interface.

The paper stresses that "TrioSim only requires a network model to
implement the Send and Deliver functions that mark the start and end of a
transfer".  :class:`NetworkModel` is that contract; delivery is signalled
by invoking the transfer's callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable


@dataclass
class Transfer:
    """A point-to-point data movement in flight.

    ``callback`` fires exactly once, at delivery, with the transfer as its
    argument.  ``tag`` is free-form context for the initiator, which the
    network never reads: the task-graph simulator passes the task's row
    id, so one bound method completes every transfer.
    """

    transfer_id: int
    src: str
    dst: str
    nbytes: float
    callback: Callable[["Transfer"], None]
    tag: object = None
    start_time: float = 0.0
    deliver_time: Optional[float] = None

    @property
    def delivered(self) -> bool:
        return self.deliver_time is not None


@runtime_checkable
class NetworkModel(Protocol):
    """Anything that can move bytes between named devices."""

    def send(self, src: str, dst: str, nbytes: float,
             callback: Callable[[Transfer], None], tag: object = None) -> Transfer:
        """Start a transfer; *callback* is invoked at delivery time."""
