"""Hook system for observing simulation internals.

Hooks are the Akita-style observation mechanism: any :class:`Hookable`
object invokes its registered hooks at named positions, passing a
:class:`HookCtx` describing what happened.  Progress observers, tracers
and the verifier's race detectors are hooks, keeping observation code
out of the simulation logic; the timeline is read from the task table
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Protocol, runtime_checkable


@dataclass(frozen=True)
class HookCtx:
    """Context handed to hooks when a hook position fires.

    Attributes
    ----------
    pos:
        Name of the hook position (e.g. ``"flow_realloc"``,
        ``"sweep_point"``).
    time:
        Virtual time at which the position fired.
    item:
        The object of interest (an event, a task, a flow, ...).
    detail:
        Optional extra key/value information.
    """

    pos: str
    time: float
    item: Any = None
    detail: dict = field(default_factory=dict)


@runtime_checkable
class Hook(Protocol):
    """Observer invoked at hook positions."""

    def func(self, ctx: HookCtx) -> None:
        """React to the hook position described by *ctx*."""


class Hookable:
    """Mixin providing hook registration and invocation."""

    def __init__(self):
        self._hooks: List[Hook] = []

    def accept_hook(self, hook: Hook) -> None:
        """Register *hook* to be invoked at this object's hook positions."""
        self._hooks.append(hook)

    def remove_hook(self, hook: Hook) -> None:
        """Unregister a previously accepted hook."""
        self._hooks.remove(hook)

    def invoke_hooks(self, ctx: HookCtx) -> None:
        """Invoke every registered hook with *ctx* (no-op when none)."""
        for hook in self._hooks:
            hook.func(ctx)
