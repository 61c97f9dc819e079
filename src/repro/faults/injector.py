"""The fault injector: replays a :class:`FaultSpec` against a live run.

The injector is a client of the existing engine/hook machinery — it owns
no simulation state of its own.  Installed before :meth:`Engine.run`, it

* registers a runtime scale callback
  (:meth:`~repro.core.taskgraph.TaskGraphSimulator.set_runtime_scale`) on
  each GPU that has a straggler window, so compute tasks dispatched
  inside an open window take ``factor``× their healthy duration (a pure
  function of the explicit schedule — no events needed);
* schedules link-fault open/close events that re-rate links through
  :meth:`FlowNetwork.set_link_capacity`, riding the scoped max-min
  re-solve so only the affected contention component is touched;
* schedules failure events that interrupt everything in flight: pending
  events are pushed ``lost + restore_cost`` seconds into the future
  (:meth:`Engine.defer_pending`) and flow progress is frozen across the
  outage (:meth:`FlowNetwork.stall`).  Because the simulated schedule is
  deterministic, rollback-to-checkpoint followed by re-execution of the
  lost interval lands in exactly the state the run was in when the
  failure hit — so the global stall *is* the rollback, bit-for-bit.

The :class:`FaultClock` tracks checkpoint anchors and stall accounting.
Checkpoint events are ordinary (deferrable) events, so a failure stall
pushes the next checkpoint out with the work it protects; fault events
themselves live at absolute wall-clock times (hardware does not wait for
the job to recover) and are excluded from deferral.

Injection times and the engine's event clock are plain floats derived
only from the (serialized) spec, so the same ``(trace, config, fault
seed)`` is bit-identical across in-process, parallel, and cache-replay
execution.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, List, Optional, Tuple

from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.engine.hooks import HookCtx
from repro.faults.spec import FaultSpec

#: Hook position fired on the task-graph simulator's hooks (what
#: ``TrioSim(hooks=)`` attaches to) after every injection the injector
#: performs; ``item`` is the injection kind (``"link"``,
#: ``"checkpoint"`` or ``"failure"``), ``detail`` carries specifics.
HOOK_FAULT_INJECT = "fault_inject"


class ChaosError(RuntimeError):
    """A spec demanded a process self-kill outside a sacrificial worker."""


class FaultClock:
    """Checkpoint/rollback bookkeeping for fail-stop failures.

    Tracks the virtual time productive work last (re)started
    (``resume``) and the stall time accumulated since (``stalled``).
    Work lost to a failure at time *now* is everything executed since the
    last checkpoint finished, net of outages::

        lost = max(0, now - resume - stalled)

    With no checkpoint configured the anchor stays at t=0 — a failure
    replays the whole run so far, exactly as a checkpointless job would.
    """

    def __init__(self, interval: Optional[float], checkpoint_cost: float,
                 restore_cost: float):
        self.interval = interval
        self.checkpoint_cost = checkpoint_cost
        self.restore_cost = restore_cost
        self.resume = 0.0
        self.stalled = 0.0
        self.checkpoints_taken = 0
        self.failures_recovered = 0
        self.total_stall = 0.0

    def on_checkpoint(self, now: float) -> float:
        """Record a checkpoint at *now*; returns the stall to apply."""
        self.checkpoints_taken += 1
        self.resume = now + self.checkpoint_cost
        self.stalled = 0.0
        self.total_stall += self.checkpoint_cost
        return self.checkpoint_cost

    def on_failure(self, now: float) -> float:
        """Record a failure at *now*; returns the stall to apply
        (lost work replay + restore cost)."""
        lost = max(0.0, now - self.resume - self.stalled)
        stall = lost + self.restore_cost
        self.failures_recovered += 1
        self.stalled += stall
        self.total_stall += stall
        return stall


class FaultInjector:
    """Installs a :class:`FaultSpec`'s schedule onto a live simulation.

    Parameters
    ----------
    engine, sim:
        The run's event engine and task-graph simulator.
    network:
        The run's network model; link faults and failure stalls need a
        :class:`~repro.network.flow.FlowNetwork` (they raise otherwise).
    spec:
        The fault schedule to replay.
    allow_chaos:
        Whether a ``chaos_kill_at`` in the spec may arm.  Only the sweep
        service's sacrificial worker processes pass ``True``;
        :meth:`install` raises :class:`ChaosError` otherwise.
    """

    def __init__(self, engine: Engine, sim: TaskGraphSimulator, network,
                 spec: FaultSpec, allow_chaos: bool = False):
        self.engine = engine
        self.sim = sim
        self.network = network
        self.spec = spec
        self.allow_chaos = allow_chaos
        self.clock = FaultClock(spec.checkpoint_interval,
                                spec.checkpoint_cost, spec.restore_cost)
        #: Events pinned to absolute wall-clock time (fault arrivals);
        #: excluded from :meth:`Engine.defer_pending` during stalls.
        self._wall_events: List[Event] = []
        #: link -> capacity before the first perturbation (restored on close).
        self._base_capacity: Dict[Tuple[str, str], float] = {}
        #: link -> product of open fault factors (1.0 == healthy).
        self._link_multiplier: Dict[Tuple[str, str], float] = {}
        #: Stragglers indexed per GPU for the dispatch-time lookup.
        self._gpu_windows: Dict[str, List] = {}
        for straggler in spec.stragglers:
            self._gpu_windows.setdefault(straggler.gpu, []).append(straggler)
        self.straggled_tasks = 0
        self.link_transitions = 0
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Wire the schedule into the engine; call before ``run()``."""
        spec = self.spec
        if spec.chaos_kill_at is not None and not self.allow_chaos:
            raise ChaosError(
                "fault spec contains chaos_kill_at (a process self-kill); "
                "it only arms inside sacrificial sweep worker processes"
            )
        if self._installed:
            raise RuntimeError("injector already installed")
        self._installed = True
        for gpu in self._gpu_windows:
            self.sim.set_runtime_scale(gpu, self._scaled_dispatch)
        for fault in spec.link_faults:
            self._wall_events.append(self.engine.call_at(
                fault.start, lambda _ev, f=fault: self._open_link_fault(f)))
            self._wall_events.append(self.engine.call_at(
                fault.end, lambda _ev, f=fault: self._close_link_fault(f)))
        for failure in spec.failures:
            self._wall_events.append(self.engine.call_at(
                failure.time, lambda _ev, f=failure: self._fail(f)))
        if spec.checkpoint_interval is not None:
            # Deliberately NOT a wall event: stalls push checkpoints out
            # along with the work they protect, so a checkpoint never
            # lands inside a rollback window.
            self.engine.call_at(spec.checkpoint_interval, self._checkpoint)
        if spec.chaos_kill_at is not None:
            self._wall_events.append(self.engine.call_at(
                spec.chaos_kill_at, self._chaos_kill))
        return self

    def release(self) -> None:
        """Drop what the installed schedule links back to this injector:
        the straggling GPUs' runtime scale callbacks and the
        fault-arrival events (whose callbacks close over the injector).
        Called when the run ends, so the finished run is freed by
        reference counting rather than by the cyclic collector;
        :meth:`stats` and :meth:`consistency_errors` keep working."""
        if self._installed:
            for gpu in self._gpu_windows:
                self.sim.set_runtime_scale(gpu, None)
        self._wall_events.clear()

    # ------------------------------------------------------------------
    # Stragglers
    # ------------------------------------------------------------------
    def _scaled_dispatch(self, gpu: str, now: float) -> float:
        """The runtime scale callback of a straggling GPU: the product of
        the factors of its windows open at *now*, counting each task it
        scales.

        The scheduler consults it exactly once per compute dispatch on
        the GPUs it is registered for, and only those have windows, so
        counting here sees every straggled task — without keeping the
        simulator's hook list non-empty (an empty hook list lets the
        scheduler skip task-view materialisation entirely).
        """
        factor = 1.0
        for window in self._gpu_windows[gpu]:
            if window.start <= now < window.end:
                factor *= window.factor
        if factor != 1.0:
            self.straggled_tasks += 1
        return factor

    # ------------------------------------------------------------------
    # Link degradation / flapping
    # ------------------------------------------------------------------
    def _link_key(self, u: str, v: str) -> Tuple[str, str]:
        return (u, v) if u <= v else (v, u)

    def _apply_link(self, u: str, v: str, factor: float) -> None:
        key = self._link_key(u, v)
        if key not in self._base_capacity:
            self._base_capacity[key] = self.network.topology[u][v]["bandwidth"]
            self._link_multiplier[key] = 1.0
        self._link_multiplier[key] *= factor
        multiplier = self._link_multiplier[key]
        # Recompute from the recorded base so a closed window restores the
        # healthy capacity exactly (no float drift from repeated scaling).
        if multiplier == 1.0:
            capacity = self._base_capacity[key]
        else:
            capacity = self._base_capacity[key] * multiplier
        self.network.set_link_capacity(u, v, capacity)
        self.link_transitions += 1
        self.sim.invoke_hooks(HookCtx(
            HOOK_FAULT_INJECT, self.engine.now, "link",
            detail={"link": f"{u}-{v}", "capacity": capacity,
                    "multiplier": multiplier},
        ))

    def _open_link_fault(self, fault) -> None:
        u, v = fault.endpoints
        self._apply_link(u, v, fault.factor)

    def _close_link_fault(self, fault) -> None:
        u, v = fault.endpoints
        self._apply_link(u, v, 1.0 / fault.factor)

    # ------------------------------------------------------------------
    # Checkpoint / failure (the FaultClock's events)
    # ------------------------------------------------------------------
    def _stall(self, delay: float) -> None:
        if delay <= 0:
            return
        self.engine.defer_pending(delay, exclude=tuple(self._wall_events))
        if hasattr(self.network, "stall"):
            self.network.stall(delay)

    def _checkpoint(self, _event) -> None:
        if self.sim.unfinished_tasks == 0:
            return  # run drained; stop the periodic clock
        now = self.engine.now
        self._stall(self.clock.on_checkpoint(now))
        self.sim.invoke_hooks(HookCtx(
            HOOK_FAULT_INJECT, now, "checkpoint",
            detail={"cost": self.spec.checkpoint_cost,
                    "count": self.clock.checkpoints_taken},
        ))
        assert self.spec.checkpoint_interval is not None
        self.engine.call_at(
            now + self.spec.checkpoint_cost + self.spec.checkpoint_interval,
            self._checkpoint)

    def _fail(self, failure) -> None:
        if self.sim.unfinished_tasks == 0:
            return  # nothing in flight to lose
        now = self.engine.now
        stall = self.clock.on_failure(now)
        self._stall(stall)
        self.sim.invoke_hooks(HookCtx(
            HOOK_FAULT_INJECT, now, "failure",
            detail={"device": failure.device, "stall": stall,
                    "restore_cost": self.spec.restore_cost},
        ))

    def _chaos_kill(self, _event) -> None:  # pragma: no cover - kills itself
        os.kill(os.getpid(), signal.SIGKILL)

    # ------------------------------------------------------------------
    # Reporting / consistency
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Injection counters (surfaced in CLI output and result notes)."""
        return {
            "straggled_tasks": self.straggled_tasks,
            "link_transitions": self.link_transitions,
            "checkpoints_taken": self.clock.checkpoints_taken,
            "failures_recovered": self.clock.failures_recovered,
            "total_stall_time": self.clock.total_stall,
        }

    def consistency_errors(self) -> List[str]:
        """Post-run invariant violations (the SZ005 sanitizer's feed)."""
        errors = []
        for key, multiplier in self._link_multiplier.items():
            if multiplier != 1.0:
                errors.append(
                    f"link {key[0]}-{key[1]} still degraded after the run "
                    f"(multiplier {multiplier:g})")
        for (u, v), base in self._base_capacity.items():
            current = self.network.topology[u][v]["bandwidth"]
            if self._link_multiplier[(u, v)] == 1.0 and current != base:
                errors.append(
                    f"link {u}-{v} capacity not restored: {current:g} B/s "
                    f"vs healthy {base:g} B/s")
        if self.clock.total_stall < 0 or self.clock.stalled < 0:
            errors.append(
                f"negative stall accounting: total={self.clock.total_stall!r} "
                f"since-anchor={self.clock.stalled!r}")
        return errors
