"""Task-graph execution on the event engine.

The trace extrapolator expresses a multi-GPU execution as a DAG of tasks:

* **compute** tasks occupy one GPU's compute queue for a known duration
  (predicted by the performance model or taken from the trace);
* **transfer** tasks move bytes through the network model and take however
  long the network says (bandwidth sharing included);
* **barrier** tasks are zero-cost joins used to fan dependencies in/out.

Each GPU executes one compute task at a time, picking ready tasks in
creation order (the extrapolator creates tasks in program order, so this
reproduces the issue order of the framework being modelled).  Transfers
run concurrently with compute — which is exactly how communication/
computation overlap (DDP, GPipe) arises in the simulation, rather than
being an analytical correction.

Tasks live as rows of one columnar :class:`TaskStore`, appended a plan
iteration at a time (:class:`repro.core.plan.ExtrapolationPlan`).  The
table is the run's record: busy times and the timeline are read from it
after the run (see :meth:`TaskGraphSimulator.totals`).

Most compute rows are links of one GPU's program-order chain: the row's
only successor is the next compute row on the same GPU, waiting on
nothing else.  Such a row completes by an engine *step* (a ``(time,
row)`` pair queued where its completion event would be; see
:mod:`repro.engine.engine`) instead of an event, so a chain costs one
event, at its last row.  A step takes the sequence number that event
would take, pops where it would pop, and finishes the row the same way.
"""

from __future__ import annotations

import inspect
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.core.results import TimelineRecord
from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.network.base import NetworkModel, Transfer

if TYPE_CHECKING:
    from repro.core.plan import PlanBuilder

#: Codes of the store's ``kind`` column, indexing :data:`KIND_NAMES`.
COMPUTE, TRANSFER, BARRIER = 0, 1, 2
KIND_NAMES = ("compute", "transfer", "barrier")

#: The static per-row columns of a task table, in serialization order:
#: what an extrapolation plan records and a :class:`TaskStore` holds.
TASK_COLUMNS = ("kind", "name", "gpu", "duration", "priority", "src", "dst",
                "nbytes", "meta")


def intern_meta(memo: Dict[tuple, dict], meta: dict) -> dict:
    """The dict of *memo* whose items, in order, compare equal to
    *meta*'s, stored on first sight: rows with equal metadata share one
    dict.  *meta* itself when a value is unhashable.

    Values compare by ``==``, so metadata equal to an earlier row's but
    of another type (``1``, ``1.0``, ``True``) is stored as the earlier
    row's dict."""
    try:
        return memo.setdefault(tuple(meta.items()), meta)
    except TypeError:
        return meta


class _GPUQueue:
    """FIFO compute queue of one GPU: ready row ids, one row in flight,
    and the GPU's runtime scale callback, if it has one."""

    __slots__ = ("ready", "running", "scale")

    def __init__(self, scale: Optional[Callable[[str, float], float]] = None):
        self.ready: list = []
        self.running = None
        self.scale = scale


class TaskStore:
    """The columnar (structure-of-arrays) task table of one simulator.

    One row per task, indexed by ``task_id``: the :data:`TASK_COLUMNS`
    plus the run-time columns below.  Rows are appended a plan iteration
    at a time (:meth:`TaskGraphSimulator._append_iterations`, which also
    appends the block the ``add_*`` builders recorded) and one fence row
    before each iteration numbered ``>= 1``.

    Successors live in two places, walked in this order (which is the
    order the successors were created in):

    * ``indptr``/``indices`` — CSR of the edges *inside* a plan
      iteration, tiled with numpy and materialized as plain lists
      (CPython list indexing beats per-element numpy access in the
      dispatch loop);
    * ``succ`` — the fence wiring, as a per-row list or ``None``: each
      terminal → its fence, each fence → the next iteration's roots.

    ``indegree`` counts each row's unfinished dependencies; the scheduler
    decrements it and starts the row at zero.  A plan iteration's
    non-root rows carry no edge from the fence before them: they also
    wait on rows of their own iteration, which cannot start before the
    fence releases the roots.

    ``finished`` logs row ids in the order they finished: the order the
    timeline lists tasks in and the busy-time sums add them in.
    """

    __slots__ = TASK_COLUMNS + ("queue", "indegree", "indptr", "indices",
                                "succ", "start", "end", "finished",
                                "uniform_priority")

    def __init__(self):
        self.kind: List[int] = []
        self.name: List[str] = []
        self.gpu: List[Optional[str]] = []
        self.duration: List[float] = []
        self.priority: List[int] = []
        self.src: List[Optional[str]] = []
        self.dst: List[Optional[str]] = []
        self.nbytes: List[float] = []
        self.meta: List[dict] = []
        self.queue: List[Optional[_GPUQueue]] = []
        self.indegree: List[int] = []
        self.indptr: List[int] = [0]
        self.indices: List[int] = []
        self.succ: List[Optional[List[int]]] = []
        self.start: List[Optional[float]] = []
        self.end: List[Optional[float]] = []
        self.finished: List[int] = []
        #: Whether every row has priority 0, so a GPU picks its next task
        #: by row id alone.
        self.uniform_priority = True

    def __len__(self) -> int:
        return len(self.kind)

    def successors(self, tid: int) -> List[int]:
        """Row ids that depend on *tid*, in creation order."""
        out = self.indices[self.indptr[tid]:self.indptr[tid + 1]]
        more = self.succ[tid]
        if more:
            out.extend(more)
        return out

    def link(self, dep: int, tid: int) -> None:
        """Make row *tid* wait on row *dep* (a no-op once *dep* is done)."""
        if self.end[dep] is not None:
            return
        more = self.succ[dep]
        if more is None:
            self.succ[dep] = [tid]
        else:
            more.append(tid)
        self.indegree[tid] += 1


class TaskGraphSimulator:
    """Executes a task DAG over GPUs and a network model.

    Instance a plan into it, or record tasks with :meth:`add_compute` /
    :meth:`add_transfer` / :meth:`add_barrier`, then call :meth:`run`.
    The ``add_*`` builders record into a
    :class:`~repro.core.plan.PlanBuilder` block and return the row id
    each task will have; :meth:`run` appends the block as one plan
    iteration.  A dependency is a row id recorded since the last run, or
    a row that has finished.  A task becomes ready when all its
    dependencies finish.
    """

    def __init__(self, engine: Engine, network: NetworkModel):
        self.engine = engine
        self.network = network
        self.store = TaskStore()
        self._gpus: Dict[str, _GPUQueue] = {}
        #: First row the next :meth:`run` considers as a root.
        self._cursor = 0
        self._fence: Optional[int] = None
        #: Row ids of the fence rows, one per iteration numbered >= 1.
        self.fences: List[int] = []
        #: The tasks the ``add_*`` builders recorded since the last
        #: :meth:`run`, and the store row its first task will take.
        self._block: Optional["PlanBuilder"] = None
        self._block_first = 0
        #: Per-GPU compute-duration multipliers (>= 1 slows a device) —
        #: heterogeneous/straggler systems without touching extrapolators.
        self.compute_scale: Dict[str, float] = {}
        # GPU -> the callback set_runtime_scale registered for it.
        self._runtime_scale: Dict[str, Callable[[str, float], float]] = {}
        try:
            #: Whether the network's ``send`` accepts ``pending=`` (delivery
            #: events appended for one bulk submission per release wave).
            self._batched_send = (
                "pending" in inspect.signature(network.send).parameters)
        except (TypeError, ValueError):  # builtins / odd callables
            self._batched_send = False

    def set_runtime_scale(self, gpu: str, callback: Optional[
            Callable[[str, float], float]]) -> None:
        """Multiply each compute task dispatched on *gpu* by
        ``callback(gpu, now)`` — transient stragglers whose factor depends
        on *when* a task runs, not just where.  ``None`` removes the
        callback.  Only the GPUs given one consult it: dispatches on the
        others pay one attribute check."""
        if callback is None:
            self._runtime_scale.pop(gpu, None)
        else:
            self._runtime_scale[gpu] = callback
        queue = self._gpus.get(gpu)
        if queue is not None:
            queue.scale = callback

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _block_deps(self, name: str, deps: Sequence[int]
                    ) -> Tuple["PlanBuilder", List[int]]:
        """The pending block (opened on first use) and *deps* as its
        local row ids.

        A dependency on a row of an earlier run has finished and is
        dropped; any other row outside the block is an error."""
        block = self._block
        if block is None:
            from repro.core.plan import PlanBuilder  # plan.py imports us
            block = self._block = PlanBuilder()
            self._block_first = len(self.store)
        first = self._block_first
        last = first + len(block)
        end = self.store.end
        local = []
        for dep in deps:
            if first <= dep < last:
                local.append(dep - first)
            elif not 0 <= dep < first or end[dep] is None:
                raise ValueError(
                    f"task {name}: dependency {dep} is neither a finished "
                    "task nor a task added since the last run")
        return block, local

    def add_compute(self, name: str, gpu: str, duration: float,
                    deps: Sequence[int] = (), priority: int = 0,
                    **meta) -> int:
        """Record :meth:`repro.core.plan.PlanBuilder.add_compute` in the
        pending block; returns the task's row id.  The GPU's entry in
        :attr:`compute_scale` applies when the block is appended."""
        block, local = self._block_deps(name, deps)
        return self._block_first + block.add_compute(
            name, gpu, duration, local, priority, **meta)

    def add_transfer(self, name: str, src: str, dst: str, nbytes: float,
                     deps: Sequence[int] = (), **meta) -> int:
        """Record :meth:`repro.core.plan.PlanBuilder.add_transfer` in the
        pending block; returns the task's row id."""
        block, local = self._block_deps(name, deps)
        return self._block_first + block.add_transfer(
            name, src, dst, nbytes, local, **meta)

    def add_barrier(self, name: str, deps: Sequence[int] = (), **meta) -> int:
        """Record :meth:`repro.core.plan.PlanBuilder.add_barrier` in the
        pending block; returns the task's row id."""
        block, local = self._block_deps(name, deps)
        return self._block_first + block.add_barrier(name, local, **meta)

    def _flush(self) -> None:
        """Append the pending block as one plan iteration.  The builder's
        dependency lists go first, and an empty store takes the block's
        column lists: no copy of the block is alive beside the store's."""
        block, self._block = self._block, None
        if block is not None:
            plan = block.finish()
            del block
            self._append_iterations(plan, 1, 0, adopt=True)

    def _fence_rows(self, name: str, terminals: Sequence[int]) -> None:
        """Append a fence row waiting on the unfinished *terminals*; the
        next iteration's roots wait on it.  An empty wait-set falls back
        to the previous fence so consecutive fences still order
        correctly."""
        store = self.store
        end = store.end
        live = [t for t in terminals if end[t] is None]
        previous = self._fence
        if not live and previous is not None:
            live = [previous]
        fence = len(store)
        for column, value in zip(TASK_COLUMNS, (BARRIER, name, None, 0.0, 0,
                                                None, None, 0.0, {})):
            getattr(store, column).append(value)
        store.queue.append(None)
        store.indegree.append(0)
        store.indptr.append(store.indptr[-1])
        for column in (store.succ, store.start, store.end):
            column.append(None)
        for dep in live:
            store.link(dep, fence)
        self._fence = fence
        self.fences.append(fence)

    def _append_iterations(self, plan, count: int, start: int,
                           adopt: bool = False) -> None:
        """Append *count* copies of *plan*'s rows (see
        :meth:`repro.core.plan.ExtrapolationPlan.instantiate_iterations`),
        each iteration numbered ``>= 1`` behind a fence ``iteration{i}``.
        A pending block is appended first, keeping its row ids.  With
        *adopt* (a plan used once, then dropped), an empty store takes
        the plan's column lists instead of copies."""
        self._flush()
        store = self.store
        n = len(plan)
        columns = plan.columns
        gpus = columns["gpu"]
        scale = self.compute_scale
        if scale:
            # Compute rows only: barriers and transfers have no GPU.
            columns = dict(columns, duration=[
                d * scale.get(g, 1.0) if g is not None else d
                for d, g in zip(columns["duration"], gpus)])
        queue_of = self._gpus
        for g in dict.fromkeys(gpus):
            if g is not None and g not in queue_of:
                queue_of[g] = _GPUQueue(self._runtime_scale.get(g))
        queues = [queue_of.get(g) for g in gpus]
        if not plan.uniform_priority:
            store.uniform_priority = False
        indptr, indices = plan.succ_ptr, plan.succ_idx
        roots, terminals = plan.roots, plan.terminal_ids
        empty = [None] * n
        previous: Sequence[int] = ()
        for index in range(start, start + count):
            if index > 0:
                self._fence_rows(f"iteration{index}", previous)
            first = len(store)
            for name in TASK_COLUMNS:
                if adopt and not first:
                    setattr(store, name, columns[name])
                else:
                    getattr(store, name).extend(columns[name])
            store.queue.extend(queues)
            store.indegree.extend(plan.indegree)
            store.indptr.extend((indptr[1:] + len(store.indices)).tolist())
            store.indices.extend((indices + first).tolist())
            store.succ.extend(empty)
            store.start.extend(empty)
            store.end.extend(empty)
            fence = self._fence
            if fence is not None:
                for root in roots:
                    store.link(fence, first + root)
            previous = [first + t for t in terminals]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> float:
        """Append the pending block, dispatch the rows not yet run;
        returns the last finish time."""
        self._flush()
        store = self.store
        indegree, end = store.indegree, store.end
        first, self._cursor = self._cursor, len(store)
        pending: list = []
        for tid in range(first, len(store)):
            if not indegree[tid] and end[tid] is None:
                self._start(tid, pending)
        if pending:
            self.engine.schedule_bulk(pending)
        self.engine.stepper = self._step
        try:
            self.engine.run()
        finally:
            # The bound method refers back to us: drop it with the run.
            self.engine.stepper = None
        unfinished = self.unfinished_tasks
        if unfinished:
            stuck = [store.name[t] for t in range(len(store))
                     if end[t] is None][:10]
            raise RuntimeError(
                f"{unfinished} tasks never became ready "
                f"(dependency cycle?); e.g. {stuck}"
            )
        return max(end) if end else self.engine.now

    def _start(self, tid: int, pending: list) -> None:
        store = self.store
        kind = store.kind[tid]
        if kind == COMPUTE:
            queue = store.queue[tid]
            queue.ready.append(tid)
            if queue.running is None:
                self._dispatch(queue, pending)
        elif kind == TRANSFER:
            # engine._now read directly: the .now property costs a
            # descriptor call per event on this path.
            now = self.engine._now
            store.start[tid] = now
            if self._batched_send:
                self.network.send(store.src[tid], store.dst[tid],
                                  store.nbytes[tid], self._delivered, tid,
                                  pending)
            else:
                # Networks without batched delivery schedule directly;
                # flushing first keeps the event-creation order (and so
                # the seq order) identical to scheduling as we walk.
                if pending:
                    self.engine.schedule_bulk(pending)
                    del pending[:]
                self.network.send(store.src[tid], store.dst[tid],
                                  store.nbytes[tid], self._delivered, tid)
        else:  # barrier / fence
            # Completes via a zero-delay event, so long barrier chains
            # never recurse.
            now = self.engine._now
            store.start[tid] = now
            pending.append(Event(now + 0.0, self._complete, tid))

    def _dispatch(self, queue: _GPUQueue, pending: list) -> None:
        ready = queue.ready
        if not ready:
            return
        store = self.store
        if store.uniform_priority:
            # Row ids ascend in creation order, so min() over plain ints
            # is the (priority, creation order) key.
            tid = min(ready)
        else:
            priority = store.priority
            tid = min(ready, key=lambda t: (priority[t], t))
        ready.remove(tid)
        pending.append(self._occupy(queue, tid))

    def _occupy(self, queue: _GPUQueue, tid: int):
        """Start compute row *tid* on *queue* now; returns its completion
        for :meth:`Engine.schedule_bulk`: a ``(time, row)`` step if the
        row is a chain link, else an event."""
        queue.running = tid
        store = self.store
        now = self.engine._now
        store.start[tid] = now
        duration = store.duration[tid]
        scale = queue.scale
        if scale is not None:
            duration *= scale(store.gpu[tid], now)
        if self._links(tid, queue):
            return (now + duration, tid)
        return Event(now + duration, self._complete, tid)

    def _links(self, tid: int, queue: _GPUQueue) -> bool:
        """Whether compute row *tid* is a chain link: its one successor
        is a compute row on *queue* waiting on *tid* alone.  Nothing but
        *tid*'s completion can change that, so it is decided at
        dispatch."""
        store = self.store
        lo = store.indptr[tid]
        if store.indptr[tid + 1] != lo + 1 or store.succ[tid] is not None:
            return False
        rid = store.indices[lo]
        return store.queue[rid] is queue and store.indegree[rid] == 1

    def _step(self, tid: int) -> None:
        """Stepper of the engine: the completion of chain link *tid*.

        With the GPU's ready list empty, :meth:`_finish` would dispatch
        nothing and release the next link alone, which then takes the
        GPU; this does that directly.  Otherwise a ready row takes the
        GPU first, and the row finishes the general way."""
        store = self.store
        queue = store.queue[tid]
        if queue.ready:
            self._finish(tid)
            return
        store.end[tid] = self.engine._now
        store.finished.append(tid)
        rid = store.indices[store.indptr[tid]]
        store.indegree[rid] = 0
        self.engine.schedule_bulk([self._occupy(queue, rid)])

    def _complete(self, event: Event) -> None:
        """Callback of compute and barrier completion events: the row id
        rides in the payload, so no closure is allocated per task."""
        self._finish(event.payload)

    def _delivered(self, transfer: Transfer) -> None:
        """Delivery callback of every transfer row: the row id rides in
        the transfer's tag, so no closure is allocated per transfer."""
        self._finish(transfer.tag)

    def _finish(self, tid: int) -> None:
        store = self.store
        now = self.engine._now
        store.end[tid] = now
        store.finished.append(tid)
        pending: list = []
        if store.kind[tid] == COMPUTE:
            queue = store.queue[tid]
            queue.running = None
            self._dispatch(queue, pending)
        indegree = store.indegree
        indptr = store.indptr
        lo = indptr[tid]
        hi = indptr[tid + 1]
        if lo != hi:
            indices = store.indices
            for k in range(lo, hi):
                rid = indices[k]
                left = indegree[rid] - 1
                indegree[rid] = left
                if not left:
                    self._start(rid, pending)
        more = store.succ[tid]
        if more is not None:
            for rid in more:
                left = indegree[rid] - 1
                indegree[rid] = left
                if not left:
                    self._start(rid, pending)
        if pending:
            self.engine.schedule_bulk(pending)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def totals(self, stop: Optional[int] = None,
               since: Optional["TaskTotals"] = None,
               timeline: bool = False) -> "TaskTotals":
        """Walk the finish log from *since*'s position (or the start) to
        *stop* (or the end), adding each compute row's ``end - start`` to
        its GPU's busy time and each transfer's to the communication
        time, in finish order, on top of *since*'s running totals.  With
        *timeline*, each compute and transfer row read also yields a
        :class:`TimelineRecord` (barriers carry no time)."""
        store = self.store
        if since is None:
            busy = dict.fromkeys(self._gpus, 0.0)
            comm, first = 0.0, 0
        else:
            busy, comm, first = dict(since.busy), since.comm, since.position
        rows = store.finished[first:stop]
        kind, gpu, start, end = store.kind, store.gpu, store.start, store.end
        records: List[TimelineRecord] = []
        for tid in rows:
            code = kind[tid]
            if code == BARRIER:
                continue
            if code == COMPUTE:
                busy[gpu[tid]] += end[tid] - start[tid]
            else:
                comm += end[tid] - start[tid]
            if timeline:
                # As in shift_records: the frozen constructor costs 3x.
                meta = store.meta[tid]
                record = object.__new__(TimelineRecord)
                record.__dict__.update(
                    name=store.name[tid], kind=KIND_NAMES[code],
                    resource=(gpu[tid] if code == COMPUTE else
                              f"{store.src[tid]}->{store.dst[tid]}"),
                    start=start[tid], end=end[tid],
                    phase=meta.get("phase"), layer=meta.get("layer"))
                records.append(record)
        return TaskTotals(busy, comm, records, first + len(rows))

    @property
    def unfinished_tasks(self) -> int:
        """Tasks not yet finished (drains to 0 as the run completes)."""
        store = self.store
        return len(store) - len(store.finished)


class TaskTotals(NamedTuple):
    """What :meth:`TaskGraphSimulator.totals` read: per-GPU busy and
    transfer time (running totals from the log's start), the timeline
    records of the rows read, and the log position read up to."""

    busy: Dict[str, float]
    comm: float
    timeline: List[TimelineRecord]
    position: int
