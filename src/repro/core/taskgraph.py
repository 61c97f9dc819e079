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

Tasks live as rows of one columnar :class:`TaskStore`; a
:class:`SimTask` is a view of one row.  The table is the run's record: busy
times and the timeline are read from it after the run (see
:meth:`TaskGraphSimulator.totals`).
"""

from __future__ import annotations

import inspect
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence)

from repro.core.results import TimelineRecord
from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.engine.hooks import HookCtx, Hookable
from repro.network.base import NetworkModel, Transfer

HOOK_TASK_START = "task_start"
HOOK_TASK_END = "task_end"

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
    plus the run-time columns below.  Rows are appended one at a time by
    the ``add_*`` builders and a plan iteration at a time by
    :meth:`repro.core.plan.ExtrapolationPlan.instantiate_iterations`.

    Successors live in two places, walked in this order (which is the
    order the successors were created in):

    * ``indptr``/``indices`` — CSR of the edges *inside* a plan
      iteration, tiled with numpy and materialized as plain lists
      (CPython list indexing beats per-element numpy access in the
      dispatch loop);
    * ``succ`` — every other edge, as a per-row list or ``None``: the
      builders' dependencies and the inter-iteration fence wiring
      (each terminal → its fence, each fence → the next iteration's
      roots).

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


def _column(name: str, doc: str) -> property:
    def get(self):
        return getattr(self.store, name)[self.task_id]
    return property(get, doc=doc)


class SimTask:
    """A read-only view of one :class:`TaskStore` row.

    Returned by the ``add_*`` builders and handed to task hooks.  Every
    field reads the store, so a view is never stale: ``end_time`` is set
    the moment its row finishes.
    """

    __slots__ = ("store", "task_id")

    def __init__(self, store: TaskStore, task_id: int):
        self.store = store
        self.task_id = task_id

    name = _column("name", "Task name.")
    gpu = _column("gpu", "GPU of a compute task.")
    duration = _column("duration", "Compute duration (seconds, scaled).")
    priority = _column("priority", "Lower runs first among ready tasks.")
    src = _column("src", "Transfer source.")
    dst = _column("dst", "Transfer destination.")
    nbytes = _column("nbytes", "Transfer size in bytes.")
    meta = _column("meta", "Free-form task metadata, shared by the rows "
                   "whose metadata is equal: nothing mutates it.")
    start_time = _column("start", "Dispatch time, or ``None``.")
    end_time = _column("end", "Finish time, or ``None``.")

    @property
    def kind(self) -> str:
        return KIND_NAMES[self.store.kind[self.task_id]]

    @property
    def done(self) -> bool:
        return self.store.end[self.task_id] is not None

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimTask) and other.store is self.store
                and other.task_id == self.task_id)

    def __hash__(self) -> int:
        return hash((id(self.store), self.task_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimTask {self.name} ({self.kind})>"


class TaskGraphSimulator(Hookable):
    """Executes a task DAG over GPUs and a network model.

    Build the graph with :meth:`add_compute` / :meth:`add_transfer` /
    :meth:`add_barrier` (or instance a plan into it), then call
    :meth:`run`.  Dependencies are given at creation time; a task becomes
    ready when all its dependencies finish.
    """

    def __init__(self, engine: Engine, network: NetworkModel):
        super().__init__()
        self.engine = engine
        self.network = network
        self.store = TaskStore()
        self._gpus: Dict[str, _GPUQueue] = {}
        #: First row the next :meth:`run` considers as a root.
        self._cursor = 0
        self._fence: Optional[int] = None
        self.fences: List[SimTask] = []
        self._metas: Dict[tuple, dict] = {}
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

    def _queue(self, gpu: str) -> _GPUQueue:
        """*gpu*'s compute queue, made on first use."""
        queue = self._gpus.get(gpu)
        if queue is None:
            queue = self._gpus[gpu] = _GPUQueue(self._runtime_scale.get(gpu))
        return queue

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> List[SimTask]:
        """Views of every row, in creation order."""
        store = self.store
        return [SimTask(store, tid) for tid in range(len(store))]

    def _add(self, kind: int, name: str, deps: Iterable[int],
             gpu: Optional[str] = None, duration: float = 0.0,
             priority: int = 0, src: Optional[str] = None,
             dst: Optional[str] = None, nbytes: float = 0.0,
             meta: Optional[dict] = None) -> int:
        store = self.store
        tid = len(store)
        store.kind.append(kind)
        store.name.append(name)
        store.gpu.append(gpu)
        store.duration.append(duration)
        store.priority.append(priority)
        store.src.append(src)
        store.dst.append(dst)
        store.nbytes.append(nbytes)
        store.meta.append(intern_meta(self._metas, meta or {}))
        store.queue.append(self._queue(gpu) if kind == COMPUTE else None)
        store.indegree.append(0)
        store.indptr.append(store.indptr[-1])
        store.succ.append(None)
        store.start.append(None)
        store.end.append(None)
        if priority:
            store.uniform_priority = False
        for dep in deps:
            store.link(dep, tid)
        if self._fence is not None:
            store.link(self._fence, tid)
        return tid

    def fence(self, name: str = "fence") -> SimTask:
        """Insert a global synchronization point.

        The fence completes when every task created so far has finished,
        and every task created *afterwards* implicitly depends on it.
        This is how multi-iteration training is simulated: one
        extrapolated iteration per fence interval.
        """
        store = self.store
        indptr, succ, end = store.indptr, store.succ, store.end
        terminals = [t for t in range(len(store))
                     if indptr[t] == indptr[t + 1] and not succ[t]
                     and end[t] is None]
        return SimTask(store, self._fence_rows(name, terminals))

    def fence_from(self, name: str, terminals: Sequence[SimTask]) -> SimTask:
        """A :meth:`fence` whose wait-set is the given *terminals*.

        Callers that know the terminal tasks skip :meth:`fence`'s scan of
        the whole graph, with identical semantics (tasks created
        afterwards implicitly depend on the fence; an empty wait-set
        falls back to the previous fence so consecutive fences still
        order correctly).
        """
        return SimTask(self.store, self._fence_rows(
            name, [t.task_id for t in terminals]))

    def _fence_rows(self, name: str, terminals: Sequence[int]) -> int:
        end = self.store.end
        live = [t for t in terminals if end[t] is None]
        previous = self._fence
        if not live and previous is not None:
            live = [previous]
        self._fence = None  # the fence itself only depends on terminals
        fence = self._add(BARRIER, name, live)
        self._fence = fence
        self.fences.append(SimTask(self.store, fence))
        return fence

    def add_compute(self, name: str, gpu: str, duration: float,
                    deps: Sequence[SimTask] = (), priority: int = 0,
                    **meta) -> SimTask:
        """A compute task of known *duration* pinned to *gpu* (scaled by
        the GPU's entry in :attr:`compute_scale`, if any).

        ``priority`` breaks ties among simultaneously-ready tasks on the
        same GPU (lower first, then creation order) — how schedule
        variants like 1F1B impose their issue order.

        ``**meta`` is stored through :func:`intern_meta`: metadata equal
        by ``==`` to an earlier row's is stored as that row's dict.
        """
        if duration < 0:
            raise ValueError(f"task {name}: negative duration")
        duration = float(duration) * self.compute_scale.get(gpu, 1.0)
        return SimTask(self.store, self._add(
            COMPUTE, name, [d.task_id for d in deps], gpu=gpu,
            duration=duration, priority=priority, meta=meta))

    def add_transfer(self, name: str, src: str, dst: str, nbytes: float,
                     deps: Sequence[SimTask] = (), **meta) -> SimTask:
        """A network transfer of *nbytes* from *src* to *dst*;
        ``**meta`` is stored as :meth:`add_compute` says."""
        if nbytes < 0:
            raise ValueError(f"task {name}: negative bytes")
        return SimTask(self.store, self._add(
            TRANSFER, name, [d.task_id for d in deps], src=src, dst=dst,
            nbytes=float(nbytes), meta=meta))

    def add_barrier(self, name: str, deps: Sequence[SimTask] = (), **meta) -> SimTask:
        """A zero-cost join node; ``**meta`` is stored as
        :meth:`add_compute` says."""
        return SimTask(self.store, self._add(
            BARRIER, name, [d.task_id for d in deps], meta=meta))

    def _append_iterations(self, plan, count: int, start: int) -> None:
        """Append *count* copies of *plan*'s rows (see
        :meth:`repro.core.plan.ExtrapolationPlan.instantiate_iterations`),
        each iteration numbered ``>= 1`` behind a fence ``iteration{i}``."""
        store = self.store
        n = len(plan)
        columns = plan.columns
        gpus = columns["gpu"]
        scale = self.compute_scale
        if scale:
            # x * 1.0 is bit-identical to x: matches add_compute's
            # unconditional multiply (compute rows only).
            columns = dict(columns, duration=[
                d * scale.get(g, 1.0) if g is not None else d
                for d, g in zip(columns["duration"], gpus)])
        made = {g: self._queue(g) for g in dict.fromkeys(gpus)
                if g is not None}
        queues = [made.get(g) for g in gpus]
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
        """Dispatch the rows not yet run; returns the last finish time."""
        store = self.store
        indegree, end = store.indegree, store.end
        first, self._cursor = self._cursor, len(store)
        pending: list = []
        for tid in range(first, len(store)):
            if not indegree[tid] and end[tid] is None:
                self._start(tid, pending)
        if pending:
            self.engine.schedule_bulk(pending)
        self.engine.run()
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
            if self._hooks:
                self.invoke_hooks(
                    HookCtx(HOOK_TASK_START, now, SimTask(store, tid)))
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
        queue.running = tid
        now = self.engine._now
        store.start[tid] = now
        if self._hooks:
            self.invoke_hooks(HookCtx(HOOK_TASK_START, now, SimTask(store, tid)))
        duration = store.duration[tid]
        scale = queue.scale
        if scale is not None:
            duration *= scale(store.gpu[tid], now)
        pending.append(Event(now + duration, self._complete, tid))

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
        if self._hooks:
            self.invoke_hooks(HookCtx(HOOK_TASK_END, now, SimTask(store, tid)))
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
