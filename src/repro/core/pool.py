"""Persistent fork-shared worker pool and the one loop that drives it.

Two callers fan work out to subprocesses: the stage-count driver
(:func:`repro.core.search.search_all_stage_counts`) and the strategy
arena (:func:`repro.arena.run_tournament`).  The original driver forked
one fresh process per (stage count, attempt) and shipped the whole
problem — op graph, cluster spec, and profile database — through the
pickled process arguments every time.  For the models the paper
searches, that serialization dwarfs the actual search work at small
budgets.  This module keeps a pool of long-lived workers instead:

* Under the ``fork`` start method (the POSIX default), workers inherit
  the problem state read-only through :data:`_FORK_STATE` at fork time
  — the graph, database, and search options are never pickled at all,
  and a worker costs one ``fork()`` no matter how large the model is.
* Under ``spawn``/``forkserver``, the state is shipped once per
  *worker* (through the process arguments) instead of once per *task*.

Crash safety is preserved by construction: each worker is an
individual process with a private duplex pipe, so the task loop
:func:`run_pool_tasks` can kill, discard, and lazily replace one
worker without disturbing the others — none of the fate-sharing of a
``ProcessPoolExecutor``, where a single dead process poisons the whole
executor.  Both callers supply only callbacks; dispatch, draining,
crash detection and reaping exist once, here.
"""
from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple,
)

from ..telemetry import get_bus
from ..telemetry.events import (
    DRIVER_POOL_WORKER_EXIT,
    DRIVER_POOL_WORKER_START,
)

#: State a forked pool worker inherits instead of unpickling:
#: ``(worker_fn, payload_builder)``.  Set by :meth:`WorkerPool.spawn`
#: immediately before each fork and cleared right after, under
#: :data:`_FORK_LOCK` — pools are spawned concurrently from daemon
#: worker threads, and an unguarded set/fork/clear lets one pool's
#: child inherit another pool's state.
_FORK_STATE: Optional[Tuple[Callable, Callable]] = None

#: Serializes the set-state/fork/clear-state window in :meth:`spawn`.
_FORK_LOCK = threading.Lock()

#: Seconds to wait for a worker to acknowledge shutdown before
#: escalating to ``terminate()``.
_SHUTDOWN_GRACE = 2.0

#: Extra seconds a task gets past its deadline to ship its best-so-far
#: result home before :func:`run_pool_tasks` reaps its worker.
KILL_GRACE = 1.0


def _apply_worker_memory_limit(memory_limit_mb: Optional[float]) -> None:
    """Cap the worker's address space (the opt-in RSS guard).

    A runaway stage count then fails with a structured ``MemoryError``
    (surfaced as ``SearchFailure(kind="oom")``) instead of inviting the
    host OOM killer.  No-op where ``resource`` is unavailable or the
    host forbids lowering limits.
    """
    if memory_limit_mb is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX host
        return
    limit = int(memory_limit_mb * 1024 * 1024)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):  # pragma: no cover - restrictive host
        pass


def _pool_worker_main(
    conn, memory_limit_mb: Optional[float], shipped_state
) -> None:
    """Task loop of one pool worker.

    Receives tasks over the pipe until a ``None`` sentinel (or a closed
    pipe) arrives.  Every task runs under a fresh telemetry bus with a
    capture sink — the forked parent bus, and any file handles its
    sinks hold, is never written — and its events travel back alongside
    the result so the parent can merge them with worker attribution.
    A task that raises reports ``("error", message, events)`` and the
    worker *survives* to take the next task; only a crash (abort,
    kill, unhandled exit) loses the process, and the scheduler detects
    that through the dead pipe and exit code.
    """
    from ..telemetry import RingBufferSink, TelemetryBus, set_bus

    _apply_worker_memory_limit(memory_limit_mb)
    state = shipped_state if shipped_state is not None else _FORK_STATE
    worker_fn, payload_builder = state
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        bus = TelemetryBus()
        capture = bus.add_sink(RingBufferSink())
        set_bus(bus)
        try:
            result = worker_fn(payload_builder(task))
            conn.send(("ok", result, capture.events))
        except BaseException as exc:  # noqa: BLE001 - report, don't mask
            try:
                conn.send(
                    ("error", f"{type(exc).__name__}: {exc}", capture.events)
                )
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already gone
        pass


@dataclass
class PoolWorker:
    """One live pool process and its task pipe."""

    process: multiprocessing.Process
    conn: Any
    busy: bool = False
    tasks_done: int = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """Lazily-grown pool of restartable search workers.

    Workers are spawned on demand (a driver whose deadline already
    expired forks nothing), capped at ``max_workers``, and reused
    across tasks and retry attempts.  The scheduler owns failure
    policy; the pool only owns process lifecycle:

    * :meth:`acquire` returns an idle worker, growing the pool if
      allowed, or ``None`` when saturated.
    * :meth:`discard` removes one worker (optionally killing it) —
      used for crashes and timeouts; the next :meth:`acquire` forks a
      replacement.
    * :meth:`shutdown` drains idle workers with a sentinel and
      escalates to ``terminate()`` after a grace period.

    ``driver.pool.worker_start`` / ``driver.pool.worker_exit`` events
    record each process's lifetime and task count, so run logs show
    exactly how much process churn the run paid.
    """

    def __init__(
        self,
        worker_fn: Callable,
        payload_builder: Callable,
        *,
        max_workers: int,
        memory_limit_mb: Optional[float] = None,
        bus=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._state = (worker_fn, payload_builder)
        self._max_workers = max_workers
        self._memory_limit_mb = memory_limit_mb
        self._ctx = multiprocessing.get_context()
        self._fork = self._ctx.get_start_method() == "fork"
        self._bus = bus if bus is not None else get_bus()
        self._workers: List[PoolWorker] = []
        self.num_forks = 0

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> Tuple[PoolWorker, ...]:
        return tuple(self._workers)

    def idle_worker(self) -> Optional[PoolWorker]:
        for worker in self._workers:
            if not worker.busy and worker.alive():
                return worker
        return None

    def can_grow(self) -> bool:
        return len(self._workers) < self._max_workers

    def spawn(self) -> PoolWorker:
        """Fork one new worker (inheriting state when fork is used)."""
        global _FORK_STATE
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        shipped = None if self._fork else self._state
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self._memory_limit_mb, shipped),
            daemon=True,  # a hung worker must not block interpreter exit
        )
        with _FORK_LOCK:
            if self._fork:
                _FORK_STATE = self._state
            try:
                process.start()
            finally:
                if self._fork:
                    _FORK_STATE = None
        child_conn.close()
        worker = PoolWorker(process=process, conn=parent_conn)
        self._workers.append(worker)
        self.num_forks += 1
        self._bus.emit(
            DRIVER_POOL_WORKER_START,
            source="driver",
            worker_pid=process.pid,
            pool_size=len(self._workers),
            forks=self.num_forks,
        )
        return worker

    def acquire(self) -> Optional[PoolWorker]:
        """An idle worker, a fresh one if the pool may grow, or None."""
        worker = self.idle_worker()
        if worker is None and self.can_grow():
            worker = self.spawn()
        return worker

    def discard(self, worker: PoolWorker, *, kill: bool = False) -> None:
        """Remove ``worker`` from the pool (terminating it if asked)."""
        if worker in self._workers:
            self._workers.remove(worker)
        if kill and worker.process.is_alive():
            worker.process.terminate()
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        self._bus.emit(
            DRIVER_POOL_WORKER_EXIT,
            source="driver",
            worker_pid=worker.pid,
            tasks=worker.tasks_done,
            killed=kill,
            exitcode=worker.process.exitcode,
        )

    def shutdown(self) -> None:
        """Drain every remaining worker (sentinel, then terminate)."""
        for worker in list(self._workers):
            if worker.alive() and not worker.busy:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in list(self._workers):
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(timeout=remaining)
            self.discard(worker, kill=worker.process.is_alive())

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def forward_events(bus, events, **attrs) -> None:
    """Re-emit a worker's captured events on ``bus`` with ``attrs``."""
    if not bus.active:
        return
    for event in events:
        bus.emit_event(event.with_attrs(**attrs))


def _receive(worker: PoolWorker):
    """The task's reply, or ``None`` while it runs (or once it died)."""
    if not worker.conn.poll(0):
        # The process may have exited between its last send and now:
        # drain the pipe once more before the worker counts as lost.
        if worker.alive() or not worker.conn.poll(0.05):
            return None
    try:
        return worker.conn.recv()
    except (EOFError, OSError):
        return None


@dataclass
class _Running:
    worker: PoolWorker
    attempt: int
    kill_at: Optional[float]


def run_pool_tasks(
    keys: Iterable[Hashable],
    worker_fn: Callable,
    payload_builder: Callable,
    *,
    max_workers: int,
    bus,
    message_for: Callable[[Hashable], Any],
    on_dispatch: Callable[[Hashable, int, Optional[int]], None],
    on_message: Callable[[Hashable, int, str, Any, list], Optional[float]],
    on_lost: Callable[[Hashable, int, Optional[int]], Optional[float]],
    on_shed: Optional[Callable[[Hashable, int], None]] = None,
    timeout: Optional[float] = None,
    deadline=None,
    memory_limit_mb: Optional[float] = None,
) -> Dict[str, int]:
    """Run one task per key on a :class:`WorkerPool` until all settle.

    Each key is sent to a worker as ``message_for(key)`` and turned
    into the worker's payload by ``payload_builder``; keys must be
    unique.  The loop reports through the callbacks, each getting the
    key and its 0-based attempt:

    * ``on_dispatch(key, attempt, worker_pid)`` once the task is sent;
    * ``on_message(key, attempt, status, value, events)`` for the
      worker's ``("ok" | "error", value, events)`` reply — the worker
      survives and takes the next task;
    * ``on_lost(key, attempt, exitcode)`` once a worker died mid-task
      (its exit code) or was reaped past its kill time (``None``).

    ``on_message`` and ``on_lost`` return a backoff in seconds to
    requeue the key as the next attempt, or ``None`` when it is done.
    A task is reaped ``timeout`` seconds after dispatch and
    :data:`KILL_GRACE` seconds past the request ``deadline``
    (a :class:`~repro.core.budget.Deadline`).  Once the deadline
    expires, nothing more is dispatched: each queued key goes to
    ``on_shed(key, attempt)``, which a caller passing a ``deadline``
    must supply.  Workers fork lazily on first dispatch,
    so an already-expired deadline forks nothing.

    Returns the pool's process ``forks`` and dispatched ``tasks``
    (tasks exceeding forks is the pool's reuse at work).
    """
    queue = deque((key, 0, 0.0) for key in keys)  # (key, attempt, not_before)
    running: Dict[Hashable, _Running] = {}
    dispatched = 0
    pool = WorkerPool(
        worker_fn,
        payload_builder,
        max_workers=max_workers,
        memory_limit_mb=memory_limit_mb,
        bus=bus,
    )

    try:
        while queue or running:
            now = time.monotonic()
            if deadline is not None and deadline.expired():
                # Anytime contract: stop dispatching, shed the backlog,
                # and give in-flight tasks one grace window to return
                # their best-so-far results before they are reaped.
                while queue:
                    key, attempt, _ = queue.popleft()
                    on_shed(key, attempt)
                reap_at = now + KILL_GRACE
                for task in running.values():
                    if task.kill_at is None or task.kill_at > reap_at:
                        task.kill_at = reap_at
            # Dispatch whatever fits, skipping retries still in backoff.
            for _ in range(len(queue)):
                key, attempt, not_before = queue[0]
                if not_before > now:
                    queue.rotate(-1)
                    continue
                worker = pool.acquire()
                if worker is None:
                    break  # every worker busy and the pool is at cap
                queue.popleft()
                try:
                    worker.conn.send(message_for(key))
                except (BrokenPipeError, OSError):
                    # The idle worker died between tasks; replace it and
                    # re-dispatch the task, which never started.
                    pool.discard(worker)
                    queue.appendleft((key, attempt, not_before))
                    continue
                worker.busy = True
                dispatched += 1
                on_dispatch(key, attempt, worker.pid)
                kill_at = None if timeout is None else now + timeout
                left = None if deadline is None else deadline.remaining()
                if left is not None:
                    reap_at = now + left + KILL_GRACE
                    kill_at = (
                        reap_at if kill_at is None else min(kill_at, reap_at)
                    )
                running[key] = _Running(worker, attempt, kill_at)

            finished = []
            for key, task in running.items():
                worker = task.worker
                message = _receive(worker)
                if message is not None:
                    worker.busy = False
                    worker.tasks_done += 1
                    status, value, events = message
                    delay = on_message(
                        key, task.attempt, status, value, events
                    )
                elif not worker.alive():
                    pool.discard(worker)
                    delay = on_lost(key, task.attempt, worker.process.exitcode)
                elif (
                    task.kill_at is not None
                    and time.monotonic() >= task.kill_at
                ):
                    pool.discard(worker, kill=True)
                    delay = on_lost(key, task.attempt, None)
                else:
                    continue
                finished.append((key, task.attempt, delay))
            for key, attempt, delay in finished:
                del running[key]
                if delay is not None:
                    queue.append((key, attempt + 1, time.monotonic() + delay))
            if running and not finished:
                time.sleep(0.005)
    finally:
        pool.shutdown()
    return {"forks": pool.num_forks, "tasks": dispatched}
