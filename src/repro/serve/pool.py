"""The crash-safe worker pool: supervised processes, typed outcomes.

``multiprocessing.Pool`` famously turns a SIGKILLed worker into a
hang (the parent waits forever for a result that will never come).
This pool is built the other way around: every worker is a directly
supervised ``multiprocessing.Process`` with a dedicated duplex pipe,
and a supervisor thread multiplexes over *both* the result pipes and
the process **sentinels** with :func:`multiprocessing.connection.wait`
— so worker death (segfault, OOM-kill, chaos SIGKILL) is an observed
event, not an absence of one.

Lifecycle of a submitted job:

1. :meth:`WorkerPool.submit` gates the job's key through the circuit
   breaker (open ⇒ immediate ``quarantined`` outcome), then queues a
   ticket and returns a :class:`concurrent.futures.Future`.
2. The ticket goes straight to an idle worker if there is one (the
   pool is work-conserving: nothing waits while a worker idles);
   otherwise the supervisor dispatches it when a worker frees up,
   oldest admissible first (backoff ``not_before`` gates re-queued
   work), gathering queued compatible ``/run`` lane-mates into one
   lockstep batch.
3. A worker answers with a structured response → the future resolves.
4. A worker *dies* with the ticket in flight → the worker is
   respawned, the death is a breaker strike against the ticket's key,
   and the ticket re-queues with capped seeded-jittered exponential
   backoff — unless the breaker opened (``quarantined``) or the retry
   budget is exhausted (``crashed``).
5. A ticket overruns its deadline: in the queue it resolves
   ``timeout`` without ever running; in flight, the worker gets
   ``kill_grace_s`` beyond the deadline (the in-simulator deadline
   should fire first and return a structured timeout), then is killed
   and the ticket resolves ``timeout`` — a wedged worker also counts
   a strike, since it cost a process.

Every future resolves to a dict with a terminal ``status``: ``ok`` /
``timeout`` / ``error`` (from the worker), or ``quarantined`` /
``crashed`` / ``shutdown`` (from the pool).  Futures are never failed
with exceptions — callers branch on data, not exception types, and
the HTTP layer maps statuses straight to response codes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as mp_wait

from repro.obs.events import PH_COMPLETE, Event
from repro.obs.tracer import NULL_TRACER
from repro.serve.backoff import BackoffPolicy, CircuitBreakers
from repro.serve.jobs import execute_batch, execute_job, reset_worker_cache


def _worker_main(conn, cache_dir) -> None:
    """Worker process body: recv lanes, execute, send responses, repeat.

    A message is a list of ``(ticket_id, job, attempt, budget_s)``
    lanes: one lane executes through ``execute_job``, several through
    ``execute_batch`` (the lockstep path).  Both guarantee a
    structured response for every lane, so the only way out of this
    loop is a shutdown sentinel (``None``) or process death — which
    is exactly the contract the supervisor's crash detection relies
    on.
    """
    # Under fork the parent's compile cache (if it ever executed jobs
    # in-process) arrives via inherited globals pinned to the wrong
    # cache_dir; start from a clean slate.
    reset_worker_cache()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        if len(message) == 1:
            ticket_id, job, attempt, budget_s = message[0]
            responses = [(ticket_id, execute_job(
                job, attempt=attempt, budget_s=budget_s,
                cache_dir=cache_dir,
            ))]
        else:
            responses = execute_batch(message, cache_dir=cache_dir)
        try:
            conn.send(responses)
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Ticket:
    """One submitted job's lifetime through queue, retries, outcome."""

    ticket_id: int
    key: str
    job: dict
    future: Future
    deadline: float | None  # absolute monotonic, None = unbounded
    submitted: float = 0.0
    attempt: int = 0        # dispatch attempts so far (crashes bump it)
    not_before: float = 0.0  # backoff gate for re-queued tickets
    probe: bool = False      # half-open breaker probe
    batch_key: str | None = None  # gather identity; None = always scalar

    def budget(self, now: float) -> float | None:
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - now)


class _Worker:
    """One supervised process + its pipe."""

    def __init__(self, ctx, cache_dir) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, cache_dir), daemon=True
        )
        self.process.start()
        child_conn.close()
        #: The lanes dispatched to this worker (empty = idle): one
        #: ticket for scalar work, several for a lockstep batch.
        self.inflight: list[_Ticket] = []
        self.dispatched_at = 0.0

    @property
    def sentinel(self) -> int:
        return self.process.sentinel

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, AttributeError):
            pass

    def reap(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=5)


@dataclass
class PoolStats:
    """Supervisor counters, exposed verbatim by ``/healthz``."""

    submitted: int = 0
    completed: int = 0
    crashes: int = 0
    restarts: int = 0
    requeues: int = 0
    quarantined: int = 0
    timeouts: int = 0
    deadline_kills: int = 0
    crashed_out: int = 0
    rejected_open: int = 0
    #: Lockstep dispatches of >= 2 lanes, and the lanes they carried
    #: (lanes / flushes = mean batch occupancy).
    batch_flushes: int = 0
    batch_lanes: int = 0

    def to_json(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "requeues": self.requeues,
            "quarantined": self.quarantined,
            "timeouts": self.timeouts,
            "deadline_kills": self.deadline_kills,
            "crashed_out": self.crashed_out,
            "rejected_open": self.rejected_open,
            "batch_flushes": self.batch_flushes,
            "batch_lanes": self.batch_lanes,
        }


class WorkerPool:
    """Supervised crash-safe pool; see the module docstring.

    Thread-safe: :meth:`submit` may be called from any thread (the
    asyncio service calls it from the event loop and wraps the future
    with ``asyncio.wrap_future``).
    """

    def __init__(
        self,
        n_workers: int = 2,
        *,
        cache_dir: str | None = None,
        backoff: BackoffPolicy | None = None,
        breakers: CircuitBreakers | None = None,
        max_requeues: int = 4,
        kill_grace_s: float = 2.0,
        batch_max_lanes: int = 1,
        tracer=NULL_TRACER,
        clock=time.monotonic,
    ) -> None:
        if n_workers < 1:
            raise ValueError("pool needs at least one worker")
        if batch_max_lanes < 1:
            raise ValueError("batch_max_lanes must be >= 1")
        self.n_workers = n_workers
        self.cache_dir = cache_dir
        self.backoff = backoff or BackoffPolicy()
        self.breakers = breakers or CircuitBreakers()
        self.max_requeues = max_requeues
        self.kill_grace_s = kill_grace_s
        self.batch_max_lanes = batch_max_lanes
        self.tracer = tracer
        self.clock = clock
        self.stats = PoolStats()
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._pending: list[_Ticket] = []
        self._workers: list[_Worker] = []
        self._next_id = 0
        self._closing = False
        self._drain = True
        self._started = False
        self._wake_r, self._wake_w = os.pipe()
        self._supervisor: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            self._workers = [
                _Worker(self._ctx, self.cache_dir)
                for _ in range(self.n_workers)
            ]
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-pool", daemon=True
        )
        self._supervisor.start()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    # ------------------------------------------------------------------
    def submit(self, job: dict, *, key: str,
               deadline_s: float | None = None,
               batch_key: str | None = None) -> Future:
        """Queue one job; resolves to a terminal structured outcome.

        The job dispatches right here when a worker is idle; otherwise
        it queues for the supervisor.  ``batch_key`` marks it
        gatherable: queued jobs sharing a key may dispatch together as
        one lockstep batch (bounded by ``batch_max_lanes``).  Half-open
        breaker probes always run scalar — a probe's strike semantics
        must not be chargeable to innocent lane-mates.
        """
        future: Future = Future()
        now = self.clock()
        with self._lock:
            if not self._started or self._closing:
                future.set_result({"status": "shutdown"})
                return future
            verdict = self.breakers.admit(key)
            if verdict == "reject":
                self.stats.rejected_open += 1
                future.set_result({
                    "status": "quarantined",
                    "key": key,
                    "detail": "circuit breaker open for this request",
                })
                return future
            self.stats.submitted += 1
            ticket = _Ticket(
                ticket_id=self._next_id,
                key=key,
                job=job,
                future=future,
                deadline=(now + deadline_s) if deadline_s is not None
                else None,
                submitted=now,
                probe=(verdict == "probe"),
                batch_key=(
                    batch_key if self.batch_max_lanes > 1
                    and verdict != "probe" else None
                ),
            )
            self._next_id += 1
            self._pending.append(ticket)
            self._dispatch_locked(now)
        self._wake()
        return future

    def depth(self) -> dict[str, int]:
        with self._lock:
            inflight = sum(len(w.inflight) for w in self._workers)
            return {"pending": len(self._pending), "inflight": inflight,
                    "workers": len(self._workers)}

    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: float | None = 30.0
              ) -> None:
        """Stop the pool: drain in-flight work (default) or abort it."""
        with self._lock:
            if not self._started:
                return
            self._closing = True
            self._drain = drain
        self._wake()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Supervisor internals — all _locked helpers assume self._lock held.
    # ------------------------------------------------------------------
    def _complete_locked(self, ticket: _Ticket, outcome: dict) -> None:
        self.stats.completed += 1
        if not ticket.future.done():
            ticket.future.set_result(outcome)

    def _send_lanes_locked(self, worker: _Worker, lanes: list[_Ticket],
                           now: float) -> None:
        for ticket in lanes:
            self._pending.remove(ticket)
        worker.inflight = list(lanes)
        worker.dispatched_at = now
        if len(lanes) > 1:
            self.stats.batch_flushes += 1
            self.stats.batch_lanes += len(lanes)
            if self.tracer.enabled:
                gathered = now - min(t.submitted for t in lanes)
                end = self.tracer.now()
                self.tracer.emit(Event(
                    name="serve.batch.gather", cat="serve",
                    ph=PH_COMPLETE, ts=end - gathered * 1e6,
                    dur=gathered * 1e6,
                    args={"lanes": len(lanes),
                          "batch_key": lanes[0].batch_key},
                ))
        try:
            worker.conn.send([
                (t.ticket_id, t.job, t.attempt, t.budget(now))
                for t in lanes
            ])
        except (BrokenPipeError, OSError):
            # The worker died between waits; the sentinel event
            # will re-queue these lanes through the crash path.
            pass

    def _dispatch_locked(self, now: float) -> None:
        """Hand admissible tickets to idle workers, oldest first.

        Work-conserving: a ticket never waits while a worker is idle.
        Batching happens where it is free — while every worker is
        busy, compatible tickets pile up in ``_pending``, and the next
        free worker takes a ticket together with its queued lane-mates
        (same ``batch_key``, at most ``batch_max_lanes``) as one
        lockstep flush.
        """
        idle = [w for w in self._workers if not w.inflight]
        if not idle:
            return
        admissible = [
            t for t in self._pending if t.not_before <= now
        ]
        for ticket in admissible:
            if ticket not in self._pending:
                continue  # dispatched as a lane-mate earlier this pass
            # Queue-stage deadline: never dispatch dead-on-arrival work.
            if ticket.deadline is not None and now >= ticket.deadline:
                self._pending.remove(ticket)
                self.stats.timeouts += 1
                self._complete_locked(ticket, {
                    "status": "timeout",
                    "where": "queue",
                    "detail": "deadline expired before dispatch",
                })
                continue
            if not idle:
                break
            if ticket.batch_key is None:
                lanes = [ticket]
            else:
                lanes = [
                    t for t in admissible
                    if t.batch_key == ticket.batch_key
                    and t in self._pending
                    and not (t.deadline is not None and now >= t.deadline)
                ][:self.batch_max_lanes]
            self._send_lanes_locked(idle.pop(), lanes, now)

    def _next_wait_locked(self, now: float) -> float:
        """Seconds until the earliest timer the supervisor must honor.

        Floored at 1 ms only to keep an already-due timer from
        spinning; backoff gates, queue deadlines and kill grace all
        fire within a millisecond of their time.
        """
        horizon = 0.5
        for ticket in self._pending:
            if ticket.not_before > now:
                horizon = min(horizon, ticket.not_before - now)
            if ticket.deadline is not None and ticket.deadline > now:
                horizon = min(horizon, ticket.deadline - now)
        for worker in self._workers:
            for ticket in worker.inflight:
                if ticket.deadline is not None:
                    kill_at = ticket.deadline + self.kill_grace_s
                    horizon = min(horizon, max(0.0, kill_at - now))
        return max(0.001, horizon)

    def _respawn_locked(self, worker: _Worker) -> None:
        index = self._workers.index(worker)
        worker.reap()
        if self._closing and not self._pending:
            self._workers.pop(index)
            return
        self.stats.restarts += 1
        self._workers[index] = _Worker(self._ctx, self.cache_dir)

    def _strike_locked(self, ticket: _Ticket, now: float, *,
                       cause: str) -> None:
        """One worker death charged to ``ticket``: quarantine or retry."""
        opened = self.breakers.record_strike(ticket.key)
        if opened or ticket.probe:
            self.stats.quarantined += 1
            self._complete_locked(ticket, {
                "status": "quarantined",
                "key": ticket.key,
                "cause": cause,
                "attempts": ticket.attempt + 1,
            })
            return
        if cause == "deadline":
            # The request's budget is gone; retrying cannot help.
            self.stats.timeouts += 1
            self._complete_locked(ticket, {
                "status": "timeout",
                "where": "worker",
                "detail": "worker killed past deadline grace",
            })
            return
        if ticket.attempt + 1 > self.max_requeues:
            self.stats.crashed_out += 1
            self._complete_locked(ticket, {
                "status": "crashed",
                "attempts": ticket.attempt + 1,
                "detail": "retry budget exhausted",
            })
            return
        delay = self.backoff.delay(ticket.key, ticket.attempt)
        ticket.attempt += 1
        ticket.not_before = now + delay
        self.stats.requeues += 1
        self._pending.append(ticket)

    def _handle_crash_locked(self, worker: _Worker, now: float) -> None:
        self.stats.crashes += 1
        tickets, worker.inflight = worker.inflight, []
        self._respawn_locked(worker)
        for ticket in tickets:
            self._strike_locked(ticket, now, cause="crash")

    def _check_deadlines_locked(self, now: float) -> None:
        for ticket in list(self._pending):
            if ticket.deadline is not None and now >= ticket.deadline:
                self._pending.remove(ticket)
                self.stats.timeouts += 1
                self._complete_locked(ticket, {
                    "status": "timeout",
                    "where": "queue",
                    "detail": "deadline expired before dispatch",
                })
        for worker in self._workers:
            expired = [
                t for t in worker.inflight
                if t.deadline is not None
                and now >= t.deadline + self.kill_grace_s
            ]
            if expired:
                # The in-simulator deadline should have fired long ago;
                # the worker is wedged outside simulated code.  Kill it.
                # Lane-mates pay the crash price (a retry), not the
                # expired lane's timeout verdict.
                self.stats.deadline_kills += 1
                self.stats.crashes += 1
                tickets, worker.inflight = worker.inflight, []
                worker.kill()
                self._respawn_locked(worker)
                for ticket in tickets:
                    cause = "deadline" if ticket in expired else "crash"
                    self._strike_locked(ticket, now, cause=cause)

    def _abort_pending_locked(self) -> None:
        for ticket in self._pending:
            self._complete_locked(ticket, {"status": "shutdown"})
        self._pending.clear()
        for worker in self._workers:
            tickets, worker.inflight = worker.inflight, []
            for ticket in tickets:
                self._complete_locked(ticket, {"status": "shutdown"})
            worker.kill()

    def _supervise(self) -> None:
        while True:
            now = self.clock()
            with self._lock:
                if self._closing and not self._drain:
                    self._abort_pending_locked()
                self._check_deadlines_locked(now)
                self._dispatch_locked(now)
                idle = all(not w.inflight for w in self._workers)
                if self._closing and idle and (
                    not self._pending or not self._drain
                ):
                    for worker in self._workers:
                        try:
                            worker.conn.send(None)
                        except (BrokenPipeError, OSError):
                            pass
                        worker.reap()
                    self._workers.clear()
                    return
                conn_map = {w.conn: w for w in self._workers}
                sentinel_map = {w.sentinel: w for w in self._workers}
                timeout = self._next_wait_locked(now)
            ready = mp_wait(
                [self._wake_r, *conn_map, *sentinel_map], timeout
            )
            now = self.clock()
            with self._lock:
                crashed: list[_Worker] = []
                for item in ready:
                    if item == self._wake_r:
                        try:
                            os.read(self._wake_r, 4096)
                        except OSError:
                            pass
                        continue
                    worker = conn_map.get(item)
                    if worker is not None:
                        if worker not in self._workers:
                            continue  # already respawned this round
                        try:
                            pairs = worker.conn.recv()
                        except (EOFError, OSError):
                            if worker not in crashed:
                                crashed.append(worker)
                            continue
                        tickets, worker.inflight = worker.inflight, []
                        if len(tickets) > 1 and self.tracer.enabled:
                            dur = (now - worker.dispatched_at) * 1e6
                            self.tracer.emit(Event(
                                name="serve.batch.execute", cat="serve",
                                ph=PH_COMPLETE,
                                ts=self.tracer.now() - dur, dur=dur,
                                args={"lanes": len(tickets)},
                            ))
                        by_id = {t.ticket_id: t for t in tickets}
                        for ticket_id, response in pairs:
                            ticket = by_id.pop(ticket_id, None)
                            if ticket is None:
                                continue  # stale lane (already struck)
                            self.breakers.record_success(ticket.key)
                            self._complete_locked(ticket, response)
                        for ticket in by_id.values():
                            # A worker must answer every lane it was
                            # sent; a missing one is a protocol fault,
                            # surfaced as a typed terminal error.
                            self._complete_locked(ticket, {
                                "status": "error",
                                "error": {
                                    "type": "PoolProtocolError",
                                    "message": "worker response missing"
                                               " this lane",
                                },
                            })
                        continue
                    worker = sentinel_map.get(item)
                    if (
                        worker is not None
                        and worker in self._workers
                        and worker not in crashed
                    ):
                        crashed.append(worker)
                for worker in crashed:
                    if worker in self._workers:
                        self._handle_crash_locked(worker, now)
