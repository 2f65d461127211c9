"""repro.serve: a fault-tolerant batch compile-and-run service (S21).

The survey's toolchains earned their keep by staying *alive* — REC's
compiler ran for decades as a long-lived interactive service on the
IBM1130 simulator, and VADL's modern pipeline is submit-description,
get-artifacts-back.  This package is that endpoint for the repro
toolkit: an asyncio HTTP/JSON service wrapping the pipeline, the
registry, the compile cache and the campaign harness behind four
endpoints (``/compile``, ``/run``, ``/campaign``, ``/healthz``),
built robustness-first:

* **Admission control & backpressure** — bounded per-class queues
  with typed 429 rejection; under overload, campaign-class requests
  shed before compile-class ones (graceful degradation).
* **Deadline propagation** — a per-request wall-clock budget flows
  from admission through queueing into ``Simulator.deadline_s``, so
  a wedged microprogram returns a structured timeout, never a hang.
* **Crash-safe worker pool** — simulation work runs in supervised
  ``multiprocessing`` workers; worker death (segfault, OOM-kill,
  chaos injection) is detected via process sentinels, the worker is
  respawned, and the in-flight job is re-queued with capped,
  seeded-jittered exponential backoff.  A request that kills workers
  repeatedly is quarantined by a per-key circuit breaker with
  half-open probes.
* **Work-conserving cross-request micro-batching** — a ``/run`` never
  waits while a worker is idle; compatible ``/run`` jobs that queued
  behind busy workers dispatch together (up to ``batch_max_lanes``)
  as one lockstep struct-of-arrays batch (:mod:`repro.sim.batch`)
  inside a single worker, with results demultiplexed back per
  request — byte-identical to scalar execution, admission mirroring
  ``batch_refusal``.
* **Graceful drain** — ``SIGTERM`` stops admission, finishes
  in-flight work, then exits; ``/healthz`` and ``/metrics`` report
  queue depths, breaker states, worker restarts and the campaign
  metrics rollup through the existing Prometheus exporter.

Everything is stdlib-only (``asyncio.start_server`` + hand-rolled
HTTP/1.1 parsing) and deterministic where it matters: backoff
schedules are pure functions of ``(seed, key, attempt)`` and job
results are byte-identical across retries, which is what lets the
chaos suite in ``tests/serve/`` assert exact outcomes while killing
workers at fixed seeds.
"""

from repro.serve.backoff import BackoffPolicy, CircuitBreakers
from repro.serve.config import ServeConfig
from repro.serve.http import HttpError, Request, read_request, write_json
from repro.serve.jobs import (
    batch_group_key,
    batch_refused,
    dedup_key,
    execute_batch,
    execute_job,
    job_key,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.pool import PoolStats, WorkerPool
from repro.serve.runner import ServiceRunner
from repro.serve.service import ReproService

__all__ = [
    "BackoffPolicy",
    "CircuitBreakers",
    "HttpError",
    "PoolStats",
    "ReproService",
    "Request",
    "ServeConfig",
    "ServiceMetrics",
    "ServiceRunner",
    "WorkerPool",
    "batch_group_key",
    "batch_refused",
    "dedup_key",
    "execute_batch",
    "execute_job",
    "job_key",
    "read_request",
    "write_json",
]
