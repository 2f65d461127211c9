"""Service configuration: one dataclass, safe defaults.

Every robustness knob the tentpole names lives here so tests, the
CLI verb and the load benchmark configure the same machine from one
place.  Limits are deliberately small by default — admission control
only means something when the bounds are real.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_class_limits() -> dict[str, int]:
    # Queued-or-running bound per request class.  Campaigns are the
    # heavy class, so they get the smallest bound and shed first.
    return {"compile": 32, "run": 32, "campaign": 8}


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can be told.

    Attributes:
        host/port: Bind address; port 0 picks an ephemeral port
            (tests and the load benchmark read it back).
        workers: Worker processes in the crash-safe pool.
        class_limits: Max queued-or-in-flight requests per class
            (``compile`` / ``run`` / ``campaign``); beyond it the
            request is shed with a typed 429.
        shed_campaigns_at: Graceful degradation: when *total* load
            reaches this fraction of total capacity, campaign-class
            requests shed even if their own class has room — compile
            and run keep being admitted until their bounds fill.
        default_deadline_s / max_deadline_s: Per-request wall-clock
            budget when the client names none, and the cap a client
            cannot exceed.
        retry_base_s / retry_cap_s / retry_jitter / seed: The capped
            seeded-jittered exponential backoff for re-queued work.
        max_requeues: Retry budget per request before it resolves
            ``crashed``.
        breaker_strikes: Worker deaths a request key is allowed
            before quarantine (the poison-pill circuit breaker).
        breaker_cooldown_s: Open time before one half-open probe.
        kill_grace_s: Extra wall-clock past a request's deadline
            before a wedged worker is killed outright.
        cache_dir: Shared on-disk compile-cache tier for all workers
            (None keeps per-worker memory tiers only).
        drain_timeout_s: SIGTERM drain bound: in-flight work gets
            this long to finish before the pool is aborted.
        enable_chaos: Accept ``chaos`` fields on requests (worker
            self-kill schedules).  Tests and the CI smoke only.
        collect_metrics: Fold every campaign's rollup into the
            service-wide :class:`~repro.obs.aggregate.CampaignMetrics`
            exposed at ``/metrics``.
        batch_max_lanes: Most lanes one lockstep dispatch may carry;
            1 disables cross-request batching entirely.  Batching is
            work-conserving: a ``/run`` never waits while a worker is
            idle; compatible runs that queued up behind busy workers
            dispatch together.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    class_limits: dict[str, int] = field(
        default_factory=_default_class_limits
    )
    shed_campaigns_at: float = 0.75
    default_deadline_s: float = 30.0
    max_deadline_s: float = 120.0
    retry_base_s: float = 0.05
    retry_cap_s: float = 2.0
    retry_jitter: float = 0.5
    seed: int = 0
    max_requeues: int = 4
    breaker_strikes: int = 2
    breaker_cooldown_s: float = 30.0
    kill_grace_s: float = 2.0
    cache_dir: str | None = None
    drain_timeout_s: float = 30.0
    enable_chaos: bool = False
    collect_metrics: bool = True
    batch_max_lanes: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("serve needs at least one worker")
        if self.batch_max_lanes < 1:
            raise ValueError("batch_max_lanes must be >= 1")
        for name in ("compile", "run", "campaign"):
            if self.class_limits.get(name, 0) < 1:
                raise ValueError(f"class limit for {name!r} must be >= 1")
        if not 0 < self.shed_campaigns_at <= 1:
            raise ValueError("shed_campaigns_at must be in (0, 1]")
        if self.default_deadline_s > self.max_deadline_s:
            raise ValueError("default deadline exceeds the maximum")

    def total_capacity(self) -> int:
        return sum(self.class_limits.values())
