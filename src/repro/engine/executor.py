"""Batch execution: serial loop or process pool, streaming results back.

``run_batch(batch, jobs=4, cache_dir=..., telemetry=...)`` is the single
entry point every sweep routes through:

* ``jobs=1`` (the default) degrades gracefully to an in-process loop —
  no pool, no pickling, identical results;
* ``jobs>1`` fans the batch out over a ``concurrent.futures``
  process pool. Each worker installs its own handle onto the shared
  persistent :class:`repro.engine.ReliabilityCache` in the pool
  initializer, so exact reliability values computed by one worker are
  reused by every other worker (and by every later run).

Failures are contained per job: a crashed or failed job yields a
``JobResult(ok=False, ...)`` instead of poisoning the batch. Transient
failures (``OSError``, timeouts, a broken pool) are retried up to
``retries`` times; a broken pool is rebuilt and its in-flight jobs
resubmitted. Per-job ``timeout`` is enforced in pool mode (a serial loop
cannot preempt a running engine); note a timed-out worker process keeps
running to completion in the background — its result is discarded.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from .. import obs
from ..reliability.exact import get_reliability_cache, reliability_cache
from .cache import ReliabilityCache
from .jobs import BatchSpec, Job, JobResult
from .telemetry import TelemetryWriter

__all__ = [
    "BatchResult",
    "EXECUTOR_MODES",
    "run_batch",
    "iter_batch",
    "execute_job",
    "register_runner",
]

#: Exception types worth retrying: environmental, not semantic.
TRANSIENT_EXCEPTIONS = (OSError, TimeoutError, BrokenProcessPool)

#: How many times a pool may be rebuilt before the batch gives up.
MAX_POOL_RESTARTS = 3


# ---------------------------------------------------------------------------
# Job runners


def _run_synthesize(job: Job) -> Any:
    from ..synthesis.ilp_ar import synthesize_ilp_ar
    from ..synthesis.ilp_mr import synthesize_ilp_mr
    from ..synthesis.ilp_tse import synthesize_ilp_tse

    spec = job.payload["spec"]
    algorithm = job.payload["algorithm"]
    options = dict(job.payload.get("options", {}))
    if algorithm == "ar":
        return synthesize_ilp_ar(spec, **options)
    if algorithm == "mr":
        return synthesize_ilp_mr(spec, **options)
    if algorithm == "mr-lazy":
        return synthesize_ilp_mr(spec, strategy="lazy", **options)
    if algorithm == "tse":
        return synthesize_ilp_tse(spec, **options)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _run_reliability(job: Job) -> Any:
    from ..reliability import failure_probability, problem_from_architecture
    from ..reliability.montecarlo import failure_probability_mc

    payload = job.payload
    if "problem" in payload:
        # A bare ReliabilityProblem (verify corpora, cache benchmarks)
        # analyzed directly — no architecture expansion involved.
        return failure_probability(payload["problem"], method=payload["method"])
    if payload["method"] == "mc":
        problem = problem_from_architecture(payload["architecture"], payload["sink"])
        return failure_probability_mc(
            problem, samples=payload["samples"], seed=payload["seed"]
        )
    return failure_probability(
        payload["architecture"], sink=payload["sink"], method=payload["method"]
    )


def _run_noop(job: Job) -> Any:
    """Plumbing test kind: optionally nap, then echo the payload value.

    Exists so executor/queue mechanics (leases, dedup, throughput
    benchmarks) can be exercised without paying for real synthesis.
    """
    nap = job.payload.get("sleep_s", 0.0)
    if nap:
        time.sleep(nap)
    return job.payload.get("value")


def _run_budget(job: Job) -> Any:
    from ..synthesis.pareto import most_reliable_under_budget

    return most_reliable_under_budget(
        job.payload["spec"],
        job.payload["budget"],
        algorithm=job.payload["algorithm"],
        **dict(job.payload.get("options", {})),
    )


_RUNNERS: Dict[str, Callable[[Job], Any]] = {
    "synthesize": _run_synthesize,
    "reliability": _run_reliability,
    "budget": _run_budget,
    "noop": _run_noop,
}

#: Modules whose import registers a runner for the keyed job kind. Pool
#: workers execute jobs in a fresh interpreter that has not imported the
#: registering module, so ``execute_job`` resolves these lazily.
_KIND_PLUGINS: Dict[str, str] = {
    "verify": "repro.verify",
}


def register_runner(kind: str, fn: Callable[[Job], Any]) -> Callable[[Job], Any]:
    """Register a runner for a custom job ``kind`` (extension point)."""
    _RUNNERS[kind] = fn
    return fn


def execute_job(job: Job) -> Any:
    """Run one job in the current process and return its raw value."""
    runner = _RUNNERS.get(job.kind)
    if runner is None and job.kind in _KIND_PLUGINS:
        import importlib

        importlib.import_module(_KIND_PLUGINS[job.kind])
        runner = _RUNNERS.get(job.kind)
    if runner is None:
        raise ValueError(f"unknown job kind {job.kind!r}")
    return runner(job)


# ---------------------------------------------------------------------------
# Worker-side wrapper


def _worker_init(cache_dir: Optional[str], cache_backend: str = "auto",
                 cache_shards: Optional[int] = None) -> None:
    """Pool initializer: shared cache handle + metrics observation.

    The observer makes the worker's :mod:`repro.obs` counters tick
    without installing a tracer (worker spans could not be streamed back
    through a pickled result anyway); ``_worker_run`` ships the per-job
    metrics delta home for the parent to merge.
    """
    import atexit

    from ..reliability.exact import set_reliability_cache

    cache = ReliabilityCache(
        cache_dir, backend=cache_backend, shards=cache_shards
    )
    set_reliability_cache(cache)
    # A pool worker exits without unwinding the batch's context managers;
    # close() on the way out lands the sharded tier's write-back buffers.
    atexit.register(cache.close)
    obs.add_observer()


def _worker_run(
    job: Job, trace: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Execute ``job`` and wrap timing + cache/metrics deltas around it.

    The ``engine.job`` span materializes when a tracer is active in this
    process (serial mode, queue workers running under the queue's trace
    context) — or when the coordinator threads a serialized
    :class:`repro.obs.TraceContext` through the pool envelope as
    ``trace``: the worker then runs the job under a throwaway local
    tracer adopting that context and ships the finished span records
    back in the envelope (``"spans"``), parented to the coordinator's
    batch span. Metrics tick in every mode (the batch and the pool
    initializer both register observers) and the per-job delta travels
    back with the result so ``jobs>1`` sweeps report true totals.
    """
    cache = get_reliability_cache()
    before = (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
    metrics_before = obs.snapshot()
    start = time.perf_counter()
    span_records: Optional[List[Dict[str, Any]]] = None
    if trace is not None and obs.get_tracer() is None:
        ctx = obs.TraceContext.from_dict(trace)
        obs.reset_span_stack()  # a forked worker may carry phantom spans
        with obs.trace_context(ctx):
            with obs.tracing() as tracer:
                with obs.span("engine.job", job=job.job_id, kind=job.kind):
                    value = execute_job(job)
        span_records = [obs.span_record(s) for s in tracer.spans]
    else:
        with obs.span("engine.job", job=job.job_id, kind=job.kind):
            value = execute_job(job)
    wall = time.perf_counter() - start
    if obs.enabled():
        obs.counter("engine.jobs.completed").inc()
        obs.histogram("engine.job.seconds").observe(wall)
    after = (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
    wrapped = {
        "value": value,
        "wall_time": wall,
        "worker_pid": os.getpid(),
        "cache_hits": after[0] - before[0],
        "cache_misses": after[1] - before[1],
        "metrics": obs.snapshot_delta(metrics_before, obs.snapshot()),
    }
    if span_records:
        wrapped["spans"] = span_records
    return wrapped


def _ok_result(job: Job, wrapped: Dict[str, Any], attempts: int) -> JobResult:
    return JobResult(
        job_id=job.job_id,
        ok=True,
        value=wrapped["value"],
        attempts=attempts,
        wall_time=wrapped["wall_time"],
        worker_pid=wrapped["worker_pid"],
        cache_hits=wrapped["cache_hits"],
        cache_misses=wrapped["cache_misses"],
        metrics=wrapped.get("metrics"),
        meta=dict(job.meta),
    )


def _absorb_worker_metrics(writer: TelemetryWriter, result: JobResult) -> None:
    """Ship a pool worker's metrics delta over telemetry and merge it.

    Only called in pool mode: a serial job already ticked the parent's
    own registry, so merging its delta would double-count.
    """
    if not result.metrics:
        return
    writer.emit(
        "metrics_snapshot",
        job=result.job_id,
        worker_pid=result.worker_pid,
        metrics=result.metrics,
    )
    obs.merge_snapshot(result.metrics)


def _absorb_worker_spans(
    writer: TelemetryWriter, wrapped: Dict[str, Any]
) -> None:
    """Fold span records a pool worker shipped in its envelope.

    Each record is journaled as a ``worker_span`` event and merged into
    the active tracer, so stitched Chrome traces and ``--trace`` exports
    carry the worker lanes without any shared filesystem.
    """
    for record in wrapped.get("spans") or ():
        writer.emit("worker_span", **record)
        obs.absorb_record(record)


def _failed_result(
    job: Job, exc: BaseException, attempts: int, wall: float
) -> JobResult:
    return JobResult(
        job_id=job.job_id,
        ok=False,
        error=str(exc) or exc.__class__.__name__,
        error_type=exc.__class__.__name__,
        attempts=attempts,
        wall_time=wall,
        meta=dict(job.meta),
    )


# ---------------------------------------------------------------------------
# Batch API


@dataclass
class BatchResult:
    """All job results of one batch, in the batch's submission order."""

    name: str
    results: List[JobResult] = field(default_factory=list)
    wall_time: float = 0.0
    jobs_used: int = 1
    telemetry_path: Optional[str] = None
    #: True when a ``should_stop`` hook aborted the batch early: the
    #: results list then covers only the jobs that completed first.
    stopped: bool = False

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.results)

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.results)

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def by_id(self) -> Dict[str, JobResult]:
        return {r.job_id: r for r in self.results}

    def values(self) -> List[Any]:
        """Raw job values in submission order; raises on any failed job."""
        return [r.unwrap() for r in self.results]

    def summary(self) -> str:
        parts = [
            f"batch {self.name!r}: {len(self.results)} jobs"
            f" ({self.num_failed} failed) in {self.wall_time:.2f}s"
            f" with jobs={self.jobs_used}"
        ]
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            parts.append(
                f"cache: {self.cache_hits} hits / {self.cache_misses} misses"
                f" ({100.0 * self.cache_hits / lookups:.0f}% hit rate)"
            )
        return "; ".join(parts)


def _iter_serial(
    batch: BatchSpec,
    cache_dir: Optional[str],
    retries: int,
    writer: TelemetryWriter,
    cache_backend: str = "auto",
    cache_shards: Optional[int] = None,
) -> Iterator[JobResult]:
    from ..ilp.search_events import capture_search_events

    # Reuse an already-installed cache (e.g. inside a pool worker running a
    # nested batch); otherwise install one scoped to this batch.
    own_cache = get_reliability_cache() is None
    cache = (
        ReliabilityCache(cache_dir, backend=cache_backend, shards=cache_shards)
        if own_cache else None
    )
    # With durable telemetry, stream the B&B search tree of every solve
    # into the journal — that is what ``repro tree`` and the service's
    # /events tail render. A no-op writer keeps the solver silent.
    search_ctx = (
        capture_search_events(
            lambda ev: writer.emit("bnb_event", **ev)
        )
        if writer.path else _null_context()
    )
    try:
        ctx = reliability_cache(cache) if own_cache else _null_context()
        with ctx, search_ctx:
            for job in batch.jobs:
                writer.emit("job_start", job=job.job_id, kind=job.kind, mode="serial")
                attempts = 0
                while True:
                    attempts += 1
                    start = time.perf_counter()
                    try:
                        wrapped = _worker_run(job)
                    except TRANSIENT_EXCEPTIONS as exc:
                        wall = time.perf_counter() - start
                        if attempts <= retries:
                            writer.emit(
                                "job_retry", job=job.job_id, attempt=attempts,
                                error=type(exc).__name__,
                            )
                            continue
                        result = _failed_result(job, exc, attempts, wall)
                    except Exception as exc:
                        wall = time.perf_counter() - start
                        result = _failed_result(job, exc, attempts, wall)
                        result.error = f"{exc}\n{traceback.format_exc(limit=3)}"
                    else:
                        result = _ok_result(job, wrapped, attempts)
                    break
                _emit_job_end(writer, result)
                yield result
    finally:
        if cache is not None:
            cache.close()


class _null_context:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


def _emit_job_end(writer: TelemetryWriter, result: JobResult) -> None:
    writer.emit(
        "job_end",
        job=result.job_id,
        ok=result.ok,
        attempts=result.attempts,
        wall_time=round(result.wall_time, 6),
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        error=result.error_type,
    )


def _iter_pool(
    batch: BatchSpec,
    jobs: int,
    cache_dir: Optional[str],
    retries: int,
    timeout: Optional[float],
    writer: TelemetryWriter,
    cache_backend: str = "auto",
    cache_shards: Optional[int] = None,
) -> Iterator[JobResult]:
    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init,
            initargs=(cache_dir, cache_backend, cache_shards),
        )

    pool = make_pool()
    restarts = 0
    # Thread the trace context through the job envelopes whenever the
    # batch itself is being traced (or a service run's context is
    # active): workers then ship their span records home for stitching.
    # With no tracer and no context, workers skip span collection.
    ctx = obs.current_trace_context()
    cur = obs.current_span()
    if cur is not None:
        ctx = (ctx.reparent(cur) if ctx is not None
               else obs.TraceContext.from_span(cur, batch=batch.name))
    trace_doc = ctx.to_dict() if ctx is not None else None
    pending: Dict[Any, tuple] = {}  # future -> (job, attempts, submitted_at)
    # Every job_id is in exactly one of these at any time: ``inflight``
    # (job_id -> its one live future) or ``finished`` (already yielded).
    # Resubmission paths — timeout, transient retry, pool rebuild — can
    # race each other when a rebuild happens while a per-job timeout is
    # in flight; keying on job_id guarantees a job is never submitted
    # twice concurrently nor yielded twice (which double-counted it in
    # telemetry and metrics).
    inflight: Dict[str, Any] = {}
    finished: set = set()
    # Stand-in futures for jobs the pool refused because it was already
    # broken: they never ran, so their resubmission keeps its attempt count.
    unsent: set = set()

    def submit(job: Job, attempts: int) -> None:
        if job.job_id in finished or job.job_id in inflight:
            writer.emit("job_dedup", job=job.job_id, attempt=attempts)
            return
        try:
            fut = pool.submit(_worker_run, job, trace_doc)
        except BrokenProcessPool as exc:
            # A worker died while jobs were still being handed over; park
            # the job on a failed future so the rebuild below picks it up.
            fut = Future()
            fut.set_exception(exc)
            unsent.add(fut)
        pending[fut] = (job, attempts, time.monotonic())
        inflight[job.job_id] = fut

    def drop(fut) -> tuple:
        job, attempts, submitted = pending.pop(fut)
        if inflight.get(job.job_id) is fut:
            del inflight[job.job_id]
        return job, attempts, submitted

    def finish(result: JobResult) -> Optional[JobResult]:
        if result.job_id in finished:
            return None  # a duplicate execution already reported this job
        finished.add(result.job_id)
        return result

    try:
        for job in batch.jobs:
            writer.emit("job_start", job=job.job_id, kind=job.kind, mode="pool")
            submit(job, 1)

        while pending:
            poll = 0.25 if timeout is not None else None
            try:
                done, _ = wait(
                    list(pending), timeout=poll, return_when=FIRST_COMPLETED
                )
            except BrokenProcessPool:
                done = set()

            for fut in done:
                if fut not in pending:
                    continue
                job, attempts, _submitted = drop(fut)
                exc = fut.exception()
                if exc is None:
                    wrapped = fut.result()
                    result = finish(_ok_result(job, wrapped, attempts))
                    if result is not None:
                        _absorb_worker_metrics(writer, result)
                        _absorb_worker_spans(writer, wrapped)
                        yield result
                    continue
                if isinstance(exc, BrokenProcessPool):
                    # Handled wholesale below by rebuilding the pool.
                    pending[fut] = (job, attempts, _submitted)
                    inflight[job.job_id] = fut
                    continue
                if isinstance(exc, TRANSIENT_EXCEPTIONS) and attempts <= retries:
                    writer.emit(
                        "job_retry", job=job.job_id, attempt=attempts,
                        error=type(exc).__name__,
                    )
                    submit(job, attempts + 1)
                else:
                    result = finish(_failed_result(job, exc, attempts, 0.0))
                    if result is not None:
                        yield result

            broken = [f for f in pending if f.done() and isinstance(
                f.exception(), BrokenProcessPool)]
            if broken:
                restarts += 1
                pool.shutdown(wait=False, cancel_futures=True)
                if restarts > MAX_POOL_RESTARTS:
                    for fut in list(pending):
                        job, attempts, _ = drop(fut)
                        result = finish(_failed_result(
                            job, BrokenProcessPool("pool restarts exhausted"),
                            attempts, 0.0,
                        ))
                        if result is not None:
                            yield result
                    return
                writer.emit("pool_restart", count=restarts)
                pool = make_pool()
                for fut in list(pending):
                    job, attempts, _ = drop(fut)
                    if fut in unsent:
                        unsent.discard(fut)
                        submit(job, attempts)
                        continue
                    if fut.done() and fut.exception() is None:
                        # The pool broke *around* a completed job: report
                        # its finished result instead of running it again.
                        wrapped = fut.result()
                        result = finish(_ok_result(job, wrapped, attempts))
                        if result is not None:
                            _absorb_worker_metrics(writer, result)
                            _absorb_worker_spans(writer, wrapped)
                            yield result
                        continue
                    submit(job, attempts + 1)
                continue

            if timeout is not None:
                now = time.monotonic()
                for fut in [f for f in pending if not f.done()]:
                    job, attempts, submitted = pending[fut]
                    if now - submitted <= timeout:
                        continue
                    fut.cancel()
                    drop(fut)
                    if attempts <= retries:
                        writer.emit(
                            "job_retry", job=job.job_id, attempt=attempts,
                            error="TimeoutError",
                        )
                        submit(job, attempts + 1)
                    else:
                        writer.emit("job_timeout", job=job.job_id, timeout=timeout)
                        result = finish(_failed_result(
                            job, TimeoutError(f"job exceeded {timeout}s"),
                            attempts, timeout,
                        ))
                        if result is not None:
                            yield result
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


#: Executor modes accepted by :func:`iter_batch` / :func:`run_batch`.
EXECUTOR_MODES = ("serial", "pool", "queue")


def iter_batch(
    batch: BatchSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    writer: Optional[TelemetryWriter] = None,
    executor: Optional[str] = None,
    queue_dir: Optional[str] = None,
    cache_backend: str = "auto",
    cache_shards: Optional[int] = None,
) -> Iterator[JobResult]:
    """Execute ``batch`` and yield :class:`JobResult` as each completes.

    ``executor=None`` picks ``"serial"`` for ``jobs<=1`` and ``"pool"``
    otherwise (the historical behaviour); ``"queue"`` routes the batch
    through the file-backed work queue (:mod:`repro.engine.queue_exec`),
    spawning ``jobs`` local worker processes against ``queue_dir``.
    Pool and queue modes yield in completion order; serial mode in
    submission order.
    """
    mode = executor if executor is not None else ("serial" if jobs <= 1 else "pool")
    if mode not in EXECUTOR_MODES:
        raise ValueError(
            f"unknown executor {mode!r}; expected one of {EXECUTOR_MODES}"
        )
    writer = writer if writer is not None else TelemetryWriter(None)
    # Observe metrics for the batch's duration: serial jobs tick the
    # parent registry directly; pool workers register their own observer
    # in the initializer and ship deltas home.
    obs.add_observer()
    try:
        if mode == "serial":
            yield from _iter_serial(batch, cache_dir, retries, writer,
                                    cache_backend=cache_backend,
                                    cache_shards=cache_shards)
        elif mode == "pool":
            yield from _iter_pool(batch, max(jobs, 1), cache_dir, retries,
                                  timeout, writer,
                                  cache_backend=cache_backend,
                                  cache_shards=cache_shards)
        else:
            from .queue_exec import iter_queue

            yield from iter_queue(batch, jobs=max(jobs, 1),
                                  queue_dir=queue_dir, cache_dir=cache_dir,
                                  retries=retries, lease_ttl=timeout,
                                  writer=writer,
                                  cache_backend=cache_backend,
                                  cache_shards=cache_shards)
    finally:
        obs.remove_observer()


def run_batch(
    batch: BatchSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    telemetry: Optional[str] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    on_result: Optional[Callable[[JobResult], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    executor: Optional[str] = None,
    queue_dir: Optional[str] = None,
    cache_backend: str = "auto",
    cache_shards: Optional[int] = None,
) -> BatchResult:
    """Execute a whole batch and collect results in submission order.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs serially in-process.
    cache_dir:
        Directory for the persistent reliability cache shared by all
        workers and all future runs; ``None`` keeps caching in-memory and
        per-process.
    telemetry:
        Path of a JSONL event stream to append this batch's life cycle to.
    retries:
        Extra attempts granted to jobs failing with a transient error.
    timeout:
        Per-job wall-clock limit in seconds (pool mode); in queue mode
        it becomes the lease TTL after which an unheartbeated job is
        re-queued.
    executor:
        ``"serial"``, ``"pool"``, or ``"queue"``; ``None`` keeps the
        historical jobs-based choice (serial for ``jobs<=1``, else pool).
    queue_dir:
        Queue-mode only: directory holding the shared work queue; a
        temporary queue is created (and discarded) when omitted.
    cache_backend / cache_shards:
        Persistent cache tier selection, forwarded to
        :class:`repro.engine.ReliabilityCache` in every worker.
    on_result:
        Called with each :class:`JobResult` the moment it completes (in
        completion order) — the service journals results through this so
        a crash loses at most the in-flight job.
    should_stop:
        Polled before the first job and after each completion; returning
        True aborts the remainder of the batch (pool futures are
        cancelled) and marks the outcome ``stopped=True`` — cooperative
        cancellation and deadline enforcement for the service queue.
    """
    writer = TelemetryWriter(telemetry, batch=batch.name)
    order = {job.job_id: i for i, job in enumerate(batch.jobs)}
    start = time.perf_counter()
    writer.emit(
        "batch_start", name=batch.name, jobs=len(batch.jobs),
        workers=jobs, cache_dir=cache_dir,
    )
    batch_span = obs.span("engine.batch", name=batch.name,
                          jobs=len(batch.jobs), workers=jobs)
    run = obs.run_registry().start(
        "batch", name=batch.name, total=len(batch.jobs), workers=jobs,
        done=0, failed=0,
    )
    outcome: Optional[BatchResult] = None
    try:
        with obs.log_context(run=run.run_id, batch=batch.name):
            obs.log("engine.batch_start", jobs=len(batch.jobs), workers=jobs)
            results: List[JobResult] = []
            done = failed = 0
            stopped = should_stop is not None and should_stop()
            if not stopped:
                mode = executor if executor is not None else (
                    "serial" if jobs <= 1 else "pool"
                )
                for result in iter_batch(
                    batch, jobs=jobs, cache_dir=cache_dir, retries=retries,
                    timeout=timeout, writer=writer, executor=executor,
                    queue_dir=queue_dir, cache_backend=cache_backend,
                    cache_shards=cache_shards,
                ):
                    if mode != "serial":
                        _emit_job_end(writer, result)
                    results.append(result)
                    done += 1
                    failed += 0 if result.ok else 1
                    run.update(done=done, failed=failed)
                    obs.log(
                        "engine.job_end",
                        level="info" if result.ok else "warning",
                        job=result.job_id, ok=result.ok,
                        wall_time=round(result.wall_time, 6),
                        error=result.error_type,
                    )
                    if on_result is not None:
                        on_result(result)
                    if should_stop is not None and should_stop():
                        stopped = True
                        break  # iter_batch's finally tears the pool down
            results.sort(key=lambda r: order.get(r.job_id, len(order)))
            wall = time.perf_counter() - start
            outcome = BatchResult(
                name=batch.name,
                results=results,
                wall_time=wall,
                jobs_used=jobs,
                telemetry_path=str(writer.path) if writer.path else None,
                stopped=stopped,
            )
            writer.emit(
                "batch_end",
                name=batch.name,
                wall_time=round(wall, 6),
                ok=len(results) - outcome.num_failed,
                failed=outcome.num_failed,
                cache_hits=outcome.cache_hits,
                cache_misses=outcome.cache_misses,
                stopped=stopped,
            )
            batch_span.set_attr("failed", outcome.num_failed)
            batch_span.set_attr("cache_hits", outcome.cache_hits)
            batch_span.set_attr("cache_misses", outcome.cache_misses)
            obs.log(
                "engine.batch_end", wall_time=round(wall, 6),
                failed=outcome.num_failed,
            )
            return outcome
    finally:
        if outcome is None:
            run.finish(status="error")
        else:
            status = "failed" if outcome.num_failed else "done"
            run.finish(
                status="stopped" if outcome.stopped else status,
                wall_time=round(outcome.wall_time, 6),
            )
        batch_span.__exit__(None, None, None)
        writer.close()
        if writer.path is not None:
            from ..obs import warehouse as _warehouse

            _warehouse.maybe_auto_ingest(writer.path)
