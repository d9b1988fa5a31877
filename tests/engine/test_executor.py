"""Tests for the batch executor: serial/parallel equivalence, retries,
timeouts, and the job builders."""

import os

import pytest

from repro.engine import (
    BatchSpec,
    Job,
    budget_bisection,
    contingency_sweep,
    execute_job,
    iter_batch,
    register_runner,
    reliability_map,
    requirement_sweep,
    run_batch,
    scaling_sweep,
    tradeoff_points,
)
from repro.reliability import failure_probability
from repro.synthesis import pareto_front
from tests.synthesis.test_ilp_mr import make_spec, make_template

LEVELS = [0.5, 1e-3]


def sweep_spec():
    return make_spec(make_template(2, p=1e-2), r_star=None)


def result_key(res):
    return (res.status, res.cost, res.reliability)


class TestBuilders:
    def test_requirement_sweep_orders_loose_to_tight(self):
        batch = requirement_sweep(sweep_spec(), [1e-6, 0.5, 1e-3])
        assert [j.meta["r_star"] for j in batch.jobs] == [0.5, 1e-3, 1e-6]
        assert all(j.kind == "synthesize" for j in batch.jobs)

    def test_requirement_sweep_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            requirement_sweep(sweep_spec(), LEVELS, algorithm="annealing")

    def test_options_forwarded_to_payload(self):
        batch = requirement_sweep(
            sweep_spec(), [1e-3], backend="scipy", mip_rel_gap=1e-2
        )
        options = batch.jobs[0].payload["options"]
        assert options == {"backend": "scipy", "mip_rel_gap": 1e-2}

    def test_contingency_sweep_jobs(self):
        # Loose enough that a single surviving bus chain still meets it.
        spec = make_spec(make_template(2, p=1e-2), r_star=0.1)
        batch = contingency_sweep(spec, ["B0"], backend="scipy")
        assert [j.meta["outage"] for j in batch.jobs] == [None, "B0"]
        outcome = run_batch(batch)
        by_id = outcome.by_id()
        assert by_id["outage=none"].unwrap().feasible
        # With B0 knocked out the other bus still carries the load.
        res = by_id["outage=B0"].unwrap()
        assert res.feasible
        assert not any(
            "B0" in (res.architecture.template.name_of(i),
                     res.architecture.template.name_of(j))
            for (i, j) in res.architecture.edges
        )

    def test_budget_bisection_job(self):
        spec = make_spec(make_template(2, p=1e-2), r_star=None)
        batch = budget_bisection(spec, [1000.0], backend="scipy")
        outcome = run_batch(batch)
        point = outcome.results[0].unwrap()
        assert point is not None
        assert point.cost <= 1000.0


class TestSerialExecution:
    def test_requirement_sweep_matches_direct_synthesis(self):
        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="mr",
                                  backend="scipy")
        outcome = run_batch(batch)
        assert outcome.num_failed == 0
        assert outcome.jobs_used == 1
        points = tradeoff_points(outcome.results)
        assert [p.r_star for p in points] == sorted(LEVELS, reverse=True)
        for p in points:
            assert p.feasible
            assert p.reliability <= p.r_star

    def test_reliability_map_matches_failure_probability(self):
        from tests.engine.test_cache import small_arch

        arch = small_arch()
        outcome = run_batch(reliability_map(arch, method="bdd"))
        for res in outcome.results:
            direct = failure_probability(arch, sink=res.meta["sink"],
                                         method="bdd")
            assert res.unwrap() == direct

    def test_unknown_job_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            execute_job(Job(job_id="x", kind="teleport", payload={}))

    def test_semantic_failure_contained(self):
        register_runner("boom", _boom)
        outcome = run_batch(BatchSpec("boom", [
            Job(job_id="a", kind="boom", payload={}),
            Job(job_id="b", kind="boom", payload={"ok": True}),
        ]))
        by_id = outcome.by_id()
        assert not by_id["a"].ok
        assert by_id["a"].error_type == "RuntimeError"
        assert by_id["a"].attempts == 1  # semantic errors are not retried
        assert by_id["b"].ok and by_id["b"].value == 42
        with pytest.raises(RuntimeError, match="job 'a' failed"):
            outcome.values()

    def test_transient_failure_retried(self, tmp_path):
        register_runner("flaky", _flaky)
        marker = tmp_path / "attempts"
        outcome = run_batch(
            BatchSpec("flaky", [Job(
                job_id="f", kind="flaky",
                payload={"marker": str(marker), "fail_times": 2},
            )]),
            retries=2,
        )
        res = outcome.results[0]
        assert res.ok
        assert res.attempts == 3

    def test_transient_retries_exhausted(self, tmp_path):
        register_runner("flaky", _flaky)
        marker = tmp_path / "attempts"
        outcome = run_batch(
            BatchSpec("flaky", [Job(
                job_id="f", kind="flaky",
                payload={"marker": str(marker), "fail_times": 5},
            )]),
            retries=1,
        )
        res = outcome.results[0]
        assert not res.ok
        assert res.error_type == "OSError"
        assert res.attempts == 2


class TestParallelExecution:
    def test_pool_matches_serial(self):
        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="mr",
                                  backend="scipy")
        serial = run_batch(batch, jobs=1)
        pooled = run_batch(batch, jobs=2)
        assert pooled.num_failed == 0
        assert [r.job_id for r in pooled.results] == [
            r.job_id for r in serial.results
        ]
        for a, b in zip(serial.values(), pooled.values()):
            assert result_key(a) == result_key(b)
        assert all(r.worker_pid != os.getpid() for r in pooled.results)

    def test_pareto_front_invariant_under_parallelism(self):
        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="ar",
                                  backend="scipy")
        serial = pareto_front(tradeoff_points(run_batch(batch, jobs=1).results))
        pooled = pareto_front(tradeoff_points(run_batch(batch, jobs=2).results))
        assert [(p.cost, p.reliability) for p in serial] == [
            (p.cost, p.reliability) for p in pooled
        ]

    def test_iter_batch_streams_all_results(self):
        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="ar",
                                  backend="scipy")
        seen = {res.job_id for res in iter_batch(batch, jobs=2)}
        assert seen == set(batch.job_ids())

    def test_pool_timeout_enforced(self):
        register_runner("sleep", _sleep)
        outcome = run_batch(
            BatchSpec("sleepy", [
                Job(job_id="slow", kind="sleep", payload={"seconds": 6.0}),
                Job(job_id="fast", kind="sleep", payload={"seconds": 0.0}),
            ]),
            jobs=2, timeout=1.0, retries=0,
        )
        by_id = outcome.by_id()
        assert by_id["fast"].ok
        assert not by_id["slow"].ok
        assert by_id["slow"].error_type == "TimeoutError"


def multi_sink_arch(n_sinks=4):
    """A fully wired gen->bus->loads architecture with ``n_sinks`` sinks.

    Each sink's reliability subproblem is distinct (different relevant
    subgraph), so serial and pool runs see identical cache behaviour —
    no cross-job hits for serial mode to enjoy and pool mode to miss.
    """
    from repro.arch import (
        Architecture,
        ArchitectureTemplate,
        ComponentSpec,
        Library,
        Role,
    )

    lib = Library(switch_cost=1.0)
    for i in range(2):
        lib.add(ComponentSpec(f"G{i}", "gen", cost=50, capacity=100,
                              failure_prob=1e-2, role=Role.SOURCE))
        lib.add(ComponentSpec(f"B{i}", "bus", cost=20, failure_prob=1e-2))
    for s in range(n_sinks):
        lib.add(ComponentSpec(f"L{s}", "load", demand=10, role=Role.SINK))
    lib.set_type_order(["gen", "bus", "load"])
    names = ["G0", "G1", "B0", "B1"] + [f"L{s}" for s in range(n_sinks)]
    t = ArchitectureTemplate(lib, names)
    for i in range(2):
        for j in range(2):
            t.allow_edge(f"G{i}", f"B{j}")
        for s in range(n_sinks):
            t.allow_edge(f"B{i}", f"L{s}")
    return Architecture(t, t.allowed_edges)


class TestWorkerMetricsAggregation:
    """Pool workers' metrics must survive the trip home (the jobs>1
    metrics-loss fix): after a parallel batch the parent registry reports
    the same per-engine call totals as a serial run of the same batch."""

    def run_with_metrics(self, jobs, telemetry=None):
        from repro import obs

        obs.reset_metrics()
        outcome = run_batch(
            reliability_map(multi_sink_arch(), method="bdd"),
            jobs=jobs, telemetry=telemetry,
        )
        assert outcome.num_failed == 0
        snap = obs.snapshot()
        obs.reset_metrics()
        return outcome, {
            name: data["value"]
            for name, data in snap.items()
            if data["kind"] == "counter"
        }

    def test_pool_counters_match_serial(self):
        _, serial = self.run_with_metrics(jobs=1)
        _, pooled = self.run_with_metrics(jobs=2)
        assert serial["engine.jobs.completed"] == 4
        assert pooled == serial

    def test_job_results_carry_metrics_deltas(self):
        outcome, _ = self.run_with_metrics(jobs=2)
        for res in outcome.results:
            assert res.metrics, "pool results must ship a metrics delta"
            assert res.metrics["engine.jobs.completed"]["value"] == 1

    def test_metrics_snapshots_land_in_telemetry(self, tmp_path):
        from repro import obs
        from repro.engine import read_events

        telemetry = str(tmp_path / "telemetry.jsonl")
        outcome, counters = self.run_with_metrics(jobs=2, telemetry=telemetry)
        snaps = [e for e in read_events(telemetry)
                 if e["event"] == "metrics_snapshot"]
        assert len(snaps) == len(outcome.results)
        assert {s["job"] for s in snaps} == set(outcome.by_id())
        assert all(s["worker_pid"] != os.getpid() for s in snaps)
        # The artifact alone reconstructs the worker totals.
        replayed = obs.merge_telemetry(telemetry)
        assert replayed.counter("engine.jobs.completed").value == (
            counters["engine.jobs.completed"]
        )

    def test_serial_mode_does_not_double_count(self, tmp_path):
        from repro.engine import read_events

        telemetry = str(tmp_path / "telemetry.jsonl")
        _, counters = self.run_with_metrics(jobs=1, telemetry=telemetry)
        assert counters["engine.jobs.completed"] == 4
        snaps = [e for e in read_events(telemetry)
                 if e["event"] == "metrics_snapshot"]
        assert snaps == []  # serial jobs tick the parent registry directly

    def test_batch_registers_a_live_run(self):
        from repro import obs

        obs.reset_run_registry()
        outcome, _ = self.run_with_metrics(jobs=1)
        finished = obs.run_registry().snapshot()["finished"]
        (record,) = [r for r in finished if r["kind"] == "batch"]
        assert record["status"] == "done"
        assert record["done"] == len(outcome.results)
        assert record["failed"] == 0
        obs.reset_run_registry()


# Module-level runners so they pickle / survive the fork into pool workers.


def _boom(job):
    if job.payload.get("ok"):
        return 42
    raise RuntimeError("intentional failure")


def _flaky(job):
    marker = job.payload["marker"]
    attempts = 0
    if os.path.exists(marker):
        with open(marker) as fh:
            attempts = int(fh.read() or 0)
    attempts += 1
    with open(marker, "w") as fh:
        fh.write(str(attempts))
    if attempts <= job.payload["fail_times"]:
        raise OSError(f"transient glitch #{attempts}")
    return attempts


def _sleep(job):
    import time

    time.sleep(job.payload["seconds"])
    return "done"


def _echo(job):
    return job.payload["i"]


class TestStreamingHooks:
    """The on_result / should_stop hooks the service runner drives."""

    def test_on_result_streams_in_completion_order(self):
        register_runner("echo", _echo)
        batch = BatchSpec("echo", [
            Job(job_id=f"e{i}", kind="echo", payload={"i": i})
            for i in range(4)
        ])
        seen = []
        outcome = run_batch(batch, on_result=lambda r: seen.append(r.job_id))
        assert seen == [f"e{i}" for i in range(4)]
        assert not outcome.stopped

    def test_should_stop_breaks_at_job_boundary(self):
        register_runner("echo", _echo)
        batch = BatchSpec("echo", [
            Job(job_id=f"e{i}", kind="echo", payload={"i": i})
            for i in range(10)
        ])
        done = []

        outcome = run_batch(
            batch,
            on_result=lambda r: done.append(r.job_id),
            should_stop=lambda: len(done) >= 3,
        )
        assert outcome.stopped
        assert len(outcome.results) == 3

    def test_should_stop_before_first_job(self):
        register_runner("echo", _echo)
        batch = BatchSpec("echo", [
            Job(job_id="e0", kind="echo", payload={"i": 0}),
        ])
        outcome = run_batch(batch, should_stop=lambda: True)
        assert outcome.stopped
        assert outcome.results == []

    def test_batch_end_telemetry_records_stopped(self, tmp_path):
        from repro.engine import read_events

        register_runner("echo", _echo)
        batch = BatchSpec("echo", [
            Job(job_id=f"e{i}", kind="echo", payload={"i": i})
            for i in range(3)
        ])
        telemetry = tmp_path / "t.jsonl"
        run_batch(batch, telemetry=str(telemetry), should_stop=lambda: True)
        (end,) = [
            e for e in read_events(telemetry) if e["event"] == "batch_end"
        ]
        assert end["stopped"] is True


class _FakeFuture:
    """Stand-in for a pool future whose completion the test scripts."""

    def __init__(self):
        self._value = None
        self._exc = None
        self._done = False
        self.was_cancelled = False

    def set_result(self, value):
        self._value, self._done = value, True

    def set_exception(self, exc):
        self._exc, self._done = exc, True

    def done(self):
        return self._done

    def exception(self):
        return self._exc

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._value

    def cancel(self):
        if self._done:
            return False
        self.was_cancelled = True
        self._done = True
        return True


def _wrapped_ok(value):
    """A _worker_run-shaped payload for a scripted success."""
    return {
        "value": value,
        "wall_time": 0.0,
        "worker_pid": 4242,
        "cache_hits": 0,
        "cache_misses": 0,
        "metrics": None,
    }


class TestPoolRebuildDedup:
    """Regression: rebuilding a broken pool while other futures are in
    flight must not execute an already-completed job a second time (the
    old rebuild path resubmitted *every* pending future, double-counting
    the finished ones in results, telemetry, and metrics)."""

    def test_rebuild_does_not_resubmit_completed_job(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import executor as executor_mod

        pools = []

        class FakePool:
            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                self.futures = {}     # job_id -> latest future
                self.submitted = []   # job_ids, in submission order
                pools.append(self)

            def submit(self, fn, job, trace=None):
                fut = _FakeFuture()
                self.submitted.append(job.job_id)
                self.futures[job.job_id] = fut
                if len(pools) > 1:
                    # Any job the rebuilt pool receives "executes"
                    # instantly — so a buggy resubmission of B would
                    # surface as a second submission, not a hang.
                    fut.set_result(_wrapped_ok(f"{job.job_id}-redone"))
                return fut

            def shutdown(self, wait=False, cancel_futures=False):
                pass

        calls = {"n": 0}

        def fake_wait(fs, timeout=None, return_when=None):
            calls["n"] += 1
            if calls["n"] == 1:
                # B finishes fine; A's worker dies. wait() reports only
                # A — B's completed future is still "in flight" when the
                # executor decides to rebuild the pool.
                pools[0].futures["B"].set_result(_wrapped_ok("B-done"))
                fut_a = pools[0].futures["A"]
                fut_a.set_exception(BrokenProcessPool("worker died"))
                return {fut_a}, {f for f in fs if f is not fut_a}
            done = {f for f in fs if f.done()}
            return done, set(fs) - done

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(executor_mod, "wait", fake_wait)

        batch = BatchSpec("rebuild", [
            Job(job_id="A", kind="noop", payload={}),
            Job(job_id="B", kind="noop", payload={}),
        ])
        results = list(iter_batch(batch, jobs=2, retries=1))

        assert sorted(r.job_id for r in results) == ["A", "B"]
        by_id = {r.job_id: r for r in results}
        # B's first (and only) execution is the one reported.
        assert by_id["B"].value == "B-done"
        assert by_id["B"].attempts == 1
        # A was resubmitted to the rebuilt pool.
        assert by_id["A"].value == "A-redone"
        assert by_id["A"].attempts == 2
        submissions = [j for p in pools for j in p.submitted]
        assert submissions.count("B") == 1, "completed job was re-executed"
        assert submissions.count("A") == 2
        assert len(pools) == 2


class TestPoolBreaksDuringSubmission:
    """Regression: a pool that broke while the batch was still being handed
    over raised ``BrokenProcessPool`` out of ``run_batch`` from the first
    submission loop instead of going through the rebuild path."""

    def test_every_job_yielded_once(self, monkeypatch, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import executor as executor_mod
        from repro.engine.telemetry import TelemetryWriter, read_events

        accept = 2  # the first pool takes two jobs, then refuses the rest
        pools = []

        class FakePool:
            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                self.futures = []
                self.submitted = []
                pools.append(self)

            def submit(self, fn, job, trace=None):
                if len(pools) == 1 and len(self.submitted) >= accept:
                    # The worker died: the first job had finished, the
                    # second was lost with it, and the pool now refuses.
                    self.futures[0].set_result(_wrapped_ok("J0-done"))
                    self.futures[1].set_exception(
                        BrokenProcessPool("worker died"))
                    raise BrokenProcessPool("pool is broken")
                fut = _FakeFuture()
                self.submitted.append(job.job_id)
                self.futures.append(fut)
                if len(pools) > 1:
                    fut.set_result(_wrapped_ok(f"{job.job_id}-pool2"))
                return fut

            def shutdown(self, wait=False, cancel_futures=False):
                pass

        def fake_wait(fs, timeout=None, return_when=None):
            done = {f for f in fs if f.done()}
            assert done, "a scripted future must be done"
            return done, set(fs) - done

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(executor_mod, "wait", fake_wait)

        ids = [f"J{i}" for i in range(6)]
        batch = BatchSpec("broken-submit", [
            Job(job_id=i, kind="noop", payload={}) for i in ids
        ])
        telemetry = tmp_path / "t.jsonl"
        results = list(iter_batch(batch, jobs=2, retries=1,
                                  writer=TelemetryWriter(str(telemetry))))

        assert sorted(r.job_id for r in results) == ids
        by_id = {r.job_id: r for r in results}
        assert all(r.ok for r in results)
        assert by_id["J0"].value == "J0-done"
        assert by_id["J0"].attempts == 1
        # J1 ran once and was lost with the worker; it is retried.
        assert by_id["J1"].attempts == 2
        # The rest were never accepted, so their one run is attempt 1.
        for i in ids[2:]:
            assert by_id[i].value == f"{i}-pool2"
            assert by_id[i].attempts == 1
        assert len(pools) == 2
        assert sorted(pools[1].submitted) == ids[1:]
        restarts = [e for e in read_events(telemetry)
                    if e["event"] == "pool_restart"]
        assert len(restarts) == 1
