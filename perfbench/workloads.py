"""The four benchmark workloads.

Each workload owns its inputs (generated from the seed), a discarded
warm-up, one repeatable *operation*, and the checks of that operation's
outputs against known answers:

``mr_bnb``
    One ILP-MR LEARNCONS loop on the 2-generator EPS template at
    r* = 5e-4 with the from-scratch branch-and-bound (known optimum 18012
    after 3 iterations). The simplex / B&B layer is almost all of it.
``mr_highs``
    ILP-MR on the 4- and 6-generator EPS templates at r* = 1e-4 with
    HiGHS (known optima 26008 and 30011). Encode, LEARNCONS, export and
    HiGHS share the time; the from-scratch simplex is not used.
``rel_sweep``
    A seeded batch of series / parallel reliability problems with
    closed-form answers, a fixed share of them repeats, run through a
    2-process pool into a fresh persistent cache directory.
``service_sweep``
    One client drives ``repro serve`` closed-loop: submit a small
    requirement sweep (four one-iteration syntheses), wait for DONE,
    fetch the result, and compare it with a direct ``run_batch`` of the
    same spec.

An operation returns an :class:`Op`; the runner calls its ``check``
outside the operation's wall and CPU readings.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from layers import LayerClock, ilp_mr_targets, registry_delta

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Op:
    """One measured operation."""

    wall: float
    #: Caller-visible latency of each unit of work in the operation.
    latencies: List[float]
    #: Units of work attempted (syntheses, engine jobs, service runs).
    attempted: int
    #: Returns one message per unit whose output is wrong.
    check: Callable[[], List[str]]
    #: Per-layer values (traced operations only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Counts that must repeat exactly between traced operations.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Kind of operation, when a workload takes turns between kinds.
    key: str = ""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)


def _eps_spec(gens: int, target: float):
    from repro.eps import build_eps_template, eps_spec

    return eps_spec(build_eps_template(num_generators=gens),
                    reliability_target=target)


def _median_seconds(fn: Callable[[], object], repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Workload:
    name = ""
    #: True when the workload runs in this process only (cpu/wall <= 1.1).
    serial = False
    #: The traced run repeats each operation under the program's tracer.
    tracer_arm = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate inputs, start what the operation needs, warm up."""

    def op(self, traced: bool = False) -> Op:
        raise NotImplementedError

    def traced_extras(self, ops: List[Op], errors: List[str]) -> Dict[str, float]:
        """Per-layer values measured once per traced run; wrong outputs
        are appended to ``errors``."""
        return {}

    def keep_pids(self) -> List[int]:
        """Children that live for the whole run (not pool workers)."""
        return []

    def prepare(self) -> None:
        """Make the next operation's inputs; not measured."""

    def teardown(self) -> None:
        """Stop every process the workload started."""


# ---------------------------------------------------------------------------
# ILP-MR loops


class IlpMrWorkload(Workload):
    serial = True
    backend = ""
    #: (generators, r*, expected optimum, expected iterations)
    instances: tuple = ()
    warmup: tuple = ()

    def setup(self) -> None:
        from repro.synthesis import synthesize_ilp_mr

        self.specs = self._build_specs()
        self._turn = 0
        gens, target, backend = self.warmup
        synthesize_ilp_mr(_eps_spec(gens, target), backend=backend)

    def _build_specs(self):
        return [_eps_spec(g, t) for g, t, _, _ in self.instances]

    def traced_extras(self, ops, errors):
        return {"domains.spec_s": _median_seconds(self._build_specs)}

    def _loop(self, which=None, backend=None):
        from repro.synthesis import synthesize_ilp_mr

        which = range(len(self.specs)) if which is None else which
        results, latencies = [], []
        for i in which:
            start = time.perf_counter()
            results.append(synthesize_ilp_mr(self.specs[i],
                                             backend=backend or self.backend))
            latencies.append(time.perf_counter() - start)
        return results, latencies

    def op(self, traced: bool = False) -> Op:
        """One synthesis, the instances taking turns; traced, all of them."""
        if not traced:
            i = self._turn % len(self.specs)
            self._turn += 1
            results, latencies = self._loop([i])
            return Op(latencies[0], latencies, 1,
                      lambda: self._check(results, [i]),
                      key=self._where(self.instances[i]))
        from repro import obs

        clock = LayerClock()
        obs.add_observer()
        try:
            before = obs.snapshot()
            with clock.installed(ilp_mr_targets()):
                results, latencies = self._loop()
            delta = registry_delta(before, obs.snapshot())
        finally:
            obs.remove_observer()
        wall = sum(latencies)
        counts = {
            "synthesis.iterations": sum(len(r.iterations) for r in results),
            "ilp.solve_calls": clock.calls["ilp.solve"],
            "ilp.bnb_nodes": delta.get("ilp.bnb.nodes", 0),
            "ilp.lp_iterations": delta.get("ilp.bnb.lp_iterations", 0),
            "ilp.simplex_solves": delta.get("ilp.simplex.solves", 0),
            "ilp.refactorizations": delta.get("ilp.simplex.refactorizations", 0),
            "ilp.dual_pivots": delta.get("ilp.simplex.dual_pivots", 0),
            "reliability.calls_bdd": delta.get("reliability.analysis.bdd.calls", 0),
        }
        layers = dict(counts)
        layers.update({
            "synthesis.encode_s": clock.seconds["synthesis.encode"],
            "synthesis.learncons_s": clock.seconds["synthesis.learncons"],
            "synthesis.analysis_s": clock.seconds["synthesis.analysis"],
            "ilp.solve_s": clock.seconds["ilp.solve"],
            "ilp.export_s": clock.seconds["ilp.export"],
            "ilp.highs_s": clock.seconds["ilp.highs"],
            "ilp.bnb_s": clock.seconds["ilp.bnb"],
            "reliability.analysis_s": sum(
                v for k, v in delta.items()
                if k.startswith("reliability.analysis.") and k.endswith(".seconds.sum")
            ),
            "traced.unattributed_frac": 1.0 - clock.covered / wall,
        })
        return Op(wall, latencies, len(results), lambda: self._check(results),
                  layers=layers, counts=counts)

    @staticmethod
    def _where(instance) -> str:
        gens, target, _, _ = instance
        return f"eps-g{gens}@{target:g}"

    def _check(self, results, which=None) -> List[str]:
        from repro.reliability import worst_case_failure

        which = range(len(self.specs)) if which is None else which
        errors = []
        for i, result in zip(which, results):
            spec, (gens, target, cost, iters) = self.specs[i], self.instances[i]
            where = self._where(self.instances[i])
            if result.status != "optimal" or result.cost != cost:
                errors.append(f"{where}: {result.status} cost {result.cost}, "
                              f"expected optimal {cost}")
                continue
            if len(result.iterations) != iters:
                errors.append(f"{where}: {len(result.iterations)} iterations, "
                              f"expected {iters}")
            # Second exact engine, one the loop (BDD) did not use.
            again, _ = worst_case_failure(result.architecture, spec.sinks(),
                                          method="factoring")
            if not (result.reliability <= target and again <= target
                    and _close(again, result.reliability)):
                errors.append(f"{where}: r={result.reliability!r}, factoring "
                              f"r={again!r}, r*={target}")
        return errors


class MrBnb(IlpMrWorkload):
    name = "mr_bnb"
    backend = "bnb"
    instances = ((2, 5e-4, 18012.0, 3),)
    # One-iteration loop: touches simplex, B&B and the BDD engine.
    warmup = (2, 2e-3, "bnb")

    def traced_extras(self, ops, errors):
        values = super().traced_extras(ops, errors)
        # The same loop re-solved with HiGHS (the "within 5x" gate). The
        # first HiGHS solve imports scipy.optimize, so it is discarded.
        self._loop(backend="scipy")
        results, latencies = self._loop(backend="scipy")
        errors += [f"HiGHS re-solve: {e}" for e in self._check(results)]
        values["ilp.bnb_vs_highs_ratio"] = (
            statistics.median(o.wall for o in ops) / sum(latencies))
        return values


class MrHighs(IlpMrWorkload):
    name = "mr_highs"
    backend = "scipy"
    instances = ((4, 1e-4, 26008.0, 4), (6, 1e-4, 30011.0, 3))
    # Pays the lazy scipy.optimize import of the first HiGHS solve.
    warmup = (2, 5e-4, "scipy")


# ---------------------------------------------------------------------------
# Reliability batch through the engine's process pool


class RelSweep(Workload):
    name = "rel_sweep"
    workers = 2
    batch_jobs = 2000
    #: Problem shapes, used equally often, so that every seed asks for
    #: the same amount of work; the seed draws probabilities and order.
    shapes = tuple([("series", n) for n in range(1, 7)]
                   + [("parallel", k) for k in range(2, 5)])
    #: Share of jobs that repeat an earlier problem of the same batch.
    repeat_share = 0.25
    #: A repeat copies a problem more than this many jobs back, so the
    #: original has normally been stored by the time the copy runs.
    repeat_gap = 64

    def setup(self) -> None:
        from repro.engine import run_batch

        self._batches = 0
        # One fresh cache directory per run, as a user's sweep would get.
        # Its first opener is the warm-up pool, which is where two workers
        # can race in SQLiteBackend._migrate; the engine rebuilds the pool
        # and logs a pool_restart event, counted as a worker-init error.
        self.cache_dir = self.workdir / "relcache"
        self.cache_dir.mkdir()
        warm_log = self.workdir / "warmup-telemetry.jsonl"
        cases, batch = self._generate(self.seed, 16, "perfbench-warmup")
        run_batch(batch, jobs=self.workers, cache_dir=str(self.cache_dir),
                  telemetry=str(warm_log))
        self.warmup_restarts = _pool_restarts(warm_log)

    def _generate(self, seed, n, name):
        from repro.engine import BatchSpec, Job
        from repro.verify.corpus import parallel_case, series_case

        rng = random.Random(seed)
        repeats = set(rng.sample(range(self.repeat_gap + 1, n),
                                 int(n * self.repeat_share))) if n > self.repeat_gap else set()
        fresh = [self.shapes[i % len(self.shapes)] for i in range(n - len(repeats))]
        rng.shuffle(fresh)
        cases = []
        for i in range(n):
            if i in repeats:
                cases.append(cases[rng.randrange(i - self.repeat_gap)])
                continue
            kind, size = fresh.pop()
            p = rng.uniform(1e-4, 0.1)
            cases.append(series_case(p=p, n=size) if kind == "series"
                         else parallel_case(p=p, k=size))
        batch = BatchSpec(name=name, jobs=[
            Job(job_id=f"rel-{i}", kind="reliability",
                payload={"problem": c.problem, "method": "bdd"})
            for i, c in enumerate(cases)
        ])
        return cases, batch

    def prepare(self) -> None:
        # Every batch gets problems of its own, so the shared cache only
        # serves the repeats inside a batch.
        self._batches += 1
        self.cases, self.batch = self._generate(
            f"{self.seed}/{self._batches}", self.batch_jobs, "perfbench-rel")

    def op(self, traced: bool = False) -> Op:
        from repro.engine import run_batch

        telemetry = (self.workdir / f"telemetry-{self._batches}.jsonl"
                     if traced else None)
        if traced:
            from repro import obs

            obs.add_observer()
            before = obs.snapshot()
        # A result's latency is the time until run_batch hands it to the
        # caller (the on_result hook the service journals through).
        latencies: List[float] = []
        start = time.perf_counter()
        try:
            result = run_batch(
                self.batch, jobs=self.workers, cache_dir=str(self.cache_dir),
                telemetry=str(telemetry) if telemetry else None,
                on_result=lambda r: latencies.append(time.perf_counter() - start),
            )
            wall = time.perf_counter() - start
        finally:
            if traced:
                delta = registry_delta(before, obs.snapshot())
                obs.remove_observer()
        jobs, cases = result.results, self.cases
        op = Op(wall, latencies, len(cases), lambda: self._check(cases, jobs))
        if traced:
            op.layers = self._layers(result, wall, delta, telemetry)
            op.counts = {"engine.jobs": len(jobs)}
        return op

    def _layers(self, result, wall, delta, telemetry) -> Dict[str, float]:
        jobs = result.results
        exec_s = sum(r.wall_time for r in jobs)
        overhead = wall - exec_s / self.workers
        per_pid: Dict[int, int] = {}
        for r in jobs:
            per_pid[r.worker_pid] = per_pid.get(r.worker_pid, 0) + 1
        counts = list(per_pid.values()) + [0] * (self.workers - len(per_pid))
        hits, misses = result.cache_hits, result.cache_misses
        return {
            "engine.jobs": len(jobs),
            "engine.job_exec_s": exec_s,
            "engine.overhead_s": overhead,
            "engine.overhead_per_job_ms": 1000.0 * overhead / len(jobs),
            "engine.cache_hits": hits,
            "engine.cache_misses": misses,
            "engine.cache_hit_ratio": hits / max(hits + misses, 1),
            "engine.retries": sum(r.attempts - 1 for r in jobs),
            "engine.worker_init_errors": _pool_restarts(telemetry),
            "engine.worker_balance": max(counts) / max(min(counts), 1),
            "reliability.calls_bdd": delta.get("reliability.analysis.bdd.calls", 0),
            "reliability.analysis_s": delta.get(
                "reliability.analysis.bdd.seconds.sum", 0.0),
        }

    def traced_extras(self, ops, errors):
        return {"engine.worker_init_errors": self.warmup_restarts + sum(
            op.layers["engine.worker_init_errors"] for op in ops)}

    def _check(self, cases, jobs) -> List[str]:
        errors = []
        for case, r in zip(cases, jobs):
            if not r.ok:
                errors.append(f"{r.job_id}: {r.error_type}: {r.error}")
            elif not _close(r.value, case.expected):
                errors.append(f"{r.job_id} ({case.name}): {r.value!r} != "
                              f"{case.expected!r}")
        if len(jobs) != len(cases):
            errors.append(f"{len(jobs)} results for {len(cases)} jobs")
        return errors


def _pool_restarts(telemetry: Path) -> int:
    """Pool rebuilds logged in a batch's telemetry.

    A worker whose initializer raises breaks the pool; the engine rebuilds
    it and logs one ``pool_restart`` event per rebuild.
    """
    with open(telemetry, encoding="utf-8") as fh:
        return sum(json.loads(line).get("event") == "pool_restart"
                   for line in fh if line.strip())


# ---------------------------------------------------------------------------
# Closed-loop client of `repro serve`


class ServiceSweep(Workload):
    name = "service_sweep"
    # The service installs its own tracer for every run, so there is no
    # untraced arm to compare against.
    tracer_arm = False
    #: Distinct specs the client cycles through.
    distinct_specs = 4
    #: Requirement levels per run, drawn from LEVELS. Every level is loose
    #: enough for a one-iteration ILP-MR run on the paper template. With
    #: one level per run (~40 ms of synthesis), latencies doubled whenever
    #: the host's CPU contention rose; four levels halve that sensitivity,
    #: and the service and the serial engine path still do all the work.
    levels_per_run = 4
    LEVELS = tuple(i * 1e-3 for i in range(1, 51))
    #: Status poll period. Latency is taken from the server's own
    #: finished_at stamp, so the period does not quantize it; the time
    #: until the client notices is reported as service.notice_s.
    poll_s = 0.02
    #: A run still not terminal after this long counts as failed.
    run_timeout_s = 60.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def setup(self) -> None:
        from repro.engine import run_batch
        from repro.service.runner import canonical_results
        from repro.service.specs import build_batch, normalize_job_spec

        # The server imports while this process builds the references.
        self._launch_server()
        rng = random.Random(self.seed)
        self.specs = []
        self.expected = []
        for _ in range(self.distinct_specs):
            raw = {"kind": "sweep", "params": {
                "domain": "eps", "algorithm": "mr", "backend": "scipy",
                "levels": rng.sample(self.LEVELS, self.levels_per_run)}}
            direct = run_batch(build_batch(normalize_job_spec(raw)))
            self.specs.append(json.dumps(raw).encode("utf-8"))
            self.expected.append(_canonical(canonical_results(direct.results)))
        self._rng = rng
        self._wait_for_server()
        warm = self.op()
        errors = warm.check()
        if errors:
            raise RuntimeError("service warm-up run: " + "; ".join(errors))

    def _launch_server(self) -> None:
        self._port_file = self.workdir / "service.port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        self._log = open(self.workdir / "service.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(self._port_file),
             "--runs-dir", str(self.workdir / "runs"),
             "--workers", "1", "--jobs", "1"],
            cwd=self.workdir, env=env, stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def _wait_for_server(self) -> None:
        port_file = self._port_file
        deadline = time.monotonic() + 120
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                try:
                    if self._request("GET", "/healthz")[0] == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.01)

    def keep_pids(self) -> List[int]:
        return [self.proc.pid]

    def traced_extras(self, ops, errors):
        from repro.domains import domain_spec

        # What the server does for every submitted run.
        return {"domains.spec_s": _median_seconds(
            lambda: domain_spec("eps", target=1e-2))}

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def op(self, traced: bool = False) -> Op:
        index = self._rng.randrange(self.distinct_specs)
        start = time.perf_counter()
        submitted = time.time()
        status, body = self._request("POST", "/api/jobs", self.specs[index])
        submit_s = time.perf_counter() - start
        if status != 202:
            error = f"POST /api/jobs -> {status}: {body[:200]!r}"
            return Op(submit_s, [submit_s], 1, lambda: [error])
        run_id = json.loads(body)["run_id"]
        deadline = time.monotonic() + self.run_timeout_s
        while True:
            status, body = self._request("GET", f"/api/jobs/{run_id}")
            doc = json.loads(body)
            if status != 200 or doc.get("terminal") or time.monotonic() > deadline:
                break
            time.sleep(self.poll_s)
        seen = time.time()
        fetch_start = time.perf_counter()
        status, result = self._request("GET", f"/api/jobs/{run_id}/result")
        end = time.perf_counter()
        fetch_s = end - fetch_start
        finished = doc.get("finished_at") or seen
        op = Op(end - start, [finished - submitted], 1,
                lambda: self._check(run_id, doc, status, result, index))
        if traced and doc.get("state") == "DONE":
            engine_s, jobs = self._engine_seconds(run_id)
            run_s = finished - doc["started_at"]
            op.layers = {
                "service.submit_s": submit_s,
                "service.queue_wait_s": doc["started_at"] - doc["created_at"],
                "service.run_s": run_s,
                "service.engine_s": engine_s,
                "service.overhead_s": run_s - engine_s,
                "service.notice_s": seen - finished,
                "service.fetch_s": fetch_s,
                "engine.jobs": jobs,
                "engine.job_exec_s": engine_s,
            }
            op.counts = {"engine.jobs": jobs}
        return op

    def _engine_seconds(self, run_id: str):
        status, body = self._request(
            "GET", f"/api/jobs/{run_id}/artifacts/telemetry.jsonl")
        if status != 200:
            raise RuntimeError(f"telemetry artifact of {run_id}: {status}")
        ends = [e for e in map(json.loads, body.decode().splitlines())
                if e.get("event") == "job_end"]
        return sum(e["wall_time"] for e in ends), len(ends)

    def _check(self, run_id, doc, status, result, index) -> List[str]:
        if doc.get("state") != "DONE" or status != 200:
            return [f"{run_id}: state {doc.get('state')}, result HTTP {status}"]
        got = _canonical(json.loads(result)["results"])
        if got != self.expected[index]:
            return [f"{run_id}: result differs from a direct run_batch"]
        return []

    def teardown(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            # The queue is idle between closed-loop runs, so nothing needs
            # draining. SIGINT would not do: a shell running this process
            # in the background makes its children ignore SIGINT.
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._log is not None:
            self._log.close()


def _canonical(results) -> str:
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


WORKLOADS = {w.name: w for w in (MrBnb, MrHighs, RelSweep, ServiceSweep)}
