"""Process-tree accounting of the benchmark: CPU and memory of children,
host-speed calibration, and how operations add up to metrics.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import procstat  # noqa: E402

BURN_S = 0.5
#: Clock-tick rounding and the interpreter's own start-up cost.
SLACK = 0.9

BURN = (
    "import time\n"
    "end = time.process_time() + {s}\n"
    "while time.process_time() < end:\n"
    "    pass\n"
)


def _burn(seconds: float) -> float:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    return seconds


def _python(code: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", code], **kwargs)


def test_cpu_of_a_running_child_is_counted():
    before = procstat.tree_cpu()
    child = _python(BURN.format(s=BURN_S) + "print('burned', flush=True)\n"
                    "time.sleep(60)\n", stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "burned"
        assert procstat.tree_cpu() - before >= SLACK * BURN_S
    finally:
        child.kill()
        child.wait(timeout=10)
        child.stdout.close()


def test_cpu_of_a_reaped_child_is_counted():
    before = procstat.tree_cpu()
    _python(BURN.format(s=BURN_S)).wait(timeout=60)
    assert procstat.tree_cpu() - before >= SLACK * BURN_S


def test_cpu_of_a_grandchild_reaped_by_a_running_child_is_counted():
    grandchild = BURN.format(s=BURN_S)
    code = (
        "import subprocess, sys, time\n"
        f"subprocess.run([sys.executable, '-c', {grandchild!r}], check=True)\n"
        "print('done', flush=True)\n"
        "time.sleep(60)\n"
    )
    before = procstat.tree_cpu()
    child = _python(code, stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "done"
        assert procstat.tree_cpu() - before >= SLACK * BURN_S
    finally:
        child.kill()
        child.wait(timeout=10)
        child.stdout.close()


def test_cpu_of_pool_workers_shut_down_without_waiting_is_counted():
    # Like repro.engine.run_batch: a forked pool shut down with
    # wait=False, so the workers are not yet reaped when the batch returns.
    # (A spawn context would also start a resource-tracker child that
    # lives as long as this process.)
    before = procstat.tree_cpu()
    pool = ProcessPoolExecutor(max_workers=2, mp_context=get_context("fork"))
    futures = [pool.submit(_burn, BURN_S) for _ in range(2)]
    assert [f.result(timeout=60) for f in futures] == [BURN_S, BURN_S]
    pool.shutdown(wait=False)
    assert procstat.wait_for_children(timeout=30)
    assert procstat.tree_cpu() - before >= SLACK * 2 * BURN_S


def test_peak_rss_includes_a_child():
    code = "b = bytearray(256 * 1024 * 1024)\nb[::4096] = b'x' * len(b[::4096])\n"
    _python(code).wait(timeout=60)
    assert procstat.peak_rss_mb() >= 256


class _ChildBurner:
    """A workload whose every operation burns CPU in a child process."""

    serial = False

    def keep_pids(self):
        return []

    def prepare(self):
        pass

    def op(self):
        _python(BURN.format(s=BURN_S)).wait(timeout=60)
        return SimpleNamespace(check=lambda: [])


def test_timed_run_counts_the_cpu_of_an_operations_children():
    import run

    result = run.timed_run(_ChildBurner(), 0.0, procstat)
    assert len(result["cpus"]) == 1
    assert result["cpus"][0] >= SLACK * BURN_S


def test_speed_samplers_sample_every_core_and_stop():
    cores = sorted(os.sched_getaffinity(0))
    sampler = calibrate.SpeedSampler(cores)
    try:
        helpers = sampler.pids()
        began = time.perf_counter()
        time.sleep(2 * calibrate.PERIOD_S * calibrate.MIN_SAMPLES)
        ended = time.perf_counter()
    finally:
        sampler.stop()
    assert not set(helpers) & set(procstat.descendants())
    assert len(sampler.samples[cores[0]]) >= calibrate.MIN_SAMPLES
    assert 0.05 < sampler.scale(began, ended) < 20
    assert 0.05 < sampler.scale(began, ended, cores[:1]) < 20
    # A window without samples borrows the nearest ones.
    assert 0.05 < sampler.scale(ended + 100, ended + 101) < 20


def test_speed_sampler_cpu_is_not_counted():
    sampler = calibrate.SpeedSampler(sorted(os.sched_getaffinity(0)))
    try:
        before = procstat.tree_cpu(sampler.pids())
        time.sleep(1.0)
        assert procstat.tree_cpu(sampler.pids()) - before < 0.01
    finally:
        sampler.stop()


def _op(key, wall, latencies):
    return SimpleNamespace(key=key, wall=wall, attempted=len(latencies),
                           latencies=latencies)


def test_kinds_that_take_turns_add_up_whatever_their_count():
    import run

    # Two kinds taking turns, the second one more often; every time scaled
    # to half.
    ops = [_op("a", 1.0, [1.0]), _op("b", 3.0, [3.0]), _op("a", 1.0, [1.0]),
           _op("b", 3.0, [3.0]), _op("b", 3.0, [3.0])]
    result = {"ops": ops, "cpus": [op.wall for op in ops],
              "scales": [0.5] * len(ops)}
    values = run.end_to_end(result, [2.0], 100.0)
    assert values["wall_s"] == values["cpu_s"] == 2.0
    assert values["run_latency_p50_s"] == values["run_latency_tail_s"] == 2.0
    assert values["jobs_per_s"] == 1.0
    assert values["setup_s"] == 2.0  # scaled by the caller
    assert run.end_to_end(result, [2.0], 100.0, scaled=False)["wall_s"] == 4.0


def test_batches_report_the_median_of_their_own_latency_statistics():
    import run

    batches = [[float(i) for i in range(1, 101)],
               [2.0 * i for i in range(1, 101)],
               [3.0 * i for i in range(1, 101)]]
    p50, tail, percentile = run.latency_stats(batches)
    assert p50 == 2.0 * 50.5
    assert tail == 2.0 * 90 and percentile == 90.0
