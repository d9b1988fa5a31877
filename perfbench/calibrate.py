"""How fast each core of the host runs, sampled all through a run.

The reference machine's cores change speed by up to 1.65x from second
to second and for minutes at a time, each core on its own (other guests
share the host's caches and cores), while the hypervisor records almost
no steal. A deterministic program's wall and CPU time follow that speed.

A :class:`SpeedSampler` keeps one helper process pinned to each core.
Every ``PERIOD_S`` the helper runs a fixed pure-Python loop and records
the CPU time it took. CPU time, not wall time: the helper shares its
core with the program, and the time it spends waiting for the core is
not a property of the core. A time measured between two instants is
scaled by ``REFERENCE_S / mean(samples in between)``, which gives
seconds on a core running at the reference speed. The helpers take
about 1% of each core.

Run as a script, this file is one helper: ``calibrate.py CPU``. It
prints ``ready``, samples until its standard input ends, then prints
its samples as one JSON list of ``[perf_counter, cpu_seconds]``.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: CPU seconds of :func:`reference_work` on a quiet core of the reference
#: machine (about the fastest sample seen); only ratios to it are
#: reported.
REFERENCE_S = 0.0028
#: Seconds between two samples on a core.
PERIOD_S = 0.25
#: A window with fewer samples than this is scaled by the samples nearest
#: to its middle.
MIN_SAMPLES = 4


def reference_work() -> int:
    table = {}
    acc = 0
    for i in range(20_000):
        table[i & 1023] = acc
        acc = (acc + i * i) % 1_000_003
    return acc


def _helper(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    reference_work()  # warm the interpreter's caches
    print("ready", flush=True)
    samples = []
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.readline():
            break
        at, start = time.perf_counter(), time.thread_time()
        reference_work()
        samples.append((at, time.thread_time() - start))
    print(json.dumps(samples), flush=True)


class SpeedSampler:
    """One sampling helper per core in ``cpus``."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.helpers: Dict[int, subprocess.Popen] = {}
        self.samples: Dict[int, List[Tuple[float, float]]] = {}
        try:
            for cpu in cpus:
                self.helpers[cpu] = subprocess.Popen(
                    [sys.executable, __file__, str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for cpu, helper in self.helpers.items():
                if helper.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"speed sampler on CPU {cpu} exited "
                                       f"with {helper.wait()}")
        except BaseException:
            self.stop()
            raise

    def pids(self) -> List[int]:
        return [h.pid for h in self.helpers.values()]

    def stop(self) -> None:
        """End sampling and collect the samples; safe to call twice."""
        for cpu, helper in self.helpers.items():
            try:
                # Closes the helper's input, which ends its loop.
                out, _ = helper.communicate(timeout=30)
                self.samples[cpu] = [tuple(s) for s in json.loads(out or "[]")]
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.communicate()
        self.helpers = {}

    def scale(self, began: float, ended: float,
              cpus: Optional[Sequence[int]] = None) -> float:
        """Factor from seconds measured between ``began`` and ``ended``
        (``time.perf_counter``) to seconds at the reference speed, from
        the samples of ``cpus`` (default: every core)."""
        pooled = [s for cpu in (self.samples if cpus is None else cpus)
                  for s in self.samples[cpu]]
        inside = [cpu_s for at, cpu_s in pooled if began <= at <= ended]
        if len(inside) < MIN_SAMPLES:
            middle = (began + ended) / 2
            pooled.sort(key=lambda s: abs(s[0] - middle))
            inside = [cpu_s for _, cpu_s in pooled[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.mean(inside)

    def core_speeds(self) -> Dict[int, float]:
        """Median speed of each core over the run, relative to reference."""
        return {cpu: statistics.median(REFERENCE_S / s for _, s in samples)
                for cpu, samples in self.samples.items() if samples}


if __name__ == "__main__":
    _helper(int(sys.argv[1]))
