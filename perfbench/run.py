"""ARCHEX benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload mr_bnb --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with every instrument of
the program off, and scales their times to a reference core speed
sampled all through the run (see ``calibrate.py``). ``--trace 1``
is a separate run that times each layer from outside (see
``layers.py``), reads the program's counters, and re-runs every
operation under the program's own tracer to price it.
The metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it (``{"detail": ...}``) carries what the contract has
no key for: the failure ratio, the tail percentile and sample count, the
unscaled times, the CPU/wall ratio, the share of CPU time the hypervisor
stole while measuring, and the thread pinning seen. The exit code is 0 whenever
a result was printed; wrong outputs show as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Thread-count variables that keep BLAS from spin-waiting on a second
#: core; BENCHMARK.json's command sets them and every child inherits them.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes timed from start to ready; setup_s is their median.
SETUP_PROBES = 3
#: A serial workload using more CPU than this per wall second is not
#: serial: most likely BLAS threads are not pinned.
CPU_WALL_LIMIT = 1.1
#: Largest share of an ILP-MR loop the layer timers may leave uncovered.
UNATTRIBUTED_LIMIT = 0.05
READY = "perfbench: ready"


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail(samples: List[float]):
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile); with ten samples or fewer there is no
    such percentile and the maximum is reported as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def probe_setup(args: argparse.Namespace) -> Tuple[float, float]:
    """When a fresh benchmark process started and when it was ready
    (``time.perf_counter``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = None
    try:
        for line in proc.stdout:
            if line.strip() == READY:
                elapsed = time.perf_counter() - start
                break
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.terminate()  # lets the probe stop its own children
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if elapsed is None or code != 0:
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return start, start + elapsed


def _more(start: float, spans: List[float], seconds: float) -> bool:
    """Whether one more operation of typical length fits in ``seconds``.

    At least one operation always runs, so an operation longer than
    ``seconds`` is measured once.
    """
    return time.perf_counter() - start + statistics.median(spans) <= seconds


def _checked(op) -> List[str]:
    """Check an operation's outputs now, then let them go, so outputs of
    earlier operations never add to the memory measured later."""
    errors = op.check()
    op.check = None
    return errors


def timed_run(w, seconds: float, procstat, samplers: List[int] = ()) -> Dict:
    """Operations until ``seconds`` are used up; the CPU of the speed
    sampling processes ``samplers`` is not counted."""
    keep = w.keep_pids() + list(samplers)
    procstat.wait_for_children(keep)
    ops, cpus, spans, windows, errors = [], [], [], [], []
    start = time.perf_counter()
    while True:
        w.prepare()
        began = time.perf_counter()
        cpu = procstat.tree_cpu(samplers)
        op = w.op()
        # Pool workers are reaped by the pool's own thread; wait for that
        # so their CPU is in RUSAGE_CHILDREN before the reading.
        procstat.wait_for_children(keep)
        cpus.append(procstat.tree_cpu(samplers) - cpu)
        ended = time.perf_counter()
        spans.append(ended - began)
        windows.append((began, ended))
        errors += _checked(op)
        ops.append(op)
        if not _more(start, spans, seconds):
            break
    return {"ops": ops, "tracer_ops": [], "cpus": cpus, "spans": spans,
            "windows": windows, "errors": errors}


def traced_run(w, seconds: float, procstat) -> Dict:
    from repro import obs

    ops, tracer_ops, spans, errors = [], [], [], []
    start = time.perf_counter()
    while True:
        # Plain and tracer-on operations alternate ABBA..., so neither arm
        # always runs first; two rounds at least, so both orders occur.
        arms = [False, True] if w.tracer_arm else [False]
        if len(spans) % 2:
            arms.reverse()
        began = time.perf_counter()
        for traced_by_program in arms:
            w.prepare()
            if traced_by_program:
                with obs.tracing():
                    op = w.op(traced=True)
                tracer_ops.append(op)
            else:
                op = w.op(traced=True)
                ops.append(op)
            procstat.wait_for_children(w.keep_pids())
            errors += _checked(op)
        spans.append(time.perf_counter() - began)
        if len(spans) >= 2 and not _more(start, spans, seconds):
            break
    return {"ops": ops, "tracer_ops": tracer_ops, "spans": spans,
            "errors": errors}


def end_to_end(run: Dict, setups: List[float], peak_mb: float,
               scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; times at the reference core speed unless
    ``scaled`` is False.

    Operations of different kinds (``Op.key``) take turns. Each metric
    is the sum over kinds of that kind's value, so that it does not
    depend on how many operations of each kind fit in the run.
    """
    ops, cpus = run["ops"], run["cpus"]
    scales = run["scales"] if scaled else [1.0] * len(ops)
    kinds: Dict[str, List[int]] = {}
    for i, op in enumerate(ops):
        kinds.setdefault(op.key, []).append(i)
    wall = sum(statistics.median(ops[i].wall * scales[i] for i in idx)
               for idx in kinds.values())
    attempted = sum(statistics.median(ops[i].attempted for i in idx)
                    for idx in kinds.values())
    p50, tail_s = zip(*(latency_stats(
        [[x * scales[i] for x in ops[i].latencies] for i in idx])[:2]
        for idx in kinds.values()))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": sum(statistics.median(cpus[i] * scales[i] for i in idx)
                     for idx in kinds.values()),
        "peak_rss_mb": peak_mb,
        "jobs_per_s": attempted / wall,
        "run_latency_p50_s": sum(p50),
        "run_latency_tail_s": sum(tail_s),
    }


def latency_stats(per_op: List[List[float]]) -> Tuple[float, float, float]:
    """Median, tail and tail percentile of the latencies of operations of
    one kind.

    An operation with more than ten units (a batch) has a median and a
    tail of its own; the median over operations of each is reported.
    Otherwise the latencies of all operations are pooled.
    """
    if min(map(len, per_op)) > 10:
        tails = [tail(lat) for lat in per_op]
        return (statistics.median(statistics.median(lat) for lat in per_op),
                statistics.median(t for t, _ in tails),
                statistics.median(pct for _, pct in tails))
    pooled = [x for lat in per_op for x in lat]
    return (statistics.median(pooled),) + tail(pooled)


def per_layer(w, run: Dict, names: List[str], errors: List[str]) -> Dict[str, float]:
    ops, tracer_ops = run["ops"], run["tracer_ops"]
    for op in ops[1:] + tracer_ops:
        if op.counts != ops[0].counts:
            errors.append(f"traced counts differ between operations: "
                          f"{ops[0].counts} vs {op.counts}")
            break
    values = {k: statistics.mean(op.layers.get(k, 0.0) for op in ops)
              for k in ops[0].layers}
    if tracer_ops:
        values["obs.trace_overhead_frac"] = (
            statistics.median(op.wall for op in tracer_ops)
            / statistics.median(op.wall for op in ops) - 1.0
        )
    values.update(w.traced_extras(ops, errors))
    if w.serial and values["traced.unattributed_frac"] > UNATTRIBUTED_LIMIT:
        errors.append(f"layer timers leave {values['traced.unattributed_frac']:.1%}"
                      f" of the wall time unattributed (limit "
                      f"{UNATTRIBUTED_LIMIT:.0%})")
    return {name: values.get(name, 0.0) for name in names}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the server and pool children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import procstat
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.setup_probe:
            w = WORKLOADS[args.workload](args.seed, workdir)
            try:
                w.setup()
                print(READY, flush=True)
            finally:
                w.teardown()
            return 0
        # The traced run reports neither setup_s nor scaled times.
        cores = sorted(os.sched_getaffinity(0))
        sampler = None if args.trace else calibrate.SpeedSampler(cores)
        w = WORKLOADS[args.workload](args.seed, workdir)
        try:
            probes = [] if sampler is None else [
                probe_setup(args) for _ in range(SETUP_PROBES)]
            w.setup()
            steal, start = procstat.steal_s(), time.perf_counter()
            if args.trace:
                run = traced_run(w, args.seconds, procstat)
            else:
                if w.serial:
                    # One core, so that its samples are the ones that count.
                    cores = cores[-1:]
                    os.sched_setaffinity(0, cores)
                run = timed_run(w, args.seconds, procstat, sampler.pids())
            # Share of the machine's CPU time taken by other guests while
            # measuring: the usual cause of a run slower than its peers.
            steal_frac = ((procstat.steal_s() - steal)
                          / ((time.perf_counter() - start) * os.cpu_count()))
        finally:
            w.teardown()
            if sampler:
                sampler.stop()
            procstat.wait_for_children()
        peak_mb = procstat.peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another benchmark process still uses it

    errors = run["errors"]
    attempted = sum(op.attempted for op in run["ops"] + run["tracer_ops"])
    failed = min(len(errors), attempted)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "operations": len(run["ops"]), "operation_spans_s": run["spans"],
        "setup_samples_s": [end - begin for begin, end in probes],
        "fail_ratio": failed / attempted,
        "steal_frac": steal_frac,
        "pinned": {k: os.environ.get(k) for k in PINNED},
    }
    if args.trace:
        values = per_layer(w, run, list(units), errors)
    else:
        run["scales"] = [sampler.scale(*span, cores) for span in run["windows"]]
        setups = [(end - begin) * sampler.scale(begin, end)
                  for begin, end in probes]
        values = end_to_end(run, setups, peak_mb)
        detail["unscaled"] = end_to_end(run, detail["setup_samples_s"],
                                        peak_mb, scaled=False)
        detail["scales"] = run["scales"]
        detail["setup_scales"] = [sampler.scale(*span) for span in probes]
        detail["core_speeds"] = sampler.core_speeds()
        detail["latency_samples"] = sum(len(op.latencies) for op in run["ops"])
        detail["tail_percentiles"] = {
            key: latency_stats([op.latencies for op in run["ops"]
                                if op.key == key])[2]
            for key in dict.fromkeys(op.key for op in run["ops"])}
        detail["op_walls_s"] = [op.wall for op in run["ops"]]
        ratio = sum(run["cpus"]) / sum(run["spans"])
        detail["cpu_wall_ratio"] = ratio
        if w.serial and ratio > CPU_WALL_LIMIT:
            errors.append(f"serial workload used {ratio:.2f} CPU seconds per "
                          f"wall second (limit {CPU_WALL_LIMIT}); are "
                          f"{', '.join(PINNED)} set to 1?")
    for e in errors[:20]:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
