"""CPU time and peak memory of this process and every process under it.

``resource.getrusage(RUSAGE_CHILDREN)`` only covers children that have
been waited for: a process pool shut down with ``wait=False`` (as
``repro.engine.run_batch`` does) or a server child that is still running
contributes nothing to it. :func:`tree_cpu` therefore adds the live part
of the tree read from ``/proc``:

    own time + reaped descendants + every live descendant
    (its own time plus what it has reaped itself).

Every second of CPU is counted once, provided no process is reaped
between the ``getrusage`` call and the ``/proc`` scan. Callers make the
tree quiet first with :func:`wait_for_children`, so the reading is exact
at the boundaries of a timed section.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Dict, Iterable, List

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "rb") as fh:
        raw = fh.read().decode("ascii", "replace")
    # The command name may hold spaces and parentheses; fields after it
    # start at "state" (field 3 of proc(5)).
    return raw[raw.rindex(")") + 2:].split()


def _parents() -> Dict[int, int]:
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(entry)] = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we listed /proc
    return parents


def descendants(root: int = 0) -> List[int]:
    """Pids of every live (or not yet reaped) process below ``root``."""
    root = root or os.getpid()
    children: Dict[int, List[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    found: List[int] = []
    frontier = [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _live_cpu(pid: int) -> float:
    try:
        fields = _stat_fields(pid)
    except (OSError, ValueError):
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of proc(5).
    return sum(int(f) for f in fields[11:15]) / _TICK


def tree_cpu(exclude: Iterable[int] = ()) -> float:
    """User + system seconds of this process and all its descendants,
    except the live processes in ``exclude`` (which must not have
    children of their own)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    exclude = set(exclude)
    return total + sum(_live_cpu(pid) for pid in descendants()
                       if pid not in exclude)


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of the largest process of the tree so far, MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        max((_hwm_kib(pid) for pid in descendants()), default=0),
    )
    return kib / 1024.0


def steal_s() -> float:
    """CPU seconds the hypervisor gave to other guests since boot, summed
    over this machine's CPUs (the ``steal`` column of ``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8]) / _TICK


def wait_for_children(keep: Iterable[int] = (), timeout: float = 30.0) -> bool:
    """Wait until every direct child not in ``keep`` has been reaped.

    Pool workers are joined by the pool's own management thread after
    ``shutdown(wait=False)``; this only waits for that to happen. Returns
    False if children were still present at ``timeout``.
    """
    me = os.getpid()
    keep = set(keep)
    deadline = time.monotonic() + timeout
    while True:
        left = [p for p, pp in _parents().items() if pp == me and p not in keep]
        if not left:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
