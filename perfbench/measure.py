"""Host-side measurement helpers: percentiles, floors, the host-speed
reference, the share test, the host fingerprint and peak resident memory.

Everything here is plain arithmetic over numbers the runner collected;
nothing imports the simulator.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Sequence

__all__ = [
    "percentile_rank", "percentile", "samples_beyond", "min_samples_for_tail",
    "floors", "reference_work", "time_reference", "reference_scale",
    "REFERENCE_UNIT_S",
    "chi2_sf_even", "chi_square", "usable_cpus", "worker_count",
    "fingerprint", "self_peak_rss_mb", "children_hwm_mb",
]


def percentile_rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count``
    sorted samples: the smallest rank with at least ``q`` percent of the
    samples at or below it.

    Exact rational arithmetic: ``0.95 * 200`` in floating point is
    ``190.00000000000003``, whose ceiling would skip a rank.
    """
    if count < 1:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    return max(1, math.ceil(Fraction(str(q)) * count / 100))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th
    percentile's rank."""
    return count - percentile_rank(count, q)


def min_samples_for_tail(q: float, beyond: int = 10) -> int:
    """Fewest samples that leave at least ``beyond`` samples past the
    ``q``-th percentile (200 for p95, 1000 for p99)."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


def floors(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Per position, the fastest of several timings of identical work.

    ``repeats`` holds one list of timings per repeat, position ``i``
    timing the same work in each.  Load from other tenants of a shared
    host only ever adds time, so the fastest repeat is the steady
    estimate of what the work itself costs (the rule ``timeit`` uses).
    """
    if not repeats:
        raise ValueError("floor of no repeats")
    if len({len(timings) for timings in repeats}) > 1:
        raise ValueError("repeats timed different numbers of positions")
    return [min(position) for position in zip(*repeats)]


# -- host-speed reference -------------------------------------------------------
#
# On a shared host the speed of a CPU drifts by up to 2x for minutes at a
# time, so even floors (the fastest repeats) of one run differ by a third
# from those of a run ten minutes later.  Each pass therefore also times
# a fixed pure-Python event loop, and the end-to-end times are reported
# at the speed at which that loop takes REFERENCE_UNIT_S.  The loop does
# the kind of work the simulator does (heap events, slot attributes,
# weighted scans, a Park-Miller step), so both slow down alike.
#
# Never change the loop or the unit: together they define the unit the
# end-to-end times are reported in, and a change would shift every
# metric between a parent commit and its child.

#: The reference loop's floor on a quiet host (Intel Xeon VM, 2 vCPUs,
#: CPython 3.11.7).  Times are reported at this host's quiet speed.
REFERENCE_UNIT_S = 0.0026


class _Node:
    __slots__ = ("weight", "count")

    def __init__(self, weight: int) -> None:
        self.weight = weight
        self.count = 0


_NODES = [_Node(1 + index % 13) for index in range(2000)]


def reference_work(steps: int = 1500) -> int:
    """The fixed reference loop; returns a checksum of its work."""
    nodes = _NODES
    heap = [(float(index), index, nodes[index]) for index in range(64)]
    heapq.heapify(heap)
    state, seq = 12345, 64
    for _ in range(steps):
        now, _, node = heapq.heappop(heap)
        node.count += 1
        state = (state * 16807) % 2147483647
        pick = state % 64
        weight = 0
        for other in nodes[pick:pick + 24]:
            weight += other.weight
        seq += 1
        heapq.heappush(heap, (now + weight * 0.01, seq,
                              nodes[(pick * 31 + seq) % len(nodes)]))
    return state ^ seq


def time_reference() -> float:
    """Host seconds one run of the reference loop takes."""
    begin = time.perf_counter()
    reference_work()
    return time.perf_counter() - begin


def reference_scale(repeats: Sequence[Sequence[float]]) -> float:
    """Factor that turns host seconds into seconds at the reference
    speed: REFERENCE_UNIT_S over the median of the reference timings'
    floors.  ``repeats`` holds one list of reference timings per pass,
    taken at the same points of each pass, as the slice timings are."""
    return REFERENCE_UNIT_S / statistics.median(floors(repeats))


def chi2_sf_even(statistic: float, dof: int) -> float:
    """Survival function of the chi-square distribution for an even
    number of degrees of freedom (closed form, no SciPy):
    ``exp(-x/2) * sum_{i<dof/2} (x/2)^i / i!``."""
    if dof < 2 or dof % 2:
        raise ValueError(f"closed form needs even degrees of freedom: {dof}")
    half = statistic / 2.0
    term, total = 1.0, 1.0
    for index in range(1, dof // 2):
        term *= half / index
        total += term
    return math.exp(-half) * total


def chi_square(observed: Sequence[float], shares: Sequence[float]) -> float:
    """Pearson statistic of ``observed`` counts against ``shares`` of
    their total."""
    total = sum(observed)
    statistic = 0.0
    for count, share in zip(observed, shares):
        expected = total * share
        statistic += (count - expected) ** 2 / expected
    return statistic


def usable_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def worker_count(limit: int) -> int:
    """``min(limit, nproc)``."""
    return max(1, min(limit, usable_cpus()))


def fingerprint(mp_workers: int) -> Dict[str, object]:
    """The host a result was measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable_cpus(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "mp_workers": mp_workers,
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_hwm_mb() -> float:
    """Summed peak resident sets of this process's live child processes
    (the mp workers), read from ``/proc/<pid>/status`` before they are
    stopped.  Children whose status cannot be read count as 0."""
    total = 0.0
    pids: List[int] = [child.pid
                       for child in multiprocessing.active_children()]
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
                        break
        except OSError:
            continue
    return total
