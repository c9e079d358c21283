"""Execution backends: single-loop oracle, inline, and multiprocessing.

All three drive the same :class:`~repro.shard.core.ShardCore` objects
through the same epoch/barrier protocol and differ *only* in where and
in what interleaving core events execute:

* ``single`` -- one loop repeatedly fires the globally earliest event
  (ties broken by core id).  This is the reference: it is
  observationally the classic single-loop engine, so proving
  ``inline == single`` and ``mp == single`` proves sharded execution
  equals the unsharded engine.
* ``inline`` -- cores run sequentially, one whole epoch per core, in
  core order.  Same process, no parallelism; the cheap default.
* ``mp`` -- one persistent worker process per shard; each worker
  rebuilds its cores from the JSON plan and exchanges only checksummed
  JSON frames with the parent (never objects), for real wall-clock
  speedup on multi-core hosts.  It lives in
  :mod:`repro.shard.supervisor`; ``make_backend("mp", ...)`` builds it
  under the fail-stop policy.

Confluence is why the interleavings agree: cores share no state, and
every cross-core effect is a JSON payload applied at a barrier in
canonical ``(target, src, seq)`` order, so any schedule of the
*within-epoch* events produces the same per-core histories.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ShardError
from repro.shard.core import ShardCore
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter
from repro.shard.topology import ShardTopology

__all__ = ["BACKENDS", "InlineBackend", "SingleBackend", "make_backend"]

_EPS = 1e-9


def _apply_barrier(cores: Iterable[ShardCore], time: float,
                  payloads: List[Dict[str, Any]]) -> None:
    """Advance every core to the barrier instant ``time`` and schedule
    the payloads addressed to it (cores without payloads still advance).
    Shared by the in-process backends and the mp worker, so a barrier
    means the same thing wherever a core lives."""
    grouped: Dict[int, List[Dict[str, Any]]] = {}
    for payload in payloads:
        grouped.setdefault(payload["target"], []).append(payload)
    for core in cores:
        core.apply_barrier(time, grouped.get(core.core_id, []))


class _InProcessBackend:
    """Common machinery for the ``single`` and ``inline`` backends."""

    def __init__(self, plan: ShardPlan, topology: ShardTopology,
                 obs: bool = False) -> None:
        self.plan = plan
        self.topology = topology
        self.obs = bool(obs)
        self.router = ShardRouter()
        self.router.install()
        self.cores = [ShardCore(core_id, plan, self.router, obs=self.obs)
                      for core_id in range(plan.cores)]

    def collect(self) -> List[Dict[str, Any]]:
        return self.router.drain()

    def collect_obs(self, time: float) -> List[Dict[str, Any]]:
        """Per-core obs frames for the slice ending at ``time``
        (JSON-round-tripped like barrier payloads, so in-process and
        mp runs aggregate byte-identical data)."""
        if not self.obs:
            return []
        return json.loads(json.dumps(
            [core.obs_frame(time) for core in self.cores]))

    def obs_dumps(self) -> List[Dict[str, Any]]:
        """Per-core span dumps for trace stitching."""
        if not self.obs:
            return []
        return json.loads(json.dumps(
            [core.obs_dump() for core in self.cores]))

    def barrier(self, time: float, payloads: List[Dict[str, Any]]) -> None:
        self.router.install()
        _apply_barrier(self.cores, time, payloads)

    def snapshots(self) -> List[dict]:
        return [core.snapshot_state() for core in self.cores]

    def streams(self) -> List[List[Dict[str, Any]]]:
        return [core.stream_entries() for core in self.cores]

    def local_kernels(self) -> List[Any]:
        return [core.kernel for core in self.cores]

    def close(self) -> None:
        self.router.uninstall()


class InlineBackend(_InProcessBackend):
    """Cores run sequentially, a whole epoch at a time, in core order."""

    name = "inline"

    def run_epoch(self, horizon: float) -> None:
        self.router.install()
        for shard in range(self.topology.shards):
            for core_id in self.topology.cores_of(shard):
                self.cores[core_id].run_epoch(horizon)

    def run_inclusive(self, until: float) -> None:
        self.router.install()
        for shard in range(self.topology.shards):
            for core_id in self.topology.cores_of(shard):
                self.cores[core_id].run_inclusive(until)


class SingleBackend(_InProcessBackend):
    """The oracle: globally time-ordered interleaving of all cores."""

    name = "single"

    def _earliest(self, limit: float, inclusive: bool) -> Optional[ShardCore]:
        best = None
        best_time = None
        for core in self.cores:
            next_time = core.loop.peek_time()
            if next_time is None:
                continue
            if inclusive:
                if next_time > limit + _EPS:
                    continue
            elif next_time >= limit - _EPS:
                continue
            if best_time is None or next_time < best_time:
                best, best_time = core, next_time
        return best

    def run_epoch(self, horizon: float) -> None:
        self.router.install()
        while True:
            core = self._earliest(horizon, inclusive=False)
            if core is None:
                break
            core.step_one()

    def run_inclusive(self, until: float) -> None:
        self.router.install()
        while True:
            core = self._earliest(until, inclusive=True)
            if core is None:
                break
            core.step_one()
        for core in self.cores:
            core.loop.advance_clock(until)


def _mp_backend(plan: ShardPlan, topology: ShardTopology,
                obs: bool = False) -> Any:
    """The ``mp`` backend under the fail-stop policy: the first dead,
    hung or corrupting worker raises :class:`ShardError`.
    ``ShardedEngine(supervise=True)`` builds the same class with a
    recovering policy instead (see :mod:`repro.shard.supervisor`)."""
    from repro.shard.supervisor import FAIL_STOP, SupervisedMpBackend

    return SupervisedMpBackend(plan, topology, policy=FAIL_STOP, obs=obs)


BACKENDS = {
    "single": SingleBackend,
    "inline": InlineBackend,
    "mp": _mp_backend,
}


def make_backend(name: str, plan: ShardPlan, topology: ShardTopology,
                 obs: bool = False) -> Any:
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ShardError(
            f"unknown shard backend {name!r}; choose from "
            f"{sorted(BACKENDS)}") from None
    return factory(plan, topology, obs=obs)
