"""The traced run: spans around each layer's public boundary.

Nothing under ``src/`` knows about tracing.  :class:`Patcher` replaces
the boundary functions and methods listed in :data:`BOUNDARIES` (plus
the shard backends and recorder sinks, discovered from the program's
own modules and sink registry) with wrappers that record one span per
call, and puts the originals back on :meth:`Patcher.uninstall`.

A span is ``(id, parent id, boundary key, slice id, start ns, end ns)``;
spans are kept in memory and reduced per pass.  A span's *self time*
is its duration minus the union of its children's intervals, so time
is attributed once to the innermost boundary that covers it.

``Event.fire`` is where the event loop hands control to its callee, so
its span belongs to the ``kernel`` layer: ``sim`` self time is the loop
(run/step/push/cancel) minus the events it fired, and ``kernel`` self
time is the fired callbacks minus the layers they call into.  The
thread bodies run inside ``Thread.advance`` and count as ``kernel``.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from functools import update_wrapper
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

__all__ = ["BOUNDARIES", "GROUP_LAYER", "PER_LAYER", "SETUP", "REPORT", "IDLE",
           "Tracer", "Patcher", "union_length", "self_times", "pass_metrics",
           "median_metrics"]

#: Slice ids outside the timed slices (which are numbered from 0).
SETUP, REPORT, IDLE = -1, -2, -3

#: Boundary group -> layer.  Groups are the units the metrics sum over.
GROUP_LAYER: Dict[str, str] = {
    "sim": "sim",
    "sim.push": "sim",
    "sim.cancel": "sim",
    "fire": "kernel",
    "kernel": "kernel",
    "transition": "kernel",
    "ipc": "kernel.ipc",
    "select": "schedulers",
    "queue": "schedulers",
    "draw": "core.lottery",
    "lottery.update": "core.lottery",
    "tickets.read": "core.tickets",
    "tickets.write": "core.tickets",
    "compensation": "core.compensation",
    "prng": "core.prng",
    "admit": "serving",
    "serving.probe": "serving",
    "arrivals": "workloads.arrivals",
    "sink": "telemetry",
    "observe": "telemetry",
    "stitch": "telemetry",
    "slo": "telemetry",
    "obs_report": "telemetry",
    "plan": "shard",
    "engine": "shard",
    "run_epoch": "shard",
    "barrier": "shard",
    "backend": "shard",
}

#: (group, module, attribute path) of every fixed boundary.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "LoopCore.run"),
    ("sim", "repro.sim.engine", "LoopCore.run_before"),
    ("sim", "repro.sim.engine", "LoopCore.step"),
    ("sim.push", "repro.sim.events", "EventQueue.push"),
    ("sim.cancel", "repro.sim.events", "Event.cancel"),
    ("fire", "repro.sim.events", "Event.fire"),
    ("transition", "repro.kernel.thread", "Thread.transition"),
    ("kernel", "repro.kernel.thread", "Thread.advance"),
    ("kernel", "repro.kernel.kernel", "Kernel.wake"),
    ("ipc", "repro.kernel.ipc", "Port.send"),
    ("ipc", "repro.kernel.ipc", "Port.call"),
    ("ipc", "repro.kernel.ipc", "Port.receive"),
    ("ipc", "repro.kernel.ipc", "Request.reply"),
    ("select", "repro.schedulers.lottery_policy", "LotteryPolicy.select"),
    ("queue", "repro.schedulers.lottery_policy", "LotteryPolicy.enqueue"),
    ("queue", "repro.schedulers.lottery_policy", "LotteryPolicy.dequeue"),
    ("queue", "repro.schedulers.lottery_policy", "LotteryPolicy.quantum_end"),
    ("draw", "repro.core.lottery", "TreeLottery.draw"),
    ("draw", "repro.core.lottery", "ListLottery.draw"),
    ("lottery.update", "repro.core.lottery", "TreeLottery.add"),
    ("lottery.update", "repro.core.lottery", "TreeLottery.remove"),
    ("lottery.update", "repro.core.lottery", "TreeLottery.set_value"),
    ("tickets.read", "repro.core.tickets", "TicketHolder.funding"),
    ("tickets.read", "repro.core.tickets", "TicketHolder.nominal_funding"),
    ("tickets.read", "repro.core.tickets", "Currency.base_value"),
    ("tickets.write", "repro.core.tickets", "Ticket.set_amount"),
    ("tickets.write", "repro.core.tickets", "Ticket.fund"),
    ("tickets.write", "repro.core.tickets", "Ticket.unfund"),
    ("tickets.write", "repro.core.tickets", "Ticket.activate"),
    ("tickets.write", "repro.core.tickets", "Ticket.deactivate"),
    ("tickets.write", "repro.core.transfers", "transfer_funding"),
    ("tickets.write", "repro.core.transfers", "TransferHandle.revoke"),
    ("compensation", "repro.core.compensation",
     "CompensationManager.on_quantum_end"),
    ("compensation", "repro.core.compensation", "CompensationManager.grants"),
    ("prng", "repro.core.prng", "ParkMillerPRNG.next_uint"),
    ("admit", "repro.serving.admission", "AdmissionController.admit"),
    ("arrivals", "repro.workloads.arrivals", "ArrivalProcess.next_arrival_ms"),
    ("observe", "repro.telemetry.aggregate", "ObsAggregator.observe"),
    ("stitch", "repro.shard.engine", "ShardedEngine.stitched_trace"),
    ("slo", "repro.shard.engine", "ShardedEngine.slo_report"),
    ("obs_report", "repro.shard.engine", "ShardedEngine.obs_report"),
    ("plan", "repro.shard.plan", "spin_plan"),
    ("plan", "repro.shard.plan", "ShardPlan.add_thread"),
    ("engine", "repro.shard.engine", "ShardedEngine.__init__"),
)

#: Modules whose classes are shard backends, and the method -> group
#: map applied to every class defined there.
_BACKEND_MODULES = ("repro.shard.backends", "repro.shard.supervisor")
_BACKEND_METHODS = {"run_epoch": "run_epoch", "barrier": "barrier",
                    "collect": "backend", "run_inclusive": "backend",
                    "collect_obs": "observe"}

#: Recorder sinks that belong to a layer other than telemetry.
_SINK_GROUPS = {"repro.serving.slo_controller.ClassLatencyProbe":
                "serving.probe"}


def _nth(args: Sequence[Any], kwargs: Dict[str, Any], index: int,
         name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _json_bytes(value: Any) -> int:
    return len(json.dumps(value, separators=(",", ":")))


#: Extra counters measured at a boundary, summed per slice:
#: qualified name -> (counter, before(args), value(args, kwargs, result,
#: before)).
PROBES: Dict[str, Tuple[str, Optional[Callable[..., Any]],
                        Callable[..., int]]] = {
    "AdmissionController.admit": (
        "admitted", None, lambda args, kwargs, result, before: int(result)),
    "CompensationManager.on_quantum_end": (
        "grants", lambda args: args[0].grants_issued,
        lambda args, kwargs, result, before:
        args[0].grants_issued - before),
    "ObsAggregator.observe": (
        "frame_bytes", None, lambda args, kwargs, result, before:
        _json_bytes(_nth(args, kwargs, 2, "frames"))),
    "barrier": (
        "payload_bytes", None, lambda args, kwargs, result, before:
        _json_bytes(_nth(args, kwargs, 2, "payloads"))),
}

#: Every per-layer metric: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.self_ms", "ms", "lower"),
    ("sim.cancel_ratio", "ratio", "lower"),
    ("kernel.self_ms", "ms", "lower"),
    ("kernel.transitions", "count", "lower"),
    ("kernel.transition.self_ms", "ms", "lower"),
    ("kernel.ipc.calls", "count", "lower"),
    ("kernel.ipc.self_ms", "ms", "lower"),
    ("schedulers.select.calls", "count", "lower"),
    ("schedulers.select.self_ms", "ms", "lower"),
    ("schedulers.queue.self_ms", "ms", "lower"),
    ("core.lottery.draw.self_ms", "ms", "lower"),
    ("core.lottery.updates", "count", "lower"),
    ("core.tickets.reads", "count", "lower"),
    ("core.tickets.writes", "count", "lower"),
    ("core.tickets.read.self_ms", "ms", "lower"),
    ("core.tickets.write.self_ms", "ms", "lower"),
    ("core.compensation.calls", "count", "lower"),
    ("core.compensation.self_ms", "ms", "lower"),
    ("core.compensation.grant_ratio", "ratio", "lower"),
    ("core.prng.draws", "count", "lower"),
    ("serving.admit.calls", "count", "lower"),
    ("serving.admit_ratio", "ratio", "higher"),
    ("serving.self_ms", "ms", "lower"),
    ("workloads.arrivals.self_ms", "ms", "lower"),
    ("telemetry.sink.calls", "count", "lower"),
    ("telemetry.sink.self_ms", "ms", "lower"),
    ("telemetry.frame_bytes", "bytes", "lower"),
    ("telemetry.observe.self_ms", "ms", "lower"),
    ("telemetry.stitch_ms", "ms", "lower"),
    ("telemetry.slo_ms", "ms", "lower"),
    ("shard.setup.plan_ms", "ms", "lower"),
    ("shard.setup.engine_ms", "ms", "lower"),
    ("shard.backend_calls_per_epoch", "count", "lower"),
    ("shard.run_epoch.self_ms", "ms", "lower"),
    ("shard.barrier.self_ms", "ms", "lower"),
    ("shard.payload_bytes", "bytes", "lower"),
    ("shard.wait_ms", "ms", "lower"),
    ("trace.overhead", "x", "lower"),
)


class Tracer:
    """In-memory span store shared by every wrapper of one patcher."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        self.stack: List[int] = []
        self.next_id = 0
        #: The slice spans opened now belong to (set by the runner).
        self.slice_id = IDLE
        #: key -> (group, qualified name)
        self.keys: List[Tuple[str, str]] = []
        #: (counter, slice id) -> summed probe values
        self.notes: Dict[Tuple[str, int], int] = defaultdict(int)

    def key(self, group: str, name: str) -> int:
        self.keys.append((group, name))
        return len(self.keys) - 1

    def drain(self) -> Tuple[List[Tuple[int, ...]],
                             Dict[Tuple[str, int], int]]:
        """Hand over (and forget) the spans and notes recorded so far."""
        spans, self.spans = self.spans, []
        notes, self.notes = dict(self.notes), defaultdict(int)
        return spans, notes

    def wrap(self, fn: Callable[..., Any], group: str,
             name: str) -> Callable[..., Any]:
        """A span-recording stand-in for ``fn``."""
        tracer = self
        key = self.key(group, name)
        clock = time.perf_counter_ns
        counter, before_fn, value_fn = (
            PROBES.get(name) or PROBES.get(name.rpartition(".")[2])
            or (None, None, None))

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = before_fn(args) if before_fn is not None else None
            tracer.next_id = span_id = tracer.next_id + 1
            stack = tracer.stack
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span_id, parent, key, tracer.slice_id,
                                     start, end))
            if counter is not None:
                tracer.notes[(counter, tracer.slice_id)] += value_fn(
                    args, kwargs, result, before)
            return result

        update_wrapper(wrapper, fn)
        return wrapper


def _discovered() -> List[Tuple[str, str, str]]:
    """Backend methods and recorder-sink events, found in the program."""
    found = []
    for module_name in _BACKEND_MODULES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        for cls_name, cls in sorted(vars(module).items()):
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            for method, group in sorted(_BACKEND_METHODS.items()):
                if method in vars(cls):
                    found.append((group, module_name, f"{cls_name}.{method}"))
    try:
        from repro.metrics.recorder import RECORDER_SINKS
    except ImportError:
        RECORDER_SINKS = frozenset()
    for dotted in sorted(RECORDER_SINKS):
        module_name, _, cls_name = dotted.rpartition(".")
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
        except (ImportError, AttributeError):
            continue
        group = _SINK_GROUPS.get(dotted, "sink")
        for method in sorted(vars(cls)):
            if method.startswith("on_"):
                found.append((group, module_name, f"{cls_name}.{method}"))
    return found


class Patcher:
    """Installs a tracer's wrappers on the program and removes them.

    ``groups`` limits the boundaries to those groups.  Boundaries that
    no longer exist in the program are listed in :attr:`missing` rather
    than failing the run.  Forked children (mp workers) get the
    originals back, so the workers run untraced.
    """

    def __init__(self, tracer: Tracer,
                 groups: Optional[Iterable[str]] = None) -> None:
        self.tracer = tracer
        self.groups = None if groups is None else frozenset(groups)
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Patcher":
        for group, module_name, path in BOUNDARIES + tuple(_discovered()):
            if self.groups is not None and group not in self.groups:
                continue
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            wrapped = self.tracer.wrap(original, group, path)
            self._replace(owner, attr, original, wrapped)
            if not owner_path:
                # A module function: rebind it wherever the program
                # imported it by name.
                for name, module in list(sys.modules.items()):
                    if (name.startswith("repro") and module is not owner
                            and module is not None):
                        for alias, value in list(vars(module).items()):
                            if value is original:
                                self._replace(module, alias, original, wrapped)
        os.register_at_fork(after_in_child=self.uninstall)
        return self

    def _replace(self, owner: Any, attr: str, original: Any,
                 wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- reduction ----------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[int, int]], low: int,
                 high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``;
    overlapping intervals are counted once."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Tuple[int, ...]]) -> List[int]:
    """Self time of each span: its duration minus the union of its
    direct children's intervals.  Grandchildren lie inside children, so
    nothing is subtracted twice."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span_id, parent, _key, _slice, start, end in spans:
        children[parent].append((start, end))
    return [(end - start) - union_length(children.get(span_id, ()), start, end)
            for span_id, _parent, _key, _slice, start, end in spans]


def pass_metrics(spans: Sequence[Tuple[int, ...]],
                 notes: Dict[Tuple[str, int], int],
                 keys: Sequence[Tuple[str, str]],
                 timed_slices: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Counts and self times cover the timed slices only; the shard
    set-up metrics cover the set-up slice and the stitch/SLO metrics
    the report.  Times are in ms.  Also returns ``shard.backend_ms`` and
    ``shard.run_epoch_ms`` (inclusive, timed slices) for the runner's
    ``shard.wait_ms``.
    """
    own = self_times(spans)
    group_of = {span[0]: keys[span[2]][0] for span in spans}
    count: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    method_count: Dict[str, int] = defaultdict(int)
    for span, self_time in zip(spans, own):
        if 0 <= span[3] < timed_slices:
            group, name = keys[span[2]]
            count[group] += 1
            self_ns[group] += self_time
            method_count[name.rpartition(".")[2]] += 1
    timed_notes: Dict[str, int] = defaultdict(int)
    for (counter, slice_id), value in notes.items():
        if 0 <= slice_id < timed_slices:
            timed_notes[counter] += value

    def ms(*groups: str) -> float:
        return sum(self_ns[g] for g in groups) / 1e6

    def calls(*groups: str) -> int:
        return sum(count[g] for g in groups)

    def inclusive_ms(slices: Any, *groups: str) -> float:
        """Wall time inside the groups' outermost spans (a span nested
        in another span of the same groups is already covered)."""
        return sum(span[5] - span[4] for span in spans
                   if group_of[span[0]] in groups
                   and group_of.get(span[1]) not in groups
                   and span[3] in slices) / 1e6

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    timed = range(timed_slices)
    backend_groups = ("run_epoch", "barrier", "backend")
    return {
        "sim.events": calls("fire"),
        "sim.self_ms": ms("sim", "sim.push", "sim.cancel"),
        "sim.cancel_ratio": ratio(calls("sim.cancel"), calls("sim.push")),
        "kernel.self_ms": ms("fire", "kernel", "transition"),
        "kernel.transitions": calls("transition"),
        "kernel.transition.self_ms": ms("transition"),
        "kernel.ipc.calls": calls("ipc"),
        "kernel.ipc.self_ms": ms("ipc"),
        "schedulers.select.calls": calls("select"),
        "schedulers.select.self_ms": ms("select"),
        "schedulers.queue.self_ms": ms("queue"),
        "core.lottery.draw.self_ms": ms("draw"),
        "core.lottery.updates": calls("lottery.update"),
        "core.tickets.reads": calls("tickets.read"),
        "core.tickets.writes": calls("tickets.write"),
        "core.tickets.read.self_ms": ms("tickets.read"),
        "core.tickets.write.self_ms": ms("tickets.write"),
        "core.compensation.calls": calls("compensation"),
        "core.compensation.self_ms": ms("compensation"),
        "core.compensation.grant_ratio": ratio(
            timed_notes["grants"], method_count["on_quantum_end"]),
        "core.prng.draws": calls("prng"),
        "serving.admit.calls": calls("admit"),
        "serving.admit_ratio": ratio(timed_notes["admitted"], calls("admit")),
        "serving.self_ms": ms("admit", "serving.probe"),
        "workloads.arrivals.self_ms": ms("arrivals"),
        "telemetry.sink.calls": calls("sink"),
        "telemetry.sink.self_ms": ms("sink"),
        "telemetry.frame_bytes": ratio(timed_notes["frame_bytes"],
                                       method_count["observe"]),
        "telemetry.observe.self_ms": ms("observe"),
        "telemetry.stitch_ms": inclusive_ms((REPORT,), "stitch"),
        "telemetry.slo_ms": inclusive_ms((REPORT,), "slo"),
        "shard.setup.plan_ms": inclusive_ms((SETUP,), "plan"),
        "shard.setup.engine_ms": inclusive_ms((SETUP,), "engine"),
        "shard.backend_calls_per_epoch": ratio(calls(*backend_groups),
                                               method_count["run_epoch"]),
        "shard.run_epoch.self_ms": ms("run_epoch"),
        "shard.barrier.self_ms": ms("barrier"),
        "shard.payload_bytes": timed_notes["payload_bytes"],
        "shard.backend_ms": inclusive_ms(timed, *backend_groups),
        "shard.run_epoch_ms": inclusive_ms(timed, "run_epoch"),
    }


def median_metrics(passes: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over passes."""
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}
