"""The four benchmark workloads, built through the program's public API.

Each workload turns ``--seed`` into concrete inputs (ticket values,
PRNG seeds, plan seeds), hands only those inputs to the program, and
then runs in fixed *simulated* slices:

* ``setup()`` builds the system and runs the first, untimed warm-up
  slice (so lazy construction, wherever it happens, is set-up time);
* ``advance(i)`` runs timed slice ``i``;
* ``report()`` reads the simulated outputs back out of the program;
* ``outcome(report)`` reduces them to the plain numbers the output
  check needs, and ``check(outcome)`` returns the problems it finds.

The checks test properties of the simulated run (conservation, the
paper's share claim, agreement with the single-loop oracle), never a
pinned golden digest, so a deliberate re-pin of the PRNG streams does
not read as a failure.  ``sim_digest`` is printed beside the metrics
so that a change in simulated behaviour shows at once; it is not gated.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import measure
from repro.checkpoint.statetree import tree_checksum
from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.experiments.common import build_machine
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Compute
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.serving.arena import ArenaConfig, build_arena
from repro.serving.tiers import DEFAULT_CLASSES
from repro.shard import plan as shard_plan
from repro.shard.engine import ShardedEngine
from repro.sim.engine import Engine

__all__ = ["Workload", "SpinWorkload", "ServingWorkload", "ShardMpWorkload",
           "ShardObsWorkload", "WORKLOADS", "make_workload"]

#: Chi-square significance for the share test.  Deliberately tiny: the
#: benchmark runs over many seeds, and the test must only fail when
#: shares are genuinely wrong (ticket-blind scheduling gives statistics
#: in the thousands at this horizon).
SHARE_TEST_ALPHA = 1e-6


def _rng(workload: str, seed: int) -> random.Random:
    """Input generator for one (workload, seed); string seeding is
    stable across Python versions."""
    return random.Random(f"perfbench:{workload}:{seed}")


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _bursts(cpu_times: Sequence[float], chunk_ms: float) -> int:
    """Compute bursts a spinner finished: its bursts are equal-sized and
    sequential, and CPU time accrues in whole milliseconds here, so the
    floor is exact."""
    return sum(int(cpu // chunk_ms) for cpu in cpu_times)


class Workload:
    """Common shape of a workload; subclasses fill in the program calls."""

    name = ""
    #: Simulated length of one slice (ms) and timed slices per pass.
    slice_ms = 100.0
    slices = 100
    #: Worker processes the program uses (0: everything in-process).
    mp_workers = 0
    #: Reads of the results per pass; a sub-millisecond report is timed
    #: over several identical reads so one timer tick does not dominate.
    report_repeats = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    @property
    def horizon_ms(self) -> float:
        return self.slice_ms * (self.slices + 1)

    def inputs(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def counts(self) -> Tuple[int, int]:
        """(quanta dispatched, requests completed) so far, both
        *simulated*; the runner reads them untimed after the warm-up
        slice.  ``outcome`` reports the same two at the horizon."""
        raise NotImplementedError

    def advance(self, index: int) -> None:
        raise NotImplementedError

    def report(self) -> Any:
        raise NotImplementedError

    def outcome(self, report: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def digest(self, report: Any) -> str:
        return tree_checksum(report)

    def reference(self) -> None:
        """Run whatever oracle the check compares against (untimed)."""

    def close(self) -> None:
        """Release program resources (mp workers)."""


# -- spin-10k -----------------------------------------------------------------


def _spinner(chunk_ms: float):
    def body(ctx):
        while True:
            yield Compute(chunk_ms)

    return body


class SpinWorkload(Workload):
    """Section 5.1 scaling set-up: one lottery kernel, tree run queue,
    N static-ticket spinners, 10 ms quantum."""

    name = "spin-10k"
    quantum = 10.0
    ticket_values = 13

    def __init__(self, seed: int, threads: int = 10_000,
                 quanta_per_slice: int = 20, slices: int = 200) -> None:
        super().__init__(seed)
        self.threads = threads
        self.slice_ms = quanta_per_slice * self.quantum
        self.slices = slices
        rng = _rng(self.name, self.seed)
        tickets = [float(1 + index % self.ticket_values)
                   for index in range(threads)]
        rng.shuffle(tickets)
        self.tickets = tickets
        self.prng_seed = rng.randrange(1, 2**31 - 1)
        self.kernel: Any = None

    def inputs(self) -> Dict[str, Any]:
        return {"tickets": self.tickets, "prng_seed": self.prng_seed,
                "quantum": self.quantum, "horizon_ms": self.horizon_ms}

    def counts(self) -> Tuple[int, int]:
        kernel = self.kernel
        return (kernel.dispatch_count,
                _bursts([t.cpu_time for t in kernel.threads], self.quantum))

    def setup(self) -> None:
        engine = Engine()
        ledger = Ledger()
        policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(self.prng_seed),
                               use_tree=True)
        kernel = Kernel(engine, policy, ledger=ledger, quantum=self.quantum)
        body = _spinner(self.quantum)
        for index, tickets in enumerate(self.tickets):
            kernel.spawn(body, f"spin{index}", tickets=tickets)
        self.kernel = kernel
        kernel.run_until(self.slice_ms)

    def advance(self, index: int) -> None:
        self.kernel.run_until(self.slice_ms * (index + 2))

    def report(self) -> Any:
        return self.kernel.snapshot_state()

    def outcome(self, report: Any) -> Dict[str, Any]:
        by_value: Dict[float, List[float]] = {}
        for thread in report["threads"]:
            index = int(thread["name"][len("spin"):])
            by_value.setdefault(self.tickets[index], []).append(
                thread["cpu_time"])
        values = sorted(by_value)
        return {
            "horizon_ms": self.horizon_ms,
            "quantum": self.quantum,
            "dispatches": report["dispatch_count"],
            "running": report["running"] is not None,
            "cpu_ms": sum(sum(cpus) for cpus in by_value.values()),
            "ticket_values": values,
            "group_threads": [len(by_value[v]) for v in values],
            "group_quanta": [sum(by_value[v]) / self.quantum for v in values],
            "requests": _bursts([cpu for v in values for cpu in by_value[v]],
                                self.quantum),
        }

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        problems = []
        expected = outcome["horizon_ms"] / outcome["quantum"]
        # The dispatch at exactly the horizon has started but not run.
        completed = outcome["dispatches"] - int(outcome["running"])
        if completed != expected:
            problems.append(f"dispatched quanta {completed} != horizon/"
                            f"quantum {expected:g}")
        if outcome["cpu_ms"] != outcome["horizon_ms"]:
            problems.append(f"CPU time {outcome['cpu_ms']} ms != horizon "
                            f"{outcome['horizon_ms']} ms")
        allocated = [v * n for v, n in zip(outcome["ticket_values"],
                                           outcome["group_threads"])]
        shares = [a / sum(allocated) for a in allocated]
        statistic = measure.chi_square(outcome["group_quanta"], shares)
        p_value = measure.chi2_sf_even(statistic, len(shares) - 1)
        if p_value < SHARE_TEST_ALPHA:
            problems.append(f"CPU shares by ticket value fail chi-square "
                            f"(stat {statistic:.1f}, p {p_value:.2e})")
        return problems


# -- serving-overload ---------------------------------------------------------


class ServingWorkload(Workload):
    """The serving_tail lottery cell at 1.5x capacity with the SLO
    controller on: Poisson gold, MMPP silver, diurnal bronze."""

    name = "serving-overload"
    quantum = 20.0
    load = 1.5
    report_repeats = 50
    classes_by_share = ("gold", "silver", "bronze")

    def __init__(self, seed: int, requests_per_class: int = 3_000,
                 slice_ms: float = 100.0) -> None:
        super().__init__(seed)
        self.arena_seed = _rng(self.name, self.seed).randrange(1, 2**31 - 1)
        # Bronze's target is tightened so the SLO controller has
        # breaches to act on at overload (as in serving_tail).
        classes = tuple(replace(spec, target_p99_ms=40.0)
                        if spec.name == "bronze" else spec
                        for spec in DEFAULT_CLASSES)
        self.config = ArenaConfig(
            seed=self.arena_seed, load_factor=self.load,
            requests_per_class=requests_per_class, classes=classes,
            slo=True, slo_min_samples=10)
        self.slice_ms = slice_ms
        windows = -(-self.config.horizon_ms() // slice_ms)
        self.slices = int(windows) - 1
        self.machine: Any = None
        self.arena: Any = None

    def inputs(self) -> Dict[str, Any]:
        # The arena derives each class's arrival stream from its seed.
        return {"arena_seed": self.arena_seed,
                "classes": [(spec.name, spec.tickets, spec.arrival_kind,
                             self.config.class_rate_per_s(spec))
                            for spec in self.config.classes],
                "requests_per_class": self.config.requests_per_class,
                "quantum": self.quantum, "horizon_ms": self.horizon_ms}

    def counts(self) -> Tuple[int, int]:
        return (self.machine.kernel.dispatch_count,
                sum(self.arena.stats.completed.values()))

    def setup(self) -> None:
        self.machine = build_machine(seed=self.arena_seed,
                                     quantum=self.quantum, policy="lottery")
        self.arena = build_arena(self.machine.kernel, self.config)
        self.arena.run(self.slice_ms)

    def advance(self, index: int) -> None:
        self.arena.run(self.slice_ms * (index + 2))

    def report(self) -> Any:
        return {"rows": self.arena.rows(),
                "arena": self.arena.snapshot_state(),
                "kernel": self.machine.kernel.snapshot_state()}

    def outcome(self, report: Any) -> Dict[str, Any]:
        kernel = report["kernel"]
        sent = {port["name"][len("svc:in:"):]: port["messages_sent"]
                for port in kernel["ports"]
                if port["name"].startswith("svc:in:")}
        pumps_done = {thread["name"][len("pump:"):]:
                      thread["state"] == "exited"
                      for thread in kernel["threads"]
                      if thread["name"].startswith("pump:")}
        classes = {}
        for row in report["rows"]:
            name = row["class"]
            classes[name] = {
                "offered": row["offered"], "shed": row["shed"],
                "completed": row["completed"],
                # Admitted requests the pump has sent but no frontend has
                # finished: independent of the stats counters above.
                "in_flight": sent.get(name, 0) - row["completed"],
                "pump_done": pumps_done.get(name, False),
                "wake_p99_ms": row["wake_p99_ms"],
            }
        return {"classes": classes, "dispatches": kernel["dispatch_count"],
                "requests": sum(c["completed"] for c in classes.values())}

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        problems = []
        classes = outcome["classes"]
        for name in self.classes_by_share:
            if name not in classes:
                problems.append(f"class {name} missing from the report")
                continue
            row = classes[name]
            if not row["pump_done"]:
                problems.append(f"{name} pump still running at the horizon")
            if row["in_flight"] < 0:
                problems.append(f"{name}: completed more than were sent")
            total = row["shed"] + row["completed"] + row["in_flight"]
            if row["offered"] != total:
                problems.append(
                    f"{name}: offered {row['offered']} != shed + completed "
                    f"+ in flight {total}")
        if not problems:
            tails = [classes[name]["wake_p99_ms"]
                     for name in self.classes_by_share]
            if not tails[0] <= tails[1] <= tails[2]:
                problems.append(f"wake p99 not ordered gold <= silver <= "
                                f"bronze: {tails}")
        return problems


# -- sharded workloads --------------------------------------------------------


class _ShardWorkload(Workload):
    """``spin_plan`` driven by a ShardedEngine, one epoch per slice."""

    cores = 4
    quantum = 10.0
    slice_ms = 100.0
    #: ``spin_plan``'s spinners compute in bursts of this many ms.
    chunk_ms = 7.0
    backend = "inline"
    shards = 4
    obs = False

    def __init__(self, seed: int, spinners: int, slices: int) -> None:
        super().__init__(seed)
        self.spinners = spinners
        self.slices = slices
        self.plan_seed = _rng(self.name, self.seed).randrange(
            1, 2_000_000_001)
        self.engine: Any = None

    def inputs(self) -> Dict[str, Any]:
        return {"plan": self._plan().to_dict(), "backend": self.backend,
                "shards": self.shards, "horizon_ms": self.horizon_ms}

    def _plan(self) -> Any:
        # Looked up at call time so the traced run's wrapper is used.
        return shard_plan.spin_plan(
            seed=self.plan_seed, cores=self.cores, spinners=self.spinners,
            quantum=self.quantum, epoch_ms=self.slice_ms, use_tree=True)

    def _engine(self, backend: str, shards: int, obs: bool) -> Any:
        return ShardedEngine(self._plan(), shards=shards, backend=backend,
                             obs=obs)

    def _state_counts(self, state: Dict[str, Any]) -> Tuple[int, int]:
        """(dispatches, finished bursts) from a sharded state tree."""
        kernels = [core["kernel"] for core in state["cores"]]
        return (sum(kernel["dispatch_count"] for kernel in kernels),
                _bursts([thread["cpu_time"] for kernel in kernels
                         for thread in kernel["threads"]], self.chunk_ms))

    def setup(self) -> None:
        self.engine = self._engine(self.backend, self.shards, self.obs)
        self.engine.advance(self.slice_ms)

    def counts(self) -> Tuple[int, int]:
        kernels = self.engine.shard_kernels()
        if not kernels:
            # mp workers hold the kernels: a read-only snapshot round trip.
            return self._state_counts(self.engine.snapshot_state())
        return (sum(kernel.dispatch_count for kernel in kernels),
                _bursts([t.cpu_time for kernel in kernels
                         for t in kernel.threads], self.chunk_ms))

    def advance(self, index: int) -> None:
        self.engine.advance(self.slice_ms * (index + 2))

    def _quanta_problems(self, dispatches: int) -> List[str]:
        # advance() runs every core inclusively to the horizon, which
        # dispatches the quantum starting exactly there: one per core
        # on top of the horizon's completed quanta.
        expected = self.cores * (self.horizon_ms / self.quantum + 1)
        if dispatches != expected:
            return [f"dispatch count {dispatches} != cores x (horizon/"
                    f"quantum + 1) = {expected:g}"]
        return []

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class ShardMpWorkload(_ShardWorkload):
    """Spin plan on the multiprocessing backend: ~40 quanta per epoch,
    so pipe round trips and the barrier protocol dominate."""

    name = "shard-mp"
    backend = "mp"

    def __init__(self, seed: int, spinners: int = 500, slices: int = 200,
                 backend: str = "mp") -> None:
        super().__init__(seed, spinners, slices)
        self.backend = backend
        self.shards = measure.worker_count(self.cores)
        self.mp_workers = self.shards if backend == "mp" else 0
        self.oracle: Optional[Dict[str, Any]] = None

    def reference(self) -> None:
        """The single-loop oracle on the same plan, outside any pass."""
        if self.oracle is not None:
            return
        engine = self._engine("single", 1, False)
        try:
            engine.advance(self.horizon_ms)
            self.oracle = self.outcome(self._snapshot(engine))
        finally:
            engine.close()

    @staticmethod
    def _snapshot(engine: Any) -> Any:
        return {"stream": engine.merged_stream(),
                "state": engine.snapshot_state()}

    def report(self) -> Any:
        return self._snapshot(self.engine)

    def digest(self, report: Any) -> str:
        return _sha256(tree_checksum(report["stream"]),
                       tree_checksum(report["state"]))

    def outcome(self, report: Any) -> Dict[str, Any]:
        dispatches, requests = self._state_counts(report["state"])
        return {
            "stream_sha": tree_checksum(report["stream"]),
            "state_sha": tree_checksum(report["state"]),
            "dispatches": dispatches,
            "requests": requests,
        }

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        problems = self._quanta_problems(outcome["dispatches"])
        oracle = self.oracle or {}
        for key, label in (("stream_sha", "merged stream"),
                           ("state_sha", "state")):
            if outcome[key] != oracle.get(key):
                problems.append(f"{label} checksum differs from the single "
                                f"oracle")
        return problems


class ShardObsWorkload(_ShardWorkload):
    """Spin plan on the inline backend with observation on, ending in
    ``obs_report()``: the only workload with a sink on dispatch."""

    name = "shard-obs"
    obs = True
    # Observation costs a fixed amount per core per epoch, so a pass of
    # 200 epochs on 4 cores took ~5 s; two cores and 50 ms epochs cut it
    # to ~2 s, which gives each slice floor twice the repeats.
    cores = 2
    shards = 2
    slice_ms = 50.0

    def __init__(self, seed: int, spinners: int = 50,
                 slices: int = 200) -> None:
        super().__init__(seed, spinners, slices)

    def report(self) -> Any:
        return self.engine.obs_report()

    def digest(self, report: Any) -> str:
        return report["canonical_sha256"]

    def outcome(self, report: Any) -> Dict[str, Any]:
        canonical = report["canonical"]
        metrics = canonical["metrics"]

        def total(prefix: str) -> float:
            return sum(snapshot["value"] for name, snapshot in metrics.items()
                       if name.startswith(prefix + "{"))

        slo = canonical.get("slo")
        # The report holds no per-thread CPU time; the live kernels do
        # (inline backend), read after the report was timed.
        cpu = [t.cpu_time for kernel in self.engine.shard_kernels()
               for t in kernel.threads]
        return {
            "dispatches": int(total("repro_dispatches_total")),
            "cpu_ms": total("repro_cpu_ms_total"),
            "has_slo": (isinstance(slo, dict)
                        and {"checks", "breaches", "ok"} <= set(slo)),
            "requests": _bursts(cpu, self.chunk_ms),
        }

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        problems = self._quanta_problems(outcome["dispatches"])
        if outcome["cpu_ms"] != self.cores * self.horizon_ms:
            problems.append(f"aggregated CPU {outcome['cpu_ms']} ms != cores "
                            f"x horizon {self.cores * self.horizon_ms} ms")
        if not outcome["has_slo"]:
            problems.append("report has no SLO section")
        return problems


WORKLOADS = {cls.name: cls for cls in (SpinWorkload, ServingWorkload,
                                       ShardMpWorkload, ShardObsWorkload)}


def make_workload(name: str, seed: int) -> Workload:
    """The named workload at benchmark size."""
    return WORKLOADS[name](seed)
