"""The benchmark suite: seeded workloads over the simulator's hot loops.

Every benchmark builds a fresh, fully deterministic system from a
fixed seed and returns a closure that drives one hot loop:

=====================  ========================================================
``draw.list.N``        raw :class:`~repro.core.lottery.ListLottery` draws over
                       N statically funded clients (the prototype's structure)
``draw.tree.N``        raw :class:`~repro.core.lottery.TreeLottery` draws, the
                       paper's O(log n) partial-sum tree
``dispatch.list.N``    full kernel dispatch loop (lottery + quantum accounting
                       + compensation) over N spinner threads, list run queue
``dispatch.tree.N``    same, tree run queue -- the section 5.1 scaling claim;
                       ``dispatch.tree.10000`` is the acceptance benchmark
``currency.deep.D``    funding revaluation through a D-level currency chain
                       with repeated ticket inflation (cache invalidation path)
``ipc.pingpong``       client/server RPC round trips through a kernel port
``checkpoint.capture`` state-tree capture of a mid-flight lottery kernel
``export.chrome``      Chrome-trace export of a telemetry-instrumented run
``shard.dispatch.N``   the sharded multicore engine driving N spinner threads
                       across 4 cores to a fixed horizon; variants cover the
                       single-loop oracle, the inline backend at shards
                       1/2/4, and the multiprocessing backend at shards 4
                       (``shard.dispatch.10000`` is where mp must beat
                       inline on multi-core hosts)
=====================  ========================================================

Scales are chosen so a full run stays in tens of seconds on commodity
hardware while still separating O(n)-per-draw from O(log n)-per-draw
behaviour by well over the CI tolerance band.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

__all__ = ["benchmark_suite"]

#: A benchmark: (name, params, setup) where setup() -> (fn, ops) or
#: (fn, ops, teardown) -- see repro.perf.harness for the contract.
BenchmarkEntry = Tuple[str, Dict[str, Any],
                       Callable[[], Tuple[Callable[[], None], int]]]


def _draw_list(clients: int, draws: int):
    def setup():
        from repro.core.lottery import ListLottery
        from repro.core.prng import ParkMillerPRNG

        values = {index: float(1 + (index % 17)) for index in range(clients)}
        lottery = ListLottery(value_of=values.__getitem__, move_to_front=True)
        for index in range(clients):
            lottery.add(index)
        prng = ParkMillerPRNG(1234)

        def fn() -> None:
            for _ in range(draws):
                lottery.draw(prng)

        return fn, draws

    return setup


def _draw_tree(clients: int, draws: int):
    def setup():
        from repro.core.lottery import TreeLottery
        from repro.core.prng import ParkMillerPRNG

        lottery: TreeLottery = TreeLottery()
        for index in range(clients):
            lottery.add(index, float(1 + (index % 17)))
        prng = ParkMillerPRNG(1234)

        def fn() -> None:
            for _ in range(draws):
                lottery.draw(prng)

        return fn, draws

    return setup


def _spinner_body(chunk_ms: float):
    def body(ctx):
        from repro.kernel.syscalls import Compute

        while True:
            yield Compute(chunk_ms)

    return body


def _build_dispatch_kernel(threads: int, use_tree: bool, quantum: float):
    from repro.core.prng import ParkMillerPRNG
    from repro.core.tickets import Ledger
    from repro.kernel.kernel import Kernel
    from repro.schedulers.lottery_policy import LotteryPolicy
    from repro.sim.engine import Engine

    engine = Engine()
    ledger = Ledger()
    kernel = Kernel(
        engine,
        LotteryPolicy(ledger, prng=ParkMillerPRNG(97), use_tree=use_tree),
        ledger=ledger,
        quantum=quantum,
    )
    body = _spinner_body(quantum)
    for index in range(threads):
        kernel.spawn(body, f"spin{index}", tickets=float(1 + (index % 13)))
    return kernel


def _dispatch(threads: int, use_tree: bool, quanta: int, quantum: float = 10.0):
    def setup():
        kernel = _build_dispatch_kernel(threads, use_tree, quantum)
        horizon = quanta * quantum

        def fn() -> None:
            kernel.run_until(horizon)

        return fn, quanta

    return setup


def _currency_deep(depth: int, rounds: int):
    def setup():
        from repro.core.tickets import Ledger, TicketHolder

        ledger = Ledger()
        previous = ledger.base
        for level in range(depth):
            currency = ledger.create_currency(f"level{level}")
            ledger.create_ticket(1000.0, currency=previous, fund=currency)
            previous = currency
        holder = TicketHolder("leaf")
        leaf_ticket = ledger.create_ticket(100.0, currency=previous,
                                           fund=holder)
        sibling = TicketHolder("sibling")
        ledger.create_ticket(300.0, currency=previous, fund=sibling)
        holder.start_competing()
        sibling.start_competing()

        def fn() -> None:
            for index in range(rounds):
                # Inflate and revalue: every set_amount invalidates the
                # valuation caches down the chain, every funding() call
                # rebuilds them.
                leaf_ticket.set_amount(100.0 + (index % 7))
                holder.funding()
                sibling.funding()

        return fn, rounds

    return setup


def _ipc_pingpong(calls: int):
    def setup():
        from repro.core.prng import ParkMillerPRNG
        from repro.core.tickets import Ledger
        from repro.kernel.ipc import Port
        from repro.kernel.kernel import Kernel
        from repro.kernel.syscalls import Call, Compute, Receive, Reply
        from repro.schedulers.lottery_policy import LotteryPolicy
        from repro.sim.engine import Engine

        engine = Engine()
        ledger = Ledger()
        kernel = Kernel(
            engine,
            LotteryPolicy(ledger, prng=ParkMillerPRNG(5)),
            ledger=ledger,
            quantum=10.0,
        )
        port = Port(kernel, "bench")
        done = {"calls": 0}

        def client(ctx):
            while True:
                yield Call(port, "ping")
                done["calls"] += 1
                yield Compute(0.5)

        def server(ctx):
            while True:
                request = yield Receive(port)
                yield Compute(0.5)
                yield Reply(request, "pong")

        kernel.spawn(server, "server", tickets=100.0)
        kernel.spawn(client, "client", tickets=100.0)
        horizon = calls * 2.0  # two 0.5ms compute legs + slack per call

        def fn() -> None:
            kernel.run_until(horizon)

        return fn, calls

    return setup


def _checkpoint_capture(threads: int, captures: int):
    def setup():
        from repro.checkpoint.capture import capture_tree
        from repro.checkpoint.registry import build_recipe

        fundings = [float(10 + (index % 23)) for index in range(threads)]
        handle = build_recipe("lottery-mix",
                              {"seed": 11, "fundings": fundings})
        handle.advance(2_000.0)

        def fn() -> None:
            for _ in range(captures):
                capture_tree(handle)

        return fn, captures

    return setup


def _export_chrome(exports: int):
    def setup():
        from repro.checkpoint.registry import build_recipe
        from repro.telemetry.exporters import export_chrome
        from repro.telemetry.probe import Telemetry

        handle = build_recipe("lottery-mix", {"seed": 13})
        telemetry = Telemetry()
        telemetry.instrument_handle(handle)
        handle.advance(5_000.0)
        telemetry.finalize(handle.now)

        def fn() -> None:
            for _ in range(exports):
                export_chrome(telemetry.tracer)

        return fn, exports

    return setup


def _shard_dispatch(threads_total: int, backend: str, shards: int,
                    epochs: int, use_tree: bool, supervise: bool = False):
    """Sharded dispatch: ``threads_total`` spinners spread over 4 cores,
    advanced through ``epochs`` epoch barriers.  The engine (and, for
    the mp backend, its worker processes) is built in setup and closed
    in teardown, so only ``advance()`` is timed.  ``ops`` counts
    scheduling quanta across all cores, making ops/sec directly
    comparable between the single-loop oracle and every sharded
    variant -- the inline-vs-mp ratio at equal shards IS the wall-clock
    speedup."""
    cores = 4
    quantum = 10.0
    epoch_ms = 100.0

    def setup():
        from repro.shard.engine import ShardedEngine
        from repro.shard.plan import spin_plan

        plan = spin_plan(seed=97, cores=cores,
                         spinners=threads_total // cores,
                         quantum=quantum, epoch_ms=epoch_ms,
                         use_tree=use_tree)
        engine = ShardedEngine(plan, shards=shards, backend=backend,
                               supervise=supervise)
        horizon = epochs * epoch_ms
        ops = int(cores * horizon / quantum)

        def fn() -> None:
            engine.advance(horizon)

        return fn, ops, engine.close

    return setup


def _full_suite(quick: bool = False) -> List[BenchmarkEntry]:
    draws = 200 if quick else 2_000
    quanta = 50 if quick else 400
    rounds = 500 if quick else 5_000
    calls = 200 if quick else 2_000
    captures = 3 if quick else 20
    exports = 3 if quick else 20
    epochs = 5 if quick else 40
    return [
        ("draw.list.1000", {"clients": 1_000, "draws": draws},
         _draw_list(1_000, draws)),
        ("draw.tree.10000", {"clients": 10_000, "draws": draws * 5},
         _draw_tree(10_000, draws * 5)),
        ("dispatch.list.100", {"threads": 100, "quanta": quanta},
         _dispatch(100, False, quanta)),
        ("dispatch.list.1000", {"threads": 1_000, "quanta": quanta},
         _dispatch(1_000, False, quanta)),
        ("dispatch.tree.1000", {"threads": 1_000, "quanta": quanta},
         _dispatch(1_000, True, quanta)),
        ("dispatch.tree.10000", {"threads": 10_000, "quanta": quanta},
         _dispatch(10_000, True, quanta)),
        ("currency.deep.20", {"depth": 20, "rounds": rounds},
         _currency_deep(20, rounds)),
        ("ipc.pingpong", {"calls": calls}, _ipc_pingpong(calls)),
        ("checkpoint.capture.300", {"threads": 300, "captures": captures},
         _checkpoint_capture(300, captures)),
        ("export.chrome", {"exports": exports}, _export_chrome(exports)),
        # Sharded multicore engine: 1000 threads list-queue, 10000
        # threads tree-queue (mirroring dispatch.list/tree above).  The
        # single/inline/mp variants run the byte-identical universe, so
        # their ops/sec ratios are pure backend overhead/speedup.
        ("shard.dispatch.1000.single",
         {"threads": 1_000, "backend": "single", "shards": 1,
          "epochs": epochs},
         _shard_dispatch(1_000, "single", 1, epochs, False)),
        ("shard.dispatch.1000.inline.s1",
         {"threads": 1_000, "backend": "inline", "shards": 1,
          "epochs": epochs},
         _shard_dispatch(1_000, "inline", 1, epochs, False)),
        ("shard.dispatch.1000.inline.s2",
         {"threads": 1_000, "backend": "inline", "shards": 2,
          "epochs": epochs},
         _shard_dispatch(1_000, "inline", 2, epochs, False)),
        ("shard.dispatch.1000.inline.s4",
         {"threads": 1_000, "backend": "inline", "shards": 4,
          "epochs": epochs},
         _shard_dispatch(1_000, "inline", 4, epochs, False)),
        ("shard.dispatch.1000.mp.s4",
         {"threads": 1_000, "backend": "mp", "shards": 4,
          "epochs": epochs},
         _shard_dispatch(1_000, "mp", 4, epochs, False)),
        ("shard.dispatch.10000.single",
         {"threads": 10_000, "backend": "single", "shards": 1,
          "epochs": epochs},
         _shard_dispatch(10_000, "single", 1, epochs, True)),
        ("shard.dispatch.10000.inline.s4",
         {"threads": 10_000, "backend": "inline", "shards": 4,
          "epochs": epochs},
         _shard_dispatch(10_000, "inline", 4, epochs, True)),
        ("shard.dispatch.10000.mp.s4",
         {"threads": 10_000, "backend": "mp", "shards": 4,
          "epochs": epochs},
         _shard_dispatch(10_000, "mp", 4, epochs, True)),
        # The same mp protocol under the recovering policy, no faults
        # firing: it does the same work as the fail-stop row above, so
        # a gap between the two is noise or a policy-dependent cost.
        ("shard.supervised.10000.mp.s4",
         {"threads": 10_000, "backend": "mp", "shards": 4,
          "epochs": epochs, "supervise": True},
         _shard_dispatch(10_000, "mp", 4, epochs, True, supervise=True)),
    ]


def benchmark_suite(quick: bool = False) -> List[BenchmarkEntry]:
    """The ordered benchmark list.

    ``quick`` shrinks inner-loop counts (CI smoke and the test suite);
    names and scales stay identical so reports remain comparable --
    only ops/sec and percentiles move.  The ``mp``-backend shard
    benchmarks are full-mode only: their fixed worker-startup and
    per-epoch pipe costs dominate a 5-epoch run, so quick-mode scores
    would compare meaninglessly against the full-mode baseline (the
    gate reports them as ``missing``, which never fails).
    """
    suite = _full_suite(quick)
    if quick:
        suite = [entry for entry in suite if ".mp." not in entry[0]]
    return suite
