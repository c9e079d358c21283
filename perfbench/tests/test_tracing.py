"""Self-time arithmetic, layer attribution, and patch/unpatch hygiene."""

import pytest

from perfbench import tracing

MS = 1_000_000  # ns per ms


def _span(span_id, parent, key, start_ms, end_ms, slice_id=0):
    return (span_id, parent, key, slice_id, start_ms * MS, end_ms * MS)


def test_union_counts_overlap_once_and_clips():
    assert tracing.union_length([], 0, 10) == 0
    assert tracing.union_length([(1, 3), (2, 5)], 0, 10) == 4
    assert tracing.union_length([(1, 3), (4, 5)], 0, 10) == 3
    assert tracing.union_length([(1, 3), (1, 3)], 0, 10) == 2
    assert tracing.union_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert tracing.union_length([(2, 9), (3, 4)], 0, 10) == 7


def test_nested_spans_are_not_double_counted():
    spans = [_span(1, 0, 0, 0, 100), _span(2, 1, 0, 10, 60),
             _span(3, 2, 0, 20, 30)]
    own = tracing.self_times(spans)
    assert own == [50 * MS, 40 * MS, 10 * MS]
    assert sum(own) == 100 * MS


def test_overlapping_children_are_subtracted_once():
    spans = [_span(1, 0, 0, 0, 100), _span(2, 1, 0, 10, 50),
             _span(3, 1, 0, 40, 70), _span(4, 1, 0, 95, 130)]
    assert tracing.self_times(spans)[0] == (100 - 60 - 5) * MS


def test_layer_attribution_follows_event_fire():
    keys = [("sim", "LoopCore.run"), ("fire", "Event.fire"),
            ("transition", "Thread.transition"),
            ("select", "LotteryPolicy.select"), ("draw", "TreeLottery.draw"),
            ("tickets.read", "TicketHolder.funding")]
    spans = [
        _span(1, 0, 0, 0, 100),    # sim: 100 - fire 80 = 20
        _span(2, 1, 1, 10, 90),    # kernel: 80 - 10 - 20 = 50
        _span(3, 2, 2, 20, 30),    # kernel (transition): 10
        _span(4, 2, 3, 40, 60),    # select: 20 - 5 = 15
        _span(5, 4, 4, 45, 50),    # draw: 5 - 1 = 4
        _span(6, 5, 5, 46, 47),    # ticket read: 1
        _span(7, 0, 5, 0, 3, slice_id=tracing.SETUP),  # not timed
    ]
    metrics = tracing.pass_metrics(spans, {}, keys, timed_slices=1)
    assert metrics["sim.self_ms"] == pytest.approx(20)
    assert metrics["kernel.self_ms"] == pytest.approx(60)
    assert metrics["kernel.transition.self_ms"] == pytest.approx(10)
    assert metrics["kernel.transitions"] == 1
    assert metrics["schedulers.select.self_ms"] == pytest.approx(15)
    assert metrics["core.lottery.draw.self_ms"] == pytest.approx(4)
    assert metrics["core.tickets.read.self_ms"] == pytest.approx(1)
    assert metrics["core.tickets.reads"] == 1
    assert metrics["sim.events"] == 1


def test_every_per_layer_metric_is_computed():
    metrics = tracing.pass_metrics([], {}, [], timed_slices=1)
    names = {name for name, _, _ in tracing.PER_LAYER}
    # The runner adds the two cross-pass metrics.
    assert names - set(metrics) == {"shard.wait_ms", "trace.overhead"}
    assert set(tracing.GROUP_LAYER) >= {g for g, _, _ in tracing.BOUNDARIES}


def test_patcher_traces_a_run_and_restores_the_program():
    import repro.kernel.ipc as ipc
    from repro.core import transfers
    from repro.sim.events import Event

    original_fire = Event.fire
    original_transfer = transfers.transfer_funding
    tracer = tracing.Tracer()
    patcher = tracing.Patcher(tracer).install()
    try:
        assert patcher.missing == []
        assert Event.fire is not original_fire
        # Module functions are rebound where the program imported them.
        assert ipc.transfer_funding is transfers.transfer_funding
        assert ipc.transfer_funding is not original_transfer
        from perfbench.workloads import SpinWorkload

        workload = SpinWorkload(1, threads=26, quanta_per_slice=5, slices=2)
        tracer.slice_id = tracing.SETUP
        workload.setup()
        for index in range(workload.slices):
            tracer.slice_id = index
            workload.advance(index)
        tracer.slice_id = tracing.IDLE
    finally:
        patcher.uninstall()
    assert Event.fire is original_fire
    assert ipc.transfer_funding is original_transfer
    spans, notes = tracer.drain()
    metrics = tracing.pass_metrics(spans, notes, tracer.keys, workload.slices)
    # Two timed slices of five full quanta: ten dispatches, ten draws.
    assert metrics["schedulers.select.calls"] == 10
    assert metrics["core.prng.draws"] == 10
    assert metrics["kernel.ipc.calls"] == 0
    assert metrics["telemetry.sink.calls"] == 0
    assert metrics["sim.self_ms"] > 0 and metrics["kernel.self_ms"] > 0
