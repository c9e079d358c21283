"""Seeded inputs keep their shape, and every output check catches a
deliberately corrupted result while passing on two seeds."""

import copy

import pytest

from perfbench import workloads


def _small(name, seed):
    """Each workload at a size that runs in about a second."""
    if name == "spin-10k":
        return workloads.SpinWorkload(seed, threads=260, quanta_per_slice=50,
                                      slices=20)
    if name == "serving-overload":
        return workloads.ServingWorkload(seed, requests_per_class=600,
                                         slice_ms=250.0)
    if name == "shard-mp":
        return workloads.ShardMpWorkload(seed, spinners=12, slices=6)
    return workloads.ShardObsWorkload(seed, spinners=12, slices=6)


def _outcome(workload):
    workload.reference()
    workload.setup()
    try:
        for index in range(workload.slices):
            workload.advance(index)
        report = workload.report()
        return workload.outcome(report), workload.digest(report)
    finally:
        workload.close()


NAMES = sorted(workloads.WORKLOADS)


# -- seeds --------------------------------------------------------------------


def test_spin_seed_changes_inputs_not_shape():
    one, two = (workloads.SpinWorkload(seed).inputs() for seed in (1, 2))
    assert one["tickets"] != two["tickets"]
    assert one["prng_seed"] != two["prng_seed"]
    assert sorted(one["tickets"]) == sorted(two["tickets"])
    assert len(one["tickets"]) == 10_000
    assert set(one["tickets"]) == {float(v) for v in range(1, 14)}
    assert one["horizon_ms"] == two["horizon_ms"]
    assert workloads.SpinWorkload(1).inputs() == one


def test_serving_seed_changes_inputs_not_shape():
    one, two = (workloads.ServingWorkload(seed).inputs() for seed in (1, 2))
    assert one["arena_seed"] != two["arena_seed"]
    for key in ("classes", "requests_per_class", "quantum", "horizon_ms"):
        assert one[key] == two[key]
    assert workloads.ServingWorkload(1).inputs() == one


@pytest.mark.parametrize("cls", [workloads.ShardMpWorkload,
                                 workloads.ShardObsWorkload])
def test_shard_seed_changes_inputs_not_shape(cls):
    one, two = (cls(seed).inputs() for seed in (1, 2))
    assert one["plan"]["seed"] != two["plan"]["seed"]
    for key in ("threads", "cores", "quantum", "epoch_ms", "use_tree"):
        assert one["plan"][key] == two["plan"][key]
    assert one["horizon_ms"] == two["horizon_ms"]
    assert cls(1).inputs() == one


# -- checks -------------------------------------------------------------------


@pytest.fixture(scope="module")
def outcomes():
    """name -> (workload, outcome, digest) for seeds 1 and 2."""
    found = {}
    for name in NAMES:
        for seed in (1, 2):
            workload = _small(name, seed)
            outcome, digest = _outcome(workload)
            found[(name, seed)] = (workload, outcome, digest)
    return found


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_checks_pass_on_two_seeds(outcomes, name, seed):
    workload, outcome, _ = outcomes[(name, seed)]
    assert workload.check(outcome) == []


@pytest.mark.parametrize("name", NAMES)
def test_digest_is_deterministic_and_seeded(outcomes, name):
    workload, _, digest = outcomes[(name, 1)]
    again = _small(name, 1)
    assert _outcome(again)[1] == digest
    assert outcomes[(name, 2)][2] != digest


def _corruptions(name):
    """(label, mutate(outcome)) pairs that each must fail the check."""
    def bump(key, by=1):
        def mutate(outcome):
            outcome[key] += by
        return mutate

    if name == "spin-10k":
        def flatten(outcome):
            # Ticket-blind shares: every thread the same CPU time.
            total = sum(outcome["group_quanta"])
            threads = sum(outcome["group_threads"])
            outcome["group_quanta"] = [total * n / threads
                                       for n in outcome["group_threads"]]
        return [("lost quantum", bump("dispatches", -1)),
                ("cpu drift", bump("cpu_ms", 10.0)),
                ("ticket-blind shares", flatten)]
    if name == "serving-overload":
        def leak(outcome):
            outcome["classes"]["silver"]["completed"] += 1
        def unordered(outcome):
            rows = outcome["classes"]
            rows["gold"]["wake_p99_ms"] = rows["bronze"]["wake_p99_ms"] + 5
        def stuck(outcome):
            outcome["classes"]["gold"]["pump_done"] = False
        return [("offered not conserved", leak),
                ("tails unordered", unordered), ("pump unfinished", stuck)]
    if name == "shard-mp":
        def diverge(key):
            def mutate(outcome):
                outcome[key] = "0" * 64
            return mutate
        return [("stream differs", diverge("stream_sha")),
                ("state differs", diverge("state_sha")),
                ("lost quantum", bump("dispatches", -1))]
    def no_slo(outcome):
        outcome["has_slo"] = False
    return [("lost quantum", bump("dispatches", -1)),
            ("cpu drift", bump("cpu_ms", 7.0)), ("no SLO section", no_slo)]


@pytest.mark.parametrize("name", NAMES)
def test_each_check_fails_on_a_corrupted_result(outcomes, name):
    workload, outcome, _ = outcomes[(name, 1)]
    for label, mutate in _corruptions(name):
        corrupted = copy.deepcopy(outcome)
        mutate(corrupted)
        assert workload.check(corrupted), f"{name}: {label} not caught"
