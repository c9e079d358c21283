"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spin-10k --seed 1 --trace 0

Run from the repository root.  The program is imported from ``src/``
next to this directory; without it the run exits with status 2.

A run repeats whole *passes* (set-up, warm-up slice, timed slices,
report) until ``--seconds`` have passed and at least three passes ran.
Every pass runs in a fresh interpreter, so no pass inherits another's
heap, garbage or caches.  Every pass of a run does the identical
simulated work, so each timing is reported as its *floor*: the fastest
of its repeats (per slice, per set-up, per report).  Other tenants of a
shared host only ever add time, so the floor is the steady estimate of
what the program costs.  A pass has at least 200 slices, so p95 over
the slice floors has ten samples beyond it.  Floors still drift with
the host's speed, so every pass also times a fixed reference loop and
the end-to-end times are reported at the reference speed (see
``measure.reference_scale``); the raw floors are printed beside them.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Every time is host time; simulated quantities are named
``sim_*``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Where result documents and span dumps go (inside the checkout).
OUT_DIR = ROOT / ".perfbench"

#: p95 needs this many slices for ten to lie beyond it.
MIN_SLICES = 200
#: Fewest repeats a floor is taken over.
MIN_PASSES = 3
#: The host-speed reference loop runs before every this many slices.
REFERENCE_EVERY = 10
#: No new pass starts after this many seconds, so a run ends well
#: inside 180 s even when a pass is slow.
PASS_CUTOFF_S = 120.0

#: End-to-end metrics: name -> unit.  Every one is host-measured.
END_TO_END = {
    "setup_s": "s",
    "sim_quanta_per_s": "1/s",
    "sim_requests_per_s": "1/s",
    "slice_ms.p50": "ms",
    "slice_ms.p95": "ms",
    "report_s": "s",
    "peak_rss_mb": "MB",
}

#: Kinds of pass a child interpreter runs (``--one-pass``): plain,
#: fully traced, or -- for the mp workload's wait split -- the same plan
#: on the inline backend with only ``run_epoch`` traced.
PASS_KINDS = ("plain", "traced", "inline-run-epoch")


class PassFailed(Exception):
    """A pass raised or its interpreter died; carries the error text."""


# -- one pass (child interpreter) ---------------------------------------------


def _write_spans(path: Path, spans: Sequence[Any],
                 keys: Sequence[Any]) -> None:
    from perfbench import tracing

    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("span\tparent\tlayer\tname\tslice\tstart_ns\tend_ns\n")
        for span_id, parent, key, slice_id, start, end in spans:
            group, name = keys[key]
            out.write(f"{span_id}\t{parent}\t{tracing.GROUP_LAYER[group]}\t"
                      f"{name}\t{slice_id}\t{start}\t{end}\n")


def one_pass(workload: Any, kind: str) -> Dict[str, Any]:
    """Run one pass in this interpreter and return its record.  The
    output check runs in the parent, which holds any oracle."""
    from perfbench import measure, tracing

    tracer = patcher = None
    if kind != "plain":
        tracer = tracing.Tracer()
        groups = {"run_epoch"} if kind == "inline-run-epoch" else None
        patcher = tracing.Patcher(tracer, groups).install()

    def enter(slice_id: int) -> None:
        if tracer is not None:
            tracer.slice_id = slice_id

    record: Dict[str, Any] = {"slice_s": [], "reference_s": []}
    try:
        enter(tracing.SETUP)
        started = time.perf_counter()
        workload.setup()
        record["setup_s"] = time.perf_counter() - started
        enter(tracing.IDLE)
        record["start_counts"] = workload.counts()
        for index in range(workload.slices):
            if index % REFERENCE_EVERY == 0:
                record["reference_s"].append(measure.time_reference())
            enter(index)
            begin = time.perf_counter()
            workload.advance(index)
            record["slice_s"].append(time.perf_counter() - begin)
        enter(tracing.REPORT)
        begin = time.perf_counter()
        for _ in range(workload.report_repeats):
            report = workload.report()
        record["report_s"] = ((time.perf_counter() - begin)
                              / workload.report_repeats)
        enter(tracing.IDLE)
        record["wall_s"] = (record["setup_s"] + sum(record["slice_s"])
                            + record["report_s"])
        record["rss_mb"] = (measure.self_peak_rss_mb()
                            + measure.children_hwm_mb())
        record["outcome"] = workload.outcome(report)
        record["digest"] = workload.digest(report)
    finally:
        workload.close()
        if patcher is not None:
            patcher.uninstall()
    if tracer is not None:
        spans, notes = tracer.drain()
        record["layers"] = tracing.pass_metrics(spans, notes, tracer.keys,
                                                workload.slices)
        record["missing_boundaries"] = patcher.missing
        if kind == "traced":
            _write_spans(OUT_DIR / f"{workload.name}-seed{workload.seed}"
                         f"-trace1-spans.tsv.gz", spans, tracer.keys)
    return record


# -- the run (parent interpreter) ---------------------------------------------


def _pass_cpu(workload: Any, index: int) -> Optional[int]:
    """The CPU the ``index``-th pass (or pair of passes) is pinned to.

    On a shared host each CPU is slowed by other tenants independently
    of the others, so passes take the usable CPUs in turn and the
    floors see every one of them.  mp workers would inherit the pin, so
    mp workloads stay unpinned."""
    if workload.mp_workers or not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[index % len(cpus)] if len(cpus) > 1 else None


def _spawn_pass(workload: Any, kind: str,
                cpu: Optional[int] = None) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter, on ``cpu`` if given, and
    check its outcome."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload.name, "--seed", str(workload.seed),
               "--one-pass", kind]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    began = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=PASS_CUTOFF_S + 40,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {exc.timeout:.0f} s") from exc
    if done.returncode != 0:
        raise PassFailed(done.stderr[-4000:] or f"exit {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["process_s"] = time.perf_counter() - began
    record["problems"] = workload.check(record["outcome"])
    start_dispatches, start_requests = record["start_counts"]
    timed_s = sum(record["slice_s"])
    record["quanta_per_s"] = (
        (record["outcome"]["dispatches"] - start_dispatches) / timed_s)
    record["requests_per_s"] = (
        (record["outcome"]["requests"] - start_requests) / timed_s)
    return record


def _keep_going(started: float, seconds: float, last_cost: Optional[float],
                passes: int, need_passes: int) -> bool:
    """Whether to start another pass (or untraced/traced pair) expected
    to cost ``last_cost`` seconds, like the previous one."""
    if last_cost is None:
        return True
    elapsed = time.perf_counter() - started
    if elapsed + last_cost > PASS_CUTOFF_S:
        return False
    return elapsed < seconds or passes < need_passes


def _digest_problems(passes: Sequence[Dict[str, Any]]) -> List[str]:
    digests = {record["digest"] for record in passes}
    if len(digests) > 1:
        return [f"sim_digest differs between passes of one seed: "
                f"{sorted(digests)}"]
    return []


def timed_run(workload: Any, seconds: float) -> Dict[str, Any]:
    """End-to-end metrics with tracing off."""
    from perfbench import measure

    workload.reference()
    passes: List[Dict[str, Any]] = []
    attempted = 0
    problems: List[str] = []
    started = time.perf_counter()
    while _keep_going(started, seconds,
                      passes[-1]["process_s"] if passes else None,
                      len(passes), MIN_PASSES):
        attempted += workload.slices
        try:
            passes.append(_spawn_pass(workload, "plain",
                                      _pass_cpu(workload, len(passes))))
        except PassFailed as exc:
            problems.append(f"a pass failed:\n{exc}")
            break
    problems += [p for record in passes for p in record["problems"]]
    problems += _digest_problems(passes)
    result: Dict[str, Any] = {"passes": len(passes), "attempted": attempted,
                              "problems": problems, "metrics": {}}
    if not passes:
        return result
    floors = measure.floors([record["slice_s"] for record in passes])
    slice_ms = [s * 1000.0 for s in floors]
    start_dispatches, start_requests = passes[0]["start_counts"]
    outcome = passes[0]["outcome"]
    result["digest"] = passes[0]["digest"]
    result["pass_records"] = [
        {key: record[key] for key in ("setup_s", "report_s", "wall_s",
                                      "quanta_per_s", "requests_per_s",
                                      "rss_mb")}
        for record in passes]
    raw = {
        "setup_s": min(r["setup_s"] for r in passes),
        "sim_quanta_per_s": ((outcome["dispatches"] - start_dispatches)
                             / sum(floors)),
        "sim_requests_per_s": ((outcome["requests"] - start_requests)
                               / sum(floors)),
        "slice_ms.p50": measure.percentile(slice_ms, 50),
        "slice_ms.p95": measure.percentile(slice_ms, 95),
        "report_s": min(r["report_s"] for r in passes),
        "peak_rss_mb": max(r["rss_mb"] for r in passes),
    }
    scale = measure.reference_scale([r["reference_s"] for r in passes])
    # Times scale with the host's speed, rates inversely, memory not.
    per_unit = {"s": scale, "ms": scale, "1/s": 1.0 / scale, "MB": 1.0}
    result["raw_metrics"] = raw
    result["reference_scale"] = scale
    result["metrics"] = {name: value * per_unit[END_TO_END[name]]
                         for name, value in raw.items()}
    return result


def traced_run(workload: Any, seconds: float) -> Dict[str, Any]:
    """Per-layer metrics.  Untraced and traced passes alternate, so the
    tracing overhead compares neighbours on a host whose speed drifts.
    On the mp workload one more pass runs the plan inline with only
    ``run_epoch`` traced, to split the parent's backend time into work
    and waiting."""
    from perfbench import tracing

    workload.reference()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    attempted = 0
    started = time.perf_counter()
    last_cost: Optional[float] = None
    try:
        while _keep_going(started, seconds, last_cost, 0, 0):
            attempted += 2 * workload.slices
            cpu = _pass_cpu(workload, len(traced))
            untraced.append(_spawn_pass(workload, "plain", cpu))
            traced.append(_spawn_pass(workload, "traced", cpu))
            last_cost = untraced[-1]["process_s"] + traced[-1]["process_s"]
        inline_ms = 0.0
        if workload.mp_workers:
            attempted += workload.slices
            inline_ms = _spawn_pass(workload, "inline-run-epoch")[
                "layers"]["shard.run_epoch_ms"]
    except PassFailed as exc:
        return {"passes": len(traced), "attempted": attempted,
                "problems": [f"a pass failed:\n{exc}"], "metrics": {}}
    everything = untraced + traced
    problems = [p for record in everything for p in record["problems"]]
    problems += _digest_problems(untraced)
    metrics = tracing.median_metrics([r["layers"] for r in traced])
    backend_ms = metrics.pop("shard.backend_ms")
    metrics.pop("shard.run_epoch_ms")
    metrics["shard.wait_ms"] = (max(0.0, backend_ms - inline_ms)
                                if workload.mp_workers else 0.0)
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced))
    traced_digests = {record["digest"] for record in traced}
    return {"passes": len(traced), "attempted": attempted,
            "problems": problems, "metrics": metrics,
            "digest": (traced_digests.pop() if len(traced_digests) == 1
                       else "differs between traced passes"),
            "untraced_digest": untraced[0]["digest"],
            "missing_boundaries": traced[0]["missing_boundaries"]}


def _report(args: argparse.Namespace, workload: Any,
            result: Dict[str, Any]) -> None:
    """Print the human-readable lines, write the result document and
    print the result line."""
    from perfbench import measure, tracing

    host = measure.fingerprint(workload.mp_workers)
    problems = result["problems"]
    if args.trace and result.get("digest") != result.get("untraced_digest"):
        problems.append("traced sim_digest differs from the untraced one")
    correct = not problems
    attempted = max(1, result["attempted"])
    failed = 0 if correct else attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['passes']} passes of {workload.slices} slices "
          f"(p95 needs >= {MIN_SLICES}), {attempted} slices in all")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"sim_digest {result.get('digest')}")
    if args.trace:
        print(f"untraced sim_digest {result.get('untraced_digest')}")
        for boundary in result.get("missing_boundaries", []):
            print(f"boundary not found (not traced): {boundary}")
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        units = END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in result["metrics"]}
    raw = result.get("raw_metrics", {})
    if raw:
        print(f"reference_scale {result['reference_scale']:.6f} (times at "
              f"the speed where the reference loop takes "
              f"{measure.REFERENCE_UNIT_S * 1000:g} ms; raw host floors "
              f"in the last column)")
    for name, entry in metrics.items():
        line = f"  {name:32s} {entry['value']:>16.6f} {entry['unit']}"
        if name in raw:
            line += f"  {raw[name]:>16.6f}"
        print(line)
    print(f"  {'error_rate':32s} {failed / attempted:>16.6f} "
          f"({failed}/{attempted} slices failed)")
    for problem in problems:
        print(f"check failed: {problem}")
    if correct:
        print("checks: ok")
    OUT_DIR.mkdir(exist_ok=True)
    document = {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "host": host,
                "sim_digest": result.get("digest"),
                "passes": result["passes"], "slices": attempted,
                "problems": problems, "metrics": metrics,
                "raw_metrics": raw,
                "reference_scale": result.get("reference_scale"),
                "pass_records": result.get("pass_records", [])}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-pass", choices=PASS_KINDS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {source}/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.one_pass == "inline-run-epoch":
        workload = workloads.ShardMpWorkload(args.seed, backend="inline")
    else:
        workload = workloads.make_workload(args.workload, args.seed)
    if args.one_pass:
        try:
            record = one_pass(workload, args.one_pass)
        except Exception:  # the program raised: report it to the parent
            traceback.print_exc()
            return 1
        print(json.dumps(record))
        return 0
    runner = traced_run if args.trace else timed_run
    _report(args, workload, runner(workload, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
