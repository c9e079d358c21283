"""The paper's user-level commands (section 4.7).

"User-level commands exist to create and destroy tickets and currencies
(mktkt, rmtkt, mkcur, rmcur), fund and unfund currencies (fund,
unfund), obtain information (lstkt, lscur), and to execute a shell
command with specified funding (fundx)."

Each command is a plain function taking a :class:`CommandState` and
string arguments, returning its output as a string -- so the same
implementations serve the interactive shell, scripts, and tests.

Beyond the paper's command set, ``lint`` and ``sanitize`` expose the
:mod:`repro.analysis` correctness tooling (the determinism lint over
Python sources and a one-shot invariant audit of the live ledger), and
``chaos`` runs the :mod:`repro.faults` fault-injection experiment.
``save``, ``load``, and ``replay`` checkpoint the live simulation,
restore it, and verify bit-exact replay (:mod:`repro.checkpoint`), and
``telemetry`` runs a traced simulation and reports what
:mod:`repro.telemetry` observed (spans, metrics, scheduler profile).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.errors import ReproError, TicketError
from repro.cli.state import CommandState, ROOT_USER

__all__ = [
    "mktkt",
    "rmtkt",
    "mkcur",
    "rmcur",
    "fund",
    "unfund",
    "lstkt",
    "lscur",
    "fundx",
    "lint",
    "sanitize",
    "chaos",
    "telemetry",
    "serving",
    "save",
    "load",
    "replay",
    "COMMANDS",
]


def _require_args(args: Sequence[str], count: int, usage: str) -> None:
    if len(args) != count:
        raise ReproError(f"usage: {usage}")


def mktkt(state: CommandState, args: Sequence[str]) -> str:
    """mktkt <amount> <currency> [name] -- create a ticket."""
    if len(args) not in (2, 3):
        raise ReproError("usage: mktkt <amount> <currency> [name]")
    amount = float(args[0])
    currency = state.resolve_currency(args[1])
    state.check_may_inflate(currency)
    name = args[2] if len(args) == 3 else state.new_ticket_name()
    if name in state.tickets:
        raise TicketError(f"ticket name {name!r} already in use")
    ticket = state.ledger.create_ticket(amount, currency=currency, tag=name)
    state.tickets[name] = ticket
    return f"ticket {name}: {amount:g}.{currency.name}"


def rmtkt(state: CommandState, args: Sequence[str]) -> str:
    """rmtkt <ticket> -- destroy a ticket."""
    _require_args(args, 1, "rmtkt <ticket>")
    ticket = state.resolve_ticket(args[0])
    state.check_may_inflate(ticket.currency)
    ticket.destroy()
    del state.tickets[args[0]]
    return f"removed ticket {args[0]}"


def mkcur(state: CommandState, args: Sequence[str]) -> str:
    """mkcur <name> -- create a currency owned by the current user."""
    _require_args(args, 1, "mkcur <name>")
    currency = state.ledger.create_currency(args[0])
    state.currency_owner[currency.name] = state.user
    state.inflators.setdefault(currency.name, set()).add(state.user)
    return f"currency {currency.name} (owner {state.user})"


def rmcur(state: CommandState, args: Sequence[str]) -> str:
    """rmcur <name> -- destroy an empty currency."""
    _require_args(args, 1, "rmcur <name>")
    currency = state.resolve_currency(args[0])
    owner = state.currency_owner.get(currency.name, ROOT_USER)
    if state.user not in (ROOT_USER, owner):
        raise ReproError(f"user {state.user!r} does not own {currency.name!r}")
    currency.destroy()
    state.currency_owner.pop(currency.name, None)
    state.inflators.pop(currency.name, None)
    return f"removed currency {args[0]}"


def fund(state: CommandState, args: Sequence[str]) -> str:
    """fund <ticket> <currency-or-client> -- direct a ticket's value."""
    _require_args(args, 2, "fund <ticket> <currency-or-client>")
    ticket = state.resolve_ticket(args[0])
    target = state.resolve_funding_target(args[1])
    ticket.fund(target)
    target_name = getattr(target, "name", args[1])
    return f"ticket {args[0]} funds {target_name}"


def unfund(state: CommandState, args: Sequence[str]) -> str:
    """unfund <ticket> -- withdraw a ticket from its target."""
    _require_args(args, 1, "unfund <ticket>")
    ticket = state.resolve_ticket(args[0])
    ticket.unfund()
    return f"ticket {args[0]} unfunded"


def lstkt(state: CommandState, args: Sequence[str]) -> str:
    """lstkt -- list tickets: name, amount.currency, target, value."""
    if args:
        raise ReproError("usage: lstkt")
    rows = ["NAME      AMOUNT                 FUNDS           VALUE"]
    for name, ticket in state.tickets.items():
        target = getattr(ticket.target, "name", "-") if ticket.target else "-"
        denomination = f"{ticket.amount:g}.{ticket.currency.name}"
        rows.append(
            f"{name:<9} {denomination:<22} {target:<15}"
            f" {ticket.base_value():>8.1f}"
        )
    return "\n".join(rows)


def lscur(state: CommandState, args: Sequence[str]) -> str:
    """lscur -- list currencies: name, active amount, base value."""
    if args:
        raise ReproError("usage: lscur")
    rows = ["NAME            ACTIVE     VALUE  BACKING  ISSUED"]
    for currency in state.ledger.currencies():
        rows.append(
            f"{currency.name:<14} {currency.active_amount:>7g}"
            f" {currency.base_value():>9.1f}"
            f" {len(currency.backing):>8d} {len(currency.issued):>7d}"
        )
    return "\n".join(rows)


def fundx(state: CommandState, args: Sequence[str]) -> str:
    """fundx <amount> <currency> <client> -- run a client with funding.

    The paper's fundx executes a shell command with specified funding;
    here the "command" is a registered client (thread/holder), which
    receives a freshly minted ticket for the duration of its life.
    """
    _require_args(args, 3, "fundx <amount> <currency> <client>")
    amount = float(args[0])
    currency = state.resolve_currency(args[1])
    state.check_may_inflate(currency)
    holder = state.holders.get(args[2])
    if holder is None:
        raise ReproError(f"no client named {args[2]!r}")
    name = state.new_ticket_name()
    ticket = state.ledger.create_ticket(
        amount, currency=currency, fund=holder, tag=name
    )
    state.tickets[name] = ticket
    return f"client {args[2]} funded with {amount:g}.{currency.name} ({name})"


def lint(state: CommandState, args: Sequence[str]) -> str:
    """lint [path ...] -- run the determinism lint (default: src/repro)."""
    from repro.analysis.lint import lint_paths

    paths = list(args) if args else ["src/repro"]
    findings = lint_paths(paths)
    if not findings:
        return f"lint: clean ({', '.join(paths)})"
    lines = [finding.format() for finding in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def chaos(state: CommandState, args: Sequence[str]) -> str:
    """chaos [seed] [duration_ms] [--trace-out PATH] -- faults experiment.

    Runs the :mod:`repro.experiments.chaos_fairness` experiment -- a
    seeded crash/restart schedule against a lottery-scheduled cluster --
    and reports, per fault window, how quickly the max relative error
    dropped back under the reconvergence threshold.  With
    ``--trace-out`` the run is traced by :mod:`repro.telemetry` and a
    Chrome trace-event JSON (plus ``.sha256`` sidecar) is written.
    """
    args, trace_out = _split_trace_out(args)
    if len(args) > 2:
        raise ReproError("usage: chaos [seed] [duration_ms] [--trace-out PATH]")
    from repro.experiments import chaos_fairness

    seed = int(args[0]) if len(args) >= 1 else 2718
    duration = float(args[1]) if len(args) == 2 else 240_000.0
    hub = None
    instrument = None
    if trace_out is not None:
        from repro.telemetry import Telemetry

        hub = Telemetry()
        instrument = hub.instrument_handle
    data = chaos_fairness.run_variant(seed=seed, duration_ms=duration,
                                      instrument=instrument)
    cluster = data["cluster"]
    # Expose the live system to the checkpoint commands (save/replay).
    state.simulation = data["handle"]
    lines = [f"chaos: seed={seed} duration={duration:g}ms "
             f"threshold={chaos_fairness.RECONVERGENCE_THRESHOLD:g}"]
    lines.extend(data["fault_log"])
    for window in data["windows"]:
        if window["cause"] == "start":
            continue
        reconverged = window["reconverged_at_ms"]
        verdict = (
            f"reconverged after {reconverged - window['start_ms']:g} ms"
            if reconverged is not None else "did not reconverge"
        )
        lines.append(
            f"window @{window['start_ms']:g}ms ({window['cause']}): {verdict}"
        )
    lines.append(
        f"migrations={cluster.migrations} evacuations={cluster.evacuations}"
        f" killed={cluster.threads_killed}"
        f" final_window_error={data['final_error']:.3f}"
    )
    if hub is not None:
        from repro.telemetry import export_chrome, write_checksummed

        hub.finalize(data["handle"].now)
        digest = write_checksummed(trace_out, export_chrome(hub.tracer))
        lines.append(
            f"trace: {len(hub.tracer)} spans -> {trace_out} sha256={digest}"
        )
        hub.close()
    return "\n".join(lines)


def _split_trace_out(args: Sequence[str]):
    """Extract ``--trace-out PATH`` from an argument list."""
    remaining = list(args)
    trace_out = None
    if "--trace-out" in remaining:
        index = remaining.index("--trace-out")
        if index == len(remaining) - 1:
            raise ReproError("--trace-out needs a PATH")
        trace_out = remaining[index + 1]
        del remaining[index:index + 2]
    return remaining, trace_out


def telemetry(state: CommandState, args: Sequence[str]) -> str:
    """telemetry [seed] [duration_ms] [--trace-out PATH] -- traced run.

    Runs a short chaos-fairness simulation with the
    :mod:`repro.telemetry` hub attached and reports what the trace saw:
    span counts by category, the headline scheduler metrics (dispatch
    counts, wake-to-dispatch latency by ticket-share band), and the
    scheduling-operation cost attribution from the profiler.  With
    ``--trace-out`` the Chrome trace-event JSON is also written.
    """
    args, trace_out = _split_trace_out(args)
    if len(args) > 2:
        raise ReproError(
            "usage: telemetry [seed] [duration_ms] [--trace-out PATH]")
    from repro.experiments import chaos_fairness
    from repro.experiments.overhead import run_profile
    from repro.telemetry import Telemetry, export_chrome, write_checksummed

    seed = int(args[0]) if len(args) >= 1 else 2718
    duration = float(args[1]) if len(args) == 2 else 60_000.0
    hub = Telemetry()
    data = chaos_fairness.run_variant(seed=seed, duration_ms=duration,
                                      instrument=hub.instrument_handle)
    hub.finalize(data["handle"].now)
    state.simulation = data["handle"]

    lines = [f"telemetry: seed={seed} duration={duration:g}ms "
             f"spans={len(hub.tracer)} dropped={hub.tracer.dropped_spans} "
             f"metrics={len(hub.registry)}"]
    lines.append("SPANS       NAME                    COUNT")
    for (category, name), count in sorted(hub.tracer.counts().items()):
        lines.append(f"{category:<11} {name:<23} {count}")
    lines.append("METRICS")
    for instrument in hub.registry.instruments():
        if instrument.kind == "histogram":
            histogram = instrument.histogram
            lines.append(
                f"  {instrument.full_name}: n={histogram.count}"
                f" mean={histogram.mean():.2f}ms"
                f" p95={histogram.percentile(95):.2f}ms"
            )
        else:
            lines.append(f"  {instrument.full_name}: {instrument.value:g}")
    lines.append("PROFILE (host us, draw/queue/compensation)")
    for row in run_profile(duration_ms=10_000.0, seed=seed).rows:
        lines.append(
            f"  {row['policy']:<12} dispatches={row['dispatches']:<6}"
            f" draw={row['draw_us']:.0f} queue={row['queue_us']:.0f}"
            f" comp={row['compensation_us']:.0f}"
            f" ({row['draw_us_per_select']:.2f}us/select)"
        )
    if trace_out is not None:
        digest = write_checksummed(trace_out, export_chrome(hub.tracer))
        lines.append(f"trace: {trace_out} sha256={digest}")
    hub.close()
    return "\n".join(lines)


def serving(state: CommandState, args: Sequence[str]) -> str:
    """serving [seed] [load] [--policy NAME] [--slo] -- overload arena.

    Runs a short open-loop serving-arena simulation (see
    ``docs/SERVING.md``): per-class arrival pumps at ``load`` times
    capacity, ticket-priced admission, frontends RPCing a backend pool
    with ticket transfers.  Reports per-class offered/shed/completed
    counts with wake->dispatch and end-to-end tails, plus the
    class-keyed telemetry histogram; ``--slo`` enables the feedback
    controller that inflates a breaching class's tickets.
    """
    from repro.experiments.common import build_machine
    from repro.serving import ArenaConfig, build_arena
    from repro.telemetry import Telemetry

    policy = "lottery"
    slo = False
    positional = []
    remaining = list(args)
    while remaining:
        arg = remaining.pop(0)
        if arg == "--policy":
            if not remaining:
                raise ReproError("--policy needs a value")
            policy = remaining.pop(0)
        elif arg == "--slo":
            slo = True
        else:
            positional.append(arg)
    if len(positional) > 2:
        raise ReproError(
            "usage: serving [seed] [load] [--policy NAME] [--slo]")
    seed = int(positional[0]) if len(positional) >= 1 else 2026
    load = float(positional[1]) if len(positional) == 2 else 1.5

    machine = build_machine(seed=seed, quantum=20.0, policy=policy)
    hub = Telemetry()
    hub.instrument_kernel(machine.kernel, track="serving")
    config = ArenaConfig(seed=seed, load_factor=load,
                         requests_per_class=300, slo=slo,
                         slo_min_samples=10)
    arena = build_arena(machine.kernel, config)
    arena.run()
    hub.finalize(machine.now)

    lines = [f"serving: seed={seed} policy={policy} load={load:g}x "
             f"capacity={config.capacity_rps():.1f}rps "
             f"horizon={config.horizon_ms():.0f}ms"]
    lines.append("CLASS    OFFERED  SHED  DONE  WAKE-P99  E2E-P99")
    for row in arena.rows():
        lines.append(
            f"{row['class']:<8} {row['offered']:>7} {row['shed']:>5}"
            f" {row['completed']:>5} {row['wake_p99_ms']:>8.1f}"
            f" {row['e2e_p99_ms']:>8.1f}")
    if arena.controller is not None:
        lines.append("SLO")
        for name in sorted(arena.controller.classes):
            cls_state = arena.controller.classes[name]
            recovery = arena.controller.recovery_epoch(name)
            lines.append(
                f"  {name}: target={cls_state.target_p99_ms:g}ms"
                f" lever={cls_state.amount():.1f}"
                f" recovery_epoch="
                f"{'-' if recovery is None else recovery}")
    lines.append("TELEMETRY (repro_request_e2e_ms)")
    for instrument in hub.registry.instruments():
        if instrument.kind == "histogram" and \
                instrument.full_name.startswith("repro_request_e2e_ms"):
            histogram = instrument.histogram
            lines.append(
                f"  {instrument.full_name}: n={histogram.count}"
                f" p99={histogram.percentile(99):.1f}ms")
    hub.close()
    return "\n".join(lines)


def save(state: CommandState, args: Sequence[str]) -> str:
    """save <path> -- checkpoint the live simulation to a file.

    Requires a simulation attached to the session (run ``chaos`` first,
    or ``load`` an earlier checkpoint).  The write is crash-consistent:
    a crash mid-save never leaves a torn file.
    """
    _require_args(args, 1, "save <path>")
    from repro.checkpoint import save as save_checkpoint
    from repro.checkpoint.statetree import checkpoint_summary

    if state.simulation is None:
        raise ReproError("no live simulation; run 'chaos' or 'load' first")
    payload = save_checkpoint(state.simulation, args[0])
    return f"saved {args[0]}: {checkpoint_summary(payload)}"


def load(state: CommandState, args: Sequence[str]) -> str:
    """load <path> -- restore a checkpoint as the live simulation.

    Validates the file's checksum, re-executes its recipe to the
    checkpoint time, verifies the rebuilt state tree against the saved
    one, and re-runs the scheduler-invariant sanitizer before the
    system becomes the session's live simulation.
    """
    _require_args(args, 1, "load <path>")
    from repro.checkpoint import restore
    from repro.checkpoint.statetree import checkpoint_summary

    handle, payload = restore(args[0])
    state.simulation = handle
    return (f"loaded {args[0]}: {checkpoint_summary(payload)} "
            f"(verified, invariants OK)")


def replay(state: CommandState, args: Sequence[str]) -> str:
    """replay <path> -- re-execute a checkpoint and diff dispatch streams.

    When the session's live simulation was built from the same recipe
    and arguments and has advanced past the checkpoint, the restored
    copy is continued to the live time and the two dispatch streams are
    compared event-by-event.  Otherwise the checkpoint is restored
    twice independently and the two rebuilds are compared -- a
    self-consistency replay.  Either way the report names the first
    mismatched (time, thread, draw) triple, or certifies zero
    divergence.
    """
    _require_args(args, 1, "replay <path>")
    from repro.checkpoint import diff_streams, format_divergence, restore

    restored, payload = restore(args[0])
    live = state.simulation
    if (live is not None and live.recipe == payload["recipe"]
            and live.args == payload["args"]
            and live.now >= restored.now
            and "recorder" in live.components):
        restored.advance(live.now)
        expected = live.components["recorder"].entries
        actual = restored.components["recorder"].entries
        header = (f"replay {args[0]}: restored and continued to "
                  f"t={live.now:g}ms against the live run")
    else:
        second, _ = restore(args[0])
        expected = restored.components["recorder"].entries
        actual = second.components["recorder"].entries
        header = (f"replay {args[0]}: two independent restores to "
                  f"t={restored.now:g}ms")
    divergence = diff_streams(expected, actual)
    return f"{header}\n{format_divergence(divergence)}"


def sanitize(state: CommandState, args: Sequence[str]) -> str:
    """sanitize -- audit the ledger's ticket/currency invariants now."""
    if args:
        raise ReproError("usage: sanitize")
    from repro.analysis.sanitizer import sanitize_ledger

    violations = sanitize_ledger(state.ledger)
    currencies = len(state.ledger.currencies())
    tickets = sum(len(c.issued) for c in state.ledger.currencies())
    if not violations:
        return (f"sanitize: ledger invariants OK "
                f"({currencies} currencies, {tickets} tickets)")
    lines = list(violations)
    lines.append(f"sanitize: {len(violations)} violation(s)")
    return "\n".join(lines)


COMMANDS: Dict[str, Callable[[CommandState, Sequence[str]], str]] = {
    "mktkt": mktkt,
    "rmtkt": rmtkt,
    "mkcur": mkcur,
    "rmcur": rmcur,
    "fund": fund,
    "unfund": unfund,
    "lstkt": lstkt,
    "lscur": lscur,
    "fundx": fundx,
    "lint": lint,
    "sanitize": sanitize,
    "chaos": chaos,
    "telemetry": telemetry,
    "serving": serving,
    "save": save,
    "load": load,
    "replay": replay,
}
