"""The mp backend: one supervised worker process per shard.

:class:`SupervisedMpBackend` is the only multiprocessing backend.  Each
shard's cores live in a persistent worker process that rebuilds them
from the JSON :class:`~repro.shard.plan.ShardPlan` and speaks one
protocol with the parent:

* every pipe message travels as a sha256-checksummed frame
  (:mod:`repro.shard.frames`), so damaged payloads are detected, not
  applied;
* one round trip per epoch: :meth:`~SupervisedMpBackend.barrier` only
  records the canonical payloads, and they ride on the next command
  the shard receives (epoch, inclusive or collect), which the worker
  applies first;
* every exchange doubles as a per-barrier heartbeat bounded by a
  host-time deadline, so a wedged worker is detected, not waited on
  forever.

A :class:`SupervisorPolicy` decides what a host fault -- a worker
crash (SIGKILL/exit), hang (deadline exceeded) or corrupt frame --
costs.  ``backend="mp"`` alone runs under :data:`FAIL_STOP`: the first
fault raises :class:`~repro.errors.ShardError` and the run is lost.
``supervise=True`` runs under a recovering policy:

* the shard's worker is respawned from the plan and **replayed from
  the committed command log** -- every epoch horizon and barrier
  payload list the supervisor has already acknowledged.  Because a
  core's history is a pure function of ``(plan, core_id, barrier
  payloads received)`` (the sharding determinism argument,
  ``docs/SHARDING.md``), replay reconstructs the state at the last
  committed epoch barrier bit-exactly: barriers are implicit recovery
  points, for free;
* recovery attempts are bounded by the policy's budget with
  exponential host-time backoff.  On exhaustion the run **degrades**:
  every worker is killed, an
  :class:`~repro.shard.backends.InlineBackend` replays the same log,
  and the run completes on it -- legal because engine snapshots
  deliberately exclude backend and shard identity, so the final
  checkpoint is still bit-identical.

Deterministic worker *exceptions* (a reply carrying a traceback) are
not host faults: retrying deterministic code re-raises the same
error, so they surface immediately as :class:`ShardError` naming the
real cause.

Host faults can be injected deliberately through a
:class:`~repro.shard.hostfaults.HostFaultPlan` -- armed fault
descriptors ride on the epoch command frames and the worker damages
*itself* (SIGKILLs mid-epoch, wedges, corrupts or drops its reply
frame) -- which is how the equivalence tests prove that a run with
workers killed at every barrier still produces a replay stream and
final checkpoint sha256-identical to an undisturbed single-loop run.

This module supervises real operating-system processes, so it is the
one place in the shard layer where *host* time legitimately appears:
deadlines and backoff never touch virtual time and therefore never
perturb the simulated history.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FrameCorruptError, ShardError
from repro.shard.backends import InlineBackend, _apply_barrier
from repro.shard.core import ShardCore
from repro.shard.frames import (
    corrupt_frame,
    decode_frame,
    encode_frame,
    send_frame,
)
from repro.shard.hostfaults import HostFaultPlan, HostFaultSchedule
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter
from repro.shard.topology import ShardTopology

__all__ = ["FAIL_STOP", "SupervisedMpBackend", "SupervisorPolicy"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Recovery budget and heartbeat deadlines (host time, never
    virtual time -- mirrors :class:`repro.faults.retry.RetryPolicy` in
    shape, but supervises real processes instead of simulated ones).

    ``max_retries`` bounds recoveries *per command exchange*; once a
    single epoch or collect exchange needs more, the run degrades to
    the inline backend (``degrade=True``) or raises.  ``deadline_s``
    is the per-exchange heartbeat deadline; a worker that does not
    reply in time is declared hung.  Failed attempt ``k`` backs off
    ``min(backoff_base_s * backoff_factor**(k-1), backoff_max_s)``
    host seconds before the respawn.
    """

    max_retries: int = 3
    deadline_s: float = 30.0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ShardError(f"max_retries must be >= 0: {self.max_retries}")
        if self.deadline_s <= 0:
            raise ShardError(f"deadline_s must be positive: {self.deadline_s}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ShardError("backoff delays must be >= 0")
        if self.backoff_factor < 1:
            raise ShardError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")

    def backoff_for(self, attempt: int) -> float:
        """Host-seconds delay before the ``attempt``-th respawn."""
        if attempt < 1:
            raise ShardError(f"attempt is 1-based: {attempt}")
        return min(self.backoff_base_s * self.backoff_factor ** (attempt - 1),
                   self.backoff_max_s)


#: The policy of ``backend="mp"`` without ``supervise``: no respawn, no
#: degradation -- the first crash, hang or corrupt frame raises.
FAIL_STOP = SupervisorPolicy(max_retries=0, degrade=False)


# -- worker side --------------------------------------------------------------


def _self_destruct() -> None:  # pragma: no cover - runs in worker process
    """Die the hard way: SIGKILL leaves no chance to flush or reply."""
    sigkill = getattr(signal, "SIGKILL", None)
    if sigkill is not None:
        os.kill(os.getpid(), sigkill)
    os._exit(137)


def _wedge_forever() -> None:  # pragma: no cover - runs in worker process
    """Injected hang: stop serving until the supervisor kills us."""
    while True:
        time.sleep(3600)  # repro: noqa[RPR006] -- injected 'wedge' host fault: this worker must block on wall time forever so the supervisor's heartbeat deadline expires


def _apply_reply_faults(faults: List[Dict[str, Any]],
                        frame: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Damage this reply as the armed host faults demand.

    Returns the (possibly corrupted) frame to send, or None when the
    reply must never arrive (``drop``).  ``kill``/``wedge`` do not
    return.
    """
    for fault in faults:
        kind = fault.get("kind")
        if kind == "kill":
            _self_destruct()
        elif kind == "wedge":
            _wedge_forever()
        elif kind == "drop":
            frame = None
        elif kind == "corrupt" and frame is not None:
            frame = corrupt_frame(frame)
        elif kind == "slow":
            time.sleep(float(fault.get("delay_s", 0.0)))  # repro: noqa[RPR006] -- injected 'slow' host fault: delays a real worker process on wall time; virtual time is untouched
    return frame


#: ``collect`` request name -> the per-core read that answers it.
_CORE_READS = {"snapshots": "snapshot_state", "streams": "stream_entries",
               "obs_dumps": "obs_dump"}


def _execute(cores: List[ShardCore], router: ShardRouter,
             message: Dict[str, Any], obs: bool) -> Dict[str, Any]:
    """Run one command on this worker's cores, after applying the
    barrier batches that rode in on it.  With ``obs``, slice replies
    piggyback per-core observability frames -- pure per-core reads, so
    the canonical reply content is unchanged."""
    for barrier_time, payloads in message.get("barriers", ()):
        _apply_barrier(cores, barrier_time, payloads)
    command = message["cmd"]
    if command == "collect":
        read = _CORE_READS[message["what"]]
        return {"cores": [[core.core_id, getattr(core, read)()]
                          for core in cores]}
    if command == "stop":
        return {"ok": True}
    if command == "epoch":
        for core in cores:
            core.run_epoch(message["time"])
    elif command == "inclusive":
        for core in cores:
            core.run_inclusive(message["time"])
    else:
        raise ShardError(f"unknown worker command {command!r}")
    reply: Dict[str, Any] = {"payloads": router.drain()}
    if obs:
        reply["obs"] = [core.obs_frame(message["time"]) for core in cores]
    return reply


def _describe_error(exc: BaseException, command: Optional[str]) -> dict:
    """Worker-side failure description shipped back over the pipe, so
    supervisor logs and ShardError messages name the real cause."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
        "cmd": command,
    }


def _serve_shard(conn: Any, plan_dict: Dict[str, Any],
                 core_ids: List[int], sanitize: bool,
                 obs: bool = False) -> None:
    """Worker entry point: rebuild this shard's cores from the plan and
    serve framed commands until told to stop.

    Module-level (not a closure) so the function is importable under
    the ``spawn`` start method as well as ``fork``.  Workers carry
    their own router and -- when the parent runs under
    ``REPRO_SANITIZE=1`` -- their own race sanitizer, so barrier
    handoffs are sanitized inside every process.  Armed host-fault
    descriptors riding on a command make the worker damage itself at
    the scripted point.
    """
    command: Optional[str] = None
    try:
        if sanitize:
            os.environ["REPRO_SANITIZE"] = "1"
            from repro.analysis.sanitizer import install_autosanitize

            install_autosanitize()
        plan = ShardPlan.from_dict(plan_dict)
        router = ShardRouter()
        router.install()
        cores = [ShardCore(core_id, plan, router, obs=obs)
                 for core_id in sorted(core_ids)]
        while True:
            message = decode_frame(conn.recv_bytes())
            command = message.get("cmd")
            faults = message.get("faults") or []
            for fault in faults:
                if fault.get("kind") == "kill" and \
                        fault.get("point") == "pre":
                    _self_destruct()
            frame = _apply_reply_faults(
                faults, encode_frame(_execute(cores, router, message, obs)))
            if frame is not None:
                conn.send_bytes(frame)
            if command == "stop":
                break
    except EOFError:  # supervisor went away (or respawned us): done
        pass
    except BaseException as exc:
        # Includes FrameCorruptError on a damaged *incoming* frame: the
        # command cannot be trusted, so report and stop serving -- the
        # supervisor treats the dying worker as a host fault.
        try:
            send_frame(conn, {"error": _describe_error(exc, command)})
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


# -- supervisor side ----------------------------------------------------------


def _format_worker_error(shard: int, error: Dict[str, Any]) -> str:
    """Render a worker's structured error reply."""
    command = error.get("cmd")
    where = f" running {command!r}" if command else ""
    return (f"shard worker {shard} failed{where}: "
            f"{error.get('type', 'Exception')}: "
            f"{error.get('message', '')}\n"
            f"{error.get('traceback', '')}")


def _reap_process(process: Any, timeout: float) -> bool:
    """Join ``process``, escalating terminate -> kill; True when dead."""
    process.join(timeout=timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout=timeout)
    if process.is_alive():
        process.kill()
        process.join(timeout=timeout)
    return not process.is_alive()


class _WorkerHandle:
    """One shard's live worker process + pipe, and how much of the
    command log the worker has applied."""

    __slots__ = ("shard", "process", "conn", "applied")

    def __init__(self, shard: int, process: Any, conn: Any) -> None:
        self.shard = shard
        self.process = process
        self.conn = conn
        #: Log entries ``[0, applied)`` are reflected in the worker's
        #: cores; barrier entries past it ride on the next command.
        self.applied = 0


def _apply_logged(backend: InlineBackend, command: Dict[str, Any]) -> None:
    """Run one command-log entry on the in-process backend."""
    if command["cmd"] == "barrier":
        backend.barrier(command["time"], command["payloads"])
    elif command["cmd"] == "epoch":
        backend.run_epoch(command["time"])
    else:
        backend.run_inclusive(command["time"])


class SupervisedMpBackend:
    """The mp backend: framed exchanges with one worker per shard,
    heartbeats, and -- as its :class:`SupervisorPolicy` allows --
    respawn-and-replay recovery and inline degradation.

    Same ``run_epoch`` / ``collect`` / ``barrier`` / ``snapshots``
    surface as the in-process backends behind
    :class:`~repro.shard.engine.ShardedEngine`, same bit-exact merged
    history (host faults included).
    """

    name = "mp"

    #: Host seconds granted to each shutdown stage (stop ack, join,
    #: terminate, kill); a class attribute so tests can change it.
    close_timeout_s = 5.0

    def __init__(self, plan: ShardPlan, topology: ShardTopology,
                 policy: Optional[SupervisorPolicy] = None,
                 host_faults: Optional[HostFaultPlan] = None,
                 telemetry: Any = None, obs: bool = False) -> None:
        self.plan = plan
        self.topology = topology
        self.policy = policy if policy is not None else SupervisorPolicy()
        if host_faults is not None:
            host_faults.validate_for(topology.shards)
        self.schedule = HostFaultSchedule(host_faults)
        self.telemetry = telemetry
        self.obs = bool(obs)

        self._context = multiprocessing.get_context()
        self._sanitize = bool(os.environ.get("REPRO_SANITIZE"))
        self._plan_dict = plan.to_dict()
        self._collected: List[Dict[str, Any]] = []
        self._obs_frames: List[Dict[str, Any]] = []
        #: Committed commands, in issue order -- the recovery log.
        #: Barrier entries keep the *full* payload list so both
        #: per-shard replay and inline degradation can regroup it.
        self._log: List[Dict[str, Any]] = []
        #: Index of the epoch slice currently executing (incremented by
        #: every epoch/inclusive command; host faults are scheduled in
        #: these coordinates).
        self._epoch_index = -1
        #: Virtual time of the current command (observability only).
        self._time = 0.0

        # -- recovery bookkeeping (observability; not canonical state) --
        self.events: List[Dict[str, Any]] = []
        self.restarts = [0] * topology.shards
        self.retries = [0] * topology.shards
        self.degraded = False
        self.degrade_reason: Optional[str] = None

        #: The in-process backend the run continues on after a degrade.
        self._inline: Optional[InlineBackend] = None
        self._handles: List[_WorkerHandle] = [
            self._spawn_worker(shard) for shard in range(topology.shards)]

    # -- worker lifecycle -----------------------------------------------------

    def _spawn_worker(self, shard: int) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_serve_shard,
            args=(child_conn, self._plan_dict, self.topology.cores_of(shard),
                  self._sanitize, self.obs),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(shard, process, parent_conn)

    def _discard_worker(self, handle: _WorkerHandle) -> None:
        """Kill a worker the run gives up on, then reap it.

        Closing our pipe end is no stop signal: under ``fork`` the
        worker and its later-forked siblings hold copies of that end,
        so the worker never sees EOF.  SIGKILL comes before the join.
        """
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        handle.process.kill()
        handle.process.join(timeout=self.close_timeout_s)

    def _respawn_worker(self, shard: int, attempt: int) -> None:
        self._discard_worker(self._handles[shard])
        backoff = self.policy.backoff_for(attempt)
        if backoff > 0:
            time.sleep(backoff)  # repro: noqa[RPR006] -- supervision backoff is host-level by design: it paces real process respawns and never touches virtual time, so the simulated history is unperturbed
        self._handles[shard] = self._spawn_worker(shard)
        self.restarts[shard] += 1
        self._event("worker.restart", shard=shard, attempt=attempt)

    # -- observability --------------------------------------------------------

    def _event(self, kind: str, shard: Optional[int] = None,
               **attrs: Any) -> None:
        entry: Dict[str, Any] = {
            "kind": kind, "time": self._time, "epoch": self._epoch_index,
            "shard": shard,
        }
        entry.update(attrs)
        self.events.append(entry)
        if self.telemetry is not None:
            labels = None if shard is None else {"shard": str(shard)}
            self.telemetry.registry.counter(
                f"shard.{kind}", labels,
                help="supervised shard backend recovery event").inc()
            self.telemetry.tracer.event(
                track="supervisor", name=f"shard.{kind}", category="shard",
                time=self._time,
                attrs={key: value for key, value in entry.items()
                       if key not in ("kind", "time")})

    def recovery_summary(self) -> Dict[str, Any]:
        """Recovery counters and the full event log (observability)."""
        return {
            "degraded": self.degraded,
            "degrade_reason": self.degrade_reason,
            "restarts": list(self.restarts),
            "retries": list(self.retries),
            "faults_armed": self.schedule.armed,
            "events": [dict(event) for event in self.events],
        }

    # -- framed exchanges with recovery ---------------------------------------

    def _message(self, handle: _WorkerHandle, command: Dict[str, Any],
                 upto: Optional[int] = None) -> Dict[str, Any]:
        """``command`` carrying the barrier batches in
        ``log[handle.applied:upto]`` that the worker has not applied
        yet, each narrowed to the payloads addressed to its shard."""
        barriers = []
        for entry in self._log[handle.applied:upto]:
            mine = [payload for payload in entry["payloads"]
                    if self.topology.shard_of(payload["target"])
                    == handle.shard]
            barriers.append([entry["time"], mine])
        return {**command, "barriers": barriers}

    def _send(self, shard: int, message: Dict[str, Any]) -> bool:
        try:
            self._handles[shard].conn.send_bytes(encode_frame(message))
            return True
        except (OSError, BrokenPipeError, ValueError):
            return False

    def _post(self, shard: int, command: Dict[str, Any], arm: bool) -> bool:
        """Send ``command`` to the shard's worker with its pending
        barriers and, for slices, any host faults armed for it."""
        message = self._message(self._handles[shard], command)
        faults = self.schedule.arm(shard, self._epoch_index) if arm else []
        if faults:
            self._event("fault.armed", shard=shard, fault=faults[0]["kind"])
            message["faults"] = faults
        return self._send(shard, message)

    def _await(self, shard: int) -> Tuple[str, Any]:
        """Wait for one framed reply under the heartbeat deadline.

        Returns ``("ok", reply)`` or a failure classification:
        ``hang`` (deadline expired), ``crash`` (pipe died), or
        ``corrupt`` (frame failed its checksum).  A structured worker
        error is deterministic, not a host fault, and raises."""
        conn = self._handles[shard].conn
        deadline = self.policy.deadline_s
        try:
            if not conn.poll(deadline):
                return "hang", f"no heartbeat within {deadline:g}s"
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            return "crash", "pipe closed"
        try:
            reply = decode_frame(raw)
        except FrameCorruptError as exc:
            return "corrupt", str(exc)
        if "error" in reply:
            raise ShardError(_format_worker_error(shard, reply["error"]))
        return "ok", reply

    def _budget_exhausted(self, shard: int, failures: int, status: str,
                          detail: Any) -> bool:
        """True when the caller should stop retrying because the run
        degraded; raises instead when degradation is disabled."""
        if failures <= self.policy.max_retries:
            return False
        reason = (f"shard {shard} exhausted its retry budget "
                  f"({self.policy.max_retries}) at epoch "
                  f"{self._epoch_index}; last failure {status}: {detail}")
        if self.policy.degrade:
            self._degrade(reason)
            return True
        raise ShardError(reason)

    def _replay_into_worker(self, shard: int) -> Tuple[str, Any]:
        """Re-execute the committed slices in a fresh worker, each
        carrying the barrier batches logged before it.

        Replies (including re-emitted barrier payloads) are discarded:
        they were already committed.  Batches logged after the last
        slice stay pending and ride on the retried command.  Faults
        are never armed during replay -- double faults are encoded as
        a second plan entry firing on the *retried* command instead."""
        handle = self._handles[shard]
        for index, command in enumerate(self._log):
            if command["cmd"] == "barrier":
                continue
            if not self._send(shard, self._message(handle, command, index)):
                return "replay", "crash: pipe closed during replay"
            status, detail = self._await(shard)
            if status != "ok":
                return "replay", f"{status} during replay: {detail}"
            handle.applied = index + 1
        return "ok", None

    def _finish_exchange(self, shard: int, command: Dict[str, Any],
                         arm: bool, sent: bool) -> Optional[Dict[str, Any]]:
        """Drive one shard's exchange to a committed reply, recovering
        as the policy allows; None means the run degraded (the reply is
        moot)."""
        failures = 0
        status, value = (self._await(shard) if sent
                         else ("crash", "pipe closed on send"))
        while status != "ok":
            failures += 1
            self.retries[shard] += 1
            self._event("fault.detected", shard=shard, failure=status,
                        detail=str(value), attempt=failures,
                        cmd=command["cmd"])
            if self._budget_exhausted(shard, failures, status, value):
                return None
            self._respawn_worker(shard, failures)
            status, value = self._replay_into_worker(shard)
            if status != "ok":
                continue
            self._event("epoch.retry", shard=shard, cmd=command["cmd"],
                        attempt=failures)
            status, value = (self._await(shard)
                             if self._post(shard, command, arm)
                             else ("crash", "pipe closed on send"))
        self._handles[shard].applied = len(self._log)
        return value

    def _broadcast(self, command: Dict[str, Any],
                   arm: bool = False) -> Optional[List[Dict[str, Any]]]:
        """Supervised fan-out: optimistic concurrent first attempt,
        then per-shard recovery.  None means the run degraded and the
        caller must finish on the inline backend."""
        # Send to every worker before gathering any reply, so the
        # shards genuinely run concurrently.
        sent = [self._post(shard, command, arm)
                for shard in range(self.topology.shards)]
        replies: List[Dict[str, Any]] = []
        for shard in range(self.topology.shards):
            reply = self._finish_exchange(shard, command, arm, sent[shard])
            if reply is None:
                return None
            replies.append(reply)
        return replies

    # -- degradation ----------------------------------------------------------

    def _degrade(self, reason: str) -> None:
        """Migrate the entire run to an inline backend mid-run.

        Kills every worker, then replays the committed command log into
        a fresh :class:`InlineBackend`.  Legal because engine snapshots
        exclude backend/shard identity; bit-exact because the log *is*
        the universe's input history."""
        self._event("backend.degrade", detail=reason)
        self.degraded = True
        self.degrade_reason = reason
        for handle in self._handles:
            self._discard_worker(handle)
        self._handles = []
        self._inline = InlineBackend(self.plan, self.topology, obs=self.obs)
        for command in self._log:
            _apply_logged(self._inline, command)
        self._inline.collect()  # replayed payloads were committed already

    # -- backend interface ----------------------------------------------------

    def _run_slice(self, command: Dict[str, Any]) -> None:
        """Common path for epoch/inclusive commands."""
        self._time = command["time"]
        self._epoch_index += 1
        if self._inline is None:
            replies = self._broadcast(command, arm=True)
            if replies is not None:
                self._obs_frames = []
                for reply in replies:
                    self._collected.extend(reply["payloads"])
                    self._obs_frames.extend(reply.get("obs", []))
                self._log.append(command)
                for handle in self._handles:
                    handle.applied = len(self._log)
                return
        # Degraded, now or earlier: partial replies are moot.
        _apply_logged(self._inline, command)

    def run_epoch(self, horizon: float) -> None:
        self._run_slice({"cmd": "epoch", "time": horizon})

    def run_inclusive(self, until: float) -> None:
        self._run_slice({"cmd": "inclusive", "time": until})

    def collect(self) -> List[Dict[str, Any]]:
        out, self._collected = self._collected, []
        if self._inline is not None:
            out.extend(self._inline.collect())
        return out

    def collect_obs(self, time: float) -> List[Dict[str, Any]]:
        """Frames from the last committed slice (cumulative, so a
        recovered-and-replayed worker reproduced them bit-exactly)."""
        if self._inline is not None:
            return self._inline.collect_obs(time)
        out, self._obs_frames = self._obs_frames, []
        return sorted(out, key=lambda frame: frame["core"])

    def barrier(self, time: float, payloads: List[Dict[str, Any]]) -> None:
        """Log the canonical payloads; each shard's share rides on the
        next command its worker receives."""
        self._time = time
        command = {"cmd": "barrier", "time": time, "payloads": list(payloads)}
        if self._inline is not None:
            _apply_logged(self._inline, command)
        else:
            self._log.append(command)

    # -- observation ----------------------------------------------------------

    def _read_cores(self, what: str) -> List[Any]:
        """One per-core read (``snapshots``/``streams``/``obs_dumps``)
        in core order; from the inline backend once the run degraded."""
        if self._inline is None:
            replies = self._broadcast({"cmd": "collect", "what": what})
            if replies is not None:
                pairs = [pair for reply in replies for pair in reply["cores"]]
                pairs.sort(key=lambda pair: pair[0])
                return [value for _, value in pairs]
        return getattr(self._inline, what)()

    def obs_dumps(self) -> List[Dict[str, Any]]:
        return self._read_cores("obs_dumps") if self.obs else []

    def snapshots(self) -> List[dict]:
        return self._read_cores("snapshots")

    def streams(self) -> List[List[Dict[str, Any]]]:
        return self._read_cores("streams")

    def local_kernels(self) -> List[Any]:
        """No kernels live in the parent process, and none after a
        degrade either, so recorder fan-out does not depend on backend
        fate."""
        return []

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker: a ``stop`` frame to each, then SIGKILL for
        any worker that does not answer within ``close_timeout_s``.

        Pipes that died early (EOF/broken) are tolerated.  A worker
        that survives SIGKILL is reported by shard id instead of
        hanging the interpreter at exit."""
        if self._inline is not None:
            self._inline.close()
        handles, self._handles = self._handles, []
        for handle in handles:
            try:
                send_frame(handle.conn, {"cmd": "stop"})
            except (OSError, ValueError):
                pass
        unkillable: List[int] = []
        for handle in handles:
            answered = False
            try:
                answered = handle.conn.poll(self.close_timeout_s)
                if answered:
                    handle.conn.recv_bytes()
            except (OSError, EOFError):
                pass  # already dead: the join below reaps it at once
            finally:
                handle.conn.close()
            if not answered:
                handle.process.kill()
            if not _reap_process(handle.process,
                                 self.close_timeout_s):  # pragma: no cover
                unkillable.append(handle.shard)
        if unkillable:  # pragma: no cover - kernel-level wedge
            raise ShardError(
                f"shard worker(s) {unkillable} survived SIGKILL during "
                f"close; processes leaked")

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        if getattr(self, "_handles", None):
            try:
                self.close()
            except Exception:
                pass
