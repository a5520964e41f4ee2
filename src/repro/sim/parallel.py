"""Conservative parallel DES: shard the cluster across worker processes.

The serial engine (:mod:`repro.sim.core`) stays the bit-identical
reference oracle; this module adds a **conservative synchronous-window**
parallel mode on top of it, in the classic null-message family (CMB):
instead of per-channel null messages, a coordinator broadcasts the global
lower bound every superstep — equivalent to each shard sending a null
message carrying ``earliest_output_time + lookahead`` to every peer, with
the coordinator folding the min.

How a superstep works
---------------------
Each shard owns a contiguous block of cluster nodes (:class:`ShardPlan`)
and runs an unmodified serial :class:`~repro.sim.core.Simulator` over the
*full* cluster structure (non-owned nodes are built — construction
schedules no events and fixes RNG draw order — but get no threads, so
they are inert).  Cross-shard MPI sends become timestamped envelopes in a
:class:`~repro.sim.shard.ShardRouter` outbox instead of local schedules.
The coordinator repeats:

1. collect each shard's **earliest output time** ``EOT_s`` and its
   undelivered envelopes.  ``EOT_s`` is a lower bound on when the shard
   can next send across shards, derived from model state by
   :meth:`repro.mpi.world.MpiJob.earliest_output_time` — only a rank's
   send (after a completed ``Compute``), a reliable-transport ack (at a
   data arrival) and a retransmit (at its timer) ever emit, so the bound
   is the earliest of the ranks' compute completions and sleeps, the
   messages still on the local wire, and the armed retransmit timers —
   floored at the shard's next event time (``None``: nothing can be sent
   until an envelope arrives);
2. ``N  = min(EOT_s ∪ pending envelope arrivals)``
   ``H' = N + L``  where ``L`` is the fabric's minimum cross-node wire
   latency over the window — ``NetworkConfig.latency_at(N)``, further
   clamped by any scheduled latency change that takes effect inside the
   window (adaptive lookahead: degraded links shrink the window);
3. deliver pending envelopes (sorted canonically by
   ``(arrival, src_node, link_seq)``) and let every shard run events
   strictly ``< H'`` in parallel (:meth:`Simulator.run_until_before`).

A rank inside a 20 ms compute segment therefore no longer caps the window
at one wire latency past the shard's next daemon event: the window
reaches to the segment's end plus ``L``.  Windows now depend on the shard
count, so the run does not simply stop after the window in which the
last rank finished: every shard runs on to one wire latency past that
finish (the furthest that window can reach), and traffic still in flight
after the job — late duplicates, acks, retransmits — is counted up to the
same cut at any shard count.

Safety: every cross-shard send in the window happens at ``t ≥ N``.  On
shard ``s`` a send is either caused by state the shard saw at the
barrier, so ``t ≥ EOT_s``, or by an envelope delivered at this barrier,
so ``t ≥`` its arrival; both are ``≥ N``.  A message sent at ``t``
before a latency change at ``C`` pays the pre-change latency ``l_old ≥
L`` so arrives ``≥ N + L = H'``; one sent at ``t ≥ C`` pays ``l_new``,
and if ``C ≤ H' = N + min(l_old, l_new, …)`` then ``t + l_new ≥ C +
l_new > H'`` — either way outside the window, hence no shard can receive
a message from the past.  Envelope arrivals are likewise ``≥ H'``, so
delivering them at the barrier (``now = H'``) never schedules into the
past.  Each shard's router holds it to that promise — ``min(EOT_s,
arrivals delivered with the window)`` — and raises at the first send
that breaks it (:meth:`~repro.sim.shard.ShardRouter.emit`), so a bound
that is too optimistic fails loudly instead of corrupting another shard.

Determinism: the window boundary sequence is a pure function of the
shards' model state at each barrier, per-shard event order is the serial
engine's total ``(time, priority, seq)`` order, cross-shard deliveries
are sorted canonically before scheduling, and all runtime randomness
comes from shard-stable named streams — including per-link message-fault
draws, per-node pipe-loss draws, and the retransmit layer's ack traffic
(see :mod:`repro.sim.shard`).  Sharded runs therefore reproduce the
serial oracle's **result digest byte-for-byte** — enforced by
``tests/test_parallel_des.py`` and the CI ``parallel-des-smoke`` /
``shard-chaos-smoke`` jobs.

What sharded mode rejects (:func:`validate_sharded_config`): hardware
collectives only — the switch-combine path schedules cross-node arrivals
at half a wire hop, under the conservative lookahead.  Everything else —
stochastic network faults, pipe loss, timesync loss, the retransmit
layer, scheduled node/co-scheduler faults — runs sharded with serial
digests.

Worker supervision
------------------
With forked workers the coordinator is also a supervisor.  Each worker
is a :class:`repro.proc.Worker`: it heartbeats from a side thread, and
every reply is awaited on the pipe and the process sentinel at once, so
a crashed worker (pipe EOF, sentinel) or a stalled one (silent past
``heartbeat_timeout_s``, then SIGKILLed) surfaces at the barrier as
:class:`~repro.proc.WorkerLost`.  Recovery respawns the shard from its
spec and **replays** the full superstep history (windows + incoming
envelopes, which the coordinator retains); construction pins RNG draw
order, so the replayed shard reaches the last completed barrier
bit-identically and the current window is reissued.  Retries are
bounded (``max_retries``, exponential ``backoff_base_s``, both from the
:class:`~repro.proc.SupervisorConfig`); exhausting them raises
:class:`ShardFailureError` with structured ``details`` instead of
hanging.  The ``harness.shard.kill.<shard>`` chaos axis
(:func:`repro.chaos.harness_faults.shard_kill_plan`) drives exactly this
path in CI, asserting chaos-run digests equal clean-run digests.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import signal
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import ClusterConfig
from repro.proc import SupervisorConfig, Worker, WorkerLost
from repro.sim.meanfield import MeanFieldConfig
from repro.sim.shard import ShardPlan, ShardRouter
from repro.units import s

__all__ = [
    "ParallelRunResult",
    "ShardFailureError",
    "ShardPlan",
    "ShardRouter",
    "ShardSpec",
    "run_parallel",
    "validate_sharded_config",
]


class ShardFailureError(RuntimeError):
    """A shard could not be recovered within the respawn budget.

    ``details`` is a structured post-mortem: the shard, the budget, the
    window being attempted, how many supersteps had completed, and the
    per-attempt failure causes — what the chaos journal records instead
    of a hang.
    """

    def __init__(
        self,
        shard_id: int,
        attempts: int,
        window: Optional[float],
        supersteps: int,
        causes: list[str],
    ) -> None:
        self.details = {
            "shard_id": shard_id,
            "attempts": attempts,
            "window": window,
            "supersteps": supersteps,
            "causes": list(causes),
        }
        super().__init__(
            f"shard {shard_id} unrecoverable after {attempts} respawn attempt(s) "
            f"at superstep {supersteps}: {causes[-1] if causes else 'no attempts allowed'}"
        )


def validate_sharded_config(config: ClusterConfig, n_shards: int) -> None:
    """Reject configurations whose semantics cannot survive sharding.

    Raises ``ValueError`` naming the offending knob.  The only model
    restriction left is the hardware-collective path, whose
    switch-combine hop is *shorter* than the conservative lookahead
    (sub-lookahead switch combining stays out of scope); the serial
    engine remains available for it.  Stochastic faults, pipe loss,
    timesync loss, and the retransmit layer all shard cleanly — their
    randomness comes from per-link / per-node shard-stable streams and
    acks ride the cross-shard channel.
    """
    if n_shards < 1:
        raise ValueError(f"shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return
    if n_shards > config.machine.n_nodes:
        raise ValueError(
            f"shards ({n_shards}) cannot exceed cluster nodes ({config.machine.n_nodes})"
        )
    if config.network.latency_us <= 0:
        raise ValueError(
            "sharded DES needs positive cross-node latency for lookahead; "
            f"network.latency_us={config.network.latency_us}"
        )
    if config.mpi.algorithm == "hardware":
        raise ValueError(
            "mpi.algorithm='hardware' is not shardable: the switch-combine "
            "path schedules cross-node arrivals at half a wire hop, under "
            "the conservative lookahead (sub-lookahead switch combining is "
            "out of scope); use the serial engine"
        )


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard worker needs to build and drive its slice.

    Picklable by construction (the app is a ``"module:attr"`` reference,
    resolved inside the worker), so the same spec drives the in-process
    host, the forked worker, and a supervisor **respawn** identically —
    respawn-and-replay determinism rests on the spec being the whole
    input.
    """

    config: ClusterConfig
    plan: ShardPlan
    shard_id: int
    n_ranks: int
    tasks_per_node: int
    app: str
    app_params: dict = field(default_factory=dict)
    meanfield: Optional[MeanFieldConfig] = None
    job_name: str = "pdes"


def _resolve_app(ref: str, params: dict):
    """Resolve ``"module:attr"`` to the app provider and instantiate it.

    The provider is called with *params* and must return an object with a
    ``body_factory(rank, api)`` generator factory and a ``collect()``
    returning ``{"ranks": {str(rank): jsonable}, "ok": bool}`` for the
    ranks that ran locally.
    """
    mod_name, _, attr = ref.partition(":")
    if not mod_name or not attr:
        raise ValueError(f"app must be 'module:attr', got {ref!r}")
    provider = getattr(importlib.import_module(mod_name), attr)
    return provider(dict(params))


class ShardHost:
    """One shard, driven in-process (also the body of the forked worker).

    Splitting :meth:`step_send` / :meth:`step_recv` lets the coordinator
    issue the window to every shard before collecting any reply, so real
    worker processes overlap; for the in-process host the work happens in
    ``step_send`` and ``step_recv`` just returns it.
    """

    def __init__(self, spec: ShardSpec) -> None:
        from repro.system import System  # deferred: System imports this package

        validate_sharded_config(spec.config, spec.plan.n_shards)
        self.spec = spec
        self.app = _resolve_app(spec.app, spec.app_params)
        self.system = System(
            spec.config,
            shard=(spec.shard_id, spec.plan),
            meanfield=spec.meanfield,
        )
        self.router = self.system.cluster.router
        self.job = self.system.launch(
            spec.n_ranks,
            spec.tasks_per_node,
            self.app.body_factory,
            name=spec.job_name,
        )
        self._pending = None
        self._eot = math.inf

    # -- superstep protocol -------------------------------------------
    def _earliest_output_time(self) -> Optional[float]:
        """This shard's EOT (:meth:`~repro.mpi.world.MpiJob.earliest_output_time`),
        kept as the next window's promise; ``None`` when nothing can be
        sent until an envelope arrives — including when no event is queued."""
        nxt = self.system.sim.peek_time()
        self._eot = math.inf if nxt is None else self.job.earliest_output_time(nxt)
        return None if self._eot == math.inf else self._eot

    def _last_finish(self) -> Optional[float]:
        """When the latest local rank finished (``None`` before any has)."""
        return max(self.job._finish_times.values(), default=None)

    def ready(self) -> tuple:
        """Initial report: ``(earliest_output_time, local_done, last_finish)``."""
        return (self._earliest_output_time(), self.job.local_done, self._last_finish())

    def step_send(self, horizon: float, incoming: list[tuple]) -> None:
        """Deliver *incoming* envelopes, then run the window ``[now, horizon)``.

        The promise the router holds this window to is the EOT reported
        at the last barrier, lowered to the earliest incoming arrival — a
        delivered envelope can release a rank or trigger an ack the
        reported bound could not know about.
        """
        sim = self.system.sim
        fabric = self.system.cluster.fabric
        router = self.router
        router.promise = min([self._eot, *(env[0] for env in incoming)])
        # Canonical delivery order: (arrival, src_node, link_seq) is
        # globally unique, so the schedule (and hence heap seq) order of
        # same-instant cross-shard arrivals is shard-count independent.
        for env in sorted(incoming, key=lambda e: e[:3]):
            arrival, _src, _seq, world_uid, _dst, payload = env
            router.received += 1
            fabric.schedule_arrival(arrival, router.deliver_target(world_uid), payload)
        sim.run_until_before(horizon)
        self._pending = (
            self._earliest_output_time(),
            router.drain(),
            self.job.local_done,
            self._last_finish(),
        )

    def step_recv(self) -> tuple:
        """``(earliest_output_time, outbox, local_done, last_finish)``."""
        out, self._pending = self._pending, None
        return out

    def collect(self) -> dict:
        """Local results after the job's owned ranks all finished."""
        inj = self.system.injector
        rel = self.job.world.reliability
        counters = {
            "retransmits": rel.retransmits if rel else 0,
            "forced": rel.forced if rel else 0,
            "gaveup": rel.gaveup if rel else 0,
            "duplicates_dropped": rel.duplicates_dropped if rel else 0,
            "net_drops": inj.net_plane.drops if inj and inj.net_plane else 0,
            "net_dups": inj.net_plane.dups if inj and inj.net_plane else 0,
            "net_delays": inj.net_plane.delays if inj and inj.net_plane else 0,
            "pipe_losses": inj.pipe_losses if inj else 0,
            "watchdog_restarts": (
                sum(w.restarts for w in inj.watchdogs) if inj else 0
            ),
            "degradation_events": (
                sum(1 for e in inj.events if e.kind == "timesync_degraded")
                if inj
                else 0
            ),
        }
        return {
            "app": self.app.collect(),
            "finish_times": {str(r): t for r, t in sorted(self.job._finish_times.items())},
            "start_time": self.job.start_time,
            "events": self.system.sim.events_processed,
            "sent": self.router.sent,
            "received": self.router.received,
            "counters": counters,
        }

    def kill(self) -> None:
        """Nothing to kill in-process (symmetry with _ProcessHost)."""


def _serve_shard(recv, send, spec: ShardSpec) -> None:
    """Worker body: serve the superstep protocol of :class:`_ProcessHost`."""
    try:
        host = ShardHost(spec)
        send(("ready", host.ready()))
        while (msg := recv()) is not None:
            if msg[0] == "step":
                host.step_send(msg[1], msg[2])
                send(("state", host.step_recv()))
            else:
                send(("result", host.collect()))
    except BaseException:
        send(("error", traceback.format_exc()))


class _ProcessHost(Worker):
    """A forked :class:`ShardHost` behind the same protocol; a lost
    worker surfaces as :class:`~repro.proc.WorkerLost`."""

    def __init__(self, spec: ShardSpec, config: SupervisorConfig) -> None:
        super().__init__(
            _serve_shard, (spec,), config, name=f"shard {spec.shard_id} worker"
        )
        self._ready = self._reply("ready")

    def _reply(self, expect: str):
        kind, payload = self.recv()
        if kind == "error":
            raise RuntimeError(f"shard worker failed:\n{payload}")
        if kind != expect:  # pragma: no cover - protocol bug
            raise RuntimeError(f"expected {expect!r} from worker, got {kind!r}")
        return payload

    def ready(self) -> tuple:
        return self._ready

    def step_send(self, horizon: float, incoming: list[tuple]) -> None:
        self.send(("step", horizon, incoming))

    def step_recv(self) -> tuple:
        return self._reply("state")

    def collect(self) -> dict:
        self.send(("collect",))
        return self._reply("result")


@dataclass
class ParallelRunResult:
    """Merged outcome of one sharded run.

    ``digest`` covers only shard-count-invariant result data (per-rank
    series, correctness flag, job timing) — per-shard event counts and
    superstep counts are reported for inspection but excluded, because a
    shard whose ranks finish early retires its co-scheduler earlier than
    the serial schedule would, which shifts background-only events
    without touching any rank-visible timing.  ``counters`` (summed
    fault/resilience counters, taken at the common end cut one wire
    latency past the last rank's finish) IS shard-count invariant;
    ``recoveries``
    (supervisor respawns), ``barrier_wait_s`` and ``mean_window_us`` are
    execution-substrate facts and excluded.  ``lookahead_us`` is the
    smallest latency floor ``L`` any window used, not a window length.
    """

    shards: int
    n_ranks: int
    elapsed_us: float
    ranks: dict
    ok: bool
    events_per_shard: list[int]
    messages_crossed: int
    supersteps: int
    lookahead_us: float
    wall_s: float = 0.0
    counters: dict = field(default_factory=dict)
    recoveries: int = 0
    #: Coordinator wall time blocked collecting superstep replies.
    barrier_wait_s: float = 0.0
    #: Simulated time one superstep advances, on average.
    mean_window_us: float = 0.0

    @property
    def events_total(self) -> int:
        return sum(self.events_per_shard)

    def digest_payload(self) -> dict:
        """The rank-visible outcome — the part that is shard-count
        invariant by construction (per-shard event counts are not:
        shard-local job completion retires background threads on a
        different schedule than the serial global-done order)."""
        return {
            "n_ranks": self.n_ranks,
            "ranks": self.ranks,
            "ok": self.ok,
            "elapsed_us": self.elapsed_us,
        }

    @property
    def digest(self) -> str:
        # Imported here: repro.results registers the experiment result
        # types at import, and e14_meanfield imports this module.
        from repro.results import canonical_dumps

        return hashlib.sha256(
            canonical_dumps(self.digest_payload()).encode()
        ).hexdigest()


def run_parallel(
    config: ClusterConfig,
    n_ranks: int,
    tasks_per_node: int,
    app: str,
    app_params: Optional[dict] = None,
    shards: int = 1,
    horizon_us: float = s(600),
    meanfield: Optional[MeanFieldConfig] = None,
    use_processes: Optional[bool] = None,
    job_name: str = "pdes",
    supervisor: Optional[SupervisorConfig] = None,
    _superstep_hook: Optional[Callable[[int, list], None]] = None,
) -> ParallelRunResult:
    """Run *app* over *config* with the cluster sharded *shards* ways.

    ``use_processes=None`` forks real workers when ``shards > 1`` and
    runs in-process for ``shards == 1``; pass ``False`` to drive every
    shard in-process (identical event semantics — the processes are a
    wall-clock lever, not a correctness one — and what the hypothesis
    equivalence suite uses to keep hundreds of examples cheap).

    With forked workers the coordinator supervises them under
    *supervisor* (default :class:`~repro.proc.SupervisorConfig`):
    crashes and hangs are recovered by respawn + deterministic replay of
    the superstep history, up to ``max_retries`` attempts per incident
    with exponential backoff; exhaustion raises
    :class:`ShardFailureError`.  Its ``chaos_seed`` arms the
    ``harness.shard.kill.<shard>`` axis, SIGKILLing workers pre/mid
    window per their deterministic plans (forked workers only).
    *_superstep_hook* is test/chaos instrumentation: called as
    ``hook(superstep_index, hosts)`` at the top of every superstep.
    """
    validate_sharded_config(config, shards)
    n_nodes = config.machine.n_nodes
    job_nodes = min(n_nodes, -(-n_ranks // tasks_per_node))
    plan = ShardPlan.for_placement(
        n_nodes, shards, job_nodes=job_nodes, tasks_per_node=tasks_per_node
    )
    net = config.network
    app_params = app_params or {}
    specs = [
        ShardSpec(
            config=config,
            plan=plan,
            shard_id=sid,
            n_ranks=n_ranks,
            tasks_per_node=tasks_per_node,
            app=app,
            app_params=app_params,
            meanfield=meanfield,
            job_name=job_name,
        )
        for sid in range(shards)
    ]
    if use_processes is None:
        use_processes = shards > 1

    sup = supervisor if supervisor is not None else SupervisorConfig()
    kill_plans: dict = {}
    kills_done: dict = {}
    if sup.chaos_seed is not None:
        if not use_processes:
            raise ValueError(
                "a chaos_seed kills worker processes; it requires "
                "use_processes=True (in-process hosts have nothing to kill)"
            )
        from repro.chaos.harness_faults import shard_kill_plan

        kill_plans = {
            sid: shard_kill_plan(sup.chaos_seed, sid) for sid in range(shards)
        }
        kills_done = {sid: 0 for sid in range(shards)}

    wall0 = _time.perf_counter()

    def _spawn(sid: int):
        if use_processes:
            return _ProcessHost(specs[sid], sup)
        return ShardHost(specs[sid])

    hosts: list = []
    #: Completed supersteps: (window, incoming-envelopes-per-shard) — the
    #: deterministic replay script a respawned shard is driven through.
    history: list[tuple[float, list[list]]] = []
    recoveries = 0

    def _respawn_and_replay(
        sid: int,
        window: Optional[float] = None,
        incoming: Optional[list] = None,
        causes: tuple = (),
    ):
        """Respawn shard *sid*, replay history, optionally reissue the
        current window; returns its reply (None in the collect phase)."""
        nonlocal recoveries
        causes = list(causes)
        for attempt in range(sup.max_retries):
            _time.sleep(sup.backoff_s(attempt))
            nh = None
            try:
                nh = _spawn(sid)
                for w, inc in history:
                    nh.step_send(w, inc[sid])
                    nh.step_recv()  # discard: outputs already routed
                if window is None:
                    reply = None
                else:
                    nh.step_send(window, incoming)
                    reply = nh.step_recv()
            except WorkerLost as exc:
                causes.append(f"respawn attempt {attempt + 1}: {exc}")
                if nh is not None:
                    nh.kill()
                continue
            hosts[sid] = nh
            recoveries += 1
            return reply
        raise ShardFailureError(
            shard_id=sid,
            attempts=sup.max_retries,
            window=window,
            supersteps=len(history),
            causes=causes,
        )

    def _recover(sid: int, window: Optional[float], incoming: Optional[list], exc):
        hosts[sid].kill()
        return _respawn_and_replay(
            sid, window, incoming,
            causes=(f"superstep {len(history)}: {exc}",),
        )

    def _maybe_kill(sid: int, point: str) -> None:
        plan_k = kill_plans.get(sid)
        if plan_k is None or plan_k.mode is None or kills_done[sid] >= plan_k.kills:
            return
        if len(history) >= plan_k.window and point == plan_k.point:
            kills_done[sid] += 1
            os.kill(hosts[sid].proc.pid, signal.SIGKILL)

    lookahead_min: Optional[float] = None
    barrier_wait = 0.0
    try:
        for sid in range(shards):
            hosts.append(_spawn(sid))
        eots: list[Optional[float]] = []
        done = []
        last_finish: list[Optional[float]] = []
        events = [0] * shards
        for h in hosts:
            eot, dn, lf = h.ready()
            eots.append(eot)
            done.append(dn)
            last_finish.append(lf)
        pending: list[list[tuple]] = [[] for _ in range(shards)]
        crossed = 0
        #: Where the run ends once every rank has finished (see below).
        stop_at: Optional[float] = None
        while stop_at is None or history[-1][0] < stop_at:
            candidates = [t for t in eots if t is not None]
            candidates += [env[0] for envs in pending for env in envs]
            if stop_at is None:
                if not candidates:
                    raise RuntimeError(
                        f"parallel deadlock: {sum(done)}/{n_ranks} ranks finished "
                        "with no pending events or messages"
                    )
                if min(candidates) >= horizon_us:
                    raise RuntimeError(
                        f"job {job_name!r} incomplete at horizon {horizon_us}: "
                        f"{sum(done)}/{n_ranks} ranks finished"
                    )
            window = stop_at
            if candidates:
                frontier = min(candidates)
                # Adaptive lookahead: the latency in force at the frontier,
                # clamped by any scheduled change landing inside the window
                # (see the safety argument in the module docstring).
                lookahead = net.latency_at(frontier)
                for at_us, lat in net.latency_changes:
                    if frontier < at_us <= frontier + net.latency_at(frontier):
                        lookahead = min(lookahead, lat)
                lookahead_min = (
                    lookahead if lookahead_min is None else min(lookahead_min, lookahead)
                )
                window = frontier + lookahead
                if stop_at is not None:
                    window = min(window, stop_at)
            if _superstep_hook is not None:
                _superstep_hook(len(history), hosts)
            snapshot = [list(p) for p in pending]
            replies: list = [None] * shards
            for sid in range(shards):
                _maybe_kill(sid, "pre")
                try:
                    hosts[sid].step_send(window, snapshot[sid])
                except WorkerLost as exc:
                    replies[sid] = _recover(sid, window, snapshot[sid], exc)
                pending[sid] = []
            for sid in range(shards):
                _maybe_kill(sid, "mid")
            for sid in range(shards):
                if replies[sid] is None:
                    wait0 = _time.perf_counter()
                    try:
                        replies[sid] = hosts[sid].step_recv()
                    except WorkerLost as exc:
                        replies[sid] = _recover(sid, window, snapshot[sid], exc)
                    barrier_wait += _time.perf_counter() - wait0
                eot, outbox, dn, lf = replies[sid]
                eots[sid] = eot
                done[sid] = dn
                last_finish[sid] = lf
                for env in outbox:
                    pending[plan.shard_of(env[4])].append(env)
                    crossed += 1
            history.append((window, snapshot))
            if stop_at is None and sum(done) == n_ranks:
                # The last rank finished inside this window, whose frontier
                # was at or before that finish, so the window ends at most
                # one wire latency past it — how far depends on the shard
                # count.  Every shard runs on to exactly that latency, so
                # events after the job (late duplicates, acks, retransmits)
                # count identically at any shard count.
                t_end = max(t for t in last_finish if t is not None)
                stop_at = t_end + net.latency_at(t_end)

        merged_ranks: dict = {}
        counters: dict = {}
        ok = True
        finish = []
        start = []
        for sid in range(shards):
            try:
                res = hosts[sid].collect()
            except WorkerLost as exc:
                _recover(sid, None, None, exc)
                res = hosts[sid].collect()
            merged_ranks.update(res["app"]["ranks"])
            ok = ok and res["app"]["ok"]
            finish.extend(res["finish_times"].values())
            start.append(res["start_time"])
            events[sid] = res["events"]
            for k, v in res.get("counters", {}).items():
                counters[k] = counters.get(k, 0) + v
    finally:
        for h in hosts:
            h.kill()

    return ParallelRunResult(
        shards=shards,
        n_ranks=n_ranks,
        elapsed_us=max(finish) - min(start),
        ranks=merged_ranks,
        ok=ok,
        events_per_shard=events,
        messages_crossed=crossed,
        supersteps=len(history),
        lookahead_us=lookahead_min if lookahead_min is not None else net.latency_at(0.0),
        wall_s=_time.perf_counter() - wall0,
        counters=counters,
        recoveries=recoveries,
        barrier_wait_s=barrier_wait,
        mean_window_us=history[-1][0] / len(history) if history else 0.0,
    )
