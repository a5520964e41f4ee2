"""Supervised trial workers: the fault-tolerant parallel backend.

A segfaulted or OOM-killed worker, a silently wedged one, or a *poison*
trial that kills every worker it touches must not sink a campaign.  This
module applies the heartbeat/retry/quarantine discipline batch
schedulers apply to cluster nodes to our own worker fleet:

* **Long-lived workers** (:class:`repro.proc.Worker`) pull
  :class:`~repro.experiments.runner.TrialSpec` dispatches over a pipe,
  run each through :func:`~repro.experiments.runner.run_trial` — the
  serial path's own routine — journal into per-process shards, and
  heartbeat from a side thread.
* **The supervisor** (parent) sleeps on every worker pipe and process
  sentinel at once.  A dead process is a **crash**; a live-but-silent one
  (no heartbeat inside ``heartbeat_timeout_s``, or a trial still running
  ``heartbeat_timeout_s`` past a set ``trial_timeout_s``) is a **hang**
  — either way the worker is SIGKILLed, reaped, and replaced.
* **Bounded retry with deterministic backoff**: the interrupted trial is
  re-dispatched after ``backoff_base_s * 2**attempt`` (capped), a pure
  function of the attempt number so retry schedules are identical across
  runs and worker counts.
* **Quarantine**: a spec whose attempts keep killing workers is allowed
  ``max_retries`` re-dispatches; one more failure records it as a
  structured ``status: "failed"`` journal entry with taxonomy
  ``quarantined`` and the campaign moves on.
* **Graceful shutdown**: SIGINT/SIGTERM stops dispatching, drains
  in-flight trials (bounded by :data:`DRAIN_TIMEOUT_S`; a second signal
  aborts immediately), terminates every worker, merges journal shards,
  and re-raises ``KeyboardInterrupt`` — the journal on disk is resumable
  and no child process survives.

**Failure taxonomy** — every failed trial is classified exactly one of:

========== =========================================================
``exception``  the trial function raised (deterministic; not retried)
``timeout``    the in-worker ``SIGALRM`` watchdog fired (not retried)
``crash``      the worker process died mid-trial (retried)
``hang``       the worker went silent mid-trial (retried)
``quarantined`` crash/hang persisted past ``max_retries`` (poison)
========== =========================================================

**Determinism contract.**  Trials are pure functions of their specs, and
in-trial failures are journaled by the same routine as on the serial
path, so a supervised campaign's results and journals are byte-identical
to a serial run's — *including* campaigns where workers are deliberately
killed: the harness-chaos mode (:mod:`repro.chaos.harness_faults`,
``--harness-chaos SEED``) injects worker kills/hangs as a pure function
of ``(seed, trial key, attempt)``, every injected kill is transient
under the default retry budget, and a retried trial re-executes from its
spec to the same record.  ``tests/test_supervisor.py`` pins serial ==
``--jobs 2`` == ``--jobs 4`` under injected kills, journals included.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.checkpoint.harness import SweepJournal
from repro.experiments.runner import TrialOutcome, TrialSpec, run_trial
from repro.proc import SupervisorConfig, Worker, WorkerLost, wait

__all__ = ["SupervisorStats", "Supervisor"]

_log = logging.getLogger("repro.harness")

#: Exit code a chaos-crashed worker dies with (mimics an abrupt kill).
_CHAOS_EXIT = 139

#: How often the supervisor loop wakes to check deadlines even when no
#: worker message arrives (seconds).
_POLL_S = 0.05

#: How long a signal-triggered drain waits for in-flight trials before
#: killing the remaining workers (seconds).
DRAIN_TIMEOUT_S = 60.0


@dataclass
class SupervisorStats:
    """What the supervisor observed and did, per campaign.

    Deliberately *not* part of saved results: a chaos campaign with
    transient kills must produce result files byte-identical to a clean
    serial run, so retry telemetry lives here (and in the log line
    :meth:`summary` feeds), never in :class:`SweepResult`.
    """

    trials: int = 0
    #: Crash/hang re-dispatches per trial key (only keys that retried).
    retries: dict = field(default_factory=dict)
    #: Backoff delays applied per retried key, in attempt order.
    backoffs: dict = field(default_factory=dict)
    #: Worker-fault events by kind: {"crash": n, "hang": m}.
    fault_counts: dict = field(default_factory=dict)
    #: Keys quarantined after exhausting the retry budget.
    quarantined: list = field(default_factory=list)
    #: Worker processes spawned over the campaign (initial + respawns).
    spawned: int = 0

    def note_fault(self, key: str, kind: str) -> None:
        """Count one crash/hang event against *key* and the fault totals."""
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        self.retries[key] = self.retries.get(key, 0) + 1

    def canonical(self) -> dict:
        """Scheduling-order-independent view, for comparison across runs
        and worker counts (dict insertion order varies; sorted here)."""
        return {
            "trials": self.trials,
            "retries": dict(sorted(self.retries.items())),
            "backoffs": dict(sorted(self.backoffs.items())),
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "quarantined": sorted(self.quarantined),
        }

    def summary(self) -> str:
        """One log line of what supervision cost this campaign."""
        faults = ", ".join(
            f"{k}={v}" for k, v in sorted(self.fault_counts.items())
        ) or "none"
        return (
            f"{self.trials} trials, {sum(self.retries.values())} retries "
            f"(worker faults: {faults}), {len(self.quarantined)} quarantined, "
            f"{self.spawned} workers spawned"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _write_torn_entry(journal: SweepJournal, key: str, record: dict) -> None:
    """Chaos ``crash/mid``: leave a half-written shard entry behind.

    Bypasses the atomic temp+replace discipline on purpose — this is the
    torn-write case (non-atomic writer, hostile filesystem) the journal
    merge hardening exists for.
    """
    payload = json.dumps({"status": "ok", "record": record}, indent=1, sort_keys=True)
    with open(journal._path(key), "w", encoding="utf-8") as fh:
        fh.write(payload[: max(1, len(payload) // 2)])
        fh.flush()
        os.fsync(fh.fileno())


def _serve_trials(
    recv, send, journal_root, trial_timeout_s: Optional[float], chaos_seed
) -> None:
    """Worker body: run each dispatched ``(spec, attempt)``, reply with
    its :class:`TrialOutcome`.  Top-level so it imports under any
    multiprocessing start method."""
    journal = (
        SweepJournal(journal_root, shard=f"w{os.getpid()}")
        if journal_root is not None
        else None
    )
    while (msg := recv()) is not None:
        spec, attempt = msg
        fault = None
        if chaos_seed is not None:
            from repro.chaos.harness_faults import injection_for

            fault = injection_for(chaos_seed, spec.key, attempt)
        if fault is not None and fault[0] == "hang":
            # Wedge the whole process, heartbeat thread included: only
            # the supervisor's silence deadline can clear this worker.
            os.kill(os.getpid(), signal.SIGSTOP)
        if fault == ("crash", "pre"):
            os._exit(_CHAOS_EXIT)
        outcome = run_trial(spec, journal, trial_timeout_s)
        if fault == ("crash", "mid") and outcome.ok:
            if journal is not None:
                _write_torn_entry(journal, spec.key, outcome.record)
            os._exit(_CHAOS_EXIT)
        send(outcome)


# ----------------------------------------------------------------------
# Supervisor (parent) side
# ----------------------------------------------------------------------


class Supervisor:
    """Runs one batch of pending specs under supervision.

    One-shot: construct, :meth:`run`, read :attr:`stats`.  The journal
    (if any) is the parent's canonical journal — workers shard under it,
    and shards are merged before :meth:`run` returns, on every path
    including signal-triggered drains.
    """

    def __init__(
        self,
        jobs: int,
        config: SupervisorConfig,
        journal: Optional[SweepJournal] = None,
        trial_timeout_s: Optional[float] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.config = config
        self.journal = journal
        self.trial_timeout_s = trial_timeout_s
        self.stats = SupervisorStats()
        #: Live workers -> the ``(spec, attempt)`` each is running, or None.
        self._workers: dict[Worker, Optional[tuple]] = {}
        self._seq = itertools.count()  # heap tiebreaker
        self._queue: deque = deque()
        self._delayed: list = []  # (ready_at, seq, spec, attempt)
        self._signals = 0
        self._drain = False
        self._drain_started: Optional[float] = None
        self._abort = False

    # -- public -------------------------------------------------------

    def run(self, specs, on_done: Callable[[TrialOutcome], None]) -> None:
        """Execute *specs*, handing each final outcome to *on_done* as it
        lands (successes, in-trial failures and quarantines alike).

        Raises :class:`KeyboardInterrupt` after a clean drain when a
        SIGINT/SIGTERM arrived mid-campaign (journal merged first).
        """
        specs = list(specs)
        self.stats.trials = len(specs)
        self._queue.extend((spec, 0) for spec in specs)
        previous_handlers = self._install_signal_handlers()
        try:
            self._loop(on_done)
        finally:
            self._shutdown_workers()
            self._restore_signal_handlers(previous_handlers)
            if self.journal is not None:
                self.journal.merge_shards()
        if self.stats.retries or self.stats.quarantined:
            _log.info("supervisor: %s", self.stats.summary())
        if self._signals:
            raise KeyboardInterrupt

    # -- signals ------------------------------------------------------

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None

        def on_signal(signum, frame):
            self._signals += 1
            self._drain = True
            if self._signals >= 2:
                self._abort = True

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, on_signal)
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        if previous:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    # -- main loop ----------------------------------------------------

    def _loop(self, on_done) -> None:
        while True:
            now = time.monotonic()
            if self._drain and self._drain_started is None:
                self._drain_started = now
            if self._abort or (
                self._drain_started is not None
                and now - self._drain_started > DRAIN_TIMEOUT_S
            ):
                return  # shutdown path kills whatever is still busy
            self._promote_delayed(now)
            if not self._drain:
                self._dispatch()
            busy = any(task is not None for task in self._workers.values())
            if not busy and (self._drain or not (self._queue or self._delayed)):
                return
            wait(self._workers, self._wait_timeout(now))
            self._collect(on_done)

    def _wait_timeout(self, now: float) -> float:
        timeout = _POLL_S
        if self._delayed:
            timeout = min(timeout, max(self._delayed[0][0] - now, 0.0))
        return timeout

    def _promote_delayed(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _ready_at, _seq, spec, attempt = heapq.heappop(self._delayed)
            self._queue.append((spec, attempt))

    def _dispatch(self) -> None:
        while self._queue:
            worker = next((w for w, t in self._workers.items() if t is None), None)
            if worker is None:
                if len(self._workers) >= self.jobs:
                    return
                worker = Worker(
                    _serve_trials,
                    (
                        self.journal.root if self.journal is not None else None,
                        self.trial_timeout_s,
                        self.config.chaos_seed,
                    ),
                    self.config,
                )
                self.stats.spawned += 1
            task = self._queue.popleft()
            try:
                worker.send(task, budget_s=self.trial_timeout_s)
            except WorkerLost:
                # Died between trials; re-dispatch elsewhere.
                self._queue.appendleft(task)
                self._workers.pop(worker, None)
                continue
            self._workers[worker] = task

    def _collect(self, on_done) -> None:
        for worker in list(self._workers):
            try:
                outcome = worker.recv(timeout=0)
            except WorkerLost as lost:
                task = self._workers.pop(worker)
                if task is not None:
                    self._on_worker_failure(*task, lost.kind, on_done)
                continue
            if outcome is not None:
                outcome.retries = self._workers[worker][1]
                self._workers[worker] = None
                on_done(outcome)

    # -- retry / quarantine -------------------------------------------

    def _on_worker_failure(
        self, spec: TrialSpec, attempt: int, kind: str, on_done
    ) -> None:
        self.stats.note_fault(spec.key, kind)
        if attempt >= self.config.max_retries:
            reason = (
                f"worker {kind} on attempt {attempt + 1}; quarantined after "
                f"{self.config.max_retries} retries"
            )
            if self.journal is not None:
                self.journal.record_failure(
                    spec.key, reason, taxonomy="quarantined"
                )
            self.stats.quarantined.append(spec.key)
            _log.warning("supervisor: quarantined %s (%s)", spec.key, reason)
            on_done(
                TrialOutcome(
                    spec.key, None, error=reason, taxonomy="quarantined",
                    retries=attempt,
                )
            )
            return
        delay = self.config.backoff_s(attempt)
        self.stats.backoffs.setdefault(spec.key, []).append(delay)
        heapq.heappush(
            self._delayed,
            (time.monotonic() + delay, next(self._seq), spec, attempt + 1),
        )

    # -- shutdown -----------------------------------------------------

    def _shutdown_workers(self) -> None:
        for worker in self._workers:
            worker.kill()
        self._workers.clear()
