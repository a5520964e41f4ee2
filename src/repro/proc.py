"""One supervised worker process: spawn, heartbeat, receive with a
deadline, kill, reap.

Both process supervisors in the repository drive their workers through
:class:`Worker` and take their policy from one :class:`SupervisorConfig`:
the trial :class:`~repro.experiments.supervisor.Supervisor` and the
sharded-DES coordinator in :mod:`repro.sim.parallel`.

*Child side.*  The worker runs ``target(recv, send, *args)`` on its main
thread while a daemon thread sends a heartbeat every
``heartbeat_interval_s``, from spawn to exit.  ``send`` is locked so a
beat never interleaves with a reply, and ``recv`` returns ``None`` once
the parent is gone.  SIGINT is ignored: on a terminal Ctrl+C the parent
coordinates the shutdown, and it ends every worker with SIGKILL — a
worker has journaled everything it reported before it replies, so an
idle one has nothing left to lose.

*Parent side.*  :meth:`Worker.recv` skips heartbeats and enforces one
deadline: silence past ``heartbeat_timeout_s``, or, when the request
carried a budget, the budget plus the same grace.  A worker past its
deadline is SIGKILLed (which also ends a SIGSTOPped one), reaped, and
reported as :class:`WorkerLost` with ``kind="hang"``; a dead process or
a broken pipe is ``kind="crash"``.  A reply already in the pipe always
wins over the death that followed it.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection as _mpc
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["SupervisorConfig", "Worker", "WorkerLost", "wait"]

#: Upper bound on one retry backoff (seconds).
BACKOFF_CAP_S = 5.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy shared by trial workers and shard workers."""

    #: Respawns/re-dispatches allowed after a crash or hang; one failure
    #: beyond this quarantines the trial (or fails the shard).
    max_retries: int = 3
    #: Deterministic backoff before retry ``attempt + 1``:
    #: ``backoff_base_s * 2**attempt``, capped at :data:`BACKOFF_CAP_S`.
    backoff_base_s: float = 0.1
    #: Child-side heartbeat period.
    heartbeat_interval_s: float = 0.25
    #: Silence after which a worker is declared hung; also the grace
    #: granted past a request's budget.
    heartbeat_timeout_s: float = 10.0
    #: Harness-chaos seed (worker kills/hangs as a pure function of the
    #: seed), or ``None`` to run clean.
    chaos_seed: Optional[int] = None

    @staticmethod
    def from_env() -> "SupervisorConfig":
        """Defaults, with the chaos seed read from ``REPRO_HARNESS_CHAOS``
        when set (``ValueError`` naming the variable if malformed)."""
        from repro.chaos.harness_faults import chaos_seed_from_env

        return SupervisorConfig(chaos_seed=chaos_seed_from_env())

    def backoff_s(self, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt + 1``."""
        return min(self.backoff_base_s * (2.0 ** attempt), BACKOFF_CAP_S)


class WorkerLost(RuntimeError):
    """A worker died (``kind="crash"``) or went silent past its deadline
    (``kind="hang"``); either way it has been killed and reaped."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _child_main(conn, heartbeat_interval_s: float, target, args) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    lock = threading.Lock()

    def send(msg) -> None:
        with lock:
            try:
                conn.send(msg)
            except OSError:
                os._exit(0)  # the parent is gone: nobody left to report to

    def recv():
        try:
            return conn.recv()
        except (EOFError, OSError):
            return None

    def beat() -> None:
        while True:
            time.sleep(heartbeat_interval_s)
            send(None)

    threading.Thread(target=beat, daemon=True).start()
    target(recv, send, *args)


class Worker:
    """Parent-side handle of one worker process running *target*.

    Forks where the platform can (cheap, and test-time monkeypatching
    reaches the child); elsewhere *target* and *args* must pickle.
    """

    def __init__(self, target, args, config: SupervisorConfig, name=None) -> None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_child_main,
            args=(child, config.heartbeat_interval_s, target, args),
            daemon=True,
            name=name,
        )
        self.proc.start()
        child.close()
        self._grace_s = config.heartbeat_timeout_s
        self._heard = time.monotonic()
        self._limit = math.inf

    def send(self, msg, budget_s: Optional[float] = None) -> None:
        """Send one request; a set *budget_s* bounds its reply to
        ``budget_s + heartbeat_timeout_s`` however steadily the worker
        beats.  Raises :class:`WorkerLost` if the pipe is closed."""
        try:
            self.conn.send(msg)
        except OSError as exc:
            self.kill()
            raise WorkerLost("crash", f"{self.proc.name} pipe closed ({exc!r})") from None
        if budget_s:
            self._limit = time.monotonic() + budget_s + self._grace_s

    def recv(self, timeout: Optional[float] = None):
        """The worker's next reply, or ``None`` once *timeout* seconds
        pass without one (``None``: wait for a reply or the deadline)."""
        end = math.inf if timeout is None else time.monotonic() + timeout
        while True:
            deadline = min(self._heard + self._grace_s, self._limit)
            wait_s = max(0.0, min(deadline, end) - time.monotonic())
            ready = _mpc.wait([self.conn, self.proc.sentinel], wait_s)
            if ready:
                try:
                    if self.conn not in ready:  # died with nothing buffered
                        raise EOFError
                    msg = self.conn.recv()
                except (EOFError, OSError):
                    self.kill()
                    raise WorkerLost(
                        "crash", f"{self.proc.name} died (exit code {self.proc.exitcode})"
                    ) from None
                self._heard = time.monotonic()
                if msg is not None:  # None is a heartbeat
                    self._limit = math.inf
                    return msg
                continue
            now = time.monotonic()
            if now >= deadline:
                self.kill()
                raise WorkerLost("hang", f"{self.proc.name} silent past its deadline; killed")
            if now >= end:
                return None

    def kill(self) -> None:
        """SIGKILL the worker if it is still alive, and reap it."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=10.0)
        self.conn.close()


def wait(workers, timeout: float) -> None:
    """Sleep until one of *workers* has something to read or has died,
    or *timeout* seconds pass."""
    objs = [o for w in workers for o in (w.conn, w.proc.sentinel)]
    if objs:
        _mpc.wait(objs, timeout)
    else:
        time.sleep(timeout)
