"""Shard-worker crash/hang recovery: the parallel-DES supervisor.

The contract: SIGKILLing (or SIGSTOPping) shard workers mid-run must not
change the result — the coordinator detects the failure at the barrier,
respawns the shard from its spec, replays the superstep history, and the
recovered run's digest equals a clean run's byte-for-byte.  Exhausting
the respawn budget must fail *structurally* (:class:`ShardFailureError`
with a post-mortem) rather than hang, and no path — recovery, failure,
or a coordinator crash — may leak worker processes.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.chaos.harness_faults import ShardKillFault, shard_kill_plan
from repro.proc import SupervisorConfig
from repro.sim.parallel import ShardFailureError, run_parallel

from tests.test_parallel_des import APP, small_config

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-kill tests rely on the fork start method",
)

#: Both shards of a 2-shard run get exactly one kill each, at supersteps
#: 2 (mid) and 1 (pre) — asserted below so a planner change can't make
#: the recovery test vacuously clean.
CHAOS_SEED = 0

#: Small app so each run is a few hundred supersteps, not thousands.
QUICK_PARAMS = dict(
    loops=1, calls_per_loop=2, trace_block=64,
    compute_between_us=300.0, payload_bytes=8, record_nodes=(0,),
)


def quick_run(use_processes=True, _superstep_hook=None, **policy):
    policy.setdefault("backoff_base_s", 0.01)
    return run_parallel(
        small_config(),
        n_ranks=64,
        tasks_per_node=16,
        app=APP,
        app_params=QUICK_PARAMS,
        shards=2,
        use_processes=use_processes,
        supervisor=SupervisorConfig(**policy),
        _superstep_hook=_superstep_hook,
    )


class TestShardKillPlan:
    def test_plan_is_pure_and_bounded(self):
        modes = set()
        for seed in range(30):
            for sh in range(4):
                p = shard_kill_plan(seed, sh)
                assert p == shard_kill_plan(seed, sh)
                assert p.kills <= 2  # transient under default max_retries=3
                assert (p.mode is None) == (p.kills == 0)
                assert 0 <= p.window < 4
                assert p.point in ("pre", "mid")
                modes.add(p.mode)
        assert modes == {None, "kill"}

    def test_plan_independent_of_shard_count(self):
        """A shard's plan is keyed to its id alone, so growing the shard
        count never reshuffles existing shards' fates."""
        assert [shard_kill_plan(8, sh) for sh in range(2)] == [
            shard_kill_plan(8, sh) for sh in range(4)
        ][:2]

    def test_chaos_seed_covers_both_shards(self):
        plans = [shard_kill_plan(CHAOS_SEED, sh) for sh in range(2)]
        assert plans == [
            ShardKillFault("kill", 2, 1, "mid"),
            ShardKillFault("kill", 1, 1, "pre"),
        ]


@fork_only
class TestKillRecovery:
    def test_killed_workers_recover_to_clean_digest(self):
        clean = quick_run()
        assert clean.ok and clean.recoveries == 0
        chaos = quick_run(chaos_seed=CHAOS_SEED)
        assert chaos.recoveries == 2  # one kill per shard, per the plan
        assert chaos.digest == clean.digest
        assert chaos.counters == clean.counters
        assert multiprocessing.active_children() == []

    def test_chaos_requires_processes(self):
        with pytest.raises(ValueError, match="use_processes"):
            quick_run(use_processes=False, chaos_seed=CHAOS_SEED)

    def test_hung_worker_detected_and_recovered(self):
        """A SIGSTOPped worker sends no heartbeats; the supervisor's hang
        deadline SIGKILLs and replays it like a crash."""
        clean = quick_run()
        stopped = []

        def stall_shard_one(step, hosts):
            if step == 3 and not stopped:
                stopped.append(hosts[1].proc.pid)
                os.kill(hosts[1].proc.pid, signal.SIGSTOP)

        hung = quick_run(
            heartbeat_interval_s=0.2,
            heartbeat_timeout_s=2.0,
            _superstep_hook=stall_shard_one,
        )
        assert stopped, "the hook never fired"
        assert hung.recoveries == 1
        assert hung.digest == clean.digest
        assert multiprocessing.active_children() == []

    def test_exhausted_retries_fail_structurally(self):
        """max_retries=0 turns the first kill into a terminal, *journaled*
        failure — a post-mortem, not a hang — and still leaks nothing."""
        with pytest.raises(ShardFailureError) as exc_info:
            quick_run(chaos_seed=CHAOS_SEED, max_retries=0)
        details = exc_info.value.details
        assert details["shard_id"] in (0, 1)
        assert details["attempts"] == 0
        assert details["supersteps"] >= 1
        assert details["window"] is not None
        assert multiprocessing.active_children() == []


_COORDINATOR_CRASH_DRIVER = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
import multiprocessing
from tests.test_shard_recovery import quick_run

def boom(step, hosts):
    if step == 3:
        raise RuntimeError("coordinator blew up")

print("READY", flush=True)
try:
    quick_run(_superstep_hook=boom)
except RuntimeError as exc:
    assert "coordinator blew up" in str(exc), exc
    leftover = multiprocessing.active_children()
    assert leftover == [], leftover
    print("CLEAN", flush=True)
    sys.exit(0)
print("NO-CRASH", flush=True)
sys.exit(1)
"""


@fork_only
class TestCoordinatorCrashCleanup:
    def test_coordinator_exception_kills_all_workers(self):
        """An exception in the coordinator mid-superstep must take every
        forked shard worker down with it: the run_parallel finally block
        SIGKILLs and reaps them, so the driver sees no active children
        and the whole process group is empty afterwards (mirrors the
        supervised-runner SIGINT drain test)."""
        repo_root = Path(__file__).resolve().parent.parent
        script = _COORDINATOR_CRASH_DRIVER.format(
            src=str(repo_root / "src"), root=str(repo_root)
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,  # own process group, so we can prove it empty
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 0, err
        assert "CLEAN" in out and "NO-CRASH" not in out
        # The whole process group died with the driver: no orphan workers.
        time.sleep(0.2)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
