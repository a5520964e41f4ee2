"""The four benchmark workloads.

Each workload is shaped like one of the paper's artefacts and stresses a
different set of layers (see README.md in this directory).  A workload
object is built for one case of a ``--seed``; per iteration the runner
calls :meth:`setup` (reported as set-up time), :meth:`run` (the timed
region) and :meth:`check`, which turns the result into an
:class:`Outcome` for the correctness gate.

The program only ever sees inputs made from the seed: the model seed of
the simulated cluster, or the base seed of a sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np


def sha256_json(payload) -> str:
    """Digest of a JSON-able payload; floats keep every digit (repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one iteration produced, for the correctness gate and metrics."""

    #: Digest of the iteration's output, compared against the pinned
    #: digest, against the other iterations, and traced against untraced.
    digest: str
    #: Operations attempted (Allreduce calls or trials) and how many failed.
    attempted: int
    failed: int
    #: Simulated Allreduce durations the workload records (µs).
    durations_us: np.ndarray
    #: Workload-specific counts (superstep and supervisor accounting).
    facts: dict = field(default_factory=dict)
    #: Why any operation failed, for the report.
    problems: list = field(default_factory=list)


def _call_outcome(digest, per_rank: dict, calls: int, values_ok: bool) -> Outcome:
    """Outcome of an Allreduce-series run: every recorded rank must have
    completed every call, and every reduction must have been correct."""
    problems = []
    attempted = len(per_rank) * calls
    completed = sum(min(len(d), calls) for d in per_rank.values())
    failed = attempted - completed
    if failed:
        problems.append(f"{failed} recorded calls did not complete")
    if not values_ok:
        failed = attempted
        problems.append("reduction values_ok is false")
    durations = np.concatenate([np.asarray(d, dtype=float) for d in per_rank.values()])
    return Outcome(digest, attempted, failed, durations, problems=problems)


class Workload:
    """Defaults shared by the workloads."""

    #: Worker processes the timed region uses (runner overhead accounting).
    JOBS = 1

    def __init__(self, case, workdir: str) -> None:
        #: The inputs of this case, made from ``--seed`` by :meth:`cases`.
        self.case = case
        self.workdir = workdir

    @staticmethod
    def cases(seed: int) -> list:
        """The cases one pass runs; by default one, the model seed."""
        return [seed]

    def prepare(self) -> None:
        """One-time set-up before the first iteration."""

    def setup(self):
        """Per-iteration set-up; returns the state :meth:`run` consumes."""
        return None

    def run(self, state):
        """The timed region; returns the program's result."""
        raise NotImplementedError

    def check(self, result) -> Outcome:
        """Turn a result of :meth:`run` into an :class:`Outcome`."""
        raise NotImplementedError

    def run_in_process(self, state):
        """Extra traced run whose layers are visible in this process."""
        return None

    def reference_digest(self) -> str:
        """The digest the benchmark pins for this case."""
        return self.check(self.run(self.setup())).digest


class Fig4(Workload):
    """``run_fig4()`` at its defaults with the seed as its model seed."""

    name = "fig4"
    default_seed = 4
    modules = ("repro.experiments.fig4",)

    def run(self, state):
        from repro.experiments.fig4 import run_fig4

        return run_fig4(seed=self.case)

    def check(self, res) -> Outcome:
        durs = res.sorted_durations_us
        # The pinned figure digest: sha256 of the sorted analytic series.
        digest = hashlib.sha256(durs.tobytes()).hexdigest()
        attempted = 448
        failed = attempted - int(np.count_nonzero(np.isfinite(durs) & (durs > 0)))
        problems = [f"{failed} analytic calls missing or non-finite"] if failed else []
        attribution = sha256_json([repr(res.outlier_attribution), res.slowest_culprit])
        return Outcome(
            digest, attempted, failed, durs,
            facts={"attribution_digest": attribution}, problems=problems,
        )


class Cosched(Workload):
    """PROTO16 with 50x time compression, built like the E8 baseline:
    prototype kernel, 100 ms co-scheduler period at 90 % duty, long
    polling, no progress threads; 64 ranks on 4 nodes of 16 CPUs."""

    name = "cosched"
    default_seed = 1
    modules = ("repro.apps.aggregate_trace", "repro.system")
    N_RANKS = 64
    TPN = 16
    CALLS = 256
    COMPRESSION = 50.0

    def setup(self):
        from repro.config import (ClusterConfig, CoschedConfig, KernelConfig,
                                  MachineConfig, MpiConfig)
        from repro.daemons.catalog import scale_noise, standard_noise
        from repro.system import System
        from repro.units import s

        period = s(5) / self.COMPRESSION
        config = ClusterConfig(
            machine=MachineConfig(n_nodes=self.N_RANKS // self.TPN, cpus_per_node=self.TPN),
            kernel=KernelConfig.prototype(big_tick=max(1, int(round(25 / self.COMPRESSION)))),
            cosched=CoschedConfig(enabled=True, period_us=period, duty_cycle=0.90),
            mpi=MpiConfig.with_long_polling(progress_threads_enabled=False),
            noise=scale_noise(standard_noise(include_cron=False), self.COMPRESSION),
            seed=self.case,
        )
        return System(config)

    def run(self, system):
        from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace

        return run_aggregate_trace(
            system, self.N_RANKS, self.TPN,
            AggregateTraceConfig(calls_per_loop=self.CALLS, compute_between_us=200.0),
        )

    def check(self, res) -> Outcome:
        per_rank = {str(r): [float(x) for x in d] for r, d in sorted(res.node0_durations_us.items())}
        digest = sha256_json({"ranks": per_rank, "ok": res.values_ok, "elapsed_us": res.elapsed_us})
        return _call_outcome(digest, per_rank, self.CALLS, res.values_ok)


class Pdes(Workload):
    """The ``pdes`` aggregate-trace app (vanilla, noise x50, 20 ms between
    calls) under ``run_parallel`` with two forked shard workers, one node
    per shard.

    The sharded engine's cost depends on the model seed: where a few
    daemon activations land decides how many superstep windows a run
    needs, and the cost of one run varies up to threefold between seeds.
    More calls or more seeds per pass do not average that out within the
    time budget, so a pass runs a fixed panel of model seeds (the
    ``pdes`` command's default and its successors), and ``--seed``
    chooses the node whose ranks' per-call durations enter the digest."""

    name = "pdes"
    default_seed = 1234
    modules = ("repro.apps.aggregate_trace", "repro.experiments.pdes")
    N_RANKS = 32
    CALLS = 8
    SHARDS = 2

    PANEL = (1234, 1235, 1236, 1237)

    @classmethod
    def cases(cls, seed: int) -> list:
        return [(model_seed, seed % (cls.N_RANKS // 16)) for model_seed in cls.PANEL]

    def setup(self):
        from repro.daemons.catalog import scale_noise, standard_noise
        from repro.experiments.common import VANILLA16, make_config

        noise = scale_noise(standard_noise(include_cron=False), 50.0)
        model_seed, record_node = self.case
        config = make_config(VANILLA16, n_ranks=self.N_RANKS, noise=noise, seed=model_seed)
        params = dict(
            loops=1, calls_per_loop=self.CALLS, trace_block=64,
            compute_between_us=20000.0, payload_bytes=8, record_nodes=(record_node,),
        )
        return config, params

    def _run(self, state, shards: int, use_processes: bool):
        from repro.sim.parallel import run_parallel
        from repro.units import s

        config, params = state
        return run_parallel(
            config, n_ranks=self.N_RANKS, tasks_per_node=16,
            app="repro.apps.aggregate_trace:sharded_app", app_params=params,
            shards=shards, horizon_us=s(600), use_processes=use_processes,
        )

    def run(self, state):
        return self._run(state, self.SHARDS, use_processes=True)

    def check(self, res) -> Outcome:
        out = _call_outcome(res.digest, res.ranks, self.CALLS, res.ok)
        out.facts = {
            "supersteps": res.supersteps,
            "crossed": res.messages_crossed,
            "events_per_shard": list(res.events_per_shard),
            "recoveries": res.recoveries,
            "run_wall_s": res.wall_s,
        }
        return out

    def run_in_process(self, state):
        """Same shards driven in-process: identical events, visible to the
        tracer (forked workers' counters die with them)."""
        return self._run(state, self.SHARDS, use_processes=False)

    def reference_digest(self) -> str:
        """The serial (one-shard) digest the sharded run must reproduce."""
        return self._run(self.setup(), 1, use_processes=False).digest


class Sweep(Workload):
    """The Fig-3 (VANILLA16) and Fig-5 (PROTO16) sweeps at
    ``PAPER_PROC_COUNTS`` through ``TrialRunner`` (supervised, two jobs)
    with a ``ResultStore`` pre-seeded with every other trial."""

    name = "sweep"
    default_seed = 1000
    modules = ("repro.experiments.fig6", "repro.store")
    N_CALLS = 200
    N_SEEDS = 2
    JOBS = 2

    def __init__(self, case, workdir: str) -> None:
        super().__init__(case, workdir)
        self.seed_store = os.path.join(workdir, "seed-store")
        self._iteration = 0

    def _scenarios(self):
        from repro.experiments.common import PROTO16, VANILLA16

        return (VANILLA16, PROTO16)

    def _specs(self, scenario):
        from repro.experiments.common import PAPER_PROC_COUNTS, allreduce_trial_specs

        return allreduce_trial_specs(
            scenario, PAPER_PROC_COUNTS, self.N_CALLS, self.N_SEEDS, base_seed=self.case
        )

    def prepare(self) -> None:
        """Compute every other trial once, serially, into the seed store;
        each iteration starts from a copy, so it both hits and misses."""
        from repro.experiments.runner import TrialRunner
        from repro.store import ResultStore

        store = ResultStore(self.seed_store)
        for scenario in self._scenarios():
            TrialRunner(jobs=1, store=store).run(self._specs(scenario)[::2])

    def setup(self):
        from repro.store import ResultStore

        self._iteration += 1
        root = os.path.join(self.workdir, f"store-{self._iteration}")
        shutil.copytree(self.seed_store, root)
        return root, ResultStore(root)

    def _sweeps(self, jobs: int, store):
        from repro.experiments.common import allreduce_sweep
        from repro.experiments.runner import TrialRunner

        results, runners = [], []
        for scenario in self._scenarios():
            runner = TrialRunner(jobs=jobs, backend="supervised", store=store)
            results.append(allreduce_sweep(
                scenario, n_calls=self.N_CALLS, n_seeds=self.N_SEEDS,
                base_seed=self.case, runner=runner,
            ))
            runners.append(runner)
        return results, runners

    @staticmethod
    def _digest(results) -> str:
        return sha256_json([[float(x) for x in r.mean_us] for r in results])

    def run(self, state):
        _root, store = state
        results, runners = self._sweeps(self.JOBS, store)
        return results, runners, store

    def check(self, raw) -> Outcome:
        results, runners, store = raw
        n_specs = sum(len(self._specs(s)) for s in self._scenarios())
        failed_keys = [k for r in results for k in r.failed_points]
        problems = [f"failed trials: {failed_keys}"] if failed_keys else []
        failed = len(failed_keys)
        stored = sum(1 for _ in store.fingerprints())
        if stored != n_specs:
            failed += 1
            problems.append(f"store holds {stored} records, expected {n_specs}")
        means = np.concatenate([r.mean_us for r in results])
        if not np.all(np.isfinite(means)):
            failed += 1
            problems.append("non-finite sweep means")
        stats = [r.stats for r in runners if r.stats is not None]
        facts = {
            "spawned": sum(s.spawned for s in stats),
            "retries": sum(sum(s.retries.values()) for s in stats),
        }
        return Outcome(self._digest(results), n_specs, failed, means, facts, problems)

    def reference_digest(self) -> str:
        """The serial, store-less sweep result the benchmark must match."""
        results, _ = self._sweeps(1, None)
        return self._digest(results)


WORKLOADS = {w.name: w for w in (Fig4, Cosched, Pdes, Sweep)}
