"""The vectorised Allreduce series model.

State is one vector: each rank's ready time.  A call advances every rank
through the recursive-doubling schedule round by round; each round is a
numpy maximum/propagation over partner indices, with noise injected from
:class:`~repro.analytic.noise.NoiseInjector`.  Non-power-of-two sizes use
the exact MPICH fold/unfold structure, so round counts (and therefore the
zero-noise logarithmic baseline) match the DES implementation.

The model is *the cascade, vectorised*: a single delayed rank propagates
its lateness to its partner, then to the partner's partners — max-plus
algebra over the exchange graph — which is why noise turns logarithmic
scaling linear exactly as the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ClusterConfig
from repro.analytic.noise import NoiseInjector

__all__ = ["AllreduceSeriesModel", "SeriesResult"]


@dataclass
class SeriesResult:
    """Outcome of one modelled series of Allreduce calls."""

    #: Mean-over-ranks duration of each call (µs).
    durations_us: np.ndarray
    n_ranks: int
    tasks_per_node: int

    @property
    def mean_us(self) -> float:
        return float(np.mean(self.durations_us))

    @property
    def median_us(self) -> float:
        return float(np.median(self.durations_us))

    @property
    def max_us(self) -> float:
        return float(np.max(self.durations_us))

    @property
    def min_us(self) -> float:
        return float(np.min(self.durations_us))

    @property
    def std_us(self) -> float:
        return float(np.std(self.durations_us))


class AllreduceSeriesModel:
    """Models a rank's-eye series of Allreduce calls at scale.

    Parameters mirror the DES entry points: the same
    :class:`~repro.config.ClusterConfig`, job shape, and a seed.
    """

    def __init__(
        self,
        config: ClusterConfig,
        n_ranks: int,
        tasks_per_node: int,
        seed: int = 0,
    ) -> None:
        if n_ranks < 2:
            raise ValueError("need at least 2 ranks")
        self.config = config
        self.n = int(n_ranks)
        self.tpn = int(tasks_per_node)
        self.rng = np.random.default_rng(seed)
        self.noise = NoiseInjector(config, n_ranks, tasks_per_node, self.rng)

        net = config.network
        self.o = net.overhead_us
        self.r = config.mpi.reduce_op_us
        # Per-pair latency depends on co-residency.
        self._node_of = np.arange(n_ranks) // tasks_per_node

        # Exchange schedule (fold / recursive doubling / unfold).
        self._build_schedule()

    # ------------------------------------------------------------------
    # Schedule construction
    # ------------------------------------------------------------------
    def _build_schedule(self) -> None:
        # Built once per model with the schedule: everything a call needs
        # that does not depend on the call (index arrays, pair latencies).
        n = self.n
        pof2 = 1 << (n.bit_length() - 1)
        rem = n - pof2
        self.pof2 = pof2
        self.rem = rem

        # Mapping rank -> "newrank" in the power-of-two phase (-1 for the
        # folded-out even ranks).
        ranks = np.arange(n)
        newrank = np.where(
            ranks < 2 * rem,
            np.where(ranks % 2 == 0, -1, ranks // 2),
            ranks - rem,
        )
        # Inverse: newrank -> real rank.
        inv = np.full(pof2, -1, dtype=int)
        active = newrank >= 0
        act_ranks = ranks[active]
        inv[newrank[active]] = act_ranks
        # Position of each active rank within the active subset.
        pos = np.full(n, -1, dtype=int)
        pos[act_ranks] = np.arange(act_ranks.size)

        # Ranks in the power-of-two phase; fold pairs are (2i, 2i+1), i < rem.
        self._act = slice(None) if rem == 0 else act_ranks
        self._evens = slice(0, 2 * rem, 2)
        self._odds = slice(1, 2 * rem, 2)
        self._fold_lat = self._pair_latency(ranks[self._evens], ranks[self._odds])
        self._unfold_lat = self._pair_latency(ranks[self._odds], ranks[self._evens])

        self.rounds: list[np.ndarray] = []  # per-round partner (real ranks), -1 = idle
        # Per round: partner positions among the active ranks, latencies.
        self._steps: list[tuple[np.ndarray, np.ndarray]] = []
        mask = 1
        while mask < pof2:
            partner = np.full(n, -1, dtype=int)
            p = inv[newrank[active] ^ mask]
            partner[active] = p
            self.rounds.append(partner)
            self._steps.append((pos[p], self._pair_latency(act_ranks, p)))
            mask <<= 1

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run_series(
        self,
        n_calls: int,
        compute_between_us: float = 0.0,
        t_start: float = 0.0,
    ) -> SeriesResult:
        """Model *n_calls* back-to-back Allreduce calls; returns durations.

        Without co-scheduling this is a single run.  With it, a run of a
        few hundred calls is far shorter than the 5 s window cycle, so a
        single wall-time placement would sample only one phase; instead
        the series is **stratified**: ``duty_cycle`` of the calls run
        inside the favored window (deferrable daemons silent) and the rest
        inside the unfavored window (daemons at stationary rates), plus
        the once-per-period flip stall — the overlapped execution of the
        piled-up daemon backlog, which costs the job ``max`` over ranks of
        their backlogs (everyone stalls simultaneously: the paper's whole
        point) amortised over the calls of one period.
        """
        if not self.noise.cosched_on:
            return SeriesResult(
                self._run_block(n_calls, compute_between_us, t_start), self.n, self.tpn
            )
        duty = self.noise.favored_len / self.noise.period
        n_unf = max(1, int(round(n_calls * (1.0 - duty))))
        n_fav = max(1, n_calls - n_unf)
        d_fav = self._run_block(n_fav, compute_between_us, t_start, True)
        d_unf = self._run_block(n_unf, compute_between_us, t_start, False)
        durations = np.concatenate([d_fav, d_unf])
        # Amortised flip stall: once per period the whole job pays the
        # slowest rank's deferred-daemon backlog plus the flip-noticing
        # latency, simultaneously on every node.
        mean_wall = float(durations.mean()) + compute_between_us
        calls_per_period = max(1.0, self.noise.period / mean_wall)
        durations += float(np.max(self.noise.window_stall)) / calls_per_period
        return SeriesResult(durations, self.n, self.tpn)

    def _run_block(
        self,
        n_calls: int,
        compute_between_us: float,
        t_start: float,
        favored: bool = False,
    ) -> np.ndarray:
        n = self.n
        o, r = self.o, self.r
        net = self.config.network
        draw = self.noise.draw
        act, evens, odds = self._act, self._evens, self._odds
        ready = np.full(n, float(t_start))
        durations = np.empty(n_calls)
        # Exposure estimate per round: overheads + a wire hop (the noise
        # rates are far below 1/round, so precision here barely matters).
        base_round = 2 * o + r + net.latency_us
        hardware = self.config.mpi.algorithm == "hardware"

        for call in range(n_calls):
            if compute_between_us > 0.0:
                ready += compute_between_us
                ready += draw(compute_between_us, favored)
            start = ready.copy()
            t0 = float(ready.min())

            if hardware:
                # Switch-combined: one deposit per rank, combine after the
                # slowest, synchronous fan-out.  Laggard sensitivity stays
                # (the max), the log-depth software cascade is gone.
                deposit = ready + o + draw(base_round, favored)
                done = (
                    float(deposit.max())
                    + net.latency_us
                    + net.hw_collective_latency_us
                )
                ready = np.full(n, done + o)
            else:
                # ---- fold phase (non-power-of-two) ---------------------
                if self.rem > 0:
                    arrive = ready[evens] + o + self._fold_lat
                    ready[odds] = np.maximum(ready[odds] + o, arrive) + o + r
                    # Evens idle until the unfold at the end.

                # ---- recursive doubling --------------------------------
                for perm, lat in self._steps:
                    ready += draw(base_round, favored)
                    x = ready[act] + o  # own send time and own-side term
                    arrive = x[perm]
                    arrive += lat
                    np.maximum(x, arrive, out=x)
                    x += o
                    x += r
                    ready[act] = x

                # ---- unfold phase --------------------------------------
                if self.rem > 0:
                    arrive = ready[odds] + o + self._unfold_lat
                    ready[evens] = np.maximum(ready[evens] + o, arrive) + o

            # ---- long outliers (cron) -----------------------------------
            t1 = float(ready.max())
            cron = self.noise.cron_hits(t0, max(t1, t0 + 1.0))
            if cron.any():
                ready += cron

            durations[call] = float(np.mean(ready - start))

        return durations

    # ------------------------------------------------------------------
    def _pair_latency(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        net = self.config.network
        same = self._node_of[a] == self._node_of[b]
        nbytes = 8
        return np.where(
            same,
            net.shm_latency_us + nbytes * net.per_byte_us,
            net.latency_us + nbytes * net.per_byte_us,
        )
