"""MPI point-to-point: delivery, ordering, wait modes."""

import pytest

from repro.config import ClusterConfig, MachineConfig, MpiConfig
from repro.machine import Cluster
from repro.mpi.messages import Message
from repro.mpi.world import MpiJob
from repro.units import ms, s


def run_job(body_factory, n_ranks=2, tpn=2, mpi=None, n_nodes=2, cpn=2, seed=0):
    cfg = ClusterConfig(
        machine=MachineConfig(n_nodes=n_nodes, cpus_per_node=cpn),
        mpi=mpi if mpi is not None else MpiConfig(progress_threads_enabled=False),
        seed=seed,
    )
    cluster = Cluster(cfg)
    job = MpiJob(cluster, cluster.place(n_ranks, tpn), body_factory, config=cfg.mpi)
    job.run(horizon_us=s(30))
    return cluster, job


class TestSendRecv:
    def test_payload_delivered(self):
        got = {}

        def body(rank, api):
            if rank == 0:
                yield from api.send(1, "tag", {"k": 41})
            else:
                got["payload"] = yield from api.recv(0, "tag")

        run_job(body)
        assert got["payload"] == {"k": 41}

    def test_recv_before_send_spins_until_arrival(self):
        times = {}

        def body(rank, api):
            if rank == 0:
                yield from api.compute(ms(2))
                yield from api.send(1, "t", "late")
            else:
                t0 = api.now
                yield from api.recv(0, "t")
                times["waited"] = api.now - t0

        run_job(body)
        assert times["waited"] >= ms(2)

    def test_send_before_recv_buffers(self):
        got = {}

        def body(rank, api):
            if rank == 0:
                yield from api.send(1, "t", "early")
            else:
                yield from api.compute(ms(2))
                got["v"] = yield from api.recv(0, "t")

        run_job(body)
        assert got["v"] == "early"

    def test_message_order_preserved_same_tag(self):
        got = []

        def body(rank, api):
            if rank == 0:
                for i in range(5):
                    yield from api.send(1, "t", i)
            else:
                for _ in range(5):
                    got.append((yield from api.recv(0, "t")))

        run_job(body)
        assert got == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self):
        got = {}

        def body(rank, api):
            if rank == 0:
                yield from api.send(1, "a", "A")
                yield from api.send(1, "b", "B")
            else:
                got["b"] = yield from api.recv(0, "b")
                got["a"] = yield from api.recv(0, "a")

        run_job(body)
        assert got == {"a": "A", "b": "B"}

    def test_intra_node_faster_than_inter_node(self):
        times = {}

        def make(key):
            def body(rank, api):
                if rank == 0:
                    t0 = api.now
                    yield from api.send(1, "t", None)
                    yield from api.recv(1, "u")
                    times[key] = api.now - t0
                else:
                    yield from api.recv(0, "t")
                    yield from api.send(0, "u", None)

            return body

        run_job(make("intra"), n_ranks=2, tpn=2)       # same node
        run_job(make("inter"), n_ranks=2, tpn=1)       # different nodes
        assert times["intra"] < times["inter"]

    def test_block_wait_mode(self):
        mpi = MpiConfig(progress_threads_enabled=False, wait_mode="block")
        got = {}

        def body(rank, api):
            if rank == 0:
                yield from api.compute(ms(1))
                yield from api.send(1, "t", 7)
            else:
                got["v"] = yield from api.recv(0, "t")

        run_job(body, mpi=mpi)
        assert got["v"] == 7

    def test_exchange_is_deadlock_free(self):
        """Symmetric eager send-then-recv on both sides must complete."""

        def body(rank, api):
            other = 1 - rank
            yield from api.send(other, "x", rank)
            got = yield from api.recv(other, "x")
            assert got == other

        run_job(body)


class TestJobLifecycle:
    def test_elapsed_and_finish_time(self):
        def body(rank, api):
            yield from api.compute(ms(1))

        cluster, job = run_job(body)
        assert job.done
        assert job.elapsed_us >= ms(1)

    def test_unfinished_raises_on_horizon(self):
        def body(rank, api):
            if rank == 1:
                yield from api.recv(0, "never")  # deadlock by design

        cfg = ClusterConfig(
            machine=MachineConfig(n_nodes=1, cpus_per_node=2),
            mpi=MpiConfig(progress_threads_enabled=False),
        )
        cluster = Cluster(cfg)
        job = MpiJob(cluster, cluster.place(2, 2), body, config=cfg.mpi)
        with pytest.raises(RuntimeError, match="incomplete"):
            job.run(horizon_us=ms(50))

    def test_finish_time_before_done_raises(self):
        def body(rank, api):
            yield from api.compute(ms(100))

        cfg = ClusterConfig(machine=MachineConfig(n_nodes=1, cpus_per_node=2))
        cluster = Cluster(cfg)
        job = MpiJob(cluster, cluster.place(2, 2), body)
        with pytest.raises(RuntimeError):
            _ = job.finish_time

    def test_timer_threads_spawned_and_stop(self):
        mpi = MpiConfig(progress_threads_enabled=True, progress_interval_us=ms(5))

        def body(rank, api):
            yield from api.compute(ms(12))

        cluster, job = run_job(body, mpi=mpi)
        assert len(job.timer_threads) == 2
        # After completion the timer bodies exit at their next wake.
        cluster.sim.run_until(cluster.sim.now + ms(600))
        assert all(t.finished for t in job.timer_threads)

    def test_priority_mirroring_to_timer_threads(self):
        mpi = MpiConfig(progress_threads_enabled=True)

        def body(rank, api):
            yield from api.compute(ms(5))

        cfg = ClusterConfig(machine=MachineConfig(n_nodes=1, cpus_per_node=2), mpi=mpi)
        cluster = Cluster(cfg)
        job = MpiJob(cluster, cluster.place(2, 2), body, config=mpi)
        task0 = job.tasks[0]
        timer0 = job.timer_threads[0]
        cluster.nodes[0].scheduler.set_priority(task0, 30)
        assert timer0.priority == 30

    def test_trace_marks_via_api(self):
        from repro.trace.recorder import TraceRecorder

        cfg = ClusterConfig(
            machine=MachineConfig(n_nodes=1, cpus_per_node=2),
            mpi=MpiConfig(progress_threads_enabled=False),
        )
        cluster = Cluster(cfg, trace=TraceRecorder())

        def body(rank, api):
            api.trace_mark("hello", payload=rank)
            yield from api.compute(1.0)

        job = MpiJob(cluster, cluster.place(2, 2), body, config=cfg.mpi)
        job.run(horizon_us=s(1))
        assert len(cluster.trace.marks_named("hello")) == 2


class TestConstantCostRequests:
    """MpiWorld builds its constant-cost requests once and shares them."""

    @staticmethod
    def _world(overhead_us=None):
        from repro.config import NetworkConfig
        from repro.mpi.world import MpiWorld

        net = NetworkConfig() if overhead_us is None else NetworkConfig(overhead_us=overhead_us)
        cfg = ClusterConfig(
            machine=MachineConfig(n_nodes=1, cpus_per_node=2),
            network=net,
            mpi=MpiConfig(progress_threads_enabled=False),
        )
        cluster = Cluster(cfg)
        return MpiWorld(cluster, cluster.place(2, 2), cfg.mpi)

    def test_send_recv_and_reduce_share_one_instance_each(self):
        from dataclasses import FrozenInstanceError
        import operator

        world = self._world()
        sends = [next(world.send(0, 1, ("t", i), None, 8)) for i in range(3)]
        assert all(req is sends[0] for req in sends)
        world._on_arrive(Message(0, 1, "x", None, 8))
        assert next(world.recv(1, 0, "x")) is sends[0]
        reduces = [next(world.reduce_local(operator.add, 1, 2, 8)) for _ in range(2)]
        assert reduces[0] is reduces[1]
        assert reduces[0].duration_us == world.config.reduce_op_us
        with pytest.raises(FrozenInstanceError):
            sends[0].duration_us = 0.0

    def test_world_charges_its_configured_overhead(self):
        req = next(self._world(overhead_us=7.25).send(0, 1, "t", None, 8))
        assert req.duration_us == 7.25
        default = next(self._world().send(0, 1, "t", None, 8))
        assert default.duration_us != 7.25

    def test_configured_overhead_reaches_cpu_time(self):
        from repro.config import NetworkConfig

        def body(rank, api):
            if rank == 0:
                yield from api.send(1, "t", None)
            else:
                yield from api.recv(0, "t")

        used = {}
        for overhead in (5.0, 40.0):
            cfg = ClusterConfig(
                machine=MachineConfig(n_nodes=2, cpus_per_node=2),
                network=NetworkConfig(overhead_us=overhead),
                mpi=MpiConfig(progress_threads_enabled=False),
            )
            cluster = Cluster(cfg)
            job = MpiJob(cluster, cluster.place(2, 1), body, config=cfg.mpi)
            job.run(horizon_us=s(1))
            used[overhead] = job.tasks[0].stats.cpu_time_us
        assert used[40.0] - used[5.0] == pytest.approx(35.0)


class TestMailbox:
    def test_drained_mailbox_keeps_no_empty_queues(self):
        """Early arrivals wait in the mailbox; once received, their keys
        go (collective tags are unique per operation, so empty queues
        would only accumulate)."""

        def body(rank, api):
            for _ in range(20):
                yield from api.compute(50.0 if rank else 500.0)
                yield from api.allreduce(1.0)

        _cluster, job = run_job(body, n_ranks=4, tpn=2)
        assert job.world.pending_messages() == 0
        assert job.world._mail == {}
