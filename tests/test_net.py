"""Fabric delivery timing and the switch clock."""

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.net.fabric import Fabric
from repro.net.switch import SwitchClock
from repro.sim.core import Simulator


class TestNetworkConfig:
    def test_p2p_time_internode(self):
        net = NetworkConfig(latency_us=24.0, per_byte_us=0.001)
        assert net.p2p_time(1000, same_node=False) == pytest.approx(25.0)

    def test_p2p_time_intranode_cheaper(self):
        net = NetworkConfig()
        assert net.p2p_time(8, True) < net.p2p_time(8, False)


class TestFabric:
    def test_delivery_time_and_payload(self):
        sim = Simulator()
        fab = Fabric(sim, NetworkConfig(latency_us=24.0, per_byte_us=0.0005))
        got = []
        arrival = fab.transmit(0, 1, 8, "hello", got.append)
        assert arrival == pytest.approx(24.0 + 8 * 0.0005)
        sim.run()
        assert got == ["hello"]
        assert sim.now == pytest.approx(arrival)

    def test_intra_node_uses_shm_latency(self):
        sim = Simulator()
        net = NetworkConfig(latency_us=24.0, shm_latency_us=3.0, per_byte_us=0.0)
        fab = Fabric(sim, net)
        assert fab.transmit(2, 2, 0, None, lambda m: None) == pytest.approx(3.0)

    def test_stats(self):
        sim = Simulator()
        fab = Fabric(sim, NetworkConfig())
        fab.transmit(0, 1, 100, None, lambda m: None)
        fab.transmit(1, 1, 50, None, lambda m: None)
        assert fab.stats.messages == 2
        assert fab.stats.bytes == 150
        assert fab.stats.intra_node == 1

    def test_negative_bytes_raise(self):
        fab = Fabric(Simulator(), NetworkConfig())
        with pytest.raises(ValueError):
            fab.transmit(0, 1, -1, None, lambda m: None)

    def test_tracked_arrivals_report_the_earliest_in_flight(self):
        """Parallel DES bounds a shard's next send by the messages still on
        its wire: tracked arrivals are reported until they fire."""
        sim = Simulator()
        net = NetworkConfig(latency_us=24.0, shm_latency_us=3.0, per_byte_us=0.0)
        fab = Fabric(sim, net, track_arrivals=True)
        assert fab.next_arrival() == float("inf")
        fab.transmit(0, 1, 0, None, lambda m: None)
        fab.transmit(2, 2, 0, None, lambda m: None)
        fab.schedule_arrival(10.0, lambda m: None, None)
        assert fab.next_arrival() == pytest.approx(3.0)
        sim.run_until(5.0)
        assert fab.next_arrival() == pytest.approx(10.0)
        sim.run()
        assert fab.next_arrival() == float("inf")

    def test_ordering_preserved_same_pair(self):
        sim = Simulator()
        fab = Fabric(sim, NetworkConfig(per_byte_us=0.0))
        got = []
        fab.transmit(0, 1, 8, "first", got.append)
        fab.transmit(0, 1, 8, "second", got.append)
        sim.run()
        assert got == ["first", "second"]


class TestSwitchClock:
    def test_read_error_bounded(self):
        clk = SwitchClock(np.random.default_rng(0), read_error_us=2.0)
        errs = [clk.read(1000.0) - 1000.0 for _ in range(200)]
        assert all(abs(e) <= 2.0 for e in errs)
        assert clk.reads == 200

    def test_zero_error_exact(self):
        clk = SwitchClock(np.random.default_rng(0), read_error_us=0.0)
        assert clk.read(123.0) == 123.0

    def test_negative_error_raises(self):
        with pytest.raises(ValueError):
            SwitchClock(np.random.default_rng(0), read_error_us=-1.0)
