"""Tests for the crossbar: link queueing and per-channel ports.

The send rule (start at the later of now and the port's ``free_at``,
occupy it for ``cycles_per_packet``, deliver ``latency`` later) runs
only inside the engine, so these tests drive short traces through it
(``trace_runs``) and check exact latencies and the link counters.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import paper_config
from repro.sim.address import AddressMap
from repro.sim.interconnect import Crossbar, Link
from tests.trace_runs import LINE, check_conservation, config, run_trace

A, B = 0, LINE  # adjacent lines, one channel (config() has one)


def l1_bypass(sim):
    """Every access misses the L1, so repeats are L2 hits over the crossbar."""
    sim.set_l1_bypass(0, True)


def l2_hit_latency(cfg) -> float:
    """One uncontended L2 hit: request packet, L2, response packet."""
    xbar = Crossbar(cfg)
    req = xbar.request_ports[0].cycles_per_packet
    resp = xbar.response_ports[0].cycles_per_packet
    return req + cfg.icnt_latency + cfg.l2_hit_latency + resp + cfg.icnt_latency


class TestLink:
    def test_uncontended_delivery_time(self):
        cfg = config()
        run = run_trace([[(1, [A]), (1, [A])]], cfg, prepare=l1_bypass)
        assert run.latencies[1] == pytest.approx(l2_hit_latency(cfg))

    def test_back_to_back_packets_queue(self):
        """Two misses to one channel in one instant: the second request
        waits one packet time for the port."""
        run = run_trace([[(1, [A, B])]])
        port = run.sim.crossbar.request_ports[0]
        assert port.packets == 2
        assert port.queue_cycles == pytest.approx(port.cycles_per_packet)

    def test_idle_gap_resets_queueing(self):
        """Misses one memory instruction apart find the port idle."""
        run = run_trace([[(1, [A]), (1, [B]), (1, [2 * LINE])]])
        port = run.sim.crossbar.request_ports[0]
        assert port.packets == 3
        assert port.queue_cycles == 0.0

    def test_statistics(self):
        run = run_trace([[(1, [A]), (1, [A])]], prepare=l1_bypass)
        req = run.sim.crossbar.request_ports[0]
        resp = run.sim.crossbar.response_ports[0]
        assert (req.packets, resp.packets) == (2, 2)
        assert req.busy_cycles == pytest.approx(2 * req.cycles_per_packet)
        assert resp.busy_cycles == pytest.approx(2 * resp.cycles_per_packet)
        assert (req.queue_cycles, resp.queue_cycles) == (0.0, 0.0)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            Link(latency=1, cycles_per_packet=0)

    @given(st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=4,
                             unique=True), min_size=1, max_size=30))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fifo_order_and_rate_bound(self, requests):
        """Random traffic from three warps: each port serialises its
        packets at its rate, and every packet is accounted for."""
        traces = [[(1, [tag * LINE for tag in lines]) for lines in requests]
                  for _ in range(3)]
        run = run_trace(traces, config(n_channels=2), cycles=4000)
        check_conservation(run.sim)


class TestCrossbar:
    def test_response_port_slower_than_request_port(self):
        xbar = Crossbar(paper_config())
        req = xbar.request_ports[0].cycles_per_packet
        resp = xbar.response_ports[0].cycles_per_packet
        assert resp > req, "responses carry a full cache line"

    def test_one_port_pair_per_channel(self):
        cfg = paper_config()
        xbar = Crossbar(cfg)
        assert len(xbar.request_ports) == cfg.n_channels
        assert len(xbar.response_ports) == cfg.n_channels

    def test_channels_independent(self):
        """Two L2 hits in one instant on different channels: no port
        queues, and the instruction takes one uncontended hit time."""
        cfg = config(n_channels=2)
        a, b = 0, cfg.interleave_bytes
        amap = AddressMap.from_config(cfg)
        assert amap.channel_of(a) != amap.channel_of(b)
        run = run_trace([[(1, [a, b]), (1, [a, b])]], cfg, prepare=l1_bypass)
        ports = run.sim.crossbar.request_ports + run.sim.crossbar.response_ports
        assert [p.queue_cycles for p in ports] == [0.0] * 4
        assert run.latencies[1] == pytest.approx(l2_hit_latency(cfg))

    def test_same_channel_contends(self):
        """Two L2 hits in one instant on one channel: the second response
        waits for the first, so the instruction takes one response
        packet longer than an uncontended hit."""
        cfg = config()
        run = run_trace([[(1, [A, B]), (1, [A, B])]], cfg, prepare=l1_bypass)
        resp = run.sim.crossbar.response_ports[0]
        assert resp.queue_cycles > 0.0
        assert run.latencies[1] == pytest.approx(
            l2_hit_latency(cfg) + resp.cycles_per_packet
        )
