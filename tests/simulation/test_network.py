"""Unit tests for the inter-site network link model."""

import pytest

from repro.simulation import LinkDownError, NetworkLink, SitePair, Simulator


@pytest.fixture()
def sim():
    return Simulator(seed=3)


class TestNetworkLink:
    def test_latency_only_transfer(self, sim):
        link = NetworkLink(sim, latency=0.010)

        def proc(sim):
            elapsed = yield from link.transfer(1000)
            return elapsed

        result = sim.run_until_complete(sim.spawn(proc(sim)))
        assert result == pytest.approx(0.010)
        assert link.bytes_transferred == 1000
        assert link.transfer_count == 1

    def test_bandwidth_adds_serialisation_delay(self, sim):
        link = NetworkLink(sim, latency=0.010,
                           bandwidth_bytes_per_s=1_000_000)

        def proc(sim):
            return (yield from link.transfer(500_000))

        result = sim.run_until_complete(sim.spawn(proc(sim)))
        assert result == pytest.approx(0.010 + 0.5)

    def test_serialisation_is_fifo_shared(self, sim):
        link = NetworkLink(sim, latency=0.0,
                           bandwidth_bytes_per_s=1_000)
        finish = []

        def proc(sim, tag):
            yield from link.transfer(1_000)  # 1 second each on the wire
            finish.append((tag, sim.now))

        sim.spawn(proc(sim, "a"))
        sim.spawn(proc(sim, "b"))
        sim.run()
        assert finish == [("a", pytest.approx(1.0)),
                          ("b", pytest.approx(2.0))]

    def test_bandwidth_queue_is_fifo_and_depth_is_tracked(self, sim):
        """Three concurrent transfers (the pipelined window's shape)
        serialise in arrival order on the shared wire: transfer N
        arrives serialisation*N + latency after the start, and the
        queue-depth probes see all three contending."""
        link = NetworkLink(sim, latency=0.1,
                           bandwidth_bytes_per_s=1_000)
        finish = []

        def proc(sim, tag):
            yield from link.transfer(1_000)  # 1 s on the wire each
            finish.append((tag, sim.now))

        for tag in ("a", "b", "c"):
            sim.spawn(proc(sim, tag))
        sim.run()
        assert finish == [("a", pytest.approx(1.1)),
                          ("b", pytest.approx(2.1)),
                          ("c", pytest.approx(3.1))]
        assert link.peak_queue_depth == 3
        assert link.queue_depth == 0  # drained

    def test_latency_only_link_has_no_queue(self, sim):
        link = NetworkLink(sim, latency=0.05)

        def proc(sim):
            yield from link.transfer(10_000)

        sim.spawn(proc(sim))
        sim.spawn(proc(sim))
        sim.run()
        assert link.queue_depth == 0
        assert link.peak_queue_depth == 0

    def test_jitter_stays_in_bounds_and_is_deterministic(self):
        def sample(seed):
            sim = Simulator(seed=seed)
            link = NetworkLink(sim, latency=0.1, jitter_fraction=0.5,
                               name="j")
            return [link.one_way_delay() for _ in range(100)]

        delays = sample(9)
        assert all(0.05 <= d <= 0.15 for d in delays)
        assert delays == sample(9)
        assert delays != sample(10)

    def test_down_link_rejects_transfer(self, sim):
        link = NetworkLink(sim, latency=0.01)
        link.fail()

        def proc(sim):
            yield from link.transfer(10)

        p = sim.spawn(proc(sim))
        sim.run()
        with pytest.raises(LinkDownError):
            _ = p.result

    def test_mid_flight_failure(self, sim):
        link = NetworkLink(sim, latency=1.0)

        def proc(sim):
            yield from link.transfer(10)

        p = sim.spawn(proc(sim))
        sim.call_at(0.5, link.fail)
        sim.run()
        with pytest.raises(LinkDownError):
            _ = p.result

    def test_restore_after_failure(self, sim):
        link = NetworkLink(sim, latency=0.01)
        link.fail()
        link.restore()
        assert link.is_up

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            NetworkLink(sim, latency=-1)
        with pytest.raises(ValueError):
            NetworkLink(sim, latency=0, bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            NetworkLink(sim, latency=0, jitter_fraction=1.5)

    def test_negative_payload_rejected(self, sim):
        link = NetworkLink(sim, latency=0.01)

        def proc(sim):
            yield from link.transfer(-5)

        p = sim.spawn(proc(sim))
        sim.run()
        with pytest.raises(ValueError):
            _ = p.result


class TestSitePair:
    def test_fail_and_restore_both_directions(self, sim):
        pair = SitePair(sim, latency=0.01)
        assert pair.forward.is_up and pair.backward.is_up
        pair.fail()
        assert not pair.forward.is_up
        assert not pair.backward.is_up
        pair.restore()
        assert pair.forward.is_up and pair.backward.is_up
