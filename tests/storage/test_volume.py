"""Unit tests for volumes: block I/O, versions, roles, COW hooks."""

import pytest

from repro.errors import VolumeError
from repro.storage import MediaProfile, StorageArray, Volume, VolumeRole
from tests.storage.conftest import run, waited_write


@pytest.fixture()
def volume(sim):
    return Volume(sim, volume_id=1, capacity_blocks=64,
                  media=MediaProfile())


class TestBlockIO:
    def test_read_unallocated_block_returns_none(self, sim, volume):
        assert run(sim, volume.read_block(0)) is None

    def test_write_then_read(self, sim, volume):
        run(sim, waited_write(volume, 3, b"hello"))
        assert run(sim, volume.read_block(3)) == b"hello"

    def test_write_returns_monotone_versions(self, sim, volume):
        v1 = run(sim, waited_write(volume, 0, b"a"))
        v2 = run(sim, waited_write(volume, 1, b"b"))
        v3 = run(sim, waited_write(volume, 0, b"c"))
        assert v1 < v2 < v3

    def test_io_takes_media_latency(self, sim, volume):
        def proc(sim):
            yield from waited_write(volume, 0, b"x")
            yield from volume.read_block(0)

        run(sim, proc(sim))
        expected = (volume.media.write_latency + volume.media.read_latency)
        assert sim.now == pytest.approx(expected)

    def test_block_out_of_range_rejected(self, sim, volume):
        with pytest.raises(VolumeError):
            run(sim, waited_write(volume, 64, b"x"))
        with pytest.raises(VolumeError):
            run(sim, volume.read_block(-1))

    def test_payload_must_be_bytes(self, sim):
        """Payloads enter a volume through the array's one host-write
        path, which refuses anything but bytes."""
        array = StorageArray(sim, serial="G370-VOL")
        volume = array.create_volume(array.create_pool(64).pool_id, 64)
        with pytest.raises(VolumeError):
            run(sim, array.host_write(volume.volume_id, 0, "text"))
        assert volume.used_blocks == 0

    def test_blocked_volume_rejects_io(self, sim, volume):
        volume.block_volume()
        with pytest.raises(VolumeError):
            run(sim, volume.read_block(0))

    def test_explicit_version_apply(self, sim, volume):
        run(sim, waited_write(volume, 5, b"r", version=10))
        value = volume.peek(5)
        assert value.version == 10
        assert volume.version_counter == 10

    def test_out_of_order_apply_rejected(self, sim, volume):
        run(sim, waited_write(volume, 5, b"new", version=10))
        with pytest.raises(VolumeError):
            run(sim, waited_write(volume, 5, b"old", version=9))

    def test_host_version_continues_after_apply(self, sim, volume):
        run(sim, waited_write(volume, 5, b"r", version=10))
        v = run(sim, waited_write(volume, 6, b"h"))
        assert v == 11

    def test_used_blocks_and_counters(self, sim, volume):
        run(sim, waited_write(volume, 0, b"a"))
        run(sim, waited_write(volume, 1, b"b"))
        run(sim, waited_write(volume, 0, b"c"))
        assert volume.used_blocks == 2
        assert volume.writes == 3
        assert sorted(volume.block_map()) == [0, 1]


class TestRoles:
    def test_simplex_is_writable(self, volume):
        assert volume.writable_by_host

    def test_svol_not_writable(self, volume):
        volume.set_role(VolumeRole.SVOL)
        assert not volume.writable_by_host

    def test_promoted_svol_writable(self, volume):
        volume.set_role(VolumeRole.SSWS)
        assert volume.writable_by_host

    def test_capacity_validation(self, sim):
        with pytest.raises(VolumeError):
            Volume(sim, 1, 0, MediaProfile())


class TestMediaProfile:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            MediaProfile(read_latency=-1)
