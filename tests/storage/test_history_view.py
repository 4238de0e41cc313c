"""Cached ``WriteHistory.records`` view.

The checker walks ``history.records`` after every converged scenario;
pre-cache, each read rebuilt an O(n) tuple.  The view must now be built
once per generation of appends and shared by every reader until the
next append invalidates it.
"""

from repro.storage.history import WriteHistory


def fill(history, count, volume_id=7):
    for index in range(count):
        history.append_many(float(index),
                            [(volume_id, index % 4, index + 1, None)])


class TestCachedRecordsView:
    def test_repeated_reads_share_one_tuple(self):
        history = WriteHistory()
        fill(history, 50)
        first = history.records
        assert history.records is first
        assert history.records is first
        # exactly one construction for any number of reads
        assert history.view_builds == 1

    def test_append_invalidates_the_view(self):
        history = WriteHistory()
        fill(history, 10)
        stale = history.records
        history.append_many(99.0, [(7, 0, 11, None)])
        fresh = history.records
        assert fresh is not stale
        assert len(fresh) == len(stale) + 1
        assert history.view_builds == 2
        # the stale view is an immutable snapshot, still intact
        assert len(stale) == 10

    def test_build_count_is_per_generation_not_per_read(self):
        """The regression guard: N interleaved append/read rounds cost
        exactly N tuple constructions, never N * reads."""
        history = WriteHistory()
        rounds = 20
        for round_index in range(rounds):
            history.append_many(float(round_index),
                                [(7, 0, round_index + 1, None)])
            for _ in range(10):  # checker-style repeated reads
                assert history.records[-1].version == round_index + 1
        assert history.view_builds == rounds

    def test_view_is_a_real_tuple(self):
        history = WriteHistory()
        fill(history, 8)
        view = history.records
        assert isinstance(view, tuple)
        assert [record.seq for record in view[2:5]] == [2, 3, 4]
        assert view[-1].version == 8

    def test_empty_history_view(self):
        history = WriteHistory()
        assert history.records == ()
        assert history.records is history.records
