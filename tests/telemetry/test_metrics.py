"""Unit tests for the telemetry instruments."""

import pytest

from repro.telemetry import (Counter, Gauge, Histogram, LatencyRecorder,
                             percentile, percentile_sorted)


class TestPercentile:
    def test_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_sorted_variant_matches(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        ordered = sorted(samples)
        for fraction in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert percentile(samples, fraction) == \
                percentile_sorted(ordered, fraction)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestLatencyRecorder:
    def test_summary_matches_exact_percentiles(self):
        recorder = LatencyRecorder("w")
        samples = [(i * 7919 % 100) / 1000.0 for i in range(100)]
        for sample in samples:
            recorder.record(sample)
        summary = recorder.summary()
        assert summary.count == 100
        assert summary.p50 == percentile(samples, 0.50)
        assert summary.p95 == percentile(samples, 0.95)
        assert summary.p99 == percentile(samples, 0.99)
        assert summary.maximum == max(samples)

    def test_record_many_equals_repeated_record(self):
        """One batch call leaves exactly the state ``count`` single
        records leave — in the recorder and in the piped sketch."""
        one_by_one = LatencyRecorder("w").pipe_to(Histogram("h"))
        batched = LatencyRecorder("w").pipe_to(Histogram("h"))
        for latency, count in ((0.0013, 64), (0.0, 3), (0.0207, 1),
                               (0.0013, 17)):
            for _ in range(count):
                one_by_one.record(latency)
            batched.record_many(latency, count)
        assert batched.samples == one_by_one.samples
        assert batched.summary() == one_by_one.summary()
        sketch, reference = batched._mirror, one_by_one._mirror
        assert sketch.count == reference.count == len(batched) == 85
        assert sketch.total == reference.total  # bit for bit
        assert (sketch.minimum, sketch.maximum) == \
            (reference.minimum, reference.maximum)
        for fraction in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert sketch.quantile(fraction) == reference.quantile(fraction)

    def test_record_many_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyRecorder("w").record_many(-0.001, 4)


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestGauge:
    def test_strict_rejects_time_going_backwards(self):
        gauge = Gauge("g")
        gauge.sample(1.0, 10.0)
        with pytest.raises(ValueError):
            gauge.sample(0.5, 11.0)
        # the bad sample was not recorded
        assert len(gauge) == 1

    def test_strict_allows_equal_timestamps(self):
        gauge = Gauge("g")
        gauge.sample(1.0, 10.0)
        gauge.sample(1.0, 11.0)
        assert gauge.value == 11.0

    def test_non_strict_drops_and_flags(self):
        gauge = Gauge("g", strict_time=False)
        gauge.sample(1.0, 10.0)
        gauge.sample(0.5, 99.0)
        assert gauge.out_of_order == 1
        assert len(gauge) == 1
        assert gauge.value == 10.0

    def test_statistics(self):
        gauge = Gauge("g")
        for time, value in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)):
            gauge.sample(time, value)
        assert gauge.mean() == pytest.approx(2.0)
        assert gauge.maximum() == 3.0
        assert gauge.last_time() == 2.0


class TestHistogram:
    #: geometric buckets with growth 1.04 put any sample within ~4%
    #: of its bucket midpoint
    RELATIVE_ERROR = 0.05

    def _check_accuracy(self, samples):
        histogram = Histogram("h")
        for sample in samples:
            histogram.observe(sample)
        for fraction in (0.50, 0.90, 0.95, 0.99):
            exact = percentile(samples, fraction)
            sketched = histogram.quantile(fraction)
            assert sketched == pytest.approx(
                exact, rel=self.RELATIVE_ERROR), \
                f"p{fraction * 100:.0f}: sketch {sketched} vs {exact}"

    def test_accuracy_uniform(self):
        self._check_accuracy([(i + 1) / 1000.0 for i in range(1000)])

    def test_accuracy_skewed(self):
        # deterministic long-tailed distribution (pseudo-random order)
        samples = [0.0001 * (1.3 ** ((i * 7919) % 37)) for i in range(500)]
        self._check_accuracy(samples)

    def test_exact_min_max_mean(self):
        histogram = Histogram("h")
        samples = [0.001, 0.009, 0.004]
        for sample in samples:
            histogram.observe(sample)
        assert histogram.minimum == min(samples)
        assert histogram.maximum == max(samples)
        assert histogram.mean == pytest.approx(sum(samples) / 3)
        assert histogram.quantile(1.0) <= histogram.maximum * 1.0001


class TestStorageImports:
    def test_shim_module_is_gone(self):
        """The deprecated repro.storage.metrics shim was removed; the
        canonical home of the measurement types is repro.telemetry."""
        with pytest.raises(ModuleNotFoundError):
            import repro.storage.metrics  # noqa: F401

    def test_legacy_gauge_alias_is_the_telemetry_type(self):
        from repro.storage import GaugeSeries
        assert GaugeSeries is Gauge

    def test_package_import_does_not_warn(self):
        """Importing repro.storage itself must stay warning-free."""
        import subprocess
        import sys
        code = ("import warnings; warnings.simplefilter('error', "
                "DeprecationWarning); import repro.storage")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
