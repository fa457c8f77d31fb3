"""Tests for the typed metric scalars."""

import random

import pytest

from repro.errors import SimulationError
from repro.obs import (Breakdown, Counter, Distribution, Histogram, Occupancy,
                       decode_metric)


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------

class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        counter += 1
        counter += 2
        counter.add(3)
        assert counter == 6
        assert counter.value == 6

    def test_float_counters_hold_cycles(self):
        counter = Counter(0.0)
        counter += 1.5
        assert counter.value == 1.5
        assert isinstance(counter.value, float)

    def test_iadd_returns_the_same_object(self):
        counter = Counter()
        alias = counter
        counter += 5
        assert counter is alias

    def test_binary_arithmetic_unwraps_to_numbers(self):
        a, b = Counter(10), Counter(4)
        assert a + b == 14 and not isinstance(a + b, Counter)
        assert a - b == 6
        assert a * 2 == 20
        assert a / b == 2.5
        assert a // 3 == 3
        assert 100 / b == 25.0
        assert 100 - a == 90
        assert -a == -10
        assert sum([a, b]) == 14  # __radd__ with the int 0 seed

    def test_comparisons_and_truthiness(self):
        counter = Counter(3)
        assert counter > 2 and counter >= 3 and counter < 4 and counter <= 3
        assert counter == 3 and counter != 4
        assert counter == Counter(3)
        assert bool(counter)
        assert not Counter(0)
        assert max(1, Counter(7)) == 7

    def test_formatting_delegates_to_the_value(self):
        assert f"{Counter(3.14159):.2f}" == "3.14"
        assert str(Counter(42)) == "42"
        assert int(Counter(9.7)) == 9
        assert float(Counter(2)) == 2.0

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Counter(1))

    def test_record_max(self):
        counter = Counter()
        counter.record_max(5)
        counter.record_max(3)
        assert counter == 5

    def test_round_trip_and_merge(self):
        counter = Counter(7)
        clone = decode_metric(counter.to_dict())
        assert isinstance(clone, Counter) and clone == 7
        clone.merge_from(Counter(3))
        assert clone == 10
        assert counter == 7  # the original is untouched


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_power_of_two_buckets(self):
        assert Histogram.bucket_of(0) == 0
        assert Histogram.bucket_of(1) == 1
        assert Histogram.bucket_of(2) == 2
        assert Histogram.bucket_of(3) == 2
        assert Histogram.bucket_of(4) == 3
        assert Histogram.bucket_of(1024) == 11

    def test_record_tracks_moments(self):
        histogram = Histogram()
        for value in (1, 2, 3, 100):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total == 106
        assert histogram.min == 1 and histogram.max == 100
        assert histogram.mean == pytest.approx(26.5)

    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_round_trip_is_json_safe(self):
        import json
        histogram = Histogram()
        histogram.record(5)
        histogram.record(200)
        snapshot = json.loads(json.dumps(histogram.to_dict()))
        assert decode_metric(snapshot) == histogram

    def test_merge_combines_buckets_and_extrema(self):
        a, b = Histogram(), Histogram()
        a.record(2)
        b.record(2)
        b.record(900)
        a.merge_from(b)
        assert a.count == 3
        assert a.counts[Histogram.bucket_of(2)] == 2
        assert a.min == 2 and a.max == 900

    def test_merge_from_empty_keeps_extrema(self):
        a = Histogram()
        a.record(4)
        a.merge_from(Histogram())
        assert a.min == 4 and a.max == 4


# ---------------------------------------------------------------------------
# Distribution
# ---------------------------------------------------------------------------

class TestDistribution:
    #: One bucket width: each power-of-two range splits into 2**SUB_BITS
    #: linear sub-buckets, so the relative error bound is 1/2**SUB_BITS.
    RELATIVE_ERROR = 1.0 / (1 << Distribution.SUB_BITS)

    def test_small_values_are_exact(self):
        distribution = Distribution()
        for value in range(1, 128):
            distribution.record(value)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            import math
            rank = max(1, math.ceil(q * 127))
            assert distribution.quantile(q) == float(rank)

    def test_quantiles_match_sorted_list_oracle_within_bucket_error(self):
        import math
        rng = random.Random(17)
        values = [rng.uniform(1, 5e6) for _ in range(5000)]
        distribution = Distribution()
        for value in values:
            distribution.record(value)
        ordered = sorted(values)
        for q in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
            truth = ordered[max(1, math.ceil(q * len(values))) - 1]
            assert distribution.quantile(q) == pytest.approx(
                truth, rel=2 * self.RELATIVE_ERROR)

    def test_quantile_is_monotone_and_bounded_by_extrema(self):
        rng = random.Random(5)
        distribution = Distribution()
        for _ in range(800):
            distribution.record(rng.expovariate(1 / 1000.0))
        previous = distribution.min
        for step in range(101):
            value = distribution.quantile(step / 100.0)
            assert previous <= value <= distribution.max
            previous = value

    def test_moments_track_exactly(self):
        distribution = Distribution()
        for value in (3.5, 10.0, 200.25):
            distribution.record(value)
        assert distribution.count == 3
        assert distribution.mean == pytest.approx(213.75 / 3)
        assert distribution.min == 3.5 and distribution.max == 200.25

    def test_empty_distribution(self):
        distribution = Distribution()
        assert distribution.quantile(0.5) == 0.0
        assert distribution.mean == 0.0
        assert distribution.count == 0

    def test_quantile_rejects_out_of_range(self):
        distribution = Distribution()
        with pytest.raises(SimulationError):
            distribution.quantile(-0.1)
        with pytest.raises(SimulationError):
            distribution.quantile(1.5)

    def test_round_trip_is_json_safe(self):
        import json
        distribution = Distribution()
        for value in (1, 90, 4096.5, 3_000_000):
            distribution.record(value)
        snapshot = json.loads(json.dumps(distribution.to_dict()))
        decoded = decode_metric(snapshot)
        assert isinstance(decoded, Distribution)
        assert decoded.to_dict() == distribution.to_dict()
        assert decoded.p99 == distribution.p99

    def test_fractional_values_land_in_distinct_buckets(self):
        """Regression: bucket_of used to truncate to int *before* the
        fixed-point scale, collapsing every observation below 1.0 into
        bucket 0 and sub-integer gaps into one bucket."""
        assert Distribution.bucket_of(0.25) != Distribution.bucket_of(0.75)
        assert Distribution.bucket_of(0.5) > 0
        assert Distribution.bucket_of(1.25) != Distribution.bucket_of(1.75)
        distribution = Distribution()
        for value in (0.125, 0.25, 0.5, 0.75):
            distribution.record(value)
        assert len(distribution.counts) == 4
        assert distribution.quantile(0.5) == pytest.approx(
            0.25, abs=1.0 / (1 << Distribution.FP_BITS))

    def test_bucket_of_fractional_resolution_bound(self):
        """Sub-integer observations resolve to 2**-FP_BITS cycles."""
        step = 1.0 / (1 << Distribution.FP_BITS)
        buckets = {Distribution.bucket_of(i * step) for i in range(1, 257)}
        assert len(buckets) == 256  # every step gets its own bucket

    def test_merge_equals_recording_everything_in_one(self):
        rng = random.Random(23)
        merged, whole = Distribution(), Distribution()
        for _ in range(3):
            part = Distribution()
            for _ in range(400):
                value = rng.uniform(1, 1e5)
                part.record(value)
                whole.record(value)
            merged.merge_from(part)
        assert merged.to_dict() == whole.to_dict()
        assert merged.p50 == whole.p50 and merged.p99 == whole.p99

    def test_merge_from_empty_keeps_extrema(self):
        distribution = Distribution()
        distribution.record(42)
        distribution.merge_from(Distribution())
        assert distribution.min == 42 and distribution.max == 42
        assert distribution.count == 1

    def test_p50_p95_p99_shortcuts(self):
        distribution = Distribution()
        for value in range(1, 101):
            distribution.record(value)
        assert distribution.p50 == 50.0
        assert distribution.p95 == 95.0
        assert distribution.p99 == 99.0


# ---------------------------------------------------------------------------
# Occupancy
# ---------------------------------------------------------------------------

class TestOccupancy:
    def test_peak_and_mean(self):
        occupancy = Occupancy(capacity=8)
        for level in (1, 3, 2):
            occupancy.record(level)
        assert occupancy.peak == 3
        assert occupancy.mean == pytest.approx(2.0)
        assert occupancy.capacity == 8

    def test_merge_takes_max_peak_and_sums_samples(self):
        a, b = Occupancy(4), Occupancy(8)
        a.record(2)
        b.record(7)
        a.merge_from(b)
        assert a.capacity == 8
        assert a.peak == 7
        assert a.samples == 2
        assert a.mean == pytest.approx(4.5)

    def test_round_trip(self):
        occupancy = Occupancy(16)
        occupancy.record(5)
        assert decode_metric(occupancy.to_dict()) == occupancy


# ---------------------------------------------------------------------------
# Breakdown
# ---------------------------------------------------------------------------

class _Cycles(Breakdown):
    CATEGORIES = ("comp", "mem", "idle")


class TestBreakdown:
    def test_declared_categories_default_to_zero(self):
        cycles = _Cycles(mem=2.0)
        assert cycles.get("comp") == 0.0
        assert cycles.get("mem") == 2.0
        assert cycles.total == 2.0

    def test_unknown_category_rejected(self):
        with pytest.raises(SimulationError):
            _Cycles(bogus=1.0)
        with pytest.raises(SimulationError):
            _Cycles().add("bogus", 1.0)

    def test_merged_and_scaled_preserve_type(self):
        a = _Cycles(comp=1.0, mem=2.0)
        b = _Cycles(comp=0.5, idle=1.0)
        merged = a.merged(b)
        assert isinstance(merged, _Cycles)
        assert merged.as_values() == {"comp": 1.5, "mem": 2.0, "idle": 1.0}
        assert a.scaled(2.0).as_values() == {"comp": 2.0, "mem": 4.0,
                                             "idle": 0.0}

    def test_total_sums_in_declaration_order(self):
        assert _Cycles(comp=1.0, mem=2.0, idle=4.0).total == 7.0

    def test_generic_breakdown_infers_categories(self):
        generic = Breakdown(x=1.0, y=2.0)
        assert generic.categories == ("x", "y")
        assert generic.total == 3.0

    def test_round_trip_decodes_as_base_breakdown(self):
        cycles = _Cycles(comp=1.0, mem=2.5)
        clone = decode_metric(cycles.to_dict())
        assert isinstance(clone, Breakdown)
        assert clone.as_values() == cycles.as_values()

    def test_merge_from(self):
        a = _Cycles(comp=1.0)
        a.merge_from(_Cycles(comp=2.0, mem=3.0))
        assert a.as_values() == {"comp": 3.0, "mem": 3.0, "idle": 0.0}


def test_decode_metric_rejects_garbage():
    with pytest.raises(SimulationError):
        decode_metric({"kind": "nope"})
    with pytest.raises(SimulationError):
        decode_metric({})
