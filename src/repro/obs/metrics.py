"""Typed metric scalars: Counter, Histogram, Occupancy, Breakdown.

Every metric implements the same small protocol:

* ``kind`` — a class-level tag ("counter", "histogram", ...);
* ``to_dict()`` — a JSON-ready snapshot, decodable via
  :func:`decode_metric`;
* ``merge_from(other)`` — element-wise accumulation of another instance of
  the same kind, used when merging campaign-worker registries.

:class:`Counter` additionally speaks the numeric protocol (``+=``,
comparisons, division, formatting), so hot simulation loops keep the
natural ``stats.misses += 1`` idiom and derived quantities like miss
ratios are plain ``counter / counter`` expressions that yield ordinary
floats.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import SimulationError

Number = Union[int, float]


def _value_of(other: Any) -> Number:
    return other.value if isinstance(other, Counter) else other


class Counter:
    """A monotonically growing scalar (int or float cycles).

    The in-place operators mutate the counter; binary arithmetic and
    comparisons unwrap to plain numbers, so expressions like
    ``misses / accesses`` or ``max(1, uops)`` behave exactly as the raw
    ints they replaced.
    """

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def add(self, amount: Number = 1) -> None:
        """Increment by ``amount`` (named form of ``+=``)."""
        self.value += amount

    def record_max(self, value: Number) -> None:
        """Keep the running maximum instead of a running sum."""
        if value > self.value:
            self.value = value

    # -- metric protocol -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (decodable via :func:`decode_metric`)."""
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Counter":
        """Rebuild from a :meth:`to_dict` snapshot."""
        return cls(data["value"])

    def merge_from(self, other: "Counter") -> None:
        """Accumulate another counter's value into this one."""
        self.value += other.value

    # -- numeric protocol ------------------------------------------------

    def __iadd__(self, other: Any) -> "Counter":
        self.value += _value_of(other)
        return self

    def __isub__(self, other: Any) -> "Counter":
        self.value -= _value_of(other)
        return self

    def __add__(self, other: Any) -> Number:
        return self.value + _value_of(other)

    __radd__ = __add__

    def __sub__(self, other: Any) -> Number:
        return self.value - _value_of(other)

    def __rsub__(self, other: Any) -> Number:
        return _value_of(other) - self.value

    def __mul__(self, other: Any) -> Number:
        return self.value * _value_of(other)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> float:
        return self.value / _value_of(other)

    def __rtruediv__(self, other: Any) -> float:
        return _value_of(other) / self.value

    def __floordiv__(self, other: Any) -> Number:
        return self.value // _value_of(other)

    def __rfloordiv__(self, other: Any) -> Number:
        return _value_of(other) // self.value

    def __neg__(self) -> Number:
        return -self.value

    def __eq__(self, other: Any) -> bool:
        return self.value == _value_of(other)

    def __ne__(self, other: Any) -> bool:
        return self.value != _value_of(other)

    def __lt__(self, other: Any) -> bool:
        return self.value < _value_of(other)

    def __le__(self, other: Any) -> bool:
        return self.value <= _value_of(other)

    def __gt__(self, other: Any) -> bool:
        return self.value > _value_of(other)

    def __ge__(self, other: Any) -> bool:
        return self.value >= _value_of(other)

    def __int__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)

    def __repr__(self) -> str:
        return f"Counter({self.value!r})"

    __hash__ = None  # mutable; comparing by value makes it unhashable


class Histogram:
    """A power-of-two-bucketed distribution (latencies, durations).

    Bucket ``b`` covers values in ``[2**(b-1), 2**b)``; bucket 0 holds
    everything at or below zero plus the open interval up to 1.
    """

    kind = "histogram"

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @staticmethod
    def bucket_of(value: Number) -> int:
        scaled = int(value)
        return 0 if scaled <= 0 else scaled.bit_length()

    def record(self, value: Number) -> None:
        """Add one observation to its bucket and the running moments."""
        bucket = self.bucket_of(value)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # -- metric protocol -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (string bucket keys, sorted)."""
        return {
            "kind": self.kind,
            "counts": {str(bucket): self.counts[bucket]
                       for bucket in sorted(self.counts)},
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        """Rebuild from a :meth:`to_dict` snapshot."""
        histogram = cls()
        histogram.counts = {int(bucket): count
                            for bucket, count in data["counts"].items()}
        histogram.count = data["count"]
        histogram.total = data["total"]
        histogram.min = data["min"]
        histogram.max = data["max"]
        return histogram

    def merge_from(self, other: "Histogram") -> None:
        """Combine bucket counts, totals and extrema element-wise."""
        for bucket, count in other.counts.items():
            self.counts[bucket] = self.counts.get(bucket, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"Histogram(count={self.count}, mean={self.mean:.3f}, "
                f"min={self.min}, max={self.max})")


class Distribution:
    """A log-linear-bucketed distribution with quantile extraction.

    The serving layer's latency metric.  :class:`Histogram`'s power-of-two
    buckets are too coarse for tail percentiles (a p99 estimate could be
    off by 2x), so this metric uses HDR-histogram-style buckets computed
    on a **fixed-point representation**: observations are scaled by
    ``2**FP_BITS`` and bucketed as integers, so fractional cycle counts
    keep their resolution instead of truncating to the bucket below
    (``int(0.75)`` is 0 — the old scheme reported every sub-cycle latency
    as 0.0).  Scaled values below ``2**(SUB_BITS + 1)`` are recorded
    exactly (values below ``2**(SUB_BITS + 1 - FP_BITS)`` cycles land in
    dedicated ``2**-FP_BITS``-cycle-wide buckets); larger values share a
    bucket with at most ``2**-SUB_BITS`` relative width.  Like every
    metric it is JSON-serializable and mergeable, so per-worker latency
    records fold deterministically into campaign totals; snapshots carry
    the scale and refuse to merge across incompatible bucket geometries.
    """

    kind = "distribution"

    #: Sub-bucket resolution: each power-of-two range of the *scaled*
    #: value is split into ``2**SUB_BITS`` linear buckets (relative
    #: error <= 1/2**SUB_BITS).
    SUB_BITS = 14

    #: Fixed-point fractional bits: values are scaled by ``2**FP_BITS``
    #: before bucketing, giving sub-integer observations real buckets.
    FP_BITS = 8

    #: The fixed-point scale factor (kept as a float so scaling is one
    #: multiply on the hot record() path).
    _FP_SCALE = float(1 << FP_BITS)

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @classmethod
    def bucket_of(cls, value: Number) -> int:
        """The bucket index covering ``value`` (monotone in ``value``)."""
        scaled = int(value * cls._FP_SCALE)  # fixed-point, truncating
        if scaled <= 0:
            return 0
        exponent = scaled.bit_length()
        if exponent <= cls.SUB_BITS + 1:
            return scaled  # small scaled values: exact
        shift = exponent - 1 - cls.SUB_BITS
        return (scaled >> shift) + (shift << cls.SUB_BITS)

    @classmethod
    def bucket_value(cls, bucket: int) -> float:
        """A representative (midpoint) value for one bucket."""
        subs = 1 << cls.SUB_BITS
        if bucket < 2 * subs:
            return bucket / cls._FP_SCALE
        shift = (bucket >> cls.SUB_BITS) - 1
        mantissa = bucket - (shift << cls.SUB_BITS)
        low = mantissa << shift
        high = (mantissa + 1) << shift
        return (low + high - 1) / 2.0 / cls._FP_SCALE

    def record(self, value: Number) -> None:
        """Add one observation to its bucket and the running moments."""
        bucket = self.bucket_of(value)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Discard every observation, in place.

        The windowing primitive: a controller (or live p99 monitor) that
        samples a rolling window records into one distribution, reads its
        quantiles, and resets it for the next window — no reallocation,
        no second windowing scheme.  A reset distribution is
        indistinguishable from a freshly constructed one.
        """
        self.counts.clear()
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def snapshot(self, *, reset: bool = False) -> "Distribution":
        """A detached copy of the current state; optionally reset after.

        ``snapshot(reset=True)`` is the windowed read: it hands back this
        window's observations as an independent distribution and clears
        the live one for the next window, atomically from the caller's
        point of view.
        """
        copy = Distribution()
        copy.counts = dict(self.counts)
        copy.count = self.count
        copy.total = self.total
        copy.min = self.min
        copy.max = self.max
        if reset:
            self.reset()
        return copy

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (0.0 on no samples).

        Walks buckets in value order to the observation of rank
        ``ceil(q * count)`` and returns that bucket's representative
        value, clamped to the exactly tracked extrema — so ``quantile``
        is monotone in ``q``, bounded by min/max, and within one bucket
        width (``2**-SUB_BITS`` relative, or ``2**-FP_BITS`` cycles
        absolute for sub-integer values) of the true order statistic.
        """
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen >= rank:
                value = self.bucket_value(bucket)
                if self.min is not None:
                    value = max(value, self.min)
                if self.max is not None:
                    value = min(value, self.max)
                return value
        return float(self.max)  # pragma: no cover - rank <= count

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    # -- metric protocol -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (string bucket keys, sorted)."""
        return {
            "kind": self.kind,
            "scale": 1 << self.FP_BITS,
            "counts": {str(bucket): self.counts[bucket]
                       for bucket in sorted(self.counts)},
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Distribution":
        """Rebuild from a :meth:`to_dict` snapshot.

        Snapshots carry the fixed-point ``scale`` their bucket indices
        were computed under (older snapshots carried none, i.e. scale 1);
        decoding one with a different geometry would silently remap every
        bucket, so it is rejected instead.
        """
        scale = int(data.get("scale", 1))
        if scale != 1 << cls.FP_BITS:
            raise SimulationError(
                f"distribution snapshot uses fixed-point scale {scale}, "
                f"this build buckets at scale {1 << cls.FP_BITS}")
        distribution = cls()
        distribution.counts = {int(bucket): count
                               for bucket, count in data["counts"].items()}
        distribution.count = data["count"]
        distribution.total = data["total"]
        distribution.min = data["min"]
        distribution.max = data["max"]
        return distribution

    def merge_from(self, other: "Distribution") -> None:
        """Combine bucket counts, totals and extrema element-wise."""
        for bucket, count in other.counts.items():
            self.counts[bucket] = self.counts.get(bucket, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"Distribution(count={self.count}, mean={self.mean:.3f}, "
                f"p99={self.p99:.3f}, min={self.min}, max={self.max})")


class Occupancy:
    """Peak and mean occupancy of a bounded resource (MSHRs, queues).

    Call :meth:`record` with the instantaneous level whenever it changes;
    the metric keeps the peak and a sample-weighted mean (not a
    time-weighted one: pool releases land out of simulated-time order, so
    samples are the honest granularity).
    """

    kind = "occupancy"

    __slots__ = ("capacity", "peak", "total", "samples")

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = capacity
        self.peak = 0
        self.total = 0
        self.samples = 0

    def record(self, level: int) -> None:
        """Sample the instantaneous level (call on every change)."""
        self.samples += 1
        self.total += level
        if level > self.peak:
            self.peak = level

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0

    # -- metric protocol -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (decodable via :func:`decode_metric`)."""
        return {"kind": self.kind, "capacity": self.capacity,
                "peak": self.peak, "total": self.total,
                "samples": self.samples}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Occupancy":
        """Rebuild from a :meth:`to_dict` snapshot."""
        occupancy = cls(data["capacity"])
        occupancy.peak = data["peak"]
        occupancy.total = data["total"]
        occupancy.samples = data["samples"]
        return occupancy

    def merge_from(self, other: "Occupancy") -> None:
        """Take the max capacity/peak, sum the sample totals."""
        self.capacity = max(self.capacity, other.capacity)
        self.peak = max(self.peak, other.peak)
        self.total += other.total
        self.samples += other.samples

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Occupancy):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"Occupancy(capacity={self.capacity}, peak={self.peak}, "
                f"mean={self.mean:.3f})")


class Breakdown:
    """A fixed set of named float categories summing to a total.

    Subclasses declare ``CATEGORIES`` (and may back them with ``__slots__``
    attributes for hot-loop accumulation, as
    :class:`repro.widx.unit.UnitCycleBreakdown` does); the base class is
    dict-backed for generic/decoded breakdowns.  All derived operations
    (``total``, ``merged``, ``scaled``) iterate categories in declaration
    order, keeping float summation order — and therefore report bits —
    stable.
    """

    kind = "breakdown"

    CATEGORIES: Tuple[str, ...] = ()

    __slots__ = ("_values",)

    def __init__(self, **values: Number) -> None:
        categories = self.CATEGORIES or tuple(values)
        self._values: Dict[str, float] = dict.fromkeys(categories, 0.0)
        for category, value in values.items():
            if category not in self._values:
                raise SimulationError(
                    f"{type(self).__name__} has no category {category!r}")
            self._values[category] = float(value)

    @property
    def categories(self) -> Tuple[str, ...]:
        return self.CATEGORIES or tuple(self._values)

    def get(self, category: str) -> float:
        """The value of one category (typed error on an unknown name)."""
        try:
            return self._values[category]
        except KeyError:
            raise SimulationError(
                f"{type(self).__name__} has no category {category!r}"
            ) from None

    def _set(self, category: str, value: float) -> None:
        if category not in self._values:
            raise SimulationError(
                f"{type(self).__name__} has no category {category!r}")
        self._values[category] = value

    def add(self, category: str, amount: Number) -> None:
        """Accumulate ``amount`` into one category."""
        self._set(category, self.get(category) + amount)

    @property
    def total(self) -> float:
        total = 0.0
        for category in self.categories:
            total += self.get(category)
        return total

    def merged(self, other: "Breakdown") -> "Breakdown":
        """Element-wise sum with another breakdown (same categories)."""
        return type(self)(**{category: self.get(category) + other.get(category)
                             for category in self.categories})

    def scaled(self, factor: float) -> "Breakdown":
        """Element-wise multiply by a factor."""
        return type(self)(**{category: self.get(category) * factor
                             for category in self.categories})

    def as_values(self) -> Dict[str, float]:
        """Plain ``{category: value}`` dict in declaration order."""
        return {category: self.get(category) for category in self.categories}

    # -- metric protocol -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (decodable via :func:`decode_metric`)."""
        return {"kind": self.kind, "values": self.as_values()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Breakdown":
        """Rebuild from a :meth:`to_dict` snapshot."""
        return cls(**data["values"])

    def merge_from(self, other: "Breakdown") -> None:
        """Accumulate another breakdown's categories element-wise."""
        for category in other.categories:
            self.add(category, other.get(category))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Breakdown):
            return NotImplemented
        return (self.categories == other.categories
                and self.as_values() == other.as_values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{category}={self.get(category)!r}"
                          for category in self.categories)
        return f"{type(self).__name__}({inner})"


class Trail:
    """A bounded ring of per-request traversal trails.

    One *entry* is one walker invocation: which walker served it, the
    queue item (probe key operands) it carried, when it started and
    finished, and the sequence of memory *hops* the traversal took —
    ``(cycle, address, cache level)`` per pointer chase, the provenance
    PULSE-style adaptive placement needs.  Capture is opt-in and doubly
    bounded: the ring keeps the last ``capacity`` entries and each entry
    keeps at most ``max_hops`` hops (overflow is counted, never stored),
    so a trail-enabled run cannot grow without bound.

    Like every metric it snapshots to JSON and merges: merging
    concatenates entries in order (the ring bound still applies) and
    sums the overflow counters, so per-worker trails fold into campaign
    registries like any counter.
    """

    kind = "trail"

    DEFAULT_CAPACITY = 256
    DEFAULT_MAX_HOPS = 64

    __slots__ = ("capacity", "max_hops", "entries", "recorded",
                 "dropped_hops")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 max_hops: int = DEFAULT_MAX_HOPS) -> None:
        if capacity < 1:
            raise SimulationError(
                f"trail capacity must be >= 1, got {capacity}")
        if max_hops < 1:
            raise SimulationError(
                f"trail max_hops must be >= 1, got {max_hops}")
        self.capacity = capacity
        self.max_hops = max_hops
        self.entries: List[Dict[str, Any]] = []
        self.recorded = 0       # entries ever recorded (ring may drop old)
        self.dropped_hops = 0   # hops past max_hops, counted not stored

    def record(self, walker: str, key: Sequence[int], start: Number,
               end: Number, hops: Sequence[Tuple[Number, int, str]],
               dropped_hops: int = 0) -> None:
        """Append one finished traversal to the ring."""
        overflow = max(0, len(hops) - self.max_hops)
        self.dropped_hops += dropped_hops + overflow
        self.entries.append({
            "walker": walker,
            "key": [int(k) for k in key],
            "start": float(start),
            "end": float(end),
            "hops": [[float(ts), int(addr), str(level)]
                     for ts, addr, level in hops[:self.max_hops]],
            "dropped": int(dropped_hops + overflow),
        })
        self.recorded += 1
        if len(self.entries) > self.capacity:
            del self.entries[:len(self.entries) - self.capacity]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dropped_entries(self) -> int:
        """Entries pushed out of the ring by newer ones."""
        return self.recorded - len(self.entries)

    def feed_tracer(self, tracer, prefix: str = "trail") -> None:
        """Export every entry as Chrome-trace spans on ``tracer``.

        Each walker gets a ``{prefix}.{walker}`` track; an entry becomes
        an invocation span plus one span per hop, named by the cache
        level that serviced it and lasting until the next hop (or the
        traversal's end), so the trace shows *where in the hierarchy*
        each traversal spent its time.
        """
        for entry in self.entries:
            track = f"{prefix}.{entry['walker']}"
            name = "probe:" + ",".join(str(k) for k in entry["key"])
            tracer.complete(track, name, entry["start"],
                            entry["end"] - entry["start"])
            hops = entry["hops"]
            for i, (ts, addr, level) in enumerate(hops):
                until = hops[i + 1][0] if i + 1 < len(hops) else entry["end"]
                tracer.complete(track, f"{level}@{addr:#x}", ts,
                                max(0.0, until - ts))

    # -- metric protocol -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (decodable via :func:`decode_metric`)."""
        return {
            "kind": self.kind,
            "capacity": self.capacity,
            "max_hops": self.max_hops,
            "recorded": self.recorded,
            "dropped_hops": self.dropped_hops,
            "entries": [dict(entry, hops=[list(hop) for hop in entry["hops"]])
                        for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trail":
        """Rebuild from a :meth:`to_dict` snapshot."""
        trail = cls(data["capacity"], data["max_hops"])
        trail.recorded = data["recorded"]
        trail.dropped_hops = data["dropped_hops"]
        trail.entries = [
            dict(entry, hops=[list(hop) for hop in entry["hops"]])
            for entry in data["entries"]]
        return trail

    def merge_from(self, other: "Trail") -> None:
        """Concatenate another trail's entries (ring bound still applies)."""
        self.capacity = max(self.capacity, other.capacity)
        self.max_hops = max(self.max_hops, other.max_hops)
        self.recorded += other.recorded
        self.dropped_hops += other.dropped_hops
        self.entries.extend(
            dict(entry, hops=[list(hop) for hop in entry["hops"]])
            for entry in other.entries)
        if len(self.entries) > self.capacity:
            del self.entries[:len(self.entries) - self.capacity]

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Trail):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"Trail(capacity={self.capacity}, entries={len(self.entries)}, "
                f"recorded={self.recorded}, dropped_hops={self.dropped_hops})")


_METRIC_TYPES = {cls.kind: cls for cls in
                 (Counter, Histogram, Distribution, Occupancy, Breakdown,
                  Trail)}


def decode_metric(data: Dict[str, Any]):
    """Rebuild a metric from its :meth:`to_dict` snapshot."""
    try:
        metric_type = _METRIC_TYPES[data["kind"]]
    except (KeyError, TypeError) as exc:
        raise SimulationError(f"cannot decode metric snapshot: {exc}") from exc
    return metric_type.from_dict(data)
