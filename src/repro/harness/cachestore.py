"""Persistent measurement storage for the experiment campaign.

The in-memory :class:`~repro.harness.runner.MeasurementCache` dies with the
process; a :class:`CacheStore` backs it with one JSON file per measurement
point under a cache directory, so ``python -m repro`` invocations (and
benchmark sessions) reuse minutes of simulation instead of repeating it.

Design points:

* **Keys are content hashes** of (config, run settings, measurement point)
  — see :func:`repro.harness.runner.measurement_key` — so a cache directory
  can be shared across configurations without collisions.
* **Entries are self-verifying**: each file carries a SHA-256 checksum of
  its payload.  A truncated, corrupted or hand-edited file fails
  verification and :meth:`CacheStore.get` returns ``None``; the caller
  transparently re-measures.  A cache can never make a run crash.
* **Writes are atomic and durable**: entries are written to a temp file,
  flushed and fsync'd, then ``os.replace``d into place — a killed worker
  (or power cut) can never leave a half-written entry under a live key;
  at worst it abandons a ``.tmp-*`` file, which :meth:`CacheStore.__init__`
  sweeps once it is old enough that no live writer can own it.

Only the numbers the figure drivers consume are persisted: a
:class:`~repro.cpu.timing.CoreTimingResult` round-trips completely; an
:class:`~repro.widx.offload.OffloadOutcome` is slimmed to its
:class:`~repro.widx.machine.WidxRunResult` (timing + per-unit cycle
breakdowns) plus the validation/fallback flags — generated programs are
rebuilt on demand, never stored, and no outcome holds a simulated machine.
Both carry their :class:`~repro.obs.StatsRegistry` snapshot, so cache-hit
runs contribute exactly the same merged statistics as freshly measured
ones.  JSON floats serialize via ``repr`` and therefore round-trip
bit-exactly, which is what makes cache-hit reports byte-identical to
measured ones.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict
from typing import Any, Dict, Optional

from ..config import stable_digest, stable_json
from ..cpu.timing import CoreTimingResult
from ..serve.service import ServiceMeasurement
from ..widx.machine import WidxRunResult
from ..widx.offload import OffloadOutcome
from ..widx.unit import UnitCycleBreakdown, UnitStats

#: Bump when the payload schema changes; old entries are then ignored.
#: Format 2 added per-measurement stats-registry snapshots (the
#: observability refactor).
CACHE_FORMAT = 2

#: Orphaned temp files older than this are swept on store open.  Any live
#: writer finishes a put in well under an hour; anything older was
#: abandoned by a killed process.
STALE_TEMP_SECONDS = 3600.0


class CacheDecodeError(ValueError):
    """A stored payload does not decode to a known measurement type."""


# --------------------------------------------------------------------------
# measurement codec
# --------------------------------------------------------------------------

def encode_measurement(obj: Any) -> Dict[str, Any]:
    """JSON-ready payload for a measurement result."""
    if isinstance(obj, CoreTimingResult):
        return {"type": "core_timing", "data": asdict(obj)}
    if isinstance(obj, ServiceMeasurement):
        return {"type": "service", "data": asdict(obj)}
    if isinstance(obj, OffloadOutcome):
        run = obj.run
        return {
            "type": "offload",
            "run": {
                "total_cycles": run.total_cycles,
                "tuples": run.tuples,
                "matches": run.matches,
                "config_cycles": run.config_cycles,
                "unit_stats": {
                    name: stats.to_dict()
                    for name, stats in sorted(run.unit_stats.items())
                },
            },
            "validated": obj.validated,
            "fell_back": obj.fell_back,
            "abort_cycles": obj.abort_cycles,
            "stats": obj.stats,
        }
    raise CacheDecodeError(f"cannot encode measurement of type {type(obj)!r}")


def decode_measurement(payload: Dict[str, Any]) -> Any:
    """Rebuild a measurement object from :func:`encode_measurement` output."""
    try:
        kind = payload["type"]
        if kind == "core_timing":
            return CoreTimingResult(**payload["data"])
        if kind == "service":
            return ServiceMeasurement(**payload["data"])
        if kind == "offload":
            run = payload["run"]
            result = WidxRunResult(
                total_cycles=run["total_cycles"],
                tuples=run["tuples"],
                matches=run["matches"],
                config_cycles=run["config_cycles"],
                unit_stats={name: _decode_unit_stats(stats)
                            for name, stats in run["unit_stats"].items()},
            )
            return OffloadOutcome(run=result,
                                  validated=payload["validated"],
                                  fell_back=payload["fell_back"],
                                  abort_cycles=payload["abort_cycles"],
                                  stats=payload.get("stats"))
    except CacheDecodeError:
        raise
    except (KeyError, TypeError) as exc:
        raise CacheDecodeError(f"malformed measurement payload: {exc}") from exc
    raise CacheDecodeError(f"unknown measurement type {payload.get('type')!r}")


def _decode_unit_stats(data: Dict[str, Any]) -> UnitStats:
    cycles = UnitCycleBreakdown(**data["cycles"])
    fields = {key: value for key, value in data.items() if key != "cycles"}
    return UnitStats(cycles=cycles, **fields)


# --------------------------------------------------------------------------
# on-disk store
# --------------------------------------------------------------------------

class CacheStore:
    """One-JSON-file-per-key persistent store with integrity checking."""

    def __init__(self, directory: str) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.rejected = 0  # corrupted / stale-format entries skipped
        self.swept_temps = self._sweep_stale_temps()

    def _sweep_stale_temps(self,
                           max_age_seconds: float = STALE_TEMP_SECONDS) -> int:
        """Remove temp files abandoned by killed writers; returns a count.

        Only files older than ``max_age_seconds`` go — a younger temp may
        belong to a concurrent campaign worker mid-:meth:`put`.
        """
        swept = 0
        cutoff = time.time() - max_age_seconds
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if not name.startswith(".tmp-"):
                continue
            path = os.path.join(self.directory, name)
            try:
                if os.path.getmtime(path) < cutoff:
                    os.unlink(path)
                    swept += 1
            except OSError:
                continue  # raced with another sweeper or a live writer
        return swept

    def path(self, key: str) -> str:
        """The file backing one key."""
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` if absent, corrupt or stale."""
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                wrapper = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.rejected += 1
            return None
        payload = self._verify(wrapper, key)
        if payload is None:
            self.rejected += 1
            return None
        self.hits += 1
        return payload

    @staticmethod
    def _verify(wrapper: Any, key: str) -> Optional[Dict[str, Any]]:
        if not isinstance(wrapper, dict):
            return None
        if wrapper.get("format") != CACHE_FORMAT or wrapper.get("key") != key:
            return None
        payload = wrapper.get("payload")
        if not isinstance(payload, dict):
            return None
        if wrapper.get("checksum") != stable_digest(payload):
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist a payload under ``key``."""
        wrapper = {
            "format": CACHE_FORMAT,
            "key": key,
            "checksum": stable_digest(payload),
            "payload": payload,
        }
        fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                         prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(stable_json(wrapper))
                handle.flush()
                # Force the bytes to disk *before* the rename publishes the
                # entry: os.replace is atomic in the namespace, but without
                # the fsync a crash could still surface a torn entry under
                # the final name.
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory)
                   if name.endswith(".json") and not name.startswith("."))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path(key))
