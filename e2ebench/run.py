"""End-to-end host-time benchmark of the figure and serving paths.

Run from the repository root::

    python3 e2ebench/run.py --workload fig8-kernel --seed 42 --seconds 20 --trace 0

One process, serial, calling the public ``repro`` entry points (see
``workloads.py`` for what each workload runs).  The workload is repeated
on a fresh measurement cache until ``--seconds`` of host time have
passed (at least :data:`MIN_REPS` times), and set-up is timed at least
:data:`SETUP_PASSES` times and for :data:`SETUP_SECONDS` in total.
Every repetition passes through the correctness gates: Widx outcomes
validated and not fallen back, serving levels conserving requests, and
at seed 42 the committed golden report or the pinned CRC.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (first index
build to last report or sweep result), ``setup_s`` (index builds, plus
service calibration on serve-sweep), ``sim_keys_per_s`` (simulated probe
keys per host second after set-up) and ``peak_rss_mb``.  Every unit of
a repetition (an index build, a campaign point, a service calibration, a
sweep level, the rendering) is timed on its own, between two runs of the
host-speed probe in ``hostspeed.py``, which run outside the units'
times.  A time metric sums, over units, the median across repetitions
of the unit's time normalized to the probe's reference speed: on a
shared host the CPU speed drifts by up to ~1.8x over minutes, and raw
times of the same code spread with it.

``--trace 1`` alternates an untraced and a traced repetition and prints
the per-layer metrics of the traced ones (medians, raw host seconds)
instead; its spans are written to ``e2ebench/traces/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACE_DIR = os.path.join(HERE, "traces")

if not os.path.isdir(os.path.join(SRC, "repro")):
    raise SystemExit(f"error: no repro sources under {SRC}; run from the "
                     f"root of a repository checkout")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
import tracing  # noqa: E402  (needs SRC on the path)
import workloads  # noqa: E402

#: Repetitions of the whole workload per run, however long they take:
#: every unit gets at least two samples.
MIN_REPS = 2

#: Set-up is timed at least this many times per run (repetitions count),
#: and until this much set-up time has accumulated: a sub-second set-up
#: is otherwise at the mercy of scheduler jitter.
SETUP_PASSES = 3
SETUP_SECONDS = 2.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s",
                    "sim_keys_per_s": "keys/s", "peak_rss_mb": "MB"}

#: Span names whose self time is reported as ``<name>_s``.
SPAN_NAMES = ("workloads.build", "mem.warm", "cpu.measure", "widx.offload",
              "sim.engine", "serve.calibrate", "serve.sweep", "obs.snapshot",
              "harness.campaign", "harness.render")

#: Host time per simulated unit: metric -> (self-time span, count, scale).
RATIOS = {
    "cpu.ns_per_uop": ("cpu.measure", "cpu.uops", 1e9),
    "widx.ns_per_instr": ("widx.offload", "widx.instructions", 1e9),
    "sim.ns_per_event": ("sim.engine", "sim.events", 1e9),
    "serve.us_per_request": ("serve.sweep", "serve.requests", 1e6),
}

PER_LAYER_UNITS: Dict[str, str] = {f"{name}_s": "s" for name in SPAN_NAMES}
PER_LAYER_UNITS.update({
    "workloads.builds": "count", "mem.warm_blocks": "count",
    "cpu.uops": "count", "widx.instructions": "count", "sim.events": "count",
    "mem.l1d.accesses": "count", "mem.l1d.misses": "count",
    "mem.llc.misses": "count", "mem.dram.blocks": "count",
    "serve.requests": "count", "serve.shed": "count",
    "serve.expired": "count",
    "cpu.ns_per_uop": "ns/uop", "widx.ns_per_instr": "ns/instr",
    "sim.ns_per_event": "ns/event", "serve.us_per_request": "us/request",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_share": "fraction", "trace.spans": "count",
})


def layer_metrics(untraced_wall: float, traced, tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Times are span self times; counts come from the span boundaries
    (builds, warmed blocks) and from the simulation's own registries and
    results; ratios divide a layer's host self time by its simulated
    work.  ``trace.overhead_s`` is the traced wall time minus the wall
    time of the untraced repetition run just before it.
    """
    own = tracing.self_times(tracer.spans)
    metrics: Dict[str, float] = {f"{name}_s": own.get(name, 0.0)
                                 for name in SPAN_NAMES}
    metrics["workloads.builds"] = tracer.counts.get("workloads.builds", 0)
    metrics["mem.warm_blocks"] = tracer.counts.get("mem.warm_blocks", 0)
    metrics.update(workloads.merged_counts(traced))
    for name, (span, count, scale) in RATIOS.items():
        work = metrics[count]
        metrics[name] = own.get(span, 0.0) * scale / work if work else 0.0
    outside = traced.wall_s - tracing.top_level_time(tracer.spans)
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced_wall
    metrics["trace.unattributed_share"] = outside / traced.wall_s
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def traced_pair(workload: str, seed: int, checks, index: int = 0,
                full: bool = True) -> Tuple[Dict[str, float], object]:
    """An untraced then a traced repetition; returns the traced
    repetition's layer metrics and its tracer."""
    rep = workloads.execute(workload, seed, full)
    workloads.check_rep(rep, checks)
    untraced_wall, untraced_crc = rep.wall_s, workloads.crc32(rep.text)
    del rep  # one measurement cache alive at a time
    with tracing.Tracer(f"{workload}-s{seed}-{index}") as tracer:
        traced = workloads.execute(workload, seed, full)
    workloads.check_rep(traced, checks)
    checks.check(workloads.crc32(traced.text) == untraced_crc,
                 f"{workload}: traced and untraced reports differ")
    leftover = tracing.leftover_wrappers()
    checks.check(not leftover,
                 f"{workload}: span wrappers left installed: {leftover}")
    return layer_metrics(untraced_wall, traced, tracer), tracer


def normalized_seconds(samples: List[Tuple[Dict[str, float],
                                           Dict[str, float]]]) -> float:
    """Sum over units of the median, across samples, of the unit's time
    normalized by the host-speed probes around it; each sample is
    (unit -> seconds, unit -> probe seconds) of one execution."""
    units, _probes = samples[0]
    return sum(statistics.median(
        hostspeed.normalize(times[unit], probes[unit])
        for times, probes in samples) for unit in units)


def _medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    checks = workloads.Checks()
    started = time.perf_counter()
    if trace:
        samples, traces = [], []
        while not samples or time.perf_counter() - started < seconds:
            metrics, tracer = traced_pair(workload, seed, checks,
                                          len(samples))
            samples.append(metrics)
            traces.append(tracer.to_dict())
            print(f"traced rep {len(samples)}: wall "
                  f"{metrics['trace.wall_s']:.3f}s, overhead "
                  f"{metrics['trace.overhead_s']:+.3f}s, outside spans "
                  f"{metrics['trace.unattributed_share']:.2%}")
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, f"{workload}-s{seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed, "reps": traces},
                      handle)
        values, units = _medians(samples), PER_LAYER_UNITS
    else:
        setups: List[Tuple[Dict[str, float], Dict[str, float]]] = []
        measured: List[Tuple[Dict[str, float], Dict[str, float]]] = []
        while (len(measured) < MIN_REPS
               or time.perf_counter() - started < seconds):
            rep = workloads.execute(workload, seed, probe=hostspeed.probe)
            workloads.check_rep(rep, checks)
            setups.append((rep.setup, rep.probes))
            measured.append((rep.measured, rep.probes))
            keys = rep.sim_keys
            print(f"rep {len(measured)}: wall {rep.wall_s:.3f}s, setup "
                  f"{rep.setup_s:.3f}s, {keys} keys")
            del rep
            if len(measured) == 1:
                # One execution's peak: later repetitions reuse a heap
                # the first one fragmented, so their peak says less.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while (len(setups) < SETUP_PASSES
               or sum(sum(setup.values()) for setup, _ in setups)
               < SETUP_SECONDS):
            rep = workloads.execute(workload, seed, setup_only=True,
                                    probe=hostspeed.probe)
            setups.append((rep.setup, rep.probes))
            print(f"set-up pass: {rep.setup_s:.3f}s")
            del rep
        setup_s = normalized_seconds(setups)
        measured_s = normalized_seconds(measured)
        values = {
            "wall_s": setup_s + measured_s,
            "setup_s": setup_s,
            "sim_keys_per_s": keys / measured_s,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END_UNITS
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
