"""Regenerate ``ATTRIBUTION.md``: where each workload's host seconds go.

Run from the repository root::

    python3 e2ebench/attribution.py [--seed 42]

For every workload this runs one untraced and one traced repetition (the
same pair ``run.py --trace 1`` runs) and tabulates each layer's span self
time as a share of the traced wall time.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

import run

TABLE_PATH = os.path.join(run.HERE, "ATTRIBUTION.md")

#: Which end-to-end metric a layer's time should move, and on which
#: workload (written down before measuring; the table checks it).
EXPECTED = {
    "workloads.build": "setup_s, wall_s on fig8-kernel",
    "mem.warm": "wall_s, sim_keys_per_s on fig8-kernel",
    "cpu.measure": "sim_keys_per_s on index-zoo",
    "widx.offload": "sim_keys_per_s on index-zoo",
    "sim.engine": "sim_keys_per_s on index-zoo and serve-sweep",
    "serve.calibrate": "setup_s on serve-sweep",
    "serve.sweep": "sim_keys_per_s on serve-sweep",
    "obs.snapshot": "sim_keys_per_s on index-zoo",
    "harness.campaign": "under 1% of wall_s everywhere",
    "harness.render": "under 1% of wall_s everywhere",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    columns = {}
    for workload in run.workloads.WORKLOADS:
        checks = run.workloads.Checks()
        metrics, _tracer = run.traced_pair(workload, args.seed, checks)
        if checks.failures:
            print("\n".join(checks.failures), file=sys.stderr)
            return 1
        columns[workload] = metrics
        print(f"{workload}: traced {metrics['trace.wall_s']:.2f}s",
              flush=True)

    names = list(columns)
    lines = [
        "# Where a workload's host seconds go",
        "",
        f"Generated by `python3 e2ebench/attribution.py --seed {args.seed}` "
        f"on {os.cpu_count()} CPUs ({platform.machine()}, Python "
        f"{platform.python_version()}), one traced repetition per "
        f"workload.  Each cell is a layer's span self time as a share of "
        f"the traced `wall_s`; spans wrap the public calls listed in "
        f"`tracing.TARGETS`.",
        "",
        "| layer (self time) | " + " | ".join(names) + " | should move |",
        "|---|" + "---:|" * len(names) + "---|",
    ]
    for span in run.SPAN_NAMES:
        cells = [f"{metrics[span + '_s'] / metrics['trace.wall_s']:.1%}"
                 for metrics in columns.values()]
        lines.append(f"| `{span}` | " + " | ".join(cells)
                     + f" | {EXPECTED[span]} |")
    rows = (
        ("outside any span",
         lambda m: f"{m['trace.unattributed_share']:.2%}"),
        ("traced `wall_s`", lambda m: f"{m['trace.wall_s']:.2f} s"),
        ("untraced `wall_s`",
         lambda m: f"{m['trace.wall_s'] - m['trace.overhead_s']:.2f} s"),
        ("trace overhead", lambda m: f"{m['trace.overhead_s']:+.2f} s"),
        ("spans recorded", lambda m: f"{m['trace.spans']}"),
    )
    for label, cell in rows:
        cells = [cell(metrics) for metrics in columns.values()]
        lines.append(f"| {label} | " + " | ".join(cells) + " | |")
    lines += [
        "",
        "Simulated work in the same repetitions (fixed by the model; the",
        "host-time ratios below divide a layer's self time by it):",
        "",
        "| count | " + " | ".join(names) + " |",
        "|---|" + "---:|" * len(names),
    ]
    for name in ("workloads.builds", "mem.warm_blocks", "cpu.uops",
                 "widx.instructions", "sim.events", "serve.requests",
                 "cpu.ns_per_uop", "widx.ns_per_instr", "sim.ns_per_event",
                 "serve.us_per_request"):
        cells = [f"{metrics[name]:,.0f}" if run.PER_LAYER_UNITS[name] ==
                 "count" else f"{metrics[name]:,.1f}"
                 for metrics in columns.values()]
        lines.append(f"| `{name}` ({run.PER_LAYER_UNITS[name]}) | "
                     + " | ".join(cells) + " |")
    lines += [
        "",
        "Reading the table: the Widx units (dispatcher, walkers and",
        "producer, i.e. the Widx interpreter and its timed memory reads)",
        "and the serving queues run as event-engine processes, so their",
        "host time is `sim.engine`; `widx.offload` and `serve.sweep` hold",
        "the code around `Engine.run` (program generation, the",
        "functional reference, arrival generation).  The baseline cores'",
        "trace timing models do not use the engine: `cpu.measure` is the",
        "OoO and in-order models with their memory-hierarchy lookups.",
        "",
        "The untraced and traced repetitions ran back to back; the trace",
        "overhead row is their difference, which on a shared machine is",
        "mostly noise (the tracer wraps only the few spans counted above).",
        "Read the shares within a column, not seconds across rows.",
        "",
    ]
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    print(f"wrote {TABLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
