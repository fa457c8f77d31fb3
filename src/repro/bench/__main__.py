"""CLI for the hot-path micro-benchmarks.

Usage::

    python -m repro.bench                       # run and print a table
    python -m repro.bench --repeats 5           # more repeats (best-of-N)
    python -m repro.bench --only cache_probe    # a subset
    python -m repro.bench --output BENCH_sim.json
        # write a new baseline; FAILS if any benchmark is below its
        # acceptance floor (see repro.bench.FLOORS)
    python -m repro.bench --check BENCH_sim.json
        # CI guard: FAILS if any simulated-result fingerprint differs
        # from the baseline, or a speedup regressed by more than 20%

Fingerprints (simulated cycle counts, hit/victim checksums, payload
checksums) are machine-independent and must match the baseline exactly;
speedups are wall-clock and only checked within the regression
tolerance, so a slower CI machine does not produce false failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from . import (BENCHMARKS, REGRESSION_TOLERANCE, SCHEMA, BenchResult,
               run_benchmarks)


def _table(results: List[BenchResult]) -> str:
    lines = [f"{'benchmark':<18} {'reference':>10} {'optimized':>10} "
             f"{'speedup':>8} {'floor':>6}"]
    for result in results:
        lines.append(
            f"{result.name:<18} {result.reference_s:>9.3f}s "
            f"{result.optimized_s:>9.3f}s {result.speedup:>7.2f}x "
            f"{result.floor:>5.2f}x")
    return "\n".join(lines)


def _to_json(results: List[BenchResult], repeats: int) -> dict:
    return {
        "schema": SCHEMA,
        "repeats": repeats,
        "benchmarks": {result.name: result.to_dict() for result in results},
    }


def _enforce_floors(results: List[BenchResult]) -> List[str]:
    errors = []
    for result in results:
        if result.speedup < result.floor:
            errors.append(
                f"{result.name}: speedup {result.speedup:.2f}x is below the "
                f"acceptance floor {result.floor:.2f}x")
    return errors


def _check_against(results: List[BenchResult], baseline: dict) -> List[str]:
    errors = []
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"]
    recorded = baseline.get("benchmarks", {})
    for result in results:
        entry = recorded.get(result.name)
        if entry is None:
            errors.append(f"{result.name}: missing from baseline")
            continue
        if entry.get("fingerprint") != result.fingerprint:
            errors.append(
                f"{result.name}: simulated-result fingerprint changed "
                f"(baseline {entry.get('fingerprint')}, "
                f"measured {result.fingerprint}) — the optimized and "
                f"reference stacks still agree with each other, but the "
                f"modelled behaviour differs from the committed baseline")
        allowed = entry["speedup"] * (1.0 - REGRESSION_TOLERANCE)
        if result.speedup < allowed:
            errors.append(
                f"{result.name}: speedup {result.speedup:.2f}x regressed "
                f"more than {REGRESSION_TOLERANCE:.0%} from baseline "
                f"{entry['speedup']:.2f}x (minimum allowed {allowed:.2f}x)")
    return errors


def main(argv=None) -> int:
    """Entry point; returns a process exit code (0 ok, 1 failure)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Hot-path micro-benchmarks (optimized vs naive "
                    "reference, bit-identical by construction).")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N wall-time repeats (default 3)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        choices=sorted(BENCHMARKS),
                        help="run only this benchmark (repeatable)")
    parser.add_argument("--output", metavar="PATH",
                        help="write a baseline JSON; fails below floors")
    parser.add_argument("--check", metavar="PATH",
                        help="compare against a baseline JSON; fails on "
                             "fingerprint drift or >20%% speedup regression")
    args = parser.parse_args(argv)
    if args.output and args.check:
        parser.error("--output and --check are mutually exclusive")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    results = run_benchmarks(repeats=args.repeats, only=args.only)
    print(_table(results))

    if args.output:
        if args.only:
            parser.error("--output requires the full benchmark set")
        errors = _enforce_floors(results)
        if errors:
            for error in errors:
                print(f"FLOOR FAILURE: {error}", file=sys.stderr)
            return 1
        with open(args.output, "w") as handle:
            json.dump(_to_json(results, args.repeats), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {args.output}")
    elif args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        errors = _check_against(results, baseline)
        if errors:
            for error in errors:
                print(f"BENCH REGRESSION: {error}", file=sys.stderr)
            return 1
        print(f"all benchmarks within tolerance of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
