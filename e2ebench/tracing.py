"""Span tracing of the ``repro`` layers, observed from outside.

The benchmark adds no hooks to ``src/``: a traced run temporarily
replaces a handful of coarse public entry points (workload construction,
core timing models, Widx offloads, the event engine, ...) with
wrappers that record one :class:`Span` per call, and puts every
original back afterwards.  Spans live in memory and are written out
once, when the run ends.

A layer's *self time* is the total duration of its spans minus the
time their child spans cover, so nested layers (an offload that
warms the memory hierarchy and then runs the engine) are never counted
twice and the per-layer self times of one run sum to the time the
top-level spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.mem.pimside import PIM_BUFFER, PimBankMemory


@dataclass
class Span:
    """One wrapped call: which layer boundary, when, and who called it."""

    name: str        # span name, e.g. "cpu.measure"
    start: float     # perf_counter seconds
    end: float
    parent: int      # index of the enclosing span in the trace, or -1
    run_id: str      # shared by every span of one workload run

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus the duration of child spans.

    Spans come from one thread, so children of a span are disjoint and
    nested inside it; subtracting their durations leaves exactly the
    time the parent spent in its own code.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += span.duration - child_time[index]
    return dict(totals)


def top_level_time(spans: Sequence[Span]) -> float:
    """Time covered by spans without a parent (what any layer saw)."""
    return sum(span.duration for span in spans if span.parent < 0)


#: What a traced run wraps: span name -> public entry points, each as
#: ``"module:attribute"`` or ``"module:Class.method"``.  Only coarse
#: calls (a few thousand per run at most) so tracing barely perturbs
#: the times it measures.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "workloads.build": (
        "repro.workloads.hashjoin_kernel:build_kernel_workload",
        "repro.workloads.ordered_kernel:build_ordered_workload",
        "repro.workloads.queryspec:build_query_index",
    ),
    "mem.warm": (
        "repro.mem.hierarchy:MemoryHierarchy.warm_range",
        "repro.mem.llcside:LlcSideMemory.warm_range",
        "repro.mem.pimside:PimBankMemory.warm_range",
    ),
    "cpu.measure": (
        "repro.cpu.timing:measure_indexing",
        "repro.cpu.ordered:measure_ordered_indexing",
    ),
    "widx.offload": tuple(
        f"repro.widx.offload:offload_{name}" for name in (
            "probe", "tree_search", "tree_ranges", "trie_search",
            "trie_ranges", "wormhole_search", "wormhole_ranges",
            "batched_tree")),
    "sim.engine": ("repro.sim.engine:Engine.run",),
    "serve.calibrate": ("repro.serve.service:measure_service",),
    "serve.sweep": ("repro.serve.simulate:run_open_loop",
                    "repro.serve.simulate:simulate_service"),
    "obs.snapshot": ("repro.obs.registry:StatsRegistry.to_dict",),
    "harness.campaign": ("repro.harness.campaign:Campaign.run",),
    "harness.render": ("repro.harness.fig8:run_fig8a",
                       "repro.harness.fig8:run_fig8b",
                       "repro.harness.figindexes:run_fig_indexes"),
}


def _warm_blocks(args, kwargs) -> int:
    """Blocks one ``warm_range(self, base, size)`` call warms."""
    memory = args[0]
    base = args[1] if len(args) > 1 else kwargs["base"]
    size = args[2] if len(args) > 2 else kwargs["size"]
    block = (PIM_BUFFER.block_bytes if isinstance(memory, PimBankMemory)
             else memory.cfg.l1d.block_bytes)
    if size <= 0:
        return 0
    first = base - base % block
    return (base + size - first + block - 1) // block


#: Counts recorded at a span boundary, from the call's own arguments.
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "mem.warm": ("mem.warm_blocks", _warm_blocks),
    "workloads.build": ("workloads.builds", lambda args, kwargs: 1),
}


class Tracer:
    """Records spans for every call into :data:`TARGETS` while active.

    Use as a context manager: entering wraps every target, leaving puts
    the original objects back, even when the traced code raised.
    """

    def __init__(self, run_id: str,
                 targets: Optional[Dict[str, Tuple[str, ...]]] = None
                 ) -> None:
        self.run_id = run_id
        self.targets = TARGETS if targets is None else targets
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, func: Callable) -> Callable:
        spans, stack, run_id = self.spans, self._stack, self.run_id
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if counter is not None:
                    counts[counter[0]] += counter[1](args, kwargs)

        traced.span_name = name  # type: ignore[attr-defined]
        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for name, targets in self.targets.items():
                for target in targets:
                    self._install(name, target)
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self, name: str, target: str) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            # A method: patching the class covers every caller.
            owner = getattr(module, owner_name)
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
            return
        # A function: callers bound it with ``from module import f``, so
        # replace every module-level reference to the same object.
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attr, None) is original):
                self._patch(loaded, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped object, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def to_dict(self) -> Dict[str, object]:
        """The recorded spans and counts, JSON-ready."""
        return {"run_id": self.run_id,
                "spans": [asdict(span) for span in self.spans],
                "counts": dict(self.counts)}


def leftover_wrappers() -> List[str]:
    """Every span wrapper still reachable from a loaded ``repro`` module
    or a traced class (empty once each :class:`Tracer` has exited)."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "span_name"):
                found.append(f"{module_name}:{attr}")
            elif isinstance(value, type) and value.__module__ == module_name:
                found.extend(f"{module_name}:{attr}.{method}"
                             for method, member in vars(value).items()
                             if hasattr(member, "span_name"))
    return found
