"""Baseline (host) core timing models.

The paper's baseline is an aggressive 4-wide out-of-order core with a
128-entry ROB (Xeon-like); the efficiency comparison point is a 2-wide
in-order core (Cortex-A8-like).  Both are modelled as *trace-driven*
limited-window dataflow machines: the probe loop of Listing 1 is expanded
into micro-op traces with real memory addresses (taken from the actual hash
index in simulated memory), and the models account for issue width, window
occupancy, dependent-load serialization and the shared memory hierarchy.

This captures exactly the effects the paper attributes baseline indexing
performance to: the OoO window exposing inter-key MLP between consecutive
lookups, and the in-order core serializing on every miss.
"""

from .uops import Uop, UopKind
from .trace import ProbeTraceGenerator
from .ooo import OutOfOrderCore
from .inorder import InOrderCore
from .timing import (CoreTimingResult, core_model, measure_indexing,
                     time_probe_loop)
from .ordered import (TRACE_GENERATORS, BatchedTreeTraceGenerator,
                      TreeTraceGenerator, TrieTraceGenerator,
                      WormholeTraceGenerator, measure_ordered_indexing)

__all__ = [
    "Uop",
    "UopKind",
    "ProbeTraceGenerator",
    "OutOfOrderCore",
    "InOrderCore",
    "CoreTimingResult",
    "core_model",
    "measure_indexing",
    "time_probe_loop",
    "TRACE_GENERATORS",
    "TreeTraceGenerator",
    "TrieTraceGenerator",
    "WormholeTraceGenerator",
    "BatchedTreeTraceGenerator",
    "measure_ordered_indexing",
]
