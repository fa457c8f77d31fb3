"""The ordered-index zoo figure: traversal classes across backends.

Not a figure from the paper — the paper's Widx walks hash tables — but
the question its Section 3 observation ("walkers are traversal machines,
not hash machines") raises: how do the in-order core, the OoO core, and
Widx walkers compare when the structure under the probe stream is an
*ordered* index?  The sweep lines up five traversal classes on one data
recipe:

==========  =========================================================
row         traversal measured
==========  =========================================================
hash        the Figure 8 hash-join kernel (shared campaign points)
btree       per-probe root-to-leaf B+-tree descent
trie        MLP-friendly fixed-stride trie (independent level fetches)
wormhole    hashed MetaTrieHash front-end into a sorted leaf chain
batched     the same B+-tree probed level-wise in key-sorted batches
==========  =========================================================

Each row shows cycles per tuple on the two baseline cores and on four
Widx walkers, plus the Widx speedup over the OoO baseline.  ``btree``
and ``batched`` probe the *same* tree, so their rows isolate the
traversal strategy; ``hash`` rides the Figure 8 cache entries, so a
campaign that already ran ``fig8b`` pays nothing extra for it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..workloads.ordered_kernel import ORDERED_CLASSES
from .campaign import (MeasurementPoint, baseline_point, index_point,
                       widx_point)
from .report import Report
from .runner import MeasurementCache

#: The zoo runs at the LLC-friendly size so every class is probed on an
#: equal-footprint structure (and shares the fig8 Small kernel points).
INDEX_SIZE = "Small"

#: Walker count for the Widx column (the paper's best configuration).
INDEX_WALKERS = 4

#: Rows in sweep order: (row label, index class).  ``hash`` is the
#: Figure 8 kernel; the rest are the ordered zoo.
INDEX_ROWS: Tuple[Tuple[str, str], ...] = (
    ("hash", "hash"),
) + tuple((cls, cls) for cls in ORDERED_CLASSES)


def _widx_mode(index_class: str) -> str:
    """Walker organization per class: the batched traversal needs the
    coupled organization (walkers fetch their own keys level-wise); the
    per-probe classes use the shared dispatcher."""
    return "coupled" if index_class == "batched" else "shared"


def _row_points(index_class: str) -> Tuple[MeasurementPoint, ...]:
    """One row's (inorder, ooo, widx) measurement points."""
    if index_class == "hash":
        return (baseline_point("kernel", INDEX_SIZE, "inorder"),
                baseline_point("kernel", INDEX_SIZE, "ooo"),
                widx_point("kernel", INDEX_SIZE, INDEX_WALKERS, "shared"))
    name = f"{index_class}:{INDEX_SIZE}"
    return (index_point(name, "inorder"), index_point(name, "ooo"),
            index_point(name, "widx", INDEX_WALKERS,
                        _widx_mode(index_class)))


def points_fig_indexes() -> List[MeasurementPoint]:
    """The measurement points the ordered-index sweep needs."""
    return [point for _label, cls in INDEX_ROWS
            for point in _row_points(cls)]


def run_fig_indexes(cache: MeasurementCache) -> Report:
    """The ordered-index zoo: cycles per tuple and Widx speedup per
    traversal class on the Small workload."""
    report = Report(
        title=f"Ordered-index zoo: cycles/tuple by traversal class "
              f"({INDEX_SIZE}, {INDEX_WALKERS} walkers)",
        columns=["index", "inorder", "ooo",
                 f"widx_{INDEX_WALKERS}w", "speedup"])
    rows = {}
    for label, cls in INDEX_ROWS:
        inorder, ooo, outcome = map(cache.measure, _row_points(cls))
        speedup = ooo.cycles_per_tuple / outcome.cycles_per_tuple
        rows[label] = (ooo.cycles_per_tuple, outcome.cycles_per_tuple)
        report.add_row(label, inorder.cycles_per_tuple,
                       ooo.cycles_per_tuple, outcome.cycles_per_tuple,
                       speedup)
    report.add_note(
        f"btree vs batched probe the same tree: level-wise batching takes "
        f"the OoO baseline to {rows['batched'][0] / rows['btree'][0]:.2f}x "
        f"and the Widx walk to "
        f"{rows['batched'][1] / rows['btree'][1]:.2f}x of the per-probe "
        f"descent's cycles/tuple")
    report.add_note(
        "trie/wormhole widx walkers traverse real bucket/meta layouts in "
        "simulated memory; every payload is validated against the "
        "functional index")
    report.add_note("speedup = ooo cycles/tuple over widx cycles/tuple "
                    "(per-offload configuration excluded, as in fig8b)")
    return report
