"""System configuration: the paper's Table 2 parameters plus scaled presets.

The defaults reproduce Table 2 of the paper (MICRO 2013):

========================  =====================================================
Parameter                 Value
========================  =====================================================
Technology                40 nm, 2 GHz
CMP features              4 cores
Core types                In-order (Cortex-A8-like): 2-wide
                          OoO (Xeon-like): 4-wide, 128-entry ROB
L1-I/D caches             32 KB, split, 2 ports, 64 B blocks, 10 MSHRs,
                          2-cycle load-to-use latency
LLC                       4 MB, 6-cycle hit latency
TLB                       2 in-flight translations
Interconnect              Crossbar, 4-cycle latency
Main memory               32 GB, 2 MCs, BW: 12.8 GB/s, 45 ns access latency
========================  =====================================================

Workload *sizes* are scaled down (see :mod:`repro.workloads`) so runs finish
on a laptop; the cache/memory parameters above are kept at the paper's values
so the locality classes (L1-resident / LLC-resident / DRAM-resident) that
drive all results are preserved.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from .errors import ConfigError


def stable_json(value: object) -> str:
    """Canonical JSON: sorted keys, no whitespace, exact float round-trip.

    ``json`` serializes floats with ``repr``, which round-trips exactly, so
    two equal configurations always produce byte-identical text — the
    property the persistent measurement cache keys rely on.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def stable_digest(value: object) -> str:
    """Hex SHA-256 of a value's canonical JSON."""
    return hashlib.sha256(stable_json(value).encode("utf-8")).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    block_bytes: int = 64
    associativity: int = 8
    latency_cycles: int = 2
    ports: int = 2
    mshrs: int = 10

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.block_bytes > 0 and (self.block_bytes & (self.block_bytes - 1)) == 0,
                 "block size must be a positive power of two")
        _require(self.size_bytes % self.block_bytes == 0,
                 "cache size must be a multiple of the block size")
        _require(self.associativity > 0, "associativity must be positive")
        _require(self.num_blocks % self.associativity == 0,
                 "cache blocks must divide evenly into sets")
        _require(self.latency_cycles >= 1, "cache latency must be >= 1 cycle")
        _require(self.ports >= 1, "cache needs at least one port")
        _require(self.mshrs >= 1, "cache needs at least one MSHR")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


@dataclass(frozen=True)
class TlbConfig:
    """TLB geometry and the paper's in-flight translation limit.

    The paper's server backs its 1 GB index with huge pages, so TLB reach
    is comparable to the index footprint and the measured TLB miss ratio is
    at most ~3% (Section 6.1).  Our workloads are scaled down ~50x, so the
    default TLB reach (256 entries x 64 KB = 16 MB) is scaled to preserve
    the paper's reach-to-footprint ratio against the scaled Large index
    (~18 MB); the Table 2 limit of two concurrent page walks is kept as-is.

    ``trap_cycles`` models software TLB-miss handling on the *baseline*
    cores (the simulated machine is SPARC, whose TSB walk is a software
    trap executed by the core itself).  The paper notes that with
    software-walked page tables "the walk will happen on the core and not
    on Widx" — Widx stalls only for the walk latency while the host MMU
    services it, which is one of its structural advantages on
    TLB-stressing indexes.
    """

    entries: int = 256
    page_bytes: int = 64 * 1024
    in_flight: int = 2
    miss_latency_cycles: int = 35
    trap_cycles: int = 50

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "TLB needs at least one entry")
        _require(self.page_bytes > 0 and (self.page_bytes & (self.page_bytes - 1)) == 0,
                 "page size must be a power of two")
        _require(self.in_flight >= 1, "TLB must allow at least one in-flight translation")
        _require(self.miss_latency_cycles >= 1, "TLB miss latency must be >= 1")


@dataclass(frozen=True)
class DramConfig:
    """Main-memory controllers and off-chip bandwidth.

    ``bandwidth_gbps`` is per memory controller (12.8 GB/s for DDR3 in the
    paper); ``efficiency`` derates it to the ~70% effective bandwidth the
    paper cites (9 GB/s effective).
    """

    num_controllers: int = 2
    bandwidth_gbps: float = 12.8
    efficiency: float = 0.70
    access_latency_ns: float = 45.0

    def __post_init__(self) -> None:
        _require(self.num_controllers >= 1, "need at least one memory controller")
        _require(self.bandwidth_gbps > 0, "bandwidth must be positive")
        _require(0 < self.efficiency <= 1.0, "efficiency must be in (0, 1]")
        _require(self.access_latency_ns > 0, "DRAM latency must be positive")

    def block_service_cycles(self, freq_ghz: float, block_bytes: int) -> float:
        """Cycles one 64 B block transfer occupies a controller at peak BW."""
        bytes_per_cycle = self.bandwidth_gbps * self.efficiency / freq_ghz
        return block_bytes / bytes_per_cycle

    def latency_cycles(self, freq_ghz: float) -> int:
        """Access latency (row access + device) expressed in core cycles."""
        return round(self.access_latency_ns * freq_ghz)


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of a baseline (host) core timing model."""

    name: str = "ooo"
    issue_width: int = 4
    rob_entries: int = 128
    out_of_order: bool = True

    def __post_init__(self) -> None:
        _require(self.issue_width >= 1, "issue width must be >= 1")
        _require(self.rob_entries >= self.issue_width,
                 "ROB must hold at least one issue group")


#: Widx organizations, matching the paper's Figure 3 design evolution:
#: ``coupled``  — walkers hash their own keys inline (Figure 3a/3b);
#: ``private``  — each walker has its own decoupled hashing unit (Figure 3c);
#: ``shared``   — one dispatcher feeds all walkers (Figure 3d / Figure 6).
WIDX_MODES = ("coupled", "private", "shared")


#: Widx placements (Section 7): ``core`` shares the host core's MMU and
#: L1-D (the paper's design); ``llc`` sits next to the LLC with its own
#: translation logic and a dedicated low-latency buffer; ``pim`` moves the
#: walkers into the memory itself, next to the DRAM banks (the HashMem
#: design point the 2013 paper could not evaluate).
WIDX_PLACEMENTS = ("core", "llc", "pim")


@dataclass(frozen=True)
class PimConfig:
    """Near-memory (PIM) walker attachment point.

    Walkers colocated with the DRAM banks see the array directly: a node
    hop costs one bank-local row access (``bank_access_ns``, cheaper than
    the full off-chip round trip) and never traverses the LLC or the
    crossbar.  The costs of leaving the host side are explicit instead:
    ``launch_cycles`` charges the host↔PIM command exchange that arms the
    walkers (paid once per offload, on top of the normal control-block
    load), and results return to the host over the existing interconnect.
    ``walkers_per_bank`` caps how many in-flight accesses one bank
    sustains — bank conflicts serialize, which is what bounds PIM scaling.
    """

    num_banks: int = 8
    walkers_per_bank: int = 2
    launch_cycles: float = 500.0
    bank_access_ns: float = 25.0

    def __post_init__(self) -> None:
        _require(1 <= self.num_banks <= 64, "bank count must be in [1, 64]")
        _require(1 <= self.walkers_per_bank <= 16,
                 "per-bank walker limit must be in [1, 16]")
        _require(self.launch_cycles >= 0,
                 "host-to-PIM launch latency must be >= 0")
        _require(self.bank_access_ns > 0,
                 "bank access latency must be positive")

    def bank_latency_cycles(self, freq_ghz: float) -> int:
        """Bank-local row access latency expressed in core cycles."""
        return round(self.bank_access_ns * freq_ghz)


@dataclass(frozen=True)
class WidxConfig:
    """Widx accelerator organization (Figures 3 and 6)."""

    num_walkers: int = 4
    queue_entries: int = 2
    mode: str = "shared"
    num_producers: int = 1
    placement: str = "core"

    def __post_init__(self) -> None:
        _require(1 <= self.num_walkers <= 16, "walker count must be in [1, 16]")
        _require(self.queue_entries >= 1, "queues need at least one entry")
        _require(self.mode in WIDX_MODES,
                 f"Widx mode must be one of {WIDX_MODES}")
        _require(self.num_producers == 1, "the paper uses a single output producer")
        _require(self.placement in WIDX_PLACEMENTS,
                 f"Widx placement must be one of {WIDX_PLACEMENTS}")

    @property
    def num_units(self) -> int:
        """Total Widx units (for area/power): walkers + hashers + producer."""
        if self.mode == "coupled":
            return self.num_walkers + self.num_producers
        if self.mode == "private":
            return 2 * self.num_walkers + self.num_producers
        return self.num_walkers + 1 + self.num_producers


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated system: Table 2 plus the Widx organization."""

    freq_ghz: float = 2.0
    num_cores: int = 4
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, block_bytes=64, associativity=8,
        latency_cycles=2, ports=2, mshrs=10))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=4 * 1024 * 1024, block_bytes=64, associativity=16,
        latency_cycles=6, ports=4, mshrs=64))
    tlb: TlbConfig = field(default_factory=TlbConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    interconnect_cycles: int = 4
    ooo: CoreConfig = field(default_factory=lambda: CoreConfig(
        name="ooo", issue_width=4, rob_entries=128, out_of_order=True))
    inorder: CoreConfig = field(default_factory=lambda: CoreConfig(
        name="inorder", issue_width=2, rob_entries=2, out_of_order=False))
    widx: WidxConfig = field(default_factory=WidxConfig)
    pim: PimConfig = field(default_factory=PimConfig)

    def __post_init__(self) -> None:
        _require(self.freq_ghz > 0, "frequency must be positive")
        _require(self.num_cores >= 1, "need at least one core")
        _require(self.interconnect_cycles >= 0, "interconnect latency must be >= 0")
        _require(self.l1d.block_bytes == self.llc.block_bytes,
                 "L1 and LLC must share one block size")

    def with_walkers(self, num_walkers: int) -> "SystemConfig":
        """A copy of this config with a different Widx walker count."""
        return replace(self, widx=replace(self.widx, num_walkers=num_walkers))

    def with_widx(self, **kwargs: object) -> "SystemConfig":
        """A copy of this config with Widx fields overridden."""
        return replace(self, widx=replace(self.widx, **kwargs))

    def with_pim(self, **kwargs: object) -> "SystemConfig":
        """A copy of this config with PIM fields overridden."""
        return replace(self, pim=replace(self.pim, **kwargs))

    def canonical_dict(self) -> dict:
        """A plain nested dict of every parameter, for stable serialization."""
        return asdict(self)


DEFAULT_CONFIG = SystemConfig()

#: Walker counts evaluated throughout Section 6 of the paper.
EVALUATED_WALKER_COUNTS = (1, 2, 4)


def table2_rows() -> list[tuple[str, str]]:
    """The paper's Table 2 as (parameter, value) rows for reporting."""
    cfg = DEFAULT_CONFIG
    return [
        ("Technology", f"40nm, {cfg.freq_ghz:g}GHz"),
        ("CMP Features", f"{cfg.num_cores} cores"),
        ("Core Types",
         f"In-order: {cfg.inorder.issue_width}-wide; "
         f"OoO: {cfg.ooo.issue_width}-wide, {cfg.ooo.rob_entries}-entry ROB"),
        ("L1-I/D Caches",
         f"{cfg.l1d.size_bytes // 1024}KB, split, {cfg.l1d.ports} ports, "
         f"{cfg.l1d.block_bytes}B blocks, {cfg.l1d.mshrs} MSHRs, "
         f"{cfg.l1d.latency_cycles}-cycle load-to-use latency"),
        ("LLC", f"{cfg.llc.size_bytes // (1024 * 1024)}MB, "
                f"{cfg.llc.latency_cycles}-cycle hit latency"),
        ("TLB", f"{cfg.tlb.in_flight} in-flight translations"),
        ("Interconnect", f"Crossbar, {cfg.interconnect_cycles}-cycle latency"),
        ("Main Memory",
         f"{cfg.dram.num_controllers} MCs, BW: {cfg.dram.bandwidth_gbps}GB/s, "
         f"{cfg.dram.access_latency_ns:g}ns access latency"),
    ]
