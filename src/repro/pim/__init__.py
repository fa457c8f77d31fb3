"""Near-memory (PIM) walker backend.

The third backend class next to the host cores and the core-coupled Widx
unit: the same walker machine (:mod:`repro.widx.unit` /
:mod:`repro.widx.machine`), attached to memory at the DRAM banks instead
of behind a host L1 or the LLC.  Concretely (HashMem in PAPERS.md is the
blueprint):

- node hops read the bank array in place — no LLC lookup, no crossbar
  traversal, no off-chip channel (:class:`~repro.mem.pimside.PimBankMemory`);
- each bank sustains at most ``walkers_per_bank`` concurrent accesses;
  conflicts serialize (:class:`~repro.mem.dram.DramBankPorts`);
- arming the walkers costs an explicit host↔PIM command/launch latency
  (``PimConfig.launch_cycles``, charged with the control-block load);
- every emitted result returns to the host over the existing
  interconnect (stores pay ``interconnect_cycles`` on completion).

An offload reaches the banks through the ordinary entry points
(:func:`repro.widx.offload.offload_probe` and the other drivers) under a
:class:`SystemConfig` placed there; :func:`pim_config` builds one.  The
differential twins live in :mod:`repro.pim.reference`.
"""

from __future__ import annotations

from typing import Optional

from ..config import DEFAULT_CONFIG, SystemConfig
from .reference import ReferencePimUnit

__all__ = [
    "ReferencePimUnit",
    "pim_config",
]


def pim_config(config: SystemConfig = DEFAULT_CONFIG, *,
               walkers: Optional[int] = None,
               mode: Optional[str] = None,
               banks: Optional[int] = None,
               walkers_per_bank: Optional[int] = None,
               launch_cycles: Optional[float] = None) -> SystemConfig:
    """A copy of ``config`` with the walkers placed at the DRAM banks.

    Keyword overrides adjust the walker organization (``walkers``,
    ``mode``) and the PIM attachment parameters (``banks``,
    ``walkers_per_bank``, ``launch_cycles``) in one call; anything left
    ``None`` keeps the incoming config's value.
    """
    widx_overrides: dict = {"placement": "pim"}
    if walkers is not None:
        widx_overrides["num_walkers"] = walkers
    if mode is not None:
        widx_overrides["mode"] = mode
    pim_overrides: dict = {}
    if banks is not None:
        pim_overrides["num_banks"] = banks
    if walkers_per_bank is not None:
        pim_overrides["walkers_per_bank"] = walkers_per_bank
    if launch_cycles is not None:
        pim_overrides["launch_cycles"] = launch_cycles
    config = config.with_widx(**widx_overrides)
    if pim_overrides:
        config = config.with_pim(**pim_overrides)
    return config

