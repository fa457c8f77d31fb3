"""Bulk-mode simulation: array replay of independent probe streams.

The discrete-event core pays per-event dispatch cost for work that is —
on the fig8-point and fig-serve paths — overwhelmingly *uncontended*:
thousands of independent probes or requests whose interactions reduce to
a handful of analytic recurrences.  Bulk mode exploits that:

* probe *plans* (address streams, match/mispredict flags) are computed in
  batch by :mod:`repro.mem.bulk` instead of regenerating uop objects per
  probe;
* the core timing models are replayed as specialized scalar recurrences
  over those plans — statement-for-statement mirrors of
  :class:`~repro.cpu.ooo.OutOfOrderCore` / :class:`~repro.cpu.inorder.InOrderCore`
  ``execute``, with local-variable state instead of per-uop objects, and
  the per-uop bookkeeping inlined straight into the replay loops;
* memory accesses go through :func:`repro.mem.bulk.make_fast_load`, which
  inlines the full hierarchy access path against the live cache/TLB
  objects.

Whenever a genuinely contended resource is in play (Widx inter-unit
queues, shared-LLC multi-core runs, tied event schedules in the serving
layer), bulk mode raises :class:`BulkFallback` and the caller re-runs on
the reference DES twin.  Equivalence is proven differentially: the DES
path is the reference, and the tests in ``tests/sim`` / ``tests/serve``
assert bit-identical results (timings, stats registries, golden reports).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig, DEFAULT_CONFIG
from ..db.column import Column
from ..db.hashtable import HashIndex
from ..errors import SimulationError
from ..mem.bulk import build_probe_plans, make_fast_load
from ..mem.hierarchy import MemoryHierarchy
from ..obs import Counter, StatsRegistry
from .sampling import BatchStats


class BulkFallback(SimulationError):
    """Bulk mode cannot reproduce this run bit-identically; use the DES.

    Raised when a contended resource or an exactly-tied event schedule
    makes the array replay ambiguous.  Callers catch it and re-run the
    unchanged discrete-event path; it never signals a user error.
    """


def bulk_measure_indexing(index: HashIndex, probe_keys: Column, *,
                          core: str = "ooo",
                          config: SystemConfig = DEFAULT_CONFIG,
                          warmup_probes: int = 512,
                          measure_probes: Optional[int] = None,
                          rows: Optional[Sequence[int]] = None,
                          batch_size: int = 128,
                          warm_index: bool = True):
    """Bulk twin of :func:`repro.cpu.timing.measure_indexing`.

    Same signature, same :class:`~repro.cpu.timing.CoreTimingResult`
    contract, bit-identical output — produced by replaying batch-built
    probe plans through scalar recurrences instead of streaming uop
    objects through the core models.
    """
    # Imported here: cpu.timing imports sim.sampling; keep the layering
    # acyclic by resolving the result type and trace constants lazily.
    from ..cpu.timing import CoreTimingResult, warm_hash_index
    from ..cpu.trace import HOST_OPS_PER_HASH_STEP

    memory = MemoryHierarchy(config)
    if warm_index:
        warm_hash_index(memory, index)
    if core == "ooo":
        core_config = config.ooo
    elif core == "inorder":
        core_config = config.inorder
    else:
        raise ValueError(f"unknown core model {core!r} (want 'ooo' or 'inorder')")

    total_rows = len(probe_keys.values)
    if rows is None:
        limit = total_rows if measure_probes is None else min(
            total_rows, warmup_probes + measure_probes)
        rows = range(limit)
    rows = list(rows)
    if len(rows) <= warmup_probes:
        raise ValueError(
            f"need more than {warmup_probes} probes to measure after warm-up")

    plans = build_probe_plans(index, probe_keys, rows)
    hash_alus = len(index.hash_spec.steps) * HOST_OPS_PER_HASH_STEP + 3
    fast_load, flush_loads = make_fast_load(memory)
    stats = BatchStats(batch_size=batch_size)

    if core == "ooo":
        replay = _replay_ooo
    else:
        replay = _replay_inorder
    (completion, measure_start, measured_tuples, uops_executed, loads_issued,
     mem_stall, tlb_stall) = replay(plans, core_config, memory, fast_load,
                                    hash_alus, warmup_probes, stats)
    flush_loads()

    total = completion - measure_start
    mean, half = stats.interval()
    registry = StatsRegistry()
    # The same paths OutOfOrderCore/InOrderCore.register_into publishes.
    prefix = f"cpu.{core}"
    registry.register(f"{prefix}.uops_executed", Counter(uops_executed))
    registry.register(f"{prefix}.loads_issued", Counter(loads_issued))
    registry.register(f"{prefix}.mem_stall_cycles", Counter(mem_stall))
    registry.register(f"{prefix}.tlb_stall_cycles", Counter(tlb_stall))
    memory.register_into(registry, "mem")
    return CoreTimingResult(
        core=core,
        cycles_per_tuple=total / measured_tuples,
        ci_half_width=half,
        tuples=measured_tuples,
        total_cycles=total,
        mem_stall_per_tuple=mem_stall / max(1, uops_executed)
        * (uops_executed / max(1, measured_tuples + warmup_probes)),
        tlb_stall_per_tuple=tlb_stall / max(1, measured_tuples + warmup_probes),
        l1_miss_ratio=memory.stats.l1d.miss_ratio,
        llc_miss_ratio=memory.stats.llc.miss_ratio,
        stats=registry.to_dict(),
    )


def _replay_ooo(plans, cfg, memory, fast_load, hash_alus, warmup, stats):
    """Scalar replay of :meth:`OutOfOrderCore.execute` over probe plans.

    State is exactly the core model's: dispatch time + per-cycle count,
    front-end stall horizon, and the same ring of the last
    ``rob_entries`` retire horizons (every dependency is intra-probe and
    the ROB gate only reads the horizon ``rob_entries`` positions back).
    The ring starts at 0.0, so the gate test is a no-op until the ROB has
    filled once.  Each uop's dispatch/retire bookkeeping is inlined into
    the loop body; the executed-uop and issued-load totals come from the
    per-plan counts.
    """
    width = cfg.issue_width
    rob = cfg.rob_entries
    trap = memory.cfg.tlb.trap_cycles
    penalty = 20  # OutOfOrderCore's default mispredict_penalty
    dt = 0.0      # dispatch_time
    dc = 0        # uops dispatched in the current cycle
    F = 0.0       # front-end stall horizon
    H = 0.0       # retire horizon
    ring = [0.0] * rob
    rix = 0
    uops = 0
    loads = 0
    mem_stall = 0.0
    tlb_stall = 0.0
    measured = 0
    measure_start = 0.0
    add_sample = stats.add
    hash_range = range(hash_alus)

    for probe_number, plan in enumerate(plans):
        before = H
        key_addr, nodes, empty_addr, exit_mispredicts, p_uops, p_loads = plan
        uops += hash_alus + p_uops
        loads += p_loads

        # -- key load (no dependency) ---------------------------------
        if dt < F:
            dt = F
            dc = 0
        if dc >= width:
            dt += 1.0
            dc = 0
        dc += 1
        gate = ring[rix]
        if gate > dt:
            dt = gate
            dc = 1
        ready = dt
        complete, stall, _l1 = fast_load(key_addr, ready)
        if stall > 0.0:
            done = complete + trap
            if done > F:
                F = done
            tlb_stall += stall
        else:
            done = complete
        lost = done - ready - 1.0
        if lost > 0.0:
            mem_stall += lost
        if done > H:
            H = done
        ring[rix] = H
        rix += 1
        if rix == rob:
            rix = 0
        key_done = done

        # -- serial hash-ALU chain ------------------------------------
        dep = key_done
        for _ in hash_range:
            if dt < F:
                dt = F
                dc = 0
            if dc >= width:
                dt += 1.0
                dc = 0
            dc += 1
            gate = ring[rix]
            if gate > dt:
                dt = gate
                dc = 1
            dep = (dt if dt > dep else dep) + 1
            if dep > H:
                H = dep
            ring[rix] = H
            rix += 1
            if rix == rob:
                rix = 0

        if nodes:
            prev = dep
            last = len(nodes) - 1
            for i, (slot_addr, ind_addr, payload_addr, next_addr) \
                    in enumerate(nodes):
                # -- slot load, depends on the previous node pointer --
                if dt < F:
                    dt = F
                    dc = 0
                if dc >= width:
                    dt += 1.0
                    dc = 0
                dc += 1
                gate = ring[rix]
                if gate > dt:
                    dt = gate
                    dc = 1
                ready = dt if dt > prev else prev
                complete, stall, _l1 = fast_load(slot_addr, ready)
                if stall > 0.0:
                    done = complete + trap
                    if done > F:
                        F = done
                    tlb_stall += stall
                else:
                    done = complete
                lost = done - ready - 1.0
                if lost > 0.0:
                    mem_stall += lost
                if done > H:
                    H = done
                ring[rix] = H
                rix += 1
                if rix == rob:
                    rix = 0
                cmp_dep = done

                if ind_addr is not None:
                    # -- address ALU feeding the indirect key load ----
                    if dt < F:
                        dt = F
                        dc = 0
                    if dc >= width:
                        dt += 1.0
                        dc = 0
                    dc += 1
                    gate = ring[rix]
                    if gate > dt:
                        dt = gate
                        dc = 1
                    done = (dt if dt > cmp_dep else cmp_dep) + 1
                    if done > H:
                        H = done
                    ring[rix] = H
                    rix += 1
                    if rix == rob:
                        rix = 0
                    # -- indirect key load ----------------------------
                    if dt < F:
                        dt = F
                        dc = 0
                    if dc >= width:
                        dt += 1.0
                        dc = 0
                    dc += 1
                    gate = ring[rix]
                    if gate > dt:
                        dt = gate
                        dc = 1
                    ready = dt if dt > done else done
                    complete, stall, _l1 = fast_load(ind_addr, ready)
                    if stall > 0.0:
                        done = complete + trap
                        if done > F:
                            F = done
                        tlb_stall += stall
                    else:
                        done = complete
                    lost = done - ready - 1.0
                    if lost > 0.0:
                        mem_stall += lost
                    if done > H:
                        H = done
                    ring[rix] = H
                    rix += 1
                    if rix == rob:
                        rix = 0
                    cmp_dep = done

                # -- compare ALU (slot/indirect value vs probe key) ---
                if dt < F:
                    dt = F
                    dc = 0
                if dc >= width:
                    dt += 1.0
                    dc = 0
                dc += 1
                gate = ring[rix]
                if gate > dt:
                    dt = gate
                    dc = 1
                ready = dt
                if cmp_dep > ready:
                    ready = cmp_dep
                if key_done > ready:
                    ready = key_done
                compare_done = ready + 1
                if compare_done > H:
                    H = compare_done
                ring[rix] = H
                rix += 1
                if rix == rob:
                    rix = 0

                # -- match branch (predicted) -------------------------
                if dt < F:
                    dt = F
                    dc = 0
                if dc >= width:
                    dt += 1.0
                    dc = 0
                dc += 1
                gate = ring[rix]
                if gate > dt:
                    dt = gate
                    dc = 1
                done = (dt if dt > compare_done else compare_done) + 1
                if done > H:
                    H = done
                ring[rix] = H
                rix += 1
                if rix == rob:
                    rix = 0

                if payload_addr is not None:
                    # -- payload load on a match ----------------------
                    if dt < F:
                        dt = F
                        dc = 0
                    if dc >= width:
                        dt += 1.0
                        dc = 0
                    dc += 1
                    gate = ring[rix]
                    if gate > dt:
                        dt = gate
                        dc = 1
                    ready = dt if dt > compare_done else compare_done
                    complete, stall, _l1 = fast_load(payload_addr, ready)
                    if stall > 0.0:
                        done = complete + trap
                        if done > F:
                            F = done
                        tlb_stall += stall
                    else:
                        done = complete
                    lost = done - ready - 1.0
                    if lost > 0.0:
                        mem_stall += lost
                    if done > H:
                        H = done
                    ring[rix] = H
                    rix += 1
                    if rix == rob:
                        rix = 0

                # -- next-pointer load --------------------------------
                if dt < F:
                    dt = F
                    dc = 0
                if dc >= width:
                    dt += 1.0
                    dc = 0
                dc += 1
                gate = ring[rix]
                if gate > dt:
                    dt = gate
                    dc = 1
                ready = dt if dt > prev else prev
                complete, stall, _l1 = fast_load(next_addr, ready)
                if stall > 0.0:
                    done = complete + trap
                    if done > F:
                        F = done
                    tlb_stall += stall
                else:
                    done = complete
                lost = done - ready - 1.0
                if lost > 0.0:
                    mem_stall += lost
                if done > H:
                    H = done
                ring[rix] = H
                rix += 1
                if rix == rob:
                    rix = 0
                prev = done

                # -- loop-exit branch ---------------------------------
                if dt < F:
                    dt = F
                    dc = 0
                if dc >= width:
                    dt += 1.0
                    dc = 0
                dc += 1
                gate = ring[rix]
                if gate > dt:
                    dt = gate
                    dc = 1
                done = (dt if dt > prev else prev) + 1
                if exit_mispredicts and i == last:
                    resume = done + penalty
                    if resume > F:
                        F = resume
                if done > H:
                    H = done
                ring[rix] = H
                rix += 1
                if rix == rob:
                    rix = 0
        else:
            # -- empty bucket: header load + check + exit branch ------
            if dt < F:
                dt = F
                dc = 0
            if dc >= width:
                dt += 1.0
                dc = 0
            dc += 1
            gate = ring[rix]
            if gate > dt:
                dt = gate
                dc = 1
            ready = dt if dt > dep else dep
            complete, stall, _l1 = fast_load(empty_addr, ready)
            if stall > 0.0:
                done = complete + trap
                if done > F:
                    F = done
                tlb_stall += stall
            else:
                done = complete
            lost = done - ready - 1.0
            if lost > 0.0:
                mem_stall += lost
            if done > H:
                H = done
            ring[rix] = H
            rix += 1
            if rix == rob:
                rix = 0
            # sentinel-check ALU
            if dt < F:
                dt = F
                dc = 0
            if dc >= width:
                dt += 1.0
                dc = 0
            dc += 1
            gate = ring[rix]
            if gate > dt:
                dt = gate
                dc = 1
            done = (dt if dt > done else done) + 1
            if done > H:
                H = done
            ring[rix] = H
            rix += 1
            if rix == rob:
                rix = 0
            # exit branch
            if dt < F:
                dt = F
                dc = 0
            if dc >= width:
                dt += 1.0
                dc = 0
            dc += 1
            gate = ring[rix]
            if gate > dt:
                dt = gate
                dc = 1
            branch_done = (dt if dt > done else done) + 1
            if exit_mispredicts:
                resume = branch_done + penalty
                if resume > F:
                    F = resume
            if branch_done > H:
                H = branch_done
            ring[rix] = H
            rix += 1
            if rix == rob:
                rix = 0

        # -- trailer: loop-counter ALU + back-edge branch -------------
        if dt < F:
            dt = F
            dc = 0
        if dc >= width:
            dt += 1.0
            dc = 0
        dc += 1
        gate = ring[rix]
        if gate > dt:
            dt = gate
            dc = 1
        done = dt + 1
        if done > H:
            H = done
        ring[rix] = H
        rix += 1
        if rix == rob:
            rix = 0
        if dt < F:
            dt = F
            dc = 0
        if dc >= width:
            dt += 1.0
            dc = 0
        dc += 1
        gate = ring[rix]
        if gate > dt:
            dt = gate
            dc = 1
        branch_done = (dt if dt > done else done) + 1
        if branch_done > H:
            H = branch_done
        ring[rix] = H
        rix += 1
        if rix == rob:
            rix = 0

        if probe_number == warmup - 1:
            measure_start = H
        elif probe_number >= warmup:
            add_sample(H - before)
            measured += 1

    return (H, measure_start, measured, uops, loads, mem_stall, tlb_stall)


def _replay_inorder(plans, cfg, memory, fast_load, hash_alus, warmup, stats):
    """Scalar replay of :meth:`InOrderCore.execute` over probe plans.

    Mirrors the A8-style restrictions exactly: one memory op per cycle,
    blocking misses serialized through ``last_miss`` (gated on live L1
    residency, checked against the same tag array the loads update), and
    13-cycle mispredict flushes.  As in :func:`_replay_ooo` the per-uop
    bookkeeping is inlined into the loop body and the executed-uop totals
    come from the per-plan counts.
    """
    width = cfg.issue_width
    trap = memory.cfg.tlb.trap_cycles
    penalty = 13  # InOrderCore's default mispredict_penalty
    load_use = 1  # InOrderCore's default load_use_penalty
    l1_entries = memory.l1d.array._entries
    block_bits = memory.l1d.array.block_bits
    it = 0.0      # issue_time
    ic = 0        # uops issued in the current cycle
    last_mem = -1.0
    last_miss = 0.0
    completion = 0.0
    uops = 0
    loads = 0
    mem_stall = 0.0
    tlb_stall = 0.0
    measured = 0
    measure_start = 0.0
    add_sample = stats.add
    hash_range = range(hash_alus)

    for probe_number, plan in enumerate(plans):
        before = completion
        key_addr, nodes, empty_addr, exit_mispredicts, p_uops, p_loads = plan
        uops += hash_alus + p_uops
        loads += p_loads

        # -- key load (no dependency) ---------------------------------
        if ic >= width:
            it += 1.0
            ic = 0
        ic += 1
        ready = it
        if ready <= last_mem:
            ready = last_mem + 1.0
            if ready > it:
                it = ready
                ic = 1
        last_mem = ready
        start = ready
        if key_addr >> block_bits not in l1_entries:
            if last_miss > start:
                start = last_miss
        complete, stall, is_l1 = fast_load(key_addr, start)
        done = complete + load_use
        if stall > 0:
            done += trap
            if done > it:
                it = done
            ic = 0
            tlb_stall += stall
        if not is_l1:
            last_miss = done
            if done > it:
                it = done
            ic = 0
        lost = done - ready - 1.0
        if lost > 0.0:
            mem_stall += lost
        if done > completion:
            completion = done
        key_done = done

        # -- serial hash-ALU chain ------------------------------------
        dep = key_done
        for _ in hash_range:
            if ic >= width:
                it += 1.0
                ic = 0
            ic += 1
            ready = it
            if dep > ready:
                ready = dep
                it = ready
                ic = 1
            dep = ready + 1
            if dep > completion:
                completion = dep

        if nodes:
            prev = dep
            last = len(nodes) - 1
            for i, (slot_addr, ind_addr, payload_addr, next_addr) \
                    in enumerate(nodes):
                # -- slot load ----------------------------------------
                if ic >= width:
                    it += 1.0
                    ic = 0
                ic += 1
                ready = it
                if prev > ready:
                    ready = prev
                    it = ready
                    ic = 1
                if ready <= last_mem:
                    ready = last_mem + 1.0
                    if ready > it:
                        it = ready
                        ic = 1
                last_mem = ready
                start = ready
                if slot_addr >> block_bits not in l1_entries:
                    if last_miss > start:
                        start = last_miss
                complete, stall, is_l1 = fast_load(slot_addr, start)
                done = complete + load_use
                if stall > 0:
                    done += trap
                    if done > it:
                        it = done
                    ic = 0
                    tlb_stall += stall
                if not is_l1:
                    last_miss = done
                    if done > it:
                        it = done
                    ic = 0
                lost = done - ready - 1.0
                if lost > 0.0:
                    mem_stall += lost
                if done > completion:
                    completion = done
                cmp_dep = done

                if ind_addr is not None:
                    # -- address ALU ----------------------------------
                    if ic >= width:
                        it += 1.0
                        ic = 0
                    ic += 1
                    ready = it
                    if cmp_dep > ready:
                        ready = cmp_dep
                        it = ready
                        ic = 1
                    done = ready + 1
                    if done > completion:
                        completion = done
                    # -- indirect key load ----------------------------
                    if ic >= width:
                        it += 1.0
                        ic = 0
                    ic += 1
                    ready = it
                    if done > ready:
                        ready = done
                        it = ready
                        ic = 1
                    if ready <= last_mem:
                        ready = last_mem + 1.0
                        if ready > it:
                            it = ready
                            ic = 1
                    last_mem = ready
                    start = ready
                    if ind_addr >> block_bits not in l1_entries:
                        if last_miss > start:
                            start = last_miss
                    complete, stall, is_l1 = fast_load(ind_addr, start)
                    done = complete + load_use
                    if stall > 0:
                        done += trap
                        if done > it:
                            it = done
                        ic = 0
                        tlb_stall += stall
                    if not is_l1:
                        last_miss = done
                        if done > it:
                            it = done
                        ic = 0
                    lost = done - ready - 1.0
                    if lost > 0.0:
                        mem_stall += lost
                    if done > completion:
                        completion = done
                    cmp_dep = done

                # -- compare ALU --------------------------------------
                if ic >= width:
                    it += 1.0
                    ic = 0
                ic += 1
                ready = it
                if cmp_dep > ready:
                    ready = cmp_dep
                if key_done > ready:
                    ready = key_done
                if ready > it:
                    it = ready
                    ic = 1
                compare_done = ready + 1
                if compare_done > completion:
                    completion = compare_done

                # -- match branch (predicted) -------------------------
                if ic >= width:
                    it += 1.0
                    ic = 0
                ic += 1
                ready = it
                if compare_done > ready:
                    ready = compare_done
                    it = ready
                    ic = 1
                done = ready + 1
                if done > completion:
                    completion = done

                if payload_addr is not None:
                    # -- payload load on a match ----------------------
                    if ic >= width:
                        it += 1.0
                        ic = 0
                    ic += 1
                    ready = it
                    if compare_done > ready:
                        ready = compare_done
                        it = ready
                        ic = 1
                    if ready <= last_mem:
                        ready = last_mem + 1.0
                        if ready > it:
                            it = ready
                            ic = 1
                    last_mem = ready
                    start = ready
                    if payload_addr >> block_bits not in l1_entries:
                        if last_miss > start:
                            start = last_miss
                    complete, stall, is_l1 = fast_load(payload_addr, start)
                    done = complete + load_use
                    if stall > 0:
                        done += trap
                        if done > it:
                            it = done
                        ic = 0
                        tlb_stall += stall
                    if not is_l1:
                        last_miss = done
                        if done > it:
                            it = done
                        ic = 0
                    lost = done - ready - 1.0
                    if lost > 0.0:
                        mem_stall += lost
                    if done > completion:
                        completion = done

                # -- next-pointer load --------------------------------
                if ic >= width:
                    it += 1.0
                    ic = 0
                ic += 1
                ready = it
                if prev > ready:
                    ready = prev
                    it = ready
                    ic = 1
                if ready <= last_mem:
                    ready = last_mem + 1.0
                    if ready > it:
                        it = ready
                        ic = 1
                last_mem = ready
                start = ready
                if next_addr >> block_bits not in l1_entries:
                    if last_miss > start:
                        start = last_miss
                complete, stall, is_l1 = fast_load(next_addr, start)
                done = complete + load_use
                if stall > 0:
                    done += trap
                    if done > it:
                        it = done
                    ic = 0
                    tlb_stall += stall
                if not is_l1:
                    last_miss = done
                    if done > it:
                        it = done
                    ic = 0
                lost = done - ready - 1.0
                if lost > 0.0:
                    mem_stall += lost
                if done > completion:
                    completion = done
                prev = done

                # -- loop-exit branch ---------------------------------
                if ic >= width:
                    it += 1.0
                    ic = 0
                ic += 1
                ready = it
                if prev > ready:
                    ready = prev
                    it = ready
                    ic = 1
                done = ready + 1
                if exit_mispredicts and i == last:
                    stall_until = done + penalty
                    if stall_until > it:
                        it = stall_until
                        ic = 0
                if done > completion:
                    completion = done
        else:
            # -- empty bucket: header load + check + exit branch ------
            if ic >= width:
                it += 1.0
                ic = 0
            ic += 1
            ready = it
            if dep > ready:
                ready = dep
                it = ready
                ic = 1
            if ready <= last_mem:
                ready = last_mem + 1.0
                if ready > it:
                    it = ready
                    ic = 1
            last_mem = ready
            start = ready
            if empty_addr >> block_bits not in l1_entries:
                if last_miss > start:
                    start = last_miss
            complete, stall, is_l1 = fast_load(empty_addr, start)
            done = complete + load_use
            if stall > 0:
                done += trap
                if done > it:
                    it = done
                ic = 0
                tlb_stall += stall
            if not is_l1:
                last_miss = done
                if done > it:
                    it = done
                ic = 0
            lost = done - ready - 1.0
            if lost > 0.0:
                mem_stall += lost
            if done > completion:
                completion = done
            # sentinel-check ALU
            if ic >= width:
                it += 1.0
                ic = 0
            ic += 1
            ready = it
            if done > ready:
                ready = done
                it = ready
                ic = 1
            done = ready + 1
            if done > completion:
                completion = done
            # exit branch
            if ic >= width:
                it += 1.0
                ic = 0
            ic += 1
            ready = it
            if done > ready:
                ready = done
                it = ready
                ic = 1
            branch_done = ready + 1
            if exit_mispredicts:
                stall_until = branch_done + penalty
                if stall_until > it:
                    it = stall_until
                    ic = 0
            if branch_done > completion:
                completion = branch_done

        # -- trailer: loop-counter ALU + back-edge branch -------------
        if ic >= width:
            it += 1.0
            ic = 0
        ic += 1
        done = it + 1
        if done > completion:
            completion = done
        if ic >= width:
            it += 1.0
            ic = 0
        ic += 1
        ready = it
        if done > ready:
            ready = done
            it = ready
            ic = 1
        branch_done = ready + 1
        if branch_done > completion:
            completion = branch_done

        if probe_number == warmup - 1:
            measure_start = completion
        elif probe_number >= warmup:
            add_sample(completion - before)
            measured += 1

    return (completion, measure_start, measured, uops, loads, mem_stall,
            tlb_stall)
