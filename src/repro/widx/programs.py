"""Widx program generation for a given schema and hash function.

This is the software half of the paper's programming API (Section 4.2): a
DBMS developer supplies three functions — key hashing, node walk, result
emission — written against a concrete data layout.  Here those functions
are *generated* from the same :class:`~repro.db.node.NodeLayout` and
:class:`~repro.db.hashfn.HashSpec` objects the database engine itself uses,
then assembled into Table 1 instructions.  The ordered-index programs read
their node shapes the same way, from the layout constants of
:mod:`repro.db.btree`, :mod:`repro.db.trie` and :mod:`repro.db.wormhole`.

Each program shape is written once, as a fragment every generator that
needs it shares: the key-streaming loop (:func:`_stream_loop`), the hash
chain walk, the B+-tree internal-node step and leaf scans, and the hashed
bucket address and bucket-chain probe of the trie and wormhole walkers.

Register conventions (configuration registers are written by the host core
through Widx's memory-mapped configuration interface before execution;
static constants come from the Widx control block):

Dispatcher (H):
    r1  key-table cursor (config)        r5  current key
    r2  remaining key count (config)     r6  hash scratch
    r3  bucket-array base (config)       r7  bucket address
    r4  bucket-index mask (config)       r20+ hash constants (static)

Walker (W):
    r1  probe key (input)                r3-r6 scratch
    r2  current node address (input)
    r8  base-column address (config; indirect layouts)
    r12 empty-header sentinel (static)   r13 constant 1 (static)

Producer (P):
    r1  payload (input)                  r9  output cursor (config)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..db import btree as _btree
from ..db import trie as _trie
from ..db import wormhole as _wormhole
from ..db.hashfn import HashSpec, HashStep
from ..db.node import NodeLayout
from ..errors import AssemblerError
from .assembler import assemble
from .program import Program

#: Configuration-register indices (the "memory-mapped registers inside
#: Widx" of Section 4.3), by unit role.
DISPATCHER_CONFIG = {"key_cursor": 1, "key_count": 2,
                     "bucket_base": 3, "bucket_mask": 4}
WALKER_CONFIG = {"column_base": 8}
PRODUCER_CONFIG = {"out_cursor": 9}

_HASH_CONST_BASE = 20  # first register used for hash constants

#: Width of the ordered indexes' keys: the trie and wormhole hash one
#: nibble-aligned prefix of it per depth.
_KEY_BITS = _trie.NIBBLE_BITS * _trie.MAX_DEPTH


@dataclass
class GeneratedProgram:
    """An assembled program plus its configuration-register map."""

    program: Program
    config_registers: Dict[str, int] = field(default_factory=dict)
    source: str = ""


#: The constant-1 register (r13): branch tests compare against it.
_ONE = ".const r13 = 1"
#: Every program's epilogue.
_EXIT = ["done:", "  halt"]


def _generated(name: str, role: str, directives: Sequence[str],
               body: Sequence[str], config: Dict[str, int]
               ) -> GeneratedProgram:
    """Assemble ``.name``/``.role``, the directives and the body."""
    source = "\n".join([f".name {name}", f".role {role}", *directives,
                        *body])
    return GeneratedProgram(assemble(source), dict(config), source)


def _const_lines(constants: Dict[int, int]) -> List[str]:
    return [f".const r{reg} = {value:#x}" for reg, value in constants.items()]


def _log2(size: int) -> int:
    """log2 of a power-of-two ``size``: the shift that scales by it."""
    return size.bit_length() - 1


def _hash_body(steps: Tuple[HashStep, ...], src: str, work: str) -> Tuple[List[str], Dict[int, int]]:
    """Emit hash mixing code; returns (lines, constant registers)."""
    lines: List[str] = []
    constants: Dict[int, int] = {}
    const_reg = _HASH_CONST_BASE
    current = src
    for step in steps:
        if step.kind in ("xor_shl", "xor_shr", "add_shl", "sub_shl"):
            op = "xor-shf" if step.kind.startswith("xor") else "add-shf"
            amount = step.amount if step.kind.endswith("shl") else -step.amount
            if step.kind == "sub_shl":
                raise AssemblerError(
                    "sub_shl cannot be compiled: the Widx ISA has no SUB")
            lines.append(f"  {op} {work}, {current}, {current}, #{amount}")
        elif step.kind in ("and_const", "xor_const", "add_const"):
            if const_reg > 31:
                raise AssemblerError("out of hash-constant registers")
            mnemonic = step.kind.split("_", 1)[0]
            constants[const_reg] = step.const
            lines.append(f"  {mnemonic} {work}, {current}, r{const_reg}")
            const_reg += 1
        elif step.kind == "shr":
            lines.append(f"  shr {work}, {current}, #{step.amount}")
        elif step.kind == "shl":
            lines.append(f"  shl {work}, {current}, #{step.amount}")
        else:  # pragma: no cover - HashStep validates kinds
            raise AssemblerError(f"unknown hash step {step.kind!r}")
        current = work
    return lines, constants


# ----------------------------------------------------------------------
# Key streaming: every dispatcher, and every walker that streams its own
# keys, runs one loop over fixed-size records from the cursor in r1.
# ----------------------------------------------------------------------

def _stream_loop(count: str, body: Sequence[str],
                 record_bytes: int) -> List[str]:
    """``while (count != 0) { body; cursor += record_bytes; count--; }``.

    The count is tested before the body loads, so an empty stream issues
    no access; ``body`` may branch to ``done`` to stop early.
    """
    return ["loop:", f"  ble {count}, r0, done", *body,
            f"  add r1, r1, #{record_bytes}",
            f"  add {count}, {count}, #-1",
            "  ba loop",
            *_EXIT]


def _dispatcher(name: str, loads: Sequence[str], body: Sequence[str],
                record_bytes: int, config: Dict[str, int],
                directives: Sequence[str] = ()) -> GeneratedProgram:
    """A dispatcher: load each record, TOUCH one block ahead of the
    stream (Section 4.1's prefetch), then hash/emit it in ``body``."""
    return _generated(name, "H", directives, _stream_loop(
        "r2", [*loads, "  touch [r1+64]", *body], record_bytes), config)


def dispatcher_program(hash_spec: HashSpec, layout: NodeLayout, *,
                       stride_keys: int = 1) -> GeneratedProgram:
    """The key-hashing function: stream keys, hash, emit (key, bucket addr).

    ``stride_keys`` > 1 builds the per-walker private dispatcher of
    Figure 3c, where dispatcher *i* handles keys *i, i+N, i+2N, ...*.
    """
    hash_lines, constants = _hash_body(hash_spec.steps, "r5", "r6")
    return _dispatcher(
        "dispatch", [f"  ld.{layout.key_bytes} r5, [r1+0]"],
        [*hash_lines,
         "  and r6, r6, r4",
         f"  add-shf r7, r3, r6, #{layout.shift}",
         "  emit r5, r7"],
        stride_keys * layout.key_bytes, DISPATCHER_CONFIG,
        _const_lines(constants))


# ----------------------------------------------------------------------
# Hash-table probes (the paper's Listing 1)
# ----------------------------------------------------------------------

def _indirect_constants(layout: NodeLayout) -> List[str]:
    """The empty-header sentinel and constant 1 an indirect walk tests."""
    if not layout.indirect:
        return []
    return [f".const r12 = {layout.empty_sentinel:#x}", _ONE]


def _walk_lines(layout: NodeLayout, key_reg: str, node_reg: str,
                exit_label: str = "done") -> List[str]:
    """The node-walk inner loop, shared by decoupled and coupled walkers;
    branches to ``exit_label`` at the end of the chain."""
    if layout.indirect:
        match = [
            f"  ld.8 r3, [{node_reg}+{layout.key_offset}]",
            "  cmp r4, r3, r12",          # row-id slot == empty sentinel?
            "  ble r13, r4, next",        # 1 <= r4 -> empty header, skip
            f"  add-shf r5, r8, r3, #{_log2(layout.key_bytes)}",
            f"  ld.{layout.key_bytes} r6, [r5+0]",
            f"  cmp r4, r6, {key_reg}",
            "  ble r4, r0, next",
            "  emit r3",                  # payload is the row id
        ]
    else:
        match = [
            f"  ld.{layout.key_bytes} r3, [{node_reg}+{layout.key_offset}]",
            f"  cmp r4, r3, {key_reg}",
            "  ble r4, r0, next",
            f"  ld.{layout.payload_bytes} r5, "
            f"[{node_reg}+{layout.payload_offset}]",
            "  emit r5",
        ]
    return ["walk:", *match,
            "next:",
            f"  ld.8 {node_reg}, [{node_reg}+{layout.next_offset}]",
            f"  ble {node_reg}, r0, {exit_label}",
            "  ba walk"]


def walker_program(layout: NodeLayout) -> GeneratedProgram:
    """The node-walk function: pop (key, bucket addr), chase the chain,
    emit matching payloads to the producer."""
    return _generated("walk", "W",
                      [".input r1, r2", *_indirect_constants(layout)],
                      _walk_lines(layout, "r1", "r2") + _EXIT,
                      WALKER_CONFIG if layout.indirect else {})


def producer_program() -> GeneratedProgram:
    """The result-emission function: store each 8-byte payload, bump the
    cursor.

    Only the producer may execute ST (Table 1) — the paper's programming
    model forbids writes from every other unit.
    """
    return _generated("produce", "P", [".input r1", ".persist r9"],
                      ["  st.8 [r9+0], r1", "  add r9, r9, #8", "  halt"],
                      PRODUCER_CONFIG)


def coupled_walker_program(hash_spec: HashSpec, layout: NodeLayout, *,
                           stride_keys: int = 1) -> GeneratedProgram:
    """Figure 3a/3b: a walker that hashes its own keys inline.

    The whole of Listing 1 runs on one unit: load key, hash, walk, repeat.
    With ``stride_keys`` = N, walker *i* of N processes keys *i, i+N, ...*
    (the multi-walker baseline of Figure 3b).
    """
    # Register plan: the walk body scratches r3-r6 (and r8/r12/r13 for
    # indirect layouts), so this program keeps its own state clear of it:
    # r1 cursor, r14 count, r16 hash scratch, r17 raw key, r18 bucket base,
    # r19 bucket mask, r2 current node pointer.
    hash_lines, constants = _hash_body(hash_spec.steps, "r16", "r16")
    body = [
        f"  ld.{layout.key_bytes} r16, [r1+0]",
        "  add r17, r16, r0",             # keep the raw key for compares
        *hash_lines,
        "  and r16, r16, r19",
        f"  add-shf r2, r18, r16, #{layout.shift}",
        *_walk_lines(layout, "r17", "r2", exit_label="cont"),
        "cont:",
    ]
    config = {"key_cursor": 1, "key_count": 14, "bucket_base": 18,
              "bucket_mask": 19}
    if layout.indirect:
        config.update(WALKER_CONFIG)
    return _generated(
        "probe", "W", _const_lines(constants) + _indirect_constants(layout),
        _stream_loop("r14", body, stride_keys * layout.key_bytes), config)


# ----------------------------------------------------------------------
# B+-tree traversal (the paper's Section 7 extension: "Widx can easily be
# extended to accelerate other index structures, such as balanced trees").
# Node shapes come from :mod:`repro.db.btree`; the wormhole's leaves share
# them.
# ----------------------------------------------------------------------

#: Configuration registers for the tree dispatcher (no hashing — trees
#: need only the key stream and the root pointer).
TREE_DISPATCHER_CONFIG = {"key_cursor": 1, "key_count": 2, "root": 3}


def tree_dispatcher_program(key_bytes: int = 4, *,
                            stride_keys: int = 1) -> GeneratedProgram:
    """Stream probe keys and emit (key, root) pairs to the tree walkers.

    Trees have no hashing stage, but decoupling still pays: the dispatcher
    prefetches the key stream and keeps every walker's input queue full.
    """
    return _dispatcher("tree-dispatch", [f"  ld.{key_bytes} r5, [r1+0]"],
                       ["  emit r5, r3"], stride_keys * key_bytes,
                       TREE_DISPATCHER_CONFIG)


def _key_slot(slot: int) -> int:
    return _btree._KEYS_OFFSET + _btree._KEY_BYTES * slot


def _payload_slot(slot: int) -> int:
    return _btree._PAYLOADS_OFFSET + _btree._KEY_BYTES * slot


def _leaf_test(node: str, leaf: str) -> List[str]:
    """Branch to ``leaf`` when ``node``'s meta word has the leaf bit."""
    return [f"  ld.8 r3, [{node}+{_btree._META_OFFSET}]",
            "  and r4, r3, r13",
            f"  ble r13, r4, {leaf}"]


def _internal_step(key: str, node: str, child: str, join: str) -> List[str]:
    """Move ``node`` to the child of an internal node covering ``key``,
    then branch to ``join``.

    Sequential separator compares (unrolled over the fanout); labels
    ``{child}0..`` load the matching child.  The separator slots of
    partially filled nodes are padded with 2^32-1, so ``key <= separator``
    always resolves inside the real children — no bounds logic needed.
    """
    def take(slot: int) -> List[str]:
        pointer = _btree._CHILDREN_OFFSET + _btree._CHILD_BYTES * slot
        return [f"  ld.8 {node}, [{node}+{pointer}]", f"  ba {join}"]

    lines: List[str] = []
    for slot in range(_btree.FANOUT):
        lines += [
            f"  ld.4 r5, [{node}+{_key_slot(slot)}]",
            f"  cmp-le r6, {key}, r5",
            f"  ble r13, r6, {child}{slot}",
        ]
    lines += take(_btree.FANOUT)          # key > every separator
    for slot in range(_btree.FANOUT):
        lines += [f"{child}{slot}:", *take(slot)]
    return lines


def _tree_descent_lines(key_reg: str) -> List[str]:
    """Descend from the node in r2 to the leaf covering ``key_reg``;
    falls through to the ``leaf:`` label with r2 = leaf address."""
    return ["walk:", *_leaf_test("r2", "leaf"),
            *_internal_step(key_reg, "r2", "child", "walk"),
            "leaf:"]


def _leaf_point_scan(key: str, node: str, payload: str, miss: str,
                     found: str) -> List[str]:
    """Scan a leaf's key slots for ``key``: on a match emit the slot's
    payload (loaded into ``payload``) and branch to ``found``; labels
    ``{miss}0..`` skip a slot, and a full miss falls through."""
    lines: List[str] = []
    for slot in range(_btree.FANOUT):
        lines += [
            f"  ld.4 r5, [{node}+{_key_slot(slot)}]",
            f"  cmp r6, r5, {key}",
            f"  ble r6, r0, {miss}{slot}",
            f"  ld.4 {payload}, [{node}+{_payload_slot(slot)}]",
            f"  emit {payload}",
            f"  ba {found}",
            f"{miss}{slot}:",
        ]
    return lines


def _leaf_range_scan(payload: str, restart: str) -> List[str]:
    """Stream the leaf chain from the leaf in r2, emitting (through
    ``payload``) every payload with r1 <= key <= r10; each next leaf
    re-enters at ``restart``.  Key-pad slots (2^32-1) compare greater
    than any real high bound, ending the scan at the last partially
    filled leaf."""
    lines: List[str] = []
    for slot in range(_btree.FANOUT):
        lines += [
            f"  ld.4 r5, [r2+{_key_slot(slot)}]",
            "  cmp-le r6, r5, r10",          # key <= high?
            "  ble r6, r0, done",            # key > high (or pad): finished
            "  cmp-le r7, r1, r5",           # low <= key?
            f"  ble r7, r0, skip{slot}",
            f"  ld.4 {payload}, [r2+{_payload_slot(slot)}]",
            f"  emit {payload}",
            f"skip{slot}:",
        ]
    return [*lines,
            f"  ld.8 r2, [r2+{_btree._NEXT_LEAF_OFFSET}]",
            "  ble r2, r0, done",
            f"  ba {restart}",
            *_EXIT]


def tree_walker_program() -> GeneratedProgram:
    """Descend a B+-tree and emit the payload.

    Register plan: r1 = probe key (input), r2 = current node (input: the
    root), r3-r7 scratch, r13 = constant 1.
    """
    return _generated(
        "tree-walk", "W", [".input r1, r2", _ONE],
        [*_tree_descent_lines("r1"),
         *_leaf_point_scan("r1", "r2", "r7", "miss", "done"),
         "  ba done", *_EXIT], {})


#: Configuration registers for the multi-range dispatcher.
RANGE_DISPATCHER_CONFIG = {"range_cursor": 1, "range_count": 2, "root": 3}


def range_dispatcher_program() -> GeneratedProgram:
    """Stream (low, high) range pairs and emit (low, root, high).

    Ranges are packed as two consecutive 4-byte words; walkers pick up
    whole ranges, giving inter-range parallelism (multi-range predicates,
    IN-lists) the way point probes give inter-key parallelism.
    """
    return _dispatcher("range-dispatch",
                       ["  ld.4 r5, [r1+0]",      # low
                        "  ld.4 r6, [r1+4]"],     # high (same block)
                       ["  emit r5, r3, r6"], 8, RANGE_DISPATCHER_CONFIG)


def tree_range_walker_program() -> GeneratedProgram:
    """Scan a B+-tree range: descend to the leaf covering ``low``, then
    walk the leaf chain emitting every payload with low <= key <= high.

    Register plan: r1 = low (input), r2 = node (input: root), r10 = high
    (input), r3-r8 scratch, r13 = constant 1.
    """
    return _generated("tree-range", "W", [".input r1, r2, r10", _ONE],
                      [*_tree_descent_lines("r1"),
                       *_leaf_range_scan("r8", "leaf")], {})


# ----------------------------------------------------------------------
# Ordered-index zoo (the ROADMAP's counterpoint structures): an
# MLP-friendly hashed trie, a Wormhole-style hash-accelerated ordered
# lookup, and a level-wise batched B+-tree descent.
# ----------------------------------------------------------------------

#: Configuration registers for key-only dispatchers (trie walkers carry
#: the whole probe state in the key itself).
KEY_DISPATCHER_CONFIG = {"key_cursor": 1, "key_count": 2}

#: Configuration registers for trie walkers (one bucket table for all
#: depths, so two registers cover the whole layout).
TRIE_WALKER_CONFIG = {"bucket_base": 14, "bucket_mask": 15}

#: Configuration registers for wormhole walkers (the MetaTrieHash).
WORMHOLE_WALKER_CONFIG = {"meta_base": 14, "meta_mask": 15}

#: Configuration registers for the autonomous batched tree walker.
BATCHED_TREE_CONFIG = {"key_cursor": 1, "batch_count": 14, "root": 15}

#: Configuration registers for the trie range dispatcher (16-byte
#: records: start-terminal address, high bound).
TRIE_RANGE_DISPATCHER_CONFIG = {"range_cursor": 1, "range_count": 2}


def key_dispatcher_program(key_bytes: int = 4, *,
                           stride_keys: int = 1) -> GeneratedProgram:
    """Stream probe keys and emit each bare key to the walkers.

    The trie walker computes every candidate bucket address from the key
    alone, so unlike the hash/tree dispatchers there is nothing else to
    forward.
    """
    return _dispatcher("key-dispatch", [f"  ld.{key_bytes} r5, [r1+0]"],
                       ["  emit r5"], stride_keys * key_bytes,
                       KEY_DISPATCHER_CONFIG)


def _walker_hash_lines(hash_spec: HashSpec, role: str) -> List[str]:
    """Walker-resident hashing allows only shift/fused steps: constant
    steps would collide with the registers these programs use, and
    AND-SHF is dispatcher-only in Table 1.  Returns the r5 mixing lines."""
    for step in hash_spec.steps:
        if step.kind.endswith("_const"):
            raise AssemblerError(
                f"{role} programs compile only shift/fused hash steps; "
                f"{hash_spec.name!r} uses {step.kind!r}")
    return _hash_body(hash_spec.steps, "r5", "r5")[0]


def _bucket_address(hash_lines: Sequence[str], key: str, depth: int,
                    dest: str, bucket_bytes: int,
                    tag: str = "") -> List[str]:
    """Address of the bucket holding ``key``'s depth-``depth`` prefix:
    ``dest = r14 + (hash(prefix + 2^(32+depth)) & r15) * bucket_bytes``
    (:func:`repro.db.trie.probe_value`); ``tag``, if named, keeps the
    unhashed value."""
    keep = [f"  add {tag}, r5, r0"] if tag else []
    return [f"  shr r5, {key}, #{_KEY_BITS - _trie.NIBBLE_BITS * depth}",
            f"  add-shf r5, r5, r13, #{_KEY_BITS + depth}",
            *keep, *hash_lines,
            "  and r5, r5, r15",
            f"  add-shf {dest}, r14, r5, #{_log2(bucket_bytes)}"]


def _bucket_chain(label: str, tags: Sequence[int], hits: Sequence[str],
                  overflow: int, miss: str) -> List[str]:
    """Probe the bucket chain from r7 for the tag in r4: branch to
    ``hits[i]`` (r7 = the bucket) when the slot tag at ``tags[i]``
    matches, to ``miss`` at the end of the overflow chain."""
    lines = [f"{label}:"]
    for tag, hit in zip(tags, hits):
        lines += [f"  ld.8 r3, [r7+{tag}]",
                  "  cmp r6, r3, r4",
                  f"  ble r13, r6, {hit}"]
    return lines + [f"  ld.8 r7, [r7+{overflow}]",
                    f"  ble r7, r0, {miss}",
                    f"  ba {label}"]


def trie_walker_program(hash_spec: HashSpec) -> GeneratedProgram:
    """Probe the hashed trie depth by depth, first tag match wins.

    The walker first computes all eight candidate bucket addresses — each
    derivable from the key alone — and TOUCHes them (the Cuckoo-Trie
    signature move), so by the time the depth-order scan issues its
    blocking loads the lines are already in flight.

    Register plan: r1 = probe key (input), r3-r9 scratch, r13 = constant
    1, r14 = bucket base (config), r15 = bucket mask (config), r16-r23 =
    per-depth bucket addresses.
    """
    hash_lines = _walker_hash_lines(hash_spec, "trie walker")
    depths = range(1, _trie.MAX_DEPTH + 1)
    slots = [_trie._SLOT_BASE + _trie.SLOT_BYTES * i
             for i in range(_trie.SLOTS_PER_BUCKET)]
    names = [chr(ord("a") + i) for i in range(_trie.SLOTS_PER_BUCKET)]
    lines: List[str] = []
    for depth in depths:
        lines += _bucket_address(hash_lines, "r1", depth, f"r{15 + depth}",
                                 _trie.BUCKET_BYTES)
        lines.append(f"  touch [r{15 + depth}+0]")
    for depth in depths:
        lines += [f"level{depth}:",
                  f"  add r7, r{15 + depth}, r0",
                  f"  add-shf r4, r1, r13, #{_KEY_BITS + depth}"]  # tag
        lines += _bucket_chain(
            f"chain{depth}", [slot + _trie._TAG_OFFSET for slot in slots],
            [f"hit{depth}{name}" for name in names], _trie._OVERFLOW_OFFSET,
            f"level{depth + 1}" if depth < _trie.MAX_DEPTH else "done")
        for slot, name in zip(slots, names):
            lines += [f"hit{depth}{name}:",
                      f"  ld.4 r9, [r7+{slot + _trie._PAYLOAD_OFFSET}]",
                      "  emit r9",
                      "  ba done"]
    return _generated("trie-walk", "W", [".input r1", _ONE], lines + _EXIT,
                      TRIE_WALKER_CONFIG)


def trie_range_dispatcher_program() -> GeneratedProgram:
    """Stream (start-terminal address, high) records to the range walkers.

    Records are 16 bytes — the start address is a full pointer into the
    terminal chain (located host-side on the sorted key list, the same
    planning step a database performs on any secondary structure).
    """
    return _dispatcher("trie-range-dispatch",
                       ["  ld.8 r5, [r1+0]",      # start terminal-slot address
                        "  ld.8 r6, [r1+8]"],     # high bound
                       ["  emit r5, r6"], 16, TRIE_RANGE_DISPATCHER_CONFIG)


def trie_range_walker_program() -> GeneratedProgram:
    """Stream the trie's sorted terminal chain from a start slot while
    the stored key stays <= high, emitting payloads.

    Register plan: r1 = terminal-slot address (input, NULL for an empty
    range), r2 = high (input), r3-r6 scratch, r12 = key mask (static),
    r13 = constant 1.
    """
    return _generated(
        "trie-range", "W",
        [".input r1, r2", f".const r12 = {(1 << _KEY_BITS) - 1:#x}", _ONE],
        ["scan:",
         "  ble r1, r0, done",      # NULL start / end of chain
         f"  ld.8 r3, [r1+{_trie._TAG_OFFSET}]",     # tag = key + depth bit
         "  and r4, r3, r12",       # strip the depth bit
         "  cmp-le r5, r4, r2",
         "  ble r5, r0, done",      # key > high: past the range
         f"  ld.4 r6, [r1+{_trie._PAYLOAD_OFFSET}]",
         "  emit r6",
         f"  ld.8 r1, [r1+{_trie._NEXT_OFFSET}]",    # next terminal
         "  ba scan",
         *_EXIT], {})


def _wormhole_locate_lines(hash_lines: Sequence[str]) -> List[str]:
    """Binary-search the MetaTrieHash for r1's longest anchor prefix,
    then walk the leaf chain forward; falls through to the ``leafscan:``
    label with r2 = the leaf covering the key.

    r2 enters holding the first leaf (presence at depth 0 is implicit)
    and tracks the best ``leaf_lo`` seen; r3-r7 are scratch.
    """
    slots = [_wormhole._META_SLOT_BASE + _wormhole.META_SLOT_BYTES * i
             for i in range(_wormhole.META_SLOTS_PER_BUCKET)]
    blocks: Dict[Tuple[int, int], List[str]] = {}

    def target(lo: int, hi: int) -> str:
        if lo == hi:
            return "walkleaf"
        if (lo, hi) not in blocks:
            blocks[(lo, hi)] = state(lo, hi)
        return f"s{lo}_{hi}"

    def state(lo: int, hi: int) -> List[str]:
        mid = (lo + hi + 1) // 2
        hits = [f"h{lo}_{hi}_{i}" for i in range(len(slots))]
        absent, present = target(lo, mid - 1), target(mid, hi)
        lines = [f"s{lo}_{hi}:"]
        lines += _bucket_address(hash_lines, "r1", mid, "r7",
                                 _wormhole.META_BUCKET_BYTES, tag="r4")
        lines += _bucket_chain(
            f"c{lo}_{hi}", [slot + _wormhole._META_TAG_OFFSET
                            for slot in slots],
            hits, _wormhole._META_OVERFLOW_OFFSET, absent)
        for slot, hit in zip(slots, hits):
            leaf_lo = slot + _wormhole._META_LEAF_OFFSET
            lines += [f"{hit}:", f"  ld.8 r2, [r7+{leaf_lo}]",
                      f"  ba {present}"]
        return lines

    entry = target(0, _wormhole.MAX_DEPTH)
    lines: List[str] = [f"  ba {entry}"] if entry != "walkleaf" else []
    for key in sorted(blocks):
        lines += blocks[key]
    return lines + [
        "walkleaf:",
        f"  ld.8 r3, [r2+{_wormhole._NEXT_LEAF_OFFSET}]",
        "  ble r3, r0, leafscan",
        f"  ld.4 r4, [r3+{_wormhole._KEYS_OFFSET}]",   # next leaf's anchor
        "  cmp-le r5, r4, r1",
        "  ble r13, r5, advance",
        "  ba leafscan",
        "advance:",
        "  add r2, r3, r0",
        "  ba walkleaf",
        "leafscan:",
    ]


def wormhole_walker_program(hash_spec: HashSpec) -> GeneratedProgram:
    """Wormhole point lookup: O(log 8) independent MetaTrieHash probes
    replace the tree descent, then a short leaf walk and slot scan.

    Register plan: r1 = probe key (input), r2 = first leaf (input,
    becomes the best-so-far leaf_lo), r3-r9 scratch, r13 = constant 1,
    r14 = meta base (config), r15 = meta mask (config).
    """
    hash_lines = _walker_hash_lines(hash_spec, "wormhole walker")
    return _generated("wormhole-walk", "W", [".input r1, r2", _ONE],
                      [*_wormhole_locate_lines(hash_lines),
                       *_leaf_point_scan("r1", "r2", "r9", "miss", "done"),
                       *_EXIT], WORMHOLE_WALKER_CONFIG)


def wormhole_range_walker_program(hash_spec: HashSpec) -> GeneratedProgram:
    """Wormhole range scan: locate the leaf covering ``low`` via the
    MetaTrieHash, then stream the sorted leaf chain emitting payloads
    with low <= key <= high, as the tree range walker does.

    Register plan: r1 = low (input), r2 = first leaf (input), r10 = high
    (input), r3-r9 scratch, r13 = constant 1, r14/r15 = meta config.
    """
    hash_lines = _walker_hash_lines(hash_spec, "wormhole walker")
    return _generated("wormhole-range", "W", [".input r1, r2, r10", _ONE],
                      [*_wormhole_locate_lines(hash_lines),
                       *_leaf_range_scan("r9", "leafscan")],
                      WORMHOLE_WALKER_CONFIG)


def batched_tree_walker_program(batch: int = 4, *,
                                stride_batches: int = 1) -> GeneratedProgram:
    """Level-wise batched B+-tree descent (the FPGA batch-search pattern).

    An autonomous walker loads a whole batch of probe keys into
    registers, then descends *all* of them one level per iteration.
    Bulk-loaded trees have uniform leaf depth, so a single leaf-bit test
    on the first probe's node covers the batch.  When the driver sorts
    each batch, neighbouring probes route through the same upper-level
    nodes and the repeat fetches hit in the L1 — the amortization the
    functional :func:`repro.db.btree.batched_search` expresses by
    visiting each node once.

    Register plan: r1 = key cursor (config), r14 = batch count (config),
    r15 = root (config), r13 = constant 1, r16..r19 = batch keys,
    r20..r23 = per-key node pointers, r3-r7 scratch.
    """
    if not 2 <= batch <= 4:
        raise AssemblerError("batched walker holds 2..4 probes in registers")
    probes = [(i, f"r{16 + i}", f"r{20 + i}") for i in range(batch)]
    body = [f"  ld.4 {key}, [r1+{4 * i}]" for i, key, _node in probes]
    body += [f"  add {node}, r15, r0" for _i, _key, node in probes]
    # Uniform depth: one leaf test per level, on the first probe's node.
    body += ["level:", *_leaf_test("r20", "atleaf")]
    for i, key, node in probes:
        body += [*_internal_step(key, node, f"b{i}c", f"b{i}x"), f"b{i}x:"]
    body += ["  ba level", "atleaf:"]
    for i, key, node in probes:
        body += [*_leaf_point_scan(key, node, "r7", f"l{i}m", f"l{i}end"),
                 f"l{i}end:"]
    return _generated("tree-batch", "W", [_ONE],
                      _stream_loop("r14", body, stride_batches * batch * 4),
                      BATCHED_TREE_CONFIG)
