"""The bucketed hash index, laid out byte-for-byte in simulated memory.

Structure (paper Section 2.2):

* a bucket array of *header nodes* — the first node of each bucket lives
  inline in the array, so a one-node bucket needs no pointer dereference
  beyond the bucket itself;
* an overflow node heap for collision chains, linked through each node's
  ``next`` pointer (NULL-terminated).

All reads/writes go through :class:`~repro.mem.PhysicalMemory`, so the
probe loop here is the functional *reference*: the baseline-core traces and
the Widx programs must reproduce its results exactly (tested
property-based in ``tests/``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvariantViolation, PlanError
from ..mem.layout import AddressSpace, Region
from ..mem.physmem import NULL_PTR
from .column import Column
from .hashfn import HashSpec
from .node import NodeLayout


def choose_num_buckets(num_keys: int, target_nodes_per_bucket: float = 1.0) -> int:
    """Smallest power-of-two bucket count giving <= the target chain depth.

    DBMSs "use a large number of buckets ... to reduce the number of nodes
    per bucket" (Section 2.1); a target of 1.0 mirrors that, while larger
    targets build the deliberately deep buckets used by the Figure 5 study.
    """
    if num_keys < 1:
        raise ValueError("need at least one key")
    if target_nodes_per_bucket <= 0:
        raise ValueError("target chain depth must be positive")
    want = max(1, round(num_keys / target_nodes_per_bucket))
    buckets = 1
    while buckets < want:
        buckets <<= 1
    return buckets


def _max_key(layout: NodeLayout) -> int:
    return (1 << (8 * layout.key_bytes)) - 1


def _record_dtype(layout: NodeLayout) -> np.dtype:
    """One node as a numpy record: the key/row-id slot, the payload
    (direct layouts only) and the next pointer at their layout offsets."""
    fields = [("slot", layout.key_offset, layout.key_slot_bytes)]
    if not layout.indirect:
        fields.append(("payload", layout.payload_offset, layout.payload_bytes))
    fields.append(("next", layout.next_offset, 8))
    return np.dtype({"names": [name for name, _, _ in fields],
                     "formats": [f"<u{width}" for _, _, width in fields],
                     "offsets": [offset for _, offset, _ in fields],
                     "itemsize": layout.stride})


#: Keys :meth:`HashIndex.build` lays out per pass; bounds its scratch.
#: A run's ~100 bytes of scratch per key stay in the CPU caches and below
#: malloc's mmap threshold: 4K-8K keys built the 1M-key kernel index
#: fastest, and 64K-key runs left ~6 MB more heap resident after it.
_BUILD_RUN = 1 << 12


def _as_unsigned(values: Sequence[int]) -> np.ndarray:
    """Unsigned arrays as they are; ``int64`` arrays viewed as ``uint64``
    and other arrays converted to it, negatives wrapped to two's
    complement as :meth:`PhysicalMemory.write` masks them; other
    sequences exactly (outside ``[0, 2**64)`` raises)."""
    if not isinstance(values, np.ndarray):
        return np.array(values, dtype=np.uint64)
    if values.dtype.kind == "u":
        return values
    if values.dtype == np.int64:
        return values.view(np.uint64)
    return values.astype(np.uint64)


@dataclass
class IndexStats:
    """Occupancy statistics of a built index."""

    num_keys: int
    num_buckets: int
    used_buckets: int
    overflow_nodes: int
    max_chain: int

    @property
    def nodes_per_used_bucket(self) -> float:
        if self.used_buckets == 0:
            return 0.0
        return self.num_keys / self.used_buckets


class HashIndex:
    """A hash index over (key, payload) pairs in simulated memory."""

    def __init__(self, space: AddressSpace, layout: NodeLayout,
                 num_buckets: int, hash_spec: HashSpec,
                 capacity: int, name: str = "index",
                 key_column: Optional[Column] = None) -> None:
        if num_buckets & (num_buckets - 1):
            raise ValueError("bucket count must be a power of two")
        if capacity < 1:
            raise ValueError("index capacity must be positive")
        if layout.indirect and key_column is None:
            raise PlanError("an indirect layout needs the indexed base column")
        if layout.indirect and key_column is not None:
            if key_column.dtype.nbytes != layout.key_bytes:
                raise PlanError(
                    f"layout expects {layout.key_bytes}B keys but column "
                    f"{key_column.name!r} is {key_column.dtype.nbytes}B")
        self.space = space
        self.memory = space.memory
        self.layout = layout
        self.num_buckets = num_buckets
        self.hash_spec = hash_spec
        self.name = name
        self.key_column = key_column
        self.buckets: Region = space.allocate(
            f"{name}:buckets", num_buckets * layout.stride, align=64)
        # Worst case every key overflows past the header node.
        self.nodes: Region = space.allocate(
            f"{name}:nodes", capacity * layout.stride, align=64)
        self._next_node = self.nodes.base
        self._record = _record_dtype(layout)
        self.num_keys = 0
        self._overflow_nodes = 0
        self._initialize_headers()

    # ------------------------------------------------------------------
    # Layout accessors
    # ------------------------------------------------------------------

    def bucket_addr(self, bucket: int) -> int:
        """Simulated address of a bucket's header node."""
        return self.buckets.base + (bucket << self.layout.shift)

    def bucket_of_key(self, key: int) -> int:
        """The bucket index the hash function maps a key to."""
        return self.hash_spec.bucket_of(key, self.num_buckets)

    def _read_slot(self, node_addr: int) -> int:
        """The key (direct) or row id (indirect) stored at a node."""
        layout = self.layout
        return self.memory.read(node_addr + layout.key_offset, layout.key_slot_bytes)

    def node_next(self, node_addr: int) -> int:
        """A node's next-chain pointer (NULL terminates)."""
        return self.memory.read_u64(node_addr + self.layout.next_offset)

    def node_payload(self, node_addr: int) -> int:
        """The payload a probe emits for this node."""
        layout = self.layout
        if layout.indirect:
            return self._read_slot(node_addr)  # payload is the row id
        return self.memory.read(node_addr + layout.payload_offset,
                                layout.payload_bytes)

    def key_address_for_row(self, row_id: int) -> int:
        """Address of the key in the base column (indirect layouts)."""
        if self.key_column is None:
            raise InvariantViolation(
                "key_address_for_row on a direct layout: no base key column")
        return self.key_column.address_of(row_id)

    def node_key(self, node_addr: int) -> int:
        """The key value a probe compares at this node."""
        slot = self._read_slot(node_addr)
        if not self.layout.indirect:
            return slot
        return self.memory.read(self.key_address_for_row(slot),
                                self.layout.key_bytes)

    def _header_empty(self, header_addr: int) -> bool:
        return self._read_slot(header_addr) == self.layout.empty_sentinel

    def _bucket_span(self) -> Tuple[int, np.dtype, int]:
        """The bucket array as a :meth:`PhysicalMemory.with_arrays` span."""
        return self.buckets.base, self._record, self.num_buckets

    def _initialize_headers(self) -> None:
        # The bucket region is freshly allocated (zeroed): only the empty
        # sentinel needs storing; the next pointers are already NULL.
        def empty(headers: np.ndarray) -> None:
            headers["slot"] = self.layout.empty_sentinel
        self.memory.with_arrays(empty, self._bucket_span())

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def insert(self, key: int, payload: int) -> None:
        """Insert one entry.

        For direct layouts ``payload`` is the stored payload; for indirect
        layouts it is the row id into the base column (and ``key`` must be
        the value at that row — validated).
        """
        layout = self.layout
        if not layout.indirect and not 0 <= key <= _max_key(layout):
            raise ValueError(f"key {key} does not fit {layout.key_bytes} bytes")
        if not layout.indirect and key == layout.empty_sentinel:
            raise ValueError("key collides with the empty-bucket sentinel")
        if layout.indirect:
            stored = self.memory.read(self.key_address_for_row(payload),
                                      layout.key_bytes)
            if stored != key:
                raise PlanError(
                    f"row {payload} holds key {stored}, not {key}")
        slot_value = payload if layout.indirect else key
        header = self.bucket_addr(self.bucket_of_key(key))
        if self._header_empty(header):
            self._write_node(header, slot_value,
                             payload if not layout.indirect else 0,
                             self.node_next(header))
        else:
            node = self._alloc_node()
            # Insert right after the header, preserving the header inline.
            self._write_node(node, slot_value,
                             payload if not layout.indirect else 0,
                             self.node_next(header))
            self.memory.write_u64(header + layout.next_offset, node)
            self._overflow_nodes += 1
        self.num_keys += 1

    def _alloc_node(self) -> int:
        addr = self._next_node
        if addr + self.layout.stride > self.nodes.end:
            raise PlanError(f"index {self.name!r} node heap exhausted")
        self._next_node += self.layout.stride
        return addr

    def _write_node(self, addr: int, slot_value: int, payload: int,
                    next_ptr: int) -> None:
        layout = self.layout
        self.memory.write(addr + layout.key_offset, layout.key_slot_bytes,
                          slot_value)
        if not layout.indirect:
            self.memory.write(addr + layout.payload_offset,
                              layout.payload_bytes, payload)
        self.memory.write_u64(addr + layout.next_offset, next_ptr)

    def build(self, keys: Sequence[int], payloads: Sequence[int]) -> None:
        """Bulk insert (Step 1 of the paper's Figure 1).

        Stores exactly the bytes, in the same places, that calling
        :meth:`insert` on each pair in order would, with every check
        :meth:`insert` makes run (and the first failure raised) before
        any byte is written.  Two passes go over the keys a run at a
        time, so scratch arrays stay the size of a run: the first makes
        the checks, the second lays each run out in place, through views
        of the bucket array and the node heap in the store.
        """
        signed = isinstance(keys, np.ndarray) and keys.dtype.kind == "i"
        keys, payloads = _as_unsigned(keys), _as_unsigned(payloads)
        if len(keys) != len(payloads):
            raise ValueError("keys and payloads must have equal length")
        if len(keys) == 0:
            return
        column_keys = None
        if self.layout.indirect:
            column = self.key_column
            column_keys = np.frombuffer(self.memory.read_array(
                column.region.base, column.dtype.nbytes, len(column)),
                column.values.dtype.newbyteorder("<"))
        runs = [slice(start, start + _BUILD_RUN)
                for start in range(0, len(keys), _BUILD_RUN)]
        room = (self.nodes.end - self._next_node) // self.layout.stride
        self._check(keys, payloads, column_keys, runs, room, signed)

        def lay_out(headers: np.ndarray, nodes: np.ndarray) -> int:
            used = 0
            for run in runs:
                used = self._lay_out(headers, nodes, used, keys[run],
                                     payloads[run])
            return used

        used = self.memory.with_arrays(
            lay_out, self._bucket_span(),
            (self._next_node, self._record, min(len(keys), room)))
        self._next_node += used * self.layout.stride
        self._overflow_nodes += used
        self.num_keys += len(keys)

    def _check(self, keys: np.ndarray, payloads: np.ndarray,
               column_keys: Optional[np.ndarray], runs: List[slice],
               room: int, signed: bool) -> None:
        """Raise what a per-key :meth:`insert` loop would raise first.

        The node heap can run out only when it has room for fewer nodes
        than there are keys; only then does an occupied-bucket bitmap
        (one byte per bucket) track which keys spill past their header.
        """
        occupied = None
        if room < len(keys):
            sentinel = self.layout.empty_sentinel
            occupied = self.memory.with_arrays(
                lambda headers: headers["slot"] != sentinel,
                self._bucket_span())
        for run in runs:
            homeless = ()
            if occupied is not None:
                homeless, room = self._homeless(keys[run], occupied, room)
            self._check_run(keys[run], payloads[run], column_keys, homeless,
                            signed)

    def _homeless(self, keys: np.ndarray, occupied: np.ndarray,
                  room: int) -> Tuple[Sequence[int], int]:
        """The index of the first key of a run the node heap has no room
        for, as a 0- or 1-element sequence, and the room left after it.

        A key spills past its header if its bucket was ``occupied`` or an
        earlier key of the run shares it; ``occupied`` is updated.
        """
        bucket = self.hash_spec.buckets_of(keys, self.num_buckets)
        spills = occupied[bucket]
        taken = np.count_nonzero(occupied)
        occupied[bucket] = True
        spilled = len(keys) - (np.count_nonzero(occupied) - taken)
        if spilled <= room:
            return (), room - spilled
        order, grouped = self._group(bucket)
        later = np.zeros(len(keys), bool)
        np.equal(grouped[1:], grouped[:-1], out=later[1:])
        spills[order[later]] = True
        return np.flatnonzero(spills)[room:room + 1], 0

    def _group(self, bucket: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """A run's key indices stably ordered by bucket, and their buckets.

        One plain sort of the unique composite keys ``bucket << shift |
        index`` gives the stable order: the low bits are the order, the
        high bits the grouped buckets.  They fit in ``int64`` up to 2**51
        buckets for a 4K run; no store holds a bucket array that large.
        """
        shift = (len(bucket) - 1).bit_length()
        assert (self.num_buckets - 1).bit_length() + shift <= 63, \
            "composite bucket keys overflow int64"
        composite = bucket.astype(np.int64)
        composite <<= shift
        composite |= np.arange(len(bucket))
        composite.sort()
        return composite & ((1 << shift) - 1), composite >> shift

    def _lay_out(self, headers: np.ndarray, nodes: np.ndarray, used: int,
                 keys: np.ndarray, payloads: np.ndarray) -> int:
        """Insert one run of keys into the bucket array ``headers`` and
        the free node heap ``nodes``, after the ``used`` heap nodes
        earlier runs took; returns the heap nodes now in use.

        A stable sort by bucket gives each key its rank among the run's
        keys of its bucket, plus one if the header is already taken.
        Rank 0 fills the inline header; every later rank takes the next
        heap node in insertion order.  Each overflow node points at its
        bucket predecessor's node (rank 1: at the header's old next), and
        the header at its newest one — the chain header -> newest ->
        ... -> oldest -> previous chain that repeated insertion builds.
        """
        layout = self.layout
        count = len(keys)
        order, grouped = self._group(
            self.hash_spec.buckets_of(keys, self.num_buckets))
        position = np.arange(count)
        leads = np.ones(count, bool)
        np.not_equal(grouped[1:], grouped[:-1], out=leads[1:])
        rank = position - np.maximum.accumulate(np.where(leads, position, 0))
        rank += headers["slot"][grouped] != layout.empty_sentinel
        spills = np.zeros(count, bool)
        spills[order[rank > 0]] = True
        spill = np.flatnonzero(spills)

        slot = payloads if layout.indirect else keys
        inline = rank == 0
        headers["slot"][grouped[inline]] = slot[order[inline]]
        fresh = nodes[used:used + len(spill)]
        fresh["slot"] = slot[spill]
        if not layout.indirect:
            headers["payload"][grouped[inline]] = payloads[order[inline]]
            fresh["payload"] = payloads[spill]
        stride = layout.stride
        heap = self._next_node
        node = np.cumsum(spills) - 1
        node += used
        grouped_node = node[order]
        spilled = np.flatnonzero(rank)
        below = grouped_node[spilled - 1] * stride + heap
        first = rank[spilled] == 1
        below[first] = headers["next"][grouped[spilled[first]]]
        nodes["next"][grouped_node[spilled]] = below
        last = np.flatnonzero(np.append(leads[1:], True))
        last = last[rank[last] > 0]
        headers["next"][grouped[last]] = grouped_node[last] * stride + heap
        return used + len(spill)

    def _check_run(self, keys: np.ndarray, payloads: np.ndarray,
                   column_keys: Optional[np.ndarray],
                   homeless: Sequence[int], signed: bool) -> None:
        """Raise what a per-key :meth:`insert` loop over one run would
        raise first; ``homeless`` holds the first key (if any) the node
        heap has no room for.  ``signed`` keys came from a signed array:
        viewed as ``int64`` again they show the negatives, which no
        layout takes, that the wrap to ``uint64`` hid."""
        layout = self.layout
        failures = []   # (index of the failing key, error), checks in order
        shown = keys.view(np.int64) if signed else keys
        negative = shown < 0 if signed else False
        if column_keys is not None:
            rows = len(column_keys)
            in_range = payloads < rows
            outside = np.flatnonzero(~in_range)
            if len(outside):
                failures.append((outside[0], IndexError(
                    f"row {int(payloads[outside[0]])} out of range for "
                    f"column {self.key_column.name!r}")))
            row_keys = np.zeros(len(keys), column_keys.dtype)
            row_keys[in_range] = column_keys[payloads[in_range]
                                             .astype(np.intp)]
            wrong = np.flatnonzero(in_range & ((row_keys != keys) | negative))
            if len(wrong):
                at = wrong[0]
                failures.append((at, PlanError(
                    f"row {int(payloads[at])} holds key "
                    f"{int(row_keys[at])}, not {int(shown[at])}")))
        else:
            wide = np.flatnonzero((keys > _max_key(layout)) | negative)
            if len(wide):
                failures.append((wide[0], ValueError(
                    f"key {int(shown[wide[0]])} does not fit "
                    f"{layout.key_bytes} bytes")))
            clash = np.flatnonzero(keys == layout.empty_sentinel)
            if len(clash):
                failures.append((clash[0], ValueError(
                    "key collides with the empty-bucket sentinel")))
        if len(homeless):
            failures.append((homeless[0], PlanError(
                f"index {self.name!r} node heap exhausted")))
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]

    # ------------------------------------------------------------------
    # Probe (the functional reference for Listing 1 / Step 2 of Figure 1)
    # ------------------------------------------------------------------

    def walk_chain(self, key: int) -> Iterator[int]:
        """Yield the node addresses a probe for ``key`` visits, in order."""
        header = self.bucket_addr(self.bucket_of_key(key))
        if self._header_empty(header):
            return
        node = header
        while node != NULL_PTR:
            yield node
            node = self.node_next(node)

    def probe(self, key: int) -> List[int]:
        """All payloads whose key matches (the reference result)."""
        matches = []
        for node in self.walk_chain(key):
            if self.node_key(node) == key:
                matches.append(self.node_payload(node))
        return matches

    def probe_count_nodes(self, key: int) -> Tuple[List[int], int]:
        """Like :meth:`probe` but also returns the number of nodes visited."""
        matches, visited = [], 0
        for node in self.walk_chain(key):
            visited += 1
            if self.node_key(node) == key:
                matches.append(self.node_payload(node))
        return matches, visited

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def chain_length(self, bucket: int) -> int:
        """Number of nodes in one bucket's chain (0 if empty)."""
        header = self.bucket_addr(bucket)
        if self._header_empty(header):
            return 0
        length, node = 0, header
        while node != NULL_PTR:
            length += 1
            node = self.node_next(node)
        return length

    def stats(self) -> IndexStats:
        """Occupancy statistics (chains, overflow, load factor)."""
        used = 0
        max_chain = 0
        for bucket in range(self.num_buckets):
            length = self.chain_length(bucket)
            if length:
                used += 1
                if length > max_chain:
                    max_chain = length
        return IndexStats(
            num_keys=self.num_keys,
            num_buckets=self.num_buckets,
            used_buckets=used,
            overflow_nodes=self._overflow_nodes,
            max_chain=max_chain,
        )

    @property
    def footprint_bytes(self) -> int:
        """Bytes the index actually touches (buckets + used overflow nodes)."""
        return self.buckets.size + (self._next_node - self.nodes.base)
