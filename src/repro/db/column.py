"""Columns: typed value vectors that can be materialized into simulated memory.

A column lives in two forms:

* a numpy array (``values``) used by the functional operators, and
* optionally a *materialized* copy in simulated :class:`PhysicalMemory`,
  which is what the timing-simulated probe loops actually read.  Keys are
  packed densely, so eight 8-byte keys (or sixteen 4-byte keys) share one
  64 B cache block — the spatial locality the dispatcher exploits.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..mem.layout import AddressSpace, Region
from .types import DataType


class Column:
    """A named, typed vector of values."""

    def __init__(self, name: str, dtype: DataType,
                 values: Union[Sequence[int], np.ndarray]) -> None:
        self.name = name
        self.dtype = dtype
        self.values = np.asarray(values, dtype=dtype.numpy_dtype)
        self._region: Optional[Region] = None
        self._space: Optional[AddressSpace] = None

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.dtype.value}, n={len(self)})"

    @property
    def nbytes(self) -> int:
        return len(self.values) * self.dtype.nbytes

    @property
    def region(self) -> Region:
        if self._region is None:
            raise RuntimeError(f"column {self.name!r} is not materialized")
        return self._region

    @property
    def is_materialized(self) -> bool:
        return self._region is not None

    @property
    def space(self) -> Optional[AddressSpace]:
        """The address space this column is materialized in (or None)."""
        return self._space

    def detached_copy(self) -> "Column":
        """An unmaterialized copy (for re-materializing elsewhere)."""
        return Column(self.name, self.dtype, self.values.copy())

    def materialize(self, space: AddressSpace, region_name: Optional[str] = None) -> Region:
        """Copy the values into simulated memory; returns the region.

        Idempotent within one address space; materializing into a second
        space is an error (the region's addresses would be meaningless
        there) — use :meth:`detached_copy` instead.
        """
        if self._region is not None:
            if self._space is not space:
                raise RuntimeError(
                    f"column {self.name!r} is already materialized in a "
                    f"different address space; materialize a detached_copy()")
            return self._region
        name = region_name or f"column:{self.name}"
        region = space.allocate(name, max(self.nbytes, 1), align=64)
        little = self.values.dtype.newbyteorder("<")
        space.memory.write_array(region.base,
                                 self.values.astype(little, copy=False))
        self._region = region
        self._space = space
        return region

    def address_of(self, row: int) -> int:
        """Simulated address of ``values[row]``."""
        if not 0 <= row < len(self.values):
            raise IndexError(f"row {row} out of range for column {self.name!r}")
        return self.region.base + row * self.dtype.nbytes

    def iter_addresses(self) -> Iterable[int]:
        """Yield each row's simulated-memory address in order."""
        base = self.region.base
        width = self.dtype.nbytes
        for row in range(len(self.values)):
            yield base + row * width
