"""Database catalog: tables, indexes, cardinalities, and byte sizes.

The catalog carries exactly what the optimizer and buffer pool need:
row counts, row widths, storage formats, and index footprints.  Sizing is
calibrated so that the built-in benchmark databases reproduce the paper's
Table 2 (data and index GB at each scale factor).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.types import (
    COLUMNSTORE_COMPRESSION,
    IndexKind,
    StorageFormat,
    WorkloadClass,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Index:
    """An index over a table.

    ``bytes_per_row`` covers key + row locator (B-tree) or the compressed
    column segments (columnstore).
    """

    name: str
    kind: IndexKind
    bytes_per_row: float

    def size_bytes(self, rows: int) -> float:
        return rows * self.bytes_per_row


@dataclass
class Table:
    """A base table with optional secondary indexes.

    Byte sizes are memoized: table shapes are effectively immutable after
    schema construction, yet the buffer pool re-derives residency from
    these sums on every point access and scan — the single hottest loop
    of an OLTP run.  The memo re-keys on ``(rows, row_bytes, storage,
    compression_ratio, len(indexes))``, so bulk-load-style mutations of
    any of those invalidate it automatically.
    """

    name: str
    rows: int
    row_bytes: float
    storage: StorageFormat = StorageFormat.ROW
    indexes: List[Index] = field(default_factory=list)
    #: Fraction of the table that is "hot" for point accesses (drives
    #: buffer-pool locality and lock contention for OLTP tables).
    hot_fraction: float = 0.1
    #: Columnstore compression achieved for this table.  Small scale
    #: factors compress worse (dictionary and segment overheads), so the
    #: schema builders override the default where needed.
    compression_ratio: Optional[float] = None
    _size_key: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _sizes: Tuple[float, float] = field(
        default=(0.0, 0.0), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.rows < 0 or self.row_bytes <= 0:
            raise ConfigurationError(f"table {self.name}: bad shape")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ConfigurationError(f"table {self.name}: hot_fraction in (0,1]")
        if self.compression_ratio is not None and self.compression_ratio < 1.0:
            raise ConfigurationError(f"table {self.name}: compression must be >= 1")

    def _size_pair(self) -> Tuple[float, float]:
        key = (self.rows, self.row_bytes, self.storage,
               self.compression_ratio, len(self.indexes))
        if key != self._size_key:
            raw = self.rows * self.row_bytes
            if self.storage is StorageFormat.COLUMN:
                data = raw / (self.compression_ratio or COLUMNSTORE_COMPRESSION)
            else:
                data = raw
            index = sum(ix.size_bytes(self.rows) for ix in self.indexes)
            self._sizes = (data, index)
            self._size_key = key
        return self._sizes

    @property
    def data_bytes(self) -> float:
        """On-disk bytes of the base data (after columnstore compression)."""
        return self._size_pair()[0]

    @property
    def uncompressed_bytes(self) -> float:
        return self.rows * self.row_bytes

    @property
    def index_bytes(self) -> float:
        return self._size_pair()[1]

    def index(self, name: str) -> Index:
        for index in self.indexes:
            if index.name == name:
                return index
        raise ConfigurationError(f"table {self.name}: no index {name!r}")

    def has_index_kind(self, kind: IndexKind) -> bool:
        return any(index.kind is kind for index in self.indexes)


@dataclass
class Database:
    """A named database at a specific scale factor."""

    name: str
    scale_factor: int
    workload_class: WorkloadClass
    tables: Dict[str, Table] = field(default_factory=dict)
    #: Bumped whenever the schema (and so the size sums) may have
    #: changed; buffer pools key their derived-residency memos on it.
    sizes_version: int = field(default=0, init=False, repr=False,
                               compare=False)
    _sizes_cache: Optional[Tuple[float, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_table(self, table: Table) -> None:
        if table.name in self.tables:
            raise ConfigurationError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table
        self.invalidate_sizes()
        self._check_design(table)

    def invalidate_sizes(self) -> None:
        """Drop the memoized size sums (call after mutating a table
        in place — :meth:`add_table` calls it automatically)."""
        self.sizes_version += 1
        self._sizes_cache = None

    def _check_design(self, table: Table) -> None:
        """Warn on the paper's pitfall #2: wrong storage layout for the
        workload class (§9)."""
        if (
            self.workload_class is WorkloadClass.DSS
            and table.storage is StorageFormat.ROW
            and not table.has_index_kind(IndexKind.COLUMNSTORE_CLUSTERED)
        ):
            warnings.warn(
                f"{self.name}.{table.name}: row-store table in a decision "
                "support database (performance-analysis pitfall #2)",
                stacklevel=3,
            )
        if self.workload_class is WorkloadClass.OLTP and table.storage is StorageFormat.COLUMN:
            warnings.warn(
                f"{self.name}.{table.name}: column-store table in a "
                "transactional database (performance-analysis pitfall #2)",
                stacklevel=3,
            )

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise ConfigurationError(f"{self.name}: no table {name!r}")
        return table

    def _size_sums(self) -> Tuple[float, float]:
        """Memoized (data, index) byte totals over every table.

        These sums back every buffer-pool residency probe — per point
        access on the OLTP path — so they are computed once per schema
        version, not per call.
        """
        if self._sizes_cache is None:
            self._sizes_cache = (
                sum(t.data_bytes for t in self.tables.values()),
                sum(t.index_bytes for t in self.tables.values()),
            )
        return self._sizes_cache

    @property
    def data_bytes(self) -> float:
        return self._size_sums()[0]

    @property
    def index_bytes(self) -> float:
        return self._size_sums()[1]

    @property
    def total_bytes(self) -> float:
        data, index = self._size_sums()
        return data + index
