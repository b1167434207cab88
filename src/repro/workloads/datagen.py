"""Synthetic data generation for the benchmark catalogs.

The performance study never inspects row *values* — the simulation works
from cardinalities and byte sizes — but examples, debugging, and tests of
the catalog layer benefit from being able to materialize representative
tuples.  This module produces deterministic synthetic rows for any table
in the built schemas: keys are sequential, foreign keys reference valid
ranges, numeric attributes are drawn from seeded distributions, and
string attributes are sized to the table's row width.

Generation is streaming (batched generators), so even a Table 2-sized
catalog can be sampled without materializing it.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.engine.catalog import Database, Table
from repro.errors import WorkloadError

_ALPHABET = np.array(list(string.ascii_lowercase + " "), dtype="U1")


@dataclass(frozen=True)
class ColumnSpec:
    """Shape of one synthetic column."""

    name: str
    kind: str          # "key", "fk", "int", "float", "date", "text"
    width_bytes: int = 8
    fk_cardinality: int = 0   # for kind == "fk"


def default_columns(table: Table) -> List[ColumnSpec]:
    """A plausible column layout for a table given its row width.

    One sequential key, one foreign key, a date and a float measure, and
    text padding to reach the row width.
    """
    fixed = 8 + 8 + 8 + 8
    text_width = max(8, int(table.row_bytes) - fixed)
    return [
        ColumnSpec(name=f"{table.name}_key", kind="key"),
        ColumnSpec(name="fk", kind="fk", fk_cardinality=max(1, table.rows // 10)),
        ColumnSpec(name="event_date", kind="date"),
        ColumnSpec(name="amount", kind="float"),
        ColumnSpec(name="payload", kind="text", width_bytes=text_width),
    ]


class DataGenerator:
    """Deterministic synthetic tuple source for one database."""

    def __init__(self, database: Database, seed: int = 0):
        self.database = database
        self.seed = seed

    def _rng(self, table: str, batch_index: int) -> np.random.Generator:
        return np.random.default_rng(
            abs(hash((self.seed, self.database.name, table, batch_index))) % 2**63
        )

    def rows(
        self,
        table_name: str,
        limit: Optional[int] = None,
        batch_size: int = 10_000,
        columns: Optional[List[ColumnSpec]] = None,
    ) -> Iterator[Dict[str, object]]:
        """Yield synthetic rows for *table_name* (up to *limit*)."""
        table = self.database.table(table_name)
        specs = columns or default_columns(table)
        total = table.rows if limit is None else min(limit, table.rows)
        produced = 0
        batch_index = 0
        while produced < total:
            count = min(batch_size, total - produced)
            batch = self._batch(table, specs, produced, count, batch_index)
            for i in range(count):
                yield {spec.name: batch[spec.name][i] for spec in specs}
            produced += count
            batch_index += 1

    def _batch(
        self,
        table: Table,
        specs: List[ColumnSpec],
        offset: int,
        count: int,
        batch_index: int,
    ) -> Dict[str, np.ndarray]:
        rng = self._rng(table.name, batch_index)
        columns: Dict[str, np.ndarray] = {}
        for spec in specs:
            if spec.kind == "key":
                columns[spec.name] = np.arange(offset + 1, offset + count + 1)
            elif spec.kind == "fk":
                columns[spec.name] = rng.integers(
                    1, spec.fk_cardinality + 1, size=count
                )
            elif spec.kind == "int":
                columns[spec.name] = rng.integers(0, 1_000_000, size=count)
            elif spec.kind == "float":
                columns[spec.name] = np.round(rng.gamma(2.0, 150.0, size=count), 2)
            elif spec.kind == "date":
                # Days since the epoch of the benchmark window.
                columns[spec.name] = rng.integers(0, 2557, size=count)  # ~7 years
            elif spec.kind == "text":
                chars_per_row = max(1, spec.width_bytes)
                flat = rng.integers(0, len(_ALPHABET), size=count * chars_per_row)
                text = _ALPHABET[flat].reshape(count, chars_per_row)
                columns[spec.name] = np.array(["".join(row) for row in text])
            else:
                raise WorkloadError(f"unknown column kind {spec.kind!r}")
        return columns

    def sample(self, table_name: str, n: int = 5) -> List[Dict[str, object]]:
        """A small materialized sample (for examples and debugging)."""
        return list(self.rows(table_name, limit=n))

    def estimated_bytes(self, table_name: str) -> float:
        """Uncompressed bytes the full table would occupy if materialized."""
        table = self.database.table(table_name)
        return table.rows * table.row_bytes


def validate_against_catalog(generator: DataGenerator, table_name: str,
                             sample_size: int = 1000) -> Dict[str, object]:
    """Sanity-check generated data against catalog metadata.

    Returns a report with key uniqueness and monotonicity checks —
    used by tests and as a demonstration that the synthetic substitution
    is internally consistent.
    """
    rows = list(generator.rows(table_name, limit=sample_size))
    table = generator.database.table(table_name)
    key_column = f"{table_name}_key"
    keys = [row[key_column] for row in rows]
    return {
        "table": table_name,
        "rows_sampled": len(rows),
        "keys_unique": len(set(keys)) == len(keys),
        "keys_monotone": all(b > a for a, b in zip(keys, keys[1:])),
        "within_cardinality": (max(keys) if keys else 0) <= table.rows,
    }
