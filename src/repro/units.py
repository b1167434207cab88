"""Unit helpers for sizes, times, and rates.

Everything inside the library is expressed in base SI-ish units:

* sizes in **bytes** (``int`` where possible),
* times in **seconds** (``float``),
* rates in **bytes per second** (``float``).

The paper reports cache sizes in MB (decimal MB is used loosely by the
paper; CAT way granularity on the test machine is 2 MB = 2 * 2^20 bytes),
storage bandwidths in MB/sec, and memory bandwidths in GB/sec.  The helpers
here keep the conversions in one place so that magic multipliers never
appear in experiment code.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

#: Cache line size used for DRAM traffic accounting (bytes).
CACHE_LINE = 64

#: Database page size used by the engine model (SQL Server uses 8 KiB pages).
PAGE_SIZE = 8 * KIB

MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0


def gib(n: float) -> int:
    """Return *n* gibibytes expressed in bytes."""
    return int(n * GIB)


def mb_per_s(n: float) -> float:
    """Return *n* MB/sec expressed in bytes/sec (decimal, as iostat does)."""
    return n * MB


def gb_per_s(n: float) -> float:
    """Return *n* GB/sec expressed in bytes/sec."""
    return n * GB


def to_mb_per_s(rate_bytes_per_s: float) -> float:
    """Convert bytes/sec to (decimal) MB/sec for reporting."""
    return rate_bytes_per_s / MB


def pages(size_bytes: float) -> int:
    """Number of 8 KiB database pages needed to hold *size_bytes*."""
    return max(1, int(round(size_bytes / PAGE_SIZE)))
