"""Exact partition numbers p(n) by two independent algorithms.

The pentagonal-number recurrence is the production path; the part-counting
dynamic program exists so that every value can be cross-checked against an
algorithm that shares no code or ideas with it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ResourceError

PENTAGONAL_CAP = 10**6
DP_CAP = 5 * 10**4


@dataclass(frozen=True)
class PartitionTable:
    """Exact values p(0)..p(n_max); immutable once built."""

    values: tuple
    n_max: int

    def p(self, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ResourceError(f"p({n}) not in table (n_max={self.n_max})")
        return self.values[n]


def partition_pentagonal(n_max: int) -> PartitionTable:
    """Table of p(0)..p(n_max) via the pentagonal-number recurrence.

    p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)],
    with p(j) = 0 for j < 0.
    """
    if n_max < 0:
        raise ResourceError(f"n_max must be nonnegative, got {n_max}")
    if n_max > PENTAGONAL_CAP:
        raise ResourceError(f"n_max={n_max} exceeds cap {PENTAGONAL_CAP}")
    values = [0] * (n_max + 1)
    values[0] = 1
    for n in range(1, n_max + 1):
        acc = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            acc += sign * values[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                acc += sign * values[n - g2]
            k += 1
        values[n] = acc
    return PartitionTable(values=tuple(values), n_max=n_max)


def partition_dp_row(n: int) -> list:
    """p(0)..p(n) via the part-counting dynamic program (test oracle).

    ways[j] after processing parts 1..k counts partitions of j into parts
    <= k; once k reaches j that is p(j).
    """
    if n < 0:
        raise ResourceError(f"n must be nonnegative, got {n}")
    if n > DP_CAP:
        raise ResourceError(f"n={n} exceeds cap {DP_CAP}")
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1):
        for j in range(part, n + 1):
            ways[j] += ways[j - part]
    return ways


def save_table(table: PartitionTable, path: str) -> None:
    """Write the table as one "n<TAB>p(n)" line per entry, in decimal.

    The lines go to a temporary file beside ``path``, which then replaces it
    in one step, so a concurrent reader never sees a partly written table.
    """
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="ascii") as fh:
            for n, value in enumerate(table.values):
                fh.write(f"{n}\t{value}\n")
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def load_table(path: str) -> PartitionTable:
    """Read a table written by :func:`save_table`, validating its invariants."""
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno + 1}: expected 'n<TAB>p(n)'")
            n, value = int(parts[0]), int(parts[1])
            if n != len(values):
                raise ValueError(f"{path}:{lineno + 1}: indices must be consecutive from 0")
            values.append(value)
    if not values or values[0] != 1:
        raise ValueError(f"{path}: table must start with p(0) = 1")
    for n in range(2, len(values)):
        if values[n] <= values[n - 1]:
            raise ValueError(f"{path}: values must be strictly increasing from index 1")
    if any(v < 0 for v in values):
        raise ValueError(f"{path}: negative entry")
    return PartitionTable(values=tuple(values), n_max=len(values) - 1)
