"""Exact partition numbers p(n) by two independent algorithms.

The pentagonal-number recurrence is the production path; the part-counting
dynamic program exists so that every value can be cross-checked against an
algorithm that shares no code or ideas with it.
"""

from __future__ import annotations

import itertools
import operator
import os
import zlib
from typing import NamedTuple

from .errors import DomainError, ResourceError

# a table to 10**5 takes about 5 s and 14 MB to build, and the cost grows
# faster than linearly in n_max
PENTAGONAL_CAP = 10**5
DP_CAP = 5 * 10**4
_FORMAT_VERSION = "v1"
# a saved table is formatted, checksummed and read this many lines (about
# this many bytes) at a time, which bounds the memory a save or load adds
_BLOCK_LINES = 256
_BLOCK_BYTES = 1 << 14


class PartitionTable(NamedTuple):
    """Exact values p(0)..p(n_max); immutable once built."""

    values: tuple
    n_max: int

    def p(self, n: int) -> int:
        """p(n); a negative n raises DomainError and an n past n_max ResourceError."""
        if n < 0:
            raise DomainError(f"n must be nonnegative, got {n}")
        if n > self.n_max:
            raise ResourceError(f"p({n}) not in table (n_max={self.n_max})")
        return self.values[n]


def partition_pentagonal(n_max: int) -> PartitionTable:
    """Table of p(0)..p(n_max) via the pentagonal-number recurrence.

    p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)],
    with p(j) = 0 for j < 0.

    The table grows as a list, so while p(n) is formed ``values[-g]`` is
    p(n - g).  Each generalized pentagonal number g = k(3k-1)/2, k(3k+1)/2
    joins the offsets of its sign, ``-g`` in ``plus`` for odd k and in
    ``minus`` for even k, once n reaches it, and every entry is
    ``sum(values[-g] for g in plus) - sum(values[-g] for g in minus)``.  Each
    sum runs over the tuple a ``_gather`` of its offsets takes in one call,
    rebuilt when an offset joins, without a Python-level step per term.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    if n_max > PENTAGONAL_CAP:
        raise ResourceError(f"n_max={n_max} exceeds cap {PENTAGONAL_CAP}")
    values = [1]
    plus, minus = [], []
    k = 0
    while len(values) <= n_max:
        k += 1
        offsets = plus if k % 2 else minus
        # k's two pentagonal numbers, and k+1's first, where the next one starts
        low, high, following = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2, (k + 1) * (3 * k + 2) // 2
        for g, end in ((low, high), (high, following)):
            offsets.append(-g)
            added, subtracted = _gather(plus), _gather(minus)
            for _ in range(g, min(end, n_max + 1)):
                values.append(sum(added(values)) - sum(subtracted(values)))
    return PartitionTable(values=tuple(values), n_max=n_max)


def _gather(offsets: list):
    """The function that takes a list's entries at ``offsets``, as a tuple: an ``itemgetter``, but for
    fewer than two offsets, where ``itemgetter`` returns the one entry itself or cannot be built."""
    if len(offsets) > 1:
        return operator.itemgetter(*offsets)
    fixed = tuple(offsets)
    return lambda values: tuple(values[g] for g in fixed)


def partition_dp_row(n: int) -> list:
    """p(0)..p(n) via the part-counting dynamic program (test oracle).

    ways[j] after processing parts 1..k counts partitions of j into parts
    <= k; once k reaches j that is p(j).
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n > DP_CAP:
        raise ResourceError(f"n={n} exceeds cap {DP_CAP}")
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1):
        for j in range(part, n + 1):
            ways[j] += ways[j - part]
    return ways


def _header(crc: int) -> bytes:
    """The first line of a table file: format, version and the body's CRC-32."""
    return f"# partition-table {_FORMAT_VERSION} crc32={crc:08x}\n".encode("ascii")


def save_table(table: PartitionTable, path: str) -> None:
    """Write the table as a header line and one "n<TAB>p(n)" line per entry, in decimal.

    The header ``# partition-table v1 crc32=<8 hex digits>`` carries the
    CRC-32 of every line after it.  The body is formatted, checksummed and
    written ``_BLOCK_LINES`` lines at a time, and the header, whose length
    does not depend on the checksum, is written over a placeholder at the
    end.  The lines go to a temporary file beside ``path``, which then
    replaces it in one step, so a concurrent reader never sees a partly
    written table.  An ``OSError`` about that file names ``path`` instead,
    as the temporary name changes from process to process.
    """
    values = table.values
    temporary = f"{path}.{os.getpid()}.tmp"
    crc = 0
    try:
        with open(temporary, "wb") as fh:
            fh.write(_header(crc))
            for start in range(0, len(values), _BLOCK_LINES):
                block = values[start : start + _BLOCK_LINES]
                numbered = itertools.chain.from_iterable(zip(itertools.count(start), block))
                lines = ("{}\t{}\n" * len(block)).format(*numbered).encode("ascii")
                crc = zlib.crc32(lines, crc)
                fh.write(lines)
            fh.seek(0)
            fh.write(_header(crc))
        os.replace(temporary, path)
    except OSError as exc:
        if exc.filename != temporary:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def load_table(path: str) -> PartitionTable:
    """Read a table written by :func:`save_table`, validating its header,
    checksum and invariants.

    A missing header, another format version, a body whose CRC-32 differs
    from the header's, a malformed line or a broken invariant is a
    ``ValueError``; nothing read from such a file is returned.  The body is
    read and checksummed in blocks of about ``_BLOCK_BYTES`` bytes, and the
    lines are checked in order, so the first malformed one is reported.
    """
    values = []
    crc = 0
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 4 or header[:2] != ["#", "partition-table"]:
            raise ValueError(f"{path}: missing '# partition-table <version> crc32=<hex>' header")
        if header[2] != _FORMAT_VERSION:
            raise ValueError(f"{path}: unknown table format {header[2]!r}")
        lineno = 1
        while block := fh.readlines(_BLOCK_BYTES):
            crc = zlib.crc32(b"".join(block), crc)
            for lineno, line in enumerate(block, start=lineno + 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(b"\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'n<TAB>p(n)'")
                n, value = int(parts[0]), int(parts[1])
                if n != len(values):
                    raise ValueError(f"{path}:{lineno}: indices must be consecutive from 0")
                values.append(value)
    if header[3] != f"crc32={crc:08x}":
        raise ValueError(f"{path}: checksum mismatch")
    if not values or values[0] != 1:
        raise ValueError(f"{path}: table must start with p(0) = 1")
    for n in range(2, len(values)):
        if values[n] <= values[n - 1]:
            raise ValueError(f"{path}: values must be strictly increasing from index 1")
    if any(v < 0 for v in values):
        raise ValueError(f"{path}: negative entry")
    return PartitionTable(values=tuple(values), n_max=len(values) - 1)
