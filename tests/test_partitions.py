"""Exact p(n): recurrence vs counting DP vs brute enumeration, and persistence."""

import functools
import math
import zlib

import pytest

from partition_asymptotics import (
    PartitionTable,
    ResourceError,
    load_table,
    partition_dp_row,
    partition_pentagonal,
    save_table,
)
from partition_asymptotics import partitions
from partition_asymptotics.partitions import DP_CAP, PENTAGONAL_CAP

from helpers import with_header


@functools.lru_cache(maxsize=None)
def _count_with_max_part(n, max_part):
    if n == 0:
        return 1
    return sum(_count_with_max_part(n - p, p) for p in range(min(n, max_part), 0, -1))


def brute_partition_count(n):
    """Enumeration by largest part; independent of both production algorithms."""
    return _count_with_max_part(n, n)


def test_table_base_case():
    table = partition_pentagonal(0)
    assert table.values == (1,)
    assert table.n_max == 0


def test_small_values_by_enumeration():
    table = partition_pentagonal(30)
    assert table.p(5) == 7 == brute_partition_count(5)
    assert table.p(10) == 42 == brute_partition_count(10)
    for n in range(31):
        assert table.p(n) == brute_partition_count(n)


def _term_by_term(n_max):
    """The recurrence with one interpreted step per term, as it was first written."""
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
    return tuple(values)


def test_gather_matches_term_by_term_recurrence():
    assert partition_pentagonal(3000).values == _term_by_term(3000)


def test_smallest_tables_against_dp():
    # below n = 5 the minus offsets are empty, and each size up to 8 stops
    # inside a different stretch between pentagonal numbers
    for k in range(9):
        assert partition_pentagonal(k).values == tuple(partition_dp_row(k))


def test_tables_are_prefixes_of_larger_tables():
    largest = partition_pentagonal(2200).values
    for a in (0, 1, 2, 4, 5, 6, 7, 11, 12, 14, 15, 100, 2199):
        assert partition_pentagonal(a).values == largest[: a + 1]


def test_large_entries_against_sympy():
    sympy = pytest.importorskip("sympy")
    table = partition_pentagonal(2 * 10**4)
    for n in (10**4, 2 * 10**4):
        assert table.p(n) == int(sympy.partition(n))


def test_dp_small_values():
    assert partition_dp_row(0)[0] == 1
    assert partition_dp_row(1)[1] == 1
    assert partition_dp_row(10)[10] == 42


def test_p100_both_algorithms():
    assert partition_pentagonal(100).p(100) == 190569292
    assert partition_dp_row(100)[100] == 190569292


def test_algorithms_agree_to_300():
    table = partition_pentagonal(300)
    row = partition_dp_row(300)
    assert list(table.values) == row


def test_table_invariants(table):
    assert table.values[0] == 1
    for n in range(2, table.n_max + 1):
        assert table.values[n] > table.values[n - 1]


def test_growth_rate(table):
    # log p(n) / (pi sqrt(2n/3)) climbs toward 1 from below; the polynomial
    # prefactor still costs ~log(4 sqrt(3) n) in this range, so the ratio sits
    # near 0.86-0.92 and must be strictly increasing
    previous = 0.0
    for n in range(500, 2001):
        ratio = math.log(table.p(n)) / (math.pi * math.sqrt(2 * n / 3))
        assert 0.85 <= ratio <= 1.0
        assert ratio > previous
        previous = ratio


def test_out_of_range_lookup(table):
    with pytest.raises(ResourceError):
        table.p(table.n_max + 1)
    with pytest.raises(ResourceError):
        table.p(-1)


def test_caps():
    with pytest.raises(ResourceError):
        partition_pentagonal(PENTAGONAL_CAP + 1)  # rejected before any work
    with pytest.raises(ResourceError):
        partition_dp_row(DP_CAP + 1)
    with pytest.raises(ResourceError):
        partition_pentagonal(-1)
    with pytest.raises(ResourceError):
        partition_dp_row(-1)


def test_save_load_round_trip(tmp_path):
    table = partition_pentagonal(200)
    path = tmp_path / "table.tsv"
    save_table(table, str(path))
    loaded = load_table(str(path))
    assert loaded == table


def test_save_replaces_atomically(tmp_path):
    # a write that fails part-way leaves the previous file whole and no temp file
    table = partition_pentagonal(50)
    path = tmp_path / "table.tsv"
    save_table(table, str(path))
    unwritable = PartitionTable(values=("\u00e9",) + table.values[1:], n_max=50)
    with pytest.raises(UnicodeEncodeError):
        save_table(unwritable, str(path))
    assert load_table(str(path)) == table
    assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]


def test_file_starts_with_versioned_checksum(tmp_path):
    path = tmp_path / "table.tsv"
    save_table(partition_pentagonal(3), str(path))
    assert path.read_text() == with_header("0\t1\n1\t1\n2\t2\n3\t3\n")


def test_loader_validates(tmp_path):
    path = tmp_path / "bad.tsv"
    cases = (
        ("0\t1\n2\t2\n", "consecutive"),
        ("0\t2\n1\t3\n", "p\\(0\\) = 1"),
        ("0\t1\n1\t1\n2\t2\n3\t2\n", "strictly increasing"),
        ("0\t1\nnot a row\n", "expected"),
    )
    for body, message in cases:
        path.write_text(with_header(body))
        with pytest.raises(ValueError, match=message):
            load_table(str(path))


def test_loader_checks_header_and_checksum(tmp_path):
    path = tmp_path / "bad.tsv"
    body = "0\t1\n1\t1\n2\t2\n"

    path.write_text(body)
    with pytest.raises(ValueError, match="missing"):
        load_table(str(path))  # a headerless file, as tables were first written

    path.write_text(with_header(body).replace("v1", "v2", 1))
    with pytest.raises(ValueError, match="unknown table format 'v2'"):
        load_table(str(path))

    path.write_text(with_header(body).replace("crc32=", "adler32=", 1))
    with pytest.raises(ValueError, match="checksum"):
        load_table(str(path))

    save_table(partition_pentagonal(30), str(path))
    text = path.read_text()
    assert "\t5604\n" in text  # p(30)
    path.write_text(text.replace("\t5604\n", "\t5614\n"))  # increasing, parses, wrong
    with pytest.raises(ValueError, match="checksum"):
        load_table(str(path))


def _save_line_by_line(table):
    """The table file as written one line at a time."""
    return with_header("".join(f"{n}\t{value}\n" for n, value in enumerate(table.values))).encode("ascii")


def _load_line_by_line(path):
    """load_table's validation, one line at a time: the value or the ValueError text."""
    values, crc = [], 0
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").split()
            if len(header) != 4 or header[:2] != ["#", "partition-table"]:
                raise ValueError(f"{path}: missing '# partition-table <version> crc32=<hex>' header")
            if header[2] != "v1":
                raise ValueError(f"{path}: unknown table format {header[2]!r}")
            for lineno, line in enumerate(fh, start=2):
                crc = zlib.crc32(line, crc)
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
    except ValueError as exc:
        return str(exc)
    return PartitionTable(values=tuple(values), n_max=len(values) - 1)


def test_blocks_keep_bytes_and_messages(tmp_path):
    # tables of many blocks are written as one line at a time would write
    # them, and every damaged file, however far into it the damage lies,
    # gets the verdict and message of a line-by-line reader
    path = tmp_path / "table.tsv"
    table = partition_pentagonal(3000)
    save_table(table, str(path))
    data = path.read_bytes()
    assert data == _save_line_by_line(table)
    assert len(data) > 4 * partitions._BLOCK_BYTES and len(table.values) > 4 * partitions._BLOCK_LINES
    header, body = data.split(b"\n", 1)
    lines = body.split(b"\n")

    def variant(edit, rehash=True):
        edited = edit(list(lines))
        edited = edited if isinstance(edited, bytes) else b"\n".join(edited)
        top = with_header(edited.decode("ascii")).encode("ascii").split(b"\n", 1)[0] if rehash else header
        return top + b"\n" + edited

    def replace(index, line):
        return lambda ls: ls[:index] + [line] + ls[index + 1 :]

    variants = [
        data,
        variant(lambda ls: b"\n".join(ls).rstrip(b"\n")),
        variant(lambda ls: b"\r\n".join(ls)),
        variant(lambda ls: ls[:1700] + [b"", b"  "] + ls[1700:]),
        variant(lambda ls: ls[:1500]),
        data.rstrip(b"\n"),
        variant(replace(1700, b"")),
        variant(replace(1700, b"1700 123")),
        variant(replace(2999, b"2999\tx")),
        variant(replace(2500, lines[2500] + b"\t7")),
        variant(replace(2500, b"2500\t1")),
        variant(replace(1700, b"1700 123"), rehash=False),
        variant(replace(2000, lines[2000][:-1] + b"9"), rehash=False),
    ]
    for index, content in enumerate(variants):
        path.write_bytes(content)
        expected = _load_line_by_line(str(path))
        if isinstance(expected, str):
            with pytest.raises(ValueError) as caught:
                load_table(str(path))
            assert str(caught.value) == expected, index
        else:
            assert load_table(str(path)) == expected, index
