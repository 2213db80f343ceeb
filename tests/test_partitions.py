"""Exact p(n): recurrence vs counting DP vs brute enumeration, and persistence."""

import functools
import math

import pytest

from partition_asymptotics import (
    PartitionTable,
    ResourceError,
    load_table,
    partition_dp_row,
    partition_pentagonal,
    save_table,
)
from partition_asymptotics.partitions import DP_CAP, PENTAGONAL_CAP


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


def test_loader_validates(tmp_path):
    path = tmp_path / "bad.tsv"

    path.write_text("0\t1\n2\t2\n")
    with pytest.raises(ValueError):
        load_table(str(path))  # nonconsecutive indices

    path.write_text("0\t2\n1\t3\n")
    with pytest.raises(ValueError):
        load_table(str(path))  # p(0) != 1

    path.write_text("0\t1\n1\t1\n2\t2\n3\t2\n")
    with pytest.raises(ValueError):
        load_table(str(path))  # not strictly increasing from index 1

    path.write_text("0\t1\nnot a row\n")
    with pytest.raises(ValueError):
        load_table(str(path))
