"""Brute-force reference: hand-checked lists, completeness and basic shape properties."""

import gc
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ascpart.oracle import brute_compositions, brute_stream, brute_streams, has_ratio_property


def test_compositions_of_four():
    assert brute_compositions(4) == [
        (1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]


def test_single_part_only():
    for n in (1, 5, 23):
        assert brute_compositions(n, n) == [(n,)]


def test_ratio_witnesses_fifteen_min_three():
    got = [c for c in brute_compositions(15, 3) if has_ratio_property(c, 2)]
    assert got == [(3, 3, 3, 6), (3, 3, 9), (3, 4, 8), (3, 12), (4, 11), (5, 10), (15,)]
    items = brute_stream(15, 3)[0].split(b"\x00")[1:]  # each as bytes
    assert sum(1 for c in items if has_ratio_property(c, 2)) == 7


def test_ratio_witnesses_twelve():
    got = [c for c in brute_compositions(12, 3) if has_ratio_property(c, 2)]
    assert got == [(3, 3, 6), (3, 9), (4, 8), (12,)]


def test_ratio_witnesses_triple():
    got = [c for c in brute_compositions(15, 3) if has_ratio_property(c, 3)]
    assert got == [(3, 3, 9), (3, 12), (15,)]


def test_ratio_property_reads_largest_two_parts():
    assert has_ratio_property((), 2)  # the empty partition of 0
    assert has_ratio_property((15,), 9)
    assert has_ratio_property((3, 4, 8), 2)
    assert not has_ratio_property((3, 4, 8), 3)
    assert not has_ratio_property((2, 2), 2)


def test_complete_against_cut_points():
    """The ascending ones among all 2**(n-1) compositions of n, by first part."""
    for n in range(1, 17):
        compositions = [tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
                        for k in range(n) for cuts in combinations(range(1, n), k)]
        assert len(compositions) == 2 ** (n - 1)
        ascending = sorted(c for c in compositions if all(a <= b for a, b in zip(c, c[1:])))
        for m in range(1, n + 2):
            assert brute_compositions(n, m) == [c for c in ascending if c[0] >= m], (n, m)


def test_lengths_are_the_stream_items_lengths():
    for n in range(1, 46):
        for m in (1, 2, 3, 7):
            stream, lengths = brute_stream(n, m)
            assert lengths == bytes(map(len, stream.split(b"\x00")[1:])), (n, m)


def test_each_stream_grows_from_the_one_before():
    assert list(brute_streams(45)) == [brute_stream(n) for n in range(1, 46)]


def test_returned_list_is_freed_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        brute_compositions(12)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@given(n=st.integers(1, 24), m=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_output_sorted_unique_and_valid(n, m):
    comps = brute_compositions(n, m)
    assert comps == sorted(set(comps))
    for c in comps:
        assert sum(c) == n
        assert all(a >= m for a in c)
        assert all(a <= b for a, b in zip(c, c[1:]))
