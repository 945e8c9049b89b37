"""Brute-force reference: hand-checked lists, completeness and basic shape properties."""

import gc
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ascpart.oracle import brute_compositions, brute_ratio_count, brute_stream, has_ratio_property


def test_compositions_of_four():
    assert brute_compositions(4) == [
        (1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]


def test_single_part_only():
    for n in (1, 5, 23):
        assert brute_compositions(n, n) == [(n,)]


def test_ratio_witnesses_fifteen_min_three():
    got = [c for c in brute_compositions(15, 3) if has_ratio_property(c, 2)]
    assert got == [(3, 3, 3, 6), (3, 3, 9), (3, 4, 8), (3, 12), (4, 11), (5, 10), (15,)]
    assert brute_ratio_count(15, 3, 2) == 7


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
    # the first branch as a stream: a 1 after each separator and each length
    # one more, then the parts >= 2; checks.generation appends the tail
    # first and puts a 1 after the first p(n - 1) separators only
    stream = lengths = b"\x00"  # the empty composition of 0
    one_more = bytes.maketrans(bytes(range(255)), bytes(range(1, 256)))
    for n in range(1, 46):
        tail, tail_lengths = brute_stream(n, 2)
        want = brute_stream(n)
        assert stream.replace(b"\x00", b"\x00\x01") + tail == want[0], n
        stream = (stream + tail).replace(b"\x00", b"\x00\x01", len(lengths))
        lengths = lengths.translate(one_more) + tail_lengths
        assert (stream, lengths) == want, n


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
