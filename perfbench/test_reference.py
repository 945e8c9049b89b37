"""Tests of the benchmark's own reference checks.

    python3 -m pytest -q perfbench

They use no part of ascpart: a check that passes wrong output, or fails
right output, would make every benchmark result meaningless.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402


def _partitions(n):
    """Ascending compositions of n in lexicographic order, by filtering all tuples."""
    out = []

    def rec(prefix, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
        for part in range(1, remaining + 1):
            if not prefix or part >= prefix[-1]:
                rec(prefix + [part], remaining - part)

    rec([], n)
    return out


def _lines(n, descending=False):
    return [" ".join(map(str, c[::-1] if descending else c)) + "\n" for c in _partitions(n)]


def _check(lines, n, descending=False):
    checker = reference.LineChecker(n, descending)
    for line in lines:
        fault = checker.feed(line)
        if fault:
            return fault
    if checker.count != len(_partitions(n)):
        return f"{checker.count} lines"
    return None


def test_partition_numbers_known_values():
    p = reference.partition_numbers(200)
    assert p[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert p[50] == 204226
    assert p[65] == 2012558
    assert p[100] == 190569292
    assert p[200] == 3972999029388
    assert all(p[n] == len(_partitions(n)) for n in range(1, 16))


def test_ratio_closed_forms_match_brute_counts():
    p = reference.partition_numbers(20)
    for n in range(1, 21):
        parts = _partitions(n)
        for t, closed in ((2, reference.double_ratio), (3, reference.triple_ratio)):
            brute = sum(1 for c in parts if len(c) == 1 or c[-1] >= t * c[-2])
            assert closed(p, n) == brute, (n, t)


def test_op_counts_and_ratio_rows():
    p = reference.partition_numbers(20)
    # gen_v2_counted(20) and gen_v3_counted(20) as published in the README.
    assert reference.op_counts(p, 20)["v3"] == (3113, 1111)
    assert reference.ratio_row(p, 2) == "2,1.08333,1.20000"  # 13/12 and 6/5


def test_digest_matches_the_partition_list_and_sees_swaps():
    digest = reference.CompositionDigest()
    for c in _partitions(12):
        digest.add(c)
    assert reference.enumeration_digest(12) == (len(_partitions(12)), digest.hexdigest())

    def digest_of(stream):
        d = reference.CompositionDigest()
        for c in stream:
            d.add(c)
        return d.hexdigest()

    assert digest_of([(1, 2), (3,)]) != digest_of([(2, 1), (3,)])  # parts swapped
    assert digest_of([(1, 2), (3,)]) != digest_of([(3,), (1, 2)])  # compositions swapped
    assert digest_of([(1, 2), (3,)]) != digest_of([(1,), (2, 3)])  # boundary moved


def test_digest_as_consumer_reads_the_live_buffer():
    buf = [0, 1, 2, 9]
    as_consumer = reference.CompositionDigest()
    as_consumer(buf, 2)
    direct = reference.CompositionDigest()
    direct.add((1, 2))
    assert as_consumer.hexdigest() == direct.hexdigest()


@pytest.mark.parametrize("descending", [False, True])
def test_line_checker_accepts_correct_output(descending):
    assert _check(_lines(10, descending), 10, descending) is None


@pytest.mark.parametrize("descending", [False, True])
def test_line_checker_rejects_faults(descending):
    good = _lines(10, descending)
    dropped = good[:5] + good[6:]
    swapped = good[:5] + [good[6], good[5]] + good[7:]
    duplicated = good[:5] + [good[5]] + good[5:-1]
    bad_order = good[:3] + [" ".join(reversed(good[3].split())) + "\n"] + good[4:]
    wrong_sum = good[:3] + ["1 " + good[3]] + good[4:]
    for lines in (dropped, swapped, duplicated, wrong_sum):
        assert _check(lines, 10, descending) is not None
    assert _check(bad_order, 10, descending) is not None
    assert _check(good[:-1] + [good[-1].rstrip("\n")], 10, descending) is not None
    assert _check(good[:3] + ["1  2\n"] + good[4:], 10, descending) is not None


def test_line_checker_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("".join(_lines(8)), encoding="ascii")
    assert reference.LineChecker(8).check_file(path, 22) is None
    assert reference.LineChecker(8).check_file(path, 23) is not None
    path.write_bytes(b"\xff\n")
    assert reference.LineChecker(8).check_file(path, 22) is not None


def test_yardstick_unit_enumerates_the_partitions():
    import yardstick

    for n in range(1, 25):
        digest = reference.CompositionDigest()
        count = yardstick.accel_asc(n, lambda a, k: digest.add(a[:k]))
        assert count == digest.count == reference.partition_numbers(n)[n]
        assert digest.hexdigest() == reference.enumeration_digest(n)[1]
