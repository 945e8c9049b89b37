"""Generators: output equality, order, streaming contract, exact op counts."""

import pytest

from ascpart import (
    ALGORITHMS,
    COUNTED,
    gen_v1,
    gen_v2,
    gen_v2_counted,
    gen_v3,
    gen_v3_counted,
)
from ascpart.blockprofile import profile, tally


@pytest.mark.parametrize("gen", [gen_v1, gen_v2, gen_v3])
def test_online_order_and_validity(gen):
    # checked during generation: each visit is a valid composition and the
    # sequence is strictly increasing lexicographically
    n = 24
    state = {"prev": None}

    def consumer(a, length):
        assert a[0] == 0  # sentinel untouched
        parts = tuple(a[1:length + 1])
        assert sum(parts) == n
        assert all(p1 <= p2 for p1, p2 in zip(parts, parts[1:]))
        assert all(p >= 1 for p in parts)
        if state["prev"] is not None:
            assert state["prev"] < parts
        state["prev"] = parts

    gen(n, consumer)
    assert state["prev"] == (n,)


def test_online_validity_sampled_larger_n(ctx):
    # beyond the exhaustive oracle range, spot-check a bigger n online
    n = 50
    count = 0

    def consumer(a, length):
        nonlocal count
        count += 1
        assert a[length] <= n
        assert all(a[i] <= a[i + 1] for i in range(1, length))
        assert sum(a[1:length + 1]) == n

    assert gen_v3(n, consumer) == count == ctx.partition_count(n)


def test_buffer_is_reused():
    seen = set()
    gen_v3(12, lambda a, k: seen.add(id(a)))
    assert len(seen) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 30, 45])
def test_counted_formulas(ctx, n):
    p = ctx.partition_count(n)
    d = ctx.p2_closed(n)
    r = ctx.p3_closed(n)
    c2 = gen_v2_counted(n)
    assert (c2.assignments, c2.bool_evals) == (4 * p + 4 * d, p + 3 * d)
    c3 = gen_v3_counted(n)
    assert (c3.assignments, c3.bool_evals) == (4 * p + 5 * r, p + 4 * r)
    for ops in (c2, c3):
        assert ops.visits == p
        assert ops.pushes == ops.pops == 0


def test_blocks_are_partition_classes(ctx):
    # each block's runs are a class of the partitions of n, which is why the
    # counted tallies are the formulas of `analysis`
    for n in range(2, 41):
        p, d, r = ctx.partition_count(n), ctx.p2_closed(n), ctx.p3_closed(n)
        body, outer, descent, inner = profile(gen_v2)[0](n, None)
        assert (body, outer, descent, inner) == (1, d, d - 1, p - d), n
        body, outer, descent, pairs, shifts, tail = profile(gen_v3)[0](n, None)
        assert (body, outer, descent) == (1, r, r - 1), n
        assert 2 * pairs + shifts + tail == p - r, n


def test_gen_v1_tallies(ctx):
    # profiled here only: COUNTED, and so verify, keeps the two the paper compares
    for n in range(2, 41):
        p, d = ctx.partition_count(n), ctx.p2_closed(n)
        ops = tally(gen_v1, n)
        assert (ops.assignments, ops.bool_evals, ops.visits) == (7 * p + 4 * d - 3, p + 4 * d, p)


def _counts_with_for(n, consumer):
    for x in range(n):
        consumer([x], 0)


def _counts_with_break(n, consumer):
    while n:
        break


def _steps_count(n, consumer):
    count = 0
    while count < n:
        count += 1


def _steps_count_and_another(n, consumer):
    count = 0
    y = 0
    while count < n:
        count += 1
        y += 1


@pytest.mark.parametrize("gen, statement", [
    (_counts_with_for, r"For statement at line \d+: for x in range\(n\):"),
    (_counts_with_break, r"Break statement at line \d+: break"),
    # the copy drops every assignment to count, so no loop may read it
    (_steps_count, r"While statement at line \d+: while count < n:"),
    (_steps_count_and_another, r"While statement at line \d+: while count < n:"),
], ids=["for", "break", "steps-count", "steps-count-and-another"])
def test_profile_refuses_what_it_cannot_weigh(gen, statement):
    # a profile that cannot weigh a statement must not return a count
    with pytest.raises(ValueError, match=f"cannot weigh {gen.__name__}'s {statement}$"):
        profile(gen)


def _steps_once(n, consumer):
    v = w = 0
    while v < n:
        w += v
        consumer([w], 0)
        v += 1


def _steps_twice(n, consumer):
    v = 0
    while v < n:
        v += 1
        v += 1


def _steps_and_doubles(n, consumer):
    v = 0
    while v < n:
        v += 1
        v = 2 * v


def _steps_by_two(n, consumer):
    v = 0
    while v < n:
        v += 2


def _steps_in_an_if(n, consumer):
    v = 0
    while v < n:
        v += 1
        if v == 3:
            v += 4


def _steps_in_the_test(n, consumer):
    v = 0
    while (v := v + 1) < n:
        v += 1


def _steps_back(n, consumer):
    u = v = 0
    while u < n:
        u += 2
        while v < u:
            v += 1
        v -= 1


def _steps_back_two(n, consumer):
    u = v = 0
    while u < n:
        u += 2
        while v < u:
            v += 1
        v -= 2


def _steps_back_twice(n, consumer):
    u = v = 0
    while u < n:
        u += 2
        while v < u:
            v += 1
        v -= 1
        v -= 1


def _steps_back_in_a_loop(n, consumer):
    u = v = w = 0
    while u < n:
        u += 2
        while v < u:
            v += 1
        while w < u:
            w += 1
            v -= 1
        w -= 1


def _steps_from_each_pass(n, consumer):
    u = 0
    while u < n:
        u += 2
        v = 0
        while v < u:
            v += 1
        v -= 1


def _steps_a_parameter(n, consumer):
    while n < 12:
        n += 1
    if n:
        n -= 1
    n = 0


def _steps_after_a_chained_count(n, consumer):
    count = y = 0
    while y < n:
        y += 1


@pytest.mark.parametrize("gen, runs", [
    (_steps_once, (1, 10)),  # the one loop whose passes are read off v
    (_steps_twice, (1, 5)),  # v: 2, 4, ..., 10
    (_steps_and_doubles, (1, 3)),  # v: 2, 6, 14
    (_steps_by_two, (1, 5)),
    (_steps_in_an_if, (1, 6, 1)),  # v: 1, 2, 7, 8, 9, 10, the if once
    (_steps_in_the_test, (1, 5)),  # v: 2, 4, ..., 10, then 11 in the test
    # read off v at the end: v ends at 9 from 0, less one per outer pass
    (_steps_back, (1, 5, 14)),  # passes 2, 3, 3, 3, 3
    (_steps_back_two, (1, 5, 18)),  # passes 2, 4, 4, 4, 4: v is not conserved
    (_steps_back_twice, (1, 5, 18)),  # the same drop, as two v -= 1
    # v drops in a loop read off w, so only w is read off at the end
    (_steps_back_in_a_loop, (1, 5, 21, 14)),  # passes 2, 4, 5, 5, 5 and 2, 3, 3, 3, 3
    # v is set in a loop, or is a parameter stepped before it is set
    (_steps_from_each_pass, (1, 5, 30)),  # passes 2, 4, ..., 10
    (_steps_a_parameter, (1, 2, 1)),  # n: 10, 11, 12
    # the copy keeps an assignment to count that also sets y
    (_steps_after_a_chained_count, (1, 10)),
], ids=["once", "twice", "and-doubles", "by-two", "in-an-if", "in-the-test", "steps-back",
        "steps-back-two", "steps-back-twice", "steps-back-in-a-loop", "set-in-a-loop", "a-parameter",
        "after-a-chained-count"])
def test_profile_counts_each_pass(gen, runs):
    # a loop's passes are read off v only when each pass adds exactly one to
    # it, at the end if v drops by exactly one once per run of a counted
    # block; every other loop counts its passes one by one
    assert profile(gen)[0](10, None) == runs


def test_profile_weighs_a_chained_count_assignment_once():
    # count = y = 0 is one assignment statement, y's, beside the while test
    assert profile(_steps_after_a_chained_count)[1][0] == (1, 1, 0)


def test_algorithm_table():
    assert sorted(ALGORITHMS) == [1, 2, 3]
    assert ALGORITHMS[2] is gen_v2
    assert COUNTED == {2: gen_v2_counted, 3: gen_v3_counted}
