"""Traversals: identical visit sequences, exact stack and loop tallies."""

import pytest

from ascpart import DomainError, inorder_generic, inorder_v1, inorder_v2


def _sequence(run):
    seq = []
    stats = run(lambda x, y: seq.append((x, y)))
    return seq, stats


@pytest.mark.parametrize("n", range(1, 26))
def test_visit_sequences_identical(ctx, n):
    seq_ref, _ = _sequence(lambda v: inorder_generic(n, v))
    seq_one, _ = _sequence(lambda v: inorder_v1(n, v))
    seq_two, _ = _sequence(lambda v: inorder_v2(n, v))
    assert seq_ref == seq_one == seq_two
    assert len(seq_ref) == 2 * ctx.partition_count(n) - 1


@pytest.mark.parametrize("n", [2, 6, 13, 20, 35, 60])
def test_stack_and_loop_tallies(ctx, n):
    p = ctx.partition_count(n)
    d = ctx.p2_closed(n)
    r = ctx.p3_closed(n)

    sg = inorder_generic(n)
    assert sg.ops.pushes == sg.ops.pops == p - 1
    assert sg.loops["outer"] == p
    assert sg.ops.visits == 2 * p - 1

    s1 = inorder_v1(n)
    assert s1.ops.pushes == s1.ops.pops == d - 1
    assert s1.loops["outer"] == d
    assert s1.loops["descent"] == s1.ops.pushes
    assert s1.loops["pairs"] == ctx.partition_count(n - 2)
    assert s1.ops.visits == 2 * p - 1

    s2 = inorder_v2(n)
    assert s2.ops.pushes == s2.ops.pops == r - 1
    assert s2.loops["outer"] == r
    assert s2.loops["pairs"] == d - r
    assert s2.loops["chain"] + s2.loops["tail"] == ctx.partition_count(n - 2) - (d - r)
    assert s2.ops.visits == 2 * p - 1


def test_pair_loop_matches_shifted_closed_form(ctx):
    # the middle loop runs double-ratio(n) - triple-ratio(n) = double-ratio(n-3) times
    for n in range(4, 41):
        s2 = inorder_v2(n)
        assert s2.loops["pairs"] == ctx.p2_closed(n - 3)


def test_six_exact_counts(ctx):
    # double-ratio(6) = 11 - 5 = 6, triple-ratio(6) = 11 - 5 - 3 + 1 = 4
    assert inorder_v1(6).ops.pushes == 5
    assert inorder_v2(6).ops.pushes == 3
    assert inorder_generic(6).ops.pushes == 10


def test_trivial_run():
    seq, stats = _sequence(lambda v: inorder_v1(1, v))
    assert seq == [(1, 0)]
    assert stats.ops.pushes == 0
    assert stats.ops.visits == 1
    seq, stats = _sequence(lambda v: inorder_v2(1, v))
    assert seq == [(1, 0)]
    seq, stats = _sequence(lambda v: inorder_generic(1, v))
    assert seq == [(1, 0)]


def test_counter_invariants(ctx):
    for n in (1, 5, 17, 30):
        p = ctx.partition_count(n)
        d = ctx.p2_closed(n)
        r = ctx.p3_closed(n)
        runs = (inorder_generic(n), inorder_v1(n), inorder_v2(n))
        expected = ((2 * p + 1, 4 * p), (p + d + 1, p + 4 * d), (p + r + 1, p + 5 * r))
        for stats, counts in zip(runs, expected):
            assert stats.ops.pushes == stats.ops.pops
            assert stats.ops.visits == 2 * p - 1
            assert (stats.ops.assignments, stats.ops.bool_evals) == counts, n


def test_domain_errors():
    with pytest.raises(DomainError):
        inorder_v1(0)
    with pytest.raises(DomainError):
        inorder_v2(-3)
    with pytest.raises(DomainError):
        inorder_generic(0)
