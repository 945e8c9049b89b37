"""Counting module: worked values, boundary conventions, path agreement."""

import re
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from ascpart import (
    DEFAULT_CAP,
    CapacityError,
    CountContext,
    InequalityReport,
    budget_violations,
    counting,
)
from ascpart.counting import _fill_column, _fill_partition_numbers
from ascpart.oracle import brute_compositions, brute_ratio_count, has_ratio_property

# A000041; criterion 01's `checks.generation` compares p(n) with the
# brute-force oracle's list for every n <= 45.
P_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
           231, 297, 385, 490, 627]


def test_partition_count_small(ctx):
    assert [ctx.partition_count(n) for n in range(21)] == P_SMALL


def test_pentagonal_fill_is_the_recurrence_column():
    for length in [*range(301), 5000]:
        assert _fill_partition_numbers(length) == _fill_column(1, 1, length), length


def test_big_values_exact(ctx):
    # frozen from an independent pentagonal-recurrence implementation
    assert ctx.partition_count(100) == 190569292
    assert ctx.partition_count(1000) == 24061467864032622473692149727991
    assert ctx.partition_count(1500) > 10 ** 39


def test_values_at_the_cap(ctx):
    # fills that end exactly at DEFAULT_CAP; p(5000) and the triple ratio from
    # the pentagonal recurrence, p(5000, 7) from the earlier row-by-row table fill
    assert ctx.partition_count(5000) == (
        169820168825442121851975101689306431361757683049829233322203824652329144349)
    assert ctx.ratio_count(5000, 3) == (
        311979970879687292161119344116970547012907367565064585282875096108297166)
    assert ctx.restricted_count(5000, 7) == (
        3128745025549526492129102370901601328975714501963533222694682669234)


def test_product_matches_recurrence_exhaustively(ctx):
    # every in-domain (n, m, t) with n <= 200 and t <= 8; a column filled to
    # 200 holds count(t, n, m) at every n <= 200, as _fill_column(t, m, n) does
    triples = 0
    for t in range(1, 9):
        for m in range(1, 200 // (t + 1) + 1):
            col = _fill_column(t, m, 200)
            for n in range((t + 1) * m, 201):
                assert ctx._product_count(n, m, t) == col[n], (n, m, t)
                triples += 1
    assert triples == 36146


@pytest.mark.parametrize("m, by_recurrence", [(714, False), (780, False), (1000, True)])
def test_restricted_count_on_both_sides_of_the_crossover(m, by_recurrence):
    # at n = 5000, t = 1 the cost rule switches to the column fill at m = 785
    ctx = CountContext()
    assert ctx.restricted_count(5000, m) == _fill_column(1, m, 5000)[5000]
    assert ((1, m) in ctx._columns) == by_recurrence


def test_restricted_count_worked_values(ctx):
    assert ctx.restricted_count(5, 1) == 7
    assert ctx.restricted_count(12, 3) == 9
    for n in (1, 2, 7, 19):
        assert ctx.restricted_count(n, n) == 1


def test_restricted_count_boundaries(ctx):
    assert ctx.restricted_count(0, 1) == 1
    assert ctx.restricted_count(0, 9) == 1
    assert ctx.restricted_count(3, 4) == 0
    assert ctx.restricted_count(1, 2) == 0


def test_ratio_count_worked_values(ctx):
    assert ctx.ratio_restricted_count(15, 3, 2) == 7
    assert ctx.ratio_restricted_count(12, 3, 2) == 4
    assert ctx.ratio_restricted_count(15, 4, 2) == 3
    assert ctx.ratio_restricted_count(15, 3, 3) == 3
    assert ctx.ratio_count(5, 2) == 4
    assert ctx.ratio_count(5, 3) == 3
    for t in (2, 3, 4, 5):
        assert ctx.ratio_restricted_count(t + 1, 1, t) == 2


def test_ratio_count_base_region(ctx):
    # only the single-part partition once the minimum exceeds n // (t + 1)
    assert ctx.ratio_restricted_count(15, 6, 2) == 1
    assert ctx.ratio_restricted_count(15, 16, 2) == 0
    assert ctx.ratio_restricted_count(9, 9, 4) == 1


def test_sum_form_worked_example(ctx):
    parts = [ctx.ratio_restricted_count(15 - k, k, 2) for k in (3, 4, 5)]
    assert parts == [4, 1, 1]
    assert ctx.ratio_count_via_sum(15, 3, 2) == 1 + sum(parts) == 7


def test_sum_form_single_term(ctx):
    for n, t in ((17, 2), (30, 3)):
        q = n // (t + 1)
        assert ctx.ratio_count_via_sum(n, q, t) == 1 + ctx.ratio_restricted_count(n - q, q, t)


def test_reduction_worked_examples(ctx):
    assert ctx.ratio_count_via_reduction(15, 3, 3) == 7 - 4 == 3
    assert ctx.ratio_count_via_reduction(5, 1, 2) == ctx.partition_count(5) - ctx.partition_count(3)
    assert (ctx.ratio_count_via_reduction(10, 2, 2)
            == ctx.ratio_restricted_count(10, 2, 2))


def test_closed_forms(ctx):
    assert ctx.p2_closed(5) == 4
    assert ctx.p3_closed(5) == 3
    assert ctx.p2_closed(1) == 1
    assert ctx.p3_closed(1) == 1


def test_closed_forms_range_matches_the_per_n_counts(ctx):
    p, d, r = ctx.closed_forms(DEFAULT_CAP)
    assert p == [ctx.partition_count(n) for n in range(DEFAULT_CAP + 1)]
    assert d == [ctx.p2_closed(n) for n in range(DEFAULT_CAP + 1)]
    assert r == [ctx.p3_closed(n) for n in range(DEFAULT_CAP + 1)]
    assert ctx.closed_forms(0) == ([1], [1], [1])
    assert ctx.closed_forms(6) == (P_SMALL[:7], [1, 1, 1, 2, 3, 4, 6], [1, 1, 1, 1, 2, 3, 4])


def test_every_count_is_one_at_zero():
    # count(t, 0, m) = 1: the empty partition, on every path that takes n = 0
    ctx = CountContext()
    p, d, r = ctx.closed_forms(0)
    assert [ctx.partition_count(0), ctx.p2_closed(0), ctx.p3_closed(0)] == p + d + r == [1, 1, 1]
    for t in range(1, 5):
        assert ctx.ratio_count(0, t) == 1
        for m in range(1, 4):
            assert ctx.ratio_restricted_count(0, m, t) == ctx.restricted_count(0, m) == 1


def test_closed_forms_range_returns_copies():
    ctx = CountContext()
    for values in ctx.closed_forms(30):
        values[5] = -1
    assert ctx.partition_count(5) == 7
    assert ctx.closed_forms(30) == tuple(_fill_column(t, 1, 30) for t in (1, 2, 3))


def _constant_p(length):
    # p(k) = 1 for every k: d = 1, 1, 0, 0, ... and r(3) = d(3) - d(0) = -1
    return [1] * (length + 1)


def _falling_p(length):
    # p(k) = length - k: d(2) = p(2) - p(0) = -2
    return list(range(length, -1, -1))


@pytest.mark.parametrize("target, name, patch, method, args, message", [
    (CountContext, "_product_count", lambda self, n, m, t: -n, "p2_closed", (20,),
     "p2_closed went negative at n=20"),
    (CountContext, "_product_count", lambda self, n, m, t: -n, "p3_closed", (20,),
     "p3_closed went negative at n=20"),
    (CountContext, "_product_count", lambda self, n, m, t: -n, "ratio_count_via_reduction",
     (20, 1, 2), "reduction went negative at (t=2, n=20, m=1)"),
    (counting, "_fill_partition_numbers", _falling_p, "closed_forms", (20,),
     "p2_closed went negative at n=2"),
    (counting, "_fill_partition_numbers", _constant_p, "closed_forms", (20,),
     "p3_closed went negative at n=3"),
], ids=["p2_closed", "p3_closed", "reduction", "range-t2", "range-t3"])
def test_negative_count_raises(monkeypatch, target, name, patch, method, args, message):
    # -n makes p(20, 1) - p(18, 1) = -2 on the reduction path; under python -O
    # a bare assert would let these values through
    monkeypatch.setattr(target, name, patch)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        getattr(CountContext(), method)(*args)


def test_range_callers_keep_their_inputs(ctx):
    # check_inequalities and budget_violations read closed_forms, but still
    # take every n_max they took when they asked for one n at a time
    for n_max in (-3, 0):
        assert ctx.check_inequalities(n_max) == InequalityReport(n_max=n_max)
    assert ctx.check_inequalities(1) == InequalityReport(n_max=1, growth_equalities=[1])
    for n_max in (-2, 0, 1):
        assert budget_violations(ctx, n_max) == []
    assert budget_violations(ctx, 2) == [2]


def test_public_counts_match_the_recurrence_columns(ctx):
    # at m = 1 the cost rule answers by the product from n = 12, 21, 36 and 55
    # for t = 1, 2, 3 and 4, and the closed forms always do, so comparing the
    # public counts with each other compares that path with itself; here the
    # recurrence's own columns are the reference
    for t in (2, 3, 4):
        assert [ctx.ratio_count(n, t) for n in range(301)] == _fill_column(t, 1, 300)
    assert [ctx.p2_closed(n) for n in range(301)] == _fill_column(2, 1, 300)
    assert [ctx.p3_closed(n) for n in range(301)] == _fill_column(3, 1, 300)
    assert [ctx.restricted_count(n, 1) for n in range(5001)] == _fill_column(1, 1, 5000)


def test_ratio_peel_identity(ctx):
    # count(t, n) = count(t-1, n) - count(t-1, n-t) whenever n > t > 1
    for t in (2, 3, 4):
        for n in range(t + 1, 301):
            assert (ctx.ratio_count(n, t)
                    == ctx.ratio_count(n, t - 1) - ctx.ratio_count(n - t, t - 1))


def test_triple_from_double(ctx):
    for n in range(4, 301):
        assert ctx.p3_closed(n) == ctx.p2_closed(n) - ctx.p2_closed(n - 3)


def test_double_ratio_monotone(ctx):
    for n in range(2, 301):
        assert ctx.p2_closed(n - 1) <= ctx.p2_closed(n)


def test_growth_bound_examples(ctx):
    # equality at 6, strict above
    p = ctx.partition_count
    assert p(6) == p(5) + p(4) - p(1) == 11
    assert p(7) < p(6) + p(5) - p(2)


def test_memo_reproducible(ctx):
    fresh = CountContext()
    for args in ((37, 2, 2), (50, 1, 3), (24, 5, 1), (60, 3, 4)):
        assert fresh.ratio_restricted_count(*args) == ctx.ratio_restricted_count(*args)
    assert fresh.partition_count(200) == ctx.partition_count(200)


@pytest.mark.parametrize("queries", [
    [("partition_count", 1500)] * 4,
    # different columns, and the pentagonal p column grows from 700 to 1500 meanwhile
    [("partition_count", 700), ("partition_count", 1500),
     ("ratio_count", 1500, 3), ("restricted_count", 1500, 7)],
    # the product path, which reads the p column, beside a recurrence column fill
    [("restricted_count", 1500, 7), ("restricted_count", 1500, 400),
     ("ratio_count", 1500, 3), ("partition_count", 700)],
], ids=["one-column", "growing-column", "mixed-paths"])
def test_concurrent_queries_on_fresh_context(queries):
    want = [getattr(CountContext(), name)(*args) for name, *args in queries]
    ctx = CountContext()
    got = [None] * 4

    def query(i):
        name, *args = queries[i]
        got[i] = getattr(ctx, name)(*args)

    threads = [threading.Thread(target=query, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_capacity_errors():
    # the cap is checked before any column is filled
    ctx = CountContext()
    over = DEFAULT_CAP + 1
    message = f"^n={over} exceeds the count cap {DEFAULT_CAP}$"
    for method, args in (("partition_count", ()), ("restricted_count", (1,)),
                         ("ratio_restricted_count", (1, 2)), ("p3_closed", ())):
        with pytest.raises(CapacityError, match=message):
            getattr(ctx, method)(over, *args)
    with pytest.raises(CapacityError, match=f"^n_max={over} exceeds"):
        ctx.check_inequalities(over)
    assert ctx._columns == {}


@pytest.mark.parametrize("method, first, then, key", [
    ("partition_count", (3000,), (3001,), (1, 1)),
    ("restricted_count", (3000, 1000), (3001, 1000), (1, 1000)),
], ids=["p-column", "recurrence-column"])
def test_doubling_column_stops_at_the_cap(method, first, then, key):
    # a column past half the cap would double beyond it; it is filled to the
    # cap instead, and answers there as a fresh context's column does
    ctx = CountContext()
    getattr(ctx, method)(*first)
    assert len(ctx._columns[key]) == first[0] + 1
    assert getattr(ctx, method)(*then) == getattr(CountContext(), method)(*then)
    assert len(ctx._columns[key]) == DEFAULT_CAP + 1
    at_cap = (DEFAULT_CAP, *then[1:])
    assert getattr(ctx, method)(*at_cap) == getattr(CountContext(), method)(*at_cap)


@given(n=st.integers(1, 28), m=st.integers(1, 10), t=st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_ratio_count_matches_brute_force(n, m, t):
    ctx = CountContext()
    want = sum(1 for c in brute_compositions(n, m) if has_ratio_property(c, t))
    assert ctx.ratio_restricted_count(n, m, t) == want


@lru_cache(maxsize=None)
def _oracle_count(n, m, t):
    return brute_ratio_count(n, m, t) if n else 1


class QueryOrder(RuleBasedStateMachine):
    """Queries in any order on one context answer as a fresh one.

    Columns grow by doubling as larger n arrive; answers for n <= 28 are
    also checked against the brute-force oracle.
    """

    N_MAX = 64

    def __init__(self):
        super().__init__()
        self.ctx = CountContext()

    def check(self, query, args, oracle_args):
        got = getattr(self.ctx, query)(*args)
        assert got == getattr(CountContext(), query)(*args)
        if args[0] <= 28:
            assert got == _oracle_count(*oracle_args)

    @rule(n=st.integers(0, N_MAX), m=st.integers(1, 24), t=st.integers(1, 4))
    def ratio_restricted_count(self, n, m, t):
        self.check("ratio_restricted_count", (n, m, t), (n, m, t))

    @rule(n=st.integers(0, N_MAX), m=st.integers(1, 24))
    def restricted_count(self, n, m):
        self.check("restricted_count", (n, m), (n, m, 1))

    @rule(n=st.integers(0, N_MAX))
    def partition_count(self, n):
        self.check("partition_count", (n,), (n, 1, 1))

    @rule(n=st.integers(0, N_MAX))
    def p2_closed(self, n):
        self.check("p2_closed", (n,), (n, 1, 2))

    @rule(n=st.integers(0, N_MAX))
    def p3_closed(self, n):
        self.check("p3_closed", (n,), (n, 1, 3))


TestQueryOrder = QueryOrder.TestCase
TestQueryOrder.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)
