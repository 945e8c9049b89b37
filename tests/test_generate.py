"""Generators: output equality, order, streaming contract, exact op counts."""

import ast
import inspect

import pytest

from ascpart import (
    ALGORITHMS,
    COLLECT_CAP,
    COUNTED,
    collect_compositions,
    gen_v1,
    gen_v2,
    gen_v2_counted,
    gen_v3,
    gen_v3_counted,
)
from ascpart.oracle import brute_compositions


def test_four_by_hand():
    want = [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]
    for alg in (1, 2, 3):
        assert collect_compositions(4, alg) == want


def test_one_by_hand():
    for alg in (1, 2, 3):
        assert collect_compositions(1, alg) == [(1,)]


@pytest.mark.parametrize("n", range(1, 31))
def test_matches_oracle(ctx, n):
    want = brute_compositions(n)
    assert len(want) == ctx.partition_count(n)
    for alg in (1, 2, 3):
        assert collect_compositions(n, alg) == want


def test_returns_visit_count(ctx):
    # the return value is derived from the loop variables, not counted per
    # visit, so compare it with the consumer calls at every n up to the cap
    for gen in (gen_v1, gen_v2, gen_v3):
        for n in range(1, COLLECT_CAP + 1):
            calls = []
            returned = gen(n, lambda a, k: calls.append(k))
            assert returned == len(calls) == ctx.partition_count(n), (gen.__name__, n)


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


def test_counted_worked_values():
    c2 = gen_v2_counted(20)
    assert c2.assignments == 4 * 627 + 4 * 242 == 3476
    assert c2.bool_evals == 627 + 3 * 242 == 1353
    c3 = gen_v3_counted(20)
    assert c3.assignments == 4 * 627 + 5 * 121 == 3113
    assert c3.bool_evals == 627 + 4 * 121 == 1111


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


# The names the generators count with; everything else in a loop is the paper's.
TALLIES = {"count", "outer", "inner", "pairs", "shifts", "tail", "descent"}


class _PaperStatements(ast.NodeTransformer):
    """Drops tally updates and consumer calls, keeping every other statement."""

    def visit_AugAssign(self, node):
        return None if ast.unparse(node.target) in TALLIES else node

    def visit_Expr(self, node):
        call = node.value
        is_visit = isinstance(call, ast.Call) and ast.unparse(call.func) == "consumer"
        return None if is_visit else node


def paper_loop(gen):
    """The ``while k > 0`` loop of ``gen``, without its tallies and visits."""
    tree = ast.parse(inspect.getsource(gen))
    loops = [node for node in ast.walk(tree)
             if isinstance(node, ast.While) and ast.unparse(node.test) == "k > 0"]
    assert len(loops) == 1, gen.__name__
    return ast.dump(_PaperStatements().visit(loops[0]))


def test_counted_loop_is_the_plain_loop():
    # statement for statement, so the counted variants step through the
    # generators' states at every n
    for alg, counted in COUNTED.items():
        assert paper_loop(counted) == paper_loop(ALGORITHMS[alg]), counted.__name__


def test_algorithm_table():
    assert sorted(ALGORITHMS) == [1, 2, 3]
    assert ALGORITHMS[2] is gen_v2
    assert COUNTED == {2: gen_v2_counted, 3: gen_v3_counted}
