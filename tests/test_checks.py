"""Each check of the verification battery fails on an injected defect."""

from dataclasses import replace

import pytest

from ascpart import CountContext, checks
from ascpart.counting import PENTAGONAL


def _result(change):
    """A defect that passes the real function's result through ``change``."""
    return lambda real: lambda *args: change(real(*args))


def _stream(edit, extra=0):
    """A defect in gen_v2: its stream edited by ``edit``, its count off by ``extra``."""
    def defect(algorithms):
        def gen(n, consumer):
            seen = []
            count = algorithms[2](n, lambda a, k: seen.append(a[:k + 1]))
            for a in edit(seen):
                consumer(a, len(a) - 1)
            return count + extra
        return {**algorithms, 2: gen}
    return defect


def _pentagonal_entry(k):
    """A defect in the cached pentagonal column: p(k) off by one."""
    def defect(columns):
        col = columns[PENTAGONAL]
        return {**columns, PENTAGONAL: col[:k] + [col[k] + 1] + col[k + 1:]}
    return defect


@pytest.mark.parametrize("check, n_max, target, name, defect, names", [
    (checks.worked_examples, None, None, "ratio_count", _result(lambda v: v + 1),
     "double-ratio(5)"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(lambda s: s[:-1]), "alg 2"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(lambda s: s[:1] + s[2:0:-1] + s[3:]),
     "alg 2"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(lambda s: s + s[-1:]), "alg 2"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(lambda s: s, extra=1), "alg 2"),
    (checks.cross_paths, 8, None, "p2_closed", _result(lambda v: v + 1), "closed form t=2"),
    (checks.cross_paths, 8, None, "_columns", _pentagonal_entry(5), "pentagonal p(5) vs p(5, 1)"),
    # above the crossover, where ratio_restricted_count answers by the product
    (checks.cross_paths, 45, None, "_columns", _pentagonal_entry(40),
     "pentagonal p(40) vs p(40, 1)"),
    (checks.cross_paths, 8, None, "_product_count", _result(lambda v: v + 1),
     "product path at (2,1,1)"),
    (checks.op_counts, 8, checks, "verify_v3_counts",
     _result(lambda c: replace(c, actual_assignments=c.actual_assignments + 1)), "v3 at n=2"),
    (checks.trees, 8, checks, "build_strict_tree",  # the last node built is a leaf
     _result(lambda t: replace(t, labels=t.labels[:-1], children=t.children[:-1])),
     "binary tree"),
    (checks.inequalities, 100, None, "check_inequalities",
     _result(lambda r: replace(r, dominance_violations=[7])), "[7]"),
], ids=["worked", "missing", "swapped", "extra", "miscounted", "closed-form", "pentagonal",
        "pentagonal-above-crossover", "product", "op-counts", "tree", "inequality"])
def test_check_fails_on_defect(monkeypatch, check, n_max, target, name, defect, names):
    ctx = CountContext()
    assert check(ctx, n_max).ok
    target = ctx if target is None else target
    monkeypatch.setattr(target, name, defect(getattr(target, name)))
    result = check(ctx, n_max)
    assert not result.ok and names in result.detail


@pytest.mark.parametrize("n_max", range(1, 8))
def test_inequalities_pass_below_the_last_equality(n_max):
    # growth holds with equality for n <= 6, so short sweeps see fewer of them
    assert checks.inequalities(CountContext(), n_max).ok
