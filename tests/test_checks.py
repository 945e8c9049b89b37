"""Each check of the verification battery fails on an injected defect."""

from dataclasses import replace

import pytest

from ascpart import COUNTED, CapacityError, CountContext, checks


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


def _replace(old, new):
    """A stream edit that writes the composition ``new`` where ``old`` was."""
    return lambda s: [a[:1] + [*new] if a[1:] == [*old] else a for a in s]


def _pentagonal_entry(k):
    """A defect in the cached (1, 1) column, Euler's p: p(k) off by one."""
    def defect(columns):
        col = columns[1, 1]
        return {**columns, (1, 1): col[:k] + [col[k] + 1] + col[k + 1:]}
    return defect


def _series_entry(t, k):
    """A defect in the range path, ``closed_forms``: entry k of the t series off by one."""
    def change(forms):
        forms[t - 1][k] += 1  # the lists are the caller's own copies
        return forms
    return _result(change)


@pytest.mark.parametrize("check, n_max, target, name, defect, names", [
    (checks.worked_examples, None, None, "ratio_count", _result(lambda v: v + 1),
     "double-ratio(5)"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(lambda s: s[:-1]), "alg 2"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(lambda s: s[:1] + s[2:0:-1] + s[3:]),
     "alg 2, n=3: composition #1 is (3,), want (1, 2)"),
    # parts no byte holds: the comparison with the oracle's bytes must not raise
    (checks.generation, 8, checks, "ALGORITHMS", _stream(_replace((2, 2), (2, 300))),
     "alg 2, n=4: composition #3 is (2, 300), want (2, 2)"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(_replace((1, 3), (-1, 3))),
     "alg 2, n=4: composition #2 is (-1, 3), want (1, 3)"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(lambda s: s + s[-1:]),
     "alg 2, n=1: composition #1 is (1,), want None"),
    (checks.generation, 8, checks, "ALGORITHMS", _stream(lambda s: s, extra=1), "alg 2"),
    (checks.cross_paths, 8, None, "p2_closed", _result(lambda v: v + 1), "closed form t=2"),
    (checks.cross_paths, 8, None, "closed_forms", _series_entry(3, 7),
     "closed-form series t=3 at n=7"),
    (checks.cross_paths, 8, None, "_columns", _pentagonal_entry(5), "pentagonal p(5) vs p(5, 1)"),
    # above the crossover, where ratio_restricted_count answers by the product
    (checks.cross_paths, 45, None, "_columns", _pentagonal_entry(40),
     "pentagonal p(40) vs p(40, 1)"),
    (checks.cross_paths, 8, None, "_product_count", _result(lambda v: v + 1),
     "product path at (2,1,1)"),
    (checks.op_counts, 8, COUNTED, 3,
     _result(lambda ops: replace(ops, assignments=ops.assignments + 1)), "v3 at n=2"),
    (checks.op_counts, 8, COUNTED, 3, _result(lambda ops: replace(ops, visits=ops.visits + 1)),
     "v3 at n=2: assignments 13 vs 13, bool evals 6 vs 6, visits 3 vs 2"),  # p(2) = 2
    (checks.trees, 8, checks, "build_strict_tree",  # the last node built is a leaf
     _result(lambda t: replace(t, labels=t.labels[:-1], children=t.children[:-1])),
     "binary tree"),
    (checks.inequalities, 100, None, "check_inequalities",
     _result(lambda r: replace(r, dominance_violations=[7])), "[7]"),
], ids=["worked", "missing", "swapped", "part-300", "part-negative", "extra", "miscounted",
        "closed-form", "closed-form-series", "pentagonal", "pentagonal-above-crossover", "product",
        "op-counts", "op-counts-visits", "tree", "inequality"])
def test_check_fails_on_defect(monkeypatch, check, n_max, target, name, defect, names):
    ctx = CountContext()
    assert check(ctx, n_max).ok
    target = ctx if target is None else target
    if isinstance(target, dict):  # a generator table
        monkeypatch.setitem(target, name, defect(target[name]))
    else:
        monkeypatch.setattr(target, name, defect(getattr(target, name)))
    result = check(ctx, n_max)
    assert not result.ok and names in result.detail


def test_cached_column_defect_is_blamed_on_the_served_count():
    # cross_paths fills its own reference columns, so a wrong cached column
    # shows up as the count it serves, not as the paths that agree with the
    # recurrence
    ctx = CountContext()
    assert checks.cross_paths(ctx, 30).ok
    ctx._columns[(2, 3)][12] += 1
    result = checks.cross_paths(ctx, 30)
    assert not result.ok
    assert "served count at (12,3,2)" in result.detail
    assert "product path" not in result.detail


@pytest.mark.parametrize("n_max", range(1, 8))
def test_inequalities_pass_below_the_last_equality(n_max):
    # growth holds with equality for n <= 6, so short sweeps see fewer of them
    assert checks.inequalities(CountContext(), n_max).ok


def test_battery_guard_is_the_visits_op_counts_makes(monkeypatch, ctx):
    # battery's guard is every visit that the COUNTED entries make: the
    # battery runs at a cap of exactly that many, and not one below it
    visits = 0

    def counting(gen):
        def wrapped(n):
            nonlocal visits
            tallies = gen(n)
            visits += tallies.visits
            return tallies
        return wrapped

    for alg, gen in list(COUNTED.items()):
        monkeypatch.setitem(COUNTED, alg, counting(gen))
    assert all(result.ok for result in checks.battery(ctx, 12))
    made = visits
    assert made == len(COUNTED) * sum(ctx.partition_count(n) for n in range(2, 13))
    # checks imports generate's VISIT_CAP, so checks.VISIT_CAP is the cap it reads
    monkeypatch.setattr(checks, "VISIT_CAP", made)
    assert all(result.ok for result in checks.battery(ctx, 12))
    assert visits == 2 * made
    monkeypatch.setattr(checks, "VISIT_CAP", made - 1)
    with pytest.raises(CapacityError, match=f"^visits={made} exceeds the visit cap {made - 1}$"):
        next(checks.battery(ctx, 12))
    assert visits == 2 * made  # refused before the first check
