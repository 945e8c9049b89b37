"""Acceptance gate: one test per criterion, printed one line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass.  Criterion 10c is expected to FAIL: the budget inequality
4 * triple-ratio(n) <= 3 * double-ratio(n) has a genuine counterexample at
n = 2 (both counts are 1, and 4 > 3), so the stated range 2..1000 cannot
hold.  The check is asserted as stated rather than weakened.
"""

import io

import pytest

from ascpart import (
    bench_table,
    budget_violations,
    build_strict_tree,
    decode_path,
    gen_v2_counted,
    gen_v3_counted,
    inorder_generic,
    inorder_v1,
    inorder_v2,
    iter_root_to_leaf_paths,
    r1_exact,
    r2_exact,
    ratio_table,
    write_bench_csv,
)
from ascpart import checks
from ascpart.counting import _fill_column
from ascpart.oracle import brute_compositions, has_ratio_property

from test_analysis import REFERENCE_RATIOS


def _report(label, detail="PASS"):
    print(f"criterion {label}: {detail}")


def _passes(check, ctx, n_max):
    result = check(ctx, n_max)
    assert result.ok, f"{result.name}: {result.detail}"


def test_criterion_01_generators_match_oracle(ctx):
    """Each generator emits exactly the sorted oracle list for n <= 45."""
    _passes(checks.generation, ctx, 45)
    _report("1 (generator output equals oracle, n <= 45)")


def test_criterion_02_worked_counts(ctx):
    _passes(checks.worked_examples, ctx, None)
    assert ctx.ratio_restricted_count(12, 3, 2) == 4
    assert ctx.ratio_restricted_count(15, 4, 2) == 3
    for t in (2, 3, 4, 5):
        assert ctx.ratio_restricted_count(t + 1, 1, t) == 2
    _report("2 (worked counts reproduce exactly)")


def test_criterion_03_counting_paths_agree(ctx):
    # recurrence = served count = product = sum form = reduction = closed
    # forms = brute force, exhaustively over n <= 60, m <= n, t in {1, 2, 3, 4};
    # the battery's check compares the other paths with the recurrence, and
    # past 60 the closed forms are compared with its columns directly
    _passes(checks.cross_paths, ctx, 60)
    for n in range(1, 61):
        for m in range(1, n + 1):
            comps = brute_compositions(n, m)
            for t in (1, 2, 3, 4):
                want = sum(1 for c in comps if has_ratio_property(c, t))
                assert ctx.ratio_restricted_count(n, m, t) == want, (n, m, t)
    for t, closed in ((2, ctx.p2_closed), (3, ctx.p3_closed)):
        col = _fill_column(t, 1, 300)
        for n in range(61, 301):
            assert closed(n) == col[n], (n, t)
    _report("3 (counting cross-paths agree, oracle to 60, closed forms to 300)")


def test_criterion_04_tree_identities(ctx):
    _passes(checks.trees, ctx, 25)
    for n in range(1, 21):
        decoded = [decode_path(path)
                   for path in iter_root_to_leaf_paths(build_strict_tree(n))]
        assert len(set(decoded)) == len(decoded) == ctx.partition_count(n)
        assert sorted(decoded) == brute_compositions(n), n
    _report("4 (tree node/leaf identities to 25, path bijection to 20)")


def _visit_bytes(run):
    buf = bytearray()
    append = buf.append

    def visit(x, y):
        append(x)
        append(y)

    stats = run(visit)
    return bytes(buf), stats


def test_criterion_05_traversal_counters(ctx):
    for n in range(2, 61):
        p = ctx.partition_count(n)
        ref, sg = _visit_bytes(lambda v, n=n: inorder_generic(n, v))
        one, s1 = _visit_bytes(lambda v, n=n: inorder_v1(n, v))
        two, s2 = _visit_bytes(lambda v, n=n: inorder_v2(n, v))
        assert ref == one == two, f"visit sequences differ at n={n}"
        d = ctx.p2_closed(n)
        r = ctx.p3_closed(n)
        assert sg.ops.pushes == p - 1, n
        assert s1.ops.pushes == d - 1, n
        assert s2.ops.pushes == r - 1, n
        assert (sg.ops.assignments, sg.ops.bool_evals) == (2 * p + 1, 4 * p), n
        assert (s1.ops.assignments, s1.ops.bool_evals) == (p + d + 1, p + 4 * d), n
        assert (s2.ops.assignments, s2.ops.bool_evals) == (p + r + 1, p + 5 * r), n
        for stats in (sg, s1, s2):
            assert stats.ops.pops == stats.ops.pushes, n
            assert stats.ops.visits == 2 * p - 1, n
    _report("5 (traversal stack and operation counts exact and sequences identical, n <= 60)")


def test_criterion_06_v2_operation_counts(ctx):
    for n in range(2, 61):
        p = ctx.partition_count(n)
        d = ctx.p2_closed(n)
        ops = gen_v2_counted(n)
        assert ops.assignments == 4 * p + 4 * d, n
        assert ops.bool_evals == p + 3 * d, n
        assert ops.visits == p, n
    assert gen_v2_counted(20).assignments == 3476
    assert gen_v2_counted(20).bool_evals == 1353
    _report("6 (gen_v2 instrumented counts exact, 2 <= n <= 60)")


def test_criterion_07_v3_operation_counts(ctx):
    for n in range(2, 61):
        p = ctx.partition_count(n)
        r = ctx.p3_closed(n)
        ops = gen_v3_counted(n)
        assert ops.assignments == 4 * p + 5 * r, n
        assert ops.bool_evals == p + 4 * r, n
        assert ops.visits == p, n
    assert gen_v3_counted(20).assignments == 3113
    assert gen_v3_counted(20).bool_evals == 1111
    _report("7 (gen_v3 instrumented counts exact, 2 <= n <= 60)")


def test_criterion_08_reference_ratio_rows(ctx):
    for n, (want1, want2) in REFERENCE_RATIOS.items():
        got1, got2 = float(r1_exact(n, ctx)), float(r2_exact(n, ctx))
        assert abs(got1 - want1) < 2e-5, (n, got1, want1)
        assert abs(got2 - want2) < 2e-5, (n, got2, want2)
    _report("8 (all 12 reference ratio rows within 2e-5)")


def test_criterion_09_r2_minimum_location(ctx):
    scan = ratio_table(1500, ctx)
    assert 50 <= scan.argmin_r2 <= 150, scan.argmin_r2
    _report(f"9 (r2 minimum over 2..1500 at n = {scan.argmin_r2}, inside [50, 150])")


def test_criterion_10a_growth_bound(ctx):
    _passes(checks.inequalities, ctx, 1000)
    _report("10a (growth bound holds to 1000; equality exactly for n <= 6)")


def test_criterion_10b_dominance(ctx):
    _passes(checks.inequalities, ctx, 1000)
    _report("10b (triple-ratio(n) <= double-ratio(n-1) holds, 2 <= n <= 1000)")


def test_criterion_10c_budget_inequality(ctx):
    """Asserted as stated over 2..1000; fails on the genuine counterexample n=2.

    4 * triple-ratio(2) = 4 > 3 = 3 * double-ratio(2): both counts are 1
    (the only qualifying partition of 2 is [2]).  The inequality holds for
    every other n in the range, with equality at n = 5.
    """
    bad = budget_violations(ctx, 1000)
    _report("10c (4*triple <= 3*double, 2 <= n <= 1000)",
            "PASS" if not bad else f"FAIL, counterexamples at n={bad}")
    assert bad == [], f"4*triple-ratio(n) > 3*double-ratio(n) at n={bad}"


def test_criterion_11_benchmark_harness(ctx):
    # Full 20..130 is a non-starter for an interpreted acceptance run
    # (p(130) is ~5.4e9 visits); the harness contract is exercised on a
    # reduced set and the checksum/column requirements are asserted in full.
    ns = [20, 30, 40]
    rows = bench_table(ns, reps=3, ctx=ctx)  # raises on checksum mismatch
    assert [row.n for row in rows] == ns
    for row in rows:
        assert row.r1 == r1_exact(row.n, ctx)
        assert row.r2 == r2_exact(row.n, ctx)
        assert abs(float(row.r1) - REFERENCE_RATIOS[row.n][0]) < 2e-5
        assert abs(float(row.r2) - REFERENCE_RATIOS[row.n][1]) < 2e-5
    buf = io.StringIO()
    write_bench_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,t1_ns,t2_ns,r,r1,r2"
    assert len(lines) == len(ns) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        int(fields[0]), int(fields[1]), int(fields[2])
        for ratio in fields[3:]:
            assert len(ratio.partition(".")[2]) == 5
    _report("11 (benchmark CSV well-formed, checksums agree, ratio columns match)")
