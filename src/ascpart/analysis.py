"""Predicted operation counts, their verification, and the cost-ratio scan.

The instrumented generators execute an exactly predictable number of
operations:

    gen_v2: 4 p(n) + 4 d(n)  assignments,  p(n) + 3 d(n)  boolean evals
    gen_v3: 4 p(n) + 5 r(n)  assignments,  p(n) + 4 r(n)  boolean evals

where d(n) / r(n) are the t = 2 / t = 3 ratio counts from `counting`.
`_formulas` holds these formulas under the keys of `generate.COUNTED`;
`_predicted` reads p(n), d(n) and r(n) for one n, and `verify_counts(n, ctx,
alg)` runs ``COUNTED[alg]`` at n and compares its tallies with them, and its
visits with p(n).

The relative cost of gen_v3 versus gen_v2 is summarized by two exact ratios,

    r1(n) = (4 p(n) + 5 r(n)) / (4 p(n) + 4 d(n))   -- assignments
    r2(n) = (p(n) + 4 r(n)) / (p(n) + 3 d(n))       -- boolean evals

each held in one form only: the (numerator, denominator) pair of the two
integer counts, unreduced, which `_ratio_pairs` reads off `_formulas`.
`format_ratio(a, b)` rounds a / b to 5 decimals, half to even, by integer
division, so every printed ratio is exact by construction.  `ratio_csv` and
`ratio_table` read p, d and r for their whole range from
`CountContext.closed_forms`, and `bench.bench_table` reads `_predicted` at
each of its n.  `ratio_table` compares the pairs: a ratio lies in (0, 1)
when 0 < numerator < denominator, and each argmin is found by integer
cross-multiplication (ties keep the first n).

The records `CountCheck`, `RatioRecord` and `RatioScan` live in `counters`,
and each is imported by the function that builds it, as is `generate`'s
`COUNTED` by `verify_counts`: so ``ascpart ratios``, which calls
`ratio_csv` alone, loads neither `dataclasses` nor `generate`.
"""

from __future__ import annotations

from itertools import chain

from .counting import CountContext
from .errors import require_at_least, require_one_of


def _formulas(p, d, r):
    """The paper's (assignments, bool_evals) from p(n), d(n), r(n), keyed like `COUNTED`."""
    return {2: (4 * p + 4 * d, p + 3 * d), 3: (4 * p + 5 * r, p + 4 * r)}


def _predicted(n, ctx):
    """`_formulas` at one n."""
    require_at_least(n, 2)
    return _formulas(ctx.partition_count(n), ctx.p2_closed(n), ctx.p3_closed(n))


def _ratio_pairs(counts):
    """(r1, r2) of one `_formulas` result, each gen_v3's count over gen_v2's as a pair."""
    (a2, b2), (a3, b3) = counts[2], counts[3]
    return (a3, a2), (b3, b2)


def _ratio_rows(n_max, ctx):
    """Check n_max, then iterate (n, r1, r2) of `_ratio_pairs` for 2 <= n <= n_max."""
    require_at_least(n_max, 2, "n_max")
    p, d, r = ctx.closed_forms(n_max)
    return ((n, *_ratio_pairs(f)) for n, f in enumerate(map(_formulas, p[2:], d[2:], r[2:]), 2))


def format_ratio(numerator: int, denominator: int) -> str:
    """numerator / denominator (>= 0 and > 0) with exactly 5 decimals, ties to even."""
    q, rem = divmod(numerator * 100000, denominator)
    if 2 * rem > denominator or (2 * rem == denominator and q % 2):
        q += 1
    return f"{q // 100000}.{q % 100000:05d}"


def verify_counts(n: int, ctx: CountContext, alg: int) -> CountCheck:
    """Run ``COUNTED[alg]`` at n and check it against `_predicted` and p(n)."""
    from .counters import CountCheck
    from .generate import COUNTED

    require_one_of(alg, COUNTED, "alg")
    assignments, bool_evals = _predicted(n, ctx)[alg]
    ops = COUNTED[alg](n)
    return CountCheck(n=n, algorithm=alg,
                      expected_assignments=assignments, actual_assignments=ops.assignments,
                      expected_bool_evals=bool_evals, actual_bool_evals=ops.bool_evals,
                      expected_visits=ctx.partition_count(n), actual_visits=ops.visits)


def verify_v2_counts(n: int, ctx: CountContext) -> CountCheck:
    """`verify_counts` for gen_v2; `perfbench/probe.py` imports it by name."""
    return verify_counts(n, ctx, 2)


def verify_v3_counts(n: int, ctx: CountContext) -> CountCheck:
    """`verify_counts` for gen_v3; `perfbench/probe.py` imports it by name."""
    return verify_counts(n, ctx, 3)


def ratio_table(n_max: int, ctx: CountContext) -> RatioScan:
    """Ratio records for 2 <= n <= n_max plus the argmin of each column."""
    from .counters import RatioRecord, RatioScan

    records = []
    violations = []
    # each best is a (numerator, denominator) pair; 1 / 0 stands for +infinity
    best1 = best2 = (1, 0)
    argmin1 = argmin2 = 2
    for n, r1, r2 in _ratio_rows(n_max, ctx):
        if not (0 < r1[0] < r1[1] and 0 < r2[0] < r2[1]):
            violations.append(n)
        if r1[0] * best1[1] < best1[0] * r1[1]:
            best1, argmin1 = r1, n
        if r2[0] * best2[1] < best2[0] * r2[1]:
            best2, argmin2 = r2, n
        records.append(RatioRecord(n=n, r1=r1, r2=r2))
    return RatioScan(records=records, argmin_r1=argmin1, argmin_r2=argmin2,
                     range_violations=violations)


def budget_violations(ctx: CountContext, n_max: int) -> list[int]:
    """n in 2..n_max where 4 * triple-ratio(n) > 3 * double-ratio(n).

    The inequality is what makes gen_v3 cheaper than gen_v2 on both counters;
    it holds everywhere except n = 2 (both counts are 1 there, and 4 > 3).
    """
    _, d, r = ctx.closed_forms(max(n_max, 0))
    return [n for n in range(2, n_max + 1) if 4 * r[n] > 3 * d[n]]


def ratio_csv(n_max: int, ctx: CountContext):
    """The lines of the CSV n,r1,r2, made as they are read; n_max is checked at the call."""
    rows = _ratio_rows(n_max, ctx)
    return chain(["n,r1,r2\n"], (f"{n},{format_ratio(*r1)},{format_ratio(*r2)}\n"
                                 for n, r1, r2 in rows))
