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

The relative cost of gen_v3 versus gen_v2 is summarized by two exact
rationals,

    r1(n) = (4 p(n) + 5 r(n)) / (4 p(n) + 4 d(n))   -- assignments
    r2(n) = (p(n) + 4 r(n)) / (p(n) + 3 d(n))       -- boolean evals

computed from exact integer counts (no floating arithmetic on the counts
themselves).  `r1_exact`/`r2_exact` return them as `Fraction`s.
`format_ratio(a, b)` rounds a / b to 5 decimals, half to even, by integer
division, so every printed ratio is exact by construction.  `ratio_csv` and
`ratio_table` read p, d and r for their whole range from
`CountContext.closed_forms`.  `ratio_table` compares on the integer counts: a
ratio lies in (0, 1) when 0 < numerator < denominator, and each argmin is
found by integer cross-multiplication (ties keep the first n).  Its floats
are numerator / denominator, which int division rounds correctly, so each
equals float() of the `Fraction`.

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


def _ratios(n, ctx):
    """(r1, r2) at n as `Fraction`s; imported here, so `ratios` and `verify` never load it."""
    from fractions import Fraction

    counts = _predicted(n, ctx)
    return tuple(map(Fraction, counts[3], counts[2]))


def _counts(n_max, ctx):
    """Check n_max, then iterate (n, gen_v2 counts, gen_v3 counts) for 2 <= n <= n_max."""
    require_at_least(n_max, 2, "n_max")
    p, d, r = ctx.closed_forms(n_max)
    return ((n, f[2], f[3]) for n, f in enumerate(map(_formulas, p[2:], d[2:], r[2:]), 2))


def r1_exact(n: int, ctx: CountContext) -> Fraction:
    """Assignment-count ratio of gen_v3 to gen_v2, as an exact rational."""
    return _ratios(n, ctx)[0]


def r2_exact(n: int, ctx: CountContext) -> Fraction:
    """Boolean-evaluation-count ratio of gen_v3 to gen_v2, exact."""
    return _ratios(n, ctx)[1]


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


# perfbench/probe.py imports these two by name, so they stay.
def verify_v2_counts(n: int, ctx: CountContext) -> CountCheck:
    return verify_counts(n, ctx, 2)


def verify_v3_counts(n: int, ctx: CountContext) -> CountCheck:
    return verify_counts(n, ctx, 3)


def ratio_table(n_max: int, ctx: CountContext) -> RatioScan:
    """Ratio records for 2 <= n <= n_max plus the argmin of each column."""
    from .counters import RatioRecord, RatioScan

    records = []
    violations = []
    # each best is (numerator, denominator); 1 / 0 stands for +infinity
    best1 = best2 = (1, 0)
    argmin1 = argmin2 = 2
    for n, (a2, b2), (a3, b3) in _counts(n_max, ctx):
        if not (0 < a3 < a2 and 0 < b3 < b2):
            violations.append(n)
        if a3 * best1[1] < best1[0] * a2:
            best1, argmin1 = (a3, a2), n
        if b3 * best2[1] < best2[0] * b2:
            best2, argmin2 = (b3, b2), n
        records.append(RatioRecord(n=n, r1=a3 / a2, r2=b3 / b2))
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
    rows = _counts(n_max, ctx)
    return chain(["n,r1,r2\n"], (f"{n},{format_ratio(a3, a2)},{format_ratio(b3, b2)}\n"
                                 for n, (a2, b2), (a3, b3) in rows))
