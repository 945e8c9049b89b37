"""Predicted operation counts, their verification, and the cost-ratio scan.

The instrumented generators execute an exactly predictable number of
operations:

    gen_v2: 4 p(n) + 4 d(n)  assignments,  p(n) + 3 d(n)  boolean evals
    gen_v3: 4 p(n) + 5 r(n)  assignments,  p(n) + 4 r(n)  boolean evals

where d(n) / r(n) are the t = 2 / t = 3 ratio counts from `counting`.
`_predicted` holds these formulas under the keys of `generate.COUNTED`, and
`verify_counts(n, ctx, alg)` runs ``COUNTED[alg]`` at n and compares its
tallies with them, and its visits with p(n).

The relative cost of gen_v3 versus gen_v2 is summarized by two exact
rationals,

    r1(n) = (4 p(n) + 5 r(n)) / (4 p(n) + 4 d(n))   -- assignments
    r2(n) = (p(n) + 4 r(n)) / (p(n) + 3 d(n))       -- boolean evals

computed from exact integer counts (no floating arithmetic on the counts
themselves).  `r1_exact`/`r2_exact` return them as `Fraction`s, and `bench`
renders those to 5 decimals with round-half-to-even.  `ratio_table` keeps
each as a float, and `write_ratio_csv` rounds the float's repr half to even
instead; for every 2 <= n <= 5000 both ratios render the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .counting import CountContext
from .errors import DomainError, require_at_least
from .generate import COUNTED


def _predicted(n, ctx):
    """The paper's (assignments, bool_evals) at n, keyed like `generate.COUNTED`."""
    if n < 2:
        raise DomainError(f"ratios are defined for n >= 2, got {n}")
    p, d, r = ctx.partition_count(n), ctx.p2_closed(n), ctx.p3_closed(n)
    return {2: (4 * p + 4 * d, p + 3 * d), 3: (4 * p + 5 * r, p + 4 * r)}


def _ratios(n, ctx):
    counts = _predicted(n, ctx)
    return tuple(map(Fraction, counts[3], counts[2]))


def r1_exact(n: int, ctx: CountContext) -> Fraction:
    """Assignment-count ratio of gen_v3 to gen_v2, as an exact rational."""
    return _ratios(n, ctx)[0]


def r2_exact(n: int, ctx: CountContext) -> Fraction:
    """Boolean-evaluation-count ratio of gen_v3 to gen_v2, exact."""
    return _ratios(n, ctx)[1]


def format_ratio(value) -> str:
    """Render a ratio with exactly 5 decimals, ties to even."""
    if isinstance(value, Fraction):
        with localcontext() as lc:
            lc.prec = 50
            dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(repr(float(value)))
    return str(dec.quantize(Decimal("0.00001"), rounding=ROUND_HALF_EVEN))


@dataclass(frozen=True)
class CountCheck:
    """A counted generator's tallies at n against its predicted counts and p(n) visits."""

    n: int
    algorithm: int  # the key in `generate.COUNTED`
    expected_assignments: int
    actual_assignments: int
    expected_bool_evals: int
    actual_bool_evals: int
    expected_visits: int
    actual_visits: int

    @property
    def passed(self) -> bool:
        return ((self.expected_assignments, self.expected_bool_evals, self.expected_visits)
                == (self.actual_assignments, self.actual_bool_evals, self.actual_visits))


def verify_counts(n: int, ctx: CountContext, alg: int) -> CountCheck:
    """Run ``COUNTED[alg]`` at n and check it against `_predicted` and p(n)."""
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


@dataclass(frozen=True)
class RatioRecord:
    n: int
    r1: float
    r2: float


@dataclass(frozen=True)
class RatioScan:
    records: list[RatioRecord]
    argmin_r1: int
    argmin_r2: int
    # n where a ratio falls outside (0, 1): gen_v3 not strictly cheaper there.
    range_violations: list[int]


def ratio_table(n_max: int, ctx: CountContext) -> RatioScan:
    """Ratio records for 2 <= n <= n_max plus the argmin of each column."""
    require_at_least(n_max, 2, "n_max")
    ctx.partition_count(n_max)  # one fill of the p column, not one per doubling
    records = []
    violations = []
    best1 = best2 = None
    argmin1 = argmin2 = 2
    for n in range(2, n_max + 1):
        f1, f2 = _ratios(n, ctx)
        if not (0 < f1 < 1 and 0 < f2 < 1):
            violations.append(n)
        if best1 is None or f1 < best1:
            best1, argmin1 = f1, n
        if best2 is None or f2 < best2:
            best2, argmin2 = f2, n
        records.append(RatioRecord(n=n, r1=float(f1), r2=float(f2)))
    return RatioScan(records=records, argmin_r1=argmin1, argmin_r2=argmin2,
                     range_violations=violations)


def budget_violations(ctx: CountContext, n_max: int) -> list[int]:
    """n in 2..n_max where 4 * triple-ratio(n) > 3 * double-ratio(n).

    The inequality is what makes gen_v3 cheaper than gen_v2 on both counters;
    it holds everywhere except n = 2 (both counts are 1 there, and 4 > 3).
    """
    return [n for n in range(2, n_max + 1)
            if 4 * ctx.p3_closed(n) > 3 * ctx.p2_closed(n)]


def write_ratio_csv(scan: RatioScan, fileobj) -> None:
    """CSV with header n,r1,r2; ratios printed to 5 decimals."""
    fileobj.write("n,r1,r2\n")
    for rec in scan.records:
        fileobj.write(f"{rec.n},{format_ratio(rec.r1)},{format_ratio(rec.r2)}\n")
