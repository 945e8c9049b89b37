"""Frozen result records: operation tallies, the inequality scan, the count
checks and the ratio scan.

Each record is imported by the function that builds it, inside its body, so
a command that builds none of them never loads `dataclasses` (nor the
`inspect` it pulls in): `OpCounters` by `blockprofile.tally`, for the
counted generators, `InequalityReport` by `CountContext.check_inequalities`,
`CountCheck` by `analysis.verify_counts`, and `RatioRecord` and `RatioScan`
by `analysis.ratio_table`.  Only `traversal`, which defines a record of its
own, imports `OpCounters` when it loads.  A `RatioRecord` holds r1 and r2 as
`analysis` does, each an exact (numerator, denominator) pair of counts.

The counting convention of `OpCounters`, used consistently by `traversal` and
`generate`: each executed assignment line counts once (a line assigning a pair
like ``(x, y) <- ...`` is still one line), every evaluation of a while/if
condition counts once, and ``visits`` counts visited nodes / emitted
compositions rather than visit statements.  `blockprofile.profile` is the
one place that states which statements of a generator it excludes: the
emitted-count bookkeeping and the buffer allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class OpCounters:
    assignments: int = 0
    bool_evals: int = 0
    pushes: int = 0
    pops: int = 0
    visits: int = 0

    def __post_init__(self):
        if min(self.assignments, self.bool_evals, self.pushes, self.pops, self.visits) < 0:
            raise ValueError("counters must be nonnegative")


@dataclass(frozen=True)
class InequalityReport:
    """`CountContext.check_inequalities`' scan of 1..n_max."""

    n_max: int
    growth_violations: list[int] = field(default_factory=list)
    growth_equalities: list[int] = field(default_factory=list)
    dominance_violations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.growth_violations and not self.dominance_violations


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


@dataclass(frozen=True)
class RatioRecord:
    """r1 and r2 at n, each a (numerator, denominator) pair of integer counts."""

    n: int
    r1: tuple[int, int]
    r2: tuple[int, int]


@dataclass(frozen=True)
class RatioScan:
    records: list[RatioRecord]
    argmin_r1: int
    argmin_r2: int
    # n where a ratio falls outside (0, 1): gen_v3 not strictly cheaper there.
    range_violations: list[int]
