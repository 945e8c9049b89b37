"""Wall-clock comparison of the composition generators.

Timing runs use the uninstrumented generators with a checksum consumer (an
order-sensitive 64-bit rolling hash of the visited compositions) so the
work stays observable but nothing is printed.  Measured ratios depend
heavily on the interpreter and the machine; they are reported, never
asserted.  The theoretical r1/r2 columns from `analysis` ride along in the
CSV for comparison.

Protocol, single-threaded: each generator of `generate.ALGORITHMS`, in the
table's order, gets one untimed warmup run and then timed runs: ``reps`` of
them for the two generators the CSV compares, and one for each other, used
only for its checksum.  r(n) = t1 / t2 where t1 is gen_v3's mean time and
t2 is gen_v2's.  So a table visits p(n) * 2 * (len(ALGORITHMS) - 1 + reps)
compositions per n, and `bench_table` refuses one whose total over its n
would pass `generate.VISIT_CAP`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from statistics import mean

from .analysis import _ratios, format_ratio
from .counting import CountContext
from .errors import require_at_least, require_one_of, require_within
from .generate import ALGORITHMS, VISIT_CAP

_MASK = (1 << 64) - 1
_BASE = 1_000_003


class _Checksum:
    """Rolling hash of the stream: value = value * _BASE + hash(parts), mod 2**64.

    Each composition enters as the hash of its tuple of parts, which mixes
    the parts in order and then the length, so the value depends on the
    order of compositions, the order of parts within one and where one ends.
    Int and tuple hashes are not randomized, so the value repeats across runs.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def __call__(self, a, length):
        self.value = (self.value * _BASE + hash(tuple(islice(a, 1, length + 1)))) & _MASK


@dataclass(frozen=True)
class BenchRecord:
    n: int
    algorithm: int  # the key in `generate.ALGORITHMS`
    reps: int
    times_ns: tuple[int, ...]
    checksum: int

    @property
    def mean_ns(self) -> int:
        return round(mean(self.times_ns))


def time_algorithm(n: int, algorithm: int, reps: int) -> BenchRecord:
    """Time ``ALGORITHMS[algorithm]``: warmup, then reps measured runs."""
    require_one_of(algorithm, ALGORITHMS, "algorithm")
    require_at_least(reps, 1, "reps")
    gen = ALGORITHMS[algorithm]
    warm = _Checksum()
    gen(n, warm)
    times = []
    checksum = None
    for _ in range(reps):
        acc = _Checksum()
        start = time.perf_counter_ns()
        gen(n, acc)
        times.append(time.perf_counter_ns() - start)
        if checksum is None:
            checksum = acc.value
        elif checksum != acc.value:
            raise RuntimeError(f"nondeterministic checksum for v{algorithm} at n={n}")
    if checksum != warm.value:
        raise RuntimeError(f"warmup checksum mismatch for v{algorithm} at n={n}")
    return BenchRecord(n=n, algorithm=algorithm, reps=reps,
                       times_ns=tuple(times), checksum=checksum)


@dataclass(frozen=True)
class BenchRow:
    n: int
    t1_ns: int  # gen_v3 mean
    t2_ns: int  # gen_v2 mean
    r: float
    r1: Fraction
    r2: Fraction


def bench_table(ns, reps: int, ctx: CountContext | None = None) -> list[BenchRow]:
    """One row per n: measured t1, t2, r = t1/t2, and theoretical r1, r2.

    Every generator must give the same checksum for every n; that is a
    correctness condition, so a mismatch raises.  ``reps`` is checked, the
    ratios are computed and the visits are summed first, so ``reps < 1`` or
    an n outside their domain (n < 2) raises `DomainError`, and a table past
    the visit cap `CapacityError`, before any generator runs.
    """
    require_at_least(reps, 1, "reps")
    if ctx is None:
        ctx = CountContext()
    exact = [(n, *_ratios(n, ctx)) for n in ns]
    visits = sum(ctx.partition_count(n) for n, _, _ in exact) * 2 * (len(ALGORITHMS) - 1 + reps)
    require_within(visits, VISIT_CAP, "visit", "visits")
    rows = []
    for n, r1, r2 in exact:
        recs = {alg: time_algorithm(n, alg, reps if alg in (2, 3) else 1) for alg in ALGORITHMS}
        if len({rec.checksum for rec in recs.values()}) != 1:
            raise RuntimeError(f"checksum mismatch at n={n}: " + " ".join(
                f"v{alg}={rec.checksum}" for alg, rec in recs.items()))
        t1, t2 = recs[3].mean_ns, recs[2].mean_ns
        rows.append(BenchRow(n=n, t1_ns=t1, t2_ns=t2, r=t1 / t2, r1=r1, r2=r2))
    return rows


def write_bench_csv(rows, fileobj) -> None:
    """CSV with header n,t1_ns,t2_ns,r,r1,r2; times in integer nanoseconds."""
    fileobj.write("n,t1_ns,t2_ns,r,r1,r2\n")
    for row in rows:
        pairs = (row.t1_ns, row.t2_ns), row.r1.as_integer_ratio(), row.r2.as_integer_ratio()
        fileobj.write(f"{row.n},{row.t1_ns},{row.t2_ns},"
                      + ",".join(format_ratio(*pair) for pair in pairs) + "\n")
