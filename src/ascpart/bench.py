"""Wall-clock comparison of the composition generators.

Timing runs use the uninstrumented generators with a checksum consumer (an
order-sensitive 64-bit rolling hash of the visited compositions) so the
work stays observable but nothing is printed.  Measured ratios depend
heavily on the interpreter and the machine; they are reported, never
asserted.  The theoretical r1/r2 columns from `analysis` ride along in the
CSV for comparison.

Protocol, single-threaded: each algorithm gets one untimed warmup run, then
gen_v2 and gen_v3 get ``reps`` timed runs each and gen_v1 a single one,
used only for its checksum.  r(n) = t1 / t2 where t1 is gen_v3's mean time
and t2 is gen_v2's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from statistics import mean

from .analysis import format_ratio, r1_exact, r2_exact
from .counting import CountContext
from .errors import DomainError, require_at_least
from .generate import ALGORITHMS

_ALGS = {f"v{k}": g for k, g in ALGORITHMS.items()}
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
    algorithm: str
    reps: int
    times_ns: tuple[int, ...]
    checksum: int

    @property
    def mean_ns(self) -> int:
        return round(mean(self.times_ns))


def time_algorithm(n: int, algorithm: str, reps: int) -> BenchRecord:
    """Time one generator: warmup, then reps measured runs."""
    if algorithm not in _ALGS:
        raise DomainError(f"algorithm must be one of {sorted(_ALGS)}, got {algorithm!r}")
    require_at_least(reps, 1, "reps")
    gen = _ALGS[algorithm]
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
            raise RuntimeError(f"nondeterministic checksum for {algorithm} at n={n}")
    if checksum != warm.value:
        raise RuntimeError(f"warmup checksum mismatch for {algorithm} at n={n}")
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

    All three generators must agree on the checksum for every n; that is a
    correctness condition, so a mismatch raises.  The ratios are computed
    first, so an n outside their domain (n < 2) raises `DomainError` before
    any generator is timed.
    """
    if ctx is None:
        ctx = CountContext()
    exact = [(n, r1_exact(n, ctx), r2_exact(n, ctx)) for n in ns]
    rows = []
    for n, r1, r2 in exact:
        rec1 = time_algorithm(n, "v1", 1)
        rec2 = time_algorithm(n, "v2", reps)
        rec3 = time_algorithm(n, "v3", reps)
        if not (rec1.checksum == rec2.checksum == rec3.checksum):
            raise RuntimeError(
                f"checksum mismatch at n={n}: "
                f"v1={rec1.checksum} v2={rec2.checksum} v3={rec3.checksum}")
        rows.append(BenchRow(n=n,
                             t1_ns=rec3.mean_ns,
                             t2_ns=rec2.mean_ns,
                             r=rec3.mean_ns / rec2.mean_ns,
                             r1=r1,
                             r2=r2))
    return rows


def write_bench_csv(rows, fileobj) -> None:
    """CSV with header n,t1_ns,t2_ns,r,r1,r2; times in integer nanoseconds."""
    fileobj.write("n,t1_ns,t2_ns,r,r1,r2\n")
    for row in rows:
        fileobj.write(f"{row.n},{row.t1_ns},{row.t2_ns},"
                      f"{format_ratio(row.r)},{format_ratio(row.r1)},"
                      f"{format_ratio(row.r2)}\n")
