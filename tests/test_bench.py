"""Benchmark harness: record shape, checksum agreement, CSV format."""

import io
from fractions import Fraction
from statistics import mean

import pytest

from ascpart import (
    ALGORITHMS,
    CapacityError,
    DomainError,
    bench_table,
    time_algorithm,
    write_bench_csv,
)
from ascpart import bench
from ascpart.bench import _Checksum

from test_analysis import predicted_pairs


def test_record_shape():
    rec = time_algorithm(20, 2, 5)
    assert rec.reps == 5
    assert len(rec.times_ns) == 5
    assert all(t > 0 for t in rec.times_ns)
    assert rec.mean_ns == round(mean(rec.times_ns))


def test_checksums_agree_across_algorithms():
    recs = [time_algorithm(20, alg, 1) for alg in ALGORITHMS]
    assert len({rec.checksum for rec in recs}) == 1
    assert recs[0].checksum > 0


def test_checksum_is_order_sensitive():
    def checksum(stream):
        acc = _Checksum()
        for parts in stream:
            acc([0, *parts], len(parts))
        return acc.value

    stream = [(1, 1, 2), (1, 3), (2, 2)]
    assert checksum(stream) != checksum([(1, 3), (1, 1, 2), (2, 2)])
    assert checksum(stream) != checksum([(1, 2, 1), (1, 3), (2, 2)])


def test_checksum_stable_across_runs():
    a = time_algorithm(15, 3, 3)
    b = time_algorithm(15, 3, 2)
    assert a.checksum == b.checksum


def test_bench_table(ctx):
    rows = bench_table([8, 12], reps=2, ctx=ctx)
    assert [row.n for row in rows] == [8, 12]
    for row in rows:
        assert row.t1_ns > 0 and row.t2_ns > 0
        assert row.r == pytest.approx(row.t1_ns / row.t2_ns)
        assert (row.r1, row.r2) == predicted_pairs(row.n, ctx)


def test_bench_csv_format(ctx):
    buf = io.StringIO()
    rows = bench_table([10, 12], reps=2, ctx=ctx)
    write_bench_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,t1_ns,t2_ns,r,r1,r2"
    assert len(lines) == 3
    for row, line in zip(rows, lines[1:]):
        fields = line.split(",")
        assert fields[:3] == [str(row.n), str(row.t1_ns), str(row.t2_ns)]
        for ratio in fields[3:]:
            whole, _, frac = ratio.partition(".")
            assert len(frac) == 5
            float(ratio)
        # r is the recorded times' exact ratio, rounded half to even
        scaled = round(Fraction(row.t1_ns, row.t2_ns) * 100000)
        assert fields[3] == f"{scaled // 100000}.{scaled % 100000:05d}"


def test_empty_table_is_header_only():
    buf = io.StringIO()
    write_bench_csv(bench_table([], reps=3), buf)
    assert buf.getvalue() == "n,t1_ns,t2_ns,r,r1,r2\n"


def test_bench_table_checks_every_n_before_timing(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "time_algorithm", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="got 1"):
        bench_table([5, 1], reps=1)
    assert calls == []


def test_bench_guard_is_the_visits_bench_makes(monkeypatch, ctx):
    # bench_table's guard is every visit that the ALGORITHMS entries make:
    # a table runs at a cap of exactly that many, and not one below it
    visits = 0

    def counting(gen):
        def wrapped(n, consumer):
            def visit(a, length):
                nonlocal visits
                visits += 1
                consumer(a, length)
            return gen(n, visit)
        return wrapped

    for alg, gen in list(ALGORITHMS.items()):
        monkeypatch.setitem(ALGORITHMS, alg, counting(gen))
    bench_table([8, 10], reps=2, ctx=ctx)
    made = visits
    p = ctx.partition_count(8) + ctx.partition_count(10)
    assert made == p * 2 * (len(ALGORITHMS) - 1 + 2)  # the bench protocol at reps = 2
    # bench imports generate's VISIT_CAP, so bench.VISIT_CAP is the cap it reads
    monkeypatch.setattr(bench, "VISIT_CAP", made)
    bench_table([8, 10], reps=2, ctx=ctx)
    assert visits == 2 * made
    monkeypatch.setattr(bench, "VISIT_CAP", made - 1)
    with pytest.raises(CapacityError, match=f"^visits={made} exceeds the visit cap {made - 1}$"):
        bench_table([8, 10], reps=2, ctx=ctx)
    assert visits == 2 * made  # refused before any run


def _drifting():
    """A generator whose stream gains one composition, (n,), per call."""
    calls = []

    def gen(n, consumer):
        calls.append(n)
        for _ in calls:
            consumer([0, n], 1)
    return gen


@pytest.mark.parametrize("reps, message", [
    (2, "nondeterministic checksum for v1 at n=5"),  # the timed runs differ
    (1, "warmup checksum mismatch for v1 at n=5"),  # the one timed run differs from the warmup
], ids=["nondeterministic", "warmup"])
def test_time_algorithm_refuses_a_changing_stream(monkeypatch, reps, message):
    monkeypatch.setitem(ALGORITHMS, 1, _drifting())
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        time_algorithm(5, 1, reps)


def test_bench_table_refuses_generators_that_disagree(monkeypatch, ctx):
    # a deterministic stream, (n,) alone, that is not the other generators'
    seen = []

    def single(n, consumer):
        seen.append(n)
        consumer([0, n], 1)

    monkeypatch.setitem(ALGORITHMS, 1, single)
    with pytest.raises(RuntimeError, match=r"^checksum mismatch at n=8: v1=\d+ v2=\d+ v3=\d+$"):
        bench_table([8, 10], reps=2, ctx=ctx)
    assert seen == [8, 8]  # its warmup and one timed run; n = 10 never ran
