"""Benchmark harness: record shape, checksum agreement, CSV format."""

import io
from statistics import mean

import pytest

from ascpart import (
    ALGORITHMS,
    DomainError,
    bench_table,
    r1_exact,
    r2_exact,
    time_algorithm,
    write_bench_csv,
)
from ascpart import bench
from ascpart.bench import _Checksum


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
        assert row.r1 == r1_exact(row.n, ctx)
        assert row.r2 == r2_exact(row.n, ctx)


def test_bench_csv_format(ctx):
    buf = io.StringIO()
    write_bench_csv(bench_table([10], reps=2, ctx=ctx), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,t1_ns,t2_ns,r,r1,r2"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "10"
    int(fields[1]), int(fields[2])  # durations are integer nanoseconds
    for ratio in fields[3:]:
        whole, _, frac = ratio.partition(".")
        assert len(frac) == 5
        float(ratio)


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
