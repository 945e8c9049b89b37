"""Cost ratios, their formatting, and instrumented-count verification."""

from fractions import Fraction

import pytest

from ascpart import (
    ALGORITHMS,
    COUNTED,
    DEFAULT_CAP,
    budget_violations,
    format_ratio,
    r1_exact,
    r2_exact,
    ratio_csv,
    ratio_table,
    verify_counts,
    verify_v2_counts,
    verify_v3_counts,
)
from ascpart.analysis import _predicted

# Frozen 5-decimal reference ratios at selected n (last digit may be
# truncated rather than rounded, hence the 2e-5 tolerance used throughout).
REFERENCE_RATIOS = {
    20: (0.89556, 0.82113),
    30: (0.88738, 0.79381),
    40: (0.88467, 0.77992),
    50: (0.88403, 0.77197),
    60: (0.88438, 0.76731),
    70: (0.88525, 0.76465),
    80: (0.88639, 0.76326),
    90: (0.88766, 0.76271),
    100: (0.88901, 0.76274),
    110: (0.89037, 0.76319),
    120: (0.89174, 0.76392),
    130: (0.89308, 0.76485),
}


def test_ratio_worked_values(ctx):
    assert abs(float(r1_exact(20, ctx)) - 0.89556) < 2e-5
    assert abs(float(r2_exact(20, ctx)) - 0.82113) < 2e-5
    assert abs(float(r1_exact(130, ctx)) - 0.89308) < 2e-5


def test_ratios_are_exact_rationals(ctx):
    assert r1_exact(20, ctx) == Fraction(3113, 3476)
    assert r2_exact(20, ctx) == Fraction(1111, 1353)
    assert r2_exact(5, ctx) == 1  # both operation counts coincide at n = 5


def test_reference_table(ctx):
    for n, (want1, want2) in REFERENCE_RATIOS.items():
        assert abs(float(r1_exact(n, ctx)) - want1) < 2e-5, n
        assert abs(float(r2_exact(n, ctx)) - want2) < 2e-5, n


def test_format_ratio():
    assert format_ratio(1, 3) == "0.33333"
    assert format_ratio(2, 3) == "0.66667"
    assert format_ratio(1, 1) == "1.00000"
    assert format_ratio(1, 2) == "0.50000"
    assert format_ratio(13, 12) == "1.08333"
    # exact at any size: to 50 significant digits the second reads as the tie
    big = 200000 * 10**300
    assert format_ratio(10**300 + 1, 3 * 10**300) == "0.33333"
    assert format_ratio(24689 * 10**300 + 1, big) == "0.12345"
    # ties go to even in the fifth decimal, down and up
    assert format_ratio(1, 200000) == "0.00000"
    assert format_ratio(3, 200000) == "0.00002"
    assert format_ratio(24691, 200000) == "0.12346"
    assert format_ratio(24689, 200000) == "0.12344"
    assert format_ratio(24691 * 10**300, big) == "0.12346"


def test_verify_counts(ctx):
    for n in (2, 6, 20, 60):
        for alg in COUNTED:
            check = verify_counts(n, ctx, alg)
            assert check.passed, check
            assert check.actual_visits == check.expected_visits == ctx.partition_count(n)
    check = verify_counts(20, ctx, 2)
    assert check.actual_assignments == 3476
    assert check.actual_bool_evals == 1353
    assert check.algorithm == 2
    # the names the benchmark imports give the same records
    assert verify_v2_counts(20, ctx) == check
    assert verify_v3_counts(20, ctx) == verify_counts(20, ctx, 3)


def test_predicted_counts_are_keyed_like_the_counted_generators(ctx):
    for n in (2, 20):
        assert _predicted(n, ctx).keys() == COUNTED.keys()
    assert COUNTED.keys() <= ALGORITHMS.keys()


def test_ratio_table_scan(ctx):
    scan = ratio_table(150, ctx)
    assert [rec.n for rec in scan.records] == list(range(2, 151))
    # gen_v3 is not cheaper at n = 2, and ties on bool evals at n = 5
    assert scan.range_violations == [2, 5]
    assert 50 <= scan.argmin_r2 <= 150
    by_n = {rec.n: rec for rec in scan.records}
    assert by_n[20].r1 == pytest.approx(float(Fraction(3113, 3476)))


def test_ratio_table_is_exact(ctx):
    # ratio_table compares integer counts; here every value is checked against
    # the Fractions, and the argmins and the range test are redone with them
    scan = ratio_table(DEFAULT_CAP, ctx)
    exact = {n: (r1_exact(n, ctx), r2_exact(n, ctx)) for n in range(2, DEFAULT_CAP + 1)}
    assert [(rec.n, rec.r1, rec.r2) for rec in scan.records] == [
        (n, float(f1), float(f2)) for n, (f1, f2) in exact.items()]
    # min keeps the first n on ties, as the scan does
    assert scan.argmin_r1 == min(exact, key=lambda n: exact[n][0])
    assert scan.argmin_r2 == min(exact, key=lambda n: exact[n][1])
    assert scan.range_violations == [n for n, ratios in exact.items()
                                     if not all(0 < f < 1 for f in ratios)]


def test_budget_violations(ctx):
    # 4 * triple-ratio <= 3 * double-ratio fails exactly at n = 2
    assert budget_violations(ctx, 300) == [2]


def test_write_ratio_csv(ctx):
    lines = "".join(ratio_csv(6, ctx)).splitlines()
    assert lines[0] == "n,r1,r2"
    assert len(lines) == 6
    assert lines[1] == "2,1.08333,1.20000"
    n, one, two = lines[-1].split(",")
    assert n == "6"
    assert one == format_ratio(*r1_exact(6, ctx).as_integer_ratio())
    assert two == format_ratio(*r2_exact(6, ctx).as_integer_ratio())


def test_ratio_csv_rounds_as_the_exact_ratios(ctx):
    # format_ratio rounds the integer counts; the reference rounds each exact
    # Fraction the way perfbench/reference.py does, up to the cap
    def five_decimals(value):
        scaled = round(value * 100000)  # Fraction rounds half to even
        return f"{scaled // 100000}.{scaled % 100000:05d}"

    assert "".join(ratio_csv(DEFAULT_CAP, ctx)).splitlines() == ["n,r1,r2"] + [
        f"{n},{five_decimals(r1_exact(n, ctx))},{five_decimals(r2_exact(n, ctx))}"
        for n in range(2, DEFAULT_CAP + 1)]
