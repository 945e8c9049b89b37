"""Input guards: the exact exception and text at each public entry point, raised in one place."""

import ast
import re
from pathlib import Path

import pytest

import ascpart
from ascpart import (
    ALGORITHMS,
    CapacityError,
    CountContext,
    DomainError,
    build_partition_tree,
    build_strict_tree,
    gen_v1,
    gen_v2,
    gen_v2_counted,
    gen_v3,
    gen_v3_counted,
)
from ascpart.analysis import budget_violations, ratio_table, verify_counts
from ascpart.bench import bench_table, time_algorithm
from ascpart.checks import battery
from ascpart.oracle import brute_compositions, brute_stream, brute_streams
from ascpart.render import render_v3
from ascpart.traversal import inorder_generic, inorder_v1, inorder_v2


def _sink(a, length):
    pass


def _no_generator_runs(call, *args):
    """``call(*args)`` with every `ALGORITHMS` entry failing if it runs."""
    def refuse(n, consumer):
        raise AssertionError("a generator ran before the guard")
    with pytest.MonkeyPatch.context() as patch:
        for alg in ALGORITHMS:
            patch.setitem(ALGORITHMS, alg, refuse)
        return call(*args)


def _ctx(method, *args):
    """Call ``method`` on a fresh context, so no earlier fill can answer it."""
    return lambda: getattr(CountContext(), method)(*args)


# Every case raises before any column fill, list or tree is built.  Where two
# arguments are out of range at once, the message names the one checked first.
GUARDS = [
    # generators
    ("gen_v1", lambda: gen_v1(0, _sink), DomainError, "n must be >= 1, got 0"),
    ("gen_v2", lambda: gen_v2(0, _sink), DomainError, "n must be >= 1, got 0"),
    ("gen_v3", lambda: gen_v3(-4, _sink), DomainError, "n must be >= 1, got -4"),
    ("gen_v2_counted", lambda: gen_v2_counted(1), DomainError, "n must be >= 2, got 1"),
    ("gen_v3_counted", lambda: gen_v3_counted(1), DomainError, "n must be >= 2, got 1"),
    ("render_v3-n", lambda: next(render_v3(0)), DomainError, "n must be >= 1, got 0"),
    ("render_v3-limit", lambda: next(render_v3(4, False, -1)), DomainError,
     "limit must be >= 0, got -1"),
    ("render_v3-n-first", lambda: next(render_v3(0, True, -1)), DomainError,
     "n must be >= 1, got 0"),
    # oracle
    ("brute-n", lambda: brute_compositions(0), DomainError, "n must be >= 1, got 0"),
    ("brute-m", lambda: brute_compositions(5, 0), DomainError,
     "minimum part must be >= 1, got 0"),
    ("brute-m-first", lambda: brute_compositions(0, 0), DomainError,
     "minimum part must be >= 1, got 0"),
    ("brute-cap", lambda: brute_compositions(61), CapacityError,
     "n=61 exceeds the brute-force cap 60"),
    ("brute_stream-n", lambda: brute_stream(0), DomainError, "n must be >= 1, got 0"),
    ("brute_stream-m", lambda: brute_stream(5, 0), DomainError,
     "minimum part must be >= 1, got 0"),
    ("brute_stream-cap", lambda: brute_stream(61), CapacityError,
     "n=61 exceeds the brute-force cap 60"),
    ("brute_streams-cap", lambda: brute_streams(61), CapacityError,
     "n_max=61 exceeds the brute-force cap 60"),
    # trees and traversals
    ("partition_tree-n", lambda: build_partition_tree(0), DomainError, "n must be >= 1, got 0"),
    ("partition_tree-cap", lambda: build_partition_tree(41), CapacityError,
     "n=41 exceeds the materialization cap 40"),
    ("strict_tree-n", lambda: build_strict_tree(0), DomainError, "n must be >= 1, got 0"),
    ("strict_tree-cap", lambda: build_strict_tree(41), CapacityError,
     "n=41 exceeds the materialization cap 40"),
    ("inorder_generic", lambda: inorder_generic(0), DomainError, "n must be >= 1, got 0"),
    ("inorder_v1", lambda: inorder_v1(0), DomainError, "n must be >= 1, got 0"),
    ("inorder_v2", lambda: inorder_v2(-3), DomainError, "n must be >= 1, got -3"),
    # CountContext
    ("ratio_restricted-n", _ctx("ratio_restricted_count", -1, 1, 2), DomainError,
     "n must be >= 0, got -1"),
    ("ratio_restricted-n-first", _ctx("ratio_restricted_count", -1, 0, 0), DomainError,
     "n must be >= 0, got -1"),
    ("ratio_restricted-t", _ctx("ratio_restricted_count", 5, 1, 0), DomainError,
     "ratio factor must be >= 1, got 0"),
    ("ratio_restricted-t-first", _ctx("ratio_restricted_count", 5, 0, 0), DomainError,
     "ratio factor must be >= 1, got 0"),
    ("ratio_restricted-m", _ctx("ratio_restricted_count", 5, 0, 2), DomainError,
     "minimum part must be >= 1, got 0"),
    ("ratio_restricted-m-first", _ctx("ratio_restricted_count", 5001, 0, 2), DomainError,
     "minimum part must be >= 1, got 0"),
    ("ratio_restricted-cap", _ctx("ratio_restricted_count", 5001, 1, 2), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("ratio_count-n", _ctx("ratio_count", -1, 2), DomainError, "n must be >= 0, got -1"),
    ("ratio_count-t", _ctx("ratio_count", 5, 0), DomainError,
     "ratio factor must be >= 1, got 0"),
    ("ratio_count-cap", _ctx("ratio_count", 5001, 3), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("restricted-n", _ctx("restricted_count", -1, 1), DomainError, "n must be >= 0, got -1"),
    ("restricted-m", _ctx("restricted_count", 5, 0), DomainError,
     "minimum part must be >= 1, got 0"),
    ("restricted-m-at-0", _ctx("restricted_count", 0, 0), DomainError,
     "minimum part must be >= 1, got 0"),
    ("restricted-cap", _ctx("restricted_count", 5001, 7), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("partition-n", _ctx("partition_count", -1), DomainError, "n must be >= 0, got -1"),
    ("partition-cap", _ctx("partition_count", 5001), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("via_sum-t", _ctx("ratio_count_via_sum", 15, 3, 0), DomainError,
     "ratio factor must be >= 1, got 0"),
    ("via_sum-m", _ctx("ratio_count_via_sum", 15, 0, 2), DomainError,
     "minimum part must be >= 1, got 0"),
    ("via_sum-cap", _ctx("ratio_count_via_sum", 5001, 1, 2), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("via_sum-domain", _ctx("ratio_count_via_sum", 15, 6, 2), DomainError,
     "need 1 <= m <= n // (t + 1) = 5, got m=6"),
    ("via_reduction-t", _ctx("ratio_count_via_reduction", 15, 3, 0), DomainError,
     "ratio factor must be >= 1, got 0"),
    ("via_reduction-m", _ctx("ratio_count_via_reduction", 15, 0, 2), DomainError,
     "minimum part must be >= 1, got 0"),
    ("via_reduction-cap", _ctx("ratio_count_via_reduction", 5001, 1, 2), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("via_reduction-t1", _ctx("ratio_count_via_reduction", 15, 3, 1), DomainError,
     "need n > t > 1, got n=15, t=1"),
    ("via_reduction-n", _ctx("ratio_count_via_reduction", 3, 1, 3), DomainError,
     "need n > t > 1, got n=3, t=3"),
    ("via_reduction-domain", _ctx("ratio_count_via_reduction", 15, 6, 2), DomainError,
     "need m <= n // (t + 1) = 5, got m=6"),
    ("p2_closed-n", _ctx("p2_closed", -1), DomainError, "n must be >= 0, got -1"),
    ("p2_closed-cap", _ctx("p2_closed", 5001), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("p3_closed-n", _ctx("p3_closed", -1), DomainError, "n must be >= 0, got -1"),
    ("p3_closed-cap", _ctx("p3_closed", 5001), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("check_inequalities-cap", _ctx("check_inequalities", 5001), CapacityError,
     "n_max=5001 exceeds the count cap 5000"),
    ("closed_forms-n", _ctx("closed_forms", -1), DomainError, "n must be >= 0, got -1"),
    ("closed_forms-cap", _ctx("closed_forms", 5001), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    # analysis and bench
    ("verify_counts-alg", lambda: verify_counts(10, CountContext(), 1), DomainError,
     "alg must be one of [2, 3], got 1"),
    ("verify_counts-n", lambda: verify_counts(1, CountContext(), 2), DomainError,
     "n must be >= 2, got 1"),
    ("ratio_table-n_max", lambda: ratio_table(1, CountContext()), DomainError,
     "n_max must be >= 2, got 1"),
    ("ratio_table-cap", lambda: ratio_table(5001, CountContext()), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("budget_violations-cap", lambda: budget_violations(CountContext(), 5001), CapacityError,
     "n=5001 exceeds the count cap 5000"),
    ("time_algorithm-reps", lambda: time_algorithm(10, 2, 0), DomainError,
     "reps must be >= 1, got 0"),
    ("time_algorithm-alg", lambda: time_algorithm(10, 9, 1), DomainError,
     "algorithm must be one of [1, 2, 3], got 9"),
    ("bench_table-reps", lambda: _no_generator_runs(bench_table, [50], 0), DomainError,
     "reps must be >= 1, got 0"),
    ("bench_table-visits", lambda: _no_generator_runs(bench_table, [130], 1), CapacityError,
     "visits=32227892400 exceeds the visit cap 1000000000"),
    # checks
    ("battery-max_n", lambda: next(battery(CountContext(), 1)), DomainError,
     "max_n must be >= 2, got 1"),
    ("battery-visits", lambda: next(battery(CountContext(), 91)), CapacityError,
     "visits=1059569812 exceeds the visit cap 1000000000"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in GUARDS],
                         ids=[case[0] for case in GUARDS])
def test_guard_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is error


def _guard_raises(tree):
    """(exception name, source) of each ``raise`` of a CapacityError, or of any
    exception whose message holds ">=", "must be one of", "more than" or
    "exceeds", argparse's ArgumentTypeError included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            source = ast.unparse(node)
            if name == "CapacityError" or any(
                    text in source for text in (">=", "must be one of", "more than", "exceeds")):
                yield name, source


def test_bounds_and_caps_are_raised_only_in_errors():
    # every lower bound, size cap (the visit cap included) and set of choices
    # goes through errors.require_at_least, require_within and require_one_of,
    # so their messages keep one format, and the CLI states none of them again
    package = Path(ascpart.__file__).parent
    found = {path.name: list(_guard_raises(ast.parse(path.read_text())))
             for path in sorted(package.glob("*.py"))}
    in_errors = found.pop("errors.py")
    assert {module: raises for module, raises in found.items() if raises} == {}
    assert sorted(name for name, _ in in_errors) == ["CapacityError", "DomainError",
                                                     "DomainError"]
