"""The self-verification battery: the paper's exact claims as named checks.

Each check is a function ``check(ctx, n_max) -> CheckResult`` that sweeps
its claim up to ``n_max`` (unused by `worked_examples`) and names the first
counterexamples in ``detail``.  `battery` runs the six at the ranges of
``ascpart verify``; the acceptance tests call the same functions at theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import length_hint

from .analysis import verify_counts
from .counting import _fill_column
from .errors import require_at_least, require_within
from .generate import ALGORITHMS, COUNTED, VISIT_CAP
from .oracle import brute_encoded
from .ptree import build_partition_tree, build_strict_tree


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name, bad):
    return CheckResult(name, not bad, "; ".join(bad[:3]))


def worked_examples(ctx, n_max):
    """Known exact values."""
    examples = [
        (ctx.partition_count(5), 7, "p(5)"),
        (ctx.ratio_restricted_count(15, 3, 2), 7, "double-ratio(15, 3)"),
        (ctx.ratio_restricted_count(15, 3, 3), 3, "triple-ratio(15, 3)"),
        (ctx.ratio_count(5, 2), 4, "double-ratio(5)"),
        (ctx.ratio_count(5, 3), 3, "triple-ratio(5)"),
    ]
    return _result("worked examples",
                   [f"{name}={got}, want {want}" for got, want, name in examples if got != want])


def _oracle_divergence(n, ctx):
    """Where the first generator to differ from the oracle at n does, or None.

    A function of its own, so that one oracle list is alive at a time: the
    list for n = 45, 4.7 MiB live as ``bytes``, is what sets the battery's
    peak memory.  Each item is compared as a list of ints, which no part a
    faulty generator writes can make raise.
    """
    expected = brute_encoded(n)
    if len(expected) != ctx.partition_count(n):
        return f"oracle at n={n}: {len(expected)} compositions, p(n) = {ctx.partition_count(n)}"
    for alg, gen in sorted(ALGORITHMS.items()):
        it = iter(expected)
        first_bad = []

        def consumer(a, length):
            want = next(it, None)  # None once the oracle is exhausted
            if (want is None or a[1:length + 1] != [*want]) and not first_bad:
                index = len(expected) - length_hint(it) - (want is not None)
                first_bad.append(f"alg {alg}, n={n}: composition #{index} is "
                                 f"{tuple(a[1:length + 1])}, want {want and tuple(want)}")

        count = gen(n, consumer)
        if first_bad:
            return first_bad[0]
        emitted = len(expected) - length_hint(it)
        if emitted != len(expected) or count != len(expected):
            return (f"alg {alg}, n={n}: {emitted} compositions emitted, "
                    f"{count} returned, expected {len(expected)}")
    return None


def generation(ctx, n_max):
    """Every generator's stream is the oracle's list, in order, with its count."""
    name = f"generation vs brute force (n <= {n_max})"
    for n in range(1, n_max + 1):
        detail = _oracle_divergence(n, ctx)
        if detail:
            return CheckResult(name, False, detail)
    return CheckResult(name, True)


def cross_paths(ctx, n_max):
    """Euler's p, the closed forms, the served count and its other paths match the recurrence.

    Each (t, m) column of the recurrence is filled here to ``n_max``, so that
    it holds count(t, n, m) at every n <= n_max, and dropped before the next.
    ``ratio_restricted_count`` may answer by the product form, and serves the
    rest from the context's cached columns, so neither can give the reference.
    The range form ``closed_forms(n_max)`` is compared with the (1, 1), (2, 1)
    and (3, 1) columns at every n, beside the per-n entry points.
    """
    entry_points = {1: (ctx.partition_count, "pentagonal p({n}) vs p({n}, 1)"),
                    2: (ctx.p2_closed, "closed form t=2 at n={n}"),
                    3: (ctx.p3_closed, "closed form t=3 at n={n}")}
    series = dict(zip(entry_points, ctx.closed_forms(n_max)))
    paths = [("served count", ctx.ratio_restricted_count), ("product path", ctx._product_count),
             ("sum path", ctx.ratio_count_via_sum),
             ("reduction path", ctx.ratio_count_via_reduction)]
    bad = []
    for t in (1, 2, 3, 4):
        for m in range(1, max(n_max // (t + 1), 1) + 1):
            col = _fill_column(t, m, n_max)
            if m == 1 and t in series:
                bad += [f"closed-form series t={t} at n={n}"
                        for n, (got, want) in enumerate(zip_longest(series[t], col))
                        if got != want]
            for n in range(1, n_max + 1):
                if m == 1 and t in entry_points and entry_points[t][0](n) != col[n]:
                    bad.append(entry_points[t][1].format(n=n))
                if m <= n // (t + 1):  # the reduction path needs t > 1
                    bad += [f"{name} at ({n},{m},{t})" for name, path in paths[:3 + (t > 1)]
                            if path(n, m, t) != col[n]]
    return _result(f"counting cross-paths (n <= {n_max})", bad)


def op_counts(ctx, n_max):
    """Each counted generator executes exactly the predicted operations and p(n) visits."""
    bad = [f"v{check.algorithm} at n={n}: assignments {check.actual_assignments} vs "
           f"{check.expected_assignments}, bool evals {check.actual_bool_evals} vs "
           f"{check.expected_bool_evals}, visits {check.actual_visits} vs "
           f"{check.expected_visits}"
           for n in range(2, n_max + 1)
           for check in (verify_counts(n, ctx, alg) for alg in COUNTED)
           if not check.passed]
    return _result(f"instrumented operation counts (2 <= n <= {n_max})", bad)


def trees(ctx, n_max):
    """The trees have 2p(n) and 2p(n) - 1 nodes, and p(n) leaves."""
    bad = []
    for n in range(1, n_max + 1):
        p = ctx.partition_count(n)
        pt = build_partition_tree(n)
        bt = build_strict_tree(n)
        if (pt.node_count, pt.leaf_count) != (2 * p, p):
            bad.append(f"partition tree of {n}")
        if (bt.node_count, bt.leaf_count) != (2 * p - 1, p):
            bad.append(f"binary tree of {n}")
    return _result(f"tree identities (n <= {n_max})", bad)


def inequalities(ctx, n_max):
    """The growth bound, with equality exactly for n <= 6, and the dominance."""
    ineq = ctx.check_inequalities(n_max)
    ok = ineq.ok and ineq.growth_equalities == list(range(1, min(n_max, 6) + 1))
    return CheckResult(f"inequalities (n <= {n_max})", ok,
                       "" if ok else f"violations {ineq.growth_violations[:3]} "
                                     f"{ineq.dominance_violations[:3]}, "
                                     f"equalities {ineq.growth_equalities[:8]}")


def battery(ctx, max_n):
    """Yield the six results in order, each as soon as its check is done.

    Generation stops at 45, cross-paths at 60 and trees at 25, whatever
    ``max_n``; the inequalities always run to 1000.  ``max_n`` must be at
    least 2, so that the operation-count sweep 2 <= n <= max_n is not empty,
    and that sweep, len(COUNTED) * p(n) visits for each n, may visit at most
    `generate.VISIT_CAP` compositions in all.  Both are checked before the
    first result.
    """
    require_at_least(max_n, 2, "max_n")
    # the sum stops once past the cap, before p(n) could pass the count cap
    visits = 0
    for n in range(2, max_n + 1):
        visits += len(COUNTED) * ctx.partition_count(n)
        if visits > VISIT_CAP:
            break
    require_within(visits, VISIT_CAP, "visit", "visits")
    yield worked_examples(ctx, max_n)
    yield generation(ctx, min(max_n, 45))
    yield cross_paths(ctx, min(max_n, 60))
    yield op_counts(ctx, max_n)
    yield trees(ctx, min(max_n, 25))
    yield inequalities(ctx, 1000)
