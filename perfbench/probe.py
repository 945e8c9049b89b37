"""The parts of the benchmark that run ascpart in-process.

run.py starts this file as a child process, with ``src`` on PYTHONPATH, and
reads one JSON object from its standard output.  Modes:

    probe.py enumerate N GENERATOR
        One pass: stream every composition of N through GENERATOR (gen_v1,
        gen_v2 or gen_v3) into a no-op consumer; report the pass's CPU time
        and count and the process's peak RSS.

    probe.py check DIGEST_N COUNTED_N
        Untimed: each generator's digest at DIGEST_N, and the tallies of
        gen_v2_counted and gen_v3_counted at COUNTED_N.

    probe.py trace TRACE_PATH COUNTER_PATH
        Call each layer's public functions with a span around every call,
        write the spans to TRACE_PATH, and report the per-layer metrics
        and the checks made on the way.  A yardstick pinned to the same CPU
        writes its running totals to COUNTER_PATH (see yardstick.py).

Expected values come from `reference`, never from ascpart.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
import tracemalloc

import reference
import yardstick

GENERATORS = ("gen_v1", "gen_v2", "gen_v3")


def _noop(a, length):
    pass


def _peak_rss_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


# Each mode imports ascpart itself, so that a pass of `enumerate` loads
# only the package, as ``import ascpart`` does, and not the CLI.
def enumerate_main(n, name):
    import ascpart

    gen = getattr(ascpart, name)
    t0 = time.process_time_ns()
    count = gen(n, _noop)
    return {"cpu_ns": time.process_time_ns() - t0, "count": count,
            "peak_rss_kb": _peak_rss_kb()}


def check_main(digest_n, counted_n):
    import ascpart

    digests = {}
    for name in GENERATORS:
        digest = reference.CompositionDigest()
        getattr(ascpart, name)(digest_n, digest)
        digests[name] = [digest.count, digest.hexdigest()]
    tallies = {}
    for name, counted in (("v2", ascpart.gen_v2_counted), ("v3", ascpart.gen_v3_counted)):
        ops = counted(counted_n)
        tallies[name] = [ops.assignments, ops.bool_evals, ops.visits]
    return {"digests": digests, "tallies": tallies}


class Tracer:
    """Spans kept in memory: name, parent span id, counts, and at each end the
    wall clock, the process's CPU time and the yardstick's running totals.

    A span's duration is its CPU time in reference ns (see yardstick.py),
    scaled by the yardstick's speed over the span.  A span too short for
    MIN_SPAN_UNITS yardstick units is scaled by the speed over the whole run.
    """

    MIN_SPAN_UNITS = 20

    def __init__(self, counter, enabled=True):
        self.counter = counter
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._first = counter.read()

    @contextlib.contextmanager
    def span(self, name, **counts):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None, **counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["yardstick_start"] = self.counter.read()
        record["start_ns"] = time.perf_counter_ns()
        record["start_cpu_ns"] = time.process_time_ns()
        try:
            yield
        finally:
            record["end_cpu_ns"] = time.process_time_ns()
            record["end_ns"] = time.perf_counter_ns()
            record["yardstick_end"] = self.counter.read()
            self._stack.pop()

    def _units_per_s(self, start, end):
        return (end[0] - start[0]) / (end[1] - start[1])

    def duration_ns(self, span):
        start, end = span["yardstick_start"], span["yardstick_end"]
        if end[0] - start[0] < self.MIN_SPAN_UNITS:
            start, end = self._first, self.counter.read()
        return ((span["end_cpu_ns"] - span["start_cpu_ns"]) * self._units_per_s(start, end)
                / yardstick.REF_UNITS_PER_S)

    def durations(self, name):
        return [self.duration_ns(s) for s in self.spans if s["name"] == name]

    def total_s(self, name):
        return sum(self.durations(name)) / 1e9

    def self_s(self, name):
        """Summed duration of the named spans less the time their children cover."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        child = sum(self.duration_ns(s) for s in self.spans if s["parent"] in ids)
        return self.total_s(name) - child / 1e9

    def median_ns(self, name):
        return statistics.median(self.durations(name))


class Checks:
    """Named pass/fail results; each is one operation of the traced run."""

    def __init__(self):
        self.faults = []
        self.attempted = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.faults.append(what)


# Sizes of the traced run.  GEN_N keeps one cli.generate call near a second;
# MEM_N keeps the tracemalloc fill (about 20x slower than a plain one) short.
GEN_N = 50
GEN_REPS = 5
CLI_REPS = 3
FILL_N = 5000
MEM_N = 1500
RATIO_MAX_N = 3000
LOOKUP_REPS = 5
VERIFY_MAX_N = 60  # ascpart verify's default; the group ranges below follow it


def _verify_groups(tracer, checks, p):
    """The groups of ``ascpart verify`` over the same public calls and ranges."""
    from ascpart import (ALGORITHMS, CountContext, brute_compositions, build_partition_tree,
                         build_strict_tree, verify_v2_counts, verify_v3_counts)

    ctx = CountContext()
    with tracer.span("generate.oracle_check"):
        for n in range(1, min(VERIFY_MAX_N, 45) + 1):
            with tracer.span("oracle.brute_compositions", n=n):
                expected = brute_compositions(n)
            checks.expect(len(expected) == p[n], f"oracle count at n={n}")
            for alg, gen in sorted(ALGORITHMS.items()):
                it = iter(expected)
                same = True

                def consumer(a, length):
                    nonlocal same
                    same = same and tuple(a[1:length + 1]) == next(it, None)

                emitted = gen(n, consumer)
                checks.expect(same and emitted == len(expected), f"alg {alg} vs oracle at n={n}")

    with tracer.span("counting.cross_paths"):
        for n in range(1, min(VERIFY_MAX_N, 60) + 1):
            for t in (1, 2, 3, 4):
                for m in range(1, n // (t + 1) + 1):
                    want = ctx.ratio_restricted_count(n, m, t)
                    ok = ctx.ratio_count_via_sum(n, m, t) == want
                    if t > 1:
                        ok = ok and ctx.ratio_count_via_reduction(n, m, t) == want
                    checks.expect(ok, f"counting paths at ({n},{m},{t})")
            checks.expect(ctx.p2_closed(n) == ctx.ratio_count(n, 2) == reference.double_ratio(p, n)
                          and ctx.p3_closed(n) == ctx.ratio_count(n, 3)
                          == reference.triple_ratio(p, n), f"closed forms at n={n}")

    with tracer.span("analysis.verify_counts"):
        for n in range(2, VERIFY_MAX_N + 1):
            predicted = reference.op_counts(p, n)
            for name, check in (("v2", verify_v2_counts(n, ctx)), ("v3", verify_v3_counts(n, ctx))):
                checks.expect(check.passed and (check.expected_assignments, check.expected_bool_evals)
                              == predicted[name], f"{name} counts at n={n}")

    with tracer.span("ptree.build"):
        for n in range(1, min(VERIFY_MAX_N, 25) + 1):
            pt = build_partition_tree(n)
            bt = build_strict_tree(n)
            checks.expect((pt.node_count, pt.leaf_count, bt.node_count, bt.leaf_count)
                          == (2 * p[n], p[n], 2 * p[n] - 1, p[n]), f"trees of {n}")

    with tracer.span("counting.check_inequalities"):
        report = ctx.check_inequalities(1000)
    checks.expect(report.ok and report.growth_equalities == [1, 2, 3, 4, 5, 6], "inequalities")


def trace_main(trace_path, counter_path):
    from ascpart import (CountContext, gen_v1, gen_v2, gen_v2_counted, gen_v3, gen_v3_counted,
                         ratio_table, verify_v2_counts, verify_v3_counts)
    from ascpart.cli import main as cli_main

    p = reference.partition_numbers(FILL_N)
    counter = yardstick.Counter(counter_path)
    tracer = Tracer(counter)
    checks = Checks()
    metrics = {}
    out_dir = os.path.dirname(trace_path)

    # Generator loops into a no-op consumer.
    gens = {"gen_v1": gen_v1, "gen_v2": gen_v2, "gen_v3": gen_v3}
    for _ in range(GEN_REPS):
        for name, gen in gens.items():
            with tracer.span(f"generate.{name}", n=GEN_N):
                emitted = gen(GEN_N, _noop)
            checks.expect(emitted == p[GEN_N], f"{name} count")
    for name in gens:
        metrics[f"generate.{name}.ns_per_item"] = tracer.median_ns(f"generate.{name}") / p[GEN_N]

    # Exact tallies, and time per operation the paper predicts.
    ctx = CountContext()
    predicted = reference.op_counts(p, GEN_N)
    for name, counted, verify in (("v2", gen_v2_counted, verify_v2_counts),
                                  ("v3", gen_v3_counted, verify_v3_counts)):
        with tracer.span(f"generate.gen_{name}_counted", n=GEN_N):
            ops = counted(GEN_N)
        with tracer.span(f"analysis.verify_{name}_counts", n=GEN_N):
            check = verify(GEN_N, ctx)
        expected = (check.expected_assignments, check.expected_bool_evals)
        checks.expect((ops.assignments, ops.bool_evals) == expected == predicted[name]
                      and ops.visits == p[GEN_N], f"gen_{name}_counted tallies")
        loop_ns = tracer.median_ns(f"generate.gen_{name}")
        metrics[f"generate.gen_{name}.assignments"] = ops.assignments
        metrics[f"generate.gen_{name}.bool_evals"] = ops.bool_evals
        metrics[f"generate.gen_{name}.ns_per_assignment"] = loop_ns / expected[0]
        metrics[f"generate.gen_{name}.ns_per_bool_eval"] = loop_ns / expected[1]

    # cli.main in-process, standard output sent to a file.
    for label, extra in (("generate", []), ("generate_descending", ["--descending"])):
        path = os.path.join(out_dir, f"trace-{label}.txt")
        for _ in range(CLI_REPS):
            with open(path, "w", encoding="ascii") as fh, contextlib.redirect_stdout(fh):
                with tracer.span(f"cli.{label}", n=GEN_N, items=p[GEN_N]):
                    code = cli_main(["generate", str(GEN_N), *extra])
            checks.expect(code == 0, f"cli {label} exit code")
        fault = reference.LineChecker(GEN_N, bool(extra)).check_file(path, p[GEN_N])
        checks.expect(fault is None, f"cli {label} output: {fault}")
        metrics[f"cli.{label}.ns_per_item"] = tracer.median_ns(f"cli.{label}") / p[GEN_N]
        if not extra:
            metrics["cli.bytes_per_item"] = os.path.getsize(path) / p[GEN_N]
        os.remove(path)
    metrics["cli.render.ns_per_item"] = (metrics["cli.generate.ns_per_item"]
                                         - metrics["generate.gen_v3.ns_per_item"])

    # CountContext table fills, lookups on a filled table, and ratio_table.
    ctx = CountContext()
    with tracer.span("counting.fill.t1", n=FILL_N):
        value = ctx.partition_count(FILL_N)
    checks.expect(value == p[FILL_N], "p(FILL_N)")
    with tracer.span("counting.fill.t3", n=FILL_N):
        value = ctx.ratio_count(FILL_N, 3)
    checks.expect(value == reference.triple_ratio(p, FILL_N), "triple ratio at FILL_N")
    entries_t1 = sum(k // 2 for k in range(1, FILL_N + 1))  # count(1, k, m) for m <= k // 2
    metrics["counting.fill_s.t1"] = tracer.total_s("counting.fill.t1")
    metrics["counting.fill_s.t3"] = tracer.total_s("counting.fill.t3")
    metrics["counting.entries.t1"] = entries_t1
    metrics["counting.ns_per_entry"] = metrics["counting.fill_s.t1"] * 1e9 / entries_t1
    for _ in range(LOOKUP_REPS):
        with tracer.span("counting.lookup_sweep", lookups=FILL_N):
            ok = all(ctx.partition_count(k) == p[k] for k in range(1, FILL_N + 1))
        checks.expect(ok, "warm lookups")
    metrics["counting.lookup_ns"] = tracer.median_ns("counting.lookup_sweep") / FILL_N
    with tracer.span("analysis.ratio_table", n=RATIO_MAX_N):
        scan = ratio_table(RATIO_MAX_N, ctx)
    checks.expect(len(scan.records) == RATIO_MAX_N - 1, "ratio_table rows")
    metrics["analysis.ratio_table_s"] = tracer.total_s("analysis.ratio_table")
    del ctx
    mem_ctx = CountContext()
    tracemalloc.start()
    try:
        with tracer.span("counting.fill_traced_memory.t1", n=MEM_N):
            mem_ctx.partition_count(MEM_N)
        metrics["counting.table_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    del mem_ctx

    _verify_groups(tracer, checks, p)
    for name in ("analysis.verify_counts", "counting.cross_paths", "ptree.build",
                 "counting.check_inequalities"):
        metrics[f"{name}_s"] = tracer.total_s(name)
    metrics["oracle.brute_compositions_s"] = tracer.total_s("oracle.brute_compositions")
    metrics["generate.oracle_check_s"] = tracer.self_s("generate.oracle_check")
    metrics["trace.overhead_s"] = _span_cost_s(counter) * len(tracer.spans)

    with open(trace_path, "w", encoding="ascii") as fh:
        json.dump({"spans": tracer.spans, "metrics": metrics}, fh)
    return {"metrics": metrics, "attempted": checks.attempted, "faults": checks.faults}


def _span_cost_s(counter, reps=20000):
    """What one span adds: an empty body, traced minus untraced, fastest of 5."""
    costs = {}
    for enabled in (True, False) * 5:
        tracer = Tracer(counter, enabled)
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            with tracer.span("empty"):
                pass
        per_span = (time.perf_counter_ns() - t0) / reps
        costs[enabled] = min(costs.get(enabled, per_span), per_span)
    return (costs[True] - costs[False]) / 1e9


if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    if mode == "enumerate":
        result = enumerate_main(int(args[0]), args[1])
    elif mode == "check":
        result = check_main(int(args[0]), int(args[1]))
    elif mode == "trace":
        result = trace_main(args[0], args[1])
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(result))
