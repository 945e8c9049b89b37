"""Benchmark for ascpart: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload enumerate|render|count|verify
                             --seed S --seconds T --trace 0|1

Run from the root of a source checkout; ascpart is imported from ``src``.
Each workload repeats whole rounds of the same operations for about T
seconds.  Inputs are fixed; the seed only rotates the order of the
operations within a round.  Every output is checked against `reference`,
which does not use ascpart; a mismatch counts as a failed operation.

``--trace 0`` prints the end-to-end metrics wall_s, items_per_s, setup_s and
peak_rss_mb.  ``--trace 1`` instead runs probe.py's traced pass over every
layer, writes its spans to .perfbench_out/, and prints the per-layer metrics.
The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import reference
import yardstick

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PROBE = str(ROOT / "perfbench" / "probe.py")
YARDSTICK = str(ROOT / "perfbench" / "yardstick.py")

ENUM_N = 65          # p(65) = 2,012,558 compositions per generator pass
DIGEST_N = 45        # untimed digest pass per generator
COUNTED_N = 50       # untimed gen_*_counted tallies
RENDER_N = 50        # ascpart generate 50: 204,226 lines per order
COUNT_N = 5000       # DEFAULT_CAP
RATIOS_MAX_N = 3000
VERIFY_MAX_N = 60    # ascpart verify's default
SETUP_SAMPLES = 15
SETUP_PER_ROUND = 2
MIN_ROUNDS = 3
MIN_YARDSTICK_UNITS = 50

# ``ascpart ARGS`` as the console script runs it, plus one step at exit: the
# process writes its own peak RSS (VmHWM, in kB) to the file named first.
# The kernel's rusage figure for a child would not do: it starts from the
# parent's peak, which exceeds that of a small child.
CLI = """import sys
rss_path = sys.argv.pop(1)
try:
    from ascpart.cli import main
    code = main()
finally:
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(rss_path, "w") as fh:
        fh.write(kb)
sys.exit(code)
"""


def _run(argv, stdout_path=None, cpu=None):
    """Run a child to completion, pinned to `cpu` if given.

    Returns (exit code, CPU seconds, standard output); the CPU seconds are
    the child's user plus system time.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with open(stdout_path or os.devnull, "wb") as sink:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(argv, stdout=sink if stdout_path else subprocess.PIPE,
                              env=env, cwd=ROOT, check=False, preexec_fn=pin)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return proc.returncode, cpu_s, (proc.stdout or b"").decode("ascii", "replace")


def _probe(*args, cpu=None):
    """Run a probe.py mode; its JSON result.  A probe that fails ends the run."""
    rc, _, out = _run([sys.executable, PROBE, *map(str, args)], cpu=cpu)
    if rc != 0:
        raise SystemExit(f"probe.py {args[0]} failed with exit code {rc}")
    return json.loads(out.splitlines()[-1])


def _cli(*args, stdout_path=None, cpu=None):
    """Run ``ascpart ARGS``: (exit code, CPU seconds, peak RSS in MB, standard output)."""
    rss_path = OUT / "cli-rss.txt"
    rss_path.unlink(missing_ok=True)
    rc, cpu_s, out = _run([sys.executable, "-c", CLI, str(rss_path), *args], stdout_path, cpu)
    rss_mb = int(rss_path.read_text()) / 1024 if rss_path.exists() else 0.0
    return rc, cpu_s, rss_mb, out


class Yardstick:
    """yardstick.py running beside an operation on the same CPU.

    ``with Yardstick(cpu) as speed:`` starts it pinned to `cpu` and starts
    its count; on leaving, ``speed.units_per_s`` holds the units it ran per
    CPU second in between.
    """

    def __init__(self, cpu, counter_path=None):
        self.cpu = cpu
        self.argv = [sys.executable, YARDSTICK] + ([str(counter_path)] if counter_path else [])
        self.units_per_s = None

    def __enter__(self):
        self.proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE,
                                     cwd=ROOT, preexec_fn=lambda: os.sched_setaffinity(
                                         0, {self.cpu}))
        if self.proc.stdout.readline() != b"ready\n":
            self._end()
            raise SystemExit("yardstick.py did not start")
        self.proc.send_signal(signal.SIGUSR1)
        return self

    def __exit__(self, *exc):
        out = self._end()
        if exc[0] is None:
            units, cpu_s = out.split()
            if int(units) < MIN_YARDSTICK_UNITS:
                raise SystemExit(f"yardstick ran only {units} units beside the operation")
            self.units_per_s = int(units) / float(cpu_s)
        return False

    def _end(self):
        self.proc.terminate()
        out, _ = self.proc.communicate()
        return out


# A cold import timed inside a fresh interpreter, between two runs of a
# ~10 ms yardstick loop in the same interpreter.  Importing yardstick loads
# nothing that ascpart loads.
IMPORT = """import sys, time
sys.path.insert(0, {perfbench!r})
import yardstick
def loop():
    t = time.perf_counter()
    yardstick.accel_asc({n})
    return time.perf_counter() - t
before = loop()
t = time.perf_counter()
import {module}
t = time.perf_counter() - t
print(t, before, loop())
"""
IMPORT_LOOP_N = 40
# A fixed scale: about the loop's fastest time on the reference machine.
IMPORT_LOOP_REF_S = 0.0075


def import_seconds(module):
    """Cold import time of `module`, in reference seconds."""
    code = IMPORT.format(perfbench=str(ROOT / "perfbench"), module=module, n=IMPORT_LOOP_N)
    rc, _, out = _run([sys.executable, "-c", code])
    if rc != 0:
        raise SystemExit(f"import {module} failed with exit code {rc}")
    seconds, before, after = map(float, out.split())
    return seconds * IMPORT_LOOP_REF_S / ((before + after) / 2)


def setup_seconds(module, samples):
    """Median of `samples` cold imports, after one that writes the bytecode cache."""
    import_seconds(module)
    return statistics.median(import_seconds(module) for _ in range(samples))


class Rounds:
    """Whole rounds of named operations until another would overrun the budget.

    Every operation's time is kept in reference seconds (see yardstick.py):
    its CPU seconds on `cpu`, times the yardstick's units per CPU second
    beside it, over REF_UNITS_PER_S.  After each round SETUP_PER_ROUND
    set-up samples are taken, so the samples spread over the run like the
    operations do.
    """

    def __init__(self, seconds, entry):
        self.seconds = seconds
        self.entry = entry
        self.cpu = min(os.sched_getaffinity(0))
        self.start = time.perf_counter()
        self.round_s = []
        self.setup_s = []
        self.times = {}
        self.cpu_seconds = {}
        self.rss = {}
        self.attempted = 0
        self.faults = []

    def run(self, one_round):
        import_seconds(self.entry)  # writes the bytecode cache; not recorded
        while len(self.round_s) < MIN_ROUNDS or (
                time.perf_counter() - self.start + statistics.median(self.round_s)
                <= self.seconds):
            t0 = time.perf_counter()
            one_round(self)
            self.setup_s += [import_seconds(self.entry) for _ in range(SETUP_PER_ROUND)]
            self.round_s.append(time.perf_counter() - t0)
        while len(self.setup_s) < SETUP_SAMPLES:
            self.setup_s.append(import_seconds(self.entry))

    def timed(self, name, operation):
        """Run ``operation(cpu) -> (CPU seconds, rss_mb, fault)`` beside the yardstick."""
        with Yardstick(self.cpu) as speed:
            cpu_s, rss_mb, fault = operation(self.cpu)
        self.record(name, cpu_s, speed.units_per_s, rss_mb, fault)

    def check(self, name, fault):
        """Count one operation; True if it did not fail."""
        self.attempted += 1
        if fault:
            self.faults.append(f"{name}: {fault}")
        return not fault

    def record(self, name, cpu_s, units_per_s, rss_mb, fault):
        """Count one timed operation and keep its figures if it did not fail."""
        if self.check(name, fault):
            self.cpu_seconds.setdefault(name, []).append(cpu_s)
            self.times.setdefault(name, []).append(
                cpu_s * units_per_s / yardstick.REF_UNITS_PER_S)
            self.rss.setdefault(name, []).append(rss_mb)

    def metrics(self, items):
        wall_s = sum(statistics.median(v) for v in self.times.values())
        return {
            "wall_s": {"value": wall_s, "unit": "s"},
            "items_per_s": {"value": items / wall_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
            "peak_rss_mb": {"value": max(statistics.median(v) for v in self.rss.values()),
                            "unit": "MB"},
        }

    def cpu_wall_s(self):
        """The same sum in plain CPU seconds, for the log only."""
        return sum(statistics.median(v) for v in self.cpu_seconds.values())


def _rotate(items, seed):
    k = seed % len(items)
    return items[k:] + items[:k]


def workload_enumerate(seed, rounds, p):
    data = _probe("check", DIGEST_N, COUNTED_N)
    want_digest = list(reference.enumeration_digest(DIGEST_N))
    for name, digest in data["digests"].items():
        rounds.check(f"{name} digest", None if digest == want_digest
                     else f"digest at n={DIGEST_N} differs from the reference enumeration")
    predicted = reference.op_counts(p, COUNTED_N)
    for name, (assigns, bools, visits) in data["tallies"].items():
        rounds.check(f"gen_{name}_counted",
                     None if (assigns, bools) == predicted[name] and visits == p[COUNTED_N]
                     else f"tallies {assigns}, {bools}, {visits} at n={COUNTED_N}")

    order = _rotate(list(probe.GENERATORS), seed)

    def one_round(rounds):
        for name in order:
            rounds.timed(name, lambda cpu: one_pass(name, cpu))

    def one_pass(name, cpu):
        data = _probe("enumerate", ENUM_N, name, cpu=cpu)
        return data["cpu_ns"] / 1e9, data["peak_rss_kb"] / 1024, (
            None if data["count"] == p[ENUM_N] else f"{data['count']} items, want {p[ENUM_N]}")

    rounds.run(one_round)
    return 3 * p[ENUM_N]


def workload_render(seed, rounds, p):
    orders = _rotate([("ascending", []), ("descending", ["--descending"])], seed)
    checked = {}

    def one_round(rounds):
        for label, extra in orders:
            rounds.timed(label, lambda cpu: generate(label, extra, cpu))

    def generate(label, extra, cpu):
        path = OUT / f"render-{label}.txt"
        rc, cpu_s, rss, _ = _cli("generate", str(RENDER_N), *extra, stdout_path=path, cpu=cpu)
        fault = None if rc == 0 else f"exit code {rc}"
        if fault is None:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if label not in checked:  # later rounds must repeat the checked bytes
                checked[label] = digest
                fault = reference.LineChecker(RENDER_N, bool(extra)).check_file(
                    path, p[RENDER_N])
            elif digest != checked[label]:
                fault = "output differs from the first round"
        path.unlink()
        return cpu_s, rss, fault

    rounds.run(one_round)
    return 2 * p[RENDER_N]


def _ratios_fault(text, p):
    lines = text.splitlines()
    want = ["n,r1,r2"] + [reference.ratio_row(p, n) for n in range(2, RATIOS_MAX_N + 1)]
    if lines == want:
        return None
    bad = next((i for i, (a, b) in enumerate(zip(lines, want)) if a != b),
               min(len(lines), len(want)))
    return f"ratios CSV line {bad + 1} differs from the reference ({len(lines)} lines)"


def workload_count(seed, rounds, p):
    ops = _rotate([
        ("count", ["count", str(COUNT_N)], p[COUNT_N]),
        ("count_t3", ["count", str(COUNT_N), "--ratio-t", "3"],
         reference.triple_ratio(p, COUNT_N)),
        ("ratios", ["ratios", "--max-n", str(RATIOS_MAX_N)], None),
    ], seed)

    def one_round(rounds):
        for label, args, want in ops:
            rounds.timed(label, lambda cpu: command(args, want, cpu))

    def command(args, want, cpu):
        rc, cpu_s, rss, out = _cli(*args, cpu=cpu)
        if rc != 0:
            fault = f"exit code {rc}"
        elif want is None:
            fault = _ratios_fault(out, p)
        else:
            fault = None if out == f"{want}\n" else f"printed {out!r}, want {want}"
        return cpu_s, rss, fault

    rounds.run(one_round)
    # Items: the logical count-table entries the three commands fill; row n
    # of a t = 1 table has n // 2 entries, of the t = 3 table n // 4.
    return sum(k // 2 + k // 4 for k in range(1, COUNT_N + 1)) + sum(
        k // 2 for k in range(1, RATIOS_MAX_N + 1))


VERIFY_REPORT = [
    "PASS worked examples",
    f"PASS generation vs brute force (n <= {min(VERIFY_MAX_N, 45)})",
    f"PASS counting cross-paths (n <= {min(VERIFY_MAX_N, 60)})",
    f"PASS instrumented operation counts (2 <= n <= {VERIFY_MAX_N})",
    f"PASS tree identities (n <= {min(VERIFY_MAX_N, 25)})",
    "PASS inequalities (n <= 1000)",
    "OK: 6 of 6 check groups passed",
]


def workload_verify(seed, rounds, p):
    def one_round(rounds):
        rounds.timed("verify", verify)

    def verify(cpu):
        rc, cpu_s, rss, out = _cli("verify", cpu=cpu)
        fault = None
        if rc != 0:
            fault = f"exit code {rc}"
        elif out.splitlines() != VERIFY_REPORT:
            fault = f"unexpected report: {out!r}"
        return cpu_s, rss, fault

    rounds.run(one_round)
    # Items: the compositions the battery enumerates -- the oracle lists and
    # three generators for n <= 45, the two counted generators for 2 <= n <= 60.
    return 4 * sum(p[1:46]) + 2 * sum(p[2:VERIFY_MAX_N + 1])


# workload -> (its function, the module whose import is its set-up)
WORKLOADS = {
    "enumerate": (workload_enumerate, "ascpart"),
    "render": (workload_render, "ascpart.cli"),
    "count": (workload_count, "ascpart.cli"),
    "verify": (workload_verify, "ascpart.cli"),
}

PER_LAYER = {
    **{f"generate.gen_v{i}.ns_per_item": "ns" for i in (1, 2, 3)},
    **{f"generate.gen_v{i}.{what}": unit for i in (2, 3)
       for what, unit in (("ns_per_assignment", "ns"), ("ns_per_bool_eval", "ns"),
                          ("assignments", "count"), ("bool_evals", "count"))},
    "cli.generate.ns_per_item": "ns",
    "cli.generate_descending.ns_per_item": "ns",
    "cli.render.ns_per_item": "ns",
    "cli.bytes_per_item": "B",
    "cli.import_s": "s",
    "counting.fill_s.t1": "s",
    "counting.fill_s.t3": "s",
    "counting.entries.t1": "count",
    "counting.ns_per_entry": "ns",
    "counting.table_mb": "MB",
    "counting.lookup_ns": "ns",
    "analysis.ratio_table_s": "s",
    "analysis.verify_counts_s": "s",
    "oracle.brute_compositions_s": "s",
    "generate.oracle_check_s": "s",
    "counting.cross_paths_s": "s",
    "ptree.build_s": "s",
    "counting.check_inequalities_s": "s",
    "trace.overhead_s": "s",
}


def traced(workload, seed):
    """The per-layer metrics: (attempted, faults, metrics)."""
    trace_path = OUT / f"trace-{workload}-{seed}.json"
    counter_path = OUT / "yardstick-counter.bin"
    counter_path.write_bytes(bytes(yardstick.COUNTER_SIZE))
    cpu = min(os.sched_getaffinity(0))
    with Yardstick(cpu, counter_path):
        data = _probe("trace", trace_path, counter_path, cpu=cpu)
    counter_path.unlink()
    metrics = dict(data["metrics"], **{"cli.import_s": setup_seconds("ascpart.cli",
                                                                     SETUP_SAMPLES)})
    print(f"spans written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    return data["attempted"], data["faults"], {
        name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ascpart" / "__init__.py").is_file():
        parser.exit(2, f"no ascpart sources under {ROOT / 'src'}\n")
    OUT.mkdir(exist_ok=True)

    if args.trace:
        attempted, faults, metrics = traced(args.workload, args.seed)
    else:
        workload, entry = WORKLOADS[args.workload]
        rounds = Rounds(args.seconds, entry)
        items = workload(args.seed, rounds, reference.partition_numbers(COUNT_N))
        attempted, faults, metrics = rounds.attempted, rounds.faults, rounds.metrics(items)
        print(f"{args.workload}: {len(rounds.round_s)} rounds in "
              f"{time.perf_counter() - rounds.start:.1f} s; wall_s in plain CPU seconds "
              f"{rounds.cpu_wall_s():.4f}", file=sys.stderr)
        for name in rounds.times:
            print(f"{name:12} reference s " + " ".join(f"{v:.3f}" for v in rounds.times[name])
                  + "  CPU s " + " ".join(f"{v:.3f}" for v in rounds.cpu_seconds[name]),
                  file=sys.stderr)
    for fault in faults:
        print(f"FAILED {fault}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:40} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": len(faults),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
