"""CLI integration: output, line protocols, exit codes."""

import dataclasses
import errno
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ascpart
from ascpart import ALGORITHMS, COUNTED, gen_v3
from ascpart import cli
from ascpart.cli import main
from ascpart.generate import CHUNK_LINES, render_v3


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_default(capsys):
    code, out = run(capsys, "count", "5")
    assert code == 0 and out == "7\n"


def test_count_zero(capsys):
    code, out = run(capsys, "count", "0")
    assert code == 0 and out == "1\n"


def test_count_min_part(capsys):
    code, out = run(capsys, "count", "12", "--min-part", "3")
    assert code == 0 and out == "9\n"


def test_count_ratio(capsys):
    code, out = run(capsys, "count", "15", "--min-part", "3", "--ratio-t", "2")
    assert code == 0 and out == "7\n"


@pytest.mark.parametrize("option, value", [
    # the frozen values of test_counting.test_values_at_the_cap
    (("--ratio-t", "3"),
     "311979970879687292161119344116970547012907367565064585282875096108297166"),
    (("--min-part", "7"),
     "3128745025549526492129102370901601328975714501963533222694682669234"),
])
def test_count_at_the_cap(capsys, option, value):
    code, out = run(capsys, "count", "5000", *option)
    assert code == 0 and out == value + "\n"


def test_generate_four(capsys):
    code, out = run(capsys, "generate", "4")
    assert code == 0
    assert out == "1 1 1 1\n1 1 2\n1 3\n2 2\n4\n"


def test_generate_one(capsys):
    code, out = run(capsys, "generate", "1")
    assert code == 0 and out == "1\n"


def test_generate_limit(capsys):
    code, out = run(capsys, "generate", "30", "--limit", "2")
    assert code == 0
    assert out.splitlines() == ["1" + " 1" * 29, "1" * 1 + " 1" * 27 + " 2"]


def test_generate_descending(capsys):
    code, out = run(capsys, "generate", "6", "--limit", "3", "--descending")
    assert code == 0
    assert out.splitlines() == ["1 1 1 1 1 1", "2 1 1 1 1", "3 1 1 1"]


def test_generate_line_count_is_partition_count(capsys, ctx):
    for n in (10, 18, 30):
        code, out = run(capsys, "generate", str(n))
        assert code == 0
        assert len(out.splitlines()) == ctx.partition_count(n)


def reference_lines(n, descending):
    """gen_v3's stream rendered the plain way: one join per visit."""
    lines = []

    def consumer(a, length):
        parts = a[length:0:-1] if descending else a[1:length + 1]
        lines.append(" ".join(map(str, parts)) + "\n")

    gen_v3(n, consumer)
    return lines


@pytest.mark.parametrize("descending", [False, True])
def test_generate_matches_reference_rendering(capsys, descending):
    order = ["--descending"] if descending else []
    for n in range(1, 46):
        code, out = run(capsys, "generate", str(n), *order)
        assert code == 0
        assert out == "".join(reference_lines(n, descending)), n


@pytest.mark.parametrize("descending", [False, True])
def test_generate_limit_at_chunk_boundaries(capsys, descending):
    n = 45
    order = ["--descending"] if descending else []
    want = reference_lines(n, descending)
    chunks = render_v3(n, descending)
    first = next(chunks).count("\n")
    second = first + next(chunks).count("\n")
    assert first >= CHUNK_LINES and second - first >= CHUNK_LINES
    for end in (first, second):
        for limit in (end - 1, end, end + 1):
            code, out = run(capsys, "generate", str(n), "--limit", str(limit), *order)
            assert code == 0
            assert out == "".join(want[:limit]), limit


@pytest.mark.parametrize("descending", [False, True])
def test_render_v3_yields_exactly_limit_lines(descending):
    n = 45
    want = reference_lines(n, descending)
    for limit in (0, 1, 2, 3, 255, 256, 257, 4096, len(want) - 1, len(want), len(want) + 1):
        chunks = list(render_v3(n, descending, limit))
        assert "".join(chunks) == "".join(want[:limit]), limit
        assert all(chunk.count("\n") >= CHUNK_LINES for chunk in chunks[:-1]), limit
    # at large n the limit cuts the first pass of the outer loop
    for limit in (1, 2, 3):
        text = "".join(render_v3(3000, descending, limit))
        assert text.count("\n") == limit
        assert text.startswith(" ".join(["1"] * 3000) + "\n")


def ascpart_command(*argv):
    src = str(Path(ascpart.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return [sys.executable, "-m", "ascpart.cli", *argv], env


@pytest.mark.parametrize("n, limit", [(200, 3), (1000000, 2)])
def test_generate_limit_stops_the_generator(n, limit):
    # p(200) is about 4e12: only a run that stops at the limit finishes.  At
    # n = 10**6 each line is 2 MB, so the run must also render in linear time.
    argv, env = ascpart_command("generate", str(n), "--limit", str(limit))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [" ".join(["1"] * n),
                                        " ".join(["1"] * (n - 2) + ["2"]),
                                        " ".join(["1"] * (n - 3) + ["3"])][:limit]


@pytest.mark.parametrize("command, lines_read", [
    (("generate", "60"), 1),
    (("verify", "--max-n", "12"), 0),
])
def test_closed_reader_exits_zero_quietly(command, lines_read):
    argv, env = ascpart_command(*command)
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert err == b""
    assert proc.returncode == 0


@pytest.mark.parametrize("command", [("generate", "100"), ("verify",)])
def test_interrupt_exits_130_quietly(command):
    argv, env = ascpart_command(*command)
    # unbuffered, so the first line arrives while the command still runs
    proc = subprocess.Popen([argv[0], "-u", *argv[1:]], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert err == b""
    assert proc.returncode == 130


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command, target", [
    (("generate", "30"), "stdout"),
    (("count", "5"), "stdout"),
    (("bench", "--n", "5", "--reps", "1"), "stdout"),
    (("ratios", "--max-n", "20", "--out", "/dev/full"), "/dev/full"),
    (("tree", "6", "--kind", "binary", "--out", "/dev/full"), "/dev/full"),
])
def test_failed_write_exits_two_with_one_line(command, target):
    argv, env = ascpart_command(*command)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"ascpart: error: cannot write {target}: {os.strerror(errno.ENOSPC)}"]


def test_tree_to_file(tmp_path, capsys):
    path = tmp_path / "six.dot"
    code, _ = run(capsys, "tree", "6", "--kind", "partition", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.count("[label=") == 22
    assert text.count(" -> ") == 21
    code, _ = run(capsys, "tree", "6", "--kind", "partition", "--out", str(path))
    assert path.read_text() == text


def test_tree_binary_stdout(capsys):
    code, out = run(capsys, "tree", "1", "--kind", "binary")
    assert code == 0
    assert '0 [label="1,0"];' in out


def test_ratios_csv(tmp_path, capsys):
    path = tmp_path / "ratios.csv"
    code, _ = run(capsys, "ratios", "--max-n", "20", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,r1,r2"
    assert len(lines) == 20
    assert lines[-1].startswith("20,0.8955")


def test_bench_csv(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, _ = run(capsys, "bench", "--n", "8,10", "--reps", "2", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,t1_ns,t2_ns,r,r1,r2"
    assert len(lines) == 3


def test_bench_guard_is_the_visits_bench_makes(capsys, monkeypatch, tmp_path, ctx):
    # bench's guard, p(n) * (2 * reps + 4) summed over n, is every visit
    # that the ALGORITHMS entries make in bench_table
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
    argv = ["bench", "--n", "8,10", "--reps", "2", "--out", str(tmp_path / "bench.csv")]
    guard = (ctx.partition_count(8) + ctx.partition_count(10)) * (2 * 2 + 4)
    monkeypatch.setattr(cli, "BENCH_MAX_VISITS", guard)
    assert run(capsys, *argv)[0] == 0
    assert visits == guard
    monkeypatch.setattr(cli, "BENCH_MAX_VISITS", guard - 1)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2 and visits == guard  # refused before any run


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--max-n", "12")
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out
    assert out.splitlines()[-1].startswith("OK")


def test_verify_reports_a_failing_group(capsys, monkeypatch):
    real = COUNTED[3]
    monkeypatch.setitem(COUNTED, 3, lambda n: dataclasses.replace(real(n), bool_evals=0))
    code, out = run(capsys, "verify", "--max-n", "12")
    lines = out.splitlines()
    assert code == 1 and sum(line.startswith("PASS ") for line in lines) == 5
    assert lines[3].startswith("FAIL instrumented operation counts (2 <= n <= 12): v3 at n=2: ")
    assert lines[-1] == "FAILED: 5 of 6 check groups passed"


@pytest.mark.parametrize("argv", [
    ("count",),
    ("count", "-5"),
    ("count", "5", "--min-part", "0"),
    ("generate", "0"),
    ("generate", "4", "--alg", "9"),
    ("tree", "50", "--kind", "partition"),
    ("tree", "6"),
    ("bench", "--n", "ten"),
    ("nonsense",),
    ("verify", "--max-n", "1"),
    ("tree", "6", "--kind", "partition", "--out", "{missing}/x.dot"),
    ("ratios", "--max-n", "20", "--out", "{missing}/r.csv"),
    ("bench", "--n", ","),
    ("bench", "--n", "130"),
    ("verify", "--max-n", "200"),
])
def test_usage_errors_exit_two(argv, tmp_path):
    with pytest.raises(SystemExit) as err:
        main([arg.format(missing=tmp_path / "missing") for arg in argv])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (("bench", "--n", "5,1"), "argument --n: all n must be >= 2"),
    (("ratios", "--max-n", "1"), "argument --max-n: must be >= 2, got 1"),
    # the visit guard fires before p(n) reaches the count cap
    (("verify", "--max-n", "90000"), "more than 1e+09; call ascpart.checks.battery"),
])
def test_lower_bounds_are_argparse_bounds(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert message in captured.err
    assert captured.out == ""  # bench never reached its CSV header


def _arg(lo, hi):
    return st.integers(lo, hi).map(lambda v: [str(v)])


def _opt(flag, values):
    return st.just([]) | values.map(lambda v: [flag, *v])


def _argv(*parts):
    return st.tuples(*parts).map(lambda drawn: [arg for part in drawn for arg in part])


# Each command with values on both sides of its bounds, kept small enough to
# run in-process: options whose default is a long run are always given.
_OUT = st.sampled_from([[], ["--out", "{dir}/out"], ["--out", "{dir}/missing/out"]])
_N_LIST = st.lists(st.integers(0, 20), max_size=3).map(lambda ns: [",".join(map(str, ns))])
ARGV = st.one_of(
    _argv(st.just(["count"]), _arg(-1, 60), _opt("--min-part", _arg(0, 60)),
          _opt("--ratio-t", _arg(0, 8))),
    _argv(st.just(["generate"]), _arg(0, 60), _opt("--limit", _arg(0, 50)),
          st.sampled_from([[], ["--descending"]])),
    _argv(st.just(["verify", "--max-n"]), _arg(1, 12)),
    _argv(st.just(["tree"]), _arg(0, 60), _opt("--kind", st.sampled_from([["partition"], ["binary"]])),
          _OUT),
    _argv(st.just(["ratios", "--max-n"]), _arg(1, 60), _OUT),
    _argv(st.just(["bench"]), _opt("--n", _N_LIST), st.just(["--reps"]), _arg(0, 2), _OUT),
    st.lists(st.sampled_from(["count", "tree", "7", "-1", "--limit", "--kind", "-h", "x"]),
             max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(argv=ARGV)
def test_any_argv_exits_with_a_code(argv, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("argv")
    argv = [arg.format(dir=out_dir) for arg in argv]
    try:
        with open(os.devnull, "w") as null, redirect_stdout(null), redirect_stderr(null):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv
