"""Command-line interface.

Subcommands::

    count <n> [--min-part M] [--ratio-t T]    partition counts of n >= 0,
                                              with T = 1 unless given
    generate <n> [--limit K] [--descending]   one composition per line
    verify [--max-n N]                        self-verification battery
    tree <n> --kind partition|binary [--out PATH]
    ratios [--max-n N] [--out PATH]           CSV n,r1,r2
    bench --n 20,30,40 [--reps R] [--out PATH]

Exit codes: 0 success, 1 verification failure, 2 usage error or failed
write (a full device, say), 130 interrupted (Ctrl-C).  All output is plain
ASCII text or CSV.

The CLI only parses.  Every range rule and size cap, the visit cap of
`bench.bench_table` and `checks.battery` included, is checked by the library
function a command calls, and an input it rejects exits 2 with its message.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

# Each _cmd_* imports the submodules it runs, and no others.
from .errors import AscpartError


def _open_out(path):
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise AscpartError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_count(args):
    from .counting import CountContext

    print(CountContext().ratio_restricted_count(args.n, args.min_part, args.ratio_t))
    return 0


def _cmd_generate(args):
    from .render import render_v3

    # sys.stdout is looked up per call: callers swap it with redirect_stdout
    sys.stdout.writelines(render_v3(args.n, args.descending, args.limit))
    return 0


def _cmd_tree(args):
    from .ptree import build_partition_tree, build_strict_tree, to_dot

    build = build_partition_tree if args.kind == "partition" else build_strict_tree
    text = to_dot(build(args.n))
    with _open_out(args.out) as fh:
        fh.write(text)
    return 0


def _cmd_ratios(args):
    from .analysis import ratio_csv
    from .counting import CountContext

    lines = ratio_csv(args.max_n, CountContext())
    with _open_out(args.out) as fh:
        fh.writelines(lines)
    return 0


def _cmd_bench(args):
    from .bench import bench_table, write_bench_csv

    rows = bench_table(args.n, args.reps)
    with _open_out(args.out) as fh:
        write_bench_csv(rows, fh)
    return 0


def _cmd_verify(args):
    from .checks import battery
    from .counting import CountContext

    passed = total = 0
    for result in battery(CountContext(), args.max_n):
        line = f"{'PASS' if result.ok else 'FAIL'} {result.name}"
        print(f"{line}: {result.detail}" if result.detail else line)
        passed += result.ok
        total += 1
    print(f"{'OK' if passed == total else 'FAILED'}: "
          f"{passed} of {total} check groups passed")
    return 0 if passed == total else 1


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"no n given in {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascpart",
        description="Integer partitions as ascending compositions: "
                    "counting, generation, verification, benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print a partition count")
    p.add_argument("n", type=int)
    p.add_argument("--min-part", type=int, default=1, metavar="M")
    p.add_argument("--ratio-t", type=int, default=1, metavar="T")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("generate", help="stream ascending compositions, one per line")
    p.add_argument("n", type=int)
    p.add_argument("--limit", type=int, default=None, metavar="K")
    p.add_argument("--descending", action="store_true",
                   help="print each composition with parts in descending order")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="run the self-verification battery")
    p.add_argument("--max-n", type=int, default=60)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tree", help="emit a tree as DOT")
    p.add_argument("n", type=int)
    p.add_argument("--kind", choices=("partition", "binary"), required=True)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("ratios", help="CSV of theoretical cost ratios")
    p.add_argument("--max-n", type=int, default=1500)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("bench", help="time the generators and emit CSV")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_bench)

    return parser


def _drop_stdout():
    """Send what stdout still buffers to devnull, so the interpreter's final
    flush cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except AscpartError as exc:
        parser.error(str(exc))  # exits 2
        return 2  # unreachable; keeps type checkers content
    except BrokenPipeError:
        # The reader closed early, as ``ascpart generate 60 | head -1`` does;
        # that is not a failure.
        _drop_stdout()
        return 0
    except OSError as exc:
        # A write failed, as into a full device: the output is incomplete, so
        # exit 2, as for an --out path that cannot be opened.
        _drop_stdout()
        target = getattr(args, "out", None) or "stdout"
        print(f"ascpart: error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT, as a shell reports it; no traceback


if __name__ == "__main__":
    sys.exit(main())
