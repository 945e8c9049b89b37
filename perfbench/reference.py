"""Reference computations the benchmark checks ascpart against.

Nothing here imports ascpart: every expected value is derived afresh, by a
different method where one exists, so that a fault in the program cannot
also hide in the expectation.

* `partition_numbers` -- p(0..n) from Euler's pentagonal-number recurrence
  (ascpart fills a minimum-part table instead).
* `double_ratio` / `triple_ratio` -- the closed forms p(n) - p(n-2) and
  p(n) - p(n-2) - p(n-3) + p(n-5) over that p.
* `op_counts` -- the paper's assignment and boolean-evaluation counts of
  gen_v2 and gen_v3.
* `ratio_row` -- the CSV row ``n,r1,r2`` of ``ascpart ratios``, from exact
  fractions rounded half to even.
* `enumeration_digest` / `CompositionDigest` -- a recursive enumeration and
  an order- and length-sensitive digest of a composition stream.
* `LineChecker` -- a streaming check that rendered lines are exactly the
  partitions of n, in order.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def partition_numbers(n_max: int) -> list[int]:
    """p(0), ..., p(n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def _at(p, n):
    return p[n] if n >= 0 else 0


def double_ratio(p, n: int) -> int:
    """Partitions of n whose largest part is >= 2 x the second largest."""
    return _at(p, n) - _at(p, n - 2)


def triple_ratio(p, n: int) -> int:
    """Partitions of n whose largest part is >= 3 x the second largest."""
    return _at(p, n) - _at(p, n - 2) - _at(p, n - 3) + _at(p, n - 5)


def op_counts(p, n: int) -> dict[str, tuple[int, int]]:
    """(assignments, boolean evaluations) the paper predicts per generator."""
    pn, d, r = p[n], double_ratio(p, n), triple_ratio(p, n)
    return {"v2": (4 * pn + 4 * d, pn + 3 * d),
            "v3": (4 * pn + 5 * r, pn + 4 * r)}


def _five_decimals(value: Fraction) -> str:
    scaled = round(value * 100000)  # Fraction rounds half to even
    return f"{scaled // 100000}.{scaled % 100000:05d}"


def ratio_row(p, n: int) -> str:
    """The ``n,r1,r2`` row: gen_v3's cost over gen_v2's, per counter."""
    (a2, b2), (a3, b3) = op_counts(p, n).values()
    return f"{n},{_five_decimals(Fraction(a3, a2))},{_five_decimals(Fraction(b3, b2))}"


class CompositionDigest:
    """Digest of a stream of compositions.

    Each composition is hashed as its parts followed by a 0 separator (no
    part is 0), so the digest depends on the order of the stream, the order
    of parts and where each composition ends.  Usable directly as a
    generator consumer ``(a, length)`` with parts ``a[1:length + 1]``.
    """

    __slots__ = ("_hash", "count")

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, parts) -> None:
        self._hash.update(b"".join(part.to_bytes(2, "little") for part in parts) + b"\0\0")
        self.count += 1

    def __call__(self, a, length):
        self.add(a[1:length + 1])

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def enumeration_digest(n: int) -> tuple[int, str]:
    """Count and digest of the ascending compositions of n in lexicographic order.

    Plain recursion: the first part runs upward from the smallest allowed
    value, the rest is the same problem on the remainder.
    """
    digest = CompositionDigest()
    parts = []

    def rec(remaining, lo):
        if remaining == 0:
            digest.add(parts)
            return
        for part in range(lo, remaining + 1):
            parts.append(part)
            rec(remaining - part, part)
            parts.pop()

    rec(n, 1)
    return digest.count, digest.hexdigest()


class LineChecker:
    """Streaming check of ``ascpart generate n`` output.

    Every line must be parts separated by single spaces, nondecreasing (or
    nonincreasing with ``descending``), summing to n, and, read as an
    ascending composition, strictly greater in lexicographic order than the
    line before.  With the line count equal to p(n) this proves the output
    is exactly the partitions of n, each once, in order.  `feed` returns
    None while all is well and a message at the first fault.
    """

    def __init__(self, n: int, descending: bool = False):
        self.n = n
        self.descending = descending
        self.count = 0
        self._last = None

    def feed(self, line: str):
        where = f"line {self.count + 1}"
        if not line.endswith("\n"):
            return f"{where}: no trailing newline"
        tokens = line[:-1].split(" ")
        if not all(tok.isdigit() and tok[0] != "0" for tok in tokens):
            return f"{where}: not positive integers separated by single spaces: {line!r}"
        parts = tuple(int(tok) for tok in tokens)
        if self.descending:
            parts = parts[::-1]
        if any(parts[i] > parts[i + 1] for i in range(len(parts) - 1)):
            return f"{where}: parts out of order: {line!r}"
        if sum(parts) != self.n:
            return f"{where}: parts sum to {sum(parts)}, not {self.n}"
        if self._last is not None and not parts > self._last:
            return f"{where}: not after the previous line in lexicographic order"
        self._last = parts
        self.count += 1
        return None

    def check_file(self, path, expected_count: int):
        """Feed every line of a file; a message at the first fault, else None."""
        try:
            with open(path, encoding="ascii", newline="") as fh:
                for line in fh:
                    fault = self.feed(line)
                    if fault:
                        return fault
        except UnicodeDecodeError as exc:
            return f"not ASCII: {exc}"
        if self.count != expected_count:
            return f"{self.count} lines, expected p({self.n}) = {expected_count}"
        return None
