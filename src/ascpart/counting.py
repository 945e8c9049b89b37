"""Exact counting of integer partitions under minimum-part and ratio constraints.

The central quantity is the number of partitions of ``n`` whose parts are all
>= m and whose largest part is at least ``t`` times the second largest part;
single-part partitions qualify unconditionally.  Writing ``q = n // (t + 1)``,
the count obeys

    count(t, n, m) = count(t, n - m, m) + count(t, n, m + 1)    for m <= q,
    count(t, n, m) = 1                                for n = 0 or q < m <= n,

since a qualifying partition either uses the part ``m`` (strip one copy) or
has every part >= m + 1, and a qualifying partition with two or more parts
needs largest + second >= (t + 1) * smallest, so its smallest part is <= q.
The one partition of 0 is the empty one, so every count takes n >= 0, and
`CountContext._served` alone states these base cases.

Everything else is a special case of that count or another route to it:

* ``p(n, m)`` -- partitions with parts >= m -- is the ``t = 1`` case, and
  ``p(n) = p(n, 1)``; the cached (1, 1) column is filled by Euler's
  pentagonal-number recurrence instead, and the recurrence's own (1, 1)
  column cross-checks it only in ``checks.cross_paths`` and the tests;
* a sum form: count(t, n, m) = 1 + sum of count(t, n - k, k) for k = m .. q;
* a reduction step count(t, n, m) = count(t-1, n, m) - count(t-1, n - t, m),
  peeling ``t`` down to 1 so the value is a signed combination of p(., m);
* a product form (Andrews, *The Theory of Partitions*, ch. 1): for
  m <= q, count(t, n, m) is the coefficient of x^n in

      prod_{k=2..t} (1 - x^k) * prod_{k=1..m-1} (1 - x^k) * sum_j p(j) x^j,

  that is sum_j c_j p(n - j) over the coefficients c of a finite product;
* closed forms per n, the product form's m = 1 cases: double-ratio =
  p(n) - p(n-2) and triple-ratio = p(n) - p(n-2) - p(n-3) + p(n-5), with
  p(k) = 0 for k < 0; they hold for every n >= 0;
* the same closed forms for a whole range: ``closed_forms(n)`` applies the
  two factors to the p column itself, d(k) = p(k) - p(k-2) and then
  r(k) = d(k) - d(k-3), one list subtraction each.

The recurrence is filled bottom-up (no recursion), one column per ``(t, m)``:
the column holds count(t, k, m) for 0 <= k <= L and costs O(L) ints.  It is
swept down from the column of ``m = L // (t + 1) + 1``, where only base
cases occur, one ``m`` at a time, in place: about (L / (t + 1) - m)^2 *
(t + 1) / 2 big-int additions.  The p column comes from Euler's recurrence,
p(k) = sum of +-p(k - g) over the generalized pentagonal numbers g <= k, in
about 1.1 L^1.5 additions; it is cached as the (1, 1) column.
The product form reads that column: its coefficients are cut at degree
D = min(n, sum of the factor degrees), so it costs at most about n * (m + t)
big-int subtractions, O(t^2) at m = 1, and caches nothing; its range form
costs 2 n subtractions and caches nothing either.

``ratio_restricted_count`` answers by the product when
3 n (m + t) < 2 (t + 1) (q - m)^2, and by the (t, m) column otherwise: the
two cost estimates above, with weights fitted to timings of both paths.
The recurrence stays as the paper's path and as the reference:
``checks.cross_paths`` fills its own columns with ``_fill_column`` and checks
every path against them, the served count included.  A column too short for
a query is rebuilt, doubling its length up to ``DEFAULT_CAP``, and never
mutated once cached.  The sum path reads one count per term, so at large n it
is a cross-check meant for n <= 60.  Values are plain Python ints, so arbitrary
magnitudes stay exact; every subtraction along the closed forms and the
reduction path is checked to be nonnegative, raising ArithmeticError if not.

``check_inequalities`` imports its `InequalityReport` from `counters` when
called, as every record is imported by the function that builds it, so
``ascpart count`` never loads `dataclasses`.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import add, itemgetter, mul, sub

from .errors import DomainError, require_at_least, require_within

# The largest n a count answers, for every CountContext.
DEFAULT_CAP = 5000


def _validate_nmt(n, m, t):
    require_at_least(n, 0)
    require_at_least(t, 1, "ratio factor")
    require_at_least(m, 1, "minimum part")
    require_within(n, DEFAULT_CAP, "count")


def _fill_partition_numbers(length):
    """[p(0), ..., p(length)] by Euler's pentagonal-number recurrence.

    p(k) = p(k-1) + p(k-2) - p(k-5) - p(k-7) + p(k-12) + p(k-15) - ...,
    over the generalized pentagonal numbers j(3j - 1) / 2, j(3j + 1) / 2 for
    j = 1, 2, ..., whose terms take the sign of (-1)^(j+1).  The offsets are
    kept negated and split by sign, so that while p holds p(0..k-1), p(k - g)
    is p[-g] and p(k) is two C-level sums, each over the terms that one
    itemgetter call reads at the offsets g <= k.
    """
    pentagonal = []
    j = 1
    while j * (3 * j - 1) // 2 <= length:
        pentagonal += (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2)
        j += 1
    p = [1]
    plus, minus = [], []
    for i, (g, end) in enumerate(zip(pentagonal, pentagonal[1:] + [length + 1])):
        (minus if i & 2 else plus).append(-g)
        # for g <= k < end the offsets <= k stay the same; each getter also
        # reads p[0] twice, so it always returns a tuple, and the pads cancel
        take, drop = itemgetter(0, 0, *plus), itemgetter(0, 0, *minus)
        for _ in range(g, min(end, length + 1)):
            p.append(sum(take(p)) - sum(drop(p)))
    return p


def _fill_column(t, m, length):
    """[count(t, k, m) for k in 0..length], for 1 <= m <= length // (t + 1).

    Starts at ``top = length // (t + 1) + 1``, where count(t, k, top) is 1
    for k >= top and 0 for 0 < k < top, and applies the recurrence for each
    smaller m' in turn: col[m'] becomes 1, the single part, and col[k] gains
    col[k - m'] for k >= (t + 1) * m'.  That update runs in blocks of m'
    entries, each reading the block before it, which is already updated.
    """
    top = length // (t + 1) + 1
    col = [1] + [0] * (top - 1) + [1] * (length + 1 - top)
    for mp in range(top - 1, m - 1, -1):
        col[mp] = 1
        for b in range((t + 1) * mp, length + 1, mp):
            e = b + mp
            col[b:e] = map(add, col[b:e], col[b - mp:e - mp])
    return col


class CountContext:
    """Memoized partition counts, one cached column per (ratio factor, minimum part).

    The (1, 1) column, p(k), is filled by Euler's recurrence; it serves
    ``partition_count`` and count(1, k, 1).  The product form reads it too:
    the closed forms and their range form always, ``ratio_restricted_count``
    and ``restricted_count`` whenever its cost rule (see the module docstring)
    ranks it below a column fill.  The product builds its coefficient list
    afresh per call, O(t^2) entries at m = 1, and caches nothing, so the
    columns are the only shared state.

    A context may be shared between threads.  A column is built privately
    under a lock and published with one dict assignment; a published column
    is never mutated, only replaced by a longer one, so a query whose column
    is long enough reads it without taking the lock.  A column grows to at
    least twice its length (capped at ``DEFAULT_CAP``, the largest n any
    method takes), so ascending queries rebuild it O(log n) times; ask for
    the largest n first to build it once.
    """

    def __init__(self):
        # _columns[t, m][k] = count(t, k, m); the (1, 1) column is p(k), by Euler
        self._columns: dict[tuple[int, int], list[int]] = {}
        self._lock = threading.Lock()

    def _column(self, key, n):
        col = self._columns.get(key)
        if col is not None and len(col) > n:
            return col
        with self._lock:
            # read again under the lock: another thread may have grown it
            col = self._columns.get(key)
            if col is None or len(col) <= n:
                length = n if col is None else min(DEFAULT_CAP, max(n, 2 * (len(col) - 1)))
                col = self._columns[key] = (_fill_partition_numbers(length)
                                            if key == (1, 1) else _fill_column(*key, length))
            return col

    def ratio_restricted_count(self, n: int, m: int, t: int) -> int:
        """Partitions of n with parts >= m and largest part >= t * second largest.

        By the product form or the (t, m) column, whichever the measured cost
        rule ranks cheaper for (n, m, t); a cached column does not change the
        choice.
        """
        _validate_nmt(n, m, t)
        return self._served(n, m, t)

    def _served(self, n, m, t):
        """`ratio_restricted_count` for checked arguments; it alone states the
        base cases m > n // (t + 1): 1 at n = 0 or m <= n, and 0 for 0 < n < m."""
        if m > n:
            return int(n == 0)
        if m > n // (t + 1):
            return 1
        if 3 * n * (m + t) < 2 * (t + 1) * (n // (t + 1) - m) ** 2:
            return self._product_count(n, m, t)
        return self._column((t, m), n)[n]

    def _product_count(self, n, m, t):
        """sum_j c_j p(n - j), where c holds prod_{k=2..t} (1 - x^k) prod_{k=1..m-1} (1 - x^k).

        That is count(t, n, m) for 1 <= m <= n // (t + 1), and the closed
        forms at m = 1 for every n >= 0.  Terms of degree above n read p at
        negative indices, which are 0, so c is cut at D = min(n, sum of the
        factor degrees) and each factor of degree <= D is one slice update,
        up to the degree the product so far reaches.
        """
        d = min(n, t * (t + 1) // 2 - 1 + m * (m - 1) // 2)
        c = [1] + [0] * d
        top = 0
        for k in chain(range(1, min(m - 1, d) + 1), range(2, min(t, d) + 1)):
            top = min(d, top + k)
            c[k:top + 1] = map(sub, c[k:top + 1], c[:top + 1 - k])
        return sum(map(mul, c, reversed(self._column((1, 1), n)[n - d:n + 1])))

    def ratio_count(self, n: int, t: int) -> int:
        """Partitions of n whose largest part is >= t times the second largest."""
        return self.ratio_restricted_count(n, 1, t)

    def restricted_count(self, n: int, m: int) -> int:
        """p(n, m): partitions of n with every part >= m."""
        return self.ratio_restricted_count(n, m, 1)

    def partition_count(self, n: int) -> int:
        """p(n): number of partitions of n (p(0) = 1), by Euler's recurrence."""
        require_at_least(n, 0)
        require_within(n, DEFAULT_CAP, "count")
        return self._column((1, 1), n)[n]

    def ratio_count_via_sum(self, n: int, m: int, t: int) -> int:
        """Same value as ratio_restricted_count, through the sum identity.

        Kept as an independent computation path for cross-checking; only
        defined on 1 <= m <= n // (t + 1).
        """
        _validate_nmt(n, m, t)
        q = n // (t + 1)
        if not 1 <= m <= q:
            raise DomainError(f"need 1 <= m <= n // (t + 1) = {q}, got m={m}")
        return 1 + sum(self._served(n - k, k, t) for k in range(m, q + 1))

    def ratio_count_via_reduction(self, n: int, m: int, t: int) -> int:
        """Same value again, by peeling the ratio factor down to t = 1.

        Expands count(t, n, m) into a signed combination of plain restricted
        counts p(., m); defined on n > t > 1 with m <= n // (t + 1).
        """
        _validate_nmt(n, m, t)
        if not n > t > 1:
            raise DomainError(f"need n > t > 1, got n={n}, t={t}")
        if m > n // (t + 1):
            raise DomainError(f"need m <= n // (t + 1) = {n // (t + 1)}, got m={m}")
        return self._reduce(t, n, m)

    def _reduce(self, t, n, m):
        if t == 1 or m > n // (t + 1):
            return self._served(n, m, t)
        value = self._reduce(t - 1, n, m) - self._reduce(t - 1, n - t, m)
        if value < 0:
            raise ArithmeticError(f"reduction went negative at (t={t}, n={n}, m={m})")
        return value

    def _closed(self, n, t):
        _validate_nmt(n, 1, t)
        value = self._product_count(n, 1, t)
        if value < 0:
            raise ArithmeticError(f"p{t}_closed went negative at n={n}")
        return value

    def p2_closed(self, n: int) -> int:
        """Closed form for the t = 2 ratio count: p(n) - p(n-2).

        The product form's m = 1 case, (1 - x^2) times the p series.
        """
        return self._closed(n, 2)

    def p3_closed(self, n: int) -> int:
        """Closed form for the t = 3 ratio count: p(n) - p(n-2) - p(n-3) + p(n-5).

        The product form's m = 1 case, (1 - x^2)(1 - x^3) times the p series.
        """
        return self._closed(n, 3)

    def closed_forms(self, n: int) -> tuple[list[int], list[int], list[int]]:
        """(p, d, r), each a new list over 0..n: p(k), p2_closed(k) and p3_closed(k).

        The product form's factors applied to the whole p column: d(k) = p(k) -
        p(k-2) and r(k) = d(k) - d(k-3), where terms below index 0 are 0, so
        that d(0) = p(0) and r(0) = d(0).  The lists are copies; the cached
        column is never handed out.
        """
        require_at_least(n, 0)
        require_within(n, DEFAULT_CAP, "count")
        p = self._column((1, 1), n)[:n + 1]
        d = p[:2] + list(map(sub, p[2:], p))
        r = d[:3] + list(map(sub, d[3:], d))
        for t, values in ((2, d), (3, r)):
            if min(values) < 0:
                k = next(k for k, value in enumerate(values) if value < 0)
                raise ArithmeticError(f"p{t}_closed went negative at n={k}")
        return p, d, r

    def check_inequalities(self, n_max: int) -> "InequalityReport":
        """Scan 1..n_max for violations of the two partition inequalities.

        Checks p(n) <= p(n-1) + p(n-2) - p(n-5) (recording where equality
        holds) and, for n >= 2, triple-ratio(n) <= double-ratio(n-1).
        Both are expected to hold everywhere.
        """
        from .counters import InequalityReport

        require_within(n_max, DEFAULT_CAP, "count", "n_max")
        p, d, r = self.closed_forms(max(n_max, 0))
        below = [0] * 5 + p  # below[k + 5] = p(k), and 0 for -5 <= k < 0
        growth_violations = []
        growth_equalities = []
        dominance_violations = []
        for n in range(1, n_max + 1):
            bound = below[n + 4] + below[n + 3] - below[n]
            if p[n] > bound:
                growth_violations.append(n)
            elif p[n] == bound:
                growth_equalities.append(n)
            if n >= 2 and r[n] > d[n - 1]:
                dominance_violations.append(n)
        return InequalityReport(
            n_max=n_max,
            growth_violations=growth_violations,
            growth_equalities=growth_equalities,
            dominance_violations=dominance_violations,
        )

