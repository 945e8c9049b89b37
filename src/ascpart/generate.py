"""Streaming generators for the ascending compositions of n.

All three algorithms emit every ascending composition of n exactly once, in
strictly increasing lexicographic order, by running the inorder traversals
of `traversal` with the stack replaced by the output array itself: a_1..a_k
holds the parts fixed so far, (x, y) the frontier.  Consumers receive the
live buffer and a length::

    def consumer(a, length):
        parts = a[1:length + 1]   # valid only during this call; do not keep a

The buffer is reused between visits, so a consumer must copy what it wants
to retain.  Index 0 of the buffer is a permanent 0 sentinel: the final
``x = a[k] + 1`` of a round executes once with k = 0, and the sentinel makes
that read defined (the loop then exits).

* `gen_v1` keeps an explicit continue flag and re-derives the parent from
  the array when backtracking.
* `gen_v2` merges the backtracking into the loop condition; one array write
  and one visit per composition beyond the descent work.
* `gen_v3` additionally walks compositions that differ only in their last
  two parts without touching the descent loop at all.

`ALGORITHMS` maps each generator's key to its plain loop, and `COUNTED` maps
the same key to its counted variant: `gen_v2_counted` / `gen_v3_counted` take
only n, emit nothing and return `gen_v2`'s / `gen_v3`'s exact operation
tallies at n, which `analysis` predicts from p(n), d(n) and r(n).  They
read them off a block profile of the plain loop (Knuth & Stevenson, BIT
1973), so each loop has one copy; `blockprofile` states where the profile
puts its counters and what each block weighs.  Each block's runs are a
partition class, which is why the formulas hold.  With
p = p(n), d = `p2_closed(n)` and r = `p3_closed(n)`:

* `gen_v2`'s outer, descent and ``x <= y`` blocks run d, d - 1 and p - d
  times, weighing 3 + 5O + 3D + 4I assignments and 1 + 3O + D + I
  evaluations;
* `gen_v3`'s outer and descent blocks run r and r - 1 times, and its
  ``2 * x <= y`` (P), ``p <= q`` (S) and last ``x <= y`` (T) blocks make
  2P + S + T = p - r, weighing 3 + 6O + 3D + 8P + 4S + 4T assignments and
  1 + 4O + D + 2P + S + T evaluations.

The plain variants return the number of compositions they emitted, read off
their loop variables: each pass of an ``x <= y`` loop emits one composition
and adds one to x, so an outer pass adds the change in x across its inner
loops, plus one for its final visit.  That is a few additions per outer pass
and none per visit; they keep no other tallies, so timing runs stay
undistorted.
"""

from __future__ import annotations

from .errors import require_at_least, require_one_of, require_within

# The counted variants import `blockprofile` when called, which loads ast and
# inspect, and its `tally` imports OpCounters, named in their annotations:
# the plain generators load none of them.

# Collector guard: materializing all compositions is for tests and small
# demos only (p(45) = 89134 already).
COLLECT_CAP = 45

# Visit guard of `bench.bench_table` and `checks.battery`: at a few hundred
# ns per visit, 10**9 visits is several minutes of bench or verify.
VISIT_CAP = 10**9


def gen_v1(n: int, consumer) -> int:
    """Generate ascending compositions of n; returns the number emitted.

    The count is x after the ``x <= y`` loop minus x before it, plus one for
    the final visit, summed over the outer passes.
    """
    require_at_least(n, 1)
    a = [0] * (n + 3)
    k = 0
    x = 1
    y = n - 1
    c = True
    count = 0
    while c:
        while 2 * x <= y:
            k += 1
            a[k] = x
            y -= x
        count -= x
        while x <= y:
            k += 1
            a[k] = x
            k += 1
            a[k] = y
            consumer(a, k)
            k -= 2
            x += 1
            y -= 1
        count += x + 1
        k += 1
        a[k] = x + y
        consumer(a, k)
        k -= 1
        if k > 0:
            y += x
            x = a[k]
            k -= 1
            x += 1
            y -= 1
        else:
            c = False
    return count


def gen_v2(n: int, consumer) -> int:
    """Generate ascending compositions of n; returns the number emitted.

    Counted as in `gen_v1`: per outer pass, the change in x across the
    ``x <= y`` loop plus one for the final visit.
    """
    require_at_least(n, 1)
    a = [0] * (n + 3)
    k = 1
    x = 1
    y = n - 1
    count = 0
    while k > 0:
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        t = k + 1
        count -= x
        while x <= y:
            a[k] = x
            a[t] = y
            consumer(a, t)
            x += 1
            y -= 1
        count += x + 1
        y += x - 1
        a[k] = y + 1
        consumer(a, k)
        k -= 1
        x = a[k] + 1
    return count


def gen_v3(n: int, consumer) -> int:
    """Generate ascending compositions of n; returns the number emitted.

    Counted as in `gen_v1`, with x running on from the ``2 * x <= y`` loop
    into the ``x <= y`` loop, so the change in x spans both.  A pass of the
    ``2 * x <= y`` loop also adds p - x, where its ``p <= q`` loop stopped:
    one visit per ``p <= q`` pass and one for ``a[t] = y``.
    """
    require_at_least(n, 1)
    a = [0] * (n + 3)
    k = 1
    x = 1
    y = n - 1
    count = 0
    while k > 0:
        while 3 * x <= y:
            a[k] = x
            y -= x
            k += 1
        t = k + 1
        u = k + 2
        count -= x
        while 2 * x <= y:
            a[k] = x
            a[t] = x
            a[u] = y - x
            consumer(a, u)
            p = x + 1
            q = y - p
            while p <= q:
                a[t] = p
                a[u] = q
                consumer(a, u)
                p += 1
                q -= 1
            count += p - x
            a[t] = y
            consumer(a, t)
            x += 1
            y -= 1
        while x <= y:
            a[k] = x
            a[t] = y
            consumer(a, t)
            x += 1
            y -= 1
        count += x + 1
        y += x - 1
        a[k] = y + 1
        consumer(a, k)
        k -= 1
        x = a[k] + 1
    return count


def gen_v2_counted(n: int) -> OpCounters:
    """`gen_v2`'s exact operation tallies at n, read off its block profile; requires n >= 2."""
    from .blockprofile import tally

    require_at_least(n, 2)
    return tally(gen_v2, n)


def gen_v3_counted(n: int) -> OpCounters:
    """`gen_v3`'s exact operation tallies at n, read off its block profile; requires n >= 2."""
    from .blockprofile import tally

    require_at_least(n, 2)
    return tally(gen_v3, n)


# One key per generator; `analysis._predicted` holds a formula for each COUNTED key.
ALGORITHMS = {1: gen_v1, 2: gen_v2, 3: gen_v3}
COUNTED = {2: gen_v2_counted, 3: gen_v3_counted}


def collect_compositions(n: int, alg: int = 3) -> list[tuple[int, ...]]:
    """Materialize all ascending compositions of n (guarded; tests/demos only)."""
    require_one_of(alg, ALGORITHMS, "alg")
    require_at_least(n, 1)
    require_within(n, COLLECT_CAP, "collector")
    out = []

    def consumer(a, length):
        out.append(tuple(a[1:length + 1]))

    ALGORITHMS[alg](n, consumer)
    return out
