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
* `render_v3` is `gen_v3`'s loop emitting text lines instead of visits,
  with the rendered prefix kept across the lines that share it, in either
  order of parts; it is what ``ascpart generate`` prints.

`ALGORITHMS` maps each generator's key to its plain loop, and `COUNTED` maps
the same key to its counted loop: `gen_v2_counted` / `gen_v3_counted` are
the loops of `gen_v2` / `gen_v3` with operation tallies and without the
visits.  They take only n, emit nothing and return the tallies.  Every
other statement stays, the array writes that only a visit would read
included, since the tallies count them; a test compares each counted loop
with its plain one statement by statement.  Their assignment and
boolean-evaluation counts are exact functions of n, which `analysis` keys
like `COUNTED`; that is what the counted variants exist to demonstrate.
They count each loop's passes: the outer loop adds one per pass, and every
other loop's passes are read off the change in a variable that the loop
steps by one per pass.  The tallies are built at return as each loop's
passes times the lines one pass executes; the per-loop weights are tabled
in their docstrings.

The plain variants return the number of compositions they emitted, counted
the same way: each pass of an ``x <= y`` loop emits one composition and adds
one to x, so an outer pass adds the change in x across its inner loops, plus
one for its final visit.  That is a few additions per outer pass and none
per visit; they keep no other tallies, so timing runs stay undistorted.
"""

from __future__ import annotations

import math

from .errors import DomainError, require_at_least, require_within

# The counted variants import OpCounters, named in their annotations, when
# called: it loads dataclasses, which the plain generators do without.

# Collector guard: materializing all compositions is for tests and small
# demos only (p(45) = 89134 already).
COLLECT_CAP = 45

# Lines per chunk from `render_v3`: enough to make per-chunk costs vanish,
# few enough that a chunk stays small beside the interpreter's own memory.
CHUNK_LINES = 256


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


def _join(lines, descending):
    return "".join(lines[::-1])[::-1] if descending else "".join(lines)


def render_v3(n: int, descending: bool = False, limit: int | None = None):
    """`gen_v3`'s compositions of n as text, yielded in chunks of lines.

    Each line is one composition: its parts in ascending order (largest
    first with ``descending``), separated by single spaces, ending in a
    newline.  A chunk is one string of at least `CHUNK_LINES` lines; the
    last one may be shorter.  With ``limit`` only the first ``limit`` lines
    are rendered and yielded.

    The loop is `gen_v3`'s.  The text of a_1..a_{k-1} is the same for
    every line emitted at depth k, so it is kept rendered in ``text``: a
    descent appends its run of equal parts at once, and backtracking cuts
    the last part off again.  A line is then that text plus one to three
    lookups in per-part string tables.  A descending line is the character
    reversal of the ascending line of the character-reversed parts, so
    both orders run the same loop: the descending one with reversed tables
    and a leading newline, reversing each chunk once as it is yielded.
    Holding one string, not one per depth, keeps memory linear in n.
    """
    require_at_least(n, 1)
    if limit is not None:
        require_at_least(limit, 0, "limit")
    left = math.inf if limit is None else limit  # lines still to yield
    # descending: each part reversed, and the newline leads instead of ending
    step, end, text = (-1, "", "\n") if descending else (1, "\n", "")
    # a part that is not last is at most n // 2; n = 1's last pass reads sp[1] * 0
    sp = [str(i)[::step] + " " for i in range(max(n // 2, 1) + 1)]
    last = [str(i)[::step] + end for i in range(n + 1)]
    a = [0] * (n + 3)  # only the descent's parts are stored: backtracking reads them
    k = 1
    x = 1
    y = n - 1
    lines = []
    emit = lines.append
    while k > 0:
        top = k
        while 3 * x <= y:
            a[k] = x
            y -= x
            k += 1
        text += sp[x] * (k - top)
        while 2 * x <= y:
            head = text + sp[x]
            p = x
            q = y - x
            while p <= q:
                emit(head + sp[p] + last[q])
                p += 1
                q -= 1
            emit(head + last[y])
            x += 1
            y -= 1
        while x <= y:
            emit(text + sp[x] + last[y])
            x += 1
            y -= 1
        y += x - 1
        emit(text + last[y + 1])
        k -= 1
        text = text[:-len(sp[a[k]])]
        x = a[k] + 1
        if len(lines) >= left:
            del lines[left:]
            break
        if len(lines) >= CHUNK_LINES:
            yield _join(lines, descending)
            left -= len(lines)
            lines = []
            emit = lines.append
    if lines:
        yield _join(lines, descending)


def gen_v2_counted(n: int) -> OpCounters:
    """`gen_v2`'s loop with exact operation tallies; requires n >= 2.

    Nothing is emitted: a visit is a tally, and the array writes stay because
    they are counted.  Assignments count executed assignment lines including
    the three initializations; bool_evals counts loop-condition evaluations.
    With O outer, D descent and I ``x <= y`` passes, the tallies are those
    passes times the lines one pass executes:

    ============  ======================
    assignments   3 + 5O + 3D + 4I
    bool_evals    1 + 3O + D + I
    visits        O + I
    ============  ======================

    Only the outer loop adds one per pass.  I is read off x, which gains one
    per ``x <= y`` pass.  k gains one per descent pass and loses one per
    outer pass, from 1 down to 0, so D = O - 1.
    """
    from .counters import OpCounters

    require_at_least(n, 2)
    a = [0] * (n + 3)
    k = 1
    x = 1
    y = n - 1
    outer = inner = 0
    while k > 0:
        outer += 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        t = k + 1
        inner -= x
        while x <= y:
            a[k] = x
            a[t] = y
            x += 1
            y -= 1
        inner += x
        y += x - 1
        a[k] = y + 1
        k -= 1
        x = a[k] + 1
    descent = outer - 1
    return OpCounters(assignments=3 + 5 * outer + 3 * descent + 4 * inner,
                      bool_evals=1 + 3 * outer + descent + inner,
                      visits=outer + inner)


def gen_v3_counted(n: int) -> OpCounters:
    """`gen_v3`'s loop with exact operation tallies; requires n >= 2.

    Emits nothing and is counted as in `gen_v2_counted`, with O outer and D
    descent passes, and P, S and T passes of the ``2 * x <= y``, ``p <= q``
    and final ``x <= y`` loops:

    ============  ======================================
    assignments   3 + 6O + 3D + 8P + 4S + 4T
    bool_evals    1 + 4O + D + 2P + S + T
    visits        O + 2P + S + T
    ============  ======================================

    P, S and T are read off their loop variables: each pass adds one to x
    in the P and T loops and to p in the S loop.  D = O - 1, as there.
    """
    from .counters import OpCounters

    require_at_least(n, 2)
    a = [0] * (n + 3)
    k = 1
    x = 1
    y = n - 1
    outer = pairs = shifts = tail = 0
    while k > 0:
        outer += 1
        while 3 * x <= y:
            a[k] = x
            y -= x
            k += 1
        t = k + 1
        u = k + 2
        pairs -= x
        while 2 * x <= y:
            a[k] = x
            a[t] = x
            a[u] = y - x
            p = x + 1
            q = y - p
            while p <= q:
                a[t] = p
                a[u] = q
                p += 1
                q -= 1
            shifts += p - x - 1
            a[t] = y
            x += 1
            y -= 1
        pairs += x
        tail -= x
        while x <= y:
            a[k] = x
            a[t] = y
            x += 1
            y -= 1
        tail += x
        y += x - 1
        a[k] = y + 1
        k -= 1
        x = a[k] + 1
    descent = outer - 1
    return OpCounters(
        assignments=3 + 6 * outer + 3 * descent + 8 * pairs + 4 * shifts + 4 * tail,
        bool_evals=1 + 4 * outer + descent + 2 * pairs + shifts + tail,
        visits=outer + 2 * pairs + shifts + tail)


# One key per generator; `analysis._predicted` holds a formula for each COUNTED key.
ALGORITHMS = {1: gen_v1, 2: gen_v2, 3: gen_v3}
COUNTED = {2: gen_v2_counted, 3: gen_v3_counted}


def collect_compositions(n: int, alg: int = 3) -> list[tuple[int, ...]]:
    """Materialize all ascending compositions of n (guarded; tests/demos only)."""
    if alg not in ALGORITHMS:
        raise DomainError(f"alg must be one of {sorted(ALGORITHMS)}, got {alg}")
    require_at_least(n, 1)
    require_within(n, COLLECT_CAP, "collector")
    out = []

    def consumer(a, length):
        out.append(tuple(a[1:length + 1]))

    ALGORITHMS[alg](n, consumer)
    return out
