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
tallies at n, which `analysis` predicts from p(n), d(n) and r(n).  They read
them off a block profile of the plain loop (Knuth & Stevenson, BIT 1973), so
each loop has one copy: `_profile` compiles a copy of the generator without
its visits and its ``count`` bookkeeping, with a counter per block, and
weighs each block by one rule; a tally is each block's runs times its
weights.  A counter sits at the head of its block, except that a loop whose
every pass adds one to a variable v, and writes v nowhere else, has its
passes read off v's change, as the plain loops read their emitted count:
the descent and ``x <= y`` loops and `gen_v3`'s ``p <= q`` loop cost the
profile a few additions per outer pass and none per inner pass.  Each
block's runs are a partition class, which is why the formulas hold.  With
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

from functools import cache

from .errors import require_at_least, require_one_of, require_within

# The counted variants import OpCounters, named in their annotations, and
# the profile its ast and inspect, when called, as every record in `counters`
# is imported by the function that builds it: the plain generators load none.

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


@cache
def _profile(gen):
    """`gen`'s block profile: (run, weights), built once per generator.

    ``run(n, consumer)`` is a compiled copy of `gen` without its
    ``consumer(...)`` calls and its assignments to ``count`` (the
    emitted-count bookkeeping, never returned) that returns how often each
    block ran: the function body, then each loop body and ``if``/``else``
    branch in source order.  ``weights`` holds each block's (assignments,
    bool_evals, visits), read off the source by the convention of `counters`:

    * an assignment statement counts once, except one to ``count`` and the
      buffer allocation ``a = [0] * ...``;
    * a ``while`` test counts once in the block that holds it and once more
      per pass of its body, and an ``if`` test once;
    * a ``consumer(...)`` call is a visit, and any other expression statement
      (the docstring, the guard) and the final ``return`` count nothing.

    Each block's counter is a local that the copy adds one to at the block's
    head, except for a unit-step loop, whose passes are read off its loop
    variable, as Knuth & Stevenson place no counter where a count follows
    from what is known: a ``while`` whose test writes nothing (no ``:=``)
    and whose body, visits aside, is assignments alone that write some name
    v once, as ``v += 1``, runs as often as v grows.  Its counter takes v
    off before the loop and adds v back after it, two operations per entry
    instead of one per pass.  Any other loop, ``v += 2`` or a second write
    to v included, keeps its head counter.

    Any other statement raises ValueError: a profile that cannot weigh a
    statement returns no count.
    """
    import ast
    import inspect

    func = ast.parse(inspect.getsource(gen)).body[0]
    ast.increment_lineno(func, gen.__code__.co_firstlineno - 1)
    if isinstance(func.body[-1], ast.Return):
        func.body.pop()
    weights = []

    def is_visit(stmt):
        return isinstance(stmt, ast.Expr) and ast.unparse(stmt.value).startswith("consumer(")

    def unit_step(loop):
        """The name v that `loop`'s body writes only as ``v += 1``, if its passes are v's change.

        That needs a body of assignments and visits alone, and a test that
        writes nothing; otherwise None.
        """
        body = [stmt for stmt in loop.body if not is_visit(stmt)]
        if (any(isinstance(node, ast.NamedExpr) for node in ast.walk(loop.test))
                or not all(isinstance(stmt, (ast.Assign, ast.AugAssign)) for stmt in body)):
            return None
        writes = [node.id for stmt in body for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        sources = [ast.unparse(stmt) for stmt in body]
        return next((v for v in writes if writes.count(v) == 1 and f"{v} += 1" in sources), None)

    def block(body, evals, head=True):
        """Weigh `body` and return it without the visits, headed by its counter if `head`."""
        weight = [0, evals, 0]
        kept = ast.parse(f"_block{len(weights)} += 1").body if head else []
        weights.append(weight)
        for stmt in body:
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                source = ast.unparse(stmt)
                if source.startswith("count "):
                    continue
                weight[0] += not source.startswith("a = [0] *")
            elif isinstance(stmt, ast.While) and not stmt.orelse:
                weight[1] += 1
                counter, step = f"_block{len(weights)}", unit_step(stmt)
                stmt.body = block(stmt.body, 1, head=not step)
                if step:
                    kept += [*ast.parse(f"{counter} -= {step}").body, stmt,
                             *ast.parse(f"{counter} += {step}").body]
                    continue
            elif isinstance(stmt, ast.If):
                weight[1] += 1
                stmt.body = block(stmt.body, 0)
                if stmt.orelse:
                    stmt.orelse = block(stmt.orelse, 0)
            elif isinstance(stmt, ast.Expr):
                if is_visit(stmt):
                    weight[2] += 1
                    continue
            else:
                raise ValueError(f"cannot weigh {gen.__name__}'s {type(stmt).__name__} statement"
                                 f" at line {stmt.lineno}: {ast.unparse(stmt).splitlines()[0]}")
            kept.append(stmt)
        return kept

    body = block(func.body, 0)
    counters = [f"_block{i}" for i in range(len(weights))]
    func.body = [*ast.parse(" = ".join([*counters, "0"])).body, *body,
                 *ast.parse(f"return {', '.join(counters)},").body]
    namespace = {}
    exec(compile(ast.fix_missing_locations(ast.Module([func], [])), gen.__code__.co_filename,
                 "exec"), gen.__globals__, namespace)
    return namespace[func.name], tuple(map(tuple, weights))


def _tally(gen, n):
    """`gen`'s `OpCounters` at n: each block's runs times its weights."""
    from .counters import OpCounters

    run, weights = _profile(gen)
    runs = run(n, None)
    assignments, bool_evals, visits = (sum(r * w for r, w in zip(runs, column))
                                       for column in zip(*weights))
    return OpCounters(assignments=assignments, bool_evals=bool_evals, visits=visits)


def gen_v2_counted(n: int) -> OpCounters:
    """`gen_v2`'s exact operation tallies at n, read off its block profile; requires n >= 2."""
    require_at_least(n, 2)
    return _tally(gen_v2, n)


def gen_v3_counted(n: int) -> OpCounters:
    """`gen_v3`'s exact operation tallies at n, read off its block profile; requires n >= 2."""
    require_at_least(n, 2)
    return _tally(gen_v3, n)


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
