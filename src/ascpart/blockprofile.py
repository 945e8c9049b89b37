"""The block profile that the counted generators read their tallies off.

`profile(gen)` compiles, once per generator, a copy of a plain loop of
`generate` with a counter per block and without its visits (Knuth &
Stevenson, *Optimal measurement points for program frequency counts*, BIT
1973), and `tally(gen, n)` weighs each block's runs into `OpCounters`.
`generate.gen_v2_counted` and `gen_v3_counted` import this module when they
are called, so ``import ascpart``, the plain generators and every command
but ``verify`` neither compile it nor load the ``ast`` and ``inspect`` it
needs.
"""

from __future__ import annotations

import ast
import inspect
from functools import cache


def _is_visit(stmt):
    return isinstance(stmt, ast.Expr) and ast.unparse(stmt.value).startswith("consumer(")


def _reads_count(stmt):
    """True if `stmt` reads ``count``, in its test alone if it is a ``while`` or ``if``."""
    own = stmt.test if isinstance(stmt, (ast.While, ast.If)) else stmt
    return any(isinstance(node, ast.Name) and node.id == "count" and isinstance(node.ctx, ast.Load)
               for node in ast.walk(own))


def _refusal(gen, stmt):
    return ValueError(f"cannot weigh {gen.__name__}'s {type(stmt).__name__} statement"
                      f" at line {stmt.lineno}: {ast.unparse(stmt).splitlines()[0]}")


def _unit_step(loop):
    """The name v that `loop`'s body writes only as ``v += 1``, if its passes are v's change.

    That needs a body of assignments and visits alone, and a test that
    writes nothing; otherwise None.
    """
    body = [stmt for stmt in loop.body if not _is_visit(stmt)]
    if (any(isinstance(node, ast.NamedExpr) for node in ast.walk(loop.test))
            or not all(isinstance(stmt, (ast.Assign, ast.AugAssign)) for stmt in body)):
        return None
    writes = [node.id for stmt in body for node in ast.walk(stmt)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    sources = [ast.unparse(stmt) for stmt in body]
    return next((v for v in writes if writes.count(v) == 1 and f"{v} += 1" in sources), None)


def _conserved(func):
    """Each conserved name v of `func`, mapped to its ``v = ...`` and its ``v -= 1``.

    v is no parameter and is written only by one ``v = ...`` in the function
    body itself, one ``v += 1`` and one ``v -= 1`` outside a unit-step loop,
    in a block with a head counter.  A write before the ``v = ...`` would
    read an unbound local, so from there to the end v changes only by those
    two statements.
    """
    parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
    writes = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            writes.setdefault(node.id, []).append(parents[node])
    parameters = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    found = {}
    for v, stmts in writes.items():
        by_source = {ast.unparse(stmt): stmt for stmt in stmts}
        init = [stmt for stmt in stmts if isinstance(stmt, ast.Assign) and parents[stmt] is func]
        drop = by_source.get(f"{v} -= 1")
        if (len(stmts) == 3 and init and f"{v} += 1" in by_source and drop
                and v not in parameters
                and not (isinstance(parents[drop], ast.While) and _unit_step(parents[drop]))):
            found[v] = init[0], drop
    return found


@cache
def profile(gen):
    """`gen`'s block profile: (run, weights), built once per generator.

    ``run(n, consumer)`` is a compiled copy of `gen` without its
    ``consumer(...)`` calls and its assignments to ``count`` alone (the
    emitted-count bookkeeping, never returned) that returns how often each
    block ran: the function body, then each loop body and ``if``/``else``
    branch in source order.  ``weights`` holds each block's (assignments,
    bool_evals, visits), read off the source by the convention of `counters`:

    * an assignment statement counts once, except one whose only target is
      ``count``, which the copy drops, and the buffer allocation
      ``a = [0] * ...``;
    * a ``while`` test counts once in the block that holds it and once more
      per pass of its body, and an ``if`` test once;
    * a ``consumer(...)`` call is a visit, and any other expression statement
      (the docstring, the guard) and the final ``return`` count nothing.

    Each block's counter is a local that the copy adds one to at the block's
    head, except for a unit-step loop, whose passes are read off its loop
    variable, as Knuth & Stevenson place no counter where a count follows
    from what is known.  A ``while`` whose test writes nothing (no ``:=``)
    and whose body, visits aside, is assignments alone that write some name
    v once, as ``v += 1``, runs as often as v grows:

    * if v is conserved, written only by one ``v = ...`` in the function
      body itself, that ``v += 1`` and one ``v -= 1`` in a block with a head
      counter, the passes are v's value at the end, less its value after the
      ``v = ...``, plus the runs of the ``v -= 1``'s block: the copy takes v
      off once after the ``v = ...`` and adds the rest back once at the end,
      and pays nothing per entry into the loop (the descent loops of
      `gen_v2` and `gen_v3`, whose k drops once per outer pass);
    * otherwise its counter takes v off before the loop and adds v back
      after it, two operations per entry instead of one per pass.

    Any other loop, ``v += 2`` or a second write to v included, keeps its
    head counter, and a v written any other way, as ``v -= 2``, gets the
    pair.  Any other statement raises ValueError, and so does one that reads
    ``count`` other than the final ``return``, as the copy drops ``count``'s
    own assignments: a profile that cannot weigh a statement returns no count.
    """
    func = ast.parse(inspect.getsource(gen)).body[0]
    ast.increment_lineno(func, gen.__code__.co_firstlineno - 1)
    if isinstance(func.body[-1], ast.Return):
        func.body.pop()
    conserved = _conserved(func)
    drops = {drop: v for v, (_, drop) in conserved.items()}
    weights = []
    loop_counter, drop_counter = {}, {}  # for each conserved v that a unit-step loop reads

    def block(body, evals, head=True):
        """Weigh `body` and return it without the visits, headed by its counter if `head`."""
        own = f"_block{len(weights)}"
        weight = [0, evals, 0]
        kept = ast.parse(f"{own} += 1").body if head else []
        weights.append(weight)
        for stmt in body:
            if _reads_count(stmt):
                raise _refusal(gen, stmt)
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                source = ast.unparse(stmt)
                if source.startswith("count ") and len(getattr(stmt, "targets", ())) < 2:
                    continue
                weight[0] += not source.startswith("a = [0] *")
                if stmt in drops:
                    drop_counter[drops[stmt]] = own
            elif isinstance(stmt, ast.While) and not stmt.orelse:
                weight[1] += 1
                counter, step = f"_block{len(weights)}", _unit_step(stmt)
                stmt.body = block(stmt.body, 1, head=not step)
                if step in conserved:
                    loop_counter[step] = counter
                elif step:
                    kept += [*ast.parse(f"{counter} -= {step}").body, stmt,
                             *ast.parse(f"{counter} += {step}").body]
                    continue
            elif isinstance(stmt, ast.If):
                weight[1] += 1
                stmt.body = block(stmt.body, 0)
                if stmt.orelse:
                    stmt.orelse = block(stmt.orelse, 0)
            elif isinstance(stmt, ast.Expr):
                if _is_visit(stmt):
                    weight[2] += 1
                    continue
            else:
                raise _refusal(gen, stmt)
            kept.append(stmt)
        return kept

    body = block(func.body, 0)
    for v, counter in loop_counter.items():
        init = conserved[v][0]
        body.insert(body.index(init) + 1, ast.parse(f"{counter} -= {v}").body[0])
        body += ast.parse(f"{counter} += {v} + {drop_counter[v]}").body
    counters = [f"_block{i}" for i in range(len(weights))]
    func.body = [*ast.parse(" = ".join([*counters, "0"])).body, *body,
                 *ast.parse(f"return {', '.join(counters)},").body]
    namespace = {}
    exec(compile(ast.fix_missing_locations(ast.Module([func], [])), gen.__code__.co_filename,
                 "exec"), gen.__globals__, namespace)
    return namespace[func.name], tuple(map(tuple, weights))


def tally(gen, n):
    """`gen`'s `OpCounters` at n: each block's runs times its weights."""
    from .counters import OpCounters

    run, weights = profile(gen)
    runs = run(n, None)
    assignments, bool_evals, visits = (sum(r * w for r, w in zip(runs, column))
                                       for column in zip(*weights))
    return OpCounters(assignments=assignments, bool_evals=bool_evals, visits=visits)
