"""Inorder traversal of the partition binary tree, with operation tallies.

Three traversals produce the same visit sequence:

* `inorder_generic` -- textbook stack-based inorder that steps with
  `ptree`'s two child rules (every non-leaf node is pushed once);
* `inorder_v1` -- specialized to the partition binary tree: nodes (x, y)
  with 2x > y root subtrees whose shape is known in advance, so only nodes
  with 2x <= y are pushed;
* `inorder_v2` -- pushes only nodes with 3x <= y, walking the two known
  subtree shapes below a 2x <= y node inline.

All three take n and start at the root (1, n - 1).  Within a run of the
specialized two the child steps are pure arithmetic on (x, y): left child
is (x, y - x), right child is (x + 1, y - 1) with the sum x + y invariant,
and a leaf reached along the right spine is reconstructed as (x + y, 0).

The visitor is an optional callback ``visit(x, y)``, called at every
visit; it defaults to a no-op, for a run that wants the counters alone.
Counters follow the convention in `counters`, and each loop counts only its
passes: the `OpCounters` are passes times the lines one pass runs, weighted
by hand as tabled in each docstring.  The block profile of `blockprofile`
reads such weights off the source, but its rule has no clause for the
pushes and pops, which are `append`/`pop` calls here.
The passes are returned as `TraversalStats.loops`, because the exact
push/visit/iteration counts are the point of three variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counters import OpCounters
from .errors import require_at_least
from .ptree import strict_left_child, strict_right_child


@dataclass(frozen=True)
class TraversalStats:
    """Counters plus per-loop iteration counts.

    ``loops`` keys: "outer" (main loop), "descent" (left-descent loop, equal
    to pushes), "pairs" (leaf+parent visit loop), and for `inorder_v2`
    additionally "chain" (inner right-chain loop) and "tail" (trailing
    leaf+parent loop).
    """

    ops: OpCounters
    loops: dict[str, int]


def _no_visit(x, y):
    """The default visitor: the traversal runs for its counters alone."""


def _stats(assignments, bool_evals, visits, **loops) -> TraversalStats:
    # Every descent pass pushes once; every outer pass but the last pops once.
    ops = OpCounters(assignments=assignments, bool_evals=bool_evals,
                     pushes=loops["descent"], pops=loops["outer"] - 1,
                     visits=visits)
    return TraversalStats(ops=ops, loops=loops)


def inorder_generic(n: int, visit=_no_visit) -> TraversalStats:
    """Textbook stack-based inorder traversal of the binary tree of n.

    Starts at the root (1, n - 1) and steps with `ptree`'s child rules; a
    node is a leaf when y = 0.  Calls ``visit(x, y)`` at each node in
    inorder, 2 p(n) - 1 calls in all.  Every node with a left child is
    pushed exactly once, so pushes = pops = (number of non-leaf nodes).
    With O outer and D descent passes:

    ============  ==============
    assignments   2 + O + D
    bool_evals    1 + 3O + D
    pushes        D
    pops          O - 1
    visits        2O - 1
    ============  ==============
    """
    require_at_least(n, 1)
    stack = []
    push, pop = stack.append, stack.pop
    v = (1, n - 1)
    c = True
    outer = descent = 0
    while c:
        outer += 1
        while v[1] > 0:
            descent += 1
            push(v)
            v = strict_left_child(v)
        visit(*v)
        if stack:
            v = pop()
            visit(*v)
            v = strict_right_child(v)
        else:
            c = False
    return _stats(2 + outer + descent, 1 + 3 * outer + descent, 2 * outer - 1,
                  outer=outer, descent=descent)


def inorder_v1(n: int, visit=_no_visit) -> TraversalStats:
    """Inorder traversal pushing only nodes with 2x <= y.

    Makes the same ``visit`` calls as `inorder_generic`.  Counted as in
    `inorder_generic`, pushes and pops too, with P passes of the pair loop:

    ============  ==================
    assignments   2 + O + D + P
    bool_evals    1 + 4O + D + P
    visits        2O - 1 + 2P
    ============  ==================
    """
    require_at_least(n, 1)
    sx, sy = [0] * n, [0] * n
    top = -1
    x, y = 1, n - 1
    c = True
    outer = descent = pairs = 0
    while c:
        outer += 1
        while 2 * x <= y:
            descent += 1
            top += 1
            sx[top], sy[top] = x, y
            y -= x  # left child (x, y - x)
        while x <= y:
            pairs += 1
            visit(y, 0)
            visit(x, y)
            x, y = x + 1, y - 1  # right child (x + 1, y - 1)
        visit(x + y, 0)
        if top >= 0:
            x, y = sx[top], sy[top]
            top -= 1
            visit(x, y)
            x, y = x + 1, y - 1
        else:
            c = False
    return _stats(2 + outer + descent + pairs, 1 + 4 * outer + descent + pairs,
                  2 * outer - 1 + 2 * pairs, outer=outer, descent=descent, pairs=pairs)


def inorder_v2(n: int, visit=_no_visit) -> TraversalStats:
    """Inorder traversal pushing only nodes with 3x <= y.

    Makes the same ``visit`` calls as `inorder_generic`.  Counted as in
    `inorder_generic`, pushes and pops too, with P passes of the
    ``2 * x <= y`` loop, C of the right-chain loop and T of the tail loop:

    ============  ==============================
    assignments   2 + O + D + 2P + C + T
    bool_evals    1 + 5O + D + 2P + C + T
    visits        2O - 1 + 4P + 2C + 2T
    ============  ==============================
    """
    require_at_least(n, 1)
    sx, sy = [0] * n, [0] * n
    top = -1
    x, y = 1, n - 1
    c = True
    outer = descent = pairs = chain = tail = 0
    while c:
        outer += 1
        while 3 * x <= y:
            descent += 1
            top += 1
            sx[top], sy[top] = x, y
            y -= x
        while 2 * x <= y:
            pairs += 1
            visit(y - x, 0)
            visit(x, y - x)
            p, q = x + 1, y - x - 1  # right child of (x, y - x)
            while p <= q:
                chain += 1
                visit(q, 0)
                visit(p, q)
                p, q = p + 1, q - 1
            visit(p + q, 0)
            visit(x, y)
            x, y = x + 1, y - 1
        while x <= y:
            tail += 1
            visit(y, 0)
            visit(x, y)
            x, y = x + 1, y - 1
        visit(x + y, 0)
        if top >= 0:
            x, y = sx[top], sy[top]
            top -= 1
            visit(x, y)
            x, y = x + 1, y - 1
        else:
            c = False
    return _stats(2 + outer + descent + 2 * pairs + chain + tail,
                  1 + 5 * outer + descent + 2 * pairs + chain + tail,
                  2 * outer - 1 + 4 * pairs + 2 * chain + 2 * tail,
                  outer=outer, descent=descent, pairs=pairs, chain=chain, tail=tail)
