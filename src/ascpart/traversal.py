"""Inorder traversal of the partition binary tree, with operation tallies.

Three traversals produce the same visit sequence:

* `inorder_generic` -- textbook stack-based inorder over any strict binary
  tree (every non-leaf node is pushed once);
* `inorder_v1` -- specialized to the partition binary tree: nodes (x, y)
  with 2x > y root subtrees whose shape is known in advance, so only nodes
  with 2x <= y are pushed;
* `inorder_v2` -- pushes only nodes with 3x <= y, walking the two known
  subtree shapes below a 2x <= y node inline.

Within a run the child steps are pure arithmetic on (x, y): left child is
(x, y - x), right child is (x + 1, y - 1) with the sum x + y invariant, and
a leaf reached along the right spine is reconstructed as (x + y, 0).

The visitor is a plain callback ``visit(x, y)``; pass None to traverse for
the counters alone.  Counters follow the convention in `counters`; the
per-loop iteration tallies are returned alongside them because the exact
push/visit/iteration counts are the point of having three variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counters import OpCounters
from .errors import DomainError
from .ptree import Node, strict_left_child, strict_right_child


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


class FormulaStrictTree:
    """Strict-binary-tree view computed from the child formulas.

    Handles are (x, y) labels; no storage, so any n is fine.  Presents the
    same accessor surface as a materialized `ptree.Tree` of kind "binary".
    """

    kind = "binary"

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        self.n = n
        self.root = Node(1, n - 1)

    @staticmethod
    def label(handle):
        return handle

    @staticmethod
    def has_left(handle):
        return handle[1] > 0

    left = staticmethod(strict_left_child)
    right = staticmethod(strict_right_child)


def inorder_generic(tree, visit=None) -> TraversalStats:
    """Stack-based inorder traversal of a strict binary tree.

    ``tree`` is a materialized `ptree.Tree` of kind "binary" or a
    `FormulaStrictTree`.  Every node with a left child is pushed exactly
    once, so pushes = pops = (number of non-leaf nodes).
    """
    if getattr(tree, "kind", None) != "binary":
        raise DomainError("inorder_generic requires a strict binary tree")
    label, has_left, left, right = tree.label, tree.has_left, tree.left, tree.right
    stack = []
    push, pop = stack.append, stack.pop
    v = tree.root
    c = True
    assigns = 2  # the two initializations above
    bools = 0
    pushes = pops = visits = 0
    outer = descent = 0
    bools += 1
    while c:
        outer += 1
        bools += 1
        while has_left(v):
            descent += 1
            push(v)
            pushes += 1
            v = left(v)
            assigns += 1
            bools += 1
        if visit is not None:
            visit(*label(v))
        visits += 1
        bools += 1
        if stack:
            v = pop()
            pops += 1
            if visit is not None:
                visit(*label(v))
            visits += 1
            v = right(v)
            assigns += 1
        else:
            c = False
            assigns += 1
        bools += 1
    ops = OpCounters(assignments=assigns, bool_evals=bools,
                     pushes=pushes, pops=pops, visits=visits)
    return TraversalStats(ops=ops, loops={"outer": outer, "descent": descent})


def inorder_v1(n: int, visit=None) -> TraversalStats:
    """Inorder traversal pushing only nodes with 2x <= y."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    sx = [0] * n
    sy = [0] * n
    top = -1
    x, y = 1, n - 1
    c = True
    assigns = 2
    bools = 0
    pushes = pops = visits = 0
    outer = descent = pairs = 0
    bools += 1
    while c:
        outer += 1
        bools += 1
        while 2 * x <= y:
            descent += 1
            top += 1
            sx[top] = x
            sy[top] = y
            pushes += 1
            y -= x  # left child (x, y - x)
            assigns += 1
            bools += 1
        bools += 1
        while x <= y:
            pairs += 1
            if visit is not None:
                visit(y, 0)
                visit(x, y)
            visits += 2
            x += 1  # right child (x + 1, y - 1)
            y -= 1
            assigns += 1
            bools += 1
        if visit is not None:
            visit(x + y, 0)
        visits += 1
        bools += 1
        if top >= 0:
            x = sx[top]
            y = sy[top]
            top -= 1
            pops += 1
            if visit is not None:
                visit(x, y)
            visits += 1
            x += 1
            y -= 1
            assigns += 1
        else:
            c = False
            assigns += 1
        bools += 1
    ops = OpCounters(assignments=assigns, bool_evals=bools,
                     pushes=pushes, pops=pops, visits=visits)
    return TraversalStats(ops=ops, loops={"outer": outer, "descent": descent,
                                          "pairs": pairs})


def inorder_v2(n: int, visit=None) -> TraversalStats:
    """Inorder traversal pushing only nodes with 3x <= y."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    sx = [0] * n
    sy = [0] * n
    top = -1
    x, y = 1, n - 1
    c = True
    assigns = 2
    bools = 0
    pushes = pops = visits = 0
    outer = descent = pairs = chain = tail = 0
    bools += 1
    while c:
        outer += 1
        bools += 1
        while 3 * x <= y:
            descent += 1
            top += 1
            sx[top] = x
            sy[top] = y
            pushes += 1
            y -= x
            assigns += 1
            bools += 1
        bools += 1
        while 2 * x <= y:
            pairs += 1
            if visit is not None:
                visit(y - x, 0)
                visit(x, y - x)
            visits += 2
            p = x + 1  # right child of (x, y - x)
            q = y - x - 1
            assigns += 1
            bools += 1
            while p <= q:
                chain += 1
                if visit is not None:
                    visit(q, 0)
                    visit(p, q)
                visits += 2
                p += 1
                q -= 1
                assigns += 1
                bools += 1
            if visit is not None:
                visit(p + q, 0)
                visit(x, y)
            visits += 2
            x += 1
            y -= 1
            assigns += 1
            bools += 1
        bools += 1
        while x <= y:
            tail += 1
            if visit is not None:
                visit(y, 0)
                visit(x, y)
            visits += 2
            x += 1
            y -= 1
            assigns += 1
            bools += 1
        if visit is not None:
            visit(x + y, 0)
        visits += 1
        bools += 1
        if top >= 0:
            x = sx[top]
            y = sy[top]
            top -= 1
            pops += 1
            if visit is not None:
                visit(x, y)
            visits += 1
            x += 1
            y -= 1
            assigns += 1
        else:
            c = False
            assigns += 1
        bools += 1
    ops = OpCounters(assignments=assigns, bool_evals=bools,
                     pushes=pushes, pops=pops, visits=visits)
    return TraversalStats(ops=ops, loops={"outer": outer, "descent": descent,
                                          "pairs": pairs, "chain": chain,
                                          "tail": tail})
