"""Materialized partition trees for small n, plus path decoding and DOT export.

Two tree shapes share the node labeling (x, y) = (minimum allowed next part,
residual still to be summed):

* the *partition tree* of n, rooted at (1, n): a node (x, y) with y > 0 has
  one child (x', y - x') for each x' in {x, ..., y // 2} followed by the
  leaf child (y, 0); root-to-leaf paths spell out the ascending
  compositions of n through their x coordinates.
* the *binary tree* of n, rooted at (1, n - 1): the left-child /
  right-sibling conversion of the partition tree with the old root dropped.
  Every node with y > 0 has exactly two children, given in closed form by
  `strict_left_child` / `strict_right_child`; nodes with y = 0 are leaves.

The partition tree of n has 2 p(n) nodes and p(n) leaves; the binary tree
has 2 p(n) - 1 nodes and the same leaves.  Materialization is a testing and
visualization tool only, so n is guarded; the traversal and generation
modules use the child formulas directly and never allocate trees.  A built
`Tree` is plain data, read by `to_dot`, the path tools and `checks.trees`:
its labels are the plain (x, y) tuples the child functions return, and its
children are per-node index lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapacityError, DomainError

# p(40) = 37338 keeps arenas comfortably small.
MATERIALIZE_CAP = 40


def tree_children(parent: tuple[int, int]) -> list[tuple[int, int]]:
    """Ordered children of a partition-tree node; error on leaves (y = 0)."""
    x, y = parent
    if y <= 0:
        raise DomainError(f"node {parent!r} is a leaf and has no children")
    kids = [(xp, y - xp) for xp in range(x, y // 2 + 1)]
    kids.append((y, 0))
    return kids


def strict_left_child(node: tuple[int, int]) -> tuple[int, int]:
    x, y = node
    if y <= 0:
        raise DomainError(f"node {node!r} is a leaf in the binary tree")
    return (x, y - x) if 2 * x <= y else (y, 0)


def strict_right_child(node: tuple[int, int]) -> tuple[int, int]:
    x, y = node
    if y <= 0:
        raise DomainError(f"node {node!r} is a leaf in the binary tree")
    return (x + 1, y - 1) if x + 2 <= y else (x + y, 0)


@dataclass(frozen=True)
class Tree:
    """Arena-backed tree: labels plus per-node ordered child index lists.

    Index 0 is the root.  Immutable after construction; safe to share.
    """

    kind: str  # "partition" or "binary"
    n: int
    labels: list[tuple[int, int]]
    children: list[list[int]]

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def leaf_count(self) -> int:
        return sum(1 for kids in self.children if not kids)


def _build(kind, n, root, child_fn):
    labels = [root]
    children: list[list[int]] = [[]]
    stack = [0]
    while stack:
        i = stack.pop()
        node = labels[i]
        if node[1] == 0:
            continue
        kid_ids = []
        for kid in child_fn(node):
            kid_ids.append(len(labels))
            labels.append(kid)
            children.append([])
        children[i] = kid_ids
        stack.extend(reversed(kid_ids))
    return Tree(kind=kind, n=n, labels=labels, children=children)


def _guard(n):
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MATERIALIZE_CAP:
        raise CapacityError(f"n={n} exceeds the materialization cap {MATERIALIZE_CAP}")


def build_partition_tree(n: int) -> Tree:
    _guard(n)
    return _build("partition", n, (1, n), tree_children)


def build_strict_tree(n: int) -> Tree:
    _guard(n)
    return _build(
        "binary", n, (1, n - 1),
        lambda node: (strict_left_child(node), strict_right_child(node)),
    )


def iter_root_to_leaf_paths(tree: Tree) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every root-to-leaf label path, children in stored order."""
    labels, children = tree.labels, tree.children
    path: list[tuple[int, int]] = []
    stack = [(0, 0)]  # (node index, its depth)
    while stack:
        i, depth = stack.pop()
        del path[depth:]
        path.append(labels[i])
        kids = children[i]
        if kids:
            stack.extend((j, depth + 1) for j in reversed(kids))
        else:
            yield tuple(path)


def decode_path(path: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Ascending composition encoded by a root-to-leaf path of the binary tree.

    Keeps the leaf and every node whose successor on the path is its left
    child, then reads off the x coordinates.
    """
    if not path:
        raise DomainError("empty path")
    nodes = [(x, y) for x, y in path]
    if nodes[0][0] != 1:
        raise DomainError(f"path does not start at a root label: {nodes[0]!r}")
    if nodes[-1][1] != 0:
        raise DomainError(f"path does not end at a leaf: {nodes[-1]!r}")
    parts = []
    for cur, nxt in zip(nodes, nodes[1:]):
        x, y = cur
        if y == 0:
            raise DomainError(f"interior node {cur!r} is a leaf")
        if nxt == strict_left_child(cur):
            parts.append(x)
        elif nxt != strict_right_child(cur):
            raise DomainError(f"{nxt!r} is not a child of {cur!r}")
    parts.append(nodes[-1][0])
    return tuple(parts)


def to_dot(tree: Tree) -> str:
    """Render the tree as a DOT digraph; output is deterministic.

    Node identifiers are arena indices (labels repeat across nodes), labels
    are "x,y", and edges follow child order, left before right.
    """
    lines = [f"digraph {tree.kind}_tree_{tree.n} {{"]
    for i, (x, y) in enumerate(tree.labels):
        lines.append(f'  {i} [label="{x},{y}"];')
    for i, kids in enumerate(tree.children):
        for j in kids:
            lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
