"""Tree construction, hand-checked structure, path decoding, DOT export."""

import gc

import pytest

from ascpart import (
    DomainError,
    build_partition_tree,
    build_strict_tree,
    decode_path,
    iter_root_to_leaf_paths,
    strict_left_child,
    strict_right_child,
    to_dot,
    tree_children,
)
from ascpart.oracle import brute_compositions


def test_children_rule():
    assert tree_children((1, 6)) == [(1, 5), (2, 4), (3, 3), (6, 0)]
    assert tree_children((2, 3)) == [(3, 0)]
    assert tree_children((2, 4)) == [(2, 2), (4, 0)]
    assert tree_children((1, 1)) == [(1, 0)]
    with pytest.raises(DomainError):
        tree_children((5, 0))


def test_strict_child_rule():
    cases = {
        (1, 5): ((1, 4), (2, 4)),
        (1, 4): ((1, 3), (2, 3)),
        (1, 3): ((1, 2), (2, 2)),
        (1, 2): ((1, 1), (3, 0)),
        (1, 1): ((1, 0), (2, 0)),
        (2, 4): ((2, 2), (3, 3)),
        (2, 3): ((3, 0), (5, 0)),
        (2, 2): ((2, 0), (4, 0)),
        (3, 3): ((3, 0), (6, 0)),
    }
    for node, (left, right) in cases.items():
        assert strict_left_child(node) == left
        assert strict_right_child(node) == right
    with pytest.raises(DomainError):
        strict_left_child((3, 0))
    with pytest.raises(DomainError):
        strict_right_child((3, 0))


def test_partition_tree_of_six():
    tree = build_partition_tree(6)
    assert tree.node_count == 22
    assert tree.leaf_count == 11
    assert tree.labels[0] == (1, 6)
    assert all(type(label) is tuple for label in tree.labels)
    root_kids = [tree.labels[i] for i in tree.children[0]]
    assert root_kids == [(1, 5), (2, 4), (3, 3), (6, 0)]


def test_strict_tree_of_six():
    tree = build_strict_tree(6)
    assert tree.node_count == 21
    assert tree.leaf_count == 11
    assert tree.labels[0] == (1, 5)
    # kids are [left, right] by the child rules, or none at a leaf
    for n in range(1, 26):
        tree = build_strict_tree(n)
        for label, kids in zip(tree.labels, tree.children):
            rules = [strict_left_child(label), strict_right_child(label)] if label[1] else []
            assert [tree.labels[j] for j in kids] == rules, (n, label)


def test_trivial_trees():
    assert build_strict_tree(1).labels == [(1, 0)]
    one = build_partition_tree(1)
    assert one.node_count == 2 and one.leaf_count == 1


def test_decode_path_examples():
    assert decode_path([(1, 5), (1, 4), (1, 3), (2, 2), (2, 0)]) == (1, 1, 2, 2)
    assert decode_path([(1, 5), (2, 4), (3, 3), (6, 0)]) == (6,)
    assert decode_path([(1, 0)]) == (1,)


def test_decode_path_rejects_non_paths():
    with pytest.raises(DomainError):
        decode_path([])
    with pytest.raises(DomainError):
        decode_path([(2, 4), (2, 2), (2, 0)])  # does not start at a root
    with pytest.raises(DomainError):
        decode_path([(1, 5), (1, 4)])  # does not end at a leaf
    with pytest.raises(DomainError):
        decode_path([(1, 5), (2, 2)])  # (2, 2) is not a child of (1, 5)
    with pytest.raises(DomainError, match=r"^\(2, 0\) is not a child of \(1, 5\)$"):
        decode_path([(1, 5), (2, 0)])
    with pytest.raises(DomainError):
        decode_path([(1, 0), (1, 0)])  # leaf in the interior


def test_paths_are_freed_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in iter_root_to_leaf_paths(build_strict_tree(12)):
            pass
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_partition_paths_spell_compositions():
    # root-to-leaf paths of the partition tree, x coordinates past the root
    for n in range(1, 21):
        tree = build_partition_tree(n)
        spelled = sorted(tuple(node[0] for node in path[1:])
                         for path in iter_root_to_leaf_paths(tree))
        assert spelled == brute_compositions(n)


def _as_nested(tree, i=0):
    kids = tree.children[i]
    if not kids:
        return (tree.labels[i], None, None)
    return (tree.labels[i], _as_nested(tree, kids[0]), _as_nested(tree, kids[1]))


def _converted_nested(tree):
    """Left-child / right-sibling conversion of a partition tree, root dropped."""

    def conv(i, later_siblings):
        kids = tree.children[i]
        left = conv(kids[0], kids[1:]) if kids else None
        right = conv(later_siblings[0], later_siblings[1:]) if later_siblings else None
        return (tree.labels[i], left, right)

    first, *rest = tree.children[0]
    return conv(first, rest)


def test_strict_tree_is_converted_partition_tree():
    for n in range(1, 21):
        assert _converted_nested(build_partition_tree(n)) == _as_nested(build_strict_tree(n))


def test_dot_output():
    dot = to_dot(build_partition_tree(6))
    assert dot.count("[label=") == 22
    assert dot.count(" -> ") == 21
    assert dot == to_dot(build_partition_tree(6))
    assert dot.startswith("digraph partition_tree_6 {")

    tiny = to_dot(build_strict_tree(1))
    assert tiny.count("[label=") == 1
    assert " -> " not in tiny
    assert '0 [label="1,0"];' in tiny


def test_dot_duplicate_labels_are_distinct_nodes():
    dot = to_dot(build_partition_tree(6))
    assert dot.count('[label="2,2"]') == 2


PARTITION_TREE_4_DOT = """\
digraph partition_tree_4 {
  0 [label="1,4"];
  1 [label="1,3"];
  2 [label="2,2"];
  3 [label="4,0"];
  4 [label="1,2"];
  5 [label="3,0"];
  6 [label="1,1"];
  7 [label="2,0"];
  8 [label="1,0"];
  9 [label="2,0"];
  0 -> 1;
  0 -> 2;
  0 -> 3;
  1 -> 4;
  1 -> 5;
  2 -> 9;
  4 -> 6;
  4 -> 7;
  6 -> 8;
}
"""

BINARY_TREE_4_DOT = """\
digraph binary_tree_4 {
  0 [label="1,3"];
  1 [label="1,2"];
  2 [label="2,2"];
  3 [label="1,1"];
  4 [label="3,0"];
  5 [label="1,0"];
  6 [label="2,0"];
  7 [label="2,0"];
  8 [label="4,0"];
  0 -> 1;
  0 -> 2;
  1 -> 3;
  1 -> 4;
  2 -> 7;
  2 -> 8;
  3 -> 5;
  3 -> 6;
}
"""


def test_dot_output_of_four_in_full():
    assert to_dot(build_partition_tree(4)) == PARTITION_TREE_4_DOT
    assert to_dot(build_strict_tree(4)) == BINARY_TREE_4_DOT
