"""Integer partitions as ascending compositions.

Streaming generators that emit every partition of n in lexicographic order
as a nondecreasing composition, the partition-tree machinery they come
from, exact restricted-partition counting, instrumented operation-count
verification, and a small benchmark harness.

Each public name below is imported from its submodule on first access, so
``import ascpart`` loads none of them and a caller pays only for what it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "analysis": ("budget_violations", "format_ratio", "r1_exact", "r2_exact", "ratio_csv",
                 "ratio_table", "verify_counts", "verify_v2_counts", "verify_v3_counts"),
    "bench": ("BenchRecord", "BenchRow", "bench_table", "time_algorithm", "write_bench_csv"),
    "counters": ("CountCheck", "InequalityReport", "OpCounters", "RatioRecord", "RatioScan"),
    "counting": ("DEFAULT_CAP", "CountContext"),
    "errors": ("AscpartError", "CapacityError", "DomainError"),
    "generate": ("ALGORITHMS", "COLLECT_CAP", "COUNTED", "VISIT_CAP", "collect_compositions",
                 "gen_v1", "gen_v2", "gen_v2_counted", "gen_v3", "gen_v3_counted"),
    "oracle": ("ORACLE_CAP", "brute_compositions", "brute_encoded", "brute_ratio_count",
               "has_ratio_property"),
    "ptree": ("MATERIALIZE_CAP", "Tree", "build_partition_tree", "build_strict_tree",
              "decode_path", "iter_root_to_leaf_paths", "strict_left_child",
              "strict_right_child", "to_dot", "tree_children"),
    "traversal": ("TraversalStats", "inorder_generic", "inorder_v1", "inorder_v2"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    """Import the public `name` from its submodule and keep it here (PEP 562)."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
