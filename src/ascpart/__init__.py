"""Integer partitions as ascending compositions.

Streaming generators that emit every partition of n in lexicographic order
as a nondecreasing composition, the partition-tree machinery they come
from, exact restricted-partition counting, instrumented operation-count
verification, and a small benchmark harness.
"""

from .analysis import (
    CountCheck,
    RatioRecord,
    RatioScan,
    budget_violations,
    format_ratio,
    r1_exact,
    r2_exact,
    ratio_table,
    verify_v2_counts,
    verify_v3_counts,
    write_ratio_csv,
)
from .bench import BenchRecord, BenchRow, bench_table, time_algorithm, write_bench_csv
from .counters import OpCounters
from .counting import DEFAULT_CAP, CountContext, InequalityReport
from .errors import AscpartError, CapacityError, DomainError
from .generate import (
    ALGORITHMS,
    COLLECT_CAP,
    collect_compositions,
    gen_v1,
    gen_v2,
    gen_v2_counted,
    gen_v3,
    gen_v3_counted,
)
from .oracle import ORACLE_CAP, brute_compositions, brute_ratio_count, has_ratio_property
from .ptree import (
    MATERIALIZE_CAP,
    Tree,
    build_partition_tree,
    build_strict_tree,
    decode_path,
    iter_root_to_leaf_paths,
    strict_left_child,
    strict_right_child,
    to_dot,
    tree_children,
)
from .traversal import TraversalStats, inorder_generic, inorder_v1, inorder_v2

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AscpartError",
    "BenchRecord",
    "BenchRow",
    "COLLECT_CAP",
    "CapacityError",
    "CountCheck",
    "CountContext",
    "DEFAULT_CAP",
    "DomainError",
    "InequalityReport",
    "MATERIALIZE_CAP",
    "OpCounters",
    "ORACLE_CAP",
    "RatioRecord",
    "RatioScan",
    "TraversalStats",
    "Tree",
    "bench_table",
    "brute_compositions",
    "brute_ratio_count",
    "budget_violations",
    "build_partition_tree",
    "build_strict_tree",
    "collect_compositions",
    "decode_path",
    "format_ratio",
    "gen_v1",
    "gen_v2",
    "gen_v2_counted",
    "gen_v3",
    "gen_v3_counted",
    "has_ratio_property",
    "inorder_generic",
    "inorder_v1",
    "inorder_v2",
    "iter_root_to_leaf_paths",
    "r1_exact",
    "r2_exact",
    "ratio_table",
    "strict_left_child",
    "strict_right_child",
    "time_algorithm",
    "to_dot",
    "tree_children",
    "verify_v2_counts",
    "verify_v3_counts",
    "write_bench_csv",
    "write_ratio_csv",
]
