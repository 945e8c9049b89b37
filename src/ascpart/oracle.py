"""Deliberately naive brute-force reference used to validate everything else.

Enumerates ascending compositions by direct recursion (first part from the
minimum upward, recurse on the remainder) and counts by filtering the
materialized list.  The recursion only tries parts up to half of what
remains, then ends the composition with the whole remainder: any other part
above the half would leave a remainder smaller than itself, which no
ascending continuation can fill, so those calls would all be dead ends.
Otherwise no cleverness on purpose; capacity is guarded because the lists
grow like p(n).
"""

from __future__ import annotations

from .errors import require_at_least, require_within

# Enumeration cap.  p(60) is just under a million compositions, which is the
# largest list the exhaustive cross-check suites ask for.
ORACLE_CAP = 60


def _extend(out, parts, remaining, lo):
    """Append ``parts + c`` for each ascending composition c of ``remaining``.

    The parts of c are >= ``lo``, which must be <= ``remaining``; the c come
    in lexicographic order.
    """
    for part in range(lo, remaining // 2 + 1):
        _extend(out, parts + (part,), remaining - part, part)
    out.append(parts + (remaining,))


def brute_compositions(n: int, m: int = 1) -> list[tuple[int, ...]]:
    """All ascending compositions of n with parts >= m, in lexicographic order."""
    require_at_least(m, 1, "minimum part")
    require_at_least(n, 1)
    require_within(n, ORACLE_CAP, "brute-force")
    out = []
    if n >= m:
        _extend(out, (), n, m)
    return out


def has_ratio_property(parts, t: int) -> bool:
    """True if the largest part is >= t times the second largest.

    ``parts`` is an ascending composition, so the largest part is last.
    Compositions with fewer than two parts, the empty one of 0 included,
    qualify unconditionally.
    """
    return len(parts) < 2 or parts[-1] >= t * parts[-2]


def brute_ratio_count(n: int, m: int, t: int) -> int:
    """Count of brute_compositions(n, m) entries with the ratio property."""
    require_at_least(t, 1, "ratio factor")
    return sum(1 for c in brute_compositions(n, m) if has_ratio_property(c, t))
