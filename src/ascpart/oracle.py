"""Deliberately naive brute-force reference used to validate everything else.

Enumerates ascending compositions by direct recursion (first part from the
minimum upward, recurse on the remainder) and counts by filtering the
materialized list.  The recursion only tries parts up to half of what
remains, then ends the composition with the whole remainder: any other part
above the half would leave a remainder smaller than itself, which no
ascending continuation can fill, so those calls would all be dead ends.
Otherwise no cleverness on purpose; capacity is guarded because the lists
grow like p(n).

The one recursion builds each composition from a table of one-part
sequences, so it has two leaf types.  `brute_compositions` gives tuples.
`brute_encoded` gives the same compositions in the same order as ``bytes``,
one byte a part: every part is at most ``ORACLE_CAP`` = 60, so a byte holds
any of them.  At n = 45 a composition takes about 48 bytes as ``bytes``
against 144 as a tuple, and the whole list 4.7 MiB live against 12.3 MiB.
"""

from __future__ import annotations

from .errors import require_at_least, require_within

# Enumeration cap.  p(60) is just under a million compositions, which is the
# largest list the exhaustive cross-check suites ask for.
ORACLE_CAP = 60

# The one-part sequence of each part 0..ORACLE_CAP, in each leaf type.
_TUPLES = tuple((part,) for part in range(ORACLE_CAP + 1))
_BYTES = tuple(bytes((part,)) for part in range(ORACLE_CAP + 1))


def _extend(out, parts, remaining, lo, single):
    """Append ``parts + c`` for each ascending composition c of ``remaining``.

    The parts of c are >= ``lo``, which must be <= ``remaining``; the c come
    in lexicographic order, each built from the one-part sequences ``single``.
    """
    for part in range(lo, remaining // 2 + 1):
        _extend(out, parts + single[part], remaining - part, part, single)
    out.append(parts + single[remaining])


def _brute(n, m, single):
    """The ascending compositions of n with parts >= m, built from ``single``."""
    require_at_least(m, 1, "minimum part")
    require_at_least(n, 1)
    require_within(n, ORACLE_CAP, "brute-force")
    out = []
    if n >= m:
        _extend(out, single[0][:0], n, m, single)  # from the empty sequence
    return out


def brute_compositions(n: int, m: int = 1) -> list[tuple[int, ...]]:
    """All ascending compositions of n with parts >= m, in lexicographic order."""
    return _brute(n, m, _TUPLES)


def brute_encoded(n: int, m: int = 1) -> list[bytes]:
    """`brute_compositions(n, m)` in the same order, each as ``bytes``, one byte a part."""
    return _brute(n, m, _BYTES)


def has_ratio_property(parts, t: int) -> bool:
    """True if the largest part is >= t times the second largest.

    ``parts`` is an ascending composition, as a tuple or the oracle's bytes,
    so the largest part is last.  Compositions with fewer than two parts, the
    empty one of 0 included, qualify unconditionally.
    """
    return len(parts) < 2 or parts[-1] >= t * parts[-2]


def brute_ratio_count(n: int, m: int, t: int) -> int:
    """Count of brute_compositions(n, m) entries with the ratio property."""
    require_at_least(t, 1, "ratio factor")
    return sum(1 for c in brute_encoded(n, m) if has_ratio_property(c, t))
