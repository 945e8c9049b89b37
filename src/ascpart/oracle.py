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
sequences and hands it to a callback, so it has three leaf forms.
`brute_compositions` gives a list of tuples.  `brute_encoded` gives the same
compositions in the same order as ``bytes``, one byte a part: every part is
at most ``ORACLE_CAP`` = 60, so a byte holds any of them.  At n = 45 a
composition takes about 48 bytes as ``bytes`` against 144 as a tuple, and
the whole list 4.7 MiB live against 12.3 MiB.  `brute_stream` writes them,
in the same order, into one ``bytes`` stream, each as a 0 byte and then its
parts, beside one ``bytes`` of their lengths: parts are at least 1, so 0 is
free to mark where each composition starts, and a length, like a part, is
at most 60.  At n = 45 the stream takes 1.2 MiB and the lengths 87 KiB,
with no per-composition object.

The recursion's first branch, part 1, recurses on n - 1 with minimum 1, and
the rest are the compositions with parts >= 2, so ``brute_encoded(n)`` is
``brute_encoded(n - 1)`` with a 1 in front of each item, then
``brute_encoded(n, 2)``, starting from the empty composition of 0.  As a
stream, the 1 goes in after every 0: ``brute_stream(n)`` is
``brute_stream(n - 1)``'s stream with each ``b"\\x00"`` replaced by
``b"\\x00\\x01"``, then ``brute_stream(n, 2)``'s, and its lengths are the
lengths one more, then ``brute_stream(n, 2)``'s, starting from ``b"\\x00"``
for both.  `checks.generation` relies on it to grow one stream from n - 1 to
n instead of building each anew; `tests/test_oracle.py` checks it for
n <= 45.
"""

from __future__ import annotations

from .errors import require_at_least, require_within

# Enumeration cap.  p(60) is just under a million compositions, which is the
# largest list the exhaustive cross-check suites ask for.
ORACLE_CAP = 60

# The one-part sequence of each part 0..ORACLE_CAP, in each leaf type.
_TUPLES = tuple((part,) for part in range(ORACLE_CAP + 1))
_BYTES = tuple(bytes((part,)) for part in range(ORACLE_CAP + 1))


def _extend(emit, parts, remaining, lo, single):
    """Emit ``parts + c`` for each ascending composition c of ``remaining``.

    The parts of c are >= ``lo``, which must be <= ``remaining``; the c come
    in lexicographic order, each built from the one-part sequences ``single``.
    """
    for part in range(lo, remaining // 2 + 1):
        _extend(emit, parts + single[part], remaining - part, part, single)
    emit(parts + single[remaining])


def _brute(n, m, single, emit, start):
    """Emit ``start + c`` for each ascending composition c of n with parts >= m."""
    require_at_least(m, 1, "minimum part")
    require_at_least(n, 1)
    require_within(n, ORACLE_CAP, "brute-force")
    if n >= m:
        _extend(emit, start, n, m, single)


def brute_compositions(n: int, m: int = 1) -> list[tuple[int, ...]]:
    """All ascending compositions of n with parts >= m, in lexicographic order."""
    out = []
    _brute(n, m, _TUPLES, out.append, ())
    return out


def brute_encoded(n: int, m: int = 1) -> list[bytes]:
    """`brute_compositions(n, m)` in the same order, each as ``bytes``, one byte a part."""
    out = []
    _brute(n, m, _BYTES, out.append, b"")
    return out


def brute_stream(n: int, m: int = 1) -> tuple[bytes, bytes]:
    """`brute_compositions(n, m)` in the same order as (stream, lengths).

    The stream holds each composition as a 0 byte and then its parts, one
    byte a part, and ``lengths`` holds each one's number of parts, one byte a
    composition.  Both are written straight into a ``bytearray``.
    """
    stream, lengths = bytearray(), bytearray()

    def emit(composition):  # the 0 separator, then the parts
        stream.extend(composition)
        lengths.append(len(composition) - 1)

    _brute(n, m, _BYTES, emit, _BYTES[0])
    return bytes(stream), bytes(lengths)


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
