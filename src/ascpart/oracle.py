"""Deliberately naive brute-force reference used to validate everything else.

Enumerates ascending compositions by direct recursion (first part from the
minimum upward, recurse on the remainder); a caller counts by filtering its
items with `has_ratio_property`.  The recursion only tries parts up to half
of what remains, then ends the composition with the whole remainder: any
other part above the half would leave a remainder smaller than itself,
which no ascending continuation can fill, so those calls would all be dead
ends.  Otherwise no cleverness on purpose; capacity is guarded because the
lists grow like p(n).

The recursion writes the compositions, in lexicographic order, into one
``bytes`` stream, each as a 0 byte and then its parts, one byte a part,
beside one ``bytes`` of their lengths: `brute_stream`.  Every part is at
most ``ORACLE_CAP`` = 60, so a byte holds any of them, and parts are at
least 1, so 0 is free to mark where each composition starts; a length, like
a part, is at most 60.  At n = 45 the stream takes 1.2 MiB and the lengths
87 KiB, with no per-composition object.  Splitting the stream at its 0
bytes gives each composition as ``bytes``, which `has_ratio_property` reads
as it does a tuple, and `brute_compositions` turns each of those into a
tuple.

The recursion's first branch, part 1, recurses on n - 1 with minimum 1, and
the rest are the compositions with parts >= 2, so ``brute_stream(n)`` is
``brute_stream(n - 1)`` with a 1 after each 0 byte and each length one
more, then ``brute_stream(n, 2)``.  `brute_streams` grows the oracle so from
n - 1 to n, in C with no Python loop over the compositions, for a caller
that needs it at every n, as `checks.generation` does.
"""

from __future__ import annotations

from .errors import require_at_least, require_within

# Enumeration cap.  p(60) is just under a million compositions, which is the
# largest list the exhaustive cross-check suites ask for.
ORACLE_CAP = 60

# The one-byte part 0..ORACLE_CAP.
_BYTES = tuple(bytes((part,)) for part in range(ORACLE_CAP + 1))


def _extend(stream, lengths, parts, remaining, lo):
    """Write ``parts + c`` for each ascending composition c of ``remaining``.

    ``parts`` is the 0 separator and then the parts fixed so far.  The parts
    of c are >= ``lo``, which must be <= ``remaining``; the c come in
    lexicographic order.
    """
    for part in range(lo, remaining // 2 + 1):
        _extend(stream, lengths, parts + _BYTES[part], remaining - part, part)
    stream += parts
    stream.append(remaining)
    lengths.append(len(parts))


def brute_stream(n: int, m: int = 1) -> tuple[bytes, bytes]:
    """The ascending compositions of n with parts >= m, in lexicographic order.

    Returns (stream, lengths), each composition a 0 byte then its parts and
    each one's number of parts, both written straight into a ``bytearray``.
    """
    require_at_least(m, 1, "minimum part")
    require_at_least(n, 1)
    require_within(n, ORACLE_CAP, "brute-force")
    stream, lengths = bytearray(), bytearray()
    if n >= m:
        _extend(stream, lengths, _BYTES[0], n, m)
    return bytes(stream), bytes(lengths)


def brute_streams(n_max: int):
    """Iterate ``brute_stream(n)`` for n = 1, ..., n_max; n_max is checked at the call.

    The tail goes on first and only the first p(n - 1) zeros get a 1, so a
    caller holding no yielded stream while it takes the next holds two at most.
    """
    require_within(n_max, ORACLE_CAP, "brute-force", "n_max")
    return _grown_streams(n_max)


def _grown_streams(n_max):
    stream = lengths = b"\x00"  # the empty composition of 0
    one_more = bytes.maketrans(bytes(range(255)), bytes(range(1, 256)))  # each length + 1
    for n in range(1, n_max + 1):
        tail, tail_lengths = brute_stream(n, 2)
        stream += tail
        del tail
        stream = stream.replace(b"\x00", b"\x00\x01", len(lengths))
        lengths = lengths.translate(one_more) + tail_lengths
        yield stream, lengths


def brute_compositions(n: int, m: int = 1) -> list[tuple[int, ...]]:
    """All ascending compositions of n with parts >= m, in lexicographic order."""
    return list(map(tuple, brute_stream(n, m)[0].split(b"\x00")[1:]))


def has_ratio_property(parts, t: int) -> bool:
    """True if the largest part is >= t times the second largest.

    ``parts`` is an ascending composition, as a tuple or as ``bytes``, one
    of `brute_stream`'s items, so the largest part is last.  Compositions
    with fewer than two parts, the empty one of 0 included, qualify
    unconditionally.
    """
    return len(parts) < 2 or parts[-1] >= t * parts[-2]
