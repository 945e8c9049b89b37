"""The ascending compositions of n as text: what ``ascpart generate`` prints.

`render_v3` emits `generate.gen_v3`'s stream as text lines.  It walks the
partition tree itself rather than wrapping `gen_v3` with a consumer, so
``ascpart generate`` loads only `cli`, `errors` and this module.

Lines are stamped, not formatted one by one.  Below a node of the
partition tree whose next part is at least x and whose remaining sum is s
lies the subtree S(x, s): every composition of s into parts >= x, the same
under every prefix that reaches the node.  For s <= `BLOCK_SUM` and at most
`BLOCK_LINES` lines, the subtree is rendered once per call as a block and
then stamped under each prefix with one ``str.replace``.  The walk is
AccelAsc's (`gen_v2`'s loop) and stops its descent at the first node it
can stamp, so blocks carry every line up to n = 64; at n = 50 that is
204,226 lines in 1,180 stamps.  `gen_v3`'s two inline levels would only
format lines that a block already holds.  The stream, and so the name, is
still `gen_v3`'s: its order is the same as `gen_v2`'s.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import require_at_least

# Lines per chunk from `render_v3`: enough to make per-chunk costs vanish,
# few enough that a chunk stays small beside the interpreter's own memory.
CHUNK_LINES = 256

# The subtrees S(x, s) that `render_v3` renders once and stamps: remaining
# sum at most BLOCK_SUM and at most BLOCK_LINES lines.
BLOCK_SUM = 64
BLOCK_LINES = 256

# Leads each line of a block; stamping replaces it with the prefix's text.
# It occurs in no rendered part.
_MARK = "\0"


class _Parts(dict):
    """Part i's text: str(i) read in `step` order, then `end`; formatted on first use.

    Only the parts a call reaches are formatted, so ``generate 1000000
    --limit 2`` formats a handful, not a table of n strings.
    """

    def __init__(self, step, end):
        super().__init__()
        self.step = step
        self.end = end

    def __missing__(self, i):
        self[i] = text = str(i)[::self.step] + self.end
        return text


def _subtree_sizes(top):
    """size[s][x], the number of lines of S(x, s), for s <= top and 1 <= x <= s + 1.

    S(x, s) is the single line s when 2x > s; otherwise it is x followed by
    S(x, s - x), then S(x + 1, s).
    """
    size = [[1] * (s + 2) for s in range(top + 1)]
    for s in range(top + 1):
        for x in range(s // 2, 0, -1):
            size[s][x] = size[s - x][x] + size[s][x + 1]
    return size


def _first_lines(block, rows, descending):
    """The first `rows` lines of `block`, which holds its lines last first when descending."""
    suffixes = block.split(_MARK)[1:]
    kept = suffixes[len(suffixes) - rows:] if descending else suffixes[:rows]
    return "".join(_MARK + suffix for suffix in kept)


def _join(lines, descending):
    """One chunk of `lines`, emptying the list once it is joined, so that the
    lines and the chunk are not held together while the chunk is written."""
    text = "".join(lines[::-1] if descending else lines)
    lines.clear()
    return text[::-1] if descending else text


def render_v3(n: int, descending: bool = False, limit: int | None = None):
    """`gen_v3`'s compositions of n as text, yielded in chunks of lines.

    Each line is one composition: its parts in ascending order (largest
    first with ``descending``), separated by single spaces, ending in a
    newline.  A chunk is one string of at least `CHUNK_LINES` lines; the
    last one may be shorter.  With ``limit`` only the first ``limit`` lines
    are rendered and yielded.

    The loop is `gen_v2`'s with one stop.  The text of a_1..a_{k-1} is
    the same for every line emitted at depth k, so it is kept rendered in
    ``text``: a descent appends its run of equal parts at once, and
    backtracking cuts the last part off again.  Each outer pass descends
    from a node (x, y) only while its subtree S(x, x + y) is too big to
    stamp, then emits that subtree's block under ``text`` and backtracks.
    A node whose descent ends on 2x > y with a sum above `BLOCK_SUM`, which
    needs n > `BLOCK_SUM`, emits its lines one by one instead: ``text``
    plus two parts for each x <= y, then ``text`` plus the single part.

    A block holds each line's text after the prefix, led by `_MARK`: S(x, s)
    is the block of S(x, s - x) with x's text put after every mark, followed
    by the block of S(x + 1, s).  Under ``limit`` a block is cut to the lines
    still wanted before the prefix goes in, since a prefix may be megabytes.

    A descending line is the character reversal of the ascending line of
    the character-reversed parts, so both orders run the same loop: the
    descending one with reversed parts and a leading newline, reversing
    each chunk once as it is yielded.  Its blocks hold their lines last
    first, so that the reversal puts them back in order.  Holding one
    prefix string, not one per depth, keeps memory linear in n.
    """
    require_at_least(n, 1)
    if limit is not None:
        require_at_least(limit, 0, "limit")
    left = math.inf if limit is None else limit  # lines still to yield
    # descending: each part reversed, and the newline leads instead of ending
    step, end, text = (-1, "", "\n") if descending else (1, "\n", "")
    sp = _Parts(step, " ")
    last = _Parts(step, end)
    size = _subtree_sizes(min(n, BLOCK_SUM))

    @cache
    def block(x, s):
        if 2 * x > s:
            return _MARK + last[s]
        first = block(x, s - x).replace(_MARK, _MARK + sp[x])
        rest = block(x + 1, s)
        return rest + first if descending else first + rest

    a = [0] * (n + 3)  # only the descent's parts are stored: backtracking reads them
    k = 1
    x = 1
    y = n - 1
    small_y = BLOCK_SUM  # a local: the descent reads it at every step
    lines = []
    emit = lines.append
    done = 0  # lines held in `lines`; a block is one entry of many lines
    while k > 0:
        top = k
        while 2 * x <= y and (y > small_y - x or size[x + y][x] > BLOCK_LINES):
            a[k] = x
            y -= x
            k += 1
        text += sp[x] * (k - top)
        s = x + y
        if s <= small_y:
            rows = size[s][x]
            stamp = block(x, s)
            if done + rows > left:
                rows = left - done
                stamp = _first_lines(stamp, rows, descending)
            emit(stamp.replace(_MARK, text))
            done += rows
        else:
            start = len(lines)
            while x <= y:
                emit(text + sp[x] + last[y])
                x += 1
                y -= 1
            emit(text + last[s])
            done += len(lines) - start
        y = s - 1
        k -= 1
        text = text[:-len(sp[a[k]])]
        x = a[k] + 1
        if done >= left:
            del lines[len(lines) - (done - left):]  # only one-line entries overshoot
            done = left
            break
        if done >= CHUNK_LINES:
            yield _join(lines, descending)
            left -= done
            done = 0
    if done:
        yield _join(lines, descending)
