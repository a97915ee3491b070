"""Fixed-width word-array bitset primitives.

The bigint kernel of :mod:`repro.checker.kernel` stores every bitset as an
unbounded Python int.  The native layer instead lays bitsets out as arrays
of 64-bit words (``array('Q')``), little-endian within the array: bit ``i``
lives in word ``i >> 6`` at position ``i & 63``.  This is byte-identical to
``int.to_bytes(..., "little")`` padded to the word count, which is how the
two representations convert into each other at the backend boundary and how
Python hands buffers to the C extension (:mod:`repro.native._kernelmod`).

:class:`WordReachability` is the word-array port of
:class:`~repro.checker.kernel.ReachabilityKernel`: the same incremental
cycle detection with O(edges-worth-of-words) undo, but over one contiguous
``n * words_per_row`` array with a (word-offset, old-word) trail.  It is the
pure-Python reference for the C search loop and is differentially tested
against the bigint kernel (``tests/native/test_kernel_differential.py``),
including at the n = 63/64/65 word boundaries.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

#: Bits per word of every word-array bitset in this package.
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


def word_count(nbits: int) -> int:
    """Words needed for ``nbits`` bits (at least one, so buffers exist)."""
    return max(1, (nbits + WORD_BITS - 1) >> 6)


def int_to_words(value: int, nwords: int) -> array:
    """Spread a Python-int bitmask over ``nwords`` little-endian words."""
    words = array("Q", bytes(8 * nwords))
    for k in range(nwords):
        words[k] = (value >> (k << 6)) & _WORD_MASK
    return words


def words_to_int(words: Sequence[int]) -> int:
    """Collapse little-endian words back into a Python-int bitmask."""
    value = 0
    for k in range(len(words) - 1, -1, -1):
        value = (value << WORD_BITS) | words[k]
    return value


class WordReachability:
    """Incremental cycle detection over word-array reachability rows.

    ``reach`` is one flat ``array('Q')`` of ``n * nw`` words; row ``i``
    (words ``i*nw .. i*nw+nw-1``) is the bitset of nodes reachable from
    ``i``.  Inserting ``u -> v`` ORs row ``v`` (plus bit ``v``) into every
    row that reaches ``u``, recording each overwritten *word* on the trail;
    :meth:`undo_to` restores words in reverse, which is exact because later
    trail entries were written later.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.nw = word_count(n)
        self.reach = array("Q", bytes(8 * n * self.nw))
        self._trail: List[Tuple[int, int]] = []

    def add_edge(self, u: int, v: int) -> bool:
        """Insert ``u -> v``; return False (and change nothing) on a cycle."""
        nw = self.nw
        reach = self.reach
        if u == v or (reach[v * nw + (u >> 6)] >> (u & 63)) & 1:
            return False
        uw, ubit = u >> 6, 1 << (u & 63)
        vw, vbit = v >> 6, 1 << (v & 63)
        vbase = v * nw
        trail = self._trail
        for w in range(self.n):
            base = w * nw
            if w != u and not reach[base + uw] & ubit:
                continue
            for k in range(nw):
                gain = reach[vbase + k]
                if k == vw:
                    gain |= vbit
                old = reach[base + k]
                new = old | gain
                if new != old:
                    trail.append((base + k, old))
                    reach[base + k] = new
        return True

    def add_edges(self, edges: Sequence[Tuple[int, int]]) -> bool:
        """Insert several edges; False on the first cycle (partial inserts
        stay on the trail, so callers undo to their own mark)."""
        for u, v in edges:
            if not self.add_edge(u, v):
                return False
        return True

    def mark(self) -> int:
        """Return an undo mark for the current trail position."""
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Restore every reachability word recorded after ``mark``."""
        trail = self._trail
        reach = self.reach
        while len(trail) > mark:
            offset, old = trail.pop()
            reach[offset] = old

    def has_path(self, u: int, v: int) -> bool:
        """Return True iff a path ``u -> ... -> v`` exists."""
        return bool((self.reach[u * self.nw + (v >> 6)] >> (v & 63)) & 1)

    def row(self, u: int) -> int:
        """Node ``u``'s reachability bitset as a Python int (tests/debugging)."""
        base = u * self.nw
        return words_to_int(self.reach[base : base + self.nw])
