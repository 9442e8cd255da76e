"""Two-bit branch patterns packed into a single 64-bit word, plus a pair plane.

A trie node describes its 32 branches with one bitmap holding 32
consecutive 2-bit groups, branch 0 in the lowest bits.  Pattern codes:

    EMPTY      0b00   branch unused
    NODE       0b01   branch holds a sub-node reference
    INLINE     0b10   branch holds a single payload entry, stored inline
    COLLECTION 0b11   branch holds a (key, nested-set) payload entry
    PAIR       0b111  a COLLECTION group whose bit in the pair plane is set:
                      branch holds a (key, value, value) payload entry

The pair plane is a third bit plane above the 64 pattern bits, bit
``PAIR_PLANE + b`` for branch ``b``.  A bitmap with no pair entry is the
plain 64-bit word; :func:`get_pattern` and :func:`set_pattern` read and
write the plane, and :func:`pattern_bits` gives one branch's bits.  The
filter functions read the 64 pattern bits only, where a pair is a
COLLECTION branch.

The node layer uses :func:`pattern_bits` alone: it ranks on the bit
planes in line (``nodes._pos``), adds and removes an entry by OR and XOR
of its pattern bits, and moves one by XOR of the bits in which its old
and new patterns differ.  The other helpers are the reference algebra
that the tests and perfbench read.

The filter trick below turns "which branches carry pattern p" into four
constant-time mask expressions over the even/odd bit planes, so ranking a
branch within its category is two ANDs and a popcount instead of a loop.
"""

EMPTY = 0b00
NODE = 0b01
INLINE = 0b10
COLLECTION = 0b11
PAIR = 0b111

EVEN_BITS = 0x5555555555555555
PAIR_PLANE = 64  # branch b's pair bit is bit PAIR_PLANE + b


def get_pattern(bitmap, branch):
    pattern = (bitmap >> (branch << 1)) & 0b11
    if pattern == COLLECTION and (bitmap >> (PAIR_PLANE + branch)) & 1:
        return PAIR
    return pattern


def pattern_bits(pattern, branch):
    """The bits that mark ``branch`` as ``pattern`` in an empty bitmap."""
    return (pattern & 0b11) << (branch << 1) | (pattern >> 2) << (PAIR_PLANE + branch)


def set_pattern(bitmap, branch, pattern):
    offset = branch << 1
    pair_bit = 1 << (PAIR_PLANE + branch)
    cleared = bitmap & ~(0b11 << offset | pair_bit)
    return cleared | (pattern & 0b11) << offset | (pair_bit if pattern == PAIR else 0)


def filter_pattern(bitmap, pattern):
    """Word with bit ``2*b`` set iff branch ``b`` carries ``pattern``."""
    masked0 = EVEN_BITS & bitmap
    masked1 = EVEN_BITS & (bitmap >> 1)
    if pattern == EMPTY:
        return (masked0 ^ EVEN_BITS) & (masked1 ^ EVEN_BITS)
    if pattern == NODE:
        return masked0 & (masked1 ^ EVEN_BITS)
    if pattern == INLINE:
        return masked1 & (masked0 ^ EVEN_BITS)
    return masked0 & masked1


def index_in_category(bitmap, pattern, branch):
    """Rank of ``branch`` among branches of ``pattern``, in branch order."""
    below = (1 << (branch << 1)) - 1
    return (filter_pattern(bitmap, pattern) & below).bit_count()

