"""A fixed reference task that tracks the host's speed, for scaling timings.

The benchmark runs on a few cores of a shared host whose speed moves by up
to 1.7x over seconds to minutes with the host's other load; process CPU
time moves with it, so it is not stolen time but slower execution.  Every timed
region of an end-to-end run is therefore bracketed by a short reference
task: pure-Python path-copying inserts into a small bitmapped trie and
probes of a large one, the same mix of tuple allocation, 64-bit bit
operations and pointer chasing as the library's own code, but none of the
library's code, so no change to the library moves it.  A timing is
reported at the nominal host speed::

    reported = measured * NOMINAL_NS / mean(reference before, reference after)

On a host where one reference task takes ``NOMINAL_NS`` the two agree.
A change that makes the library faster lowers ``measured`` and leaves the
reference alone, so it shows in full; a host slowing down raises both.
"""

from time import perf_counter_ns

clock = perf_counter_ns

NOMINAL_NS = 5_000_000  # one reference task on the nominal host
M64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
BIG_KEYS = 30_000  # keys of the probed trie, built once per process
SMALL_KEYS = 400  # keys inserted per task
PROBES = 2_500  # probes of the big trie per task
# Tasks on each side of a timed region of a second or more.  The host's
# speed also jitters by +-25% from one 5 ms task to the next, which a long
# region averages out; its bracket must average as many tasks to match.
LONG_BRACKET = 8


def _insert(node, key, h, shift):
    """``node`` with ``key`` added; a node is ``(bitmap, slots)``."""
    bitmap, slots = node
    bit = 1 << ((h >> shift) & 31)
    pos = (bitmap & (bit - 1)).bit_count()
    if not bitmap & bit:
        return (bitmap | bit, slots[:pos] + (key,) + slots[pos:])
    cur = slots[pos]
    if type(cur) is tuple:
        sub = _insert(cur, key, h, shift + 5)
    elif cur == key:
        return node
    else:
        sub = _insert((0, ()), cur, (cur * GOLDEN) & M64, shift + 5)
        sub = _insert(sub, key, h, shift + 5)
    return (bitmap, slots[:pos] + (sub,) + slots[pos + 1 :])


def _contains(node, key, h):
    shift = 0
    while True:
        bitmap, slots = node
        bit = 1 << ((h >> shift) & 31)
        if not bitmap & bit:
            return False
        cur = slots[(bitmap & (bit - 1)).bit_count()]
        if type(cur) is not tuple:
            return cur == key
        node = cur
        shift += 5


def _trie(keys):
    root = (0, ())
    for k in keys:
        root = _insert(root, k, (k * GOLDEN) & M64, 0)
    return root


class Speedometer:
    """Runs the reference task on demand and converts measured times to the
    nominal host speed.  ``samples`` keeps every reference time, in ns."""

    def __init__(self):
        self._big = _trie(range(BIG_KEYS))
        self.samples = []
        for _ in range(3):  # warm the caches the task uses
            self.sample()
        self.samples.clear()

    def _task(self):
        small = _trie(range(SMALL_KEYS))
        hits = 0
        for i in range(PROBES):
            k = (i * 7919) % (2 * BIG_KEYS)
            hits += _contains(self._big, k, (k * GOLDEN) & M64)
        return hits + _contains(small, 1, GOLDEN)

    def sample(self, n=1):
        """Run the task ``n`` times; return its mean time in ns."""
        total = 0
        for _ in range(n):
            t0 = clock()
            self._task()
            ns = clock() - t0
            self.samples.append(ns)
            total += ns
        return total / n

    @staticmethod
    def factor(before, after):
        """Multiplier taking a time measured between two reference samples
        to the nominal host speed (divide a rate by it)."""
        return 2 * NOMINAL_NS / (before + after)
