"""Bit-engine tests.

Every fast-path operation in leantrie.bits is checked against a naive
per-branch loop oracle that decodes the 32 two-bit groups one at a time.
The oracles deliberately share no code with the implementation.
"""

import random

from hypothesis import given, strategies as st

from leantrie.bits import (
    EMPTY,
    NODE,
    INLINE,
    COLLECTION,
    EVEN_BITS,
    get_pattern,
    set_pattern,
    filter_pattern,
    index_in_category,
)

PATTERNS = (EMPTY, NODE, INLINE, COLLECTION)

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
branches = st.integers(min_value=0, max_value=31)
patterns = st.sampled_from(PATTERNS)


# --- naive oracles ---------------------------------------------------------


def oracle_groups(bm):
    """Decode the 32 two-bit groups of a bitmap, branch 0 first."""
    return [(bm >> (2 * b)) & 0b11 for b in range(32)]


def oracle_filter(bm, pattern):
    out = 0
    for b, g in enumerate(oracle_groups(bm)):
        if g == pattern:
            out |= 1 << (2 * b)
    return out


def oracle_index(bm, pattern, branch):
    return sum(1 for g in oracle_groups(bm)[:branch] if g == pattern)


def oracle_set(bm, branch, pattern):
    groups = oracle_groups(bm)
    groups[branch] = pattern
    out = 0
    for b, g in enumerate(groups):
        out |= g << (2 * b)
    return out


# --- frozen examples -------------------------------------------------------


def test_get_pattern_examples():
    assert get_pattern(0b10_11_01, 0) == NODE
    assert get_pattern(0b10_11_01, 2) == INLINE
    assert get_pattern(0b10_11_01, 1) == COLLECTION
    assert get_pattern(0b10_11_01, 3) == EMPTY


def test_set_pattern_examples():
    assert set_pattern(0, 0, COLLECTION) == 0b11
    assert set_pattern(0b11, 0, EMPTY) == 0
    assert set_pattern(0, 2, INLINE) == 0b10_00_00


def test_filter_examples():
    bm = 0b10_11_01
    assert filter_pattern(bm, NODE) == 0b1
    assert filter_pattern(bm, COLLECTION) == 0b100
    assert filter_pattern(bm, INLINE) == 0b10000
    # all remaining branches are empty: even bits 6..62
    assert filter_pattern(bm, EMPTY) == 0x5555555555555540


def test_index_in_category_examples():
    assert index_in_category(0b10_11_01, COLLECTION, 5) == 1
    assert index_in_category(0b10_10_10, INLINE, 2) == 2
    assert index_in_category(0b10_10_10, INLINE, 0) == 0


# --- randomized oracle agreement ------------------------------------------


def test_oracle_agreement_randomized():
    rng = random.Random(0xBEEF)
    for _ in range(2000):
        bm = rng.getrandbits(64)
        groups = oracle_groups(bm)
        for p in PATTERNS:
            assert filter_pattern(bm, p) == oracle_filter(bm, p)
        b = rng.randrange(32)
        assert get_pattern(bm, b) == groups[b]
        for p in PATTERNS:
            assert index_in_category(bm, p, b) == oracle_index(bm, p, b)
            assert set_pattern(bm, b, p) == oracle_set(bm, b, p)


@given(words, branches, patterns)
def test_set_then_get_roundtrip(bm, b, p):
    assert get_pattern(set_pattern(bm, b, p), b) == p


@given(words, branches, patterns)
def test_set_pattern_touches_only_its_group(bm, b, p):
    out = set_pattern(bm, b, p)
    cleared = ~(0b11 << (2 * b))
    assert out & cleared == bm & cleared


@given(words)
def test_filters_partition_the_even_bits(bm):
    union = 0
    for p in PATTERNS:
        f = filter_pattern(bm, p)
        assert union & f == 0  # pairwise disjoint
        union |= f
    assert union == EVEN_BITS


@given(words, patterns)
def test_index_is_monotone_in_branch(bm, p):
    last = 0
    for b in range(33):
        cur = index_in_category(bm, p, b) if b < 32 else filter_pattern(bm, p).bit_count()
        assert cur >= last
        last = cur
