"""The lane-parallel ``SplitMix64.next_bits`` against the per-bit loop."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finstruct import rng
from finstruct.rng import SplitMix64
from oracles import reference_next_bits

PASS = rng._PASS
# on both sides of one pass and of the pass boundary, and over three passes
COUNTS = [0, 1, 15, 16, PASS - 1, PASS, PASS + 1, 3 * PASS + 5]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, (1 << 64) - 1),
    counts=st.lists(st.sampled_from(COUNTS), min_size=1, max_size=3),
)
@example(seed=0, counts=COUNTS)
@example(seed=(1 << 64) - 1, counts=[3 * PASS + 5])  # lanes wrap past 2^64
def test_next_bits_matches_the_per_bit_loop(seed, counts):
    # same bits, same state afterwards and the same next word, also when
    # calls follow one another
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for count in counts:
        assert fast.next_bits(count) == reference_next_bits(slow, count)
        assert fast._state == slow._state
    assert fast.next_word() == slow.next_word()

