"""Seeded 64-bit PRNG for reproducible sampling.

The generator is the splitmix64 recurrence: the state advances by the odd
constant 0x9E3779B97F4A7C15 and each output word is the advanced state mixed
by two xor-shift-multiply rounds (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
and a final 31-bit xor-shift.  Identical seeds give identical streams on any
platform, which keeps sampled sweeps reproducible across implementations.

``next_bits`` reads bit 0 of each word and computes up to ``_PASS`` words
at once, in 128-bit lanes of one int: word j of a pass sits in lane j, bits
128j..128j+127.  With s the state and γ the odd constant, lane j starts as
s + (j+1)·γ, built as s·U + γ·J, where U has a 1 in every lane and J has
j+1 in lane j, and a mask of the low 64 bits of every lane takes it mod
2^64.  Each round x -> ((x ^ x>>a) & mask)·C then acts on every lane at
once, and so does the final z ^ z>>31, whose bit 0 in each lane is that
word's bit.  The lanes never mix:

* s + (j+1)·γ < 2^77 fits its lane, and each lane holds a value below
  2^64 before each product;
* a 64×64-bit product is below 2^128, so no lane carries into the next;
* a right shift by a < 64 moves the next lane's low bits only into bits
  >= 64 of a lane, which the mask clears.

The second product is not masked, since only bits 0 and 31 of a lane are
read afterwards, and its bits >= 64 reach neither.  The other draws compute
one word at a time.
"""

from __future__ import annotations

import sys
from array import array

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_PASS = 4096  # words per lane-parallel pass: each lane int is 64 KiB


def _lanes(values) -> int:
    """The int whose 128-bit lane j holds values[j]."""
    words = array("Q", bytes(16 * len(values)))
    words[0::2] = array("Q", values)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


_ONES = _lanes([1] * _PASS)  # U: 1 in every lane
_OFFSETS = _GAMMA * _lanes(range(1, _PASS + 1))  # γ·J: (j+1)·γ in lane j
_LOW = _ONES * _MASK  # the low 64 bits of every lane
_BIT0 = bytes(b"01"[b & 1] for b in range(256))  # a byte to the digit of its bit 0


def _pass_bits(state: int, n: int) -> int:
    """Bit 0 of each of the n <= _PASS words after ``state``, word j at bit j.

    The lanes are laid out and kept apart as the module docstring shows; the
    digits of bit 0 of lanes n-1..0 are read from every 16th byte.
    """
    if n == _PASS:
        ones, offsets, low = _ONES, _OFFSETS, _LOW
    else:
        keep = (1 << (128 * n)) - 1
        ones, offsets, low = _ONES & keep, _OFFSETS & keep, _LOW & keep
    x = (state * ones + offsets) & low
    x = ((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    x = ((x ^ (x >> 27)) & low) * 0x94D049BB133111EB
    x ^= x >> 31
    return int(x.to_bytes(16 * n, "little")[::16].translate(_BIT0)[::-1], 2)


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_word(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def skip(self, words: int) -> None:
        """Advance as if ``words`` words were drawn (the state moves by a constant per word)."""
        self._state = (self._state + words * _GAMMA) & _MASK

    def next_bit(self) -> int:
        return self.next_word() & 1

    def next_below(self, n: int) -> int:
        """Uniform draw from range(n) by rejection on 64-bit words."""
        if n <= 0:
            raise ValueError("next_below needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            w = self.next_word()
            if w < limit:
                return w % n

    def next_bits(self, count: int) -> int:
        """An integer whose bit i is bit 0 of the i-th drawn word.

        It equals ``count`` calls of ``next_bit`` and leaves the same state.
        The words are computed ``_PASS`` at a time, word j of a pass in the
        128-bit lane j of one int (see the module docstring for the layout
        and why the lanes never mix), so the temporaries stay near 64 KiB
        for any count.
        """
        out = 0
        state = self._state
        for done in range(0, count, _PASS):
            n = min(_PASS, count - done)
            out |= _pass_bits(state, n) << done
            state = (state + n * _GAMMA) & _MASK
        self._state = state
        return out

    def sample_indices(self, n: int, count: int) -> list[int]:
        """``count`` distinct indices below ``n`` in draw order."""
        if count > n:
            raise ValueError("cannot sample more indices than available")
        chosen: list[int] = []
        taken = set()
        while len(chosen) < count:
            i = self.next_below(n)
            if i not in taken:
                taken.add(i)
                chosen.append(i)
        return chosen
