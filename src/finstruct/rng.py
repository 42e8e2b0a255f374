"""Seeded 64-bit PRNG for reproducible sampling.

The generator is the splitmix64 recurrence: the state advances by the odd
constant 0x9E3779B97F4A7C15 and each output word is the advanced state mixed
by two xor-shift-multiply rounds (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
and a final 31-bit xor-shift.  Identical seeds give identical streams on any
platform, which keeps sampled sweeps reproducible across implementations.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def skip(self, words: int) -> None:
        """Advance as if ``words`` words were drawn (the state moves by a constant per word)."""
        self._state = (self._state + words * 0x9E3779B97F4A7C15) & _MASK

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
        """An integer whose bit i is the i-th drawn bit (one word per bit)."""
        out = 0
        for i in range(count):
            out |= self.next_bit() << i
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
