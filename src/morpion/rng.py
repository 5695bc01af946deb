"""Seeded random streams: PCG64 with numpy's seeding, jumps and samplers.

``rng_stream(seed, stream)`` is, draw for draw, numpy's
``Generator(PCG64(seed).jumped(stream))`` restricted to the two draws the
package makes, ``integers(low, high)`` and ``random()``; ``tests/test_rng.py``
compares the two.  numpy promises to keep its bit generators stable across
versions (NEP 19) but not its samplers, so owning both keeps every seeded
result fixed, and keeps numpy out of the runtime.

The parts, as numpy implements them:

* ``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit words
  are hashed into a pool of 4 words, the pool is mixed with itself, and 8
  words are hashed out of it, giving PCG64's 128-bit state and stream
  increment;
* PCG64: a 128-bit LCG whose 64-bit output is XSL-RR (the two halves
  XORed, then rotated right by the top 6 bits of the state);
* ``jumped(i)``: an advance of the LCG by ``i`` times a fixed 128-bit step,
  here the LCG map of one jump, computed once per process, raised to the
  ``i``-th power;
* ``integers``: Lemire's bounded 32-bit method ("Fast Random Integer
  Generation in an Interval", ACM TOMACS 2019) over ``next_uint32``, which
  hands out the low half of a 64-bit output and keeps the high half for its
  next call;
* ``random()``: the top 53 bits of a 64-bit output, scaled into [0, 1); it
  leaves the kept half alone.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG's default 128-bit LCG multiplier
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# a 64-bit word times this is two copies of the word side by side, so
# shifting the product right by r < 64 leaves the word rotated right by r in
# the low 64 bits
_TWICE = 1 << 64 | 1
# numpy's PCG64.jumped step, about 2**128 divided by the golden ratio
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

# SeedSequence's hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seeded(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after seeding with ``SeedSequence(seed)``."""
    # the seed's 32-bit words, least significant first; 0 is one word
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words hashed out of the pool,
    # read as four little-endian 64-bit words
    const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    w0, w1, w2, w3 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    initstate, initseq = w0 << 64 | w1, w2 << 64 | w3
    inc = (initseq << 1 | 1) & _MASK128
    # PCG's srandom: step from 0, add the initial state, step again
    return ((inc + initstate) * _MULT + inc) & _MASK128, inc


def _power(step: tuple[int, int], k: int) -> tuple[int, int]:
    """The LCG map ``step`` applied ``k`` times, by squaring (PCG's
    ``advance``).  A map ``(a, c)`` takes a state to ``a * state + c * inc``,
    so one map serves every increment."""
    a, c = 1, 0
    step_a, step_c = step
    while k:
        if k & 1:
            a, c = a * step_a & _MASK128, (c * step_a + step_c) & _MASK128
        step_a, step_c = step_a * step_a & _MASK128, (step_a + 1) * step_c & _MASK128
        k >>= 1
    return a, c


# one jump: the LCG step applied _JUMP times, computed once per process
_JUMP_MAP = _power((_MULT, 1), _JUMP)


class Stream:
    """One PCG64 stream with numpy's ``integers`` and ``random`` samplers."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, state: int, inc: int):
        self._state = state
        self._inc = inc
        # the unused high half of the last 64-bit output ``integers`` drew
        self._half: int | None = None

    def _next64(self) -> int:
        """Step the LCG and return its XSL-RR output."""
        s = self._state = (self._state * _MULT + self._inc) & _MASK128
        return (((s >> 64) ^ s) & _MASK64) * _TWICE >> (s >> 122) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def integers(self, low: int, high: int) -> int:
        """A uniform int in ``[low, high)``, for a range of at most 2**32.

        A range of one returns ``low`` without a draw; an empty range, or one
        above 2**32 (where numpy samples 64 bits at a time), raises
        ``ValueError``.
        """
        n = high - low
        if not 1 < n <= 0x100000000:
            if n == 1:
                return low
            if n < 1:
                raise ValueError(f"high <= low: {high} <= {low}")
            raise ValueError(f"range {n} is above 2**32")
        m = self._next32() * n
        # the low word is below n only rarely; then test the exact threshold
        if (m & _MASK32) < n:
            threshold = (0x100000000 - n) % n
            while (m & _MASK32) < threshold:
                m = self._next32() * n
        return low + (m >> 32)

    def random(self) -> float:
        """A uniform float in ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * 2.0**-53


def rng_stream(seed: int, stream: int = 0) -> Stream:
    """Substream ``stream`` of the seeded generator; stream 0 is the root.

    It matches numpy's ``Generator(PCG64(seed).jumped(stream))`` draw for
    draw in ``integers(low, high)`` (ranges up to 2**32) and ``random()``;
    ``tests/test_rng.py`` pins that.  A negative seed or stream raises
    ``ValueError``.
    """
    if seed < 0 or stream < 0:
        raise ValueError(f"seed and stream must be non-negative, got {seed} and {stream}")
    state, inc = _seeded(seed)
    if stream:
        a, c = _power(_JUMP_MAP, stream)
        state = (a * state + c * inc) & _MASK128
    return Stream(state, inc)
