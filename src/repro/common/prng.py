"""Hardware-style pseudo-random number generators.

MBPTA-compliant caches require a PRNG whose sequences are free of the
correlations that would break the i.i.d. assumptions of EVT (Agirre et
al. [3], cited in paper §2.1).  We provide three generators that mirror
realistic hardware implementations:

* :class:`XorShift128` — Marsaglia xorshift, the quality reference.
* :class:`SplitMix64`  — used to seed the others and as a stateless hash.
* :class:`LFSR`        — a Galois linear-feedback shift register, the
  cheapest hardware option (and measurably the weakest, which the
  quality self-checks demonstrate).

All generators expose the same minimal interface: ``next_bits(width)``,
``next_below(bound)`` and ``reseed(seed)``.
"""

from __future__ import annotations

from repro.common.bitops import mask

_MASK64 = mask(64)
_MASK32 = mask(32)


def splitmix64_step(state: int) -> tuple:
    """One step of SplitMix64: returns ``(new_state, output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


class SplitMix64:
    """SplitMix64 generator; also usable as a stateless integer hash."""

    def __init__(self, seed: int = 0) -> None:
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state, out = splitmix64_step(self._state)
        return out

    def next_bits(self, width: int) -> int:
        if width <= 0 or width > 64:
            raise ValueError(f"width must be in 1..64, got {width}")
        return self.next_u64() >> (64 - width)

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        width = (bound - 1).bit_length() or 1
        while True:
            value = self.next_bits(width)
            if value < bound:
                return value


class XorShift128:
    """Marsaglia's xorshift128 — four 32-bit words of state."""

    def __init__(self, seed: int = 1) -> None:
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        # Expand the seed through SplitMix64 so that poor seeds (0, 1,
        # small integers) still give well-mixed initial state.
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state, out = splitmix64_step(state)
            words.append(out & _MASK32)
        if all(w == 0 for w in words):
            words[0] = 1
        self._x, self._y, self._z, self._w = words

    def next_u32(self) -> int:
        t = (self._x ^ ((self._x << 11) & _MASK32)) & _MASK32
        self._x, self._y, self._z = self._y, self._z, self._w
        self._w = (self._w ^ (self._w >> 19)) ^ (t ^ (t >> 8))
        self._w &= _MASK32
        return self._w

    def next_bits(self, width: int) -> int:
        if width <= 0 or width > 64:
            raise ValueError(f"width must be in 1..64, got {width}")
        if width <= 32:
            return self.next_u32() >> (32 - width)
        high = self.next_u32()
        low = self.next_u32()
        return ((high << 32) | low) >> (64 - width)

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        width = (bound - 1).bit_length() or 1
        while True:
            value = self.next_bits(width)
            if value < bound:
                return value


class LFSR:
    """Galois LFSR with a maximal-length 32-bit polynomial.

    The cheapest hardware PRNG: one shift and a conditional XOR per bit.
    Provided both as a realistic low-end design point and as a contrast
    for the PRNG quality checks (its linear structure is detectable).
    """

    #: Maximal-length polynomial x^32 + x^22 + x^2 + x + 1 (taps as mask).
    POLYNOMIAL = 0x80200003

    def __init__(self, seed: int = 1) -> None:
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        self._state = seed & _MASK32
        if self._state == 0:
            self._state = 1  # the all-zero state is a fixed point

    def next_bit(self) -> int:
        out = self._state & 1
        self._state >>= 1
        if out:
            self._state ^= self.POLYNOMIAL >> 1
        return out

    def next_bits(self, width: int) -> int:
        if width <= 0 or width > 64:
            raise ValueError(f"width must be in 1..64, got {width}")
        value = 0
        for _ in range(width):
            value = (value << 1) | self.next_bit()
        return value

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        width = (bound - 1).bit_length() or 1
        while True:
            value = self.next_bits(width)
            if value < bound:
                return value


_GENERATORS = {
    "xorshift128": XorShift128,
    "splitmix64": SplitMix64,
    "lfsr": LFSR,
}


def make_prng(kind: str = "xorshift128", seed: int = 1):
    """Factory for the PRNG implementations by name."""
    try:
        cls = _GENERATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown PRNG kind {kind!r}; choose from {sorted(_GENERATORS)}"
        ) from None
    return cls(seed)


def monobit_bias(prng, num_bits: int = 4096) -> float:
    """Fraction-of-ones deviation from 0.5 — a cheap quality indicator."""
    ones = sum(prng.next_bits(1) for _ in range(num_bits))
    return abs(ones / num_bits - 0.5)


def serial_correlation(prng, num_samples: int = 2048) -> float:
    """Lag-1 autocorrelation of successive 16-bit outputs."""
    samples = [prng.next_bits(16) for _ in range(num_samples)]
    n = len(samples)
    mean = sum(samples) / n
    num = sum(
        (samples[i] - mean) * (samples[i + 1] - mean) for i in range(n - 1)
    )
    den = sum((s - mean) ** 2 for s in samples)
    return num / den if den else 0.0
