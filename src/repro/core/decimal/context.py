"""``DECIMAL(p, s)`` specifications and storage-length tables.

The paper (section III-B) represents a decimal as an integer held in an
array of 32-bit words plus a sign byte.  The word length of the array is

    Lw = ceil(p * log2(10) / 32)

and the compact (memory/disk) representation packs the value together with a
1-bit sign into a byte array of length

    Lb = ceil((1 + p * log2(10)) / 8)

Both lengths depend only on the precision ``p``, so the paper pre-computes
them in a key-value table; we memoise them the same way.  We avoid
floating-point ``log2`` and instead use the exact bit length of ``10**p - 1``,
which is what ``p * log2(10)`` rounds up to for every ``p >= 1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import SchemaError

#: Number of bits in one storage word of the non-compact representation.
WORD_BITS = 32

#: Modulus of one 32-bit storage word.
WORD_BASE = 1 << WORD_BITS

#: Mask selecting the low 32 bits of an integer.
WORD_MASK = WORD_BASE - 1


@functools.lru_cache(maxsize=None)
def max_unscaled_for_precision(precision: int) -> int:
    """``10**p - 1``, the largest unscaled magnitude of precision ``p``
    (literal conversion checks every value against it)."""
    return 10**precision - 1


@functools.lru_cache(maxsize=None)
def value_bits(precision: int) -> int:
    """Exact number of bits needed to store any integer below ``10**p``."""
    if precision < 1:
        raise SchemaError(f"precision must be >= 1, got {precision}")
    return (10**precision - 1).bit_length()


@functools.lru_cache(maxsize=None)
def words_for_precision(precision: int) -> int:
    """``Lw``: 32-bit words needed for the non-compact representation."""
    return -(-value_bits(precision) // WORD_BITS)


@functools.lru_cache(maxsize=None)
def bytes_for_precision(precision: int) -> int:
    """``Lb``: bytes needed for the compact representation (1 sign bit)."""
    return -(-(1 + value_bits(precision)) // 8)


@functools.lru_cache(maxsize=None)
def precision_for_words(words: int) -> int:
    """Largest precision whose non-compact representation fits ``words``.

    The paper reports experiments by ``LEN`` (the word count of the result
    array); this is the inverse mapping used to pick column precisions, e.g.
    ``LEN=2 -> p=19`` and ``LEN=4 -> p=38``.
    """
    if words < 1:
        raise SchemaError(f"word count must be >= 1, got {words}")
    precision = 1
    while words_for_precision(precision + 1) <= words:
        precision += 1
    return precision


@dataclass(frozen=True)
class DecimalSpec:
    """A ``DECIMAL(p, s)`` column/expression type.

    ``precision`` is the total number of decimal digits and ``scale`` the
    number of digits after the decimal point.  Following the databases the
    paper surveys (Table II), we require ``0 <= s <= p`` and impose no upper
    bound on ``p`` beyond available memory.
    """

    precision: int
    scale: int

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise SchemaError(f"precision must be >= 1, got {self.precision}")
        if not 0 <= self.scale <= self.precision:
            raise SchemaError(
                f"scale must satisfy 0 <= s <= p, got ({self.precision}, {self.scale})"
            )

    @property
    def words(self) -> int:
        """``Lw``: 32-bit words of the register (non-compact) form."""
        return words_for_precision(self.precision)

    @property
    def compact_bytes(self) -> int:
        """``Lb``: bytes of the compact (memory/disk) form."""
        return bytes_for_precision(self.precision)

    @property
    def integer_digits(self) -> int:
        """Digits to the left of the decimal point."""
        return self.precision - self.scale

    @property
    def max_unscaled(self) -> int:
        """Largest unscaled magnitude representable: ``10**p - 1``."""
        return max_unscaled_for_precision(self.precision)

    def fits(self, unscaled: int) -> bool:
        """Whether an unscaled integer magnitude fits this spec."""
        return abs(unscaled) <= self.max_unscaled

    def __str__(self) -> str:
        return f"DECIMAL({self.precision}, {self.scale})"


#: Precisions used throughout the paper's evaluation, keyed by ``LEN``
#: ("If not specified, we fix the precision of evaluation results of
#: expressions to 18/38/76/153/307, which means 2/4/8/16/32 words are used").
PAPER_RESULT_PRECISIONS = {2: 18, 4: 38, 8: 76, 16: 153, 32: 307}

#: The LEN values the evaluation sweeps over.
PAPER_LENS = (2, 4, 8, 16, 32)


def spec_for_len(length: int, scale: int = 2) -> DecimalSpec:
    """The paper's result spec for a given word length ``LEN``."""
    try:
        precision = PAPER_RESULT_PRECISIONS[length]
    except KeyError:
        raise SchemaError(f"LEN must be one of {sorted(PAPER_RESULT_PRECISIONS)}, got {length}") from None
    return DecimalSpec(precision, scale)
