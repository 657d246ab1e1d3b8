"""Scalar multi-word integer arithmetic on little-endian 32-bit limbs.

These functions are the software analogue of the PTX sequences the paper
embeds in its generated kernels (section III-C): the carry chains mirror
``add.cc.u32`` / ``addc.cc.u32`` / ``subc``, and :func:`bfind` mirrors the
``bfind`` instruction used to derive division quotient ranges.

A "word array" here is a list/tuple of Python ints, each in ``[0, 2**32)``,
least significant word first.  Fixed-width results are truncated/extended to
the requested word count exactly as a register array would be.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.decimal.context import WORD_BASE, WORD_BITS, WORD_MASK

Words = Sequence[int]


def zero(width: int) -> List[int]:
    """A zero value of ``width`` words."""
    return [0] * width


def from_int(value: int, width: int) -> List[int]:
    """Split a non-negative integer into ``width`` little-endian words.

    Raises ``OverflowError`` if the value does not fit, mirroring the fact
    that generated kernels size their register arrays to be overflow-free.
    """
    if value < 0:
        raise ValueError("from_int expects a non-negative magnitude")
    words = []
    for _ in range(width):
        words.append(value & WORD_MASK)
        value >>= WORD_BITS
    if value:
        raise OverflowError(f"value needs more than {width} words")
    return words


def to_int(words: Words) -> int:
    """Recombine little-endian words into a non-negative integer."""
    value = 0
    for word in reversed(words):
        value = (value << WORD_BITS) | (word & WORD_MASK)
    return value


def is_zero(words: Words) -> bool:
    """Whether every limb is zero."""
    return all(word == 0 for word in words)


def add(a: Words, b: Words, width: int) -> Tuple[List[int], int]:
    """Add two word arrays into ``width`` words; returns (words, carry_out).

    This is the ``add.cc.u32`` + ``addc.cc.u32`` chain of Listing 2: the
    carry flag threads through the limbs from least to most significant.
    """
    out = zero(width)
    carry = 0
    for i in range(width):
        total = _limb(a, i) + _limb(b, i) + carry
        out[i] = total & WORD_MASK
        carry = total >> WORD_BITS
    return out, carry


def sub(a: Words, b: Words, width: int) -> Tuple[List[int], int]:
    """Subtract ``b`` from ``a``; returns (words, borrow_out).

    Mirrors the ``sub.cc`` / ``subc`` chain.  When ``a >= b`` the borrow out
    is 0; callers compare operands first to pick minuend and subtrahend, as
    the paper describes for signed addition (section II-B).
    """
    out = zero(width)
    borrow = 0
    for i in range(width):
        total = _limb(a, i) - _limb(b, i) - borrow
        out[i] = total & WORD_MASK
        borrow = 1 if total < 0 else 0
    return out, borrow


def compare(a: Words, b: Words) -> int:
    """Three-way compare of magnitudes: -1, 0 or 1.

    Words are compared from the most significant down, returning as soon as
    two words differ (section II-B).
    """
    width = max(len(a), len(b))
    for i in range(width - 1, -1, -1):
        wa, wb = _limb(a, i), _limb(b, i)
        if wa != wb:
            return 1 if wa > wb else -1
    return 0


def mul(a: Words, b: Words) -> List[int]:
    """Schoolbook multiplication; the product has ``len(a)+len(b)`` words.

    The k-th output word accumulates all partial products ``a[i]*b[j]`` with
    ``i + j == k``, with the accumulation carry added to word ``k+1``
    (section II-B, "Multiplications").
    """
    out = zero(len(a) + len(b))
    for i, wa in enumerate(a):
        if wa == 0:
            continue
        carry = 0
        for j, wb in enumerate(b):
            total = out[i + j] + wa * wb + carry
            out[i + j] = total & WORD_MASK
            carry = total >> WORD_BITS
        k = i + len(b)
        while carry:
            total = out[k] + carry
            out[k] = total & WORD_MASK
            carry = total >> WORD_BITS
            k += 1
    return out


def mul_small(a: Words, factor: int, width: int) -> Tuple[List[int], int]:
    """Multiply by a single non-negative word; returns (words, carry_out)."""
    if not 0 <= factor < WORD_BASE:
        raise ValueError("factor must fit in one word")
    out = zero(width)
    carry = 0
    for i in range(width):
        total = _limb(a, i) * factor + carry
        out[i] = total & WORD_MASK
        carry = total >> WORD_BITS
    return out, carry


def shift_words_left(a: Words, count: int, width: int) -> List[int]:
    """Shift left by whole words (multiply by ``2**(32*count)``)."""
    out = zero(width)
    for i in range(width):
        src = i - count
        out[i] = _limb(a, src) if src >= 0 else 0
    return out


def bfind(words: Words) -> int:
    """Bit index of the most significant set bit, or -1 when zero.

    Mirrors the PTX ``bfind.u32`` loop the paper uses to derive the quotient
    range before its binary-search division (section III-C2).
    """
    for i in range(len(words) - 1, -1, -1):
        word = words[i] & WORD_MASK
        if word:
            return i * WORD_BITS + word.bit_length() - 1
    return -1


def pow10_words_needed(exponent: int) -> int:
    """Words required to hold ``10**exponent``."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return max(1, -(-(10**exponent - 1).bit_length() // WORD_BITS)) if exponent else 1


def mul_pow10(a: Words, exponent: int, width: int) -> List[int]:
    """Align a magnitude upward: ``a * 10**exponent`` in ``width`` words.

    This is the scale-alignment operation of section II-B.  Alignment by a
    few digits is a single-word multiply; larger alignments use the full
    schoolbook path, exactly as a generated kernel would.
    """
    if exponent == 0:
        return list(a[:width]) + zero(max(0, width - len(a)))
    factor = 10**exponent
    if factor < WORD_BASE:
        out, carry = mul_small(a, factor, width)
        if carry:
            raise OverflowError("alignment overflowed the register array")
        return out
    factor_words = from_int(factor, (factor.bit_length() + WORD_BITS - 1) // WORD_BITS)
    product = mul(list(a), factor_words)
    if any(product[width:]):
        raise OverflowError("alignment overflowed the register array")
    return product[:width] + zero(max(0, width - len(product)))


def div_pow10(a: Words, exponent: int, width: int) -> List[int]:
    """Scale a magnitude downward: ``a // 10**exponent`` (truncating).

    The paper notes aligning a *larger* scale down requires a division and
    loses precision, which is why scheduling prefers aligning upward; this
    helper exists for rescaling results (e.g. AVG) where it is unavoidable.
    """
    if exponent == 0:
        return list(a[:width]) + zero(max(0, width - len(a)))
    return from_int(to_int(a) // 10**exponent, width)


def _limb(words: Words, index: int) -> int:
    """Word at ``index`` treating the array as zero-extended."""
    return words[index] & WORD_MASK if index < len(words) else 0
