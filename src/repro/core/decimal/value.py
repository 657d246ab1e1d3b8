"""Signed fixed-point decimal values over 32-bit word arrays.

:class:`DecimalValue` is the scalar reference implementation of the
register-resident ``Decimal<N>`` objects the JIT engine generates (Listing 1
in the paper): a sign byte plus ``Lw`` little-endian 32-bit words, with the
``DECIMAL(p, s)`` spec held out-of-band (it is column metadata, not stored
per value).  Like :class:`~repro.core.decimal.vectorized.DecimalVector`, a
value keeps the compact form -- here its magnitude as one Python int -- and
expands to the word array only when something reads :attr:`words`.

All arithmetic follows the paper's semantics:

* operands are scale-aligned upward before addition/subtraction;
* signed addition turns into magnitude subtraction when signs differ, with a
  magnitude comparison choosing minuend and subtrahend (section II-B);
* result specs follow the section III-B3 inference rules;
* division pre-multiplies the dividend by ``10**(s2+4)`` and truncates.

Addition, subtraction and multiplication run the limb carry chains of
:mod:`repro.core.decimal.words`, so the row loops of
:mod:`repro.core.decimal.reference` check the vectorized kernels against
limb-level arithmetic; everything else reads the magnitude.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.decimal import convert, inference
from repro.core.decimal import words as w
from repro.core.decimal.context import WORD_BITS, DecimalSpec
from repro.errors import DivisionByZeroError, PrecisionOverflowError

Numeric = Union[int, float, str]


class DecimalValue:
    """An immutable ``DECIMAL(p, s)`` value: sign + magnitude + spec.

    ``DecimalValue(spec, negative, words)`` keeps the word array it is
    given.  Every other constructor and every arithmetic result holds
    only the magnitude, which fits the ``Lw``-word container, and builds
    :attr:`words` on first read.  Reader threads may race that first
    read: each builds an equal tuple, and one assignment publishes it.
    The slots are private; nothing writes them after construction.
    """

    __slots__ = ("_spec", "_negative", "_magnitude", "_words")

    def __init__(self, spec: DecimalSpec, negative: bool, words: Sequence[int]):
        self._spec = spec
        self._negative = negative
        self._magnitude = w.to_int(words)
        self._words: Optional[Sequence[int]] = words

    @classmethod
    def _of(
        cls,
        spec: DecimalSpec,
        negative: bool,
        magnitude: int,
        words: Optional[Sequence[int]] = None,
    ) -> "DecimalValue":
        """A value holding ``magnitude`` (and ``words``, once built)."""
        value = cls.__new__(cls)
        value._spec = spec
        value._negative = negative
        value._magnitude = magnitude
        value._words = words
        return value

    def __reduce__(self):
        return (DecimalValue._of, (self._spec, self._negative, self._magnitude, self._words))

    @property
    def spec(self) -> DecimalSpec:
        """The ``DECIMAL(p, s)`` type."""
        return self._spec

    @property
    def negative(self) -> bool:
        """The sign."""
        return self._negative

    @property
    def words(self) -> Sequence[int]:
        """The magnitude as ``Lw`` little-endian 32-bit words."""
        words = self._words
        if words is None:
            words = tuple(w.from_int(self._magnitude, self._spec.words))
            self._words = words
        return words

    # ---------------------------------------------------------------- create

    @classmethod
    def from_unscaled(cls, unscaled: int, spec: DecimalSpec) -> "DecimalValue":
        """Build from a signed unscaled integer (``123`` for ``1.23`` at s=2)."""
        if not spec.fits(unscaled):
            raise PrecisionOverflowError(f"{unscaled} does not fit {spec}")
        return cls._of(spec, unscaled < 0, abs(unscaled))

    @classmethod
    def from_unscaled_container(cls, unscaled: int, spec: DecimalSpec) -> "DecimalValue":
        """Build from a signed unscaled integer, wrapping into the container.

        Mirrors ``DecimalVector.from_unscaled_container``: values that
        exceed the paper-rule spec wrap modulo the ``Lw``-word register
        array, as a generated kernel's fixed-size array would.
        """
        return cls.column_from_unscaled_container((unscaled,), spec)[0]

    @classmethod
    def column_from_unscaled_container(
        cls, values: Iterable[int], spec: DecimalSpec
    ) -> List["DecimalValue"]:
        """:meth:`from_unscaled_container` of each of ``values`` (a result
        column), with the container computed once."""
        container = 1 << (WORD_BITS * spec.words)
        new = cls.__new__
        out = []
        for unscaled in values:
            # ``_of``'s stores, inlined: this loop runs once per result value.
            magnitude = abs(unscaled) % container
            value = new(cls)
            value._spec = spec
            value._negative = unscaled < 0 and magnitude != 0
            value._magnitude = magnitude
            value._words = None
            out.append(value)
        return out

    @classmethod
    def from_literal(cls, value: Numeric, spec: DecimalSpec = None) -> "DecimalValue":
        """Build from a host literal; infers the minimal spec when omitted.

        ``DecimalValue.from_literal("1.23")`` is ``DECIMAL(3, 2)`` -- the
        compile-time constant conversion of section III-D2.
        """
        if spec is None:
            if isinstance(value, int):
                negative, unscaled, spec = value < 0, abs(value), DecimalSpec(
                    max(len(str(abs(value))), 1), 0
                )
                return cls._of(spec, negative and unscaled != 0, unscaled)
            negative, unscaled, spec = convert.parse_literal(
                repr(value) if isinstance(value, float) else str(value)
            )
            return cls._of(spec, negative, unscaled)
        negative, unscaled = convert.literal_to_unscaled(value, spec)
        return cls._of(spec, negative, unscaled)

    @classmethod
    def zero(cls, spec: DecimalSpec) -> "DecimalValue":
        """The zero value of a spec."""
        return cls._of(spec, False, 0)

    # --------------------------------------------------------------- inspect

    @property
    def unscaled(self) -> int:
        """The signed unscaled integer this value stores."""
        return -self._magnitude if self._negative else self._magnitude

    @property
    def is_zero(self) -> bool:
        """Whether the magnitude is zero."""
        return self._magnitude == 0

    def to_fraction_parts(self) -> Tuple[int, int]:
        """``(unscaled, 10**scale)`` -- the exact rational this represents."""
        return self.unscaled, 10**self.spec.scale

    def __str__(self) -> str:
        return convert.unscaled_to_string(self._negative, self._magnitude, self._spec.scale)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DecimalValue({self}, {self.spec})"

    # --------------------------------------------------------------- rescale

    def rescale(self, scale: int, spec: DecimalSpec = None) -> "DecimalValue":
        """Align to another scale (x10^k upward, truncating downward)."""
        if spec is None:
            extra = max(scale - self.spec.scale, 0)
            spec = DecimalSpec(max(self.spec.precision + extra, scale, 1), scale)
        unscaled = convert.rescale_unscaled(self._magnitude, self.spec.scale, scale, spec)
        return DecimalValue._of(spec, self.negative and unscaled != 0, unscaled)

    def with_spec(self, spec: DecimalSpec) -> "DecimalValue":
        """Re-declare this value at another spec (rescaling as needed)."""
        return self.rescale(spec.scale, spec)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "DecimalValue") -> "DecimalValue":
        result_spec = inference.add_result(self.spec, other.spec)
        a, b = _align_pair(self, other, result_spec)
        return _signed_add(a, b, result_spec, negate_b=False)

    def __sub__(self, other: "DecimalValue") -> "DecimalValue":
        result_spec = inference.add_result(self.spec, other.spec)
        a, b = _align_pair(self, other, result_spec)
        return _signed_add(a, b, result_spec, negate_b=True)

    def __neg__(self) -> "DecimalValue":
        if self.is_zero:
            return self
        return DecimalValue._of(self._spec, not self._negative, self._magnitude, self._words)

    def __mul__(self, other: "DecimalValue") -> "DecimalValue":
        result_spec = inference.mul_result(self.spec, other.spec)
        product = w.mul(list(self.words), list(other.words))
        magnitude = w.to_int(product)
        negative = (self.negative != other.negative) and magnitude != 0
        return _result(result_spec, negative, magnitude)

    def __truediv__(self, other: "DecimalValue") -> "DecimalValue":
        if other.is_zero:
            raise DivisionByZeroError("decimal division by zero")
        result_spec = inference.div_result(self.spec, other.spec)
        prescale = inference.div_prescale(other.spec)
        # Mathematically identical to the limb algorithms in
        # ``repro.core.decimal.division`` (tested there directly); the int
        # route keeps bulk scalar evaluation tractable.
        quotient = abs(self.unscaled) * 10**prescale // abs(other.unscaled)
        # The quotient container wraps like the generated kernel's fixed
        # Lw-word register array (see DecimalVector.from_unscaled_container).
        magnitude = quotient % (1 << (32 * result_spec.words))
        negative = (self.negative != other.negative) and magnitude != 0
        return DecimalValue._of(result_spec, negative, magnitude)

    def __mod__(self, other: "DecimalValue") -> "DecimalValue":
        result_spec = inference.mod_result(self.spec, other.spec)
        if other.is_zero:
            raise DivisionByZeroError("decimal modulo by zero")
        magnitude = abs(self.unscaled) % abs(other.unscaled)
        negative = self.negative and magnitude != 0
        return _result(result_spec, negative, magnitude)

    # ------------------------------------------------------------ comparison

    def compare(self, other: "DecimalValue") -> int:
        """Three-way signed compare, aligning scales first."""
        scale = max(self.spec.scale, other.spec.scale)
        a = self.unscaled * 10 ** (scale - self.spec.scale)
        b = other.unscaled * 10 ** (scale - other.spec.scale)
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecimalValue):
            return NotImplemented
        return self.compare(other) == 0

    def __hash__(self) -> int:
        unscaled, denom = self.to_fraction_parts()
        # Normalise so equal numerics hash equally across scales.
        from math import gcd

        g = gcd(abs(unscaled), denom) or 1
        return hash((unscaled // g, denom // g))

    def __lt__(self, other: "DecimalValue") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "DecimalValue") -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: "DecimalValue") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "DecimalValue") -> bool:
        return self.compare(other) >= 0


def _result(spec: DecimalSpec, negative: bool, magnitude: int) -> DecimalValue:
    """An arithmetic result; a magnitude past ``spec``'s words raises
    ``OverflowError``, as splitting it into limbs would."""
    if magnitude >> (WORD_BITS * spec.words):
        raise OverflowError(f"value needs more than {spec.words} words")
    return DecimalValue._of(spec, negative, magnitude)


def _align_pair(
    a: DecimalValue, b: DecimalValue, result_spec: DecimalSpec
) -> Tuple[DecimalValue, DecimalValue]:
    """Align both operands upward to the result scale (section II-B)."""
    scale = result_spec.scale
    wide = DecimalSpec(result_spec.precision, scale)
    return a.rescale(scale, wide), b.rescale(scale, wide)


def _signed_add(
    a: DecimalValue, b: DecimalValue, spec: DecimalSpec, negate_b: bool
) -> DecimalValue:
    """Add aligned magnitudes with sign handling.

    When effective signs match, magnitudes add; otherwise the larger
    magnitude is the minuend and the result takes its sign -- the compare
    runs most-significant-word first, as in section II-B.
    """
    b_negative = (not b.negative) if negate_b else b.negative
    width = spec.words
    if a.negative == b_negative:
        total, carry = w.add(a.words, b.words, width)
        if carry:
            raise PrecisionOverflowError("addition overflowed its inferred spec")
        magnitude = w.to_int(total)
        return DecimalValue._of(spec, a.negative and magnitude != 0, magnitude)
    order = w.compare(a.words, b.words)
    if order == 0:
        return DecimalValue.zero(spec)
    if order > 0:
        magnitude, _ = w.sub(a.words, b.words, width)
        negative = a.negative
    else:
        magnitude, _ = w.sub(b.words, a.words, width)
        negative = b_negative
    return DecimalValue._of(spec, negative, w.to_int(magnitude))
