"""Conversions between host literals and fixed-point decimals.

The JIT engine converts SQL literals (integers, decimal fractions, floats)
into ``DECIMAL`` constants *at compile time* (section III-D2): ``1.23``
becomes ``DECIMAL(3, 2)`` and ``10`` becomes ``DECIMAL(2, 0)``.  The parsing
here derives exactly that minimal spec, plus the unscaled integer payload.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Tuple, Union

from repro.core.decimal.context import DecimalSpec
from repro.errors import ConversionError

Numeric = Union[int, float, str, Decimal]

_DECIMAL_RE = re.compile(r"^([+-]?)(\d*)(?:\.(\d*))?$")


def decimal_parts(text: str) -> Tuple[bool, str, int]:
    """Split decimal text into ``(minus, digits, scale)``: the one literal grammar.

    The text is an optional sign, then digits with at most one decimal
    point and at least one digit, with surrounding whitespace ignored.
    ``minus`` is whether the sign is ``-`` (``"-0.00"`` has one),
    ``digits`` the integer and fractional digits run together and
    ``scale`` the number of fractional digits.  Anything else raises
    :class:`~repro.errors.ConversionError`.

    >>> decimal_parts(" -1.50 ")
    (True, '150', 2)
    >>> decimal_parts(".5")
    (False, '05', 1)
    """
    match = _DECIMAL_RE.match(text.strip())
    if match is not None:
        sign, int_part, frac_part = match.groups()
        if int_part or frac_part:
            frac_part = frac_part or ""
            return sign == "-", (int_part or "0") + frac_part, len(frac_part)
    raise ConversionError(f"not a decimal literal: {text!r}")


def parse_literal(text: str) -> Tuple[bool, int, DecimalSpec]:
    """Parse a decimal literal into ``(negative, unscaled, minimal_spec)``.

    >>> parse_literal("1.23")
    (False, 123, DecimalSpec(precision=3, scale=2))
    >>> parse_literal("10")
    (False, 10, DecimalSpec(precision=2, scale=0))
    """
    minus, digits, scale = decimal_parts(text)
    unscaled = int(digits)
    # Minimal precision: significant digits, at least scale, at least 1.
    precision = max(len(digits.lstrip("0")), scale, 1)
    return minus and unscaled != 0, unscaled, DecimalSpec(precision, scale)


def literal_to_unscaled(value: Numeric, spec: DecimalSpec) -> Tuple[bool, int]:
    """Convert any supported host literal to ``(negative, unscaled)`` at ``spec``.

    Floats are routed through ``repr`` so that e.g. ``0.1`` converts to the
    decimal ``0.1`` rather than its binary expansion -- this mirrors how a
    SQL literal written as ``0.1`` behaves, and is the exactness DOUBLE
    columns lose (Figure 1).
    """
    if isinstance(value, bool):
        raise ConversionError("booleans are not decimal literals")
    if isinstance(value, int):
        negative, unscaled, scale = value < 0, abs(value), 0
    else:
        if isinstance(value, str):
            text = value
        elif isinstance(value, float):
            text = repr(value)
        elif isinstance(value, Decimal):
            text = format(value, "f")
        else:
            raise ConversionError(f"unsupported literal type: {type(value).__name__}")
        minus, digits, scale = decimal_parts(text)
        unscaled = int(digits)
        negative = minus and unscaled != 0
    return negative, rescale_unscaled(unscaled, scale, spec.scale, spec)


def rescale_unscaled(unscaled: int, from_scale: int, to_scale: int, spec: DecimalSpec) -> int:
    """Rescale an unscaled magnitude between scales, checking for overflow.

    Scaling up multiplies by ``10**k`` (the cheap direction the scheduler
    prefers); scaling down truncates toward zero.
    """
    if to_scale >= from_scale:
        rescaled = unscaled * 10 ** (to_scale - from_scale)
    else:
        rescaled = unscaled // 10 ** (from_scale - to_scale)
    if not spec.fits(rescaled):
        raise ConversionError(
            f"value with {len(str(unscaled))} digits does not fit {spec}"
        )
    return rescaled


def literal_text(value: Numeric) -> str:
    """A host literal as decimal text, never in exponent form.

    A ``Decimal`` prints as written (``1.50`` stays ``1.50``;
    ``str(Decimal("0.0000001"))`` would be ``'1E-7'``, which
    :func:`parse_literal` rejects).
    """
    return format(value, "f") if isinstance(value, Decimal) else str(value)


def literal_comparison(op: str, literal, spec: DecimalSpec) -> Union[bool, Tuple[str, int]]:
    """``column <op> literal`` over a ``DECIMAL(p, s)`` column, at scale ``s``.

    Returns an equivalent ``(op, target)`` comparison against an unscaled
    integer within ``spec``, or a constant verdict (``True``: every row
    matches, ``False``: none) when no stored value can compare otherwise.
    The literal is never truncated: when it has more fractional digits
    than ``s``, with ``q = floor(literal * 10**s)``, ``<``/``<=`` become
    ``<= q`` and ``>``/``>=`` become ``> q``, while ``=`` matches no row and
    ``<>`` every row.  A target beyond ``+-(10**p - 1)`` is a verdict too.
    """
    limit = spec.max_unscaled
    return scaled_comparison(op, literal, spec.scale, -limit, limit)


def scaled_comparison(
    op: str, literal, scale: int, low: int, high: int
) -> Union[bool, Tuple[str, int]]:
    """``value <op> literal`` for integers ``value`` in ``[low, high]`` read at ``scale``.

    The exact rule :func:`literal_comparison` applies to a DECIMAL column;
    an integer column is the case ``scale = 0``.
    """
    minus, digits, source_scale = decimal_parts(literal_text(literal))
    signed = -int(digits) if minus else int(digits)
    drop = source_scale - scale
    if drop <= 0:
        target = signed * 10**-drop
    else:
        target, remainder = divmod(signed, 10**drop)
        if remainder:
            if op in ("=", "<>"):
                return op == "<>"
            op = "<=" if op in ("<", "<=") else ">"
    if low <= target <= high:
        return op, target
    if op in ("=", "<>"):
        return op == "<>"
    return (op in ("<", "<=")) == (target > high)


def unscaled_to_string(negative: bool, unscaled: int, scale: int) -> str:
    """Render an unscaled magnitude as a decimal string, e.g. ``-1.23``."""
    digits = str(unscaled)
    if scale:
        digits = digits.rjust(scale + 1, "0")
        text = f"{digits[:-scale]}.{digits[-scale:]}"
    else:
        text = digits
    return f"-{text}" if negative and unscaled else text
