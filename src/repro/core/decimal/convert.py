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


def parse_literal(text: str) -> Tuple[bool, int, DecimalSpec]:
    """Parse a decimal literal into ``(negative, unscaled, minimal_spec)``.

    >>> parse_literal("1.23")
    (False, 123, DecimalSpec(precision=3, scale=2))
    >>> parse_literal("10")
    (False, 10, DecimalSpec(precision=2, scale=0))
    """
    match = _DECIMAL_RE.match(text.strip())
    if not match or (not match.group(2) and not match.group(3)):
        raise ConversionError(f"not a decimal literal: {text!r}")
    sign, int_part, frac_part = match.groups()
    frac_part = frac_part or ""
    digits = (int_part or "0") + frac_part
    unscaled = int(digits)
    negative = sign == "-" and unscaled != 0
    scale = len(frac_part)
    # Minimal precision: significant digits, at least scale, at least 1.
    precision = max(len(digits.lstrip("0")), scale, 1)
    return negative, unscaled, DecimalSpec(precision, scale)


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
        negative, unscaled, src = value < 0, abs(value), DecimalSpec(max(len(str(abs(value))), 1), 0)
    elif isinstance(value, float):
        negative, unscaled, src = parse_literal(repr(value))
    elif isinstance(value, Decimal):
        negative, unscaled, src = parse_literal(format(value, "f"))
    elif isinstance(value, str):
        negative, unscaled, src = parse_literal(value)
    else:
        raise ConversionError(f"unsupported literal type: {type(value).__name__}")
    return negative, rescale_unscaled(unscaled, src.scale, spec.scale, spec)


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
    negative, unscaled, source = parse_literal(str(literal))
    signed = -unscaled if negative else unscaled
    drop = source.scale - spec.scale
    if drop <= 0:
        target = signed * 10**-drop
    else:
        target, remainder = divmod(signed, 10**drop)
        if remainder:
            if op in ("=", "<>"):
                return op == "<>"
            op = "<=" if op in ("<", "<=") else ">"
    limit = spec.max_unscaled
    if -limit <= target <= limit:
        return op, target
    if op in ("=", "<>"):
        return op == "<>"
    return (op in ("<", "<=")) == (target > limit)


def unscaled_to_string(negative: bool, unscaled: int, scale: int) -> str:
    """Render an unscaled magnitude as a decimal string, e.g. ``-1.23``."""
    digits = str(unscaled)
    if scale:
        digits = digits.rjust(scale + 1, "0")
        text = f"{digits[:-scale]}.{digits[-scale:]}"
    else:
        text = digits
    return f"-{text}" if negative and unscaled else text
