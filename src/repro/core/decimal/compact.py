"""Compact byte-aligned decimal representation (paper section III-B, Fig. 4).

In memory and on disk a ``DECIMAL(p, s)`` value occupies ``Lb`` bytes, where
``Lb = ceil((1 + p*log2(10)) / 8)``: the magnitude in little-endian bytes
with the sign packed into the most significant bit of the last byte.  Values
expand to the word-aligned register form only for computation, which is the
paper's key memory-bandwidth optimisation ("reading data from the memory
dominates the execution time of additions and subtractions").

Two layers are provided:

* scalar :func:`pack` / :func:`unpack` for single values;
* vectorised :func:`pack_column` / :func:`unpack_column` operating on whole
  numpy columns at once -- this is what the simulated kernels' load/store
  phases use (expand on read, compact on write-back).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.decimal import words as w
from repro.core.decimal.context import DecimalSpec
from repro.errors import ConversionError

#: Mask of the sign bit inside the most significant compact byte.
SIGN_BIT = 0x80


def pack(negative: bool, words: Tuple[int, ...], spec: DecimalSpec) -> bytes:
    """Pack a magnitude + sign into the ``Lb``-byte compact form."""
    lb = spec.compact_bytes
    magnitude = w.to_int(words)
    raw = bytearray(magnitude.to_bytes(lb, "little"))
    if raw[-1] & SIGN_BIT:
        raise ConversionError(f"magnitude overlaps the sign bit for {spec}")
    if negative and magnitude:
        raw[-1] |= SIGN_BIT
    return bytes(raw)


def unpack(data: bytes, spec: DecimalSpec) -> Tuple[bool, Tuple[int, ...]]:
    """Expand ``Lb`` compact bytes to ``(negative, words)`` register form."""
    lb = spec.compact_bytes
    if len(data) != lb:
        raise ConversionError(f"expected {lb} compact bytes, got {len(data)}")
    raw = bytearray(data)
    negative = bool(raw[-1] & SIGN_BIT)
    raw[-1] &= ~SIGN_BIT & 0xFF
    magnitude = int.from_bytes(bytes(raw), "little")
    return negative, tuple(w.from_int(magnitude, spec.words))


def pack_column(
    negative: np.ndarray, word_matrix: np.ndarray, spec: DecimalSpec
) -> np.ndarray:
    """Pack an ``(N, Lw)`` uint32 word matrix into an ``(N, Lb)`` uint8 matrix.

    The word matrix is viewed as little-endian bytes and truncated to ``Lb``;
    the sign bit lands in the high bit of the final byte.  Any magnitude bits
    beyond the compact width would be silently lost, so they are checked.
    """
    rows = word_matrix.shape[0]
    lb = spec.compact_bytes
    as_bytes = np.ascontiguousarray(word_matrix.astype("<u4")).view(np.uint8)
    as_bytes = as_bytes.reshape(rows, 4 * spec.words)
    if as_bytes.shape[1] > lb and np.any(as_bytes[:, lb:]):
        raise ConversionError("magnitude does not fit the compact representation")
    if lb > as_bytes.shape[1]:
        # Rare case (e.g. p=19): the sign bit needs a byte beyond the word
        # array, so Lb exceeds 4*Lw by one padding byte.
        padded = np.zeros((rows, lb), dtype=np.uint8)
        padded[:, : as_bytes.shape[1]] = as_bytes
        as_bytes = padded
    compact = as_bytes[:, :lb].copy()
    if np.any(compact[:, -1] & SIGN_BIT):
        raise ConversionError(f"magnitude overlaps the sign bit for {spec}")
    nonzero = as_bytes[:, :lb].any(axis=1)
    compact[:, -1] |= np.where(np.asarray(negative, bool) & nonzero, SIGN_BIT, 0).astype(np.uint8)
    return compact


def pack_int64(values: np.ndarray, spec: DecimalSpec) -> np.ndarray:
    """Pack signed int64 values (each ``|v| < 2**63``) into ``(N, Lb)`` bytes.

    Byte for byte what :func:`pack_column` makes of the planes these values
    expand to (the low two limbs of ``|v|``, sign ``v < 0``), with its two
    checks and messages, without building the planes.  A one-word ``spec``
    must hold no magnitude of ``2**32`` or more (``DecimalVector.from_int64``
    checks it), so the eight magnitude bytes stand for the ``4*Lw`` word bytes.
    """
    rows = values.shape[0]
    lb = spec.compact_bytes
    magnitude = np.abs(values).astype("<i8", copy=False).view(np.uint8).reshape(rows, 8)
    if lb < 8:
        if np.any(magnitude[:, lb:]):
            raise ConversionError("magnitude does not fit the compact representation")
        packed = magnitude[:, :lb].copy()
    else:
        packed = np.zeros((rows, lb), dtype=np.uint8)
        packed[:, :8] = magnitude
    if np.any(packed[:, -1] & SIGN_BIT):
        raise ConversionError(f"magnitude overlaps the sign bit for {spec}")
    packed[:, -1] |= np.where(values < 0, SIGN_BIT, 0).astype(np.uint8)
    return packed


def unpack_column(
    compact: np.ndarray, spec: DecimalSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand an ``(N, Lb)`` compact matrix to ``(negative, (N, Lw) words)``."""
    rows, lb = compact.shape
    if lb != spec.compact_bytes:
        raise ConversionError(f"expected width {spec.compact_bytes}, got {lb}")
    negative = (compact[:, -1] & SIGN_BIT) != 0
    padded = np.zeros((rows, max(4 * spec.words, lb)), dtype=np.uint8)
    padded[:, :lb] = compact
    padded[:, lb - 1] &= ~SIGN_BIT & 0xFF
    if padded.shape[1] > 4 * spec.words:
        if np.any(padded[:, 4 * spec.words :]):
            raise ConversionError("compact bytes exceed the register array")
        padded = padded[:, : 4 * spec.words]
    words = (
        np.ascontiguousarray(padded)
        .view("<u4")
        .reshape(rows, spec.words)
        .astype(np.uint32, copy=False)
    )
    return negative, words
