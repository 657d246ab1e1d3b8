"""decimalInfinite-style order-preserving byte encoding of unscaled values.

The storage codec layer (``repro.storage.codecs``) needs a variable-length
decimal encoding whose *byte order equals numeric order*: comparing two
encoded values with ``memcmp`` must agree with comparing the decoded
numbers.  That property lets filters run directly on encoded bytes before
any register expansion, and lets zone-map boundaries be taken straight from
encoded chunks.

The scheme here encodes one signed unscaled integer ``v`` as a prefix byte
plus the magnitude bytes:

* ``v == 0``: the single byte ``0x80``;
* ``v > 0``: ``0x80 + nbytes`` followed by the magnitude big-endian with
  no leading zero byte (``nbytes`` is the minimal byte length);
* ``v < 0``: ``0x80 - nbytes`` followed by the *complemented* magnitude
  bytes (``0xFF - b``), big-endian.

Ordering falls out by construction: every negative prefix (< 0x80) sorts
below zero (0x80) which sorts below every positive prefix (> 0x80); among
positives a longer magnitude has a larger prefix, and equal lengths compare
big-endian; among negatives a longer magnitude has a *smaller* prefix and
the complement reverses the big-endian order.  Because the first byte
determines the length, no encoding is a proper prefix of another: two
distinct encodings always differ within ``min(len)`` bytes, so chunks may
zero-pad rows to a common width without affecting comparisons.

The prefix byte caps the magnitude at :data:`MAX_MAGNITUDE_BYTES` bytes --
enough for every spec the paper's LEN sweep stores (precision 285 needs
119 bytes); wider specs fall back to the compact codec.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

#: The encoding of zero (and the pivot every prefix byte is offset from).
ZERO_PREFIX = 0x80

#: Largest magnitude byte length the prefix byte can express.
MAX_MAGNITUDE_BYTES = 0x7F


def max_encoded_bytes(max_unscaled: int) -> int:
    """Worst-case encoded length (prefix + magnitude) for a magnitude bound."""
    return 1 + _nbytes(max_unscaled)


def supports(max_unscaled: int) -> bool:
    """Whether every value with ``|v| <= max_unscaled`` is encodable."""
    return _nbytes(max_unscaled) <= MAX_MAGNITUDE_BYTES


def _nbytes(magnitude: int) -> int:
    return (magnitude.bit_length() + 7) // 8


#: The smallest magnitude that takes ``k + 1`` bytes, for k = 0..7.
_BYTE_STEPS = np.array([1 << (8 * k) for k in range(8)], dtype=np.uint64)

#: ``2**(8 * k) - 1`` for k = 0..8: the complement of a ``k``-byte magnitude
#: ``m`` is ``_ALL_ONES[k] - m``.
_ALL_ONES = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)


def magnitude_bytes(magnitudes: np.ndarray) -> np.ndarray:
    """Bytes of each uint64 magnitude without leading zero bytes (0 for zero)."""
    return np.searchsorted(_BYTE_STEPS, magnitudes, side="right")


def encode(values: Union[Sequence[int], np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Encode signed ints into a zero-padded ``(N, width)`` uint8 matrix.

    ``values`` is a sequence of Python ints, or an int64 array whose
    magnitudes stay below ``2**63`` (``DecimalVector.to_int64``'s
    guarantee), which encodes with no per-row Python.

    Returns ``(data, lengths)`` where ``lengths[i]`` is row ``i``'s true
    encoded byte count (prefix included) and ``width = lengths.max()``.
    The wire size of the chunk is ``lengths.sum()``; the padding bytes are
    never shipped, only kept so the matrix is rectangular for vectorised
    comparisons (sound because no encoding prefixes another -- see module
    docstring).
    """
    if isinstance(values, np.ndarray):
        # |v| < 2**63, so np.abs cannot wrap.
        magnitudes = np.abs(values).view(np.uint64)
        return _frame(values < 0, magnitude_bytes(magnitudes), slice(None), magnitudes)
    n = len(values)
    negative = np.fromiter((v < 0 for v in values), dtype=bool, count=n)
    magnitudes = [-v if v < 0 else v for v in values]
    nbytes = np.fromiter((_nbytes(m) for m in magnitudes), dtype=np.int64, count=n)
    if n and int(nbytes.max()) > MAX_MAGNITUDE_BYTES:
        row = int(np.argmax(nbytes))
        raise ValueError(
            f"magnitude at row {row} needs {int(nbytes[row])} bytes; the "
            f"order-preserving encoding caps at {MAX_MAGNITUDE_BYTES}"
        )
    small = np.nonzero(nbytes <= 8)[0]
    folded = np.fromiter(
        (magnitudes[i] for i in small.tolist()), dtype=np.uint64, count=small.size
    )
    out, lengths = _frame(negative, nbytes, small, folded)
    # Wider rows one at a time, a negative's magnitude complemented too,
    # then written with one scatter.
    wide = np.nonzero(nbytes > 8)[0]
    width = out.shape[1] - 1
    rows = []
    for i, nb in zip(wide.tolist(), nbytes[wide].tolist()):
        magnitude = magnitudes[i]
        if values[i] < 0:
            magnitude = (1 << (8 * nb)) - 1 - magnitude
        rows.append(magnitude.to_bytes(nb, "big").ljust(width, b"\0"))
    out[wide, 1:] = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(wide.size, width)
    return out, lengths


def _frame(
    negative: np.ndarray,
    nbytes: np.ndarray,
    rows: Union[slice, np.ndarray],
    magnitudes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The padded matrix: every row's prefix byte, and the magnitude bytes
    of the rows ``rows``, whose uint64 magnitudes are ``magnitudes``.

    A negative magnitude is complemented in its own bytes first (``m`` ->
    ``2**(8*nb) - 1 - m``); each one is then left-aligned in a big-endian
    uint64, so its bytes, and zeros up to the width, land with one slice.
    """
    lengths = (nbytes + 1).astype(np.int32)
    width = int(lengths.max()) if lengths.size else 1
    out = np.zeros((lengths.size, width), dtype=np.uint8)
    out[:, 0] = np.where(negative, ZERO_PREFIX - nbytes, ZERO_PREFIX + nbytes)
    row_nbytes = nbytes[rows]
    payload = np.where(negative[rows], _ALL_ONES[row_nbytes] - magnitudes, magnitudes)
    payload <<= (64 - 8 * row_nbytes).astype(np.uint64)
    span = min(width - 1, 8)
    out[rows, 1 : 1 + span] = payload.astype(">u8").view(np.uint8).reshape(-1, 8)[:, :span]
    return out, lengths


def encode_one(value: int) -> np.ndarray:
    """Encode a single value (filter literals) to its exact byte string."""
    data, lengths = encode([value])
    return data[0, : int(lengths[0])].copy()


def decode(data: np.ndarray, lengths: np.ndarray) -> List[int]:
    """Decode a padded ``(N, width)`` matrix back to signed ints.

    Row-at-a-time on purpose: decoding is the round-trip oracle for tests
    and benchmarks, never the query hot path (results materialise from the
    compact layout; filters compare encoded bytes without decoding).
    """
    values: List[int] = []
    prefixes = data[:, 0].astype(np.int64)
    for i in range(data.shape[0]):
        prefix = int(prefixes[i])
        nb = abs(prefix - ZERO_PREFIX)
        if nb + 1 != int(lengths[i]):
            raise ValueError(f"row {i}: prefix length {nb + 1} != stored {lengths[i]}")
        if nb == 0:
            values.append(0)
            continue
        payload = data[i, 1 : 1 + nb]
        if prefix < ZERO_PREFIX:
            payload = 0xFF - payload
        magnitude = int.from_bytes(payload.astype(np.uint8).tobytes(), "big")
        values.append(-magnitude if prefix < ZERO_PREFIX else magnitude)
    return values


def compare(data: np.ndarray, literal: np.ndarray) -> np.ndarray:
    """Rowwise memcmp of encoded rows against one encoded literal.

    Returns int8 per row: -1 below, 0 equal, +1 above -- which, by the
    order-preserving property, is exactly the numeric comparison of the
    decoded values.  Rows narrower than the literal (or vice versa) behave
    as zero-padded, which is sound because distinct encodings always
    diverge within the shorter one's true length.
    """
    rows, width = data.shape
    literal_width = int(literal.shape[0])
    out = np.zeros(rows, dtype=np.int8)
    for j in range(max(width, literal_width)):
        unresolved = out == 0
        if not unresolved.any():
            break
        column = data[:, j] if j < width else np.zeros(rows, dtype=np.uint8)
        target = int(literal[j]) if j < literal_width else 0
        out[unresolved & (column > target)] = 1
        out[unresolved & (column < target)] = -1
    return out
