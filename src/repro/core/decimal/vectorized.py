"""Vectorised decimal arithmetic over whole columns (the SIMT data plane).

On the real GPU every tuple is handled by a thread (or a TPI thread group)
executing the same generated kernel.  In this reproduction the data plane of
a kernel is a set of numpy operations applied to ``(N, Lw)`` uint32 word
matrices -- each numpy lane corresponds to one GPU thread, and the limb
loops below are exactly the per-thread carry chains of Listing 2, executed
for all tuples at once.

Every kernel here is batch-level: the Python cost is O(Lw) column
operations, never O(N) row loops.  Division, modulo and downward rescaling
mirror the size-specialised fast paths of ``repro.core.decimal.division``
column-wise (whole-column uint64 ``div`` when both operands fit two words,
vectorised short division for single-word divisors) and only the residual
wide rows fall back to per-row big integers.  The preserved row-at-a-time
loops live in ``repro.core.decimal.reference`` as the bit-exactness oracle.

The cost/time of a kernel is *not* measured here; the GPU simulator derives
it from instruction counts (see ``repro.gpusim``).  This module only
guarantees bit-exact results.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decimal import compact, division, inference
from repro.core.decimal import words as w
from repro.core.decimal.context import WORD_BASE, WORD_BITS, WORD_MASK, DecimalSpec
from repro.errors import DivisionByZeroError, PrecisionOverflowError

_MASK64 = np.uint64(WORD_MASK)
_SHIFT64 = np.uint64(WORD_BITS)

#: Largest value a uint64 lane can hold (both operands of the whole-column
#: native ``div`` fast path must stay below this).
_UINT64_MAX = (1 << 64) - 1

#: The one int64 whose magnitude does not fit 63 bits.
_INT64_MIN = -(1 << 63)


class DecimalVector:
    """A column of ``DECIMAL(p, s)`` values in register (expanded) form.

    A vector holds the ``negative``/``words`` limb planes, its int64 lanes
    (:meth:`to_int64`), or both.  One built from lanes (:meth:`from_int64`,
    and :meth:`take` of a vector whose lanes answer) stores only the lanes:
    the planes are built from them on first access to ``negative`` or
    ``words``, and :meth:`to_unscaled`, :meth:`to_int64` and
    :meth:`to_compact` never need them.

    **Aliasing contract:** the planes are treated as immutable once a
    vector is constructed.  Kernels that do not change a plane are free to
    *share* it with their result (``neg``/``absolute`` share ``words``;
    ``rescale`` to the same scale returns ``self``), and
    :meth:`repro.storage.column.Column.decimal_vector` hands out one cached
    expansion to every caller.  Never write into a vector's planes in
    place -- build new arrays (or :meth:`copy` first).  The int64 lanes are
    shared the same way and are read-only (``writeable`` is off).  Reader
    threads may fill both memos concurrently: every fill of the lanes
    stores the same values, every fill of the planes stores equal arrays,
    both planes land in one assignment, and nothing is written in place.
    """

    def __init__(self, spec: DecimalSpec, negative: np.ndarray, words: np.ndarray):
        self.spec = spec
        #: ``(negative (N,) bool, words (N, Lw) uint32)``; None until a
        #: lane-built vector's planes are first read.
        self._planes: Optional[Tuple[np.ndarray, np.ndarray]] = (negative, words)
        #: ``(lanes,)`` once :meth:`to_int64` has answered (``(None,)`` when
        #: the values do not fit int64); None before.
        self._int64: Optional[Tuple[Optional[np.ndarray]]] = None

    @classmethod
    def _from_lanes(cls, spec: DecimalSpec, lanes: np.ndarray) -> "DecimalVector":
        """A vector holding only read-only int64 ``lanes`` (checked by the caller)."""
        vector = cls.__new__(cls)
        vector.spec = spec
        vector._planes = None
        vector._int64 = (lanes,)
        return vector

    @property
    def negative(self) -> np.ndarray:
        """``(N,)`` bool sign plane."""
        return self._expand()[0]

    @property
    def words(self) -> np.ndarray:
        """``(N, Lw)`` uint32 magnitude limbs, least significant first."""
        return self._expand()[1]

    def _expand(self) -> Tuple[np.ndarray, np.ndarray]:
        """The planes, built from the lanes on first access: the low two
        limbs of ``|v|`` and the sign ``v < 0`` (lanes hold no negative zero)."""
        planes = self._planes
        if planes is None:
            lanes = self._memoized_lanes()
            assert lanes is not None  # only lane-built vectors lack planes
            words = np.zeros((lanes.shape[0], self.spec.words), dtype=np.uint32)
            _store_uint64(words, np.abs(lanes).view(np.uint64))
            planes = (lanes < 0, words)
            self._planes = planes
        return planes

    # ---------------------------------------------------------------- create

    @classmethod
    def from_unscaled(cls, values: Iterable[int], spec: DecimalSpec) -> "DecimalVector":
        """Build from signed unscaled Python ints (batched limb split)."""
        negative, words = _ints_to_planes(values, spec, wrap=False)
        return cls(spec, negative, words)

    @classmethod
    def from_unscaled_container(cls, values: Iterable[int], spec: DecimalSpec) -> "DecimalVector":
        """Build from signed unscaled ints, wrapping into the register array.

        The section III-B3 division rule sizes the quotient container
        assuming divisors use all their integer digits; when data violates
        that assumption a real generated kernel's fixed ``Lw``-word array
        silently truncates (mod ``2**(32*Lw)``).  This constructor mirrors
        that hardware behaviour.
        """
        negative, words = _ints_to_planes(values, spec, wrap=True)
        return cls(spec, negative, words)

    @classmethod
    def from_compact(cls, data: np.ndarray, spec: DecimalSpec) -> "DecimalVector":
        """Expand a compact ``(N, Lb)`` uint8 column (the kernel load phase)."""
        negative, words = compact.unpack_column(data, spec)
        return cls(spec, negative, words)

    @classmethod
    def from_int64(cls, values: np.ndarray, spec: DecimalSpec) -> "DecimalVector":
        """Build from signed int64 unscaled values, storing only them as lanes.

        Every ``|value|`` must be below ``2**63`` and within ``spec``'s
        precision (the kernel executor's bounds guarantee both); a one-word
        ``spec`` takes no magnitude of ``2**32`` or more.  ``values``
        becomes this vector's read-only :meth:`to_int64` answer, so the
        caller must not write to it afterwards.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.size:
            low = int(values.min())
            if low == _INT64_MIN:
                raise ValueError("int64 lanes must stay above -2**63")
            if spec.words == 1 and max(-low, int(values.max())) >= WORD_BASE:
                raise PrecisionOverflowError(f"values do not fit {spec}")
        values.setflags(write=False)
        return cls._from_lanes(spec, values)

    @classmethod
    def concatenate(cls, parts: Sequence["DecimalVector"], spec: DecimalSpec) -> "DecimalVector":
        """The rows of ``parts`` in order: their lanes when every part's
        lanes are memoized, their planes otherwise."""
        lanes = [part._memoized_lanes() for part in parts]
        present = [part for part in lanes if part is not None]
        if len(present) == len(parts):
            merged = np.concatenate(present)
            merged.setflags(write=False)
            return cls._from_lanes(spec, merged)
        planes = [part._expand() for part in parts]
        return cls(
            spec,
            np.concatenate([negative for negative, _ in planes]),
            np.concatenate([words for _, words in planes], axis=0),
        )

    @classmethod
    def zeros(cls, rows: int, spec: DecimalSpec) -> "DecimalVector":
        """A column of zeros."""
        return cls(spec, np.zeros(rows, bool), np.zeros((rows, spec.words), np.uint32))

    @classmethod
    def broadcast(cls, negative: bool, limbs: Sequence[int], spec: DecimalSpec, rows: int) -> "DecimalVector":
        """Replicate one register value across a column (JIT constants)."""
        words = np.tile(np.asarray(limbs, dtype=np.uint32), (rows, 1))
        return cls(spec, np.full(rows, bool(negative)), words)

    # --------------------------------------------------------------- inspect

    @property
    def rows(self) -> int:
        """Number of tuples in the column."""
        planes = self._planes
        if planes is not None:
            return planes[1].shape[0]
        lanes = self._memoized_lanes()
        assert lanes is not None  # only lane-built vectors lack planes
        return lanes.shape[0]

    def to_unscaled(self) -> List[int]:
        """Signed unscaled Python ints (the verification oracle interface).

        Batched: the ``(N, Lw)`` word matrix folds to Python ints in O(Lw)
        column operations rather than a nested per-row limb loop.  A column
        whose values all fit int64 (:meth:`to_int64` answers: limbs 2 and up
        zero and bit 63 clear, at any ``Lw``) never touches Python-level
        arithmetic at all: fold, negate and ``tolist`` all run in C.
        """
        if self.rows == 0:
            return []
        signed = self.to_int64()
        if signed is not None:
            return signed.tolist()
        values = _planes_to_magnitudes(self.words)
        for row in np.nonzero(self.negative)[0].tolist():
            values[row] = -values[row]
        return values

    def to_int64(self) -> Optional[np.ndarray]:
        """Signed unscaled values as int64, or None if any needs 64+ bits.

        Answers for any ``Lw`` when, in every row, limbs 2 and up are zero
        and bit 63 is clear: a wide type whose values are small, the usual
        case (decimal data carries far fewer digits than its container).
        Exact whenever it answers: every magnitude is below ``2**63``, so
        neither this negation nor a caller's ``np.abs`` can wrap.  A
        negative zero (sign set on a zero magnitude, which only hand-built
        compact bytes hold) also answers None, so the lanes always rebuild
        these exact planes (:meth:`from_int64`).

        The answer is memoized, None included, and the array is read-only.
        """
        memo = self._int64
        if memo is None:
            memo = (self._fold_int64(),)
            self._int64 = memo
        return memo[0]

    def _memoized_lanes(self) -> Optional[np.ndarray]:
        """The int64 lanes if :meth:`to_int64` has answered with them, without folding."""
        memo = self._int64
        return None if memo is None else memo[0]

    def _fold_int64(self) -> Optional[np.ndarray]:
        negative, words = self._expand()
        width = words.shape[1]
        if width > 2 and words[:, 2:].any():
            return None
        if width >= 2 and (words[:, 1] >> 31).any():
            return None
        signed = _fold_low64(words).astype(np.int64)
        np.negative(signed, where=negative, out=signed)
        if np.count_nonzero(signed < 0) != np.count_nonzero(negative):
            return None
        signed.setflags(write=False)
        return signed

    def has_negative_zero(self) -> bool:
        """Whether the sign plane marks a zero magnitude (only hand-built
        IR and compact bytes make one; lanes never hold one).  Packing
        drops that sign, so only such a vector differs from
        ``from_compact(self.to_compact())``."""
        if self._memoized_lanes() is not None:
            return False
        negative, words = self._expand()
        return not words[negative].any(axis=1).all()

    def to_compact(self) -> np.ndarray:
        """Pack to the compact ``(N, Lb)`` form (the kernel store phase),
        straight from the lanes when they are memoized."""
        lanes = self._memoized_lanes()
        if lanes is not None:
            return compact.pack_int64(lanes, self.spec)
        negative, words = self._expand()
        return compact.pack_column(negative, words, self.spec)

    def copy(self) -> "DecimalVector":
        """Deep copy (the one way to get privately writable planes)."""
        return DecimalVector(self.spec, self.negative.copy(), self.words.copy())

    def take(self, indices: np.ndarray) -> "DecimalVector":
        """The rows ``indices``: only their int64 lanes when the values fit.

        The lanes are gathered from this vector's :meth:`to_int64`, which
        folds once per vector: a cached column expansion pays it once per
        version, not once per query.  The planes are gathered only when
        the lanes do not answer.
        """
        source = self.to_int64()
        if source is not None:
            lanes = source[indices]
            lanes.setflags(write=False)
            return DecimalVector._from_lanes(self.spec, lanes)
        negative, words = self._expand()
        return DecimalVector(self.spec, negative[indices], np.take(words, indices, axis=0))

    def tail(self, start: int) -> "DecimalVector":
        """The rows ``start:``, sharing this vector's memoized lanes, else
        its planes: nothing is copied."""
        lanes = self._memoized_lanes()
        if lanes is not None:
            return DecimalVector._from_lanes(self.spec, lanes[start:])
        negative, words = self._expand()
        return DecimalVector(self.spec, negative[start:], words[start:])

    # --------------------------------------------------------------- rescale

    def rescale(self, scale: int) -> "DecimalVector":
        """Align every value to ``scale`` (x10^k upward, truncate downward)."""
        if scale == self.spec.scale:
            return self
        if scale > self.spec.scale:
            extra = scale - self.spec.scale
            spec = DecimalSpec(self.spec.precision + extra, scale)
            words = _mul_pow10(self.words, extra, spec.words)
            return DecimalVector(spec, self.negative.copy(), words)
        # Downward alignment divides by a power of ten (rare: AVG results),
        # vectorised as staged single-word short division over the limb
        # columns; the truncated quotient always fits the narrower spec.
        drop = self.spec.scale - scale
        spec = DecimalSpec(max(self.spec.precision - drop, 1), scale)
        quotient = _div_pow10_columns(self.words, drop)
        out = np.ascontiguousarray(quotient[:, : spec.words])
        return DecimalVector(spec, self.negative & out.any(axis=1), out)

    def with_spec(self, spec: DecimalSpec) -> "DecimalVector":
        """Re-declare at ``spec`` (pads/truncates the word matrix)."""
        rescaled = self.rescale(spec.scale)
        words = np.zeros((self.rows, spec.words), dtype=np.uint32)
        shared = min(spec.words, rescaled.words.shape[1])
        if np.any(rescaled.words[:, shared:]):
            raise PrecisionOverflowError(f"values do not fit {spec}")
        words[:, :shared] = rescaled.words[:, :shared]
        return DecimalVector(spec, rescaled.negative.copy(), words)


# ------------------------------------------------------------------ kernels


def add(a: DecimalVector, b: DecimalVector) -> DecimalVector:
    """Columnwise signed addition with scale alignment."""
    return _signed_add(a, b, negate_b=False)


def sub(a: DecimalVector, b: DecimalVector) -> DecimalVector:
    """Columnwise signed subtraction."""
    return _signed_add(a, b, negate_b=True)


def neg(a: DecimalVector) -> DecimalVector:
    """Columnwise negation.

    The magnitude plane is unchanged, so the result *shares* ``a.words``
    (see the :class:`DecimalVector` aliasing contract) -- only the sign
    plane is rebuilt.
    """
    nonzero = a.words.any(axis=1)
    return DecimalVector(a.spec, np.where(nonzero, ~a.negative, False), a.words)


def mul(a: DecimalVector, b: DecimalVector) -> DecimalVector:
    """Columnwise signed multiplication (schoolbook limb products)."""
    spec = inference.mul_result(a.spec, b.spec)
    product = _mul_magnitudes(a.words, b.words, spec.words)
    nonzero = product.any(axis=1)
    negative = (a.negative != b.negative) & nonzero
    return DecimalVector(spec, negative, product)


def div(
    a: DecimalVector, b: DecimalVector, fast_path: Optional[str] = None
) -> DecimalVector:
    """Columnwise signed division following the section III-B3 rules.

    The per-row quotients are exact (dividend pre-scaled by ``10**(s2+4)``,
    truncating divide) and the column is carved into the same size classes
    the scalar dispatch of ``repro.core.decimal.division`` uses, largest
    batch first:

    * **native64**: rows where the pre-scaled dividend and the divisor both
      fit uint64 divide in one whole-column numpy ``//``;
    * **short**: rows whose divisor fits a single word run the vectorised
      most-to-least-significant short division over the limb columns of the
      pre-scaled dividend;
    * **bigint**: the residual wide rows fall back to per-row Python
      integers (the mathematically identical route the old row loop took
      for every row).

    ``fast_path`` is the static analyzer's proven size class for *every*
    row (``"native64"`` or ``"short"``): the per-row dispatch (uint64
    folds, threshold masks, index partitioning) is skipped entirely and
    the whole column takes the one proven route.  Zero divisors are
    rejected up front by a vectorised pre-check that names the first
    offending row.
    """
    spec = inference.div_result(a.spec, b.spec)
    prescale = inference.div_prescale(b.spec)
    factor = 10**prescale
    _require_nonzero_divisors(b.words, "division")
    rows = a.rows
    out = np.zeros((rows, spec.words), dtype=np.uint32)

    if fast_path == "native64":
        quotient = (_fold_low64(a.words) * np.uint64(factor)) // _fold_low64(b.words)
        _store_uint64(out, quotient)
        negative = (a.negative != b.negative) & out.any(axis=1)
        return DecimalVector(spec, negative, out)
    if fast_path == "short":
        scaled = _prescale_magnitudes(a.words, prescale, rows)
        quotient_planes, _ = division.short_div_columns(scaled, _fold_low64(b.words))
        shared = min(quotient_planes.shape[1], spec.words)
        out[:, :shared] = quotient_planes[:, :shared]
        negative = (a.negative != b.negative) & out.any(axis=1)
        return DecimalVector(spec, negative, out)
    if fast_path is not None:
        raise ValueError(f"unknown division fast path {fast_path!r}")

    a_fits, a64 = _fold_uint64(a.words)
    b_fits, b64 = _fold_uint64(b.words)

    # Fast path 1: whole-column uint64 divide (a * factor stays in uint64).
    native = a_fits & b_fits
    threshold = _UINT64_MAX // factor
    if threshold:
        native &= a64 <= np.uint64(threshold)
    else:  # the prescale factor alone exceeds uint64
        native = np.zeros(rows, dtype=bool)
    if native.any():
        quotient = (a64[native] * np.uint64(factor)) // b64[native]
        _scatter_uint64(out, native, quotient)

    remaining = ~native
    # Fast path 2: single-word divisors -> vectorised short division over
    # the limb columns of the wide pre-scaled dividend.
    short = remaining & b_fits & (b64 < np.uint64(WORD_BASE))
    if short.any():
        index = np.nonzero(short)[0]
        scaled = _prescale_magnitudes(a.words[index], prescale, index.size)
        quotient_planes, _ = division.short_div_columns(scaled, b64[index])
        shared = min(scaled.shape[1], spec.words)
        out[index, :shared] = quotient_planes[:, :shared]

    # Residual wide rows: exact big-integer route (wraps into the container
    # exactly as ``from_unscaled_container`` would).
    bigint = remaining & ~short
    if bigint.any():
        index = np.nonzero(bigint)[0]
        dividends = _planes_to_magnitudes(a.words[index])
        divisors = _planes_to_magnitudes(b.words[index])
        container_mask = (1 << (WORD_BITS * spec.words)) - 1
        quotients = [
            (dividend * factor // divisor) & container_mask
            for dividend, divisor in zip(dividends, divisors)
        ]
        out[index] = _magnitudes_to_planes(quotients, spec.words)

    negative = (a.negative != b.negative) & out.any(axis=1)
    return DecimalVector(spec, negative, out)


def mod(
    a: DecimalVector, b: DecimalVector, fast_path: Optional[str] = None
) -> DecimalVector:
    """Columnwise integer modulo (sign follows the dividend, as in C).

    Size-classed like :func:`div`: uint64 rows take a whole-column numpy
    ``%``, single-word divisors take the vectorised short division's
    remainder, and only residual wide rows loop in Python.  ``fast_path``
    (statically proven by the range analyzer) sends the whole column down
    one route with no per-row dispatch.  The vectorised zero-divisor
    pre-check names the first offending row.
    """
    spec = inference.mod_result(a.spec, b.spec)
    _require_nonzero_divisors(b.words, "modulo")
    rows = a.rows
    out = np.zeros((rows, spec.words), dtype=np.uint32)

    if fast_path == "native64":
        _store_uint64(out, _fold_low64(a.words) % _fold_low64(b.words))
        negative = a.negative & out.any(axis=1)
        return DecimalVector(spec, negative, out)
    if fast_path == "short":
        _, remainder = division.short_div_columns(a.words, _fold_low64(b.words))
        _store_uint64(out, remainder)
        negative = a.negative & out.any(axis=1)
        return DecimalVector(spec, negative, out)
    if fast_path is not None:
        raise ValueError(f"unknown modulo fast path {fast_path!r}")

    a_fits, a64 = _fold_uint64(a.words)
    b_fits, b64 = _fold_uint64(b.words)

    native = a_fits & b_fits
    if native.any():
        _scatter_uint64(out, native, a64[native] % b64[native])

    remaining = ~native
    short = remaining & b_fits & (b64 < np.uint64(WORD_BASE))
    if short.any():
        index = np.nonzero(short)[0]
        _, remainder = division.short_div_columns(a.words[index], b64[index])
        _scatter_uint64(out, short, remainder)

    bigint = remaining & ~short
    if bigint.any():
        index = np.nonzero(bigint)[0]
        remainders = [
            dividend % divisor
            for dividend, divisor in zip(
                _planes_to_magnitudes(a.words[index]),
                _planes_to_magnitudes(b.words[index]),
            )
        ]
        out[index] = _magnitudes_to_planes(remainders, spec.words)

    negative = a.negative & out.any(axis=1)
    return DecimalVector(spec, negative, out)


def absolute(a: DecimalVector) -> DecimalVector:
    """Columnwise absolute value (clears the sign plane).

    Shares ``a.words`` read-only (see the aliasing contract); only the
    sign plane is replaced.
    """
    return DecimalVector(a.spec, np.zeros(a.rows, dtype=bool), a.words)


def sign(a: DecimalVector) -> DecimalVector:
    """Columnwise three-way sign as DECIMAL(1, 0)."""
    spec = DecimalSpec(1, 0)
    nonzero = a.words.any(axis=1)
    words = np.zeros((a.rows, spec.words), dtype=np.uint32)
    words[:, 0] = nonzero.astype(np.uint32)
    return DecimalVector(spec, a.negative & nonzero, words)


def rescale_with_mode(a: DecimalVector, spec: DecimalSpec, mode: str) -> DecimalVector:
    """Columnwise ROUND/TRUNC/CEIL/FLOOR to ``spec.scale``.

    Rounding modes follow ``repro.core.decimal.rounding``: ``round`` is
    half-up (SQL ROUND), ``trunc`` toward zero, ``ceil``/``floor`` toward
    +/- infinity.  Dropping up to nine digits (every SQL-surface case)
    runs fully vectorised: one short division over the limb columns, a
    column-wise bump mask, and a carry-propagated increment.
    """
    from repro.core.decimal.rounding import Rounding, round_bump_column, round_unscaled

    modes = {
        "trunc": Rounding.DOWN,
        "round": Rounding.HALF_UP,
        "ceil": Rounding.CEILING,
        "floor": Rounding.FLOOR,
    }
    try:
        rounding = modes[mode]
    except KeyError:
        raise ValueError(f"unknown rescale mode {mode!r}") from None
    drop = a.spec.scale - spec.scale
    if drop < 0:
        return a.rescale(spec.scale).with_spec(spec)
    if drop == 0:
        negative, words = _wrap_planes(a.negative, a.words, spec.words)
        return DecimalVector(spec, negative, words)
    if drop <= 9:  # 10**drop fits one word: fully vectorised
        base = 10**drop
        quotient, remainder = division.short_div_columns(a.words, base)
        bump = round_bump_column(
            remainder, base, a.negative, (quotient[:, 0] & 1).astype(bool), rounding
        )
        if bump.any():
            _increment_where(quotient, bump)
        negative, words = _wrap_planes(a.negative, quotient, spec.words)
        return DecimalVector(spec, negative, words)
    # Very large scale drops (>9 digits at once) stay on the batched
    # big-integer route.
    values = [round_unscaled(u, drop, rounding) for u in a.to_unscaled()]
    negative, words = _ints_to_planes(values, spec, wrap=True)
    return DecimalVector(spec, negative, words)


def compare(a: DecimalVector, b: DecimalVector) -> np.ndarray:
    """Signed three-way compare per row: int8 array of -1/0/1."""
    scale = max(a.spec.scale, b.spec.scale)
    a_aligned, b_aligned = a.rescale(scale), b.rescale(scale)
    width = max(a_aligned.words.shape[1], b_aligned.words.shape[1])
    mag = _compare_magnitudes(_pad(a_aligned.words, width), _pad(b_aligned.words, width))
    sign_a = np.where(a_aligned.negative, -1, 1).astype(np.int8)
    sign_b = np.where(b_aligned.negative, -1, 1).astype(np.int8)
    a_zero = ~a_aligned.words.any(axis=1)
    b_zero = ~b_aligned.words.any(axis=1)
    sign_a[a_zero] = 0
    sign_b[b_zero] = 0
    out = np.sign(sign_a - sign_b).astype(np.int8)
    same_sign = (sign_a == sign_b) & (sign_a != 0)
    flip = np.where(sign_a < 0, -1, 1).astype(np.int8)
    out[same_sign] = (mag[same_sign] * flip[same_sign]).astype(np.int8)
    return out


# ---------------------------------------------------------- int round-trips


def _planes_to_magnitudes(words: np.ndarray) -> List[int]:
    """Fold an ``(N, Lw)`` word matrix into unsigned Python ints.

    Three size-specialised routes, all O(Lw) Python statements:

    * ``Lw <= 2``: pure numpy uint64 fold + ``tolist``;
    * ``Lw <= 16``: object-dtype accumulator over the uint64 limb *pairs*
      (each column step is one C-driven pass of big-int multiply-add);
    * wider: one contiguous little-endian byte view, one C-implemented
      ``int.from_bytes`` per row -- cheaper than ``Lw/2`` accumulator
      passes once rows are this wide.
    """
    rows, width = words.shape
    if rows == 0:
        return []
    if width <= 2:
        acc = words[:, 0].astype(np.uint64)
        if width == 2:
            acc |= words[:, 1].astype(np.uint64) << _SHIFT64
        return acc.tolist()
    if width <= 16:
        if width % 2:
            words = _pad(words, width + 1)
        pairs = np.ascontiguousarray(words.astype("<u4", copy=False)).view("<u8")
        acc = pairs[:, -1].astype(object)
        base = 1 << 64
        for column in range(pairs.shape[1] - 2, -1, -1):
            acc = acc * base + pairs[:, column].astype(object)
        return acc.tolist()
    data = np.ascontiguousarray(words.astype("<u4", copy=False)).tobytes()
    stride = 4 * width
    return [
        int.from_bytes(data[offset : offset + stride], "little")
        for offset in range(0, rows * stride, stride)
    ]


def _magnitudes_to_planes(magnitudes: Sequence[int], width: int) -> np.ndarray:
    """Split unsigned ints (< ``2**(32*width)``) into an ``(N, width)`` matrix."""
    rows = len(magnitudes)
    if rows == 0:
        return np.zeros((0, width), dtype=np.uint32)
    if width <= 2:
        acc = np.array([int(m) for m in magnitudes], dtype=np.uint64)
        words = np.zeros((rows, width), dtype=np.uint32)
        words[:, 0] = (acc & _MASK64).astype(np.uint32)
        if width == 2:
            words[:, 1] = (acc >> _SHIFT64).astype(np.uint32)
        return words
    stride = 4 * width
    buffer = b"".join(int(m).to_bytes(stride, "little") for m in magnitudes)
    return np.frombuffer(buffer, dtype="<u4").reshape(rows, width).astype(np.uint32)


def _ints_to_planes(
    values: Iterable[int], spec: DecimalSpec, wrap: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Signed unscaled ints -> ``(negative, words)`` planes, batched.

    With ``wrap`` the magnitudes truncate mod ``2**(32*Lw)`` (container
    semantics); otherwise the first value that does not fit ``spec``
    raises, exactly like the old per-row constructor.
    """
    values = list(values)
    rows = len(values)
    negative = np.fromiter((v < 0 for v in values), dtype=bool, count=rows)
    magnitudes = [-v if v < 0 else v for v in values]
    if wrap:
        container_mask = (1 << (WORD_BITS * spec.words)) - 1
        magnitudes = [int(m) & container_mask for m in magnitudes]
    elif rows and max(magnitudes) > spec.max_unscaled:
        limit = spec.max_unscaled
        row = next(i for i, m in enumerate(magnitudes) if m > limit)
        raise PrecisionOverflowError(f"{values[row]} does not fit {spec}")
    words = _magnitudes_to_planes(magnitudes, spec.words)
    if wrap:
        negative &= words.any(axis=1)
    return negative, words


def _fold_uint64(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row uint64 view of the low two limbs + a mask of rows that fit."""
    rows, width = words.shape
    if width == 1:
        return np.ones(rows, dtype=bool), words[:, 0].astype(np.uint64)
    fits = ~words[:, 2:].any(axis=1) if width > 2 else np.ones(rows, dtype=bool)
    values = words[:, 0].astype(np.uint64) | (words[:, 1].astype(np.uint64) << _SHIFT64)
    return fits, values


def _fold_low64(words: np.ndarray) -> np.ndarray:
    """Fold the low (up to) two limbs into uint64, no fits mask.

    Only sound when a static range proof guarantees the upper limbs are
    zero -- the fast-path callers' contract.
    """
    values = words[:, 0].astype(np.uint64)
    if words.shape[1] > 1:
        values |= words[:, 1].astype(np.uint64) << _SHIFT64
    return values


def _store_uint64(out: np.ndarray, values: np.ndarray) -> None:
    """Write uint64 results into the first <=2 limbs of every row."""
    out[:, 0] = (values & _MASK64).astype(np.uint32)
    if out.shape[1] >= 2:
        out[:, 1] = (values >> _SHIFT64).astype(np.uint32)


def _prescale_magnitudes(words: np.ndarray, prescale: int, rows: int) -> np.ndarray:
    """Widen and multiply dividend magnitudes by ``10**prescale``."""
    factor = 10**prescale
    factor_words = np.asarray(
        w.from_int(factor, w.pow10_words_needed(prescale)), dtype=np.uint32
    )
    wide = words.shape[1] + factor_words.shape[0]
    return _mul_magnitudes(words, np.tile(factor_words, (rows, 1)), wide)


def _scatter_uint64(out: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
    """Write uint64 results into the first <=2 limbs of the masked rows.

    A one-word destination truncates (container wrap), exactly like the
    fixed register array of a generated kernel.
    """
    out[mask, 0] = (values & _MASK64).astype(np.uint32)
    if out.shape[1] >= 2:
        out[mask, 1] = (values >> _SHIFT64).astype(np.uint32)


def _wrap_planes(
    negative: np.ndarray, words: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Truncate/pad magnitude columns into ``width`` words (container wrap)."""
    rows = words.shape[0]
    out = np.zeros((rows, width), dtype=np.uint32)
    shared = min(width, words.shape[1])
    out[:, :shared] = words[:, :shared]
    return negative & out.any(axis=1), out


def _require_nonzero_divisors(words: np.ndarray, operation: str) -> None:
    """Vectorised divisor==0 pre-check naming the first offending row."""
    zero = ~words.any(axis=1)
    if zero.any():
        row = int(np.argmax(zero))
        raise DivisionByZeroError(f"decimal {operation} by zero at row {row}")


def _div_pow10_columns(words: np.ndarray, exponent: int) -> np.ndarray:
    """Truncating columnwise divide by ``10**exponent`` (staged short divs).

    Each stage divides by a single-word power of ten; truncating division
    composes across stages (``(x // a) // b == x // (a*b)``), so any
    exponent reduces to at most ``ceil(exponent / 9)`` vectorised passes.
    """
    out = words
    remaining = exponent
    while remaining > 0:
        step = min(remaining, 9)
        out, _ = division.short_div_columns(out, 10**step)
        remaining -= step
    return out


def _increment_where(words: np.ndarray, mask: np.ndarray) -> None:
    """Add 1 (with carry propagation) to the masked rows, in place.

    Only called on freshly built quotient matrices; the rounding bump can
    never carry out of the original operand's width because the bumped
    quotient is bounded by the pre-division magnitude.
    """
    carry = mask.astype(np.uint64)
    for limb in range(words.shape[1]):
        if not carry.any():
            return
        total = words[:, limb].astype(np.uint64) + carry
        words[:, limb] = (total & _MASK64).astype(np.uint32)
        carry = total >> _SHIFT64
    if carry.any():  # pragma: no cover - see docstring
        raise PrecisionOverflowError("rounding bump overflowed the register array")


# -------------------------------------------------------------- limb planes


def _pad(words: np.ndarray, width: int) -> np.ndarray:
    if words.shape[1] >= width:
        return words
    padded = np.zeros((words.shape[0], width), dtype=np.uint32)
    padded[:, : words.shape[1]] = words
    return padded


def _add_magnitudes(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """The vector analogue of the ``add.cc``/``addc`` chain."""
    a = _pad(a, width)
    b = _pad(b, width)
    out = np.zeros((a.shape[0], width), dtype=np.uint32)
    carry = np.zeros(a.shape[0], dtype=np.uint64)
    for limb in range(width):
        total = a[:, limb].astype(np.uint64) + b[:, limb].astype(np.uint64) + carry
        out[:, limb] = (total & _MASK64).astype(np.uint32)
        carry = total >> _SHIFT64
    if carry.any():
        raise PrecisionOverflowError("vector addition overflowed the register array")
    return out

def _sub_magnitudes(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """``sub.cc``/``subc`` chain; assumes ``a >= b`` rowwise."""
    a = _pad(a, width)
    b = _pad(b, width)
    out = np.zeros((a.shape[0], width), dtype=np.uint32)
    borrow = np.zeros(a.shape[0], dtype=np.int64)
    for limb in range(width):
        total = a[:, limb].astype(np.int64) - b[:, limb].astype(np.int64) - borrow
        out[:, limb] = (total & np.int64(WORD_MASK)).astype(np.uint32)
        borrow = (total < 0).astype(np.int64)
    if borrow.any():
        raise AssertionError("subtraction underflow: operands were not ordered")
    return out


def _compare_magnitudes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise magnitude compare, most significant limb first."""
    rows = a.shape[0]
    out = np.zeros(rows, dtype=np.int8)
    for limb in range(a.shape[1] - 1, -1, -1):
        unresolved = out == 0
        if not unresolved.any():
            break
        wa = a[:, limb]
        wb = b[:, limb]
        out[unresolved & (wa > wb)] = 1
        out[unresolved & (wa < wb)] = -1
    return out


#: Limb-product count (``wa * wb``) above which the schoolbook loop loses
#: to per-row Python big-int multiplies: the numpy path runs O(wa*wb)
#: array passes, while CPython's multiply is one C call per row (Karatsuba
#: above its internal cutoff).  256 keeps LEN<=8 and the narrow alignment
#: multiplies (``_mul_pow10``/prescale, small ``wb``) on the array path
#: and routes the wide LEN=16/32 products through objects -- mirroring the
#: width-specialised strategy of ``_planes_to_magnitudes``.
_MUL_OBJECT_CUTOVER = 256


def _mul_magnitudes(a: np.ndarray, b: np.ndarray, out_width: int) -> np.ndarray:
    """Schoolbook limb products with split lo/hi accumulation.

    Partial products ``a[:,i] * b[:,j]`` land in output column ``i+j``; the
    64-bit products are split into 32-bit halves so a uint64 accumulator can
    absorb up to 2**32 terms without overflow (we have at most 32).

    Wide operands (``wa * wb >= _MUL_OBJECT_CUTOVER``) cut over to big-int
    accumulation: fold both sides to Python ints, multiply row-wise, split
    the products back into limbs.
    """
    rows = a.shape[0]
    wa, wb = a.shape[1], b.shape[1]
    if rows and wa * wb >= _MUL_OBJECT_CUTOVER:
        products = [
            x * y
            for x, y in zip(_planes_to_magnitudes(a), _planes_to_magnitudes(b))
        ]
        limit = 1 << (WORD_BITS * out_width)
        if any(product >= limit for product in products):
            raise PrecisionOverflowError(
                "vector multiplication overflowed the register array"
            )
        return _magnitudes_to_planes(products, out_width)
    acc = np.zeros((rows, max(wa + wb + 1, out_width)), dtype=np.uint64)
    for i in range(wa):
        ai = a[:, i].astype(np.uint64)
        if not ai.any():
            continue
        for j in range(wb):
            product = ai * b[:, j].astype(np.uint64)
            acc[:, i + j] += product & _MASK64
            acc[:, i + j + 1] += product >> _SHIFT64
    # Carry propagation pass.
    for limb in range(acc.shape[1] - 1):
        acc[:, limb + 1] += acc[:, limb] >> _SHIFT64
        acc[:, limb] &= _MASK64
    if np.any(acc[:, out_width:]):
        raise PrecisionOverflowError("vector multiplication overflowed the register array")
    return acc[:, :out_width].astype(np.uint32)


def _mul_pow10(words: np.ndarray, exponent: int, out_width: int) -> np.ndarray:
    """Alignment multiply: ``words * 10**exponent`` into ``out_width`` limbs."""
    if exponent == 0:
        return _pad(words, out_width).copy()
    factor = 10**exponent
    factor_words = np.asarray(
        w.from_int(factor, w.pow10_words_needed(exponent)), dtype=np.uint32
    )
    broadcast = np.tile(factor_words, (words.shape[0], 1))
    return _mul_magnitudes(words, broadcast, out_width)


def _signed_add(a: DecimalVector, b: DecimalVector, negate_b: bool) -> DecimalVector:
    """Signed add/sub with alignment, the full section II-B procedure."""
    spec = inference.add_result(a.spec, b.spec)
    a_aligned = a.rescale(spec.scale)
    b_aligned = b.rescale(spec.scale)
    width = spec.words
    wa = _pad(a_aligned.words, width)
    wb = _pad(b_aligned.words, width)
    sign_a = a_aligned.negative
    sign_b = ~b_aligned.negative if negate_b else b_aligned.negative

    same = sign_a == sign_b
    out = np.zeros((a.rows, width), dtype=np.uint32)
    negative = np.zeros(a.rows, dtype=bool)

    if same.any():
        summed = _add_magnitudes(wa[same], wb[same], width)
        out[same] = summed
        negative[same] = sign_a[same]
    diff = ~same
    if diff.any():
        order = _compare_magnitudes(wa[diff], wb[diff])
        big_is_a = order >= 0
        big = np.where(big_is_a[:, None], wa[diff], wb[diff])
        small = np.where(big_is_a[:, None], wb[diff], wa[diff])
        out[diff] = _sub_magnitudes(big, small, width)
        negative[diff] = np.where(big_is_a, sign_a[diff], sign_b[diff])

    nonzero = out.any(axis=1)
    negative &= nonzero
    return DecimalVector(spec, negative, out)
