"""Float64 rows as CSV text, byte for byte what ``"%.17g" % value`` joined
by ``,`` and ended by ``\\n`` gives (the output of ``np.savetxt`` with
``fmt="%.17g", delimiter=","``), computed with numpy array operations.

For 1e-5 <= |x| < 1e16 the decimal exponent e comes from ``log10`` and is
corrected afterwards.  The factor 10^(16 - e) is then exact in float64,
and Dekker's error-free product (Veltkamp splitting) gives
``|x| * 10^(16 - e) = hi + lo`` exactly.  hi >= 1e16 > 2^53 is an even
integer, so ``hi + rint(lo)`` is the product rounded half to even: the
correctly rounded 17-digit mantissa.  Values that print in fixed notation
(-4 <= e <= 16) are laid out from it, zeros are written directly, and every
other value (non-finite, tiny, huge) is formatted by Python's ``%``, once
per distinct bit pattern.

``write_rows`` splits each block of CHUNK_ROWS rows between two threads:
the calling thread forms the block's masked slots, and the worker of a
one-thread executor deletes their NULs and writes the text, PIECE_BYTES at
a time, while the calling thread forms the next block.  ``np.compress``
releases the GIL, where ``bytes.translate`` would not.
"""

from __future__ import annotations

import functools

import numpy as np

CHUNK_ROWS = 1024
# slot bytes the writer compacts at a time: compress builds an int64 index
# of every byte it keeps, which over a whole block would raise the peak RSS
PIECE_BYTES = 1 << 16

# Each field fills a slot of 5 little-endian uint64 words (40 bytes):
#   byte 0       '-'
#   bytes 1-5    "0.000"             integer part and leading fraction zeros
#                                    of 1e-4 <= |x| < 1
#   bytes 6-38   d0 . d1 . ... . d16 the 17 mantissa digits, a point after
#                                    each, so the point after d_e is in place
#   byte 39      ',' or '\n'
# A keep-mask sets every byte the field does not show to NUL, and the writer
# deletes the NULs.
_WORDS = 5
_FIRST, _COMMA, _NEWLINE = 30000, 10000, 20000
_ZERO_MASK = 21 * 17 * 2  # then negative zero, then keep-all
_KEEP_ALL = _ZERO_MASK + 2
_SPLITTER = 134217729.0  # 2**27 + 1


def _word(text: str) -> np.uint64:
    return np.uint64(int.from_bytes(text.encode("latin-1"), "little"))


def _split(a):
    """Veltkamp split: a = hi + lo with both halves 26 bits wide."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _tables():
    groups = np.arange(10000)
    digits = groups[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    dotted = np.stack([digits, np.full_like(digits, ord("."))], axis=2)
    middle = dotted.astype(np.uint8).reshape(-1, 8).view(np.uint64).ravel()
    last = middle & np.uint64(2**56 - 1)
    first = _word("-0.000\0.") | (
        np.arange(10, dtype=np.uint64) + np.uint64(ord("0"))
    ) << np.uint64(48)
    words = np.concatenate(
        [middle, last | _word("\0" * 7 + ","), last | _word("\0" * 7 + "\n"), first]
    )
    trailing_zeros = (groups[:, None] % 10 ** np.arange(1, 5) == 0).sum(axis=1)

    # keep-masks by code ((e + 4) * 17 + last) * 2 + negative, where e is the
    # decimal exponent and d_last the last nonzero digit; then zero,
    # negative zero, and a mask that keeps every byte
    rows = []
    for e in range(-4, 17):
        for last_digit in range(17):
            for negative in (0, 1):
                keep = bytearray(40)
                keep[0] = 0xFF * negative
                if e < 0:
                    keep[1 : 2 - e] = b"\xff" * (1 - e)
                for d in range(max(e, last_digit) + 1):
                    keep[6 + 2 * d] = 0xFF
                if 0 <= e < last_digit:
                    keep[7 + 2 * e] = 0xFF
                keep[39] = 0xFF
                rows.append(bytes(keep))
    rows += [b"\0\xff" + b"\0" * 37 + b"\xff", b"\xff" * 2 + b"\0" * 37 + b"\xff"]
    rows.append(b"\xff" * 40)
    masks = np.frombuffer(b"".join(rows), np.uint64).reshape(-1, _WORDS)

    pow10 = 10.0 ** np.arange(23)
    return words, trailing_zeros, masks, (pow10, *_split(pow10))


def _scaled(x, e, pow10):
    """hi, lo and round-half-even(hi + lo) for hi + lo = x * 10^(16 - e)."""
    p, p_hi, p_lo = (t[16 - e] for t in pow10)
    hi = x * p
    x_hi, x_lo = _split(x)
    lo = ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    return hi, lo, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _slots(block: np.ndarray) -> np.ndarray:
    """CSV text of a 2-D float64 array, every field as ``%.17g``, with NULs
    between the characters: the masked ``(fields, 5)`` uint64 slots in row
    order (for a block without fields, its newlines as uint8)."""
    block = np.ascontiguousarray(block, dtype=float)
    r, c = block.shape
    if r * c == 0:
        return np.full(r, ord("\n"), np.uint8)
    words_table, trailing_zeros, masks, pow10 = _tables()
    v = block.ravel()
    x = np.abs(v)
    fast = (x >= 1e-5) & (x < 1e16)
    x[~fast] = 1.0  # keeps the arithmetic finite; these are formatted below
    e = np.floor(np.log10(x)).astype(np.int64)
    hi, lo, m = _scaled(x, e, pow10)
    # log10 may be one off near a power of ten: redo where the product is
    # below 10^16 or rounds above 10^17
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    redo = np.flatnonzero(low | (m >= 10**17))
    if redo.size:
        e[redo] += np.where(low[redo], -1, 1)
        m[redo] = _scaled(x[redo], e[redo], pow10)[2]
        carry = redo[m[redo] == 10**17]
        m[carry] = 10**16
        e[carry] += 1
    fast &= e >= -4

    # word indices: leading digit, then four groups of four digits
    index = np.empty((r, c, _WORDS), np.int64)
    flat = index.reshape(-1, _WORDS)
    q, rest = np.divmod(m, 10**8)
    np.divmod(q, 10**8, out=(flat[:, 0], q))
    np.divmod(q, 10**4, out=(flat[:, 1], flat[:, 2]))
    np.divmod(rest, 10**4, out=(flat[:, 3], flat[:, 4]))
    last = 16 - trailing_zeros[flat[:, 4]]
    tail = np.flatnonzero(flat[:, 4] == 0)
    if tail.size:
        g = flat[tail]
        tz = trailing_zeros[g[:, 1]]
        tz = np.where(g[:, 2] != 0, trailing_zeros[g[:, 2]], 4 + tz)
        tz = np.where(g[:, 3] != 0, trailing_zeros[g[:, 3]], 4 + tz)
        last[tail] = 12 - tz
    code = ((e + 4) * 17 + last) * 2 + np.signbit(v)
    index[:, :, 0] += _FIRST
    index[:, :-1, 4] += _COMMA
    index[:, -1, 4] += _NEWLINE
    words = np.take(words_table, flat, mode="clip")

    zero = np.flatnonzero(v == 0)
    code[zero] = _ZERO_MASK + np.signbit(v[zero])
    fast[zero] = True
    slow = np.flatnonzero(~fast)
    if slow.size:
        distinct, which = np.unique(v[slow].view(np.uint64), return_inverse=True)
        text = b"".join(
            ("%.17g" % f).encode().ljust(32, b"\0") for f in distinct.view(np.float64)
        )
        words[slow, :4] = np.frombuffer(text, np.uint64).reshape(-1, 4)[which]
        words[slow, 4] &= np.uint64(0xFF << 56)
        code[slow] = _KEEP_ALL
    words &= np.take(masks, code, axis=0, mode="clip")
    return words


def write_rows(fh, columns) -> None:
    """Write the side-by-side concatenation of ``columns`` (1-D and 2-D
    arrays of equal length) to the binary file ``fh``, CHUNK_ROWS rows at a
    time, without forming the whole matrix.

    The executor's worker writes each block while this thread forms the
    next.  ``result()`` re-raises the worker's error here, and no later
    block is written."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]

    def write(slots: np.ndarray) -> None:
        # bench/tracing.py's span stack is not thread-safe: call nothing it
        # wraps here
        text = slots.view(np.uint8).reshape(-1)
        for k in range(0, text.size, PIECE_BYTES):
            piece = text[k : k + PIECE_BYTES]
            fh.write(np.compress(piece != 0, piece))

    # imported here: it loads logging, which ``import dcmg`` never needs
    from concurrent.futures import ThreadPoolExecutor

    # leaving the block waits for the worker: never return while a block
    # is still being written
    with ThreadPoolExecutor(1) as pool:
        written = None
        for k in range(0, len(columns[0]), CHUNK_ROWS):
            block = [c[k : k + CHUNK_ROWS] for c in columns]
            slots = _slots(np.concatenate(block, axis=1, dtype=float))
            if written is not None:
                written.result()  # keeps the blocks in order
            written = pool.submit(write, slots)
        if written is not None:
            written.result()
