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

``write_rows`` holds one block of rows of about ``lti.BLOCK_BYTES`` at a
time, whatever the table's length: ``block_rows`` sizes a block so that
its values, the scratch rows its intermediates are formed in and its
slots together take about BLOCK_BYTES, and every array of a block is
preallocated once and filled in place (``out=``).  The digits are split
off with ``floor_divide`` and a multiply-subtract, and the words and then
the masks are taken one word position at a time, so no intermediate is
wider than one field.  Each block is split between two threads: the
calling thread forms its masked slots, and the worker of a one-thread
executor deletes their NULs and writes the text, a quarter of
BLOCK_BYTES of slots at a time, while the calling thread forms the next
block in the other slot buffer.  ``np.compress`` releases the GIL, where
``bytes.translate`` would not.
"""

from __future__ import annotations

import functools

import numpy as np

from .lti import BLOCK_BYTES

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
# float64 rows, one field wide, that _slots forms a block's intermediates in
# beside the memory of its slots
_SCRATCH = 5


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
    # one contiguous row of masks per word position
    masks = np.frombuffer(b"".join(rows), np.uint64).reshape(-1, _WORDS).T.copy()

    pow10 = 10.0 ** np.arange(23)
    return words, trailing_zeros, masks, (pow10, *_split(pow10))


def _scaled(x, e, pow10, m, out):
    """hi and lo, with hi + lo = x * 10^(16 - e), formed in rows of the
    (5, len(x)) float64 ``out``, and round-half-even(hi + lo) in the int64
    ``m``; x is overwritten."""
    hi, lo, p, x_hi, t = out
    np.subtract(16, e, out=m)  # the index into pow10, until m is formed
    np.take(pow10[0], m, out=p, mode="clip")
    np.multiply(x, p, out=hi)
    # Veltkamp split of x, as _split: x_hi, and x_lo in place of x
    np.multiply(_SPLITTER, x, out=t)
    np.subtract(t, x, out=x_hi)
    np.subtract(t, x_hi, out=x_hi)
    x -= x_hi
    # lo = ((x_hi p_hi - hi) + x_hi p_lo + x_lo p_hi) + x_lo p_lo
    np.take(pow10[1], m, out=p, mode="clip")
    np.multiply(x, p, out=t)
    np.multiply(x_hi, p, out=lo)
    lo -= hi
    np.take(pow10[2], m, out=p, mode="clip")
    x_hi *= p
    lo += x_hi
    lo += t
    x *= p
    lo += x
    np.rint(lo, out=t)
    m[...] = hi
    rounded = x_hi.view(np.int64)
    rounded[...] = t
    m += rounded
    return hi, lo


def _slots(v: np.ndarray, c: int, words: np.ndarray, scratch: np.ndarray) -> None:
    """Form into ``words`` the masked ``(F, 5)`` uint64 slots of the F
    float64 fields ``v``, ``c`` to a row: the CSV text of the rows with
    NULs between its characters.  Every other intermediate of length F is
    a row of the (_SCRATCH, >= F) float64 ``scratch`` or, until the words
    are taken, of the memory of ``words``."""
    words_table, trailing_zeros, masks, pow10 = _tables()
    buf = scratch[:, : v.size]
    spare = words.reshape(-1).view(np.float64).reshape(_WORDS, -1)
    x, e, m = buf[0], buf[1].view(np.int64), buf[2].view(np.int64)
    np.abs(v, out=x)
    fast = (x >= 1e-5) & (x < 1e16)
    x[~fast] = 1.0  # keeps the arithmetic finite; these are formatted below
    np.log10(x, out=spare[0])
    np.floor(spare[0], out=spare[0])
    e[...] = spare[0]
    hi, lo = _scaled(x, e, pow10, m, spare)
    # log10 may be one off near a power of ten: redo where the product is
    # below 10^16 or rounds above 10^17
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    redo = np.flatnonzero(low | (m >= 10**17))
    if redo.size:
        e[redo] += np.where(low[redo], -1, 1)
        m_redo = np.empty(redo.size, np.int64)
        _scaled(np.abs(v[redo]), e[redo], pow10, m_redo, np.empty((5, redo.size)))
        m[redo] = m_redo
        carry = redo[m[redo] == 10**17]
        m[carry] = 10**16
        e[carry] += 1
    fast &= e >= -4

    # d_last, the last nonzero digit, from the trailing zeros of the last
    # group of four digits, or of the groups before it for the few fields
    # where that group is zero
    group, t, last = (row.view(np.int64) for row in (buf[0], buf[3], buf[4]))
    np.floor_divide(m, 10**4, out=t)
    np.multiply(t, 10**4, out=t)
    np.subtract(m, t, out=group)
    np.subtract(16, np.take(trailing_zeros, group, out=last, mode="clip"), out=last)
    tail = np.flatnonzero(group == 0)
    if tail.size:
        g = m[tail, None] // 10 ** np.array([12, 8, 4]) % 10**4
        tz = trailing_zeros[g[:, 0]]
        tz = np.where(g[:, 1] != 0, trailing_zeros[g[:, 1]], 4 + tz)
        tz = np.where(g[:, 2] != 0, trailing_zeros[g[:, 2]], 4 + tz)
        last[tail] = 12 - tz
    code = e  # ((e + 4) * 17 + last) * 2 + negative
    code += 4
    code *= 17
    code += last
    code *= 2
    code += np.signbit(v)

    # the words of the leading digit and of the four groups, split off m
    # from the left
    for pos, scale in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        if scale > 1:
            np.floor_divide(m, scale, out=group)
            np.multiply(group, scale, out=t)
            m -= t
        else:
            group = m
        if pos == 0:
            group += _FIRST
        elif pos == _WORDS - 1:
            ends = group.reshape(-1, c)
            ends[:, :-1] += _COMMA
            ends[:, -1] += _NEWLINE
        np.take(words_table, group, out=words[:, pos], mode="clip")

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
    word = buf[4].view(np.uint64)
    for pos in range(_WORDS):
        words[:, pos] &= np.take(masks[pos], code, out=word, mode="clip")


def block_rows(width: int) -> int:
    """Rows per block of a table ``width`` fields wide: a block's values,
    its scratch rows and its slots together take about BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (width * 8 * (1 + _SCRATCH + _WORDS)))


def write_rows(fh, columns) -> None:
    """Write the side-by-side concatenation of ``columns`` (1-D and 2-D
    arrays of equal length) to the binary file ``fh``, ``block_rows`` rows
    at a time, without forming the whole matrix.

    Every block is formed in the same preallocated values and scratch,
    and its slots in one of two buffers: one task on the executor's worker
    writes the blocks in order, one block's slots while this thread forms
    the next block's in the other buffer.  A buffer is formed again only
    once its block is written.  ``result()`` re-raises the worker's error
    here, and no later block is written."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    n, width = len(columns[0]), sum(c.shape[1] for c in columns)
    if width == 0:
        fh.write(b"\n" * n)
        return
    rows = max(1, min(block_rows(width), n))
    values = np.empty((rows, width))
    scratch = np.empty((_SCRATCH, rows * width))
    slots = np.empty((2, rows * width, _WORDS), np.uint64)
    # slot bytes compacted at a time: compress builds an int64 index of the
    # bytes it keeps (at most 5/8 of them), so a quarter of BLOCK_BYTES of
    # slots keeps that index near one block
    piece_bytes = BLOCK_BYTES // 4
    # imported here, as ``import dcmg`` never needs them; concurrent.futures
    # loads logging
    import queue
    from concurrent.futures import ThreadPoolExecutor

    # the worker takes each block's slots from ``todo`` (None ends it) and
    # answers each with True on ``done``, or with False once it has failed.
    # One task for all the blocks: a task per block costs the executor's
    # bookkeeping, and the GIL it holds, on every block
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def write() -> None:
        # bench/tracing.py's span stack is not thread-safe: call nothing it
        # wraps here
        try:
            while (words := todo.get()) is not None:
                text = words.view(np.uint8).reshape(-1)
                for k in range(0, text.size, piece_bytes):
                    piece = text[k : k + piece_bytes]
                    fh.write(np.compress(piece != 0, piece))
                done.put(True)
        except BaseException:
            done.put(False)  # wakes this thread if it waits for a buffer
            raise

    # leaving the block waits for the worker: never return while a block
    # is still being written
    with ThreadPoolExecutor(1) as pool:
        writing = pool.submit(write)
        try:
            for b, k in enumerate(range(0, n, rows)):
                if b >= 2 and not done.get():  # block b - 2 was not written
                    break
                block = values[: min(rows, n - k)]
                np.concatenate([c[k : k + rows] for c in columns], axis=1, out=block)
                words = slots[b % 2, : block.size]
                _slots(block.reshape(-1), width, words, scratch)
                todo.put(words)
        finally:
            todo.put(None)
    writing.result()
