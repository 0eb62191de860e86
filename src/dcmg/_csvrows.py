"""Float64 rows as CSV text, byte for byte what ``"%.17g" % value`` joined
by ``,`` and ended by ``\\n`` gives (the output of ``np.savetxt`` with
``fmt="%.17g", delimiter=","``), computed with numpy array operations.

For 1e-5 <= |x| < 1e16 the decimal exponent e comes from ``log10`` and is
corrected afterwards.  The factor 10^(16 - e) is then exact in float64,
and Dekker's error-free product (Veltkamp splitting) gives
``|x| * 10^(16 - e) = hi + lo`` exactly.  hi >= 1e16 > 2^53 is an even
integer, so ``hi + rint(lo)`` is the product rounded half to even: the
correctly rounded 17-digit mantissa.  Values that print in fixed notation
(-4 <= e <= 15) are laid out from it, zeros are written directly, and every
other value (non-finite, tiny, huge) is formatted by Python's ``%``, once
per distinct bit pattern.  Each field's slot holds more bytes than its
text, and its code names the keep-mask of the bytes the text is made of.

``write_rows`` holds one block of rows at a time, whatever the table's
length: ``lti.row_blocks`` cuts the rows so that a block's values, the
scratch its intermediates are formed in, its slots and their codes
together take about ``lti.BLOCK_BYTES``, and every array of a block is
preallocated once and filled in place (``out=``).  The digits are split
off with ``floor_divide`` and a multiply-subtract into contiguous rows,
and every word is taken at once through their transpose.  Each block is
split between two threads: the calling thread forms its slots and codes,
and the worker of a one-thread executor gathers the keep-masks by code
and writes the bytes they keep, a piece of fields at a time whose slots
take a quarter of a block, while the calling thread forms the next block
in the other buffers.  ``np.take`` and ``np.compress`` release the GIL.
"""

from __future__ import annotations

import functools

import numpy as np

from .lti import row_blocks

# Each field fills a slot of 5 little-endian uint64 words (40 bytes):
#   byte 0       '-'
#   bytes 1-5    "0.000"             integer part and leading fraction zeros
#                                    of 1e-4 <= |x| < 1
#   bytes 6-38   d0 . d1 . ... . d16 the 17 mantissa digits, a point after
#                                    each, so the point after d_e is in place
#   byte 39      ',' or '\n'
# or, for a field formatted by Python, its text in bytes 0-31 and ',' or
# '\n' in byte 39.  A field's code picks the keep-mask of the bytes it
# shows, and the writer keeps only those.
_WORDS = 5
_FIRST, _COMMA, _NEWLINE = 30000, 10000, 20000
_ZERO_MASK = 20 * 17 * 2  # then negative zero, then a text of each length
_TEXT_MASK = _ZERO_MASK + 2
_SPLITTER = 134217729.0  # 2**27 + 1
# float64 rows, one field wide, that _slots forms a block's intermediates in
# beside the memory of its slots, and last the (F, 5) indices of its words
_SCRATCH = 5
# bytes of a block per field: its value, its scratch rows, its slot's words
# and its code, 8 bytes each
_FIELD_BYTES = 8 * (1 + _SCRATCH + _WORDS + 1)
# bytes per field of a piece the writer compacts at a time: compress builds
# an int64 index of the bytes it keeps (at most 5/8 of them), so pieces of a
# quarter of a block of 40-byte slots keep that index near one block
_PIECE_FIELD_BYTES = 4 * 8 * _WORDS


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
    # negative zero, and one mask for each length of a text
    rows = []
    for e in range(-4, 16):
        for last_digit in range(17):
            for negative in (0, 1):
                keep = bytearray(40)
                keep[0] = negative
                if e < 0:
                    keep[1 : 2 - e] = b"\1" * (1 - e)
                for d in range(max(e, last_digit) + 1):
                    keep[6 + 2 * d] = 1
                if 0 <= e < last_digit:
                    keep[7 + 2 * e] = 1
                keep[39] = 1
                rows.append(bytes(keep))
    rows += [b"\0\1" + b"\0" * 37 + b"\1", b"\1" * 2 + b"\0" * 37 + b"\1"]
    rows += [b"\1" * n + b"\0" * (39 - n) + b"\1" for n in range(33)]
    masks = np.frombuffer(b"".join(rows), np.uint64).reshape(-1, _WORDS)

    pow10 = 10.0 ** np.arange(23)
    return words, trailing_zeros, masks, (pow10, *_split(pow10))


def _scaled(x, e, pow10, m, out):
    """hi and lo, with hi + lo = x * 10^(16 - e), formed in the five
    float64 rows ``out``, and round-half-even(hi + lo) in the int64 ``m``;
    x is overwritten."""
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


def _slots(
    v: np.ndarray, c: int, words: np.ndarray, code: np.ndarray, scratch: np.ndarray
) -> None:
    """Form into ``words`` the ``(F, 5)`` uint64 slots of the F float64
    fields ``v``, ``c`` to a row, and into the int64 ``code`` the index of
    each field's keep-mask: the slot bytes it keeps are the field's CSV
    text.  Every other intermediate of length F is formed in the memory of
    ``words`` or in the >= 5 F float64 ``scratch``, which last holds the
    ``(F, 5)`` indices of the words.  Each word is taken once, and zeros
    and the fields Python formats skip the search for the last digit."""
    words_table, trailing_zeros, _, pow10 = _tables()
    buf = scratch[: _WORDS * v.size].reshape(_WORDS, -1)
    spare = words.reshape(-1).view(np.float64).reshape(_WORDS, -1)
    x, m, e = buf[0], spare[4].view(np.int64), code  # code is formed from e
    np.abs(v, out=x)
    fast = (x >= 1e-5) & (x < 1e16)
    # keeps the arithmetic finite; these are formatted below.  Its last
    # group of four digits is not zero, so they skip the tail below
    x[~fast] = 1.0000000000000002
    np.log10(x, out=buf[1])
    np.floor(buf[1], out=buf[1])
    e[...] = buf[1]
    hi, lo = _scaled(x, e, pow10, m, (*spare[:4], buf[1]))
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

    # the leading digit and the four groups of four digits, split off m
    # from the left into contiguous rows over the memory of words
    groups, t, last = spare.view(np.int64), buf[0].view(np.int64), buf[1].view(np.int64)
    for pos, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(m, scale, out=groups[pos])
        np.multiply(groups[pos], scale, out=t)
        m -= t

    # d_last, the last nonzero digit, from the trailing zeros of the last
    # group, or of the groups before it for the few fields where that group
    # is zero
    np.subtract(16, np.take(trailing_zeros, m, out=last, mode="clip"), out=last)
    tail = np.flatnonzero(m == 0)
    if tail.size:
        g = groups[1:4, tail]
        tz = trailing_zeros[g[0]]
        tz = np.where(g[1] != 0, trailing_zeros[g[1]], 4 + tz)
        tz = np.where(g[2] != 0, trailing_zeros[g[2]], 4 + tz)
        last[tail] = 12 - tz
    code += 4  # ((e + 4) * 17 + last) * 2 + negative
    code *= 17
    code += last
    code *= 2
    code += np.signbit(v)

    # every word taken at once, through the groups' (F, 5) transpose
    groups[0] += _FIRST
    groups[-1] += _COMMA
    groups[-1, c - 1 :: c] += _NEWLINE - _COMMA
    index = buf.reshape(-1).view(np.int64).reshape(-1, _WORDS)
    np.copyto(index, groups.T)
    np.take(words_table, index, out=words, mode="clip")

    zero = np.flatnonzero(v == 0)
    code[zero] = _ZERO_MASK + np.signbit(v[zero])
    fast[zero] = True
    slow = np.flatnonzero(~fast)
    if slow.size:
        distinct, which = np.unique(v[slow].view(np.uint64), return_inverse=True)
        texts = [("%.17g" % f).encode() for f in distinct.view(np.float64)]
        text = b"".join(s.ljust(32, b"\0") for s in texts)
        words[slow, :4] = np.frombuffer(text, np.uint64).reshape(-1, 4)[which]
        code[slow] = _TEXT_MASK + np.array([len(s) for s in texts])[which]


def write_rows(fh, columns) -> None:
    """Write the side-by-side concatenation of ``columns`` (1-D and 2-D
    arrays of equal length) to the binary file ``fh`` a block of rows at a
    time (``lti.row_blocks``), without forming the whole matrix.

    Every block is formed in the same preallocated values and scratch,
    and its slots and codes in one of two buffers each: one task on the
    executor's worker writes the blocks in order, one block's slots while
    this thread forms the next block's in the other buffers.  The worker
    takes a piece of a block's fields at a time (``lti.row_blocks`` of
    ``_PIECE_FIELD_BYTES`` each): it gathers their keep-masks by code into
    one preallocated buffer, and writes the slot bytes those keep.  A
    buffer is formed again only once its block is written.  ``result()``
    re-raises the worker's error here, and no later block is written."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    n, width = len(columns[0]), sum(c.shape[1] for c in columns)
    if width == 0 or n == 0:
        fh.write(b"\n" * n)
        return
    values = np.empty((next(row_blocks(n, width * _FIELD_BYTES)).stop, width))
    scratch = np.empty(_SCRATCH * values.size)
    slots = np.empty((2, values.size, _WORDS), np.uint64)
    codes = np.empty((2, values.size), np.int64)
    # a block of fewer fields may start with a longer piece: a piece's
    # fields and one more are cut into a piece one field short and two
    # fields, so one field more than the first piece is enough
    first_piece = next(row_blocks(values.size, _PIECE_FIELD_BYTES))
    keep = np.empty((first_piece.stop + 1, _WORDS), np.uint64)
    masks = _tables()[2]
    # imported here, as ``import dcmg`` never needs them; concurrent.futures
    # loads logging
    import queue
    from concurrent.futures import ThreadPoolExecutor

    # the worker takes each block's slots and codes from ``todo`` (None
    # ends it) and answers each with True on ``done``, or with False once
    # it has failed.  One task for all the blocks: a task per block costs
    # the executor's bookkeeping, and the GIL it holds, on every block
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def write() -> None:
        # bench/tracing.py's span stack is not thread-safe: call nothing it
        # wraps here
        try:
            while (block := todo.get()) is not None:
                words, code = block
                for piece in row_blocks(code.size, _PIECE_FIELD_BYTES):
                    kept = keep[: piece.stop - piece.start]
                    np.take(masks, code[piece], axis=0, out=kept, mode="clip")
                    text = words[piece].view(np.uint8).reshape(-1)
                    fh.write(np.compress(kept.view(np.bool_).reshape(-1), text))
                done.put(True)
        except BaseException:
            done.put(False)  # wakes this thread if it waits for a buffer
            raise

    # leaving the block waits for the worker: never return while a block
    # is still being written
    with ThreadPoolExecutor(1) as pool:
        writing = pool.submit(write)
        try:
            for b, span in enumerate(row_blocks(n, width * _FIELD_BYTES)):
                if b >= 2 and not done.get():  # block b - 2 was not written
                    break
                block = values[: span.stop - span.start]
                np.concatenate([c[span] for c in columns], axis=1, out=block)
                words, code = slots[b % 2, : block.size], codes[b % 2, : block.size]
                _slots(block.reshape(-1), width, words, code, scratch)
                todo.put((words, code))
        finally:
            todo.put(None)
    writing.result()
