"""Exact ``%.17g`` text for float64 arrays, one block at a time, in a fixed
number of numpy steps per block.

``sample`` writes up to millions of draws, and one Python f-string per draw
cost more than drawing them.  The decimal digits of values in [1e-4, 2**50)
come from exact integer arithmetic (the binary-to-decimal conversion of
Steele & White, PLDI 1990, and Gay, AT&T 1990, specialised to 17 digits)
at the decimal exponent log10 gives; every other value, and the few within
ulps of a power of ten whose exponent log10 misses by one, is formatted by
Python, so the bytes always equal ``f"{x:.17g}"``.  Each value fills a
fixed-width byte row whose unprinted bytes are 0 (or, in Python's text,
padding spaces), and one ``bytearray.translate`` deletes them.  A run
formats every block in arrays made once and sized to one block: three
uint64 rows, the byte canvas, whose bytes hold three more rows of the limbs
until the text is laid out, and four byte-wide arrays, 53 bytes a value.
With a block's text and the few arrays sized by the values with an integer
part or that Python formats, a run peaks at about 80 bytes a value
(tracemalloc), and a fresh process reuses the same pages for every block.
Kept out of ``cli`` so that compiling the command-line module stays small.
"""

from __future__ import annotations

import numpy as np

# 5**k for the decimal scalings 10**(16 - X) = 5**k * 2**k, X in [-4, 15]
_POW5 = np.uint64(5) ** np.arange(21, dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_TEXT = 24  # longest %.17g text, "-2.2250738585072014e-308"
# ASCII of 0000..9999 as uint32 words, then each with its trailing "0"s as 0
# bytes: byte j stays if the word XOR "0000", read little-endian, has a bit
# from byte j up (uint8 grids: int64 temporaries would stay ~1 MB resident)
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"),
                    axis=-1).reshape(-1, 4)
_DIGITS4 = np.concatenate((_DIGITS4, _DIGITS4 * ((_DIGITS4.view("<u4") ^ 0x30303030)
                          >> np.uint32([0, 8, 16, 24]) != 0))).view(np.uint32).ravel()


def _scaled17(w, dexp, up):
    """floor(v * 10**(16 - dexp)) over w[0] and whether it rounds up, half to
    even, into up, for the doubles v whose bits w[0] holds; w[1:] is scratch.

    The exact product mant * 5**k (k = 16 - dexp, under 2**100) is formed
    in two uint64 limbs from 32-bit halves, then shifted right by
    -(exp2 + k): between 1 and 47 for 1e-4 <= v < 2**50, with dexp the
    log10 guess, which may miss the decimal exponent by one.  The limbs are
    exact integers below 2**64, so their sums may run in any order.
    """
    q, s, b, c, d, e = w
    si, ei = s.view(np.int64), e.view(np.int64)
    np.subtract(16, dexp, out=ei)  # k
    np.take(_POW5, ei, out=b, mode="clip")  # k lies in [1, 20]
    np.right_shift(q, 52, out=s)
    np.add(si, ei, out=si)
    np.subtract(1075, si, out=si)  # the shift, 1075 - biased exponent - k
    np.bitwise_and(q, 2**52 - 1, out=q)
    np.bitwise_or(q, 2**52, out=q)  # mant
    np.bitwise_and(q, _LOW32, out=d)  # a0
    np.right_shift(q, 32, out=q)  # a1
    np.bitwise_and(b, _LOW32, out=c)  # b0
    np.right_shift(b, 32, out=b)  # b1
    np.multiply(d, c, out=e)  # a0 b0
    np.multiply(q, c, out=c)  # a1 b0
    np.multiply(d, b, out=d)  # a0 b1
    np.add(d, c, out=d)
    np.right_shift(e, 32, out=c)
    np.add(d, c, out=d)  # mid
    np.left_shift(d, 32, out=c)
    np.bitwise_and(e, _LOW32, out=e)
    np.bitwise_or(c, e, out=c)  # lo
    np.multiply(q, b, out=q)
    np.right_shift(d, 32, out=d)
    np.add(q, d, out=q)  # hi
    np.subtract(64, s, out=b)
    np.left_shift(q, b, out=q)
    np.right_shift(c, s, out=d)
    np.bitwise_or(q, d, out=q)  # q = (hi << (64 - shift)) | (lo >> shift)
    np.left_shift(1, s, out=b)
    np.subtract(b, 1, out=b)
    np.bitwise_and(c, b, out=c)  # rem = lo mod 2**shift
    np.subtract(s, 1, out=s)
    np.left_shift(1, s, out=b)  # half = 2**(shift - 1)
    # rem > half, or rem == half with q odd: rem + (q & 1) > half
    np.bitwise_and(q, 1, out=d)
    np.add(c, d, out=c)
    np.greater(c, b, out=up)


def _g17_blocks(values, block):
    """For each run of ``block`` values of a float64 array, in order,
    ``"".join(f"{v:.17g}\\n" for v in run)`` as ASCII bytes.

    Values in [1e-4, 2**50) are printed in %g's fixed notation, exactly:
    D = round(v * 10**(16 - X)) comes from ``_scaled17``, with the decimal
    exponent X from log10; where that misses by one, the unrounded D has 16
    or 18 digits and Python formats the value.
    Its 20-digit zero-padded text comes from a 4-digit table whose trimmed
    half, read from D's last nonzero group on, holds the zeros %g strips as
    0 bytes.  A value below 1 then needs only "0." written over the padding;
    one with an integer part has it moved a column left, per distinct X.
    Python formats every other value (0, negatives, e-notation, non-finite,
    the top of the fixed range) into its own row.  Every array is made once,
    and the canvas is cleared in each block once its limbs are spent, so
    every byte a block prints is written in that block.
    """
    v = np.asarray(values, dtype=float).ravel()
    m = min(v.size, block)
    w = np.empty((3, m), np.uint64)
    dexp = np.empty(m, np.int8)
    fast, up, mask = np.empty((3, m), bool)
    buf = bytearray(m * (_TEXT + 1))
    canvas = np.frombuffer(buf, np.uint8).reshape(m, _TEXT + 1)
    for start in range(0, v.size, block):
        x = v[start:start + block]
        n = x.size
        q, quo, rest = w[:, :n]
        dx, fn, un, mn = dexp[:n], fast[:n], up[:n], mask[:n]
        # v >= float(1e-4) > 1e-4 gives X >= -4, and v < 2**50 < 1e16 gives X <= 15
        np.greater_equal(x, 1e-4, out=fn)
        np.less(x, 2.0**50, out=mn)
        np.logical_and(fn, mn, out=fn)
        bits = q.view(float)
        np.copyto(bits, x)
        np.copyto(bits, 0.5, where=np.logical_not(fn, out=mn))  # 0.5: no integer part
        guess = quo.view(float)
        np.log10(bits, out=guess)
        np.floor(guess, out=guess)
        np.clip(guess, -4, 15, out=dx, casting="unsafe")
        # the limbs take the rows of w and three rows' worth of the canvas's
        # bytes, which the text overwrites once D is known
        _scaled17((q, quo, rest, *np.frombuffer(buf, np.uint64, 3 * n).reshape(3, n)), dx, un)
        # D has 16 or 18 digits where the guess is off by one, within a few
        # ulps of a power of ten: Python formats those (0.5's D has 17)
        np.logical_and(fn, np.greater_equal(q, 10**16, out=mn), out=fn)
        np.logical_and(fn, np.less(q, 10**17, out=mn), out=fn)
        canvas.fill(0)  # the limbs are spent
        # D never rounds up to 10**17 here: that needs a double below 10**X within
        # 5e-17 relative, and 10**0..10**15 are doubles with neighbours 1.1e-16
        # away, while the doubles nearest 10**-4..10**-1 lie above them
        np.add(q, un, out=q)
        # D's 20-digit zero-padded text, four digits a group, in columns 2-21
        # (D's first digit in column 5): a group with no nonzero group after it
        # reads the trimmed half of _DIGITS4
        d, quo, rest = q.view(np.int64), quo.view(np.int64), rest.view(np.int64)
        group = rest.view(np.uint32)[:n]
        rows = canvas[:n]
        for col, p in zip(range(2, 22, 4), (10**16, 10**12, 10**8, 10**4, 1)):
            np.floor_divide(d, p, out=quo)
            np.multiply(quo, p, out=rest)
            np.subtract(d, rest, out=d)
            np.multiply(np.equal(d, 0, out=mn), 10**4, out=rest)
            np.add(quo, rest, out=quo)
            np.take(_DIGITS4, quo, out=group, mode="clip")
            rows[:, col:col + 4].view(np.uint32)[:, 0] = group
        rows[:, _TEXT] = ord("\n")
        # X < 0 puts "0." at columns X + 4, X + 5
        for e in range(-4, 0):
            np.equal(dx, e, out=mn)
            np.copyto(rows[:, e + 4], ord("0"), where=mn)
            np.copyto(rows[:, e + 5], ord("."), where=mn)
        np.copyto(rows[:, 2], 0, where=mn)  # X = -1: the padding left of its "0."
        # X >= 0: the integer part, its zeros restored ("0" is 0x30), moves to
        # columns 4..X + 4, then a point if a fractional digit is left
        ints = np.flatnonzero(np.greater_equal(dx, 0, out=mn))
        xs = dx[ints]
        for e in np.flatnonzero(np.bincount(xs)).tolist():
            at = ints[xs == e]
            src = rows[at, 5:e + 7]
            head = np.zeros((at.size, e + 4), np.uint8)
            head[:, 2:e + 3] = src[:, :e + 1] | ord("0")
            head[:, e + 3] = (src[:, e + 1] != 0) * ord(".")
            rows[at, 2:e + 6] = head
        del ints, xs  # freed before Python's text, which is freed before the translate
        slow = np.flatnonzero(np.logical_not(fn, out=mn))
        text = ((f"%-{_TEXT}.17g" * slow.size) % tuple(x[slow].tolist())).encode("ascii")
        rows[slow, :_TEXT] = np.frombuffer(text, np.uint8).reshape(-1, _TEXT)
        del text
        yield buf.translate(None, b" \0")
