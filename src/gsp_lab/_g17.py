"""Exact ``%.17g`` text for float64 arrays, one block at a time, in a fixed
number of numpy steps per block.

``sample`` writes up to millions of draws, and one Python f-string per draw
cost more than drawing them.  The 17 digits of values in [1e-4, 1e17), all
of %g's fixed notation from 1e-4 up, come from v * 10**k written exactly as
a double plus its error by Dekker's TwoProduct (Numer. Math. 18, 1971), at
the decimal exponent log10 gives; every other value, and the few within
ulps of a power of ten whose exponent log10 misses by one, is formatted by
Python, so the bytes always equal ``f"{x:.17g}"``.  Each value fills a
fixed-width byte row whose unprinted bytes are 0 (or, in Python's text,
padding spaces), and one ``bytearray.translate`` deletes them.  A run
formats every block in arrays made once and sized to one block: three
8-byte rows, the byte canvas, whose bytes hold three more rows of the
product until the text is laid out, and four byte-wide arrays, 53 bytes a
value.  With a block's text and the few arrays sized by the values with an
integer part or that Python formats, a run peaks at about 80 bytes a value
(tracemalloc), and a fresh process reuses the same pages for every block.
Kept out of ``cli`` so that compiling the command-line module stays small.
"""

from __future__ import annotations

import numpy as np

# 10**k for the decimal scalings 10**(16 - X), X in [-4, 16], exact below
# 10**23, and its high and low halves from Veltkamp's splitter
_SPLIT = 2.0**27 + 1
_TEN = np.array([float(10**k) for k in range(21)])
_TEN_HI = _SPLIT * _TEN - (_SPLIT * _TEN - _TEN)
_TEN_LO = _TEN - _TEN_HI
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
    even, into up, for the doubles v in [1e-4, 1e17) that w[0] holds as
    float64; w[1:] is scratch, six 8-byte rows in all.

    Dekker's TwoProduct: with p = fl(v * 10**k), k = 16 - dexp in [0, 20],
    and v and 10**k split into 26-bit high and low halves by Veltkamp's
    constant 2**27 + 1, e = lo lo - (((p - hi hi) - lo hi) - hi lo) is
    exact, and v * 10**k = p + e.  From 2**53 up, as at every 17-digit D, p
    is an even integer: the floor is p + floor(e), and D rounds up, half to
    even, where rint(e) > e.  Below 2**53 the sum is at most v * 10**k, so
    it stays below 10**16 and a caller that keeps only 17-digit floors
    drops it.
    """
    v, lo_ten, p, t, hi_ten, hi = (row.view(float) for row in w)
    k = p.view(np.int64)
    np.subtract(16, dexp, out=k)
    np.take(_TEN, k, out=t)
    np.take(_TEN_HI, k, out=hi_ten)
    np.take(_TEN_LO, k, out=lo_ten)
    np.multiply(v, t, out=p)
    np.multiply(v, _SPLIT, out=hi)
    np.subtract(hi, v, out=t)
    np.subtract(hi, t, out=hi)
    np.subtract(v, hi, out=v)  # lo
    lo, e = v, t
    np.multiply(hi, hi_ten, out=e)
    np.subtract(p, e, out=e)
    np.multiply(lo, hi_ten, out=hi_ten)
    np.subtract(e, hi_ten, out=e)
    np.multiply(hi, lo_ten, out=hi)
    np.subtract(e, hi, out=e)
    np.multiply(lo, lo_ten, out=lo_ten)
    np.subtract(lo_ten, e, out=e)
    np.rint(e, out=hi)
    np.greater(hi, e, out=up)
    q = w[0].view(np.int64)
    np.copyto(q, p, casting="unsafe")
    np.floor(e, out=p.view(np.int64), casting="unsafe")
    np.add(q, p.view(np.int64), out=q)


def _g17_blocks(values, block):
    """For each run of ``block`` values of a float64 array, in order,
    ``"".join(f"{v:.17g}\\n" for v in run)`` as ASCII bytes.

    Values in [1e-4, 1e17) are printed in %g's fixed notation, exactly:
    D = round(v * 10**(16 - X)) comes from ``_scaled17``, with the decimal
    exponent X from log10; where that misses by one, the unrounded D has 16
    or 18 digits and Python formats the value.
    Its 20-digit zero-padded text comes from a 4-digit table whose trimmed
    half, read from D's last nonzero group on, holds the zeros %g strips as
    0 bytes.  A value below 1 then needs only "0." written over the padding;
    one with an integer part has it moved a column left, per distinct X.
    Python formats every other value (0, negatives, e-notation, non-finite)
    into its own row.  Every array is made once, and the canvas is cleared
    in each block once its scratch is spent, so every byte a block prints is
    written in that block.
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
        # v >= float(1e-4) > 1e-4 gives X >= -4, and v < 1e17 gives X <= 16
        np.greater_equal(x, 1e-4, out=fn)
        np.less(x, 1e17, out=mn)
        np.logical_and(fn, mn, out=fn)
        bits = q.view(float)
        np.copyto(bits, x)
        np.copyto(bits, 0.5, where=np.logical_not(fn, out=mn))  # 0.5: no integer part
        guess = quo.view(float)
        np.log10(bits, out=guess)
        np.floor(guess, out=guess)
        np.clip(guess, -4, 16, out=dx, casting="unsafe")
        # the product's scratch takes the rows of w and three rows' worth of
        # the canvas's bytes, which the text overwrites once D is known
        _scaled17((q, quo, rest, *np.frombuffer(buf, np.uint64, 3 * n).reshape(3, n)), dx, un)
        # D has 16 or 18 digits where the guess is off by one, within a few
        # ulps of a power of ten: Python formats those (0.5's D has 17)
        np.logical_and(fn, np.greater_equal(q, 10**16, out=mn), out=fn)
        np.logical_and(fn, np.less(q, 10**17, out=mn), out=fn)
        canvas.fill(0)  # the scratch is spent
        # D never rounds up to 10**17 here: that needs a double below 10**X within
        # 5e-17 relative, and 10**0..10**16 are doubles with neighbours 1.1e-16
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
