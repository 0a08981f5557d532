"""Exact ``%.17g`` text for float64 arrays, in a fixed number of numpy steps
per array.

``sample`` writes up to millions of draws, and one Python f-string per draw
cost more than drawing them.  The decimal digits of values in [1e-4, 2**50)
come from exact integer arithmetic (the binary-to-decimal conversion of
Steele & White, PLDI 1990, and Gay, AT&T 1990, specialised to 17 digits);
every other value is formatted by Python, so the bytes always equal
``f"{x:.17g}"``.  Each value fills a fixed-width byte row whose unprinted
bytes are 0, and one ``bytes.translate`` deletes them.  The working arrays
peak at about 160 bytes per value, so ``sample`` formats its draws one block
at a time and writes the ASCII as it is.  Kept out of ``cli`` so that compiling
the command-line module stays small.
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


def _scaled17(mant, exp2, dexp):
    """floor(v * 10**(16 - dexp)) and whether it rounds up, half to even,
    for v = mant * 2**exp2 with mant < 2**53.

    The exact product mant * 5**k (k = 16 - dexp, under 2**100) is formed
    in two uint64 limbs from 32-bit halves, then shifted right by
    -(exp2 + k): between 1 and 47 for 1e-4 <= v < 2**50, with dexp the
    log10 guess or the true decimal exponent.
    """
    k = 16 - dexp
    p = _POW5[k]
    a0, a1 = mant & _LOW32, mant >> np.uint64(32)
    b0, b1 = p & _LOW32, p >> np.uint64(32)
    p00 = a0 * b0
    mid = a0 * b1 + a1 * b0 + (p00 >> np.uint64(32))
    lo = (mid << np.uint64(32)) | (p00 & _LOW32)
    hi = a1 * b1 + (mid >> np.uint64(32))
    shift = (-(exp2 + k)).astype(np.uint64)
    q = (hi << (np.uint64(64) - shift)) | (lo >> shift)
    rem = lo & ((np.uint64(1) << shift) - np.uint64(1))
    half = np.uint64(1) << (shift - np.uint64(1))
    return q, (rem > half) | ((rem == half) & ((q & np.uint64(1)) == 1))


def _g17_lines(values):
    """``"".join(f"{v:.17g}\\n" for v in values)`` for a float64 array, as
    ASCII bytes.

    Values in [1e-4, 2**50) are printed in %g's fixed notation, exactly:
    D = round(v * 10**(16 - X)) comes from ``_scaled17``, with the decimal
    exponent X from log10 corrected by the digit count of the unrounded D.
    Its 20-digit zero-padded text comes from a 4-digit table whose trimmed
    half, read from D's last nonzero group on, holds the zeros %g strips as
    0 bytes.  A value below 1 then needs only "0." written over the padding;
    one with an integer part has it moved a column left, per distinct X.
    Python formats every other value (0, negatives, e-notation, non-finite,
    the top of the fixed range) into its own row.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    # v >= float(1e-4) > 1e-4 gives X >= -4, and v < 2**50 < 1e16 gives X <= 15
    fast = (v >= 1e-4) & (v < 2.0**50)
    bits = np.where(fast, v, 0.5).view(np.uint64)  # 0.5: no integer part
    mant = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    exp2 = (bits >> np.uint64(52)).astype(np.int64) - 1075
    guess = np.clip(np.floor(np.log10(bits.view(float))), -4, 15).astype(np.int64)
    q, up = _scaled17(mant, exp2, guess)
    dexp = guess + (q >= 10**17) - (q < 10**16)
    redo = np.flatnonzero(dexp != guess)
    if redo.size:
        q[redo], up[redo] = _scaled17(mant[redo], exp2[redo], dexp[redo])
    # D never rounds up to 10**17 here: that needs a double below 10**X within
    # 5e-17 relative, and 10**0..10**15 are doubles with neighbours 1.1e-16
    # away, while the doubles nearest 10**-4..10**-1 lie above them
    d = (q + up).view(np.int64)
    del bits, mant, exp2, guess, q, up  # freed before the layout
    # D's 20-digit zero-padded text, four digits a group: a group with no
    # nonzero group after it reads the trimmed half of _DIGITS4
    digits = np.empty((n, 5), np.uint32)
    for i, p in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        quo = d // p
        d = d - quo * p
        digits[:, i] = _DIGITS4[quo + 10**4 * (d == 0)]
    digits = digits.view(np.uint8)  # D's first digit in column 3
    # digit j goes to column 2 + j; X < 0 puts "0." at columns X + 4, X + 5
    canvas = np.zeros((n, _TEXT + 1), np.uint8)
    canvas[:, 2:22] = digits
    canvas[:, _TEXT] = ord("\n")
    at = np.arange(n) * (_TEXT + 1) + (dexp + 4)
    canvas.reshape(-1)[at] = ord("0")
    canvas.reshape(-1)[at + 1] = ord(".")
    canvas[dexp == -1, 2] = 0  # the padding left of its "0."
    # X >= 0: the integer part, its zeros restored ("0" is 0x30), moves to
    # columns 4..X + 4, then a point if a fractional digit is left
    ints = np.flatnonzero(dexp >= 0)
    xs = dexp[ints]
    for x in np.flatnonzero(np.bincount(xs)).tolist():
        rows = ints[xs == x]
        head = np.zeros((rows.size, x + 4), np.uint8)
        head[:, 2:x + 3] = digits[rows, 3:x + 4] | ord("0")
        head[:, x + 3] = (digits[rows, x + 4] != 0) * ord(".")
        canvas[rows, 2:x + 6] = head
    slow = np.flatnonzero(~fast)
    text = (f"%-{_TEXT}.17g" * slow.size) % tuple(v[slow].tolist())
    text = text.replace(" ", "\0").encode("ascii")
    canvas[slow, :_TEXT] = np.frombuffer(text, np.uint8).reshape(-1, _TEXT)
    return canvas.tobytes().translate(None, b"\0")
