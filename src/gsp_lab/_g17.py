"""Exact ``%.17g`` text for float64 arrays, in a fixed number of numpy steps
per array.

``sample`` writes up to millions of draws; one Python f-string per draw
cost more than drawing them.  Here the decimal digits of values in
[1e-4, 2**50) come from exact integer arithmetic (the binary-to-decimal
conversion of Steele & White, PLDI 1990, and Gay, AT&T 1990, specialised
to 17 digits), and every other value is formatted by Python, so the bytes
always equal ``f"{x:.17g}"``.  The text comes back as ASCII bytes, which
``sample`` writes as they are.  The working arrays take about 230 bytes per
value (310 where Python formats them), so ``sample`` formats its draws one
block at a time.  Kept out of ``cli`` so that compiling the command-line
module stays small.
"""

from __future__ import annotations

import numpy as np

# 5**k for the decimal scalings 10**(16 - X) = 5**k * 2**k, X in [-4, 15]
_POW5 = np.uint64(5) ** np.arange(21, dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
# ASCII of 0000..9999, four bytes per entry read as one uint32 (built from
# uint8 grids: int64 temporaries would leave ~1 MB resident after import)
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()
_TEXT = 24  # longest %.17g text, "-2.2250738585072014e-308"


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
    the 17-digit decimal D = round(v * 10**(16 - X)) comes from integer
    arithmetic (``_scaled17``), with the decimal exponent X from log10
    corrected by the digit count of the unrounded D; ASCII digits come from
    a 4-digit table.  Every other value (0, negatives, e-notation,
    non-finite, the top of the fixed range) is formatted by Python.  Each
    row is laid out in a padded byte matrix and one boolean mask drops the
    padding, the leading zeros %g does not print, the trailing zeros it
    strips and a point with nothing after it.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    # v >= float(1e-4) > 1e-4 gives X >= -4, and v < 2**50 < 1e16 gives X <= 15
    fast = (v >= 1e-4) & (v < 2.0**50)
    w = np.where(fast, v, 1.0)
    frac, exp2 = np.frexp(w)
    mant = (frac * 2.0**53).astype(np.uint64)
    exp2 = exp2.astype(np.int64) - 53
    guess = np.clip(np.floor(np.log10(w)), -4, 15).astype(np.int64)
    q, up = _scaled17(mant, exp2, guess)
    dexp = guess + (q >= 10**17) - (q < 10**16)
    redo = np.flatnonzero(dexp != guess)
    if redo.size:
        q[redo], up[redo] = _scaled17(mant[redo], exp2[redo], dexp[redo])
    # D never rounds up to 10**17 here: that needs a double below 10**X within
    # 5e-17 relative, and 10**0..10**15 are doubles with neighbours 1.1e-16
    # away, while the doubles nearest 10**-4..10**-1 lie above them
    d = q + up

    # z: "0" and the 20-digit zero-padded D, so z[4] is D's first digit
    groups = np.empty((n, 5), np.intp)
    for i, p in enumerate((10**16, 10**12, 10**8, 10**4)):
        groups[:, i] = quo = d // np.uint64(p)
        d = d - quo * np.uint64(p)
    groups[:, 4] = d
    z = np.empty((n, 21), np.uint8)
    z[:, 0] = ord("0")
    z[:, 1:] = _DIGITS4[groups].view(np.uint8)
    units = (dexp + 4).astype(np.int8)  # z index of the units digit
    last = (20 - np.argmax(z[:, 20:0:-1] != ord("0"), axis=1)).astype(np.int8)

    # column c holds z[c] up to the units digit, then the point, then z[c - 1];
    # the row keeps columns from the integer part's first digit (z[4], or
    # the "0" of "0.") to the last nonzero digit or the units digit
    width = _TEXT + 1
    canvas = np.empty((n, width), np.uint8)
    canvas[:, 1:22] = z
    cols = np.arange(width, dtype=np.int8)
    np.copyto(canvas[:, :21], z, where=cols[:21] <= units[:, None])
    canvas.reshape(-1)[np.arange(n) * width + units + 1] = ord(".")
    canvas[:, _TEXT] = ord("\n")
    end = np.where(last > units, last + 1, units)
    keep = (cols >= np.minimum(units, 4)[:, None]) & (cols <= end[:, None])
    keep[:, _TEXT] = True

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join(f"{x:<{_TEXT}.17g}" for x in v[slow].tolist())
        rows = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _TEXT)
        canvas[slow, :_TEXT] = rows
        keep[slow, :_TEXT] = rows != ord(" ")
    return canvas[keep].tobytes()
