"""CSV text of float arrays, computed in numpy.

Every float in a CSV export is repr(x), so float(field) gives the stored
value bit for bit.  float_text computes that text for a whole array as
fixed-width ASCII rows with NUL bytes where repr has no character,
take_cells picks rows of such text by index, and csv_lines joins text
fields into lines and drops the NULs.  The CSV writers import this module
when they run: starting a command does not need it.
"""

from __future__ import annotations

import math

import numpy as np

# Values formatted at a time by float_text and per CSV write: float_text's
# temporaries peak at about 260 bytes per value (4.3 MB, measured with
# tracemalloc) and the text buffers stay about 1 MB.
CSV_CHUNK = 1 << 14


# Float text.  A finite normal x = +-M 2^E (2^52 <= M < 2^53) scales to
# s = M 2^E 10^-q in [1e16, 2e17), q = floor((E + 52) log10 2) - 16.  What
# lies within a half-gap of s (G / 2, G = 2^E 10^-q; G / 4 below a power of
# two) reads back as x, and repr prints the multiple of 10^j in there with
# the largest j, the nearer of two.  The interval is under 45 units wide:
# a multiple of 100 in it is unique, else the candidates are the multiples
# of 10 (or 1) around s.  s is a double-double product, good to 1e-13
# units.  An interval end or candidate midpoint within _TIE of an integer
# (a tie, settled by parity), subnormals, inf and NaN take repr.  A zero is
# scaled as 1.0 and its first digit set to '0'.
_TIE = 1e-9

# Text layout.  With the point after digit k (k = -3 ... 16; k = 1 in the
# exponent form), n1 = c + 9 (c // 10^(17-k)) 10^(17-k) is c with a 0
# digit inserted where the point goes; for k < 1 it is c itself, whose
# leading zeros hold the '0.' and the zeros after the point.  Written as 24
# decimal digits, leading zeros included, in three ASCII words, the text
# lies at bytes [5 + min(k, 1), 7 + keep) with the placeholder at byte
# k + 6.  Every byte outside it is a '0' (a leading zero or one of c's
# trailing zeros), so one XOR word, _FLIP by key ((k + 3) 18 + keep) 2 +
# (x < 0), turns the placeholder into '.', the byte before the text into
# '-' when x < 0 and the others into NULs.  An exponent form's text then
# moves to byte 1, and 'e', the exponent's sign and three digits fill bytes
# 19..23 (a NUL for a leading zero hundreds digit).
_POINT = np.array([10 ** (17 - max(k, 0)) for k in range(-3, 17)], np.int64)


def _flip_table() -> np.ndarray:
    flip = np.full((20, 18, 2, 24), ord("0"), np.uint8)
    for k in range(-3, 17):
        for keep in range(18):
            first = 5 + min(k, 1)
            flip[k + 3, keep, :, first:7 + keep] = 0
            flip[k + 3, keep, :, k + 6] = ord("0") ^ ord(".")
            flip[k + 3, keep, 1, first - 1] = ord("0") ^ ord("-")
    flip[4, 1, :, 7] = ord("0")                         # no point in '1e+16'
    return np.ascontiguousarray(flip.reshape(-1, 24).view(np.int64).T)


_FLIP = _flip_table()

# decpt, hi, top, bot, lo of _scale for each biased exponent, filled on
# first use: a cache of exact values, the same for every caller.
_SCALES = np.zeros((5, 2048))
_SCALED = np.zeros(2048, bool)


def _scale(biased: int) -> tuple:
    """q + 17 and G = hi (with Veltkamp halves) + lo, from exact integers."""
    e = biased - 1075
    q = math.floor((e + 52) * 0.30102999566398120) - 16
    num, den = 2 ** max(e, 0) * 10 ** max(-q, 0), 2 ** max(-e, 0) * 10 ** max(q, 0)
    hi = num / den                                      # correctly rounded
    hn, hd = hi.as_integer_ratio()
    top = 134217729.0 * hi - (134217729.0 * hi - hi)
    return q + 17, hi, top, hi - top, (num * hd - hn * den) / (den * hd)


def _scales(biased: np.ndarray) -> np.ndarray:
    """(5, n) rows of _SCALES for each biased exponent, computing new ones."""
    new = np.flatnonzero(np.bincount(biased, minlength=2048).astype(bool) > _SCALED)
    for b in new.tolist():
        _SCALES[:, b] = _scale(b)
    _SCALED[new] = True
    return np.take(_SCALES, biased, axis=1)


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each 0 <= x < 10^8 as ASCII, the bytes of
    an int64 stored little-endian: split into halves, pairs and digits."""
    v = (x << 32) - x // 10000 * ((10000 << 32) - 1)   # [x // 10^4, x % 10^4]
    w = (v * 10486 >> 20) & 0x0000007F0000007F
    v = (v << 16) - w * ((100 << 16) - 1)
    w = (v * 103 >> 10) & 0x000F000F000F000F
    return (v << 8) - w * ((10 << 8) - 1) + 0x3030303030303030


def _repr_text(values: np.ndarray) -> np.ndarray:
    """repr of each element of a 1-d float array: (n, 24) NUL-padded ASCII.
    float_text's fallback for ties, subnormals, inf and NaN."""
    texts = np.array([repr(v).encode() for v in values.tolist()], "S24")
    return texts.view(np.uint8).reshape(len(texts), 24)


def float_text(values) -> np.ndarray:
    """repr of every element of a float array as ASCII, bit for bit: uint8
    of shape values.shape + (width <= 24,), each element's text with NUL
    bytes before, among and after it, which dropped leave
    repr(float(x)).encode().

    The shortest digits come from int64 and double-double arithmetic; they
    are written in reading order as three ASCII words per value with a
    placeholder digit where the point goes, and one table word per value
    (by point position, digits kept and sign) turns that digit into '.',
    the one before the text into '-' and the unused ones into NULs.  A
    zero is formatted as 1.0 with its first digit lowered to '0'.  Values
    are formatted CSV_CHUNK at a time, so temporaries stay at about 4 MB
    beside the 24 bytes per value of the result."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty((len(flat), 24), np.uint8)
    spans = [_text_block(flat[at:at + CSV_CHUNK], out[at:at + CSV_CHUNK])
             for at in range(0, len(flat), CSV_CHUNK)]
    lo, hi = min((s[0] for s in spans), default=0), max((s[1] for s in spans), default=1)
    return out[:, lo:hi].reshape(x.shape + (hi - lo,))


def _digits(bits: np.ndarray) -> tuple:
    """The shortest repr digits of float64 bit patterns: c (17 digits,
    trailing zeros included), the decimal point position decpt (x = 0.c
    10^decpt), the count nsig of c's significant digits, and the zero and
    repr-fallback masks.  Its temporaries end with the call."""
    biased, frac = (bits >> 52) & 2047, bits & ((1 << 52) - 1)
    odd = (biased == 0) | (biased == 2047)
    zero = (bits << 1) == 0
    slow = odd & ~zero
    biased[odd] = 1023
    decpt, g_hi, g_top, g_bot, g_lo = _scales(biased)
    mi = frac | (1 << 52)
    m, m_top = mi.astype(np.float64), (mi >> 27 << 27).astype(np.float64)
    m_bot = m - m_top
    p = m * g_hi                                        # s = p + rest (Dekker)
    rest = ((m_top * g_top - p) + m_top * g_bot + m_bot * g_top) + m_bot * g_bot + m * g_lo
    fl = np.floor(rest)
    whole, f = p.astype(np.int64) + fl.astype(np.int64), rest - fl
    h_up = 0.5 * g_hi
    lo, up = f - h_up * (1.0 - 0.5 * ((frac == 0) & (biased > 1))), f + h_up
    lo_fl, up_fl = np.floor(lo), np.floor(up)
    slow |= (np.abs(lo - lo_fl - 0.5) > 0.5 - _TIE) | (np.abs(up - up_fl - 0.5) > 0.5 - _TIE)
    first, last = whole + lo_fl.astype(np.int64) + 1, whole + up_fl.astype(np.int64)
    t100 = last // 100 * 100
    has100, has10 = t100 >= first, last // 10 * 10 >= first
    below = np.where(has10, whole // 10 * 10, whole)
    above = below + 1 + 9 * has10
    below_in, above_in = below >= first, above <= last
    twice = 2.0 * (whole - below + f) - (above - below)   # 2 s - below - above
    slow |= below_in & above_in & (np.abs(twice) < 2 * _TIE)
    c = np.where(has100, t100, np.where(above_in & (~below_in | (twice > 0)), above, below))
    big = c >= 10 ** 17
    c = np.where(big, c // 10, c)                       # 17 digits
    decpt = decpt.astype(np.int64) + big
    nsig = 17 - has10 + big
    many = np.flatnonzero(has100)
    nsig[many] = 17 - _trailing_zeros(c[many])
    return c, decpt, nsig, zero, slow


def _text_block(x: np.ndarray, out: np.ndarray) -> tuple[int, int]:
    """Write the text of a 1-d float64 array to out, (len(x), 24) uint8;
    the byte range [lo, hi) that holds every text.  Zeros take the same
    path as other values; only ties, subnormals, inf and NaN take
    _repr_text."""
    bits = x.view(np.int64)
    c, decpt, nsig, zero, slow = _digits(bits)
    positional = (decpt > -4) & (decpt < 17)
    keep = np.maximum(nsig, (decpt + 1) * positional)   # digits printed
    k = np.where(positional, decpt, 1)
    point = np.take(_POINT, k + 3)
    n1 = c + 9 * (c // point * point)
    h = n1 // 10 ** 8
    top = h // 10 ** 8                                  # n1's first two of 18 digits
    tens = top // 10
    words = np.empty((3, len(c)), np.int64)            # n1's 24 digits, '0' to '9'
    words[0] = (tens << 48 | (top - 10 * tens) << 56) + 0x3030303030303030
    np.subtract(h, top * 10 ** 8, out=words[1])
    np.subtract(n1, h * 10 ** 8, out=words[2])
    words[1:] = _ascii8(words[1:])
    key = ((k + 3) * 18 + keep) * 2 + (bits < 0)
    words ^= np.take(_FLIP, key, axis=1)
    words[0] -= zero << 48                              # 1.0's '1' becomes '0'
    sci = np.flatnonzero(~positional)                   # exponent form
    e = decpt[sci] - 1
    a = np.abs(e)
    w0, w1, w2 = (words[r, sci] for r in range(3))
    words[0, sci] = w0 >> 40 | w1 << 24
    words[1, sci] = w1 >> 40 | w2 << 24
    words[2, sci] = w2 >> 40 | (101 | (43 + 2 * (e < 0)) << 8 | (a >= 100) * (a // 100 + 48) << 16
                                | (a // 10 % 10 + 48) << 24 | (a % 10 + 48) << 32) << 24

    for r, word in enumerate(words):                    # 3x faster than one transposed copy
        out.view(np.int64)[:, r] = word
    lo, hi = (0, 24) if len(sci) else (4 + min(int(k.min()), 1), 7 + int(keep.max()))
    slow = np.flatnonzero(slow)
    if len(slow):
        out[slow] = _repr_text(x[slow])
        lo, hi = 0, max(hi, int(out[slow].any(axis=0).sum()))
    return lo, hi


def _trailing_zeros(v: np.ndarray) -> np.ndarray:
    """The number of trailing decimal zeros of each 0 < v < 10^32."""
    count = np.zeros_like(v)
    for p in (16, 8, 4, 2, 1):
        hit = v % 10 ** p == 0
        v = np.where(hit, v // 10 ** p, v)
        count += p * hit
    return count


def text_cells(texts) -> np.ndarray:
    """(len(texts), width) uint8, each str NUL-padded: fields for csv_lines."""
    cells = np.array([t.encode() for t in texts], "S")
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)


def take_cells(cells, index) -> np.ndarray:
    """cells[index] for a (n, width) text array, each row copied whole:
    uint8 of shape index.shape + (width,)."""
    width = cells.shape[-1]
    rows = np.ascontiguousarray(cells).view(f"V{width}").reshape(-1)
    return rows[index].view(np.uint8).reshape(np.shape(index) + (width,))


def csv_lines(*fields) -> bytes:
    """CSV lines from NUL-padded text fields (uint8 of shape lines + (k,
    width): k fields per line, line axes broadcasting), joined by commas in
    argument order; each line ends with a newline and NULs are dropped."""
    lines = np.broadcast_shapes(*(f.shape[:-2] for f in fields))
    spans = [f.shape[-2] * (f.shape[-1] + 1) for f in fields]
    buf = np.empty(lines + (sum(spans),), np.uint8)
    at = 0
    for f, span in zip(fields, spans):
        cell = buf[..., at:at + span].reshape(lines + (f.shape[-2], f.shape[-1] + 1))   # a view
        cell[..., :-1] = f
        cell[..., -1] = 44
        at += span
    buf[..., -1] = 10
    return buf.tobytes().translate(None, b"\0")
