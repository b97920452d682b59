"""CSV text of float arrays, computed in numpy.

Every float in a CSV export is repr(x), so float(field) gives the stored
value bit for bit.  float_text computes that text for a whole array and
csv_lines joins text fields into lines.  The CSV writers import this module
when they run: starting a command does not need it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Values formatted per CSV write: float_text's temporaries (about 400 bytes
# per value) and the text buffers stay a few MB.
CSV_CHUNK = 1 << 14


# Float text.  A finite normal x = +-M 2^E (2^52 <= M < 2^53) scales to
# s = M 2^E 10^-q in [1e16, 2e17), q = floor((E + 52) log10 2) - 16.  What
# lies within a half-gap of s (G / 2, G = 2^E 10^-q; G / 4 below a power of
# two) reads back as x, and repr prints the multiple of 10^j in there with
# the largest j, the nearer of two.  The interval is under 45 units wide:
# a multiple of 100 in it is unique, else the candidates are the multiples
# of 10 (or 1) around s.  s is a double-double product, good to 1e-13
# units.  An interval end or candidate midpoint within _TIE of an integer
# (a tie, settled by parity) and zeros, subnormals, inf and NaN take repr.
_TIE = 1e-9
# Columns of float_text's source rows: the 17 ASCII digits (_DIGITS: two
# little-endian int64 words of eight, then the ninth), 17 the sign, 18 the
# exponent form's dot, 19-22 the exponent's sign and digits, 23-26 '.',
# '0', 'e' and NUL.  A NUL stands for a character repr omits; _KEEP[k]
# keeps the first k digits of a word.
_DIGITS = list(range(8)) + [16] + list(range(8, 16))
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(8)] + [-1], np.int64)


@functools.cache
def _scale(biased: int) -> tuple:
    """q + 17 and G = hi (with Veltkamp halves) + lo, from exact integers."""
    e = biased - 1075
    q = math.floor((e + 52) * 0.30102999566398120) - 16
    num, den = 2 ** max(e, 0) * 10 ** max(-q, 0), 2 ** max(-e, 0) * 10 ** max(q, 0)
    hi = num / den                                      # correctly rounded
    hn, hd = hi.as_integer_ratio()
    top = 134217729.0 * hi - (134217729.0 * hi - hi)
    return q + 17, hi, top, hi - top, (num * hd - hn * den) / (den * hd)


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each 0 <= x < 10^8 as ASCII, the bytes of
    an int64 stored little-endian: split into halves, pairs and digits."""
    hi = x // 10000
    v = hi + ((x - 10000 * hi) << 32)
    w = (v * 10486 >> 20) & 0x0000007F0000007F
    v = w + ((v - 100 * w) << 16)
    w = (v * 103 >> 10) & 0x000F000F000F000F
    return w + ((v - 10 * w) << 8) + 0x3030303030303030


def float_text(values) -> np.ndarray:
    """repr of every element of a float array as ASCII, bit for bit: uint8
    of shape values.shape + (width <= 24,), each element's text with NUL
    bytes among and after it, which dropped leave repr(float(x)).encode().
    Temporaries take about 400 bytes per element: format large arrays in
    chunks."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    bits = x.reshape(-1).view(np.int64)
    biased, frac = (bits >> 52) & 2047, bits & ((1 << 52) - 1)
    slow = (biased == 0) | (biased == 2047)
    biased[slow] = 1023
    table = np.zeros((2048, 5))
    for b in np.flatnonzero(np.bincount(biased, minlength=2048)).tolist():
        table[b] = _scale(b)
    decpt, g_hi, g_top, g_bot, g_lo = np.take(table, biased, axis=0).T
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

    src = np.empty((len(bits), 32), np.uint8)           # columns as listed at _DIGITS
    c8 = c // 10 ** 8
    words = src.view("<i8")
    words[:, :2] = _ascii8(np.stack([c8 // 10, c - c8 * 10 ** 8], axis=1))
    src[:, 16] = c8 - c8 // 10 * 10 + 48
    nsig = 17 - has10 + big
    many = np.flatnonzero(has100)
    nsig[many] = 17 - np.argmax(src[many][:, _DIGITS[::-1]] != 48, axis=1)
    positional = (decpt > -4) & (decpt < 17)
    keep = np.maximum(nsig, (decpt + 1) * positional)  # digits printed
    words[:, 0] &= _KEEP[np.minimum(keep, 8)]
    words[:, 1] &= _KEEP[np.clip(keep - 9, 0, 8)]
    src[:, 16] *= keep > 8
    src[:, 17], src[:, 18], src[:, 23:27] = (bits < 0) * 45, (nsig > 1) * 46, (46, 48, 101, 0)
    sci = np.flatnonzero(~positional)                   # exponent form
    e = np.abs(decpt[sci] - 1)
    src[sci, 19:23] = np.column_stack([43 + 2 * (decpt[sci] < 1), (e >= 100) * (e // 100 + 48),
                                       e // 10 % 10 + 48, e % 10 + 48])

    slow = np.flatnonzero(slow)
    texts = [repr(v).encode() for v in x.reshape(-1)[slow].tolist()]
    out = np.zeros((len(bits), 24), np.uint8)
    out[slow] = np.array(texts, "S24").view(np.uint8).reshape(-1, 24)
    point = np.where(positional, decpt, 17)       # digits before the point; 17: exponent form
    point[slow] = 18
    counts, d, width = np.bincount(point + 3, minlength=22), _DIGITS, max(map(len, texts), default=1)
    for k in np.flatnonzero(counts[:21]).tolist():
        k -= 3
        cols = ([17, 0, 18] + d[1:] + [25, 19, 20, 21, 22] if k == 17 else
                [17, 24, 23] + [24] * -k + d if k <= 0 else [17] + d[:k] + [23] + d[k:])
        rows = np.flatnonzero(point == k) if counts[k + 3] < len(bits) else slice(None)
        out[rows, :len(cols)] = src[rows][:, cols]
        width = max(width, len(cols))
    return out[:, :width].reshape(x.shape + (width,))


def text_cells(texts) -> np.ndarray:
    """(len(texts), width) uint8, each str NUL-padded: fields for csv_lines."""
    cells = np.array([t.encode() for t in texts], "S")
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)


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
