"""Decimal text of float64 arrays, written by array arithmetic.

repr_rows gives each row of a matrix as " ".join(map(repr, row)),
byte for byte. repr writes the shortest decimal that reads back as the
value (Steele & White's shortest round-trip printing). Here a cell of
10**-8 <= |x| < 10**15 takes D = rint(|x| * 10**(14-e)), with e its
decimal exponent and an exactly representable power of ten. If D has
15 digits and D / 10**(14-e) == |x|, D reads back as x: that division
is correctly rounded, as in Clinger's exact fast path for reading
decimals. Two decimals of at most 15 digits lie more than an ulp
apart, so no other such decimal reads back as x, and D without its
trailing zeros is repr's digit string; every value of at most 15
significant digits in that range takes this path. Each cell's digits
are then placed by one of repr's layouts (12.5, 0.00125, 1.25e-05), a
table row per sign, decimal point place and digit count. A row holding
any other cell (one of 16 or 17 digits, one out of that range, or a
non-finite one) is written by repr itself.

row_texts gives a non-empty finite matrix's rows as Rows, which jsontext
writes as its nested lists; a Dataset keeps its own (Dataset.row_text).

The tables and the exponent step are shared with synthetic's "% .7e"
writer of X_train.txt, which scales to 8 digits the same way, and the
powers of ten with e7text's reader of it.
"""

from __future__ import annotations

import functools

import numpy as np

#: 10**p for 0 <= p <= 22: the powers of ten a double holds exactly.
POW10 = np.array([float(10 ** p) for p in range(23)])
#: Cells formatted per block of repr_rows: its working arrays take about
#: 250 bytes a cell, and a block of them stays within half a megabyte.
_BLOCK_CELLS = 1 << 11


def words(texts, dtype) -> np.ndarray:
    """The ASCII texts joined, read as little-endian words of dtype."""
    return np.frombuffer("".join(texts).encode(), dtype=dtype)


#: "00" .. "99"
_PAIRS = words([f"{i:02d}" for i in range(100)], "<u2").astype(np.uint64)
#: "0000" .. "9999", in the low 4 bytes
DIGITS = (_PAIRS[:, None] | _PAIRS << np.uint64(16)).ravel()


def decimal_scale(a: np.ndarray, n: int):
    """(e, scale, exact) of positive finite values a: e is each value's
    decimal exponent, from floor(log10(a)) corrected once, so that
    a * scale, scale = 10**(n-1-e), lies in [10**(n-1), 10**n) up to
    its rounding; exact marks the values whose power of ten is one of
    POW10's (elsewhere scale is clipped to that range)."""
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * POW10.take(n - 1 - e, mode="clip")
    e += (s >= 10.0 ** n).astype(np.int64) - (s < 10.0 ** (n - 1))
    p = n - 1 - e
    return e, POW10.take(p, mode="clip"), (p >= 0) & (p < POW10.size)


def _significant_digits() -> np.ndarray:
    """_NDIGITS[k, g]: a 16-digit string's significant digits up to and
    including its 4-digit group k when that group is g, or 0 if g has
    no nonzero digit; the maximum over its 4 groups is the string's."""
    last = 4 - sum(np.arange(10 ** 4) % 10 ** z == 0 for z in range(1, 5))
    return np.where(last > 0, 4 * np.arange(4)[:, None] + last, 0).astype(
        np.uint8)


_NDIGITS = _significant_digits()
#: decpt, the decimal point's place after the first of D's digits, of
#: the fast path: 10**-8 <= |x| < 10**15
_DECPTS = range(-7, 16)
#: One cell's alphabet: D's 15 digits and a 0, then these characters,
#: the last the space that ends a cell; a layout indexes into it.
_CHARS = "0123456789.-e "
#: Pads a layout past its length; negative after any cell's offset.
_UNUSED = np.iinfo(np.intp).min


@functools.cache
def _layouts():
    """(layouts, lengths, width): row 30 * (decpt + 7) + 15 * negative
    + nd - 1 of layouts lists, from the start of a cell's alphabet, the
    characters repr writes for nd significant digits at decpt, then a
    space, padded with _UNUSED to lengths.max() entries. width is the
    alphabet's, in bytes, a multiple of 8."""
    zero, dot, minus, e, space = (16 + _CHARS.index(c) for c in "0.-e ")
    stop = 16 + len(_CHARS)
    rows = []
    for decpt in _DECPTS:
        bodies = []
        for nd in range(1, 16):
            if decpt > 0:  # 12.5, 100.0
                body = [*range(decpt), dot,
                        *range(decpt, max(nd, decpt + 1))]
            elif decpt > -4:  # 0.00125
                body = [zero, dot, *[zero] * -decpt, *range(nd)]
            else:  # 1.25e-05, 1e-08
                body = [0, *([dot, *range(1, nd)] if nd > 1 else []),
                        e, minus, zero, zero + 1 - decpt]
            bodies.append(body + [space])
        rows += bodies + [[minus, *body] for body in bodies]
    lengths = np.array([len(r) for r in rows])
    size = lengths.max()
    layouts = np.array([r + [_UNUSED] * (size - len(r)) for r in rows])
    return layouts, lengths, -(-stop // 8) * 8


def repr_rows(table: np.ndarray):
    """Yield each row of the 2-D float64 array table as
    " ".join(map(repr, row.tolist())), formatting a block of rows at a
    time."""
    n, m = table.shape
    block = max(1, _BLOCK_CELLS // max(m, 1))
    for start in range(0, n, block):
        yield from _repr_block(table[start:start + block])


class Rows(list):
    """The text of a finite matrix's rows, one str a row, as repr_rows
    writes them; jsontext writes it as the matrix's nested lists."""


def row_texts(table: np.ndarray) -> Rows:
    """Rows(repr_rows(table)), or ValueError for an empty or non-finite
    table. No repr text holds a space, so the rows with another
    separator are text.replace(" ", sep)."""
    if not table.size or not np.isfinite(table).all():
        raise ValueError(f"no row text for an empty or non-finite "
                         f"matrix of shape {table.shape}")
    return Rows(repr_rows(table))


def _digits(x: np.ndarray):
    """(fast, e, d): which values of x take the array path, zeros
    included, and for each its decimal exponent e and 15 digits D
    (0 and 0 for the others)."""
    a = np.abs(x)
    zero = a == 0
    fast = np.isfinite(a) & ~zero
    a[~fast] = 1.0
    e, scale, exact = decimal_scale(a, 15)
    d = a * scale
    np.rint(d, out=d)
    fast &= exact & (d >= 1e14) & (d < 1e15) & (d / scale == a)
    d[~fast] = 0
    e[~fast] = 0
    return fast | zero, e, d


def _quartets(d: np.ndarray):
    """D's 15 digits and a 0 as 4 groups of 4 digits, each an index
    into DIGITS: a quotient below 10**4 is within 2**-40 of the exact
    one, whose fraction is a multiple of 10**-11, so floor is exact."""
    for power in (1e11, 1e7, 1e3):
        group = np.floor(d / power)
        d -= group * power
        yield group.astype(np.intp)
    yield (d * 10).astype(np.intp)


def _repr_block(table: np.ndarray) -> list[str]:
    n, m = table.shape
    if not m:
        return [""] * n
    x = table.ravel()
    fast, e, d = _digits(x)
    whole = fast.reshape(n, m).all(axis=1)
    rows = _laid_out(x, e, d, m) if whole.any() else [""] * n
    # a row with any other cell is written by repr itself
    for r in np.flatnonzero(~whole).tolist():
        rows[r] = " ".join(map(repr, table[r].tolist()))
    return rows


def _laid_out(x: np.ndarray, e: np.ndarray, d: np.ndarray,
              m: int) -> list[str]:
    """The rows of m cells of x, e and D, each cell laid out as repr
    lays out its digits."""
    layouts, lengths, width = _layouts()
    alphabet = np.empty((x.size, width), dtype=np.uint8)
    alphabet[:, 16:16 + len(_CHARS)] = np.frombuffer(_CHARS.encode(),
                                                     dtype=np.uint8)
    nd = np.ones(x.size, dtype=np.intp)  # a zero's "0.0"
    for k, group in enumerate(_quartets(d)):
        alphabet.view("<u4")[:, k] = DIGITS.take(group)
        np.maximum(nd, _NDIGITS[k].take(group), out=nd)
    key = 30 * (e + 8) + 15 * np.signbit(x) + nd - 1  # decpt is e + 1

    cell_lengths = lengths.take(key)
    cells = layouts[:, :cell_lengths.max()].take(key, axis=0)
    cells += (np.arange(x.size) * width)[:, None]
    text = alphabet.ravel().take(cells[cells >= 0]).tobytes().decode("ascii")
    ends = np.cumsum(cell_lengths.reshape(-1, m).sum(axis=1)).tolist()
    # each row's last cell ends with a space
    return [text[start:end - 1] for start, end in zip([0, *ends], ends)]
