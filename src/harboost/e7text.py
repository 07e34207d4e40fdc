"""The fixed-width "% .7e" text of X_train.txt: its cell, and its reader.

synthetic writes X_train.txt one E7_CELL per value; read_e7 reads a file
of that layout back. A cell's 8 digits are read as one 64-bit word
(Lemire's eight-digit step) into an integer D < 10**8, and its value
D * 10**(k-7) is taken by one division or multiplication by an exactly
representable power of ten when |k - 7| <= 22. That operation is
correctly rounded, as in Clinger's fast path, so the value equals what
np.loadtxt reads, on any CPU and with any BLAS. A cell outside that
range is read by float() of its own text. A file that strays from the
layout anywhere is left to the caller's general parser.
"""

from __future__ import annotations

import os

import numpy as np

from .floattext import POW10


#: One cell of X_train.txt, its "% .7e" text and the separator after
#: it, as little-endian words: sign and lead digit, "." and 7 digits,
#: "e", exponent sign, 2 exponent digits and separator.
E7_CELL = np.dtype({"names": ["head", "frac", "e", "tail"],
                    "formats": ["<u2", "<u8", "u1", "<u4"],
                    "offsets": [0, 2, 10, 11], "itemsize": 15})
#: The bytes read_e7 accepts in a cell: "0" is a digit, "s" a sign that
#: the sign tables read, and any other character is itself; the last
#: cell of a line ends in "\n" instead of a space.
_FORM = np.frombuffer(b"s0.0000000es00 ", np.uint8)
#: Per byte of a cell, the lowest byte that fits its place and how many
#: bytes above it fit too: b fits if (b - low) mod 256 <= span.
_LOW = np.where(_FORM == ord("0"), ord("0"),
                np.where(_FORM == ord("s"), 0, _FORM)).astype(np.uint8)
_SPAN = np.where(_FORM == ord("0"), 9,
                 np.where(_FORM == ord("s"), 255, 0)).astype(np.uint8)
#: Bytes of whole lines read_e7 checks and converts at a time (at least
#: one line); a block and the arrays formed from it take under 1 MB.
_READ_BLOCK_BYTES = 1 << 17
#: Each byte's sign before the digits, and in the exponent; 0 for none.
_MANTISSA_SIGNS = np.zeros(256)
_MANTISSA_SIGNS[[ord(" "), ord("-")]] = 1.0, -1.0
_EXPONENT_SIGNS = np.zeros(256, np.intp)
_EXPONENT_SIGNS[[ord("+"), ord("-")]] = 1, -1
#: At exponent k + 99, for -99 <= k <= 99: D * 10**(k-7) is D divided
#: by _DIVISORS and then times _MULTIPLIERS, one of them 1 and the
#: other an exact power; both are 1 where |k - 7| > 22.
_SCALES = np.arange(-99, 100) - 7
_DIVISORS = np.where(_SCALES >= -22, POW10.take(-_SCALES, mode="clip"), 1.0)
_MULTIPLIERS = np.where(_SCALES <= 22, POW10.take(_SCALES, mode="clip"), 1.0)
#: The first and last k + 99 of those exact powers: -15 <= k <= 29
_EXACT_K = (-15 + 99, 29 + 99)
_ONE = np.frombuffer(b"1.0000000e+00", np.uint8)  #: 1's text after its sign
#: Lemire's eight-digit step: byte pairs, then pairs of pairs
_PAIR_MASK = 0x0000_00FF_0000_00FF
_HIGH_PAIRS = 100 + (1_000_000 << 32)
_LOW_PAIRS = 1 + (10_000 << 32)


def read_e7(path, columns=None, n_cells=None) -> np.ndarray | None:
    """The (lines, cells) float64 matrix of a text file of "% .7e" cells,
    equal bit for bit to np.loadtxt's; None unless every line holds line
    1's number of cells and every byte fits _FORM.

    With columns, cell indices, only those cells of a line are decoded,
    in that order, and the matrix is None unless every line holds n_cells
    cells and every cell's text shows it is at most 1 in magnitude.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        width = len(fh.readline())
        if not width or width % E7_CELL.itemsize or size % width:
            return None
        n, m = size // width, width // E7_CELL.itemsize
        kept = m if columns is None else len(columns)
        if columns is not None and m != n_cells:
            return None
        out = np.empty((n, kept))
        low, span = np.tile(_LOW, m), np.tile(_SPAN, m)
        low[-1] = ord("\n")
        rows = max(1, _READ_BLOCK_BYTES // width)
        text = np.empty((rows, width), np.uint8)
        fh.seek(0)
        for start in range(0, n, rows):
            r = min(rows, n - start)
            if fh.readinto(text[:r]) != r * width:
                return None  # the file shrank
            if ((text[:r] - low) > span).any():
                return None
            cells = text[:r].reshape(r * m, E7_CELL.itemsize)
            if columns is not None:
                # a sign before the digits, and a magnitude of at most 1:
                # a "-" exponent, or "+00" with 0.ddddddd or 1.0000000
                plus = cells[cells[:, 11] != ord("-")]
                if not (_MANTISSA_SIGNS.take(cells[:, 0]).all() and (
                        (plus[:, 11:14] == _ONE[10:]).all(axis=1)
                        & ((plus[:, 1] == ord("0"))
                           | (plus[:, 1:10] == _ONE[:9]).all(axis=1))).all()):
                    return None
                cells = cells.reshape(r, m, -1)[:, columns].reshape(r * kept, -1)
            values = _values(cells)
            if values is None:
                return None
            out[start:start + r] = values.reshape(r, kept)
        if fh.read(1):
            return None  # the file grew
    return out


def _values(cells: np.ndarray) -> np.ndarray | None:
    """The values of cells, an (n, 15) byte array of cells that fit
    _FORM; None if a sign byte is no sign."""
    signs = _MANTISSA_SIGNS.take(cells[:, 0])
    k = _EXPONENT_SIGNS.take(cells[:, 11])
    if not (signs.all() and k.all()):
        return None
    # k: the 2 exponent digits, read as one little-endian word (a
    # digit's low 4 bits are its value), times the sign, plus 99
    e = cells[:, 12:14].view("<u2")[:, 0] & 0x0F0F
    k *= (e & 0x0F) * 10 + (e >> 8)
    k += 99
    # D: the lead digit takes the place of the ".", then the word's 8
    # ASCII digits are summed pairwise by Lemire's eight-digit step
    d = cells.view(E7_CELL)[:, 0]["frac"] + cells[:, 1]
    d -= 0x3030_3030_3030_302E + ord("0")
    d = d * 10 + (d >> 8)
    d = ((d & _PAIR_MASK) * _HIGH_PAIRS
         + ((d >> 16) & _PAIR_MASK) * _LOW_PAIRS) >> 32
    out = d / _DIVISORS.take(k)
    out *= _MULTIPLIERS.take(k)
    out *= signs
    if k.min() < _EXACT_K[0] or k.max() > _EXACT_K[1]:
        far = (k < _EXACT_K[0]) | (k > _EXACT_K[1])
        for i in np.flatnonzero(far).tolist():
            out[i] = float(cells[i, :-1].tobytes())
    return out
