"""e7text.read_e7, the fixed-width "% .7e" reader of X_train.txt.

Its values must equal np.loadtxt's bit for bit, and any file that strays
from the layout must come out of dataset._table exactly as loadtxt's
path gives it: the same matrix, or the same DataError.
"""

import numpy as np
import pytest

from harboost import dataset, e7text
from harboost.dataset import DataError, load_hapt
from harboost.e7text import read_e7
from harboost.synthetic import write_hapt_layout


def cell(sign: str, digits: str, exponent: int) -> str:
    """A "% .7e" cell: sign " " or "-", 8 digits, a 2-digit exponent."""
    return f"{sign}{digits[0]}.{digits[1:]}e{exponent:+03d}"


def write(path, cells, width: int) -> None:
    lines = [" ".join(cells[i:i + width]) + "\n"
             for i in range(0, len(cells), width)]
    path.write_text("".join(lines), encoding="ascii")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def drawn_cells(n: int, low: int, high: int, seed: int) -> list[str]:
    g = np.random.default_rng(seed)
    digits = g.integers(0, 10 ** 8, n)
    exponents = g.integers(low, high + 1, n)
    signs = g.choice([" ", "-"], n)
    return [cell(s, f"{d:08d}", e) for s, d, e in
            zip(signs.tolist(), digits.tolist(), exponents.tolist())]


EDGES = [
    cell(" ", "00000000", 0), cell("-", "00000000", 0),
    cell("-", "00000000", -99), cell(" ", "00000000", 99),
    cell(" ", "10000000", 0), cell("-", "10000000", 0),
    cell(" ", "99999999", 0), cell("-", "99999999", 0),
    # the exact powers' bounds, 10**(k-7) with k - 7 = -22 and 22,
    # and the first exponents past them, which float() reads
    cell(" ", "12345678", -15), cell("-", "99999999", -15),
    cell(" ", "12345678", 29), cell("-", "99999999", 29),
    cell(" ", "12345678", -16), cell(" ", "99999999", 30),
    cell("-", "12345678", -99), cell(" ", "98765432", 99),
    cell(" ", "22250738", -99), cell(" ", "17976931", 99),
    cell(" ", "10000000", 7), cell(" ", "10000000", 8),
    cell(" ", "30000000", -1), cell(" ", "10000001", -1),
]


@pytest.mark.parametrize("low,high,seed", [(-15, 8, 0), (-99, 99, 1),
                                           (-1, 0, 2)])
def test_drawn_values_equal_loadtxt_bit_for_bit(tmp_path, low, high, seed):
    path = tmp_path / "X.txt"
    write(path, drawn_cells(20_000, low, high, seed), 40)
    got = read_e7(path)
    assert got is not None
    assert same_bits(got, np.loadtxt(path, ndmin=2))


def test_edge_values_equal_loadtxt_bit_for_bit(tmp_path):
    path = tmp_path / "X.txt"
    for width in (1, len(EDGES)):
        write(path, EDGES, width)
        got = read_e7(path)
        assert got is not None
        assert same_bits(got, np.loadtxt(path, ndmin=2))
    assert np.signbit(got[0, 1]) and got[0, 1] == 0.0


def test_blocks_of_any_row_count(tmp_path, monkeypatch):
    path = tmp_path / "X.txt"
    cells = drawn_cells(7 * 5, -3, 3, 4)
    write(path, cells, 5)
    expected = np.loadtxt(path, ndmin=2)
    line = 5 * e7text.E7_CELL.itemsize
    # blocks of 1 line (the block is under one line), 2 lines with 1 left
    # over, 3 lines with 1 left over, and all 7 in one
    for block in (10, 2 * line + 1, 3 * line, 1 << 17):
        monkeypatch.setattr(e7text, "_READ_BLOCK_BYTES", block)
        assert same_bits(read_e7(path), expected)


@pytest.mark.parametrize("seed,n_rows,total", [(0, 1, 15), (3, 37, 561),
                                               (7, 200, 30), (515, 120, 561)])
def test_written_layout_takes_the_array_path(tmp_path, seed, n_rows, total):
    write_hapt_layout(tmp_path, n_rows=n_rows, seed=seed,
                      total_features=total)
    path = tmp_path / "Train" / "X_train.txt"
    got = read_e7(path)
    assert got is not None and got.shape == (n_rows, total)
    assert same_bits(got, np.loadtxt(path, ndmin=2))


def _loadtxt_only(path):
    """dataset._table's matrix or DataError text with the reader off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(e7text, "read_e7", lambda path: None)
        return _outcome(path)


def _outcome(path):
    try:
        return dataset._table(path, np.float64)
    except DataError as e:
        return str(e)


BASE = [cell(s, d, e) for s, d, e in [
    (" ", "12345678", -1), ("-", "50000000", -3), (" ", "99999999", 0),
    ("-", "10000000", -15), (" ", "31415926", 0), ("-", "27182818", -2),
]]


def _edited(edit) -> str:
    lines = [" ".join(BASE[:3]) + "\n", " ".join(BASE[3:]) + "\n"]
    return edit(lines)


#: Texts off the layout, each from a 2 x 3 file of valid cells.
STRAYS = {
    "crlf": lambda ls: "".join(l.replace("\n", "\r\n") for l in ls),
    "blank-first-line": lambda ls: "\n" + "".join(ls),
    "blank-middle-line": lambda ls: ls[0] + "   \n" + ls[1],
    "blank-last-line": lambda ls: "".join(ls) + "\n",
    "tab": lambda ls: ls[0].replace(" -", "\t-", 1) + ls[1],
    "short-row": lambda ls: ls[0] + ls[1][:-16] + "\n",
    "long-row": lambda ls: ls[0] + ls[1][:-1] + " " + BASE[0] + "\n",
    "two-spaces": lambda ls: ls[0].replace(" -", "  -", 1) + ls[1],
    "capital-e": lambda ls: ls[0].replace("e", "E", 1) + ls[1],
    "three-digit-exponent": lambda ls: ls[0] + ls[1].replace("e-15", "e-015"),
    "nan": lambda ls: ls[0] + ls[1].replace(BASE[4], "           nan"),
    "inf": lambda ls: ls[0] + ls[1].replace(BASE[4], "          -inf"),
    "not-ascii": lambda ls: ls[0] + ls[1].replace("1415", "14٥"),
    "letter": lambda ls: ls[0].replace("2345", "2x45") + ls[1],
    "no-final-newline": lambda ls: "".join(ls)[:-1],
    "plus-sign": lambda ls: ls[0].replace(" 1.2", "+1.2") + ls[1],
    "comma-exponent-sign": lambda ls: ls[0].replace("e-01", "e,01") + ls[1],
    "space-exponent-sign": lambda ls: ls[0].replace("e-01", "e 01") + ls[1],
    "no-point": lambda ls: ls[0].replace("1.2", "1,2") + ls[1],
    "leading-space": lambda ls: " " + ls[0] + ls[1],
    "empty": lambda ls: "",
    "blank-lines": lambda ls: "\n \n\t\n",
}


@pytest.mark.parametrize("name", sorted(STRAYS))
def test_stray_layouts_fall_back_to_loadtxt(tmp_path, name):
    path = tmp_path / "X_train.txt"
    path.write_bytes(_edited(STRAYS[name]).encode("utf-8"))
    assert read_e7(path) is None
    got, expected = _outcome(path), _loadtxt_only(path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert same_bits(got, expected)


def test_valid_base_file_takes_the_array_path(tmp_path):
    path = tmp_path / "X_train.txt"
    path.write_text(_edited("".join), encoding="ascii")
    got = read_e7(path)
    assert got is not None
    assert same_bits(got, _loadtxt_only(path))


def test_load_hapt_values_are_loadtxts(tmp_path):
    root = write_hapt_layout(tmp_path, n_rows=50, seed=9, total_features=40)
    ds = load_hapt(root)
    x = np.loadtxt(root / "Train" / "X_train.txt", ndmin=2)
    assert same_bits(ds.features, x)


# ---------------------------------------------------------------------------
# load_body_acc: the 15 columns alone, or load_hapt and select_features
# ---------------------------------------------------------------------------


def _via_load_hapt(root):
    """load_body_acc's dataset, or DataError text, from the whole matrix."""
    try:
        return dataset.select_features(load_hapt(root),
                                       dataset.BODY_ACC_FEATURES)
    except DataError as e:
        return str(e)


def _body_acc(root, monkeypatch):
    """(load_body_acc's dataset or DataError text, whether it fell back
    to load_hapt)."""
    calls = []
    real = dataset.load_hapt

    def counted(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(dataset, "load_hapt", counted)
        try:
            got = dataset.load_body_acc(root)
        except DataError as e:
            got = str(e)
    return got, bool(calls)


def _same_dataset(a, b) -> bool:
    return (same_bits(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and a.feature_names == b.feature_names)


@pytest.mark.parametrize("seed,n_rows,total", [(0, 1, 15), (3, 37, 561),
                                               (7, 200, 30), (515, 120, 561)])
def test_body_acc_columns_equal_the_whole_matrix(tmp_path, monkeypatch, seed,
                                                 n_rows, total):
    root = write_hapt_layout(tmp_path, n_rows=n_rows, seed=seed,
                             total_features=total)
    got, fell_back = _body_acc(root, monkeypatch)
    assert not fell_back
    assert _same_dataset(got, _via_load_hapt(root))


def _cell_at(root, row: int, col: int, text: bytes) -> None:
    """Overwrite the 14 bytes of one cell of X_train.txt."""
    path = root / "Train" / "X_train.txt"
    data = bytearray(path.read_bytes())
    width = data.index(b"\n") + 1
    start = row * width + col * E7_CELL
    data[start:start + len(text)] = text
    path.write_bytes(bytes(data))


def _edit_lines(path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


E7_CELL = e7text.E7_CELL.itemsize

#: Directories load_body_acc must read through load_hapt, each a
#: write_hapt_layout directory (12 rows, 20 columns) with one edit.
FALLBACKS = {
    # an unread column's cell
    "stray-byte": lambda r: _cell_at(r, 3, 17, b" 1.23x5678e-01"),
    "stray-mantissa-sign": lambda r: _cell_at(r, 3, 17, b"+1.2345678e-01"),
    "stray-exponent-sign": lambda r: _cell_at(r, 3, 17, b" 1.2345678e,01"),
    "above-one": lambda r: _cell_at(r, 5, 18, b" 1.5000000e+00"),
    "far-above-one": lambda r: _cell_at(r, 5, 18, b"-2.0000000e+03"),
    "plus-01-below-one": lambda r: _cell_at(r, 2, 16, b" 0.0500000e+01"),
    # a read column's cell
    "read-column-above-one": lambda r: _cell_at(r, 4, 2, b" 1.0000001e+00"),
    "read-column-plus-01": lambda r: _cell_at(r, 4, 2, b"-0.1000000e+01"),
    # the feature names and the labels
    "duplicated-name": lambda r: _edit_lines(
        r / "features.txt",
        lambda ls: ls[:17] + ["18 tBodyAcc-Mad-2\n"] + ls[18:]),
    "missing-name": lambda r: _edit_lines(
        r / "features.txt",
        lambda ls: ["1 tBodyAcc-Mean-X\n"] + ls[1:]),
    "fewer-names": lambda r: _edit_lines(r / "features.txt",
                                         lambda ls: ls[:-1]),
    "more-names": lambda r: _edit_lines(r / "features.txt",
                                        lambda ls: ls + ["21 extra\n"]),
    "fewer-labels": lambda r: _edit_lines(r / "Train" / "y_train.txt",
                                          lambda ls: ls[:-1]),
    "more-labels": lambda r: _edit_lines(r / "Train" / "y_train.txt",
                                         lambda ls: ls + ["3\n"]),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_doubtful_directories_fall_back_to_load_hapt(tmp_path, monkeypatch,
                                                     name):
    root = write_hapt_layout(tmp_path, n_rows=12, seed=4, total_features=20)
    FALLBACKS[name](root)
    got, fell_back = _body_acc(root, monkeypatch)
    expected = _via_load_hapt(root)
    assert fell_back
    if isinstance(expected, str):
        assert got == expected
    else:
        assert _same_dataset(got, expected)


@pytest.mark.parametrize("text", [b" 0.0000000e+00", b"-0.0000000e+00",
                                  b" 1.0000000e+00", b"-1.0000000e+00",
                                  b"-0.5000000e+00",
                                  b" 9.9999999e-01", b"-5.0000000e-99"])
def test_cells_within_one_by_their_text_keep_the_column_path(
        tmp_path, monkeypatch, text):
    root = write_hapt_layout(tmp_path, n_rows=12, seed=4, total_features=20)
    _cell_at(root, 7, 19, text)
    _cell_at(root, 8, 0, text)
    got, fell_back = _body_acc(root, monkeypatch)
    assert not fell_back
    assert _same_dataset(got, _via_load_hapt(root))
