"""Plain-text file formats: .dmap matrices and point CSVs.

The .dmap format is line 1 ``<rows> <cols>`` (ASCII digits) followed by
``rows`` lines of ``cols`` space-separated decimal floats; rows and cols must
be equal and a power of two, and only blank lines may follow the last row. A
points CSV is one ``x,y`` pair per line, with blank lines and an optional
``x,y`` header line allowed. Both readers decode UTF-8 whatever the locale,
skipping a leading byte-order mark. A line ends only at a newline (``\n``,
``\r\n`` or ``\r``), so other whitespace, a form feed or U+2028 included,
separates the values of one row. Floats are parsed in numpy's ``loadtxt``
grammar, which unlike Python's ``float`` rejects ``1_0`` and non-ASCII digits;
the command line reads its float flags with ``parse_float`` in that grammar too.
Both writers format each line with one ``%.17g`` format string (17 significant
digits per float), so a write/read round trip reproduces every float64
bit-for-bit.
"""

from __future__ import annotations

from contextlib import suppress
from pathlib import Path

import numpy as np

from .pyramid import DensityMap, PointAnnotations


class ParseError(ValueError):
    """Malformed input file; carries path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def _is_power_of_two(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


def write_dmap(path, m: DensityMap) -> None:
    side = m.side
    row_format = " ".join(["%.17g"] * side) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{side} {side}\n")
        for row in m.data:
            fh.write(row_format % tuple(row.tolist()))


def parse_float(text: str) -> float:
    """``text`` as one float in the formats' number grammar, else ``ValueError``."""
    if text.strip():  # loadtxt warns on blank text
        value = np.loadtxt([text], dtype=np.float64, comments=None, ndmin=1)
        if value.shape == (1,):
            return float(value[0])
    raise ValueError(f"expected one number, got {text!r}")


def _loads(text: str, delimiter: str | None) -> bool:
    """Whether ``np.loadtxt`` reads ``text`` as one row of floats (blank text is none)."""
    if not text.strip():
        return False
    try:
        np.loadtxt([text], dtype=np.float64, comments=None, delimiter=delimiter)
    except ValueError:
        return False
    return True


# per delimiter: the messages for a line with a wrong value count and with a rejected value
_MESSAGES = {
    None: ("expected {cols} values, found {found}",
           "bad float: could not convert string to float: {bad!r}"),
    ",": ("expected 'x,y', got {line!r}", "bad coordinate in {line!r}"),
}


def _parse_rows(path, rows: list[tuple[int, str]], cols: int, delimiter: str | None) -> np.ndarray:
    """Parse the numbered rows in one ``np.loadtxt`` call, the formats' one number grammar.

    ``rows`` holds (1-based line number, line) pairs; a ``.dmap`` splits values on
    whitespace (``delimiter`` None), a points CSV on ``","``. Where ``loadtxt`` rejects
    the rows, name the first line with a wrong value count or a value it rejects.
    Blank rows never reach ``loadtxt``, which would warn and skip them.
    """
    lines = [line for _, line in rows]
    if not lines:
        return np.empty((0, cols))
    with suppress(ValueError):
        if all(map(str.strip, lines)):
            data = np.loadtxt(lines, dtype=np.float64, comments=None, delimiter=delimiter,
                              ndmin=2, max_rows=len(lines))
            if data.shape == (len(lines), cols):
                return data
    count_message, value_message = _MESSAGES[delimiter]
    for lineno, line in rows:
        parts = line.split(delimiter)
        if len(parts) != cols:
            raise ParseError(path, lineno, count_message.format(cols=cols, found=len(parts),
                                                                line=line))
        if not _loads(line, delimiter):
            bad = next((p for p in parts if not _loads(p, delimiter)), line)
            raise ParseError(path, lineno, value_message.format(bad=bad, line=line))
    raise AssertionError("np.loadtxt rejected rows that it reads one at a time")


def read_dmap(path) -> DensityMap:
    # read line by line, so the whole file text is never held beside its lines;
    # only a newline ends a line, as in a points CSV (text mode reads "\r\n" and
    # "\r" as "\n"), while str.splitlines would also end one at \x0c, \x1c or
    # U+2028, which split values within a row
    with open(path, encoding="utf-8-sig") as fh:
        lines = [line[:-1] if line.endswith("\n") else line for line in fh]
    if not lines:
        raise ParseError(path, 1, "empty file, expected '<rows> <cols>' header")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(path, 1, f"expected '<rows> <cols>', got {lines[0]!r}")
    try:
        if not all(h.isascii() and h.isdigit() for h in header):
            raise ValueError  # int alone also takes a sign, 1_6 and non-ASCII digits
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(path, 1, f"non-integer dimensions in {lines[0]!r}") from None
    if rows != cols:
        raise ParseError(path, 1, f"matrix must be square, got {rows}x{cols}")
    if not _is_power_of_two(rows):
        raise ParseError(path, 1, f"side {rows} is not a power of two")
    if len(lines) < 1 + rows:
        raise ParseError(path, len(lines) + 1, f"expected {rows} data rows, found {len(lines) - 1}")
    data = _parse_rows(path, list(enumerate(lines[1:1 + rows], start=2)), cols, None)
    bad_rows = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad_rows.size:
        raise ParseError(path, 2 + int(bad_rows[0]), "non-finite value")
    for k in range(1 + rows, len(lines)):
        if lines[k].strip():
            raise ParseError(path, k + 1, f"unexpected data after the {rows} declared rows")
    return DensityMap(rows.bit_length() - 1, data)


def write_points_csv(path, ann: PointAnnotations) -> None:
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for xy in ann.points.tolist():
            fh.write("%.17g,%.17g\n" % tuple(xy))


def read_points_csv(path, scene_size: float) -> PointAnnotations:
    PointAnnotations(np.empty((0, 2)), scene_size)  # a bad size must not blame a point
    with open(path, encoding="utf-8-sig") as fh:
        lines = [line.strip() for line in fh.read().split("\n")]
    rows = [(lineno, line) for lineno, line in enumerate(lines, start=1)
            if line and not (lineno == 1 and line.lower().replace(" ", "") == "x,y")]
    points = _parse_rows(path, rows, 2, ",")
    outside = np.flatnonzero(~((points >= 0.0) & (points < scene_size)).all(axis=1))
    if outside.size:
        x, y = points[outside[0]].tolist()
        raise ParseError(path, rows[outside[0]][0],
                         f"point ({x}, {y}) lies outside [0, {scene_size})^2")
    return PointAnnotations(points=points, scene_size=scene_size)


def read_dmap_batch(path_or_dir) -> list[DensityMap]:
    """One .dmap file, or every *.dmap in a directory (sorted by name)."""
    p = Path(path_or_dir)
    if p.is_dir():
        files = sorted(p.glob("*.dmap"))
        if not files:
            raise FileNotFoundError(f"no .dmap files in {p}")
        return [read_dmap(f) for f in files]
    return [read_dmap(p)]
