"""Plain-text file formats: .dmap matrices and point CSVs.

The .dmap format is line 1 ``<rows> <cols>`` followed by ``rows`` lines of
``cols`` space-separated decimal floats; rows and cols must be equal and a
power of two, and only blank lines may follow the last row. Floats are read
in numpy's ``loadtxt`` grammar, which unlike Python's ``float`` rejects ``1_0``
and non-ASCII digits. Both writers format each line with one ``%.17g`` format
string (17 significant digits per float), so a write/read round trip
reproduces every float64 bit-for-bit.
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


def _loads(text: str) -> bool:
    """Whether ``np.loadtxt`` reads ``text`` as one row of floats."""
    try:
        np.loadtxt([text], dtype=np.float64, comments=None)
    except ValueError:
        return False
    return True


def _parse_rows(path, body: list[str], cols: int) -> np.ndarray:
    """Parse the data rows in one ``np.loadtxt`` call, the format's one number grammar.

    Where it rejects them, name the first line with a wrong value count or a token
    it rejects. Blank rows never reach ``loadtxt``, which would warn and skip them.
    """
    with suppress(ValueError):
        if all(map(str.strip, body)):
            data = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2, max_rows=len(body))
            if data.shape == (len(body), cols):
                return data
    for r, line in enumerate(body):
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(path, 2 + r, f"expected {cols} values, found {len(parts)}")
        if not _loads(line):
            bad = next((p for p in parts if not _loads(p)), line)
            raise ParseError(path, 2 + r, f"bad float: could not convert string to float: {bad!r}")
    raise AssertionError("np.loadtxt rejected rows that it reads one at a time")


def read_dmap(path) -> DensityMap:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected '<rows> <cols>' header")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(path, 1, f"expected '<rows> <cols>', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(path, 1, f"non-integer dimensions in {lines[0]!r}") from None
    if rows != cols:
        raise ParseError(path, 1, f"matrix must be square, got {rows}x{cols}")
    if not _is_power_of_two(rows):
        raise ParseError(path, 1, f"side {rows} is not a power of two")
    if len(lines) < 1 + rows:
        raise ParseError(path, len(lines) + 1, f"expected {rows} data rows, found {len(lines) - 1}")
    body = lines[1:1 + rows]
    data = _parse_rows(path, body, cols)
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
    pts: list[tuple[float, float]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "") == "x,y":
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(path, lineno, f"expected 'x,y', got {line!r}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise ParseError(path, lineno, f"bad coordinate in {line!r}") from None
            if not (0.0 <= x < scene_size and 0.0 <= y < scene_size):
                raise ParseError(path, lineno, f"point ({x}, {y}) lies outside [0, {scene_size})^2")
            pts.append((x, y))
    points = np.array(pts, dtype=np.float64).reshape(-1, 2)
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
