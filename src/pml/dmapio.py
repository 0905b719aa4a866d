"""Plain-text file formats: .dmap matrices, point CSVs, scene bundles.

The .dmap format is line 1 ``<rows> <cols>`` followed by ``rows`` lines of
``cols`` space-separated decimal floats; rows and cols must be equal and a
power of two, and only blank lines may follow the last row. Floats are
written with 17 significant digits so a write/read round trip reproduces
every float64 bit-for-bit.

A scene bundle is a directory holding ``points.csv``, ``observation.dmap``,
``gt.dmap`` and a one-line ``manifest.txt`` recording the generating config.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .pyramid import DensityMap, PointAnnotations

if TYPE_CHECKING:
    from .synth import Scene, SceneConfig


class ParseError(ValueError):
    """Malformed input file; carries path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _is_power_of_two(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


def write_dmap(path, m: DensityMap) -> None:
    side = m.side
    with open(path, "w") as fh:
        fh.write(f"{side} {side}\n")
        for row in m.data:
            # Python floats format faster than np.float64s, to the same strings
            fh.write(" ".join(format_float(v) for v in row.tolist()))
            fh.write("\n")


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
    data = np.empty((rows, cols), dtype=np.float64)
    for r in range(rows):
        parts = lines[1 + r].split()
        if len(parts) != cols:
            raise ParseError(path, 2 + r, f"expected {cols} values, found {len(parts)}")
        try:
            data[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(path, 2 + r, f"bad float: {exc}") from None
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
        for x, y in ann.points:
            fh.write(f"{format_float(x)},{format_float(y)}\n")


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


def save_scene(directory, scene: "Scene") -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_points_csv(d / "points.csv", scene.annotations)
    write_dmap(d / "observation.dmap", DensityMap(scene.config.obs_level, scene.observation))
    write_dmap(d / "gt.dmap", scene.gt_map)
    with open(d / "manifest.txt", "w") as fh:
        fh.write(json.dumps(asdict(scene.config), sort_keys=True) + "\n")


def load_scene(directory) -> "Scene":
    from .synth import Scene, SceneConfig

    d = Path(directory)
    with open(d / "manifest.txt") as fh:
        raw = json.loads(fh.readline())
    raw["points_per_cluster"] = tuple(raw["points_per_cluster"])
    cfg = SceneConfig(**raw)
    ann = read_points_csv(d / "points.csv", cfg.scene_size)
    obs = read_dmap(d / "observation.dmap")
    gt = read_dmap(d / "gt.dmap").require_nonnegative()
    return Scene(config=cfg, annotations=ann, observation=obs.data, gt_map=gt)


def read_dmap_batch(path_or_dir) -> list[DensityMap]:
    """One .dmap file, or every *.dmap in a directory (sorted by name)."""
    p = Path(path_or_dir)
    if p.is_dir():
        files = sorted(p.glob("*.dmap"))
        if not files:
            raise FileNotFoundError(f"no .dmap files in {p}")
        return [read_dmap(f) for f in files]
    return [read_dmap(p)]
