import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from pml.dmapio import (
    ParseError,
    parse_float,
    read_dmap,
    read_dmap_batch,
    read_points_csv,
    write_dmap,
    write_points_csv,
)
from pml.pyramid import DensityMap, PointAnnotations
from pml.rng import SplitMix64
from pml.synth import SceneConfig, generate_scene


class TestDmapRoundTrip:
    def test_random_map_bit_for_bit(self, tmp_path):
        data = SplitMix64(1).uniform_block(64, -1e9, 1e9).reshape(8, 8)
        m = DensityMap(3, data * 1e-7)
        path = tmp_path / "m.dmap"
        write_dmap(path, m)
        back = read_dmap(path)
        assert back.level == 3
        assert np.array_equal(back.data, m.data)

    def test_level_zero(self, tmp_path):
        path = tmp_path / "m.dmap"
        write_dmap(path, DensityMap(0, [[math_pi := 3.141592653589793]]))
        assert read_dmap(path).data[0, 0] == math_pi

    def test_cells_formatted_as_float64_to_17_digits(self, tmp_path):
        edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                0.1, 1.0 / 3.0, -2.5, 1e-7, 123456789.123, 1e16, 9007199254740993.0, 1.0, -1e-300]
        data = np.array(edge).reshape(4, 4)
        path = tmp_path / "m.dmap"
        write_dmap(path, DensityMap(2, data))
        want = "4 4\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in data)
        assert path.read_bytes() == want.encode()
        assert path.read_text().split()[2] == "-0"
        assert np.array_equal(np.signbit(read_dmap(path).data), np.signbit(data))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.dmap"
        write_dmap(path, DensityMap(1, [[1, 2], [3, 4]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2"
        assert lines[1].split() == ["1", "2"]


class TestReadPeak:
    def test_read_holds_one_copy_of_the_file_text(self, tmp_path):
        # a level-8 map of %.17g densities, 1.4 MB of text; holding the whole text beside
        # its split lines through the parse peaked at 2.75 times the file
        path = tmp_path / "pred.dmap"
        write_dmap(path, DensityMap(8, SplitMix64(5).uniform_block(1 << 16, 0.0, 1e-3).reshape(256, 256)))
        read_dmap(path)
        ratio = traced_peak(lambda: read_dmap(path)) / path.stat().st_size
        print(f"read_dmap: peak {ratio:.2f}x the file")
        assert ratio <= 2.0, f"read_dmap: peak {ratio:.2f}x the file"


class TestDmapParseErrors:
    def _write(self, tmp_path, text):
        p = tmp_path / "bad.dmap"
        p.write_text(text)
        return p

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match=":1:"):
            read_dmap(self._write(tmp_path, ""))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match=":1:"):
            read_dmap(self._write(tmp_path, "2 2 2\n1 2\n3 4\n"))

    def test_non_square(self, tmp_path):
        with pytest.raises(ParseError, match="square"):
            read_dmap(self._write(tmp_path, "2 4\n1 2 3 4\n5 6 7 8\n"))

    def test_non_power_of_two(self, tmp_path):
        with pytest.raises(ParseError, match="power of two"):
            read_dmap(self._write(tmp_path, "3 3\n1 2 3\n4 5 6\n7 8 9\n"))

    def test_bad_float_names_line(self, tmp_path):
        with pytest.raises(ParseError, match=":3:"):
            read_dmap(self._write(tmp_path, "2 2\n1 2\n3 oops\n"))

    def test_missing_rows(self, tmp_path):
        with pytest.raises(ParseError, match="expected 2 data rows"):
            read_dmap(self._write(tmp_path, "2 2\n1 2\n"))

    def test_extra_rows_name_first_extra_line(self, tmp_path):
        with pytest.raises(ParseError, match=":5:.*after the 2 declared rows"):
            read_dmap(self._write(tmp_path, "2 2\n1 2\n3 4\n\n5 6\n7 8\n"))

    def test_trailing_blank_lines_allowed(self, tmp_path):
        m = read_dmap(self._write(tmp_path, "2 2\n1 2\n3 4\n\n  \n"))
        assert m.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_wrong_column_count_names_line(self, tmp_path):
        with pytest.raises(ParseError, match=":2:"):
            read_dmap(self._write(tmp_path, "2 2\n1\n3 4\n"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            read_dmap(self._write(tmp_path, "2 2\n1 inf\n3 4\n"))

    def test_non_finite_names_its_line(self, tmp_path):
        text = "4 4\n1 2 3 4\n1 2 3 4\n1 2 inf 4\n1 2 3 4\n"
        with pytest.raises(ParseError, match=":4: non-finite"):
            read_dmap(self._write(tmp_path, text))

    @pytest.mark.parametrize("dims, side", [
        ("1_6", 16), ("\u0664", 4), ("\uff14", 4), ("+2", 2), ("-2", 2), ("2.0", 2), ("0x2", 2),
    ])
    def test_dimensions_are_ascii_digits(self, tmp_path, dims, side):
        # the body fits the side Python's int would read, so only the header is at fault
        text = f"{dims} {dims}\n" + ("0 " * side + "\n") * side
        message = re.escape(f"non-integer dimensions in {f'{dims} {dims}'!r}")
        with pytest.raises(ParseError, match=f":1: {message}$"):
            read_dmap(self._write(tmp_path, text))

    def test_dimensions_may_have_leading_zeros(self, tmp_path):
        assert read_dmap(self._write(tmp_path, "02 2\n1 2\n3 4\n")).level == 1


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        pts = SplitMix64(2).uniform_block(20).reshape(10, 2) * 5.0
        ann = PointAnnotations(pts, scene_size=5.0)
        path = tmp_path / "pts.csv"
        write_points_csv(path, ann)
        back = read_points_csv(path, 5.0)
        assert np.array_equal(back.points, ann.points)

    def test_header_is_optional(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.25,0.5\n0.75,0.125\n")
        ann = read_points_csv(p, 1.0)
        assert len(ann) == 2
        p.write_text("x,y\n0.25,0.5\n")
        assert len(read_points_csv(p, 1.0)) == 1

    def test_bad_pair_names_line(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.25,0.5\n0.75\n")
        with pytest.raises(ParseError, match=":2:"):
            read_points_csv(p, 1.0)

    def test_out_of_bounds_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.25,2.5\n")
        with pytest.raises(ParseError):
            read_points_csv(p, 1.0)

    def test_out_of_bounds_names_its_line(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.25,0.5\n0.75,0.125\n0.5,1.5\n")
        with pytest.raises(ParseError, match=":4: point"):
            read_points_csv(p, 1.0)

    @pytest.mark.parametrize("size", [float("nan"), -1.0, 0.0])
    def test_invalid_scene_size_blames_the_size_not_a_point(self, tmp_path, size):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.5,0.5\n")
        with pytest.raises(ValueError, match=f"^scene_size must be finite and > 0, got {size}$"):
            read_points_csv(p, size)

    def test_blank_lines_and_any_header_spelling_allowed(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text(" X, Y \n\n0.25,0.5\n \t \n 0.75 , 0.125\n\n")
        assert read_points_csv(p, 1.0).points.tolist() == [[0.25, 0.5], [0.75, 0.125]]
        p.write_text("")
        assert read_points_csv(p, 1.0).points.shape == (0, 2)

    @pytest.mark.parametrize("line", ["0.5,x", "0.5,", ",0.5"])
    def test_malformed_line_outranks_an_earlier_point_outside(self, tmp_path, line):
        # every line parses before any point is placed in the scene; an empty
        # coordinate is a bad one, not a wrong value count
        p = tmp_path / "pts.csv"
        p.write_text(f"0.5,1.5\n{line}\n")
        with pytest.raises(ParseError, match=f":2: bad coordinate in {re.escape(repr(line))}$"):
            read_points_csv(p, 1.0)

    def test_wrong_value_count_message(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.5,0.5\n0.5,0.5,\n")
        with pytest.raises(ParseError, match=r":2: expected 'x,y', got '0\.5,0\.5,'$"):
            read_points_csv(p, 1.0)

class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet exports write, is not part of the first line."""

    def test_dmap(self, tmp_path):
        p = tmp_path / "bom.dmap"
        p.write_bytes(b"\xef\xbb\xbf2 2\n1 2\n3 4\n")
        assert read_dmap(p).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_points_csv(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfx,y\n0.5,0.25\n")
        assert read_points_csv(p, 1.0).points.tolist() == [[0.5, 0.25]]
        p.write_bytes(b"\xef\xbb\xbf0.5,0.25\n")  # no header: the mark leaves the first point
        assert read_points_csv(p, 1.0).points.tolist() == [[0.5, 0.25]]

    def test_only_a_leading_mark_is_skipped(self, tmp_path):
        p = tmp_path / "bom.dmap"
        p.write_bytes(b"1 1\n\xef\xbb\xbf1\n")
        with pytest.raises(ParseError, match=":2: bad float"):
            read_dmap(p)


class TestSceneFiles:
    def _write(self, directory, scene):
        directory.mkdir()
        write_points_csv(directory / "points.csv", scene.annotations)
        write_dmap(directory / "observation.dmap", DensityMap(scene.config.obs_level, scene.observation))
        write_dmap(directory / "gt.dmap", scene.gt_map)

    def test_round_trip(self, tmp_path):
        cfg = SceneConfig(seed=77, obs_level=4, num_clusters=3, points_per_cluster=(2, 4))
        scene = generate_scene(cfg)
        self._write(tmp_path / "scene", scene)
        obs = read_dmap(tmp_path / "scene" / "observation.dmap")
        gt = read_dmap(tmp_path / "scene" / "gt.dmap").require_nonnegative()
        points = read_points_csv(tmp_path / "scene" / "points.csv", cfg.scene_size)
        assert obs.level == gt.level == cfg.obs_level
        assert np.array_equal(obs.data, scene.observation)
        assert np.array_equal(gt.data, scene.gt_map.data)
        assert np.array_equal(points.points, scene.annotations.points)

    def test_serialization_is_deterministic(self, tmp_path):
        cfg = SceneConfig(seed=78, obs_level=4)
        self._write(tmp_path / "a", generate_scene(cfg))
        self._write(tmp_path / "b", generate_scene(cfg))
        for name in ("points.csv", "observation.dmap", "gt.dmap"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _outcome(path):
    """What read_dmap makes of a file: the level and bits, or the ParseError's line and message."""
    try:
        m = read_dmap(path)
    except ParseError as exc:
        message = str(exc)[len(f"{path}:{exc.line}:"):]
        assert not re.search(r"\brow \d", message), f"loadtxt's own row index in {message!r}"
        return ("error", exc.line, message)
    return ("ok", m.level, m.data.tobytes())


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 0.1, 1.0 / 3.0]
# each token as the last cell of a 2x2 map: the float it reads as, or its ParseError on line 3.
# numpy's grammar rejects the digit separators and non-ASCII digits that Python's float accepts.
TOKEN_OUTCOMES = [
    ("1_0", "bad float"), ("\u0661", "bad float"), ("\uff11", "bad float"), ("-0", -0.0),
    ("1e-400", 0.0), ("+1.5", 1.5), (".5", 0.5), ("5.", 5.0),
    ("inf", "non-finite value$"), ("-inf", "non-finite value$"), ("nan", "non-finite value$"),
    ("NaN", "non-finite value$"), ("infinity", "non-finite value$"), ("1e5000", "non-finite value$"),
    ("-1e5000", "non-finite value$"),
    ("0x10", "bad float"), ("1d5", "bad float"), ("1e", "bad float"), ("1j", "bad float"),
    ("#1", "bad float"), ("1,5", "bad float"), ("'1'", "bad float"), ("\x00", "bad float"),
]
TOKENS = [token for token, _ in TOKEN_OUTCOMES]
# \x0b, \x0c, \x1c, \x85 and U+2028 end a line for str.splitlines, but not for the readers
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003",
              "\u2028", " \t"]


class TestNumpyParseMatchesRowParser:
    """The readers' one numpy grammar, and the row loop that names the first line it rejects."""

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_formatted_floats_read_to_the_same_bits(self, tmp_path_factory, level, data):
        side = 1 << level
        values = data.draw(st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS),
                      st.integers(0, 10 ** 6).map(float)),
            min_size=side * side, max_size=side * side))
        want = np.array(values).reshape(side, side)
        text = f"{side} {side}\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in want)
        path = tmp_path_factory.mktemp("fmt") / "m.dmap"
        path.write_text(text)
        assert _outcome(path) == ("ok", level, want.tobytes())

    @pytest.mark.parametrize("token, expected", TOKEN_OUTCOMES)
    def test_token(self, tmp_path, token, expected):
        path = tmp_path / "m.dmap"
        path.write_text(f"2 2\n1 2\n3 {token}\n")
        got = _outcome(path)
        if isinstance(expected, float):
            value = read_dmap(path).data[1, 1]
            assert value == expected and np.signbit(value) == np.signbit(expected)
        else:
            assert got[:2] == ("error", 3) and re.search(f"^ {expected}", got[2])

    @pytest.mark.parametrize("token, expected", [t for t in TOKEN_OUTCOMES if "," not in t[0]])
    def test_points_csv_token(self, tmp_path, token, expected):
        # a coordinate reads as the same token in a .dmap does; a non-finite one lies outside
        p = tmp_path / "pts.csv"
        p.write_text(f"x,y\n1,1\n0.5,{token}\n")
        if isinstance(expected, float):
            y = read_points_csv(p, 10.0).points[1, 1]
            assert y == expected and np.signbit(y) == np.signbit(expected)
        else:
            message = "point" if expected.startswith("non-finite") else "bad coordinate in"
            with pytest.raises(ParseError, match=f":3: {message} "):
                read_points_csv(p, 10.0)

    @pytest.mark.parametrize("token, expected", TOKEN_OUTCOMES)
    def test_parse_float_token(self, token, expected):
        # the command line's float flags read a token as a .dmap cell does
        if isinstance(expected, float):
            value = parse_float(token)
            assert value == expected and np.signbit(value) == np.signbit(expected)
        elif expected.startswith("non-finite"):
            assert not np.isfinite(parse_float(token))  # each flag checks its own range
        else:
            with pytest.raises(ValueError):
                parse_float(token)

    @pytest.mark.parametrize("text", ["", " ", "1 2", "1\t2"])
    def test_parse_float_takes_exactly_one_value(self, text):
        with pytest.raises(ValueError, match=f"^expected one number, got {re.escape(repr(text))}$"):
            parse_float(text)

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_separator(self, tmp_path, sep):
        path = tmp_path / "m.dmap"
        path.write_text(f"2 2\n1{sep}2\n{sep}3{sep}4{sep}\n", encoding="utf-8", newline="")
        assert read_dmap(path).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("brk", ["\x0c", "\u2028"])
    def test_splitlines_break_ends_no_row(self, tmp_path, brk):
        # before, the dmap reader split lines with str.splitlines and named line 3 (the good
        # row "3 4") for "expected 2 values, found 0"; loadtxt and the points reader agree
        path = tmp_path / "m.dmap"
        path.write_text(f"2 2\n1 2{brk}\n3 4\n", encoding="utf-8")
        assert read_dmap(path).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert np.loadtxt(path, skiprows=1, encoding="utf-8").tolist() == [[1.0, 2.0], [3.0, 4.0]]
        csv = tmp_path / "pts.csv"
        csv.write_text(f"x,y\n1,2{brk}\n3,4\n", encoding="utf-8")
        assert read_points_csv(csv, 10.0).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_loadtxt_splits_where_str_split_does(self):
        # the row loop counts values with str.split; numpy must split each line the same way
        # (text mode turns "\r" into "\n", so only "\n" ends a line)
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace() and c not in "\r\n"]
        rows = np.loadtxt([f"1{c}2" for c in spaces], dtype=np.float64, comments=None, ndmin=2)
        assert rows.tolist() == [[1.0, 2.0]] * len(spaces)

    @pytest.mark.parametrize("text, line", [
        ("4 4\n1 2 3 4\n\n1 2 3 4\n1 2 3 4\n", 3),        # blank row in the body
        ("4 4\n1 2 3 4\n1 2 3 4\n \t \n1 2 3 4\n", 4),   # whitespace-only row in the body
        ("4 4\n1 2 3 4\n1 2 3\n1 2 3 4\n1 2 3 4\n", 3),    # short row
        ("4 4\n1 2 3 4\n1 2 3 4\n1 2 3 4\n1 2 3 4 5\n", 5),  # long row
        ("2 2\n1 2 3\n4 5 6\n", 2),                         # every row long
        ("2 2\n1 2\n3 4\n5 6\n", 4),                       # data after the last row
        ("2 2\n1 2 #1\n3 4 #1\n", 2),                       # comments for loadtxt's default
        ("2 2\n#1 2\n3 4\n", 2),                            # a whole-row comment for it
    ])
    def test_malformed_body_names_the_same_line(self, tmp_path, text, line):
        path = tmp_path / "m.dmap"
        path.write_text(text)
        assert _outcome(path)[:2] == ("error", line)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "m.dmap"
        path.write_bytes(b"2 2\r\n1 -0\r\n3 4.5\r\n\r\n")
        assert _outcome(path)[0] == "ok"
        assert np.array_equal(np.signbit(read_dmap(path).data), [[False, True], [False, False]])

    @given(st.integers(0, 2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mixed_tokens_separators_and_line_endings(self, tmp_path_factory, level, data):
        # every file reads or names its first bad line: none reaches the end of the row loop
        side = 1 << level
        cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
                         st.sampled_from(TOKENS))
        sep = st.sampled_from(SEPARATORS)
        lines = [f"{side} {side}"]
        for _ in range(side + data.draw(st.integers(-1, 1))):
            cells = data.draw(st.lists(cell, min_size=max(side - 1, 0), max_size=side + 1))
            lines.append(data.draw(sep).join(cells) if data.draw(st.booleans()) else
                         data.draw(st.sampled_from(["", " ", "\t"])).join(cells))
        ending = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = ending.join(lines) + ending
        path = tmp_path_factory.mktemp("mix") / "m.dmap"
        path.write_bytes(text.encode())
        got = _outcome(path)
        if got[0] == "ok":
            assert got[1] == level
        else:
            assert 2 <= got[1] <= len(text.splitlines()) + 1


class TestWriterBytes:
    """Each writer's one format per line writes what ``f"{x:.17g}"`` writes value by value."""

    @staticmethod
    def _per_value(m):
        side = m.side
        return (f"{side} {side}\n" + "".join(
            " ".join(f"{v:.17g}" for v in row.tolist()) + "\n" for row in m.data)).encode()

    @pytest.mark.parametrize("level", [2, 5, 8])
    def test_random_bit_patterns(self, tmp_path, level):
        # every finite float64 bit pattern is equally likely: subnormals and all exponents
        side = 1 << level
        bits = np.frombuffer(np.random.default_rng(level).bytes(8 * 4 * side * side), dtype=np.float64)
        extremes = [-0.0, 5e-324, 1.7976931348623157e308]
        values = bits[np.isfinite(bits)][:side * side - len(extremes)].tolist() + extremes
        m = DensityMap(level, np.array(values).reshape(side, side))
        path = tmp_path / "m.dmap"
        write_dmap(path, m)
        assert path.read_bytes() == self._per_value(m)
        assert read_dmap(path).data.tobytes() == m.data.tobytes()

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_maps(self, tmp_path_factory, level, data):
        side = 1 << level
        values = data.draw(st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)),
            min_size=side * side, max_size=side * side))
        m = DensityMap(level, np.array(values).reshape(side, side))
        path = tmp_path_factory.mktemp("w") / "m.dmap"
        write_dmap(path, m)
        assert path.read_bytes() == self._per_value(m)

    def test_points_csv_random_bit_patterns(self, tmp_path):
        bits = np.frombuffer(np.random.default_rng(9).bytes(8 * 4096), dtype=np.float64)
        extremes = [0.0, -0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0]
        values = np.abs(bits[np.isfinite(bits)][:1000]).tolist() + extremes
        ann = PointAnnotations(np.array(values).reshape(-1, 2), scene_size=1.7976931348623157e308)
        path = tmp_path / "pts.csv"
        write_points_csv(path, ann)
        want = "x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in ann.points.tolist())
        assert path.read_bytes() == want.encode()
        assert read_points_csv(path, ann.scene_size).points.tobytes() == ann.points.tobytes()


class TestBatchReader:
    def test_single_file(self, tmp_path):
        write_dmap(tmp_path / "one.dmap", DensityMap(0, [[2.0]]))
        batch = read_dmap_batch(tmp_path / "one.dmap")
        assert len(batch) == 1

    def test_directory_sorted(self, tmp_path):
        write_dmap(tmp_path / "b.dmap", DensityMap(0, [[2.0]]))
        write_dmap(tmp_path / "a.dmap", DensityMap(0, [[1.0]]))
        batch = read_dmap_batch(tmp_path)
        assert [m.data[0, 0] for m in batch] == [1.0, 2.0]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dmap_batch(tmp_path)
