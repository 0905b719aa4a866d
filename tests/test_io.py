import numpy as np
import pytest

from pml.dmapio import (
    ParseError,
    load_scene,
    read_dmap,
    read_dmap_batch,
    read_points_csv,
    save_scene,
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


class TestSceneBundle:
    def test_round_trip(self, tmp_path):
        cfg = SceneConfig(seed=77, obs_level=4, num_clusters=3, points_per_cluster=(2, 4))
        scene = generate_scene(cfg)
        save_scene(tmp_path / "scene", scene)
        back = load_scene(tmp_path / "scene")
        assert back.config == cfg
        assert np.array_equal(back.observation, scene.observation)
        assert np.array_equal(back.gt_map.data, scene.gt_map.data)
        assert np.array_equal(back.annotations.points, scene.annotations.points)

    def test_serialization_is_deterministic(self, tmp_path):
        cfg = SceneConfig(seed=78, obs_level=4)
        save_scene(tmp_path / "a", generate_scene(cfg))
        save_scene(tmp_path / "b", generate_scene(cfg))
        for name in ("points.csv", "observation.dmap", "gt.dmap", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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
