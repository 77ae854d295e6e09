import re
import struct

import numpy as np
import pytest

from normalbridge import maps
from normalbridge.maps import Heightfield, NormalMap
from normalbridge.tensorcore.checkpoint import MAGIC, load_checkpoint, save_checkpoint


def _field():
    return Heightfield(np.arange(80.0).reshape(8, 10) * 0.01, cell_size=0.1)


# magic, then per record: name length, name, rank, extents, payload;
# _field()'s 80 heights start at _HEIGHTS_AT, its cell size is the last 8 bytes
_HEIGHTS_AT = 5 + 4 + len("heights") + 4 + 2 * 4
_HEIGHT_FILE_BYTES = _HEIGHTS_AT + 8 * 80 + 4 + len("cell_size") + 4 + 8


class TestHeightBinary:
    def test_cell_size_round_trips_exactly(self, tmp_path):
        hf = _field()
        path = tmp_path / "h.bin"
        maps.write_height_bin(path, hf)
        back = maps.read_height_bin(path)
        assert back.cell_size == 0.1
        assert back.heights.tobytes() == hf.heights.tobytes()
        assert path.read_bytes()[:5] == MAGIC == b"NBLB1"
        assert path.stat().st_size == _HEIGHT_FILE_BYTES
        records = load_checkpoint(path)
        assert list(records) == ["heights", "cell_size"]
        assert records["cell_size"].shape == () and records["cell_size"] == 0.1

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("height") / "h.bin"
        maps.write_height_bin(path, _field())
        return path

    @pytest.mark.parametrize("size", range(_HEIGHT_FILE_BYTES))
    def test_wrong_length_names_path(self, written, size):
        # every truncation point: inside the magic, a name, a rank, an
        # extent or a payload, and at the boundary between the two records
        path = written.with_name(f"cut{size}.bin")
        path.write_bytes(written.read_bytes()[:size])
        with pytest.raises(ValueError) as err:
            maps.read_height_bin(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("offset, value, match", [
        (_HEIGHTS_AT + 8 * 5, float("nan"), "non-finite"),  # the sixth height
        (_HEIGHT_FILE_BYTES - 8, -1.0, "cell_size"),
    ], ids=["nan_height", "negative_cell_size"])
    def test_bad_value_names_path(self, tmp_path, offset, value, match):
        path = tmp_path / "h.bin"
        maps.write_height_bin(path, _field())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=match) as err:
            maps.read_height_bin(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("records", [
        {"weight": np.ones((2, 3, 3, 3)), "bias": np.zeros(2)},
        {"heights": np.zeros((8, 10)), "cell_size": np.float64(0.1), "extra": np.zeros(1)},
        {"heights": np.zeros((8, 10)), "cell_size": np.array([0.1])},
        {"heights": np.zeros((8, 10))},
    ], ids=["parameter_checkpoint", "third_record", "cell_size_not_0d", "no_cell_size"])
    def test_other_records_name_path(self, tmp_path, records):
        path = tmp_path / "h.bin"
        save_checkpoint(path, records)
        with pytest.raises(ValueError, match="a height file holds 'heights' and a 0-d 'cell_size'") as err:
            maps.read_height_bin(path)
        assert str(path) in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "h.bin"
        maps.write_height_bin(path, _field())
        path.write_bytes(b"NBH1" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="bad magic"):
            maps.read_height_bin(path)


class TestNetpbm:
    @pytest.mark.parametrize("kind", ["ppm", "pgm"])
    @pytest.mark.parametrize("size", ["2", "4", "6", "-5", "+1"])
    def test_wrong_length_names_path(self, tmp_path, kind, size):
        # an 8x8 image cut inside its header, 5 bytes short, or 1 byte long
        img = np.arange(8 * 8 * 3, dtype=np.uint8).reshape(8, 8, 3)
        path = tmp_path / f"img.{kind}"
        if kind == "ppm":
            maps.write_ppm(path, img)
            read = maps.read_ppm
        else:
            maps.write_pgm(path, img[..., 0])
            read = maps.read_pgm
        blob = path.read_bytes()
        n = int(size)
        path.write_bytes(blob + b"\0" if n == 1 else blob[:n])
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(path) in str(err.value)

    def test_written_bytes_are_header_and_payload(self, tmp_path):
        rgb = np.arange(5 * 7 * 3, dtype=np.uint8).reshape(5, 7, 3)
        gray = np.ascontiguousarray(rgb[..., 1])
        maps.write_ppm(tmp_path / "a.ppm", rgb)
        maps.write_pgm(tmp_path / "a.pgm", gray)
        assert (tmp_path / "a.ppm").read_bytes() == b"P6\n7 5\n255\n" + rgb.tobytes()
        assert (tmp_path / "a.pgm").read_bytes() == b"P5\n7 5\n255\n" + gray.tobytes()
        # a strided view is written in row-major order
        maps.write_pgm(tmp_path / "b.pgm", rgb[..., 2])
        assert (tmp_path / "b.pgm").read_bytes() == b"P5\n7 5\n255\n" + rgb[..., 2].copy().tobytes()

    @pytest.mark.parametrize("img", [
        np.zeros((4, 4, 3), np.float64), np.zeros((4, 4), np.uint8), np.zeros((4, 4, 1), np.uint8),
        np.zeros((4, 4, 4), np.uint8), np.zeros(3, np.uint8),
    ], ids=["float", "gray", "one_channel", "four_channels", "flat"])
    def test_ppm_writer_names_itself_and_the_shape(self, tmp_path, img):
        with pytest.raises(ValueError, match="^write_ppm expects a uint8 HxWx3 array$"):
            maps.write_ppm(tmp_path / "a.ppm", img)
        assert not (tmp_path / "a.ppm").exists()

    @pytest.mark.parametrize("img", [
        np.zeros((4, 4), np.int16), np.zeros((4, 4, 3), np.uint8), np.zeros((4, 4, 1), np.uint8),
        np.zeros(4, np.uint8), np.uint8(7),
    ], ids=["int16", "rgb", "one_channel", "flat", "scalar"])
    def test_pgm_writer_names_itself_and_the_shape(self, tmp_path, img):
        with pytest.raises(ValueError, match="^write_pgm expects a uint8 HxW array$"):
            maps.write_pgm(tmp_path / "a.pgm", img)
        assert not (tmp_path / "a.pgm").exists()


class TestHeightfield:
    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0,
                                      True, np.True_, "1", None])
    def test_bad_cell_size_rejected(self, cell):
        with pytest.raises(ValueError, match=re.escape(
                f"Heightfield.cell_size must be finite and > 0, got {cell!r}")):
            Heightfield(np.zeros((8, 8)), cell)


class TestCheckReal:
    @pytest.mark.parametrize("value", [1, 0.5, np.int64(3), np.float32(1e-30), 1e308])
    def test_positive_accepted(self, value):
        maps._check_real("x", value, positive=True)
        maps._check_real("x", value, positive=False)

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, np.uint8(0)])
    def test_zero_is_non_negative_not_positive(self, value):
        maps._check_real("x", value, positive=False)
        with pytest.raises(ValueError, match=re.escape(f"x must be finite and > 0, got {value!r}")):
            maps._check_real("x", value, positive=True)

    @pytest.mark.parametrize("value", [
        True, False, np.True_, "1", None, 1j, [1.0], np.array(1.0),
        float("nan"), float("inf"), -float("inf"), -1e-300, -1, np.float64("nan"),
    ])
    def test_refused_naming_the_value(self, value):
        for positive, op in ((True, ">"), (False, ">=")):
            with pytest.raises(ValueError, match=re.escape(f"x must be finite and {op} 0, got {value!r}")):
                maps._check_real("x", value, positive=positive)


class TestNormalMap:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("foreground", [True, False])
    def test_non_finite_vector_rejected(self, bad, foreground):
        v = np.zeros((8, 8, 3))
        v[..., 2] = 1.0
        v[2, 5, 0] = bad
        mask = np.ones((8, 8), dtype=bool)
        mask[2, 5] = foreground
        with pytest.raises(ValueError, match="non-finite"):
            NormalMap(v, mask)
