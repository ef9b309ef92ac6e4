"""Tensor-file format tests: roundtrips, packing, and malformed inputs."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from fpq.tensorfile import MAGIC, TensorFileError, read_tensor, write_tensor


class TestRoundtrip:
    def test_f32_bit_identical(self, tmp_path) -> None:
        path = tmp_path / "x.fpqt"
        x = np.random.default_rng(0).standard_normal((3, 128)).astype(np.float32)
        write_tensor(path, x)
        got = read_tensor(path)
        assert got.kind == "f32"
        assert got.data.tobytes() == x.tobytes()

    def test_f64_roundtrip(self, tmp_path) -> None:
        path = tmp_path / "x.fpqt"
        x = np.random.default_rng(1).standard_normal((7,))
        write_tensor(path, x)
        got = read_tensor(path)
        assert got.kind == "f64"
        np.testing.assert_array_equal(got.data, x)

    def test_write_read_write_identical_bytes(self, tmp_path) -> None:
        a, b = tmp_path / "a.fpqt", tmp_path / "b.fpqt"
        x = np.random.default_rng(2).standard_normal((5, 5)).astype(np.float32)
        write_tensor(a, x)
        write_tensor(b, read_tensor(a).data)
        assert a.read_bytes() == b.read_bytes()

    def test_code8_roundtrip(self, tmp_path) -> None:
        path = tmp_path / "c.fpqt"
        codes = np.random.default_rng(3).integers(0, 256, (4, 9)).astype(np.uint8)
        write_tensor(path, codes)
        got = read_tensor(path)
        assert got.kind == "code8"
        np.testing.assert_array_equal(got.data, codes)

    @pytest.mark.parametrize("count", [6, 7])
    def test_code4_roundtrip(self, tmp_path, count: int) -> None:
        path = tmp_path / "c4.fpqt"
        codes = np.random.default_rng(count).integers(0, 16, count).astype(np.uint8)
        write_tensor(path, codes, kind="code4")
        got = read_tensor(path)
        assert got.kind == "code4"
        np.testing.assert_array_equal(got.data, codes)

    def test_code4_padding_nibble_zero(self, tmp_path) -> None:
        path = tmp_path / "odd.fpqt"
        write_tensor(path, np.array([15, 15, 15], dtype=np.uint8), kind="code4")
        blob = path.read_bytes()
        assert blob[-1] >> 4 == 0  # final high nibble zero-padded

    def test_code4_low_nibble_first(self, tmp_path) -> None:
        path = tmp_path / "nib.fpqt"
        write_tensor(path, np.array([0x1, 0x2], dtype=np.uint8), kind="code4")
        assert path.read_bytes()[-1] == 0x21

    def test_scalar_tensor(self, tmp_path) -> None:
        path = tmp_path / "s.fpqt"
        write_tensor(path, np.float64(2.5))
        got = read_tensor(path)
        assert got.data.shape == ()
        assert float(got.data) == 2.5

    def test_code4_rejects_wide_values(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="below 16"):
            write_tensor(tmp_path / "bad.fpqt", np.array([16], dtype=np.uint8), kind="code4")

    @pytest.mark.parametrize("value", [-1, 256])
    def test_code8_rejects_out_of_range(self, tmp_path, value: int) -> None:
        path = tmp_path / "bad.fpqt"
        with pytest.raises(ValueError, match="non-negative values below 256"):
            write_tensor(path, np.array([3, value], dtype=np.int16), kind="code8")
        assert not path.exists()

    def test_code8_rejects_negative_int8(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="below 256"):
            write_tensor(tmp_path / "bad.fpqt", np.array([-1], dtype=np.int8), kind="code8")

    def test_code4_rejects_values_that_would_wrap(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="below 16"):
            write_tensor(tmp_path / "bad.fpqt", np.array([256, -256]), kind="code4")

    def test_unknown_kind(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="unknown tensor kind"):
            write_tensor(tmp_path / "k.fpqt", np.ones(2), kind="f16")


class TestMalformed:
    def _valid_blob(self) -> bytes:
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        return (
            MAGIC
            + struct.pack("<HBB", 1, 0, 2)
            + struct.pack("<QQ", 2, 3)
            + x.tobytes()
        )

    def test_bad_magic(self, tmp_path) -> None:
        p = tmp_path / "bad.fpqt"
        p.write_bytes(b"NOPE" + self._valid_blob()[4:])
        with pytest.raises(TensorFileError, match="bad magic") as e:
            read_tensor(p)
        assert e.value.offset == 0

    def test_bad_version(self, tmp_path) -> None:
        blob = bytearray(self._valid_blob())
        blob[4] = 9
        p = tmp_path / "v.fpqt"
        p.write_bytes(bytes(blob))
        with pytest.raises(TensorFileError, match="version") as e:
            read_tensor(p)
        assert e.value.offset == 4

    def test_bad_dtype_tag(self, tmp_path) -> None:
        blob = bytearray(self._valid_blob())
        blob[6] = 99
        p = tmp_path / "d.fpqt"
        p.write_bytes(bytes(blob))
        with pytest.raises(TensorFileError, match="dtype tag") as e:
            read_tensor(p)
        assert e.value.offset == 6

    def test_truncated_payload_names_lengths(self, tmp_path) -> None:
        blob = self._valid_blob()
        p = tmp_path / "t.fpqt"
        p.write_bytes(blob[:-5])
        with pytest.raises(TensorFileError, match="expected 24 bytes.*got 19"):
            read_tensor(p)

    def test_trailing_bytes_rejected(self, tmp_path) -> None:
        p = tmp_path / "x.fpqt"
        p.write_bytes(self._valid_blob() + b"\x00")
        with pytest.raises(TensorFileError, match="payload length mismatch"):
            read_tensor(p)

    def test_short_file(self, tmp_path) -> None:
        p = tmp_path / "s.fpqt"
        p.write_bytes(b"FP")
        with pytest.raises(TensorFileError, match="too short"):
            read_tensor(p)

    def test_truncated_shape(self, tmp_path) -> None:
        p = tmp_path / "sh.fpqt"
        p.write_bytes(MAGIC + struct.pack("<HBB", 1, 0, 4) + b"\x01")
        with pytest.raises(TensorFileError, match="truncated shape"):
            read_tensor(p)

    def test_no_temp_residue(self, tmp_path) -> None:
        target = tmp_path / "out.fpqt"
        write_tensor(target, np.ones(4, dtype=np.float32))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers and target.exists()
