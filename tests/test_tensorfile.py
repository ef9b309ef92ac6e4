"""Tensor-file format tests: roundtrips, packing, and malformed inputs."""

from __future__ import annotations

import hashlib
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fpq.tensorfile import KINDS, MAGIC, TensorFileError, read_tensor, write_tensor


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


class TestPinnedBytes:
    """One file per kind, pinned to its sha256: the bytes an FPQT file holds
    for a given array never change."""

    CASES = {
        "f32": (np.linspace(-3, 5, 6, dtype=np.float32).reshape(2, 3),
                "6a868a7aa9163d843c54f6eac01e807e9eed772c52c742da635e8e9bb5cce630"),
        "f64": (np.array([[np.pi, -0.0, 1e-300], [np.inf, -2.5, 7.0]]),
                "5080d4ccf0d7d10f087b203837806d4e6b6b85017d94f756449fc5eac9d1198f"),
        "code4": (np.arange(7, dtype=np.uint8) * 2 % 16,
                  "ca1e4a2c64ea66b841e41c175062afdc267baf3695c9dfbcd6ccb952c1960537"),
        "code8": (np.arange(0, 256, 37, dtype=np.uint8).reshape(1, 7),
                  "560cd3173363bd84edacbfe38ddd46451258fe3fd569129afcfa6d24bfabd3f9"),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_file_bytes_and_read_back(self, tmp_path, kind: str) -> None:
        x, sha256 = self.CASES[kind]
        path = tmp_path / "x.fpqt"
        write_tensor(path, x, kind=kind)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
        got = read_tensor(path).data
        assert got.dtype.isnative and got.flags.owndata and got.flags.writeable
        np.testing.assert_array_equal(got, x)


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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_output_mode_follows_the_umask(self, tmp_path, umask: int, mode: int) -> None:
        target = tmp_path / "out.fpqt"
        old = os.umask(umask)
        try:
            write_tensor(target, np.ones(4))
            write_tensor(target, np.zeros(4))  # a replaced file gets the same mode
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out.fpqt"]


# Element strategy and on-disk dtype per kind.  Float kinds include NaN,
# infinities and signed zeros, whose bits must survive the round trip.
_KIND_CASES = {
    "f32": (st.floats(width=32), np.float32),
    "f64": (st.floats(), np.float64),
    "code4": (st.integers(0, 15), np.uint8),
    "code8": (st.integers(0, 255), np.uint8),
}


class TestRoundtripProperties:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=50)
    @given(data=st.data())
    def test_kind_shape_and_values_survive(self, tmp_path_factory, kind: str, data) -> None:
        elements, want_dtype = _KIND_CASES[kind]
        shape = data.draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
        src_dtype = data.draw(st.sampled_from(
            [want_dtype, np.dtype(want_dtype).newbyteorder(">")] if kind in ("f32", "f64")
            else [np.uint8, np.int16, np.int64, np.float64, ">f8"]
        ))
        x = data.draw(arrays(want_dtype, shape, elements=elements)).astype(src_dtype)
        if x.ndim and data.draw(st.booleans()):
            x = np.repeat(x, 2, axis=-1)[..., ::2]  # a strided view of the same values
        path = tmp_path_factory.mktemp("rt") / "x.fpqt"
        write_tensor(path, x, kind=kind)
        got = read_tensor(path)
        assert got.kind == kind and got.data.shape == x.shape and got.data.dtype == want_dtype
        assert got.data.tobytes() == np.ascontiguousarray(x, dtype=want_dtype).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 3, 15])
    def test_code4_odd_and_empty_lengths(self, tmp_path, count: int) -> None:
        path = tmp_path / "c4.fpqt"
        codes = (np.arange(count) % 16).astype(np.uint8)
        write_tensor(path, codes, kind="code4")
        assert path.stat().st_size == 8 + 8 + (count + 1) // 2
        got = read_tensor(path)
        assert got.kind == "code4" and got.data.tolist() == codes.tolist()

    def test_bool_codes_accepted(self, tmp_path) -> None:
        path = tmp_path / "b.fpqt"
        write_tensor(path, np.array([True, False, True]), kind="code4")
        assert read_tensor(path).data.tolist() == [1, 0, 1]


class TestCodePayloadRejection:
    @pytest.mark.parametrize("kind, values", [
        ("code4", [3.9]),
        ("code8", [1.5, 2.0]),
        ("code4", [np.nan]),
        ("code8", [2.0, np.inf]),
        ("code8", [-np.inf]),
        ("code4", [3, 1 + 2j]),
    ])
    def test_non_integral_or_non_finite_raises(self, tmp_path, kind: str, values) -> None:
        path = tmp_path / "bad.fpqt"
        with pytest.raises(ValueError, match=f"{kind} payload requires finite integral values"):
            write_tensor(path, np.array(values), kind=kind)
        assert not path.exists()

    def test_integral_floats_accepted(self, tmp_path) -> None:
        path = tmp_path / "f.fpqt"
        write_tensor(path, np.array([[3.0, -0.0], [15.0, 0.0]]), kind="code4")
        assert read_tensor(path).data.tolist() == [[3, 0], [15, 0]]
