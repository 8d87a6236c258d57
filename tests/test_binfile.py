"""The one reader behind the four binary file formats."""

import struct

import numpy as np
import pytest

from diarkit.binfile import BinaryReader
from diarkit.errors import FormatError


def _file(tmp_path, payload, magic=b"TEST"):
    path = tmp_path / "x.bin"
    path.write_bytes(magic + payload)
    return path


def test_fields_in_order(tmp_path):
    values = np.array([1.5, -2.0, 0.25], dtype="<f8")
    path = _file(tmp_path, struct.pack("<IH", 3, 2) + "é".encode() + values.tobytes())
    reader = BinaryReader(path, b"TEST", "test file")
    assert reader.unpack("<IH", "header") == (3, 2)
    assert reader.text(2, "name") == "é"
    got = reader.values("<f8", 3, "values")
    assert np.array_equal(got, values) and not got.flags.writeable
    reader.close()


def test_take_does_not_copy(tmp_path):
    reader = BinaryReader(_file(tmp_path, b"abcdef"), b"TEST", "test file")
    chunk = reader.take(4, "blob")
    assert isinstance(chunk, memoryview) and bytes(chunk) == b"abcd"
    assert bytes(reader.take(2, "rest")) == b"ef"
    reader.close()


@pytest.mark.parametrize("magic", [b"", b"TE", b"NOPE"])
def test_bad_magic(tmp_path, magic):
    with pytest.raises(FormatError, match=r"x\.bin: not a test file \(bad magic\)$"):
        BinaryReader(_file(tmp_path, b"\0" * 8, magic=magic), b"TEST", "test file")


def test_truncated_names_the_field(tmp_path):
    reader = BinaryReader(_file(tmp_path, b"\0" * 5), b"TEST", "test file")
    with pytest.raises(FormatError, match=r"truncated test file \(count\)$"):
        reader.unpack("<Q", "count")
    reader.take(4, "head")
    with pytest.raises(FormatError, match=r"truncated test file \(values\)$"):
        reader.values("<f4", 1, "values")
    with pytest.raises(FormatError, match=r"truncated test file \(name\)$"):
        reader.text(2, "name")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values(tmp_path, bad):
    path = _file(tmp_path, np.array([0.0, bad], dtype="<f4").tobytes())
    reader = BinaryReader(path, b"TEST", "test file")
    with pytest.raises(FormatError, match="vector contains non-finite values$"):
        reader.values("<f4", 2, "vector")


def test_text_must_be_utf8(tmp_path):
    reader = BinaryReader(_file(tmp_path, b"\xff\xfe"), b"TEST", "test file")
    with pytest.raises(FormatError, match="name is not UTF-8$"):
        reader.text(2, "name")


def test_trailing_bytes(tmp_path):
    reader = BinaryReader(_file(tmp_path, b"\0" * 7), b"TEST", "test file")
    reader.take(4, "head")
    with pytest.raises(FormatError, match="3 trailing bytes$"):
        reader.close()
