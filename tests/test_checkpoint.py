"""Checkpoint loading: a complete file loads bit-exactly, and every damaged
one raises a FakeflowError."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fakeflow.tensor as tz
from fakeflow.errors import FakeflowError, ParseError
from fakeflow.model import FakeFlowModel
from fakeflow.tensor.serialize import MAGIC, VERSION
from test_model import tiny_config

PREFIX = 16  # magic, version, header length


def checkpoint_bytes(tmp_path) -> bytes:
    path = tmp_path / "model.bin"
    FakeFlowModel(tiny_config(), seed=21).save(path)
    return path.read_bytes()


def raw_checkpoint(header, data: bytes = b"") -> bytes:
    body = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(body)) + body + data


def load(tmp_path, blob: bytes):
    path = tmp_path / "damaged.bin"
    path.write_bytes(blob)
    return tz.load_checkpoint(path)


class TestDamagedCheckpoints:
    @pytest.mark.parametrize("cut", [2, 6, 12, 40])  # magic, version, length, header
    def test_truncated_field_is_parse_error(self, tmp_path, cut):
        with pytest.raises(ParseError):
            load(tmp_path, checkpoint_bytes(tmp_path)[:cut])

    def test_trailing_bytes_are_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="after the last parameter"):
            load(tmp_path, checkpoint_bytes(tmp_path) + b"\0")

    def test_other_version_is_parse_error(self, tmp_path):
        blob = bytearray(checkpoint_bytes(tmp_path))
        blob[4:8] = struct.pack("<I", VERSION + 1)
        with pytest.raises(ParseError, match=f"unsupported checkpoint version {VERSION + 1}"):
            load(tmp_path, bytes(blob))

    def test_header_length_past_the_end_is_parse_error(self, tmp_path):
        blob = bytearray(checkpoint_bytes(tmp_path))
        blob[8:16] = struct.pack("<Q", 2**62)
        with pytest.raises(ParseError, match="truncated"):
            load(tmp_path, bytes(blob))

    @pytest.mark.parametrize("header", [
        [],
        {},
        {"params": {}},
        {"config": [], "params": []},
        {"params": ["w"]},
        {"params": [{"name": "w"}]},
        {"params": [{"name": 3, "shape": [1]}]},
        {"params": [{"name": "w", "shape": [-1]}]},
        {"params": [{"name": "w", "shape": [1.0]}]},
        {"params": [{"name": "w", "shape": [True]}]},
        {"params": [{"name": "w", "shape": []}, {"name": "w", "shape": []}]},
    ])
    def test_bad_header_schema_is_parse_error(self, tmp_path, header):
        with pytest.raises(ParseError, match="header"):
            load(tmp_path, raw_checkpoint(header, b"\0" * 16))

    def test_non_finite_parameter_is_parse_error(self, tmp_path):
        header = {"config": {}, "params": [{"name": "w", "shape": [2]}]}
        with pytest.raises(ParseError, match="non-finite"):
            load(tmp_path, raw_checkpoint(header, np.array([1.0, np.nan]).tobytes()))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_truncated_or_mutated_bytes(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        original = checkpoint_bytes(tmp_path)
        kind = data.draw(st.sampled_from(["truncate", "extend", "mutate"]))
        if kind == "truncate":
            blob = original[: data.draw(st.integers(0, len(original) - 1))]
        elif kind == "extend":
            blob = original + data.draw(st.binary(min_size=1, max_size=16))
        else:
            at = data.draw(st.integers(0, len(original) - 1))
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[at]))
            blob = original[:at] + bytes([byte]) + original[at + 1:]
        try:
            _, arrays = load(tmp_path, blob)
        except FakeflowError:
            return
        assert kind == "mutate"
        # what loaded is exactly the bytes after the header
        (header_len,) = struct.unpack_from("<Q", blob, 8)
        data_bytes = b"".join(a.astype("<f8").tobytes() for a in arrays.values())
        assert data_bytes == blob[PREFIX + header_len:]
        try:
            model = FakeFlowModel.load(tmp_path / "damaged.bin")
        except FakeflowError:
            return
        for p in model.params:
            assert np.array_equal(p.value, arrays[p.name])
