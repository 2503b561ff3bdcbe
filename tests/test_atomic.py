"""Artifact writers replace a file whole or leave the old one untouched."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import fakeflow.tensor as tz
from fakeflow import cli
from fakeflow.atomic import atomic_open


class Boom(Exception):
    pass


def test_atomic_open_replaces_on_success(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with atomic_open(path) as fh:
        fh.write("new")
        assert path.read_text() == "old"  # nothing visible until the end
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_atomic_open_failure_keeps_old_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with pytest.raises(Boom):
        with atomic_open(path) as fh:
            fh.write("half")
            raise Boom
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_failed_json_write_keeps_old_file(tmp_path):
    path = tmp_path / "report.json"
    cli._write_json(path, {"accuracy": 0.5})
    old = path.read_bytes()
    with pytest.raises(TypeError):
        # json.dump writes the opening of the object before it meets the set
        cli._write_json(path, {"a": 1, "b": {2}})
    assert path.read_bytes() == old
    assert json.loads(old) == {"accuracy": 0.5}
    assert os.listdir(tmp_path) == ["report.json"]


class ExplodingArray:
    """Has a shape for the checkpoint header but cannot become data."""

    shape = (2,)

    def __array__(self, dtype=None, copy=None):
        raise Boom


def test_failed_checkpoint_write_keeps_old_checkpoint(tmp_path):
    path = tmp_path / "model.ffcp"
    tz.save_checkpoint(path, [tz.Parameter("a", np.arange(3.0))], config={"k": 1})
    old = path.read_bytes()
    # the header and the first parameter are written before the second fails
    params = [tz.Parameter("a", np.zeros(3)), SimpleNamespace(name="b", value=ExplodingArray())]
    with pytest.raises(Boom):
        tz.save_checkpoint(path, params)
    assert path.read_bytes() == old
    config, arrays = tz.load_checkpoint(path)
    assert config == {"k": 1} and np.array_equal(arrays["a"], np.arange(3.0))
    assert os.listdir(tmp_path) == ["model.ffcp"]
