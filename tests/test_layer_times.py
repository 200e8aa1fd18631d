"""`tools/layer_times.py` on one tiny case: every layer timed, as JSON."""

import importlib.util
import json
import math
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "layer_times.py"
_spec = importlib.util.spec_from_file_location("layer_times", TOOL)
layer_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_times)


def test_one_source_on_a_small_basis(capsys):
    argv = ["--sources", "kl", "c02-0", "--n", "6", "--repeat", "1", "--number", "1"]
    assert layer_times.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["repeat"], doc["number"]) == (1, 1)
    assert list(doc["times_us"]) == ["kl", "c02-0"]
    for row in doc["times_us"].values():
        assert row.pop("n") == 6
        assert list(row) == list(layer_times.LAYERS)
        assert all(math.isfinite(us) and us > 0 for us in row.values())
    assert doc["median_us"] == doc["times_us"]["c02-0"]


def test_an_unknown_source_is_refused(capsys):
    with pytest.raises(SystemExit) as info:
        layer_times.main(["--sources", "c02-100"])
    assert info.value.code == 2
    assert "unknown sources ['c02-100']" in capsys.readouterr().err
