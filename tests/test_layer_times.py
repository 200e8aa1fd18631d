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
    """Every layer on a preset, every layer but evolve_series on a
    criterion-02 source, each with its minor page faults per call."""
    argv = ["--sources", "kl", "c02-0", "--n", "6", "--repeat", "1", "--number", "1"]
    assert layer_times.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["repeat"], doc["number"]) == (1, 1)
    assert list(doc["times_us"]) == list(doc["minor_faults"]) == ["kl", "c02-0"]
    generic = [layer for layer in layer_times.LAYERS if layer != "evolve_series"]
    for name, layers in (("kl", list(layer_times.LAYERS)), ("c02-0", generic)):
        row, faults = doc["times_us"][name], doc["minor_faults"][name]
        assert row.pop("n") == 6
        assert list(row) == list(faults) == layers
        assert all(math.isfinite(us) and us > 0 for us in row.values())
        assert all(math.isfinite(count) and count >= 0 for count in faults.values())
    assert doc["median_us"] == doc["times_us"]["c02-0"]


def test_an_unknown_source_is_refused(capsys):
    with pytest.raises(SystemExit) as info:
        layer_times.main(["--sources", "c02-100"])
    assert info.value.code == 2
    assert "unknown sources ['c02-100']" in capsys.readouterr().err
