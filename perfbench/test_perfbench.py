"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import klform  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import LAYERS, Tracer, layer_totals  # noqa: E402
from workloads import CheckFailed, CliBatch, GenericSweep, WindowSpectrum  # noqa: E402

# generic-sweep expands modes outside their own frame, as criterion 02 does
pytestmark = pytest.mark.filterwarnings("ignore::klform.errors.FrameMismatch")


def test_self_time_subtracts_direct_children():
    spans = [
        ["item", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 6.0, 7.0, 0],
    ]
    totals = layer_totals(spans)
    assert totals["item"] == (1, pytest.approx(5000.0))
    assert totals["a"] == (1, pytest.approx(3000.0))
    assert totals["b"] == (2, pytest.approx(2000.0))


def test_install_wraps_the_names_callers_look_up_and_uninstall_restores():
    original_linear = klform.operators.conjugate_linear
    original_splu = klform.verify.splu
    original_poly = klform.spectrum.AppliedEigenfunction.__dict__["expanded_poly"]
    tracer = Tracer()
    tracer.install()
    try:
        assert klform.spectrum.conjugate_linear is klform.operators.conjugate_linear
        assert klform.spectrum.conjugate_linear is not original_linear
        assert klform.verify.splu is not original_splu
        assert klform.spectrum.AppliedEigenfunction.__dict__["expanded_poly"] is not original_poly
    finally:
        tracer.uninstall()
    assert klform.spectrum.conjugate_linear is original_linear
    assert klform.operators.conjugate_linear is original_linear
    assert klform.verify.splu is original_splu
    assert klform.spectrum.AppliedEigenfunction.__dict__["expanded_poly"] is original_poly


def traced_layers(wl, items):
    tracer = Tracer()
    tracer.install()
    try:
        traced, failures = worker.measure(wl, 0.0, items, items, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return worker.per_layer(tracer, wl, traced, traced)


def test_generic_counts_repeat_exactly_for_one_seed(tmp_path):
    first, second = (traced_layers(GenericSweep(3, str(tmp_path)), 2) for _ in range(2))
    counts = [k for k in first if run.is_count(k)]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["spectrum.transport_per_plan"] == 9
    assert first["reduction.reduce_to_kl.calls"] == 2
    assert first["spectrum.expanded_poly.calls"] == 18
    assert first["verify.expand.calls"] == 18
    assert set(f"{name}.calls" for name in LAYERS) <= set(first)


def test_checks_reject_tolerance_misses(tmp_path):
    generic = GenericSweep(1, str(tmp_path))
    generic.check(None, (1e-12, [1e-9] * 9))
    with pytest.raises(CheckFailed):
        generic.check(None, (1e-12, [1e-9] * 8 + [2e-7]))
    with pytest.raises(CheckFailed):
        generic.check(None, (1e-9, [1e-9] * 9))
    window = WindowSpectrum(1, str(tmp_path))
    analytic = window.item(0)[1][4]
    window.check(window.item(0)[1], (analytic + 1e-9, 1e-9))
    with pytest.raises(CheckFailed):
        window.check(window.item(0)[1], (analytic[1:], 1e-9))
    with pytest.raises(CheckFailed):
        window.check(window.item(0)[1], (analytic, 1e-5))


def fake_cli_output(tmp_path, name, text):
    out = tmp_path / name
    out.mkdir()
    (out / "spectrum.json").write_text(text)
    proc = types.SimpleNamespace(returncode=0, stdout=json.dumps({"files": ["spectrum.json"]}))
    return proc, str(out)


def test_cli_check_compares_repeated_invocations_byte_for_byte(tmp_path):
    batch = CliBatch(1, str(tmp_path))
    argv = ["spectrum", "--preset", "kl"]
    batch.check(argv, fake_cli_output(tmp_path, "a", "{}\n"))
    batch.check(argv, fake_cli_output(tmp_path, "b", "{}\n"))
    with pytest.raises(CheckFailed):
        batch.check(argv, fake_cli_output(tmp_path, "c", "{ }\n"))
    _, out = fake_cli_output(tmp_path, "d", "{}\n")
    with pytest.raises(CheckFailed):
        batch.check(argv, (types.SimpleNamespace(returncode=3, stdout="", stderr=""), out))


def test_result_line_has_the_contract_keys():
    report = {
        "trace": 0,
        "failed": 1,
        "attempted": 4,
        "end_to_end": dict.fromkeys(run.END_TO_END, 1.5),
    }
    line = run.result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generic-sweep", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
