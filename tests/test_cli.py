"""Command-line front end: config handling, artifacts, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from klform import GeneratorId, LiouvillianCoeffs, conjugate_coefficients
from klform.cli import main


def run_cli(argv):
    return main(argv)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_spectrum_reference_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "kl",
            "preset": {"omega0": 1.0, "gamma": 0.2, "b": 1.0},
            "m_max": 1,
            "out": str(tmp_path / "out"),
        },
    )
    assert run_cli(["spectrum", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    rows = [
        (r["m"], r["n"], r["sigma"], r["re_lambda"], r["im_lambda"])
        for r in doc["modes"]
    ]
    assert rows == [
        (0, 0, 1, 0.0, 0.0),
        (1, 0, 1, pytest.approx(0.2), 0.0),
        (1, 1, 1, pytest.approx(0.1), pytest.approx(1.0)),
        (1, 1, -1, pytest.approx(0.1), pytest.approx(-1.0)),
    ]
    assert doc["omega0"] == pytest.approx(1.0)


def test_outputs_are_bit_identical(tmp_path):
    for sub in ("a", "b"):
        code = run_cli(
            ["eigfun", "--preset", "hpz", "--out", str(tmp_path / sub)]
        )
        assert code == 0
    for name in ("eigenfunction.json", "eigenfunction.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_reduce_round_trip(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "generic",
            "coefficients": {
                "h": [2.2, 0.4, -0.3],
                "gamma": 0.5,
                "g": [-1.1, 0.2, 0.3],
            },
            "out": str(tmp_path / "out"),
        },
    )
    assert run_cli(["reduce", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "reduction.json").read_text())
    coeffs = LiouvillianCoeffs(
        tuple(doc["source"]["h"]), doc["source"]["gamma"], tuple(doc["source"]["g"])
    )
    for step in doc["steps"]:
        coeffs = conjugate_coefficients(
            GeneratorId(step["generator"]), step["parameter"], coeffs
        )
    target = LiouvillianCoeffs(
        tuple(doc["target"]["h"]), doc["target"]["gamma"], tuple(doc["target"]["g"])
    )
    assert coeffs.max_abs_diff(target) <= 1e-12
    assert doc["replay_residual"] <= 1e-10
    assert doc["omega0"] == pytest.approx(
        0.5 * math.sqrt(2.2**2 - 0.4**2 - 0.3**2)
    )


def test_reduce_on_normal_form_is_empty(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "kl",
            "preset": {"omega0": 1.0, "gamma": 0.3, "b": 1.0},
            "out": str(tmp_path / "out"),
        },
    )
    assert run_cli(["reduce", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "reduction.json").read_text())
    assert doc["steps"] == []
    assert doc["replay_residual"] == 0.0


def test_stationary_generic_matches_preset(tmp_path):
    """The transport route and the closed form give the same Gaussian."""
    preset_cfg = write_config(
        tmp_path,
        {
            "model": "cl",
            "preset": {"omega0_prime": 1.0, "gamma": 0.6, "b_cl": 1.0},
            "out": str(tmp_path / "p"),
        },
        name="p.json",
    )
    assert run_cli(["stationary", "--config", preset_cfg]) == 0
    from klform import cl_coefficients

    src = cl_coefficients(1.0, 0.6, 1.0)
    generic_cfg = write_config(
        tmp_path,
        {
            "model": "generic",
            "coefficients": {
                "h": list(src.h),
                "gamma": src.gamma,
                "g": list(src.g),
            },
            "out": str(tmp_path / "g"),
        },
        name="g.json",
    )
    assert run_cli(["stationary", "--config", generic_cfg]) == 0
    a = json.loads((tmp_path / "p" / "stationary.json").read_text())
    b = json.loads((tmp_path / "g" / "stationary.json").read_text())
    for key in ("mu", "kappa", "nu"):
        assert a[key] == pytest.approx(b[key], abs=1e-12)


def test_eigfun_grid_shape(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "kl",
            "preset": {"omega0": 1.0, "gamma": 0.3, "b": 1.0},
            "label": [1, 0, 1],
            "grid": {"q_min": -2.0, "q_max": 2.0, "r_min": -1.0, "r_max": 1.0, "steps": 7},
            "out": str(tmp_path / "out"),
        },
    )
    assert run_cli(["eigfun", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "eigenfunction.csv").read_text().splitlines()
    assert lines[0] == "Q,r,re_f,im_f"
    assert len(lines) == 1 + 7 * 7
    doc = json.loads((tmp_path / "out" / "eigenfunction.json").read_text())
    assert doc["eigenvalue"]["re"] == pytest.approx(0.3)
    assert doc["eigenvalue"]["im"] == pytest.approx(0.0)
    # sampled values agree with polynomial times Gaussian reconstruction
    poly = {
        (row["q_power"], row["r_power"]): row["re"] + 1j * row["im"]
        for row in doc["multiplier_polynomial"]
    }
    g = doc["gaussian"]
    q0, r0, re0, im0 = (float(x) for x in lines[1].split(","))
    val = sum(c * q0**a * r0**b for (a, b), c in poly.items())
    val *= math.sqrt(2.0 * g["mu"] / math.pi) * np.exp(
        -2.0 * g["mu"] * q0**2
        - 1j * g["kappa"] * q0 * r0
        - 0.5 * (g["mu"] + g["nu"]) * r0**2
    )
    assert val == pytest.approx(re0 + 1j * im0, abs=1e-12)


def test_verify_passes_for_presets(tmp_path):
    for preset in ("kl", "cl", "hpz"):
        out = str(tmp_path / preset)
        code = run_cli(
            ["verify", "--preset", preset, "--m-max", "2", "--out", out]
        )
        assert code == 0
        doc = json.loads((tmp_path / preset / "verify.json").read_text())
        assert doc["passed"] is True
        assert doc["max_residual"] <= 1e-8
        assert len(doc["modes"]) == 9


def test_verify_tolerance_failure_still_writes(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["verify", "--preset", "kl", "--tol", "1e-20", "--out", str(out)]
    )
    assert code == 3
    doc = json.loads((out / "verify.json").read_text())
    assert doc["passed"] is False


def test_evolve_decay_rate(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "kl",
            "preset": {"omega0": 1.0, "gamma": 0.3, "b": 1.0},
            "basis_n": 28,
            "n_times": 41,
            "out": str(tmp_path / "out"),
        },
    )
    assert run_cli(["evolve", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "evolve.json").read_text())
    assert doc["expected_rate"] == pytest.approx(0.3)
    assert doc["rate_rel_error"] <= 1e-6
    assert doc["max_trace_error"] <= 1e-10
    assert doc["rows"][0]["overlap"] == pytest.approx(1.0)


def test_overdamped_input_exits_2_without_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "model": "generic",
            "coefficients": {"h": [1.0, 2.0, 0.0], "gamma": 0.4, "g": [-0.8, 0.0, 0.0]},
            "out": str(out),
        },
    )
    code = run_cli(["reduce", "--config", cfg])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "OverdampedError"
    assert not out.exists()


def test_ill_conditioned_reduction_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "model": "generic",
            "coefficients": {"h": [1, 0.999999999999, 0], "gamma": 0.3, "g": [-0.6, 0, 0]},
            "out": str(out),
        },
    )
    assert run_cli(["reduce", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "IllConditionedReduction"
    assert not out.exists()


def test_positivity_violation_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "model": "kl",
            "preset": {"omega0": 1.0, "gamma": 0.3, "b": 0.4},
            "out": str(out),
        },
    )
    code = run_cli(["stationary", "--config", cfg])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "PositivityViolation"
    assert not out.exists()


def test_config_validation_errors(tmp_path, capsys):
    both = write_config(
        tmp_path,
        {
            "model": "kl",
            "preset": {"omega0": 1.0, "gamma": 0.3, "b": 1.0},
            "coefficients": {"h": [2.0, 0.0, 0.0], "gamma": 0.3, "g": [-0.6, 0.0, 0.0]},
        },
        name="both.json",
    )
    assert run_cli(["spectrum", "--config", both]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"

    unknown = write_config(tmp_path, {"model": "kl", "bogus": 1}, name="unk.json")
    assert run_cli(["spectrum", "--config", unknown]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"

    missing = write_config(
        tmp_path,
        {"model": "cl", "preset": {"omega0_prime": 1.0}},
        name="miss.json",
    )
    assert run_cli(["spectrum", "--config", missing]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"


def test_flags_override_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "kl",
            "preset": {"omega0": 1.0, "gamma": 0.3, "b": 1.0},
            "m_max": 1,
            "out": str(tmp_path / "ignored"),
        },
    )
    out = tmp_path / "flagged"
    code = run_cli(
        ["spectrum", "--config", cfg, "--m-max", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["m_max"] == 2
    assert len(doc["modes"]) == 9
    assert not (tmp_path / "ignored").exists()
