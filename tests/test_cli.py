"""Command-line front end: config handling, artifacts, exit codes."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from klform import (
    EigenLabel,
    GeneratorId,
    LiouvillianCoeffs,
    cli,
    conjugate_coefficients,
    distinct_labels,
)
from klform.cli import (
    DESK_PRESETS,
    ConfigError,
    GridSpec,
    RunConfig,
    build_parser,
    load_config,
    main,
    render_json,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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


def test_eigfun_on_a_grid_where_the_mode_is_not_finite_exits_2(tmp_path, capsys):
    """At |q| = 1e5, Q^64 overflows while the Gaussian underflows to 0, so
    the label (32, 0, 1) has no float value there: nothing is written."""
    out = tmp_path / "out"
    doc = {
        **KL,
        "label": [32, 0, 1],
        "grid": {"q_min": -1e5, "q_max": 1e5, "r_min": -1.0, "r_max": 1.0, "steps": 3},
        "out": str(out),
    }
    assert run_cli(["eigfun", "--config", write_config(tmp_path, doc)]) == 2
    message = (
        "eigenfunction [32, 0, 1] is not finite on the grid q in [-100000.0, 100000.0], "
        "r in [-1.0, 1.0]"
    )
    assert json.loads(capsys.readouterr().out) == {"error": "ConfigError", "message": message}
    assert not out.exists()


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


@pytest.mark.parametrize("source", ["kl", "generic"])
def test_verify_passes_on_every_mode_the_basis_holds_whole(tmp_path, source):
    """The 441 modes m <= 20 on 48x48 (degree 2m - n <= 40 < 48): exit 0 at
    the default tol 1e-8 (the monomial form missed it, by 5.4e-8 on kl)."""
    if source == "kl":
        argv = ["--preset", "kl"]
    else:
        coefficients = {"h": [2.2, 0.4, -0.3], "gamma": 0.5, "g": [-1.1, 0.2, 0.3]}
        argv = ["--config", write_config(tmp_path, {"model": "generic", "coefficients": coefficients})]
    out = tmp_path / "out"
    assert run_cli(["verify", *argv, "--m-max", "20", "--basis-n", "48", "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["passed"] is True
    assert len(doc["modes"]) == 441
    assert doc["max_residual"] <= 1e-12


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


TINY_GAMMA = 2.3447469302921906e-139


KL_16 = {"model": "kl", "preset": DESK_PRESETS["kl"], "basis_n": 16}


@pytest.mark.parametrize(
    "doc, in_subprocess",
    [
        ({"model": "kl", "preset": {**DESK_PRESETS["kl"], "gamma": TINY_GAMMA}}, False),
        ({"model": "hpz", "preset": {**DESK_PRESETS["hpz"], "gamma": TINY_GAMMA}}, False),
        ({"model": "kl", "preset": DESK_PRESETS["kl"], "t_max": 1e308}, False),
        # scipy stepped this span without end; a regression must fail, not hang
        ({**KL_16, "t_max": 1e30}, True),
        ({**KL_16, "t_max": 1e-200}, False),
        ({**KL_16, "seed_amplitude": 1e308}, False),
        ({**KL_16, "seed_amplitude": 1e-320}, False),
    ],
    ids=[
        "kl-tiny-gamma",
        "hpz-tiny-gamma",
        "kl-t-max-1e308",
        "kl-t-max-1e30",
        "kl-t-max-1e-200",
        "kl-seed-amplitude-1e308",
        "kl-seed-amplitude-1e-320",
    ],
)
def test_evolve_beyond_the_float_range_exits_2(tmp_path, capsys, doc, in_subprocess):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**doc, "out": str(out)})
    if in_subprocess:
        path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run(
            [sys.executable, "-m", "klform.cli", "evolve", "--config", cfg],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        code, stdout = proc.returncode, proc.stdout
    else:
        code, stdout = run_cli(["evolve", "--config", cfg]), capsys.readouterr().out
    assert code == 2
    assert json.loads(stdout)["error"] == "EvolutionOverflow"
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [{**KL_16, "t_max": 1e-20}, {**KL_16, "seed_amplitude": 1e-16}],
    ids=["kl-t-max-1e-20", "kl-seed-amplitude-1e-16"],
)
def test_evolve_fails_when_the_decay_fit_misses_the_rate(tmp_path, doc):
    # trace and hermiticity hold here; only the fitted rate tells the
    # decay was not seen
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**doc, "out": str(out)})
    assert run_cli(["evolve", "--config", cfg]) == 3
    doc = json.loads((out / "evolve.json").read_text())
    assert doc["max_trace_error"] <= 1e-8
    assert doc["max_hermiticity_defect"] <= 1e-8
    assert doc["rate_rel_error"] > 0.5


def test_evolve_trace_bound_scales_with_the_seed_amplitude(tmp_path):
    # the roundoff of the trace (about 1e-5 here) and of the reflection
    # grows with the seeded deviation; only the fitted rate keeps tol as is
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**KL_16, "seed_amplitude": 1e10, "out": str(out)})
    assert run_cli(["evolve", "--config", cfg]) == 0
    doc = json.loads((out / "evolve.json").read_text())
    assert 1e-8 < doc["max_trace_error"] <= 1e-8 * 1e10
    assert doc["max_hermiticity_defect"] <= 1e-8 * 1e10
    assert doc["rate_rel_error"] <= 1e-8


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_render_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="non-finite"):
        render_json({"rows": [{"overlap": value}]})


def test_render_writes_a_numpy_float_as_its_float():
    values = [0.1, -2.5e-300, 1.7976931348623157e308, 5e-324, -0.0, 3.0]
    for value in values:
        assert render_json({"x": [np.float64(value)]}) == render_json({"x": [value]}), value


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


def test_overflowing_source_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "model": "generic",
            "coefficients": {"h": [1e200, 0.5, 0], "gamma": 0.3, "g": [-0.6, 0, 0]},
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


@pytest.mark.parametrize(
    "preset, message",
    [
        ({"b_hpz": 1.0, "d": -3.0}, "b_plus = -0.5 must be positive"),
        ({"b_hpz": 0.3, "d": 0.0}, "nu = -0.5333333333333334 < 0"),
    ],
    ids=["negative-b_plus", "negative-nu"],
)
def test_unphysical_hpz_preset_exits_2(tmp_path, capsys, preset, message):
    out = tmp_path / "out"
    doc = {"model": "hpz", "preset": {**DESK_PRESETS["hpz"], **preset}, "out": str(out)}
    assert run_cli(["stationary", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "PositivityViolation"
    assert err["message"].startswith(message)
    assert not out.exists()


def test_unphysical_generic_stationary_exits_2(tmp_path, capsys):
    """The hpz operator at b_hpz = 0.3, d = 0 as generic coefficients: the
    transported Gaussian is the preset's, nu = -0.533, and is refused as the
    preset is."""
    out = tmp_path / "out"
    coefficients = {"h": [2.0, 0.0, -0.6], "gamma": 0.6, "g": [-0.36, -0.36, 0.0]}
    doc = {"model": "generic", "coefficients": coefficients, "out": str(out)}
    assert run_cli(["stationary", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "PositivityViolation"
    assert err["message"].startswith("stationary Gaussian has nu = -0.533")
    assert not out.exists()


def test_verify_beyond_the_label_cap_exits_2_before_transport(tmp_path, capsys, monkeypatch):
    def transport(*args):
        raise AssertionError("verify transported a label")

    monkeypatch.setattr(cli, "transformed_eigenfunction", transport)
    out = tmp_path / "out"
    argv = ["--preset", "kl", "--m-max", "33", "--basis-n", "8", "--out", str(out)]
    assert run_cli(["verify", *argv]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": "LabelError", "message": "m = 33 exceeds the cap 32"}
    assert not out.exists()
    # the closed-form table has no cap
    assert run_cli(["spectrum", *argv]) == 0


@pytest.mark.parametrize("command", ["verify", "evolve"])
@pytest.mark.parametrize("source", ["kl", "cl", "hpz", "generic"])
def test_a_basis_too_large_to_allocate_exits_2(tmp_path, capsys, command, source):
    """At basis_n 1e8 the band stack takes about 1 EiB, which numpy refuses
    before touching any memory: a ConfigError naming basis_n, and nothing
    written."""
    out = tmp_path / "out"
    if source == "generic":
        argv = ["--config", write_config(tmp_path, {**GENERIC, "out": str(out)})]
    else:
        argv = ["--preset", source, "--out", str(out)]
    assert run_cli([command, *argv, "--basis-n", "100000000"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("basis_n 100000000 is too large")
    assert not out.exists()


def test_the_stationary_state_comes_from_the_plan_not_from_a_mode(tmp_path, monkeypatch):
    """stationary reads the Gaussian from the plan's transport and builds no
    mode, evolve builds only its seed, and verify only the labels it
    tabulates, on the generic config at 40x40 and tolerance 1e-7."""
    labels = []
    transport = cli.transformed_eigenfunction

    def spy(plan, label, source):
        labels.append(label)
        return transport(plan, label, source)

    monkeypatch.setattr(cli, "transformed_eigenfunction", spy)
    cfg = write_config(tmp_path, {**GENERIC, "basis_n": 40, "tol": 1e-7})
    expected = {
        "stationary": [],
        "evolve": [EigenLabel(1, 0, 1)],
        "verify": distinct_labels(2),
    }
    for command, want in expected.items():
        labels.clear()
        assert run_cli([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert labels == want, command


@pytest.mark.parametrize(
    "case",
    [
        "out-is-a-file",
        "out-under-a-file",
        "artifact-is-a-directory",
        "second-artifact-is-a-directory",
    ],
)
def test_unwritable_out_exits_2_without_temporary_files(tmp_path, capsys, case):
    """Nothing is written: eigfun's eigenfunction.csv, which sorts before the
    blocked eigenfunction.json, is not left behind either."""
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = {
        "out-is-a-file": blocker,
        "out-under-a-file": blocker / "out",
        "artifact-is-a-directory": tmp_path / "out",
        "second-artifact-is-a-directory": tmp_path / "out",
    }[case]
    command, blocked = "spectrum", "spectrum.json"
    if case == "second-artifact-is-a-directory":
        command, blocked = "eigfun", "eigenfunction.json"
    (tmp_path / "out" / blocked).mkdir(parents=True)
    assert run_cli([command, "--preset", "kl", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("cannot write to out: ")
    assert blocker.read_text() == "kept"
    assert not (tmp_path / "out" / "eigenfunction.csv").exists()
    assert not list(tmp_path.rglob("*.tmp"))
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(["blocker", "out", blocked])


@pytest.mark.parametrize("case", ["empty-out", "previous-run"])
def test_failed_move_removes_the_temporary_files(tmp_path, capsys, monkeypatch, case):
    """A move into place that fails after every temporary file is written
    leaves `out` as it was: no temporary or set-aside file remains, and the
    artifacts of a previous run keep their bytes even when the failing move
    comes after another artifact was replaced."""
    out = tmp_path / "out"
    replace = os.replace
    if case == "empty-out":
        def refuse(src, dst):
            raise OSError(f"cannot move {src}")

        argv = ["eigfun", "--preset", "kl", "--out", str(out)]
    else:
        assert run_cli(["eigfun", "--preset", "kl", "--out", str(out)]) == 0
        capsys.readouterr()

        def refuse(src, dst):
            if str(src).endswith("eigenfunction.json.tmp"):
                raise OSError(f"cannot move {src}")
            replace(src, dst)

        doc = {"model": "kl", "preset": {"omega0": 1.0, "gamma": 0.3, "b": 1.3}, "out": str(out)}
        argv = ["eigfun", "--config", write_config(tmp_path, doc)]
    before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    monkeypatch.setattr(cli.os, "replace", refuse)
    assert run_cli(argv) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("cannot write to out: cannot move ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    if case == "previous-run":  # the refused run would have changed both artifacts
        monkeypatch.setattr(cli.os, "replace", replace)
        assert run_cli(argv) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(after) == sorted(before)
        assert all(after[name] != before[name] for name in before)


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


UNREADABLE = {
    "missing-file": (None, "cannot read config file: "),
    "invalid-json": ('{"model": "kl",', "config file is not valid JSON: "),
    "not-an-object": ('["kl"]', "config file must contain a JSON object"),
    "no-model": ('{"m_max": 2}', "no model selected"),
}


@pytest.mark.parametrize("text, message", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_config_file_exits_2_without_artifacts(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if text is None else ["config.json"])


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


KL = {"model": "kl", "preset": {"omega0": 1.0, "gamma": 0.3, "b": 1.0}}
GENERIC = {
    "model": "generic",
    "coefficients": {"h": [2.2, 0.4, -0.3], "gamma": 0.5, "g": [-1.1, 0.2, 0.3]},
}


INVALID = {
    "bool-m_max": {**KL, "m_max": True},
    "str-m_max": {**KL, "m_max": "2"},
    "bool-basis_n": {**KL, "basis_n": False},
    "bool-n_times": {**KL, "n_times": True},
    "float-label": {**KL, "label": [1.0, 1, 1]},
    "bool-label": {**KL, "label": [1, True, 1]},
    "short-seed_label": {**KL, "seed_label": [1, 0]},
    "bool-steps": {**KL, "grid": {"q_min": -1.0, "steps": True}},
    "unknown-grid-key": {**KL, "grid": {"q_min": -1.0, "z_max": 2.0}},
    "bool-tol": {**KL, "tol": True},
    "huge-int-tol": {**KL, "tol": 10**400},
    "str-t_max": {**KL, "t_max": "10"},
    "zero-seed_amplitude": {**KL, "seed_amplitude": 0},
    "empty-out": {**KL, "out": ""},
    "list-preset": {**KL, "preset": [1.0, 0.3, 1.0]},
    "null-preset": {**KL, "preset": None},
    "bool-preset-value": {**KL, "preset": {"omega0": 1.0, "gamma": 0.3, "b": True}},
    "small-b_target": {**GENERIC, "b_target": 0.3},
    "str-b_target": {**GENERIC, "b_target": "1"},
    "bool-coefficient": {
        **GENERIC,
        "coefficients": {"h": [2.2, 0.4, True], "gamma": 0.5, "g": [-1.1, 0, 0]},
    },
    "negative-gamma": {
        **GENERIC,
        "coefficients": {"h": [2.2, 0.4, 0], "gamma": -0.5, "g": [-1.1, 0, 0]},
    },
    "kl-negative-preset-gamma": {"model": "kl", "preset": {**KL["preset"], "gamma": -0.3}},
    "kl-zero-preset-gamma": {"model": "kl", "preset": {**KL["preset"], "gamma": 0}},
    "cl-zero-preset-gamma": {"model": "cl", "preset": {**DESK_PRESETS["cl"], "gamma": 0.0}},
    "hpz-zero-preset-gamma": {"model": "hpz", "preset": {**DESK_PRESETS["hpz"], "gamma": 0.0}},
    "generic-with-preset": {"model": "generic", "preset": KL["preset"]},
    "kl-with-coefficients": {"model": "kl", "coefficients": GENERIC["coefficients"]},
    "list-coefficients": {**GENERIC, "coefficients": [[2.2, 0.4, -0.3], 0.5, [-1.1, 0.2, 0.3]]},
    "short-h": {**GENERIC, "coefficients": {**GENERIC["coefficients"], "h": [2.2, 0.4]}},
    "infinite-grid-bound": {**KL, "grid": {"q_min": -math.inf}},
}


@pytest.mark.parametrize("doc", INVALID.values(), ids=INVALID.keys())
def test_invalid_config_exits_2_with_config_error(tmp_path, capsys, doc):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"out": str(out), **doc})
    assert run_cli(["spectrum", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
    assert not out.exists()


# sources that leave double precision in the reduction or the transport:
# (subcommand, h, gamma, g, b_target, error)
UNREDUCIBLE = {
    "rho-rounds-to-h0": (
        "reduce",
        [1.0, 0.9434413524127122, 0.3315394615391546],
        0.3,
        [-0.6, 0.0, 0.0],
        1.0,
        "IllConditionedReduction",
    ),
    "replay-overflow": (
        "reduce",
        [1.360036708715085e144, 3.4837177984489023e143, 1.3146622958229615e144],
        2.209288427382011e-217,
        [-1.3573919648994925, 1.8797016528645303, 0.06427434219151484],
        0.7896640311769259,
        "IllConditionedReduction",
    ),
    "gaussian-overflow": (
        "stationary",
        [0.33515482634104415, -0.033824882989909676, -0.1180102987830284],
        1.4153006582829272e-259,
        [-0.1462732548874063, -0.18087973136909527, -0.03674907623760859],
        1.0,
        "DegenerateDenominator",
    ),
    "non-commuting-pair": (
        "eigfun",
        [1.7107911937902252e64, -1.1621737986635487e64, 1.255451540421193e64],
        2.3938915882896794e-97,
        [-1.1843704796086492, -0.5865968874137653, 0.17325364514941777],
        1.5691276280361226,
        "IllConditionedReduction",
    ),
    "target-overflow": (
        "reduce",
        GENERIC["coefficients"]["h"],
        1.0,
        GENERIC["coefficients"]["g"],
        1e308,
        "IllConditionedReduction",
    ),
    "shift-overflow": (
        "reduce",
        [2.0, 0.0, 0.0],
        0.3,
        [-0.6, 0.0, 0.0],
        1e308,
        "IllConditionedReduction",
    ),
    "boost-overflow": (
        "reduce",
        GENERIC["coefficients"]["h"],
        0.5,
        [1.78e308, 0.0, 0.0],
        1.0,
        "IllConditionedReduction",
    ),
}


# the transport's certificate refuses the same source on the routes that
# read only the stationary Gaussian
UNREDUCIBLE.update(
    {
        f"non-commuting-pair-{command}": (command, *UNREDUCIBLE["non-commuting-pair"][1:])
        for command in ("stationary", "evolve")
    }
)


@pytest.mark.parametrize("case", UNREDUCIBLE.values(), ids=UNREDUCIBLE.keys())
def test_unreducible_source_exits_2_with_typed_error(tmp_path, capsys, case):
    command, h, gamma, g, b_target, error = case
    out = tmp_path / "out"
    doc = {
        "model": "generic",
        "coefficients": {"h": h, "gamma": gamma, "g": g},
        "b_target": b_target,
        "out": str(out),
    }
    assert run_cli([command, "--config", write_config(tmp_path, doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == error
    assert not out.exists()


def test_boost_overflow_error_names_the_overflowing_g(tmp_path, capsys):
    """The boost carries g0 = 1.78e308 past the largest float while h stays
    finite, so the message names g as well as h."""
    _, h, gamma, g, _, _ = UNREDUCIBLE["boost-overflow"]
    doc = {"model": "generic", "coefficients": {"h": h, "gamma": gamma, "g": g}}
    assert run_cli(["reduce", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "IllConditionedReduction"
    assert "1.78e+308" in err["message"]


def test_overflowing_preset_exits_2_with_config_error(tmp_path, capsys):
    """A preset whose own coefficient -2 gamma b leaves the float range."""
    out = tmp_path / "out"
    doc = {"model": "kl", "preset": {"omega0": 1.0, "gamma": 1.0, "b": 1e308}, "out": str(out)}
    assert run_cli(["reduce", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().out)
    message = "preset 'kl' coefficients: all coefficients must be finite"
    assert err == {"error": "ConfigError", "message": message}
    assert not out.exists()


def load(path):
    return load_config(build_parser().parse_args(["spectrum", "--config", path]))


@pytest.mark.parametrize(
    "source, parsed, t_max",
    [
        (
            {
                "model": "generic",
                "coefficients": {"h": [3, 1, 0], "gamma": 1, "g": [-2, 0, 1]},
            },
            {"coefficients": LiouvillianCoeffs((3.0, 1.0, 0.0), 1.0, (-2.0, 0.0, 1.0))},
            None,
        ),
        (
            {"model": "hpz", "preset": {"omega0_prime": 2, "gamma": 1, "b_hpz": 3, "d": 0}},
            {"preset": {"omega0_prime": 2.0, "gamma": 1.0, "b_hpz": 3.0, "d": 0.0}},
            5,
        ),
    ],
    ids=["generic", "hpz"],
)
def test_config_round_trip(tmp_path, source, parsed, t_max):
    """Every key of the schema reaches RunConfig; JSON ints become floats."""
    doc = {
        **source,
        "m_max": 3,
        "basis_n": 12,
        "tol": 1,
        "out": "elsewhere",
        "grid": {"q_min": -1, "q_max": 2, "r_min": -4, "r_max": 0.5, "steps": 5},
        "label": [2, 1, -1],
        "seed_label": [2, 0, 1],
        "b_target": 2,
        "t_max": t_max,
        "n_times": 9,
        "seed_amplitude": -1,
    }
    cfg = load(write_config(tmp_path, doc))
    assert cfg == RunConfig(
        model=source["model"],
        **parsed,
        m_max=3,
        basis_n=12,
        tol=1.0,
        out="elsewhere",
        grid=GridSpec(-1.0, 2.0, -4.0, 0.5, 5),
        label=(2, 1, -1),
        seed_label=(2, 0, 1),
        b_target=2.0,
        t_max=None if t_max is None else float(t_max),
        n_times=9,
        seed_amplitude=-1.0,
    )
    # == treats 1 and 1.0 alike, so check the conversion itself
    floats = [cfg.tol, cfg.b_target, cfg.seed_amplitude, *dataclasses.astuple(cfg.grid)[:4]]
    floats += [*(cfg.preset or {}).values(), *([] if t_max is None else [cfg.t_max])]
    assert all(type(v) is float for v in floats)


def test_load_config_raises_only_config_error(tmp_path):
    """Random JSON objects over the schema's keys give a RunConfig or a
    ConfigError, never another exception."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(10**300, 10**320)
        | st.floats()
        | st.text(max_size=4)
    )
    anything = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=8,
    )
    count = st.integers(-1, 40)
    number = st.integers(-3, 40) | st.floats(-3.0, 40.0)
    triple = st.lists(st.integers(-2, 3), min_size=3, max_size=3)
    vec3 = st.lists(number, min_size=3, max_size=3)
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    grid_keys = [f.name for f in dataclasses.fields(GridSpec)]
    source = {
        "generic": st.fixed_dictionaries({"h": vec3, "gamma": number, "g": vec3}),
        **{name: st.just(preset) for name, preset in DESK_PRESETS.items()},
    }
    optional = {
        "m_max": count,
        "basis_n": count,
        "tol": number,
        "out": st.text(max_size=4),
        "grid": st.dictionaries(st.sampled_from(grid_keys), number, max_size=5),
        "label": triple,
        "seed_label": triple,
        "b_target": number,
        "t_max": st.none() | number,
        "n_times": count,
        "seed_amplitude": number,
    }

    def plausible(model):
        key = "coefficients" if model == "generic" else "preset"
        return st.fixed_dictionaries(
            {"model": st.just(model), key: source[model]}, optional=optional
        )

    def corrupt(doc):
        # one key (or none) replaced by an arbitrary JSON value
        replace = st.tuples(st.sampled_from(keys), anything)
        return st.just(doc) | replace.map(lambda kv: {**doc, kv[0]: kv[1]})

    docs = st.sampled_from(list(source)).flatmap(plausible).flatmap(corrupt)
    path = tmp_path / "config.json"

    @hyp.settings(max_examples=100)
    @hyp.given(docs)
    def check(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            assert isinstance(load(str(path)), RunConfig)
        except ConfigError:
            pass

    check()
