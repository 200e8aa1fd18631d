"""Command-line front end: config handling, artifacts, exit codes."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from klform import GeneratorId, LiouvillianCoeffs, conjugate_coefficients
from klform.cli import (
    DESK_PRESETS,
    ConfigError,
    GridSpec,
    RunConfig,
    build_parser,
    load_config,
    main,
)


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
}


@pytest.mark.parametrize("doc", INVALID.values(), ids=INVALID.keys())
def test_invalid_config_exits_2_with_config_error(tmp_path, capsys, doc):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"out": str(out), **doc})
    assert run_cli(["spectrum", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
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

    @hyp.settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @hyp.given(docs)
    def check(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            assert isinstance(load(str(path)), RunConfig)
        except ConfigError:
            pass

    check()
