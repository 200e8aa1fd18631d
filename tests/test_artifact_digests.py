"""`tools/artifact_digests.py --compare` on two synthetic dumps."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)

RUN = (0, {"stdout": '{"status": "ok"}\n', "out/spectrum.json": '{"omega0": 1.5, "m": 2}\n'})


def write_dump(root, runs):
    """One directory per run holding its exit code, stdout and out/ files."""
    for run, (code, files) in runs.items():
        (root / run / "out").mkdir(parents=True)
        (root / run / "exit").write_text(f"{code}\n")
        for name, text in files.items():
            (root / run / name).write_text(text)


def compare(tmp_path, capsys, new_runs):
    write_dump(tmp_path / "old", {"spectrum:kl": RUN})
    write_dump(tmp_path / "new", new_runs)
    code = artifact_digests.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    return code, capsys.readouterr().out


def test_identical_runs(tmp_path, capsys):
    code, out = compare(tmp_path, capsys, {"spectrum:kl": RUN})
    assert (code, out) == (0, "spectrum:kl  exit 0  identical\n")


def test_moved_number(tmp_path, capsys):
    files = {**RUN[1], "out/spectrum.json": '{"omega0": 1.5000001, "m": 2}\n'}
    code, out = compare(tmp_path, capsys, {"spectrum:kl": (0, files)})
    assert (code, out) == (0, "spectrum:kl  exit 0  moved, max_abs_diff 1e-07\n")


def test_digit_in_a_key_is_not_a_number(tmp_path, capsys):
    files = {**RUN[1], "out/spectrum.json": '{"omega1": 1.5, "m": 2}\n'}
    code, out = compare(tmp_path, capsys, {"spectrum:kl": (0, files)})
    assert (code, out) == (0, "spectrum:kl  exit 0  moved, max_abs_diff 0\n")


RECOUNTED = {
    "alone": ({**RUN[1], "out/spectrum.json": '{"omega0": 1.5, "m": [2, 3]}\n'}, "n/a"),
    "beside-a-moved-file": (
        {
            "stdout": '{"status": "ok", "t": 2}\n',
            "out/spectrum.json": '{"omega0": 1.5000001, "m": 2}\n',
        },
        "1e-07",
    ),
}


@pytest.mark.parametrize("files, diff", RECOUNTED.values(), ids=RECOUNTED.keys())
def test_a_recounted_file_reports_no_difference(tmp_path, capsys, files, diff):
    """A file whose count of numbers changed is not compared, so the run's
    difference is unknown unless another file's numbers moved."""
    code, out = compare(tmp_path, capsys, {"spectrum:kl": (0, files)})
    line = f"spectrum:kl  exit 0  moved, max_abs_diff {diff}  FLAG: "
    assert code == 1 and out.startswith(line), out


FLAGGED = {
    "exit-code": ({"spectrum:kl": (3, RUN[1])}, "exit 0 -> 3"),
    "file-set": (
        {"spectrum:kl": (0, {**RUN[1], "out/extra.json": "{}\n"})},
        "files ['out/spectrum.json', 'stdout'] -> ['out/extra.json', 'out/spectrum.json', 'stdout']",
    ),
    "number-count": (
        {"spectrum:kl": (0, {**RUN[1], "out/spectrum.json": '{"omega0": 1.5, "m": [2, 3]}\n'})},
        "out/spectrum.json: 2 -> 3 numbers",
    ),
    "run-in-one-dump": ({"spectrum:kl": RUN, "verify:kl": RUN}, "only in one dump"),
}


@pytest.mark.parametrize("new_runs, flag", FLAGGED.values(), ids=FLAGGED.keys())
def test_changed_shape_is_flagged(tmp_path, capsys, new_runs, flag):
    code, out = compare(tmp_path, capsys, new_runs)
    assert code == 1
    assert f"FLAG: {flag}" in out
