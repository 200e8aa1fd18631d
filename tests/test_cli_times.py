"""`tools/cli_times.py` on one run: its three stages, as JSON.

Tier-1 cost: one `klform spectrum` process, about 0.1 s."""

import importlib.util
import json
import math
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_times.py"
SRC = TOOL.parents[1] / "src"
_spec = importlib.util.spec_from_file_location("cli_times", TOOL)
cli_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_times)


def test_one_process_split_in_three_stages(capsys):
    argv = ["--src", str(SRC), "--commands", "spectrum", "--configs", "kl", "--repeat", "1"]
    assert cli_times.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["repeat"] == 1
    assert doc["main_block"] == {str(SRC): "console_main()"}
    row = doc["times_ms"][str(SRC)]["spectrum:kl"]
    assert list(row) == list(cli_times.STAGES)
    assert all(math.isfinite(ms) and ms > 0 for ms in row.values())
    assert doc["sum_ms"][str(SRC)] == row

