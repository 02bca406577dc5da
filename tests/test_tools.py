import importlib.util
import subprocess
import sys
from pathlib import Path

from lidarscene import config

TALLY = Path(__file__).parents[1] / "tools" / "tally.py"


def test_tally_prints_every_tally():
    out = subprocess.run([sys.executable, str(TALLY)], capture_output=True, text=True, check=True).stdout
    tallies = {name: int(value.replace(",", "")) for name, value in (ln.split(": ") for ln in out.splitlines())}
    assert list(tallies) == ["source lines", "code lines", "defaulted settings", "config keys"]
    assert 0 < tallies["code lines"] < tallies["source lines"]
    assert tallies["config keys"] == len(config.SCHEMA)


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location("tally", TALLY)
    tally = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tally)
    text = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "def f():\n"
        '    """Function docstring."""\n'
        '    return ("a"\n'
        '            "b")\n'
    )
    assert tally.code_lines(text) == 4
