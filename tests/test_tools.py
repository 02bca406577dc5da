import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

from lidarscene import config

TALLY = Path(__file__).parents[1] / "tools" / "tally.py"


def test_tally_prints_every_tally():
    out = subprocess.run([sys.executable, str(TALLY)], capture_output=True, text=True, check=True).stdout
    tallies = {name: int(value.replace(",", "")) for name, value in (ln.split(": ") for ln in out.splitlines())}
    assert list(tallies) == ["source lines", "code lines", "defaulted settings", "config keys", "test-only names"]
    assert 0 < tallies["code lines"] < tallies["source lines"]
    assert tallies["config keys"] == len(config.SCHEMA)
    # A change that adds or removes a defaulted setting or a config key edits
    # its pin here and says so in CHANGES.md.
    assert tallies["defaulted settings"] == 70
    assert tallies["config keys"] == 29


def _load_tally():
    spec = importlib.util.spec_from_file_location("tally", TALLY)
    tally = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tally)
    return tally


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    tally = _load_tally()
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


def test_test_only_names_count_what_no_caller_names():
    module = (
        "def called(): pass\n"
        "def unreferenced(): pass\n"
        "def wrapped(): pass\n"
        "def _private(): pass\n"
        "class Box:\n"
        "    def unused(self): pass\n"
        "    def used(self): pass\n"
        "    def __len__(self): return 0\n"
    )
    caller = 'from mod import called\ncalled(); Box().used(); WRAP = "wrapped"\n'
    assert _load_tally().unreferenced_names({"mod": module}, [module, caller]) == ["mod.unreferenced", "mod.Box.unused"]


def test_only_criterion_1_calls_a_public_name_that_no_package_or_harness_file_names():
    # sensor.project_points is the subject of acceptance criterion 1; a new
    # public name that only tests call fails here.
    assert _load_tally().names_only_tests_call() == ["sensor.project_points"]


def test_defaults_every_call_passes_lists_defaults_that_no_call_omits():
    module = (
        "def f(a, b=1, *, c=2): pass\n"
        "def g(a=0): pass\n"
        "def h(a=0): pass\n"
        "def uncalled(a=0): pass\n"
        "class Box:\n"
        "    def __init__(self, size=1): pass\n"
        "    def grow(self, by=1): pass\n"
        "    @staticmethod\n"
        "    def make(n=1): pass\n"
    )
    caller = "f(0, 1, c=3); f(0, b=2, c=4); g(); g(1); h(1); h(*[2]); Box(2); Box(size=3).grow(**{}); Box.make(5)\n"
    found = _load_tally().defaults_every_call_passes({"mod": module}, [module, caller])
    assert found == ["mod.f(b)", "mod.f(c)", "mod.Box.__init__(size)", "mod.Box.make(n)"]


def test_every_package_default_is_omitted_by_some_call():
    # A default that every call in the package, perfbench/ and tests/ passes
    # is a setting that nothing uses: delete it.
    assert _load_tally().unused_defaults() == []


def test_tests_read_every_name_they_import():
    unread = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{path.name}:{node.lineno}: {name}" for name in bound if name not in read]
    assert unread == []


def test_imports_never_named_lists_module_level_imports_their_module_never_names():
    module = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "def f():\n"
        "    import sys\n"
        "    return np.zeros(1), tau\n"
    )
    assert _load_tally().imports_never_named({"mod": module}) == ["mod:2: os", "mod:3: os", "mod:5: pi"]


def test_package_modules_name_every_import_they_make():
    assert _load_tally().unused_imports() == []
