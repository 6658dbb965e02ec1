"""`import crossdifflab` loads numpy and no scipy module: scipy is loaded
only by the two functions that call it (`weights.a2_ratio_correlation`'s
`spearmanr` and the sigma > 0 branch of `skt._smoothed_abs`'s `erf`).
No module of the package imports a private name of another, and every
source file parses as Python 3.10, the requires-python floor."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["crossdifflab", "crossdifflab.cli"])
def test_import_loads_no_scipy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_a_private_name_of_a_sibling():
    # a name with a leading underscore (not a dunder such as __version__)
    # is a module's own; a sibling that needs it should get a public name
    found = []
    for path in sorted((ROOT / "src" / "crossdifflab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.endswith("__")]
    assert found == []


@pytest.mark.parametrize("folder", ["src", "bench", "tests", "demos"])
def test_sources_parse_as_python_3_10(folder):
    # the interpreter running the tests may be newer than the floor; a
    # syntax that 3.10 lacks would otherwise show only on a 3.10 run
    bad = []
    for path in sorted((ROOT / folder).rglob("*.py")):
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            bad.append(f"{path.relative_to(ROOT)}: {exc}")
    assert bad == []
