"""The package side of the benchmark's contract: every photocorr module and name that
the scripts under perfbench/ import must resolve, so that a change to the package which
deletes or renames one fails here, and not first when the benchmark runs.  The scripts
are only parsed, never run or changed."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _photocorr_imports():
    """Sorted (script, module, name) of each photocorr import in perfbench/*.py; name is
    None for a plain `import photocorr.x`."""
    found = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "photocorr")
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "photocorr"):
                found.update((path.name, node.module, alias.name) for alias in node.names)
    return sorted(found, key=lambda item: (item[0], item[1], item[2] or ""))


IMPORTS = _photocorr_imports()


def test_the_benchmark_scripts_import_from_photocorr():
    assert {"checks.py", "libstep.py", "run.py", "selftest.py"} <= {s for s, _, _ in IMPORTS}


@pytest.mark.parametrize("script,module,name", IMPORTS,
                         ids=[f"{s}:{m}" + (f".{n}" if n else "") for s, m, n in IMPORTS])
def test_each_name_the_benchmark_imports_resolves(script, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # `from package import submodule`
