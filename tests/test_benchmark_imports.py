"""Every name that the benchmark in ``perfbench/`` imports from rulnet must
still resolve, so a rename that would break the benchmark worker's import
fails here first.  The benchmark sources are only parsed, never run."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def rulnet_imports():
    """(file, module, name) for each ``from rulnet... import name`` in
    perfbench/*.py, and (file, module, None) for each ``import rulnet...``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "rulnet":
                    found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "rulnet"
                ]
    return found


def resolves(module, name):
    try:
        imported = importlib.import_module(module)
        if name is None or hasattr(imported, name):
            return True
        importlib.import_module(f"{module}.{name}")  # a submodule not yet imported
        return True
    except ImportError:
        return False


def test_benchmark_imports_from_rulnet_resolve():
    imports = rulnet_imports()
    assert {"window_split", "windows_to_arrays", "expected_sample_count"} <= {
        name for _, module, name in imports if module == "rulnet.data"
    }
    missing = [f"{src}: {module}.{name}" for src, module, name in imports if not resolves(module, name)]
    assert not missing, f"names the benchmark imports no longer resolve: {missing}"
