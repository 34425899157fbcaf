"""Every name that the benchmark in ``perfbench/`` imports from rulnet, or
reads off a rulnet module it imported, must still resolve, so a rename that
would break the benchmark worker fails here first.  The benchmark sources
are only parsed, never run."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RULNET = Path(__file__).resolve().parents[1] / "src" / "rulnet"
# The sample-list windows path, kept in rulnet.data only for perfbench/.
SAMPLE_LIST_PATH = {"WindowedSample", "window_split", "windows_to_arrays", "save_windows", "load_windows"}


def perfbench_trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in sorted(PERFBENCH.glob("*.py"))]


def rulnet_imports():
    """(file, module, name) for each ``from rulnet... import name`` in
    perfbench/*.py, and (file, module, None) for each ``import rulnet...``."""
    found = []
    for name, tree in perfbench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "rulnet":
                    found += [(name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "rulnet"
                ]
    return found


def module_attribute_reads():
    """(file, module, name) for each ``alias.name`` in perfbench/*.py where
    ``alias`` is a rulnet module the file imported, such as ``ad.mean``
    after ``from rulnet import autodiff as ad``."""
    found = []
    for name, tree in perfbench_trees():
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update({alias.asname: alias.name for alias in node.names
                                if alias.asname and alias.name.split(".")[0] == "rulnet"})
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "rulnet"):
                parent = importlib.import_module(node.module)
                modules.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                                for alias in node.names
                                if inspect.ismodule(getattr(parent, alias.name, None))})
        found += [(name, modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
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
    assert {"window_split", "windows_to_arrays", "expected_sample_count", "save_windows"} <= {
        name for _, module, name in imports if module == "rulnet.data"
    }
    missing = [f"{src}: {module}.{name}" for src, module, name in imports if not resolves(module, name)]
    assert not missing, f"names the benchmark imports no longer resolve: {missing}"
    # perfbench/layers.py calls save_windows(samples, path) with a list of
    # WindowedSample, not a Windows.
    data = importlib.import_module("rulnet.data")
    assert list(inspect.signature(data.save_windows).parameters) == ["samples", "path"]
    # perfbench/layers.py unpacks the Windows of windows_to_arrays into four
    # names and reads its first as the (N, F, T) windows themselves.
    assert len(data.Windows._fields) == 4
    samples = [data.WindowedSample(np.zeros((2, 3), np.float32), 1.0, 1, end) for end in (3, 4, 5)]
    assert data.windows_to_arrays(samples).rows.tolist() == [0, 1, 2]


def test_benchmark_module_attributes_resolve():
    reads = module_attribute_reads()
    assert {("rulnet.autodiff", "mean"), ("rulnet.autodiff", "mul")} <= {(m, n) for _, m, n in reads}
    missing = [f"{src}: {module}.{name}" for src, module, name in reads
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"attributes the benchmark reads off rulnet modules no longer resolve: {missing}"


def identifiers(tree):
    """Every name that a module's code uses: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_commands_stay_off_the_sample_list_path():
    # The commands window with window_arrays and write with write_windows;
    # a module that names a sample-list function has drifted back onto it.
    modules = sorted(RULNET.glob("*.py"))
    assert "cli.py" in {path.name for path in modules}
    named = []
    for path in modules:
        if path.name != "data.py":
            used = identifiers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            named += [f"{path.name}: {name}" for name in sorted(SAMPLE_LIST_PATH.intersection(used))]
    assert not named, f"rulnet modules back on the sample-list windows path: {named}"
