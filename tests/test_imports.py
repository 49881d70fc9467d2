"""The package is stdlib-only at runtime: importing it, the command line
included, loads no third-party module; and no module of it imports a name
it never uses."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Compares the modules loaded before and after the import, in a fresh
# interpreter: site start-up may already have loaded third-party modules.
PROBE = """\
import json, sys
before = set(sys.modules)
import gridnav, gridnav.cli
print(json.dumps({"file": gridnav.__file__,
                  "new": sorted({name.partition(".")[0] for name in set(sys.modules) - before})}))
"""


def test_importing_gridnav_loads_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out)
    assert Path(loaded["file"]).resolve().parent == SRC / "gridnav"
    assert "gridnav" in loaded["new"]
    foreign = [name for name in loaded["new"]
               if name != "gridnav" and name not in sys.stdlib_module_names]
    assert foreign == []


PACKAGE = SRC / "gridnav"
SELFTEST = SRC.parent / "perfbench" / "selftest.py"


def imported_names(tree: ast.Module) -> set[str]:
    """The names a module binds by ``import`` or ``from ... import``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """The names a module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def required_bindings() -> set[tuple[str, str]]:
    """The ``REQUIRED_BINDINGS`` of the benchmark self-test: module names the
    tracer must find, whether or not the module itself reads them."""
    for node in ast.parse(SELFTEST.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REQUIRED_BINDINGS"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"no REQUIRED_BINDINGS in {SELFTEST}")


def unused_imports(package: Path) -> set[tuple[str, str]]:
    """(module, name) for every imported name a module never reads.  The
    package's ``__init__`` is left out: its imports are the public names."""
    unused = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        module = f"{package.name}.{path.stem}"
        unused.update((module, name) for name in imported_names(tree) - used_names(tree))
    return unused


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(PACKAGE) - required_bindings() == set()
